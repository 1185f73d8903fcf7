//! A fixed-size, log-bucketed latency histogram.
//!
//! The server records every request's latency here. Its memory is one
//! array of counters, whatever the number of requests, and a percentile
//! is a walk over that array rather than a sort of every sample.
//!
//! Values below 8 µs each have their own bucket. Above that, each power
//! of two splits into 8 equal buckets, so a bucket spans at most 1/8 of
//! its lower bound: a reported percentile is within 12.5% of the exact
//! one, below it.

use std::sync::atomic::{AtomicU64, Ordering};

/// Sub-buckets per power of two, as a bit count.
const SUB_BITS: u32 = 3;
/// Buckets covering every `u64`.
const BUCKETS: usize = ((64 - SUB_BITS + 1) << SUB_BITS) as usize;

/// Request latencies in microseconds, counted per logarithmic bucket.
#[derive(Debug)]
pub struct LatencyHistogram {
    counts: [AtomicU64; BUCKETS],
}

impl Default for LatencyHistogram {
    fn default() -> Self {
        LatencyHistogram {
            counts: std::array::from_fn(|_| AtomicU64::new(0)),
        }
    }
}

impl LatencyHistogram {
    /// Counts one latency of `us` microseconds.
    pub fn record(&self, us: u64) {
        self.counts[bucket(us)].fetch_add(1, Ordering::Relaxed);
    }

    /// Latencies recorded so far.
    #[cfg(test)]
    fn count(&self) -> u64 {
        self.counts.iter().map(|c| c.load(Ordering::Relaxed)).sum()
    }

    /// The nearest-rank `pct`-th percentile in milliseconds, as the
    /// lower bound of the bucket holding it; 0 when nothing was
    /// recorded.
    pub fn percentile_ms(&self, pct: f64) -> f64 {
        let counts: Vec<u64> = self
            .counts
            .iter()
            .map(|c| c.load(Ordering::Relaxed))
            .collect();
        let total: u64 = counts.iter().sum();
        if total == 0 {
            return 0.0;
        }
        let rank = ((pct / 100.0) * total as f64)
            .ceil()
            .clamp(1.0, total as f64) as u64;
        let mut seen = 0;
        for (b, &c) in counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return lower_bound(b) as f64 / 1e3;
            }
        }
        unreachable!("the ranks sum to the total")
    }
}

/// The bucket of `v`.
fn bucket(v: u64) -> usize {
    if v < 1 << SUB_BITS {
        return v as usize;
    }
    let shift = 63 - v.leading_zeros() - SUB_BITS;
    let sub = (v >> shift) as usize & ((1 << SUB_BITS) - 1);
    ((shift as usize + 1) << SUB_BITS) + sub
}

/// The smallest value in bucket `b`.
fn lower_bound(b: usize) -> u64 {
    if b < 1 << SUB_BITS {
        return b as u64;
    }
    let shift = (b >> SUB_BITS) - 1;
    let sub = (b & ((1 << SUB_BITS) - 1)) as u64;
    ((1 << SUB_BITS) + sub) << shift
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The exact nearest-rank percentile of `samples`, in microseconds.
    fn exact(samples: &[u64], pct: f64) -> u64 {
        let mut sorted = samples.to_vec();
        sorted.sort_unstable();
        let rank = ((pct / 100.0) * sorted.len() as f64).ceil().max(1.0) as usize;
        sorted[rank.min(sorted.len()) - 1]
    }

    #[test]
    fn buckets_tile_the_whole_range() {
        for b in 0..BUCKETS {
            let lo = lower_bound(b);
            assert_eq!(bucket(lo), b, "bucket {b}");
            if b > 0 {
                assert_eq!(bucket(lo - 1), b - 1, "below bucket {b}");
            }
        }
        assert_eq!(bucket(u64::MAX), BUCKETS - 1);
    }

    #[test]
    fn size_does_not_grow_with_requests() {
        let h = LatencyHistogram::default();
        let before = std::mem::size_of_val(&h);
        let mut state = 7u64;
        for _ in 0..200_000 {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            h.record(state >> 40);
        }
        assert_eq!(h.count(), 200_000);
        assert_eq!(std::mem::size_of_val(&h), before);
        assert_eq!(before, BUCKETS * std::mem::size_of::<AtomicU64>());
    }

    #[test]
    fn percentiles_fall_in_the_exact_values_bucket() {
        let h = LatencyHistogram::default();
        assert_eq!(h.percentile_ms(50.0), 0.0);
        let mut samples = Vec::new();
        let mut state = 11u64;
        for i in 0..5000u64 {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            // Latencies from 1 µs to about 1 s, log-spread.
            let us = (1u64 << (i % 20)) + (state >> 44) % (1u64 << (i % 20));
            samples.push(us);
            h.record(us);
        }
        for pct in [1.0, 50.0, 90.0, 99.0, 100.0] {
            let exact_us = exact(&samples, pct);
            let reported_us = (h.percentile_ms(pct) * 1e3).round() as u64;
            assert_eq!(bucket(reported_us), bucket(exact_us), "p{pct}");
            assert!(reported_us <= exact_us, "p{pct}");
        }
        let one = LatencyHistogram::default();
        one.record(7_000);
        assert_eq!(
            one.percentile_ms(50.0),
            6.656,
            "the lower bound of 7 ms's bucket"
        );
    }
}
