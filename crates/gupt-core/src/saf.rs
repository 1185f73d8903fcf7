//! The sample-and-aggregate aggregation step (Algorithm 1, lines 5–8).
//!
//! Given the per-block outputs of the analyst program, the aggregator
//! clamps each output dimension into its range, averages across blocks,
//! and adds Laplace noise scaled to the average's sensitivity
//! `γ·(max−min)/ℓ` (γ = resampling factor, ℓ = number of blocks). With
//! the Theorem 1 budget split applied per dimension by the caller, the
//! released vector is ε-differentially private.

use crate::error::GuptError;
use gupt_dp::{laplace_mechanism, Epsilon, OutputRange, Sensitivity};
use rand::Rng;

/// Per-dimension clamped means of the block outputs (the non-noisy part
/// of the aggregate; exposed for the block-size and budget estimators
/// which run on aged, non-private data).
pub fn clamped_block_means(
    outputs: &[Vec<f64>],
    ranges: &[OutputRange],
) -> Result<Vec<f64>, GuptError> {
    if outputs.is_empty() {
        return Err(GuptError::InvalidSpec(
            "no block outputs to aggregate".into(),
        ));
    }
    let p = ranges.len();
    if let Some(bad) = outputs.iter().position(|o| o.len() != p) {
        return Err(GuptError::DimensionMismatch {
            expected: p,
            got: outputs[bad].len(),
        });
    }
    let l = outputs.len() as f64;
    Ok((0..p)
        .map(|d| {
            let mean = outputs.iter().map(|o| ranges[d].clamp(o[d])).sum::<f64>() / l;
            // Mathematically the mean of in-range values is in range, but
            // floating-point summation can escape by an ulp; the noise
            // calibration assumes containment, so clamp once more.
            ranges[d].clamp(mean)
        })
        .collect())
}

/// The ε-DP sample-and-aggregate release: per dimension `d`,
/// `mean_clamped + Lap(γ·widthᵈ / (ℓ·ε_dim))`.
///
/// `eps_per_dim` must already reflect the Theorem 1 split (the runtime
/// passes `ε/p` or `ε/(2p)` depending on the range-estimation mode).
pub fn sample_and_aggregate<R: Rng + ?Sized>(
    outputs: &[Vec<f64>],
    ranges: &[OutputRange],
    gamma: usize,
    eps_per_dim: Epsilon,
    rng: &mut R,
) -> Result<Vec<f64>, GuptError> {
    let means = clamped_block_means(outputs, ranges)?;
    let l = outputs.len() as f64;
    let gamma = gamma.max(1) as f64;
    means
        .into_iter()
        .zip(ranges)
        .map(|(mean, range)| {
            let sens = Sensitivity::new(gamma * range.width() / l).map_err(GuptError::Dp)?;
            Ok(laplace_mechanism(mean, sens, eps_per_dim, rng))
        })
        .collect()
}

/// The sample-and-aggregate release of a partitioned query over `keys`
/// keys: per key `g` and dimension `d`, `mean_clamped + Lap(γ·widthᵈ /
/// (ℓ·ε_dim))`, where block `b` contributes key `g`'s output when `g`
/// is present in `b` and the block's empty-sub-view output otherwise.
///
/// `outputs` and `ranks` hold each block's output and present keys as
/// a partitioned chamber reports them: the `p` values of the empty
/// sub-view, then `p` values per present key, in `ranks` order. The
/// sums are kept sparsely — the empty outputs once for all keys, plus
/// each present key's difference from its block's empty output — so the
/// work is
/// O(ℓ·p + (present pairs)·p + keys·p), never ℓ·keys·p. Key `g`'s mean
/// reads only the empty outputs and `g`'s own outputs. Values come back
/// key-major: key 0's `p` values, then key 1's, and so on.
pub fn partitioned_aggregate<R: Rng + ?Sized>(
    outputs: &[Vec<f64>],
    ranks: &[Vec<usize>],
    keys: usize,
    ranges: &[OutputRange],
    gamma: usize,
    eps_per_dim: Epsilon,
    rng: &mut R,
) -> Result<Vec<f64>, GuptError> {
    if outputs.is_empty() {
        return Err(GuptError::InvalidSpec(
            "no block outputs to aggregate".into(),
        ));
    }
    let p = ranges.len();
    let clamped = |values: &[f64], d: usize| ranges[d].clamp(values[d]);
    let mut absent = vec![0.0; p];
    let mut present = vec![0.0; keys * p];
    for (output, ranks) in outputs.iter().zip(ranks) {
        if output.len() != (1 + ranks.len()) * p || ranks.iter().any(|&g| g >= keys) {
            return Err(GuptError::DimensionMismatch {
                expected: (1 + ranks.len()) * p,
                got: output.len(),
            });
        }
        let (empty, keyed) = output.split_at(p);
        for (d, sum) in absent.iter_mut().enumerate() {
            *sum += clamped(empty, d);
        }
        for (&g, out) in ranks.iter().zip(keyed.chunks_exact(p)) {
            for d in 0..p {
                present[g * p + d] += clamped(out, d) - clamped(empty, d);
            }
        }
    }
    let l = outputs.len() as f64;
    let gamma = gamma.max(1) as f64;
    let sensitivities = ranges
        .iter()
        .map(|r| Sensitivity::new(gamma * r.width() / l).map_err(GuptError::Dp))
        .collect::<Result<Vec<_>, _>>()?;
    Ok(present
        .iter()
        .enumerate()
        .map(|(i, diff)| {
            let d = i % p;
            let mean = ranges[d].clamp((absent[d] + diff) / l);
            laplace_mechanism(mean, sensitivities[d], eps_per_dim, rng)
        })
        .collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{rngs::StdRng, SeedableRng};

    fn rng() -> StdRng {
        StdRng::seed_from_u64(0x5AF)
    }

    fn range(lo: f64, hi: f64) -> OutputRange {
        OutputRange::new(lo, hi).unwrap()
    }

    fn eps(v: f64) -> Epsilon {
        Epsilon::new(v).unwrap()
    }

    #[test]
    fn means_clamp_then_average() {
        let outputs = vec![vec![5.0], vec![100.0], vec![-100.0]];
        let means = clamped_block_means(&outputs, &[range(0.0, 10.0)]).unwrap();
        // 100 → 10, −100 → 0: mean = (5 + 10 + 0)/3.
        assert!((means[0] - 5.0).abs() < 1e-12);
    }

    #[test]
    fn empty_outputs_rejected() {
        assert!(clamped_block_means(&[], &[range(0.0, 1.0)]).is_err());
    }

    #[test]
    fn dimension_mismatch_rejected() {
        let outputs = vec![vec![1.0, 2.0]];
        let err = clamped_block_means(&outputs, &[range(0.0, 1.0)]).unwrap_err();
        assert!(matches!(
            err,
            GuptError::DimensionMismatch {
                expected: 1,
                got: 2
            }
        ));
    }

    #[test]
    fn aggregate_is_unbiased() {
        // 100 blocks all outputting 4.0 in [0, 10]: answers average 4.0.
        let outputs = vec![vec![4.0]; 100];
        let mut r = rng();
        let trials = 500;
        let total: f64 = (0..trials)
            .map(|_| {
                sample_and_aggregate(&outputs, &[range(0.0, 10.0)], 1, eps(1.0), &mut r).unwrap()[0]
            })
            .sum();
        let avg = total / trials as f64;
        assert!((avg - 4.0).abs() < 0.05, "avg = {avg}");
    }

    #[test]
    fn noise_scales_with_range_width() {
        let outputs = vec![vec![0.5]; 50];
        let spread = |width: f64| {
            let mut r = rng();
            let trials = 2000;
            (0..trials)
                .map(|_| {
                    (sample_and_aggregate(&outputs, &[range(0.0, width)], 1, eps(1.0), &mut r)
                        .unwrap()[0]
                        - 0.5)
                        .abs()
                })
                .sum::<f64>()
                / trials as f64
        };
        let narrow = spread(1.0);
        let wide = spread(100.0);
        assert!(
            wide / narrow > 50.0,
            "wide {wide} should be ~100x narrow {narrow}"
        );
    }

    #[test]
    fn noise_scales_with_gamma_for_fixed_block_count() {
        // For a FIXED number of blocks, larger γ must add more noise
        // (Claim 1's invariance holds for fixed β, where ℓ grows with γ).
        let outputs = vec![vec![0.0]; 40];
        let spread = |gamma: usize| {
            let mut r = rng();
            let trials = 3000;
            (0..trials)
                .map(|_| {
                    sample_and_aggregate(&outputs, &[range(-1.0, 1.0)], gamma, eps(1.0), &mut r)
                        .unwrap()[0]
                        .abs()
                })
                .sum::<f64>()
                / trials as f64
        };
        let g1 = spread(1);
        let g4 = spread(4);
        assert!((g4 / g1 - 4.0).abs() < 0.6, "ratio = {}", g4 / g1);
    }

    #[test]
    fn multi_dimensional_aggregate() {
        let outputs: Vec<Vec<f64>> = (0..30).map(|_| vec![1.0, -1.0, 10.0]).collect();
        let ranges = [range(0.0, 2.0), range(-2.0, 0.0), range(0.0, 20.0)];
        let mut r = rng();
        let out = sample_and_aggregate(&outputs, &ranges, 1, eps(10.0), &mut r).unwrap();
        assert_eq!(out.len(), 3);
        assert!((out[0] - 1.0).abs() < 0.5);
        assert!((out[1] + 1.0).abs() < 0.5);
        assert!((out[2] - 10.0).abs() < 5.0);
    }

    #[test]
    fn degenerate_range_releases_constant() {
        let outputs = vec![vec![7.0]; 10];
        let mut r = rng();
        let out =
            sample_and_aggregate(&outputs, &[range(7.0, 7.0)], 1, eps(0.001), &mut r).unwrap();
        assert_eq!(out[0], 7.0);
    }

    #[test]
    fn deterministic_under_seed() {
        let outputs: Vec<Vec<f64>> = (0..20).map(|i| vec![i as f64]).collect();
        let ranges = [range(0.0, 20.0)];
        let a = sample_and_aggregate(
            &outputs,
            &ranges,
            1,
            eps(1.0),
            &mut StdRng::seed_from_u64(3),
        )
        .unwrap();
        let b = sample_and_aggregate(
            &outputs,
            &ranges,
            1,
            eps(1.0),
            &mut StdRng::seed_from_u64(3),
        )
        .unwrap();
        assert_eq!(a, b);
    }
}
