//! Offline stand-in for the `rand` crate.
//!
//! The build environment cannot fetch crates from a registry, so this
//! path crate provides the subset of the rand 0.10 API the workspace
//! actually uses: the [`Rng`] core trait, the [`RngExt`] extension trait
//! (`random`, `random_range`, `random_bool`), [`SeedableRng`] with
//! `seed_from_u64` / `from_rng`, [`rngs::StdRng`] and the process-local
//! [`rng()`] entropy source.
//!
//! `StdRng` is xoshiro256++ (Blackman & Vigna) seeded through SplitMix64
//! — deterministic for a given seed on every platform, which is what the
//! seeded reproduction experiments rely on. It is **not** a
//! cryptographic generator; neither is the statistical quality of this
//! shim load-bearing for the privacy guarantee (DP noise only needs the
//! sampled distribution, which the callers construct via inverse-CDF
//! transforms on the uniform output).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

/// A source of random bits.
///
/// Object-safe core trait: everything else is derived from `next_u64`
/// through [`RngExt`].
pub trait Rng {
    /// Returns the next 64 uniformly random bits.
    fn next_u64(&mut self) -> u64;

    /// Returns the next 32 uniformly random bits.
    fn next_u32(&mut self) -> u32 {
        (self.next_u64() >> 32) as u32
    }
}

impl<R: Rng + ?Sized> Rng for &mut R {
    fn next_u64(&mut self) -> u64 {
        (**self).next_u64()
    }
}

/// Types that can be sampled uniformly from an RNG's raw bits
/// (the shim analogue of sampling from `StandardUniform`).
pub trait UniformSample: Sized {
    /// Draws one uniformly distributed value.
    fn sample_from<R: Rng + ?Sized>(rng: &mut R) -> Self;
}

impl UniformSample for f64 {
    /// Uniform on `[0, 1)` with 53 bits of precision.
    fn sample_from<R: Rng + ?Sized>(rng: &mut R) -> Self {
        (rng.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

impl UniformSample for f32 {
    /// Uniform on `[0, 1)` with 24 bits of precision.
    fn sample_from<R: Rng + ?Sized>(rng: &mut R) -> Self {
        (rng.next_u64() >> 40) as f32 * (1.0 / (1u64 << 24) as f32)
    }
}

impl UniformSample for bool {
    fn sample_from<R: Rng + ?Sized>(rng: &mut R) -> Self {
        rng.next_u64() & 1 == 1
    }
}

macro_rules! uniform_int {
    ($($t:ty),*) => {$(
        impl UniformSample for $t {
            fn sample_from<R: Rng + ?Sized>(rng: &mut R) -> Self {
                rng.next_u64() as $t
            }
        }
    )*};
}
uniform_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

/// Ranges that can be sampled uniformly (`Range` and `RangeInclusive`
/// over the integer and float types the workspace uses).
pub trait SampleRange<T> {
    /// Draws one value uniformly from the range. Panics if empty.
    fn sample_from<R: Rng + ?Sized>(self, rng: &mut R) -> T;
}

macro_rules! sample_range_uint {
    ($($t:ty),*) => {$(
        impl SampleRange<$t> for core::ops::Range<$t> {
            #[inline]
            fn sample_from<R: Rng + ?Sized>(self, rng: &mut R) -> $t {
                assert!(self.start < self.end, "cannot sample empty range");
                let span = (self.end - self.start) as u64;
                self.start + uniform_u64_below(rng, span) as $t
            }
        }
        impl SampleRange<$t> for core::ops::RangeInclusive<$t> {
            #[inline]
            fn sample_from<R: Rng + ?Sized>(self, rng: &mut R) -> $t {
                let (lo, hi) = (*self.start(), *self.end());
                assert!(lo <= hi, "cannot sample empty range");
                let span = (hi - lo) as u64;
                if span == u64::MAX {
                    return rng.next_u64() as $t;
                }
                lo + uniform_u64_below(rng, span + 1) as $t
            }
        }
    )*};
}
sample_range_uint!(usize, u64, u32, u16, u8);

macro_rules! sample_range_int {
    ($($t:ty),*) => {$(
        impl SampleRange<$t> for core::ops::Range<$t> {
            fn sample_from<R: Rng + ?Sized>(self, rng: &mut R) -> $t {
                assert!(self.start < self.end, "cannot sample empty range");
                let span = self.end.wrapping_sub(self.start) as u64;
                self.start.wrapping_add(uniform_u64_below(rng, span) as $t)
            }
        }
        impl SampleRange<$t> for core::ops::RangeInclusive<$t> {
            fn sample_from<R: Rng + ?Sized>(self, rng: &mut R) -> $t {
                let (lo, hi) = (*self.start(), *self.end());
                assert!(lo <= hi, "cannot sample empty range");
                let span = hi.wrapping_sub(lo) as u64;
                if span == u64::MAX {
                    return rng.next_u64() as $t;
                }
                lo.wrapping_add(uniform_u64_below(rng, span + 1) as $t)
            }
        }
    )*};
}
sample_range_int!(isize, i64, i32, i16, i8);

impl SampleRange<f64> for core::ops::Range<f64> {
    fn sample_from<R: Rng + ?Sized>(self, rng: &mut R) -> f64 {
        assert!(self.start < self.end, "cannot sample empty range");
        let u: f64 = f64::sample_from(rng);
        self.start + u * (self.end - self.start)
    }
}

impl SampleRange<f64> for core::ops::RangeInclusive<f64> {
    fn sample_from<R: Rng + ?Sized>(self, rng: &mut R) -> f64 {
        let (lo, hi) = (*self.start(), *self.end());
        assert!(lo <= hi, "cannot sample empty range");
        // With 53-bit uniforms the closed upper endpoint has measure
        // zero anyway; sample the half-open interval.
        let u: f64 = f64::sample_from(rng);
        lo + u * (hi - lo)
    }
}

/// Uniform draw from `[0, bound)` by rejection on the top multiple of
/// `bound` (unbiased; `bound` must be non-zero).
///
/// A word `v` is accepted when its whole `bound`-sized bucket
/// `[v - v % bound, v - v % bound + bound)` fits below `2^64`. That is
/// the same test as `v < u64::MAX - u64::MAX % bound`, so it accepts and
/// rejects exactly the same words, but it costs one division per draw
/// instead of two.
#[inline]
fn uniform_u64_below<R: Rng + ?Sized>(rng: &mut R, bound: u64) -> u64 {
    debug_assert!(bound > 0);
    if bound.is_power_of_two() {
        return rng.next_u64() & (bound - 1);
    }
    loop {
        let v = rng.next_u64();
        let r = v % bound;
        if (v - r).checked_add(bound).is_some() {
            return r;
        }
    }
}

/// Convenience sampling methods, blanket-implemented for every [`Rng`].
pub trait RngExt: Rng {
    /// Draws a uniformly distributed value of type `T`
    /// (`f64` in `[0, 1)`, full-range integers, fair `bool`).
    fn random<T: UniformSample>(&mut self) -> T {
        T::sample_from(self)
    }

    /// Draws uniformly from `range`. Panics on an empty range.
    #[inline]
    fn random_range<T, Rg: SampleRange<T>>(&mut self, range: Rg) -> T {
        range.sample_from(self)
    }

    /// Returns `true` with probability `p` (clamped to `[0, 1]`).
    fn random_bool(&mut self, p: f64) -> bool {
        self.random::<f64>() < p
    }
}

impl<R: Rng + ?Sized> RngExt for R {}

/// RNGs that can be constructed from seed material.
pub trait SeedableRng: Sized {
    /// Builds a generator from a 64-bit seed, expanded via SplitMix64 so
    /// that nearby seeds yield unrelated streams.
    fn seed_from_u64(seed: u64) -> Self;

    /// Builds a generator seeded from another generator's output.
    fn from_rng<R: Rng + ?Sized>(source: &mut R) -> Self {
        Self::seed_from_u64(source.next_u64())
    }
}

/// Concrete generator types.
pub mod rngs {
    use super::{Rng, SeedableRng};

    /// The workspace's standard deterministic generator: xoshiro256++.
    ///
    /// Passes BigCrush (per Blackman & Vigna 2019); period `2^256 − 1`.
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub struct StdRng {
        s: [u64; 4],
    }

    impl StdRng {
        #[inline]
        fn next(&mut self) -> u64 {
            let result = (self.s[0].wrapping_add(self.s[3]))
                .rotate_left(23)
                .wrapping_add(self.s[0]);
            let t = self.s[1] << 17;
            self.s[2] ^= self.s[0];
            self.s[3] ^= self.s[1];
            self.s[1] ^= self.s[2];
            self.s[0] ^= self.s[3];
            self.s[2] ^= t;
            self.s[3] = self.s[3].rotate_left(45);
            result
        }
    }

    impl Rng for StdRng {
        #[inline]
        fn next_u64(&mut self) -> u64 {
            self.next()
        }
    }

    impl SeedableRng for StdRng {
        fn seed_from_u64(seed: u64) -> Self {
            // SplitMix64 expansion (Vigna's recommended seeding).
            let mut state = seed;
            let mut next = || {
                state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
                let mut z = state;
                z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
                z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
                z ^ (z >> 31)
            };
            let s = [next(), next(), next(), next()];
            // All-zero state is the one fixed point; SplitMix64 cannot
            // produce four zeros from any seed, but guard anyway.
            if s == [0; 4] {
                StdRng { s: [1, 2, 3, 4] }
            } else {
                StdRng { s }
            }
        }
    }

    /// A generator seeded from process-local entropy; see [`super::rng`].
    #[derive(Debug, Clone)]
    pub struct ThreadRng {
        inner: StdRng,
    }

    impl ThreadRng {
        pub(crate) fn from_entropy() -> Self {
            use std::hash::{BuildHasher, Hasher};
            // No OS randomness syscall without external crates: combine
            // the hash-map seed (ASLR + per-process random state), the
            // wall clock and a monotonically bumped counter.
            static COUNTER: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
            let aslr = std::collections::hash_map::RandomState::new()
                .build_hasher()
                .finish();
            let nanos = std::time::SystemTime::now()
                .duration_since(std::time::UNIX_EPOCH)
                .map(|d| d.as_nanos() as u64)
                .unwrap_or(0);
            let count = COUNTER.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
            ThreadRng {
                inner: StdRng::seed_from_u64(
                    aslr ^ nanos.rotate_left(32) ^ count.wrapping_mul(0x9E37_79B9),
                ),
            }
        }
    }

    impl Rng for ThreadRng {
        fn next_u64(&mut self) -> u64 {
            self.inner.next()
        }
    }
}

/// Returns a fresh generator seeded from process-local entropy (the
/// rand 0.9+ spelling of `thread_rng()`).
pub fn rng() -> rngs::ThreadRng {
    rngs::ThreadRng::from_entropy()
}

#[cfg(test)]
mod tests {
    use super::rngs::StdRng;
    use super::{Rng, RngExt, SeedableRng};

    #[test]
    fn seeded_streams_are_deterministic_and_distinct() {
        let mut a = StdRng::seed_from_u64(7);
        let mut b = StdRng::seed_from_u64(7);
        let mut c = StdRng::seed_from_u64(8);
        let xs: Vec<u64> = (0..32).map(|_| a.next_u64()).collect();
        let ys: Vec<u64> = (0..32).map(|_| b.next_u64()).collect();
        let zs: Vec<u64> = (0..32).map(|_| c.next_u64()).collect();
        assert_eq!(xs, ys);
        assert_ne!(xs, zs);
    }

    #[test]
    fn unit_floats_in_half_open_interval() {
        let mut r = StdRng::seed_from_u64(1);
        for _ in 0..10_000 {
            let u: f64 = r.random();
            assert!((0.0..1.0).contains(&u), "u = {u}");
        }
    }

    #[test]
    fn unit_float_mean_is_half() {
        let mut r = StdRng::seed_from_u64(2);
        let n = 100_000;
        let mean = (0..n).map(|_| r.random::<f64>()).sum::<f64>() / n as f64;
        assert!((mean - 0.5).abs() < 0.005, "mean = {mean}");
    }

    #[test]
    fn ranges_are_inclusive_exclusive_as_declared() {
        let mut r = StdRng::seed_from_u64(3);
        let mut saw_lo = false;
        let mut saw_hi = false;
        for _ in 0..2_000 {
            let v = r.random_range(0usize..5);
            assert!(v < 5);
            let w = r.random_range(0usize..=4);
            saw_lo |= w == 0;
            saw_hi |= w == 4;
            assert!(w <= 4);
        }
        assert!(saw_lo && saw_hi);
    }

    #[test]
    fn rejection_sampling_is_roughly_uniform() {
        let mut r = StdRng::seed_from_u64(4);
        let mut counts = [0usize; 3];
        let n = 30_000;
        for _ in 0..n {
            counts[r.random_range(0usize..3)] += 1;
        }
        for c in counts {
            let frac = c as f64 / n as f64;
            assert!((frac - 1.0 / 3.0).abs() < 0.02, "frac = {frac}");
        }
    }

    /// Replays a fixed script of words, then a seeded stream.
    struct Scripted {
        words: Vec<u64>,
        next: usize,
        tail: StdRng,
    }

    impl Scripted {
        fn new(words: Vec<u64>, seed: u64) -> Scripted {
            Scripted {
                words,
                next: 0,
                tail: StdRng::seed_from_u64(seed),
            }
        }
    }

    impl Rng for Scripted {
        fn next_u64(&mut self) -> u64 {
            let v = self.words.get(self.next).copied();
            self.next += 1;
            v.unwrap_or_else(|| self.tail.next_u64())
        }
    }

    /// The two-division rejection rule the draw used before; kept as
    /// the oracle the one-division rule must match word for word.
    fn oracle_below<R: Rng + ?Sized>(rng: &mut R, bound: u64) -> u64 {
        if bound.is_power_of_two() {
            return rng.next_u64() & (bound - 1);
        }
        let zone = u64::MAX - (u64::MAX % bound);
        loop {
            let v = rng.next_u64();
            if v < zone {
                return v % bound;
            }
        }
    }

    #[test]
    fn one_division_draw_matches_the_zone_oracle() {
        let bounds = [
            1,
            2,
            3,
            7,
            1 << 20,
            1000,
            100_003,
            u64::from(u32::MAX),
            1 << 32,
            (1 << 32) + 1,
            1 << 63,
            (1 << 63) + 1,
            3 << 62,
            u64::MAX - 1,
            u64::MAX,
        ];
        let mut words = StdRng::seed_from_u64(11);
        for bound in bounds {
            let zone = u64::MAX - (u64::MAX % bound);
            let edges = [0, 1, zone - 1, zone, zone.saturating_add(1), u64::MAX];
            let randoms: Vec<u64> = (0..64).map(|_| words.next_u64()).collect();
            for first in edges.into_iter().chain(randoms) {
                // Each script opens with the probed word, then two edge
                // words that force further rejections when `zone` is low.
                let script = vec![first, u64::MAX, zone, words.next_u64()];
                let mut new = Scripted::new(script.clone(), bound);
                let mut old = Scripted::new(script, bound);
                let got = super::uniform_u64_below(&mut new, bound);
                let want = oracle_below(&mut old, bound);
                assert_eq!(got, want, "bound {bound:#x}, first word {first:#x}");
                assert_eq!(new.next, old.next, "bound {bound:#x}: words consumed");
                assert!(got < bound);
            }
        }
    }

    #[test]
    fn from_rng_derives_new_stream() {
        let mut base = StdRng::seed_from_u64(5);
        let mut derived = StdRng::from_rng(&mut base);
        assert_ne!(base.next_u64(), derived.next_u64());
    }

    #[test]
    fn entropy_rng_produces_varied_output() {
        let mut a = super::rng();
        let mut b = super::rng();
        // Different counter values guarantee different streams even if
        // the clock did not tick between the two constructions.
        assert_ne!(
            (0..4).map(|_| a.next_u64()).collect::<Vec<_>>(),
            (0..4).map(|_| b.next_u64()).collect::<Vec<_>>()
        );
    }
}
