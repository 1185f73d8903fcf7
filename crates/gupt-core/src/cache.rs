//! Budget-recycling answer cache: zero-ε replay of released answers.
//!
//! GUPT's scarcest resource is privacy budget, not CPU: every query
//! permanently debits ε from the dataset ledger (§3.1, §5.2), yet real
//! workloads — dashboards, retried requests, repeated CLI invocations —
//! re-ask identical questions constantly. By the **post-processing
//! invariance** of differential privacy, a noisy answer that has already
//! been released can be re-served forever at *zero marginal ε*: the
//! adversary learns nothing from seeing the same bits twice. This module
//! exploits that:
//!
//! - [`QueryFingerprint`] is a stable 128-bit identity over everything
//!   that determines a query's released distribution: dataset id,
//!   registration epoch (a content hash of the registered rows),
//!   program identity, ε, the output-range policy, the block-size/γ
//!   configuration and the aggregation strategy. Only queries that
//!   declare an identity (`QuerySpec::builder().identity(name, version)`)
//!   can be fingerprinted — anonymous closures simply bypass the cache.
//! - [`AnswerCache`] stores released [`PrivateAnswer`]s under their
//!   fingerprints with bounded capacity and an LRU + ε-weighted eviction
//!   policy: evicting a high-ε entry wastes more refill budget than a
//!   low-ε one, so the victim is the entry with the highest
//!   staleness-per-ε.
//! - The runtime consults the cache **before** the ledger charge, so a
//!   hit returns the stored answer bit-identically with no debit and no
//!   chamber execution; a miss executes normally and inserts.
//!
//! # What a hit means
//!
//! A cache hit is a *replay of an already-released answer*, not a fresh
//! draw: the analyst sees the same noisy values again. That is exactly
//! the semantics a privacy-conscious deployment wants — re-answering an
//! identical question with fresh noise would either cost fresh ε or
//! (if served free) let an analyst average away the noise. Identity is
//! strict: change the dataset contents (a new registration epoch), the
//! program name/version, ε, any range bound, β, γ or the aggregator, and
//! the fingerprint — and hence the entry — changes.
//!
//! `GUPT-helper` queries are never cached: their range translator is an
//! anonymous closure whose behaviour cannot be fingerprinted, and two
//! different translators over the same input ranges must not collide.
//! Accuracy-goal budgets are likewise uncacheable — their resolved ε
//! depends on the aged view at run time.
//!
//! Durable datasets journal every inserted answer into the same WAL that
//! carries budget debits (see [`crate::storage`]), so a restarted
//! `serve --state-dir` process recovers its warm cache together with the
//! ledger; entries whose epoch no longer matches the re-registered
//! dataset are dropped at recovery.

use crate::aggregator::Aggregator;
use crate::output_range::RangeEstimation;
use crate::query::{BlockSizeSpec, BudgetSpec, QuerySpec};
use crate::runtime::PrivateAnswer;
use gupt_dp::Epsilon;
use std::collections::HashMap;
use std::hash::Hash;
use std::sync::Mutex;

/// Default [`AnswerCache`] capacity a [`crate::GuptRuntimeBuilder`]
/// installs when none is configured.
pub const DEFAULT_CACHE_CAPACITY: usize = 256;

/// Stable identity of an analyst program: a name plus a version.
///
/// The fingerprint cannot hash closure *behaviour*, so the analyst
/// asserts identity explicitly: "this is `mean-age` v2". Bump the
/// version whenever the program's logic changes — two different
/// computations published under the same (name, version) would collide
/// in the cache and replay each other's answers.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct ProgramIdentity {
    name: String,
    version: u32,
}

impl ProgramIdentity {
    /// Creates an identity from a name and a version.
    pub fn new(name: impl Into<String>, version: u32) -> Self {
        ProgramIdentity {
            name: name.into(),
            version,
        }
    }

    /// The program name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The program version.
    pub fn version(&self) -> u32 {
        self.version
    }
}

// ---------------------------------------------------------------------
// Fingerprinting.
// ---------------------------------------------------------------------

/// Two decorrelated FNV-1a lanes accumulated over length-prefixed
/// fields; hand-rolled because the workspace is offline and the identity
/// must be stable across processes (`std`'s `DefaultHasher` is
/// explicitly allowed to change between releases).
struct FingerprintHasher {
    a: u64,
    b: u64,
}

const FNV_OFFSET: u64 = 0xCBF2_9CE4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01B3;

impl FingerprintHasher {
    fn new() -> Self {
        FingerprintHasher {
            a: FNV_OFFSET,
            // A different, odd offset decorrelates the second lane; the
            // per-byte rotation below keeps the lanes from tracking each
            // other through shared input.
            b: FNV_OFFSET ^ 0x9E37_79B9_7F4A_7C15,
        }
    }

    fn write(&mut self, bytes: &[u8]) {
        for &x in bytes {
            self.a = (self.a ^ x as u64).wrapping_mul(FNV_PRIME);
            self.b = (self.b.rotate_left(7) ^ x as u64).wrapping_mul(FNV_PRIME);
        }
    }

    fn write_u64(&mut self, v: u64) {
        self.write(&v.to_le_bytes());
    }

    fn write_u32(&mut self, v: u32) {
        self.write(&v.to_le_bytes());
    }

    fn write_u8(&mut self, v: u8) {
        self.write(&[v]);
    }

    fn write_f64(&mut self, v: f64) {
        self.write(&v.to_bits().to_le_bytes());
    }

    /// Length-prefixed so adjacent string fields cannot alias.
    fn write_str(&mut self, s: &str) {
        self.write_u64(s.len() as u64);
        self.write(s.as_bytes());
    }

    fn finish(&self) -> u128 {
        ((self.a as u128) << 64) | self.b as u128
    }
}

/// The stable 128-bit identity of one fully-specified query against one
/// registered dataset state.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct QueryFingerprint(u128);

impl QueryFingerprint {
    /// The raw 128-bit value (persisted in WAL cache records).
    pub fn as_u128(self) -> u128 {
        self.0
    }

    /// Rebuilds a fingerprint from its persisted raw value.
    pub fn from_u128(raw: u128) -> Self {
        QueryFingerprint(raw)
    }

    /// Computes the fingerprint of `spec` against `dataset` at
    /// registration `epoch`, or `None` when the query cannot be
    /// fingerprinted: no program identity (anonymous closure), an
    /// accuracy-goal budget (ε resolves at run time), no range mode, or
    /// `GUPT-helper` mode (the translator is an anonymous closure).
    pub fn compute(dataset: &str, epoch: u64, spec: &QuerySpec) -> Option<QueryFingerprint> {
        let BudgetSpec::Epsilon(eps) = spec.budget() else {
            return None;
        };
        QueryFingerprint::compute_with_epsilon(dataset, epoch, spec, eps)
    }

    /// Like [`QueryFingerprint::compute`] but with the query's ε given
    /// explicitly — the batch path fingerprints members with their
    /// *allocated share*, which is not yet written into the spec.
    pub fn compute_with_epsilon(
        dataset: &str,
        epoch: u64,
        spec: &QuerySpec,
        eps: Epsilon,
    ) -> Option<QueryFingerprint> {
        let identity = spec.identity()?;
        let mut h = FingerprintHasher::new();
        h.write_str("gupt-query-fingerprint/v1");
        h.write_str(dataset);
        h.write_u64(epoch);
        h.write_str(identity.name());
        h.write_u32(identity.version());
        h.write_u64(spec.output_dimension() as u64);
        h.write_f64(eps.value());
        match spec.range_estimation.as_ref()? {
            RangeEstimation::Tight(ranges) => {
                h.write_u8(1);
                hash_ranges(&mut h, ranges);
            }
            RangeEstimation::Loose(ranges) => {
                h.write_u8(2);
                hash_ranges(&mut h, ranges);
            }
            RangeEstimation::Helper { .. } => return None,
        }
        match spec.block_size_spec() {
            BlockSizeSpec::Default => h.write_u8(0),
            BlockSizeSpec::Fixed(b) => {
                h.write_u8(1);
                h.write_u64(b as u64);
            }
            BlockSizeSpec::Optimized => h.write_u8(2),
        }
        h.write_u64(spec.gamma() as u64);
        h.write_u8(match spec.aggregation_strategy() {
            Aggregator::LaplaceMean => 0,
            Aggregator::DpMedian => 1,
        });
        if let Some(partition) = spec.partition() {
            h.write_u64(partition.columns().len() as u64);
            for &c in partition.columns() {
                h.write_u64(c as u64);
            }
            h.write_u64(partition.len() as u64);
            for key in partition.keys() {
                key.iter().for_each(|&v| h.write_f64(v));
            }
        }
        Some(QueryFingerprint(h.finish()))
    }
}

fn hash_ranges(h: &mut FingerprintHasher, ranges: &[gupt_dp::OutputRange]) {
    h.write_u64(ranges.len() as u64);
    for r in ranges {
        h.write_f64(r.lo());
        h.write_f64(r.hi());
    }
}

// ---------------------------------------------------------------------
// The cache.
// ---------------------------------------------------------------------

/// Point-in-time counters of one [`AnswerCache`].
///
/// `hits`/`misses` count only *fingerprintable* queries — anonymous
/// closures bypass the cache entirely and are not misses. These
/// counters feed the telemetry schema's `cache` object (v3) and the CLI
/// `--cache-stats` output.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct CacheStats {
    /// Queries served from the cache (zero ε charged).
    pub hits: u64,
    /// Fingerprintable queries that executed because no entry existed.
    pub misses: u64,
    /// Total ε the hits would have cost — the budget the cache recycled.
    pub epsilon_saved: f64,
    /// Entries evicted to make room.
    pub evictions: u64,
    /// Entries re-loaded from the WAL at registration (warm restart).
    pub recovered_entries: u64,
    /// Entries currently stored.
    pub entries: usize,
    /// Configured capacity (0 = cache disabled).
    pub capacity: usize,
}

#[derive(Debug, Clone)]
struct CacheEntry {
    answer: PrivateAnswer,
    /// Logical tick of the last hit (or the insert), for the
    /// staleness-per-ε eviction score.
    last_used: u64,
}

#[derive(Debug, Default)]
struct CacheInner {
    capacity: usize,
    /// Logical clock: bumped on every lookup/insert, never wall time —
    /// recency must be deterministic under test.
    tick: u64,
    entries: HashMap<u128, CacheEntry>,
    hits: u64,
    misses: u64,
    epsilon_saved: f64,
    evictions: u64,
    recovered: u64,
}

impl CacheInner {
    /// Evicts the entry with the highest staleness-per-ε score
    /// `(tick − last_used) / ε`: among equally stale entries the
    /// cheapest-to-refill (lowest ε) goes first, and an expensive entry
    /// must be proportionally staler before it is sacrificed.
    fn evict_one(&mut self) {
        let victim = self
            .entries
            .iter()
            .map(|(&fp, e)| {
                let staleness = (self.tick.saturating_sub(e.last_used)) as f64 + 1.0;
                let eps = e.answer.epsilon_spent.max(f64::MIN_POSITIVE);
                (fp, staleness / eps)
            })
            .max_by(|a, b| a.1.partial_cmp(&b.1).unwrap_or(std::cmp::Ordering::Equal))
            .map(|(fp, _)| fp);
        if let Some(fp) = victim {
            self.entries.remove(&fp);
            self.evictions += 1;
        }
    }

    fn insert(&mut self, fp: QueryFingerprint, answer: PrivateAnswer) {
        if self.capacity == 0 {
            return;
        }
        self.tick += 1;
        if !self.entries.contains_key(&fp.as_u128()) && self.entries.len() >= self.capacity {
            self.evict_one();
        }
        self.entries.insert(
            fp.as_u128(),
            CacheEntry {
                answer,
                last_used: self.tick,
            },
        );
    }
}

/// Bounded store of released answers, keyed by [`QueryFingerprint`].
///
/// Interior mutability behind one [`Mutex`]: every operation is a short
/// critical section (a map lookup or an O(capacity) eviction scan), so
/// the cache is safe under [`crate::service::QueryService`]'s clone-able
/// concurrent front door without adding a second lock order — the cache
/// lock is never held across a ledger or store lock.
#[derive(Debug)]
pub struct AnswerCache {
    inner: Mutex<CacheInner>,
}

impl AnswerCache {
    /// Creates a cache holding at most `capacity` answers; `0` disables
    /// caching entirely (every operation becomes a no-op).
    pub fn new(capacity: usize) -> Self {
        AnswerCache {
            inner: Mutex::new(CacheInner {
                capacity,
                ..CacheInner::default()
            }),
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, CacheInner> {
        // The guarded state is counters and clonable entries; a panic
        // mid-operation cannot leave them inconsistent in a way that
        // matters, so recover instead of propagating the poison.
        self.inner.lock().unwrap_or_else(|p| p.into_inner())
    }

    /// Whether the cache stores anything (capacity > 0).
    pub fn is_enabled(&self) -> bool {
        self.lock().capacity > 0
    }

    /// Configured capacity.
    pub fn capacity(&self) -> usize {
        self.lock().capacity
    }

    /// Entries currently stored.
    pub fn len(&self) -> usize {
        self.lock().entries.len()
    }

    /// Whether the cache holds no entries.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Looks up a fingerprint, *recording* the outcome: a hit bumps the
    /// hit counter, ε-saved and the entry's recency; an absent entry is
    /// counted as a miss (the caller is about to execute). Returns a
    /// clone of the stored answer.
    pub fn lookup(&self, fp: QueryFingerprint) -> Option<PrivateAnswer> {
        let mut inner = self.lock();
        if inner.capacity == 0 {
            return None;
        }
        inner.tick += 1;
        let tick = inner.tick;
        match inner.entries.get_mut(&fp.as_u128()) {
            Some(entry) => {
                entry.last_used = tick;
                let answer = entry.answer.clone();
                inner.hits += 1;
                inner.epsilon_saved += answer.epsilon_spent;
                Some(answer)
            }
            None => {
                inner.misses += 1;
                None
            }
        }
    }

    /// Whether an entry exists, without touching any counter or recency
    /// state (the batch planner peeks before deciding what to charge).
    pub fn contains(&self, fp: QueryFingerprint) -> bool {
        self.lock().entries.contains_key(&fp.as_u128())
    }

    /// Stores a freshly released answer, evicting by staleness-per-ε if
    /// the cache is full. Telemetry is stripped: a replayed answer gets
    /// fresh (hit-path) telemetry, not a stale copy of the original's.
    pub fn insert(&self, fp: QueryFingerprint, mut answer: PrivateAnswer) {
        answer.telemetry = None;
        self.lock().insert(fp, answer);
    }

    /// Stores an answer replayed from the WAL at registration time,
    /// counting it as recovered rather than as a fresh insert.
    pub fn insert_recovered(&self, fp: QueryFingerprint, mut answer: PrivateAnswer) {
        answer.telemetry = None;
        let mut inner = self.lock();
        if inner.capacity == 0 {
            return;
        }
        inner.insert(fp, answer);
        inner.recovered += 1;
    }

    /// Point-in-time counters.
    pub fn stats(&self) -> CacheStats {
        let inner = self.lock();
        CacheStats {
            hits: inner.hits,
            misses: inner.misses,
            epsilon_saved: inner.epsilon_saved,
            evictions: inner.evictions,
            recovered_entries: inner.recovered,
            entries: inner.entries.len(),
            capacity: inner.capacity,
        }
    }
}

// ---------------------------------------------------------------------
// Memoisation helper.
// ---------------------------------------------------------------------

/// A tiny single-threaded memo map for fallible computations — the
/// shared utility behind the §4.3 block-size optimiser's per-β program
/// evaluations (and any other hill-climb that re-visits keys).
#[derive(Debug)]
pub struct Memo<K, V> {
    map: HashMap<K, V>,
}

impl<K: Eq + Hash, V: Clone> Memo<K, V> {
    /// An empty memo.
    pub fn new() -> Self {
        Memo {
            map: HashMap::new(),
        }
    }

    /// Returns the cached value for `key`, computing and storing it on
    /// first use. A failed computation is not cached — the next call
    /// retries.
    pub fn get_or_try_insert<E>(
        &mut self,
        key: K,
        compute: impl FnOnce() -> Result<V, E>,
    ) -> Result<V, E> {
        if let Some(v) = self.map.get(&key) {
            return Ok(v.clone());
        }
        let v = compute()?;
        self.map.insert(key, v.clone());
        Ok(v)
    }

    /// Number of memoised keys.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// Whether nothing has been memoised yet.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }
}

impl<K: Eq + Hash, V: Clone> Default for Memo<K, V> {
    fn default() -> Self {
        Memo::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::computation_manager::ExecutionSummary;
    use gupt_dp::OutputRange;

    fn eps(v: f64) -> Epsilon {
        Epsilon::new(v).unwrap()
    }

    fn range(lo: f64, hi: f64) -> OutputRange {
        OutputRange::new(lo, hi).unwrap()
    }

    fn named_spec() -> QuerySpec {
        QuerySpec::builder()
            .view(|b: &crate::BlockView| {
                vec![b.iter().map(|r| r[0]).sum::<f64>() / b.len().max(1) as f64]
            })
            .identity("mean-age", 1)
            .epsilon(eps(1.0))
            .range_estimation(RangeEstimation::Tight(vec![range(0.0, 100.0)]))
            .build()
            .unwrap()
    }

    fn answer(epsilon: f64) -> PrivateAnswer {
        PrivateAnswer {
            values: vec![42.0],
            epsilon_spent: epsilon,
            block_size: 10,
            num_blocks: 5,
            gamma: 1,
            ranges: vec![range(0.0, 100.0)],
            execution: ExecutionSummary {
                completed: 5,
                timed_out: 0,
                panicked: 0,
            },
            telemetry: None,
        }
    }

    fn fp(tag: u64) -> QueryFingerprint {
        QueryFingerprint::from_u128(tag as u128)
    }

    #[test]
    fn fingerprint_is_stable_across_computations() {
        let a = QueryFingerprint::compute("d", 7, &named_spec()).unwrap();
        let b = QueryFingerprint::compute("d", 7, &named_spec()).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn fingerprint_varies_with_every_field() {
        let base = QueryFingerprint::compute("d", 7, &named_spec()).unwrap();
        let variants = [
            QueryFingerprint::compute("other", 7, &named_spec()).unwrap(),
            QueryFingerprint::compute("d", 8, &named_spec()).unwrap(),
            QueryFingerprint::compute("d", 7, &named_spec().epsilon(eps(2.0))).unwrap(),
            QueryFingerprint::compute(
                "d",
                7,
                &named_spec().range_estimation(RangeEstimation::Tight(vec![range(0.0, 99.0)])),
            )
            .unwrap(),
            QueryFingerprint::compute(
                "d",
                7,
                &named_spec().range_estimation(RangeEstimation::Loose(vec![range(0.0, 100.0)])),
            )
            .unwrap(),
            QueryFingerprint::compute("d", 7, &named_spec().fixed_block_size(25)).unwrap(),
            QueryFingerprint::compute("d", 7, &named_spec().resampling(4)).unwrap(),
            QueryFingerprint::compute("d", 7, &named_spec().aggregator(Aggregator::DpMedian))
                .unwrap(),
            QueryFingerprint::compute(
                "d",
                7,
                &QuerySpec::builder()
                    .view(|_: &crate::BlockView| vec![0.0])
                    .identity("mean-age", 2)
                    .epsilon(eps(1.0))
                    .range_estimation(RangeEstimation::Tight(vec![range(0.0, 100.0)]))
                    .build()
                    .unwrap(),
            )
            .unwrap(),
        ];
        for (i, v) in variants.iter().enumerate() {
            assert_ne!(base, *v, "variant {i} collided with the base fingerprint");
        }
        // And the variants are pairwise distinct too.
        for i in 0..variants.len() {
            for j in i + 1..variants.len() {
                assert_ne!(variants[i], variants[j], "variants {i} and {j} collided");
            }
        }
    }

    #[test]
    fn anonymous_and_helper_and_goal_specs_bypass() {
        // No identity.
        let anon = QuerySpec::view_program(|_: &crate::BlockView| vec![0.0])
            .epsilon(eps(1.0))
            .range_estimation(RangeEstimation::Tight(vec![range(0.0, 1.0)]));
        assert!(QueryFingerprint::compute("d", 1, &anon).is_none());
        // Helper mode: the translator closure has no identity.
        let helper = named_spec().range_estimation(RangeEstimation::Helper {
            input_ranges: vec![range(0.0, 1.0)],
            translate: std::sync::Arc::new(|i: &[OutputRange]| i.to_vec()),
        });
        assert!(QueryFingerprint::compute("d", 1, &helper).is_none());
        // Accuracy goal: ε resolves at run time.
        let goal = named_spec()
            .accuracy_goal(crate::budget_estimator::AccuracyGoal::new(0.9, 0.9).unwrap());
        assert!(QueryFingerprint::compute("d", 1, &goal).is_none());
        // No range mode at all.
        let bare = QuerySpec::builder()
            .view(|_: &crate::BlockView| vec![0.0])
            .identity("m", 1)
            .build()
            .unwrap();
        assert!(QueryFingerprint::compute("d", 1, &bare).is_none());
    }

    #[test]
    fn lookup_round_trip_and_counters() {
        let cache = AnswerCache::new(4);
        let key = fp(1);
        assert!(cache.lookup(key).is_none());
        cache.insert(key, answer(0.5));
        let hit = cache.lookup(key).expect("inserted entry");
        assert_eq!(hit.values, vec![42.0]);
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses), (1, 1));
        assert!((stats.epsilon_saved - 0.5).abs() < 1e-12);
        assert_eq!(stats.entries, 1);
    }

    #[test]
    fn zero_capacity_disables_everything() {
        let cache = AnswerCache::new(0);
        assert!(!cache.is_enabled());
        cache.insert(fp(1), answer(1.0));
        assert!(cache.lookup(fp(1)).is_none());
        let stats = cache.stats();
        assert_eq!(stats.entries, 0);
        assert_eq!(stats.misses, 0, "disabled cache records nothing");
    }

    #[test]
    fn eviction_prefers_stale_low_epsilon_entries() {
        let cache = AnswerCache::new(2);
        cache.insert(fp(1), answer(0.1)); // cheap
        cache.insert(fp(2), answer(5.0)); // expensive
                                          // Both equally stale; inserting a third must evict the cheap one
                                          // (staleness/ε is larger for small ε).
        cache.insert(fp(3), answer(1.0));
        assert!(cache.lookup(fp(2)).is_some(), "expensive entry kept");
        assert!(cache.lookup(fp(1)).is_none(), "cheap entry evicted");
        assert_eq!(cache.stats().evictions, 1);
    }

    #[test]
    fn eviction_is_lru_among_equal_epsilon() {
        let cache = AnswerCache::new(2);
        cache.insert(fp(1), answer(1.0));
        cache.insert(fp(2), answer(1.0));
        // Touch 1 so 2 becomes the stalest.
        assert!(cache.lookup(fp(1)).is_some());
        cache.insert(fp(3), answer(1.0));
        assert!(cache.contains(fp(1)), "recently used entry kept");
        assert!(!cache.contains(fp(2)), "least recently used evicted");
    }

    #[test]
    fn very_stale_expensive_entry_eventually_evicted() {
        let cache = AnswerCache::new(2);
        cache.insert(fp(1), answer(10.0)); // expensive but about to go stale
        cache.insert(fp(2), answer(0.5));
        // 100 touches of entry 2: entry 1's staleness/ε (≈ 100/10) now
        // exceeds entry 2's (≈ 1/0.5).
        for _ in 0..100 {
            assert!(cache.lookup(fp(2)).is_some());
        }
        cache.insert(fp(3), answer(1.0));
        assert!(!cache.contains(fp(1)), "stale expensive entry evicted");
        assert!(cache.contains(fp(2)));
    }

    #[test]
    fn reinserting_same_key_does_not_evict() {
        let cache = AnswerCache::new(2);
        cache.insert(fp(1), answer(1.0));
        cache.insert(fp(2), answer(1.0));
        cache.insert(fp(1), answer(2.0)); // overwrite, not a new entry
        assert_eq!(cache.stats().evictions, 0);
        assert_eq!(cache.len(), 2);
        assert!((cache.lookup(fp(1)).unwrap().epsilon_spent - 2.0).abs() < 1e-12);
    }

    #[test]
    fn contains_does_not_perturb_counters() {
        let cache = AnswerCache::new(2);
        cache.insert(fp(1), answer(1.0));
        assert!(cache.contains(fp(1)));
        assert!(!cache.contains(fp(2)));
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses), (0, 0));
    }

    #[test]
    fn recovered_entries_counted_separately() {
        let cache = AnswerCache::new(4);
        cache.insert_recovered(fp(1), answer(1.0));
        cache.insert_recovered(fp(2), answer(1.0));
        let stats = cache.stats();
        assert_eq!(stats.recovered_entries, 2);
        assert_eq!(stats.misses, 0);
        assert!(cache.lookup(fp(1)).is_some());
    }

    #[test]
    fn insert_strips_telemetry() {
        let cache = AnswerCache::new(2);
        let mut a = answer(1.0);
        a.telemetry = Some(crate::telemetry::TelemetryReport::default());
        cache.insert(fp(1), a);
        assert!(cache.lookup(fp(1)).unwrap().telemetry.is_none());
    }

    #[test]
    fn memo_computes_once_and_retries_failures() {
        let mut memo: Memo<usize, f64> = Memo::new();
        let mut calls = 0;
        for _ in 0..3 {
            let v = memo
                .get_or_try_insert(7, || -> Result<f64, ()> {
                    calls += 1;
                    Ok(1.5)
                })
                .unwrap();
            assert_eq!(v, 1.5);
        }
        assert_eq!(calls, 1);
        assert_eq!(memo.len(), 1);

        // Failures are not cached.
        let mut failing: Memo<usize, f64> = Memo::new();
        assert!(failing
            .get_or_try_insert(1, || Err::<f64, &str>("boom"))
            .is_err());
        assert!(failing.is_empty());
        assert_eq!(
            failing.get_or_try_insert(1, || Ok::<f64, &str>(2.0)),
            Ok(2.0)
        );
    }
}
