//! Per-layer figures taken outside the timed phase: counter deltas
//! from the public stats, and two direct probes — a scratch WAL with
//! the workload's storage config, and a catalog program run over one
//! block plan's views without the chamber pool.

use crate::measure::nearest_rank;
use crate::system::EPS_QUERY;
use crate::{put, Metrics};
use gupt_core::{
    default_block_size, partition, CacheStats, Dataset, LedgerStore, StorageConfig, StorageStats,
};
use gupt_sandbox::Scratch;
use gupt_serve::catalog;
use rand::{rngs::StdRng, SeedableRng};
use std::hint::black_box;
use std::time::Instant;

/// WAL appends timed by the storage probe.
const APPENDS: usize = 200;
/// Repetitions of the direct program run.
const PROGRAM_RUNS: usize = 21;

pub fn storage_deltas(m: &mut Metrics, before: &StorageStats, after: &StorageStats, charging: u64) {
    let per_op = |d: u64| d as f64 / charging.max(1) as f64;
    let n = charging as usize;
    put(
        m,
        "storage.records_per_op",
        per_op(after.records_written - before.records_written),
        n,
    );
    put(
        m,
        "storage.fsyncs_per_op",
        per_op(after.fsyncs - before.fsyncs),
        n,
    );
    put(
        m,
        "storage.rotations",
        (after.rotations - before.rotations) as f64,
        n,
    );
    put(
        m,
        "storage.compactions",
        (after.compactions - before.compactions) as f64,
        n,
    );
}

pub fn cache_deltas(m: &mut Metrics, before: &CacheStats, after: &CacheStats) {
    let lookups = (after.hits + after.misses - before.hits - before.misses) as usize;
    put(
        m,
        "cache.evictions",
        (after.evictions - before.evictions) as f64,
        lookups,
    );
}

/// `LedgerStore::append_charge` on a scratch store: median µs.
pub fn storage_append(m: &mut Metrics, config: StorageConfig) {
    let (mut store, _) = LedgerStore::open("probe", &config).expect("scratch ledger store opens");
    let mut us = Vec::with_capacity(APPENDS);
    for _ in 0..APPENDS {
        let start = Instant::now();
        store.append_charge(EPS_QUERY).expect("scratch append");
        us.push(start.elapsed().as_secs_f64() * 1e6);
    }
    us.sort_by(f64::total_cmp);
    put(m, "storage.append_us", nearest_rank(&us, 50.0), APPENDS);
}

/// The `mean:0` catalog program run directly over one default block
/// plan of `rows`, with no chamber pool: median µs per plan.
pub fn chamber_program(m: &mut Metrics, rows: &[Vec<f64>], seed: u64) {
    let dataset = Dataset::new(rows.to_vec()).expect("generated table is valid");
    let n = dataset.len();
    let plan = partition(
        n,
        default_block_size(n),
        1,
        &mut StdRng::seed_from_u64(seed),
    );
    let views = plan.views(dataset.store());
    let program = catalog::resolve("mean:0", &[(0.0, crate::gen::VALUE_MAX)])
        .expect("catalog program resolves")
        .program;
    let mut scratch = Scratch::new();
    let mut us = Vec::with_capacity(PROGRAM_RUNS);
    for _ in 0..PROGRAM_RUNS {
        let start = Instant::now();
        for view in &views {
            black_box(program.run(black_box(view), &mut scratch));
        }
        us.push(start.elapsed().as_secs_f64() * 1e6);
    }
    us.sort_by(f64::total_cmp);
    put(
        m,
        "chamber.program_us",
        nearest_rank(&us, 50.0),
        PROGRAM_RUNS,
    );
    put(m, "blocks.index_bytes", plan.index_bytes() as f64, 1);
}
