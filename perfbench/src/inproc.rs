//! `query_inproc`: one analyst thread calling `GuptRuntime::run` and
//! `SqlRuntime::sql` in process, over a durable ledger that never
//! fsyncs, with the default execution policy and cache capacity.

use crate::gen::{self, TABLE_ROWS};
use crate::measure::Recorder;
use crate::mix::{Op, QueryMix};
use crate::probes;
use crate::system::{
    build_runtime, check_ledger, repeat_setup, run_catalog, run_sql, EPS_GROUPED, EPS_QUERY, TABLE,
};
use crate::{Config, Metrics, Phase};
use gupt_core::{FsyncPolicy, GuptRuntime, StorageConfig};
use std::path::Path;
use std::time::Instant;

/// Warm replays per round (a round also holds 8 cold queries, 8
/// ungrouped statements and one 10-key grouped statement).
const WARM_PER_ROUND: usize = 64;

/// The query workloads' ledger: durable, never fsynced, default
/// segment size and compaction threshold.
pub fn storage(dir: &Path) -> StorageConfig {
    StorageConfig::new(dir).fsync(FsyncPolicy::Never)
}

/// Executes one op in process.
pub fn exec(rt: &GuptRuntime, rec: &mut Recorder, op: &Op) {
    match op {
        Op::Cold(q) => {
            run_catalog(rt, rec, "query_cold", q, EPS_QUERY, false);
        }
        Op::Warm(q) => {
            run_catalog(rt, rec, "query_warm", q, EPS_QUERY, true);
        }
        Op::Sql(s) => run_sql(rt, rec, "sql", s, EPS_QUERY),
        Op::Grouped(s) => run_sql(rt, rec, "sql_grouped", s, EPS_GROUPED),
        Op::Wide(s) => run_sql(rt, rec, "sql_grouped_wide", s, EPS_GROUPED),
    }
}

pub fn phase(cfg: &Config, trace: bool) -> Phase {
    let rows = gen::table(cfg.seed, TABLE_ROWS);
    let (setup_s, rt) = repeat_setup(&cfg.state, |dir| {
        build_runtime(rows.clone(), storage(dir), cfg.seed)
    });
    let mut rec = Recorder::new(trace);
    let mut mix = QueryMix::new(cfg.seed, WARM_PER_ROUND, true);
    for op in mix.round() {
        exec(&rt, &mut rec, &op);
    }

    let storage_before = rt.storage_stats(TABLE).ok().flatten().unwrap_or_default();
    let cache_before = rt.cache_stats();
    rec.timing = true;
    let start = Instant::now();
    let deadline = start + cfg.seconds;
    'run: loop {
        for op in mix.round() {
            if Instant::now() >= deadline {
                break 'run;
            }
            exec(&rt, &mut rec, &op);
        }
    }
    let elapsed = start.elapsed().as_secs_f64();
    rec.timing = false;
    check_ledger(&rt, &mut rec);

    let mut layer = Metrics::new();
    let storage_after = rt.storage_stats(TABLE).ok().flatten().unwrap_or_default();
    probes::storage_deltas(&mut layer, &storage_before, &storage_after, rec.charging);
    probes::cache_deltas(&mut layer, &cache_before, &rt.cache_stats());
    if trace {
        probes::storage_append(&mut layer, storage(&cfg.state.join("probe")));
        probes::chamber_program(&mut layer, &rows, cfg.seed);
    }
    Phase {
        rec,
        elapsed,
        setup_s,
        layer,
    }
}
