//! `ingest_stream`: appends beside reads, over a durable ledger that
//! fsyncs every record.
//!
//! Batches of [`BATCH_ROWS`] rows arrive on a fixed schedule, one every
//! [`PERIOD`]; the loop waits for each answer before the next call
//! (closed loop) and only sleeps when it is ahead of the schedule, so
//! the table grows by the same rows in every run whatever the speed of
//! the code. After each append it polls three subscriptions until no
//! window is ready: a tumbling window of one arrival, a duplicate of it
//! (which replays each closed window at 0 ε), and a sliding window of
//! [`SLIDE_SIZE`] arrivals advancing by [`SLIDE_STEP`]. Every
//! [`QUERY_EVERY`] appends a cold full-table catalog query runs and is
//! replayed [`WARM_PER_QUERY`] times; every [`SQL_EVERY`] appends an
//! ungrouped statement runs.

use crate::gen::{self, cold_query, threshold, CatalogQuery, SplitMix, VALUE_MAX};
use crate::measure::{timed, Recorder};
use crate::probes;
use crate::system::{
    build_runtime, catalog_spec, check_ledger, repeat_setup, run_catalog, run_sql, EPS_QUERY,
    EPS_WINDOW, TABLE, TAG_FAILED, TAG_WINDOW,
};
use crate::{put, Config, Metrics, Phase};
use gupt_core::{ContinuousQuery, FsyncPolicy, GuptRuntime, StorageConfig, WindowKey, WindowSpec};
use std::path::Path;
use std::time::{Duration, Instant};

/// Rows registered before the first append. Kept well below the query
/// table: every closed window copies the whole aged store (which soon
/// holds every row), so a large base would turn each poll into a
/// multi-megabyte copy and make the run's timings follow memory
/// bandwidth rather than the layers under test.
const BASE_ROWS: usize = 20_000;
const BATCH_ROWS: usize = 20;
const PERIOD: Duration = Duration::from_millis(6);
const SLIDE_SIZE: usize = 100;
const SLIDE_STEP: usize = 5;
const QUERY_EVERY: u64 = 4;
const WARM_PER_QUERY: usize = 3;
const SQL_EVERY: u64 = 8;
/// Appends before the timed phase (the first also drains the windows
/// over the registration batch).
const WARMUP_APPENDS: u64 = 8;

/// Durable, fsync on every record, with segments and a compaction
/// threshold small enough that both recur several times per run.
pub fn storage(dir: &Path) -> StorageConfig {
    StorageConfig::new(dir)
        .fsync(FsyncPolicy::Always)
        .segment_bytes(16 * 1024)
        .compaction_threshold(1024)
}

struct Stream<'a> {
    rt: &'a GuptRuntime,
    tumbling: ContinuousQuery,
    duplicate: ContinuousQuery,
    sliding: ContinuousQuery,
    rng: SplitMix,
    appends: u64,
    cold: u64,
    sql: u64,
    fresh: u64,
    replayed: u64,
}

impl Stream<'_> {
    fn cycle(&mut self, rec: &mut Recorder, seed: u64) {
        let batch = gen::batch(seed, self.appends, BATCH_ROWS);
        self.appends += 1;
        let (op, _) = rec.begin();
        let (receipt, start, end) = timed(|| self.rt.append_rows(TABLE, &batch));
        match receipt {
            Ok(r) => {
                rec.end("append", op, start, end, true);
                rec.sample(
                    "ingest.bytes_materialized_per_row",
                    r.bytes_materialized as f64 / r.rows_appended.max(1) as f64,
                );
            }
            Err(e) => {
                rec.end("append", op, start, end, false);
                rec.violation(format!("append failed: {e}"));
            }
        }
        let subs = [
            self.tumbling.clone(),
            self.duplicate.clone(),
            self.sliding.clone(),
        ];
        for (i, sub) in subs.iter().enumerate() {
            self.drain(rec, sub, i == 1);
        }
        if self.appends % QUERY_EVERY == 1 {
            let q = cold_query(&mut self.rng, self.cold);
            self.cold += 1;
            if let Some(s) = run_catalog(self.rt, rec, "query_cold", &q, EPS_QUERY, false) {
                rec.sample("ingest.first_query_after_append_ms", s * 1e3);
            }
            for _ in 0..WARM_PER_QUERY {
                run_catalog(self.rt, rec, "query_warm", &q, EPS_QUERY, true);
            }
        }
        if self.appends % SQL_EVERY == 3 {
            let t = threshold(&mut self.rng, self.sql, 20.0, 900);
            self.sql += 1;
            let statement =
                format!("SELECT AVG(c0) FROM {TABLE} WHERE c0 < {t} WITH EPSILON {EPS_QUERY}");
            run_sql(self.rt, rec, "sql", &statement, EPS_QUERY);
        }
    }

    /// Polls `sub` until no window is ready. Fresh windows must charge
    /// exactly [`EPS_WINDOW`]; the duplicate's must replay at 0 ε.
    fn drain(&mut self, rec: &mut Recorder, sub: &ContinuousQuery, duplicate: bool) {
        loop {
            let (op, _) = rec.begin();
            let (polled, start, end) = timed(|| self.rt.poll_window(sub));
            let window = match polled {
                Ok(Some(w)) => w,
                Ok(None) => {
                    rec.count("poll_empty");
                    return;
                }
                Err(e) => {
                    rec.end("poll", op, start, end, false);
                    rec.answer(TAG_FAILED, &[], 0.0);
                    rec.violation(format!("poll failed: {e}"));
                    return;
                }
            };
            let kind = if duplicate { "poll_replay" } else { "poll" };
            let span = rec.end(kind, op, start, end, true);
            let eps = window.answer.epsilon_spent;
            rec.answer(TAG_WINDOW, &window.answer.values, eps);
            if duplicate {
                self.replayed += 1;
                if !window.replayed || eps.to_bits() != 0f64.to_bits() {
                    rec.violation(format!(
                        "window {} on the duplicate subscription charged ε {eps}",
                        window.window
                    ));
                }
            } else {
                self.fresh += 1;
                if window.replayed {
                    rec.violation(format!("fresh window {} replayed", window.window));
                }
                rec.charged("poll", eps, EPS_WINDOW, false);
                if let Some(report) = &window.answer.telemetry {
                    rec.stages(span, op, start, report);
                }
            }
        }
    }
}

/// Windows of `size` arrivals advancing by `step` that have closed once
/// `arrivals` arrivals exist.
fn closed_windows(arrivals: usize, size: usize, step: usize) -> usize {
    if arrivals < size {
        0
    } else {
        (arrivals - size) / step + 1
    }
}

pub fn phase(cfg: &Config, trace: bool) -> Phase {
    let rows = gen::table(cfg.seed, BASE_ROWS);
    let (setup_s, rt) = repeat_setup(&cfg.state, |dir| {
        build_runtime(rows.clone(), storage(dir), cfg.seed)
    });
    let window_query = CatalogQuery {
        program: "mean:0",
        range: (0.0, VALUE_MAX),
    };
    let subscribe = |window: WindowSpec| {
        rt.subscribe(
            TABLE,
            window.keyed_by(WindowKey::Arrival),
            catalog_spec(&window_query, EPS_WINDOW, trace),
        )
        .expect("subscription registers")
    };
    let tumbling = WindowSpec::tumbling(1).expect("valid window");
    let mut stream = Stream {
        rt: &rt,
        tumbling: subscribe(tumbling),
        duplicate: subscribe(tumbling),
        sliding: subscribe(WindowSpec::sliding(SLIDE_SIZE, SLIDE_STEP).expect("valid window")),
        rng: SplitMix::stream(cfg.seed, 3),
        appends: 0,
        cold: 0,
        sql: 0,
        fresh: 0,
        replayed: 0,
    };
    let mut rec = Recorder::new(trace);
    while stream.appends < WARMUP_APPENDS {
        stream.cycle(&mut rec, cfg.seed);
    }

    let storage_before = rt.storage_stats(TABLE).ok().flatten().unwrap_or_default();
    let cache_before = rt.cache_stats();
    let stream_before = rt.stream_stats();
    rec.timing = true;
    let start = Instant::now();
    let deadline = start + cfg.seconds;
    let mut cycles = 0u32;
    loop {
        let due = start + PERIOD * cycles;
        let now = Instant::now();
        if now >= deadline {
            break;
        }
        if due > now {
            std::thread::sleep(due - now);
        } else {
            rec.sample("ingest.lag_ms", (now - due).as_secs_f64() * 1e3);
        }
        stream.cycle(&mut rec, cfg.seed);
        cycles += 1;
    }
    let elapsed = start.elapsed().as_secs_f64();
    rec.timing = false;
    check_ledger(&rt, &mut rec);

    let arrivals = 1 + stream.appends as usize;
    let expected_rows = BASE_ROWS + stream.appends as usize * BATCH_ROWS;
    let len = rt.dataset_len(TABLE).expect("registered dataset");
    if len != expected_rows {
        rec.violation(format!(
            "dataset holds {len} rows, expected {expected_rows}"
        ));
    }
    let expected_fresh = (arrivals + closed_windows(arrivals, SLIDE_SIZE, SLIDE_STEP)) as u64;
    if stream.fresh != expected_fresh || stream.replayed != arrivals as u64 {
        rec.violation(format!(
            "{} fresh and {} replayed windows, expected {expected_fresh} and {arrivals}",
            stream.fresh, stream.replayed
        ));
    }

    let mut layer = Metrics::new();
    let storage_after = rt.storage_stats(TABLE).ok().flatten().unwrap_or_default();
    probes::storage_deltas(&mut layer, &storage_before, &storage_after, rec.charging);
    probes::cache_deltas(&mut layer, &cache_before, &rt.cache_stats());
    let s = rt.stream_stats();
    let closed = s.windows_closed - stream_before.windows_closed;
    let window_eps = s.epsilon_spent - stream_before.epsilon_spent;
    put(
        &mut layer,
        "stream.windows_closed",
        closed as f64,
        closed as usize,
    );
    put(
        &mut layer,
        "stream.windows_replayed",
        (s.windows_replayed - stream_before.windows_replayed) as f64,
        closed as usize,
    );
    put(
        &mut layer,
        "stream.epsilon_per_window",
        window_eps / closed.max(1) as f64,
        closed as usize,
    );
    if trace {
        probes::storage_append(&mut layer, storage(&cfg.state.join("probe")));
        probes::chamber_program(&mut layer, &rows, cfg.seed);
    }
    drop(stream);
    Phase {
        rec,
        elapsed,
        setup_s,
        layer,
    }
}
