//! The system under test, reached through its public API: building a
//! runtime over a durable ledger, and the in-process calls the
//! workloads make (`run`, `sql`), each wrapped in a span and checked.

use crate::gen::{CatalogQuery, COLUMN_RANGES};
use crate::measure::{query_key, timed, Recorder};
use gupt_core::{
    Dataset, Durability, GuptRuntime, GuptRuntimeBuilder, QueryFingerprint, QuerySpec,
    RangeEstimation, StorageConfig,
};
use gupt_dp::{Epsilon, OutputRange};
use gupt_serve::catalog;
use gupt_sql::{
    aggregate_spec, lexer, parse, validate, PlanContext, RowFilter, SqlAnswer, SqlOptions,
    SqlRuntime,
};
use std::path::Path;
use std::time::Instant;

/// The one dataset every workload registers.
pub const TABLE: &str = "events";
/// Lifetime budget: 2^20, far above what any run spends, so no op is
/// refused for budget.
pub const BUDGET: f64 = 1_048_576.0;
/// ε of a cold catalog query and of an ungrouped statement (2^-4).
pub const EPS_QUERY: f64 = 0.0625;
/// ε of a grouped statement.
pub const EPS_GROUPED: f64 = 1.0;
/// ε of one window evaluation (2^-6).
pub const EPS_WINDOW: f64 = 0.015625;
/// Times the runtime (and server) is set up in one run; `setup_s` is
/// the median.
pub const SETUPS: usize = 11;

/// Registers the table over a durable ledger in `storage` and builds
/// the runtime with default execution policy and cache capacity.
pub fn build_runtime(rows: Vec<Vec<f64>>, storage: StorageConfig, seed: u64) -> GuptRuntime {
    let registration = Dataset::new(rows)
        .expect("generated table is non-empty and rectangular")
        .builder()
        .budget(Epsilon::new(BUDGET).expect("positive budget"))
        .durability(Durability::Durable(storage));
    GuptRuntimeBuilder::new()
        .dataset(TABLE, registration)
        .expect("durable registration in a fresh directory")
        .seed(seed)
        .build()
}

/// Runs `build` [`SETUPS`] times in fresh directories under `state`,
/// timing each; returns the set-up times and the last result.
pub fn repeat_setup<T>(state: &Path, mut build: impl FnMut(&Path) -> T) -> (Vec<f64>, T) {
    let mut times = Vec::with_capacity(SETUPS);
    let mut last = None;
    for i in 0..SETUPS {
        let dir = state.join(format!("setup{i}"));
        let (built, start, end) = timed(|| build(&dir));
        times.push(end.duration_since(start).as_secs_f64());
        // Dropping the previous instance (and stopping its server) is
        // not part of set-up.
        last = Some(built);
    }
    (times, last.expect("at least one set-up"))
}

/// The spec the serve plane builds for a wire `query` request, so an
/// in-process call and a wire call fingerprint and execute alike.
pub fn catalog_spec(q: &CatalogQuery, eps: f64, telemetry: bool) -> QuerySpec {
    let wire = catalog::resolve(q.program, &[q.range]).expect("catalog program resolves");
    let identity = wire.program.name().to_string();
    let spec = QuerySpec::builder()
        .program(wire.program)
        .identity(identity, 1)
        .range_estimation(RangeEstimation::Tight(wire.ranges))
        .epsilon(Epsilon::new(eps).expect("positive ε"));
    let spec = if telemetry {
        spec.collect_telemetry()
    } else {
        spec
    };
    spec.build().expect("catalog spec builds")
}

/// The options the serve plane uses for a wire `sql` request carrying
/// [`COLUMN_RANGES`]: default `SqlOptions`, so the gate is armed.
pub fn sql_options(telemetry: bool) -> SqlOptions {
    SqlOptions {
        column_ranges: COLUMN_RANGES
            .iter()
            .map(|&(lo, hi)| OutputRange::new(lo, hi).expect("valid column range"))
            .collect(),
        collect_telemetry: telemetry,
        ..SqlOptions::default()
    }
}

/// Digest tags, one per answer shape.
pub const TAG_QUERY: u64 = 1;
pub const TAG_SQL: u64 = 2;
pub const TAG_WINDOW: u64 = 3;
pub const TAG_FAILED: u64 = 0xFA11;

/// One catalog query through `GuptRuntime::run`. A cold call must
/// charge exactly `eps`. A `warm` call replays an earlier cold query: it
/// must return that answer's values bit for bit and leave the ledger
/// where it was. (A one-shot replay reports the original answer's
/// `epsilon_spent`; only the ledger shows that it charged nothing.)
pub fn run_catalog(
    rt: &GuptRuntime,
    rec: &mut Recorder,
    kind: &'static str,
    q: &CatalogQuery,
    eps: f64,
    warm: bool,
) -> Option<f64> {
    let spec = catalog_spec(q, eps, rec.tracing());
    let spent_before = warm.then(|| ledger_spent(rt));
    let (op, _) = rec.begin();
    let before = rec.tracing().then(|| rt.cache_stats());
    if rec.tracing() {
        let epoch = rt.dataset_epoch(TABLE).expect("registered dataset");
        let (fp, start, end) = timed(|| QueryFingerprint::compute(TABLE, epoch, &spec));
        std::hint::black_box(fp);
        rec.span("cache.fingerprint", op, None, start, end);
        rec.sample(
            "cache.fingerprint_us",
            end.duration_since(start).as_secs_f64() * 1e6,
        );
    }
    let (result, start, end) = timed(|| rt.run(TABLE, spec));
    match result {
        Ok(answer) => {
            let span = rec.end(kind, op, start, end, true);
            rec.answer(TAG_QUERY, &answer.values, answer.epsilon_spent);
            let key = query_key(q.program, q.range);
            if let Some(before) = spent_before {
                rec.check_replay(&key, &answer.values, before, ledger_spent(rt));
            } else {
                rec.charged(kind, answer.epsilon_spent, eps, false);
                rec.released
                    .insert(key, answer.values.iter().map(|v| v.to_bits()).collect());
            }
            if let Some(report) = &answer.telemetry {
                if !warm {
                    rec.stages(span, op, start, report);
                }
            }
            if let Some(before) = before {
                let after = rt.cache_stats();
                let lookups = (after.hits + after.misses) - (before.hits + before.misses);
                if warm && lookups > 0 {
                    rec.sample(
                        "cache.hit_ratio",
                        (after.hits - before.hits) as f64 / lookups as f64,
                    );
                }
            }
            Some(end.duration_since(start).as_secs_f64())
        }
        Err(e) => {
            rec.end(kind, op, start, end, false);
            rec.answer(TAG_FAILED, &[], 0.0);
            rec.violation(format!("{kind} {} failed: {e}", q.program));
            None
        }
    }
}

/// One statement through `SqlRuntime::sql`; `eps` is the budget its
/// `WITH EPSILON` clause requests. In a traced phase the front end
/// (lex, parse, validate + per-aggregate planning) is timed separately
/// on the same text first.
pub fn run_sql(
    rt: &GuptRuntime,
    rec: &mut Recorder,
    kind: &'static str,
    statement: &str,
    eps: f64,
) {
    let options = sql_options(rec.tracing());
    let (op, _) = rec.begin();
    if rec.tracing() {
        trace_front_end(rt, rec, op, statement, &options);
    }
    let misses_before = rec.tracing().then(|| rt.cache_stats().misses);
    let (result, start, end) = timed(|| rt.sql(statement, &options));
    match result {
        Ok(answer) => {
            let span = rec.end(kind, op, start, end, true);
            record_sql_answer(rec, &answer, options.min_count);
            rec.charged(kind, answer.epsilon_spent, eps, kind != "sql");
            if let Some(before) = misses_before {
                rec.sample(
                    "sql.subqueries_per_stmt",
                    (rt.cache_stats().misses - before) as f64,
                );
            }
            // A grouped answer carries the telemetry of one sub-query
            // only; stage spans are kept for ungrouped statements.
            if let (Some(report), true) = (&answer.telemetry, answer.rows.len() == 1) {
                if answer.rows[0].group.is_empty() {
                    rec.stages(span, op, start, report);
                }
            }
        }
        Err(e) => {
            rec.end(kind, op, start, end, false);
            rec.answer(TAG_FAILED, &[], 0.0);
            rec.violation(format!("{kind} failed: {e}: {statement}"));
        }
    }
}

/// Digests a SQL answer and checks the release rule on it.
fn record_sql_answer(rec: &mut Recorder, answer: &SqlAnswer, min_count: f64) {
    let mut flat = Vec::new();
    for row in &answer.rows {
        flat.extend_from_slice(&row.group);
        flat.extend_from_slice(&row.values);
        if let Some(count) = row.noisy_count {
            flat.push(count);
            if count < min_count {
                rec.violation(format!(
                    "released group {:?} has noisy count {count} < {min_count}",
                    row.group
                ));
            }
        }
    }
    rec.answer(TAG_SQL, &flat, answer.epsilon_spent);
}

fn trace_front_end(
    rt: &GuptRuntime,
    rec: &mut Recorder,
    op: u64,
    statement: &str,
    options: &SqlOptions,
) {
    let front = Instant::now();
    let (tokens, lex_start, lex_end) = timed(|| lexer::lex(statement));
    std::hint::black_box(tokens.ok());
    let (stmt, parse_start, parse_end) = timed(|| parse(statement));
    let Ok(stmt) = stmt else {
        return;
    };
    let ctx = PlanContext {
        dataset_size: rt.dataset_len(TABLE).expect("registered dataset"),
        dataset_dimension: rt.dataset_dimension(TABLE).expect("registered dataset"),
        column_ranges: options.column_ranges.clone(),
    };
    let (planned, plan_start, plan_end) = timed(|| {
        validate(&stmt, &ctx)?;
        let filter = RowFilter {
            predicate: stmt.predicate.clone(),
            group_key: Vec::new(),
        };
        stmt.aggregates
            .iter()
            .map(|agg| aggregate_spec(agg, &filter, &ctx, options.block_size))
            .collect::<Result<Vec<_>, _>>()
    });
    std::hint::black_box(planned.ok());
    let parent = rec.span("sql.front_end", op, None, front, plan_end);
    for (name, metric, start, end) in [
        ("sql.lex", "sql.lex_us", lex_start, lex_end),
        ("sql.parse", "sql.parse_us", parse_start, parse_end),
        ("sql.plan", "sql.plan_us", plan_start, plan_end),
    ] {
        rec.span(name, op, parent, start, end);
        rec.sample(metric, end.duration_since(start).as_secs_f64() * 1e6);
    }
}

/// ε spent so far on the table's ledger.
pub fn ledger_spent(rt: &GuptRuntime) -> f64 {
    rt.ledger_state(TABLE).expect("registered dataset").spent
}

/// Checks the dataset ledger against the ε every charging answer
/// reported: all are exact binary fractions, so the sums match bit for
/// bit.
pub fn check_ledger(rt: &GuptRuntime, rec: &mut Recorder) {
    let spent = ledger_spent(rt);
    if spent.to_bits() != rec.epsilon_spent.to_bits() {
        rec.violation(format!(
            "ledger spent {spent:?} != sum of answered ε {:?}",
            rec.epsilon_spent
        ));
    }
}
