//! Executes compiled DP-SQL plans on a [`GuptRuntime`].
//!
//! Three execution shapes, chosen by the statement:
//!
//! - **Single aggregate, no `GROUP BY`** — compiles to exactly one
//!   [`QuerySpec`] submitted through [`GuptRuntime::run_as`], so the
//!   released value is **bit-identical** to the handwritten spec at the
//!   same seed and submission position (the per-query RNG keys on
//!   submission order, never on SQL-ness).
//! - **Multiple aggregates, no `GROUP BY`** — one spec per aggregate,
//!   submitted as a §5.2 batch: the statement budget is distributed
//!   with the noise-equalising rule and debited in one atomic charge.
//! - **`GROUP BY`** — one spec per (group, aggregate) pair plus a
//!   noisy `COUNT` per group (reusing a selected `COUNT` when there is
//!   one), all submitted as one batch. Groups whose *noisy* count falls
//!   below the minimum-frequency threshold are suppressed entirely —
//!   the DPSQL′ rule (PAPERS.md): releasing a rare group's row would
//!   leak membership even though each released number is DP, because
//!   the *set of released keys* is data-dependent.
//!
//! # What the frequency gate does and does not guarantee
//!
//! Thresholding on a noisy count does **not** make the key set purely
//! ε-DP: a group supported by a single row still clears the threshold
//! whenever its count noise exceeds `min_count − 1`. The released key
//! set is (ε, δ)-DP — ε is the statement budget already charged for
//! the gate counts, and δ is the per-group escape probability
//! quantified by [`gate_delta`] (≈ ½·exp(−(min_count − 1)/scale) for
//! the gate count's Laplace scale). A larger `min_count`, relative to
//! that scale, buys an exponentially smaller δ; `min_count = 0`
//! disables the gate and releases the raw, data-dependent key set,
//! which is only acceptable for callers trusted with the raw rows
//! (see [`SqlOptions::trusted`]).
//!
//! Because the candidate keys are enumerated from raw rows, the
//! executor must never branch *observably* on that raw set. A grouped
//! statement therefore charges its full budget even when the `WHERE`
//! predicate matches no rows — a free empty answer would be a
//! noiseless, infinitely retryable membership oracle (`SELECT COUNT(*)
//! FROM t WHERE c0 = v GROUP BY c1` answered for free exactly when no
//! row has `c0 = v`). The empty case runs a hidden `COUNT(*)` under
//! the full statement ε and discards it, so "no matching rows" and
//! "every group suppressed" cost the same on the ledger and report the
//! same `epsilon_spent`. Likewise the over-[`MAX_GROUPS`] plan error
//! carries no data-dependent cardinality, only the fixed cap.

use crate::ast::{AggFunc, Statement};
use crate::error::SqlError;
use crate::parser::parse;
use crate::plan::{aggregate_spec, grouped_aggregate_spec, validate, PlanContext, RowFilter};
use gupt_core::{GuptRuntime, QuerySpec, RowStore, RowTags, SqlTelemetry, TelemetryReport};
use gupt_dp::Epsilon;
use std::cmp::Ordering;
use std::sync::Arc;

/// Hard cap on `GROUP BY` cardinality: beyond this the per-group budget
/// shares are uselessly small and the batch uselessly large.
pub const MAX_GROUPS: usize = 1000;

/// Default minimum-frequency threshold. [`SqlOptions::default`] arms
/// the gate at this value, and the serve plane refuses remote requests
/// that ask for anything lower — relaxing the gate is an operator
/// decision, never an analyst one.
pub const DEFAULT_MIN_COUNT: f64 = 5.0;

/// The per-group escape probability δ of the minimum-frequency gate.
///
/// Gating key release on a Laplace-noised count yields an (ε, δ)-DP
/// key set, not a pure ε-DP one: a group supported by a single row
/// still clears a threshold `T` whenever its count noise exceeds
/// `T − 1`, which happens with probability `½·exp(−(T − 1)/scale)`.
/// This helper computes that probability so `min_count` can be sized
/// against the gate count's noise scale (raise the threshold, or spend
/// more ε to shrink the scale, until δ is acceptable) instead of being
/// picked as an arbitrary float.
///
/// Returns `1.0` when `min_count ≤ 1` (the gate cannot reject a
/// singleton at all) and `0.0` for a degenerate zero noise scale (an
/// exact count never lets a singleton past a threshold above one).
pub fn gate_delta(min_count: f64, noise_scale: f64) -> f64 {
    if min_count.is_nan() || noise_scale.is_nan() || min_count <= 1.0 {
        return 1.0;
    }
    if noise_scale <= 0.0 {
        return 0.0;
    }
    0.5 * (-(min_count - 1.0) / noise_scale).exp()
}

/// Options accompanying a statement: everything the SQL text itself
/// cannot carry.
#[derive(Debug, Clone)]
pub struct SqlOptions {
    /// Analyst-supplied value range per column (indexed by column).
    /// Required for every column a value aggregate reads.
    pub column_ranges: Vec<gupt_dp::OutputRange>,
    /// Budget used when the statement has no `WITH EPSILON` clause.
    pub epsilon: f64,
    /// Minimum-frequency threshold: a `GROUP BY` group is released only
    /// if its noisy count is at least this value. Defaults to
    /// [`DEFAULT_MIN_COUNT`] — the gate is armed unless explicitly
    /// disarmed. `0` disables the rule (and skips the hidden per-group
    /// count when no `COUNT` was selected), which releases the raw,
    /// data-dependent key set; use [`SqlOptions::trusted`] so that
    /// opt-out is visible at the call site. [`gate_delta`] quantifies
    /// the residual δ for a given threshold and noise scale.
    pub min_count: f64,
    /// Fixed block size override (`None` = runtime default `n^0.6`).
    pub block_size: Option<usize>,
    /// Collect per-stage telemetry on the compiled specs.
    pub collect_telemetry: bool,
}

impl Default for SqlOptions {
    fn default() -> Self {
        SqlOptions {
            column_ranges: Vec::new(),
            epsilon: 1.0,
            min_count: DEFAULT_MIN_COUNT,
            block_size: None,
            collect_telemetry: false,
        }
    }
}

impl SqlOptions {
    /// Options for a **trusted** context: the minimum-frequency gate is
    /// disarmed, so `GROUP BY` statements release the raw, data-dependent
    /// key set (each group's *values* are still noised as usual).
    ///
    /// Only for callers who could read the raw rows anyway — local
    /// analysis of one's own data, or equivalence tests comparing plan
    /// composition. Never hand these options to an untrusted analyst;
    /// the serve plane refuses sub-floor thresholds from the wire for
    /// exactly this reason.
    pub fn trusted() -> Self {
        SqlOptions {
            min_count: 0.0,
            ..SqlOptions::default()
        }
    }
}

/// One released result row.
#[derive(Debug, Clone, PartialEq)]
pub struct SqlRow {
    /// The group-key values (empty for ungrouped statements), in
    /// `GROUP BY` declaration order.
    pub group: Vec<f64>,
    /// One noisy value per selected aggregate, in select-list order.
    pub values: Vec<f64>,
    /// The group's noisy count when a frequency gate ran (always
    /// noisy — never the true count).
    pub noisy_count: Option<f64>,
}

/// The released answer for one statement.
#[derive(Debug)]
pub struct SqlAnswer {
    /// Column labels: group columns (`cN`) then aggregate displays.
    pub columns: Vec<String>,
    /// Released rows, group keys in ascending order.
    pub rows: Vec<SqlRow>,
    /// Total ε debited for this statement (0 on a full cache replay).
    pub epsilon_spent: f64,
    /// Groups suppressed by the minimum-frequency rule.
    pub suppressed_groups: u64,
    /// Statements successfully parsed in this call (1).
    pub statements_parsed: u64,
    /// Statements successfully planned in this call (1).
    pub statements_planned: u64,
    /// Telemetry from the underlying run(s), with the `sql` object
    /// stamped, when requested via [`SqlOptions::collect_telemetry`].
    pub telemetry: Option<TelemetryReport>,
}

/// DP-SQL entry points, implemented for [`GuptRuntime`].
///
/// An extension trait rather than inherent methods: `gupt-core` stays
/// SQL-free, and `use gupt_sql::SqlRuntime` opts a binary in.
pub trait SqlRuntime {
    /// Parses, plans and executes one DP-SQL statement.
    fn sql(&self, statement: &str, options: &SqlOptions) -> Result<SqlAnswer, SqlError> {
        self.sql_as(None, statement, options)
    }

    /// Like [`SqlRuntime::sql`], attributing every charge to a
    /// registered principal's quota.
    fn sql_as(
        &self,
        principal: Option<&str>,
        statement: &str,
        options: &SqlOptions,
    ) -> Result<SqlAnswer, SqlError>;
}

impl SqlRuntime for GuptRuntime {
    fn sql_as(
        &self,
        principal: Option<&str>,
        statement: &str,
        options: &SqlOptions,
    ) -> Result<SqlAnswer, SqlError> {
        let stmt = parse(statement)?;

        let ctx = PlanContext {
            dataset_size: self.dataset_len(&stmt.dataset)?,
            dataset_dimension: self.dataset_dimension(&stmt.dataset)?,
            column_ranges: options.column_ranges.clone(),
        };
        validate(&stmt, &ctx)?;
        let epsilon = statement_epsilon(&stmt, options)?;
        if !options.min_count.is_finite() || options.min_count < 0.0 {
            return Err(SqlError::plan("min_count must be finite and non-negative"));
        }

        if stmt.group_by.is_empty() {
            run_ungrouped(self, principal, &stmt, &ctx, options, epsilon)
        } else {
            run_grouped(self, principal, &stmt, &ctx, options, epsilon)
        }
    }
}

/// Resolves the statement budget: `WITH EPSILON` wins over the option.
fn statement_epsilon(stmt: &Statement, options: &SqlOptions) -> Result<Epsilon, SqlError> {
    let raw = stmt.epsilon.unwrap_or(options.epsilon);
    Epsilon::new(raw).map_err(|e| SqlError::plan(format!("invalid epsilon {raw}: {e}")))
}

/// Column labels: group columns first, then aggregate displays.
fn column_labels(stmt: &Statement) -> Vec<String> {
    stmt.group_by
        .iter()
        .map(|c| format!("c{c}"))
        .chain(stmt.aggregates.iter().map(|a| a.to_string()))
        .collect()
}

fn compile_aggregates(
    stmt: &Statement,
    filter: &RowFilter,
    group: Option<&(RowTags, u16)>,
    ctx: &PlanContext,
    options: &SqlOptions,
) -> Result<Vec<QuerySpec>, SqlError> {
    stmt.aggregates
        .iter()
        .map(|agg| {
            let plan =
                grouped_aggregate_spec(agg, filter, ctx, options.block_size, group.cloned())?;
            Ok(finish_spec(plan.spec, options))
        })
        .collect()
}

fn finish_spec(spec: QuerySpec, options: &SqlOptions) -> QuerySpec {
    if options.collect_telemetry {
        spec.collect_telemetry()
    } else {
        spec
    }
}

/// Stamps the SQL counters onto a run's telemetry report.
fn stamp(mut report: TelemetryReport, suppressed_groups: u64) -> TelemetryReport {
    report.sql = SqlTelemetry {
        statements_parsed: 1,
        statements_planned: 1,
        suppressed_groups,
    };
    report
}

fn run_ungrouped(
    runtime: &GuptRuntime,
    principal: Option<&str>,
    stmt: &Statement,
    ctx: &PlanContext,
    options: &SqlOptions,
    epsilon: Epsilon,
) -> Result<SqlAnswer, SqlError> {
    let filter = RowFilter {
        predicate: stmt.predicate.clone(),
        group_key: Vec::new(),
    };
    let mut specs = compile_aggregates(stmt, &filter, None, ctx, options)?;

    let (values, epsilon_spent, telemetry) = if specs.len() == 1 {
        // Single aggregate: one plain run, bit-identical to the
        // handwritten spec at the same seed and submission position.
        let spec = specs.pop().expect("one spec").epsilon(epsilon);
        let answer = match principal {
            Some(p) => runtime.run_as(&stmt.dataset, p, spec)?,
            None => runtime.run(&stmt.dataset, spec)?,
        };
        (
            answer.values.clone(),
            answer.epsilon_spent,
            answer.telemetry,
        )
    } else {
        // Multi-aggregate: §5.2 batch under the statement budget.
        let batch = runtime.run_batch_as(&stmt.dataset, principal, specs, epsilon)?;
        let values = batch.answers.iter().map(|a| a.values[0]).collect();
        let telemetry = batch.answers.into_iter().find_map(|a| a.telemetry);
        (values, batch.charged, telemetry)
    };

    Ok(SqlAnswer {
        columns: column_labels(stmt),
        rows: vec![SqlRow {
            group: Vec::new(),
            values,
            noisy_count: None,
        }],
        epsilon_spent,
        suppressed_groups: 0,
        statements_parsed: 1,
        statements_planned: 1,
        telemetry: telemetry.map(|t| stamp(t, 0)),
    })
}

fn run_grouped(
    runtime: &GuptRuntime,
    principal: Option<&str>,
    stmt: &Statement,
    ctx: &PlanContext,
    options: &SqlOptions,
    epsilon: Epsilon,
) -> Result<SqlAnswer, SqlError> {
    let snapshot = runtime.dataset_handle(&stmt.dataset)?.snapshot();
    let Groups { keys, tags } = classify_groups(snapshot.store(), stmt)?;
    if keys.is_empty() {
        // No row matches the predicate. The key *set* is enumerated
        // from raw rows, so returning an uncharged empty answer here
        // would be a noiseless membership oracle with free retries
        // (ask `WHERE c0 = v GROUP BY c1` until it stops being empty).
        // Charge the full statement budget through the same atomic
        // batch path as every other grouped release — a hidden
        // COUNT(*) whose value is discarded — so this case is
        // indistinguishable on cost and `epsilon_spent` from a
        // statement whose every group was suppressed.
        return run_empty_grouped(runtime, principal, stmt, ctx, options, epsilon);
    }

    // Reuse a selected COUNT as the frequency gate when there is one;
    // otherwise plan a hidden COUNT(*) per group — but only when the
    // rule is armed (min_count > 0), since the count costs budget.
    let count_index = stmt
        .aggregates
        .iter()
        .position(|a| a.func == AggFunc::Count);
    let needs_hidden_count = count_index.is_none() && options.min_count > 0.0;
    let specs_per_group = stmt.aggregates.len() + usize::from(needs_hidden_count);

    let mut specs = Vec::with_capacity(keys.len() * specs_per_group);
    for (g, key) in keys.iter().enumerate() {
        let filter = RowFilter {
            predicate: stmt.predicate.clone(),
            group_key: stmt
                .group_by
                .iter()
                .copied()
                .zip(key.iter().copied())
                .collect(),
        };
        let group = tags.as_ref().map(|tags| (tags.clone(), g as u16));
        specs.extend(compile_aggregates(
            stmt,
            &filter,
            group.as_ref(),
            ctx,
            options,
        )?);
        if needs_hidden_count {
            let count_agg = crate::ast::Aggregate {
                func: AggFunc::Count,
                column: None,
            };
            let plan = grouped_aggregate_spec(&count_agg, &filter, ctx, options.block_size, group)?;
            specs.push(finish_spec(plan.spec, options));
        }
    }

    let batch = runtime.run_batch_as(&stmt.dataset, principal, specs, epsilon)?;
    let epsilon_spent = batch.charged;
    let telemetry = batch.answers.iter().find_map(|a| a.telemetry.clone());

    let mut rows = Vec::with_capacity(keys.len());
    let mut suppressed_groups = 0u64;
    for (g, key) in keys.iter().enumerate() {
        let base = g * specs_per_group;
        let values: Vec<f64> = (0..stmt.aggregates.len())
            .map(|i| batch.answers[base + i].values[0])
            .collect();
        let noisy_count = match count_index {
            Some(i) => Some(values[i]),
            None if needs_hidden_count => {
                Some(batch.answers[base + stmt.aggregates.len()].values[0])
            }
            None => None,
        };
        // The minimum-frequency rule: suppress the whole group — key
        // and values — when its noisy count falls below the threshold.
        if options.min_count > 0.0 {
            let count = noisy_count.expect("gate armed implies a count");
            if count < options.min_count {
                suppressed_groups += 1;
                continue;
            }
        }
        rows.push(SqlRow {
            group: key.clone(),
            values,
            noisy_count,
        });
    }

    Ok(SqlAnswer {
        columns: column_labels(stmt),
        rows,
        epsilon_spent,
        suppressed_groups,
        statements_parsed: 1,
        statements_planned: 1,
        telemetry: telemetry.map(|t| stamp(t, suppressed_groups)),
    })
}

/// The empty-key-set arm of [`run_grouped`]: debits the full statement
/// budget via a hidden, discarded `COUNT(*)` so that "no matching
/// rows" costs exactly what "every group suppressed" costs.
fn run_empty_grouped(
    runtime: &GuptRuntime,
    principal: Option<&str>,
    stmt: &Statement,
    ctx: &PlanContext,
    options: &SqlOptions,
    epsilon: Epsilon,
) -> Result<SqlAnswer, SqlError> {
    let filter = RowFilter {
        predicate: stmt.predicate.clone(),
        group_key: Vec::new(),
    };
    let count_agg = crate::ast::Aggregate {
        func: AggFunc::Count,
        column: None,
    };
    let plan = aggregate_spec(&count_agg, &filter, ctx, options.block_size)?;
    let batch = runtime.run_batch_as(
        &stmt.dataset,
        principal,
        vec![finish_spec(plan.spec, options)],
        epsilon,
    )?;
    let telemetry = batch.answers.into_iter().find_map(|a| a.telemetry);
    Ok(SqlAnswer {
        columns: column_labels(stmt),
        rows: Vec::new(),
        epsilon_spent: batch.charged,
        suppressed_groups: 0,
        statements_parsed: 1,
        statements_planned: 1,
        telemetry: telemetry.map(|t| stamp(t, 0)),
    })
}

/// A grouped statement's keys, and each row's group.
struct Groups {
    /// The distinct key tuples of the rows the `WHERE` predicate
    /// passes, in ascending lexicographic `total_cmp` order (with `==`
    /// duplicates merged as a sort + dedup merges them).
    keys: Vec<Vec<f64>>,
    /// Each row tagged with the rank of the one key it matches, or
    /// [`NO_GROUP`]. `None` when two keys compare `==` — a `-0.0` and a
    /// `0.0` tuple the sort left apart — so that a row matches both and
    /// every sub-plan keeps its filter.
    tags: Option<RowTags>,
}

/// The tag of a row the `WHERE` predicate fails or no key matches.
const NO_GROUP: u16 = u16::MAX;

const _: () = assert!(
    MAX_GROUPS < NO_GROUP as usize,
    "ranks must fit below NO_GROUP"
);

/// The over-cap refusal. Deliberately generic: the true cardinality is
/// a raw, data-dependent statistic and must not ride out on an
/// uncharged error path.
fn too_many_groups() -> SqlError {
    SqlError::plan(format!(
        "GROUP BY exceeds the maximum of {MAX_GROUPS} groups"
    ))
}

/// Classifies the rows of `store` for a grouped statement: the distinct
/// key tuples of the rows the `WHERE` predicate passes, and each row's
/// key rank — two passes over the rows, neither allocating per row.
///
/// This is a *trusted planner* step — it reads raw rows of the
/// statement's snapshot, never releases them, and the key set it
/// produces is only published after the per-group noisy counts clear
/// the minimum-frequency gate. A row's tag is a function of that row
/// and of the key list the sub-plans already bake in as filters.
///
/// Pass 1 keeps each distinct key once per bit pattern, in `total_cmp`
/// order (rows whose key holds a NaN, which equals nothing, each keep
/// their own), and the key list is then sorted and deduplicated exactly
/// as before. Counting stops, and the generic over-cap error follows,
/// once more than [`MAX_GROUPS`] keys are certain. Pass 2 tags each row
/// with its key's rank, found by binary search.
fn classify_groups(store: &Arc<RowStore>, stmt: &Statement) -> Result<Groups, SqlError> {
    let cols = &stmt.group_by;
    let passes = |row: &[f64]| stmt.predicate.as_ref().is_none_or(|p| p.matches(row));
    // Where the key of `row` is among the sorted `patterns`.
    let find = |patterns: &[Box<[f64]>], row: &[f64]| {
        patterns.binary_search_by(|key| {
            key.iter()
                .zip(cols)
                .map(|(k, &c)| k.total_cmp(&row[c]))
                .find(|o| o.is_ne())
                .unwrap_or(Ordering::Equal)
        })
    };

    // Pass 1: the distinct non-NaN key patterns, and a key per NaN row.
    let mut patterns: Vec<Box<[f64]>> = Vec::new();
    let mut nan_keys: Vec<Vec<f64>> = Vec::new();
    for row in store.iter_rows() {
        if !passes(row) {
            continue;
        }
        if cols.iter().any(|&c| row[c].is_nan()) {
            nan_keys.push(cols.iter().map(|&c| row[c]).collect());
        } else if let Err(at) = find(&patterns, row) {
            patterns.insert(at, cols.iter().map(|&c| row[c]).collect());
        } else {
            continue;
        }
        // The dedup merges neighbours that compare `==` (a `-0.0` beside
        // a `0.0`), so the patterns less such pairs are a lower bound on
        // the key count: the loop never stops while the keys fit.
        let merged = patterns.windows(2).filter(|w| w[0] == w[1]).count();
        if patterns.len() - merged + nan_keys.len() > MAX_GROUPS {
            return Err(too_many_groups());
        }
    }

    let mut keys: Vec<Vec<f64>> = patterns
        .iter()
        .map(|p| p.to_vec())
        .chain(nan_keys)
        .collect();
    keys.sort_by(|a, b| total_cmp_keys(a, b));
    keys.dedup();
    if keys.len() > MAX_GROUPS {
        return Err(too_many_groups());
    }

    // A key matches a row when their values compare `==`, as the
    // sub-plans' filters test it. A tag names one key, so when two keys
    // compare `==` (zeros the sort left apart) rows stay untagged.
    let mut classes: Vec<Vec<f64>> = keys
        .iter()
        .filter(|key| !key.iter().any(|v| v.is_nan()))
        .map(|key| {
            key.iter()
                .map(|&v| if v == 0.0 { 0.0 } else { v })
                .collect()
        })
        .collect();
    classes.sort_by(|a, b| total_cmp_keys(a, b));
    if classes.windows(2).any(|w| w[0] == w[1]) {
        return Ok(Groups { keys, tags: None });
    }

    // Each pattern's rank: its own key's, or, when the dedup merged it,
    // that of the pattern before it.
    let mut ranks: Vec<u16> = Vec::with_capacity(patterns.len());
    for (i, pattern) in patterns.iter().enumerate() {
        let rank = match keys.binary_search_by(|key| total_cmp_keys(key, pattern)) {
            Ok(rank) => rank as u16,
            Err(_) => ranks[i - 1],
        };
        ranks.push(rank);
    }

    // Pass 2: each row's rank.
    let tags = RowTags::classify(store, |row| {
        if !passes(row) {
            return NO_GROUP;
        }
        find(&patterns, row).map_or(NO_GROUP, |i| ranks[i])
    });
    Ok(Groups {
        keys,
        tags: Some(tags),
    })
}

/// Lexicographic `total_cmp` order on key tuples.
fn total_cmp_keys(a: &[f64], b: &[f64]) -> Ordering {
    a.iter()
        .zip(b)
        .map(|(x, y)| x.total_cmp(y))
        .find(|o| o.is_ne())
        .unwrap_or(Ordering::Equal)
}

#[cfg(test)]
mod tests {
    use super::*;
    use gupt_core::{BlockView, GuptRuntimeBuilder};
    use gupt_dp::OutputRange;

    fn eps(v: f64) -> Epsilon {
        Epsilon::new(v).unwrap()
    }

    /// 2000 rows: c0 = value 0..50, c1 = group 0..4, c2 = rare flag.
    fn runtime(seed: u64) -> GuptRuntime {
        let rows: Vec<Vec<f64>> = (0..2000)
            .map(|i| {
                vec![
                    (i % 50) as f64,
                    (i % 4) as f64,
                    if i == 0 { 1.0 } else { 0.0 },
                ]
            })
            .collect();
        GuptRuntimeBuilder::new()
            .register_dataset("t", rows, eps(1000.0))
            .unwrap()
            .seed(seed)
            .build()
    }

    fn options() -> SqlOptions {
        SqlOptions {
            column_ranges: vec![
                OutputRange::new(0.0, 49.0).unwrap(),
                OutputRange::new(0.0, 3.0).unwrap(),
                OutputRange::new(0.0, 1.0).unwrap(),
            ],
            ..SqlOptions::default()
        }
    }

    #[test]
    fn count_star_is_close_to_n() {
        let rt = runtime(7);
        let ans = rt.sql("SELECT COUNT(*) FROM t", &options()).unwrap();
        assert_eq!(ans.columns, vec!["COUNT(*)"]);
        assert_eq!(ans.rows.len(), 1);
        // Laplace scale here is width/(ℓ·ε) ≈ 2000/21 ≈ 95; stay well
        // clear of seed luck.
        assert!(
            (ans.rows[0].values[0] - 2000.0).abs() < 600.0,
            "count = {}",
            ans.rows[0].values[0]
        );
        assert_eq!(ans.epsilon_spent, 1.0);
        assert_eq!((ans.statements_parsed, ans.statements_planned), (1, 1));
    }

    #[test]
    fn avg_with_where_filters_rows() {
        let rt = runtime(8);
        // Rows with c0 < 10 have mean c0 = 4.5.
        let ans = rt
            .sql("SELECT AVG(c0) FROM t WHERE c0 < 10", &options())
            .unwrap();
        assert!(
            (ans.rows[0].values[0] - 4.5).abs() < 5.0,
            "avg = {}",
            ans.rows[0].values[0]
        );
    }

    #[test]
    fn with_epsilon_clause_overrides_the_option() {
        let rt = runtime(9);
        let ans = rt
            .sql("SELECT COUNT(*) FROM t WITH EPSILON 0.25", &options())
            .unwrap();
        assert_eq!(ans.epsilon_spent, 0.25);
    }

    #[test]
    fn multi_aggregate_uses_one_atomic_batch_charge() {
        let rt = runtime(10);
        let before = rt.remaining_budget("t").unwrap();
        let ans = rt
            .sql(
                "SELECT COUNT(*), AVG(c0), SUM(c0) FROM t WITH EPSILON 2",
                &options(),
            )
            .unwrap();
        assert_eq!(ans.rows[0].values.len(), 3);
        let spent = before - rt.remaining_budget("t").unwrap();
        assert!((spent - 2.0).abs() < 1e-9, "spent {spent}");
        assert!((ans.epsilon_spent - 2.0).abs() < 1e-9);
    }

    #[test]
    fn group_by_releases_each_group_through_the_default_gate() {
        let rt = runtime(11);
        // Default options arm the gate at DEFAULT_MIN_COUNT, so a
        // hidden COUNT(*) rides along per group; every group holds 500
        // rows, hundreds of noise scales above the threshold.
        let ans = rt
            .sql(
                "SELECT AVG(c0) FROM t GROUP BY c1 WITH EPSILON 4",
                &options(),
            )
            .unwrap();
        assert_eq!(ans.columns, vec!["c1", "AVG(c0)"]);
        assert_eq!(ans.rows.len(), 4);
        // Keys ascend.
        let keys: Vec<f64> = ans.rows.iter().map(|r| r.group[0]).collect();
        assert_eq!(keys, vec![0.0, 1.0, 2.0, 3.0]);
        for row in &ans.rows {
            let gate = row.noisy_count.expect("gate armed by default");
            assert!(gate >= DEFAULT_MIN_COUNT);
        }
        assert_eq!(ans.suppressed_groups, 0);
        // The reported ε is the one debit, not a float sum of shares.
        assert_eq!(ans.epsilon_spent, 4.0);
    }

    #[test]
    fn trusted_options_disarm_the_gate() {
        let rt = runtime(11);
        let opts = SqlOptions {
            column_ranges: options().column_ranges,
            ..SqlOptions::trusted()
        };
        let ans = rt
            .sql("SELECT AVG(c0) FROM t GROUP BY c1 WITH EPSILON 4", &opts)
            .unwrap();
        assert_eq!(ans.rows.len(), 4);
        // Trusted mode: no gate, no hidden count, raw key set.
        assert!(ans.rows[0].noisy_count.is_none());
        assert_eq!(ans.suppressed_groups, 0);
    }

    #[test]
    fn min_frequency_rule_suppresses_rare_groups() {
        let rt = runtime(12);
        // c2 = 1 holds exactly one row, c2 = 0 the other 1999. The gate
        // count's noise scale is ≈24 here, so a threshold of 500 sits
        // hundreds of scales from both true counts — the rare group is
        // suppressed and the common group released for any seed.
        let opts = SqlOptions {
            min_count: 500.0,
            ..options()
        };
        let ans = rt
            .sql("SELECT AVG(c0) FROM t GROUP BY c2 WITH EPSILON 8", &opts)
            .unwrap();
        assert_eq!(ans.suppressed_groups, 1);
        assert_eq!(ans.rows.len(), 1);
        assert_eq!(ans.rows[0].group, vec![0.0]);
        // The surviving group's gate count is noisy and present.
        assert!(ans.rows[0].noisy_count.is_some());
    }

    #[test]
    fn selected_count_doubles_as_the_gate() {
        let rt = runtime(13);
        let opts = SqlOptions {
            min_count: 5.0,
            ..options()
        };
        let ans = rt
            .sql(
                "SELECT COUNT(*), AVG(c0) FROM t GROUP BY c1 WITH EPSILON 8",
                &opts,
            )
            .unwrap();
        for row in &ans.rows {
            // noisy_count is the released COUNT value, not a second run.
            assert_eq!(row.noisy_count, Some(row.values[0]));
            assert!(row.values[0] >= 5.0);
        }
    }

    #[test]
    fn group_by_with_no_matching_rows_still_charges_the_statement() {
        let rt = runtime(14);
        let before = rt.remaining_budget("t").unwrap();
        let ans = rt
            .sql(
                "SELECT COUNT(*) FROM t WHERE c0 > 1e6 GROUP BY c1",
                &options(),
            )
            .unwrap();
        assert!(ans.rows.is_empty());
        assert_eq!(ans.suppressed_groups, 0);
        // A free empty answer would be a noiseless membership oracle:
        // the full statement budget (options default ε = 1) is debited
        // even though nothing was released.
        assert!((ans.epsilon_spent - 1.0).abs() < 1e-9);
        let spent = before - rt.remaining_budget("t").unwrap();
        assert!((spent - 1.0).abs() < 1e-9, "spent {spent}");
    }

    #[test]
    fn empty_and_all_suppressed_charge_identically() {
        // "No matching rows" and "every group suppressed" must be
        // indistinguishable on cost: same epsilon_spent, same debit.
        let empty_rt = runtime(20);
        let empty = empty_rt
            .sql(
                "SELECT COUNT(*) FROM t WHERE c0 > 1e6 GROUP BY c1 WITH EPSILON 2",
                &options(),
            )
            .unwrap();
        let gated_rt = runtime(20);
        let suppressed = gated_rt
            .sql(
                "SELECT COUNT(*) FROM t GROUP BY c1 WITH EPSILON 2",
                &SqlOptions {
                    min_count: 1e9,
                    ..options()
                },
            )
            .unwrap();
        assert!(empty.rows.is_empty());
        assert!(suppressed.rows.is_empty());
        assert_eq!(empty.epsilon_spent, suppressed.epsilon_spent);
        assert!((empty.epsilon_spent - 2.0).abs() < 1e-9);
        assert_eq!(
            empty_rt.remaining_budget("t").unwrap(),
            gated_rt.remaining_budget("t").unwrap()
        );
    }

    #[test]
    fn over_cardinality_error_does_not_leak_the_true_count() {
        // A dedicated runtime where every row is its own group: 1500
        // distinct keys, comfortably past the MAX_GROUPS cap of 1000.
        let rows: Vec<Vec<f64>> = (0..1500).map(|i| vec![i as f64]).collect();
        let rt = GuptRuntimeBuilder::new()
            .register_dataset("wide", rows, eps(1000.0))
            .unwrap()
            .seed(21)
            .build();
        let opts = SqlOptions {
            column_ranges: vec![OutputRange::new(0.0, 1499.0).unwrap()],
            ..SqlOptions::default()
        };
        let err = rt
            .sql("SELECT COUNT(*) FROM wide GROUP BY c0", &opts)
            .unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains("exceeds the maximum"), "{msg}");
        // The true cardinality (1500) must not appear anywhere in the
        // message — only the fixed, public cap may.
        assert!(!msg.contains("1500"), "leaked true cardinality: {msg}");
    }

    #[test]
    fn gate_delta_quantifies_the_escape_probability() {
        // A threshold at or below one cannot reject a singleton.
        assert_eq!(gate_delta(0.0, 10.0), 1.0);
        assert_eq!(gate_delta(1.0, 10.0), 1.0);
        // The documented formula, and exponential decay in min_count.
        let d5 = gate_delta(5.0, 10.0);
        assert!((d5 - 0.5 * (-0.4f64).exp()).abs() < 1e-12);
        assert!(gate_delta(50.0, 10.0) < d5);
        assert!(gate_delta(50.0, 10.0) < 1e-2);
        // Degenerate scales fail safe.
        assert_eq!(gate_delta(5.0, 0.0), 0.0);
        assert_eq!(gate_delta(f64::NAN, 10.0), 1.0);
        assert_eq!(gate_delta(5.0, f64::NAN), 1.0);
    }

    #[test]
    fn telemetry_carries_stamped_sql_counters() {
        let rt = runtime(15);
        let opts = SqlOptions {
            collect_telemetry: true,
            min_count: 500.0,
            ..options()
        };
        let ans = rt
            .sql("SELECT AVG(c0) FROM t GROUP BY c2 WITH EPSILON 8", &opts)
            .unwrap();
        let report = ans.telemetry.expect("telemetry requested");
        assert_eq!(report.sql.statements_parsed, 1);
        assert_eq!(report.sql.statements_planned, 1);
        assert_eq!(report.sql.suppressed_groups, ans.suppressed_groups);
        assert!(report.sql.suppressed_groups >= 1);
        assert!(report.to_json().contains("\"sql\":"));
    }

    #[test]
    fn unknown_dataset_is_a_runtime_error() {
        let rt = runtime(16);
        let err = rt.sql("SELECT COUNT(*) FROM nope", &options()).unwrap_err();
        assert!(matches!(err, SqlError::Runtime(_)));
    }

    #[test]
    fn syntax_error_is_a_parse_error() {
        let rt = runtime(17);
        let err = rt.sql("SELEC COUNT(*) FROM t", &options()).unwrap_err();
        assert!(matches!(err, SqlError::Parse { .. }));
    }

    #[test]
    fn missing_range_is_a_plan_error() {
        let rt = runtime(18);
        let opts = SqlOptions::default(); // no ranges at all
        let err = rt.sql("SELECT AVG(c0) FROM t", &opts).unwrap_err();
        assert!(matches!(err, SqlError::Plan { .. }));
    }

    #[test]
    fn zero_epsilon_is_a_plan_error() {
        let rt = runtime(19);
        let err = rt
            .sql("SELECT COUNT(*) FROM t WITH EPSILON 0", &options())
            .unwrap_err();
        assert!(matches!(err, SqlError::Plan { .. }));
    }

    /// The sort + dedup that enumerated group keys before rows were
    /// classified: the oracle for [`classify_groups`]' key list.
    fn oracle_keys(store: &RowStore, stmt: &Statement) -> Vec<Vec<f64>> {
        let mut keys: Vec<Vec<f64>> = Vec::new();
        for row in store.iter_rows() {
            if let Some(pred) = &stmt.predicate {
                if !pred.matches(row) {
                    continue;
                }
            }
            keys.push(stmt.group_by.iter().map(|&c| row[c]).collect());
        }
        keys.sort_by(|a, b| {
            a.iter()
                .zip(b.iter())
                .map(|(x, y)| x.total_cmp(y))
                .find(|o| o.is_ne())
                .unwrap_or(std::cmp::Ordering::Equal)
        });
        keys.dedup();
        keys
    }

    fn key_bits(keys: &[Vec<f64>]) -> Vec<Vec<u64>> {
        keys.iter()
            .map(|k| k.iter().map(|v| v.to_bits()).collect())
            .collect()
    }

    /// Classifies `rows` for `sql` and checks it against the oracle: the
    /// same key list bit for bit and, when rows are tagged, each key's
    /// rows exactly the rows its filter matches. Returns the keys and
    /// whether rows were tagged.
    fn classify_checked(rows: &[Vec<f64>], sql: &str) -> Result<(Vec<Vec<f64>>, bool), SqlError> {
        let store = Arc::new(RowStore::from_rows(rows));
        let stmt = parse(sql).unwrap();
        let Groups { keys, tags } = classify_groups(&store, &stmt)?;
        assert_eq!(
            key_bits(&keys),
            key_bits(&oracle_keys(&store, &stmt)),
            "{sql}"
        );
        let filter = |key: &[f64]| RowFilter {
            predicate: stmt.predicate.clone(),
            group_key: stmt
                .group_by
                .iter()
                .copied()
                .zip(key.iter().copied())
                .collect(),
        };
        match &tags {
            Some(tags) => {
                let full = BlockView::full(Arc::clone(&store));
                let bits = |row: &[f64]| -> Vec<u64> { row.iter().map(|v| v.to_bits()).collect() };
                for (g, key) in keys.iter().enumerate() {
                    let tagged: Vec<Vec<u64>> = full
                        .rows_tagged(tags, g as u16)
                        .unwrap()
                        .map(bits)
                        .collect();
                    let filter = filter(key);
                    let matched: Vec<Vec<u64>> = store
                        .iter_rows()
                        .filter(|r| filter.matches(r))
                        .map(bits)
                        .collect();
                    assert_eq!(tagged, matched, "{sql}: key {key:?}");
                }
            }
            None => {
                // Untagged only when some row matches two keys.
                assert!(store
                    .iter_rows()
                    .any(|row| { keys.iter().filter(|key| filter(key).matches(row)).count() > 1 }));
            }
        }
        Ok((keys, tags.is_some()))
    }

    fn seeded_rows(n: usize, seed: u64, row: impl Fn(u64) -> Vec<f64>) -> Vec<Vec<f64>> {
        let mut state = seed;
        (0..n)
            .map(|_| {
                state = mix(state);
                row(state)
            })
            .collect()
    }

    fn mix(mut z: u64) -> u64 {
        z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// A value from a small pool holding both zeros, a NaN and a few
    /// integers.
    fn pooled(h: u64) -> f64 {
        [0.0, -0.0, 1.0, -1.0, 2.0, f64::NAN, 7.5][(h % 7) as usize]
    }

    #[test]
    fn classification_matches_the_sort_dedup_oracle_with_signed_zeros() {
        for seed in 0..12 {
            let rows = seeded_rows(400, seed, |h| {
                vec![pooled(h), pooled(h >> 8), (h >> 16) as f64 % 50.0]
            });
            for sql in [
                "SELECT COUNT(*) FROM t GROUP BY c0",
                "SELECT COUNT(*) FROM t GROUP BY c1, c0",
                "SELECT COUNT(*) FROM t WHERE c2 < 25 GROUP BY c0, c1",
                "SELECT COUNT(*) FROM t WHERE c0 >= 0 GROUP BY c0",
            ] {
                classify_checked(&rows, sql).unwrap();
            }
        }
        // One column: the two zeros merge into the key the sort kept
        // first (-0.0), and every zero row is tagged with it.
        let rows = vec![vec![0.0], vec![-0.0], vec![3.0], vec![0.0]];
        let (keys, tagged) = classify_checked(&rows, "SELECT COUNT(*) FROM t GROUP BY c0").unwrap();
        assert_eq!(key_bits(&keys), key_bits(&[vec![-0.0], vec![3.0]]));
        assert!(tagged);
        // Two columns: (-0.0, 1) sorts between (-0.0, 0) and (0.0, 0),
        // so the dedup keeps both zero keys and rows stay untagged.
        let rows = vec![vec![-0.0, 0.0], vec![-0.0, 1.0], vec![0.0, 0.0]];
        let (keys, tagged) =
            classify_checked(&rows, "SELECT COUNT(*) FROM t GROUP BY c0, c1").unwrap();
        assert_eq!(keys.len(), 3);
        assert!(!tagged);
    }

    #[test]
    fn classification_of_a_table_the_where_filters_out_is_empty() {
        let rows = seeded_rows(300, 5, |h| vec![(h % 9) as f64, pooled(h >> 4)]);
        let (keys, _) =
            classify_checked(&rows, "SELECT COUNT(*) FROM t WHERE c0 > 100 GROUP BY c1").unwrap();
        assert!(keys.is_empty());
    }

    #[test]
    fn classification_stops_past_max_groups_with_the_generic_error() {
        let keyed = |distinct: usize| -> Vec<Vec<f64>> {
            (0..3 * distinct)
                .map(|i| vec![(i % distinct) as f64])
                .collect()
        };
        let sql = "SELECT COUNT(*) FROM t GROUP BY c0";
        let (keys, _) = classify_checked(&keyed(MAX_GROUPS), sql).unwrap();
        assert_eq!(keys.len(), MAX_GROUPS);
        // -0.0 beside 0.0 is one more bit pattern but not one more key,
        // whichever of the two is seen first.
        for at in [0, 3 * MAX_GROUPS] {
            let mut rows = keyed(MAX_GROUPS);
            rows.insert(at, vec![-0.0]);
            let (keys, _) = classify_checked(&rows, sql).unwrap();
            assert_eq!(keys.len(), MAX_GROUPS);
        }
        for rows in [keyed(MAX_GROUPS + 1), {
            let mut rows = keyed(MAX_GROUPS);
            rows.push(vec![f64::NAN]);
            rows
        }] {
            let store = Arc::new(RowStore::from_rows(&rows));
            let stmt = parse(sql).unwrap();
            assert_eq!(oracle_keys(&store, &stmt).len(), MAX_GROUPS + 1);
            let err = classify_groups(&store, &stmt).err().expect("over the cap");
            assert_eq!(err.to_string(), too_many_groups().to_string());
        }
    }

    #[test]
    fn sub_plans_tagged_before_an_append_fall_back_to_their_filter() {
        // Tags classified over the registered store; an append then gives
        // the batch a new store, so every member's blocks miss the tags
        // and must evaluate the filter — releasing what a handwritten
        // batch over the grown table releases.
        let stmt = parse("SELECT AVG(c0) FROM t WHERE c0 < 40 GROUP BY c1 WITH EPSILON 2").unwrap();
        let answer = |tagged: bool| -> Vec<u64> {
            let rt = runtime(23);
            let store = Arc::clone(rt.dataset_handle("t").unwrap().snapshot().store());
            let Groups { keys, tags } = classify_groups(&store, &stmt).unwrap();
            let tags = tags.expect("one key per row");
            rt.append_rows("t", &[vec![7.0, 2.0, 0.0], vec![9.0, 0.0, 0.0]])
                .unwrap();
            let ctx = PlanContext {
                dataset_size: rt.dataset_len("t").unwrap(),
                dataset_dimension: 3,
                column_ranges: options().column_ranges,
            };
            let specs = keys
                .iter()
                .enumerate()
                .map(|(g, key)| {
                    let filter = RowFilter {
                        predicate: stmt.predicate.clone(),
                        group_key: vec![(1, key[0])],
                    };
                    let group = tagged.then(|| (tags.clone(), g as u16));
                    grouped_aggregate_spec(&stmt.aggregates[0], &filter, &ctx, None, group)
                        .unwrap()
                        .spec
                })
                .collect();
            let batch = rt.run_batch("t", specs, eps(2.0)).unwrap();
            batch
                .answers
                .iter()
                .map(|a| a.values[0].to_bits())
                .collect()
        };
        assert_eq!(answer(true), answer(false));
    }
}
