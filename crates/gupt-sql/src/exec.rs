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
//! - **`GROUP BY`** — one pass over the rows finds the sorted distinct
//!   keys of the rows `WHERE` passes ([`KeyPartition::scan`]), and the
//!   statement compiles to **one** partitioned spec over them
//!   ([`grouped_spec`]): one block plan over all `n` rows, one chamber
//!   per block that routes the block's rows to their keys and runs the
//!   per-key estimators on each key's rows, and one charge of the
//!   statement ε, split over `2k'` dimensions for `k'` estimators
//!   whatever the number of keys (see
//!   [`gupt_core::QuerySpec::budget_dimensions`]). Each key carries a
//!   noisy `COUNT` — a selected one, or a hidden `COUNT(*)` appended to
//!   the estimators — and keys whose *noisy* count falls below the
//!   minimum-frequency threshold are suppressed entirely: the DPSQL′
//!   rule (PAPERS.md). Releasing a rare key's row would leak membership
//!   even though each released number is DP, because the *set of
//!   released keys* is data-dependent.
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
//! executor never branches *observably* on that raw set. Every grouped
//! statement is the same single charged run, however many keys the
//! rows hold — none, a thousand or more — and no key's noise scale
//! depends on their number. The number of suppressed keys reaches only
//! the operator-facing [`SqlTelemetry`]; the analyst sees the released
//! rows alone.

use crate::ast::{AggFunc, Statement};
use crate::error::SqlError;
use crate::parser::parse;
use crate::plan::{aggregate_spec, grouped_spec, validate, PlanContext, RowFilter};
use gupt_core::{GuptRuntime, KeyPartition, QuerySpec, SqlTelemetry, TelemetryReport};
use gupt_dp::Epsilon;

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
    /// disarmed. `0` disables the rule (and skips the hidden `COUNT(*)`
    /// estimator when no `COUNT` was selected), which releases the raw,
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
    /// Total ε the statement was charged. A replay from the answer
    /// cache reports the charge of the answer it replays (0 for a batch
    /// whose every member replayed) and debits nothing.
    pub epsilon_spent: f64,
    /// Statements successfully parsed in this call (1).
    pub statements_parsed: u64,
    /// Statements successfully planned in this call (1).
    pub statements_planned: u64,
    /// Telemetry from the underlying run(s), with the `sql` object
    /// stamped, when requested via [`SqlOptions::collect_telemetry`].
    /// Its `sql.suppressed_groups` counts the keys the minimum-frequency
    /// rule withheld: an operator-facing figure, outside the DP
    /// guarantee, that never reaches the analyst's answer.
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
    ctx: &PlanContext,
    options: &SqlOptions,
) -> Result<Vec<QuerySpec>, SqlError> {
    stmt.aggregates
        .iter()
        .map(|agg| {
            let plan = aggregate_spec(agg, filter, ctx, options.block_size)?;
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
    let mut specs = compile_aggregates(stmt, &filter, ctx, options)?;

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
    // Pass 1, a trusted planner step: the sorted distinct keys of the
    // rows `WHERE` passes. They are released only through the charged
    // run below and, unless the caller is trusted, its frequency gate.
    let snapshot = runtime.dataset_handle(&stmt.dataset)?.snapshot();
    let partition = KeyPartition::scan(snapshot.store(), stmt.group_by.clone(), |row| {
        stmt.predicate.as_ref().is_none_or(|p| p.matches(row))
    });

    // Reuse a selected COUNT as the frequency gate when there is one;
    // otherwise estimate a hidden COUNT(*) per key — but only when the
    // rule is armed (min_count > 0), since its dimension costs budget.
    let selected = stmt.aggregates.len();
    let count_index = stmt
        .aggregates
        .iter()
        .position(|a| a.func == AggFunc::Count);
    let gated = options.min_count > 0.0;
    let hidden_count = count_index.is_none() && gated;
    let gate_index = count_index.or(hidden_count.then_some(selected));

    let spec = grouped_spec(
        stmt,
        ctx,
        partition.clone(),
        options.block_size,
        hidden_count,
    )?;
    let spec = finish_spec(spec, options).epsilon(epsilon);
    let per_key = spec.output_dimension();
    let answer = match principal {
        Some(p) => runtime.run_as(&stmt.dataset, p, spec)?,
        None => runtime.run(&stmt.dataset, spec)?,
    };

    let mut rows = Vec::new();
    let mut suppressed_groups = 0u64;
    for (key, values) in partition.keys().zip(answer.values.chunks_exact(per_key)) {
        let noisy_count = gate_index.map(|i| values[i]);
        // The minimum-frequency rule: suppress the whole group — key
        // and values — when its noisy count falls below the threshold.
        if gated && noisy_count.is_some_and(|count| count < options.min_count) {
            suppressed_groups += 1;
            continue;
        }
        rows.push(SqlRow {
            group: key.to_vec(),
            values: values[..selected].to_vec(),
            noisy_count,
        });
    }

    Ok(SqlAnswer {
        columns: column_labels(stmt),
        rows,
        epsilon_spent: answer.epsilon_spent,
        statements_parsed: 1,
        statements_planned: 1,
        telemetry: answer.telemetry.map(|t| stamp(t, suppressed_groups)),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use gupt_core::GuptRuntimeBuilder;
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

    /// The operator-facing count of suppressed groups, from the stamped
    /// telemetry of an answer run with `collect_telemetry`.
    fn suppressed(answer: &SqlAnswer) -> u64 {
        answer
            .telemetry
            .as_ref()
            .expect("telemetry requested")
            .sql
            .suppressed_groups
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
    }

    #[test]
    fn min_frequency_rule_suppresses_rare_groups() {
        let rt = runtime(12);
        // c2 = 1 holds exactly one row, c2 = 0 the other 1999. The gate
        // count's noise scale is ≈48 here (ε = 8 split over 2·2
        // dimensions, 21 blocks, width n = 2000), so a threshold of 500
        // sits ten scales from both true counts — the rare group is
        // suppressed and the common group released for any seed.
        let opts = SqlOptions {
            min_count: 500.0,
            collect_telemetry: true,
            ..options()
        };
        let ans = rt
            .sql("SELECT AVG(c0) FROM t GROUP BY c2 WITH EPSILON 8", &opts)
            .unwrap();
        assert_eq!(suppressed(&ans), 1);
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
    fn more_than_a_thousand_keys_charge_once_and_answer() {
        // Every row is its own group: 1500 keys, past the cap that once
        // refused such a statement before any charge. It is one run,
        // charged the statement ε like any other.
        let rows: Vec<Vec<f64>> = (0..1500).map(|i| vec![i as f64]).collect();
        let rt = GuptRuntimeBuilder::new()
            .register_dataset("wide", rows, eps(1000.0))
            .unwrap()
            .seed(21)
            .build();
        let opts = SqlOptions {
            column_ranges: vec![OutputRange::new(0.0, 1499.0).unwrap()],
            ..SqlOptions::trusted()
        };
        let ans = rt
            .sql("SELECT COUNT(*) FROM wide GROUP BY c0", &opts)
            .unwrap();
        assert_eq!(ans.rows.len(), 1500);
        assert_eq!(ans.epsilon_spent, 1.0);
        assert_eq!(rt.remaining_budget("wide").unwrap(), 999.0);
        assert_eq!(rt.queries_run("wide").unwrap(), 1);
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
        let report = ans.telemetry.as_ref().expect("telemetry requested");
        assert_eq!(report.sql.statements_parsed, 1);
        assert_eq!(report.sql.statements_planned, 1);
        // c2 holds two keys: every one is released or counted.
        assert_eq!(ans.rows.len() as u64 + report.sql.suppressed_groups, 2);
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
}
