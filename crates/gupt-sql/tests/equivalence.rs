//! Seeded equivalence: a DP-SQL statement must release **bit-identical**
//! values to the handwritten `QuerySpec` pipeline it compiles to, at
//! the same seed and submission position — SQL is a compiler in front
//! of the chamber pipeline, not a second release path.
//!
//! Each case builds two identically-seeded runtimes over the same rows:
//! one answers SQL, the other runs a hand-rolled spec replicating the
//! documented block-estimator semantics. The per-query RNG keys on the
//! runtime seed and submission order, so equal block outputs, ranges
//! and ε must reproduce the exact same noise.

use gupt_core::{
    BlockView, GuptRuntime, GuptRuntimeBuilder, KeyPartition, QuerySpec, RangeEstimation,
};
use gupt_dp::{Epsilon, OutputRange};
use gupt_sql::{grouped_spec, PlanContext, SqlOptions, SqlRuntime};

const N: usize = 2000;
const SEED: u64 = 20260810;

/// c0 = value 0..50, c1 = group 0..4.
fn rows() -> Vec<Vec<f64>> {
    (0..N)
        .map(|i| vec![(i % 50) as f64, (i % 4) as f64])
        .collect()
}

fn runtime() -> GuptRuntime {
    GuptRuntimeBuilder::new()
        .register_dataset("t", rows(), Epsilon::new(1000.0).unwrap())
        .unwrap()
        .seed(SEED)
        .build()
}

/// Trusted options: the min-frequency gate is explicitly disarmed so
/// grouped statements compile to exactly the estimators the handwritten
/// partitioned specs below replicate (no hidden gate count). The armed
/// default is covered by
/// `gated_group_by_matches_handwritten_spec_with_a_hidden_count`.
fn options() -> SqlOptions {
    SqlOptions {
        column_ranges: vec![
            OutputRange::new(0.0, 49.0).unwrap(),
            OutputRange::new(0.0, 3.0).unwrap(),
        ],
        ..SqlOptions::trusted()
    }
}

/// Handwritten replica of the compiled block estimator: filter rows,
/// then emit the aggregate's per-block statistic with the documented
/// scale-up and empty-match fallback.
fn handwritten_spec(
    agg: &'static str,
    column: usize,
    filter: impl Fn(&[f64]) -> bool + Send + Sync + 'static,
    range: OutputRange,
) -> QuerySpec {
    let n = N as f64;
    let midpoint = range.midpoint();
    QuerySpec::builder()
        .view(move |block: &BlockView| {
            let m = block.len();
            let matched: Vec<f64> = block
                .iter()
                .filter(|row| filter(row))
                .map(|row| row[column])
                .collect();
            let k = matched.len();
            let value = match agg {
                "count" => k as f64 / m as f64 * n,
                "sum" => matched.iter().sum::<f64>() / m as f64 * n,
                "avg" => {
                    if k == 0 {
                        midpoint
                    } else {
                        matched.iter().sum::<f64>() / k as f64
                    }
                }
                "median" => {
                    if k == 0 {
                        midpoint
                    } else {
                        let mut sorted = matched.clone();
                        sorted.sort_by(f64::total_cmp);
                        if k % 2 == 1 {
                            sorted[k / 2]
                        } else {
                            (sorted[k / 2 - 1] + sorted[k / 2]) / 2.0
                        }
                    }
                }
                "variance" => {
                    if k == 0 {
                        midpoint
                    } else {
                        let mean = matched.iter().sum::<f64>() / k as f64;
                        matched.iter().map(|v| (v - mean).powi(2)).sum::<f64>() / k as f64
                    }
                }
                other => panic!("unknown aggregate {other}"),
            };
            vec![value]
        })
        .identity(format!("handwritten:{agg}:{column}"), 1)
        .epsilon(Epsilon::new(1.0).unwrap())
        .range_estimation(RangeEstimation::Tight(vec![range]))
        .build()
        .unwrap()
}

/// Runs one SQL statement and one handwritten spec on twin runtimes and
/// asserts bit-identical released values.
fn assert_equivalent(sql: &str, spec: QuerySpec) {
    let sql_rt = runtime();
    let hand_rt = runtime();
    let answer = sql_rt.sql(sql, &options()).unwrap();
    let expected = hand_rt.run("t", spec).unwrap();
    assert_eq!(
        answer.rows[0].values, expected.values,
        "SQL {sql:?} diverged from the handwritten spec"
    );
    assert_eq!(answer.epsilon_spent, expected.epsilon_spent);
}

#[test]
fn count_star_matches_handwritten() {
    assert_equivalent(
        "SELECT COUNT(*) FROM t",
        handwritten_spec(
            "count",
            0,
            |_| true,
            OutputRange::new(0.0, N as f64).unwrap(),
        ),
    );
}

#[test]
fn sum_matches_handwritten() {
    assert_equivalent(
        "SELECT SUM(c0) FROM t",
        handwritten_spec(
            "sum",
            0,
            |_| true,
            OutputRange::new(0.0, N as f64 * 49.0).unwrap(),
        ),
    );
}

#[test]
fn avg_matches_handwritten() {
    assert_equivalent(
        "SELECT AVG(c0) FROM t",
        handwritten_spec("avg", 0, |_| true, OutputRange::new(0.0, 49.0).unwrap()),
    );
}

#[test]
fn median_matches_handwritten() {
    assert_equivalent(
        "SELECT MEDIAN(c0) FROM t",
        handwritten_spec("median", 0, |_| true, OutputRange::new(0.0, 49.0).unwrap()),
    );
}

#[test]
fn variance_matches_handwritten() {
    assert_equivalent(
        "SELECT VARIANCE(c0) FROM t",
        handwritten_spec(
            "variance",
            0,
            |_| true,
            OutputRange::new(0.0, 49.0f64 * 49.0 / 4.0).unwrap(),
        ),
    );
}

#[test]
fn where_clause_matches_handwritten_filter() {
    assert_equivalent(
        "SELECT AVG(c0) FROM t WHERE c0 < 25",
        handwritten_spec(
            "avg",
            0,
            |row| row[0] < 25.0,
            OutputRange::new(0.0, 49.0).unwrap(),
        ),
    );
}

#[test]
fn compound_where_matches_handwritten_filter() {
    assert_equivalent(
        "SELECT COUNT(*) FROM t WHERE c0 >= 10 AND NOT c1 = 2",
        handwritten_spec(
            "count",
            0,
            |row| row[0] >= 10.0 && row[1] != 2.0,
            OutputRange::new(0.0, N as f64).unwrap(),
        ),
    );
}

#[test]
fn where_with_or_matches_handwritten_filter() {
    assert_equivalent(
        "SELECT SUM(c0) FROM t WHERE c0 < 5 OR c1 = 3",
        handwritten_spec(
            "sum",
            0,
            |row| row[0] < 5.0 || row[1] == 3.0,
            OutputRange::new(0.0, N as f64 * 49.0).unwrap(),
        ),
    );
}

#[test]
fn multi_aggregate_matches_handwritten_batch() {
    let sql_rt = runtime();
    let hand_rt = runtime();

    let answer = sql_rt
        .sql("SELECT COUNT(*), AVG(c0) FROM t WITH EPSILON 2", &options())
        .unwrap();

    let specs = vec![
        handwritten_spec(
            "count",
            0,
            |_| true,
            OutputRange::new(0.0, N as f64).unwrap(),
        ),
        handwritten_spec("avg", 0, |_| true, OutputRange::new(0.0, 49.0).unwrap()),
    ];
    let batch = hand_rt
        .run_batch("t", specs, Epsilon::new(2.0).unwrap())
        .unwrap();

    assert_eq!(
        answer.rows[0].values,
        vec![batch.answers[0].values[0], batch.answers[1].values[0]]
    );
}

/// Handwritten replica of a compiled grouped statement: one partitioned
/// spec on column 1 over `keys`, whose per-key program emits each
/// `(aggregate, column, range)` estimate over the key's rows of a block
/// that pass `filter`, scaled by the whole block's length.
fn handwritten_partitioned(
    aggregates: Vec<(&'static str, usize, OutputRange)>,
    filter: impl Fn(&[f64]) -> bool + Send + Sync + 'static,
    keys: Vec<f64>,
    epsilon: f64,
) -> QuerySpec {
    let n = N as f64;
    let ranges: Vec<OutputRange> = aggregates.iter().map(|a| a.2).collect();
    QuerySpec::builder()
        .view_with_dim(aggregates.len(), move |rows: &BlockView| {
            let m = rows.block_len() as f64;
            aggregates
                .iter()
                .map(|&(agg, column, range)| {
                    let matched: Vec<f64> = rows
                        .iter()
                        .filter(|row| filter(row))
                        .map(|row| row[column])
                        .collect();
                    let k = matched.len();
                    match agg {
                        "count" => k as f64 / m * n,
                        "sum" => matched.iter().sum::<f64>() / m * n,
                        "avg" if k == 0 => range.midpoint(),
                        "avg" => matched.iter().sum::<f64>() / k as f64,
                        other => panic!("unknown aggregate {other}"),
                    }
                })
                .collect()
        })
        .identity("handwritten:partitioned", 1)
        .epsilon(Epsilon::new(epsilon).unwrap())
        .range_estimation(RangeEstimation::Tight(ranges))
        .partitioned(KeyPartition::new(vec![1], keys).unwrap())
        .build()
        .unwrap()
}

fn avg_range() -> OutputRange {
    OutputRange::new(0.0, 49.0).unwrap()
}

fn count_range() -> OutputRange {
    OutputRange::new(0.0, N as f64).unwrap()
}

/// Runs a grouped statement and its handwritten partitioned spec on
/// twin runtimes: the released rows must hold, key by key, the spec's
/// values bit for bit (the first `selected` of each key's outputs, and
/// the gate count at `gate` when there is one), at the same ε.
fn assert_grouped_equivalent(
    sql: &str,
    options: &SqlOptions,
    spec: QuerySpec,
    selected: usize,
    gate: Option<usize>,
) {
    let answer = runtime().sql(sql, options).unwrap();
    let expected = runtime().run("t", spec).unwrap();
    let per_key = expected.values.len() / 4;
    assert_eq!(answer.rows.len(), 4, "every group holds 500 rows");
    for (g, row) in answer.rows.iter().enumerate() {
        let values = &expected.values[g * per_key..(g + 1) * per_key];
        assert_eq!(row.group, vec![g as f64]);
        assert_eq!(row.values, values[..selected], "{sql}: group {g}");
        assert_eq!(row.noisy_count, gate.map(|i| values[i]), "{sql}: group {g}");
    }
    assert_eq!(answer.epsilon_spent, expected.epsilon_spent);
}

#[test]
fn group_by_matches_handwritten_partitioned_spec() {
    assert_grouped_equivalent(
        "SELECT AVG(c0) FROM t GROUP BY c1 WITH EPSILON 4",
        &options(),
        handwritten_partitioned(
            vec![("avg", 0, avg_range())],
            |_| true,
            vec![0.0, 1.0, 2.0, 3.0],
            4.0,
        ),
        1,
        None,
    );
}

#[test]
fn gated_group_by_matches_handwritten_spec_with_a_hidden_count() {
    // Under the armed default gate a statement without a selected COUNT
    // appends a hidden COUNT(*) to each key's estimators.
    let gated = SqlOptions {
        column_ranges: options().column_ranges,
        ..SqlOptions::default()
    };
    assert!(gated.min_count > 0.0, "default options must arm the gate");
    assert_grouped_equivalent(
        "SELECT AVG(c0) FROM t GROUP BY c1 WITH EPSILON 4",
        &gated,
        handwritten_partitioned(
            vec![("avg", 0, avg_range()), ("count", 0, count_range())],
            |_| true,
            vec![0.0, 1.0, 2.0, 3.0],
            4.0,
        ),
        1,
        Some(1),
    );
}

#[test]
fn group_by_with_where_matches_handwritten_partitioned_spec() {
    assert_grouped_equivalent(
        "SELECT COUNT(*) FROM t WHERE c0 < 25 GROUP BY c1 WITH EPSILON 4",
        &options(),
        handwritten_partitioned(
            vec![("count", 0, count_range())],
            |row| row[0] < 25.0,
            vec![0.0, 1.0, 2.0, 3.0],
            4.0,
        ),
        1,
        Some(0),
    );
}

#[test]
fn multi_aggregate_group_by_matches_handwritten_partitioned_spec() {
    // A selected COUNT doubles as the gate: no hidden estimator. At
    // ε = 12 over 2·3 dimensions the count's noise scale is ≈48, ten
    // scales below each group's 500 rows, so every group is released.
    let gated = SqlOptions {
        column_ranges: options().column_ranges,
        ..SqlOptions::default()
    };
    assert_grouped_equivalent(
        "SELECT SUM(c0), COUNT(*), AVG(c0) FROM t GROUP BY c1 WITH EPSILON 12",
        &gated,
        handwritten_partitioned(
            vec![
                ("sum", 0, OutputRange::new(0.0, N as f64 * 49.0).unwrap()),
                ("count", 0, count_range()),
                ("avg", 0, avg_range()),
            ],
            |_| true,
            vec![0.0, 1.0, 2.0, 3.0],
            12.0,
        ),
        3,
        Some(1),
    );
}

/// Neighbouring tables — `D`, and `D` plus one row holding a new key —
/// must see the same ε charged and the same per-dimension noise scale:
/// no key's noise depends on how many keys the rows hold.
#[test]
fn a_new_key_moves_neither_the_charge_nor_the_noise_scale() {
    let statement = "SELECT AVG(c0) FROM t GROUP BY c1 WITH EPSILON 2";
    // n = 1999 → 2000 keeps β = 96 and ℓ = 21, so AVG's noise may not move.
    let mut rows: Vec<Vec<f64>> = rows().into_iter().take(N - 1).collect();
    let mut seen = Vec::new();
    for neighbour in [false, true] {
        if neighbour {
            rows.push(vec![7.0, 9.0]);
        }
        let rt = GuptRuntimeBuilder::new()
            .register_dataset("t", rows.clone(), Epsilon::new(1000.0).unwrap())
            .unwrap()
            .seed(SEED)
            .build();
        let keys = (0..4)
            .map(f64::from)
            .chain(neighbour.then_some(9.0))
            .collect();
        let stmt = gupt_sql::parse(statement).unwrap();
        let ctx = PlanContext {
            dataset_size: rows.len(),
            dataset_dimension: 2,
            column_ranges: options().column_ranges,
        };
        let spec = grouped_spec(
            &stmt,
            &ctx,
            KeyPartition::new(vec![1], keys).unwrap(),
            None,
            false,
        )
        .unwrap()
        .epsilon(Epsilon::new(2.0).unwrap());
        let (plan, _) = rt.explain("t", &spec).unwrap();
        let answer = rt.sql(statement, &options()).unwrap();
        assert_eq!(answer.rows.len(), 4 + usize::from(neighbour));
        seen.push((
            plan.split.aggregation_per_dim.to_bits(),
            plan.noise_std_per_dim
                .iter()
                .map(|s| s.to_bits())
                .collect::<Vec<_>>(),
            answer.epsilon_spent.to_bits(),
        ));
    }
    assert_eq!(seen[0], seen[1]);
    assert_eq!(f64::from_bits(seen[0].0), 1.0, "ε = 2 over 2·1 dimensions");
}

/// The acceptance property for the min-frequency rule: a suppressed
/// group must never appear in the released rows, under any seed. The
/// number suppressed reaches only the operator's telemetry.
#[test]
fn suppressed_groups_are_never_emitted() {
    for seed in 0..20u64 {
        // One rare group (a single row with c1 shifted to 9).
        let mut data = rows();
        data[0][1] = 9.0;
        let rt = GuptRuntimeBuilder::new()
            .register_dataset("t", data, Epsilon::new(1000.0).unwrap())
            .unwrap()
            .seed(seed)
            .build();
        let opts = SqlOptions {
            min_count: 400.0,
            collect_telemetry: true,
            ..options()
        };
        let answer = rt
            .sql("SELECT COUNT(*) FROM t GROUP BY c1 WITH EPSILON 8", &opts)
            .unwrap();
        let released = answer.rows.len() as u64;
        let suppressed = answer.telemetry.as_ref().unwrap().sql.suppressed_groups;
        assert_eq!(released + suppressed, 5, "seed {seed}");
        for row in &answer.rows {
            let gate = row.noisy_count.expect("gate armed");
            assert!(
                gate >= 400.0,
                "seed {seed}: released group {:?} with gate count {gate} below the threshold",
                row.group
            );
            assert_ne!(row.group, vec![9.0], "seed {seed}: rare group released");
        }
    }
}
