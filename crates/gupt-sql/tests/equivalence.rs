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

use gupt_core::{BlockView, GuptRuntime, GuptRuntimeBuilder, QuerySpec, RangeEstimation};
use gupt_dp::{Epsilon, OutputRange};
use gupt_sql::{SqlOptions, SqlRuntime};

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
/// grouped statements compile to exactly the aggregate specs the
/// handwritten batches below replicate (no hidden gate counts). The
/// armed default is covered by
/// `gated_group_by_matches_handwritten_batch_with_hidden_counts`.
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
fn group_by_matches_handwritten_batch() {
    // The grouped path compiles one spec per (group, aggregate) and
    // submits them in ascending key order through run_batch. Replicate
    // that exactly: four per-group AVG specs in the same order, same
    // total budget — the §5.2 distributor and per-member RNG then see
    // identical inputs on both sides.
    let sql_rt = runtime();
    let hand_rt = runtime();

    let answer = sql_rt
        .sql(
            "SELECT AVG(c0) FROM t GROUP BY c1 WITH EPSILON 4",
            &options(),
        )
        .unwrap();

    let specs: Vec<QuerySpec> = (0..4)
        .map(|g| {
            let key = g as f64;
            handwritten_spec(
                "avg",
                0,
                move |row| row[1] == key,
                OutputRange::new(0.0, 49.0).unwrap(),
            )
        })
        .collect();
    let batch = hand_rt
        .run_batch("t", specs, Epsilon::new(4.0).unwrap())
        .unwrap();

    assert_eq!(answer.rows.len(), 4);
    for (g, row) in answer.rows.iter().enumerate() {
        assert_eq!(row.group, vec![g as f64]);
        assert_eq!(
            row.values, batch.answers[g].values,
            "group {g} diverged from the handwritten batch"
        );
    }
    assert_eq!(answer.epsilon_spent, batch.charged);
}

#[test]
fn gated_group_by_matches_handwritten_batch_with_hidden_counts() {
    // Under the armed default gate a statement without a selected
    // COUNT plans one hidden COUNT(*) per group, interleaved after
    // each group's aggregates. Replicate that batch shape by hand:
    // [AVG g0, COUNT g0, AVG g1, COUNT g1, …] under the same budget.
    let sql_rt = runtime();
    let hand_rt = runtime();

    let gated = SqlOptions {
        column_ranges: vec![
            OutputRange::new(0.0, 49.0).unwrap(),
            OutputRange::new(0.0, 3.0).unwrap(),
        ],
        ..SqlOptions::default()
    };
    assert!(gated.min_count > 0.0, "default options must arm the gate");
    let answer = sql_rt
        .sql("SELECT AVG(c0) FROM t GROUP BY c1 WITH EPSILON 4", &gated)
        .unwrap();

    let specs: Vec<QuerySpec> = (0..4)
        .flat_map(|g| {
            let key = g as f64;
            [
                handwritten_spec(
                    "avg",
                    0,
                    move |row| row[1] == key,
                    OutputRange::new(0.0, 49.0).unwrap(),
                ),
                handwritten_spec(
                    "count",
                    0,
                    move |row| row[1] == key,
                    OutputRange::new(0.0, N as f64).unwrap(),
                ),
            ]
        })
        .collect();
    let batch = hand_rt
        .run_batch("t", specs, Epsilon::new(4.0).unwrap())
        .unwrap();

    // Every group holds 500 rows — far above the floor of 5 — so all
    // four clear the gate and the released values (and gate counts)
    // must be bit-identical to the handwritten batch members.
    assert_eq!(answer.rows.len(), 4);
    for (g, row) in answer.rows.iter().enumerate() {
        assert_eq!(row.group, vec![g as f64]);
        assert_eq!(
            row.values,
            batch.answers[g * 2].values,
            "group {g} value diverged from the handwritten batch"
        );
        assert_eq!(
            row.noisy_count,
            Some(batch.answers[g * 2 + 1].values[0]),
            "group {g} gate count diverged from the handwritten batch"
        );
    }
    assert_eq!(answer.epsilon_spent, batch.charged);
}

#[test]
fn group_by_with_where_matches_handwritten_batch() {
    let sql_rt = runtime();
    let hand_rt = runtime();

    let answer = sql_rt
        .sql(
            "SELECT COUNT(*) FROM t WHERE c0 < 25 GROUP BY c1 WITH EPSILON 4",
            &options(),
        )
        .unwrap();

    let specs: Vec<QuerySpec> = (0..4)
        .map(|g| {
            let key = g as f64;
            handwritten_spec(
                "count",
                0,
                move |row| row[0] < 25.0 && row[1] == key,
                OutputRange::new(0.0, N as f64).unwrap(),
            )
        })
        .collect();
    let batch = hand_rt
        .run_batch("t", specs, Epsilon::new(4.0).unwrap())
        .unwrap();

    assert_eq!(answer.rows.len(), 4);
    for (g, row) in answer.rows.iter().enumerate() {
        assert_eq!(row.values, batch.answers[g].values);
    }
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

/// The acceptance property for the min-frequency rule: a suppressed
/// group must never appear in the released rows, under any seed.
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
            ..options()
        };
        let answer = rt
            .sql("SELECT COUNT(*) FROM t GROUP BY c1 WITH EPSILON 8", &opts)
            .unwrap();
        let released = answer.rows.len() as u64;
        assert_eq!(released + answer.suppressed_groups, 5, "seed {seed}");
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
