//! Parallel execution determinism suite.
//!
//! The work-stealing chamber pool must be invisible in the answers: a
//! seeded query's `PrivateAnswer` is a pure function of (runtime seed,
//! admission sequence number), never of the pool width or of how the
//! OS interleaves workers. The engine guarantees this by splitting
//! per-chamber RNG streams from the query seed *before* fan-out and
//! reducing chamber reports in index order, so these tests demand
//! bit-for-bit equality — not approximate agreement — between
//! sequential execution and every parallel width, across resampling
//! factors, block sizes, aggregators, aged-data registrations, and the
//! service's principal-attributed batch path.
//!
//! CI runs this suite in `--release` as a race smoke: optimized timing
//! shakes out interleavings debug builds never hit.

use gupt::core::prelude::*;
use gupt::core::{partition as partition_blocks, Aggregator, WindowSpec};
use gupt::sandbox::{BlockProgram, KeyPartition, Scratch};
use proptest::prelude::*;
use rand::SeedableRng;
use std::sync::Arc;

const WIDTHS: [usize; 3] = [2, 4, 8];

fn eps(v: f64) -> Epsilon {
    Epsilon::new(v).unwrap()
}

fn rows(n: usize) -> Vec<Vec<f64>> {
    (0..n)
        .map(|i| vec![(i % 50) as f64, (i % 7) as f64])
        .collect()
}

fn mean_spec(gamma: usize, block: usize) -> QuerySpec {
    QuerySpec::program(|b: &[Vec<f64>]| {
        vec![b.iter().map(|r| r[0]).sum::<f64>() / b.len().max(1) as f64]
    })
    .epsilon(eps(0.5))
    .resampling(gamma)
    .fixed_block_size(block)
    .range_estimation(RangeEstimation::Tight(vec![
        OutputRange::new(0.0, 50.0).unwrap()
    ]))
}

/// Runs `spec` once on a fresh runtime built by `build` with the given
/// pool width and returns the answer as raw bits.
fn bits_at_width(
    build: &dyn Fn() -> GuptRuntimeBuilder,
    width: usize,
    spec: QuerySpec,
) -> Vec<u64> {
    let policy = if width == 1 {
        ExecutionPolicy::sequential()
    } else {
        ExecutionPolicy::parallel(width)
    };
    let runtime = build().execution(policy).build();
    let answer = runtime.run("t", spec).expect("query runs");
    answer.values.iter().map(|v| v.to_bits()).collect()
}

// Core property: for any (seed, γ, block size), every pool width
// replays the sequential answer bit for bit.
proptest! {
    #[test]
    fn seeded_answers_identical_across_pool_widths(
        seed in 0u64..1_000_000,
        gamma in 1usize..4,
        block_idx in 0usize..4,
    ) {
        let block = [20, 30, 50, 75][block_idx];
        let build = move || {
            GuptRuntimeBuilder::new()
                .register_dataset("t", rows(300), eps(1e6))
                .unwrap()
                .seed(seed)
        };
        let sequential = bits_at_width(&build, 1, mean_spec(gamma, block));
        for width in WIDTHS {
            let parallel = bits_at_width(&build, width, mean_spec(gamma, block));
            prop_assert_eq!(
                &sequential, &parallel,
                "width {} diverged (seed {}, gamma {}, block {})",
                width, seed, gamma, block
            );
        }
    }
}

/// Aged-data registrations (the §5.1 non-sensitive slice) and the
/// DP-median aggregator with loose ranges follow different code paths
/// through range resolution — the pool width must be invisible there
/// too.
#[test]
fn aged_data_and_median_paths_are_width_invariant() {
    for seed in [3u64, 17, 4242, 990_017] {
        let build = move || {
            let dataset = Dataset::new(rows(400))
                .unwrap()
                .with_aged_fraction(0.2)
                .unwrap();
            GuptRuntimeBuilder::new()
                .register("t", dataset, eps(1e6))
                .unwrap()
                .seed(seed)
        };
        let spec = || {
            QuerySpec::program(|b: &[Vec<f64>]| {
                vec![b.iter().map(|r| r[1]).sum::<f64>() / b.len().max(1) as f64]
            })
            .epsilon(eps(0.5))
            .resampling(2)
            .aggregator(Aggregator::DpMedian)
            .range_estimation(RangeEstimation::Loose(vec![
                OutputRange::new(0.0, 10.0).unwrap()
            ]))
        };
        let sequential = bits_at_width(&build, 1, spec());
        for width in WIDTHS {
            assert_eq!(
                sequential,
                bits_at_width(&build, width, spec()),
                "aged/median path diverged at width {width} (seed {seed})"
            );
        }
    }
}

/// The service's principal-attributed batch path: one atomic debit,
/// several member queries, worker caps applied by the admission layer —
/// and still bit-identical answers at every pool width.
#[test]
fn batch_as_principal_is_width_invariant() {
    let batch_bits = |width: usize| -> Vec<Vec<u64>> {
        let policy = if width == 1 {
            ExecutionPolicy::sequential()
        } else {
            ExecutionPolicy::parallel(width)
        };
        let registration = Dataset::new(rows(300))
            .unwrap()
            .builder()
            .budget(eps(1e6))
            .principal("alice", 100.0);
        let runtime = GuptRuntimeBuilder::new()
            .dataset("t", registration)
            .unwrap()
            .seed(71)
            .execution(policy)
            .build();
        // An ample worker budget so the admission cap never lowers the
        // width under test below the requested one.
        let service = QueryService::new(runtime, ServiceConfig::new(2, 16).worker_budget(64));
        // Member ε values are overridden by the batch's budget shares.
        let queries = (1..=3).map(|gamma| mean_spec(gamma, 30)).collect();
        let batch = service
            .run_batch_as("t", "alice", queries, eps(1.5))
            .expect("batch runs");
        batch
            .answers
            .iter()
            .map(|a| a.values.iter().map(|v| v.to_bits()).collect())
            .collect()
    };
    let sequential = batch_bits(1);
    for width in WIDTHS {
        assert_eq!(
            sequential,
            batch_bits(width),
            "batch answers diverged at width {width}"
        );
    }
}

/// A service worker cap rewrites the *policy*, not the answer: capping
/// an 8-wide query to a 1-worker budget must replay the uncapped bits.
#[test]
fn service_worker_cap_preserves_bits() {
    let run_with_budget = |budget: usize| -> Vec<u64> {
        let runtime = GuptRuntimeBuilder::new()
            .register_dataset("t", rows(300), eps(1e6))
            .unwrap()
            .seed(5)
            .execution(ExecutionPolicy::parallel(8))
            .build();
        let service = QueryService::new(runtime, ServiceConfig::new(2, 16).worker_budget(budget));
        let answer = service.run("t", mean_spec(2, 30)).expect("query runs");
        answer.values.iter().map(|v| v.to_bits()).collect()
    };
    assert_eq!(run_with_budget(64), run_with_budget(1));
}

fn policy(width: usize) -> ExecutionPolicy {
    if width == 1 {
        ExecutionPolicy::sequential()
    } else {
        ExecutionPolicy::parallel(width)
    }
}

/// A randomized block program: the block mean plus a jitter drawn from
/// the chamber's seed, so a seed split from the wrong block index or a
/// report landing in the wrong slot changes the answer.
struct JitteredMean;

impl BlockProgram for JitteredMean {
    fn run(&self, block: &BlockView, scratch: &mut Scratch) -> Vec<f64> {
        let jitter = scratch.seed().map_or(0.0, |s| (s % 1000) as f64 / 1000.0);
        vec![block.iter().map(|r| r[0]).sum::<f64>() / block.len().max(1) as f64 + jitter]
    }

    fn output_dimension(&self) -> usize {
        1
    }
}

fn jittered_spec(gamma: usize, range: RangeEstimation) -> QuerySpec {
    QuerySpec::builder()
        .program(Arc::new(JitteredMean))
        .identity("jittered-mean", 1)
        .epsilon(eps(0.5))
        .resampling(gamma)
        .range_estimation(range)
        .build()
        .unwrap()
}

/// Window polls draw their blocks over the window's row range while the
/// chambers already run: tumbling and sliding windows must replay the
/// sequential bits at every width.
#[test]
fn window_polls_are_width_invariant() {
    let window_bits = |seed: u64, width: usize| -> Vec<Vec<u64>> {
        let runtime = GuptRuntimeBuilder::new()
            .register_dataset("t", rows(1200), eps(1e6))
            .unwrap()
            .seed(seed)
            .execution(policy(width))
            .build();
        let loose = || RangeEstimation::Loose(vec![OutputRange::new(0.0, 51.0).unwrap()]);
        let tumbling = runtime
            .subscribe(
                "t",
                WindowSpec::tumbling(400).unwrap(),
                jittered_spec(1, loose()),
            )
            .unwrap();
        let sliding = runtime
            .subscribe(
                "t",
                WindowSpec::sliding(500, 250).unwrap(),
                jittered_spec(3, loose()),
            )
            .unwrap();
        let mut answers = Vec::new();
        for query in [&tumbling, &sliding] {
            while let Some(window) = runtime.poll_window(query).unwrap() {
                assert!(!window.replayed, "every window is fresh");
                answers.push(window.answer.values.iter().map(|v| v.to_bits()).collect());
            }
        }
        assert_eq!(
            answers.len(),
            3 + 3,
            "three tumbling and three sliding windows"
        );
        answers
    };
    for seed in [3u64, 29, 4242] {
        let sequential = window_bits(seed, 1);
        for width in [2, 8] {
            assert_eq!(
                sequential,
                window_bits(seed, width),
                "window answers diverged at width {width} (seed {seed})"
            );
        }
    }
}

/// A dataset with a group column draws a group-atomic plan in full and
/// publishes it at once: still bit-identical at every width.
#[test]
fn grouped_dataset_is_width_invariant() {
    let grouped_bits = |seed: u64, width: usize| -> Vec<u64> {
        let dataset = Dataset::new(rows(600))
            .unwrap()
            .with_group_column(1)
            .unwrap();
        let runtime = GuptRuntimeBuilder::new()
            .register("t", dataset, eps(1e6))
            .unwrap()
            .seed(seed)
            .execution(policy(width))
            .build();
        let tight = RangeEstimation::Tight(vec![OutputRange::new(0.0, 51.0).unwrap()]);
        let answer = runtime
            .run("t", jittered_spec(3, tight))
            .expect("query runs");
        assert!(answer.num_blocks > 8, "several blocks per round");
        answer.values.iter().map(|v| v.to_bits()).collect()
    };
    for seed in [3u64, 29, 4242] {
        let sequential = grouped_bits(seed, 1);
        for width in [2, 8] {
            assert_eq!(
                sequential,
                grouped_bits(seed, width),
                "grouped answer diverged at width {width} (seed {seed})"
            );
        }
    }
}

fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A seeded table for the DP-SQL statements: `c0` a value in
/// `[0, 100)`, `c1` one of 10 keys (key 0 stored as `0.0` on some rows
/// and `-0.0` on others), `c2` one of 100 keys, `c3` one of 3.
fn sql_rows(n: usize, seed: u64) -> Vec<Vec<f64>> {
    let mut state = seed;
    (0..n)
        .map(|_| {
            let h = splitmix(&mut state);
            let c1 = match (h >> 20) % 10 {
                0 if (h >> 40) & 1 == 1 => -0.0,
                k => k as f64,
            };
            vec![
                (h % 1000) as f64 / 10.0,
                c1,
                ((h >> 24) % 100) as f64,
                ((h >> 32) % 3) as f64,
            ]
        })
        .collect()
}

/// The statements the SQL suite pins, with whether they run trusted
/// (gate disarmed): 10 keys, 100 keys, a `WHERE`, a trusted statement,
/// a two-column key whose `±0.0` keys sort apart, and a
/// multi-aggregate ungrouped statement.
const SQL_STATEMENTS: [(&str, bool); 6] = [
    ("SELECT AVG(c0) FROM t GROUP BY c1 WITH EPSILON 1", false),
    (
        "SELECT COUNT(*), AVG(c0) FROM t GROUP BY c2 WITH EPSILON 1",
        false,
    ),
    (
        "SELECT SUM(c0), MEDIAN(c0) FROM t WHERE c0 > 20 AND c3 < 2 GROUP BY c1 WITH EPSILON 2",
        false,
    ),
    (
        "SELECT AVG(c0), VARIANCE(c0) FROM t GROUP BY c2 WITH EPSILON 1",
        true,
    ),
    (
        "SELECT COUNT(*), SUM(c0) FROM t GROUP BY c1, c3 WITH EPSILON 1",
        false,
    ),
    (
        "SELECT COUNT(*), AVG(c0), MEDIAN(c0), VARIANCE(c0) FROM t WHERE c2 < 50 WITH EPSILON 1",
        false,
    ),
];

/// FNV-1a over an answer's released rows: keys, values and gate counts
/// (not ε, which is reported, not drawn), then a zero word — where the
/// digests were first taken, answers ended with a suppressed-group
/// count, always zero for the ungrouped statement pinned since then.
fn sql_digest(answer: &gupt_sql::SqlAnswer) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    let mut word = |w: u64| {
        for b in w.to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    for row in &answer.rows {
        row.group.iter().for_each(|v| word(v.to_bits()));
        row.values.iter().for_each(|v| word(v.to_bits()));
        word(row.noisy_count.map_or(u64::MAX, f64::to_bits));
    }
    word(0);
    h
}

/// Where the ungrouped statement of [`SQL_STATEMENTS`] was submitted
/// when its digest was captured: after the grouped statements' 516
/// queries, one per (group, estimator). A grouped statement is now one
/// query, so [`sql_digests`] submits the difference as plain queries
/// first, and the statement draws the same query seed as it did then.
const UNGROUPED_POSITION: usize = 516;

/// Submits `count` one-block queries, each taking one query seed.
fn advance(runtime: &GuptRuntime, count: usize) {
    let n = runtime.dataset_len("t").unwrap();
    for _ in 0..count {
        let spec = QuerySpec::view_program(|_: &BlockView| vec![0.0])
            .fixed_block_size(n)
            .range_estimation(RangeEstimation::Tight(vec![
                OutputRange::new(0.0, 1.0).unwrap()
            ]));
        runtime.run("t", spec).expect("query runs");
    }
}

/// Runs every statement of [`SQL_STATEMENTS`] in order on one runtime
/// of pool width `width` and returns one digest per statement.
fn sql_digests(width: usize) -> Vec<u64> {
    use gupt_sql::{SqlOptions, SqlRuntime};
    let runtime = GuptRuntimeBuilder::new()
        .register_dataset("t", sql_rows(2000, 0x5A17), eps(1e6))
        .unwrap()
        .seed(1515)
        .execution(policy(width))
        .build();
    let ranges: Vec<OutputRange> = [(0.0, 100.0), (0.0, 9.0), (0.0, 99.0), (0.0, 2.0)]
        .iter()
        .map(|&(lo, hi)| OutputRange::new(lo, hi).unwrap())
        .collect();
    let grouped = SQL_STATEMENTS
        .iter()
        .filter(|(statement, _)| statement.contains("GROUP BY"))
        .count();
    SQL_STATEMENTS
        .iter()
        .map(|&(statement, trusted)| {
            if !statement.contains("GROUP BY") {
                advance(&runtime, UNGROUPED_POSITION - grouped);
            }
            let base = if trusted {
                SqlOptions::trusted()
            } else {
                SqlOptions::default()
            };
            let options = SqlOptions {
                column_ranges: ranges.clone(),
                ..base
            };
            let answer = runtime.sql(statement, &options).expect("statement runs");
            sql_digest(&answer)
        })
        .collect()
}

/// FNV digests of [`SQL_STATEMENTS`]' answers. The grouped ones were
/// captured when each grouped statement became one partitioned run; the
/// ungrouped one (last) is unchanged since it was first captured.
const GOLDEN_SQL: [u64; 6] = [
    0x6d82_803e_ae0c_c262,
    0x1466_6499_f660_02b8,
    0xdae5_d41c_cf2a_7c3b,
    0xcaf2_1c0d_6f60_3140,
    0xf033_baec_3407_ddc7,
    0x3d3e_cee6_4849_65df,
];

/// Grouped statements (10 and 100 keys, `WHERE`, gated and trusted, two
/// key columns with `±0.0` keys), each one partitioned run, and a
/// multi-aggregate ungrouped one, a batch in one dispatch: their
/// released rows must be bit-identical at every pool width and equal
/// the pinned digests.
#[test]
fn sql_statements_are_width_invariant_and_pinned() {
    for width in [1, 2, 8] {
        assert_eq!(sql_digests(width), GOLDEN_SQL, "width {width}");
    }
}

/// The two-column statement's keys hold `-0.0` and `0.0` apart in the
/// rows: routing the table, and every block of a plan over it, must
/// place each row in exactly one key's sub-view, the key its columns
/// compare `==` to.
#[test]
fn signed_zero_keys_route_every_row_exactly_once() {
    let (statement, _) = SQL_STATEMENTS[4];
    let columns = gupt_sql::parse(statement).unwrap().group_by;
    let rows = sql_rows(2000, 0x5A17);
    assert!(rows.iter().any(|r| r[1].to_bits() == (-0.0f64).to_bits()));
    assert!(rows.iter().any(|r| r[1].to_bits() == 0.0f64.to_bits()));
    let store = Arc::new(RowStore::from_rows(&rows));
    let partition = KeyPartition::scan(&store, columns.clone(), |_| true);
    assert_eq!(partition.len(), 30, "10 × 3 keys, the zeros merged");
    let plan = partition_blocks(2000, 96, 2, &mut rand::rngs::StdRng::seed_from_u64(7));
    let mut views = plan.views(&store);
    views.push(BlockView::full(Arc::clone(&store)));
    let matches = |row: &[f64], key: &[f64]| columns.iter().zip(key).all(|(&c, &k)| row[c] == k);
    for view in &views {
        let mut seen = 0;
        for (g, sub) in partition.route(view) {
            let key = partition.keys().nth(g).unwrap();
            for row in sub.iter() {
                assert!(matches(row, key), "row {row:?} routed to {key:?}");
                let keys = partition.keys().filter(|key| matches(row, key)).count();
                assert_eq!(keys, 1, "row {row:?} matches one key");
            }
            seen += sub.len();
        }
        assert_eq!(seen, view.len(), "every row routed once");
    }
}
