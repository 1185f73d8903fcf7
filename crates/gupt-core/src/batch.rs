//! Multi-query batches with automatic budget distribution (§5.2).
//!
//! An analyst rarely asks one question. Given a *shared* budget ε and a
//! set of queries, GUPT allocates εᵢ = ζᵢ/Σζⱼ·ε where ζᵢ is query i's
//! Laplace-scale numerator (γᵢ·sᵢ/ℓᵢ), equalising the absolute noise
//! across queries — Example 4's average/variance pair gets a 1 : max
//! split instead of the wasteful 1 : 1.
//!
//! The batch is planned *before* anything is charged: block plans are
//! resolved per query, the noise profiles computed, the allocation
//! derived, and only then is the **whole** batch budget debited from the
//! dataset ledger in one atomic charge. The single charge is what makes
//! batches safe under the concurrent runtime: a racing query can land
//! before or after the batch, but never between two of its members, so
//! a batch either owns its full allocation or fails closed without
//! spending anything.
//!
//! After the charge, every member that missed the cache is prepared in
//! member order — each takes its query seed there, exactly as it would
//! running alone — and then all of them run in **one** chamber-pool
//! dispatch: any idle worker draws the next member's plan while the
//! others run the chambers of the members already drawn. Each member
//! resolves its ranges and draws its noise on its own RNG, and answers
//! are journaled to the cache in member order, so a batch's answers are
//! the ones its members would release one after another.
//!
//! On a dataset with a group column (§8.1) a member's group-atomic plan
//! is drawn in full while it is prepared, before the dispatch. There
//! the batch runs in windows: once a pool's width of members holds a
//! drawn plan, those members run and finish before the next one is
//! prepared, so a batch holds at most that many plans at once.

use crate::blocks::default_block_size;
use crate::budget_distribution::{distribute_budget, QueryNoiseProfile};
use crate::error::GuptError;
use crate::query::{BlockSizeSpec, QuerySpec};
use crate::runtime::{Admission, BlockSource, ChargeMode, GuptRuntime, Prepared, PrivateAnswer};
use gupt_dp::Epsilon;

/// The result of a batch run: per-query answers plus the allocation.
#[derive(Debug)]
pub struct BatchAnswer {
    /// Per-query private answers, in submission order.
    pub answers: Vec<PrivateAnswer>,
    /// The ε charged for each query. `0.0` marks a member served from
    /// the answer cache — its answer was already released, so it
    /// received no share of the batch budget.
    pub allocations: Vec<f64>,
    /// The one debit the ledger took for the batch: the total budget
    /// when every member missed the cache, the sum of the miss shares on
    /// a partial hit, and 0 when every member replayed. (The float sum
    /// of `allocations` can miss the debited total by a few ulps.)
    pub charged: f64,
}

impl GuptRuntime {
    /// Runs `queries` against `dataset`, splitting `total_budget` across
    /// them with the §5.2 noise-equalising rule.
    ///
    /// Each query must use `RangeEstimation::Tight` or
    /// `RangeEstimation::Loose` (their planning-time widths determine
    /// ζᵢ; `Helper` widths are resolvable too via the translator) and an
    /// explicit or defaulted block size. Accuracy-goal budgets are
    /// rejected — a goal already implies its own ε, so it cannot also
    /// receive a share of a common budget.
    ///
    /// The ledger sees the batch as **one** charge of `total_budget`,
    /// debited atomically after planning succeeds; if a later member
    /// then fails (e.g. an invalid spec), the budget stays spent —
    /// fail-closed, like any charged query.
    ///
    /// The members that miss the answer cache share one chamber-pool
    /// dispatch, scheduled by the narrowest execution policy any member
    /// carries ([`QuerySpec::execution`]: its thread count and its
    /// chunk size), or by the runtime's when none does. No answer
    /// depends on that choice: each member's blocks, chamber seeds and
    /// noise come from its own query seed.
    pub fn run_batch(
        &self,
        dataset: &str,
        queries: Vec<QuerySpec>,
        total_budget: Epsilon,
    ) -> Result<BatchAnswer, GuptError> {
        self.run_batch_as(dataset, None, queries, total_budget)
    }

    /// Like [`GuptRuntime::run_batch`], attributing the batch's single
    /// atomic debit to a registered principal's quota.
    pub fn run_batch_as(
        &self,
        dataset: &str,
        principal: Option<&str>,
        queries: Vec<QuerySpec>,
        total_budget: Epsilon,
    ) -> Result<BatchAnswer, GuptError> {
        if queries.is_empty() {
            return Err(GuptError::InvalidSpec("empty query batch".into()));
        }
        let n = self.dataset_len(dataset)?;

        // Plan: derive each query's noise profile from its spec.
        let mut profiles = Vec::with_capacity(queries.len());
        for spec in &queries {
            if matches!(spec.budget(), crate::query::BudgetSpec::Accuracy(_)) {
                return Err(GuptError::InvalidSpec(
                    "batch queries must not carry accuracy goals; \
                     the batch distributes an explicit shared budget"
                        .into(),
                ));
            }
            let ranges = crate::runtime::planning_ranges(spec)?;
            let width = ranges.iter().map(|r| r.width()).fold(0.0, f64::max);
            let beta = match spec.block_size_spec() {
                BlockSizeSpec::Fixed(b) => b.clamp(1, n.max(1)),
                // `Optimized` needs an ε to optimise against, which the
                // batch has not allocated yet; plan with the default.
                BlockSizeSpec::Default | BlockSizeSpec::Optimized => default_block_size(n),
            };
            let blocks_per_round = n.div_ceil(beta.max(1)).max(1);
            profiles.push(QueryNoiseProfile {
                output_width: width,
                num_blocks: spec.gamma() * blocks_per_round,
                gamma: spec.gamma(),
            });
        }

        let shares = distribute_budget(total_budget, &profiles)?;

        // Split hits from misses *before* charging: each member is
        // fingerprinted with its allocated share, and a hit is pulled
        // from the cache now — not peeked — so an eviction between
        // planning and execution can never leave a member both
        // uncharged and uncached. (A concurrent insert that would have
        // made a charged member a hit is a safe over-charge.)
        let mut cached: Vec<Option<PrivateAnswer>> = Vec::with_capacity(queries.len());
        let mut miss_total = 0.0;
        for (spec, share) in queries.iter().zip(&shares) {
            let hit = self
                .fingerprint_with_epsilon(dataset, spec, *share)
                .and_then(|fp| self.cache().lookup(fp));
            if hit.is_none() {
                miss_total += share.value();
            }
            cached.push(hit);
        }
        let misses = cached.iter().filter(|c| c.is_none()).count();

        // One atomic debit covering exactly the miss set: the full
        // budget when nothing hit (bit-identical to the pre-cache
        // behaviour), the sum of miss shares on a partial hit, and
        // nothing at all when every member replays from the cache.
        let charged = if misses == queries.len() {
            self.charge_dataset_as(dataset, principal, total_budget)?;
            total_budget.value()
        } else {
            if miss_total > 0.0 {
                self.charge_dataset_as(
                    dataset,
                    principal,
                    Epsilon::new(miss_total).map_err(GuptError::Dp)?,
                )?;
            }
            miss_total
        };

        // Prepare the misses in member order and run them in one
        // dispatch. A group-atomic plan (§8.1) is drawn in full when its
        // member is prepared, so once a pool's width of those is held
        // the members prepared so far run and finish before the next
        // one is prepared: a batch never holds more plans than the pool
        // runs at once.
        let width = self.computation_manager().workers();
        let mut window = Vec::new();
        let mut held = 0;
        let mut finished = Vec::with_capacity(misses);
        for ((spec, share), hit) in queries.into_iter().zip(&shares).zip(&cached) {
            if hit.is_some() {
                continue;
            }
            let spec = spec.epsilon(*share);
            let Admission::Run(member, source) =
                self.prepare(dataset, None, spec, ChargeMode::Precharged)?
            else {
                unreachable!("precharged members skip the cache lookup");
            };
            held += usize::from(matches!(source, BlockSource::Drawn(_)));
            window.push((member, source));
            if held == width {
                self.run_members(dataset, std::mem::take(&mut window), &mut finished)?;
                held = 0;
            }
        }
        self.run_members(dataset, window, &mut finished)?;
        let mut finished = finished.into_iter();

        let mut answers = Vec::with_capacity(shares.len());
        let mut allocations = Vec::with_capacity(shares.len());
        for (share, hit) in shares.into_iter().zip(cached) {
            match hit {
                Some(answer) => {
                    allocations.push(0.0);
                    answers.push(answer);
                }
                None => {
                    allocations.push(share.value());
                    answers.push(finished.next().expect("one answer per miss"));
                }
            }
        }
        Ok(BatchAnswer {
            answers,
            allocations,
            charged,
        })
    }

    /// Runs prepared batch members in one dispatch and finishes them in
    /// member order onto `answers`.
    fn run_members(
        &self,
        dataset: &str,
        members: Vec<(Box<Prepared<'_>>, BlockSource)>,
        answers: &mut Vec<PrivateAnswer>,
    ) -> Result<(), GuptError> {
        if members.is_empty() {
            return Ok(());
        }
        let (mut prepared, sources): (Vec<_>, Vec<_>) = members.into_iter().unzip();
        let planned = prepared
            .iter_mut()
            .zip(sources)
            .map(|(member, source)| member.planned(source))
            .collect();
        let runs = self.plan_and_execute(planned, None);
        for (member, run) in prepared.into_iter().zip(runs) {
            answers.push(self.finish(dataset, member, run)?);
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::output_range::RangeEstimation;
    use crate::runtime::GuptRuntimeBuilder;
    use crate::ExecutionPolicy;
    use gupt_dp::OutputRange;

    fn eps(v: f64) -> Epsilon {
        Epsilon::new(v).unwrap()
    }

    fn range(lo: f64, hi: f64) -> OutputRange {
        OutputRange::new(lo, hi).unwrap()
    }

    /// Ages 0..100 with a known mean and variance.
    fn rows() -> Vec<Vec<f64>> {
        (0..4000).map(|i| vec![(i % 100) as f64]).collect()
    }

    fn mean_spec() -> QuerySpec {
        QuerySpec::program(|b: &[Vec<f64>]| {
            vec![b.iter().map(|r| r[0]).sum::<f64>() / b.len().max(1) as f64]
        })
        .fixed_block_size(10)
        .range_estimation(RangeEstimation::Tight(vec![range(0.0, 100.0)]))
    }

    fn variance_spec() -> QuerySpec {
        // Unbiased (n-1) sample variance: with the /n convention each
        // β-row block would under-estimate by σ²/β, and that estimation
        // bias (not noise) would dominate the aggregate.
        QuerySpec::program(|b: &[Vec<f64>]| {
            let n = b.len() as f64;
            if b.len() < 2 {
                return vec![0.0];
            }
            let m = b.iter().map(|r| r[0]).sum::<f64>() / n;
            vec![b.iter().map(|r| (r[0] - m).powi(2)).sum::<f64>() / (n - 1.0)]
        })
        // Variance range is ~max² (Example 4).
        .fixed_block_size(10)
        .range_estimation(RangeEstimation::Tight(vec![range(0.0, 10_000.0)]))
    }

    #[test]
    fn example_4_allocation_is_proportional_to_range() {
        let rt = GuptRuntimeBuilder::new()
            .register_dataset("ages", rows(), eps(100.0))
            .unwrap()
            .seed(1)
            .build();
        let batch = rt
            .run_batch("ages", vec![mean_spec(), variance_spec()], eps(4.0))
            .unwrap();
        assert_eq!(batch.answers.len(), 2);
        // ε_variance : ε_mean = 10000 : 100 = 100 : 1.
        let ratio = batch.allocations[1] / batch.allocations[0];
        assert!((ratio - 100.0).abs() < 1e-6, "ratio = {ratio}");
        // Whole budget spent (one atomic ledger charge for the batch).
        assert!((rt.remaining_budget("ages").unwrap() - 96.0).abs() < 1e-9);
        assert_eq!(batch.charged, 4.0);
        // Both answers in the ballpark (equalised noise scale ≈ 6.3).
        assert!((batch.answers[0].values[0] - 49.5).abs() < 30.0);
        assert!((batch.answers[1].values[0] - 833.25).abs() < 60.0);
    }

    #[test]
    fn batch_noise_is_equalised() {
        // With the §5.2 split both queries share one Laplace scale
        // (≈6.3 here); an even split leaves the variance query at scale
        // 12.5 — measurably worse.
        let noise_spread = |even: bool| -> (f64, f64) {
            let trials = 40;
            let mut errs = (0.0, 0.0);
            for t in 0..trials {
                let rt = GuptRuntimeBuilder::new()
                    .register_dataset("ages", rows(), eps(1e9))
                    .unwrap()
                    .seed(1000 + t)
                    .build();
                let (m, v) = if even {
                    let half = eps(2.0);
                    let m = rt.run("ages", mean_spec().epsilon(half)).unwrap();
                    let v = rt.run("ages", variance_spec().epsilon(half)).unwrap();
                    (m, v)
                } else {
                    let batch = rt
                        .run_batch("ages", vec![mean_spec(), variance_spec()], eps(4.0))
                        .unwrap();
                    let mut it = batch.answers.into_iter();
                    (it.next().unwrap(), it.next().unwrap())
                };
                errs.0 += (m.values[0] - 49.5).abs();
                errs.1 += (v.values[0] - 833.25).abs();
            }
            (errs.0 / trials as f64, errs.1 / trials as f64)
        };
        let (_, var_err_even) = noise_spread(true);
        let (_, var_err_prop) = noise_spread(false);
        assert!(
            var_err_prop < var_err_even / 1.4,
            "proportional split should slash variance error: {var_err_prop} vs {var_err_even}"
        );
    }

    #[test]
    fn empty_batch_rejected() {
        let rt = GuptRuntimeBuilder::new()
            .register_dataset("ages", rows(), eps(10.0))
            .unwrap()
            .build();
        assert!(rt.run_batch("ages", Vec::new(), eps(1.0)).is_err());
    }

    #[test]
    fn accuracy_goal_queries_rejected_in_batch() {
        let rt = GuptRuntimeBuilder::new()
            .register_dataset("ages", rows(), eps(10.0))
            .unwrap()
            .build();
        let goal_spec = mean_spec()
            .accuracy_goal(crate::budget_estimator::AccuracyGoal::new(0.9, 0.9).unwrap());
        let err = rt.run_batch("ages", vec![goal_spec], eps(1.0)).unwrap_err();
        assert!(matches!(err, GuptError::InvalidSpec(_)));
    }

    #[test]
    fn batch_respects_ledger() {
        let rt = GuptRuntimeBuilder::new()
            .register_dataset("ages", rows(), eps(1.0))
            .unwrap()
            .seed(3)
            .build();
        // First batch of 0.8 fits; the second's atomic charge must fail
        // closed and spend nothing at all.
        rt.run_batch("ages", vec![mean_spec(), variance_spec()], eps(0.8))
            .unwrap();
        let before = rt.remaining_budget("ages").unwrap();
        let err = rt
            .run_batch("ages", vec![mean_spec(), variance_spec()], eps(0.8))
            .unwrap_err();
        assert!(matches!(err, GuptError::Dp(_)));
        assert_eq!(rt.remaining_budget("ages").unwrap(), before);
    }

    fn named_mean_spec() -> QuerySpec {
        QuerySpec::builder()
            .view(|b: &crate::BlockView| {
                vec![b.iter().map(|r| r[0]).sum::<f64>() / b.len().max(1) as f64]
            })
            .identity("batch-mean-age", 1)
            .fixed_block_size(10)
            .range_estimation(RangeEstimation::Tight(vec![range(0.0, 100.0)]))
            .build()
            .unwrap()
    }

    #[test]
    fn repeated_batch_replays_from_cache_for_free() {
        let rt = GuptRuntimeBuilder::new()
            .register_dataset("ages", rows(), eps(10.0))
            .unwrap()
            .seed(5)
            .build();
        let first = rt
            .run_batch("ages", vec![named_mean_spec()], eps(2.0))
            .unwrap();
        let after_first = rt.remaining_budget("ages").unwrap();
        let second = rt
            .run_batch("ages", vec![named_mean_spec()], eps(2.0))
            .unwrap();
        // Fully cached batch: zero debit, zero allocation, bit-identical
        // answer.
        assert_eq!(rt.remaining_budget("ages").unwrap(), after_first);
        assert_eq!(second.allocations, vec![0.0]);
        assert_eq!((first.charged, second.charged), (2.0, 0.0));
        assert_eq!(second.answers[0].values, first.answers[0].values);
        assert_eq!(
            second.answers[0].epsilon_spent,
            first.answers[0].epsilon_spent
        );
    }

    #[test]
    fn partial_hit_batch_charges_only_the_miss_share() {
        let rt = GuptRuntimeBuilder::new()
            .register_dataset("ages", rows(), eps(100.0))
            .unwrap()
            .seed(6)
            .build();
        // Warm the cache with the named member at the share it will get
        // inside the batch below (ζ-proportional: 100 : 10000 of ε=4).
        let batch = rt
            .run_batch("ages", vec![named_mean_spec(), variance_spec()], eps(4.0))
            .unwrap();
        let after_first = rt.remaining_budget("ages").unwrap();
        // Re-run: the named member hits, the anonymous variance query
        // cannot be fingerprinted and must be re-charged its own share.
        let second = rt
            .run_batch("ages", vec![named_mean_spec(), variance_spec()], eps(4.0))
            .unwrap();
        assert_eq!(second.allocations[0], 0.0);
        assert_eq!(second.charged, second.allocations[1]);
        assert!((second.allocations[1] - batch.allocations[1]).abs() < 1e-12);
        let spent = after_first - rt.remaining_budget("ages").unwrap();
        assert!(
            (spent - batch.allocations[1]).abs() < 1e-9,
            "only the miss share should be debited: spent {spent}, share {}",
            batch.allocations[1]
        );
        assert_eq!(second.answers[0].values, batch.answers[0].values);
    }

    /// 600 rows in 40 groups of 15 (column 1), on a pool of `width`.
    fn grouped_runtime(seed: u64, width: usize) -> GuptRuntime {
        let rows = (0..600)
            .map(|i| vec![(i % 100) as f64, (i % 40) as f64])
            .collect();
        let dataset = crate::Dataset::new(rows)
            .unwrap()
            .with_group_column(1)
            .unwrap();
        GuptRuntimeBuilder::new()
            .register("ages", dataset, eps(100.0))
            .unwrap()
            .seed(seed)
            .execution(ExecutionPolicy::parallel(width))
            .build()
    }

    fn value_bits(answers: &[PrivateAnswer]) -> Vec<u64> {
        answers.iter().map(|a| a.values[0].to_bits()).collect()
    }

    #[test]
    fn grouped_batch_holds_at_most_a_pool_width_of_plans() {
        let members = 7;
        let batch = |width: usize| -> BatchAnswer {
            let rt = grouped_runtime(11, width);
            let batch = rt
                .run_batch("ages", vec![mean_spec(); members], eps(7.0))
                .unwrap();
            assert_eq!(rt.held_plans.peak(), width.min(members), "width {width}");
            batch
        };
        // The same answers as the members run one after another, each
        // at its share, whatever the windows.
        let rt = grouped_runtime(11, 2);
        let first = batch(2);
        let one_by_one: Vec<PrivateAnswer> = first
            .allocations
            .iter()
            .map(|&share| rt.run("ages", mean_spec().epsilon(eps(share))).unwrap())
            .collect();
        assert_eq!(value_bits(&first.answers), value_bits(&one_by_one));
        for width in [1, 3, 8] {
            assert_eq!(value_bits(&batch(width).answers), value_bits(&one_by_one));
        }
    }

    #[test]
    fn mixed_member_policies_run_on_the_narrowest_and_release_the_same_answers() {
        let run = |policies: [Option<ExecutionPolicy>; 3]| -> Vec<PrivateAnswer> {
            let rt = GuptRuntimeBuilder::new()
                .register_dataset("ages", rows(), eps(100.0))
                .unwrap()
                .seed(8)
                .execution(ExecutionPolicy::parallel(4))
                .build();
            let specs = policies
                .into_iter()
                .map(|policy| {
                    let spec = mean_spec().collect_telemetry();
                    match policy {
                        Some(policy) => spec.execution(policy),
                        None => spec,
                    }
                })
                .collect();
            rt.run_batch("ages", specs, eps(3.0)).unwrap().answers
        };
        let plain = run([None, None, None]);
        let mixed = run([
            None,
            Some(ExecutionPolicy::sequential()),
            Some(ExecutionPolicy::parallel(2).chunk(1)),
        ]);
        assert_eq!(value_bits(&mixed), value_bits(&plain));
        // One sequential member puts the whole dispatch on one thread.
        for answer in &mixed {
            let telemetry = answer.telemetry.as_ref().expect("telemetry requested");
            assert_eq!(telemetry.parallel.workers, 1);
        }
        let chunked = run([None, Some(ExecutionPolicy::parallel(3).chunk(7)), None]);
        assert_eq!(value_bits(&chunked), value_bits(&plain));
    }

    #[test]
    fn single_query_batch_gets_everything() {
        let rt = GuptRuntimeBuilder::new()
            .register_dataset("ages", rows(), eps(10.0))
            .unwrap()
            .seed(4)
            .build();
        let batch = rt.run_batch("ages", vec![mean_spec()], eps(2.0)).unwrap();
        assert!((batch.allocations[0] - 2.0).abs() < 1e-12);
        assert_eq!(batch.answers[0].epsilon_spent, 2.0);
    }
}
