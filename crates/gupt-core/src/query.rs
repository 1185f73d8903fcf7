//! The analyst's query specification (§3.1, "Interface with the analyst").
//!
//! An analyst submits (a) an arbitrary program, (b) *either* a privacy
//! budget *or* an accuracy goal, and (c) one of the three output-range
//! mechanisms. Optionally a block-size strategy and a resampling factor.
//! [`QuerySpec`] is the builder carrying all of that into
//! [`crate::runtime::GuptRuntime::run`].

use crate::aggregator::Aggregator;
use crate::budget_estimator::AccuracyGoal;
use crate::cache::ProgramIdentity;
use crate::error::GuptError;
use crate::output_range::RangeEstimation;
use gupt_dp::Epsilon;
use gupt_sandbox::view::BlockView;
use gupt_sandbox::{BlockProgram, ClosureProgram, ExecutionPolicy, KeyPartition, RowSliceProgram};
use std::fmt;
use std::sync::Arc;

/// How the query's privacy budget is determined.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum BudgetSpec {
    /// An explicit ε (the classic differential-privacy interface).
    Epsilon(Epsilon),
    /// An accuracy goal; GUPT derives the minimal ε from aged data (§5.1).
    Accuracy(AccuracyGoal),
}

/// How the block size is chosen.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BlockSizeSpec {
    /// The paper default `β = n^0.6` (ℓ = n^0.4 blocks).
    Default,
    /// An explicit block size.
    Fixed(usize),
    /// Optimise β on the dataset's aged view (§4.3).
    Optimized,
}

/// A complete analyst query.
#[derive(Clone)]
pub struct QuerySpec {
    pub(crate) program: Arc<dyn BlockProgram>,
    pub(crate) identity: Option<ProgramIdentity>,
    pub(crate) budget: BudgetSpec,
    pub(crate) range_estimation: Option<RangeEstimation>,
    pub(crate) block_size: BlockSizeSpec,
    pub(crate) gamma: usize,
    pub(crate) aggregator: Aggregator,
    pub(crate) telemetry: bool,
    pub(crate) execution: Option<ExecutionPolicy>,
    pub(crate) partition: Option<Arc<KeyPartition>>,
}

impl fmt::Debug for QuerySpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("QuerySpec")
            .field("program", &self.program.name())
            .field("identity", &self.identity)
            .field("budget", &self.budget)
            .field("range_estimation", &self.range_estimation)
            .field("block_size", &self.block_size)
            .field("gamma", &self.gamma)
            .field("aggregator", &self.aggregator)
            .field("execution", &self.execution)
            .field("partition", &self.partition)
            .finish()
    }
}

impl QuerySpec {
    /// Starts the fluent builder — the one construction path covering
    /// every program shape (zero-copy views, raw [`BlockProgram`]s) and
    /// every knob (identity, budget, ranges, β, γ, execution policy):
    ///
    /// ```
    /// use gupt_core::{BlockView, QuerySpec, RangeEstimation};
    /// use gupt_dp::{Epsilon, OutputRange};
    ///
    /// let spec = QuerySpec::builder()
    ///     .view(|b: &BlockView| vec![b.iter().map(|r| r[0]).sum::<f64>() / b.len() as f64])
    ///     .identity("mean", 1)
    ///     .epsilon(Epsilon::new(1.0).unwrap())
    ///     .range_estimation(RangeEstimation::Tight(vec![OutputRange::new(0.0, 49.0).unwrap()]))
    ///     .build()
    ///     .unwrap();
    /// assert_eq!(spec.identity().unwrap().name(), "mean");
    /// ```
    pub fn builder() -> QuerySpecBuilder {
        QuerySpecBuilder::new()
    }

    /// Wraps a scalar-output zero-copy closure (`output_dimension = 1`)
    /// reading its block through a [`BlockView`].
    pub fn view_program<F>(f: F) -> QuerySpec
    where
        F: Fn(&BlockView) -> Vec<f64> + Send + Sync + 'static,
    {
        QuerySpec::view_program_with_dim(1, f)
    }

    /// Wraps a zero-copy closure with a declared output dimension `p`.
    pub fn view_program_with_dim<F>(output_dim: usize, f: F) -> QuerySpec
    where
        F: Fn(&BlockView) -> Vec<f64> + Send + Sync + 'static,
    {
        QuerySpec::from_program(Arc::new(ClosureProgram::new(output_dim, f)))
    }

    /// Wraps a scalar-output legacy slice closure (`output_dimension = 1`).
    ///
    /// **Note**: runs on the deprecated clone plane — every block is
    /// deep-copied into `Vec<Vec<f64>>` before the closure sees it.
    /// Prefer [`QuerySpec::view_program`] (zero-copy), or better
    /// [`QuerySpec::builder`] with `.identity(..)`, which is zero-copy
    /// *and* fingerprintable so repeated releases can be served from
    /// the answer cache without spending ε.
    pub fn program<F>(f: F) -> QuerySpec
    where
        F: Fn(&[Vec<f64>]) -> Vec<f64> + Send + Sync + 'static,
    {
        QuerySpec::program_with_dim(1, f)
    }

    /// Wraps a legacy slice closure with a declared output dimension `p`.
    ///
    /// **Note**: clone-plane compatibility shim, like
    /// [`QuerySpec::program`] — prefer
    /// [`QuerySpec::view_program_with_dim`].
    pub fn program_with_dim<F>(output_dim: usize, f: F) -> QuerySpec
    where
        F: Fn(&[Vec<f64>]) -> Vec<f64> + Send + Sync + 'static,
    {
        QuerySpec::from_program(Arc::new(RowSliceProgram::new(output_dim, f)))
    }

    /// Uses an existing [`BlockProgram`] (e.g. a wrapped binary).
    ///
    /// The spec carries no [`ProgramIdentity`] and therefore bypasses
    /// the answer cache; build through
    /// `QuerySpec::builder().program(arc).identity(name, version)` if
    /// the program's behaviour is stable under its (name, version).
    pub fn from_program(program: Arc<dyn BlockProgram>) -> QuerySpec {
        QuerySpec {
            program,
            identity: None,
            budget: BudgetSpec::Epsilon(Epsilon::new(1.0).expect("1.0 is a valid epsilon")),
            range_estimation: None,
            block_size: BlockSizeSpec::Default,
            gamma: 1,
            aggregator: Aggregator::default(),
            telemetry: false,
            execution: None,
            partition: None,
        }
    }

    /// Sets an explicit privacy budget.
    pub fn epsilon(mut self, eps: Epsilon) -> Self {
        self.budget = BudgetSpec::Epsilon(eps);
        self
    }

    /// Sets an accuracy goal instead of a budget (requires the dataset to
    /// have an aged view).
    pub fn accuracy_goal(mut self, goal: AccuracyGoal) -> Self {
        self.budget = BudgetSpec::Accuracy(goal);
        self
    }

    /// Chooses the output-range mechanism (required before running).
    pub fn range_estimation(mut self, mode: RangeEstimation) -> Self {
        self.range_estimation = Some(mode);
        self
    }

    /// Fixes the block size explicitly.
    pub fn fixed_block_size(mut self, block_size: usize) -> Self {
        self.block_size = BlockSizeSpec::Fixed(block_size);
        self
    }

    /// Requests aged-data block-size optimisation (§4.3).
    pub fn optimized_block_size(mut self) -> Self {
        self.block_size = BlockSizeSpec::Optimized;
        self
    }

    /// Sets the resampling factor γ ≥ 1 (§4.2).
    pub fn resampling(mut self, gamma: usize) -> Self {
        self.gamma = gamma.max(1);
        self
    }

    /// Chooses the aggregation strategy (default: Algorithm 1's noisy
    /// mean; [`Aggregator::DpMedian`] for robustness to hostile blocks).
    pub fn aggregator(mut self, aggregator: Aggregator) -> Self {
        self.aggregator = aggregator;
        self
    }

    /// The program's stable identity, when one was declared
    /// ([`QuerySpec::builder`]'s `.identity(..)`). `None` means the
    /// query bypasses the answer cache.
    pub fn identity(&self) -> Option<&ProgramIdentity> {
        self.identity.as_ref()
    }

    /// The program's declared output dimension.
    pub fn output_dimension(&self) -> usize {
        self.program.output_dimension()
    }

    /// The budget specification.
    pub fn budget(&self) -> BudgetSpec {
        self.budget
    }

    /// The block-size strategy.
    pub fn block_size_spec(&self) -> BlockSizeSpec {
        self.block_size
    }

    /// The resampling factor.
    pub fn gamma(&self) -> usize {
        self.gamma
    }

    /// The aggregation strategy.
    pub fn aggregation_strategy(&self) -> Aggregator {
        self.aggregator
    }

    /// Overrides the runtime's [`ExecutionPolicy`] for this query only
    /// (`.execution(ExecutionPolicy::parallel(8))`). Because per-chamber
    /// seeds are split from the query seed before fan-out, the override
    /// changes scheduling — never the answer: a seeded query returns
    /// bit-identical values at any worker count. The policy is therefore
    /// deliberately excluded from the answer-cache fingerprint.
    ///
    /// The query service may cap the effective worker count below the
    /// requested one to keep `in_flight × workers` within its shared
    /// budget (see [`crate::service::ServiceConfig::worker_budget`]).
    pub fn execution(mut self, exec: ExecutionPolicy) -> Self {
        self.execution = Some(exec);
        self
    }

    /// The per-query execution override, when one was set.
    pub fn execution_policy(&self) -> Option<&ExecutionPolicy> {
        self.execution.as_ref()
    }

    /// Requests a [`crate::telemetry::TelemetryReport`] on the answer.
    ///
    /// Telemetry is an operator-facing side channel *outside* the DP
    /// guarantee (stage timings depend on the private rows unless a
    /// padding chamber policy is in force) — see [`crate::telemetry`].
    pub fn collect_telemetry(mut self) -> Self {
        self.telemetry = true;
        self
    }

    /// Whether telemetry collection was requested.
    pub fn telemetry_enabled(&self) -> bool {
        self.telemetry
    }

    /// The key partition, for a partitioned query (see
    /// [`QuerySpecBuilder::partitioned`]).
    pub fn partition(&self) -> Option<&KeyPartition> {
        self.partition.as_deref()
    }

    /// The number of dimensions the aggregation budget is split over
    /// (Theorem 1) — the one rule that both
    /// [`crate::runtime::GuptRuntime::run`] and
    /// [`crate::runtime::GuptRuntime::explain`] apply.
    ///
    /// An unpartitioned query splits over its `p` output dimensions. A
    /// partitioned query releases `p` values for each of its `G` keys
    /// and splits over `2p`, whatever `G` is. Its neighbouring datasets
    /// differ by the *substitution* of one row, since the dataset size
    /// `n` is public and fixes the block plan's shape. A substituted row
    /// sits in `γ` blocks and, in each, changes only the sub-views of
    /// its old key and its new key, so it moves at most `2p` of the
    /// `G·p` released values, each by at most the per-dimension
    /// sensitivity `γ·s/ℓ`. (Under add/remove the split would not
    /// shrink to `p`: an added row changes the length of its block,
    /// which every key's estimator of that block may scale by.)
    pub fn budget_dimensions(&self) -> usize {
        let p = self.output_dimension();
        match self.partition {
            Some(_) => 2 * p,
            None => p,
        }
    }
}

/// A deferred zero-copy program body awaiting its identity.
type ViewFn = Box<dyn Fn(&BlockView) -> Vec<f64> + Send + Sync>;

/// What program the builder will compile into the spec.
enum ProgramSource {
    /// No program chosen yet — `build()` rejects this.
    Missing,
    /// An existing [`BlockProgram`] (e.g. a wrapped binary).
    Raw(Arc<dyn BlockProgram>),
    /// A zero-copy closure, wrapped lazily so `.identity(..)` can name
    /// the underlying program before it is built.
    View { output_dim: usize, f: ViewFn },
}

/// Fluent constructor for [`QuerySpec`] — see [`QuerySpec::builder`].
///
/// Exactly one program source ([`QuerySpecBuilder::view`],
/// [`QuerySpecBuilder::view_with_dim`] or [`QuerySpecBuilder::program`])
/// must be chosen before [`QuerySpecBuilder::build`]; the last one set
/// wins. Every other knob is optional and mirrors the corresponding
/// [`QuerySpec`] setter.
pub struct QuerySpecBuilder {
    source: ProgramSource,
    identity: Option<ProgramIdentity>,
    budget: BudgetSpec,
    range_estimation: Option<RangeEstimation>,
    block_size: BlockSizeSpec,
    gamma: usize,
    aggregator: Aggregator,
    telemetry: bool,
    execution: Option<ExecutionPolicy>,
    partition: Option<KeyPartition>,
}

impl fmt::Debug for QuerySpecBuilder {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let source = match &self.source {
            ProgramSource::Missing => "missing",
            ProgramSource::Raw(_) => "raw",
            ProgramSource::View { .. } => "view",
        };
        f.debug_struct("QuerySpecBuilder")
            .field("source", &source)
            .field("identity", &self.identity)
            .field("budget", &self.budget)
            .field("range_estimation", &self.range_estimation)
            .field("block_size", &self.block_size)
            .field("gamma", &self.gamma)
            .finish()
    }
}

impl Default for QuerySpecBuilder {
    fn default() -> Self {
        QuerySpecBuilder::new()
    }
}

impl QuerySpecBuilder {
    /// An empty builder with the [`QuerySpec`] defaults (ε = 1.0, paper
    /// β, γ = 1) and no program.
    pub fn new() -> Self {
        QuerySpecBuilder {
            source: ProgramSource::Missing,
            identity: None,
            budget: BudgetSpec::Epsilon(Epsilon::new(1.0).expect("1.0 is a valid epsilon")),
            range_estimation: None,
            block_size: BlockSizeSpec::Default,
            gamma: 1,
            aggregator: Aggregator::default(),
            telemetry: false,
            execution: None,
            partition: None,
        }
    }

    /// Uses a scalar-output zero-copy closure (`output_dimension = 1`).
    #[must_use]
    pub fn view<F>(mut self, f: F) -> Self
    where
        F: Fn(&BlockView) -> Vec<f64> + Send + Sync + 'static,
    {
        self.source = ProgramSource::View {
            output_dim: 1,
            f: Box::new(f),
        };
        self
    }

    /// Uses a zero-copy closure with a declared output dimension `p`.
    #[must_use]
    pub fn view_with_dim<F>(mut self, output_dim: usize, f: F) -> Self
    where
        F: Fn(&BlockView) -> Vec<f64> + Send + Sync + 'static,
    {
        self.source = ProgramSource::View {
            output_dim,
            f: Box::new(f),
        };
        self
    }

    /// Uses an existing [`BlockProgram`] (e.g. a wrapped binary).
    #[must_use]
    pub fn program(mut self, program: Arc<dyn BlockProgram>) -> Self {
        self.source = ProgramSource::Raw(program);
        self
    }

    /// Declares the program's stable (name, version) identity, opting
    /// the query into the answer cache (replay at zero marginal ε). Bump
    /// `version` whenever the program's logic changes. When the program
    /// is a closure, the wrapped [`ClosureProgram`] adopts `name` too.
    #[must_use]
    pub fn identity(mut self, name: impl Into<String>, version: u32) -> Self {
        self.identity = Some(ProgramIdentity::new(name, version));
        self
    }

    /// Sets an explicit privacy budget.
    #[must_use]
    pub fn epsilon(mut self, eps: Epsilon) -> Self {
        self.budget = BudgetSpec::Epsilon(eps);
        self
    }

    /// Sets an accuracy goal instead of a budget (requires the dataset
    /// to have an aged view).
    #[must_use]
    pub fn accuracy_goal(mut self, goal: AccuracyGoal) -> Self {
        self.budget = BudgetSpec::Accuracy(goal);
        self
    }

    /// Chooses the output-range mechanism (required before running).
    #[must_use]
    pub fn range_estimation(mut self, mode: RangeEstimation) -> Self {
        self.range_estimation = Some(mode);
        self
    }

    /// Fixes the block size explicitly.
    #[must_use]
    pub fn fixed_block_size(mut self, block_size: usize) -> Self {
        self.block_size = BlockSizeSpec::Fixed(block_size);
        self
    }

    /// Requests aged-data block-size optimisation (§4.3).
    #[must_use]
    pub fn optimized_block_size(mut self) -> Self {
        self.block_size = BlockSizeSpec::Optimized;
        self
    }

    /// Sets the resampling factor γ ≥ 1 (§4.2).
    #[must_use]
    pub fn resampling(mut self, gamma: usize) -> Self {
        self.gamma = gamma.max(1);
        self
    }

    /// Chooses the aggregation strategy.
    #[must_use]
    pub fn aggregator(mut self, aggregator: Aggregator) -> Self {
        self.aggregator = aggregator;
        self
    }

    /// Overrides the runtime's [`ExecutionPolicy`] for this query only —
    /// see [`QuerySpec::execution`].
    #[must_use]
    pub fn execution(mut self, exec: ExecutionPolicy) -> Self {
        self.execution = Some(exec);
        self
    }

    /// Requests a [`crate::telemetry::TelemetryReport`] on the answer —
    /// see [`QuerySpec::collect_telemetry`].
    #[must_use]
    pub fn collect_telemetry(mut self) -> Self {
        self.telemetry = true;
        self
    }

    /// Partitions the query by key (one sample-and-aggregate run that
    /// answers for every key of `partition`, e.g. a `GROUP BY`).
    ///
    /// The runtime draws one block plan over all rows and, in each
    /// block's chamber, routes the rows to their keys and runs the
    /// program once per key present in the block, on a sub-view of that
    /// key's rows ([`BlockView::block_len`] is the whole block's
    /// length), and once on an empty sub-view for the absent keys. The
    /// answer holds the program's `p` outputs for each key in turn,
    /// `G·p` values in key order, and the budget splits over `2p`
    /// dimensions ([`QuerySpec::budget_dimensions`]).
    ///
    /// A partitioned query needs an explicit ε, tight ranges, a default
    /// or fixed block size and the Laplace-mean aggregator, and is
    /// refused on a dataset with a group column (whose user-level
    /// neighbours can touch many keys); each refusal comes before any
    /// charge.
    #[must_use]
    pub fn partitioned(mut self, partition: KeyPartition) -> Self {
        self.partition = Some(partition);
        self
    }

    /// Compiles the spec. Fails with [`GuptError::InvalidSpec`] when no
    /// program source was chosen.
    pub fn build(self) -> Result<QuerySpec, GuptError> {
        let program: Arc<dyn BlockProgram> = match self.source {
            ProgramSource::Missing => {
                return Err(GuptError::InvalidSpec(
                    "QuerySpec::builder() needs a program: call .view(f), .view_with_dim(p, f) \
                     or .program(arc) before .build()"
                        .into(),
                ));
            }
            ProgramSource::Raw(program) => program,
            ProgramSource::View { output_dim, f } => {
                let program = ClosureProgram::new(output_dim, f);
                match self.identity.as_ref() {
                    Some(id) => Arc::new(program.named(id.name())),
                    None => Arc::new(program),
                }
            }
        };
        Ok(QuerySpec {
            program,
            identity: self.identity,
            budget: self.budget,
            range_estimation: self.range_estimation,
            block_size: self.block_size,
            gamma: self.gamma,
            aggregator: self.aggregator,
            telemetry: self.telemetry,
            execution: self.execution,
            partition: self.partition.map(Arc::new),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gupt_dp::OutputRange;

    #[test]
    fn builder_defaults() {
        let spec = QuerySpec::program(|_: &[Vec<f64>]| vec![0.0]);
        assert_eq!(spec.output_dimension(), 1);
        assert!(matches!(spec.budget(), BudgetSpec::Epsilon(e) if e.value() == 1.0));
        assert_eq!(spec.block_size_spec(), BlockSizeSpec::Default);
        assert_eq!(spec.gamma(), 1);
        assert!(spec.range_estimation.is_none());
    }

    #[test]
    fn builder_setters() {
        let spec = QuerySpec::program_with_dim(3, |_: &[Vec<f64>]| vec![0.0; 3])
            .epsilon(Epsilon::new(2.0).unwrap())
            .range_estimation(RangeEstimation::Tight(vec![
                OutputRange::new(0.0, 1.0)
                    .unwrap();
                3
            ]))
            .fixed_block_size(25)
            .resampling(4);
        assert_eq!(spec.output_dimension(), 3);
        assert_eq!(spec.block_size_spec(), BlockSizeSpec::Fixed(25));
        assert_eq!(spec.gamma(), 4);
        assert!(matches!(spec.budget(), BudgetSpec::Epsilon(e) if e.value() == 2.0));
    }

    #[test]
    fn gamma_clamped_to_one() {
        let spec = QuerySpec::program(|_: &[Vec<f64>]| vec![0.0]).resampling(0);
        assert_eq!(spec.gamma(), 1);
    }

    #[test]
    fn accuracy_goal_budget() {
        let goal = crate::budget_estimator::AccuracyGoal::new(0.9, 0.9).unwrap();
        let spec = QuerySpec::program(|_: &[Vec<f64>]| vec![0.0]).accuracy_goal(goal);
        assert!(matches!(spec.budget(), BudgetSpec::Accuracy(g) if g == goal));
    }

    #[test]
    fn debug_uses_program_name() {
        let spec = QuerySpec::view_program(|_: &BlockView| vec![0.0]);
        assert!(format!("{spec:?}").contains("closure-program"));
        let spec = QuerySpec::program(|_: &[Vec<f64>]| vec![0.0]);
        assert!(format!("{spec:?}").contains("row-slice-program"));
    }

    #[test]
    fn view_program_defaults() {
        let spec = QuerySpec::view_program_with_dim(2, |_: &BlockView| vec![0.0; 2]);
        assert_eq!(spec.output_dimension(), 2);
        assert_eq!(spec.gamma(), 1);
    }

    #[test]
    fn anonymous_programs_have_no_identity() {
        assert!(QuerySpec::view_program(|_: &BlockView| vec![0.0])
            .identity()
            .is_none());
        assert!(QuerySpec::program(|_: &[Vec<f64>]| vec![0.0])
            .identity()
            .is_none());
    }

    #[test]
    fn builder_covers_every_knob() {
        let spec = QuerySpec::builder()
            .view_with_dim(2, |_: &BlockView| vec![0.0; 2])
            .identity("two-dim", 4)
            .epsilon(Epsilon::new(2.0).unwrap())
            .range_estimation(RangeEstimation::Tight(vec![
                OutputRange::new(0.0, 1.0)
                    .unwrap();
                2
            ]))
            .fixed_block_size(25)
            .resampling(3)
            .execution(ExecutionPolicy::parallel(4))
            .collect_telemetry()
            .build()
            .unwrap();
        assert_eq!(spec.output_dimension(), 2);
        let id = spec.identity().unwrap();
        assert_eq!((id.name(), id.version()), ("two-dim", 4));
        assert!(matches!(spec.budget(), BudgetSpec::Epsilon(e) if e.value() == 2.0));
        assert_eq!(spec.block_size_spec(), BlockSizeSpec::Fixed(25));
        assert_eq!(spec.gamma(), 3);
        assert_eq!(spec.execution_policy(), Some(&ExecutionPolicy::parallel(4)));
        assert!(spec.telemetry_enabled());
        // The wrapped closure adopts the identity's name.
        assert!(format!("{spec:?}").contains("two-dim"));
    }

    #[test]
    fn builder_without_a_program_is_rejected() {
        let err = QuerySpec::builder()
            .epsilon(Epsilon::new(1.0).unwrap())
            .build()
            .unwrap_err();
        assert!(matches!(err, crate::error::GuptError::InvalidSpec(_)));
    }

    #[test]
    fn builder_wraps_raw_programs_with_identity() {
        let program = Arc::new(gupt_sandbox::ClosureProgram::new(1, |_: &BlockView| {
            vec![0.0]
        }));
        let spec = QuerySpec::builder()
            .program(program)
            .identity("wrapped-binary", 2)
            .build()
            .unwrap();
        assert_eq!(spec.identity().unwrap().name(), "wrapped-binary");
    }

    #[test]
    fn execution_override_rides_the_spec() {
        let spec = QuerySpec::view_program(|_: &BlockView| vec![0.0]);
        assert!(spec.execution_policy().is_none());
        let spec = spec.execution(ExecutionPolicy::parallel(6));
        assert_eq!(spec.execution_policy(), Some(&ExecutionPolicy::parallel(6)));
        assert!(format!("{spec:?}").contains("execution"));
    }

    #[test]
    fn optimized_block_size_flag() {
        let spec = QuerySpec::program(|_: &[Vec<f64>]| vec![0.0]).optimized_block_size();
        assert_eq!(spec.block_size_spec(), BlockSizeSpec::Optimized);
    }
}
