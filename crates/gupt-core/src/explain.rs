//! Query planning without execution ("dry run").
//!
//! Before spending irreversible budget, an analyst can ask the runtime
//! what a query *would* do: the block plan, the Theorem 1 budget splits,
//! and the predicted Laplace noise scale per output dimension. The plan
//! reads only the spec and dataset metadata (sizes, declared ranges) —
//! never private values — so it is free.

use crate::blocks::default_block_size;
use crate::error::GuptError;
use crate::output_range::RangeEstimation;
use crate::query::{BlockSizeSpec, BudgetSpec, QuerySpec};
use crate::runtime::GuptRuntime;
use crate::telemetry::{QueryTelemetry, Stage, TelemetryReport};
use gupt_dp::Epsilon;
use std::fmt;
use std::time::Instant;

/// The per-stage budget split a query would use.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BudgetSplit {
    /// ε available to the aggregation step, per output dimension.
    pub aggregation_per_dim: f64,
    /// ε spent on range estimation, per estimated dimension (0 for
    /// `GUPT-tight`).
    pub range_estimation_per_dim: f64,
    /// Number of dimensions charged for range estimation (output dims
    /// for loose, input dims for helper).
    pub range_estimation_dims: usize,
}

/// A dry-run query plan.
#[derive(Debug, Clone)]
pub struct QueryPlan {
    /// Total ε the query would charge.
    pub epsilon: f64,
    /// Block size β.
    pub block_size: usize,
    /// Number of blocks ℓ (γ rounds included).
    pub num_blocks: usize,
    /// Resampling factor γ.
    pub gamma: usize,
    /// Whether user-level (group-atomic) partitioning applies.
    pub user_level: bool,
    /// The Theorem 1 split.
    pub split: BudgetSplit,
    /// Predicted Laplace noise standard deviation per output dimension
    /// (`√2·γ·sᵈ/(ℓ·ε_dim)`), using planning-time range widths. For a
    /// partitioned query: per program dimension, the same for every key.
    pub noise_std_per_dim: Vec<f64>,
}

impl fmt::Display for QueryPlan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "query plan:")?;
        writeln!(f, "  epsilon       : {}", self.epsilon)?;
        writeln!(
            f,
            "  blocks        : {} × ~{} rows (γ = {}{})",
            self.num_blocks,
            self.block_size,
            self.gamma,
            if self.user_level { ", user-level" } else { "" }
        )?;
        writeln!(
            f,
            "  budget split  : {:.6}/dim aggregation, {:.6}/dim range estimation ({} dims)",
            self.split.aggregation_per_dim,
            self.split.range_estimation_per_dim,
            self.split.range_estimation_dims
        )?;
        writeln!(f, "  noise std/dim : {:?}", self.noise_std_per_dim)
    }
}

impl GuptRuntime {
    /// Plans `spec` against `dataset` without executing anything or
    /// charging any budget.
    ///
    /// Accuracy-goal budgets are resolved through the aged-data
    /// estimator (still free: aged data is non-private). The
    /// `Optimized` block-size strategy is planned at the paper default,
    /// since optimisation itself runs the program.
    ///
    /// Always returns the [`TelemetryReport`] covering the planning-time
    /// stages (budget resolution and block planning — the only stages a
    /// dry run visits) alongside the plan; callers that only want the
    /// plan drop it. Like all telemetry it is operator-facing and
    /// outside the ε guarantee.
    pub fn explain(
        &self,
        dataset: &str,
        spec: &QuerySpec,
    ) -> Result<(QueryPlan, TelemetryReport), GuptError> {
        let mut tel = QueryTelemetry::enabled();
        let start = Instant::now();
        let plan = self.explain_impl(dataset, spec, &mut tel)?;
        let report = tel
            .finish(start.elapsed())
            .expect("enabled collector always yields a report");
        Ok((plan, report))
    }

    fn explain_impl(
        &self,
        dataset: &str,
        spec: &QuerySpec,
        tel: &mut QueryTelemetry,
    ) -> Result<QueryPlan, GuptError> {
        let n = self.dataset_len(dataset)?;
        let p = spec.output_dimension();
        if p == 0 {
            return Err(GuptError::InvalidSpec(
                "program declares zero output dimensions".into(),
            ));
        }
        let mode = spec
            .range_estimation
            .as_ref()
            .ok_or_else(|| GuptError::InvalidSpec("no range-estimation mode chosen".into()))?;
        let plan_ranges = crate::runtime::planning_ranges(spec)?;
        if plan_ranges.len() != p {
            return Err(GuptError::DimensionMismatch {
                expected: p,
                got: plan_ranges.len(),
            });
        }

        let stage_start = Instant::now();
        let block_size = match spec.block_size_spec() {
            BlockSizeSpec::Fixed(0) => {
                return Err(GuptError::InvalidSpec("block size must be ≥ 1".into()))
            }
            BlockSizeSpec::Fixed(b) => b.clamp(1, n.max(1)),
            BlockSizeSpec::Default | BlockSizeSpec::Optimized => default_block_size(n),
        };
        let gamma = spec.gamma();
        let num_blocks = gamma * n.div_ceil(block_size.max(1)).max(1);
        tel.record_stage(Stage::BlockPlanning, stage_start.elapsed());

        let stage_start = Instant::now();
        let eps_total = match spec.budget() {
            BudgetSpec::Epsilon(e) => e,
            BudgetSpec::Accuracy(_) => self.estimate_epsilon_for(dataset, spec)?,
        };
        tel.record_stage(Stage::BudgetResolution, stage_start.elapsed());

        let fraction = mode.aggregation_budget_fraction();
        let aggregation_per_dim = eps_total.value() * fraction / spec.budget_dimensions() as f64;
        let (range_estimation_per_dim, range_estimation_dims) = match mode {
            RangeEstimation::Tight(_) => (0.0, 0),
            RangeEstimation::Loose(_) => (eps_total.value() / 2.0 / p as f64, p),
            RangeEstimation::Helper { .. } => {
                let k = self.dataset_dimension(dataset)?;
                (eps_total.value() / 2.0 / k.max(1) as f64, k)
            }
        };

        let eps_dim = Epsilon::new(aggregation_per_dim).map_err(GuptError::Dp)?;
        let noise_std_per_dim = plan_ranges
            .iter()
            .map(|r| {
                std::f64::consts::SQRT_2 * gamma as f64 * r.width()
                    / (num_blocks as f64 * eps_dim.value())
            })
            .collect();

        Ok(QueryPlan {
            epsilon: eps_total.value(),
            block_size,
            num_blocks,
            gamma,
            user_level: self.dataset_has_groups(dataset)?,
            split: BudgetSplit {
                aggregation_per_dim,
                range_estimation_per_dim,
                range_estimation_dims,
            },
            noise_std_per_dim,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset::Dataset;
    use crate::runtime::GuptRuntimeBuilder;
    use gupt_dp::OutputRange;

    fn eps(v: f64) -> Epsilon {
        Epsilon::new(v).unwrap()
    }

    fn range(lo: f64, hi: f64) -> OutputRange {
        OutputRange::new(lo, hi).unwrap()
    }

    fn rows(n: usize) -> Vec<Vec<f64>> {
        (0..n).map(|i| vec![(i % 50) as f64]).collect()
    }

    fn mean_spec() -> QuerySpec {
        QuerySpec::program(|b: &[Vec<f64>]| {
            vec![b.iter().map(|r| r[0]).sum::<f64>() / b.len().max(1) as f64]
        })
    }

    #[test]
    fn tight_plan_numbers() {
        let rt = GuptRuntimeBuilder::new()
            .register_dataset("t", rows(10_000), eps(10.0))
            .unwrap()
            .build();
        let spec = mean_spec()
            .epsilon(eps(2.0))
            .fixed_block_size(100)
            .range_estimation(RangeEstimation::Tight(vec![range(0.0, 50.0)]));
        let (plan, _) = rt.explain("t", &spec).unwrap();
        assert_eq!(plan.epsilon, 2.0);
        assert_eq!(plan.block_size, 100);
        assert_eq!(plan.num_blocks, 100);
        assert_eq!(plan.split.aggregation_per_dim, 2.0);
        assert_eq!(plan.split.range_estimation_dims, 0);
        // √2·50/(100·2) = 0.3535…
        assert!((plan.noise_std_per_dim[0] - 0.35355).abs() < 1e-4);
        assert!(!plan.user_level);
        // Nothing was charged.
        assert_eq!(rt.remaining_budget("t").unwrap(), 10.0);
    }

    #[test]
    fn loose_plan_halves_budget() {
        let rt = GuptRuntimeBuilder::new()
            .register_dataset("t", rows(10_000), eps(10.0))
            .unwrap()
            .build();
        let spec = mean_spec()
            .epsilon(eps(2.0))
            .range_estimation(RangeEstimation::Loose(vec![range(0.0, 500.0)]));
        let (plan, _) = rt.explain("t", &spec).unwrap();
        assert_eq!(plan.split.aggregation_per_dim, 1.0);
        assert_eq!(plan.split.range_estimation_per_dim, 1.0);
        assert_eq!(plan.split.range_estimation_dims, 1);
    }

    #[test]
    fn plan_matches_execution() {
        let rt = GuptRuntimeBuilder::new()
            .register_dataset("t", rows(5_000), eps(10.0))
            .unwrap()
            .seed(3)
            .build();
        let spec = mean_spec()
            .epsilon(eps(1.0))
            .fixed_block_size(50)
            .resampling(2)
            .range_estimation(RangeEstimation::Tight(vec![range(0.0, 50.0)]));
        let (plan, _) = rt.explain("t", &spec).unwrap();
        let answer = rt.run("t", spec).unwrap();
        assert_eq!(plan.block_size, answer.block_size);
        assert_eq!(plan.num_blocks, answer.num_blocks);
        assert_eq!(plan.gamma, answer.gamma);
        assert_eq!(plan.epsilon, answer.epsilon_spent);
    }

    #[test]
    fn user_level_flag_reflected() {
        let dataset = Dataset::new((0..100).map(|i| vec![(i % 10) as f64]).collect::<Vec<_>>())
            .unwrap()
            .with_group_column(0)
            .unwrap();
        let rt = GuptRuntimeBuilder::new()
            .register("u", dataset, eps(1.0))
            .unwrap()
            .build();
        let spec = mean_spec()
            .epsilon(eps(0.5))
            .range_estimation(RangeEstimation::Tight(vec![range(0.0, 10.0)]));
        assert!(rt.explain("u", &spec).unwrap().0.user_level);
    }

    #[test]
    fn display_renders() {
        let rt = GuptRuntimeBuilder::new()
            .register_dataset("t", rows(1_000), eps(1.0))
            .unwrap()
            .build();
        let spec = mean_spec()
            .epsilon(eps(0.5))
            .range_estimation(RangeEstimation::Tight(vec![range(0.0, 50.0)]));
        let text = rt.explain("t", &spec).unwrap().0.to_string();
        assert!(text.contains("query plan"), "{text}");
        assert!(text.contains("noise std"), "{text}");
    }

    #[test]
    fn traced_plan_reports_planning_stages() {
        use crate::telemetry::Stage;
        let rt = GuptRuntimeBuilder::new()
            .register_dataset("t", rows(1_000), eps(1.0))
            .unwrap()
            .build();
        let spec = mean_spec()
            .epsilon(eps(0.5))
            .range_estimation(RangeEstimation::Tight(vec![range(0.0, 50.0)]));
        let (plan, report) = rt.explain("t", &spec).unwrap();
        assert_eq!(plan.epsilon, 0.5);
        // A dry run visits exactly the two planning stages.
        assert!(report.stage(Stage::BlockPlanning).is_some());
        assert!(report.stage(Stage::BudgetResolution).is_some());
        assert!(report.stage(Stage::ChamberExecution).is_none());
        // And charges nothing.
        assert_eq!(rt.remaining_budget("t").unwrap(), 1.0);
    }

    #[test]
    fn missing_mode_rejected() {
        let rt = GuptRuntimeBuilder::new()
            .register_dataset("t", rows(100), eps(1.0))
            .unwrap()
            .build();
        assert!(rt.explain("t", &mean_spec()).is_err());
    }
}
