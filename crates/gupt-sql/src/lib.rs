//! DP-SQL: a SQL front-end for the GUPT runtime.
//!
//! GUPT's native interface is a [`gupt_core::QuerySpec`] — powerful,
//! but it asks the analyst to write Rust. This crate adds the analyst
//! interface the paper's §7 deployment sketch assumes: a small SQL
//! subset compiled onto the *existing* chamber pipeline, so SQL answers
//! inherit every guarantee the runtime already enforces (ledger
//! accounting, clamping, Laplace noise, caching, quotas) and add one of
//! their own — the **minimum-frequency rule** for `GROUP BY`.
//!
//! # The grammar
//!
//! ```text
//! SELECT agg(expr) [, agg(expr)…]
//! FROM <dataset>
//! [WHERE <predicate over c0, c1, …>]
//! [GROUP BY col [, col…]]
//! [WITH EPSILON e]
//!
//! agg ∈ { COUNT, SUM, AVG, MEDIAN, VARIANCE }
//! ```
//!
//! Columns are positional (`c0`, `c1`, …) because GUPT datasets are
//! unnamed row vectors. Predicates compare columns against literals
//! and compose with `AND`/`OR`/`NOT` (standard precedence).
//!
//! # Pipeline
//!
//! 1. **Parse** ([`parser::parse`]) — hand-rolled lexer + recursive
//!    descent, errors with 1-based line/column.
//! 2. **Plan** ([`plan`]) — each aggregate becomes a view-native
//!    filter program over [`gupt_core::BlockView`]s plus a tight
//!    output range derived from the analyst-supplied column ranges; a
//!    `GROUP BY` statement becomes one partitioned spec over its keys.
//! 3. **Execute** ([`exec::SqlRuntime`]) — one plain run for a single
//!    aggregate (bit-identical to the handwritten spec at the same
//!    seed), a §5.2 batch for a multi-aggregate statement, one
//!    partitioned run for a `GROUP BY` statement, then the
//!    minimum-frequency release gate — armed by
//!    default at [`DEFAULT_MIN_COUNT`], yielding an (ε, δ)-DP key-set
//!    release whose δ is quantified by [`gate_delta`]. Disarming it is
//!    an explicit, trusted-context decision ([`SqlOptions::trusted`]).
//!
//! ```
//! use gupt_core::GuptRuntimeBuilder;
//! use gupt_dp::{Epsilon, OutputRange};
//! use gupt_sql::{SqlOptions, SqlRuntime};
//!
//! let rows: Vec<Vec<f64>> = (0..2000).map(|i| vec![(i % 50) as f64]).collect();
//! let runtime = GuptRuntimeBuilder::new()
//!     .register_dataset("ages", rows, Epsilon::new(5.0).unwrap())
//!     .unwrap()
//!     .seed(1)
//!     .build();
//!
//! let options = SqlOptions {
//!     column_ranges: vec![OutputRange::new(0.0, 49.0).unwrap()],
//!     ..SqlOptions::default()
//! };
//! let answer = runtime
//!     .sql("SELECT AVG(c0) FROM ages WITH EPSILON 1", &options)
//!     .unwrap();
//! assert!((answer.rows[0].values[0] - 24.5).abs() < 10.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod ast;
pub mod error;
pub mod exec;
pub mod lexer;
pub mod parser;
pub mod plan;

pub use ast::{AggFunc, Aggregate, CmpOp, Predicate, Statement};
pub use error::SqlError;
pub use exec::{gate_delta, SqlAnswer, SqlOptions, SqlRow, SqlRuntime, DEFAULT_MIN_COUNT};
pub use parser::parse;
pub use plan::{
    aggregate_spec, grouped_spec, output_range, validate, AggregatePlan, PlanContext, RowFilter,
};
