//! # UA query evaluation
//!
//! Two engines for the Uncertainty Algebra of Koch (PODS 2008), both
//! lowerings of the same logical plan ([`algebra::plan`]):
//!
//! * [`UEngine`] lowers queries into a validated [`algebra::LogicalPlan`]
//!   and executes the [`physical`] operator pipeline over U-relational
//!   databases: the parsimonious translation of Section 3, confidences
//!   computed exactly or by the Karp–Luby FPRAS (Section 4) through the
//!   batched parallel `confidence::estimator` layer, approximate selections
//!   decided by the Figure 3 algorithm (Section 5), and per-tuple error
//!   bounds propagated following the provenance analysis of Section 6.
//! * [`evaluate_naive`] executes the same plan over the explicit
//!   possible-worlds representation (Proposition 3.5) — exponential but
//!   exact, the ground truth for tests and benchmarks.
//!
//! On top of the per-operator machinery, [`evaluate_adaptive`] implements the
//! whole-query approximation of Theorem 6.7 (iteration doubling until the
//! output error bound meets the target), with the closed-form bounds of
//! Proposition 6.6 in [`error_bound`], and [`provenance`] provides the ≺
//! relation of Section 6 for analysis and for reproducing Example 6.5.
//!
//! ```
//! use algebra::parse_query;
//! use engine::{EvalConfig, UEngine};
//! use pdb::{relation, schema, tuple};
//! use rand::SeedableRng;
//! use urel::UDatabase;
//!
//! let db = UDatabase::from_complete_relations([
//!     ("Coins", relation![schema!["CoinType", "Count"]; ["fair", 2], ["2headed", 1]]),
//! ]);
//! let q = parse_query("conf(project[CoinType](repairkey[ @ Count](Coins)))").unwrap();
//! let engine = UEngine::new(EvalConfig::exact());
//! let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(0);
//! let out = engine.evaluate(&db, &q, &mut rng).unwrap();
//! assert!(out.result.relation.possible_tuples().contains(&tuple!["fair", 2.0 / 3.0]));
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod adaptive_query;
pub mod delta;
mod error;
pub mod error_bound;
mod exec;
pub mod faults;
mod naive_engine;
pub mod ops;
pub mod physical;
mod predicate_compile;
pub mod provenance;
pub mod sched;
pub mod serving;
mod space;
mod storage;
pub mod sync;

pub use adaptive_query::{active_domain_size, catalog_of, evaluate_adaptive, AdaptiveOutput};
pub use delta::DeltaInput;
pub use error::{EngineError, Result};
pub use error_bound::{proposition_6_6_bound, theorem_6_7_iterations, QueryShape};
pub use exec::{
    ApproxSelectMode, ConfidenceMode, EvalConfig, EvalOutput, EvalStats, EvaluatedRelation, UEngine,
};
pub use naive_engine::{evaluate_naive, evaluate_naive_plan, NaiveOutput};
pub use physical::{ExecContext, ExecSnapshot, OpClass, PhysicalPlan, PureCtx};
pub use predicate_compile::compile_predicate;
pub use sched::SampleScheduler;
pub use serving::{
    DegradedAnswer, DegradedReason, Request, RetryPolicy, ServingAnswer, ServingEngine,
    ServingLimits, ServingSession, ServingStats,
};
pub use space::{CompiledSpace, RelationEvents, SpaceCache};
pub use sync::{LockRank, OrderedMutex, OrderedRwLock};
