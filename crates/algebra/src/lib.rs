//! # The Uncertainty Algebra (UA) query language
//!
//! The expressive compositional query language of Koch (PODS 2008),
//! Definition 2.1 plus the Section 6 additions:
//!
//! * the operations of relational algebra (σ, π, ×, ⋈, ∪, −, −c, ρ) applied
//!   in each possible world, with arithmetic allowed in conditions and in the
//!   arguments of π and ρ,
//! * `conf` and its approximate variant `conf_{ε,δ}`,
//! * the uncertainty-introducing `repair-key`,
//! * `poss` / `cert`, and
//! * the approximate selection `σ̂_{φ(conf[A⃗₁], …, conf[A⃗_k])}`.
//!
//! The crate provides the query AST ([`Query`]) with a fluent builder,
//! arithmetic [`Expr`]essions and Boolean [`Predicate`]s, static analysis
//! ([`validate`]: schema inference, completeness, positivity, the structural
//! parameters of Proposition 6.6), a textual [`parser`], and the logical
//! [`plan`]ner lowering queries into validated operator DAGs with per-node
//! ε/δ annotations — the representation every execution engine consumes.
//!
//! ```
//! use algebra::{parse_query, Query};
//!
//! let q = parse_query("project[CoinType](repairkey[ @ Count](Coins))").unwrap();
//! assert_eq!(q, Query::table("Coins").repair_key(&[], "Count").project(&["CoinType"]));
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod error;
mod expr;
pub mod parser;
pub mod plan;
mod predicate;
mod query;
pub mod validate;

pub use error::{AlgebraError, Result};
pub use expr::{BoundExpr, Expr};
pub use parser::{parse_expr, parse_predicate, parse_query};
pub use plan::{subplan_digest, Accuracy, LogicalOp, LogicalPlan, NodeId, PlanNode, SubplanDigest};
pub use predicate::{BoundPredicate, CmpOp, Predicate};
pub use query::{ConfTerm, ProjItem, Query, DEFAULT_DELTA, DEFAULT_EPSILON0};
pub use validate::{
    check_conf_terms, is_complete, is_positive, output_schema, repair_key_below_approx_select,
    structural_params, Catalog, StructuralParams,
};
