//! # Confidence computation: exact and approximate
//!
//! Computing the confidence of a tuple represented in a U-relational
//! database means computing the probability of a DNF event — a disjunction of
//! partial assignments of independent discrete random variables (Section 4 of
//! Koch, PODS 2008).  The problem is #P-complete (Theorem 3.4), so this crate
//! offers both exact methods and the Karp–Luby FPRAS:
//!
//! * the event model — [`ProbabilitySpace`], [`Assignment`] (partial
//!   functions `Var → Dom`) and [`DnfEvent`].
//! * [`exact`] — world enumeration, inclusion–exclusion and Shannon
//!   expansion with memoisation/independence factorisation: the one exact
//!   algorithm of `conf`, `cert`, exact σ̂ and, under a node budget, the
//!   exact backend of `conf_{ε,δ}` and σ̂.
//! * [`KarpLubyEstimator`] — the unbiased estimator of Definition 4.1.
//! * [`chernoff`] — the sample-size bounds of Section 4 and the δ′(ε, l)
//!   form used by the predicate-approximation algorithm.
//! * [`approximate_confidence`] — the (ε, δ)-FPRAS of Proposition 4.2.
//! * [`IncrementalEstimator`] — anytime estimation, the building block of the
//!   Figure 3 algorithm in the `approx` crate.
//! * [`bounds`] — exact marginal-product / union bounds per event, refined
//!   by one round of inclusion–exclusion (degree-two Bonferroni lower bound,
//!   Hunter–Worsley spanning-tree upper bound): the sampling-free
//!   candidate-pruning primitive of the engine's σ̂ operators.
//! * [`compile`] — [`LineagePrograms`]: a batch of events flattened into
//!   shared flat instruction buffers over one arena (deduplicated literal
//!   slots and AND-chain terms, fixed-point sampling thresholds, memoised
//!   exact probabilities) — compiled once, evaluated allocation-free.
//! * [`bitworld`] — bit-parallel Monte Carlo over compiled programs:
//!   [`BitKarpLuby`] decides **64 sampled worlds per word** in blocks of
//!   1, 2 or 4 words (one AND/OR per literal and word, O(1) alias-table
//!   term choice), with [`bitworld::bernoulli_block`] drawing 64 Bernoulli
//!   lanes from ~7 words of randomness.
//! * [`dnnf`] — the exact kernel's computation recorded as a
//!   decision-DNNF (a decision per branch, a complement-of-product per
//!   component split, shared memo hits; hard node budget with
//!   abort-and-fallback) plus linear-time weighted model counting that
//!   replays the kernel's arithmetic bit for bit.
//! * [`cost`] — the per-event compile-vs-sample decision ([`Backend`]):
//!   a structural circuit-size estimate against the hard node budget and
//!   the Chernoff-implied sample bill.
//! * [`estimator`] — the seam the engine calls: [`ConfidenceEstimator`]
//!   estimates a compiled [`LineagePrograms`] batch in parallel (rayon),
//!   deterministically under a fixed seed via per-event sub-RNGs.
//!   [`ExactEstimator`] (memoised Shannon expansion) and [`FprasEstimator`]
//!   (cost model → the budgeted exact kernel or the block kernel) are,
//!   with Figure 3 over [`IncrementalEstimator`] states, the only
//!   production paths to a probability; the scalar [`KarpLubyEstimator`],
//!   [`approximate_confidence`], [`exact::by_enumeration`] and
//!   [`exact::by_inclusion_exclusion`] are the references the differential
//!   and property suites compare them against.
//!
//! ```
//! use confidence::{Assignment, DnfEvent, ProbabilitySpace, exact};
//!
//! // Pr[coin = fair ∧ two heads  ∨  coin = 2headed] = 1/2  (Example 2.2).
//! let mut space = ProbabilitySpace::new();
//! let c = space.add_variable(vec![2.0 / 3.0, 1.0 / 3.0]).unwrap();
//! let t1 = space.add_variable(vec![0.5, 0.5]).unwrap();
//! let t2 = space.add_variable(vec![0.5, 0.5]).unwrap();
//! let event = DnfEvent::new([
//!     Assignment::new([(c, 0), (t1, 0), (t2, 0)]).unwrap(),
//!     Assignment::new([(c, 1)]).unwrap(),
//! ]);
//! assert!((exact::probability(&event, &space).unwrap() - 0.5).abs() < 1e-12);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod adaptive;
pub mod bitworld;
pub mod bounds;
pub mod chernoff;
pub mod compile;
pub mod cost;
pub mod dnnf;
mod error;
pub mod estimator;
mod event;
pub mod exact;
mod fpras;
mod karp_luby;

pub use adaptive::IncrementalEstimator;
pub use bitworld::BitKarpLuby;
pub use bounds::{
    event_bounds, event_bounds_first_order, event_bounds_with_limit, EventBounds,
    DEFAULT_PAIRWISE_TERM_LIMIT, DEFAULT_TRIPLE_TERM_LIMIT,
};
pub use compile::LineagePrograms;
pub use cost::Backend;
pub use dnnf::Dnnf;
pub use error::{ConfidenceError, Result};
pub use estimator::{
    event_seed, ConfidenceEstimator, EventEstimate, ExactEstimator, FprasEstimator,
};
pub use event::{AltId, Assignment, DnfEvent, ProbabilitySpace, VarId, DISTRIBUTION_TOLERANCE};
pub use fpras::{approximate_confidence, ConfidenceEstimate, FprasParams};
pub use karp_luby::KarpLubyEstimator;
