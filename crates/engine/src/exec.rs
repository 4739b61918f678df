//! Engine configuration and the plan-driven evaluation entry point.
//!
//! Evaluation is a three-stage pipeline:
//!
//! 1. the query is lowered into a validated [`LogicalPlan`] (an operator DAG
//!    with per-node ε/δ annotations, shared subqueries merged — see
//!    [`algebra::plan`]),
//! 2. the logical plan is lowered into a [`PhysicalPlan`]
//!    (see [`crate::physical`]), resolving each accuracy annotation against
//!    the [`EvalConfig`] — exact model counting vs the Karp–Luby FPRAS for
//!    `conf`, and the σ̂ decision strategy,
//! 3. the physical pipeline executes over [`EvaluatedRelation`] values,
//!    estimating all tuple lineages of each confidence-bearing operator as
//!    one parallel batch.
//!
//! [`LogicalPlan`]: algebra::LogicalPlan

use crate::error::Result;
use crate::physical::{ExecContext, PhysicalPlan};
use crate::space::SpaceCache;
use algebra::{LogicalPlan, Query};
use pdb::Tuple;
use rand::{Rng, RngCore};
use std::collections::BTreeMap;
use urel::{UDatabase, URelation};

/// How `σ̂` operators decide their predicates.
///
/// The two Monte Carlo modes are the *same* routine — prune by exact bounds,
/// then one Figure 3 loop (`approx::approximate_predicate`) per remaining
/// candidate on the sub-RNG of its candidate index — and differ only in the
/// loop's stop rule, and with it the sampling bill the exact backend's cost
/// model is asked to beat.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum ApproxSelectMode {
    /// Decide on exactly computed confidences (the reference semantics; no
    /// error is introduced, no randomness consumed).
    Exact,
    /// Figure 3 with the operator's own (ε₀, δ): stop once `Σ δ_i(ε) ≤ δ`.
    /// The bill is the Chernoff sample count at (ε₀, δ).
    Adaptive,
    /// Figure 3 for exactly `l` iterations — `l` batches of `w_i` samples
    /// per value, `w_i ≤ |F_i|` the event's sampling width
    /// (`confidence::chernoff`) — reporting the bound reached, `min(0.5, Σ δ′(ε, l))` over
    /// the sampled values.  This is the inner step of the Theorem 6.7
    /// whole-query approximation, which doubles `l` from the outside until
    /// the output error target is met.  The loop decides on estimates, so
    /// `FixedIterations(0)` runs one iteration like `FixedIterations(1)`.
    /// The bill is `l·w_i`.
    FixedIterations(usize),
}

/// How `conf` operators compute confidence values.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum ConfidenceMode {
    /// Exact model counting (Shannon expansion).
    Exact,
    /// The Karp–Luby FPRAS with the given default (ε, δ) for `conf`
    /// operators; explicit `conf_{ε,δ}` operators always use their own
    /// parameters.
    Fpras {
        /// Default relative error.
        epsilon: f64,
        /// Default error probability.
        delta: f64,
    },
}

/// Evaluator configuration.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct EvalConfig {
    /// Strategy for `σ̂` operators.
    pub approx_select: ApproxSelectMode,
    /// Strategy for `conf` operators.
    pub confidence: ConfidenceMode,
    /// Number of chunks large operator inputs are split into by the sharded
    /// executor (≤ 1 keeps every operator single-batch).  Results are
    /// bit-identical for any value; this is purely a performance knob.
    pub shards: usize,
    /// Let Monte Carlo `σ̂` modes decide candidates whose exact confidence
    /// bounds already determine the predicate, skipping their sampling
    /// entirely.  Pruned decisions are exact (error 0) and the other
    /// candidates keep their per-candidate sub-RNGs, so disabling this only
    /// spends more samples — it cannot change an unpruned decision.
    pub prune_approx_select: bool,
    /// Largest number of (simplified) terms for which the pruning bounds run
    /// their pairwise inclusion–exclusion round (degree-two Bonferroni lower
    /// bound, Hunter–Worsley upper bound); `0` restricts pruning to the
    /// linear first-order bounds.  Like pruning itself this is decision-
    /// neutral: refined bounds are exact, so a larger limit can only decide
    /// *more* candidates without sampling.
    pub pairwise_bound_limit: usize,
    /// Approximate per-chunk memory budget (bytes) of the out-of-core spill
    /// tier.  `0` (the default) keeps every operator chunk resident.  A
    /// positive budget makes the pure-operator executor split inputs into
    /// byte-budgeted chunks and write chunk *outputs* heavier than the
    /// budget to digest-verified temporary segment files, merging them back
    /// by streaming set-semantics decode — bounding resident output memory
    /// at roughly one chunk.  Results are bit-identical for any value; this
    /// is purely a memory/scale knob.
    pub spill_budget_bytes: usize,
    /// Hard budget of the exact backend on the approximate-confidence
    /// path, in expansion steps of the Shannon kernel that exact `conf`
    /// runs (the internal nodes of the decision-DNNF it would record); `0`
    /// (the default) disables the backend.  When enabled, the per-event
    /// cost model sends moderate-width lineages to that kernel and answers
    /// them **exactly** — exact `conf`'s bits, seed-independent, zero
    /// samples, trivially within every (ε, δ) guarantee — while expansions
    /// that outgrow the budget abort and sample exactly as before
    /// (bit-identical to a backend-free run).
    /// `confidence::cost::DEFAULT_NODE_BUDGET` is the recommended setting
    /// for serving.
    pub exact_backend_node_budget: u32,
    /// Derive approximate-confidence sampling streams from the *content* of
    /// the compiled lineage arena instead of the caller's seed.  Answers
    /// become pure functions of (content, configuration, ε/δ) — still one
    /// legitimate Karp–Luby run within every (ε, δ) guarantee — which lets
    /// concurrent serving requests that resolve to the same compiled events
    /// share one drawn block tally (see `engine::sched`) without breaking
    /// warm ≡ cold bit-identity.  Off by default: the classic behavior
    /// draws per-request streams from the caller's RNG.
    pub shared_sampling: bool,
}

/// Default shard count: one chunk per hardware thread, capped (chunking has
/// per-chunk overhead and the join index is shared anyway), but never below
/// 2, so the default configuration asks for chunked execution wherever the
/// pool has worker threads to run it on.  Derived from the machine's available
/// parallelism directly (not the pool's worker count) so configuration
/// defaults do not depend on pool initialization order; `with_shards` /
/// explicit field writes always win.
fn default_shards() -> usize {
    std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1)
        .clamp(2, 8)
}

impl Default for EvalConfig {
    fn default() -> Self {
        EvalConfig {
            approx_select: ApproxSelectMode::Adaptive,
            confidence: ConfidenceMode::Exact,
            shards: default_shards(),
            prune_approx_select: true,
            pairwise_bound_limit: confidence::DEFAULT_PAIRWISE_TERM_LIMIT,
            spill_budget_bytes: 0,
            exact_backend_node_budget: 0,
            shared_sampling: false,
        }
    }
}

impl EvalConfig {
    /// The fully exact reference configuration.
    pub fn exact() -> Self {
        EvalConfig {
            approx_select: ApproxSelectMode::Exact,
            confidence: ConfidenceMode::Exact,
            ..EvalConfig::default()
        }
    }

    /// Sets the shard count.
    pub fn with_shards(mut self, shards: usize) -> Self {
        self.shards = shards;
        self
    }

    /// Enables or disables σ̂ candidate pruning.
    pub fn with_pruning(mut self, prune: bool) -> Self {
        self.prune_approx_select = prune;
        self
    }

    /// Sets the term limit of the pairwise (Bonferroni / Hunter–Worsley)
    /// bound refinement; `0` keeps pruning on first-order bounds only.
    pub fn with_pairwise_bound_limit(mut self, limit: usize) -> Self {
        self.pairwise_bound_limit = limit;
        self
    }

    /// Sets the spill tier's per-chunk byte budget (`0` = fully resident).
    pub fn with_spill_budget_bytes(mut self, bytes: usize) -> Self {
        self.spill_budget_bytes = bytes;
        self
    }

    /// Sets the exact backend's hard node budget (`0` disables the
    /// backend; `confidence::cost::DEFAULT_NODE_BUDGET` is the recommended
    /// serving setting).
    pub fn with_exact_backend(mut self, node_budget: u32) -> Self {
        self.exact_backend_node_budget = node_budget;
        self
    }

    /// Enables or disables content-derived (shared) sampling streams.
    pub fn with_shared_sampling(mut self, shared: bool) -> Self {
        self.shared_sampling = shared;
        self
    }
}

/// The identity of a configuration: what keys prepared queries and pool
/// fingerprints, is checkpointed with warm entries, and seeds a physical
/// plan's signature.
pub(crate) fn config_digest(config: &EvalConfig) -> u64 {
    use std::collections::hash_map::DefaultHasher;
    use std::hash::{Hash, Hasher};
    let mut h = DefaultHasher::new();
    format!("{config:?}").hash(&mut h);
    h.finish()
}

/// Evaluation statistics.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct EvalStats {
    /// Total Karp–Luby samples drawn (FPRAS and σ̂ together).
    pub karp_luby_samples: u64,
    /// Number of exact model-counting calls.
    pub exact_confidence_calls: u64,
    /// Number of `conf`/`conf_{ε,δ}` operators evaluated.
    pub conf_operators: u64,
    /// Number of `σ̂` operators evaluated.
    pub approx_select_operators: u64,
    /// Number of candidate tuples decided by `σ̂` operators.
    pub approx_select_decisions: u64,
    /// Number of σ̂ candidates decided by exact confidence bounds before any
    /// sampling (a subset of `approx_select_decisions`).
    pub approx_select_pruned: u64,
    /// Non-trivial events of `conf_{ε,δ}` and Monte Carlo `σ̂` answered
    /// exactly by the exact backend (the budgeted Shannon kernel of exact
    /// `conf`) — zero samples drawn.
    pub exact_compiled_answers: u64,
    /// Non-trivial events of `conf_{ε,δ}` and Monte Carlo `σ̂` answered by
    /// Karp–Luby sampling: with `exact_compiled_answers`, every such event
    /// an unpruned candidate or a `conf` tuple estimated, counted once.
    pub sampled_answers: u64,
    /// Sampled events served from the shared block scheduler's tally
    /// instead of drawing fresh blocks (shared-sampling engines only).
    pub shared_block_hits: u64,
}

/// One evaluated (sub)query result.
#[derive(Clone, Debug)]
pub struct EvaluatedRelation {
    /// The result rows.
    pub relation: URelation,
    /// The paper's completeness flag `c` for the result.
    pub complete: bool,
    /// Per-tuple membership error bounds (missing tuples have error 0);
    /// non-zero only below/at approximate selections.
    pub errors: BTreeMap<Tuple, f64>,
}

impl EvaluatedRelation {
    /// The error bound recorded for a tuple (0 if none).
    pub fn error_of(&self, t: &Tuple) -> f64 {
        self.errors.get(t).copied().unwrap_or(0.0)
    }

    /// The largest per-tuple error bound in the result.
    pub fn max_error(&self) -> f64 {
        self.errors.values().copied().fold(0.0, f64::max)
    }
}

/// The outcome of evaluating a query.
#[derive(Clone, Debug)]
pub struct EvalOutput {
    /// The result relation.
    pub result: EvaluatedRelation,
    /// The database state after evaluation (includes the random variables
    /// introduced by `repair-key`).
    pub database: UDatabase,
    /// Evaluation statistics.
    pub stats: EvalStats,
}

/// The U-relational query engine.
#[derive(Clone, Debug, Default)]
pub struct UEngine {
    config: EvalConfig,
}

impl UEngine {
    /// Creates an engine with the given configuration.
    pub fn new(config: EvalConfig) -> Self {
        UEngine { config }
    }

    /// Evaluates a UA query: lowers it into a validated logical plan (the
    /// database supplies the catalog), then executes the physical pipeline.
    pub fn evaluate<R: Rng + ?Sized>(
        &self,
        database: &UDatabase,
        query: &Query,
        rng: &mut R,
    ) -> Result<EvalOutput> {
        let catalog = crate::adaptive_query::catalog_of(database)?;
        let plan = LogicalPlan::lower_validated(query, &catalog)?;
        self.evaluate_plan(database, &plan, rng)
    }

    /// Evaluates an already lowered logical plan.  Callers that re-evaluate
    /// the same query under different configurations (e.g. the Theorem 6.7
    /// adaptive driver) lower once and call this repeatedly.
    pub fn evaluate_plan<R: Rng + ?Sized>(
        &self,
        database: &UDatabase,
        plan: &LogicalPlan,
        rng: &mut R,
    ) -> Result<EvalOutput> {
        self.run_plan(database, plan, rng, false)
    }

    /// Evaluates a plan on the single-threaded, single-batch reference
    /// schedule ([`PhysicalPlan::execute_sequential`]).  The sharded
    /// executor used by [`evaluate_plan`](UEngine::evaluate_plan) is
    /// property-tested to produce bit-identical results; this entry point is
    /// the differential baseline.
    pub fn evaluate_plan_sequential<R: Rng + ?Sized>(
        &self,
        database: &UDatabase,
        plan: &LogicalPlan,
        rng: &mut R,
    ) -> Result<EvalOutput> {
        self.run_plan(database, plan, rng, true)
    }

    fn run_plan<R: Rng + ?Sized>(
        &self,
        database: &UDatabase,
        plan: &LogicalPlan,
        rng: &mut R,
        sequential: bool,
    ) -> Result<EvalOutput> {
        let physical = PhysicalPlan::lower(plan, self.config)?;
        // `&mut R` implements `RngCore` and is `Sized`, so it coerces to the
        // trait object the operator pipeline consumes.
        let mut rng_ref: &mut R = rng;
        let dyn_rng: &mut dyn RngCore = &mut rng_ref;
        let mut ctx = ExecContext {
            config: self.config,
            database: database.clone(),
            stats: EvalStats::default(),
            var_counter: 0,
            rng: dyn_rng,
            spaces: SpaceCache::new(),
            deadline: None,
            sampler: None,
        };
        let result = if sequential {
            physical.execute_sequential(&mut ctx)?
        } else {
            physical.execute(&mut ctx)?
        };
        Ok(EvalOutput {
            result,
            database: ctx.database,
            stats: ctx.stats,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_shards_track_available_parallelism() {
        let hw = std::thread::available_parallelism()
            .map(std::num::NonZeroUsize::get)
            .unwrap_or(1);
        assert_eq!(EvalConfig::default().shards, hw.clamp(2, 8));
    }

    #[test]
    fn explicit_shard_overrides_beat_the_default() {
        assert_eq!(EvalConfig::default().with_shards(1).shards, 1);
        assert_eq!(EvalConfig::default().with_shards(17).shards, 17);
        let direct = EvalConfig {
            shards: 3,
            ..EvalConfig::default()
        };
        assert_eq!(direct.shards, 3);
    }

    #[test]
    fn spill_budget_defaults_to_resident() {
        assert_eq!(EvalConfig::default().spill_budget_bytes, 0);
        assert_eq!(
            EvalConfig::exact()
                .with_spill_budget_bytes(4096)
                .spill_budget_bytes,
            4096
        );
    }
}
