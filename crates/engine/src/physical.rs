//! The physical operator pipeline: executing a [`LogicalPlan`] over a
//! U-relational database.
//!
//! [`PhysicalPlan::lower`] turns each logical node into a [`PhysicalOp`]
//! variant, resolving every accuracy annotation against the engine's
//! [`EvalConfig`] — `conf` becomes exact model counting or the Karp–Luby
//! FPRAS, `σ̂` becomes exact decisions or the Figure 3 loop under its
//! adaptive or its fixed-`l` stop rule.  The operator set is closed, so
//! naming, classing and running an operator are one `match` each.
//! Lowering then fuses every exact `conf` with the `σ` / `π` / `ρ` chain
//! below it ([`PhysicalNode::chain`]): Section 3 keeps each surviving row's
//! condition through those operators and Section 4's `conf` groups rows by
//! tuple, so the `conf` reads the chain's base in one pass — rows filtered
//! and projected through the chain's operators bound to column positions,
//! `(tuple, condition)` pairs sorted once by tuple — and the relations
//! between the links are never built.
//! [`PhysicalPlan::execute`] then schedules the nodes over value slots; a
//! consumer takes a clone of its input's slot (a pointer copy: relation
//! content is shared inside `urel`), and values stay in their slots until
//! the run ends.
//!
//! Operator → paper section map:
//!
//! | operator                                   | section             |
//! |--------------------------------------------|---------------------|
//! | [`Scan`](PhysicalOp::Scan), [`Select`](PhysicalOp::Select), [`Project`](PhysicalOp::Project), [`Extend`](PhysicalOp::Extend), [`Rename`](PhysicalOp::Rename), [`Product`](PhysicalOp::Product), [`NaturalJoin`](PhysicalOp::NaturalJoin), [`Union`](PhysicalOp::Union), [`Difference`](PhysicalOp::Difference) | §3 parsimonious translation |
//! | [`RepairKey`](PhysicalOp::RepairKey)       | §2.2 / §3           |
//! | [`Poss`](PhysicalOp::Poss), [`Cert`](PhysicalOp::Cert) | §2 (`cert` = the `conf = 1` test of Example 5.7) |
//! | [`Conf`](PhysicalOp::Conf)                 | §4 (exact / Prop. 4.2 FPRAS); an exact `conf` reads its input through its fused `σ`/`π`/`ρ` chain (§3) |
//! | [`ApproxSelect`](PhysicalOp::ApproxSelect) | §5 Figure 3, §6 error propagation (Lemma 6.4) |
//!
//! The confidence-bearing operators (`conf`, `cert`, `σ̂`) are *batched*:
//! they collect the DNF lineages of all tuples via the memoised
//! [`CompiledSpace::relation_events`] batch (an exact `conf`: the unmemoised
//! [`CompiledSpace::extract_events`] pass, through its fused chain) and
//! hand it to the
//! [`ConfidenceEstimator`] layer, which estimates every event in parallel
//! with a deterministic per-event sub-RNG.  Monte Carlo `σ̂` decisions are
//! likewise run concurrently across candidate tuples, one seeded RNG per
//! candidate, so results are identical for a fixed seed no matter how many
//! threads run.
//!
//! Execution itself is a **sharded slot executor**:
//!
//! * every *pure* operator (the per-world relational algebra, which touches
//!   neither the RNG nor the database) runs as soon as its inputs are ready,
//!   and all ready pure operators of a wave run concurrently — independent
//!   DAG branches overlap;
//! * large inputs are split into byte-budgeted row chunks
//!   ([`URelation::partition`]), the operator's one row kernel runs per
//!   chunk, and the per-chunk results are merged — a set-semantics merge,
//!   so chunked output is identical to single-batch output; the join
//!   indexes its right side by key once and every chunk probes that index;
//! * *stateful* operators (repair-key, the confidence operators) execute
//!   sequentially in node-id order, which keeps every RNG draw and variable
//!   name identical to the sequential reference schedule — results are
//!   bit-identical for a fixed seed regardless of shard count or thread
//!   count ([`PhysicalPlan::execute_sequential`] is the property-tested
//!   reference).
//!
//! [`PhysicalPlan::resume`] runs the pipeline from an [`ExecSnapshot`] — the
//! plan's [empty snapshot](PhysicalPlan::empty_snapshot) for a cold start.
//! What runs follows from which slot values the snapshot holds, by one
//! reverse pass from the root: a node runs iff its result is wanted and
//! absent, and its inputs are then wanted in turn.  A resume can capture a
//! new snapshot at the *sampling frontier*, just before
//! the first operator that consumes randomness; resuming from such a
//! snapshot is how the serving layer makes the steady-state cost of a
//! repeated query estimation-only.  A snapshot holds what its prefix
//! *added* to the evaluation context (the W-table `repair-key` left behind,
//! the variable counter, statistics, lineage memo, slot results), never
//! the relations the prefix read: whoever resumes it composes the context's
//! database from the current relations and the snapshot's W-table.

use crate::delta::{self, DeltaInput};
use crate::error::{EngineError, Result};
use crate::exec::{
    config_digest, ApproxSelectMode, ConfidenceMode, EvalConfig, EvalStats, EvaluatedRelation,
};
use crate::ops;
use crate::predicate_compile::compile_predicate;
use crate::space::{CompiledSpace, SpaceCache};
use algebra::{Accuracy, ConfTerm, LogicalOp, LogicalPlan, Predicate, ProjItem};
use approx::{
    approximate_predicate, evaluate_over_box, ApproxError, ApproxPredicate, ApproximationParams,
    BoxVerdict, Interval, Orthotope,
};
use confidence::{
    event_bounds_with_limit, event_seed, ConfidenceError, ConfidenceEstimator, DnfEvent,
    EventBounds, EventEstimate, ExactEstimator, FprasEstimator, FprasParams, IncrementalEstimator,
    LineagePrograms,
};
use pdb::{Schema, Tuple, Value};
use rand::RngCore;
use rand::SeedableRng;
use rayon::prelude::*;
use std::collections::BTreeMap;
use std::fmt;
use std::sync::Arc;
use urel::{Condition, UDatabase, URelation, URow, Var, WTable};

/// Minimum number of input rows before an operator is worth chunking.
const SHARD_MIN_ROWS: usize = 128;

/// Mutable evaluation state threaded through the pipeline.
pub struct ExecContext<'a> {
    /// The engine configuration the plan was lowered with.
    pub config: EvalConfig,
    /// The database being queried; `repair-key` adds variables and the final
    /// state is returned with the output.
    pub database: UDatabase,
    /// Accumulated statistics.
    pub stats: EvalStats,
    /// Counter for globally unique `repair-key` variable names.
    pub var_counter: usize,
    /// The caller's random source; operators draw *master seeds* from it and
    /// derive per-event/per-candidate sub-RNGs, so parallel estimation stays
    /// deterministic.
    pub rng: &'a mut dyn RngCore,
    /// The per-relation lineage batches memoised by every
    /// confidence-bearing operator of this evaluation (the compiled W-table
    /// itself is memoised with the table).
    pub spaces: SpaceCache,
    /// Cooperative deadline threaded into the sampling loops: estimation
    /// kernels probe the clock between sample blocks/batches and abort with
    /// `DeadlineExceeded { stage: "estimate" }` once it passes.  `None`
    /// never interrupts.  The probes draw no randomness, so runs that
    /// complete are bit-identical to deadline-free runs.
    pub deadline: Option<std::time::Instant>,
    /// The serving engine's shared block scheduler, present only on
    /// shared-sampling serving paths.  Purely a tally cache: answers are
    /// identical with or without it (canonical content-derived streams),
    /// so plain evaluations pass `None`.
    pub sampler: Option<std::sync::Arc<crate::sched::SampleScheduler>>,
}

/// Read-only state available to pure operators, which the slot executor may
/// run concurrently.
pub struct PureCtx<'a> {
    /// The database (base relations; pure operators never mutate it).
    pub database: &'a UDatabase,
    /// Number of chunks large inputs are split into (≤ 1 disables chunking).
    pub shards: usize,
    /// Spill tier budget ([`EvalConfig::spill_budget_bytes`]); `0` keeps
    /// every chunk resident.  A positive budget raises the chunk count so no
    /// chunk's input weighs much more than the budget, and chunk outputs
    /// above it go through digest-verified temporary segments.
    pub spill_budget: usize,
}

/// How a physical operator interacts with shared evaluation state; drives
/// the slot executor's schedule and the serving layer's snapshot point.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum OpClass {
    /// Reads only its inputs and base relations: safe to run concurrently
    /// with other pure operators.
    Pure,
    /// Mutates the evaluation context (introduces variables, accumulates
    /// statistics) but consumes no randomness: deterministic, executed in
    /// node-id order.
    Stateful,
    /// Stateful *and* draws master seeds from the context RNG (Monte Carlo
    /// estimation): everything at or above the first such node must re-run
    /// per evaluation.
    Sampling,
}

impl ExecContext<'_> {
    /// The read-only view pure operators run on, at the configured width.
    fn pure_ctx(&self) -> PureCtx<'_> {
        PureCtx {
            database: &self.database,
            shards: self.config.shards,
            spill_budget: self.config.spill_budget_bytes,
        }
    }
}

/// One operator of a physical plan: a [`LogicalOp`] with its accuracy
/// annotation resolved against the engine's [`EvalConfig`].
#[derive(Clone, Debug)]
pub enum PhysicalOp {
    /// Reads a base relation.
    Scan {
        /// Relation name.
        relation: String,
    },
    /// Per-world selection `σ_φ`.
    Select {
        /// Selection predicate.
        predicate: Predicate,
    },
    /// Generalised projection `π`.
    Project {
        /// Output items.
        items: Vec<ProjItem>,
    },
    /// Extension by computed attributes.
    Extend {
        /// Appended items.
        items: Vec<ProjItem>,
    },
    /// Attribute renaming `ρ`.
    Rename {
        /// Attribute to rename.
        from: String,
        /// New attribute name.
        to: String,
    },
    /// Cartesian product `×`.
    Product,
    /// Natural join `⋈`.
    NaturalJoin {
        /// True if the build (right) side is a scan: its join index is
        /// then memoised with the scanned relation's content.
        scanned_build: bool,
    },
    /// Union `∪`.
    Union,
    /// Difference; the unchecked `−` form verifies completeness at runtime
    /// (unrestricted difference over uncertain inputs is outside positive UA).
    Difference {
        /// True for the `−c` form (Proposition 3.3).
        checked: bool,
    },
    /// `poss`: the possible tuples, as a complete relation.
    Poss,
    /// `cert`: the `conf = 1` test — exactly the singularity of Example 5.7 —
    /// so it is always answered by exact model counting (batched).
    Cert,
    /// `repair-key_{A⃗@B}`: uncertainty introduction on a complete input.
    RepairKey {
        /// Key attributes.
        key: Vec<String>,
        /// Weight attribute.
        weight: String,
    },
    /// `conf` / `conf_{ε,δ}`: batched confidence computation over all tuple
    /// lineages at once.
    Conf {
        /// Name of the appended probability attribute.
        prob_attr: String,
        /// `None` for exact model counting, `Some` for the Karp–Luby FPRAS.
        params: Option<FprasParams>,
    },
    /// `σ̂_{φ(conf[A⃗₁], …, conf[A⃗_k])}` with its physical decision mode
    /// baked in at lowering time.
    ApproxSelect {
        /// Confidence terms the predicate refers to.
        terms: Vec<ConfTerm>,
        /// Predicate over the term placeholders.
        predicate: Predicate,
        /// Smallest relative half-width refined to.
        epsilon0: f64,
        /// Per-operator error bound.
        delta: f64,
        /// The decision strategy chosen by the engine configuration.
        mode: ApproxSelectMode,
    },
}

impl PhysicalOp {
    /// Operator mnemonic for plan rendering.
    pub fn name(&self) -> &'static str {
        match self {
            PhysicalOp::Scan { .. } => "scan",
            PhysicalOp::Select { .. } => "select",
            PhysicalOp::Project { .. } => "project",
            PhysicalOp::Extend { .. } => "extend",
            PhysicalOp::Rename { .. } => "rename",
            PhysicalOp::Product => "product",
            PhysicalOp::NaturalJoin { .. } => "join",
            PhysicalOp::Union => "union",
            PhysicalOp::Difference { checked: true } => "diffc",
            PhysicalOp::Difference { checked: false } => "diff",
            PhysicalOp::Poss => "poss",
            PhysicalOp::Cert => "cert",
            PhysicalOp::RepairKey { .. } => "repair-key",
            PhysicalOp::Conf { .. } => "conf",
            PhysicalOp::ApproxSelect { .. } => "approx-select",
        }
    }

    /// The operator's scheduling class.
    pub fn class(&self) -> OpClass {
        match self {
            PhysicalOp::Scan { .. }
            | PhysicalOp::Select { .. }
            | PhysicalOp::Project { .. }
            | PhysicalOp::Extend { .. }
            | PhysicalOp::Rename { .. }
            | PhysicalOp::Product
            | PhysicalOp::NaturalJoin { .. }
            | PhysicalOp::Union
            | PhysicalOp::Difference { .. }
            | PhysicalOp::Poss => OpClass::Pure,
            // Repair-key introduces variables (names drawn from the shared
            // counter) but consumes no randomness, and neither do exact model
            // counting and exact σ̂ decisions: deterministic, so they may sit
            // below the serving layer's snapshot point.
            PhysicalOp::RepairKey { .. }
            | PhysicalOp::Cert
            | PhysicalOp::Conf { params: None, .. }
            | PhysicalOp::ApproxSelect {
                mode: ApproxSelectMode::Exact,
                ..
            } => OpClass::Stateful,
            // The FPRAS and the Monte Carlo σ̂ modes draw a master seed per
            // execution.
            PhysicalOp::Conf {
                params: Some(_), ..
            }
            | PhysicalOp::ApproxSelect { .. } => OpClass::Sampling,
        }
    }

    /// Executes the operator on its (already evaluated) inputs.
    pub fn execute(
        &self,
        inputs: Vec<EvaluatedRelation>,
        ctx: &mut ExecContext<'_>,
    ) -> Result<EvaluatedRelation> {
        match self {
            PhysicalOp::RepairKey { key, weight } => {
                repair_key(unary_input(inputs), key, weight, ctx)
            }
            PhysicalOp::Conf { prob_attr, params } => {
                conf(unary_input(inputs), &[], prob_attr, *params, ctx)
            }
            PhysicalOp::Cert => cert(unary_input(inputs), ctx),
            PhysicalOp::ApproxSelect {
                terms,
                predicate,
                epsilon0,
                delta,
                mode,
            } => {
                let stop = (*epsilon0, *delta, *mode);
                approx_select(unary_input(inputs), terms, predicate, stop, ctx)
            }
            _ => self.execute_pure(inputs, &ctx.pure_ctx()),
        }
    }

    /// Executes a pure operator on its (already evaluated) inputs; the slot
    /// executor runs a wave of them concurrently over one shared [`PureCtx`].
    fn execute_pure(
        &self,
        inputs: Vec<EvaluatedRelation>,
        pctx: &PureCtx<'_>,
    ) -> Result<EvaluatedRelation> {
        // The row-local kernels run per chunk under the shard / spill gate.
        let sharded = |input: &URelation, f: &(dyn Fn(&URelation) -> Result<URelation> + Sync)| {
            sharded_unary(input, pctx.shards, pctx.spill_budget, f)
        };
        match self {
            PhysicalOp::Scan { relation } => scan(pctx.database, relation),
            PhysicalOp::Select { predicate } => {
                let input = unary_input(inputs);
                let relation = sharded(&input.relation, &|c| ops::select(c, predicate))?;
                Ok(propagate_unary(relation, &input))
            }
            PhysicalOp::Project { items } => {
                let input = unary_input(inputs);
                let relation = sharded(&input.relation, &|c| ops::project(c, items))?;
                propagate_projection(relation, &input, items)
            }
            PhysicalOp::Extend { items } => {
                let input = unary_input(inputs);
                let relation = sharded(&input.relation, &|c| ops::extend(c, items))?;
                Ok(propagate_unary(relation, &input))
            }
            PhysicalOp::Rename { from, to } => {
                let input = unary_input(inputs);
                let relation = ops::rename(&input.relation, from, to)?;
                Ok(propagate_unary(relation, &input))
            }
            PhysicalOp::Product => {
                let (left, right) = binary_inputs(inputs);
                let relation = sharded(&left.relation, &|c| ops::product(c, &right.relation))?;
                Ok(propagate_binary(relation, &left, &right))
            }
            PhysicalOp::NaturalJoin { scanned_build } => {
                let (left, right) = binary_inputs(inputs);
                // One kernel at every size: index the right side once — a
                // scanned one once per content — and probe it with the left
                // side, whole or per chunk under the same shard / spill gate
                // as every other row-local operator.
                let index =
                    ops::JoinIndex::build(left.relation.schema(), &right.relation, *scanned_build)?;
                let relation = sharded(&left.relation, &|c| index.probe(c))?;
                Ok(propagate_binary(relation, &left, &right))
            }
            PhysicalOp::Union => {
                let (left, right) = binary_inputs(inputs);
                let relation = ops::union(&left.relation, &right.relation)?;
                Ok(propagate_binary(relation, &left, &right))
            }
            PhysicalOp::Difference { checked } => {
                let (left, right) = binary_inputs(inputs);
                if !checked
                    && (!left.relation.is_complete_representation()
                        || !right.relation.is_complete_representation())
                {
                    return Err(EngineError::Unsupported(
                        "difference over uncertain relations is outside positive UA; use −c on complete inputs"
                            .into(),
                    ));
                }
                let relation = ops::difference_complete(&left.relation, &right.relation)?;
                Ok(propagate_binary(relation, &left, &right))
            }
            PhysicalOp::Poss => {
                let input = unary_input(inputs);
                let relation = URelation::from_complete(&input.relation.possible_tuples());
                Ok(propagate_unary_complete(relation, &input))
            }
            PhysicalOp::RepairKey { .. }
            | PhysicalOp::Cert
            | PhysicalOp::Conf { .. }
            | PhysicalOp::ApproxSelect { .. } => Err(EngineError::Invariant(format!(
                "operator {} is {:?} and must run through execute",
                self.name(),
                self.class()
            ))),
        }
    }

    /// Incrementally re-evaluates a *pure* operator from its old output and
    /// per-input row deltas, producing the same relation a fresh execution
    /// over the new inputs would (bit for bit — the rules of
    /// [`crate::delta`]).  Returns `Ok(None)` when the operator has no
    /// incremental rule (scans, stateful and sampling operators, cartesian
    /// products, difference), in which case the caller falls back to
    /// recomputation.
    pub fn execute_delta(
        &self,
        old_output: &URelation,
        inputs: &[DeltaInput<'_>],
    ) -> Result<Option<URelation>> {
        match self {
            PhysicalOp::Select { predicate } => {
                delta::select_delta(old_output, &inputs[0], predicate).map(Some)
            }
            PhysicalOp::Project { items } => {
                delta::project_delta(old_output, &inputs[0], items).map(Some)
            }
            PhysicalOp::Extend { items } => {
                delta::extend_delta(old_output, &inputs[0], items).map(Some)
            }
            PhysicalOp::Rename { .. } => delta::rename_delta(old_output, &inputs[0]).map(Some),
            PhysicalOp::NaturalJoin { .. } => {
                delta::natural_join_delta(old_output, &inputs[0], &inputs[1])
            }
            PhysicalOp::Union => delta::union_delta(old_output, &inputs[0], &inputs[1]).map(Some),
            PhysicalOp::Poss => delta::poss_delta(old_output, &inputs[0]).map(Some),
            PhysicalOp::Scan { .. }
            | PhysicalOp::Product
            | PhysicalOp::Difference { .. }
            | PhysicalOp::Cert
            | PhysicalOp::RepairKey { .. }
            | PhysicalOp::Conf { .. }
            | PhysicalOp::ApproxSelect { .. } => Ok(None),
        }
    }
}

/// A lowered, executable plan.
pub struct PhysicalPlan {
    nodes: Vec<PhysicalNode>,
    root: usize,
    /// Fingerprint of (node labels, operator shapes, lowering config); ties
    /// an [`ExecSnapshot`] to the plan that produced it.
    signature: u64,
}

/// The mutable slot state of one plan execution: the results present, and
/// which nodes still have to run to produce the root's
/// ([`PhysicalPlan::slot_state`]).
#[derive(Clone)]
struct SlotState {
    slots: Vec<Option<EvaluatedRelation>>,
    todo: Vec<bool>,
}

/// What the slot executor does on reaching the sampling frontier — the
/// first node that would draw randomness.
#[derive(Clone, Copy, PartialEq, Eq)]
enum AtFrontier {
    /// Keep going to the end of the plan.
    Continue,
    /// Snapshot the slot and context state, then keep going.
    Capture,
    /// Return with the deterministic prefix done and the rest unrun.
    Stop,
}

/// A resumable snapshot of a partially executed plan: captured at the
/// sampling frontier by a capturing [`PhysicalPlan::resume`], or built from
/// stored results by `PhysicalPlan::snapshot_from`.  It holds slot values
/// (pointer copies of the results — cloning a snapshot copies no rows) and,
/// derived from which of them are present, the nodes a resume still runs.
///
/// Everything below the frontier is deterministic for a fixed database, so
/// the serving layer evaluates a prepared query by resuming this snapshot
/// and running only the sampling suffix — parse, validation, lowering, the
/// relational prefix, lineage extraction and W-table compilation are all
/// skipped, leaving estimation as the steady-state cost.
///
/// A snapshot keeps the effects of its prefix (`PrefixEffects`), not the
/// content the prefix read: relations stay with whoever owns the database,
/// and the context a snapshot is resumed in must hold them together with
/// the snapshot's W-table.
#[derive(Clone)]
pub struct ExecSnapshot {
    state: SlotState,
    /// Signature of the plan the snapshot was captured on; resuming on any
    /// other plan is rejected.
    plan_signature: u64,
    effects: PrefixEffects,
}

/// What executing a deterministic prefix *added* to the evaluation context
/// it ran in — everything a snapshot carries besides slot results.  The
/// relation content the prefix only read is not part of it.
#[derive(Clone, Default)]
pub(crate) struct PrefixEffects {
    /// The W-table after the prefix: the base variables plus the ones its
    /// `repair-key` operators introduced.  `None` for the empty snapshot,
    /// which starts from whatever table the context's database holds.
    pub wtable: Option<WTable>,
    /// The repair-key variable counter after the prefix.
    pub var_counter: usize,
    /// The statistics the prefix accumulated.
    pub stats: EvalStats,
    /// The lineage batches the prefix memoised, shared with every run that
    /// resumes it (a batch is keyed by its compiled index and relation
    /// content, so sharing is safe).
    pub spaces: SpaceCache,
}

impl ExecSnapshot {
    /// True if the snapshot covers the whole plan (no sampling operator:
    /// resuming just returns the cached result).
    pub fn is_complete(&self) -> bool {
        !self.state.todo.contains(&true)
    }

    /// What the snapshotted prefix added to its evaluation context.
    pub(crate) fn effects(&self) -> &PrefixEffects {
        &self.effects
    }

    /// The slot values of the snapshot.  Every value of a run stays in its
    /// slot, so a captured snapshot holds the result of the full
    /// deterministic prefix — including interior results like a join under
    /// a projection — which is what the serving layer's cross-query
    /// snapshot pool stores, content-addressed by sub-plan digest.
    pub fn live_slots(&self) -> impl Iterator<Item = (usize, &EvaluatedRelation)> {
        self.state
            .slots
            .iter()
            .enumerate()
            .filter_map(|(id, slot)| slot.as_ref().map(|value| (id, value)))
    }
}

impl fmt::Debug for ExecSnapshot {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let todo = self.state.todo.iter().filter(|&&t| t).count();
        f.debug_struct("ExecSnapshot")
            .field("nodes_todo", &todo)
            .field("nodes_total", &self.state.todo.len())
            .finish()
    }
}

/// One node of a [`PhysicalPlan`].
pub struct PhysicalNode {
    /// The operator.
    pub operator: PhysicalOp,
    /// Input slots (topologically earlier nodes).
    pub inputs: Vec<usize>,
    /// The subquery label inherited from the logical node.
    pub label: String,
    /// For an exact `conf` fused with the `σ` / `π` / `ρ` chain below it
    /// ([`PhysicalPlan::lower`]): the chain's nodes, bottom up.  The node's
    /// input is then the chain's base, which it reads through the chain's
    /// operators; the chain's own nodes stay in the plan with no consumer,
    /// so no run computes them.  Empty for every other node.
    pub chain: Vec<usize>,
}

/// EXPLAIN form: one line per node — its operator, its inputs and its
/// label.  A fused `conf` shows the chain it reads its input through, and
/// each node of the chain the `conf` that reads it.
impl fmt::Display for PhysicalPlan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "PhysicalPlan (root = #{})", self.root)?;
        let mut read_by = vec![None; self.nodes.len()];
        for (id, node) in self.nodes.iter().enumerate() {
            for &link in &node.chain {
                read_by[link] = Some(id);
            }
        }
        for (id, node) in self.nodes.iter().enumerate() {
            let inputs: Vec<String> = node.inputs.iter().map(|i| format!("#{i}")).collect();
            let chain: String = (node.chain.iter())
                .map(|&i| format!(" → {} #{i}", self.nodes[i].operator.name()))
                .collect();
            let name = node.operator.name();
            write!(
                f,
                "  #{id} {name}({}{chain})  ← {}",
                inputs.join(", "),
                node.label
            )?;
            if let Some(reader) = read_by[id] {
                write!(f, "  [fused into #{reader}]")?;
            }
            writeln!(f)?;
        }
        Ok(())
    }
}

impl fmt::Debug for PhysicalPlan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Display::fmt(self, f)
    }
}

impl PhysicalPlan {
    /// Lowers a logical plan, resolving accuracy annotations against the
    /// engine configuration, and fuses every exact `conf` with the `σ` /
    /// `π` / `ρ` chain below it: the `conf` reads the chain's base through
    /// the chain's operators in one pass, and the relations between the
    /// links are never built.
    ///
    /// A link joins the chain only if the link above it (or the `conf`) is
    /// its one consumer in the plan, and a chain is fused only if no `σ̂`
    /// sits below its base — `σ̂` is the only source of error bounds, so
    /// the fused `conf`'s are empty, as the unfused route's would be.  A
    /// sampled `conf` is not fused: it memoises its lineage by its
    /// materialised input's content.  Node ids, labels and the plan
    /// signature are those of the unfused plan.
    pub fn lower(plan: &LogicalPlan, config: EvalConfig) -> Result<PhysicalPlan> {
        let mut physical = PhysicalPlan::lower_unfused(plan, config)?;
        physical.fuse_conf_chains();
        Ok(physical)
    }

    /// [`lower`](PhysicalPlan::lower) without the fusion: one node per
    /// logical node, each reading its inputs' results as they are.  Tests
    /// execute it as the reference of the fused plan.
    fn lower_unfused(plan: &LogicalPlan, config: EvalConfig) -> Result<PhysicalPlan> {
        let mut nodes = Vec::with_capacity(plan.len());
        for node in plan.nodes() {
            let operator = match &node.op {
                LogicalOp::Scan { relation } => PhysicalOp::Scan {
                    relation: relation.clone(),
                },
                LogicalOp::Select { predicate } => PhysicalOp::Select {
                    predicate: predicate.clone(),
                },
                LogicalOp::Project { items } => PhysicalOp::Project {
                    items: items.clone(),
                },
                LogicalOp::Extend { items } => PhysicalOp::Extend {
                    items: items.clone(),
                },
                LogicalOp::Rename { from, to } => PhysicalOp::Rename {
                    from: from.clone(),
                    to: to.clone(),
                },
                LogicalOp::Product => PhysicalOp::Product,
                LogicalOp::NaturalJoin => PhysicalOp::NaturalJoin {
                    scanned_build: matches!(
                        plan.nodes()[node.inputs[1]].op,
                        LogicalOp::Scan { .. }
                    ),
                },
                LogicalOp::Union => PhysicalOp::Union,
                LogicalOp::Difference { checked } => PhysicalOp::Difference { checked: *checked },
                LogicalOp::Poss => PhysicalOp::Poss,
                LogicalOp::Cert => PhysicalOp::Cert,
                LogicalOp::RepairKey { key, weight } => PhysicalOp::RepairKey {
                    key: key.clone(),
                    weight: weight.clone(),
                },
                LogicalOp::Conf { prob_attr } => {
                    let params = match node.accuracy {
                        // An explicit `conf_{ε,δ}` always uses its own
                        // parameters.
                        Accuracy::Fpras { epsilon, delta } => Some(
                            FprasParams::new(epsilon, delta).map_err(EngineError::Confidence)?,
                        ),
                        // A plain `conf` follows the engine configuration.
                        _ => match config.confidence {
                            ConfidenceMode::Exact => None,
                            ConfidenceMode::Fpras { epsilon, delta } => Some(
                                FprasParams::new(epsilon, delta)
                                    .map_err(EngineError::Confidence)?,
                            ),
                        },
                    };
                    PhysicalOp::Conf {
                        prob_attr: prob_attr.clone(),
                        params,
                    }
                }
                LogicalOp::ApproxSelect { terms, predicate } => {
                    let (epsilon0, delta) = match node.accuracy {
                        Accuracy::ApproxSelect { epsilon0, delta } => (epsilon0, delta),
                        other => {
                            return Err(EngineError::Invariant(format!(
                                "σ̂ plan node carries accuracy {other:?} instead of \
                                 Accuracy::ApproxSelect"
                            )))
                        }
                    };
                    PhysicalOp::ApproxSelect {
                        terms: terms.clone(),
                        predicate: predicate.clone(),
                        epsilon0,
                        delta,
                        mode: config.approx_select,
                    }
                }
            };
            nodes.push(PhysicalNode {
                operator,
                inputs: node.inputs.clone(),
                label: node.label.clone(),
                chain: Vec::new(),
            });
        }
        let signature = {
            use std::hash::{Hash, Hasher};
            let mut hasher = std::collections::hash_map::DefaultHasher::new();
            config_digest(&config).hash(&mut hasher);
            for node in plan.nodes() {
                node.label.hash(&mut hasher);
                node.inputs.hash(&mut hasher);
            }
            plan.root().hash(&mut hasher);
            hasher.finish()
        };
        Ok(PhysicalPlan {
            nodes,
            root: plan.root(),
            signature,
        })
    }

    /// Fuses every exact `conf` with the chain below it (see
    /// [`lower`](PhysicalPlan::lower)): rewires its input to the chain's
    /// base and records the chain's nodes.
    fn fuse_conf_chains(&mut self) {
        let mut consumers = vec![0usize; self.nodes.len()];
        let mut sigma_hat_below = vec![false; self.nodes.len()];
        for (id, node) in self.nodes.iter().enumerate() {
            for &input in &node.inputs {
                consumers[input] += 1;
                sigma_hat_below[id] |= sigma_hat_below[input];
            }
            sigma_hat_below[id] |= matches!(node.operator, PhysicalOp::ApproxSelect { .. });
        }
        for id in 0..self.nodes.len() {
            if !matches!(
                self.nodes[id].operator,
                PhysicalOp::Conf { params: None, .. }
            ) {
                continue;
            }
            let mut chain = Vec::new();
            let mut base = self.nodes[id].inputs[0];
            while consumers[base] == 1
                && matches!(
                    self.nodes[base].operator,
                    PhysicalOp::Select { .. }
                        | PhysicalOp::Project { .. }
                        | PhysicalOp::Rename { .. }
                )
            {
                chain.push(base);
                base = self.nodes[base].inputs[0];
            }
            if chain.is_empty() || sigma_hat_below[base] {
                continue;
            }
            chain.reverse();
            self.nodes[id].inputs = vec![base];
            self.nodes[id].chain = chain;
        }
    }

    /// The nodes in execution order.
    pub fn nodes(&self) -> &[PhysicalNode] {
        &self.nodes
    }

    /// The root (output) node id.
    pub fn root(&self) -> usize {
        self.root
    }

    /// Node id of the *sampling frontier*: the smallest id of an operator
    /// that consumes randomness (`len()` if the plan is fully deterministic).
    pub fn sampling_frontier(&self) -> usize {
        self.nodes
            .iter()
            .position(|n| n.operator.class() == OpClass::Sampling)
            .unwrap_or(self.nodes.len())
    }

    /// For every node, whether it belongs to the *deterministic prefix*: the
    /// set of nodes that have executed when a capturing
    /// [`resume`](PhysicalPlan::resume) reaches the sampling frontier and
    /// captures its snapshot.
    ///
    /// The set is a pure function of the plan: sampling nodes never belong;
    /// other stateful nodes belong iff their id precedes the frontier (they
    /// execute in id order); pure nodes belong iff all their inputs do (the
    /// executor runs pure waves to a fixpoint before touching the frontier).
    /// In particular every scan belongs — a plan's whole relation footprint
    /// is always part of its prefix.
    pub fn prefix_done_flags(&self) -> Vec<bool> {
        let frontier = self.sampling_frontier();
        let mut done = vec![false; self.nodes.len()];
        for id in 0..self.nodes.len() {
            done[id] = match self.nodes[id].operator.class() {
                OpClass::Sampling => false,
                OpClass::Stateful => id < frontier,
                OpClass::Pure => self.nodes[id].inputs.iter().all(|&i| done[i]),
            };
        }
        done
    }

    /// The ids of the stateful (non-pure, non-sampling) nodes of the
    /// deterministic prefix, in execution (id) order.
    ///
    /// This sequence determines every context effect of the prefix — the
    /// repair-key variables added to the W-table (and hence the variable
    /// counter), the statistics, and the compiled probability spaces — so
    /// two plans whose stateful prefix sequences have equal sub-plan content
    /// can share one captured prefix snapshot bit for bit.
    pub fn stateful_prefix(&self) -> Vec<usize> {
        let done = self.prefix_done_flags();
        (0..self.nodes.len())
            .filter(|&id| done[id] && self.nodes[id].operator.class() != OpClass::Pure)
            .collect()
    }

    /// The one need-pass: the slot state of a run over the stored results
    /// `value_of` supplies.  Walking from the root down, a node's result is
    /// asked for only if it is wanted — it is the root's, or an input of a
    /// node that has to run — and a node has to run iff it is wanted and
    /// `value_of` has no result for it.  A present result cuts the walk:
    /// nothing below it is asked for, or runs, on its account.
    fn slot_state(
        &self,
        mut value_of: impl FnMut(usize) -> Option<EvaluatedRelation>,
    ) -> SlotState {
        let mut wanted = vec![false; self.nodes.len()];
        let mut slots = vec![None; self.nodes.len()];
        let mut todo = vec![false; self.nodes.len()];
        wanted[self.root] = true;
        for id in (0..self.nodes.len()).rev() {
            if !wanted[id] {
                continue;
            }
            slots[id] = value_of(id);
            if slots[id].is_none() {
                todo[id] = true;
                for &input in &self.nodes[id].inputs {
                    wanted[input] = true;
                }
            }
        }
        SlotState { slots, todo }
    }

    /// Builds a resumable [`ExecSnapshot`] of this plan's deterministic
    /// prefix from content-addressed parts (the serving layer stores them
    /// per sub-plan rather than per query): `value_of(id)` is the stored
    /// result of prefix node `id`, if there is one — asked for only when the
    /// need-pass wants it — and `effects` are those of the full stateful
    /// prefix the parts were computed under.
    ///
    /// Resuming the snapshot recomputes, from the context's database, the
    /// *pure* prefix results that are wanted and absent — this is how the
    /// serving layer re-warms exactly the sub-plans an update invalidated —
    /// and the second component says how many there are.  A wanted, absent
    /// *stateful* result cannot be recomputed without re-running the whole
    /// stateful prefix (the supplied effects already include it), so it
    /// makes the parts unusable: `None`.  With `effects` `None` nothing of
    /// the stateful prefix has run yet — a cold start, which runs every
    /// wanted stateful node and never misses — so `value_of` may supply only
    /// results no stateful node feeds.
    pub(crate) fn snapshot_from(
        &self,
        mut value_of: impl FnMut(usize) -> Option<EvaluatedRelation>,
        effects: Option<PrefixEffects>,
    ) -> Option<(ExecSnapshot, u64)> {
        let prefix = self.prefix_done_flags();
        let state = self.slot_state(|id| prefix[id].then(|| value_of(id)).flatten());
        let mut recomputed = 0;
        for id in (0..self.nodes.len()).filter(|&id| prefix[id] && state.todo[id]) {
            if self.nodes[id].operator.class() == OpClass::Pure {
                recomputed += 1;
            } else if effects.is_some() {
                return None;
            }
        }
        let snapshot = ExecSnapshot {
            state,
            plan_signature: self.signature,
            effects: effects.unwrap_or_default(),
        };
        Some((snapshot, recomputed))
    }

    /// Executes the pipeline with the sharded slot executor; results are
    /// bit-identical to [`execute_sequential`](PhysicalPlan::execute_sequential)
    /// for a fixed seed.  Every intermediate result stays in its slot until
    /// the run ends (as it always did on the serving layer's capturing
    /// runs): consumers take pointer copies, so there is no last consumer to
    /// move a value to.
    pub fn execute(&self, ctx: &mut ExecContext<'_>) -> Result<EvaluatedRelation> {
        let mut state = self.slot_state(|_| None);
        self.run(ctx, &mut state, AtFrontier::Continue)?;
        Ok(self.take_root(state))
    }

    /// The snapshot of this plan with nothing executed and nothing added —
    /// `snapshot_from` with no stored results and no effects: resuming it is
    /// a cold start.
    pub fn empty_snapshot(&self) -> ExecSnapshot {
        let (snapshot, _) =
            (self.snapshot_from(|_| None, None)).expect("a cold start never misses");
        snapshot
    }

    /// Runs the plan from `snapshot` — captured on this plan,
    /// built from stored parts (`snapshot_from`), or its
    /// [`empty_snapshot`](PhysicalPlan::empty_snapshot) — to the end:
    /// restores the snapshot's slot state and context effects and runs only
    /// the nodes whose results are wanted and absent.  `ctx.database` must
    /// be the database at the snapshot point: the relations the prefix
    /// read, over the snapshot's W-table (for the empty snapshot, the base
    /// table).
    ///
    /// With `capture` set, a snapshot is taken at the sampling frontier (of
    /// the whole plan, if it is deterministic) and returned.  The serving
    /// layer captures on cold starts and when the snapshot was built with
    /// wanted pure results absent (invalidated by an update, or never
    /// computed by the query that pooled the prefix): they are recomputed
    /// during the resume, and the re-captured snapshot carries them back to
    /// the pool.
    pub fn resume(
        &self,
        ctx: &mut ExecContext<'_>,
        snapshot: ExecSnapshot,
        capture: bool,
    ) -> Result<(EvaluatedRelation, Option<ExecSnapshot>)> {
        let at_frontier = if capture {
            AtFrontier::Capture
        } else {
            AtFrontier::Continue
        };
        let mut state = self.restore(ctx, snapshot)?;
        let captured = self.run(ctx, &mut state, at_frontier)?;
        Ok((self.take_root(state), captured))
    }

    /// Moves a snapshot's context effects into `ctx` and returns its slot
    /// state for the run.  The run shares the snapshot's space cache: the
    /// lineage it memoises lands there, and the next resume finds it.
    fn restore(&self, ctx: &mut ExecContext<'_>, snapshot: ExecSnapshot) -> Result<SlotState> {
        if snapshot.plan_signature != self.signature {
            return Err(EngineError::Invariant(
                "snapshot resumed on a plan other than the one that captured it \
                 (different query, or different lowering configuration)"
                    .into(),
            ));
        }
        let effects = snapshot.effects;
        // The snapshot's slot results were computed over its W-table: a
        // context over any other table would read them under other
        // probabilities.  A resume normally holds the very table (a
        // pointer comparison); an equal one is as good.
        let current = ctx.database.wtable();
        if (effects.wtable.as_ref()).is_some_and(|w| !w.shares_content(current) && w != current) {
            return Err(EngineError::Invariant(
                "snapshot resumed over a database that does not hold its W-table".into(),
            ));
        }
        ctx.var_counter = effects.var_counter;
        ctx.stats = effects.stats;
        ctx.spaces = effects.spaces;
        Ok(snapshot.state)
    }

    fn take_root(&self, mut state: SlotState) -> EvaluatedRelation {
        state.slots[self.root]
            .take()
            .expect("the root slot holds the query result")
    }

    /// The single-threaded, single-batch reference schedule: every node the
    /// root needs runs in id order on one unchunked batch.  The sharded
    /// executor is property-tested to produce bit-identical results; this
    /// stays as the differential baseline (and as documentation of the
    /// semantics).
    pub fn execute_sequential(&self, ctx: &mut ExecContext<'_>) -> Result<EvaluatedRelation> {
        let mut state = self.slot_state(|_| None);
        for id in (0..self.nodes.len()).filter(|&id| state.todo[id]) {
            let inputs = self.gather_inputs(id, &state);
            let operator = &self.nodes[id].operator;
            // Pure operators get a single-batch view of their own; the
            // context's configuration is never touched.
            state.slots[id] = Some(if operator.class() == OpClass::Pure {
                let pctx = PureCtx {
                    shards: 1,
                    ..ctx.pure_ctx()
                };
                operator.execute_pure(inputs, &pctx)?
            } else {
                self.execute_stateful(id, inputs, ctx)?
            });
        }
        Ok(self.take_root(state))
    }

    /// Runs stateful node `id` on its inputs: a fused `conf` reads its
    /// input through its chain's operators, any other node runs its
    /// operator.
    fn execute_stateful(
        &self,
        id: usize,
        inputs: Vec<EvaluatedRelation>,
        ctx: &mut ExecContext<'_>,
    ) -> Result<EvaluatedRelation> {
        let node = &self.nodes[id];
        match &node.operator {
            PhysicalOp::Conf { prob_attr, params } if !node.chain.is_empty() => {
                let chain: Vec<&PhysicalOp> = node
                    .chain
                    .iter()
                    .map(|&i| &self.nodes[i].operator)
                    .collect();
                conf(unary_input(inputs), &chain, prob_attr, *params, ctx)
            }
            operator => operator.execute(inputs, ctx),
        }
    }

    /// A node's inputs: clones (pointer copies) of its input slots.
    fn gather_inputs(&self, id: usize, state: &SlotState) -> Vec<EvaluatedRelation> {
        let value = |&i: &usize| state.slots[i].clone().expect("inputs run first");
        self.nodes[id].inputs.iter().map(value).collect()
    }

    /// Runs every currently ready pure node (concurrently when there are
    /// several); returns whether any node ran.
    fn run_pure_wave(&self, state: &mut SlotState, pctx: &PureCtx<'_>) -> Result<bool> {
        let ready: Vec<usize> = (0..self.nodes.len())
            .filter(|&id| {
                state.todo[id]
                    && self.nodes[id].operator.class() == OpClass::Pure
                    && self.nodes[id].inputs.iter().all(|&i| !state.todo[i])
            })
            .collect();
        if ready.is_empty() {
            return Ok(false);
        }
        let work: Vec<(usize, Vec<EvaluatedRelation>)> = ready
            .into_iter()
            .map(|id| (id, self.gather_inputs(id, state)))
            .collect();
        let results: Vec<(usize, EvaluatedRelation)> = if work.len() == 1 {
            let (id, inputs) = work.into_iter().next().expect("one ready node");
            vec![(id, self.nodes[id].operator.execute_pure(inputs, pctx)?)]
        } else {
            work.into_par_iter()
                .map(|(id, inputs)| {
                    self.nodes[id]
                        .operator
                        .execute_pure(inputs, pctx)
                        .map(|r| (id, r))
                })
                .collect::<Result<_>>()?
        };
        for (id, result) in results {
            state.slots[id] = Some(result);
            state.todo[id] = false;
        }
        Ok(true)
    }

    /// The slot executor: pure waves to a fixpoint, then the next stateful
    /// node in id order, until every node of `state.todo` has run — or, under
    /// [`AtFrontier::Stop`], until the next node would draw randomness.
    /// Under [`AtFrontier::Capture`] the slot/context state is snapshotted
    /// at the sampling frontier and returned.
    fn run(
        &self,
        ctx: &mut ExecContext<'_>,
        state: &mut SlotState,
        at_frontier: AtFrontier,
    ) -> Result<Option<ExecSnapshot>> {
        let mut snapshot = None;
        loop {
            while self.run_pure_wave(state, &ctx.pure_ctx())? {}
            // The smallest-id unexecuted stateful node is always ready once
            // pure nodes are at a fixpoint: any unexecuted input chain would
            // bottom out at a smaller-id unexecuted stateful node.
            let Some(id) = (0..self.nodes.len())
                .find(|&id| state.todo[id] && self.nodes[id].operator.class() != OpClass::Pure)
            else {
                break;
            };
            debug_assert!(
                self.nodes[id].inputs.iter().all(|&i| !state.todo[i]),
                "stateful node #{id} scheduled before its inputs"
            );
            if self.nodes[id].operator.class() == OpClass::Sampling {
                match at_frontier {
                    AtFrontier::Stop => return Ok(None),
                    AtFrontier::Capture if snapshot.is_none() => {
                        snapshot = Some(self.capture_snapshot(state, ctx));
                    }
                    _ => {}
                }
            }
            let inputs = self.gather_inputs(id, state);
            state.slots[id] = Some(self.execute_stateful(id, inputs, ctx)?);
            state.todo[id] = false;
        }
        debug_assert!(!state.todo.contains(&true), "executor left nodes unrun");
        if at_frontier == AtFrontier::Capture && snapshot.is_none() {
            // Fully deterministic plan: the snapshot holds the final state,
            // including the root result.
            snapshot = Some(self.capture_snapshot(state, ctx));
        }
        Ok(snapshot)
    }

    /// The run's state as a snapshot: every result so far (pointer copies;
    /// the ones no resume wants are what the serving pool shares across
    /// queries) and what is left to run.
    fn capture_snapshot(&self, state: &SlotState, ctx: &ExecContext<'_>) -> ExecSnapshot {
        let effects = PrefixEffects {
            wtable: Some(ctx.database.wtable().clone()),
            var_counter: ctx.var_counter,
            stats: ctx.stats,
            // The snapshot *shares* the capturing run's cache map: the
            // sampling suffix still to run after this capture compiles the
            // post-frontier W-table state and extracts/compiles the lineage
            // programs it estimates over, and those must land in the
            // retained snapshot so warm resumes pay sampling only.
            spaces: ctx.spaces.clone(),
        };
        ExecSnapshot {
            state: state.clone(),
            plan_signature: self.signature,
            effects,
        }
    }

    /// Whether the plan has the shape the serving layer can answer in
    /// *degraded* mode: the root is an approximate (sampling) `conf`
    /// operator and everything below it is the deterministic prefix.  For
    /// such plans the σ̂ interval bounds over the root's input lineage are a
    /// correct, sampling-free answer of last resort (see
    /// [`execute_bounds`](PhysicalPlan::execute_bounds)).
    pub fn bounds_root(&self) -> bool {
        let prefix = self.prefix_done_flags();
        let root = &self.nodes[self.root];
        matches!(
            root.operator,
            PhysicalOp::Conf {
                params: Some(_),
                ..
            }
        ) && root.inputs.len() == 1
            && (0..self.nodes.len()).all(|id| id == self.root || prefix[id])
    }

    /// Degraded evaluation for [`bounds_root`](PhysicalPlan::bounds_root)
    /// plans: runs the deterministic prefix only — whatever of it `snapshot`
    /// (see [`resume`](PhysicalPlan::resume)) has not already done — by
    /// stopping the slot executor at the sampling frontier, and answers the
    /// root `conf` with the exact interval bounds of
    /// [`confidence::event_bounds_with_limit`] (first-order ∩ Bonferroni
    /// lower, Hunter–Worsley upper) over each output tuple's lineage,
    /// widened by the tuple's accumulated input error.  Consumes no
    /// randomness and draws no samples; the true confidence of every tuple
    /// is guaranteed to lie within its returned bounds.
    pub fn execute_bounds(
        &self,
        ctx: &mut ExecContext<'_>,
        snapshot: ExecSnapshot,
        pairwise_limit: usize,
    ) -> Result<Vec<(Tuple, EventBounds)>> {
        if !self.bounds_root() {
            return Err(EngineError::Unsupported(
                "degraded bounds answers need a plan rooted at an approximate conf \
                 over a deterministic prefix"
                    .into(),
            ));
        }
        let mut state = self.restore(ctx, snapshot)?;
        self.run(ctx, &mut state, AtFrontier::Stop)?;
        let input_id = self.nodes[self.root].inputs[0];
        let input = state.slots[input_id]
            .as_ref()
            .expect("prefix executed: the root's input slot is live");
        let compiled = ctx.spaces.compiled(ctx.database.wtable())?;
        let lineage = compiled.relation_events(&input.relation)?;
        let mut out = Vec::with_capacity(lineage.tuples().len());
        for (tuple, event) in lineage.tuples().iter().zip(lineage.events()) {
            let b = event_bounds_with_limit(event, compiled.space(), pairwise_limit)
                .map_err(EngineError::Confidence)?;
            // Upstream approximation error (σ̂ inputs) widens the interval so
            // the containment guarantee survives approximate prefixes.
            let e = input.error_of(tuple);
            out.push((
                tuple.clone(),
                EventBounds {
                    lower: (b.lower - e).max(0.0),
                    upper: (b.upper + e).min(1.0),
                },
            ));
        }
        Ok(out)
    }
}

/// A scan's result: a pointer copy of the database's relation.  The serving
/// layer takes scan results straight from a request's database with it and
/// never stores them.
pub(crate) fn scan(database: &UDatabase, relation: &str) -> Result<EvaluatedRelation> {
    Ok(EvaluatedRelation {
        relation: database.relation(relation)?.clone(),
        complete: database.is_complete(relation),
        errors: BTreeMap::new(),
    })
}

fn unary_input(mut inputs: Vec<EvaluatedRelation>) -> EvaluatedRelation {
    debug_assert_eq!(inputs.len(), 1);
    inputs.pop().expect("unary operator receives one input")
}

// ---- sharded (chunked) execution of row-local operators --------------------

/// True if chunking `len` input rows into `shards` partitions is worthwhile
/// for a data-parallel operator (it only pays off with worker threads).
fn shard_parallel(len: usize, shards: usize) -> bool {
    shards > 1 && len >= SHARD_MIN_ROWS && rayon::current_num_threads() > 1
}

/// Applies a row-local operator to `input`: in place when one chunk
/// suffices, otherwise per byte-budgeted row chunk
/// ([`URelation::partition`]), concurrently, merging the outputs (set
/// semantics: identical to the single-batch result).  The chunk count is the
/// larger of the parallel shard gate and the spill budget's byte-derived
/// count, so a positive budget engages chunking (and spilling of heavy chunk
/// outputs) even below the parallel threshold.
fn sharded_unary<F>(
    input: &URelation,
    shards: usize,
    spill_budget: usize,
    f: F,
) -> Result<URelation>
where
    F: Fn(&URelation) -> Result<URelation> + Sync,
{
    let gate = if shard_parallel(input.len(), shards) {
        shards
    } else {
        1
    };
    let count = ops::chunk_count(input, gate, spill_budget);
    if count <= 1 {
        return f(input);
    }
    let chunks = input.partition(count);
    let outs: Vec<URelation> = chunks.par_iter().map(&f).collect::<Result<_>>()?;
    crate::storage::merge_spilling(outs, spill_budget)
}

fn binary_inputs(mut inputs: Vec<EvaluatedRelation>) -> (EvaluatedRelation, EvaluatedRelation) {
    debug_assert_eq!(inputs.len(), 2);
    let right = inputs.pop().expect("binary operator receives two inputs");
    let left = inputs.pop().expect("binary operator receives two inputs");
    (left, right)
}

// ---- error-bound propagation (Lemma 6.4(1)) --------------------------------

fn propagate_unary(relation: URelation, input: &EvaluatedRelation) -> EvaluatedRelation {
    // Selection/extension/renaming keep tuples in 1:1 correspondence with
    // input tuples (modulo data-only transformation), so each output tuple
    // inherits the error of the input tuples it came from.  For simplicity
    // and soundness we look the error up by the shared data prefix when
    // arities match, falling back to the sum of all input errors when they
    // do not.
    if input.errors.is_empty() {
        return EvaluatedRelation {
            relation,
            complete: input.complete,
            errors: BTreeMap::new(),
        };
    }
    if relation.schema() == input.relation.schema() {
        let errors = relation
            .possible_tuples()
            .iter()
            .filter_map(|t| input.errors.get(t).map(|e| (t.clone(), *e)))
            .filter(|(_, e)| *e > 0.0)
            .collect();
        return EvaluatedRelation {
            relation,
            complete: input.complete,
            errors,
        };
    }
    let total: f64 = input.errors.values().sum::<f64>().min(1.0);
    let errors = relation
        .possible_tuples()
        .iter()
        .map(|t| (t.clone(), total))
        .collect();
    EvaluatedRelation {
        relation,
        complete: input.complete,
        errors,
    }
}

fn propagate_unary_complete(relation: URelation, input: &EvaluatedRelation) -> EvaluatedRelation {
    let mut out = propagate_unary(relation, input);
    out.complete = true;
    out
}

fn propagate_projection(
    relation: URelation,
    input: &EvaluatedRelation,
    items: &[ProjItem],
) -> Result<EvaluatedRelation> {
    if input.errors.is_empty() {
        return Ok(EvaluatedRelation {
            relation,
            complete: input.complete,
            errors: BTreeMap::new(),
        });
    }
    // Each output tuple's membership can change whenever any input tuple
    // that projects onto it changes (Example 6.5): sum the errors of the
    // contributing input tuples.
    let exprs = ops::bind_items(input.relation.schema(), items)?;
    let mut errors: BTreeMap<Tuple, f64> = BTreeMap::new();
    for t in input.relation.possible_tuples().iter() {
        let e = input.error_of(t);
        if e == 0.0 {
            continue;
        }
        *errors.entry(ops::projected(&exprs, t)?).or_insert(0.0) += e;
    }
    for e in errors.values_mut() {
        *e = e.min(1.0);
    }
    Ok(EvaluatedRelation {
        relation,
        complete: input.complete,
        errors,
    })
}

fn propagate_binary(
    relation: URelation,
    left: &EvaluatedRelation,
    right: &EvaluatedRelation,
) -> EvaluatedRelation {
    let complete = left.complete && right.complete;
    if left.errors.is_empty() && right.errors.is_empty() {
        return EvaluatedRelation {
            relation,
            complete,
            errors: BTreeMap::new(),
        };
    }
    // Conservative propagation: any output tuple of a binary operation
    // depends on at most one tuple from each side plus, for unions, on a
    // tuple of either side; we bound its error by the sum of the maximal
    // per-side errors (capped at 1).  This over-approximates Lemma 6.4 but
    // never under-reports.
    let bound = (left.max_error() + right.max_error()).min(1.0);
    let errors = relation
        .possible_tuples()
        .iter()
        .map(|t| (t.clone(), bound))
        .collect();
    EvaluatedRelation {
        relation,
        complete,
        errors,
    }
}

// ---- repair-key (§2.2 / §3) ------------------------------------------------

/// `repair-key_{A⃗@B}` on a complete input: one fresh variable per key group
/// of several tuples, its distribution the group's normalised weights.
///
/// One pass over the input's rows, borrowed: a complete relation's rows are
/// its distinct tuples in order, so a stable sort of row references by key
/// forms the groups in key order with each group's tuples in tuple order.
/// The key and weight columns are resolved once.
fn repair_key(
    input: EvaluatedRelation,
    key: &[String],
    weight: &str,
    ctx: &mut ExecContext<'_>,
) -> Result<EvaluatedRelation> {
    let relation = &input.relation;
    if !relation.is_complete_representation() {
        return Err(EngineError::NotComplete(
            "repair-key requires a complete input relation".into(),
        ));
    }
    let schema = relation.schema();
    let key_at = schema.indices_of(key).map_err(EngineError::Pdb)?;
    let weight_at = schema.index_of(weight);
    let mut members: Vec<&Tuple> = relation.iter().map(|row| &row.tuple).collect();
    members.sort_by(|a, b| (key_at.iter().map(|&i| &a[i])).cmp(key_at.iter().map(|&i| &b[i])));

    let mut rows = Vec::with_capacity(members.len());
    let mut weights = Vec::new();
    for group in members.chunk_by(|a, b| key_at.iter().all(|&i| a[i] == b[i])) {
        // Validate and normalise the weights.
        weights.clear();
        let mut total = 0.0;
        for &t in group {
            let w = weight_of(t, weight, weight_at)?;
            if !w.is_finite() || w <= 0.0 {
                return Err(EngineError::Pdb(pdb::PdbError::InvalidWeight(format!(
                    "weight {w} of tuple {t} is not a positive finite number"
                ))));
            }
            total += w;
            weights.push(w);
        }
        if let [t] = group {
            // A single candidate is chosen with probability 1; no random
            // variable is needed.
            rows.push(URow {
                condition: Condition::always(),
                tuple: (*t).clone(),
            });
            continue;
        }
        // One fresh variable per key group (the Section 3 translation
        // names it after the key values; we add a counter for global
        // uniqueness across repeated repair-key applications).
        ctx.var_counter += 1;
        let key_tuple = group[0].project(&key_at);
        let var = Var::new(format!("rk{}:{}", ctx.var_counter, key_tuple));
        let dist = (weights.iter().enumerate()).map(|(i, w)| (Value::Int(i as i64), w / total));
        ctx.database.wtable_mut().add_variable(var.clone(), dist)?;
        for (i, &t) in group.iter().enumerate() {
            rows.push(URow {
                condition: Condition::new([(var.clone(), Value::Int(i as i64))])?,
                tuple: t.clone(),
            });
        }
    }
    let out = URelation::from_row_vec(schema.clone(), rows)?;

    let errors = if input.errors.is_empty() {
        BTreeMap::new()
    } else {
        out.possible_tuples()
            .iter()
            .filter_map(|t| input.errors.get(t).map(|e| (t.clone(), *e)))
            .collect()
    };
    Ok(EvaluatedRelation {
        relation: out,
        complete: false,
        errors,
    })
}

/// The weight of a tuple, its column `weight_at` resolved from the name
/// `weight`, with [`pdb::Relation::numeric_value`]'s errors.
fn weight_of(t: &Tuple, weight: &str, weight_at: Option<usize>) -> Result<f64> {
    let at = weight_at.ok_or_else(|| pdb::PdbError::UnknownAttribute(weight.to_owned()));
    let w = at.and_then(|i| {
        t[i].as_f64().ok_or_else(|| {
            pdb::PdbError::InvalidWeight(format!("attribute `{weight}` of {t} is not numeric"))
        })
    });
    w.map_err(EngineError::Pdb)
}

// ---- confidence computation (§4) -------------------------------------------

/// `conf` / `conf_{ε,δ}` (`params` `None` / `Some`): batched confidence
/// computation over all tuple lineages at once, of `input` read through
/// `chain` — the `σ` / `π` / `ρ` operators an exact `conf` was fused with,
/// bottom up (empty: `input` as it is).
fn conf(
    input: EvaluatedRelation,
    chain: &[&PhysicalOp],
    prob_attr: &str,
    params: Option<FprasParams>,
    ctx: &mut ExecContext<'_>,
) -> Result<EvaluatedRelation> {
    ctx.stats.conf_operators += 1;
    let compiled = ctx.spaces.compiled(ctx.database.wtable())?;
    let bound = bind_chain(input.relation.schema(), chain)?;
    // Only an exact `conf` is fused, and only with no σ̂ below its chain:
    // there are no input errors to carry through it.
    debug_assert!(chain.is_empty() || (params.is_none() && input.errors.is_empty()));
    let schema = bound
        .schema()
        .with_appended(prob_attr)
        .map_err(EngineError::Pdb)?;

    // Batch: every tuple's DNF lineage in one pass, compiled once into
    // flat programs and estimated by the bit-parallel estimator layer (64
    // sampled worlds per word).  A sampled `conf` memoises the batch by
    // content: on a warm serving resume both the lineage and its compiled
    // programs come from the retained snapshot caches, so the request pays
    // sampling only.  An exact `conf`'s result is pooled with its stateful
    // spine, so nothing looks its batch up again: it is neither hashed nor
    // kept, and it is read straight through the fused chain.
    let lineage = match params {
        None => Arc::new(compiled.chain_events(&input.relation, &bound)?),
        Some(_) => compiled.relation_events(&input.relation)?,
    };
    let fpras = params.map(|params| {
        FprasEstimator::new(params)
            .with_exact_backend(ctx.config.exact_backend_node_budget)
            .with_deadline(ctx.deadline)
    });
    let estimator: &dyn ConfidenceEstimator = match &fpras {
        None => &ExactEstimator,
        Some(fpras) => fpras,
    };
    let programs = lineage.programs();
    // The base every per-event sub-RNG seed derives from.  Exact
    // estimation consumes no randomness and leaves the caller's RNG
    // stream untouched.  Shared-sampling runs *draw* the master seed (so
    // the caller's stream advances exactly as it always has) but derive
    // their streams from the compiled arena's content fingerprint, so the
    // answer is a pure function of (content, configuration, ε/δ) — the
    // precondition for sharing drawn blocks across requests.
    let shared = ctx.config.shared_sampling;
    let seed_base = match params {
        None => 0,
        Some(_) => {
            // The failpoint sits *before* the master-seed draw: a retried
            // request that faulted here has consumed no caller
            // randomness, so its successful attempt is still
            // bit-identical to cold.
            crate::faults::fire("estimate", ctx.deadline)?;
            let master_seed = ctx.rng.next_u64();
            if shared {
                programs.fingerprint()
            } else {
                master_seed
            }
        }
    };
    // The tally cache is keyed by the seed base, which names the arena
    // only when it is the content fingerprint.
    let sampler = ctx.sampler.as_deref().filter(|_| shared);
    let drawn: Vec<(EventEstimate, bool)> = (0..programs.len())
        .into_par_iter()
        .map(|i| {
            let draw = || estimator.estimate_compiled(programs, i, event_seed(seed_base, i));
            match (sampler, &fpras, programs.trivial(i)) {
                // Non-trivial events consult the shared block scheduler;
                // the tally key includes the estimator's own bill — the
                // count `draw` draws — so prepared queries with
                // different (ε, δ) never alias.
                (Some(sampler), Some(fpras), None) => {
                    let bill = fpras.bill(programs, i)?;
                    sampler.estimate(seed_base, i as u32, bill, draw)
                }
                _ => draw().map(|estimate| (estimate, false)),
            }
        })
        .collect::<confidence::Result<_>>()
        .map_err(|e| deadline_interrupt(EngineError::Confidence(e)))?;
    ctx.stats.shared_block_hits += drawn.iter().filter(|(_, hit)| *hit).count() as u64;

    let mut rows = Vec::with_capacity(drawn.len());
    let mut errors: BTreeMap<Tuple, f64> = BTreeMap::new();
    for (i, (t, (estimate, _))) in lineage.tuples().iter().zip(&drawn).enumerate() {
        // Exact mode counts model-counting calls, FPRAS mode samples and
        // which backend answered.
        if params.is_none() {
            ctx.stats.exact_confidence_calls += 1;
        } else {
            attribute_estimate(
                &mut ctx.stats,
                programs.trivial(i).is_some(),
                estimate.exact,
                estimate.samples,
            );
        }
        let out_t = t.with_appended(Value::float(estimate.estimate));
        let e = input.error_of(t);
        if e > 0.0 {
            errors.insert(out_t.clone(), e);
        }
        rows.push(URow {
            condition: Condition::always(),
            tuple: out_t,
        });
    }
    Ok(EvaluatedRelation {
        relation: URelation::from_row_vec(schema, rows)?,
        complete: true,
        errors,
    })
}

/// A fused `conf`'s chain operators, bottom up, bound to the schema of the
/// relation they read.
fn bind_chain<'a>(schema: &Schema, chain: &[&'a PhysicalOp]) -> Result<ops::Chain<'a>> {
    let mut bound = ops::Chain::new(schema.clone());
    for link in chain {
        bound = match link {
            PhysicalOp::Select { predicate } => bound.select(predicate)?,
            PhysicalOp::Project { items } => bound.project(items)?,
            PhysicalOp::Rename { from, to } => bound.rename(from, to)?,
            other => {
                return Err(EngineError::Invariant(format!(
                    "`{}` in a conf's fused chain",
                    other.name()
                )))
            }
        };
    }
    Ok(bound)
}

/// `cert`: the `conf = 1` test, answered by exact model counting (batched).
fn cert(input: EvaluatedRelation, ctx: &mut ExecContext<'_>) -> Result<EvaluatedRelation> {
    let compiled = ctx.spaces.compiled(ctx.database.wtable())?;
    let lineage = compiled.relation_events(&input.relation)?;
    // The compiled path memoises the Shannon-expansion results inside
    // the cached batch: repeated `cert` requests are lookups.
    let estimates = ExactEstimator
        .estimate_compiled_batch(lineage.programs(), 0)
        .map_err(EngineError::Confidence)?;

    let mut rows = Vec::new();
    let mut errors = BTreeMap::new();
    for (t, estimate) in lineage.tuples().iter().zip(&estimates) {
        ctx.stats.exact_confidence_calls += 1;
        if (estimate.estimate - 1.0).abs() < 1e-9 {
            rows.push(URow {
                condition: Condition::always(),
                tuple: t.clone(),
            });
            let e = input.error_of(t);
            if e > 0.0 {
                errors.insert(t.clone(), e);
            }
        }
    }
    Ok(EvaluatedRelation {
        relation: URelation::from_row_vec(input.relation.schema().clone(), rows)?,
        complete: true,
        errors,
    })
}

// ---- approximate selection σ̂ (§5 Figure 3, §6) -----------------------------

/// The σ̂ accuracy lowering resolved: (ε₀, δ, decision mode).
type SigmaStop = (f64, f64, ApproxSelectMode);

/// `σ̂_{φ(conf[A⃗₁], …, conf[A⃗_k])}` over `input`, deciding every candidate
/// under `stop`.
fn approx_select(
    input: EvaluatedRelation,
    terms: &[ConfTerm],
    predicate: &Predicate,
    stop: SigmaStop,
    ctx: &mut ExecContext<'_>,
) -> Result<EvaluatedRelation> {
    ctx.stats.approx_select_operators += 1;
    algebra::check_conf_terms(terms, input.relation.schema())?;
    let compiled = ctx.spaces.compiled(ctx.database.wtable())?;

    // Projections π_{A⃗_i}(R), one per confidence term.
    let mut projections = Vec::with_capacity(terms.len());
    for term in terms {
        let items: Vec<ProjItem> = term.attrs.iter().map(ProjItem::attr).collect();
        projections.push(ops::project(&input.relation, &items)?);
    }

    // The candidate output tuples: the natural join of the possible
    // tuples of the projections (over the union of the term attributes).
    let out_attrs: Vec<String> = {
        let mut attrs = Vec::new();
        for term in terms {
            for a in &term.attrs {
                if !attrs.contains(a) {
                    attrs.push(a.clone());
                }
            }
        }
        attrs
    };
    let out_schema = Schema::new(out_attrs.clone()).map_err(EngineError::Pdb)?;
    let mut candidates =
        URelation::from_complete(&pdb::Relation::new(Schema::empty(), [Tuple::empty()])?);
    for proj in &projections {
        candidates = ops::natural_join(
            &candidates,
            &URelation::from_complete(&proj.possible_tuples()),
        )?;
    }
    // Reorder candidate columns to the declared output order.
    let reorder: Vec<ProjItem> = out_attrs.iter().map(ProjItem::attr).collect();
    let candidates = ops::project(&candidates, &reorder)?;

    // Compile the predicate over the term placeholders.
    let placeholders: Vec<String> = terms.iter().map(|t| t.name.clone()).collect();
    let compiled_predicate = compile_predicate(predicate, &placeholders)?;

    // The input-error contribution: the confidence terms aggregate over
    // the whole input relation, so every candidate depends on every
    // input tuple (cf. Example 6.5).
    let input_error: f64 = input.errors.values().sum::<f64>().min(1.0);

    // The k events of every candidate, in candidate order.  The term
    // attribute indices are hoisted out of the candidate loop.
    let term_indices: Vec<Vec<usize>> = terms
        .iter()
        .map(|term| {
            candidates
                .schema()
                .indices_of(&term.attrs)
                .map_err(EngineError::Pdb)
        })
        .collect::<Result<_>>()?;
    let candidate_tuples: Vec<Tuple> = candidates.possible_tuples().iter().cloned().collect();
    ctx.stats.approx_select_decisions += candidate_tuples.len() as u64;
    // The k events of candidate i are addressed by handles[i*k ..
    // (i+1)*k]: one flat vector shared by every decision mode.  Each
    // projection's lineage batch is extracted and compiled once
    // (memoised in the compiled space); candidates look their events'
    // handles — arena plus index, which the bounds read the event
    // through, the exact mode its memoised probability, and the Monte
    // Carlo modes sample through — up by key.  Candidates absent from a
    // projection share one impossible-event program.
    let lineages = projections
        .iter()
        .map(|proj| compiled.relation_events(proj))
        .collect::<Result<Vec<_>>>()?;
    let never = std::sync::Arc::new(
        confidence::LineagePrograms::compile(vec![DnfEvent::never()], compiled.space())
            .map_err(EngineError::Confidence)?,
    );
    let mut handles: Vec<CompiledEventHandle> =
        Vec::with_capacity(candidate_tuples.len() * terms.len());
    for candidate in &candidate_tuples {
        for (idx, lineage) in term_indices.iter().zip(&lineages) {
            let key = candidate.project(idx);
            handles.push(match lineage.index_of(&key) {
                Some(i) => (lineage.programs().clone(), i),
                None => (never.clone(), 0),
            });
        }
    }

    // Decide every candidate: (keep, decision error bound).
    let decisions = decide_candidates(
        terms.len(),
        candidate_tuples.len(),
        &handles,
        &compiled,
        &compiled_predicate,
        stop,
        ctx,
    )?;
    debug_assert_eq!(decisions.len(), candidate_tuples.len());

    let mut rows = Vec::new();
    let mut errors: BTreeMap<Tuple, f64> = BTreeMap::new();
    for (candidate, (keep, decision_error)) in candidate_tuples.iter().zip(decisions) {
        let total_error = (decision_error + input_error).min(1.0);
        if keep {
            rows.push(URow {
                condition: Condition::always(),
                tuple: candidate.clone(),
            });
            if total_error > 0.0 {
                errors.insert(candidate.clone(), total_error);
            }
        } else if total_error > 0.0 {
            // Dropped tuples may also be wrongly dropped; their error is
            // recorded so that downstream negation-free operators (and
            // the adaptive driver) can still reason about them.  They
            // are keyed by the candidate tuple even though it is absent.
            errors.insert(candidate.clone(), total_error);
        }
    }

    Ok(EvaluatedRelation {
        relation: URelation::from_row_vec(out_schema, rows)?,
        complete: false,
        errors,
    })
}

/// A compiled event of a lineage batch: the shared program arena plus the
/// event's index within it.
type CompiledEventHandle = (std::sync::Arc<confidence::LineagePrograms>, usize);

/// Maps the estimator layers' cooperative-interrupt errors into the serving
/// taxonomy: an interrupted sampling run *is* the request's deadline firing
/// mid-estimate.
fn deadline_interrupt(e: EngineError) -> EngineError {
    match e {
        EngineError::Confidence(ConfidenceError::Interrupted)
        | EngineError::Approx(ApproxError::Interrupted) => {
            EngineError::DeadlineExceeded { stage: "estimate" }
        }
        e => e,
    }
}

/// Books one event a Monte Carlo path (`conf_{ε,δ}`, Monte Carlo `σ̂`)
/// estimated: its samples, and — for a non-trivial event — exactly one of
/// the two backend counters: answered by the exact backend, or by
/// Karp–Luby sampling.  Trivial events move neither.
fn attribute_estimate(stats: &mut EvalStats, trivial: bool, exact: bool, samples: u64) {
    stats.karp_luby_samples += samples;
    if !trivial {
        if exact {
            stats.exact_compiled_answers += 1;
        } else {
            stats.sampled_answers += 1;
        }
    }
}

/// Sampling-free candidate decisions from the exact confidence bounds of
/// [`confidence::bounds`] (max-term lower / union upper, refined by one
/// round of inclusion–exclusion — degree-two Bonferroni lower bound and
/// Hunter–Worsley spanning-tree upper bound): a candidate whose
/// predicate is constant over its `k`-dimensional bounds box is decided
/// with error 0 before any estimator runs.  `None` marks the ambiguous
/// band that falls through to Monte Carlo estimation.
fn prune_candidates(
    k: usize,
    num_candidates: usize,
    handles: &[CompiledEventHandle],
    compiled: &CompiledSpace,
    predicate: &ApproxPredicate,
    pairwise_limit: usize,
) -> Result<Vec<Option<bool>>> {
    let bounds = handles
        .iter()
        .map(|(programs, i)| {
            event_bounds_with_limit(&programs.events()[*i], compiled.space(), pairwise_limit)
        })
        .collect::<confidence::Result<Vec<_>>>()
        .map_err(EngineError::Confidence)?;
    (0..num_candidates)
        .map(|i| {
            let boxed = Orthotope::from_intervals(
                bounds[i * k..(i + 1) * k]
                    .iter()
                    .map(|b| Interval::new(b.lower, b.upper)),
            );
            Ok(
                match evaluate_over_box(predicate, &boxed).map_err(EngineError::Approx)? {
                    BoxVerdict::AlwaysTrue => Some(true),
                    BoxVerdict::AlwaysFalse => Some(false),
                    BoxVerdict::Unknown => None,
                },
            )
        })
        .collect()
}

/// Decides all `num_candidates` candidates under `stop`'s mode;
/// candidate `i`'s `k` events are `handles[i*k .. (i+1)*k]` (`k` may be 0:
/// a term-less predicate is decided once per candidate on no values).
///
/// Exact mode looks the values up.  The Monte Carlo modes are one
/// routine: prune the candidates whose exact confidence bounds already
/// decide the predicate (when the engine enables it), then run Figure 3
/// ([`approximate_predicate`]) per remaining candidate, all candidates
/// concurrently, each on the sub-RNG of its *candidate* index under one
/// master seed — so the outcome is deterministic per seed *and* unchanged
/// for the candidates pruning leaves alone.  The mode only picks the
/// loop's stop rule (`Adaptive`: `Σ δ_i(ε) ≤ δ`; `FixedIterations(l)`:
/// `l` iterations) and with it the sampling bill the exact backend's
/// cost model is asked to beat.
fn decide_candidates(
    k: usize,
    num_candidates: usize,
    handles: &[CompiledEventHandle],
    compiled: &CompiledSpace,
    predicate: &ApproxPredicate,
    (epsilon0, delta, mode): SigmaStop,
    ctx: &mut ExecContext<'_>,
) -> Result<Vec<(bool, f64)>> {
    debug_assert_eq!(handles.len(), num_candidates * k);
    let fixed_l = match mode {
        ApproxSelectMode::Exact => {
            // The reference semantics, unpruned: the memoised path
            // `conf`/`cert` use — each batch expands its events once,
            // however many candidates share them.
            let values = handles
                .iter()
                .map(|(programs, i)| Ok(programs.exact_probabilities()?[*i]))
                .collect::<confidence::Result<Vec<f64>>>()
                .map_err(EngineError::Confidence)?;
            ctx.stats.exact_confidence_calls += values.len() as u64;
            return (0..num_candidates)
                .map(|i| Ok((predicate.eval(&values[i * k..(i + 1) * k])?, 0.0)))
                .collect();
        }
        ApproxSelectMode::Adaptive => None,
        ApproxSelectMode::FixedIterations(l) => Some(l),
    };
    let pruned: Vec<Option<bool>> = if ctx.config.prune_approx_select {
        prune_candidates(
            k,
            num_candidates,
            handles,
            compiled,
            predicate,
            ctx.config.pairwise_bound_limit,
        )?
    } else {
        vec![None; num_candidates]
    };
    ctx.stats.approx_select_pruned += pruned.iter().filter(|p| p.is_some()).count() as u64;

    let params = match fixed_l {
        None => ApproximationParams::new(epsilon0, delta)?,
        Some(l) => ApproximationParams::fixed_iterations(epsilon0, l)?,
    }
    .with_deadline(ctx.deadline);
    // The draws the stop rule implies for an event, the cost model's
    // sampling side and the kernel's block-width choice: `l` batches of
    // its sampling width, or the Chernoff count Figure 3 would reach at
    // its floor accuracy (ε₀, δ) — a conservative proxy for an adaptive
    // run's total.  (ε₀, δ) are validated above, so the floor bill can
    // only fail by passing 2⁵³: dearer than any circuit, and a count the
    // loop, which stops on its estimates, need never come near.
    let node_budget = ctx.config.exact_backend_node_budget;
    let floor = FprasEstimator::new(FprasParams::new(epsilon0, delta)?);
    let bill = |programs: &LineagePrograms, event: usize| match fixed_l {
        Some(l) => (l.max(1) as u64).saturating_mul(programs.sample_width(event) as u64),
        None => floor.bill(programs, event).unwrap_or(u64::MAX),
    };
    // Failpoint before the seed draw: see `conf`.
    crate::faults::fire("estimate", ctx.deadline)?;
    let master_seed = ctx.rng.next_u64();
    let outcomes: Vec<(bool, f64, Vec<IncrementalEstimator>)> = (0..num_candidates)
        .into_par_iter()
        .map(|i| {
            if let Some(keep) = pruned[i] {
                return Ok((keep, 0.0, Vec::new()));
            }
            // Resolve a term exactly where compilation beats the bill:
            // the loop then treats it as a zero-width, seed-independent
            // input.
            let mut estimators = handles[i * k..(i + 1) * k]
                .iter()
                .map(|(programs, event)| {
                    // A batch is far smaller than a block: the block
                    // width follows the bill, as the FPRAS draw's does.
                    let draws = bill(programs, *event);
                    let mut state = IncrementalEstimator::from_compiled_with_width(
                        programs,
                        *event,
                        confidence::bitworld::block_words_for_samples(draws as usize),
                    )?;
                    if !state.is_trivial() {
                        if let Some(p) = programs.exact_if_cheaper(*event, draws, node_budget) {
                            state.resolve_exactly(p);
                        }
                    }
                    Ok(state)
                })
                .collect::<confidence::Result<Vec<_>>>()
                .map_err(EngineError::Confidence)?;
            // Per-candidate xoshiro sub-RNG: the loop is
            // bit-parallel-sampling-bound.
            let mut rng = rand::rngs::SmallRng::seed_from_u64(event_seed(master_seed, i));
            let decision = approximate_predicate(predicate, &mut estimators, params, &mut rng)
                .map_err(|e| deadline_interrupt(EngineError::Approx(e)))?;
            Ok((decision.value, decision.error_bound, estimators))
        })
        .collect::<Result<_>>()?;
    Ok(outcomes
        .into_iter()
        .enumerate()
        .map(|(i, (keep, error, estimators))| {
            // Pruned candidates estimated nothing.
            for (state, (programs, event)) in estimators.iter().zip(&handles[i * k..]) {
                attribute_estimate(
                    &mut ctx.stats,
                    programs.trivial(*event).is_some(),
                    state.is_trivial(),
                    state.samples(),
                );
            }
            (keep, error)
        })
        .collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::UEngine;
    use rand_chacha::ChaCha8Rng;
    use workloads::{SensorWorkload, TupleIndependentDb};

    fn lowered(text: &str, db: &UDatabase, config: EvalConfig) -> PhysicalPlan {
        let query = algebra::parse_query(text).unwrap();
        let catalog = crate::adaptive_query::catalog_of(db).unwrap();
        let plan = LogicalPlan::lower_validated(&query, &catalog).unwrap();
        PhysicalPlan::lower(&plan, config).unwrap()
    }

    fn ctx_for<'a>(
        db: &UDatabase,
        config: EvalConfig,
        rng: &'a mut dyn RngCore,
    ) -> ExecContext<'a> {
        ExecContext {
            config,
            database: db.clone(),
            stats: EvalStats::default(),
            var_counter: 0,
            rng,
            spaces: SpaceCache::new(),
            deadline: None,
            sampler: None,
        }
    }

    /// `db` as a prefix leaves it: its relations over the prefix's W-table.
    fn over_wtable(db: &UDatabase, wtable: &WTable) -> UDatabase {
        let mut db = db.clone();
        *db.wtable_mut() = wtable.clone();
        db
    }

    /// The snapshot [`PhysicalPlan::snapshot_from`] builds from the values
    /// `captured` holds at the nodes `keep` selects, and how many prefix
    /// nodes resuming it recomputes.
    fn rebuilt_from(
        plan: &PhysicalPlan,
        captured: &ExecSnapshot,
        keep: impl Fn(usize) -> bool,
    ) -> Option<(ExecSnapshot, u64)> {
        let held: BTreeMap<usize, &EvaluatedRelation> = captured.live_slots().collect();
        let value_of = |id: usize| held.get(&id).filter(|_| keep(id)).map(|&v| v.clone());
        plan.snapshot_from(value_of, Some(captured.effects().clone()))
    }

    /// A cold start that captures: resumes the plan's empty snapshot.
    fn capture_cold(
        plan: &PhysicalPlan,
        ctx: &mut ExecContext<'_>,
    ) -> (EvaluatedRelation, ExecSnapshot) {
        let (result, snapshot) = plan.resume(ctx, plan.empty_snapshot(), true).unwrap();
        (
            result,
            snapshot.expect("a capturing run returns its snapshot"),
        )
    }

    #[test]
    fn operator_classes_and_sampling_frontier() {
        let db = TupleIndependentDb::default().database();
        // Deterministic plan: exact conf → frontier past the end.
        let exact = lowered("conf(project[A](T))", &db, EvalConfig::exact());
        assert_eq!(exact.sampling_frontier(), exact.nodes().len());
        for node in exact.nodes() {
            assert_ne!(node.operator.class(), OpClass::Sampling);
        }
        // FPRAS conf samples: the frontier sits at the conf node (the last).
        let fpras = lowered("aconf[0.3, 0.2](project[A](T))", &db, EvalConfig::exact());
        assert_eq!(fpras.sampling_frontier(), fpras.nodes().len() - 1);
        assert_eq!(
            fpras.nodes().last().unwrap().operator.class(),
            OpClass::Sampling
        );
        // Scans and projections are pure.
        assert_eq!(fpras.nodes()[0].operator.class(), OpClass::Pure);
    }

    #[test]
    fn sampling_tables_are_built_only_for_events_that_are_sampled() {
        let db = TupleIndependentDb::default().database();
        let config =
            EvalConfig::default().with_exact_backend(confidence::cost::DEFAULT_NODE_BUDGET);
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        let mut ctx = ctx_for(&db, config, &mut rng);
        // The lineage batch a confidence operator compiled over `input`,
        // fetched back from the run's content-addressed cache.
        let batch_of = |ctx: &mut ExecContext<'_>, input: &str| {
            let relation = lowered(input, &db, config).execute(ctx).unwrap().relation;
            let compiled = ctx.spaces.compiled(ctx.database.wtable()).unwrap();
            let hits = compiled.lineage_hits();
            let batch = compiled.relation_events(&relation).unwrap();
            assert_eq!(
                compiled.lineage_hits(),
                hits + 1,
                "the operator's own batch"
            );
            batch
        };
        let built = |batch: &crate::RelationEvents| {
            (0..batch.len())
                .filter(|&i| batch.programs().sampling_table_built(i))
                .count()
        };

        // Exact conf and a backend-routed aconf answer without sampling: the
        // arena they share carries no sampling table afterwards.
        lowered("conf(project[A](T))", &db, config)
            .execute(&mut ctx)
            .unwrap();
        lowered("aconf[0.05, 0.05](project[A](T))", &db, config)
            .execute(&mut ctx)
            .unwrap();
        assert!(ctx.stats.exact_compiled_answers > 0 && ctx.stats.karp_luby_samples == 0);
        assert_eq!(built(&batch_of(&mut ctx, "project[A](T)")), 0);

        // With the backend off the same aconf samples, and every
        // non-trivial event of the batch gets its table — once.
        let sampled = EvalConfig::default();
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        let mut ctx = ctx_for(&db, sampled, &mut rng);
        for _ in 0..2 {
            lowered("aconf[0.05, 0.05](project[A](T))", &db, sampled)
                .execute(&mut ctx)
                .unwrap();
        }
        assert!(ctx.stats.karp_luby_samples > 0);
        let batch = batch_of(&mut ctx, "project[A](T)");
        let sampled_events = (0..batch.len())
            .filter(|&i| batch.programs().trivial(i).is_none())
            .count();
        assert!(sampled_events > 0);
        assert_eq!(built(&batch), sampled_events);
    }

    #[test]
    fn capture_and_resume_reproduce_direct_execution() {
        let workload = SensorWorkload {
            num_sensors: 6,
            readings_per_sensor: 3,
            high_probability: 0.45,
            seed: 21,
        };
        let db = workload.database();
        let config = EvalConfig::default();
        let plan = lowered(
            &SensorWorkload::alarm_query(0.7, 0.05, 0.05).to_string(),
            &db,
            config,
        );

        // Cold run with capture.
        let mut rng = ChaCha8Rng::seed_from_u64(40);
        let mut ctx = ctx_for(&db, config, &mut rng);
        let (cold, snapshot) = capture_cold(&plan, &mut ctx);
        assert!(!snapshot.is_complete(), "σ̂ keeps the suffix live");
        // The snapshot holds the W-table repair-key left behind (the very
        // allocation the run's database ended up with), and no relation
        // content.
        let wtable = snapshot.effects().wtable.clone().expect("captured");
        assert!(wtable.num_variables() > 0);
        assert_eq!(ctx.database.wtable(), &wtable);
        assert!(ctx.database.wtable().shares_content(&wtable));
        assert!(format!("{snapshot:?}").contains("nodes_todo"));

        // Resume with a fresh RNG state S equals direct execution with S.
        // The resumed context holds the base relations over the snapshot's
        // W-table; over any other table the resume is rejected.
        let at_snapshot = over_wtable(&db, &wtable);
        let mut warm_rng = ChaCha8Rng::seed_from_u64(41);
        let mut base_ctx = ctx_for(&db, config, &mut warm_rng);
        assert!(plan.resume(&mut base_ctx, snapshot.clone(), false).is_err());
        // …and so is one with the snapshot's variable count but other
        // probabilities.
        let mut reweighted = WTable::new();
        for (var, dist) in wtable.iter() {
            let values = dist.iter().map(|(value, _)| value.clone());
            let flipped = values.zip(dist.iter().rev().map(|(_, p)| *p));
            reweighted.add_variable(var.clone(), flipped).unwrap();
        }
        assert_eq!(reweighted.num_variables(), wtable.num_variables());
        assert_ne!(reweighted, wtable);
        let mut reweighted_ctx = ctx_for(&over_wtable(&db, &reweighted), config, &mut warm_rng);
        assert!(plan
            .resume(&mut reweighted_ctx, snapshot.clone(), false)
            .is_err());
        let mut warm_ctx = ctx_for(&at_snapshot, config, &mut warm_rng);
        let (warm, recaptured) = plan.resume(&mut warm_ctx, snapshot.clone(), false).unwrap();
        assert!(recaptured.is_none(), "capture was not asked for");

        let mut direct_rng = ChaCha8Rng::seed_from_u64(41);
        let mut direct_ctx = ctx_for(&db, config, &mut direct_rng);
        let direct = plan.execute(&mut direct_ctx).unwrap();
        assert_eq!(warm.relation, direct.relation);
        assert_eq!(warm.errors, direct.errors);
        assert_eq!(warm_ctx.stats, direct_ctx.stats);
        assert_eq!(warm_ctx.database, direct_ctx.database);
        // RNG streams advanced identically.
        assert_eq!(warm_rng.next_u64(), direct_rng.next_u64());

        // Cold and direct agree too (seeds differ only after the frontier,
        // and 40 vs 41 were both fresh at the σ̂ draw — so compare shape).
        assert_eq!(cold.relation.schema(), direct.relation.schema());

        // A snapshot from another plan is rejected.
        let other = lowered("poss(T)", &TupleIndependentDb::default().database(), config);
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        let mut ctx = ctx_for(&at_snapshot, config, &mut rng);
        assert!(other.resume(&mut ctx, snapshot.clone(), false).is_err());

        // …including one with the *same* node count but a different query,
        // and the same query lowered under a different configuration.
        let same_shape = lowered(
            &SensorWorkload::alarm_query(0.9, 0.05, 0.05).to_string(),
            &db,
            config,
        );
        assert_eq!(same_shape.nodes().len(), plan.nodes().len());
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        let mut ctx = ctx_for(&at_snapshot, config, &mut rng);
        assert!(same_shape
            .resume(&mut ctx, snapshot.clone(), false)
            .is_err());
        let other_config = lowered(
            &SensorWorkload::alarm_query(0.7, 0.05, 0.05).to_string(),
            &db,
            config.with_pruning(!config.prune_approx_select),
        );
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        let mut ctx = ctx_for(&at_snapshot, config, &mut rng);
        assert!(other_config.resume(&mut ctx, snapshot, false).is_err());
    }

    #[test]
    fn assembled_snapshots_match_captured_ones() {
        let workload = SensorWorkload {
            num_sensors: 5,
            readings_per_sensor: 3,
            high_probability: 0.4,
            seed: 13,
        };
        let db = workload.database();
        let config = EvalConfig::default();
        let plan = lowered(
            &SensorWorkload::alarm_query(0.6, 0.05, 0.05).to_string(),
            &db,
            config,
        );

        let mut rng = ChaCha8Rng::seed_from_u64(17);
        let mut ctx = ctx_for(&db, config, &mut rng);
        let (_, captured) = capture_cold(&plan, &mut ctx);

        // The statically computed prefix is exactly the set of nodes whose
        // results the capture holds, and every scan belongs to it.
        let done = plan.prefix_done_flags();
        let mut held = vec![false; plan.nodes().len()];
        for (id, _) in captured.live_slots() {
            held[id] = true;
        }
        assert_eq!(done, held);
        for (id, node) in plan.nodes().iter().enumerate() {
            if node.operator.name() == "scan" {
                assert!(done[id], "scan #{id} outside the prefix");
            }
        }
        // The stateful prefix lists the non-pure done nodes in id order.
        let stateful = plan.stateful_prefix();
        assert!(stateful.windows(2).all(|w| w[0] < w[1]));
        for &id in &stateful {
            assert!(done[id]);
            assert_ne!(plan.nodes()[id].operator.class(), OpClass::Pure);
        }

        // Disassemble into content-addressed parts and reassemble: nothing
        // is left to recompute, and resuming the rebuilt snapshot is
        // bit-identical to resuming the original.
        let (rebuilt, recomputed) = rebuilt_from(&plan, &captured, |_| true).unwrap();
        assert_eq!(recomputed, 0);

        let wtable = captured.effects().wtable.clone().expect("captured");
        let at_snapshot = over_wtable(&db, &wtable);
        let mut rng_a = ChaCha8Rng::seed_from_u64(23);
        let mut ctx_a = ctx_for(&at_snapshot, config, &mut rng_a);
        let (from_captured, _) = plan.resume(&mut ctx_a, captured.clone(), false).unwrap();
        let mut rng_b = ChaCha8Rng::seed_from_u64(23);
        let mut ctx_b = ctx_for(&at_snapshot, config, &mut rng_b);
        let (from_rebuilt, _) = plan.resume(&mut ctx_b, rebuilt, false).unwrap();
        assert_eq!(from_captured.relation, from_rebuilt.relation);
        assert_eq!(from_captured.errors, from_rebuilt.errors);
        assert_eq!(ctx_a.stats, ctx_b.stats);
        assert_eq!(ctx_a.database, ctx_b.database);
        assert_eq!(rng_a.next_u64(), rng_b.next_u64());

        // Parts that lack a wanted result of the stateful prefix are
        // rejected: with no values at all, and with the values of one
        // stateful prefix node and everything above it gone.  (A slot
        // vector of the wrong length cannot be expressed any more: values
        // are asked for by node id.)
        assert!(rebuilt_from(&plan, &captured, |_| false).is_none());
        assert!(rebuilt_from(&plan, &captured, |id| id < stateful[0]).is_none());
    }

    #[test]
    fn the_need_pass_runs_exactly_what_is_wanted_and_absent() {
        // scan(0) → repair-key(1) → select(2) → σ̂(3): a stateful node in
        // the middle of the prefix, pure nodes on either side of it.
        let workload = SensorWorkload {
            num_sensors: 5,
            readings_per_sensor: 3,
            high_probability: 0.4,
            seed: 13,
        };
        let db = workload.database();
        let config = EvalConfig::default();
        let plan = lowered(
            &SensorWorkload::alarm_query(0.6, 0.05, 0.05).to_string(),
            &db,
            config,
        );
        let names: Vec<&str> = plan.nodes().iter().map(|n| n.operator.name()).collect();
        assert_eq!(names, ["scan", "repair-key", "select", "approx-select"]);
        let mut rng = ChaCha8Rng::seed_from_u64(17);
        let mut ctx = ctx_for(&db, config, &mut rng);
        let (_, captured) = capture_cold(&plan, &mut ctx);
        let wtable = captured.effects().wtable.clone().expect("captured");
        let at_snapshot = over_wtable(&db, &wtable);
        let resumed = |snapshot: ExecSnapshot| {
            let mut rng = ChaCha8Rng::seed_from_u64(23);
            let mut ctx = ctx_for(&at_snapshot, config, &mut rng);
            let (result, recaptured) = plan.resume(&mut ctx, snapshot, true).unwrap();
            (result, recaptured.unwrap(), ctx.stats, ctx.var_counter)
        };
        let (full, _, full_stats, full_counter) = resumed(captured.clone());

        // A held consumer cuts the walk: with only the select's result held,
        // neither the scan nor the repair-key under it is wanted — nothing
        // of the prefix runs (in particular repair-key does not run again:
        // same counter, same statistics), and the answer is the same.
        let (only_select, recomputed) = rebuilt_from(&plan, &captured, |id| id == 2).unwrap();
        assert_eq!(recomputed, 0);
        let (result, recaptured, stats, counter) = resumed(only_select);
        assert_eq!(
            (result.relation, result.errors),
            (full.relation.clone(), full.errors.clone())
        );
        assert_eq!((stats, counter), (full_stats, full_counter));
        let held: Vec<usize> = recaptured.live_slots().map(|(id, _)| id).collect();
        assert_eq!(held, [2], "nothing below the held consumer was recomputed");

        // A wanted result of the stateful prefix that is absent is a miss,
        // whatever is held below it.
        assert!(rebuilt_from(&plan, &captured, |id| id == 0).is_none());
        assert!(rebuilt_from(&plan, &captured, |id| id == 0 || id == 1)
            .is_some_and(|(_, recomputed)| recomputed == 1));

        // An absent pure result is recomputed together with exactly the
        // absent results between it and the first held one: without the
        // select, the select alone reruns over the held repair-key result.
        let (no_select, recomputed) = rebuilt_from(&plan, &captured, |id| id != 2).unwrap();
        assert_eq!(recomputed, 1);
        let (result, recaptured, stats, counter) = resumed(no_select);
        assert_eq!(
            (result.relation, result.errors),
            (full.relation, full.errors)
        );
        assert_eq!((stats, counter), (full_stats, full_counter));
        let held: Vec<usize> = recaptured.live_slots().map(|(id, _)| id).collect();
        assert_eq!(
            held,
            [1, 2],
            "the re-capture holds it again, beside the held result it read"
        );
    }

    #[test]
    fn a_supplied_root_is_the_only_result_asked_for() {
        // An exact `conf` plan is deterministic: its root is in the prefix.
        let db = TupleIndependentDb::default().database();
        let config = EvalConfig::exact();
        let plan = lowered("conf(project[A](T))", &db, config);
        let mut rng = ChaCha8Rng::seed_from_u64(2);
        let mut ctx = ctx_for(&db, config, &mut rng);
        let (_, captured) = capture_cold(&plan, &mut ctx);
        let held: BTreeMap<usize, &EvaluatedRelation> = captured.live_slots().collect();
        // The `conf` reads the projection through its fused chain: the run
        // holds the scan and the root, never the projection.
        let names: Vec<&str> = plan.nodes().iter().map(|n| n.operator.name()).collect();
        assert_eq!(names, ["scan", "project", "conf"]);
        assert_eq!(held.keys().copied().collect::<Vec<_>>(), [0, plan.root()]);

        // Every result is stored, but only the root's is wanted.
        let mut asked = Vec::new();
        let value_of = |id: usize| {
            asked.push(id);
            held.get(&id).map(|&value| value.clone())
        };
        let (snapshot, recomputed) = plan
            .snapshot_from(value_of, Some(captured.effects().clone()))
            .unwrap();
        assert_eq!(asked, [plan.root()]);
        assert_eq!(recomputed, 0);
        assert!(snapshot.is_complete());

        // With nothing stored, the walk asks for every wanted node once,
        // root down: the root, then the scan it reads through its chain.
        let mut asked = Vec::new();
        let value_of = |id: usize| {
            asked.push(id);
            None
        };
        plan.snapshot_from(value_of, None).unwrap();
        assert_eq!(asked, [plan.root(), 0]);
    }

    #[test]
    fn deterministic_snapshot_serves_the_root_result() {
        let db = TupleIndependentDb::default().database();
        let config = EvalConfig::exact();
        let plan = lowered("conf(project[A](T))", &db, config);
        let mut rng = ChaCha8Rng::seed_from_u64(2);
        let mut ctx = ctx_for(&db, config, &mut rng);
        let (cold, snapshot) = capture_cold(&plan, &mut ctx);
        assert!(snapshot.is_complete());
        // No repair-key ran: the post-prefix W-table is the base table.
        assert!(ctx.database.wtable().num_variables() > 0);
        let wtable = snapshot.effects().wtable.clone().expect("captured");
        assert_eq!(&wtable, db.wtable());
        let mut rng = ChaCha8Rng::seed_from_u64(99);
        let mut ctx = ctx_for(&db, config, &mut rng);
        let (warm, _) = plan.resume(&mut ctx, snapshot, false).unwrap();
        assert_eq!(cold.relation, warm.relation);
        assert_eq!(ctx.database, db);
    }

    #[test]
    fn only_an_approximate_conf_over_a_deterministic_prefix_has_a_bounds_form() {
        let db = TupleIndependentDb::default().database();
        // `conf` is exact and σ̂ Monte Carlo under the default configuration.
        let config = EvalConfig::default();
        let sigma = "aselect[P1 = conf(A); P1 >= 0.5](T)";
        let table = [
            ("aconf[0.3, 0.2](project[A](T))".to_string(), true),
            ("conf(project[A](T))".to_string(), false),
            ("cert(project[A](T))".to_string(), false),
            ("poss(project[A](T))".to_string(), false),
            (sigma.to_string(), false),
            (format!("aconf[0.3, 0.2]({sigma})"), false),
        ];
        for (text, bounds_root) in table {
            let plan = lowered(&text, &db, config);
            assert_eq!(plan.bounds_root(), bounds_root, "{text}");
            let mut rng = ChaCha8Rng::seed_from_u64(5);
            let mut ctx = ctx_for(&db, config, &mut rng);
            let limit = confidence::DEFAULT_PAIRWISE_TERM_LIMIT;
            match plan.execute_bounds(&mut ctx, plan.empty_snapshot(), limit) {
                Ok(bounds) if bounds_root => {
                    assert!(!bounds.is_empty(), "{text}");
                    for (_, b) in &bounds {
                        assert!(0.0 <= b.lower && b.lower <= b.upper && b.upper <= 1.0);
                    }
                }
                Err(EngineError::Unsupported(_)) if !bounds_root => {}
                other => panic!(
                    "{text}: unexpected bounds outcome {:?}",
                    other.map(|b| b.len())
                ),
            }
        }
    }

    #[test]
    fn sequential_execution_restores_shard_width_on_error() {
        // repair-key over an uncertain input fails at execution time; the
        // sequential schedule's single-batch override must be rolled back on
        // that error path instead of leaking `shards = 1` into subsequent
        // evaluations on the same context.
        let mut db = UDatabase::new();
        db.add_variable(Var::new("c"), [(Value::Int(0), 0.5), (Value::Int(1), 0.5)])
            .unwrap();
        let mut r = URelation::empty(pdb::schema!["A", "W"]);
        r.insert(
            Condition::new([(Var::new("c"), Value::Int(0))]).unwrap(),
            pdb::tuple![1, 1],
        )
        .unwrap();
        db.set_relation("R", r, false);
        let config = EvalConfig::exact().with_shards(6);
        let plan = lowered("repairkey[A @ W](R)", &db, config);
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        let mut ctx = ctx_for(&db, config, &mut rng);
        assert!(plan.execute_sequential(&mut ctx).is_err());
        assert_eq!(ctx.config.shards, 6, "override leaked past the error");
        // The context stays usable at its configured width.
        let poss = lowered("poss(R)", &db, config);
        assert!(poss.execute_sequential(&mut ctx).is_ok());
        assert_eq!(ctx.config.shards, 6);
    }

    #[test]
    fn chunked_and_spilled_joins_match_the_nested_loop_reference() {
        // The join goes through the same chunk/spill wrapper as every other
        // row-local operator: whatever the shard count or byte budget
        // (budget-driven chunking engages even at one shard), the output is
        // the nested-loop reference's, bit for bit.
        let db = TupleIndependentDb {
            num_tuples: 150,
            domain_size: 5,
            tuple_probability: None,
            seed: 8,
        }
        .database();
        let left = db.relation("T").unwrap();
        let right = ops::rename(left, "B", "C").unwrap();
        let reference = ops::natural_join_nested_loop(left, &right).unwrap();
        let index = ops::JoinIndex::build(left.schema(), &right, false).unwrap();
        for budget in [0usize, 64, 512, 1 << 20] {
            for shards in [1usize, 4] {
                let joined =
                    sharded_unary(left, shards, budget, |chunk| index.probe(chunk)).unwrap();
                assert_eq!(joined, reference, "shards = {shards}, budget = {budget}");
            }
        }
    }

    #[test]
    fn wave_executor_matches_sequential_on_branchy_plans() {
        let db = TupleIndependentDb {
            num_tuples: 150,
            domain_size: 5,
            tuple_probability: None,
            seed: 8,
        }
        .database();
        // Two independent branches joined: the wave executor overlaps them.
        let text = "join(project[A, B](select[A >= 1](T)), rename[B -> C](project[A, B](T)))";
        for shards in [1usize, 3, 8] {
            let config = EvalConfig::exact().with_shards(shards);
            let engine = UEngine::new(config);
            let query = algebra::parse_query(text).unwrap();
            let catalog = crate::adaptive_query::catalog_of(&db).unwrap();
            let plan = LogicalPlan::lower_validated(&query, &catalog).unwrap();
            let mut rng = ChaCha8Rng::seed_from_u64(3);
            let wave = engine.evaluate_plan(&db, &plan, &mut rng).unwrap();
            let mut rng = ChaCha8Rng::seed_from_u64(3);
            let sequential = engine
                .evaluate_plan_sequential(&db, &plan, &mut rng)
                .unwrap();
            assert_eq!(wave.result.relation, sequential.result.relation);
            assert_eq!(wave.stats, sequential.stats);
        }
    }

    /// The `repair-key` the one-pass kernel replaced, kept as its
    /// bit-identity reference: the input's possible tuples as a relation,
    /// grouped by a `group_by` of cloned tuples, each weight read by name.
    fn repair_key_reference(
        input: EvaluatedRelation,
        key: &[String],
        weight: &str,
        ctx: &mut ExecContext<'_>,
    ) -> Result<EvaluatedRelation> {
        if !input.relation.is_complete_representation() {
            return Err(EngineError::NotComplete(
                "repair-key requires a complete input relation".into(),
            ));
        }
        let complete = input.relation.possible_tuples();
        let key_refs: Vec<&str> = key.iter().map(String::as_str).collect();
        let groups = complete.group_by(&key_refs).map_err(EngineError::Pdb)?;

        let mut rows = Vec::with_capacity(complete.len());
        for (key_tuple, members) in groups {
            // Validate and normalise the weights.
            let mut weights = Vec::with_capacity(members.len());
            let mut total = 0.0;
            for t in &members {
                let w = complete
                    .numeric_value(t, weight)
                    .map_err(EngineError::Pdb)?;
                if !w.is_finite() || w <= 0.0 {
                    return Err(EngineError::Pdb(pdb::PdbError::InvalidWeight(format!(
                        "weight {w} of tuple {t} is not a positive finite number"
                    ))));
                }
                total += w;
                weights.push(w);
            }
            if members.len() == 1 {
                // A single candidate is chosen with probability 1; no random
                // variable is needed.
                rows.push(URow {
                    condition: Condition::always(),
                    tuple: members[0].clone(),
                });
                continue;
            }
            // One fresh variable per key group (the Section 3 translation
            // names it after the key values; we add a counter for global
            // uniqueness across repeated repair-key applications).
            ctx.var_counter += 1;
            let var = Var::new(format!("rk{}:{}", ctx.var_counter, key_tuple));
            let dist: Vec<(Value, f64)> = weights
                .iter()
                .enumerate()
                .map(|(i, w)| (Value::Int(i as i64), w / total))
                .collect();
            ctx.database.wtable_mut().add_variable(var.clone(), dist)?;
            for (i, t) in members.iter().enumerate() {
                rows.push(URow {
                    condition: Condition::new([(var.clone(), Value::Int(i as i64))])?,
                    tuple: t.clone(),
                });
            }
        }
        let out = URelation::from_row_vec(complete.schema().clone(), rows)?;

        let errors = if input.errors.is_empty() {
            BTreeMap::new()
        } else {
            out.possible_tuples()
                .iter()
                .filter_map(|t| input.errors.get(t).map(|e| (t.clone(), *e)))
                .collect()
        };
        Ok(EvaluatedRelation {
            relation: out,
            complete: false,
            errors,
        })
    }

    /// A `repair-key` kernel: [`repair_key`] or [`repair_key_reference`].
    type RepairKeyKernel =
        fn(EvaluatedRelation, &[String], &str, &mut ExecContext<'_>) -> Result<EvaluatedRelation>;

    /// The result of one kernel run (its error by its text), the W-table
    /// it left behind and the counter.
    type RepairKeyOutcome = (
        std::result::Result<(URelation, BTreeMap<Tuple, f64>, bool), String>,
        WTable,
        usize,
    );

    /// One `repair-key` kernel over `input` in a context on `db` whose
    /// counter starts at `counter`.
    fn run_repair_key(
        kernel: RepairKeyKernel,
        db: &UDatabase,
        input: &EvaluatedRelation,
        (key, weight): (&[String], &str),
        counter: usize,
    ) -> RepairKeyOutcome {
        let mut rng = ChaCha8Rng::seed_from_u64(0);
        let mut ctx = ctx_for(db, EvalConfig::exact(), &mut rng);
        ctx.var_counter = counter;
        let out = kernel(input.clone(), key, weight, &mut ctx)
            .map(|out| (out.relation, out.errors, out.complete))
            .map_err(|e| e.to_string());
        (out, ctx.database.wtable().clone(), ctx.var_counter)
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig { cases: 256, ..Default::default() })]

        /// The one-pass `repair-key` against [`repair_key_reference`]:
        /// equal rows, errors, W-table and counter, including on failure.
        /// Inputs over `R(A, B, W, S)` — possibly empty, possibly with an
        /// uncertain row or input errors — keys of zero to three columns,
        /// some unknown, weights that are zero, negative, fractional or
        /// not numbers, and a table that may already declare the first
        /// variable's name.
        #[test]
        fn one_pass_repair_key_matches_the_grouping_reference(
            rows in proptest::collection::vec((0i64..4, 0i64..3, 0usize..6, 0usize..2), 0..14),
            key in proptest::collection::vec(0usize..5, 0..4),
            weight in 0usize..5,
            counter in 0usize..3,
            (uncertain, with_errors, taken) in (0u8..10, proptest::prelude::any::<bool>(), proptest::prelude::any::<bool>()),
        ) {
            let uncertain = uncertain == 0;
            use pdb::schema;
            const ATTRS: [&str; 5] = ["A", "B", "W", "S", "Z"];
            let weights = [Value::Int(2), Value::Int(1), Value::float(0.5), Value::Int(0), Value::Int(-1), Value::str("w")];
            let mut relation = URelation::empty(schema!["A", "B", "W", "S"]);
            for &(a, b, w, label) in &rows {
                let t = Tuple::new(vec![Value::Int(a), Value::Int(b), weights[w].clone(), Value::str(["x", "y"][label])]);
                relation.insert(Condition::always(), t).unwrap();
            }
            if uncertain {
                let cond = Condition::new([(Var::new("u"), Value::Int(0))]).unwrap();
                relation.insert(cond, Tuple::new(vec![Value::Int(9), Value::Int(9), Value::Int(1), Value::str("x")])).unwrap();
            }
            let errors = if with_errors {
                relation.possible_tuples().iter().map(|t| (t.clone(), 0.125)).collect()
            } else {
                BTreeMap::new()
            };
            let input = EvaluatedRelation { relation, complete: !uncertain, errors };
            let mut db = UDatabase::new();
            db.wtable_mut().add_bool_variable(Var::new("u"), 0.5).unwrap();
            if taken {
                // The name the first group of keys (0) would take.
                let name = format!("rk{}:(0)", counter + 1);
                db.wtable_mut().add_bool_variable(Var::new(name), 0.5).unwrap();
            }
            let key: Vec<String> = key.iter().map(|&i| ATTRS[i].to_owned()).collect();
            let spec = (&key[..], ATTRS[weight]);
            let one_pass = run_repair_key(repair_key, &db, &input, spec, counter);
            let reference = run_repair_key(repair_key_reference, &db, &input, spec, counter);
            proptest::prop_assert_eq!(&one_pass.0, &reference.0);
            proptest::prop_assert!(one_pass.1.iter().eq(reference.1.iter()));
            proptest::prop_assert_eq!(one_pass.2, reference.2);
        }
    }

    /// The fused-chain differential's database: `R(A, B, C)` and
    /// `S(C, D)`, whose rows are complete (kinds 0–1) or under one of four
    /// Boolean variables (kinds 2–5), and the complete `K(A, W, C)` for
    /// `repair-key`.
    fn chain_db(
        r: &[(i64, i64, i64, usize)],
        s: &[(i64, i64, usize)],
        k: &[(i64, i64, i64)],
    ) -> UDatabase {
        let mut db = UDatabase::new();
        for (i, p) in [0.3, 0.45, 0.6, 0.75].into_iter().enumerate() {
            db.add_variable(
                Var::new(format!("x{i}")),
                [(Value::Bool(true), p), (Value::Bool(false), 1.0 - p)],
            )
            .unwrap();
        }
        let condition = |kind: usize| match kind {
            0 | 1 => Condition::always(),
            v => Condition::new([(Var::new(format!("x{}", v - 2)), Value::Bool(true))]).unwrap(),
        };
        let ints = |values: &[i64]| Tuple::new(values.iter().map(|&v| Value::Int(v)).collect());
        let mut rel = URelation::empty(pdb::schema!["A", "B", "C"]);
        for &(a, b, c, kind) in r {
            rel.insert(condition(kind), ints(&[a, b, c])).unwrap();
        }
        db.set_relation("R", rel, false);
        let mut rel = URelation::empty(pdb::schema!["C", "D"]);
        for &(c, d, kind) in s {
            rel.insert(condition(kind), ints(&[c, d])).unwrap();
        }
        db.set_relation("S", rel, false);
        let mut rel = URelation::empty(pdb::schema!["A", "W", "C"]);
        for &(a, w, c) in k {
            rel.insert(Condition::always(), ints(&[a, w, c])).unwrap();
        }
        db.set_relation("K", rel, true);
        db
    }

    /// A chain of `σ` / `π` / `ρ` links over the query `base` with
    /// attributes `attrs`, each link drawn from `(kind, x, y, c)`: a
    /// selection (one that keeps nothing among them), a projection onto a
    /// non-empty subset of the attributes in rotated order, or a rename.
    /// Returns the text of every prefix of the chain, base first.
    fn chain_texts(
        base: &str,
        mut attrs: Vec<String>,
        links: &[(u8, usize, usize, i64)],
    ) -> Vec<String> {
        let mut texts = vec![base.to_owned()];
        for (n, &(kind, x, y, c)) in links.iter().enumerate() {
            let input = texts.last().unwrap().clone();
            let a = attrs[x % attrs.len()].clone();
            let b = attrs[y % attrs.len()].clone();
            texts.push(match kind % 5 {
                0 => format!("select[{a} >= {c}]({input})"),
                1 => format!("select[({a} + {b}) <= {c} or {a} = {}]({input})", c - 1),
                2 => format!("select[{a} >= 9]({input})"),
                3 => {
                    let mask = x % ((1 << attrs.len()) - 1) + 1;
                    let kept: Vec<String> = (0..attrs.len())
                        .map(|i| attrs[(i + y) % attrs.len()].clone())
                        .enumerate()
                        .filter(|(i, _)| mask & (1 << i) != 0)
                        .map(|(_, a)| a)
                        .collect();
                    attrs = kept;
                    format!("project[{}]({input})", attrs.join(", "))
                }
                _ => {
                    let to = format!("N{n}");
                    let at = x % attrs.len();
                    attrs[at] = to.clone();
                    format!("rename[{a} -> {to}]({input})")
                }
            });
        }
        texts
    }

    /// What one run of a plan leaves: the result (rows, errors,
    /// completeness, and the last column's bits — a `conf`'s estimates),
    /// or its error; the statistics, the counter, the W-table and the next
    /// RNG draw.
    type ChainOutcome = (
        std::result::Result<(URelation, BTreeMap<Tuple, f64>, bool, Vec<u64>), String>,
        EvalStats,
        usize,
        WTable,
        u64,
    );

    fn run_chain_plan(
        plan: &PhysicalPlan,
        db: &UDatabase,
        config: EvalConfig,
        sequential: bool,
    ) -> ChainOutcome {
        let mut rng = ChaCha8Rng::seed_from_u64(7);
        let mut ctx = ctx_for(db, config, &mut rng);
        let out = if sequential {
            plan.execute_sequential(&mut ctx)
        } else {
            plan.execute(&mut ctx)
        };
        let out = out.map_err(|e| e.to_string()).map(|out| {
            let bits = (out.relation.iter())
                .filter_map(|row| row.tuple.values().last().and_then(Value::as_f64))
                .map(f64::to_bits)
                .collect();
            (out.relation, out.errors, out.complete, bits)
        });
        let (stats, counter, wtable) = (ctx.stats, ctx.var_counter, ctx.database.wtable().clone());
        (out, stats, counter, wtable, rng.next_u64())
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig { cases: 96, ..Default::default() })]

        /// An exact `conf` fused with its `σ` / `π` / `ρ` chain against the
        /// unfused plan, which materialises every link: equal rows,
        /// estimates by `to_bits`, errors, statistics, counter, W-table and
        /// RNG position, under the wave and the sequential executor, at one
        /// and eight shards and under a spill budget; and the fused pass's
        /// lineage batch equal, tuple by tuple and term by term, to the one
        /// `URelation::tuple_events` groups from the materialised chain.
        /// Bases are a scan, a join, a `repair-key` and a join over one, or
        /// a `σ̂` (never fused); the root is a `conf`, a sampled `aconf`
        /// (never fused), or a `conf` whose chain's top input another node
        /// also reads (fused above it only).
        #[test]
        fn a_fused_conf_matches_the_unfused_plan_bit_for_bit(
            r in proptest::collection::vec((0i64..3, 0i64..3, 0i64..3, 0usize..6), 0..48),
            s in proptest::collection::vec((0i64..3, 0i64..3, 0usize..6), 0..8),
            k in proptest::collection::vec((0i64..3, 1i64..4, 0i64..3), 0..10),
            base in 0usize..5,
            links in proptest::collection::vec((0u8..5, 0usize..8, 0usize..8, 0i64..4), 0..5),
            root in 0usize..3,
        ) {
            use proptest::{prop_assert, prop_assert_eq};
            let db = chain_db(&r, &s, &k);
            let attrs = |names: &[&str]| names.iter().map(|a| a.to_string()).collect::<Vec<_>>();
            let (base_text, base_attrs) = [
                ("R", attrs(&["A", "B", "C"])),
                ("join(R, S)", attrs(&["A", "B", "C", "D"])),
                ("repairkey[A @ W](K)", attrs(&["A", "W", "C"])),
                ("join(repairkey[A @ W](K), S)", attrs(&["A", "W", "C", "D"])),
                ("aselect[P1 = conf(A, C); P1 >= 0.3](R)", attrs(&["A", "C"])),
            ][base].clone();
            let texts = chain_texts(base_text, base_attrs, &links);
            let chain = texts.last().unwrap();
            let text = match root {
                0 => format!("conf({chain})"),
                1 => format!("aconf[0.3, 0.2]({chain})"),
                _ => format!("join(conf({chain}), {})", texts[texts.len().saturating_sub(2)]),
            };
            let query = algebra::parse_query(&text).unwrap();
            let catalog = crate::adaptive_query::catalog_of(&db).unwrap();
            let logical = LogicalPlan::lower_validated(&query, &catalog).unwrap();
            for config in [
                EvalConfig::default(),
                EvalConfig::default().with_shards(8),
                EvalConfig::default().with_spill_budget_bytes(256),
            ] {
                let fused = PhysicalPlan::lower(&logical, config).unwrap();
                let unfused = PhysicalPlan::lower_unfused(&logical, config).unwrap();
                prop_assert_eq!(fused.signature, unfused.signature);
                // What was fused: the whole chain under a `conf` root, the
                // top link only under a shared input, nothing under an
                // `aconf` or over a σ̂.
                let fused_links: usize = fused.nodes().iter().map(|n| n.chain.len()).sum();
                let expected = match (root, base) {
                    (1, _) | (_, 4) => 0,
                    (0, _) => links.len(),
                    _ => links.len().min(1),
                };
                prop_assert_eq!(fused_links, expected, "{}", text);
                for sequential in [false, true] {
                    let a = run_chain_plan(&fused, &db, config, sequential);
                    let b = run_chain_plan(&unfused, &db, config, sequential);
                    prop_assert!(a.0.is_ok(), "{}: {:?}", text, a.0);
                    prop_assert_eq!(&a.0, &b.0, "{}", text);
                    prop_assert_eq!(a.1, b.1);
                    prop_assert_eq!(a.2, b.2);
                    prop_assert!(a.3.iter().eq(b.3.iter()));
                    prop_assert_eq!(a.4, b.4);
                }
                // The lineage batch of every fused `conf`, against the
                // grouping of its materialised input.
                let mut rng = ChaCha8Rng::seed_from_u64(7);
                let mut ctx = ctx_for(&db, config, &mut rng);
                let (_, captured) = capture_cold(&unfused, &mut ctx);
                let held: BTreeMap<usize, &EvaluatedRelation> = captured.live_slots().collect();
                let compiled = CompiledSpace::compile(ctx.database.wtable()).unwrap();
                for (id, node) in fused.nodes().iter().enumerate() {
                    if node.chain.is_empty() {
                        continue;
                    }
                    let base = &held[&node.inputs[0]].relation;
                    let ops: Vec<&PhysicalOp> = node.chain.iter().map(|&i| &fused.nodes()[i].operator).collect();
                    let batch = compiled.chain_events(base, &bind_chain(base.schema(), &ops).unwrap()).unwrap();
                    let input = &held[&unfused.nodes()[id].inputs[0]].relation;
                    let grouped = input.tuple_events();
                    let tuples: Vec<&Tuple> = grouped.iter().map(|(t, _)| t).collect();
                    prop_assert!(batch.tuples().iter().eq(tuples));
                    let events = grouped.iter().map(|(_, conditions)| compiled.event(conditions).unwrap());
                    prop_assert!(batch.events().iter().eq(events.collect::<Vec<_>>().iter()));
                }
            }
        }
    }

    #[test]
    fn a_sampled_conf_over_equal_content_hits_the_lineage_memo() {
        // A rebuilt relation — equal content, another allocation — must
        // find the batch a sampled `conf` memoised: the memo is keyed by
        // content, not by pointer, because shape-3 inputs of `cold_adhoc`
        // repeat by content.
        let db = TupleIndependentDb {
            num_tuples: 40,
            domain_size: 5,
            tuple_probability: None,
            seed: 3,
        }
        .database();
        let mut rebuilt = db.clone();
        let t = db.relation("T").unwrap();
        let rows: Vec<URow> = t.iter().cloned().collect();
        let copy = URelation::from_row_vec(t.schema().clone(), rows).unwrap();
        assert!(!copy.shares_content(t) && copy == *t);
        rebuilt.set_relation("T", copy, false);

        let config = EvalConfig::exact();
        let plan = lowered("aconf[0.3, 0.2](project[A](T))", &db, config);
        let spaces = SpaceCache::new();
        let mut rng = ChaCha8Rng::seed_from_u64(5);
        for database in [&db, &rebuilt] {
            let mut ctx = ctx_for(database, config, &mut rng);
            ctx.spaces = spaces.clone();
            plan.execute(&mut ctx).unwrap();
        }
        let compiled = spaces.compiled(db.wtable()).unwrap();
        assert_eq!(compiled.lineage_len(), 1);
        assert_eq!(compiled.lineage_hits(), 1);
    }
}
