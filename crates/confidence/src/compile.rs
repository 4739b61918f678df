//! Compiled lineage programs: the DNF events of a whole batch flattened into
//! one shared instruction arena, ready for bit-parallel evaluation.
//!
//! The boxed [`DnfEvent`] representation is convenient for algebraic
//! manipulation (Shannon expansion, simplification, bounds) but terrible for
//! Monte Carlo estimation: every Karp–Luby sample re-walks `Assignment`
//! trees, re-allocates a total assignment, and re-runs binary searches per
//! literal.  [`LineagePrograms::compile`] removes all of that *once per
//! batch*:
//!
//! * every distinct literal `X_v = a` of the batch becomes a **slot** — a
//!   single `u64` cell of the evaluation scratchpad whose bit `j` answers
//!   "does sampled world `j` satisfy this literal?" (64 worlds per word);
//! * every distinct term becomes an **AND-chain instruction**: a `(start,
//!   len)` range into the flat [`term_lits`] slot buffer.  Terms shared by
//!   several events of the batch (common sub-events, e.g. lineages that
//!   overlap after a projection) are compiled once and referenced by id;
//! * every event becomes a **program**: its term ids in original DNF order
//!   (the Karp–Luby estimator depends on the order), the total weight `M`
//!   of its terms, and the sampling plan of the variables it mentions —
//!   per-variable cumulative fixed-point thresholds, so drawing an
//!   alternative is one `u64` comparison chain with no floating point.
//!
//! Evaluating a program over a block of 64 sampled worlds is then a linear
//! scan — one `AND` per literal, one `OR` per term — with no allocation and
//! no pointer chasing; [`crate::bitworld`] provides the sampling kernel.
//!
//! Compilation itself only validates the events against the space and notes
//! which are trivial (no terms, or an always-true term).  The arena is built
//! on **first sampled use** — a sampling table, the fingerprint, a sampling
//! width or total weight, an [`IncrementalEstimator`](crate::IncrementalEstimator)
//! — once, behind a `OnceLock` whose initialiser is sequential; a batch
//! answered only exactly (`conf`, `cert`, exact `σ̂`) never builds it
//! ([`LineagePrograms::arena_built`]).
//!
//! Beside the arena sit the **per-event memos**, each computed at most once
//! per compiled batch and kept for its lifetime, so they ride the same
//! content-addressed caching as the programs and a served (warm) request
//! pays a lookup: the **exact** probabilities
//! ([`LineagePrograms::exact_probabilities`], Shannon expansion over the
//! batch's interned terms, see [`crate::exact`]), the exact backend's
//! size estimates and outcomes ([`LineagePrograms::dnnf_probability`], the
//! same kernel per event under a node budget), and
//! the kernel's **sampling tables** — per event, its terms as one flat
//! stream of densely renumbered literals, a Walker alias table over the term
//! weights, and its variables' thresholds — built by the first block drawn
//! for the event ([`LineagePrograms::sampling_table_built`]) and so never
//! for an event that is answered exactly.
//!
//! [`term_lits`]: LineagePrograms::num_distinct_terms

use crate::bitworld::SamplingTable;
use crate::error::{ConfidenceError, Result};
use crate::event::{DnfEvent, ProbabilitySpace, VarId};
use crate::{chernoff, cost, exact};
use std::collections::HashMap;
use std::sync::OnceLock;

/// Marker for "this alternative is mentioned by no literal of the batch" in
/// the per-alternative slot table.
pub(crate) const SLOT_NONE: u32 = u32::MAX;

/// The sampling plan of one variable used by the batch.
#[derive(Clone, Copy, Debug)]
pub(crate) struct VarPlan {
    /// Range `alt_start .. alt_start + alt_len` into
    /// [`LineagePrograms::alt_thresholds`] / [`LineagePrograms::alt_slots`].
    pub alt_start: u32,
    /// Number of alternatives of the variable.
    pub alt_len: u32,
}

/// One compiled event: a view descriptor into the shared arena.
#[derive(Clone, Copy, Debug)]
pub(crate) struct EventProgram {
    /// Range into `event_terms` (terms in original DNF order).
    pub term_start: u32,
    /// Number of terms `|F|` (0 for the impossible event).
    pub term_len: u32,
    /// Range into `event_vars` (local ids of the variables mentioned).
    pub var_start: u32,
    /// Number of distinct variables mentioned.
    pub var_len: u32,
    /// Total term weight `M = Σ_f p_f`.
    pub total_weight: f64,
    /// Largest term weight `max_f p_f` (0 for the impossible event).
    pub max_weight: f64,
}

/// The sampling arena of a batch: everything the block kernel and the
/// sample counts read, built from the events on first sampled use.
pub(crate) struct SamplingArena {
    /// Slot id → local variable id (for forced-assignment bookkeeping).
    pub(crate) slot_var: Vec<u32>,
    /// Local variable id → sampling plan.
    pub(crate) vars: Vec<VarPlan>,
    /// Per variable, per alternative: cumulative probability as a 64-bit
    /// fixed-point threshold (`alt = first k with draw < threshold[k]`); the
    /// last alternative's threshold is saturated to `u64::MAX`.
    pub(crate) alt_thresholds: Vec<u64>,
    /// Per variable, per alternative: the slot holding that literal's world
    /// mask, or [`SLOT_NONE`] when no literal of the batch mentions it.
    pub(crate) alt_slots: Vec<u32>,
    /// Flat AND-chain instruction buffer: literal slots, term by term.
    pub(crate) term_lits: Vec<u32>,
    /// Distinct term id → `(start, len)` into `term_lits`.
    pub(crate) terms: Vec<(u32, u32)>,
    /// Distinct term id → term weight `p_f`.
    pub(crate) term_weights: Vec<f64>,
    /// Flat per-event term-id lists (original DNF order).
    pub(crate) event_terms: Vec<u32>,
    /// Flat per-event variable lists (local ids, ascending).
    pub(crate) event_vars: Vec<u32>,
    /// The per-event programs.
    pub(crate) programs: Vec<EventProgram>,
}

impl SamplingArena {
    /// Builds the arena of events that [`LineagePrograms::compile`] has
    /// validated against `space`.
    fn build(events: &[DnfEvent], space: &ProbabilitySpace) -> Self {
        let mut var_local: HashMap<VarId, u32> = HashMap::new();
        let mut arena = SamplingArena {
            slot_var: Vec::new(),
            vars: Vec::new(),
            alt_thresholds: Vec::new(),
            alt_slots: Vec::new(),
            term_lits: Vec::new(),
            terms: Vec::new(),
            term_weights: Vec::new(),
            event_terms: Vec::new(),
            event_vars: Vec::new(),
            programs: Vec::with_capacity(events.len()),
        };
        let mut term_ids: HashMap<Vec<u32>, u32> = HashMap::new();

        for event in events {
            let term_start = arena.event_terms.len() as u32;
            let var_start = arena.event_vars.len() as u32;
            let mut total_weight = 0.0f64;
            let mut max_weight = 0.0f64;
            let mut locals: Vec<u32> = Vec::new();
            for term in event.terms() {
                // Intern the variables and literals of the term.
                let mut slots: Vec<u32> = Vec::with_capacity(term.len());
                for (var, alt) in term.iter() {
                    let local = *var_local.entry(var).or_insert_with(|| {
                        let dist = space.distribution(var).expect("validated by compile");
                        let alt_start = arena.alt_thresholds.len() as u32;
                        let mut acc = 0.0f64;
                        for &p in dist {
                            acc += p;
                            // 64-bit fixed point; the final threshold is
                            // saturated so every draw lands somewhere.
                            let t = (acc * 1.8446744073709552e19).min(u64::MAX as f64);
                            arena.alt_thresholds.push(t as u64);
                            arena.alt_slots.push(SLOT_NONE);
                        }
                        *arena.alt_thresholds.last_mut().expect("non-empty dist") = u64::MAX;
                        arena.vars.push(VarPlan {
                            alt_start,
                            alt_len: dist.len() as u32,
                        });
                        arena.vars.len() as u32 - 1
                    });
                    let cell = arena.vars[local as usize].alt_start as usize + alt;
                    if arena.alt_slots[cell] == SLOT_NONE {
                        arena.alt_slots[cell] = arena.slot_var.len() as u32;
                        arena.slot_var.push(local);
                    }
                    slots.push(arena.alt_slots[cell]);
                    if !locals.contains(&local) {
                        locals.push(local);
                    }
                }
                // Intern the term (AND-chain) itself; identical terms across
                // the batch share one instruction range.
                slots.sort_unstable();
                let term_id = match term_ids.get(&slots) {
                    Some(&id) => id,
                    None => {
                        let id = arena.terms.len() as u32;
                        let start = arena.term_lits.len() as u32;
                        arena.term_lits.extend_from_slice(&slots);
                        arena.terms.push((start, slots.len() as u32));
                        arena
                            .term_weights
                            .push(term.weight(space).expect("validated by compile"));
                        term_ids.insert(slots, id);
                        id
                    }
                };
                total_weight += arena.term_weights[term_id as usize];
                max_weight = max_weight.max(arena.term_weights[term_id as usize]);
                arena.event_terms.push(term_id);
            }
            locals.sort_unstable();
            arena.event_vars.extend_from_slice(&locals);

            arena.programs.push(EventProgram {
                term_start,
                term_len: event.num_terms() as u32,
                var_start,
                var_len: locals.len() as u32,
                total_weight,
                max_weight,
            });
        }
        arena
    }
}

/// A batch of DNF events compiled into flat programs over one shared arena.
///
/// The compiled form is immutable and self-contained: it retains the source
/// events (for the exact estimator and for scalar reference runs) and a clone
/// of the probability space (a pointer copy: [`ProbabilitySpace`] shares its
/// distributions), so a single `Arc<LineagePrograms>` is everything
/// an estimator needs.  Compilation validates the events and notes which are
/// trivial; the sampling arena is built, linear in the total literal count,
/// by the first sampled use, and per-sample cost afterwards is branch-free
/// bit arithmetic.
pub struct LineagePrograms {
    /// The source events, parallel to the programs.
    events: Vec<DnfEvent>,
    /// The probability space the batch was compiled against.
    space: ProbabilitySpace,
    /// Per event, `Some(p)` when the probability is known without sampling
    /// (no terms → 0, an always-true term → 1).
    trivial: Vec<Option<f64>>,
    /// The sampling arena, built by the first sampled use and never for a
    /// batch that is only answered exactly.  Its initialiser is sequential.
    arena: OnceLock<SamplingArena>,

    /// Warm exact-confidence state: Shannon expansion runs at most once per
    /// batch, after which exact requests are lookups.
    exact_cache: OnceLock<std::result::Result<Vec<f64>, ConfidenceError>>,
    /// Per-event structural circuit-size estimates (cost-model input),
    /// computed lazily and memoised.
    dnnf_estimates: Vec<OnceLock<u64>>,
    /// Per-event exact-backend outcomes: `Some((probability, steps))` when
    /// the expansion fit the node budget, `None` when it aborted.  Sticky —
    /// the attempt runs at most once per compiled batch, so it rides the
    /// same content-addressed caching as the programs themselves.
    dnnf_results: Vec<OnceLock<Option<(f64, u32)>>>,
    /// Per-event sampling tables of the bit-parallel kernel (alias columns,
    /// flat literal stream, variable plan), built by the first block drawn
    /// for the event and never for an event answered exactly — boxed, so an
    /// event that is never sampled carries a pointer, not an empty table.
    sampling_tables: Vec<OnceLock<Box<SamplingTable>>>,
    /// Memoised content fingerprint of the arena (see
    /// [`LineagePrograms::fingerprint`]).
    content_fingerprint: OnceLock<u64>,
}

impl std::fmt::Debug for LineagePrograms {
    /// Reports the arena's sizes once it is built; printing never builds it.
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let arena = self.arena.get();
        f.debug_struct("LineagePrograms")
            .field("events", &self.events.len())
            .field("slots", &arena.map(|a| a.slot_var.len()))
            .field("vars", &arena.map(|a| a.vars.len()))
            .field("distinct_terms", &arena.map(|a| a.terms.len()))
            .field("exact_cached", &self.exact_cache.get().is_some())
            .finish()
    }
}

impl LineagePrograms {
    /// Compiles a batch of events against a probability space.
    ///
    /// Fails if any event mentions a variable or alternative the space does
    /// not declare (the same validation the scalar estimators perform, done
    /// once here instead of per construction).
    pub fn compile(events: Vec<DnfEvent>, space: &ProbabilitySpace) -> Result<Self> {
        for (var, alt) in events
            .iter()
            .flat_map(DnfEvent::terms)
            .flat_map(|t| t.iter())
        {
            if alt >= space.num_alternatives(var)? {
                return Err(ConfidenceError::UnknownAlternative { var, alt });
            }
        }
        let trivial = events
            .iter()
            .map(|event| {
                if event.is_never() {
                    Some(0.0)
                } else if event.is_certain() {
                    Some(1.0)
                } else {
                    None
                }
            })
            .collect();
        let num_events = events.len();
        Ok(LineagePrograms {
            events,
            space: space.clone(),
            trivial,
            arena: OnceLock::new(),
            exact_cache: OnceLock::new(),
            dnnf_estimates: (0..num_events).map(|_| OnceLock::new()).collect(),
            dnnf_results: (0..num_events).map(|_| OnceLock::new()).collect(),
            sampling_tables: (0..num_events).map(|_| OnceLock::new()).collect(),
            content_fingerprint: OnceLock::new(),
        })
    }

    /// The sampling arena, built on first use.
    pub(crate) fn arena(&self) -> &SamplingArena {
        self.arena
            .get_or_init(|| SamplingArena::build(&self.events, &self.space))
    }

    /// True once the sampling arena exists: something has sampled the batch
    /// or asked for a sampling quantity (a width, a weight, the
    /// fingerprint).  A batch answered only exactly stays `false`.
    pub fn arena_built(&self) -> bool {
        self.arena.get().is_some()
    }

    /// Number of compiled events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// True if the batch is empty.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// The source events, parallel to the programs.
    pub fn events(&self) -> &[DnfEvent] {
        &self.events
    }

    /// The probability space the batch was compiled against.
    pub fn space(&self) -> &ProbabilitySpace {
        &self.space
    }

    /// Number of literal slots in the shared arena (builds the arena).
    pub fn num_slots(&self) -> usize {
        self.arena().slot_var.len()
    }

    /// Number of distinct variables the batch mentions (builds the arena).
    pub fn num_vars(&self) -> usize {
        self.arena().vars.len()
    }

    /// Number of distinct terms (shared AND-chains) in the arena; at most —
    /// and for batches with overlapping lineages, well below — the sum of
    /// the events' term counts (builds the arena).
    pub fn num_distinct_terms(&self) -> usize {
        self.arena().terms.len()
    }

    /// The number of terms `|F|` of event `index`.
    pub fn num_terms(&self, index: usize) -> usize {
        self.events[index].num_terms()
    }

    /// `Some(p)` when event `index` needs no sampling (impossible or
    /// certain); known from compilation, so it never builds the arena.
    pub fn trivial(&self, index: usize) -> Option<f64> {
        self.trivial[index]
    }

    /// The total term weight `M` of event `index` (builds the arena).
    pub fn total_weight(&self, index: usize) -> f64 {
        self.arena().programs[index].total_weight
    }

    /// The sampling width `w = ⌈M / max_f p_f⌉ ≤ |F|` of event `index`
    /// ([`chernoff::sample_width`]): the scale of its sample counts, where
    /// `num_terms` stays the scale of everything structural (builds the
    /// arena).
    pub fn sample_width(&self, index: usize) -> usize {
        let p = &self.arena().programs[index];
        chernoff::sample_width(p.total_weight, p.max_weight, p.term_len as usize)
    }

    /// Content fingerprint of the compiled arena: FNV-1a over every flat
    /// buffer (programs, instruction ranges, thresholds, weights), so two
    /// batches fingerprint equal exactly when their compiled content —
    /// events *and* probabilities — is identical.  This is what derives the
    /// canonical per-event sampling streams of shared-sampling engines and
    /// keys their shared block tallies; computed once and memoised (builds
    /// the arena).
    pub fn fingerprint(&self) -> u64 {
        *self.content_fingerprint.get_or_init(|| {
            let arena = self.arena();
            fn mix(mut h: u64, x: u64) -> u64 {
                for b in x.to_le_bytes() {
                    h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3);
                }
                h
            }
            let mut h = 0xCBF2_9CE4_8422_2325u64;
            h = mix(h, arena.programs.len() as u64);
            for (p, trivial) in arena.programs.iter().zip(&self.trivial) {
                h = mix(h, u64::from(p.term_start));
                h = mix(h, u64::from(p.term_len));
                h = mix(h, u64::from(p.var_start));
                h = mix(h, u64::from(p.var_len));
                h = mix(h, p.total_weight.to_bits());
                h = mix(h, trivial.map_or(u64::MAX, |t| t.to_bits()));
            }
            for &t in &arena.event_terms {
                h = mix(h, u64::from(t));
            }
            for &v in &arena.event_vars {
                h = mix(h, u64::from(v));
            }
            for &(start, len) in &arena.terms {
                h = mix(h, u64::from(start));
                h = mix(h, u64::from(len));
            }
            for &l in &arena.term_lits {
                h = mix(h, u64::from(l));
            }
            for &w in &arena.term_weights {
                h = mix(h, w.to_bits());
            }
            for &s in &arena.slot_var {
                h = mix(h, u64::from(s));
            }
            for v in &arena.vars {
                h = mix(h, u64::from(v.alt_start));
                h = mix(h, u64::from(v.alt_len));
            }
            for &t in &arena.alt_thresholds {
                h = mix(h, t);
            }
            for &s in &arena.alt_slots {
                h = mix(h, u64::from(s));
            }
            h
        })
    }

    /// The sampling table of event `index`, built on first use (with the
    /// arena, if it is the batch's first) and kept with the arena: a warm
    /// sampled request pays this lookup.
    pub(crate) fn sampling_table(&self, index: usize) -> &SamplingTable {
        self.sampling_tables[index]
            .get_or_init(|| Box::new(SamplingTable::build(self.arena(), index)))
    }

    /// True once event `index` has been sampled by the bit-parallel kernel
    /// (its sampling table exists); events answered exactly stay `false`.
    pub fn sampling_table_built(&self, index: usize) -> bool {
        self.sampling_tables[index].get().is_some()
    }

    /// Structural circuit-size estimate of event `index` — the
    /// cost-model input ([`cost::estimated_nodes`]) — computed lazily and
    /// memoised per event.
    pub fn dnnf_estimate(&self, index: usize) -> u64 {
        *self.dnnf_estimates[index].get_or_init(|| cost::estimated_nodes(&self.events[index]))
    }

    /// The exact probability of event `index` via the exact backend, or
    /// `None` when the expansion would take more than `budget` steps.
    ///
    /// The backend is the exact kernel of [`Self::exact_probabilities`]
    /// under a budget on its expansion steps — the internal nodes of the
    /// decision-DNNF [`crate::Dnnf::compile`] records from the same run — so
    /// an event it answers gets exactly the bits `exact_probabilities` gives
    /// it.  The attempt runs at most once per compiled batch and the outcome —
    /// success *or* abort — is memoised next to the programs, so warm
    /// requests pay a lookup.  The budget is engine-configuration, constant
    /// across the batch's lifetime, which keeps the outcome a pure function
    /// of event content and configuration (warm ≡ cold).
    pub fn dnnf_probability(&self, index: usize, budget: u32) -> Option<f64> {
        if let Some(p) = self.trivial(index) {
            return Some(p);
        }
        self.dnnf_results[index]
            .get_or_init(|| {
                let mut kernel = exact::Shannon::new(&self.space).with_budget(budget);
                let p = kernel.probability(&self.events[index]).ok()?;
                Some((p, kernel.steps() as u32))
            })
            .map(|(p, _)| p)
    }

    /// The compile-vs-sample decision for event `index`, in one place: its
    /// exact probability via the exact backend when the backend is enabled
    /// (`node_budget > 0`) and the cost model
    /// ([`cost::choose_backend`]) prices the circuit below a sampling bill
    /// of `sample_bill` draws; `None` means *sample* — backend off, circuit
    /// estimated dearer than the bill, or compilation aborted at the budget.
    pub fn exact_if_cheaper(
        &self,
        index: usize,
        sample_bill: u64,
        node_budget: u32,
    ) -> Option<f64> {
        if node_budget == 0
            || cost::choose_backend(self.dnnf_estimate(index), sample_bill, node_budget)
                != cost::Backend::Exact
        {
            return None;
        }
        self.dnnf_probability(index, node_budget)
    }

    /// The expansion steps — the decision-DNNF's internal nodes — the exact
    /// backend took for event `index` (`None` before the first attempt,
    /// after an abort, or for a trivial event).
    pub fn dnnf_nodes(&self, index: usize) -> Option<u32> {
        self.dnnf_results[index]
            .get()
            .and_then(|r| r.map(|(_, n)| n))
    }

    /// The exact probabilities of all events of the batch, computed by
    /// Shannon expansion **once** and memoised: the warm estimator state of a
    /// served exact-confidence request is this slice.
    pub fn exact_probabilities(&self) -> Result<&[f64]> {
        // The initialiser is sequential on purpose.  A parallel map in here
        // would, while it waits, help run queued pool jobs — among them the
        // sibling events of the very batch that is asking (the per-event
        // `ExactEstimator` path fans out before it gets here) — and
        // re-entering `get_or_init` from inside its own initialiser
        // deadlocks.  Concurrent callers block on the one computation.
        // One kernel serves the batch, so its events share one term arena.
        let cached = self.exact_cache.get_or_init(|| {
            let mut kernel = exact::Shannon::new(&self.space);
            self.events
                .iter()
                .map(|event| kernel.probability(event))
                .collect::<Result<Vec<f64>>>()
        });
        match cached {
            Ok(probs) => Ok(probs),
            Err(e) => Err(e.clone()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::Assignment;
    use std::sync::Arc;

    fn space() -> ProbabilitySpace {
        let mut s = ProbabilitySpace::new();
        s.add_variable(vec![2.0 / 3.0, 1.0 / 3.0]).unwrap(); // 0
        s.add_bool_variable(0.5).unwrap(); // 1
        s.add_variable(vec![0.25, 0.25, 0.5]).unwrap(); // 2
        s
    }

    fn a(pairs: &[(usize, usize)]) -> Assignment {
        Assignment::new(pairs.iter().copied()).unwrap()
    }

    #[test]
    fn shared_terms_are_compiled_once() {
        let s = space();
        let shared = a(&[(0, 0), (1, 0)]);
        let events = vec![
            DnfEvent::new([shared.clone(), a(&[(2, 1)])]),
            DnfEvent::new([a(&[(2, 2)]), shared.clone()]),
            DnfEvent::new([shared]),
        ];
        let programs = LineagePrograms::compile(events, &s).unwrap();
        assert_eq!(programs.len(), 3);
        // 4 distinct literals, 3 distinct terms across 5 term occurrences.
        assert_eq!(programs.num_slots(), 4);
        assert_eq!(programs.num_distinct_terms(), 3);
        assert_eq!(programs.num_terms(0), 2);
        assert_eq!(programs.num_terms(2), 1);
        assert_eq!(programs.num_vars(), 3);
        assert!(format!("{programs:?}").contains("distinct_terms"));
    }

    #[test]
    fn weights_and_trivial_flags_match_the_events() {
        let s = space();
        let events = vec![
            DnfEvent::never(),
            DnfEvent::new([Assignment::always()]),
            DnfEvent::new([a(&[(0, 0)]), a(&[(1, 1)])]),
        ];
        let programs = LineagePrograms::compile(events.clone(), &s).unwrap();
        assert_eq!(programs.trivial(0), Some(0.0));
        assert_eq!(programs.trivial(1), Some(1.0));
        assert_eq!(programs.trivial(2), None);
        let m = events[2].total_term_weight(&s).unwrap();
        assert!((programs.total_weight(2) - m).abs() < 1e-12);
        assert_eq!(programs.events(), events.as_slice());
        assert!(!programs.is_empty());
    }

    #[test]
    fn thresholds_are_cumulative_and_saturated() {
        let s = space();
        let events = vec![DnfEvent::new([a(&[(2, 0)])])];
        let programs = LineagePrograms::compile(events, &s).unwrap();
        let plan = programs.arena().vars[0];
        assert_eq!(plan.alt_len, 3);
        let t: Vec<u64> = programs.arena().alt_thresholds
            [plan.alt_start as usize..(plan.alt_start + plan.alt_len) as usize]
            .to_vec();
        assert!(t[0] < t[1] && t[1] < t[2]);
        assert_eq!(t[2], u64::MAX);
        assert!((t[0] as f64 / u64::MAX as f64 - 0.25).abs() < 1e-9);
    }

    #[test]
    fn exact_answers_never_build_the_sampling_arena() {
        let s = space();
        let events = vec![
            DnfEvent::never(),
            DnfEvent::new([Assignment::always()]),
            DnfEvent::new([a(&[(0, 0), (1, 0)]), a(&[(2, 1)])]),
        ];
        let programs = LineagePrograms::compile(events, &s).unwrap();
        // What the exact `conf` operator reads: flags, counts, the answers.
        assert_eq!(programs.trivial(0), Some(0.0));
        assert_eq!(programs.trivial(1), Some(1.0));
        assert_eq!(programs.trivial(2), None);
        assert_eq!(programs.num_terms(2), 2);
        assert_eq!(programs.len(), 3);
        programs.exact_probabilities().unwrap();
        let printed = format!("{programs:?}");
        assert!(printed.contains("distinct_terms: None"), "{printed}");
        assert!(!programs.arena_built());
        // The first sampling quantity builds it.
        assert_eq!(programs.sample_width(2), 2);
        assert!(programs.arena_built());
        assert!(format!("{programs:?}").contains("distinct_terms: Some(3)"));
    }

    #[test]
    fn the_arena_is_built_once_under_concurrent_first_use() {
        let s = space();
        let events = vec![DnfEvent::new([a(&[(0, 0), (1, 0)]), a(&[(2, 1)])]); 8];
        let programs = Arc::new(LineagePrograms::compile(events, &s).unwrap());
        let barrier = std::sync::Barrier::new(2);
        let seen: Vec<(usize, u64)> = std::thread::scope(|scope| {
            let workers: Vec<_> = (0..2)
                .map(|_| {
                    scope.spawn(|| {
                        barrier.wait();
                        let estimator = crate::IncrementalEstimator::from_compiled(&programs, 0);
                        assert!(estimator.is_ok());
                        let arena: *const SamplingArena = programs.arena();
                        (arena as usize, programs.fingerprint())
                    })
                })
                .collect();
            workers.into_iter().map(|w| w.join().unwrap()).collect()
        });
        assert_eq!(seen[0], seen[1], "both threads read the one arena");
        assert!(std::ptr::eq(
            programs.arena(),
            seen[0].0 as *const SamplingArena
        ));
    }

    #[test]
    fn exact_probabilities_are_memoised() {
        let s = space();
        let events = vec![
            DnfEvent::new([a(&[(0, 0)]), a(&[(0, 1)])]),
            DnfEvent::new([a(&[(1, 0), (2, 0)])]),
        ];
        let programs = LineagePrograms::compile(events.clone(), &s).unwrap();
        let first = programs.exact_probabilities().unwrap();
        assert!((first[0] - 1.0).abs() < 1e-12);
        let expected = exact::probability(&events[1], &s).unwrap();
        assert!((first[1] - expected).abs() < 1e-12);
        // Second call returns the same memoised slice.
        let again = programs.exact_probabilities().unwrap();
        assert_eq!(first.as_ptr(), again.as_ptr());
    }

    #[test]
    fn fingerprints_are_content_addressed() {
        let s = space();
        let batch = vec![DnfEvent::new([a(&[(0, 0)]), a(&[(1, 1)])])];
        let p1 = LineagePrograms::compile(batch.clone(), &s).unwrap();
        let p2 = LineagePrograms::compile(batch.clone(), &s).unwrap();
        // Identical content → identical fingerprint, across instances.
        assert_eq!(p1.fingerprint(), p2.fingerprint());
        let p3 = LineagePrograms::compile(vec![DnfEvent::new([a(&[(0, 1)])])], &s).unwrap();
        assert_ne!(p1.fingerprint(), p3.fingerprint());
        // Same structure over different probabilities must not collide: the
        // thresholds and weights are part of the content.
        let mut s2 = ProbabilitySpace::new();
        s2.add_variable(vec![0.5, 0.5]).unwrap();
        s2.add_bool_variable(0.5).unwrap();
        let p4 = LineagePrograms::compile(batch, &s2).unwrap();
        assert_ne!(p1.fingerprint(), p4.fingerprint());
    }

    #[test]
    fn dnnf_outcomes_are_memoised_next_to_the_programs() {
        let s = space();
        let events = vec![
            DnfEvent::new([a(&[(0, 0)]), a(&[(1, 1)])]),
            DnfEvent::never(),
        ];
        let programs = LineagePrograms::compile(events.clone(), &s).unwrap();
        assert!(programs.dnnf_estimate(0) > 2);
        assert_eq!(programs.dnnf_nodes(0), None, "no attempt yet");
        let p = programs.dnnf_probability(0, 1 << 10).unwrap();
        let expected = exact::probability(&events[0], &s).unwrap();
        assert!((p - expected).abs() < 1e-12);
        assert!(programs.dnnf_nodes(0).unwrap() > 0);
        // Trivial events bypass compilation entirely.
        assert_eq!(programs.dnnf_probability(1, 1 << 10), Some(0.0));
        assert_eq!(programs.dnnf_nodes(1), None);
    }

    #[test]
    fn aborted_dnnf_attempts_are_sticky() {
        let s = space();
        let events = vec![DnfEvent::new([
            a(&[(0, 0), (1, 0)]),
            a(&[(1, 1), (2, 0)]),
            a(&[(0, 1), (2, 2)]),
        ])];
        let programs = LineagePrograms::compile(events, &s).unwrap();
        assert_eq!(programs.dnnf_probability(0, 2), None, "budget 2 must abort");
        // The abort is memoised: a later, larger budget does not re-attempt
        // (the budget is engine-constant in practice; stickiness keeps the
        // outcome content-deterministic).
        assert_eq!(programs.dnnf_probability(0, 1 << 20), None);
        assert_eq!(programs.dnnf_nodes(0), None);
    }

    #[test]
    fn unknown_variables_and_alternatives_fail_compilation() {
        let s = space();
        let unknown_var = DnfEvent::new([a(&[(9, 0)])]);
        assert!(LineagePrograms::compile(vec![unknown_var], &s).is_err());
        let unknown_alt = DnfEvent::new([a(&[(1, 5)])]);
        assert!(LineagePrograms::compile(vec![unknown_alt], &s).is_err());
    }
}
