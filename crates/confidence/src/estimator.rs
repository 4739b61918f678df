//! The unified confidence-estimation layer: one trait, batched and parallel.
//!
//! Query operators that compute confidences (`conf`, `cert`, `σ̂`) never need
//! a single probability — they need the probabilities of *all* tuple lineages
//! of a relation at once.  [`ConfidenceEstimator`] is the seam between the
//! engine's physical operators and the estimation machinery of Sections 4–5:
//! it accepts a batch of DNF events and evaluates them **in parallel** (via
//! rayon) while staying **deterministic under a fixed seed**, because every
//! event of a batch derives its own sub-RNG from `(master seed, batch index)`
//! — never from thread scheduling.
//!
//! Three implementations cover the paper's estimation modes:
//!
//! * [`ExactEstimator`] — exact model counting by Shannon expansion
//!   (Section 4's #P-hard baseline, [`crate::exact`]).
//! * [`FprasEstimator`] — the Karp–Luby (ε, δ)-FPRAS of Proposition 4.2,
//!   backed by [`crate::KarpLubyEstimator`].
//! * [`BatchedIncrementalEstimator`] — a fixed number of anytime batches per
//!   event, backed by [`crate::IncrementalEstimator`]; this is the inner step
//!   of the Theorem 6.7 whole-query approximation.
//!
//! ```
//! use confidence::{Assignment, ConfidenceEstimator, DnfEvent, ExactEstimator,
//!                  FprasEstimator, FprasParams, ProbabilitySpace};
//!
//! let mut space = ProbabilitySpace::new();
//! let a = space.add_bool_variable(0.5).unwrap();
//! let event = DnfEvent::new([Assignment::new([(a, 0)]).unwrap()]);
//! let events = vec![event.clone(), event];
//!
//! let exact = ExactEstimator.estimate_batch(&events, &space, 7).unwrap();
//! assert!((exact[0].estimate - 0.5).abs() < 1e-12);
//!
//! let fpras = FprasEstimator::new(FprasParams::new(0.2, 0.05).unwrap());
//! let approx = fpras.estimate_batch(&events, &space, 7).unwrap();
//! // Same seed, same batch → identical estimates, regardless of thread count.
//! assert_eq!(approx, fpras.estimate_batch(&events, &space, 7).unwrap());
//! ```

use crate::adaptive::IncrementalEstimator;
use crate::bitworld::BitKarpLuby;
use crate::compile::LineagePrograms;
use crate::error::Result;
use crate::event::{DnfEvent, ProbabilitySpace};
use crate::exact;
use crate::fpras::{approximate_confidence, FprasParams};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use rayon::prelude::*;
use std::sync::Arc;

/// The estimate produced for one event of a batch.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct EventEstimate {
    /// The probability estimate `p̂` (exact value for exact estimators and
    /// for trivial events).
    pub estimate: f64,
    /// Number of Karp–Luby samples drawn for this event.
    pub samples: u64,
    /// True when the value is exact: exact model counting, or a trivial
    /// event (never/certain) answered without sampling.
    pub exact: bool,
}

/// Derives the deterministic per-event seed for position `index` of a batch
/// started with `master` (a SplitMix64 step keyed by the index, so adjacent
/// indices get uncorrelated streams).
pub fn event_seed(master: u64, index: usize) -> u64 {
    let mut z = master ^ (index as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A strategy for estimating the probabilities of DNF events, in batches.
///
/// `estimate_batch` must equal mapping [`estimate_event`] over the batch with
/// the per-index seeds of [`event_seed`] — implementations parallelise, but
/// the result is defined sequentially.  The default implementation does
/// exactly that via rayon.
///
/// [`estimate_event`]: ConfidenceEstimator::estimate_event
pub trait ConfidenceEstimator: Send + Sync {
    /// A short name for statistics and plan rendering.
    fn name(&self) -> &'static str;

    /// Estimates a single event; all randomness is derived from `seed`.
    fn estimate_event(
        &self,
        event: &DnfEvent,
        space: &ProbabilitySpace,
        seed: u64,
    ) -> Result<EventEstimate>;

    /// Estimates a batch of events in parallel, deterministically in
    /// `master_seed`.
    fn estimate_batch(
        &self,
        events: &[DnfEvent],
        space: &ProbabilitySpace,
        master_seed: u64,
    ) -> Result<Vec<EventEstimate>> {
        (0..events.len())
            .into_par_iter()
            .map(|i| self.estimate_event(&events[i], space, event_seed(master_seed, i)))
            .collect()
    }

    /// Estimates event `index` of an already compiled batch; all randomness
    /// is derived from `seed`.
    ///
    /// Monte Carlo implementations override this with the bit-parallel
    /// [`crate::bitworld`] kernel (64 worlds per word, no per-sample
    /// allocation); the default falls back to the scalar
    /// [`estimate_event`](ConfidenceEstimator::estimate_event) on the
    /// retained source event.  Compiled and scalar runs draw randomness
    /// differently — seeds re-map — but each is deterministic per seed, and
    /// their estimates agree statistically (property-tested).
    fn estimate_compiled(
        &self,
        programs: &Arc<LineagePrograms>,
        index: usize,
        seed: u64,
    ) -> Result<EventEstimate> {
        self.estimate_event(&programs.events()[index], programs.space(), seed)
    }

    /// Estimates a whole compiled batch, deterministically in `master_seed`;
    /// the batched analogue of
    /// [`estimate_compiled`](ConfidenceEstimator::estimate_compiled).
    fn estimate_compiled_batch(
        &self,
        programs: &Arc<LineagePrograms>,
        master_seed: u64,
    ) -> Result<Vec<EventEstimate>> {
        (0..programs.len())
            .into_par_iter()
            .map(|i| self.estimate_compiled(programs, i, event_seed(master_seed, i)))
            .collect()
    }
}

/// Exact model counting (Shannon expansion with memoisation); ignores seeds.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct ExactEstimator;

impl ConfidenceEstimator for ExactEstimator {
    fn name(&self) -> &'static str {
        "exact"
    }

    fn estimate_event(
        &self,
        event: &DnfEvent,
        space: &ProbabilitySpace,
        _seed: u64,
    ) -> Result<EventEstimate> {
        Ok(EventEstimate {
            estimate: exact::probability(event, space)?,
            samples: 0,
            exact: true,
        })
    }

    fn estimate_compiled(
        &self,
        programs: &Arc<LineagePrograms>,
        index: usize,
        _seed: u64,
    ) -> Result<EventEstimate> {
        // Shannon expansion runs at most once per batch; a warm request is a
        // lookup into the memoised probabilities.
        Ok(EventEstimate {
            estimate: programs.exact_probabilities()?[index],
            samples: 0,
            exact: true,
        })
    }
}

/// The Karp–Luby (ε, δ)-FPRAS of Proposition 4.2 with fixed parameters.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct FprasEstimator {
    params: FprasParams,
    deadline: Option<std::time::Instant>,
    exact_backend: u32,
}

impl FprasEstimator {
    /// Creates an estimator drawing the Chernoff-bound sample count for the
    /// given (ε, δ).  The d-DNNF backend starts disabled; see
    /// [`with_exact_backend`](FprasEstimator::with_exact_backend).
    pub fn new(params: FprasParams) -> Self {
        FprasEstimator {
            params,
            deadline: None,
            exact_backend: 0,
        }
    }

    /// Enables the exact d-DNNF backend on the compiled path with a hard
    /// circuit budget of `node_budget` nodes (0 disables it).
    ///
    /// When the [`crate::cost`] model judges an event's estimated circuit
    /// smaller than both the budget and the Chernoff sample bill, the event
    /// is compiled ([`crate::dnnf`]) and answered **exactly** — the estimate
    /// is seed-independent, flagged `exact`, and still within every (ε, δ)
    /// guarantee (an exact answer trivially is).  Oversized circuits abort
    /// at the budget and fall back to sampling, bit-identical to a
    /// backend-free run of the same seed.
    pub fn with_exact_backend(mut self, node_budget: u32) -> Self {
        self.exact_backend = node_budget;
        self
    }

    /// Attaches a cooperative deadline to the bit-parallel compiled path:
    /// sampling loops probe the clock between blocks and abort with
    /// [`crate::ConfidenceError::Interrupted`] once it passes (see
    /// [`crate::bitworld::BitKarpLuby::estimate_with_deadline`]).  Runs
    /// that complete are bit-identical to the deadline-free estimator.
    pub fn with_deadline(mut self, deadline: Option<std::time::Instant>) -> Self {
        self.deadline = deadline;
        self
    }

    /// The (ε, δ) parameters.
    pub fn params(&self) -> FprasParams {
        self.params
    }
}

impl ConfidenceEstimator for FprasEstimator {
    fn name(&self) -> &'static str {
        "karp-luby-fpras"
    }

    fn estimate_event(
        &self,
        event: &DnfEvent,
        space: &ProbabilitySpace,
        seed: u64,
    ) -> Result<EventEstimate> {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let outcome = approximate_confidence(event, space, self.params, &mut rng)?;
        Ok(EventEstimate {
            estimate: outcome.estimate,
            samples: outcome.samples as u64,
            // Trivial events are answered exactly without sampling.
            exact: outcome.samples == 0,
        })
    }

    fn estimate_compiled(
        &self,
        programs: &Arc<LineagePrograms>,
        index: usize,
        seed: u64,
    ) -> Result<EventEstimate> {
        if let Some(p) = programs.trivial(index) {
            return Ok(EventEstimate {
                estimate: p,
                samples: 0,
                exact: true,
            });
        }
        let m = self.params.samples_for(programs.num_terms(index))?;
        // Backend choice: compile to d-DNNF and answer exactly when the cost
        // model says the circuit is cheaper than the Chernoff sample bill.
        if let Some(p) = programs.exact_if_cheaper(index, m as u64, self.exact_backend) {
            return Ok(EventEstimate {
                estimate: p,
                samples: 0,
                exact: true,
            });
        }
        // The block width follows the ε/δ-implied sample budget: Chernoff
        // budgets past 256 ride the 4-word (256-lane) block.
        let words = crate::bitworld::block_words_for_samples(m);
        let mut kernel = BitKarpLuby::new_with_width(programs.clone(), index, words)?;
        // The bit-parallel path is RNG-bound, so it derives its per-event
        // sub-RNG as a xoshiro256** small RNG (simulation-grade, several
        // times the throughput of ChaCha) from the same per-event seed.
        let mut rng = rand::rngs::SmallRng::seed_from_u64(seed);
        Ok(EventEstimate {
            estimate: kernel.estimate_with_deadline(m, &mut rng, self.deadline)?,
            samples: m as u64,
            exact: false,
        })
    }
}

/// A fixed number of anytime Karp–Luby batches per event (the paper's
/// outer-loop counter `l`), the inner step of the Theorem 6.7 driver.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct BatchedIncrementalEstimator {
    batches: usize,
    deadline: Option<std::time::Instant>,
    exact_backend: u32,
}

impl BatchedIncrementalEstimator {
    /// Creates an estimator drawing `batches` batches of `|F_i|` samples per
    /// event.
    pub fn new(batches: usize) -> Self {
        BatchedIncrementalEstimator {
            batches,
            deadline: None,
            exact_backend: 0,
        }
    }

    /// Enables the exact d-DNNF backend on the compiled path with a hard
    /// circuit budget of `node_budget` nodes (0 disables it); the sample
    /// bill side of the cost comparison is `l · |F|`, the total draws the
    /// fixed batches would make.  See
    /// [`FprasEstimator::with_exact_backend`].
    pub fn with_exact_backend(mut self, node_budget: u32) -> Self {
        self.exact_backend = node_budget;
        self
    }

    /// Attaches a cooperative deadline: the clock is probed when a batch
    /// draws a block (every
    /// [`DEADLINE_CHECK_BLOCKS`](crate::bitworld::DEADLINE_CHECK_BLOCKS)-th
    /// one, the first included — a batch the lane bank serves costs no
    /// clock read) and an expired deadline aborts the drive with
    /// [`crate::ConfidenceError::Interrupted`].  Runs that complete are
    /// bit-identical to the deadline-free estimator.
    pub fn with_deadline(mut self, deadline: Option<std::time::Instant>) -> Self {
        self.deadline = deadline;
        self
    }

    /// The batch count `l`.
    pub fn batches(&self) -> usize {
        self.batches
    }
}

impl ConfidenceEstimator for BatchedIncrementalEstimator {
    fn name(&self) -> &'static str {
        "incremental-fixed-l"
    }

    fn estimate_event(
        &self,
        event: &DnfEvent,
        space: &ProbabilitySpace,
        seed: u64,
    ) -> Result<EventEstimate> {
        let mut estimator = IncrementalEstimator::new(event.clone(), space.clone())?;
        self.drive(&mut estimator, seed)
    }

    fn estimate_compiled(
        &self,
        programs: &Arc<LineagePrograms>,
        index: usize,
        seed: u64,
    ) -> Result<EventEstimate> {
        let mut estimator = IncrementalEstimator::from_compiled(programs, index)?;
        if !estimator.is_trivial() {
            let bill = (self.batches as u64).saturating_mul(programs.num_terms(index) as u64);
            if let Some(p) = programs.exact_if_cheaper(index, bill, self.exact_backend) {
                estimator.resolve_exactly(p);
            }
        }
        self.drive(&mut estimator, seed)
    }
}

impl BatchedIncrementalEstimator {
    fn drive(&self, estimator: &mut IncrementalEstimator, seed: u64) -> Result<EventEstimate> {
        // Like the FPRAS compiled path: a per-event xoshiro sub-RNG feeds
        // the bit-parallel kernel underneath the incremental estimator.
        let mut rng = rand::rngs::SmallRng::seed_from_u64(seed);
        for _ in 0..self.batches {
            estimator.add_batch_until(&mut rng, self.deadline)?;
        }
        Ok(EventEstimate {
            estimate: estimator.estimate(),
            samples: estimator.samples(),
            exact: estimator.is_trivial(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::Assignment;
    use rand::Rng;

    fn batch_setup(n: usize) -> (Vec<DnfEvent>, ProbabilitySpace) {
        let mut space = ProbabilitySpace::new();
        let mut rng = ChaCha8Rng::seed_from_u64(13);
        let vars: Vec<_> = (0..8)
            .map(|_| space.add_bool_variable(rng.gen_range(0.1..0.9)).unwrap())
            .collect();
        let mut events = Vec::with_capacity(n);
        for _ in 0..n {
            let terms: Vec<Assignment> = (0..rng.gen_range(1..=3usize))
                .filter_map(|_| {
                    let pairs: Vec<(usize, usize)> = (0..rng.gen_range(1..=2usize))
                        .map(|_| (vars[rng.gen_range(0..vars.len())], rng.gen_range(0..2usize)))
                        .collect();
                    Assignment::new(pairs).ok()
                })
                .collect();
            if terms.is_empty() {
                events.push(DnfEvent::new([Assignment::new([(vars[0], 0)]).unwrap()]));
            } else {
                events.push(DnfEvent::new(terms));
            }
        }
        (events, space)
    }

    #[test]
    fn parallel_batch_equals_sequential_map_for_every_estimator() {
        let (events, space) = batch_setup(40);
        let estimators: Vec<Box<dyn ConfidenceEstimator>> = vec![
            Box::new(ExactEstimator),
            Box::new(FprasEstimator::new(FprasParams::new(0.3, 0.1).unwrap())),
            Box::new(BatchedIncrementalEstimator::new(16)),
        ];
        for estimator in &estimators {
            let master = 99u64;
            let parallel = estimator.estimate_batch(&events, &space, master).unwrap();
            let sequential: Vec<EventEstimate> = events
                .iter()
                .enumerate()
                .map(|(i, e)| {
                    estimator
                        .estimate_event(e, &space, event_seed(master, i))
                        .unwrap()
                })
                .collect();
            assert_eq!(
                parallel,
                sequential,
                "estimator {} must be schedule-independent",
                estimator.name()
            );
        }
    }

    #[test]
    fn batches_are_deterministic_and_seed_sensitive() {
        let (events, space) = batch_setup(12);
        let fpras = FprasEstimator::new(FprasParams::new(0.25, 0.1).unwrap());
        let a = fpras.estimate_batch(&events, &space, 1).unwrap();
        let b = fpras.estimate_batch(&events, &space, 1).unwrap();
        let c = fpras.estimate_batch(&events, &space, 2).unwrap();
        assert_eq!(a, b);
        assert_ne!(a, c, "different master seeds must change some estimate");
    }

    #[test]
    fn estimators_agree_with_exact_within_their_guarantees() {
        let (events, space) = batch_setup(10);
        let exact = ExactEstimator.estimate_batch(&events, &space, 0).unwrap();
        let fpras = FprasEstimator::new(FprasParams::new(0.2, 0.01).unwrap());
        let approx = fpras.estimate_batch(&events, &space, 5).unwrap();
        for (e, a) in exact.iter().zip(&approx) {
            assert!(e.exact && e.samples == 0);
            // ε = 0.2 at δ = 0.01 over 10 events: allow 1.5× the budget so a
            // single unlucky draw cannot flake the suite.
            assert!(
                (a.estimate - e.estimate).abs() <= 0.3 * e.estimate.max(1e-9),
                "estimate {} too far from exact {}",
                a.estimate,
                e.estimate
            );
        }
    }

    #[test]
    fn trivial_events_are_flagged_exact_by_every_estimator() {
        let mut space = ProbabilitySpace::new();
        space.add_bool_variable(0.4).unwrap();
        let events = vec![DnfEvent::never(), DnfEvent::new([Assignment::always()])];
        for estimator in [
            Box::new(ExactEstimator) as Box<dyn ConfidenceEstimator>,
            Box::new(FprasEstimator::new(FprasParams::new(0.2, 0.1).unwrap())),
            Box::new(BatchedIncrementalEstimator::new(4)),
        ] {
            let out = estimator.estimate_batch(&events, &space, 3).unwrap();
            assert_eq!(out[0].estimate, 0.0);
            assert_eq!(out[1].estimate, 1.0);
            assert!(out.iter().all(|e| e.exact && e.samples == 0));
        }
    }

    #[test]
    fn deadlines_interrupt_or_leave_runs_bit_identical() {
        let (events, space) = batch_setup(6);
        let programs = Arc::new(LineagePrograms::compile(events, &space).unwrap());
        let past = std::time::Instant::now() - std::time::Duration::from_millis(1);
        let params = FprasParams::new(0.2, 0.1).unwrap();
        // An already expired deadline interrupts before sampling finishes.
        let err = FprasEstimator::new(params)
            .with_deadline(Some(past))
            .estimate_compiled_batch(&programs, 7)
            .unwrap_err();
        assert_eq!(err, crate::ConfidenceError::Interrupted);
        let err = BatchedIncrementalEstimator::new(4)
            .with_deadline(Some(past))
            .estimate_compiled_batch(&programs, 7)
            .unwrap_err();
        assert_eq!(err, crate::ConfidenceError::Interrupted);
        // A generous deadline changes nothing: the probe draws no randomness.
        let future = std::time::Instant::now() + std::time::Duration::from_secs(3600);
        let free = FprasEstimator::new(params)
            .estimate_compiled_batch(&programs, 7)
            .unwrap();
        let budgeted = FprasEstimator::new(params)
            .with_deadline(Some(future))
            .estimate_compiled_batch(&programs, 7)
            .unwrap();
        assert_eq!(free, budgeted);
    }

    #[test]
    fn the_exact_backend_answers_compiled_events_exactly() {
        let (events, space) = batch_setup(12);
        let programs = Arc::new(LineagePrograms::compile(events, &space).unwrap());
        let reference = ExactEstimator
            .estimate_compiled_batch(&programs, 0)
            .unwrap();
        let params = FprasParams::new(0.2, 0.05).unwrap();
        let backed =
            FprasEstimator::new(params).with_exact_backend(crate::cost::DEFAULT_NODE_BUDGET);
        let a = backed.estimate_compiled_batch(&programs, 7).unwrap();
        let b = backed.estimate_compiled_batch(&programs, 8).unwrap();
        // Exact answers are seed-independent.
        assert_eq!(a, b);
        for (got, want) in a.iter().zip(&reference) {
            assert!(
                got.exact && got.samples == 0,
                "cost model should fire: {got:?}"
            );
            assert!((got.estimate - want.estimate).abs() < 1e-9);
        }
        // Nothing was sampled, so no event's sampling table was built.
        assert!((0..programs.len()).all(|i| !programs.sampling_table_built(i)));
    }

    #[test]
    fn the_incremental_estimator_resolves_exact_backend_answers() {
        let (events, space) = batch_setup(10);
        let programs = Arc::new(LineagePrograms::compile(events, &space).unwrap());
        let reference = ExactEstimator
            .estimate_compiled_batch(&programs, 0)
            .unwrap();
        let backed = BatchedIncrementalEstimator::new(64)
            .with_exact_backend(crate::cost::DEFAULT_NODE_BUDGET);
        let out = backed.estimate_compiled_batch(&programs, 7).unwrap();
        assert_eq!(out, backed.estimate_compiled_batch(&programs, 9).unwrap());
        let mut resolved = 0;
        for (i, (got, want)) in out.iter().zip(&reference).enumerate() {
            if got.exact {
                resolved += 1;
                assert_eq!(got.samples, 0);
                assert!((got.estimate - want.estimate).abs() < 1e-9);
            }
            // A kernel is constructed before the backend resolves the
            // event; only drawing a block builds the sampling table.
            assert_eq!(programs.sampling_table_built(i), !got.exact);
        }
        assert!(resolved > 0, "the cost model never fired on small events");
    }

    #[test]
    fn an_unattainable_node_budget_is_bit_identical_to_no_backend() {
        let (events, space) = batch_setup(12);
        let programs = Arc::new(LineagePrograms::compile(events, &space).unwrap());
        let params = FprasParams::new(0.25, 0.1).unwrap();
        // Budget 2 rejects every non-trivial event at the estimate screen, so
        // the sampling path — including its RNG stream — is untouched.
        let plain = FprasEstimator::new(params)
            .estimate_compiled_batch(&programs, 21)
            .unwrap();
        let gated = FprasEstimator::new(params)
            .with_exact_backend(2)
            .estimate_compiled_batch(&programs, 21)
            .unwrap();
        assert_eq!(plain, gated);
    }

    #[test]
    fn event_seed_spreads_indices() {
        let seeds: std::collections::BTreeSet<u64> = (0..1000).map(|i| event_seed(42, i)).collect();
        assert_eq!(seeds.len(), 1000);
    }
}
