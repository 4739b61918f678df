//! The estimation seam the engine calls: compiled batches in, estimates out.
//!
//! Query operators that compute confidences (`conf`, `cert`, `σ̂`) never need
//! a single probability — they need the probabilities of *all* tuple lineages
//! of a relation at once.  The engine compiles such a batch once into
//! [`LineagePrograms`] and hands it to a [`ConfidenceEstimator`], which
//! evaluates the events **in parallel** (via rayon) while staying
//! **deterministic under a fixed seed**: every event of a batch derives its
//! own sub-RNG from `(master seed, batch index)` ([`event_seed`]) — never
//! from thread scheduling.
//!
//! A probability is computed in production in exactly three ways:
//!
//! * [`ExactEstimator`] — a lookup into
//!   [`LineagePrograms::exact_probabilities`], the memoised Shannon
//!   expansion of the batch (`conf`, `cert`, exact `σ̂`);
//! * [`FprasEstimator`] — the (ε, δ)-FPRAS of Proposition 4.2: the
//!   [`crate::cost`] model sends an event to the d-DNNF backend or to the
//!   bit-parallel block kernel ([`BitKarpLuby`]) with the Chernoff sample
//!   count at the event's sampling width, [`FprasEstimator::bill`]
//!   (`conf_{ε,δ}`);
//! * `approx::approximate_predicate` over
//!   [`crate::IncrementalEstimator::from_compiled`] states — Figure 3
//!   (Monte Carlo `σ̂`), which lives in the `approx` crate.
//!
//! Everything else in this crate that computes a probability — the scalar
//! [`crate::KarpLubyEstimator`], [`crate::approximate_confidence`],
//! [`crate::exact::by_enumeration`], [`crate::exact::by_inclusion_exclusion`]
//! — is a reference the differential and property suites compare the
//! production paths against.
//!
//! ```
//! use confidence::{Assignment, ConfidenceEstimator, DnfEvent, ExactEstimator,
//!                  FprasEstimator, FprasParams, LineagePrograms, ProbabilitySpace};
//! use std::sync::Arc;
//!
//! let mut space = ProbabilitySpace::new();
//! let a = space.add_bool_variable(0.5).unwrap();
//! let b = space.add_bool_variable(0.5).unwrap();
//! let event = DnfEvent::new([
//!     Assignment::new([(a, 0)]).unwrap(),
//!     Assignment::new([(b, 0)]).unwrap(),
//! ]);
//! // Compile the batch once …
//! let programs = Arc::new(LineagePrograms::compile(vec![event.clone(), event], &space).unwrap());
//!
//! // … then estimate it as often as needed.
//! let exact = ExactEstimator.estimate_compiled_batch(&programs, 7).unwrap();
//! assert!((exact[0].estimate - 0.75).abs() < 1e-12);
//!
//! let fpras = FprasEstimator::new(FprasParams::new(0.2, 0.05).unwrap());
//! let approx = fpras.estimate_compiled_batch(&programs, 7).unwrap();
//! // Same seed, same batch → identical estimates, regardless of thread count.
//! assert_eq!(approx, fpras.estimate_compiled_batch(&programs, 7).unwrap());
//! ```

use crate::bitworld::BitKarpLuby;
use crate::compile::LineagePrograms;
use crate::error::Result;
use crate::fpras::FprasParams;
use rand::SeedableRng;
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

/// A strategy for estimating the probabilities of a compiled batch of DNF
/// events.
///
/// `estimate_compiled_batch` must equal mapping
/// [`estimate_compiled`](ConfidenceEstimator::estimate_compiled) over the
/// batch with the per-index seeds of [`event_seed`] — implementations
/// parallelise, but the result is defined sequentially.  The default
/// implementation does exactly that via rayon.
pub trait ConfidenceEstimator: Send + Sync {
    /// Estimates event `index` of a compiled batch; all randomness is
    /// derived from `seed`.
    fn estimate_compiled(
        &self,
        programs: &Arc<LineagePrograms>,
        index: usize,
        seed: u64,
    ) -> Result<EventEstimate>;

    /// Estimates a whole compiled batch in parallel, deterministically in
    /// `master_seed`.
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

    /// The sampling bill of event `index`: the Chernoff count
    /// `⌈3·w·ln(2/δ)/ε²⌉` at the event's sampling width `w`
    /// ([`LineagePrograms::sample_width`]).  This is the number of samples
    /// [`estimate_compiled`](ConfidenceEstimator::estimate_compiled) draws
    /// when it samples, so whatever names a drawn count — the cost model's
    /// sampling side, a shared tally's key — asks here.
    pub fn bill(&self, programs: &LineagePrograms, index: usize) -> Result<u64> {
        Ok(self.params.samples_for(programs.sample_width(index))? as u64)
    }
}

impl ConfidenceEstimator for FprasEstimator {
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
        let bill = self.bill(programs, index)?;
        // Backend choice: compile to d-DNNF and answer exactly when the cost
        // model says the circuit is cheaper than the Chernoff sample bill.
        if let Some(p) = programs.exact_if_cheaper(index, bill, self.exact_backend) {
            return Ok(EventEstimate {
                estimate: p,
                samples: 0,
                exact: true,
            });
        }
        // The block width follows the ε/δ-implied sample budget: Chernoff
        // budgets past 256 ride the 4-word (256-lane) block.
        let m = bill as usize;
        let words = crate::bitworld::block_words_for_samples(m);
        let mut kernel = BitKarpLuby::new_with_width(programs.clone(), index, words)?;
        // The bit-parallel path is RNG-bound, so it derives its per-event
        // sub-RNG as a xoshiro256** small RNG (simulation-grade, several
        // times the throughput of ChaCha) from the same per-event seed.
        let mut rng = rand::rngs::SmallRng::seed_from_u64(seed);
        // The Karp–Luby estimate `M · successes / m` overshoots 1 when `p`
        // is near 1; clamping it into `[0, 1]` only moves it toward `p`, so
        // the (ε, δ) guarantee holds a fortiori.
        let estimate = kernel.estimate_with_deadline(m, &mut rng, self.deadline)?;
        Ok(EventEstimate {
            estimate: estimate.min(1.0),
            samples: bill,
            exact: false,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{Assignment, DnfEvent, ProbabilitySpace};
    use rand::Rng;
    use rand_chacha::ChaCha8Rng;

    fn batch_setup(n: usize) -> Arc<LineagePrograms> {
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
        Arc::new(LineagePrograms::compile(events, &space).unwrap())
    }

    fn fpras(epsilon: f64, delta: f64) -> FprasEstimator {
        FprasEstimator::new(FprasParams::new(epsilon, delta).unwrap())
    }

    /// Two independent 0.9 coins: `p = 0.99` and `M = 1.8`, so a Karp–Luby
    /// run whose success share passes 1/1.8 overshoots 1.  Seed 2 draws
    /// such a run; the estimator answers 1.
    #[test]
    fn estimates_above_one_are_clamped() {
        let mut space = ProbabilitySpace::new();
        let a = space.add_bool_variable(0.9).unwrap();
        let b = space.add_bool_variable(0.9).unwrap();
        let terms = [(a, 0), (b, 0)].map(|literal| Assignment::new([literal]).unwrap());
        let programs =
            Arc::new(LineagePrograms::compile(vec![DnfEvent::new(terms)], &space).unwrap());
        let fpras = fpras(0.3, 0.2);
        let m = fpras.bill(&programs, 0).unwrap();
        let words = crate::bitworld::block_words_for_samples(m as usize);
        let mut kernel = BitKarpLuby::new_with_width(programs.clone(), 0, words).unwrap();
        let mut rng = rand::rngs::SmallRng::seed_from_u64(2);
        let raw = kernel
            .estimate_with_deadline(m as usize, &mut rng, None)
            .unwrap();
        assert!(raw > 1.0, "seed 2 overshoots: {raw}");

        let clamped = fpras.estimate_compiled(&programs, 0, 2).unwrap();
        assert_eq!(clamped.estimate, 1.0);
        assert_eq!((clamped.samples, clamped.exact), (m, false));
    }

    #[test]
    fn parallel_batch_equals_sequential_map_for_every_estimator() {
        let programs = batch_setup(40);
        let estimators: Vec<(&str, Box<dyn ConfidenceEstimator>)> = vec![
            ("exact", Box::new(ExactEstimator)),
            ("fpras", Box::new(fpras(0.3, 0.1))),
        ];
        for (name, estimator) in &estimators {
            let master = 99u64;
            let parallel = estimator
                .estimate_compiled_batch(&programs, master)
                .unwrap();
            let sequential: Vec<EventEstimate> = (0..programs.len())
                .map(|i| {
                    estimator
                        .estimate_compiled(&programs, i, event_seed(master, i))
                        .unwrap()
                })
                .collect();
            assert_eq!(
                parallel, sequential,
                "estimator {name} must be schedule-independent"
            );
        }
    }

    #[test]
    fn batches_are_deterministic_and_seed_sensitive() {
        let programs = batch_setup(12);
        let fpras = fpras(0.25, 0.1);
        let a = fpras.estimate_compiled_batch(&programs, 1).unwrap();
        let b = fpras.estimate_compiled_batch(&programs, 1).unwrap();
        let c = fpras.estimate_compiled_batch(&programs, 2).unwrap();
        assert_eq!(a, b);
        assert_ne!(a, c, "different master seeds must change some estimate");
    }

    #[test]
    fn estimators_agree_with_exact_within_their_guarantees() {
        let programs = batch_setup(10);
        let exact = ExactEstimator
            .estimate_compiled_batch(&programs, 0)
            .unwrap();
        let approx = fpras(0.2, 0.01)
            .estimate_compiled_batch(&programs, 5)
            .unwrap();
        for (i, (e, a)) in exact.iter().zip(&approx).enumerate() {
            assert!(e.exact && e.samples == 0);
            // The memoised Shannon expansion is the scalar reference's value.
            let reference =
                crate::exact::probability(&programs.events()[i], programs.space()).unwrap();
            assert!((e.estimate - reference).abs() < 1e-12);
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
        let programs = Arc::new(LineagePrograms::compile(events, &space).unwrap());
        for estimator in [
            Box::new(ExactEstimator) as Box<dyn ConfidenceEstimator>,
            Box::new(fpras(0.2, 0.1)),
        ] {
            let out = estimator.estimate_compiled_batch(&programs, 3).unwrap();
            assert_eq!(out[0].estimate, 0.0);
            assert_eq!(out[1].estimate, 1.0);
            assert!(out.iter().all(|e| e.exact && e.samples == 0));
        }
    }

    #[test]
    fn deadlines_interrupt_or_leave_runs_bit_identical() {
        let programs = batch_setup(6);
        let past = std::time::Instant::now() - std::time::Duration::from_millis(1);
        // An already expired deadline interrupts before sampling finishes.
        let err = fpras(0.2, 0.1)
            .with_deadline(Some(past))
            .estimate_compiled_batch(&programs, 7)
            .unwrap_err();
        assert_eq!(err, crate::ConfidenceError::Interrupted);
        // A generous deadline changes nothing: the probe draws no randomness.
        let future = std::time::Instant::now() + std::time::Duration::from_secs(3600);
        let free = fpras(0.2, 0.1)
            .estimate_compiled_batch(&programs, 7)
            .unwrap();
        let budgeted = fpras(0.2, 0.1)
            .with_deadline(Some(future))
            .estimate_compiled_batch(&programs, 7)
            .unwrap();
        assert_eq!(free, budgeted);
    }

    #[test]
    fn the_exact_backend_answers_compiled_events_exactly() {
        let programs = batch_setup(12);
        let reference = ExactEstimator
            .estimate_compiled_batch(&programs, 0)
            .unwrap();
        let backed = fpras(0.2, 0.05).with_exact_backend(crate::cost::DEFAULT_NODE_BUDGET);
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
    fn an_unattainable_node_budget_is_bit_identical_to_no_backend() {
        let programs = batch_setup(12);
        // Budget 2 rejects every non-trivial event at the estimate screen, so
        // the sampling path — including its RNG stream — is untouched.
        let plain = fpras(0.25, 0.1)
            .estimate_compiled_batch(&programs, 21)
            .unwrap();
        let gated = fpras(0.25, 0.1)
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
