//! The predicate-approximation algorithm of Figure 3 (Theorem 5.8).
//!
//! Given `k` approximable values (here: tuple confidences estimated by
//! incremental Karp–Luby estimators) and a predicate φ over them, the
//! algorithm repeatedly
//!
//! 1. draws one batch of samples per estimator — `w_i` of them, the event's
//!    sampling width `⌈M / max_f p_f⌉` (`confidence::chernoff`), of which the
//!    paper's `|F_i|` is the equal-weights case,
//! 2. evaluates φ at the current estimates `p̂`,
//! 3. computes `ε := max(ε₀, ε_ψ(p̂))` where `ψ` is φ if `φ(p̂)` holds and
//!    `¬φ` otherwise,
//!
//! and stops once `Σ_i δ_i(ε) ≤ δ`.  It outputs `φ(p̂)` together with the
//! error bound `min(0.5, Σ_i δ_i(ε))`.  Unless the true value vector is an
//! ε₀-singularity, the decision is correct with probability at least `1 − δ`
//! (Theorem 5.8).
//!
//! The stop rule is the only thing Theorem 6.7's whole-query driver changes:
//! it runs this same loop for a fixed number `l` of outer iterations
//! ([`ApproximationParams::fixed_iterations`]) and reads off the bound
//! `Σ_i δ_i(ε) = Σ_i δ′(ε, l)` reached.

use crate::error::{ApproxError, Result};
use crate::predicate::ApproxPredicate;
use confidence::IncrementalEstimator;
use rand::Rng;

/// Configuration of the Figure 3 algorithm.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ApproximationParams {
    /// The smallest relative half-width ε₀ > 0 the algorithm is willing to
    /// refine to; values whose homogeneous ε falls below ε₀ are treated as
    /// boundary cases (possible singularities).
    pub epsilon0: f64,
    /// The target error probability δ (`0` under
    /// [`fixed_iterations`](Self::fixed_iterations): no target).
    pub delta: f64,
    /// Hard cap on the number of outer-loop iterations, so that singular
    /// inputs terminate; `None` uses the iteration count that already drives
    /// `δ′(ε₀, l)` below `delta`, which is the most any non-singular input
    /// can need.
    pub max_iterations: Option<usize>,
    /// Cooperative deadline: the outer loop probes the clock once per
    /// iteration and aborts with [`ApproxError::Interrupted`] when it has
    /// passed.  `None` (the default) never interrupts.  Runs that complete
    /// are bit-identical to deadline-free runs — the probe draws no
    /// randomness.
    pub deadline: Option<std::time::Instant>,
}

impl ApproximationParams {
    /// Creates a parameter set, validating ranges.
    pub fn new(epsilon0: f64, delta: f64) -> Result<Self> {
        if !(epsilon0 > 0.0 && epsilon0 < 1.0) {
            return Err(ApproxError::InvalidParameter(format!(
                "epsilon0 = {epsilon0} must be in (0, 1)"
            )));
        }
        if !(delta > 0.0 && delta < 1.0) {
            return Err(ApproxError::InvalidParameter(format!(
                "delta = {delta} must be in (0, 1)"
            )));
        }
        Ok(ApproximationParams {
            epsilon0,
            delta,
            max_iterations: None,
            deadline: None,
        })
    }

    /// The fixed-`l` stop rule of the Theorem 6.7 driver: no error target,
    /// the loop runs `iterations` outer iterations (at least one — Figure 3
    /// decides on estimates) and reports the bound it reached.  With
    /// `delta = 0` the error test can only end the loop early once the bound
    /// is exactly 0, when further batches cannot change anything.
    pub fn fixed_iterations(epsilon0: f64, iterations: usize) -> Result<Self> {
        Ok(ApproximationParams {
            delta: 0.0,
            max_iterations: Some(iterations),
            // Validates ε₀; the placeholder δ is overridden above.
            ..ApproximationParams::new(epsilon0, 0.5)?
        })
    }

    /// Sets an explicit iteration cap.
    pub fn with_max_iterations(mut self, max_iterations: usize) -> Self {
        self.max_iterations = Some(max_iterations);
        self
    }

    /// Sets the cooperative deadline (see [`Self::deadline`]).
    pub fn with_deadline(mut self, deadline: Option<std::time::Instant>) -> Self {
        self.deadline = deadline;
        self
    }

    /// The number of outer-loop iterations after which `δ′(ε₀, l) · k ≤ δ`,
    /// i.e. the iteration count of the naive procedure; no non-singular input
    /// needs more.  It is an iteration *cap*, not a sample count: the cast
    /// saturates on purpose, so a tiny ε₀ yields `usize::MAX` ("never stop
    /// on the count") rather than an error.
    pub fn fallback_iterations(&self, k: usize) -> usize {
        let k = k.max(1) as f64;
        (3.0 * (2.0 * k / self.delta).ln() / (self.epsilon0 * self.epsilon0)).ceil() as usize
    }
}

/// The outcome of a predicate approximation.
#[derive(Clone, Debug, PartialEq)]
pub struct Decision {
    /// The decided truth value `φ(p̂₁, …, p̂_k)`.
    pub value: bool,
    /// The reported error bound `min(0.5, Σ_i δ_i(ε))`.
    pub error_bound: f64,
    /// The ε at which the loop stopped (`max(ε₀, ε_ψ(p̂))` of the last
    /// iteration).
    pub epsilon: f64,
    /// Number of outer-loop iterations executed.
    pub iterations: usize,
    /// Total number of Karp–Luby samples drawn across all estimators.
    pub samples: u64,
    /// The final estimates `p̂_i`.
    pub estimates: Vec<f64>,
    /// True if the loop stopped because the error target was met with
    /// `ε_ψ(p̂) ≥ ε₀`; false if it bottomed out at ε₀ (the estimates ended up
    /// too close to a decision boundary — the singularity-suspect case of
    /// Theorem 5.8's proof, case 2).
    pub converged_above_epsilon0: bool,
}

/// Runs the algorithm of Figure 3 on `estimators` (one per approximated
/// value) for the predicate `phi`.
///
/// The estimators carry any samples they already have; the algorithm adds
/// batches until the stopping condition is met.  The predicate's arity must
/// not exceed the number of estimators.
pub fn approximate_predicate<R: Rng + ?Sized>(
    phi: &ApproxPredicate,
    estimators: &mut [IncrementalEstimator],
    params: ApproximationParams,
    rng: &mut R,
) -> Result<Decision> {
    if phi.arity() > estimators.len() {
        return Err(ApproxError::ArityMismatch {
            expected: phi.arity(),
            actual: estimators.len(),
        });
    }
    let k = estimators.len().max(1);
    let max_iterations = params
        .max_iterations
        .unwrap_or_else(|| params.fallback_iterations(k));

    let mut iterations = 0usize;
    let (value, epsilon, error_bound, converged_above_epsilon0) = loop {
        if let Some(d) = params.deadline {
            if std::time::Instant::now() >= d {
                return Err(ApproxError::Interrupted);
            }
        }
        iterations += 1;
        for est in estimators.iter_mut() {
            est.add_batch(rng);
        }
        let estimates: Vec<f64> = estimators
            .iter()
            .map(IncrementalEstimator::estimate)
            .collect();

        let value = phi.eval(&estimates)?;
        // ε_ψ(p̂) for ψ = φ or ¬φ: the homogeneous ε of the predicate around
        // the current estimates (the composition rule already works on
        // whichever side the estimates lie).
        let eps_psi = phi.epsilon_homogeneous(&estimates)?;
        let converged_above_epsilon0 = eps_psi >= params.epsilon0;
        // The Karp–Luby/Chernoff bound needs ε < 1.
        let epsilon = eps_psi.max(params.epsilon0).min(0.999_999);

        let mut error_bound = 0.0;
        for est in estimators.iter() {
            error_bound += est.error_bound(epsilon)?;
        }

        if error_bound <= params.delta || iterations >= max_iterations {
            break (value, epsilon, error_bound, converged_above_epsilon0);
        }
    };

    let samples = estimators.iter().map(IncrementalEstimator::samples).sum();
    let estimates: Vec<f64> = estimators
        .iter()
        .map(IncrementalEstimator::estimate)
        .collect();
    Ok(Decision {
        value,
        error_bound: error_bound.min(0.5),
        epsilon,
        iterations,
        samples,
        estimates,
        converged_above_epsilon0,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use confidence::{Assignment, DnfEvent, ProbabilitySpace};
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    /// An estimator for a fresh tuple-independent event with `n` tuples of
    /// probability `q` each (true probability `1 − (1−q)^n`).
    fn estimator(n: usize, q: f64) -> (IncrementalEstimator, f64) {
        let mut space = ProbabilitySpace::new();
        let mut terms = Vec::new();
        for _ in 0..n {
            let v = space.add_bool_variable(q).unwrap();
            terms.push(Assignment::new([(v, 0)]).unwrap());
        }
        let event = DnfEvent::new(terms);
        let exact = 1.0 - (1.0 - q).powi(n as i32);
        (IncrementalEstimator::new(event, space).unwrap(), exact)
    }

    #[test]
    fn parameter_validation() {
        assert!(ApproximationParams::new(0.01, 0.05).is_ok());
        assert!(ApproximationParams::new(0.0, 0.05).is_err());
        assert!(ApproximationParams::new(0.01, 0.0).is_err());
        assert!(ApproximationParams::new(1.0, 0.5).is_err());
        assert!(ApproximationParams::new(0.5, 1.0).is_err());
        let p = ApproximationParams::new(0.1, 0.05)
            .unwrap()
            .with_max_iterations(7);
        assert_eq!(p.max_iterations, Some(7));
        assert!(p.fallback_iterations(2) > 0);
        let fixed = ApproximationParams::fixed_iterations(0.1, 7).unwrap();
        assert_eq!((fixed.delta, fixed.max_iterations), (0.0, Some(7)));
        assert!(ApproximationParams::fixed_iterations(1.0, 7).is_err());
    }

    #[test]
    fn the_fallback_cap_saturates_instead_of_panicking() {
        let p = ApproximationParams::new(1e-10, 0.5).unwrap();
        assert_eq!(p.fallback_iterations(1), usize::MAX);
        assert_eq!(p.fallback_iterations(1000), usize::MAX);
    }

    #[test]
    fn the_fixed_stop_rule_runs_exactly_l_iterations() {
        // A clear margin the adaptive rule settles in a handful of
        // iterations: the fixed rule keeps drawing to `l` regardless, and
        // its bound is δ′(ε, l).
        for l in [0usize, 1, 5, 40] {
            let (mut est, _) = estimator(6, 0.175);
            let phi = ApproxPredicate::threshold(1, 0, 0.3);
            let params = ApproximationParams::fixed_iterations(0.05, l).unwrap();
            let mut rng = ChaCha8Rng::seed_from_u64(42);
            let d = approximate_predicate(&phi, std::slice::from_mut(&mut est), params, &mut rng)
                .unwrap();
            let ran = l.max(1);
            assert_eq!(d.iterations, ran);
            assert_eq!(d.samples, 6 * ran as u64);
            let bound = confidence::chernoff::delta_prime(d.epsilon, ran).unwrap();
            assert!((d.error_bound - bound.min(0.5)).abs() < 1e-12);
        }
    }

    #[test]
    fn decides_a_clear_threshold_quickly_and_correctly() {
        // True probability ≈ 0.684 against threshold 0.3: a wide margin, so
        // the adaptive algorithm should stop long before the naive iteration
        // count and decide "true".
        let (mut est, exact) = estimator(6, 0.175);
        assert!(exact > 0.6 && exact < 0.75);
        let phi = ApproxPredicate::threshold(1, 0, 0.3);
        let params = ApproximationParams::new(0.05, 0.05).unwrap();
        let mut rng = ChaCha8Rng::seed_from_u64(42);
        let d =
            approximate_predicate(&phi, std::slice::from_mut(&mut est), params, &mut rng).unwrap();
        assert!(d.value);
        assert!(d.error_bound <= 0.05);
        assert!(d.converged_above_epsilon0);
        assert!(d.iterations < params.fallback_iterations(1));
        assert!((d.estimates[0] - exact).abs() < 0.1);
    }

    #[test]
    fn decides_on_the_false_side_too() {
        let (mut est, exact) = estimator(4, 0.05);
        assert!(exact < 0.2);
        let phi = ApproxPredicate::threshold(1, 0, 0.6);
        let params = ApproximationParams::new(0.05, 0.05).unwrap();
        let mut rng = ChaCha8Rng::seed_from_u64(7);
        let d =
            approximate_predicate(&phi, std::slice::from_mut(&mut est), params, &mut rng).unwrap();
        assert!(!d.value);
        assert!(d.error_bound <= 0.05);
        assert!(d.converged_above_epsilon0);
    }

    #[test]
    fn multi_value_ratio_predicate() {
        // P1/P2 ≤ 0.5 (Example 6.1) with P1 ≈ 0.19, P2 ≈ 0.6: the ratio is
        // well below 0.5, so the predicate (written as 0.5·x1 − x0 ≥ 0)
        // should be decided "true".
        let (mut e1, exact1) = estimator(2, 0.1);
        let (mut e2, exact2) = estimator(5, 0.17);
        assert!(exact1 / exact2 < 0.4);
        let phi = ApproxPredicate::linear(crate::linear::LinearIneq::new(vec![-1.0, 0.5], 0.0));
        let params = ApproximationParams::new(0.05, 0.05).unwrap();
        let mut rng = ChaCha8Rng::seed_from_u64(11);
        let mut ests = [e1.clone(), e2.clone()];
        let d = approximate_predicate(&phi, &mut ests, params, &mut rng).unwrap();
        assert!(d.value);
        assert!(d.error_bound <= 0.05);
        // The two estimators share the work.
        assert!(d.samples > 0);
        // Keep clippy quiet about the unused originals.
        let _ = (&mut e1, &mut e2);
    }

    #[test]
    fn near_singular_inputs_bottom_out_at_epsilon0() {
        // True probability exactly at the threshold: the algorithm cannot
        // separate the estimate from the boundary, so it runs to the
        // iteration cap and reports that it never converged above ε₀.
        let (mut est, exact) = estimator(1, 0.5);
        assert!((exact - 0.5).abs() < 1e-12);
        let phi = ApproxPredicate::threshold(1, 0, 0.5);
        let params = ApproximationParams::new(0.1, 0.05)
            .unwrap()
            .with_max_iterations(200);
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        let d =
            approximate_predicate(&phi, std::slice::from_mut(&mut est), params, &mut rng).unwrap();
        assert_eq!(d.iterations, 200);
        assert!(!d.converged_above_epsilon0);
        // The error bound is still reported (capped at 0.5).
        assert!(d.error_bound <= 0.5);
    }

    #[test]
    fn trivial_estimators_and_constant_predicates() {
        let space = ProbabilitySpace::new();
        let mut est = IncrementalEstimator::new(DnfEvent::never(), space).unwrap();
        let phi = ApproxPredicate::threshold(1, 0, 0.5);
        let params = ApproximationParams::new(0.05, 0.05).unwrap();
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        let d =
            approximate_predicate(&phi, std::slice::from_mut(&mut est), params, &mut rng).unwrap();
        // conf = 0 ≥ 0.5 is false, and exact, so one iteration suffices.
        assert!(!d.value);
        assert_eq!(d.iterations, 1);
        assert_eq!(d.error_bound, 0.0);
    }

    #[test]
    fn expired_deadline_interrupts_before_sampling() {
        let (mut est, _) = estimator(4, 0.3);
        let phi = ApproxPredicate::threshold(1, 0, 0.5);
        let params = ApproximationParams::new(0.05, 0.05)
            .unwrap()
            .with_deadline(Some(
                std::time::Instant::now() - std::time::Duration::from_millis(1),
            ));
        let mut rng = ChaCha8Rng::seed_from_u64(5);
        let err = approximate_predicate(&phi, std::slice::from_mut(&mut est), params, &mut rng);
        assert_eq!(err, Err(ApproxError::Interrupted));
    }

    #[test]
    fn arity_mismatch_is_detected() {
        let phi = ApproxPredicate::threshold(2, 1, 0.5);
        let params = ApproximationParams::new(0.05, 0.05).unwrap();
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        let err = approximate_predicate(&phi, &mut [], params, &mut rng);
        assert!(matches!(err, Err(ApproxError::ArityMismatch { .. })));
    }

    #[test]
    fn error_probability_is_empirically_bounded() {
        // Repeat the decision many times with different seeds; the fraction
        // of wrong decisions must stay below δ (with slack for sampling
        // noise of the meta-experiment).
        let phi = ApproxPredicate::threshold(1, 0, 0.4);
        let params = ApproximationParams::new(0.05, 0.1).unwrap();
        let mut wrong = 0;
        let runs = 40;
        for seed in 0..runs {
            let (mut est, exact) = estimator(5, 0.13); // ≈ 0.502
            let truth = exact >= 0.4;
            let mut rng = ChaCha8Rng::seed_from_u64(seed);
            let d = approximate_predicate(&phi, std::slice::from_mut(&mut est), params, &mut rng)
                .unwrap();
            if d.value != truth {
                wrong += 1;
            }
        }
        assert!(wrong <= 4, "{wrong} wrong decisions out of {runs}");
    }
}
