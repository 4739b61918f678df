//! The naive predicate-decision baseline sketched in Section 5.
//!
//! "A naive procedure is to compute each `p̂_i` using
//! `m = 3·|F|·log(2/δ)/ε₀²` [samples].  Let `ψ = φ` if `φ(p̂…)` is true and
//! `¬φ` otherwise.  If `ε_ψ(p̂…) ≥ ε₀`, then … our answer for φ is correct
//! with probability at least `1 − δ`."  The adaptive algorithm of Figure 3
//! improves on this by stopping as soon as the current estimates support the
//! decision; the closing paragraph of Section 5 quantifies the saving as
//! close to a factor of `(ε²_φ − ε²₀)/ε²_φ` of the estimator invocations.
//! This module implements the naive baseline so the benchmark harness can
//! measure that saving.

use crate::algorithm::{ApproximationParams, Decision};
use crate::error::{ApproxError, Result};
use crate::predicate::ApproxPredicate;
use confidence::chernoff;
use confidence::IncrementalEstimator;
use rand::Rng;

/// Decides `phi` with the naive fixed-sample procedure: every estimator
/// draws `l₀ = ⌈3·ln(2·k/δ)/ε₀²⌉` batches (so `l₀·w_i` samples, `w_i ≤ |F_i|`
/// the event's sampling width where the quoted text has `|F|`) up front,
/// then the predicate is evaluated once.
///
/// The per-estimator δ is split evenly (δ/k) so that the summed error bound
/// of Lemma 5.1 meets the overall target, mirroring the balanced-δ choice the
/// adaptive algorithm makes implicitly.
pub fn naive_decide<R: Rng + ?Sized>(
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
    let per_value_delta = params.delta / k as f64;
    let iterations = chernoff::required_iterations(params.epsilon0, per_value_delta)
        .map_err(ApproxError::from)?;

    for est in estimators.iter_mut() {
        for _ in 0..iterations {
            est.add_batch(rng);
        }
    }

    let estimates: Vec<f64> = estimators
        .iter()
        .map(IncrementalEstimator::estimate)
        .collect();
    let value = phi.eval(&estimates)?;
    let eps_psi = phi.epsilon_homogeneous(&estimates)?;
    let converged_above_epsilon0 = eps_psi >= params.epsilon0;
    let epsilon = eps_psi.max(params.epsilon0).min(0.999_999);

    let mut error_bound = 0.0;
    for est in estimators.iter() {
        // The naive procedure only ever certifies at ε₀.
        error_bound += est.error_bound(params.epsilon0)?;
    }
    let samples = estimators.iter().map(IncrementalEstimator::samples).sum();

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

/// The factor by which the adaptive algorithm's estimator invocations are
/// expected to undercut the naive procedure's, `(ε²_φ − ε²₀)/ε²_φ`
/// (the closing claim of Section 5).  Returns 0 when `ε_φ ≤ ε₀`.
pub fn expected_saving_factor(epsilon_phi: f64, epsilon0: f64) -> f64 {
    if epsilon_phi <= epsilon0 || epsilon_phi <= 0.0 {
        return 0.0;
    }
    (epsilon_phi * epsilon_phi - epsilon0 * epsilon0) / (epsilon_phi * epsilon_phi)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algorithm::approximate_predicate;
    use confidence::{Assignment, DnfEvent, ProbabilitySpace};
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn estimator(n: usize, q: f64) -> (IncrementalEstimator, f64) {
        let mut space = ProbabilitySpace::new();
        let mut terms = Vec::new();
        for _ in 0..n {
            let v = space.add_bool_variable(q).unwrap();
            terms.push(Assignment::new([(v, 0)]).unwrap());
        }
        let exact = 1.0 - (1.0 - q).powi(n as i32);
        (
            IncrementalEstimator::new(DnfEvent::new(terms), space).unwrap(),
            exact,
        )
    }

    #[test]
    fn naive_decides_correctly_with_the_prescribed_sample_count() {
        let (mut est, exact) = estimator(6, 0.175);
        let phi = ApproxPredicate::threshold(1, 0, 0.3);
        let params = ApproximationParams::new(0.05, 0.05).unwrap();
        let mut rng = ChaCha8Rng::seed_from_u64(21);
        let d = naive_decide(&phi, std::slice::from_mut(&mut est), params, &mut rng).unwrap();
        assert!(d.value);
        assert!(d.converged_above_epsilon0);
        assert!((d.estimates[0] - exact).abs() < 0.05);
        // Exactly l₀ batches were drawn.
        let l0 = chernoff::required_iterations(0.05, 0.05).unwrap();
        assert_eq!(d.iterations, l0);
        assert_eq!(d.samples, (l0 * est.sample_width()) as u64);
        assert!(d.error_bound <= 0.05 + 1e-9);
    }

    #[test]
    fn adaptive_uses_fewer_samples_on_easy_instances() {
        // A predicate with a wide margin: the adaptive algorithm should need
        // markedly fewer estimator invocations than the naive baseline.
        let phi = ApproxPredicate::threshold(1, 0, 0.2);
        let params = ApproximationParams::new(0.02, 0.05).unwrap();

        let (mut est_naive, _) = estimator(6, 0.175);
        let mut rng = ChaCha8Rng::seed_from_u64(5);
        let naive =
            naive_decide(&phi, std::slice::from_mut(&mut est_naive), params, &mut rng).unwrap();

        let (mut est_adaptive, _) = estimator(6, 0.175);
        let mut rng = ChaCha8Rng::seed_from_u64(5);
        let adaptive = approximate_predicate(
            &phi,
            std::slice::from_mut(&mut est_adaptive),
            params,
            &mut rng,
        )
        .unwrap();

        assert_eq!(naive.value, adaptive.value);
        assert!(
            adaptive.samples * 2 < naive.samples,
            "adaptive {} vs naive {}",
            adaptive.samples,
            naive.samples
        );
    }

    #[test]
    fn saving_factor_formula() {
        assert_eq!(expected_saving_factor(0.0, 0.01), 0.0);
        assert_eq!(expected_saving_factor(0.01, 0.05), 0.0);
        let f = expected_saving_factor(0.5, 0.05);
        assert!((f - (0.25 - 0.0025) / 0.25).abs() < 1e-12);
        assert!(expected_saving_factor(0.5, 0.01) > expected_saving_factor(0.5, 0.2));
    }

    #[test]
    fn arity_mismatch() {
        let phi = ApproxPredicate::threshold(3, 2, 0.5);
        let params = ApproximationParams::new(0.05, 0.05).unwrap();
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        assert!(matches!(
            naive_decide(&phi, &mut [], params, &mut rng),
            Err(ApproxError::ArityMismatch { .. })
        ));
    }
}
