//! The (ε, δ) fully polynomial-time randomized approximation scheme for
//! confidence computation (Proposition 4.2): Karp–Luby sampling with the
//! Chernoff-bound sample count `⌈3·w·ln(2/δ)/ε²⌉` at the event's sampling
//! width `w = ⌈M / max_f p_f⌉ ≤ |F|` (see [`crate::chernoff`]).

use crate::chernoff::{check_delta, check_epsilon, required_samples};
use crate::error::Result;
use crate::event::{DnfEvent, ProbabilitySpace};
use crate::karp_luby::KarpLubyEstimator;
use rand::Rng;

/// Parameters of an approximate confidence computation (`conf_{ε,δ}`).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct FprasParams {
    /// Relative error ε.
    pub epsilon: f64,
    /// Error probability δ.
    pub delta: f64,
}

impl FprasParams {
    /// Creates a parameter set, validating the ranges.
    pub fn new(epsilon: f64, delta: f64) -> Result<Self> {
        check_epsilon(epsilon)?;
        check_delta(delta)?;
        Ok(FprasParams { epsilon, delta })
    }

    /// The number of Karp–Luby samples required for an event of sampling
    /// width `width` ([`crate::chernoff::sample_width`]; at most, and in the
    /// paper's statement equal to, its term count).
    pub fn samples_for(&self, width: usize) -> Result<usize> {
        required_samples(self.epsilon, self.delta, width)
    }
}

/// Outcome of an approximate confidence computation.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ConfidenceEstimate {
    /// The estimate `p̂`.
    pub estimate: f64,
    /// Number of Karp–Luby samples drawn.
    pub samples: usize,
    /// The requested relative error ε.
    pub epsilon: f64,
    /// The requested error probability δ.
    pub delta: f64,
}

/// Approximates `Pr[F]` to within relative error ε with probability at least
/// `1 − δ` (Proposition 4.2).
///
/// Events with no terms or with an always-true term are answered exactly
/// (0 and 1 respectively) without sampling.
pub fn approximate_confidence<R: Rng + ?Sized>(
    event: &DnfEvent,
    space: &ProbabilitySpace,
    params: FprasParams,
    rng: &mut R,
) -> Result<ConfidenceEstimate> {
    if event.is_never() {
        return Ok(ConfidenceEstimate {
            estimate: 0.0,
            samples: 0,
            epsilon: params.epsilon,
            delta: params.delta,
        });
    }
    if event.is_certain() {
        return Ok(ConfidenceEstimate {
            estimate: 1.0,
            samples: 0,
            epsilon: params.epsilon,
            delta: params.delta,
        });
    }
    let estimator = KarpLubyEstimator::new(event.clone(), space.clone())?;
    let m = params.samples_for(estimator.sample_width())?;
    let estimate = estimator.estimate(m, rng)?;
    Ok(ConfidenceEstimate {
        estimate,
        samples: m,
        epsilon: params.epsilon,
        delta: params.delta,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::Assignment;
    use crate::exact;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn random_event(
        rng: &mut ChaCha8Rng,
        num_vars: usize,
        num_terms: usize,
        term_len: usize,
    ) -> (DnfEvent, ProbabilitySpace) {
        use rand::Rng as _;
        let mut space = ProbabilitySpace::new();
        for _ in 0..num_vars {
            space.add_bool_variable(rng.gen_range(0.05..0.95)).unwrap();
        }
        let mut terms = Vec::new();
        for _ in 0..num_terms {
            let mut pairs = Vec::new();
            for _ in 0..term_len {
                pairs.push((rng.gen_range(0..num_vars), rng.gen_range(0..2usize)));
            }
            if let Ok(a) = Assignment::new(pairs) {
                terms.push(a);
            }
        }
        if terms.is_empty() {
            terms.push(Assignment::new([(0, 0)]).unwrap());
        }
        (DnfEvent::new(terms), space)
    }

    #[test]
    fn params_validation() {
        assert!(FprasParams::new(0.1, 0.05).is_ok());
        assert!(FprasParams::new(0.0, 0.05).is_err());
        assert!(FprasParams::new(0.1, 0.0).is_err());
        assert!(FprasParams::new(1.2, 0.5).is_err());
    }

    #[test]
    fn trivial_events_need_no_samples() {
        let space = ProbabilitySpace::new();
        let params = FprasParams::new(0.1, 0.05).unwrap();
        let mut rng = ChaCha8Rng::seed_from_u64(0);
        let r = approximate_confidence(&DnfEvent::never(), &space, params, &mut rng).unwrap();
        assert_eq!(r.estimate, 0.0);
        assert_eq!(r.samples, 0);
        let certain = DnfEvent::new([Assignment::always()]);
        let r = approximate_confidence(&certain, &space, params, &mut rng).unwrap();
        assert_eq!(r.estimate, 1.0);
        assert_eq!(r.samples, 0);
    }

    #[test]
    fn estimates_are_within_epsilon_of_exact_most_of_the_time() {
        // Empirical check of the (ε, δ) guarantee over several seeded runs:
        // with ε = 0.2 and δ = 0.05, at most a small fraction of runs may
        // exceed the relative error.  With 20 runs, allow 2 outliers.
        let params = FprasParams::new(0.2, 0.05).unwrap();
        let mut gen_rng = ChaCha8Rng::seed_from_u64(11);
        let (event, space) = random_event(&mut gen_rng, 8, 6, 2);
        let exact_p = exact::probability(&event, &space).unwrap();
        assert!(exact_p > 0.0);
        let mut violations = 0;
        for seed in 0..20u64 {
            let mut rng = ChaCha8Rng::seed_from_u64(seed);
            let r = approximate_confidence(&event, &space, params, &mut rng).unwrap();
            if (r.estimate - exact_p).abs() > params.epsilon * exact_p {
                violations += 1;
            }
        }
        assert!(
            violations <= 2,
            "{violations} of 20 runs exceeded the bound"
        );
    }

    #[test]
    fn sample_count_follows_the_fpras_formula() {
        let params = FprasParams::new(0.25, 0.1).unwrap();
        let mut rng = ChaCha8Rng::seed_from_u64(5);
        let (event, space) = random_event(&mut rng, 6, 5, 2);
        let mut rng2 = ChaCha8Rng::seed_from_u64(6);
        let r = approximate_confidence(&event, &space, params, &mut rng2).unwrap();
        let width = KarpLubyEstimator::new(event, space).unwrap().sample_width();
        assert_eq!(r.samples, params.samples_for(width).unwrap());
        assert!(r.samples > 0);
    }
}
