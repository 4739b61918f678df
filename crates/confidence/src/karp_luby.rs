//! The Karp–Luby Monte Carlo estimator for the probability of a DNF event
//! (Section 4, Definition 4.1).

use crate::error::{ConfidenceError, Result};
use crate::event::{Assignment, DnfEvent, ProbabilitySpace, VarId};
use rand::Rng;

/// The Karp–Luby estimator for a fixed event over a fixed probability space.
///
/// Each call to [`sample`](KarpLubyEstimator::sample) draws one Bernoulli
/// variable `X_i` with `E[X_i] = p / M`, where `p` is the event probability
/// and `M` the total term weight; the estimate after `m` samples is
/// `p̂ = X · M / m` with `X = Σ X_i`.
#[derive(Clone, Debug)]
pub struct KarpLubyEstimator {
    event: DnfEvent,
    space: ProbabilitySpace,
    /// Cumulative term weights, used to pick a term with probability `p_f/M`.
    cumulative_weights: Vec<f64>,
    /// Total term weight `M = Σ_f p_f`.
    total_weight: f64,
    /// Largest term weight `max_f p_f`.
    max_weight: f64,
    /// Variables mentioned anywhere in the event (only these matter for the
    /// consistency check of step 3).
    variables: Vec<VarId>,
}

impl KarpLubyEstimator {
    /// Prepares an estimator; fails on an empty event (its probability is 0
    /// and there is nothing to sample) or on undeclared variables.
    pub fn new(event: DnfEvent, space: ProbabilitySpace) -> Result<Self> {
        if event.is_never() {
            return Err(ConfidenceError::EmptyEvent);
        }
        let mut cumulative_weights = Vec::with_capacity(event.num_terms());
        let mut total_weight = 0.0;
        let mut max_weight = 0.0f64;
        for term in event.terms() {
            let weight = term.weight(&space)?;
            total_weight += weight;
            max_weight = max_weight.max(weight);
            cumulative_weights.push(total_weight);
        }
        let variables = event.variables();
        // Validate every variable once so sampling cannot fail later.
        for &v in &variables {
            space.num_alternatives(v)?;
        }
        Ok(KarpLubyEstimator {
            event,
            space,
            cumulative_weights,
            total_weight,
            max_weight,
            variables,
        })
    }

    /// The total term weight `M`.
    pub fn total_weight(&self) -> f64 {
        self.total_weight
    }

    /// The number of terms `|F|`.
    pub fn num_terms(&self) -> usize {
        self.event.num_terms()
    }

    /// The sampling width `w = ⌈M / max_f p_f⌉ ≤ |F|`
    /// ([`crate::chernoff::sample_width`]), the scale of the sample count.
    pub fn sample_width(&self) -> usize {
        crate::chernoff::sample_width(self.total_weight, self.max_weight, self.num_terms())
    }

    /// The event being estimated.
    pub fn event(&self) -> &DnfEvent {
        &self.event
    }

    /// Draws one Karp–Luby sample (Definition 4.1): returns 1 if the chosen
    /// term is the lowest-index term consistent with the sampled world,
    /// otherwise 0.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> u32 {
        // Step 1: choose a term f with probability p_f / M.
        let target = rng.gen_range(0.0..self.total_weight);
        let chosen = match self.cumulative_weights.iter().position(|&w| target < w) {
            Some(i) => i,
            // Floating-point edge: fall back to the last term.
            None => self.cumulative_weights.len() - 1,
        };
        let chosen_term = &self.event.terms()[chosen];

        // Step 2: extend f to a total assignment f* over the mentioned
        // variables, sampling each unconstrained variable from W.
        let mut pairs: Vec<(VarId, usize)> = Vec::with_capacity(self.variables.len());
        for &v in &self.variables {
            let alt = match chosen_term.get(v) {
                Some(a) => a,
                None => {
                    let dist = self
                        .space
                        .distribution(v)
                        .expect("variables validated in new()");
                    sample_alternative(dist, rng)
                }
            };
            pairs.push((v, alt));
        }
        let world = Assignment::new(pairs).expect("each variable assigned once");

        // Step 3: is the chosen term the lowest-index term consistent with
        // the sampled world?
        for (i, term) in self.event.terms().iter().enumerate() {
            if term.satisfied_by(&world) {
                return u32::from(i == chosen);
            }
        }
        // The chosen term is always consistent with the world built from it,
        // so this is unreachable; returning 0 keeps the estimator safe anyway.
        0
    }

    /// Draws `m` samples and returns the estimate `p̂ = X · M / m`.
    pub fn estimate<R: Rng + ?Sized>(&self, m: usize, rng: &mut R) -> Result<f64> {
        if m == 0 {
            return Err(ConfidenceError::InvalidParameter(
                "the Karp-Luby estimate needs at least one sample".into(),
            ));
        }
        let mut x: u64 = 0;
        for _ in 0..m {
            x += u64::from(self.sample(rng));
        }
        Ok(x as f64 * self.total_weight / m as f64)
    }
}

/// Samples an alternative index from a distribution given as a probability
/// slice.
fn sample_alternative<R: Rng + ?Sized>(dist: &[f64], rng: &mut R) -> usize {
    let target: f64 = rng.gen_range(0.0..1.0);
    let mut acc = 0.0;
    for (i, &p) in dist.iter().enumerate() {
        acc += p;
        if target < acc {
            return i;
        }
    }
    dist.len() - 1
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exact;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn coin_setup() -> (DnfEvent, ProbabilitySpace) {
        let mut s = ProbabilitySpace::new();
        let c = s.add_variable(vec![2.0 / 3.0, 1.0 / 3.0]).unwrap();
        let t1 = s.add_variable(vec![0.5, 0.5]).unwrap();
        let t2 = s.add_variable(vec![0.5, 0.5]).unwrap();
        let f = DnfEvent::new([
            Assignment::new([(c, 0), (t1, 0), (t2, 0)]).unwrap(),
            Assignment::new([(c, 1)]).unwrap(),
        ]);
        (f, s)
    }

    #[test]
    fn rejects_empty_events_and_zero_samples() {
        let (_, s) = coin_setup();
        assert!(matches!(
            KarpLubyEstimator::new(DnfEvent::never(), s.clone()),
            Err(ConfidenceError::EmptyEvent)
        ));
        let (f, s) = coin_setup();
        let est = KarpLubyEstimator::new(f, s).unwrap();
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        assert!(est.estimate(0, &mut rng).is_err());
    }

    #[test]
    fn total_weight_is_sum_of_term_weights() {
        let (f, s) = coin_setup();
        let est = KarpLubyEstimator::new(f, s).unwrap();
        let expected = 2.0 / 3.0 * 0.25 + 1.0 / 3.0;
        assert!((est.total_weight() - expected).abs() < 1e-12);
        assert_eq!(est.num_terms(), 2);
    }

    #[test]
    fn estimate_converges_to_the_exact_probability() {
        let (f, s) = coin_setup();
        let exact_p = exact::probability(&f, &s).unwrap();
        let est = KarpLubyEstimator::new(f, s).unwrap();
        let mut rng = ChaCha8Rng::seed_from_u64(42);
        let p_hat = est.estimate(20_000, &mut rng).unwrap();
        assert!(
            (p_hat - exact_p).abs() < 0.02,
            "estimate {p_hat} too far from exact {exact_p}"
        );
    }

    #[test]
    fn estimator_is_unbiased_within_tolerance_for_overlapping_terms() {
        // Overlapping terms are where naive averaging of term weights would
        // overestimate; Karp-Luby's coverage trick corrects for it.
        let mut s = ProbabilitySpace::new();
        let x = s.add_bool_variable(0.5).unwrap();
        let y = s.add_bool_variable(0.5).unwrap();
        let f = DnfEvent::new([
            Assignment::new([(x, 0)]).unwrap(),
            Assignment::new([(y, 0)]).unwrap(),
        ]);
        let exact_p = exact::probability(&f, &s).unwrap(); // 0.75
        let est = KarpLubyEstimator::new(f, s).unwrap();
        let mut rng = ChaCha8Rng::seed_from_u64(7);
        let p_hat = est.estimate(40_000, &mut rng).unwrap();
        assert!(
            (p_hat - exact_p).abs() < 0.015,
            "estimate {p_hat} vs {exact_p}"
        );
    }

    #[test]
    fn certain_events_estimate_to_one() {
        let (_, s) = coin_setup();
        let f = DnfEvent::new([Assignment::always()]);
        let est = KarpLubyEstimator::new(f, s).unwrap();
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        let p_hat = est.estimate(100, &mut rng).unwrap();
        assert!((p_hat - 1.0).abs() < 1e-12);
    }

    #[test]
    fn samples_are_zero_or_one() {
        let (f, s) = coin_setup();
        let est = KarpLubyEstimator::new(f, s).unwrap();
        let mut rng = ChaCha8Rng::seed_from_u64(9);
        for _ in 0..200 {
            let x = est.sample(&mut rng);
            assert!(x == 0 || x == 1);
        }
    }

    #[test]
    fn deterministic_under_a_fixed_seed() {
        let (f, s) = coin_setup();
        let est = KarpLubyEstimator::new(f, s).unwrap();
        let mut r1 = ChaCha8Rng::seed_from_u64(1234);
        let mut r2 = ChaCha8Rng::seed_from_u64(1234);
        assert_eq!(
            est.estimate(500, &mut r1).unwrap(),
            est.estimate(500, &mut r2).unwrap()
        );
    }
}
