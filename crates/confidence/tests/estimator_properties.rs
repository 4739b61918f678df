//! Property tests for confidence computation: agreement of the exact
//! methods (Shannon expansion vs compiled d-DNNF weighted model counting),
//! Chernoff-bound monotonicity, and statistical sanity of the Karp–Luby
//! estimator on randomly generated events.

use confidence::{
    chernoff, dnnf, exact, Assignment, ConfidenceEstimator, DnfEvent, FprasEstimator, FprasParams,
    KarpLubyEstimator, LineagePrograms, ProbabilitySpace,
};
use proptest::prelude::*;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use std::sync::Arc;

fn arb_event() -> impl Strategy<Value = (DnfEvent, ProbabilitySpace)> {
    (
        proptest::collection::vec(5u32..95, 2..8),
        proptest::collection::vec(
            proptest::collection::vec((0usize..8, 0usize..2), 1..4),
            1..5,
        ),
    )
        .prop_map(|(probs, raw_terms)| {
            let mut space = ProbabilitySpace::new();
            for p in &probs {
                space.add_bool_variable(*p as f64 / 100.0).unwrap();
            }
            let n = probs.len();
            let mut terms = Vec::new();
            for pairs in raw_terms {
                let pairs: Vec<(usize, usize)> =
                    pairs.into_iter().map(|(v, a)| (v % n, a)).collect();
                if let Ok(a) = Assignment::new(pairs) {
                    terms.push(a);
                }
            }
            if terms.is_empty() {
                terms.push(Assignment::new([(0, 0)]).unwrap());
            }
            (DnfEvent::new(terms), space)
        })
}

/// Random events over *multi-valued* variables (2–4 alternatives each, with
/// arbitrary normalized weights), the general finite world-table case.
fn arb_multivalued_event() -> impl Strategy<Value = (DnfEvent, ProbabilitySpace)> {
    (
        proptest::collection::vec(proptest::collection::vec(1u32..50, 2..5), 2..7),
        proptest::collection::vec(
            proptest::collection::vec((0usize..7, 0usize..4), 1..4),
            1..5,
        ),
    )
        .prop_map(|(raw_weights, raw_terms)| {
            let mut space = ProbabilitySpace::new();
            let mut alt_counts = Vec::new();
            for weights in &raw_weights {
                let total: u32 = weights.iter().sum();
                let probs: Vec<f64> = weights.iter().map(|&w| w as f64 / total as f64).collect();
                alt_counts.push(probs.len());
                space.add_variable(probs).unwrap();
            }
            let n = alt_counts.len();
            let mut terms = Vec::new();
            for pairs in raw_terms {
                let pairs: Vec<(usize, usize)> = pairs
                    .into_iter()
                    .map(|(v, a)| (v % n, a % alt_counts[v % n]))
                    .collect();
                if let Ok(a) = Assignment::new(pairs) {
                    terms.push(a);
                }
            }
            if terms.is_empty() {
                terms.push(Assignment::new([(0, 0)]).unwrap());
            }
            (DnfEvent::new(terms), space)
        })
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 48, .. ProptestConfig::default() })]

    /// The compiled d-DNNF's weighted model count is *exact*: it equals the
    /// Shannon-expansion reference on random Boolean events.
    #[test]
    fn dnnf_wmc_matches_shannon_on_boolean_events((event, space) in arb_event()) {
        let reference = exact::probability(&event, &space).unwrap();
        let compiled = dnnf::probability(&event, &space, 1 << 16).unwrap();
        prop_assert!(
            (compiled - reference).abs() < 1e-9,
            "d-DNNF {compiled} vs Shannon {reference}"
        );
    }

    /// Same agreement on events over multi-valued variables, where the
    /// decision nodes fan out over every alternative and smoothing weights
    /// each unmentioned alternative by its marginal.
    #[test]
    fn dnnf_wmc_matches_shannon_on_multivalued_events(
        (event, space) in arb_multivalued_event(),
    ) {
        let reference = exact::probability(&event, &space).unwrap();
        let compiled = dnnf::probability(&event, &space, 1 << 16).unwrap();
        prop_assert!(
            (compiled - reference).abs() < 1e-9,
            "d-DNNF {compiled} vs Shannon {reference}"
        );
    }

    /// Probability monotonicity: adding a term to a DNF never decreases its
    /// probability, and the probability never exceeds the sum of term
    /// weights (union bound) nor 1.
    #[test]
    fn probability_is_monotone_in_terms((event, space) in arb_event(), extra in 0usize..8) {
        let p = exact::probability(&event, &space).unwrap();
        prop_assert!((0.0..=1.0 + 1e-12).contains(&p));
        let m = event.total_term_weight(&space).unwrap();
        prop_assert!(p <= m + 1e-12);

        let mut bigger = event.clone();
        let var = extra % space.num_variables();
        bigger.push(Assignment::new([(var, 0)]).unwrap());
        let q = exact::probability(&bigger, &space).unwrap();
        prop_assert!(q + 1e-12 >= p, "adding a term decreased the probability: {p} -> {q}");
    }

    /// The Chernoff machinery is internally consistent: the required sample
    /// count really pushes the error bound below δ, and more samples never
    /// increase the bound.
    #[test]
    fn chernoff_bounds_are_consistent(
        eps_pct in 2u32..60,
        delta_pct in 1u32..40,
        terms in 1usize..64,
        extra in 1usize..1000,
    ) {
        let eps = eps_pct as f64 / 100.0;
        let delta = delta_pct as f64 / 100.0;
        let m = chernoff::required_samples(eps, delta, terms).unwrap();
        let at_m = chernoff::error_bound(eps, m, terms).unwrap();
        prop_assert!(at_m <= delta + 1e-9);
        let at_more = chernoff::error_bound(eps, m + extra, terms).unwrap();
        prop_assert!(at_more <= at_m + 1e-12);
        // The balanced per-iteration form agrees with the sample form.
        let l = chernoff::required_iterations(eps, delta).unwrap();
        prop_assert!((chernoff::delta_prime(eps, l).unwrap()
            - chernoff::error_bound(eps, l * terms, terms).unwrap()).abs() < 1e-12);
    }

    /// A moderately sized Karp–Luby run lands in a generous interval around
    /// the exact probability (uses the Chernoff bound at ε = 0.5, δ = 1e-3,
    /// so a violation is overwhelmingly a correctness bug, not noise).
    #[test]
    fn karp_luby_lands_near_the_exact_value((event, space) in arb_event(), seed in 0u64..64) {
        let exact_p = exact::probability(&event, &space).unwrap();
        prop_assume!(exact_p > 0.02 && !event.is_certain());
        let estimator = KarpLubyEstimator::new(event.clone(), space.clone()).unwrap();
        let m = chernoff::required_samples(0.5, 1e-3, event.num_terms()).unwrap();
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let estimate = estimator.estimate(m, &mut rng).unwrap();
        prop_assert!(
            (estimate - exact_p).abs() <= 0.5 * exact_p + 1e-9,
            "estimate {estimate} vs exact {exact_p} with m = {m}"
        );
    }

    /// A `conf_{ε,δ}` estimate is a probability, however few samples its
    /// (ε, δ) asks for (the raw Karp–Luby ratio overshoots 1 near `p = 1`).
    #[test]
    fn fpras_estimates_are_probabilities((event, space) in arb_event(), seed in 0u64..64) {
        let programs = Arc::new(LineagePrograms::compile(vec![event], &space).unwrap());
        let fpras = FprasEstimator::new(FprasParams::new(0.5, 0.5).unwrap());
        let estimate = fpras.estimate_compiled(&programs, 0, seed).unwrap().estimate;
        prop_assert!((0.0..=1.0).contains(&estimate), "estimate {estimate}");
    }
}
