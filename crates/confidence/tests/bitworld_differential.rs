//! Differential properties of the bit-parallel estimation path: the
//! compiled 64-worlds-per-word kernels must estimate the same quantity as
//! the scalar reference estimator (within Chernoff tolerance of the exact
//! value, since seeds re-map between the two paths), and must stay
//! bit-deterministic per seed.

use confidence::{
    chernoff, exact, Assignment, BitKarpLuby, ConfidenceEstimator, DnfEvent, FprasEstimator,
    FprasParams, IncrementalEstimator, KarpLubyEstimator, LineagePrograms, ProbabilitySpace,
};
use proptest::prelude::*;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use std::sync::Arc;

/// Random events over a mix of Boolean and multi-valued variables: the
/// Boolean fast path and the threshold-walk path are both exercised, and
/// term counts reach well past 64-lane saturation (with up to 28 terms a
/// block leaves many positions unchosen — the regime where stale
/// chosen-term bookkeeping between blocks would surface).
fn arb_event() -> impl Strategy<Value = (DnfEvent, ProbabilitySpace)> {
    (
        proptest::collection::vec((5u32..95, 2usize..5), 2..9),
        proptest::collection::vec(
            proptest::collection::vec((0usize..10, 0usize..5), 1..4),
            1..29,
        ),
    )
        .prop_map(|(var_specs, raw_terms)| {
            let mut space = ProbabilitySpace::new();
            for (p, alts) in &var_specs {
                if *alts == 2 {
                    space.add_bool_variable(*p as f64 / 100.0).unwrap();
                } else {
                    // A skewed but valid distribution over `alts` values.
                    let head = *p as f64 / 100.0;
                    let rest = (1.0 - head) / (*alts as f64 - 1.0);
                    let mut dist = vec![head];
                    dist.extend(std::iter::repeat_n(rest, *alts - 1));
                    space.add_variable(dist).unwrap();
                }
            }
            let n = var_specs.len();
            let mut terms = Vec::new();
            for pairs in raw_terms {
                let pairs: Vec<(usize, usize)> = pairs
                    .into_iter()
                    .map(|(v, a)| {
                        let v = v % n;
                        (v, a % var_specs[v].1)
                    })
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
    #![proptest_config(ProptestConfig { cases: 40, .. ProptestConfig::default() })]

    /// The bit-parallel kernel and the scalar reference estimator agree with
    /// the exact probability — and hence with each other — within the
    /// Chernoff tolerance of their shared sample budget (ε = 0.5, δ = 1e-3,
    /// so a violation is overwhelmingly a correctness bug, not noise).
    #[test]
    fn bit_parallel_matches_the_scalar_reference((event, space) in arb_event(), seed in 0u64..48) {
        let exact_p = exact::probability(&event, &space).unwrap();
        prop_assume!(exact_p > 0.02 && !event.is_certain());
        let m = chernoff::required_samples(0.5, 1e-3, event.num_terms()).unwrap();

        let scalar = KarpLubyEstimator::new(event.clone(), space.clone()).unwrap();
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let scalar_estimate = scalar.estimate(m, &mut rng).unwrap();

        let programs = Arc::new(LineagePrograms::compile(vec![event], &space).unwrap());
        let mut kernel = BitKarpLuby::new(programs, 0).unwrap();
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let bit_estimate = kernel.estimate(m, &mut rng).unwrap();

        let tolerance = 0.5 * exact_p + 1e-9;
        prop_assert!(
            (scalar_estimate - exact_p).abs() <= tolerance,
            "scalar {scalar_estimate} vs exact {exact_p} (m = {m})"
        );
        prop_assert!(
            (bit_estimate - exact_p).abs() <= tolerance,
            "bit-parallel {bit_estimate} vs exact {exact_p} (m = {m})"
        );
    }

    /// The incremental estimator (which backs the adaptive σ̂ driver and the
    /// fixed-`l` mode) converges to the exact value on its bit-parallel
    /// kernel under arbitrary batch schedules.
    #[test]
    fn incremental_bit_parallel_converges((event, space) in arb_event(), seed in 0u64..32) {
        let exact_p = exact::probability(&event, &space).unwrap();
        prop_assume!(exact_p > 0.02 && !event.is_certain());
        let m = chernoff::required_samples(0.5, 1e-3, event.num_terms()).unwrap();
        let mut estimator = IncrementalEstimator::new(event, space).unwrap();
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        // Odd-sized increments force the lane bank into play.
        let mut drawn = 0usize;
        while drawn < m {
            let n = (m - drawn).min(1 + (drawn % 97));
            estimator.add_samples(n, &mut rng);
            drawn += n;
        }
        prop_assert_eq!(estimator.samples(), m as u64);
        prop_assert!(
            (estimator.estimate() - exact_p).abs() <= 0.5 * exact_p + 1e-9,
            "incremental {} vs exact {} (m = {})", estimator.estimate(), exact_p, m
        );
    }

    /// Every block width (1, 2 and 4 words — 64, 128 and 256 lanes) lands
    /// within the shared Chernoff tolerance of the exact value, and each
    /// width is bit-deterministic per seed.
    #[test]
    fn every_block_width_matches_exact_and_is_deterministic(
        (event, space) in arb_event(),
        seed in 0u64..24,
    ) {
        let exact_p = exact::probability(&event, &space).unwrap();
        prop_assume!(exact_p > 0.02 && !event.is_certain());
        let m = chernoff::required_samples(0.5, 1e-3, event.num_terms()).unwrap();
        let programs = Arc::new(LineagePrograms::compile(vec![event], &space).unwrap());
        for words in [1usize, 2, 4] {
            let mut kernel = BitKarpLuby::new_with_width(programs.clone(), 0, words).unwrap();
            let mut rng = ChaCha8Rng::seed_from_u64(seed);
            let estimate = kernel.estimate(m, &mut rng).unwrap();
            prop_assert!(
                (estimate - exact_p).abs() <= 0.5 * exact_p + 1e-9,
                "width {words}: {estimate} vs exact {exact_p} (m = {m})"
            );
            let mut again = BitKarpLuby::new_with_width(programs.clone(), 0, words).unwrap();
            let mut rng = ChaCha8Rng::seed_from_u64(seed);
            prop_assert_eq!(
                again.estimate(m, &mut rng).unwrap(),
                estimate,
                "width {} must be bit-deterministic per seed", words
            );
        }
    }

    /// Mixed-arity events over Boolean and multi-valued variables, at every
    /// width: a budget that ends in a partial block lands within the shared
    /// tolerance, and an incremental schedule whose draws straddle the
    /// bank's 64-lane word edges tallies — increment by increment — exactly
    /// the prefix of the kernel's own block stream under the same seed: the
    /// bank neither drops, double-counts nor reorders a lane.
    #[test]
    fn partial_blocks_and_bank_drains_are_exact_at_every_width(
        (event, space) in arb_event(),
        seed in 0u64..24,
    ) {
        let exact_p = exact::probability(&event, &space).unwrap();
        prop_assume!(exact_p > 0.02 && !event.is_certain());
        let m = chernoff::required_samples(0.5, 1e-3, event.num_terms()).unwrap();
        let programs = Arc::new(LineagePrograms::compile(vec![event], &space).unwrap());
        let total_weight = programs.total_weight(0);
        for words in [1usize, 2, 4] {
            let lanes = 64 * words;
            // One lane short of a whole number of blocks past the budget.
            let budget = m.next_multiple_of(lanes) + lanes - 1;
            let mut kernel = BitKarpLuby::new_with_width(programs.clone(), 0, words).unwrap();
            let mut rng = ChaCha8Rng::seed_from_u64(seed);
            let estimate = kernel.estimate(budget, &mut rng).unwrap();
            prop_assert!(
                (estimate - exact_p).abs() <= 0.5 * exact_p + 1e-9,
                "width {words}: {estimate} vs exact {exact_p} (m = {budget})"
            );

            let mut estimator =
                IncrementalEstimator::from_compiled_with_width(&programs, 0, words).unwrap();
            let mut rng = ChaCha8Rng::seed_from_u64(seed);
            let mut twin = BitKarpLuby::new_with_width(programs.clone(), 0, words).unwrap();
            let mut twin_rng = ChaCha8Rng::seed_from_u64(seed);
            let mut stream: Vec<bool> = Vec::new();
            for n in [1usize, 63, 64, 65, 127, 129, 255, 200, 191, 65, 3, 256, 257, 511]
                .iter()
                .cycle()
            {
                estimator.add_samples(*n, &mut rng);
                let drawn = estimator.samples() as usize;
                while stream.len() < drawn {
                    let mut block = [0u64; confidence::bitworld::MAX_BLOCK_WORDS];
                    twin.sample_block_words(&mut twin_rng, &mut block);
                    stream.extend((0..lanes).map(|lane| block[lane / 64] >> (lane % 64) & 1 == 1));
                }
                let successes = stream[..drawn].iter().filter(|&&hit| hit).count();
                prop_assert_eq!(
                    estimator.estimate(),
                    successes as f64 * total_weight / drawn as f64,
                    "width {}: the tally after {} samples is not the stream's prefix", words, drawn
                );
                if drawn >= m {
                    break;
                }
            }
            prop_assert!(
                (estimator.estimate() - exact_p).abs() <= 0.5 * exact_p + 1e-9,
                "width {words}: incremental {} vs exact {exact_p}", estimator.estimate()
            );
        }
    }

    /// Repeated bit-parallel runs under one seed are bit-identical, and the
    /// compiled estimator layer is deterministic end to end.
    #[test]
    fn bit_parallel_is_deterministic_per_seed((event, space) in arb_event(), seed in 0u64..u64::MAX) {
        let programs = Arc::new(
            LineagePrograms::compile(vec![event.clone(), event], &space).unwrap(),
        );
        if programs.trivial(0).is_none() {
            let mut a = BitKarpLuby::new(programs.clone(), 0).unwrap();
            let mut b = BitKarpLuby::new(programs.clone(), 0).unwrap();
            let mut r1 = ChaCha8Rng::seed_from_u64(seed);
            let mut r2 = ChaCha8Rng::seed_from_u64(seed);
            for _ in 0..8 {
                prop_assert_eq!(a.sample_block_bits(&mut r1), b.sample_block_bits(&mut r2));
            }
        }
        let fpras = FprasEstimator::new(FprasParams::new(0.4, 0.2).unwrap());
        let x = fpras.estimate_compiled_batch(&programs, seed).unwrap();
        let y = fpras.estimate_compiled_batch(&programs, seed).unwrap();
        prop_assert_eq!(x, y, "one master seed must reproduce the batch bit-identically");
    }
}

/// Regression: a wide union (|F| = 100 single-literal terms, exact
/// probability ≈ 1) must not be overestimated.  Most term positions go
/// unchosen in any given 64-lane block here, so lane bits surviving from a
/// previous block's choices would be counted as spurious successes and
/// push the estimate far above 1.
#[test]
fn wide_unions_are_not_overestimated_across_blocks() {
    let mut space = ProbabilitySpace::new();
    let mut terms = Vec::new();
    for _ in 0..100 {
        let v = space.add_bool_variable(0.5).unwrap();
        terms.push(Assignment::new([(v, 0)]).unwrap());
    }
    let event = DnfEvent::new(terms);
    let exact_p = exact::probability(&event, &space).unwrap();
    assert!((exact_p - 1.0).abs() < 1e-12);
    let programs = Arc::new(LineagePrograms::compile(vec![event], &space).unwrap());
    let mut kernel = BitKarpLuby::new(programs, 0).unwrap();
    let mut rng = ChaCha8Rng::seed_from_u64(3);
    let estimate = kernel.estimate(100_000, &mut rng).unwrap();
    assert!(
        (estimate - 1.0).abs() < 0.05,
        "bit-parallel estimate {estimate} strayed from exact 1.0"
    );
}

/// Pin (non-proptest) the trait-level contract: the compiled batch equals
/// mapping `estimate_compiled` with per-index seeds, and trivial events are
/// answered exactly.
#[test]
fn compiled_batch_equals_compiled_map() {
    let mut space = ProbabilitySpace::new();
    let x = space.add_bool_variable(0.3).unwrap();
    let y = space.add_bool_variable(0.6).unwrap();
    let events = vec![
        DnfEvent::never(),
        DnfEvent::new([Assignment::new([(x, 0)]).unwrap()]),
        DnfEvent::new([
            Assignment::new([(x, 1)]).unwrap(),
            Assignment::new([(y, 0)]).unwrap(),
        ]),
        DnfEvent::new([Assignment::always()]),
    ];
    let programs = Arc::new(LineagePrograms::compile(events, &space).unwrap());
    let fpras = FprasEstimator::new(FprasParams::new(0.2, 0.1).unwrap());
    let batch = fpras.estimate_compiled_batch(&programs, 77).unwrap();
    for (i, estimate) in batch.iter().enumerate() {
        let single = fpras
            .estimate_compiled(&programs, i, confidence::event_seed(77, i))
            .unwrap();
        assert_eq!(*estimate, single);
    }
    assert_eq!(batch[0].estimate, 0.0);
    assert!(batch[0].exact);
    assert_eq!(batch[3].estimate, 1.0);
    assert!(batch[3].exact);
    assert!(!batch[1].exact && batch[1].samples > 0);
}
