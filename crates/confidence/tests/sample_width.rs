//! Properties of the sampling width `w = ⌈M / max_f p_f⌉` — the scale of
//! every Karp–Luby sample count (see `confidence::chernoff`) — on randomly
//! generated events over Boolean and multi-valued (repair-key) variables,
//! and one pinned shape: the benchmark's 2-hop path event, whose width must
//! stay below half its term count.  A regression of any count to the
//! paper's weaker `|F|` fails here, without a benchmark run.

use confidence::{
    Assignment, DnfEvent, FprasEstimator, FprasParams, KarpLubyEstimator, LineagePrograms,
    ProbabilitySpace,
};
use proptest::prelude::*;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

/// Terms over `alt_counts.len()` variables from raw `(variable, alternative)`
/// pairs; a raw term that names a variable twice is dropped.
fn terms_of(raw_terms: Vec<Vec<(usize, usize)>>, alt_counts: &[usize]) -> Vec<Assignment> {
    let n = alt_counts.len();
    let mut terms: Vec<Assignment> = raw_terms
        .into_iter()
        .filter_map(|pairs| {
            Assignment::new(
                pairs
                    .into_iter()
                    .map(|(v, a)| (v % n, a % alt_counts[v % n])),
            )
            .ok()
        })
        .collect();
    if terms.is_empty() {
        terms.push(Assignment::new([(0, 0)]).unwrap());
    }
    terms
}

/// Random events over Boolean variables, or over variables of 2–4
/// alternatives with arbitrary normalized weights.
fn arb_event() -> impl Strategy<Value = (DnfEvent, ProbabilitySpace)> {
    (
        proptest::collection::vec(proptest::collection::vec(1u32..50, 2..5), 2..8),
        proptest::collection::vec(
            proptest::collection::vec((0usize..8, 0usize..4), 1..4),
            1..12,
        ),
        any::<bool>(),
    )
        .prop_map(|(raw_weights, raw_terms, boolean)| {
            let mut space = ProbabilitySpace::new();
            let mut alt_counts = Vec::new();
            for weights in &raw_weights {
                let weights = if boolean { &weights[..2] } else { &weights[..] };
                let total: u32 = weights.iter().sum();
                alt_counts.push(weights.len());
                space
                    .add_variable(weights.iter().map(|&w| w as f64 / total as f64).collect())
                    .unwrap();
            }
            (DnfEvent::new(terms_of(raw_terms, &alt_counts)), space)
        })
}

/// The width of `event` by both accessors, which must agree.
fn width_of(event: &DnfEvent, space: &ProbabilitySpace) -> usize {
    let programs = LineagePrograms::compile(vec![event.clone()], space).unwrap();
    let scalar = KarpLubyEstimator::new(event.clone(), space.clone()).unwrap();
    assert_eq!(programs.sample_width(0), scalar.sample_width());
    programs.sample_width(0)
}

/// `(M, max_f p_f)` summed in term order.
fn weights_of(event: &DnfEvent, space: &ProbabilitySpace) -> (f64, f64) {
    let weights: Vec<f64> = event
        .terms()
        .iter()
        .map(|term| term.weight(space).unwrap())
        .collect();
    (
        weights.iter().sum(),
        weights.iter().copied().fold(0.0, f64::max),
    )
}

/// `w` bounds the mean of a draw from below: `1/w ≤ max_f p_f / M`, up to
/// the rounding shade `chernoff::sample_width` documents.
fn bounds_the_mean(width: usize, event: &DnfEvent, space: &ProbabilitySpace) -> bool {
    let (total, max) = weights_of(event, space);
    width as f64 * max >= total * (1.0 - 1e-9)
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 96, .. ProptestConfig::default() })]

    /// `1 ≤ w ≤ |F|`, `1/w` is a lower bound on the mean of a draw, the two
    /// accessors agree, and the bill at `w` never exceeds the bill at `|F|`.
    #[test]
    fn widths_are_sound_and_never_dearer_than_the_term_count(
        (event, space) in arb_event(),
        eps_pct in 2u32..60,
        delta_pct in 1u32..40,
    ) {
        let width = width_of(&event, &space);
        prop_assert!(1 <= width && width <= event.num_terms());
        prop_assert!(bounds_the_mean(width, &event, &space));

        let params = FprasParams::new(eps_pct as f64 / 100.0, delta_pct as f64 / 100.0).unwrap();
        let programs = LineagePrograms::compile(vec![event.clone()], &space).unwrap();
        let bill = FprasEstimator::new(params).bill(&programs, 0).unwrap();
        prop_assert_eq!(bill, params.samples_for(width).unwrap() as u64);
        prop_assert!(bill <= params.samples_for(event.num_terms()).unwrap() as u64);
    }

    /// Terms of equal weight: the width is the paper's `|F|`, and so is the
    /// bill — whatever rounding the sum of the weights carried.
    #[test]
    fn equal_weights_give_the_term_count(
        num_terms in 1usize..40,
        p_pct in 1u32..100,
        term_len in 1usize..4,
    ) {
        let mut space = ProbabilitySpace::new();
        let terms: Vec<Assignment> = (0..num_terms)
            .map(|_| {
                Assignment::new((0..term_len).map(|_| {
                    (space.add_bool_variable(p_pct as f64 / 100.0).unwrap(), 0)
                }))
                .unwrap()
            })
            .collect();
        prop_assert_eq!(width_of(&DnfEvent::new(terms), &space), num_terms);
    }

    /// The width is a function of the multiset of term weights.
    #[test]
    fn widths_ignore_term_order((event, space) in arb_event(), rotate in 0usize..12) {
        let width = width_of(&event, &space);
        let mut terms = event.terms().to_vec();
        terms.reverse();
        prop_assert_eq!(width_of(&DnfEvent::new(terms.clone()), &space), width);
        let mid = rotate % terms.len();
        terms.rotate_left(mid);
        prop_assert_eq!(width_of(&DnfEvent::new(terms), &space), width);
    }

    /// A duplicate of a term, or a term another one subsumes, adds its
    /// weight to `M` like any other: the width still bounds the mean from
    /// below, and never falls.
    #[test]
    fn duplicate_and_subsumed_terms_never_lower_the_width(
        (event, space) in arb_event(),
        pick in 0usize..12,
        extra in (0usize..8, 0usize..4),
    ) {
        let width = width_of(&event, &space);
        let picked = event.terms()[pick % event.num_terms()].clone();

        let mut duplicated = event.clone();
        duplicated.push(picked.clone());
        let with_duplicate = width_of(&duplicated, &space);
        prop_assert!(with_duplicate >= width);
        prop_assert!(bounds_the_mean(with_duplicate, &duplicated, &space));

        // `picked ∧ (v = a)` for a variable the term does not mention.
        let v = extra.0 % space.num_variables();
        if picked.get(v).is_none() {
            let a = extra.1 % space.num_alternatives(v).unwrap();
            let narrower = Assignment::new(picked.iter().chain([(v, a)])).unwrap();
            let mut subsumed = event.clone();
            subsumed.push(narrower);
            let with_subsumed = width_of(&subsumed, &space);
            prop_assert!(with_subsumed >= width);
            prop_assert!(bounds_the_mean(with_subsumed, &subsumed, &space));
        }
    }
}

/// The benchmark's path event: 50 edges `a → b` on a 10-node circulant
/// (`a = i mod 10`, `b = a + 1 + ⌊i/10⌋ mod 10`), each present with a
/// probability in 0.05..0.25; "some 2-hop path exists" is one term per pair
/// of consecutive edges, 250 in all.
fn path_event(seed: u64) -> (DnfEvent, ProbabilitySpace) {
    const EDGES: usize = 50;
    const NODES: usize = 10;
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let mut space = ProbabilitySpace::new();
    let edges: Vec<(usize, usize, usize)> = (0..EDGES)
        .map(|i| {
            let var = space.add_bool_variable(rng.gen_range(0.05..0.25)).unwrap();
            let a = i % NODES;
            (var, a, (a + 1 + i / NODES) % NODES)
        })
        .collect();
    let mut terms = Vec::new();
    for &(first, _, via) in &edges {
        for &(second, from, _) in &edges {
            if via == from {
                terms.push(Assignment::new([(first, 0), (second, 0)]).unwrap());
            }
        }
    }
    (DnfEvent::new(terms), space)
}

#[test]
fn the_path_event_is_sampled_at_less_than_half_its_term_count() {
    for seed in 0..8u64 {
        let (event, space) = path_event(seed);
        assert_eq!(event.num_terms(), 250);
        let width = width_of(&event, &space);
        assert!(
            bounds_the_mean(width, &event, &space) && 2 * width < event.num_terms(),
            "seed {seed}: width {width} of {} terms",
            event.num_terms()
        );
    }
}
