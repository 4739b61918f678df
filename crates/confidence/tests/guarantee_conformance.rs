//! The (ε, δ) guarantee of Proposition 4.2 as a seeded test of the
//! bit-parallel kernel: for every block width, for Boolean and multi-valued
//! events, for term lengths 1–4, and for both the budgeted (FPRAS) and the
//! incremental path, `SEEDS` fixed seeds at (ε, δ) = (0.2, 0.1) — every count
//! at the event's sampling width `w = ⌈M / max_f p_f⌉`, the batches of the
//! incremental path `w` draws each.
//!
//! The uniform families leave `w` at or near `|F|`; the skewed ones are where
//! the width bound is tightest — one dominant term plus many small
//! overlapping ones (`max_f p_f ≈ p`, so only the Chernoff step's own slack
//! is left), geometric weights, and mixed Boolean/multi-valued terms — and
//! each asserts that its width is in fact well below its term count.
//!
//! Two checks per cell, each stated with its confidence:
//!
//! * **the guarantee** — the number of seeds with `|p̂ − p| > ε·p` is at most
//!   the 1 − 10⁻⁶ quantile of `Bin(SEEDS, δ)`: a kernel that honours δ fails
//!   this with probability < 10⁻⁶ per cell;
//! * **unbiasedness** — the mean of the `SEEDS` estimates is within 5.5
//!   standard errors of `p` (a Karp–Luby sample `M·X` has variance at most
//!   `M·p − p²`): probability < 4·10⁻⁸ per cell for an unbiased kernel,
//!   while a bias of a percent of `p` — a wrong alias column, a Bernoulli
//!   word off by one bit — is tens of standard errors here.
//!
//! 71 cells, so the whole suite passes with probability > 1 − 10⁻⁴ over the
//! choice of seeds; the seeds being fixed, it passes always or never.

use confidence::{
    event_seed, exact, Assignment, BitKarpLuby, ConfidenceEstimator, DnfEvent, FprasEstimator,
    FprasParams, IncrementalEstimator, LineagePrograms, ProbabilitySpace,
};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;

const EPSILON: f64 = 0.2;
const DELTA: f64 = 0.1;
const SEEDS: u64 = 400;

/// The smallest `k` with `Pr[Bin(n, p) ≤ k] ≥ 1 − 10⁻⁶`.
fn binomial_quantile(n: u64, p: f64) -> u64 {
    let mut pmf = (1.0 - p).powi(n as i32);
    let mut cdf = pmf;
    let mut k = 0;
    while cdf < 1.0 - 1e-6 {
        pmf *= (n - k) as f64 / (k + 1) as f64 * p / (1.0 - p);
        cdf += pmf;
        k += 1;
    }
    k
}

/// Six terms of exactly `term_len` literals over eight variables — Boolean,
/// or with three to four alternatives each.
fn event_of(term_len: usize, multi_valued: bool) -> (DnfEvent, ProbabilitySpace) {
    let mut rng = SmallRng::seed_from_u64(1000 + 10 * term_len as u64 + multi_valued as u64);
    let mut space = ProbabilitySpace::new();
    let mut alts = Vec::new();
    for v in 0..8 {
        if multi_valued {
            let k = 3 + v % 2;
            let raw: Vec<f64> = (0..k).map(|_| rng.gen_range(0.2..1.0)).collect();
            let total: f64 = raw.iter().sum();
            space
                .add_variable(raw.iter().map(|x| x / total).collect())
                .unwrap();
            alts.push(k);
        } else {
            space.add_bool_variable(rng.gen_range(0.2..0.8)).unwrap();
            alts.push(2);
        }
    }
    let mut terms = Vec::new();
    while terms.len() < 6 {
        let mut vars: Vec<usize> = (0..8).collect();
        let pairs: Vec<(usize, usize)> = (0..term_len)
            .map(|_| {
                let v = vars.swap_remove(rng.gen_range(0..vars.len()));
                (v, rng.gen_range(0..alts[v]))
            })
            .collect();
        let term = Assignment::new(pairs).unwrap();
        if !terms.contains(&term) {
            terms.push(term);
        }
    }
    (DnfEvent::new(terms), space)
}

/// Runs `estimate(seed)` for every seed and applies both checks.
fn check(
    cell: &str,
    p: f64,
    total_weight: f64,
    samples: usize,
    mut estimate: impl FnMut(u64) -> f64,
) {
    let mut violations = 0u64;
    let mut sum = 0.0f64;
    for seed in 0..SEEDS {
        let p_hat = estimate(event_seed(0xC0F0, seed as usize));
        violations += u64::from((p_hat - p).abs() > EPSILON * p);
        sum += p_hat;
    }
    let allowed = binomial_quantile(SEEDS, DELTA);
    assert!(
        violations <= allowed,
        "{cell}: {violations} of {SEEDS} seeds missed ε·p; Bin({SEEDS}, {DELTA}) allows {allowed}"
    );
    let standard_error = ((total_weight * p - p * p) / (SEEDS as f64 * samples as f64)).sqrt();
    let mean = sum / SEEDS as f64;
    assert!(
        (mean - p).abs() <= 5.5 * standard_error,
        "{cell}: mean estimate {mean} vs exact {p} is {:.1} standard errors off",
        (mean - p).abs() / standard_error
    );
}

/// One dominant term plus eleven small ones that all share a variable:
/// `max_f p_f` is most of `p`, so the width bound has no slack of its own.
fn dominant_term_event() -> (DnfEvent, ProbabilitySpace) {
    let mut space = ProbabilitySpace::new();
    let big = space.add_bool_variable(0.6).unwrap();
    let shared = space.add_bool_variable(0.5).unwrap();
    let mut terms = vec![Assignment::new([(big, 0)]).unwrap()];
    for i in 0..11 {
        let v = space.add_bool_variable(0.03 + 0.004 * i as f64).unwrap();
        terms.push(Assignment::new([(v, 0), (shared, 0)]).unwrap());
    }
    (DnfEvent::new(terms), space)
}

/// Twelve terms of weights `0.5·0.6^i`, neighbours overlapping in a
/// variable.
fn geometric_event() -> (DnfEvent, ProbabilitySpace) {
    let mut space = ProbabilitySpace::new();
    let links: Vec<usize> = (0..13)
        .map(|_| space.add_bool_variable(0.9).unwrap())
        .collect();
    let terms = (0..12).map(|i| {
        let weight = 0.5 * 0.6f64.powi(i as i32);
        let v = space.add_bool_variable(weight / 0.81).unwrap();
        Assignment::new([(v, 0), (links[i], 0), (links[i + 1], 0)]).unwrap()
    });
    (DnfEvent::new(terms.collect::<Vec<_>>()), space)
}

/// Boolean and multi-valued (repair-key) variables in one event: a likely
/// alternative alone, its rarer siblings conjoined with Boolean literals.
fn mixed_event() -> (DnfEvent, ProbabilitySpace) {
    let mut space = ProbabilitySpace::new();
    let key = space.add_variable(vec![0.55, 0.25, 0.15, 0.05]).unwrap();
    let other = space.add_variable(vec![0.7, 0.2, 0.1]).unwrap();
    let flags: Vec<usize> = (0..6)
        .map(|i| space.add_bool_variable(0.15 + 0.05 * i as f64).unwrap())
        .collect();
    let mut terms = vec![Assignment::new([(key, 0)]).unwrap()];
    for (i, &flag) in flags.iter().enumerate() {
        terms.push(Assignment::new([(key, 1 + i % 3), (flag, 0)]).unwrap());
        terms.push(Assignment::new([(other, 1 + i % 2), (flag, 0)]).unwrap());
    }
    (DnfEvent::new(terms), space)
}

/// Widths 1/2/4 × both sampling paths over one event: 6 cells.
fn every_width_and_path_honours_epsilon_delta(
    shape: &str,
    event: DnfEvent,
    space: &ProbabilitySpace,
) {
    let fpras = FprasEstimator::new(FprasParams::new(EPSILON, DELTA).unwrap());
    let p = exact::probability(&event, space).unwrap();
    assert!(p > 0.0 && p < 1.0 && !event.is_certain());
    let programs = Arc::new(LineagePrograms::compile(vec![event], space).unwrap());
    let width = programs.sample_width(0);
    let m = fpras.bill(&programs, 0).unwrap() as usize;
    let total_weight = programs.total_weight(0);

    for words in [1usize, 2, 4] {
        check(
            &format!("budgeted kernel, width {words}, {shape}"),
            p,
            total_weight,
            m,
            |seed| {
                let mut kernel = BitKarpLuby::new_with_width(programs.clone(), 0, words).unwrap();
                kernel
                    .estimate(m, &mut SmallRng::seed_from_u64(seed))
                    .unwrap()
            },
        );
        // The incremental path: batches of w until the budget is covered,
        // the lane bank in play on every batch.
        let batches = m.div_ceil(width);
        check(
            &format!("incremental estimator, width {words}, {shape}"),
            p,
            total_weight,
            batches * width,
            |seed| {
                let mut estimator =
                    IncrementalEstimator::from_compiled_with_width(&programs, 0, words).unwrap();
                let mut rng = SmallRng::seed_from_u64(seed);
                for _ in 0..batches {
                    estimator.add_batch(&mut rng);
                }
                assert_eq!(estimator.samples(), (batches * width) as u64);
                estimator.estimate()
            },
        );
    }
}

/// Term lengths 1–4 over Boolean or multi-valued events: 24 cells.
fn uniform_events_honour_epsilon_delta(multi_valued: bool) {
    for term_len in 1..=4usize {
        let (event, space) = event_of(term_len, multi_valued);
        let shape = format!(
            "{} terms of {term_len} literals",
            if multi_valued {
                "multi-valued"
            } else {
                "Boolean"
            }
        );
        every_width_and_path_honours_epsilon_delta(&shape, event, &space);
    }
}

#[test]
fn boolean_events_honour_epsilon_delta_at_every_width_and_path() {
    uniform_events_honour_epsilon_delta(false);
}

#[test]
fn multi_valued_events_honour_epsilon_delta_at_every_width_and_path() {
    uniform_events_honour_epsilon_delta(true);
}

/// The skewed-weight families, where `w` is far below `|F|`: 18 cells.
#[test]
fn skewed_weights_honour_epsilon_delta_at_every_width_and_path() {
    for (shape, (event, space), widest) in [
        ("one dominant term", dominant_term_event(), 2),
        ("geometric weights", geometric_event(), 3),
        ("mixed Boolean/multi-valued", mixed_event(), 3),
    ] {
        let programs = LineagePrograms::compile(vec![event.clone()], &space).unwrap();
        let (width, terms) = (programs.sample_width(0), programs.num_terms(0));
        assert!(
            width <= widest && 4 * width <= terms,
            "{shape}: width {width} of {terms} terms"
        );
        every_width_and_path_honours_epsilon_delta(shape, event, &space);
    }
}

/// The estimator layer itself, at the block width it picks from the budget.
#[test]
fn the_fpras_estimator_honours_epsilon_delta() {
    assert_eq!(binomial_quantile(SEEDS, DELTA), 71);
    let fpras = FprasEstimator::new(FprasParams::new(EPSILON, DELTA).unwrap());
    for (shape, (event, space)) in [
        ("2-literal Boolean terms", event_of(2, false)),
        ("3-literal multi-valued terms", event_of(3, true)),
        ("one dominant term", dominant_term_event()),
        ("geometric weights", geometric_event()),
        ("mixed Boolean/multi-valued", mixed_event()),
    ] {
        let p = exact::probability(&event, &space).unwrap();
        let programs = Arc::new(LineagePrograms::compile(vec![event], &space).unwrap());
        let m = fpras.bill(&programs, 0).unwrap();
        check(
            &format!("FprasEstimator, {shape}"),
            p,
            programs.total_weight(0),
            m as usize,
            |seed| {
                let got = fpras.estimate_compiled(&programs, 0, seed).unwrap();
                assert_eq!(got.samples, m);
                got.estimate
            },
        );
    }
}
