//! Experiment harness: one function per experiment of the per-experiment
//! index in `DESIGN.md` (E1–E15).  Each function runs the experiment on the
//! synthetic workloads and returns a printable report; the `experiments`
//! binary dispatches on experiment ids and prints the reports that
//! `EXPERIMENTS.md` records.
//!
//! The paper is a theory paper without measurement tables, so the "figures"
//! regenerated here are its worked examples (Examples 2.2, 3.2, 5.4, 6.5 and
//! Figures 1–3) and the quantitative claims of its theorems (FPRAS error
//! guarantees, the adaptive-vs-naive saving, the Proposition 6.6 error bound
//! and the Theorem 6.7 iteration doubling).

#![forbid(unsafe_code)]

use algebra::parse_query;
use approx::{
    approximate_predicate, naive_decide, ApproxPredicate, ApproximationParams, LinearIneq,
    Orthotope,
};
use confidence::{
    approximate_confidence, exact, Assignment, DnfEvent, FprasParams, IncrementalEstimator,
    ProbabilitySpace,
};
use engine::{
    evaluate_adaptive, evaluate_naive, proposition_6_6_bound, ApproxSelectMode, ConfidenceMode,
    EvalConfig, QueryShape, UEngine,
};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use std::fmt::Write as _;
use std::time::Instant;
use workloads::{coins, CleaningWorkload, RandomDnf, SensorWorkload, TupleIndependentDb};

/// A report produced by one experiment: an id, a title and pre-formatted
/// result lines.
#[derive(Clone, Debug)]
pub struct Report {
    /// Experiment id (E1, E2, …) as in DESIGN.md.
    pub id: &'static str,
    /// Human-readable title.
    pub title: &'static str,
    /// The report body.
    pub lines: Vec<String>,
}

impl Report {
    fn new(id: &'static str, title: &'static str) -> Self {
        Report {
            id,
            title,
            lines: Vec::new(),
        }
    }

    fn push(&mut self, line: impl Into<String>) {
        self.lines.push(line.into());
    }

    /// Renders the report as text.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "== {} — {}", self.id, self.title);
        for line in &self.lines {
            let _ = writeln!(out, "   {line}");
        }
        out
    }
}

/// All experiment ids, in order.
pub const ALL_EXPERIMENTS: &[&str] = &[
    "e1", "e2", "e3", "e4", "e5", "e6", "e7", "e8", "e9", "e10", "e11", "e12", "e13", "e14", "e15",
];

/// Runs one experiment by id.
pub fn run(id: &str) -> Option<Report> {
    match id {
        "e1" => Some(e1_coin_example()),
        "e2" => Some(e2_representation_roundtrip()),
        "e3" => Some(e3_exact_confidence_scaling()),
        "e4" => Some(e4_fpras_accuracy()),
        "e5" => Some(e5_example_5_4_geometry()),
        "e6" => Some(e6_theorem_5_2_soundness()),
        "e7" => Some(e7_theorem_5_5_soundness()),
        "e8" => Some(e8_figure_3_algorithm()),
        "e9" => Some(e9_adaptive_vs_naive()),
        "e10" => Some(e10_example_6_3()),
        "e11" => Some(e11_example_6_5()),
        "e12" => Some(e12_proposition_6_6()),
        "e13" => Some(e13_theorem_6_7()),
        "e14" => Some(e14_theorem_4_4()),
        "e15" => Some(e15_query_scaling()),
        _ => None,
    }
}

/// E1: Example 2.2 / Figure 1 — the coin posterior on both engines.
pub fn e1_coin_example() -> Report {
    let mut report = Report::new("E1", "Example 2.2 / Figure 1: coin-bag posterior");
    let udb = coins::coin_udatabase();
    let engine = UEngine::new(EvalConfig::exact());
    let mut rng = ChaCha8Rng::seed_from_u64(1);
    let u = coins::query_u(2);
    let out = engine.evaluate(&udb, &u, &mut rng).expect("U evaluates");
    report.push(format!(
        "possible worlds after evaluating T: {} (paper: 8)",
        out.database.num_possible_worlds()
    ));
    for row in out.result.relation.iter() {
        report.push(format!("posterior {}", row.tuple));
    }
    let reference = evaluate_naive(&coins::coin_database(), &u).expect("reference");
    for t in reference.possible_tuples().expect("result").iter() {
        report.push(format!("reference {t}"));
    }
    report.push("paper: fair -> 1/3, 2headed -> 2/3".to_string());
    report
}

/// E2: Theorem 3.1 — encode/decode round trip preserves confidences.
pub fn e2_representation_roundtrip() -> Report {
    let mut report = Report::new(
        "E2",
        "Theorem 3.1: U-relations are a complete representation",
    );
    let gen = TupleIndependentDb {
        num_tuples: 6,
        ..TupleIndependentDb::default()
    };
    let udb = gen.database();
    let explicit = urel::decode_default(&udb).expect("decode");
    let re_encoded = urel::encode(&explicit).expect("encode");
    let decoded_again = urel::decode_default(&re_encoded).expect("decode again");
    let mut max_diff = 0.0f64;
    for t in explicit.poss("T").expect("poss").iter() {
        let a = explicit.confidence("T", t).expect("confidence");
        let b = decoded_again.confidence("T", t).expect("confidence");
        max_diff = max_diff.max((a - b).abs());
    }
    report.push(format!(
        "worlds: {} -> re-encoded variables: {}",
        explicit.num_worlds(),
        re_encoded.wtable().num_variables()
    ));
    report.push(format!(
        "max confidence difference across round trip: {max_diff:.2e} (paper: representation is complete, i.e. 0)"
    ));
    report
}

/// E3: Theorem 3.4 / Proposition 3.5 — exact confidence cost on the succinct
/// representation vs a linear pass over explicit worlds.
pub fn e3_exact_confidence_scaling() -> Report {
    let mut report = Report::new(
        "E3",
        "Theorem 3.4 / Prop 3.5: exact confidence, succinct vs nonsuccinct",
    );
    report.push("vars  |F|   enumeration(us)  shannon(us)  worlds  world-pass(us)".to_string());
    for &num_vars in &[8usize, 12, 16, 20] {
        let gen = RandomDnf {
            num_variables: num_vars,
            num_terms: num_vars / 2,
            literals_per_term: 3,
            seed: 5,
        };
        let (event, space) = gen.generate();

        let start = Instant::now();
        let p_enum = exact::by_enumeration(&event, &space, 1 << 26).expect("enumeration");
        let t_enum = start.elapsed().as_micros();

        let start = Instant::now();
        let p_shannon = exact::by_shannon_expansion(&event, &space).expect("shannon");
        let t_shannon = start.elapsed().as_micros();
        assert!((p_enum - p_shannon).abs() < 1e-9);

        // The nonsuccinct representation: materialise the worlds once, then a
        // single weighted pass computes the confidence (Proposition 3.5).
        let mentioned = event.variables().len();
        let worlds = 1u128 << mentioned;
        let assignments = confidence_worlds(&event, &space);
        let start = Instant::now();
        let p_worlds: f64 = assignments
            .iter()
            .filter(|(a, _)| event.satisfied_by(a))
            .map(|(_, w)| *w)
            .sum();
        let t_worlds = start.elapsed().as_micros();
        assert!((p_worlds - p_enum).abs() < 1e-9);

        report.push(format!(
            "{num_vars:>4}  {:>3}   {t_enum:>14}  {t_shannon:>11}  {worlds:>6}  {t_worlds:>13}",
            event.num_terms()
        ));
    }
    report.push(
        "shape check: succinct-side cost grows exponentially with the variable count, \
         while the per-world pass is linear in the (exponentially many) worlds"
            .to_string(),
    );
    report
}

fn confidence_worlds(event: &DnfEvent, space: &ProbabilitySpace) -> Vec<(Assignment, f64)> {
    let vars = event.variables();
    let mut out = vec![(Vec::new(), 1.0f64)];
    for &v in &vars {
        let mut next = Vec::with_capacity(out.len() * 2);
        for (prefix, w) in &out {
            for alt in 0..space.num_alternatives(v).expect("var") {
                let mut p = prefix.clone();
                p.push((v, alt));
                next.push((p, w * space.probability(v, alt).expect("prob")));
            }
        }
        out = next;
    }
    out.into_iter()
        .map(|(pairs, w)| (Assignment::new(pairs).expect("assignment"), w))
        .collect()
}

/// E4: Proposition 4.2 — empirical validation of the (ε, δ) guarantee.
pub fn e4_fpras_accuracy() -> Report {
    let mut report = Report::new("E4", "Proposition 4.2: Karp-Luby FPRAS accuracy");
    report.push("|F|  eps   delta  runs  violations  max_rel_err  samples".to_string());
    for &(num_terms, epsilon) in &[(8usize, 0.2f64), (8, 0.1), (32, 0.1)] {
        let gen = RandomDnf {
            num_variables: num_terms * 2,
            num_terms,
            literals_per_term: 3,
            seed: 9,
        };
        let (event, space) = gen.generate();
        let exact_p = exact::probability(&event, &space).expect("exact");
        let delta = 0.05;
        let params = FprasParams::new(epsilon, delta).expect("params");
        let runs = 20usize;
        let mut violations = 0usize;
        let mut max_rel = 0.0f64;
        let mut samples = 0usize;
        for seed in 0..runs as u64 {
            let mut rng = ChaCha8Rng::seed_from_u64(seed);
            let est = approximate_confidence(&event, &space, params, &mut rng).expect("fpras");
            samples = est.samples;
            let rel = (est.estimate - exact_p).abs() / exact_p;
            max_rel = max_rel.max(rel);
            if rel > epsilon {
                violations += 1;
            }
        }
        report.push(format!(
            "{num_terms:>3}  {epsilon:<4}  {delta:<5}  {runs:>4}  {violations:>10}  {max_rel:>11.4}  {samples}"
        ));
    }
    report.push("paper: relative error exceeds eps with probability at most delta".to_string());
    report
}

/// E5: Example 5.4 / Figure 2 — the ε-geometry.
pub fn e5_example_5_4_geometry() -> Report {
    let mut report = Report::new(
        "E5",
        "Example 5.4 / Figure 2: maximal orthotope for x1/x2 >= 1/2",
    );
    let phi = LinearIneq::ratio_at_least(2, 0, 1, 0.5);
    let p_hat = [0.5, 0.5];
    let eps = phi.epsilon_max(&p_hat).expect("epsilon");
    let orthotope = Orthotope::relative(&p_hat, eps).expect("orthotope");
    report.push(format!("epsilon = {eps:.6} (paper: 1/3 ≈ 0.333333)"));
    report.push(format!(
        "orthotope = {} x {} (paper: [3/8, 3/4]^2 = [0.375, 0.75]^2)",
        orthotope.intervals()[0],
        orthotope.intervals()[1]
    ));
    let touch = [0.5 / (1.0 + eps), 0.5 / (1.0 - eps)];
    report.push(format!(
        "touches the hyperplane 2x1 = x2 at ({:.4}, {:.4}) (paper: (3/8, 3/4))",
        touch[0], touch[1]
    ));
    report
}

/// E6: Theorem 5.2 — soundness of the closed-form ε on random linear
/// inequalities.
pub fn e6_theorem_5_2_soundness() -> Report {
    let mut report = Report::new(
        "E6",
        "Theorem 5.2: closed-form epsilon keeps the orthotope homogeneous",
    );
    let mut rng = ChaCha8Rng::seed_from_u64(17);
    use rand::Rng as _;
    let mut checked = 0usize;
    let mut violations = 0usize;
    let mut eps_sum = 0.0f64;
    for _ in 0..300 {
        let k = rng.gen_range(1..=5usize);
        let coeffs: Vec<f64> = (0..k).map(|_| rng.gen_range(-2.0..2.0)).collect();
        let point: Vec<f64> = (0..k).map(|_| rng.gen_range(0.05..0.95)).collect();
        let lhs: f64 = coeffs.iter().zip(&point).map(|(a, x)| a * x).sum();
        let bound = lhs - rng.gen_range(0.0..0.5); // satisfied by construction
        let ineq = LinearIneq::new(coeffs, bound);
        let eps = match ineq.epsilon_max(&point) {
            Ok(e) => e,
            Err(_) => continue,
        };
        let eps = eps.min(0.999);
        if eps <= 0.0 {
            continue;
        }
        checked += 1;
        eps_sum += eps;
        let orthotope = Orthotope::relative(&point, eps * 0.999).expect("orthotope");
        for corner in orthotope.corners() {
            if !ineq.eval(&corner).expect("eval") {
                violations += 1;
                break;
            }
        }
    }
    report.push(format!(
        "random satisfied linear inequalities checked: {checked}, homogeneity violations: {violations} (paper: 0)"
    ));
    report.push(format!(
        "mean epsilon: {:.3}",
        eps_sum / checked.max(1) as f64
    ));
    report
}

/// E7: Theorem 5.5 — corner-check ε agrees with dense sampling on
/// single-occurrence algebraic predicates.
pub fn e7_theorem_5_5_soundness() -> Report {
    let mut report = Report::new(
        "E7",
        "Theorem 5.5: corner-check epsilon is homogeneous for single-occurrence predicates",
    );
    use approx::{AlgExpr, AlgebraicIneq};
    let mut rng = ChaCha8Rng::seed_from_u64(23);
    use rand::Rng as _;
    let mut checked = 0usize;
    let mut violations = 0usize;
    for _ in 0..100 {
        // f(x) = x0·x1 − c  or  x0/x1 − c  or  x0 + x1 − c, each single
        // occurrence.
        let c = rng.gen_range(0.05..0.9);
        let which = rng.gen_range(0..3);
        let expr = match which {
            0 => AlgExpr::var(0) * AlgExpr::var(1) - AlgExpr::konst(c),
            1 => AlgExpr::var(0) / AlgExpr::var(1) - AlgExpr::konst(c),
            _ => AlgExpr::var(0) + AlgExpr::var(1) - AlgExpr::konst(c),
        };
        let phi = AlgebraicIneq::new(expr).expect("single occurrence");
        let point = [rng.gen_range(0.1..0.9), rng.gen_range(0.1..0.9)];
        let reference = phi.eval(&point).expect("eval");
        let eps = phi.epsilon_homogeneous(&point).expect("epsilon");
        if eps <= 1e-4 {
            continue;
        }
        checked += 1;
        // Dense sampling inside the orthotope.
        let orthotope = Orthotope::relative(&point, eps * 0.98).expect("orthotope");
        let grid = 7;
        'outer: for i in 0..=grid {
            for j in 0..=grid {
                let x = [
                    orthotope.intervals()[0].lo
                        + orthotope.intervals()[0].width() * i as f64 / grid as f64,
                    orthotope.intervals()[1].lo
                        + orthotope.intervals()[1].width() * j as f64 / grid as f64,
                ];
                if phi.eval(&x).map(|v| v != reference).unwrap_or(true) {
                    violations += 1;
                    break 'outer;
                }
            }
        }
    }
    report.push(format!(
        "single-occurrence predicates checked by dense sampling: {checked}, violations: {violations} (paper: 0)"
    ));

    // Cost per call as the number k of approximated values grows: the
    // Theorem 5.2 closed form is one pass over k coefficients, the Theorem
    // 5.5 corner check visits 2^k corners per bisection step.
    let mut costs = Vec::new();
    for k in [2usize, 4, 8] {
        let point: Vec<f64> = (0..k).map(|i| 0.4 + 0.01 * i as f64).collect();
        let coeffs = (0..k).map(|i| if i % 2 == 0 { 1.0 } else { -0.25 });
        let linear = LinearIneq::new(coeffs.collect(), 0.05);
        // f(x) = x0·x1 + x2·x3 + … − c, single occurrence per variable.
        let f = (0..k).step_by(2).fold(AlgExpr::konst(-0.05), |f, i| {
            f + AlgExpr::var(i) * AlgExpr::var(i + 1)
        });
        let phi = AlgebraicIneq::new(f).expect("single occurrence");
        let closed = mean_call_us(10_000, || linear.epsilon_max(&point).expect("epsilon"));
        let corner = mean_call_us(200, || phi.epsilon_homogeneous(&point).expect("epsilon"));
        costs.push(format!("k = {k}: {closed:.3} / {corner:.1}"));
    }
    report.push(format!(
        "epsilon cost per call in us, Theorem 5.2 closed form / Theorem 5.5 corner check: {}",
        costs.join(", ")
    ));
    report
}

/// Mean wall time of `f` over `calls` calls after a warm-up call, in µs.
fn mean_call_us<T>(calls: u32, mut f: impl FnMut() -> T) -> f64 {
    std::hint::black_box(f());
    let start = Instant::now();
    for _ in 0..calls {
        std::hint::black_box(f());
    }
    start.elapsed().as_secs_f64() * 1e6 / f64::from(calls)
}

/// E8: Figure 3 / Theorem 5.8 — decision error vs distance from the
/// threshold, including the near-singular regime.
pub fn e8_figure_3_algorithm() -> Report {
    let mut report = Report::new("E8", "Figure 3 / Theorem 5.8: predicate approximation");
    report.push("true_p  threshold  margin  runs  wrong  mean_iterations".to_string());
    let delta = 0.1;
    let eps0 = 0.05;
    for &(n, q, threshold) in &[
        (6usize, 0.175f64, 0.3f64), // wide margin
        (5, 0.13, 0.4),             // medium margin
        (1, 0.5, 0.45),             // narrow margin
        (1, 0.5, 0.5),              // singularity
    ] {
        let true_p = 1.0 - (1.0 - q).powi(n as i32);
        let truth = true_p >= threshold;
        let runs = 20usize;
        let mut wrong = 0usize;
        let mut iterations = 0usize;
        for seed in 0..runs as u64 {
            let mut space = ProbabilitySpace::new();
            let mut terms = Vec::new();
            for _ in 0..n {
                let v = space.add_bool_variable(q).expect("prob");
                terms.push(Assignment::new([(v, 0)]).expect("assignment"));
            }
            let mut estimator =
                IncrementalEstimator::new(DnfEvent::new(terms), space).expect("estimator");
            let phi = ApproxPredicate::threshold(1, 0, threshold);
            let params = ApproximationParams::new(eps0, delta)
                .expect("params")
                .with_max_iterations(3000);
            let mut rng = ChaCha8Rng::seed_from_u64(seed);
            let d =
                approximate_predicate(&phi, std::slice::from_mut(&mut estimator), params, &mut rng)
                    .expect("decision");
            if d.value != truth {
                wrong += 1;
            }
            iterations += d.iterations;
        }
        let margin = (true_p - threshold).abs() / true_p;
        report.push(format!(
            "{true_p:.3}   {threshold:<9}  {margin:.3}   {runs:>4}  {wrong:>5}  {:.0}",
            iterations as f64 / runs as f64
        ));
    }
    report.push(format!(
        "paper: error <= delta = {delta} away from eps0-singularities; the last row is the singular case (margin 0), where no guarantee applies"
    ));
    report
}

/// E9: the closing claim of Section 5 — adaptive vs naive estimator
/// invocations as a function of the predicate margin.
pub fn e9_adaptive_vs_naive() -> Report {
    let mut report = Report::new(
        "E9",
        "Section 5 closing claim: adaptive vs naive sample counts",
    );
    report.push(
        "margin(eps_phi)  adaptive_samples  naive_samples  measured_saving  predicted_saving"
            .to_string(),
    );
    let eps0 = 0.02;
    let delta = 0.05;
    for &threshold in &[0.2f64, 0.4, 0.55, 0.62] {
        let n = 6usize;
        let q = 0.175f64;
        let mut space = ProbabilitySpace::new();
        let mut terms = Vec::new();
        for _ in 0..n {
            let v = space.add_bool_variable(q).expect("prob");
            terms.push(Assignment::new([(v, 0)]).expect("assignment"));
        }
        let event = DnfEvent::new(terms);
        let phi = ApproxPredicate::threshold(1, 0, threshold);
        let params = ApproximationParams::new(eps0, delta).expect("params");

        let mut adaptive_est =
            IncrementalEstimator::new(event.clone(), space.clone()).expect("estimator");
        let mut rng = ChaCha8Rng::seed_from_u64(33);
        let adaptive = approximate_predicate(
            &phi,
            std::slice::from_mut(&mut adaptive_est),
            params,
            &mut rng,
        )
        .expect("adaptive");

        let mut naive_est = IncrementalEstimator::new(event, space).expect("estimator");
        let mut rng = ChaCha8Rng::seed_from_u64(33);
        let naive = naive_decide(&phi, std::slice::from_mut(&mut naive_est), params, &mut rng)
            .expect("naive");

        let measured = 1.0 - adaptive.samples as f64 / naive.samples as f64;
        let predicted = approx::expected_saving_factor(adaptive.epsilon, eps0);
        report.push(format!(
            "{:.3}            {:>16}  {:>13}  {:>14.1}%  {:>16.1}%",
            adaptive.epsilon,
            adaptive.samples,
            naive.samples,
            measured * 100.0,
            predicted * 100.0
        ));
    }
    report.push(
        "paper: the running time improves by close to (eps_phi^2 - eps0^2)/eps_phi^2".to_string(),
    );
    report
}

/// E10: Example 6.3 — error bounds cannot be treated as exact error
/// probabilities.
pub fn e10_example_6_3() -> Report {
    let mut report = Report::new("E10", "Example 6.3: bounds are not error probabilities");
    let delta: f64 = 0.1;
    let e: f64 = 0.04; // true error of t1, below the bound
    let true_value = 1.0 - delta + e * delta;
    let wrong_model = 1.0 - delta + delta * delta;
    report.push(format!(
        "Pr[sigma_phi(R) nonempty] with true errors (e = {e}, delta = {delta}): {true_value:.4}"
    ));
    report.push(format!(
        "same quantity if the bound delta were treated as the exact error: {wrong_model:.4}"
    ));
    report.push(format!(
        "the modelled value is too great by {:.4}, so it would yield a too small error bound — \
         exactly the paper's warning that bounds cannot be treated as error probabilities",
        wrong_model - true_value
    ));
    report
}

/// E11: Example 6.5 — the provenance of a projection output can be the whole
/// input; error grows like µ·n.
pub fn e11_example_6_5() -> Report {
    let mut report = Report::new("E11", "Example 6.5: projection provenance error ~ mu * n");
    report.push("n     exact 1-(1-mu)^n   linear bound mu*n".to_string());
    let mu = 0.01;
    for &n in &[1usize, 4, 16, 64, 256] {
        let (exact_err, linear) = engine::provenance::example_6_5_bound(mu, n);
        report.push(format!("{n:>4}  {exact_err:>16.4}   {linear:>16.4}"));
    }
    report.push("paper: Pr[<a> flips] = 1 - (1-mu)^n <= mu*n".to_string());
    report
}

/// E12: Lemma 6.4 / Proposition 6.6 — empirical per-tuple error vs the
/// closed-form bound for σ̂ queries.
pub fn e12_proposition_6_6() -> Report {
    let mut report = Report::new(
        "E12",
        "Lemma 6.4 / Prop 6.6: per-tuple error vs closed-form bound",
    );
    let workload = SensorWorkload {
        num_sensors: 6,
        readings_per_sensor: 4,
        high_probability: 0.45,
        seed: 21,
    };
    let db = workload.database();
    let threshold = 0.7;
    let query = SensorWorkload::alarm_query(threshold, 0.05, 0.05);

    // Ground truth from the exact engine.
    let exact_engine = UEngine::new(EvalConfig::exact());
    let mut rng = ChaCha8Rng::seed_from_u64(3);
    let truth = exact_engine
        .evaluate(&db, &query, &mut rng)
        .expect("exact")
        .result
        .relation
        .possible_tuples();

    // Repeated approximate evaluations with a fixed iteration count.
    let l = 200usize;
    let runs = 20usize;
    let mut flips = 0usize;
    let mut decisions = 0usize;
    let mut reported_bound = 0.0f64;
    for seed in 0..runs as u64 {
        let engine = UEngine::new(EvalConfig {
            approx_select: ApproxSelectMode::FixedIterations(l),
            confidence: ConfidenceMode::Exact,
            ..EvalConfig::default()
        });
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let out = engine.evaluate(&db, &query, &mut rng).expect("approximate");
        reported_bound = reported_bound.max(out.result.max_error());
        for sensor in 0..workload.num_sensors {
            decisions += 1;
            let t = pdb::Tuple::new(vec![pdb::Value::Int(sensor as i64)]);
            if truth.contains(&t) != out.result.relation.possible_tuples().contains(&t) {
                flips += 1;
            }
        }
    }
    let shape =
        QueryShape::new(3, 1, engine::active_domain_size(&db).expect("domain")).expect("shape");
    let closed_form = proposition_6_6_bound(shape, 0.05, l).expect("bound");
    report.push(format!(
        "observed membership flips: {flips} / {decisions} decisions ({:.4})",
        flips as f64 / decisions as f64
    ));
    report.push(format!(
        "largest per-tuple bound reported by the engine: {reported_bound:.4}"
    ));
    report.push(format!(
        "closed-form Prop 6.6 bound (k=3, d=1, n={}, l={l}): {closed_form:.4}",
        shape.n
    ));
    report.push("paper: observed error <= engine bound <= closed-form bound".to_string());
    report
}

/// E13: Theorem 6.7 — iteration doubling reaches the target error.
pub fn e13_theorem_6_7() -> Report {
    let mut report = Report::new(
        "E13",
        "Theorem 6.7: whole-query approximation by iteration doubling",
    );
    let workload = SensorWorkload {
        num_sensors: 8,
        readings_per_sensor: 4,
        high_probability: 0.45,
        seed: 29,
    };
    let db = workload.database();
    let query = SensorWorkload::alarm_query(0.7, 0.05, 0.05);
    let mut rng = ChaCha8Rng::seed_from_u64(2);
    let start = Instant::now();
    let out = evaluate_adaptive(&db, &query, 0.05, 0.05, &mut rng).expect("adaptive evaluation");
    let elapsed = start.elapsed();
    report.push(format!(
        "attempts (l, max output error): {:?}",
        out.attempts
            .iter()
            .map(|(l, e)| (*l, (e * 1e4).round() / 1e4))
            .collect::<Vec<_>>()
    ));
    report.push(format!(
        "converged at l = {} (fallback l0 = {}), wall time {:.1} ms",
        out.iterations_used,
        out.l0,
        elapsed.as_secs_f64() * 1e3
    ));
    report.push(format!(
        "final max per-tuple error: {:.4} <= delta = 0.05",
        out.output.result.max_error()
    ));

    // Comparison: evaluating directly at the fallback l0.
    let engine = UEngine::new(EvalConfig {
        approx_select: ApproxSelectMode::FixedIterations(out.l0),
        confidence: ConfidenceMode::Exact,
        ..EvalConfig::default()
    });
    let mut rng = ChaCha8Rng::seed_from_u64(2);
    let start = Instant::now();
    let fixed = engine
        .evaluate(&db, &query, &mut rng)
        .expect("fixed-l evaluation");
    let fixed_elapsed = start.elapsed();
    report.push(format!(
        "samples: adaptive driver {} vs fixed l0 {} ({:.1} ms)",
        out.output.stats.karp_luby_samples,
        fixed.stats.karp_luby_samples,
        fixed_elapsed.as_secs_f64() * 1e3
    ));
    report.push("paper: polynomial-time convergence, at the latest when l >= l0".to_string());
    report
}

/// E14: Theorem 4.4 — conditional probabilities with an egd constraint in
/// positive UA\[conf\].
pub fn e14_theorem_4_4() -> Report {
    let mut report = Report::new(
        "E14",
        "Theorem 4.4: Pr[phi AND egd] = Pr[phi] - Pr[phi AND NOT egd]",
    );
    let workload = CleaningWorkload {
        num_records: 6,
        alternatives_per_record: 2,
        num_cities: 3,
        seed: 13,
    };
    let db = workload.database();
    let engine = UEngine::new(EvalConfig::exact());
    let read = |query| -> f64 {
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        let out = engine
            .evaluate(&db, &query, &mut rng)
            .expect("egd subquery");
        let p = out
            .result
            .relation
            .iter()
            .next()
            .and_then(|row| row.tuple[0].as_f64())
            .unwrap_or(0.0);
        p
    };
    let p_phi = read(CleaningWorkload::egd_phi_query(0));
    let p_viol = read(CleaningWorkload::egd_violation_query(0));
    let p_and = (p_phi - p_viol).max(0.0);
    report.push(format!("Pr[phi] = {p_phi:.4}"));
    report.push(format!("Pr[phi AND NOT psi] = {p_viol:.4}"));
    report.push(format!(
        "Pr[phi AND psi] = {p_and:.4} (via the Theorem 4.4 rewriting)"
    ));

    // Cross-check against the possible-worlds reference: enumerate worlds and
    // count directly.
    let clean = CleaningWorkload::cleaned_query();
    let reference = evaluate_naive(
        &pdb::ProbabilisticDatabase::from_complete_relations([("Dirty", workload.dirty())])
            .expect("complete db"),
        &clean,
    )
    .expect("reference clean");
    let mut direct = 0.0;
    for world in reference.database.worlds() {
        let rel = world.relation(&reference.result).expect("clean relation");
        let schema = rel.schema().clone();
        let name_idx = schema.index_of("Name").expect("Name");
        let city_idx = schema.index_of("City").expect("City");
        let in_city0 = rel.iter().any(|t| t[city_idx] == pdb::Value::str("city0"));
        let egd_holds = {
            let mut ok = true;
            for a in rel.iter() {
                for b in rel.iter() {
                    if a[name_idx] == b[name_idx] && a[city_idx] != b[city_idx] {
                        ok = false;
                    }
                }
            }
            ok
        };
        if in_city0 && egd_holds {
            direct += world.probability();
        }
    }
    report.push(format!(
        "direct possible-worlds computation of Pr[phi AND psi] = {direct:.4} (difference {:.2e})",
        (direct - p_and).abs()
    ));
    report
}

/// E15: Corollary 4.3 — evaluation time of positive UA[conf_{ε,δ}] scales
/// polynomially with the input size.
pub fn e15_query_scaling() -> Report {
    let mut report = Report::new("E15", "Corollary 4.3: approximate query evaluation scaling");
    report.push("tuples  karp_luby_samples  wall_ms".to_string());
    let query = parse_query("aconf[0.2, 0.1](project[A](T))").expect("scaling query");
    for &n in &[10usize, 20, 40, 80] {
        let gen = TupleIndependentDb {
            num_tuples: n,
            domain_size: 4,
            tuple_probability: Some(0.3),
            seed: 7,
        };
        let db = gen.database();
        let engine = UEngine::new(EvalConfig::default());
        let mut rng = ChaCha8Rng::seed_from_u64(4);
        let start = Instant::now();
        let out = engine
            .evaluate(&db, &query, &mut rng)
            .expect("scaling evaluation");
        let elapsed = start.elapsed();
        report.push(format!(
            "{n:>6}  {:>17}  {:>7.1}",
            out.stats.karp_luby_samples,
            elapsed.as_secs_f64() * 1e3
        ));
    }
    report
        .push("paper: polynomial time in the size of the input U-relational database".to_string());
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_experiment_id_dispatches() {
        for id in ALL_EXPERIMENTS {
            // Only check dispatch for the heavier experiments; run the light
            // ones fully.
            match *id {
                "e5" | "e10" | "e11" => {
                    let r = run(id).expect("experiment exists");
                    assert!(!r.lines.is_empty());
                    assert!(!r.render().is_empty());
                }
                _ => assert!(ALL_EXPERIMENTS.contains(id)),
            }
        }
        assert!(run("nope").is_none());
    }

    #[test]
    fn e5_reproduces_the_paper_numbers() {
        let r = e5_example_5_4_geometry();
        let text = r.render();
        assert!(text.contains("0.333333"));
        assert!(text.contains("0.375"));
    }

    #[test]
    fn e10_and_e11_match_closed_forms() {
        let r = e10_example_6_3();
        assert!(r.render().contains("too small error bound"));
        let r = e11_example_6_5();
        assert!(r.render().contains("256"));
    }
}
