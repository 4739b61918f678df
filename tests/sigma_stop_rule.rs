//! σ̂ is one Figure 3 loop with a stop rule: the differential and
//! conformance suite of the engine's Monte Carlo decision routine.
//!
//! * **Stop-rule differential.**  `ApproxSelectMode::FixedIterations(l)`
//!   through `UEngine` equals `approx::approximate_predicate` run by hand on
//!   the same compiled events and the same per-candidate sub-seeds —
//!   decision, samples and error bound `min(0.5, Σ_{non-exact} δ′(ε, l))` —
//!   for `k ∈ {0, 1, 2}` confidence terms, backend off and on.
//! * **Attribution.**  In every Monte Carlo mode each non-trivial event of an
//!   unpruned candidate moves exactly one of `exact_compiled_answers` /
//!   `sampled_answers`; pruned candidates and trivial events move neither.
//! * **Singular points.**  At and next to a predicate's singular point
//!   (θ equal to a true confidence, and within ε₀ of it) exact mode decides
//!   by the true value, the Monte Carlo modes report an honest bound,
//!   bounds pruning never decides a candidate whose interval straddles θ,
//!   and an expired deadline is `DeadlineExceeded`, never a decision — also
//!   through the serving layer's degradable entry point, where the `aconf`
//!   form of the same question degrades to intervals that hold the truth.

use algebra::{parse_query, ConfTerm, Expr, LogicalPlan, Predicate, Query};
use approx::{approximate_predicate, ApproximationParams, Decision};
use confidence::bitworld::block_words_for_samples;
use confidence::{
    chernoff, event_bounds_with_limit, event_seed, FprasEstimator, FprasParams,
    IncrementalEstimator, LineagePrograms,
};
use engine::{
    catalog_of, compile_predicate, ApproxSelectMode, CompiledSpace, ConfidenceMode, DegradedReason,
    EngineError, EvalConfig, EvalOutput, EvalStats, ExecContext, PhysicalPlan, Request,
    ServingAnswer, ServingEngine, SpaceCache, UEngine,
};
use pdb::{Schema, Tuple, Value};
use rand::rngs::SmallRng;
use rand::{Rng, RngCore, SeedableRng};
use rand_chacha::ChaCha8Rng;
use std::sync::Arc;
use urel::{Condition, UDatabase, URelation, Var};

const NODE_BUDGET: u32 = confidence::cost::DEFAULT_NODE_BUDGET;
const EPSILON0: f64 = 0.1;
const DELTA: f64 = 0.1;

/// `T(Id, A, B)`: 14 uncertain tuples over a 3-value domain, tuple `i`
/// present iff `x_i ∧ y_{i mod 4}` — so every `conf[A]` / `conf[B]` lineage
/// has several terms, and terms share the `y` variables (the confidence
/// bounds of such an event are not tight) — plus one *certain* tuple with
/// `A = B = 9`, whose events are trivial.
fn database() -> UDatabase {
    let mut rng = ChaCha8Rng::seed_from_u64(5);
    let mut db = UDatabase::new();
    for j in 0..4 {
        let p = rng.gen_range(0.5..0.9);
        db.wtable_mut()
            .add_bool_variable(Var::new(format!("y{j}")), p)
            .unwrap();
    }
    let mut t = URelation::empty(Schema::new(["Id", "A", "B"]).unwrap());
    for i in 0..14i64 {
        let p = rng.gen_range(0.2..0.9);
        db.wtable_mut()
            .add_bool_variable(Var::new(format!("x{i}")), p)
            .unwrap();
        let condition = Condition::new([
            (Var::new(format!("x{i}")), Value::Bool(true)),
            (Var::new(format!("y{}", i % 4)), Value::Bool(true)),
        ])
        .unwrap();
        let (a, b) = (rng.gen_range(0..3i64), rng.gen_range(0..3i64));
        t.insert(
            condition,
            Tuple::new(vec![Value::Int(i), Value::Int(a), Value::Int(b)]),
        )
        .unwrap();
    }
    t.insert(
        Condition::always(),
        Tuple::new(vec![Value::Int(100), Value::Int(9), Value::Int(9)]),
    )
    .unwrap();
    db.set_relation("T", t, false);
    db
}

/// The σ̂ queries of the suite by number of confidence terms.
fn sigma_query(k: usize, theta: f64) -> Query {
    let (terms, predicate) = match k {
        0 => (vec![], Predicate::True),
        1 => (
            vec![ConfTerm::new("P1", ["A"])],
            Predicate::ge(Expr::attr("P1"), Expr::konst(theta)),
        ),
        _ => (
            vec![ConfTerm::new("P1", ["A"]), ConfTerm::new("P2", ["B"])],
            Predicate::ge(Expr::attr("P1") - Expr::attr("P2"), Expr::konst(theta)),
        ),
    };
    Query::table("T").approx_select(terms, predicate, EPSILON0, DELTA)
}

fn config(mode: ApproxSelectMode, prune: bool, node_budget: u32) -> EvalConfig {
    EvalConfig {
        approx_select: mode,
        confidence: ConfidenceMode::Exact,
        ..EvalConfig::default()
    }
    .with_pruning(prune)
    .with_exact_backend(node_budget)
}

fn evaluate(db: &UDatabase, query: &Query, config: EvalConfig, seed: u64) -> EvalOutput {
    UEngine::new(config)
        .evaluate(db, query, &mut ChaCha8Rng::seed_from_u64(seed))
        .expect("σ̂ evaluation")
}

/// The engine's view of a σ̂ operator over `T`, rebuilt from public parts:
/// the candidates in the engine's order and, per candidate, its `k`
/// compiled events.
struct Candidates {
    tuples: Vec<Tuple>,
    handles: Vec<Vec<(Arc<LineagePrograms>, usize)>>,
    compiled: CompiledSpace,
}

fn candidates(db: &UDatabase, query: &Query) -> Candidates {
    let Query::ApproxSelect { terms, .. } = query else {
        panic!("a σ̂ query")
    };
    let compiled = CompiledSpace::compile(db.wtable()).unwrap();
    let lineages: Vec<_> = terms
        .iter()
        .map(|term| {
            let text = format!("project[{}](T)", term.attrs.join(", "));
            let projection = evaluate(db, &parse_query(&text).unwrap(), EvalConfig::exact(), 0);
            compiled
                .relation_events(&projection.result.relation)
                .unwrap()
        })
        .collect();
    // The candidates are the product of the projections' possible tuples,
    // in tuple order.
    let mut tuples = vec![Tuple::empty()];
    let mut handles = vec![Vec::new()];
    for lineage in &lineages {
        let mut next_tuples = Vec::new();
        let mut next_handles = Vec::new();
        for (prefix, events) in tuples.iter().zip(&handles) {
            for (i, t) in lineage.tuples().iter().enumerate() {
                next_tuples.push(Tuple::new(
                    prefix.values().chain(t.values()).cloned().collect(),
                ));
                let mut events: Vec<_> = events.clone();
                events.push((lineage.programs().clone(), i));
                next_handles.push(events);
            }
        }
        (tuples, handles) = (next_tuples, next_handles);
    }
    Candidates {
        tuples,
        handles,
        compiled,
    }
}

/// Figure 3 by hand for candidate `i`: the engine's resolution rule (the
/// exact backend against the bill the stop rule implies), its block width
/// (from the same bill) and its sub-seed.
fn by_hand(
    query: &Query,
    events: &[(Arc<LineagePrograms>, usize)],
    mode: ApproxSelectMode,
    node_budget: u32,
    master_seed: u64,
    i: usize,
) -> (Decision, Vec<IncrementalEstimator>) {
    let Query::ApproxSelect {
        terms, predicate, ..
    } = query
    else {
        panic!("a σ̂ query")
    };
    let placeholders: Vec<String> = terms.iter().map(|t| t.name.clone()).collect();
    let predicate = compile_predicate(predicate, &placeholders).unwrap();
    let params = match mode {
        ApproxSelectMode::FixedIterations(l) => {
            ApproximationParams::fixed_iterations(EPSILON0, l).unwrap()
        }
        _ => ApproximationParams::new(EPSILON0, DELTA).unwrap(),
    };
    let floor = FprasEstimator::new(FprasParams::new(EPSILON0, DELTA).unwrap());
    let mut estimators: Vec<IncrementalEstimator> = events
        .iter()
        .map(|(programs, event)| {
            let bill = match mode {
                ApproxSelectMode::FixedIterations(l) => {
                    (l.max(1) * programs.sample_width(*event)) as u64
                }
                _ => floor.bill(programs, *event).unwrap(),
            };
            let mut state = IncrementalEstimator::from_compiled_with_width(
                programs,
                *event,
                block_words_for_samples(bill as usize),
            )
            .unwrap();
            if !state.is_trivial() {
                if let Some(p) = programs.exact_if_cheaper(*event, bill, node_budget) {
                    state.resolve_exactly(p);
                }
            }
            state
        })
        .collect();
    let mut rng = SmallRng::seed_from_u64(event_seed(master_seed, i));
    let decision = approximate_predicate(&predicate, &mut estimators, params, &mut rng).unwrap();
    (decision, estimators)
}

#[test]
fn fixed_iterations_is_figure_3_under_the_fixed_stop_rule() {
    let db = database();
    let seed = 17u64;
    // The query has one sampling operator, so its master seed is the first
    // draw of an identically seeded RNG.
    let master_seed = ChaCha8Rng::seed_from_u64(seed).next_u64();
    let mut resolved_somewhere = false;
    for k in 0..=2usize {
        let query = sigma_query(k, if k == 2 { 0.05 } else { 0.8 });
        let Candidates {
            tuples, handles, ..
        } = candidates(&db, &query);
        for l in [1usize, 4, 64] {
            for node_budget in [0, NODE_BUDGET] {
                let mode = ApproxSelectMode::FixedIterations(l);
                let out = evaluate(&db, &query, config(mode, false, node_budget), seed);
                assert_eq!(out.stats.approx_select_decisions, tuples.len() as u64);
                let kept = out.result.relation.possible_tuples();
                let mut samples = 0u64;
                for (i, (candidate, events)) in tuples.iter().zip(&handles).enumerate() {
                    let (decision, states) =
                        by_hand(&query, events, mode, node_budget, master_seed, i);
                    let context = format!("k = {k}, l = {l}, budget {node_budget}, {candidate}");
                    assert_eq!(kept.contains(candidate), decision.value, "{context}");
                    assert_eq!(
                        out.result.error_of(candidate),
                        decision.error_bound,
                        "{context}"
                    );
                    // The loop's own bound is the fixed-`l` formula: δ′(ε, l)
                    // per value that was sampled, capped at 0.5.
                    let sampled = states.iter().filter(|s| !s.is_trivial()).count() as f64;
                    let formula = sampled * chernoff::delta_prime(decision.epsilon, l).unwrap();
                    assert!(
                        (decision.error_bound - formula.min(0.5)).abs() <= 1e-12,
                        "{context}: {} vs {formula}",
                        decision.error_bound
                    );
                    assert_eq!(decision.iterations, if sampled > 0.0 { l } else { 1 });
                    for (state, (programs, event)) in states.iter().zip(events) {
                        let nontrivial = programs.trivial(*event).is_none();
                        assert_eq!(
                            state.samples(),
                            if state.is_trivial() {
                                0
                            } else {
                                (l * programs.sample_width(*event)) as u64
                            }
                        );
                        resolved_somewhere |= nontrivial && state.is_trivial();
                    }
                    samples += decision.samples;
                }
                assert_eq!(out.stats.karp_luby_samples, samples, "k = {k}, l = {l}");
            }
        }
    }
    assert!(resolved_somewhere, "the exact backend never fired");
}

#[test]
fn resolved_events_never_build_a_sampling_table() {
    // The hand-off the incremental estimator makes to the exact backend: an
    // event the cost model resolves is never sampled, so — on a batch no
    // other run has touched — its sampling table is never built.
    let db = database();
    let query = sigma_query(1, 0.8);
    let Candidates { handles, .. } = candidates(&db, &query);
    let mode = ApproxSelectMode::FixedIterations(64);
    let mut resolved = 0;
    for (i, events) in handles.iter().enumerate() {
        let (_, states) = by_hand(&query, events, mode, NODE_BUDGET, 3, i);
        let (programs, event) = &events[0];
        if programs.trivial(*event).is_some() {
            continue;
        }
        assert_eq!(
            programs.sampling_table_built(*event),
            !states[0].is_trivial()
        );
        resolved += usize::from(states[0].is_trivial());
    }
    assert!(resolved > 0, "the exact backend never fired");
}

#[test]
fn zero_fixed_iterations_is_one_iteration() {
    // Figure 3 decides on estimates, so the loop always draws one batch:
    // `FixedIterations(0)` is `FixedIterations(1)`.
    let db = database();
    for k in 1..=2usize {
        let query = sigma_query(k, if k == 2 { 0.05 } else { 0.8 });
        for node_budget in [0, NODE_BUDGET] {
            let run = |l| {
                evaluate(
                    &db,
                    &query,
                    config(ApproxSelectMode::FixedIterations(l), false, node_budget),
                    23,
                )
            };
            let (zero, one) = (run(0), run(1));
            assert_eq!(zero.result.relation, one.result.relation);
            assert_eq!(zero.result.errors, one.result.errors);
            assert_eq!(zero.stats, one.stats);
            assert!(node_budget > 0 || zero.stats.karp_luby_samples > 0);
        }
    }
}

#[test]
fn fixed_iterations_is_deterministic_per_seed_and_seed_sensitive() {
    let db = database();
    // θ clear of the one candidate pruning leaves, so its bound varies with
    // the estimate instead of sitting at the 0.5 cap.
    let query = sigma_query(1, 0.6);
    let run = |seed| {
        evaluate(
            &db,
            &query,
            config(ApproxSelectMode::FixedIterations(256), true, 0),
            seed,
        )
    };
    let (a, b) = (run(1), run(1));
    assert_eq!(a.result.relation, b.result.relation);
    assert_eq!(a.result.errors, b.result.errors);
    assert_eq!(a.stats, b.stats);
    assert!(
        (2..10).any(|seed| run(seed).result.errors != a.result.errors),
        "the seed never reached a sampled value"
    );
}

/// The non-trivial events over all candidates.
fn nontrivial_events(c: &Candidates) -> u64 {
    c.handles
        .iter()
        .flatten()
        .filter(|(programs, event)| programs.trivial(*event).is_none())
        .count() as u64
}

#[test]
fn every_estimated_event_is_attributed_to_exactly_one_backend() {
    let db = database();
    let estimated = |stats: &EvalStats| stats.exact_compiled_answers + stats.sampled_answers;
    for mode in [
        ApproxSelectMode::Adaptive,
        ApproxSelectMode::FixedIterations(8),
    ] {
        for node_budget in [0, NODE_BUDGET] {
            let context = format!("{mode:?}, budget {node_budget}");
            // Unpruned: every candidate's non-trivial events, trivial ones
            // (the certain tuple's) excluded.
            for k in 1..=2usize {
                let query = sigma_query(k, if k == 2 { 0.05 } else { 0.8 });
                let c = candidates(&db, &query);
                let all = nontrivial_events(&c);
                assert!(all < (c.tuples.len() * k) as u64, "a trivial event exists");
                let out = evaluate(&db, &query, config(mode, false, node_budget), 7);
                assert_eq!(estimated(&out.stats), all, "{context}, k = {k}");
                if node_budget == 0 {
                    assert_eq!(out.stats.exact_compiled_answers, 0, "{context}");
                    assert!(out.stats.karp_luby_samples > 0);
                } else {
                    assert!(out.stats.exact_compiled_answers > 0, "{context}");
                }
            }
            // Pruned: with one term per candidate, what pruning decided
            // estimated nothing.  (Trivial events have point bounds, so
            // their candidates are always among the pruned.)
            let query = sigma_query(1, 0.8);
            let c = candidates(&db, &query);
            let out = evaluate(&db, &query, config(mode, true, node_budget), 7);
            assert!(out.stats.approx_select_pruned > 0, "{context}");
            assert_eq!(
                estimated(&out.stats),
                c.tuples.len() as u64 - out.stats.approx_select_pruned,
                "{context}"
            );
        }
    }
    // `conf_{ε,δ}` books its events through the same helper.
    for node_budget in [0, NODE_BUDGET] {
        let c = candidates(&db, &sigma_query(1, 0.8));
        let out = evaluate(
            &db,
            &parse_query("aconf[0.2, 0.1](project[A](T))").unwrap(),
            EvalConfig::default().with_exact_backend(node_budget),
            7,
        );
        assert_eq!(estimated(&out.stats), nontrivial_events(&c));
    }
    // Exact decisions estimate nothing.
    let out = evaluate(&db, &sigma_query(2, 0.05), EvalConfig::exact(), 7);
    assert_eq!(estimated(&out.stats), 0);
}

#[test]
fn decisions_at_and_next_to_a_singular_point() {
    let db = database();
    let c = candidates(&db, &sigma_query(1, 0.5));
    let bounds_of = |i: usize| {
        let (programs, event) = &c.handles[i][0];
        event_bounds_with_limit(
            &programs.events()[*event],
            c.compiled.space(),
            confidence::DEFAULT_PAIRWISE_TERM_LIMIT,
        )
        .unwrap()
    };
    // The singular candidate — the `conf[A]` event with the widest bounds,
    // so that θ next to its confidence stays inside them — and its true
    // confidence.
    let singular = (0..c.tuples.len())
        .max_by(|&i, &j| bounds_of(i).width().total_cmp(&bounds_of(j).width()))
        .unwrap();
    let (programs, event) = &c.handles[singular][0];
    assert!(programs.num_terms(*event) >= 3);
    let p = programs.exact_probabilities().unwrap()[*event];
    let candidate = &c.tuples[singular];
    let monte_carlo = [
        ApproxSelectMode::Adaptive,
        ApproxSelectMode::FixedIterations(4),
        ApproxSelectMode::FixedIterations(256),
    ];
    // θ on the point, and within ε₀ of it on either side.
    for theta in [p, p * (1.0 + EPSILON0 / 4.0), p * (1.0 - EPSILON0 / 4.0)] {
        let query = sigma_query(1, theta);
        // Exact mode decides by the true value, with no error.
        let exact = evaluate(&db, &query, EvalConfig::exact(), 1);
        assert_eq!(
            exact.result.relation.possible_tuples().contains(candidate),
            p >= theta
        );
        assert!(exact.result.errors.is_empty());

        // A candidate whose bounds interval straddles θ is never decided by
        // pruning: it is sampled, and says so with a positive bound.
        let straddling: Vec<usize> = (0..c.tuples.len())
            .filter(|&i| bounds_of(i).lower < theta && theta <= bounds_of(i).upper)
            .collect();
        assert!(straddling.contains(&singular));
        for mode in monte_carlo {
            for seed in 0..4u64 {
                let pruned = evaluate(&db, &query, config(mode, true, 0), seed);
                let unpruned = evaluate(&db, &query, config(mode, false, 0), seed);
                assert!(
                    pruned.stats.approx_select_pruned <= (c.tuples.len() - straddling.len()) as u64
                );
                for &i in &straddling {
                    let t = &c.tuples[i];
                    let error = pruned.result.error_of(t);
                    assert!(
                        error > 0.0 && error <= 0.5,
                        "{mode:?}, θ = {theta}: {error}"
                    );
                    assert_eq!(error, unpruned.result.error_of(t));
                    assert_eq!(
                        pruned.result.relation.possible_tuples().contains(t),
                        unpruned.result.relation.possible_tuples().contains(t)
                    );
                }
            }
        }

        // The loop itself, on the singular candidate: the bound is honest —
        // capped at 0.5, and at the floor the run says it never separated
        // the estimate from the boundary.
        for mode in monte_carlo {
            let (decision, _) = by_hand(&query, &c.handles[singular], mode, 0, 99, singular);
            assert!(decision.error_bound > 0.0 && decision.error_bound <= 0.5);
            assert!(decision.epsilon >= EPSILON0);
            assert_eq!(
                decision.converged_above_epsilon0,
                decision.epsilon > EPSILON0,
                "{mode:?}, θ = {theta}"
            );
            match mode {
                // δ′(ε, 4) > 0.5 for every ε < 1: four batches prove nothing.
                ApproxSelectMode::FixedIterations(4) => assert_eq!(decision.error_bound, 0.5),
                // Long runs end within ε₀ of θ, at the floor: the adaptive
                // rule only by exhausting its iteration cap.
                ApproxSelectMode::FixedIterations(_) => {
                    assert!(!decision.converged_above_epsilon0)
                }
                _ => {
                    assert!(!decision.converged_above_epsilon0);
                    let cap = ApproximationParams::new(EPSILON0, DELTA)
                        .unwrap()
                        .fallback_iterations(1);
                    assert_eq!(decision.iterations, cap);
                }
            }
        }
    }
}

#[test]
fn an_expired_deadline_is_never_a_decision() {
    let db = database();
    let query = sigma_query(1, 0.8);
    let catalog = catalog_of(&db).unwrap();
    let plan = LogicalPlan::lower_validated(&query, &catalog).unwrap();
    let run = |mode: ApproxSelectMode, prune: bool, deadline| {
        let config = config(mode, prune, 0);
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        let mut ctx = ExecContext {
            config,
            database: db.clone(),
            stats: EvalStats::default(),
            var_counter: 0,
            rng: &mut rng,
            spaces: SpaceCache::new(),
            deadline,
            sampler: None,
        };
        PhysicalPlan::lower(&plan, config)
            .unwrap()
            .execute(&mut ctx)
            .map(|out| (out.relation.possible_tuples(), out.errors))
    };
    let past = Some(std::time::Instant::now() - std::time::Duration::from_millis(1));
    let future = Some(std::time::Instant::now() + std::time::Duration::from_secs(3600));
    for mode in [
        ApproxSelectMode::Adaptive,
        ApproxSelectMode::FixedIterations(16),
    ] {
        for prune in [false, true] {
            assert_eq!(
                run(mode, prune, past).unwrap_err(),
                EngineError::DeadlineExceeded { stage: "estimate" },
                "{mode:?}"
            );
            // A run that completes under a deadline equals the deadline-free
            // run: the probe draws no randomness.
            assert_eq!(
                run(mode, prune, future).unwrap(),
                run(mode, prune, None).unwrap()
            );
        }
    }
    // Exact decisions sample nothing and probe no clock.
    assert_eq!(
        run(ApproxSelectMode::Exact, true, past).unwrap(),
        run(ApproxSelectMode::Exact, true, None).unwrap()
    );
}

#[test]
fn a_deadline_at_a_singular_point_degrades_to_intervals_that_hold_the_truth() {
    // The serving layer's half of the singular-point contract.  θ sits on a
    // candidate's true confidence and ε₀ is far too small to reach, so
    // Figure 3 is still sampling when the deadline passes.
    let db = database();
    let c = candidates(&db, &sigma_query(1, 0.5));
    let truth: Vec<f64> = c
        .handles
        .iter()
        .map(|events| events[0].0.exact_probabilities().unwrap()[events[0].1])
        .collect();
    // The candidate with the most terms: not trivial, and not one the
    // bounds decide.
    let singular = (0..c.tuples.len())
        .max_by_key(|&i| c.handles[i][0].0.num_terms(c.handles[i][0].1))
        .unwrap();
    let theta = truth[singular];
    let serving = ServingEngine::new(config(ApproxSelectMode::Adaptive, true, 0), db).unwrap();
    let mut session = serving.session();
    let mut rng = ChaCha8Rng::seed_from_u64(2);
    let soon = || std::time::Instant::now() + std::time::Duration::from_millis(40);

    // σ̂ itself: a selection has no interval form to degrade to, so the
    // degradable entry point returns the classified deadline — no relation,
    // hence no decision on any candidate.
    let sigma = Query::table("T")
        .approx_select(
            vec![ConfTerm::new("P1", ["A"])],
            Predicate::ge(Expr::attr("P1"), Expr::konst(theta)),
            1e-4,
            DELTA,
        )
        .to_string();
    let request = Request::new(&sigma).with_deadline(soon());
    match session.evaluate_degradable(&request, &mut rng) {
        Err(EngineError::DeadlineExceeded { stage }) => assert_eq!(stage, "estimate"),
        other => panic!("expected DeadlineExceeded(estimate), got {other:?}"),
    }
    assert_eq!(serving.stats().degraded_answers, 0);

    // The same question as `aconf`, at an accuracy that would settle it:
    // the deadline passes mid-sampling and the answer degrades to
    // intervals.  Each holds its tuple's true confidence, and the singular
    // one holds θ too — it decides nothing either.
    let request = Request::new("conf(project[A](T))")
        .with_accuracy(2e-4, 0.01)
        .with_deadline(soon());
    let answer = session.evaluate_degradable(&request, &mut rng).unwrap();
    let ServingAnswer::Degraded(degraded) = answer else {
        panic!("sampling at ε = 2e-4 must not finish within 40 ms")
    };
    assert_eq!(degraded.reason, DegradedReason::DeadlineExpired);
    assert_eq!(degraded.bounds.len(), c.tuples.len());
    for ((tuple, bounds), (candidate, p)) in degraded.bounds.iter().zip(c.tuples.iter().zip(&truth))
    {
        assert_eq!(tuple, candidate);
        assert!(
            bounds.lower <= *p && *p <= bounds.upper,
            "{tuple}: true confidence {p} outside [{}, {}]",
            bounds.lower,
            bounds.upper
        );
    }
    let (_, at_theta) = &degraded.bounds[singular];
    assert!(at_theta.lower < theta && theta < at_theta.upper);
    assert_eq!(serving.stats().degraded_answers, 1);
}
