//! Planner pipeline tests: the logical-plan → physical-operator pipeline must
//! agree with the possible-worlds ground truth (`evaluate_naive`) on random
//! tuple-independent databases, and the batched parallel confidence
//! estimation must be deterministic and equal to the sequential per-event
//! path under a fixed seed.

use algebra::{parse_query, LogicalPlan, Query};
use confidence::{event_seed, ConfidenceEstimator, FprasEstimator, FprasParams, LineagePrograms};
use engine::{evaluate_naive, CompiledSpace, EvalConfig, UEngine};
use pdb::{Tuple, Value};
use proptest::prelude::*;
use rand::{RngCore, SeedableRng};
use rand_chacha::ChaCha8Rng;
use std::sync::Arc;
use workloads::TupleIndependentDb;

/// Value-wise tuple comparison with a small tolerance on numeric columns.
fn tuples_close(a: &Tuple, b: &Tuple) -> bool {
    if a.arity() != b.arity() {
        return false;
    }
    a.values()
        .zip(b.values())
        .all(|(x, y)| match (x.as_f64(), y.as_f64()) {
            (Some(p), Some(q)) => (p - q).abs() < 1e-9,
            _ => x == y,
        })
}

/// Runs `query` through the plan pipeline (exact config) and through the
/// possible-worlds reference engine on the same tuple-independent database,
/// asserting equal possible tuples and equal exact confidences.
fn assert_pipeline_matches_ground_truth(gen: TupleIndependentDb, query: &Query) {
    let udb = gen.database();
    let explicit = urel::decode_default(&udb).expect("small database decodes");

    let engine = UEngine::new(EvalConfig::exact());
    let mut rng = ChaCha8Rng::seed_from_u64(0);
    let piped = engine.evaluate(&udb, query, &mut rng).expect("pipeline");
    let reference = evaluate_naive(&explicit, query).expect("reference");

    let piped_poss = piped.result.relation.possible_tuples();
    let reference_poss = reference.possible_tuples().expect("reference poss");
    assert_eq!(
        piped_poss.len(),
        reference_poss.len(),
        "result sizes differ for {query}: {piped_poss} vs {reference_poss}"
    );
    let compiled = CompiledSpace::compile(piped.database.wtable()).expect("compile");
    for t in piped_poss.iter() {
        let reference_tuple = reference_poss
            .iter()
            .find(|u| tuples_close(t, u))
            .unwrap_or_else(|| panic!("tuple {t} missing from the reference result for {query}"));
        let event = compiled
            .event(&piped.result.relation.conditions_for(t))
            .expect("event");
        let p_piped =
            confidence::exact::probability(&event, compiled.space()).expect("exact probability");
        let p_reference = reference
            .confidence(reference_tuple)
            .expect("reference confidence");
        assert!(
            (p_piped - p_reference).abs() < 1e-9,
            "confidence of {t} differs for {query}: {p_piped} vs {p_reference}"
        );
    }
}

/// A random positive UA query over the generated `T(Id, A, B)`.
fn arb_query() -> impl Strategy<Value = Query> {
    (0usize..5, any::<bool>()).prop_map(|(shape, with_conf)| {
        let base = Query::table("T");
        let shaped = match shape {
            0 => base.project(&["A"]),
            1 => base
                .select(algebra::Predicate::ge(
                    algebra::Expr::attr("A"),
                    algebra::Expr::konst(1),
                ))
                .project(&["Id", "A"]),
            2 => base
                .clone()
                .project(&["A"])
                .natural_join(base.project(&["A", "B"])),
            3 => base.clone().project(&["B"]).union(base.project(&["A"])),
            _ => base.poss(),
        };
        if with_conf {
            shaped.conf("P")
        } else {
            shaped
        }
    })
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 24, .. ProptestConfig::default() })]

    /// Plan-then-execute equals the possible-worlds ground truth on random
    /// tuple-independent databases (Proposition 3.5 / the §3 parsimonious
    /// translation, now routed through the operator DAG).
    #[test]
    fn plan_then_execute_matches_naive_ground_truth(
        num_tuples in 1usize..7,
        seed in 0u64..500,
        query in arb_query(),
    ) {
        let gen = TupleIndependentDb {
            num_tuples,
            domain_size: 3,
            tuple_probability: None,
            seed,
        };
        assert_pipeline_matches_ground_truth(gen, &query);
    }
}

#[test]
fn workload_queries_share_one_plan_shape() {
    // The coin workload's U query contains T twice (via conf(T) and
    // conf(π_∅(T))); the plan must share every repeated subquery, so the
    // node count is far below the syntax-tree size.
    let query = workloads::coins::query_u(2);
    let plan = LogicalPlan::lower(&query).unwrap();
    assert!(
        plan.len() < query.size(),
        "DAG ({} nodes) must be smaller than the syntax tree ({} operators)",
        plan.len(),
        query.size()
    );
    // All shared scans collapse.
    assert_eq!(plan.scans().len(), 3);
}

#[test]
fn batched_parallel_confidence_matches_the_sequential_path() {
    // The engine's `conf_{ε,δ}` operator estimates all tuple lineages as one
    // parallel batch seeded by a single master draw.  Reconstruct that
    // computation sequentially and compare estimate for estimate.  The
    // projection gives multi-term lineages: a one-term event's Karp–Luby
    // estimate is its weight whatever the randomness, which would make the
    // comparison pass for any seed derivation.
    let gen = TupleIndependentDb {
        num_tuples: 12,
        domain_size: 4,
        tuple_probability: None,
        seed: 11,
    };
    let udb = gen.database();
    let query = parse_query("aconf[0.2, 0.1](project[A](T))").unwrap();

    let engine = UEngine::new(EvalConfig::exact());
    let mut rng = ChaCha8Rng::seed_from_u64(42);
    let out = engine.evaluate(&udb, &query, &mut rng).unwrap();

    // The query triggers exactly one sampling operator, so the master seed is
    // the first draw from an identically seeded RNG.
    let master_seed = ChaCha8Rng::seed_from_u64(42).next_u64();
    let compiled = CompiledSpace::compile(udb.wtable()).unwrap();
    let estimator = FprasEstimator::new(FprasParams::new(0.2, 0.1).unwrap());
    let relation = engine
        .evaluate(
            &udb,
            &parse_query("project[A](T)").unwrap(),
            &mut ChaCha8Rng::seed_from_u64(0),
        )
        .unwrap()
        .result
        .relation;
    let prob_idx = out.result.relation.schema().arity() - 1;

    let batch = relation.tuple_events();
    let result_tuples: Vec<Tuple> = out
        .result
        .relation
        .possible_tuples()
        .iter()
        .cloned()
        .collect();
    assert_eq!(result_tuples.len(), batch.len());
    let events: Vec<_> = (batch.iter())
        .map(|(_, conditions)| compiled.event(conditions).unwrap())
        .collect();
    assert!(
        events.iter().any(|event| event.num_terms() >= 2),
        "single-term lineages cannot tell seed derivations apart"
    );
    let programs = Arc::new(LineagePrograms::compile(events, compiled.space()).unwrap());
    let sequential = |master: u64| -> Vec<f64> {
        (0..programs.len())
            .map(|i| {
                estimator
                    .estimate_compiled(&programs, i, event_seed(master, i))
                    .unwrap()
                    .estimate
            })
            .collect()
    };
    let estimates = sequential(master_seed);
    for (((t, _), out_t), estimate) in batch.iter().zip(&result_tuples).zip(&estimates) {
        assert_eq!(
            out_t[prob_idx],
            Value::float(*estimate),
            "parallel batch and sequential estimation disagree on {t}"
        );
    }
    assert_ne!(
        estimates,
        sequential(master_seed ^ 1),
        "another master seed must change some estimate, or the comparison is vacuous"
    );

    // And the whole evaluation is deterministic under the seed.
    let mut rng2 = ChaCha8Rng::seed_from_u64(42);
    let again = engine.evaluate(&udb, &query, &mut rng2).unwrap();
    assert_eq!(out.result.relation, again.result.relation);
    assert_eq!(out.stats, again.stats);
}

#[test]
fn adaptive_approx_select_is_deterministic_under_a_seed() {
    // Adaptive σ̂ decisions run one Figure 3 instance per candidate, in
    // parallel, each on a sub-seeded RNG: two evaluations with the same seed
    // must agree exactly, regardless of thread scheduling.
    let db = workloads::SensorWorkload {
        num_sensors: 5,
        readings_per_sensor: 3,
        high_probability: 0.4,
        seed: 7,
    }
    .database();
    let query = workloads::SensorWorkload::alarm_query(0.6, 0.05, 0.05);
    let engine = UEngine::new(EvalConfig::default());
    let mut a = ChaCha8Rng::seed_from_u64(3);
    let mut b = ChaCha8Rng::seed_from_u64(3);
    let out_a = engine.evaluate(&db, &query, &mut a).unwrap();
    let out_b = engine.evaluate(&db, &query, &mut b).unwrap();
    assert_eq!(out_a.result.relation, out_b.result.relation);
    assert_eq!(out_a.result.errors, out_b.result.errors);
    assert_eq!(out_a.stats, out_b.stats);
}

#[test]
fn term_less_approx_select_decides_every_candidate() {
    // σ̂ with zero confidence terms has one (empty) candidate and decides the
    // predicate on no values; every decision mode must keep it under a true
    // predicate, matching the possible-worlds reference.  (Regression test:
    // an earlier flat-batch chunking dropped the candidate for k = 0.)
    use engine::{ApproxSelectMode, ConfidenceMode};
    let gen = TupleIndependentDb {
        num_tuples: 3,
        domain_size: 2,
        tuple_probability: None,
        seed: 5,
    };
    let udb = gen.database();
    let query = Query::table("T").approx_select(vec![], algebra::Predicate::True, 0.1, 0.1);

    let reference = evaluate_naive(&urel::decode_default(&udb).unwrap(), &query).unwrap();
    assert_eq!(reference.possible_tuples().unwrap().len(), 1);

    for mode in [
        ApproxSelectMode::Exact,
        ApproxSelectMode::Adaptive,
        ApproxSelectMode::FixedIterations(4),
    ] {
        let engine = UEngine::new(EvalConfig {
            approx_select: mode,
            confidence: ConfidenceMode::Exact,
            ..EvalConfig::default()
        });
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        let out = engine.evaluate(&udb, &query, &mut rng).unwrap();
        assert_eq!(
            out.result.relation.possible_tuples().len(),
            1,
            "mode {mode:?} must decide the term-less candidate"
        );
    }
}

#[test]
fn an_accuracy_no_run_could_draw_is_classified_not_served() {
    // ε = 1e-10 asks for some 10²¹ samples per event.  The count used to
    // saturate a cast and the request to sample until a deadline — or, with
    // none, for ever; now the Chernoff count itself is a parameter error,
    // which the serving layer returns at once, classified permanent.
    use confidence::ConfidenceError;
    use engine::{EngineError, Request, ServingEngine};
    let db = TupleIndependentDb {
        num_tuples: 12,
        domain_size: 3,
        tuple_probability: None,
        seed: 9,
    }
    .database();
    let serving = ServingEngine::new(EvalConfig::default(), db).unwrap();
    let mut session = serving.session();
    let mut rng = ChaCha8Rng::seed_from_u64(4);
    let text = "conf(project[A](T))";
    let hopeless = Request::new(text).with_accuracy(1e-10, 0.05);
    for attempt in 0..2 {
        let err = match attempt {
            0 => session.evaluate_request(&hopeless, &mut rng).map(drop),
            _ => session.evaluate_degradable(&hopeless, &mut rng).map(drop),
        }
        .unwrap_err();
        assert!(
            matches!(
                err,
                EngineError::Confidence(ConfidenceError::InvalidParameter(_))
            ),
            "{err:?}"
        );
        assert!(!err.is_transient());
    }
    assert_eq!(serving.stats().degraded_answers, 0);
    // The engine is none the worse: the same text at a drawable accuracy.
    let served = session
        .evaluate_request(&Request::new(text).with_accuracy(0.2, 0.05), &mut rng)
        .unwrap();
    assert_eq!(served.result.relation.len(), 3);
}
