//! Compile-time mirror of every workspace item `uabench/src` names, in the
//! shapes it uses them.  `uabench/` is a workspace of its own that tier-1
//! never compiles, so without this file renaming a `ServingStats` field (or
//! changing any call below) would fail only the benchmark's build.  It
//! changes only together with `uabench/`, in a benchmark change.

use algebra::{parse_query, LogicalPlan, ProjItem, Query};
use approx::{
    approximate_predicate, evaluate_over_box, ApproxPredicate, ApproximationParams, BoxVerdict,
    Interval, Orthotope,
};
use confidence::{
    cost, event_bounds_with_limit, event_seed, BitKarpLuby, ConfidenceEstimator, Dnnf,
    FprasEstimator, FprasParams, IncrementalEstimator, LineagePrograms,
};
use engine::{
    catalog_of, compile_predicate, CompiledSpace, ConfidenceMode, EngineError, EvalConfig,
    EvalOutput, EvalStats, ExecContext, PhysicalPlan, Request, SampleScheduler, ServingAnswer,
    ServingEngine, ServingStats, SpaceCache, UEngine,
};
use pdb::{Relation, Schema, Tuple, Value};
use rand::rngs::SmallRng;
use rand::{RngCore, SeedableRng};
use rand_chacha::ChaCha8Rng;
use std::path::Path;
use std::sync::Arc;
use urel::{segment, ColumnarChunk, Condition, RelationDelta, UDatabase, URelation, URow, Var};
use workloads::SensorWorkload;

/// `bench.rs::stats_delta`: a struct literal must name every field.
fn stats_delta(after: ServingStats, before: ServingStats) -> ServingStats {
    ServingStats {
        cold_evaluations: after.cold_evaluations - before.cold_evaluations,
        warm_evaluations: after.warm_evaluations - before.warm_evaluations,
        plan_cache_hits: after.plan_cache_hits - before.plan_cache_hits,
        plan_cache_misses: after.plan_cache_misses - before.plan_cache_misses,
        shared_prefix_hits: after.shared_prefix_hits - before.shared_prefix_hits,
        snapshots_invalidated: after.snapshots_invalidated - before.snapshots_invalidated,
        subplans_invalidated: after.subplans_invalidated - before.subplans_invalidated,
        subplans_recomputed: after.subplans_recomputed - before.subplans_recomputed,
        relation_updates: after.relation_updates - before.relation_updates,
        subplans_patched: after.subplans_patched - before.subplans_patched,
        subplans_demoted: after.subplans_demoted - before.subplans_demoted,
        stale_absorbs_dropped: after.stale_absorbs_dropped - before.stale_absorbs_dropped,
        retries: after.retries - before.retries,
        entries_quarantined: after.entries_quarantined - before.entries_quarantined,
        degraded_answers: after.degraded_answers - before.degraded_answers,
        exact_compiled_answers: after.exact_compiled_answers - before.exact_compiled_answers,
        sampled_answers: after.sampled_answers - before.sampled_answers,
        shared_block_hits: after.shared_block_hits - before.shared_block_hits,
    }
}

/// `gen.rs`: complete and tuple-independent relations and their rows.
fn generate(db: &mut UDatabase, p: f64) -> URow {
    let mut r = Relation::empty(Schema::new(["K", "W"]).unwrap());
    r.insert(Tuple::new(vec![Value::Int(0), Value::Int(1)]))
        .unwrap();
    db.set_relation("R", URelation::from_complete(&r), true);
    let var = Var::new("t0");
    db.wtable_mut().add_bool_variable(var.clone(), p).unwrap();
    let mut t = URelation::empty(Schema::new(["A"]).unwrap());
    let condition = Condition::new([(var, Value::Bool(true))]).unwrap();
    t.insert(condition, Tuple::new(vec![Value::Int(0)]))
        .unwrap();
    let tuple = t.iter().next().unwrap().tuple.clone();
    let _ = (tuple.get(0).and_then(Value::as_int), tuple.arity());
    let _ = (t.approx_bytes(), tuple.project(&[0]).into_values());
    URow {
        condition: Condition::always(),
        tuple,
    }
}

/// `workload.rs`: the serving configuration, exact ground truth through the
/// query builders, and the sensor workload.
fn workload(db: &UDatabase, query: Query) -> (EvalConfig, EvalOutput) {
    let config = EvalConfig::default()
        .with_exact_backend(cost::DEFAULT_NODE_BUDGET)
        .with_shared_sampling(true)
        .with_shards(2);
    let exact = match query {
        Query::ApproxConf {
            input, prob_attr, ..
        }
        | Query::Conf { input, prob_attr } => Query::Conf { input, prob_attr },
        Query::ApproxSelect { input, terms, .. } => {
            let items = terms[0].attrs.iter().map(ProjItem::attr).collect();
            input.project_items(items).conf("P")
        }
        other => other,
    };
    let sensors = SensorWorkload {
        num_sensors: 2,
        readings_per_sensor: 2,
        high_probability: 0.4,
        seed: 5,
    };
    let _ = SensorWorkload::alarm_query(0.5, 0.05, 0.05);
    let _ = sensors.database();
    let mut rng = ChaCha8Rng::seed_from_u64(0);
    let out = UEngine::new(EvalConfig::exact()).evaluate(db, &exact, &mut rng);
    (config, out.unwrap())
}

/// `driver.rs`: reads through the degradable entry point, the update
/// probe's delta and replacement, checkpoint and restore.
fn driver(engine: &ServingEngine, row: URow, dir: &Path) -> ServingStats {
    let before = engine.stats();
    let mut rng = ChaCha8Rng::seed_from_u64(0);
    let request = Request::new("conf(R)").with_accuracy(0.2, 0.1);
    match engine.evaluate_degradable(&request, &mut rng) {
        Ok(ServingAnswer::Full(out)) => {
            let (_, s): (URelation, EvalStats) = (out.result.relation, out.stats);
            let _ = s.karp_luby_samples + s.approx_select_decisions + s.approx_select_pruned;
        }
        Err(EngineError::Overloaded { .. } | EngineError::DeadlineExceeded { .. }) => {}
        Ok(ServingAnswer::Degraded(_)) | Err(_) => {}
    }
    engine.evaluate_request(&request, &mut rng).unwrap();
    engine.evaluate("conf(R)", &mut rng).unwrap();
    let base = engine.database().relation("R").unwrap().clone();
    let _ = (base.content_digest(), base.len());
    let delta = RelationDelta::new(&base, [row], []).unwrap();
    engine.apply_deltas([("R", delta)]).unwrap();
    engine.update_relations([("R", base)]).unwrap();
    engine.checkpoint(dir).unwrap();
    ServingEngine::restore(*engine.config(), dir).unwrap();
    stats_delta(engine.stats(), before)
}

/// `layers.rs::split`, `replay` and `estimate`: a request stage by stage
/// through each layer's entry points.
fn replay(db: &UDatabase, text: &str, config: EvalConfig) -> Arc<LineagePrograms> {
    let config = EvalConfig {
        confidence: ConfidenceMode::Fpras {
            epsilon: 0.2,
            delta: 0.1,
        },
        ..config
    };
    let query = parse_query(text).unwrap();
    let catalog = catalog_of(db).unwrap();
    let plan = LogicalPlan::lower_validated(&query, &catalog).unwrap();
    let physical = PhysicalPlan::lower(&plan, config).unwrap();
    let _ = (plan.len(), plan.scans(), physical.sampling_frontier());
    let (body, select): (Query, Option<(ApproxPredicate, ApproximationParams)>) = match query {
        Query::Conf { input, .. } | Query::Poss { input } | Query::Cert { input } => (*input, None),
        Query::ApproxConf {
            input,
            epsilon,
            delta,
            ..
        } => {
            FprasParams::new(epsilon, delta).unwrap();
            (*input, None)
        }
        Query::ApproxSelect {
            input,
            terms,
            predicate,
            epsilon0,
            delta,
        } => {
            let predicate =
                compile_predicate(&predicate, std::slice::from_ref(&terms[0].name)).unwrap();
            let params = ApproximationParams::new(epsilon0, delta).unwrap();
            (*input, Some((predicate, params)))
        }
        other => (other, None),
    };
    let body_plan = LogicalPlan::lower_validated(&body, &catalog).unwrap();
    let mut rng = ChaCha8Rng::seed_from_u64(3);
    let out = UEngine::new(config).evaluate_plan(db, &body_plan, &mut rng);
    let out = out.unwrap();
    let mut ctx = ExecContext {
        config,
        database: out.database.clone(),
        stats: Default::default(),
        var_counter: 0,
        rng: &mut rng,
        spaces: SpaceCache::new(),
        deadline: None,
        sampler: config
            .shared_sampling
            .then(|| Arc::new(SampleScheduler::new())),
    };
    let operator = &physical.nodes()[physical.root()].operator;
    operator
        .execute(vec![out.result.clone()], &mut ctx)
        .unwrap();

    let subject = engine::ops::project(&out.result.relation, &[ProjItem::attr("A")]).unwrap();
    let lineage = CompiledSpace::compile(out.database.wtable())
        .and_then(|space| space.relation_events(&subject))
        .unwrap();
    let arena = lineage.programs();
    let programs = LineagePrograms::compile(arena.events().to_vec(), arena.space());
    let programs = Arc::new(programs.unwrap());
    let budget = config.exact_backend_node_budget;
    programs.exact_probabilities().unwrap();
    let master = (&mut rng as &mut dyn RngCore).next_u64();
    FprasEstimator::new(FprasParams::new(0.2, 0.1).unwrap())
        .with_exact_backend(budget)
        .estimate_compiled(&programs, 0, event_seed(master, 0))
        .unwrap();
    if let Some((predicate, params)) = select {
        let (event, space) = (&programs.events()[0], programs.space());
        let b = event_bounds_with_limit(event, space, config.pairwise_bound_limit).unwrap();
        let boxed = Orthotope::from_intervals([Interval::new(b.lower, b.upper)]);
        let verdict = evaluate_over_box(&predicate, &boxed).unwrap();
        let _ = config.prune_approx_select && verdict != BoxVerdict::Unknown;
        let mut state = IncrementalEstimator::from_compiled(&programs, 0).unwrap();
        let bill = FprasParams::new(params.epsilon0, params.delta).unwrap();
        let m = bill.samples_for(programs.num_terms(0)).unwrap();
        let estimate = programs.dnnf_estimate(0);
        if cost::choose_backend(estimate, m as u64, budget) == cost::Backend::Exact {
            let _ = state.is_trivial();
            state.resolve_exactly(programs.dnnf_probability(0, budget).unwrap());
        }
        let mut sub = SmallRng::seed_from_u64(event_seed(master, 0));
        let states = std::slice::from_mut(&mut state);
        approximate_predicate(&predicate, states, params, &mut sub).unwrap();
    }
    programs
}

/// `layers.rs::micro_probes`: the calls no request path isolates.
fn micro_probes(db: &UDatabase, arena: &Arc<LineagePrograms>, config: EvalConfig) {
    let name = &db.relation_names()[0];
    let rel = db.relation(name).unwrap();
    let _ = ColumnarChunk::from_relation(rel);
    let _ = rel.partition(config.shards);
    let mut encoded = Vec::new();
    segment::put_relation(&mut encoded, rel);
    segment::SegmentCursor::new(&encoded)
        .take_relation()
        .unwrap();
    let first = rel.iter().next().unwrap().clone();
    let delta = RelationDelta::new(rel, [], [first]).unwrap();
    let edited = delta.apply_to(rel).unwrap();
    db.clone().apply_delta(name, &delta).unwrap();
    rel.diff(&edited).unwrap();

    let budget = config.exact_backend_node_budget;
    let _ = (arena.trivial(0), arena.len(), arena.dnnf_estimate(0));
    let circuit = Dnnf::compile(&arena.events()[0], arena.space(), budget).unwrap();
    let _ = (circuit.wmc(arena.space()), circuit.node_count());
    let mut kernel = BitKarpLuby::new_with_width(arena.clone(), 0, 4).unwrap();
    kernel
        .estimate(1 << 17, &mut SmallRng::seed_from_u64(17))
        .unwrap();
    let join = parse_query("poss(R)").unwrap();
    let spill = config.with_spill_budget_bytes(64 << 10);
    let mut rng = ChaCha8Rng::seed_from_u64(3);
    UEngine::new(spill).evaluate(db, &join, &mut rng).unwrap();
}

#[test]
fn the_surface_uabench_names_compiles() {
    // Compiling the mirrors is the check; only the stats literal runs.
    let _ = (generate, workload, driver, replay, micro_probes);
    let stats = ServingStats::default();
    assert_eq!(stats_delta(stats, stats), stats);
}
