//! The outside-in per-layer trace: a sampled request is replayed stage by
//! stage through each layer's public functions, every stage in its own span,
//! and a handful of micro-probes time the calls no request path isolates.
//!
//! Span names are `<layer>.<call>`; the layers are the repository's modules
//! (`algebra`, `engine.physical`, `engine.space`, `confidence`, `approx`).

use crate::stats::median;
use crate::trace::{Span, SpanBuf};
use crate::workload::{Req, Workload};
use algebra::{parse_query, LogicalPlan, ProjItem, Query};
use approx::{
    approximate_predicate, evaluate_over_box, ApproximationParams, BoxVerdict, Interval, Orthotope,
};
use confidence::{
    cost, event_bounds_with_limit, event_seed, BitKarpLuby, ConfidenceEstimator, Dnnf,
    FprasEstimator, FprasParams, IncrementalEstimator, LineagePrograms,
};
use engine::{
    catalog_of, compile_predicate, CompiledSpace, ConfidenceMode, EvalConfig, ExecContext,
    PhysicalPlan, SampleScheduler, SpaceCache, UEngine,
};
use rand::rngs::SmallRng;
use rand::{RngCore, SeedableRng};
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Instant;
use urel::{segment, ColumnarChunk, RelationDelta, UDatabase, URelation};

/// The estimating root of a query, split from the body it estimates over.
enum Root {
    /// Exact `conf`.
    Exact,
    /// `conf_{ε,δ}` (an `aconf`, or a `conf` under a per-request accuracy
    /// override).
    Approx(FprasParams),
    /// A single-term `σ̂`.
    Select {
        predicate: approx::ApproxPredicate,
        params: ApproximationParams,
        attrs: Vec<String>,
    },
    /// `poss` / `cert`: a root operator over the body, nothing to estimate.
    Pure,
    /// No unary root to split off: the whole query is the body.
    Whole,
}

/// Sizes the replay saw (not timings).
#[derive(Clone, Copy, Debug, Default)]
pub struct ReplayCounts {
    pub plan_nodes: usize,
    pub rows_in: usize,
    pub rows_out: usize,
}

/// A compiled lineage arena met during replays, kept for the kernel probes.
pub type Arena = Arc<LineagePrograms>;

fn split(query: Query, accuracy: Option<(f64, f64)>) -> Result<(Root, Query), String> {
    let fpras = |e, d| FprasParams::new(e, d).map_err(|e| e.to_string());
    Ok(match query {
        Query::Conf { input, .. } => match accuracy {
            Some((e, d)) => (Root::Approx(fpras(e, d)?), *input),
            None => (Root::Exact, *input),
        },
        Query::ApproxConf {
            input,
            epsilon,
            delta,
            ..
        } => (Root::Approx(fpras(epsilon, delta)?), *input),
        Query::ApproxSelect {
            input,
            terms,
            predicate,
            epsilon0,
            delta,
        } => {
            let [term] = terms.as_slice() else {
                return Err("replay supports single-term σ̂ only".to_string());
            };
            let predicate = compile_predicate(&predicate, std::slice::from_ref(&term.name))
                .map_err(|e| e.to_string())?;
            let params = ApproximationParams::new(epsilon0, delta).map_err(|e| e.to_string())?;
            (
                Root::Select {
                    predicate,
                    params,
                    attrs: term.attrs.clone(),
                },
                *input,
            )
        }
        Query::Poss { input } | Query::Cert { input } => (Root::Pure, *input),
        other => (Root::Whole, other),
    })
}

/// The estimating root over a compiled arena through the `confidence` and
/// `approx` entry points the engine's operators call: the cost model picks
/// d-DNNF or sampling per event, and `σ̂` prunes by bounds before Figure 3
/// samples.  Records the bounds pass and each Figure 3 run as spans under
/// `parent`.
fn estimate(
    buf: &mut SpanBuf,
    (parent, request): (u64, u64),
    root: &Root,
    programs: &Arena,
    config: EvalConfig,
    rng: &mut dyn RngCore,
) -> Result<(), String> {
    let budget = config.exact_backend_node_budget;
    match root {
        Root::Pure | Root::Whole => {}
        Root::Exact => {
            programs.exact_probabilities().map_err(|e| e.to_string())?;
        }
        Root::Approx(params) => {
            let estimator = FprasEstimator::new(*params).with_exact_backend(budget);
            let master = rng.next_u64();
            for i in 0..programs.len() {
                estimator
                    .estimate_compiled(programs, i, event_seed(master, i))
                    .map_err(|e| e.to_string())?;
            }
        }
        Root::Select {
            predicate, params, ..
        } => {
            let space = programs.space();
            let bounds_start = Instant::now();
            let mut undecided = Vec::new();
            for (i, event) in programs.events().iter().enumerate() {
                let b = event_bounds_with_limit(event, space, config.pairwise_bound_limit)
                    .map_err(|e| e.to_string())?;
                let boxed = Orthotope::from_intervals([Interval::new(b.lower, b.upper)]);
                let verdict = evaluate_over_box(predicate, &boxed).map_err(|e| e.to_string())?;
                if config.prune_approx_select && verdict != BoxVerdict::Unknown {
                    continue;
                }
                undecided.push(i);
            }
            buf.record(
                "confidence.bounds",
                parent,
                request,
                0,
                bounds_start,
                Instant::now(),
            );
            let master = rng.next_u64();
            let bill =
                FprasParams::new(params.epsilon0, params.delta).map_err(|e| e.to_string())?;
            for i in undecided {
                let start = Instant::now();
                let mut state =
                    IncrementalEstimator::from_compiled(programs, i).map_err(|e| e.to_string())?;
                if budget > 0 && !state.is_trivial() {
                    let m = bill
                        .samples_for(programs.num_terms(i))
                        .map_err(|e| e.to_string())?;
                    if cost::choose_backend(programs.dnnf_estimate(i), m as u64, budget)
                        == cost::Backend::Exact
                    {
                        if let Some(p) = programs.dnnf_probability(i, budget) {
                            state.resolve_exactly(p);
                        }
                    }
                }
                let mut sub = SmallRng::seed_from_u64(event_seed(master, i));
                approximate_predicate(
                    predicate,
                    std::slice::from_mut(&mut state),
                    *params,
                    &mut sub,
                )
                .map_err(|e| e.to_string())?;
                buf.record("approx.decide", parent, request, 0, start, Instant::now());
            }
        }
    }
    Ok(())
}

/// Replays `req` stage by stage under a `replay` root span sharing the
/// request's id.  Returns the sizes it saw and the compiled arena.
pub fn replay(
    buf: &mut SpanBuf,
    req: &Req<'_>,
    db: &UDatabase,
    base: EvalConfig,
    request: u64,
    rng_seed: u64,
) -> Result<(ReplayCounts, Option<Arena>), String> {
    let config = match req.accuracy {
        Some((epsilon, delta)) => EvalConfig {
            confidence: ConfidenceMode::Fpras { epsilon, delta },
            ..base
        },
        None => base,
    };
    let mut rng = crate::gen::rng_from(rng_seed);
    let root_id = buf.alloc_id();
    let root_start = Instant::now();
    let err = |e: &dyn std::fmt::Display| format!("replay of {}: {e}", req.text);

    let query = buf.time("algebra.parse", root_id, request, || parse_query(&req.text));
    let query = query.map_err(|e| err(&e))?;
    let catalog = catalog_of(db).map_err(|e| err(&e))?;
    let plan = buf.time("algebra.lower", root_id, request, || {
        LogicalPlan::lower_validated(&query, &catalog)
    });
    let plan = plan.map_err(|e| err(&e))?;
    let physical = buf.time("engine.physical.lower", root_id, request, || {
        PhysicalPlan::lower(&plan, config)
    });
    let physical = physical.map_err(|e| err(&e))?;

    let (root, body) = split(query, req.accuracy)?;
    let body_plan = LogicalPlan::lower_validated(&body, &catalog).map_err(|e| err(&e))?;
    let out = buf.time("engine.physical.body_exec", root_id, request, || {
        UEngine::new(config).evaluate_plan(db, &body_plan, &mut rng)
    });
    let out = out.map_err(|e| err(&e))?;
    let mut counts = ReplayCounts {
        plan_nodes: plan.len(),
        rows_in: 0,
        rows_out: out.result.relation.len(),
    };
    for scan in body_plan.scans() {
        counts.rows_in += db.relation(scan).map_or(0, URelation::len);
    }
    if matches!(root, Root::Whole) {
        buf.record_as(
            root_id,
            "replay",
            0,
            request,
            req.shape,
            root_start,
            Instant::now(),
        );
        return Ok((counts, None));
    }

    // The root operator on the body's result, as the pipeline runs it: once
    // with empty caches (what a cold request pays after the body), once more
    // over the caches the first run filled — compiled space, lineage batch,
    // memoised exact values, compiled circuits, shared tallies — which is
    // all a warm request pays below the serving layer.
    let operator = &physical.nodes()[physical.root()].operator;
    // A warm request resumes at the root with its RNG untouched, so the warm
    // run draws from the request's own stream from the start: the same
    // samples, and so the same cost, as the live request it stands for.
    let mut warm_rng = crate::gen::rng_from(rng_seed);
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
    let first = buf.time("engine.physical.root_exec", root_id, request, || {
        operator.execute(vec![out.result.clone()], &mut ctx)
    });
    first.map_err(|e| err(&e))?;
    buf.record_as(
        root_id,
        "replay",
        0,
        request,
        req.shape,
        root_start,
        Instant::now(),
    );
    // A plan that consumes no randomness is pooled whole — root and all — so
    // a warm request runs nothing below the serving layer.
    if physical.sampling_frontier() < physical.nodes().len() {
        ctx.rng = &mut warm_rng;
        let warm = buf.time("engine.physical.root_exec_warm", 0, request, || {
            operator.execute(vec![out.result.clone()], &mut ctx)
        });
        warm.map_err(|e| err(&e))?;
    }
    if matches!(root, Root::Pure) {
        return Ok((counts, None));
    }

    // The same root once more, taken apart at the `engine.space`,
    // `confidence` and `approx` entry points (detail spans: they repeat work
    // `root_exec` already counted, so they hang off no parent).
    let subject = match &root {
        Root::Select { attrs, .. } => {
            let items: Vec<ProjItem> = attrs.iter().map(ProjItem::attr).collect();
            engine::ops::project(&out.result.relation, &items).map_err(|e| err(&e))?
        }
        _ => out.result.relation,
    };
    let lineage = buf.time("engine.space.relation_events", 0, request, || {
        CompiledSpace::compile(out.database.wtable())
            .and_then(|space| space.relation_events(&subject))
    });
    let arena = lineage.map_err(|e| err(&e))?.programs().clone();
    // Compiling the same events again isolates the compile step, and gives
    // the estimators a batch with nothing memoised.
    let events = arena.events().to_vec();
    let fresh = buf.time("confidence.compile", 0, request, || {
        LineagePrograms::compile(events, arena.space())
    });
    let fresh: Arena = Arc::new(fresh.map_err(|e| err(&e))?);
    let name = if matches!(root, Root::Exact) {
        "confidence.exact"
    } else {
        "confidence.estimate"
    };
    let id = buf.alloc_id();
    let start = Instant::now();
    estimate(buf, (id, request), &root, &fresh, config, &mut rng)?;
    buf.record_as(id, name, 0, request, 0, start, Instant::now());
    Ok((counts, Some(fresh)))
}

/// Per request id, the summed duration (µs) of its spans named `name`.
pub fn per_request(spans: &[Span], name: &str) -> BTreeMap<u64, f64> {
    let mut out = BTreeMap::new();
    for s in spans.iter().filter(|s| s.name == name) {
        *out.entry(s.request).or_insert(0.0) += s.duration_us();
    }
    out
}

/// Median over requests of the summed duration of spans named `name`
/// (0 when no request has one).
pub fn stage_median(spans: &[Span], name: &str) -> f64 {
    let values: Vec<f64> = per_request(spans, name).into_values().collect();
    median(&values)
}

/// Median of `f` timed over `rounds` runs, in µs.
pub fn time_median<T>(rounds: usize, mut f: impl FnMut() -> T) -> f64 {
    let samples: Vec<f64> = (0..rounds)
        .map(|_| {
            let start = Instant::now();
            std::hint::black_box(f());
            start.elapsed().as_nanos() as f64 / 1000.0
        })
        .collect();
    median(&samples)
}

/// Times the calls no request path isolates, on the workload's own data:
/// `urel` encoders and deltas, the d-DNNF compiler and the sampling kernel
/// on arenas the replays compiled, and the spill tier on one join.
pub fn micro_probes(
    w: &dyn Workload,
    arenas: &[Arena],
) -> Result<Vec<(&'static str, f64)>, String> {
    let db = w.database();
    let config = *w.engine().config();
    let mut out = Vec::new();
    let largest = db
        .relation_names()
        .into_iter()
        .filter_map(|name| db.relation(&name).ok().map(|rel| (rel.len(), name)))
        .max()
        .map(|(_, name)| name)
        .ok_or("empty database")?;
    let rel = db.relation(&largest).map_err(|e| e.to_string())?;
    out.push((
        "urel.columnar_encode_us",
        time_median(9, || ColumnarChunk::from_relation(rel)),
    ));
    out.push((
        "urel.partition_us",
        time_median(9, || rel.partition(config.shards)),
    ));

    let mut encoded = Vec::new();
    segment::put_relation(&mut encoded, rel);
    let mb = encoded.len() as f64 / (1024.0 * 1024.0);
    let encode_us = time_median(9, || {
        let mut buf = Vec::with_capacity(encoded.len());
        segment::put_relation(&mut buf, rel);
        buf
    });
    let decode_us = time_median(9, || segment::SegmentCursor::new(&encoded).take_relation());
    out.push(("urel.segment_encode_mb_s", mb / (encode_us / 1e6)));
    out.push(("urel.segment_decode_mb_s", mb / (decode_us / 1e6)));

    let first = rel.iter().next().ok_or("empty relation")?.clone();
    let delta = RelationDelta::new(rel, [], [first]).map_err(|e| e.to_string())?;
    let edited = delta.apply_to(rel).map_err(|e| e.to_string())?;
    let mut scratch: Vec<UDatabase> = (0..9).map(|_| db.clone()).collect();
    out.push((
        "urel.apply_delta_us",
        time_median(9, || {
            scratch
                .pop()
                .map(|mut db| db.apply_delta(&largest, &delta).map(|()| db))
        }),
    ));
    out.push(("urel.diff_us", time_median(9, || rel.diff(&edited))));

    // The d-DNNF compiler on the largest event the cost model compiles.
    let budget = config.exact_backend_node_budget;
    let compilable = arenas
        .iter()
        .flat_map(|a| (0..a.len()).map(move |i| (a, i)))
        .filter(|(a, i)| a.trivial(*i).is_none() && a.dnnf_estimate(*i) <= u64::from(budget))
        .max_by_key(|(a, i)| a.dnnf_estimate(*i));
    let (mut compile_us, mut wmc_us, mut nodes) = (0.0, 0.0, 0.0);
    if let Some((arena, i)) = compilable {
        let event = &arena.events()[i];
        if let Ok(circuit) = Dnnf::compile(event, arena.space(), budget) {
            compile_us = time_median(9, || Dnnf::compile(event, arena.space(), budget));
            wmc_us = time_median(9, || circuit.wmc(arena.space()));
            nodes = circuit.node_count() as f64;
        }
    }
    out.push(("confidence.dnnf_compile_us", compile_us));
    out.push(("confidence.dnnf_wmc_us", wmc_us));
    out.push(("confidence.dnnf_nodes", nodes));

    // The sampling kernel at each block width, on the widest event.
    let widest = arenas
        .iter()
        .flat_map(|a| (0..a.len()).map(move |i| (a, i)))
        .filter(|(a, i)| a.trivial(*i).is_none())
        .max_by_key(|(a, i)| a.num_terms(*i));
    for (name, words) in [
        ("confidence.bitworld_w1_msamples_s", 1),
        ("confidence.bitworld_w2_msamples_s", 2),
        ("confidence.bitworld_w4_msamples_s", 4),
    ] {
        let mut rate = 0.0;
        if let Some((arena, i)) = widest {
            const SAMPLES: usize = 1 << 17;
            let mut kernel =
                BitKarpLuby::new_with_width(arena.clone(), i, words).map_err(|e| e.to_string())?;
            let mut rng = SmallRng::seed_from_u64(17);
            let us = time_median(5, || kernel.estimate(SAMPLES, &mut rng));
            rate = SAMPLES as f64 / us;
        }
        out.push((name, rate));
    }

    // The spill tier: the same join resident and under a 64 KiB budget.
    let join = parse_query(w.join_probe()).map_err(|e| e.to_string())?;
    let run = |config: EvalConfig| {
        time_median(3, || {
            UEngine::new(config).evaluate(db, &join, &mut crate::gen::rng_from(3))
        })
    };
    let resident = run(config);
    let spilled = run(config.with_spill_budget_bytes(64 << 10));
    out.push(("engine.storage.spill_overhead_ratio", spilled / resident));
    Ok(out)
}
