//! Serving-performance measurement: emits `BENCH_serving.json`.
//!
//! ```text
//! cargo run --release -p bench --bin serving              # full sizes, writes BENCH_serving.json
//! cargo run --release -p bench --bin serving -- --smoke   # CI smoke: small sizes, prints only
//! cargo run --release -p bench --bin serving -- --out p   # custom output path
//! ```
//!
//! Three experiments, mirroring and extending the `serving_bench` criterion
//! groups:
//!
//! 1. **Repeated-query throughput** — median per-request wall time of the
//!    cold path (parse + validate + lower + execute, per request) vs the
//!    warm serving cache (prepared snapshot, estimation only).
//! 2. **Sharded execution** — the large random-DB join workload at
//!    1/2/4/8 shards, single-batch vs chunked execution.
//! 3. **Mixed workload** — overlapping prepared queries sharing one
//!    deterministic prefix vs the same number of independent queries (the
//!    cross-query snapshot pool executes a shared prefix once), plus
//!    interleaved `update_relations` calls showing catalog-aware
//!    invalidation: a content update to a pure join side keeps every pooled
//!    prefix warm (only the intersecting sub-plans recompute), while an
//!    update to a repair-key input drops exactly the entries whose stateful
//!    spine it feeds.
//! 4. **Delta updates** — the same single-row change to a pure join side
//!    applied as a `RelationDelta` (`apply_deltas`: pooled sub-plan results
//!    patched in place by the incremental operator rules) vs as a full
//!    replacement (`update_relations`: intersecting sub-plans demoted and
//!    recomputed on the next resume) — the re-warm cost of the delta path
//!    is proportional to the delta, not to the sub-plans it touches.
//! 5. **Estimator kernels** — Karp–Luby samples/second of the scalar
//!    reference estimator vs the bit-parallel 64-worlds-per-word kernel on
//!    the `fpras_conf` workload's own lineage programs, plus the resulting
//!    cold/warm `aconf` request latencies from experiment 1.
//! 6. **Storage tier** — join throughput fully resident vs under a spill
//!    budget (chunk outputs routed through digest-verified temporary
//!    segments), and checkpoint write / restore-then-warm-evaluate latency
//!    vs a cold re-prepare of the same query on a fresh engine.
//! 7. **Estimator backends** — kernel samples/second across the block
//!    widths `W ∈ {1, 2, 4}` (64/128/256 lanes per instruction pass), and
//!    d-DNNF compile + weighted-model-count wall time vs FPRAS sampling
//!    wall time on single-literal unions of growing width, annotated with
//!    which backend the cost model picks at the default node budget.
//!
//! The serving engine in experiment 1 runs the full estimation front door —
//! exact d-DNNF backend at the default node budget plus cross-request
//! shared sampling — while the cold path keeps the plain sampled
//! configuration, so the warm/cold gap shows what the backend choice buys a
//! real server.

use algebra::LogicalPlan;
use confidence::{BitKarpLuby, KarpLubyEstimator};
use engine::{catalog_of, CompiledSpace, EvalConfig, ServingEngine, UEngine};
use pdb::{Schema, Tuple, Value};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use std::fmt::Write as _;
use std::time::Instant;
use urel::{UDatabase, URelation};
use workloads::TupleIndependentDb;

/// Median wall-clock of `runs` invocations, in microseconds.
fn median_micros(runs: usize, mut f: impl FnMut()) -> f64 {
    let mut samples: Vec<f64> = (0..runs)
        .map(|_| {
            let start = Instant::now();
            f();
            start.elapsed().as_secs_f64() * 1e6
        })
        .collect();
    samples.sort_by(f64::total_cmp);
    samples[samples.len() / 2]
}

struct RepeatedQueryResult {
    label: &'static str,
    query: &'static str,
    cold_us: f64,
    warm_us: f64,
    /// Confidences the warm server answered by exact d-DNNF compilation
    /// (0 when the cost model keeps sampling), across the measured runs.
    warm_exact_answers: u64,
    /// Tally-cache hits of the shared block scheduler across the runs.
    warm_shared_hits: u64,
}

fn repeated_query_experiment(num_tuples: usize, runs: usize) -> Vec<RepeatedQueryResult> {
    let db = TupleIndependentDb {
        num_tuples,
        domain_size: 8,
        tuple_probability: None,
        seed: 11,
    }
    .database();
    let catalog = catalog_of(&db).expect("catalog");

    let queries: [(&'static str, &'static str); 2] = [
        ("exact_conf", "conf(project[A](T))"),
        ("fpras_conf", "aconf[0.2, 0.1](project[A](T))"),
    ];
    let mut results = Vec::new();
    for (label, text) in queries {
        let engine = UEngine::new(EvalConfig::default());
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        let cold_us = median_micros(runs, || {
            let query = algebra::parse_query(text).expect("query parses");
            let plan = LogicalPlan::lower_validated(&query, &catalog).expect("plan lowers");
            engine
                .evaluate_plan(&db, &plan, &mut rng)
                .expect("evaluates");
        });

        // The server runs the full estimation front door: the exact d-DNNF
        // backend at the default node budget plus shared sampling.  The cold
        // reference above keeps the plain sampled configuration.
        let serving_config = EvalConfig::default()
            .with_exact_backend(confidence::cost::DEFAULT_NODE_BUDGET)
            .with_shared_sampling(true);
        let serving = ServingEngine::new(serving_config, db.clone()).expect("server");
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        serving.evaluate(text, &mut rng).expect("prepare");
        let before = serving.stats();
        let warm_us = median_micros(runs, || {
            serving.evaluate(text, &mut rng).expect("warm evaluation");
        });
        let after = serving.stats();

        results.push(RepeatedQueryResult {
            label,
            query: text,
            cold_us,
            warm_us,
            warm_exact_answers: after.exact_compiled_answers - before.exact_compiled_answers,
            warm_shared_hits: after.shared_block_hits - before.shared_block_hits,
        });
    }
    results
}

struct ShardResult {
    shards: usize,
    wall_us: f64,
}

fn sharding_experiment(num_tuples: usize, runs: usize) -> Vec<ShardResult> {
    let db = TupleIndependentDb {
        num_tuples,
        domain_size: 150,
        tuple_probability: Some(0.4),
        seed: 5,
    }
    .database();
    let query = algebra::parse_query("join(project[A, B](T), rename[B -> C](project[A, B](T)))")
        .expect("join query parses");
    let catalog = catalog_of(&db).expect("catalog");
    let plan = LogicalPlan::lower_validated(&query, &catalog).expect("plan lowers");

    [1usize, 2, 4, 8]
        .into_iter()
        .map(|shards| {
            let engine = UEngine::new(EvalConfig::default().with_shards(shards));
            let mut rng = ChaCha8Rng::seed_from_u64(7);
            let wall_us = median_micros(runs, || {
                engine
                    .evaluate_plan(&db, &plan, &mut rng)
                    .expect("evaluates");
            });
            ShardResult { shards, wall_us }
        })
        .collect()
}

/// Results of the mixed-workload experiment (overlapping prepared queries +
/// interleaved relation updates).
struct MixedWorkloadResult {
    queries_per_family: usize,
    /// Total wall time of the *first* evaluation of every overlapping query
    /// (they share one deterministic prefix through the snapshot pool).
    overlapping_first_total_us: f64,
    /// Ditto for the independent family (each query runs its own prefix).
    independent_first_total_us: f64,
    overlapping_cold: u64,
    overlapping_shared_hits: u64,
    independent_cold: u64,
    /// Pooled prefix entries backing the overlapping family (1 = shared).
    overlapping_pooled_prefixes: usize,
    /// Median warm latency of a query not scanning the updated relation,
    /// before and after the pure-side update (should be unchanged).
    non_touching_warm_before_us: f64,
    non_touching_warm_after_us: f64,
    /// Median warm latency of the join query after its pure side updated
    /// (recomputes the dropped sub-plans, still warm-path).
    touching_warm_after_us: f64,
    /// Counters of the pure-side update: entries must survive, only
    /// intersecting sub-plans drop.
    pure_update_entries_dropped: u64,
    pure_update_subplans_dropped: u64,
    /// Counters of the spine update (repair-key input): the shared entry
    /// must drop, forcing exactly the R-queries cold again.
    spine_update_entries_dropped: u64,
    cold_after_spine_update: u64,
}

/// `R(K, W)` content: `rows` rows over `keys` distinct keys, weights 1..=5.
fn weighted_rows(rows: usize, keys: usize, salt: u64) -> URelation {
    let mut rel = pdb::Relation::empty(Schema::new(["K", "W"]).expect("schema"));
    for i in 0..rows {
        let k = (i % keys) as i64;
        let w = ((i as u64).wrapping_mul(2654435761).wrapping_add(salt) % 5 + 1) as i64;
        let _ = rel.insert(Tuple::new(vec![Value::Int(k), Value::Int(w)]));
    }
    URelation::from_complete(&rel)
}

/// `S(K, B)` content: one label row per key.
fn label_rows(keys: usize, salt: i64) -> URelation {
    let mut rel = pdb::Relation::empty(Schema::new(["K", "B"]).expect("schema"));
    for k in 0..keys {
        let _ = rel.insert(Tuple::new(vec![
            Value::Int(k as i64),
            Value::Int((k as i64 + salt) % 7),
        ]));
    }
    URelation::from_complete(&rel)
}

fn mixed_workload_experiment(rows: usize, runs: usize) -> MixedWorkloadResult {
    const FAMILY: usize = 6;
    let keys = (rows / 3).max(2);
    let mut db = UDatabase::new();
    db.set_relation("R", weighted_rows(rows, keys, 1), true);
    db.set_relation("S", label_rows(keys, 3), true);
    db.set_relation("L", label_rows(keys, 5), true);
    for i in 0..FAMILY {
        db.set_relation(
            format!("D{i}"),
            weighted_rows(rows, keys, 10 + i as u64),
            true,
        );
    }

    // Overlapping family: one shared deterministic prefix (repair-key on R
    // joined with S — the expensive part), six different sampling suffixes.
    let shape = |relation: &str, side: &str, i: usize| {
        format!(
            "aconf[{:.2}, 0.2](project[B](join(repairkey[K @ W]({relation}), {side})))",
            0.30 + 0.02 * i as f64
        )
    };
    let overlapping: Vec<String> = (0..FAMILY).map(|i| shape("R", "S", i)).collect();
    // Independent family: the same query shape, each over its own repair-key
    // relation (disjoint stateful spines — nothing shared).
    let independent: Vec<String> = (0..FAMILY)
        .map(|i| shape(&format!("D{i}"), "L", i))
        .collect();

    let serving = ServingEngine::new(EvalConfig::default(), db.clone()).expect("server");
    let mut rng = ChaCha8Rng::seed_from_u64(19);

    let start = Instant::now();
    for q in &overlapping {
        serving
            .evaluate(q, &mut rng)
            .expect("overlapping evaluation");
    }
    let overlapping_first_total_us = start.elapsed().as_secs_f64() * 1e6;
    let after_overlap = serving.stats();
    let overlapping_pooled_prefixes = serving.pooled_prefixes();

    let start = Instant::now();
    for q in &independent {
        serving
            .evaluate(q, &mut rng)
            .expect("independent evaluation");
    }
    let independent_first_total_us = start.elapsed().as_secs_f64() * 1e6;
    let after_indep = serving.stats();

    // Warm latency of a query that does not touch the upcoming update.
    let non_touching_warm_before_us = median_micros(runs, || {
        serving
            .evaluate(&independent[0], &mut rng)
            .expect("warm evaluation");
    });

    // Content update of the pure join side `S`: the shared entry survives
    // (its repair-key spine reads only R), only the S-scanning sub-plans
    // drop, and queries over D0..D5 / L are untouched.
    let before = serving.stats();
    serving
        .update_relations([("S", label_rows(keys, 4))])
        .expect("update S");
    let after = serving.stats();
    let pure_update_entries_dropped = after.snapshots_invalidated - before.snapshots_invalidated;
    let pure_update_subplans_dropped = after.subplans_invalidated - before.subplans_invalidated;
    let non_touching_warm_after_us = median_micros(runs, || {
        serving
            .evaluate(&independent[0], &mut rng)
            .expect("warm evaluation");
    });
    // The touching query recomputes the dropped join once, then is fully
    // warm again; the median over `runs` evaluations reflects mostly the
    // re-warmed steady state.
    let touching_warm_after_us = median_micros(runs, || {
        serving
            .evaluate(&overlapping[0], &mut rng)
            .expect("touching warm evaluation");
    });

    // Spine update: new content for `R` feeds the shared repair-key, so the
    // pooled entry must drop and the R-family re-runs cold.
    let before = serving.stats();
    serving
        .update_relations([("R", weighted_rows(rows, keys, 2))])
        .expect("update R");
    let cold_before = serving.stats().cold_evaluations;
    serving
        .evaluate(&overlapping[0], &mut rng)
        .expect("re-cold evaluation");
    let after = serving.stats();

    MixedWorkloadResult {
        queries_per_family: FAMILY,
        overlapping_first_total_us,
        independent_first_total_us,
        overlapping_cold: after_overlap.cold_evaluations,
        overlapping_shared_hits: after_overlap.shared_prefix_hits,
        independent_cold: after_indep.cold_evaluations - after_overlap.cold_evaluations,
        overlapping_pooled_prefixes,
        non_touching_warm_before_us,
        non_touching_warm_after_us,
        touching_warm_after_us,
        pure_update_entries_dropped,
        pure_update_subplans_dropped,
        spine_update_entries_dropped: after.snapshots_invalidated - before.snapshots_invalidated,
        cold_after_spine_update: after.cold_evaluations - cold_before,
    }
}

/// Results of the delta-update experiment: the same single-row change to a
/// pure join side, shipped as a delta (patch in place) vs as a full
/// replacement (demote and recompute).
struct DeltaUpdateResult {
    rows: usize,
    /// Median wall time of one `apply_deltas` call (single-row delta).
    delta_update_us: f64,
    /// Median warm evaluation right after a patched delta (nothing to
    /// recompute — pure resume cost).
    patched_warm_us: f64,
    /// Median wall time of one `update_relations` call (full replacement
    /// carrying the same single-row change).
    replace_update_us: f64,
    /// Median warm evaluation right after a full replacement (recomputes
    /// the demoted sub-plans during the resume).
    demoted_warm_us: f64,
    /// Counters after the delta runs: every intersecting slot was patched,
    /// none demoted, no entry dropped.
    subplans_patched: u64,
    subplans_demoted: u64,
    /// Counter after the replacement runs: the slots were dropped instead.
    subplans_invalidated: u64,
}

fn delta_update_experiment(rows: usize, runs: usize) -> DeltaUpdateResult {
    let keys = (rows / 3).max(2);
    let mut db = UDatabase::new();
    db.set_relation("R", weighted_rows(rows, keys, 1), true);
    db.set_relation("S", label_rows(keys, 3), true);
    let query = "aconf[0.30, 0.2](project[B](join(repairkey[K @ W](R), S)))";

    // Strategy A: single-row deltas, patched in place.  Each round toggles
    // one fresh S row so every call is a real content change.
    let serving = ServingEngine::new(EvalConfig::default(), db.clone()).expect("server");
    let mut rng = ChaCha8Rng::seed_from_u64(23);
    serving.evaluate(query, &mut rng).expect("prepare");
    let mut delta_update_us = Vec::with_capacity(runs);
    let mut patched_warm_us = Vec::with_capacity(runs);
    for round in 0..runs {
        let old = serving.database().relation("S").expect("S").clone();
        let mut new = old.clone();
        let row = pdb::Tuple::new(vec![Value::Int(0), Value::Int(1000 + round as i64)]);
        new.insert(urel::Condition::always(), row).expect("insert");
        let delta = old.diff(&new).expect("diff");
        let start = Instant::now();
        serving.apply_deltas([("S", delta)]).expect("delta");
        delta_update_us.push(start.elapsed().as_secs_f64() * 1e6);
        let start = Instant::now();
        serving.evaluate(query, &mut rng).expect("patched warm");
        patched_warm_us.push(start.elapsed().as_secs_f64() * 1e6);
    }
    let delta_stats = serving.stats();

    // Strategy B: the same single-row change as a full replacement.  Since
    // replacements commit as their derived delta this arm patches too (it
    // adds the cost of deriving the delta); the `demoted` figures in the
    // checked-in `BENCH_serving.json` predate that and measured demote +
    // recompute.  Make this arm rewrite most of `S` when the file is next
    // regenerated.
    let serving = ServingEngine::new(EvalConfig::default(), db).expect("server");
    let mut rng = ChaCha8Rng::seed_from_u64(23);
    serving.evaluate(query, &mut rng).expect("prepare");
    let mut replace_update_us = Vec::with_capacity(runs);
    let mut demoted_warm_us = Vec::with_capacity(runs);
    for round in 0..runs {
        let old = serving.database().relation("S").expect("S").clone();
        let mut new = old.clone();
        let row = pdb::Tuple::new(vec![Value::Int(0), Value::Int(1000 + round as i64)]);
        new.insert(urel::Condition::always(), row).expect("insert");
        let start = Instant::now();
        serving.update_relations([("S", new)]).expect("replace");
        replace_update_us.push(start.elapsed().as_secs_f64() * 1e6);
        let start = Instant::now();
        serving.evaluate(query, &mut rng).expect("demoted warm");
        demoted_warm_us.push(start.elapsed().as_secs_f64() * 1e6);
    }
    let replace_stats = serving.stats();

    let median = |mut samples: Vec<f64>| -> f64 {
        samples.sort_by(f64::total_cmp);
        samples[samples.len() / 2]
    };
    DeltaUpdateResult {
        rows,
        delta_update_us: median(delta_update_us),
        patched_warm_us: median(patched_warm_us),
        replace_update_us: median(replace_update_us),
        demoted_warm_us: median(demoted_warm_us),
        subplans_patched: delta_stats.subplans_patched,
        subplans_demoted: delta_stats.subplans_demoted,
        subplans_invalidated: replace_stats.subplans_invalidated,
    }
}

/// Results of the storage-tier experiment: the spill path's overhead on a
/// join that fits in memory anyway (the price of out-of-core safety), and
/// the restart story — checkpoint write, restore + first warm evaluation,
/// vs re-preparing the same query cold on a fresh engine.
struct StorageResult {
    rows: usize,
    spill_budget_bytes: usize,
    /// Median join evaluation, fully resident (budget 0).
    resident_join_us: f64,
    /// Median join evaluation with chunk outputs spilled through
    /// digest-verified temporary segments.
    spill_join_us: f64,
    /// Median `checkpoint` call over the warmed serving engine.
    checkpoint_write_us: f64,
    /// Median restore-from-checkpoint *plus* first (warm) evaluation.
    restore_warm_us: f64,
    /// Median fresh-engine construction *plus* first (cold) evaluation.
    cold_reprepare_us: f64,
    /// Pool entries the restore re-seeded (sanity: the warm path is real).
    restored_pooled_prefixes: usize,
}

fn storage_experiment(rows: usize, runs: usize) -> StorageResult {
    let keys = (rows / 3).max(2);
    let mut db = UDatabase::new();
    db.set_relation("R", weighted_rows(rows, keys, 1), true);
    db.set_relation("S", label_rows(keys, 3), true);
    let catalog = catalog_of(&db).expect("catalog");
    let join = algebra::parse_query("poss(project[B](join(R, S)))").expect("join parses");
    let plan = LogicalPlan::lower_validated(&join, &catalog).expect("plan lowers");

    let resident = UEngine::new(EvalConfig::default());
    let mut rng = ChaCha8Rng::seed_from_u64(29);
    let resident_join_us = median_micros(runs, || {
        resident
            .evaluate_plan(&db, &plan, &mut rng)
            .expect("resident join");
    });
    // A budget small enough that the join's chunk outputs actually spill at
    // these sizes, large enough to stay plausible as a real memory cap.
    let spill_budget_bytes = 4 * 1024;
    let spilling = UEngine::new(EvalConfig::default().with_spill_budget_bytes(spill_budget_bytes));
    let mut rng = ChaCha8Rng::seed_from_u64(29);
    let spill_join_us = median_micros(runs, || {
        spilling
            .evaluate_plan(&db, &plan, &mut rng)
            .expect("spilled join");
    });

    // Restart story: warm one stateful query, checkpoint, then compare
    // restore + warm evaluation against fresh-engine + cold evaluation.
    let text = "aconf[0.30, 0.2](project[B](join(repairkey[K @ W](R), S)))";
    let serving = ServingEngine::new(EvalConfig::default(), db.clone()).expect("server");
    let mut rng = ChaCha8Rng::seed_from_u64(31);
    serving
        .evaluate(text, &mut rng)
        .expect("warming evaluation");
    let dir = std::env::temp_dir().join(format!("uadb-bench-ckpt-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let checkpoint_write_us = median_micros(runs, || {
        serving.checkpoint(&dir).expect("checkpoint");
    });
    let restored = ServingEngine::restore(EvalConfig::default(), &dir).expect("restore");
    let restored_pooled_prefixes = restored.pooled_prefixes();
    let restore_warm_us = median_micros(runs, || {
        let engine = ServingEngine::restore(EvalConfig::default(), &dir).expect("restore");
        let mut rng = ChaCha8Rng::seed_from_u64(37);
        engine.evaluate(text, &mut rng).expect("restored warm");
    });
    let cold_reprepare_us = median_micros(runs, || {
        let engine = ServingEngine::new(EvalConfig::default(), db.clone()).expect("cold engine");
        let mut rng = ChaCha8Rng::seed_from_u64(37);
        engine.evaluate(text, &mut rng).expect("cold evaluation");
    });
    let _ = std::fs::remove_dir_all(&dir);

    StorageResult {
        rows,
        spill_budget_bytes,
        resident_join_us,
        spill_join_us,
        checkpoint_write_us,
        restore_warm_us,
        cold_reprepare_us,
        restored_pooled_prefixes,
    }
}

/// Results of the estimator-kernel experiment: scalar vs bit-parallel
/// Karp–Luby throughput on the `fpras_conf` workload's own lineages.
struct EstimatorResult {
    events: usize,
    /// Samples drawn per event (the Chernoff budget of `aconf[0.2, 0.1]`).
    samples_per_event: usize,
    scalar_samples_per_sec: f64,
    bitparallel_samples_per_sec: f64,
}

fn estimator_experiment(num_tuples: usize) -> EstimatorResult {
    let db = TupleIndependentDb {
        num_tuples,
        domain_size: 8,
        tuple_probability: None,
        seed: 11,
    }
    .database();
    // The exact batch the `fpras_conf` query estimates over: the lineage of
    // project[A](T), extracted and compiled by the engine's own cache.
    let space = CompiledSpace::compile(db.wtable()).expect("compiled space");
    let relation = db.relation("T").expect("relation T");
    let projected =
        engine::ops::project(relation, &[algebra::ProjItem::attr("A")]).expect("projection");
    let lineage = space.relation_events(&projected).expect("lineage batch");
    let programs = lineage.programs();
    let fpras =
        confidence::FprasEstimator::new(confidence::FprasParams::new(0.2, 0.1).expect("params"));
    // The count the engine's FPRAS draw draws for event `index`.
    let bill = |index: usize| fpras.bill(programs, index).expect("budget") as usize;

    let mut scalar_samples = 0usize;
    let start = Instant::now();
    for (index, event) in lineage.events().iter().enumerate() {
        let m = bill(index);
        let estimator =
            KarpLubyEstimator::new(event.clone(), space.space().clone()).expect("scalar estimator");
        let mut rng = ChaCha8Rng::seed_from_u64(17);
        let _ = estimator.estimate(m, &mut rng).expect("scalar estimate");
        scalar_samples += m;
    }
    let scalar_secs = start.elapsed().as_secs_f64();

    let mut bit_samples = 0usize;
    let start = Instant::now();
    for index in 0..programs.len() {
        let m = bill(index);
        let mut kernel = BitKarpLuby::new(programs.clone(), index).expect("bit kernel");
        let mut rng = rand::rngs::SmallRng::seed_from_u64(17);
        let _ = kernel.estimate(m, &mut rng).expect("bit estimate");
        bit_samples += m;
    }
    let bit_secs = start.elapsed().as_secs_f64();

    EstimatorResult {
        events: programs.len(),
        samples_per_event: bit_samples / programs.len().max(1),
        scalar_samples_per_sec: scalar_samples as f64 / scalar_secs.max(1e-9),
        bitparallel_samples_per_sec: bit_samples as f64 / bit_secs.max(1e-9),
    }
}

/// One rung of the width sweep: a single-literal union of `terms`
/// independent Boolean variables, answered both ways.
struct BackendWidthRow {
    terms: usize,
    /// The Chernoff sample budget of `aconf[0.2, 0.1]` at this width.
    samples_budget: usize,
    /// Median d-DNNF compile + weighted model count, microseconds.
    dnnf_us: f64,
    /// One full FPRAS sampling pass on the widest (4-word) kernel,
    /// microseconds.
    fpras_us: f64,
    /// What `cost::choose_backend` picks at the default node budget.
    chosen: &'static str,
}

/// Results of the estimator-backends experiment: kernel throughput per
/// block width, and the compile-vs-sample tradeoff by lineage width.
struct BackendsResult {
    /// Events in the kernel-throughput batch (the `fpras_conf` lineage).
    kernel_events: usize,
    /// `(words, samples_per_sec)` for `W ∈ {1, 2, 4}`.
    kernel: Vec<(usize, f64)>,
    widths: Vec<BackendWidthRow>,
}

fn estimator_backends_experiment(num_tuples: usize, smoke: bool) -> BackendsResult {
    use std::sync::Arc;

    let db = TupleIndependentDb {
        num_tuples,
        domain_size: 8,
        tuple_probability: None,
        seed: 11,
    }
    .database();
    let space = CompiledSpace::compile(db.wtable()).expect("compiled space");
    let relation = db.relation("T").expect("relation T");
    let projected =
        engine::ops::project(relation, &[algebra::ProjItem::attr("A")]).expect("projection");
    let lineage = space.relation_events(&projected).expect("lineage batch");
    let programs = lineage.programs();
    let params = confidence::FprasParams::new(0.2, 0.1).expect("params");

    // Kernel throughput per block width on the serving workload's own
    // lineage: same Chernoff budget, same seed, 64/128/256 lanes per pass.
    let fpras = confidence::FprasEstimator::new(params);
    let mut kernel = Vec::new();
    for words in [1usize, 2, 4] {
        let mut samples = 0usize;
        let start = Instant::now();
        for index in 0..programs.len() {
            let m = fpras.bill(programs, index).expect("budget") as usize;
            let mut k =
                BitKarpLuby::new_with_width(programs.clone(), index, words).expect("kernel");
            let mut rng = rand::rngs::SmallRng::seed_from_u64(17);
            let _ = k.estimate(m, &mut rng).expect("estimate");
            samples += m;
        }
        let secs = start.elapsed().as_secs_f64();
        kernel.push((words, samples as f64 / secs.max(1e-9)));
    }

    // Compile-vs-sample by lineage width: single-literal unions of `w`
    // independent p = 0.5 coins — the d-DNNF is a linear decision chain, so
    // compile + WMC stays flat while the Chernoff sample bill grows with w.
    let widths: &[usize] = if smoke {
        &[4, 16, 64]
    } else {
        &[4, 16, 64, 256]
    };
    let rows = widths
        .iter()
        .map(|&w| {
            let mut event_space = confidence::ProbabilitySpace::new();
            let terms: Vec<confidence::Assignment> = (0..w)
                .map(|_| {
                    let v = event_space.add_bool_variable(0.5).expect("variable");
                    confidence::Assignment::new([(v, 0)]).expect("literal")
                })
                .collect();
            let event = confidence::DnfEvent::new(terms);
            let programs = Arc::new(
                confidence::LineagePrograms::compile(vec![event.clone()], &event_space)
                    .expect("compile"),
            );
            let m = params.samples_for(w).expect("budget");
            let budget = confidence::cost::DEFAULT_NODE_BUDGET;
            let chosen =
                match confidence::cost::choose_backend(programs.dnnf_estimate(0), m as u64, budget)
                {
                    confidence::Backend::Exact => "exact",
                    confidence::Backend::Sample => "sample",
                };
            let dnnf_us = median_micros(9, || {
                let _ = confidence::dnnf::probability(&event, &event_space, budget)
                    .expect("d-DNNF probability");
            });
            let mut k = BitKarpLuby::new_with_width(programs.clone(), 0, 4).expect("kernel");
            let mut rng = rand::rngs::SmallRng::seed_from_u64(17);
            let start = Instant::now();
            let _ = k.estimate(m, &mut rng).expect("estimate");
            let fpras_us = start.elapsed().as_secs_f64() * 1e6;
            BackendWidthRow {
                terms: w,
                samples_budget: m,
                dnnf_us,
                fpras_us,
                chosen,
            }
        })
        .collect();

    BackendsResult {
        kernel_events: programs.len(),
        kernel,
        widths: rows,
    }
}

#[allow(clippy::too_many_arguments)] // one positional slot per experiment section
fn render_json(
    smoke: bool,
    repeated: &[RepeatedQueryResult],
    shards: &[ShardResult],
    mixed: &MixedWorkloadResult,
    delta: &DeltaUpdateResult,
    storage: &StorageResult,
    estimator: &EstimatorResult,
    backends: &BackendsResult,
) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "{{");
    let _ = writeln!(
        out,
        "  \"generated_by\": \"cargo run --release -p bench --bin serving\","
    );
    let _ = writeln!(out, "  \"smoke\": {smoke},");
    // The machine's real thread budget, straight from the OS (the rayon
    // shim's view can be narrower than the hardware).
    let host_threads = std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1);
    let _ = writeln!(out, "  \"host_threads\": {host_threads},");
    let _ = writeln!(out, "  \"repeated_query\": [");
    for (i, r) in repeated.iter().enumerate() {
        let comma = if i + 1 < repeated.len() { "," } else { "" };
        let _ = writeln!(
            out,
            "    {{\"label\": \"{}\", \"query\": \"{}\", \"cold_us\": {:.1}, \"warm_us\": {:.1}, \"speedup\": {:.2}, \"warm_exact_answers\": {}, \"warm_shared_hits\": {}}}{comma}",
            r.label,
            r.query,
            r.cold_us,
            r.warm_us,
            r.cold_us / r.warm_us.max(1e-9),
            r.warm_exact_answers,
            r.warm_shared_hits
        );
    }
    let _ = writeln!(out, "  ],");
    let single = shards
        .iter()
        .find(|s| s.shards == 1)
        .map(|s| s.wall_us)
        .unwrap_or(f64::NAN);
    let four = shards
        .iter()
        .find(|s| s.shards == 4)
        .map(|s| s.wall_us)
        .unwrap_or(f64::NAN);
    let _ = writeln!(out, "  \"sharded_join\": {{");
    let _ = writeln!(
        out,
        "    \"workload\": \"random-db self-join on A (tuple-independent T, domain 150)\","
    );
    let _ = writeln!(out, "    \"results\": [");
    for (i, s) in shards.iter().enumerate() {
        let comma = if i + 1 < shards.len() { "," } else { "" };
        let _ = writeln!(
            out,
            "      {{\"shards\": {}, \"wall_us\": {:.1}}}{comma}",
            s.shards, s.wall_us
        );
    }
    let _ = writeln!(out, "    ],");
    let _ = writeln!(
        out,
        "    \"speedup_4_shards_vs_single_batch\": {:.2}",
        single / four.max(1e-9)
    );
    let _ = writeln!(out, "  }},");
    let _ = writeln!(out, "  \"mixed_workload\": {{");
    let _ = writeln!(
        out,
        "    \"workload\": \"{} aconf variants sharing one repair-key + join prefix on R x S \
         vs {} identical-shape queries over disjoint relations Di x L, with interleaved \
         relation updates (pure join side S, then repair-key input R)\",",
        mixed.queries_per_family, mixed.queries_per_family
    );
    let _ = writeln!(
        out,
        "    \"overlapping\": {{\"queries\": {}, \"first_eval_total_us\": {:.1}, \
         \"cold_evaluations\": {}, \"shared_prefix_hits\": {}, \"pooled_prefixes\": {}}},",
        mixed.queries_per_family,
        mixed.overlapping_first_total_us,
        mixed.overlapping_cold,
        mixed.overlapping_shared_hits,
        mixed.overlapping_pooled_prefixes
    );
    let _ = writeln!(
        out,
        "    \"independent\": {{\"queries\": {}, \"first_eval_total_us\": {:.1}, \
         \"cold_evaluations\": {}}},",
        mixed.queries_per_family, mixed.independent_first_total_us, mixed.independent_cold
    );
    let _ = writeln!(
        out,
        "    \"sharing_speedup_first_eval\": {:.2},",
        mixed.independent_first_total_us / mixed.overlapping_first_total_us.max(1e-9)
    );
    let _ = writeln!(
        out,
        "    \"pure_side_update\": {{\"updated\": \"S\", \"entries_dropped\": {}, \
         \"subplans_dropped\": {}, \"non_touching_warm_before_us\": {:.1}, \
         \"non_touching_warm_after_us\": {:.1}, \"touching_warm_after_us\": {:.1}}},",
        mixed.pure_update_entries_dropped,
        mixed.pure_update_subplans_dropped,
        mixed.non_touching_warm_before_us,
        mixed.non_touching_warm_after_us,
        mixed.touching_warm_after_us
    );
    let _ = writeln!(
        out,
        "    \"spine_update\": {{\"updated\": \"R\", \"entries_dropped\": {}, \
         \"cold_evaluations_after\": {}}}",
        mixed.spine_update_entries_dropped, mixed.cold_after_spine_update
    );
    let _ = writeln!(out, "  }},");
    let _ = writeln!(out, "  \"delta_update\": {{");
    let _ = writeln!(
        out,
        "    \"workload\": \"single-row change to the pure join side S of \
         aconf(project(join(repairkey(R), S))) over {} R-rows, shipped as a RelationDelta \
         (apply_deltas patches the scan/join/projection slots in place) vs as a full \
         replacement (update_relations demotes them for recomputation on the next resume)\",",
        delta.rows
    );
    let _ = writeln!(
        out,
        "    \"patched\": {{\"update_us\": {:.1}, \"warm_after_us\": {:.1}, \
         \"subplans_patched\": {}, \"subplans_demoted\": {}}},",
        delta.delta_update_us,
        delta.patched_warm_us,
        delta.subplans_patched,
        delta.subplans_demoted
    );
    let _ = writeln!(
        out,
        "    \"demoted\": {{\"update_us\": {:.1}, \"warm_after_us\": {:.1}, \
         \"subplans_invalidated\": {}}},",
        delta.replace_update_us, delta.demoted_warm_us, delta.subplans_invalidated
    );
    let _ = writeln!(
        out,
        "    \"rewarm_speedup_update_plus_eval\": {:.2}",
        (delta.replace_update_us + delta.demoted_warm_us)
            / (delta.delta_update_us + delta.patched_warm_us).max(1e-9)
    );
    let _ = writeln!(out, "  }},");
    let _ = writeln!(out, "  \"storage\": {{");
    let _ = writeln!(
        out,
        "    \"workload\": \"poss(project(join(R, S))) over {} R-rows resident vs under a \
         {}-byte spill budget (chunk outputs through digest-verified temp segments), plus \
         checkpoint/restore of a warmed aconf(join(repairkey(R), S)) server vs a cold \
         re-prepare\",",
        storage.rows, storage.spill_budget_bytes
    );
    let _ = writeln!(
        out,
        "    \"join\": {{\"resident_us\": {:.1}, \"spill_us\": {:.1}, \
         \"spill_overhead\": {:.2}}},",
        storage.resident_join_us,
        storage.spill_join_us,
        storage.spill_join_us / storage.resident_join_us.max(1e-9)
    );
    let _ = writeln!(
        out,
        "    \"checkpoint\": {{\"write_us\": {:.1}, \"restore_plus_warm_eval_us\": {:.1}, \
         \"cold_engine_plus_eval_us\": {:.1}, \"restored_pooled_prefixes\": {}, \
         \"restore_speedup_vs_cold\": {:.2}}}",
        storage.checkpoint_write_us,
        storage.restore_warm_us,
        storage.cold_reprepare_us,
        storage.restored_pooled_prefixes,
        storage.cold_reprepare_us / storage.restore_warm_us.max(1e-9)
    );
    let _ = writeln!(out, "  }},");
    let _ = writeln!(out, "  \"estimator\": {{");
    let _ = writeln!(
        out,
        "    \"workload\": \"Karp-Luby sampling over the fpras_conf lineage batch \
         ({} events, {} samples each): the scalar per-world reference estimator vs the \
         bit-parallel 64-worlds-per-word kernel over compiled lineage programs\",",
        estimator.events, estimator.samples_per_event
    );
    let _ = writeln!(
        out,
        "    \"scalar_samples_per_sec\": {:.0},",
        estimator.scalar_samples_per_sec
    );
    let _ = writeln!(
        out,
        "    \"bitparallel_samples_per_sec\": {:.0},",
        estimator.bitparallel_samples_per_sec
    );
    let _ = writeln!(
        out,
        "    \"kernel_speedup\": {:.2},",
        estimator.bitparallel_samples_per_sec / estimator.scalar_samples_per_sec.max(1e-9)
    );
    let aconf = repeated.iter().find(|r| r.label == "fpras_conf");
    let _ = writeln!(
        out,
        "    \"aconf_cold_us\": {:.1},",
        aconf.map_or(f64::NAN, |r| r.cold_us)
    );
    let _ = writeln!(
        out,
        "    \"aconf_warm_us\": {:.1}",
        aconf.map_or(f64::NAN, |r| r.warm_us)
    );
    let _ = writeln!(out, "  }},");
    let _ = writeln!(out, "  \"estimator_backends\": {{");
    let _ = writeln!(
        out,
        "    \"workload\": \"kernel throughput per block width over the fpras_conf lineage \
         batch ({} events), and d-DNNF compile+WMC vs one full FPRAS sampling pass on \
         single-literal unions of growing width (aconf[0.2, 0.1] Chernoff budgets, default \
         node budget {})\",",
        backends.kernel_events,
        confidence::cost::DEFAULT_NODE_BUDGET
    );
    let _ = writeln!(out, "    \"kernel_samples_per_sec\": [");
    for (i, (words, rate)) in backends.kernel.iter().enumerate() {
        let comma = if i + 1 < backends.kernel.len() {
            ","
        } else {
            ""
        };
        let _ = writeln!(
            out,
            "      {{\"words\": {}, \"lanes\": {}, \"samples_per_sec\": {:.0}}}{comma}",
            words,
            words * 64,
            rate
        );
    }
    let _ = writeln!(out, "    ],");
    let _ = writeln!(out, "    \"compile_vs_sample\": [");
    for (i, row) in backends.widths.iter().enumerate() {
        let comma = if i + 1 < backends.widths.len() {
            ","
        } else {
            ""
        };
        let _ = writeln!(
            out,
            "      {{\"terms\": {}, \"samples_budget\": {}, \"dnnf_us\": {:.1}, \
             \"fpras_us\": {:.1}, \"cost_model_picks\": \"{}\"}}{comma}",
            row.terms, row.samples_budget, row.dnnf_us, row.fpras_us, row.chosen
        );
    }
    let _ = writeln!(out, "    ]");
    let _ = writeln!(out, "  }}");
    let _ = writeln!(out, "}}");
    out
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let smoke = args.iter().any(|a| a == "--smoke");
    let out_path = args
        .iter()
        .position(|a| a == "--out")
        .and_then(|i| args.get(i + 1).cloned());

    let (serving_tuples, join_tuples, mixed_rows, runs) = if smoke {
        (80, 200, 60, 5)
    } else {
        (800, 1500, 600, 11)
    };
    let repeated = repeated_query_experiment(serving_tuples, runs);
    let shards = sharding_experiment(join_tuples, runs);
    let mixed = mixed_workload_experiment(mixed_rows, runs);
    let delta = delta_update_experiment(mixed_rows, runs);
    let storage = storage_experiment(mixed_rows, runs);
    let estimator = estimator_experiment(serving_tuples);
    let backends = estimator_backends_experiment(serving_tuples, smoke);
    let json = render_json(
        smoke, &repeated, &shards, &mixed, &delta, &storage, &estimator, &backends,
    );
    print!("{json}");

    for r in &repeated {
        eprintln!(
            "repeated {}: cold {:.0} us, warm {:.0} us ({:.1}x)",
            r.label,
            r.cold_us,
            r.warm_us,
            r.cold_us / r.warm_us.max(1e-9)
        );
    }
    if let (Some(single), Some(four)) = (
        shards.iter().find(|s| s.shards == 1),
        shards.iter().find(|s| s.shards == 4),
    ) {
        eprintln!(
            "sharded join: 1 shard {:.0} us, 4 shards {:.0} us ({:.1}x)",
            single.wall_us,
            four.wall_us,
            single.wall_us / four.wall_us.max(1e-9)
        );
    }

    eprintln!(
        "mixed workload: overlapping first-evals {:.0} us total ({} cold, {} shared) vs \
         independent {:.0} us total ({} cold) — {:.1}x",
        mixed.overlapping_first_total_us,
        mixed.overlapping_cold,
        mixed.overlapping_shared_hits,
        mixed.independent_first_total_us,
        mixed.independent_cold,
        mixed.independent_first_total_us / mixed.overlapping_first_total_us.max(1e-9)
    );
    eprintln!(
        "updates: S-update dropped {} entries / {} sub-plans (non-touching warm {:.0} -> {:.0} us, \
         touching {:.0} us); R-update dropped {} entries ({} re-cold)",
        mixed.pure_update_entries_dropped,
        mixed.pure_update_subplans_dropped,
        mixed.non_touching_warm_before_us,
        mixed.non_touching_warm_after_us,
        mixed.touching_warm_after_us,
        mixed.spine_update_entries_dropped,
        mixed.cold_after_spine_update
    );
    eprintln!(
        "delta update: patched {:.0}+{:.0} us (update+warm, {} slots patched) vs \
         demoted {:.0}+{:.0} us ({} slots dropped) — {:.1}x",
        delta.delta_update_us,
        delta.patched_warm_us,
        delta.subplans_patched,
        delta.replace_update_us,
        delta.demoted_warm_us,
        delta.subplans_invalidated,
        (delta.replace_update_us + delta.demoted_warm_us)
            / (delta.delta_update_us + delta.patched_warm_us).max(1e-9)
    );

    eprintln!(
        "storage: join resident {:.0} us vs spilled {:.0} us ({:.2}x overhead); \
         checkpoint write {:.0} us, restore+warm {:.0} us vs cold re-prepare {:.0} us \
         ({:.1}x, {} prefixes re-seeded)",
        storage.resident_join_us,
        storage.spill_join_us,
        storage.spill_join_us / storage.resident_join_us.max(1e-9),
        storage.checkpoint_write_us,
        storage.restore_warm_us,
        storage.cold_reprepare_us,
        storage.cold_reprepare_us / storage.restore_warm_us.max(1e-9),
        storage.restored_pooled_prefixes
    );

    eprintln!(
        "estimator kernels: scalar {:.2} M samples/s vs bit-parallel {:.2} M samples/s \
         ({:.1}x) over {} events x {} samples",
        estimator.scalar_samples_per_sec / 1e6,
        estimator.bitparallel_samples_per_sec / 1e6,
        estimator.bitparallel_samples_per_sec / estimator.scalar_samples_per_sec.max(1e-9),
        estimator.events,
        estimator.samples_per_event
    );

    for (words, rate) in &backends.kernel {
        eprintln!(
            "backend kernel: {} words ({} lanes) {:.2} M samples/s",
            words,
            words * 64,
            rate / 1e6
        );
    }
    for row in &backends.widths {
        eprintln!(
            "backend width {}: d-DNNF {:.0} us vs FPRAS {:.0} us ({} samples) — cost model \
             picks {}",
            row.terms, row.dnnf_us, row.fpras_us, row.samples_budget, row.chosen
        );
    }

    if !smoke {
        let path = out_path.unwrap_or_else(|| "BENCH_serving.json".to_string());
        std::fs::write(&path, &json).expect("write BENCH_serving.json");
        eprintln!("wrote {path}");
    }
}
