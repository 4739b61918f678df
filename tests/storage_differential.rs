//! Storage-grade differential tests for the out-of-core tier.
//!
//! Three executions of the same plan over the same database and seed must be
//! bit-identical — result relation, content digest, error bounds, statistics,
//! final database state, and the caller's RNG stream:
//!
//! 1. the **sequential** baseline (the single-threaded, single-batch
//!    schedule: every row kernel runs once over its whole input),
//! 2. the **sharded** executor (the same row kernels per byte-budgeted row
//!    chunk, outputs merged),
//! 3. **sharded + spill** (a tiny byte budget forcing chunk outputs through
//!    digest-verified temporary segment files).
//!
//! And the checkpoint store must uphold the same invariant across process
//! boundaries: after *any* interleaving of `update_relations` / `apply_deltas`
//! commits, a `checkpoint` → `restore` → warm-evaluate answer equals a fresh
//! cold engine over the same content — while a corrupted or truncated
//! checkpoint is rejected with a classified storage error rather than served.

use algebra::{parse_query, LogicalPlan};
use engine::{catalog_of, EngineError, EvalConfig, ServingEngine, UEngine};
use pdb::{Schema, Tuple, Value};
use proptest::prelude::*;
use rand::{RngCore, SeedableRng};
use rand_chacha::ChaCha8Rng;
use urel::{UDatabase, URelation};

/// Builds the complete relation `R(K, W)` (repair-key input: key + weight).
fn relation_r(rows: &[(i64, i64)]) -> URelation {
    let mut rel = pdb::Relation::empty(Schema::new(["K", "W"]).unwrap());
    for &(k, w) in rows {
        rel.insert(Tuple::new(vec![Value::Int(k), Value::Int(w)]))
            .unwrap();
    }
    URelation::from_complete(&rel)
}

/// Builds the complete relation `S(K, B)` (a pure join side).
fn relation_s(rows: &[(i64, i64)]) -> URelation {
    let mut rel = pdb::Relation::empty(Schema::new(["K", "B"]).unwrap());
    for &(k, b) in rows {
        rel.insert(Tuple::new(vec![Value::Int(k), Value::Int(b)]))
            .unwrap();
    }
    URelation::from_complete(&rel)
}

fn database(r: &[(i64, i64)], s: &[(i64, i64)]) -> UDatabase {
    let mut db = UDatabase::new();
    db.set_relation("R", relation_r(r), true);
    db.set_relation("S", relation_s(s), true);
    db
}

/// Operator pipelines covering every pure operator the chunk/spill wrapper
/// runs (selection, projection, join, product via join of disjoint
/// schemas is exercised inside the planner) plus the stateful spine
/// (repair-key, conf, aconf) the checkpoint store snapshots.
fn pipelines() -> Vec<String> {
    vec![
        "poss(join(R, S))".to_string(),
        "poss(select[K = 1](R))".to_string(),
        "poss(project[B](join(select[W > 1](R), S)))".to_string(),
        "conf(project[K](repairkey[K @ W](R)))".to_string(),
        "aconf[0.4, 0.2](project[B](join(repairkey[K @ W](R), S)))".to_string(),
    ]
}

fn checkpoint_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("uadb-storage-diff-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

proptest! {
    /// Sequential ≡ sharded ≡ spilled, bit for bit, per seed: the
    /// sequential single-batch schedule, the sharded executor, and the
    /// spilling executor under tiny byte budgets all produce the same
    /// relations, digests, stats, final database, and RNG stream.
    #[test]
    fn sequential_sharded_and_spilled_executions_are_bit_identical(
        r0 in proptest::collection::vec((0i64..5, 1i64..6), 1..12),
        s0 in proptest::collection::vec((0i64..5, 1i64..8), 1..12),
        seed in 0u64..1000,
    ) {
        let db = database(&r0, &s0);
        let catalog = catalog_of(&db).unwrap();
        for (qi, text) in pipelines().iter().enumerate() {
            let query = parse_query(text).unwrap();
            let plan = LogicalPlan::lower_validated(&query, &catalog).unwrap();
            let case_seed = seed.wrapping_mul(31).wrapping_add(qi as u64);

            // Baseline: sequential schedule, fully resident.
            let baseline_engine = UEngine::new(EvalConfig::default());
            let mut baseline_rng = ChaCha8Rng::seed_from_u64(case_seed);
            let baseline = baseline_engine
                .evaluate_plan_sequential(&db, &plan, &mut baseline_rng)
                .unwrap();

            // Sharded, resident; and chunked with spill budgets small
            // enough that every chunk output goes through disk.
            let variants = [
                EvalConfig::default().with_shards(4),
                EvalConfig::default().with_shards(4).with_spill_budget_bytes(64),
                EvalConfig::default().with_shards(1).with_spill_budget_bytes(256),
            ];
            for config in variants {
                let engine = UEngine::new(config);
                let mut rng = ChaCha8Rng::seed_from_u64(case_seed);
                let out = engine.evaluate_plan(&db, &plan, &mut rng).unwrap();
                prop_assert_eq!(
                    &out.result.relation, &baseline.result.relation,
                    "relation diverged for `{}` under {:?}", text, config
                );
                prop_assert_eq!(
                    out.result.relation.content_digest(),
                    baseline.result.relation.content_digest()
                );
                prop_assert_eq!(&out.result.errors, &baseline.result.errors);
                prop_assert_eq!(out.result.complete, baseline.result.complete);
                prop_assert_eq!(
                    out.stats, baseline.stats,
                    "stats diverged for `{}` under {:?}", text, config
                );
                prop_assert_eq!(&out.database, &baseline.database);
                prop_assert_eq!(
                    rng.next_u64(),
                    baseline_rng.clone().next_u64(),
                    "RNG stream diverged for `{}` under {:?}", text, config
                );
            }
        }
    }

    /// Restored-warm ≡ re-prepared-cold: after an arbitrary interleaving of
    /// full replacements and diff-derived deltas, a checkpointed-and-restored
    /// engine answers every pipeline bit-identically to a fresh cold engine
    /// over the same final content, from the same RNG state.
    #[test]
    fn checkpoint_restore_warm_equals_fresh_cold_under_interleaved_commits(
        r0 in proptest::collection::vec((0i64..4, 1i64..6), 1..8),
        s0 in proptest::collection::vec((0i64..4, 1i64..6), 1..8),
        ops in proptest::collection::vec(
            (0u8..2, any::<bool>(), proptest::collection::vec((0i64..4, 1i64..6), 1..8)),
            1..4,
        ),
        seed in 0u64..1000,
    ) {
        let config = EvalConfig::default();
        let queries = pipelines();
        let serving = ServingEngine::new(config, database(&r0, &s0)).unwrap();

        // Warm every pipeline, interleaving commits between evaluations.
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        for q in &queries {
            serving.evaluate(q, &mut rng).unwrap();
        }
        for (kind, which, rows) in &ops {
            let (name, target) = if *which {
                ("S", relation_s(rows))
            } else {
                ("R", relation_r(rows))
            };
            match kind {
                0 => serving.update_relations([(name, target)]).unwrap(),
                _ => {
                    let old = serving.database().relation(name).unwrap().clone();
                    let delta = old.diff(&target).unwrap();
                    serving.apply_deltas([(name, delta)]).unwrap();
                }
            }
            // Re-warm one query after each commit so the pool carries a mix
            // of patched, demoted and re-created state into the checkpoint.
            serving.evaluate(&queries[0], &mut rng).unwrap();
        }

        let dir = checkpoint_dir(&format!("interleave-{seed}"));
        serving.checkpoint(&dir).unwrap();
        let restored = ServingEngine::restore(config, &dir).unwrap();
        let final_db = serving.database().clone();

        for (qi, q) in queries.iter().enumerate() {
            let case_seed = seed.wrapping_mul(131).wrapping_add(qi as u64);
            let mut warm_rng = ChaCha8Rng::seed_from_u64(case_seed);
            let warm = restored.evaluate(q, &mut warm_rng).unwrap();

            let cold_engine = ServingEngine::new(config, final_db.clone()).unwrap();
            let mut cold_rng = ChaCha8Rng::seed_from_u64(case_seed);
            let cold = cold_engine.evaluate(q, &mut cold_rng).unwrap();

            prop_assert_eq!(
                &warm.result.relation, &cold.result.relation,
                "restored answer diverged for `{}`", q
            );
            prop_assert_eq!(
                warm.result.relation.content_digest(),
                cold.result.relation.content_digest()
            );
            prop_assert_eq!(&warm.result.errors, &cold.result.errors);
            prop_assert_eq!(warm.result.complete, cold.result.complete);
            prop_assert_eq!(warm.stats, cold.stats, "stats diverged for `{}`", q);
            prop_assert_eq!(&warm.database, &cold.database);
            prop_assert_eq!(warm_rng.next_u64(), cold_rng.next_u64());
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }
}

/// A checkpoint whose bytes were tampered with — any segment, any byte — is
/// rejected by `restore` with a classified [`EngineError::Storage`], and the
/// caller's fallback (construct a cold engine from authoritative content)
/// still serves correct answers.  Partial directories (a deleted segment, a
/// missing manifest — what a crash mid-checkpoint leaves) are rejected the
/// same way.
#[test]
fn corrupted_and_partial_checkpoints_fall_back_to_cold() {
    let config = EvalConfig::default();
    let db = database(&[(0, 2), (1, 3), (2, 1)], &[(0, 1), (1, 4)]);
    let serving = ServingEngine::new(config, db.clone()).unwrap();
    let q = "conf(project[K](repairkey[K @ W](R)))";
    let mut rng = ChaCha8Rng::seed_from_u64(1);
    serving.evaluate(q, &mut rng).unwrap();

    let dir = checkpoint_dir("corrupt");
    serving.checkpoint(&dir).unwrap();
    ServingEngine::restore(config, &dir).unwrap();

    let mut names: Vec<_> = std::fs::read_dir(&dir)
        .unwrap()
        .map(|e| e.unwrap().file_name().into_string().unwrap())
        .collect();
    names.sort();
    assert!(names.iter().any(|n| n == "MANIFEST"));
    assert!(names.iter().any(|n| n.starts_with("warm-")));
    for name in &names {
        let path = dir.join(name);
        let pristine = std::fs::read(&path).unwrap();
        // A flipped byte early (header), in the middle, and at the end.
        for pos in [0, pristine.len() / 2, pristine.len() - 1] {
            let mut bad = pristine.clone();
            bad[pos] ^= 0x10;
            std::fs::write(&path, &bad).unwrap();
            match ServingEngine::restore(config, &dir) {
                Err(EngineError::Storage(_)) => {}
                other => panic!(
                    "byte {pos} of {name} flipped, restore not rejected (ok={})",
                    other.is_ok()
                ),
            }
        }
        // Truncated segment: also a storage error.
        std::fs::write(&path, &pristine[..pristine.len() / 2]).unwrap();
        assert!(matches!(
            ServingEngine::restore(config, &dir),
            Err(EngineError::Storage(_))
        ));
        std::fs::write(&path, &pristine).unwrap();
    }

    // Partial directory: a listed segment missing entirely.
    let victim = names.iter().find(|n| n.starts_with("rel-")).unwrap();
    let bytes = std::fs::read(dir.join(victim)).unwrap();
    std::fs::remove_file(dir.join(victim)).unwrap();
    assert!(matches!(
        ServingEngine::restore(config, &dir),
        Err(EngineError::Storage(_))
    ));
    std::fs::write(dir.join(victim), &bytes).unwrap();

    // The documented fallback: on a storage error, serve cold from
    // authoritative content — and that engine answers correctly.
    std::fs::remove_file(dir.join("MANIFEST")).unwrap();
    let engine = match ServingEngine::restore(config, &dir) {
        Ok(engine) => engine,
        Err(EngineError::Storage(_)) => ServingEngine::new(config, db.clone()).unwrap(),
        Err(other) => panic!("unclassified restore failure: {other}"),
    };
    let mut cold_rng = ChaCha8Rng::seed_from_u64(9);
    let cold = engine.evaluate(q, &mut cold_rng).unwrap();
    let reference = ServingEngine::new(config, db).unwrap();
    let mut ref_rng = ChaCha8Rng::seed_from_u64(9);
    let expect = reference.evaluate(q, &mut ref_rng).unwrap();
    assert_eq!(cold.result.relation, expect.result.relation);
    assert_eq!(engine.stats().cold_evaluations, 1);
    std::fs::remove_dir_all(&dir).unwrap();
}

/// The `storage` failpoint flips one deterministic bit of a checkpoint
/// segment as it is written: the resulting checkpoint must be rejected by
/// `restore`, and a clean re-checkpoint after the storm restores warm
/// service (compiled only with `--features failpoints`).
#[cfg(feature = "failpoints")]
#[test]
fn storage_failpoint_corruption_is_caught_by_restore() {
    use engine::faults::{self, FaultPlan};

    let config = EvalConfig::default();
    let db = database(&[(0, 2), (1, 3)], &[(0, 1)]);
    let serving = ServingEngine::new(config, db).unwrap();
    let q = "conf(project[K](repairkey[K @ W](R)))";
    let mut rng = ChaCha8Rng::seed_from_u64(4);
    serving.evaluate(q, &mut rng).unwrap();

    let _guard = faults::exclusive();
    // Rate 1e6 ppm: every segment write is corrupted, deterministically.
    faults::arm(&FaultPlan::storm(0xC0FF_EE00, 1_000_000).at("storage"));
    let dir = checkpoint_dir("failpoint");
    serving.checkpoint(&dir).unwrap();
    faults::disarm();
    assert!(matches!(
        ServingEngine::restore(config, &dir),
        Err(EngineError::Storage(_))
    ));

    // Storm cleared: a clean checkpoint restores warm service.
    serving.checkpoint(&dir).unwrap();
    let restored = ServingEngine::restore(config, &dir).unwrap();
    let mut warm_rng = ChaCha8Rng::seed_from_u64(13);
    let warm = restored.evaluate(q, &mut warm_rng).unwrap();
    let reference = ServingEngine::new(config, serving.database().clone()).unwrap();
    let mut cold_rng = ChaCha8Rng::seed_from_u64(13);
    let cold = reference.evaluate(q, &mut cold_rng).unwrap();
    assert_eq!(warm.result.relation, cold.result.relation);
    assert_eq!(warm.stats, cold.stats);
    assert_eq!(restored.stats().warm_evaluations, 1);
    assert_eq!(restored.stats().cold_evaluations, 0);
    std::fs::remove_dir_all(&dir).unwrap();
}
