//! Serving-layer commit correctness: after *any* sequence of
//! `update_relations` / `apply_deltas` calls, a warm-path evaluation must be
//! bit-identical (result relation, error bounds, statistics, final database
//! state) to what a cold `ServingEngine` over the updated database produces
//! from the same RNG state — no matter whether the commit killed pooled
//! entries, patched or demoted individual sub-plan results, or touched
//! nothing the queries scan.  A whole-relation replacement and the row
//! delta it amounts to are one commit path, so they must also leave the
//! pool in the same shape.

use algebra::{ConfTerm, Expr, Predicate, Query};
use engine::{EvalConfig, ServingEngine};
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

/// The mixed workload: deterministic, sampling, shared-prefix and σ̂
/// queries over `R` and `S`.
fn workload_queries() -> Vec<String> {
    let sigma = Query::table("R")
        .repair_key(&["K"], "W")
        .approx_select(
            vec![ConfTerm::new("P1", ["K"])],
            Predicate::ge(Expr::attr("P1"), Expr::konst(0.4)),
            0.2,
            0.2,
        )
        .to_string();
    vec![
        "conf(project[K](repairkey[K @ W](R)))".to_string(),
        "aconf[0.4, 0.2](project[K](repairkey[K @ W](R)))".to_string(),
        "aconf[0.3, 0.15](project[B](join(repairkey[K @ W](R), S)))".to_string(),
        "poss(join(R, S))".to_string(),
        sigma,
    ]
}

/// One arbitrary content update: `false` replaces `R`, `true` replaces `S`.
fn arb_update() -> impl Strategy<Value = (bool, Vec<(i64, i64)>)> {
    (
        any::<bool>(),
        proptest::collection::vec((0i64..4, 1i64..6), 1..8),
    )
}

/// One arbitrary workload operation for the delta-path property: a full
/// replacement via `update_relations` (kind 0), the same target content
/// shipped as a diff-derived delta via `apply_deltas` (kind 1), or a
/// single-row delta edit (kind 2 — always below the patch-worthiness bound,
/// so it exercises the in-place patch path).
fn arb_op() -> impl Strategy<Value = (u8, bool, Vec<(i64, i64)>)> {
    (
        0u8..3,
        any::<bool>(),
        proptest::collection::vec((0i64..4, 1i64..6), 1..8),
    )
}

proptest! {
    /// After every update, every query's warm answer equals a cold serving
    /// engine's answer over the updated database, bit for bit.
    #[test]
    fn warm_path_is_bit_identical_to_cold_after_updates(
        r0 in proptest::collection::vec((0i64..4, 1i64..6), 1..8),
        s0 in proptest::collection::vec((0i64..4, 1i64..6), 1..8),
        updates in proptest::collection::vec(arb_update(), 1..4),
        seed in 0u64..1000,
    ) {
        let config = EvalConfig::default();
        let db = database(&r0, &s0);
        let queries = workload_queries();
        let serving = ServingEngine::new(config, db).unwrap();

        // Warm every query once.
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        for q in &queries {
            serving.evaluate(q, &mut rng).unwrap();
        }

        for (round, (which, rows)) in updates.iter().enumerate() {
            let (name, rel) = if *which {
                ("S", relation_s(rows))
            } else {
                ("R", relation_r(rows))
            };
            serving.update_relations([(name, rel)]).unwrap();

            for (qi, q) in queries.iter().enumerate() {
                let case_seed = seed
                    .wrapping_mul(31)
                    .wrapping_add((round * queries.len() + qi) as u64);
                let mut warm_rng = ChaCha8Rng::seed_from_u64(case_seed);
                let warm = serving.evaluate(q, &mut warm_rng).unwrap();

                let cold_serving =
                    ServingEngine::new(config, serving.database().clone()).unwrap();
                let mut cold_rng = ChaCha8Rng::seed_from_u64(case_seed);
                let cold = cold_serving.evaluate(q, &mut cold_rng).unwrap();

                prop_assert_eq!(
                    &warm.result.relation, &cold.result.relation,
                    "relation diverged for `{}` after update #{}", q, round
                );
                prop_assert_eq!(
                    &warm.result.errors, &cold.result.errors,
                    "errors diverged for `{}` after update #{}", q, round
                );
                prop_assert_eq!(warm.result.complete, cold.result.complete);
                prop_assert_eq!(
                    warm.stats, cold.stats,
                    "stats diverged for `{}` after update #{}", q, round
                );
                prop_assert_eq!(
                    &warm.database, &cold.database,
                    "database diverged for `{}` after update #{}", q, round
                );
                // The RNG streams advanced identically too.
                prop_assert_eq!(warm_rng.next_u64(), cold_rng.next_u64());
            }
        }
    }

    /// Replacement ≡ derived delta: `update_relations([(n, new)])` and
    /// `apply_deltas([(n, old.diff(&new))])` are the same commit, so twin
    /// engines taken through one each pool the same sub-plans, count the
    /// same patches / demotions / dropped entries (only the counter the
    /// demotions are charged to differs), and serve bit-identical warm
    /// answers — both equal to a cold engine over the new content.
    #[test]
    fn replacements_and_their_derived_deltas_commit_identically(
        r0 in proptest::collection::vec((0i64..4, 1i64..6), 1..8),
        s0 in proptest::collection::vec((0i64..4, 1i64..6), 1..8),
        replacements in proptest::collection::vec(arb_update(), 1..4),
        seed in 0u64..1000,
    ) {
        let config = EvalConfig::default();
        let queries = workload_queries();
        let replaced = ServingEngine::new(config, database(&r0, &s0)).unwrap();
        let patched = ServingEngine::new(config, database(&r0, &s0)).unwrap();
        for engine in [&replaced, &patched] {
            let mut rng = ChaCha8Rng::seed_from_u64(seed);
            for q in &queries {
                engine.evaluate(q, &mut rng).unwrap();
            }
        }

        for (round, (which, rows)) in replacements.iter().enumerate() {
            let (name, new) = if *which {
                ("S", relation_s(rows))
            } else {
                ("R", relation_r(rows))
            };
            let old = patched.database().relation(name).unwrap().clone();
            let delta = old.diff(&new).unwrap();
            replaced.update_relations([(name, new)]).unwrap();
            patched.apply_deltas([(name, delta)]).unwrap();

            prop_assert_eq!(replaced.pooled_prefixes(), patched.pooled_prefixes());
            prop_assert_eq!(replaced.pooled_subplans(), patched.pooled_subplans());
            let (a, b) = (replaced.stats(), patched.stats());
            prop_assert_eq!(a.relation_updates, b.relation_updates);
            prop_assert_eq!(a.snapshots_invalidated, b.snapshots_invalidated);
            prop_assert_eq!(a.subplans_patched, b.subplans_patched);
            prop_assert_eq!(a.subplans_invalidated, b.subplans_demoted);
            prop_assert_eq!((a.subplans_demoted, b.subplans_invalidated), (0, 0));

            for (qi, q) in queries.iter().enumerate() {
                let case_seed = seed
                    .wrapping_mul(61)
                    .wrapping_add((round * queries.len() + qi) as u64);
                let cold_engine =
                    ServingEngine::new(config, replaced.database().clone()).unwrap();
                let mut cold_rng = ChaCha8Rng::seed_from_u64(case_seed);
                let cold = cold_engine.evaluate(q, &mut cold_rng).unwrap();
                for (label, engine) in [("replaced", &replaced), ("patched", &patched)] {
                    let mut warm_rng = ChaCha8Rng::seed_from_u64(case_seed);
                    let warm = engine.evaluate(q, &mut warm_rng).unwrap();
                    prop_assert_eq!(
                        &warm.result.relation, &cold.result.relation,
                        "{} engine diverged for `{}` after round {}", label, q, round
                    );
                    prop_assert_eq!(&warm.result.errors, &cold.result.errors);
                    prop_assert_eq!(warm.stats, cold.stats);
                    // The returned database is composed per request from the
                    // committed relations and the pooled spine's W-table:
                    // the W-table (base and repair-key variables) equals the
                    // cold run's, and the relation content is the served
                    // one — whether the commit hit the entry's footprint
                    // (`R` feeds the spines) or missed it (`S`).
                    prop_assert_eq!(warm.database.wtable(), cold.database.wtable());
                    let served = engine.database().clone();
                    for name in ["R", "S"] {
                        prop_assert_eq!(
                            warm.database.relation(name).unwrap(),
                            served.relation(name).unwrap()
                        );
                    }
                    prop_assert_eq!(&warm.database, &cold.database);
                    prop_assert_eq!(warm_rng.next_u64(), cold_rng.clone().next_u64());
                }
            }
            // Same pool in, same work out: the twins re-warmed identically.
            let (a, b) = (replaced.stats(), patched.stats());
            prop_assert_eq!(a.subplans_recomputed, b.subplans_recomputed);
            prop_assert_eq!(a.cold_evaluations, b.cold_evaluations);
            prop_assert_eq!(a.warm_evaluations, b.warm_evaluations);
        }
    }

    /// The delta path composes with full replacements: after *any*
    /// interleaving of `apply_deltas` (patched or demoted slots alike),
    /// `update_relations` and warm evaluations, every query's warm answer
    /// equals a cold serving engine over the final database bit for bit —
    /// patched slots are never silently stale.  `ServingStats` is
    /// cross-checked: a patched slot is patched (not recomputed), so
    /// `subplans_recomputed` may only grow in rounds where something was
    /// demoted, dropped or re-run cold.
    #[test]
    fn delta_interleavings_stay_bit_identical(
        r0 in proptest::collection::vec((0i64..4, 1i64..6), 1..8),
        s0 in proptest::collection::vec((0i64..4, 1i64..6), 1..8),
        ops in proptest::collection::vec(arb_op(), 1..4),
        seed in 0u64..1000,
    ) {
        let config = EvalConfig::default();
        let db = database(&r0, &s0);
        let queries = workload_queries();
        let serving = ServingEngine::new(config, db).unwrap();

        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        for q in &queries {
            serving.evaluate(q, &mut rng).unwrap();
        }

        for (round, (kind, which, rows)) in ops.iter().enumerate() {
            let (name, target) = if *which {
                ("S", relation_s(rows))
            } else {
                ("R", relation_r(rows))
            };
            let before = serving.stats();
            match kind {
                0 => serving.update_relations([(name, target)]).unwrap(),
                1 => {
                    // The same replacement shipped as a diff-derived delta.
                    let old = serving.database().relation(name).unwrap().clone();
                    let delta = old.diff(&target).unwrap();
                    serving.apply_deltas([(name, delta)]).unwrap();
                }
                _ => {
                    // A single-row edit: insert the first generated row if
                    // absent, else delete it — guaranteed patch-worthy.
                    let old = serving.database().relation(name).unwrap().clone();
                    let mut new = old.clone();
                    let rel = if *which {
                        relation_s(&rows[..1])
                    } else {
                        relation_r(&rows[..1])
                    };
                    let row = rel.iter().next().unwrap().clone();
                    if old.contains_row(&row) {
                        new.remove_row(&row);
                    } else {
                        new.insert(row.condition, row.tuple).unwrap();
                    }
                    let delta = old.diff(&new).unwrap();
                    prop_assert!(delta.magnitude() <= 1);
                    serving.apply_deltas([(name, delta)]).unwrap();
                }
            }
            let after_update = serving.stats();

            for (qi, q) in queries.iter().enumerate() {
                let case_seed = seed
                    .wrapping_mul(131)
                    .wrapping_add((round * queries.len() + qi) as u64);
                let mut warm_rng = ChaCha8Rng::seed_from_u64(case_seed);
                let warm = serving.evaluate(q, &mut warm_rng).unwrap();

                let cold_serving =
                    ServingEngine::new(config, serving.database().clone()).unwrap();
                let mut cold_rng = ChaCha8Rng::seed_from_u64(case_seed);
                let cold = cold_serving.evaluate(q, &mut cold_rng).unwrap();

                prop_assert_eq!(
                    &warm.result.relation, &cold.result.relation,
                    "relation diverged for `{}` after op #{}", q, round
                );
                prop_assert_eq!(&warm.result.errors, &cold.result.errors);
                prop_assert_eq!(warm.result.complete, cold.result.complete);
                prop_assert_eq!(
                    warm.stats, cold.stats,
                    "stats diverged for `{}` after op #{}", q, round
                );
                prop_assert_eq!(
                    &warm.database, &cold.database,
                    "database diverged for `{}` after op #{}", q, round
                );
                prop_assert_eq!(warm_rng.next_u64(), cold_rng.next_u64());
            }

            // Stats cross-check: if the op only patched (nothing demoted,
            // dropped or spine-invalidated), the round's warm evaluations
            // must resume without recomputing a single sub-plan — a patched
            // slot that were stale could only stay bit-identical by being
            // recomputed, so this pins down that the patch itself is live.
            let after_evals = serving.stats();
            prop_assert_eq!(after_evals.subplans_patched, after_update.subplans_patched);
            let nothing_demoted = after_update.subplans_demoted == before.subplans_demoted
                && after_update.subplans_invalidated == before.subplans_invalidated
                && after_update.snapshots_invalidated == before.snapshots_invalidated;
            if nothing_demoted {
                prop_assert_eq!(
                    after_evals.subplans_recomputed, before.subplans_recomputed,
                    "round {} patched in place but still recomputed", round
                );
                prop_assert_eq!(after_evals.cold_evaluations, before.cold_evaluations);
            }
        }
    }

    /// N concurrent sessions over one shared engine — each with its own
    /// seeded RNG and a schedule that interleaves warm and cold evaluations
    /// (every round rotates each session onto a query another session may
    /// or may not have pooled yet) — produce answer streams bit-identical
    /// to the same per-session schedules run sequentially on a fresh
    /// engine, and to cold single-query engines at the same RNG states.
    /// This is the warm ≡ cold invariant extended to the concurrent path:
    /// answers are a function of (text, database, own RNG) only, never of
    /// the pool state other sessions left behind.
    #[test]
    fn concurrent_sessions_are_bit_identical_to_sequential_and_cold(
        r0 in proptest::collection::vec((0i64..4, 1i64..6), 1..8),
        s0 in proptest::collection::vec((0i64..4, 1i64..6), 1..8),
        seed in 0u64..1000,
    ) {
        let config = EvalConfig::default();
        let queries = workload_queries();
        let sessions = queries.len();
        let rounds = 3usize;
        let session_seed = |s: usize| seed.wrapping_add(1 + 1000 * s as u64);

        let shared = ServingEngine::new(config, database(&r0, &s0)).unwrap();
        let concurrent: Vec<Vec<_>> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..sessions)
                .map(|s| {
                    let shared = &shared;
                    let queries = &queries;
                    scope.spawn(move || {
                        let mut session = shared.session();
                        let mut rng = ChaCha8Rng::seed_from_u64(session_seed(s));
                        (0..rounds)
                            .map(|round| {
                                let q = &queries[(s + round) % queries.len()];
                                let out = session.evaluate(q, &mut rng).unwrap();
                                // Tap the stream so RNG advancement is
                                // compared too.
                                (out, rng.next_u64())
                            })
                            .collect::<Vec<_>>()
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        let shared_stats = shared.stats();
        prop_assert_eq!(
            shared_stats.cold_evaluations + shared_stats.warm_evaluations,
            (sessions * rounds) as u64,
            "every concurrent request must be counted exactly once"
        );

        let sequential_engine = ServingEngine::new(config, database(&r0, &s0)).unwrap();
        for s in 0..sessions {
            let mut rng = ChaCha8Rng::seed_from_u64(session_seed(s));
            for round in 0..rounds {
                let q = &queries[(s + round) % queries.len()];
                // Cold reference: a fresh engine at the same RNG state.
                let mut cold_rng = rng.clone();
                let cold_engine = ServingEngine::new(config, database(&r0, &s0)).unwrap();
                let cold = cold_engine.evaluate(q, &mut cold_rng).unwrap();
                let out = sequential_engine.evaluate(q, &mut rng).unwrap();
                let (conc, conc_tap) = &concurrent[s][round];
                prop_assert_eq!(
                    &conc.result.relation, &out.result.relation,
                    "session {} round {} (`{}`) diverged from sequential", s, round, q
                );
                prop_assert_eq!(&conc.result.errors, &out.result.errors);
                prop_assert_eq!(conc.result.complete, out.result.complete);
                prop_assert_eq!(
                    conc.stats, out.stats,
                    "session {} round {} (`{}`) stats diverged", s, round, q
                );
                prop_assert_eq!(&conc.database, &out.database);
                prop_assert_eq!(
                    &cold.result.relation, &out.result.relation,
                    "session {} round {} (`{}`) diverged from cold", s, round, q
                );
                prop_assert_eq!(&cold.result.errors, &out.result.errors);
                prop_assert_eq!(cold.stats, out.stats);
                prop_assert_eq!(&cold.database, &out.database);
                let tap = rng.next_u64();
                prop_assert_eq!(*conc_tap, tap, "concurrent RNG stream diverged");
                prop_assert_eq!(cold_rng.next_u64(), tap, "cold RNG stream diverged");
            }
        }
    }

    /// Updates that do not intersect a query's footprint keep its warm path:
    /// the pooled entry survives and no evaluation runs cold again.
    #[test]
    fn disjoint_updates_keep_queries_warm(
        s_rows in proptest::collection::vec((0i64..4, 1i64..6), 1..8),
    ) {
        let config = EvalConfig::default();
        let db = database(&[(0, 2), (1, 3)], &[(0, 1)]);
        let serving = ServingEngine::new(config, db).unwrap();
        let q = "aconf[0.4, 0.2](project[K](repairkey[K @ W](R)))";
        let mut rng = ChaCha8Rng::seed_from_u64(8);
        serving.evaluate(q, &mut rng).unwrap();

        serving.update_relations([("S", relation_s(&s_rows))]).unwrap();
        serving.evaluate(q, &mut rng).unwrap();
        let stats = serving.stats();
        prop_assert_eq!(stats.cold_evaluations, 1);
        prop_assert_eq!(stats.warm_evaluations, 1);
        prop_assert_eq!(stats.snapshots_invalidated, 0);
        prop_assert_eq!(stats.subplans_invalidated, 0);
    }
}

/// Commits racing in-flight evaluations must never leave stale state in the
/// pool: evaluator sessions hammer the shared engine while an updater
/// thread storms `update_relations` / `apply_deltas` commits at it.  Once
/// the storm settles, every query served warm from whatever the pool
/// retained must be bit-identical to a cold engine over the final content —
/// which fails if a snapshot captured from a pre-commit database was ever
/// absorbed after the commit's invalidation pass ran (the epoch-guard
/// regression, reviewed on the concurrent front door).
#[test]
fn update_storm_under_concurrent_sessions_leaves_no_stale_pool_state() {
    let config = EvalConfig::default();
    let queries = workload_queries();
    let r_final = [(0, 4), (1, 2), (2, 5)];
    let s0 = [(0, 1), (1, 4), (2, 2)];
    let shared = ServingEngine::new(config, database(&[(0, 2), (1, 3)], &s0)).unwrap();

    std::thread::scope(|scope| {
        for s in 0..4usize {
            let shared = &shared;
            let queries = &queries;
            scope.spawn(move || {
                let mut rng = ChaCha8Rng::seed_from_u64(90 + s as u64);
                for round in 0..24usize {
                    let q = &queries[(s + round) % queries.len()];
                    // Answers during the storm reflect *some* committed
                    // database version; only absence of panics/errors is
                    // asserted here, staleness is checked after the join.
                    shared.evaluate(q, &mut rng).unwrap();
                }
            });
        }
        scope.spawn(|| {
            for round in 0..16usize {
                let rows: Vec<(i64, i64)> =
                    (0..3).map(|k| (k, 1 + ((round as i64 + k) % 5))).collect();
                shared.update_relations([("R", relation_r(&rows))]).unwrap();
            }
            // The last commit pins the final content the checks below use.
            shared
                .update_relations([("R", relation_r(&r_final))])
                .unwrap();
        });
    });

    for (i, q) in queries.iter().enumerate() {
        let cold_engine = ServingEngine::new(config, database(&r_final, &s0)).unwrap();
        let mut cold_rng = ChaCha8Rng::seed_from_u64(7 + i as u64);
        let cold = cold_engine.evaluate(q, &mut cold_rng).unwrap();
        let mut warm_rng = ChaCha8Rng::seed_from_u64(7 + i as u64);
        let warm = shared.evaluate(q, &mut warm_rng).unwrap();
        assert_eq!(
            cold.result.relation, warm.result.relation,
            "`{q}` served stale state after the update storm"
        );
        assert_eq!(cold.result.errors, warm.result.errors);
        assert_eq!(cold.database, warm.database);
        assert_eq!(cold_rng.next_u64(), warm_rng.next_u64());
    }
}
