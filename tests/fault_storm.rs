//! Randomized fault-storm property test for the concurrent serving path
//! (compiled only under the `failpoints` feature:
//! `cargo test -p uadb --features failpoints`).
//!
//! N concurrent sessions evaluate a mixed workload (exact confidence,
//! Monte Carlo `aconf`, a pure query, and a deliberately over-budgeted
//! heavy `aconf`) while an updater thread toggles the database between two
//! known states and every failpoint in the engine injects errors, panics,
//! latency and deadline burns.  The invariant under storm:
//!
//! * every request resolves to a **full answer bit-identical to a cold
//!   evaluation** over one of the two database states with the same seed,
//! * or to a **degraded bounds answer** whose intervals contain the true
//!   confidence of one of the two states,
//! * or to a **classified error** (transient, or a tagged deadline) —
//!   never a panic escaping the engine, never an unclassified failure.
//!
//! After the storm clears, the engine must serve warm answers bit-identical
//! to a cold engine over the final state: no stale or quarantine-leaked
//! pool state survives.
//!
//! Set `FAULT_STORM_SMOKE=1` to run a reduced CI-smoke variant.

#![cfg(feature = "failpoints")]

use engine::faults::{self, FaultPlan};
use engine::{
    DegradedReason, EngineError, EvalConfig, EvaluatedRelation, Request, RetryPolicy,
    ServingAnswer, ServingEngine,
};
use pdb::{relation, schema, tuple};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use std::collections::HashMap;
use std::time::{Duration, Instant};
use urel::{UDatabase, URelation};

/// State A: counts (2, 1) — confidences fair 2/3, 2headed 1/3.
fn coins_a() -> pdb::Relation {
    relation![schema!["CoinType", "Count"]; ["fair", 2], ["2headed", 1]]
}

/// State B: counts (1, 1) — confidences 1/2 each.
fn coins_b() -> pdb::Relation {
    relation![schema!["CoinType", "Count"]; ["fair", 1], ["2headed", 1]]
}

fn db_with(coins: pdb::Relation) -> UDatabase {
    UDatabase::from_complete_relations([("Coins", coins)])
}

const Q_EXACT: &str = "conf(project[CoinType](repairkey[ @ Count](Coins)))";
const Q_SAMPLE: &str = "aconf[0.3, 0.1](project[CoinType](repairkey[ @ Count](Coins)))";
const Q_PURE: &str = "poss(Coins)";
/// Needs tens of millions of samples: its short per-request deadline always
/// expires mid-sampling, exercising the degraded bounds path under storm.
const Q_HEAVY: &str = "aconf[0.0005, 0.01](project[CoinType](repairkey[ @ Count](Coins)))";

const QUERIES: [&str; 3] = [Q_EXACT, Q_SAMPLE, Q_PURE];

fn seed_of(session: usize, round: usize) -> u64 {
    (session as u64) * 1_000 + round as u64
}

/// True confidence of one output tuple under states A and B.
fn true_confidences(t: &pdb::Tuple) -> (f64, f64) {
    if *t == tuple!["fair"] {
        (2.0 / 3.0, 1.0 / 2.0)
    } else {
        assert_eq!(*t, tuple!["2headed"]);
        (1.0 / 3.0, 1.0 / 2.0)
    }
}

/// Drives every registered failpoint site individually: arms a full-rate
/// plan confined to one site and crosses it on the serving path, asserting
/// the injection lands where the registry claims.  This test is also the
/// anchor for the `xtask lint` failpoint cross-check — every site name in
/// `engine::faults::{SITES, COST_SITES, CORRUPT_SITES}` must appear below
/// as a string literal, and stale literals here fail the lint.
#[test]
fn every_registered_site_injects_where_it_claims() {
    let _guard = faults::exclusive();
    let config = EvalConfig::default();
    let full = |site| {
        FaultPlan::storm(1, 1_000_000)
            .with_kinds(faults::ERROR)
            .at(site)
    };

    // The four fallible sites surface as a classified `Injected` error
    // naming the site that fired.
    for (site, query) in [
        ("admission", Q_EXACT),
        ("prepare", Q_EXACT),
        ("cold-eval", Q_EXACT),
        ("estimate", Q_SAMPLE),
    ] {
        let serving = ServingEngine::new(config, db_with(coins_a())).unwrap();
        faults::arm(&full(site));
        let mut rng = ChaCha8Rng::seed_from_u64(0);
        let err = serving.evaluate(query, &mut rng).unwrap_err();
        faults::disarm();
        assert_eq!(
            err,
            EngineError::Injected { site },
            "site {site:?} must inject its own classified error"
        );
    }

    // `absorb` is cost-only: a fault drops the pool absorb, which is a
    // legal cache miss — the answer itself must still be exact.
    {
        let serving = ServingEngine::new(config, db_with(coins_a())).unwrap();
        let oracle = ServingEngine::new(config, db_with(coins_a())).unwrap();
        faults::arm(&full("absorb"));
        let mut rng = ChaCha8Rng::seed_from_u64(7);
        let out = serving.evaluate(Q_EXACT, &mut rng).unwrap();
        let injected = faults::injected_count();
        faults::disarm();
        assert!(injected > 0, "the absorb probe must fire on a cold eval");
        let mut rng = ChaCha8Rng::seed_from_u64(7);
        let truth = oracle.evaluate(Q_EXACT, &mut rng).unwrap();
        assert_eq!(out.result.relation, truth.result.relation);
    }

    // `patch` is cost-only too: a fault demotes the pool slot instead of
    // patching it, and the next evaluation recomputes it from scratch.  A
    // patch is only attempted for a pure sub-plan off the stateful spine,
    // so the query joins a pure `Labels` scan against a Coins repair-key.
    {
        let labels = relation![schema!["CoinType", "Label"]; ["fair", "ok"], ["2headed", "trick"]];
        let db = UDatabase::from_complete_relations([("Coins", coins_a()), ("Labels", labels)]);
        let touching = "aconf[0.3, 0.1](project[Label](join(repairkey[ @ Count](Coins), Labels)))";
        let serving = ServingEngine::new(config, db.clone()).unwrap();
        let mut rng = ChaCha8Rng::seed_from_u64(7);
        serving.evaluate(touching, &mut rng).unwrap();
        let old = serving.database().relation("Labels").unwrap().clone();
        let mut new = old.clone();
        new.insert(urel::Condition::always(), tuple!["2headed", "sneaky"])
            .unwrap();
        let delta = old.diff(&new).unwrap();
        faults::arm(&full("patch"));
        serving.apply_deltas([("Labels", delta)]).unwrap();
        let injected = faults::injected_count();
        faults::disarm();
        assert!(
            injected > 0,
            "the patch probe must fire on a pure-slot delta"
        );
        let mut db_after = db;
        db_after.set_relation("Labels".to_owned(), new, true);
        let oracle = ServingEngine::new(config, db_after).unwrap();
        let mut rng = ChaCha8Rng::seed_from_u64(9);
        let warm = serving.evaluate(touching, &mut rng).unwrap();
        let mut rng = ChaCha8Rng::seed_from_u64(9);
        let truth = oracle.evaluate(touching, &mut rng).unwrap();
        assert_eq!(warm.result.relation, truth.result.relation);
    }

    // `storage` corrupts checkpoint segments on the way to disk; the digest
    // check must reject the checkpoint on restore rather than decode it.
    {
        let serving = ServingEngine::new(config, db_with(coins_a())).unwrap();
        let dir = std::env::temp_dir().join(format!(
            "uadb-fault-site-ckpt-{}-{:x}",
            std::process::id(),
            seed_of(0, 0)
        ));
        let _ = std::fs::remove_dir_all(&dir);
        faults::arm(&full("storage"));
        serving.checkpoint(&dir).unwrap();
        let injected = faults::injected_count();
        faults::disarm();
        assert!(injected > 0, "the storage probe must corrupt a segment");
        match ServingEngine::restore(config, &dir) {
            Err(EngineError::Storage { .. }) => {}
            Err(other) => panic!("expected a storage rejection, got {other:?}"),
            Ok(_) => panic!("a corrupted checkpoint must not restore"),
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}

#[test]
fn fault_storm_keeps_answers_exact_degraded_or_classified() {
    let smoke = std::env::var("FAULT_STORM_SMOKE").is_ok();
    let sessions = if smoke { 2 } else { 4 };
    let rounds = if smoke { 4 } else { 12 };
    let toggles = if smoke { 8 } else { 30 };

    let config = EvalConfig::default();
    let serving = ServingEngine::new(config, db_with(coins_a())).unwrap();

    // The registry is process-global: hold the storm lock for both phases,
    // oracle included — a sibling test arming a site would fault it.
    let _guard = faults::exclusive();

    // Cold ground truths for both database states, computed *before* the
    // storm is armed (an armed oracle would be faulted too).  One clean
    // engine per state serves as the cold oracle for every seed, by the
    // engine's warm ≡ cold invariant.
    let oracle_a = ServingEngine::new(config, db_with(coins_a())).unwrap();
    let oracle_b = ServingEngine::new(config, db_with(coins_b())).unwrap();
    let truth = |oracle: &ServingEngine, text: &str, seed: u64| -> EvaluatedRelation {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        oracle
            .evaluate(text, &mut rng)
            .expect("clean oracle")
            .result
    };
    // (session, round) → the two states' cold truths for that round's query
    // (heavy rounds are excluded: their deadline guarantees they never
    // complete in full, and they are validated via their bounds instead).
    let mut truths: HashMap<(usize, usize), (EvaluatedRelation, EvaluatedRelation)> =
        HashMap::new();
    for s in 0..sessions {
        for r in 0..rounds {
            if r % 4 == 3 {
                continue;
            }
            let text = QUERIES[(s + r) % QUERIES.len()];
            let seed = seed_of(s, r);
            truths.insert(
                (s, r),
                (truth(&oracle_a, text, seed), truth(&oracle_b, text, seed)),
            );
        }
    }

    faults::arm(&FaultPlan::storm(0xdead_5eed, 200_000));

    std::thread::scope(|scope| {
        let serving = &serving;
        let truths = &truths;
        // Updater: toggles Coins between the two states for the duration of
        // the storm (exercising invalidation, and the absorb/patch
        // failpoints, which only drop pool state).
        scope.spawn(move || {
            for i in 0..toggles {
                let next = if i % 2 == 0 { coins_b() } else { coins_a() };
                serving
                    .update_relations([("Coins", URelation::from_complete(&next))])
                    .unwrap();
                std::thread::sleep(Duration::from_millis(2));
            }
        });
        for s in 0..sessions {
            scope.spawn(move || {
                let mut session = serving.session().with_retry_policy(RetryPolicy {
                    max_retries: 4,
                    base_backoff: Duration::from_micros(200),
                    max_backoff: Duration::from_millis(2),
                    jitter_seed: s as u64,
                });
                for r in 0..rounds {
                    let seed = seed_of(s, r);
                    let mut rng = ChaCha8Rng::seed_from_u64(seed);
                    // Every fourth round over-budgets the heavy query so the
                    // degraded bounds path runs under storm too.
                    let heavy = r % 4 == 3;
                    let request = if heavy {
                        Request::new(Q_HEAVY)
                            .with_deadline(Instant::now() + Duration::from_millis(10))
                    } else {
                        Request::new(QUERIES[(s + r) % QUERIES.len()])
                    };
                    match session.evaluate_degradable(&request, &mut rng) {
                        Ok(ServingAnswer::Full(out)) => {
                            // Heavy rounds cannot complete within their
                            // deadline; everything else must be
                            // bit-identical to a cold run over one of the
                            // two states with the same seed.
                            assert!(!heavy, "session {s} round {r}: heavy query finished");
                            let (a, b) = &truths[&(s, r)];
                            let matches_a =
                                out.result.relation == a.relation && out.result.errors == a.errors;
                            let matches_b =
                                out.result.relation == b.relation && out.result.errors == b.errors;
                            assert!(
                                matches_a || matches_b,
                                "session {s} round {r}: full answer matches neither \
                                 state's cold truth"
                            );
                        }
                        Ok(ServingAnswer::Degraded(d)) => {
                            assert!(matches!(
                                d.reason,
                                DegradedReason::DeadlineExpired | DegradedReason::QueueSaturated
                            ));
                            assert_eq!(d.bounds.len(), 2, "both coin tuples get bounds");
                            for (t, bounds) in &d.bounds {
                                let (pa, pb) = true_confidences(t);
                                assert!(
                                    (bounds.lower <= pa && pa <= bounds.upper)
                                        || (bounds.lower <= pb && pb <= bounds.upper),
                                    "session {s} round {r}: bounds [{}, {}] contain \
                                     neither state's true confidence ({pa}, {pb})",
                                    bounds.lower,
                                    bounds.upper
                                );
                            }
                        }
                        Err(e) => {
                            // Retries exhausted or a budget failed: the
                            // error must be classified — transient, or a
                            // stage-tagged deadline.
                            assert!(
                                e.is_transient()
                                    || matches!(e, EngineError::DeadlineExceeded { .. }),
                                "session {s} round {r}: unclassified error {e:?}"
                            );
                        }
                    }
                }
            });
        }
    });

    assert!(
        faults::injected_count() > 0,
        "the storm must actually inject faults"
    );
    faults::disarm();

    // Phase 2: storm cleared, database quiesced at state A.  Warm answers
    // must be bit-identical to a cold engine over state A — no stale or
    // quarantine-leaked pool state may influence a post-storm answer.
    serving
        .update_relations([("Coins", URelation::from_complete(&coins_a()))])
        .unwrap();
    let cold = ServingEngine::new(config, db_with(coins_a())).unwrap();
    for text in QUERIES {
        for seed in [3, 99] {
            let mut warm_rng = ChaCha8Rng::seed_from_u64(seed);
            let mut cold_rng = ChaCha8Rng::seed_from_u64(seed);
            let warm = serving.evaluate(text, &mut warm_rng).unwrap();
            let reference = cold.evaluate(text, &mut cold_rng).unwrap();
            assert_eq!(warm.result.relation, reference.result.relation);
            assert_eq!(warm.result.errors, reference.result.errors);
            assert_eq!(warm.database, reference.database);
        }
    }
}
