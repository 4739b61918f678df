//! Snapshot-pool admission: while the pool holds fewer than its eager
//! budget of sub-plan results it pools every capture, past the budget only
//! spines and slots seen before.  A stream of never-repeated texts
//! therefore stops growing the pool (and never wipes it), a repeated text
//! is pooled on its second sighting, a shared spine stays pooled while its
//! one-off pure tails are not, and a slot a commit demoted re-absorbs on
//! its first recompute.  Pooling changes cost only: every warm answer here
//! is also checked bit-for-bit against a one-shot `UEngine` run.

use engine::{EvalConfig, ServingEngine, UEngine};
use pdb::{Schema, Tuple, Value};
use rand::{RngCore, SeedableRng};
use rand_chacha::ChaCha8Rng;
use urel::{UDatabase, URelation};

/// The engine's `POOL_CAP`: pooled prefix entries at which the pool is
/// wiped wholesale.
const POOL_CAP: usize = 256;
/// The engine's `EAGER_SUBPLANS`: pooled sub-plan results below which a
/// first sighting is admitted.
const EAGER_SUBPLANS: usize = 256;

fn complete(columns: [&str; 2], rows: impl IntoIterator<Item = (i64, i64)>) -> URelation {
    let mut rel = pdb::Relation::empty(Schema::new(columns).unwrap());
    for (a, b) in rows {
        rel.insert(Tuple::new(vec![Value::Int(a), Value::Int(b)]))
            .unwrap();
    }
    URelation::from_complete(&rel)
}

/// `R(K, W)` feeds `repairkey`, `S(K, B)` and `L(K, L)` are pure join sides.
fn serving() -> ServingEngine {
    let mut db = UDatabase::new();
    let r = (0..6).flat_map(|k| [(k, 1 + k % 3), (k, 2)]);
    db.set_relation("R", complete(["K", "W"], r), true);
    db.set_relation("S", complete(["K", "B"], (0..6).map(|k| (k, k % 3))), true);
    db.set_relation("L", complete(["K", "L"], (0..40).map(|i| (i % 6, i))), true);
    ServingEngine::new(EvalConfig::default(), db).unwrap()
}

/// A never-repeated exact join `conf` (`cold_adhoc`'s shape-1 form): the
/// selection below `repairkey` makes a new stateful spine per text.
fn one_off(i: usize) -> String {
    format!("conf(project[B](join(repairkey[K @ W](select[K >= 2.{i:08}](R)), S)))")
}

/// A never-repeated pure tail over one shared spine (`cold_adhoc`'s shape-3
/// form): `repairkey(R) ⋈ S` is pooled once, the selection above it is new.
fn shared_tail(i: usize) -> String {
    format!("aconf[0.3, 0.2](project[B](select[K >= 2.{i:08}](join(repairkey[K @ W](R), S))))")
}

fn eval(serving: &ServingEngine, text: &str, seed: u64) {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    serving.evaluate(text, &mut rng).unwrap();
}

/// Evaluates one-off texts until the pool holds its eager budget, which
/// takes far fewer than `POOL_CAP` of them.
fn fill_to_budget(serving: &ServingEngine) {
    for i in 0..POOL_CAP {
        if serving.pooled_subplans() >= EAGER_SUBPLANS {
            return;
        }
        eval(serving, &one_off(i), i as u64);
    }
    panic!("{POOL_CAP} one-off texts left the pool below its eager budget");
}

/// Evaluates `text` through the pool and directly with a cold `UEngine`
/// from the same seed: same answer, statistics, database and RNG position.
fn assert_matches_one_shot(serving: &ServingEngine, text: &str, seed: u64) {
    let mut pooled_rng = ChaCha8Rng::seed_from_u64(seed);
    let pooled = serving.evaluate(text, &mut pooled_rng).unwrap();
    let query = algebra::parse_query(text).unwrap();
    let mut direct_rng = ChaCha8Rng::seed_from_u64(seed);
    let direct = UEngine::new(EvalConfig::default())
        .evaluate(&serving.database(), &query, &mut direct_rng)
        .unwrap();
    assert_eq!(pooled.result.relation, direct.result.relation);
    assert_eq!(pooled.result.errors, direct.result.errors);
    assert_eq!(pooled.stats, direct.stats);
    assert_eq!(pooled.database, direct.database);
    assert_eq!(pooled_rng.next_u64(), direct_rng.next_u64(), "RNG position");
}

#[test]
fn never_repeated_texts_stop_at_the_budget_and_never_wipe_the_pool() {
    let serving = serving();
    eval(&serving, &one_off(0), 0);
    let per_entry = serving.pooled_subplans();
    assert!(per_entry > 0);
    let mut prefixes = serving.pooled_prefixes();
    for i in 1..2 * POOL_CAP {
        eval(&serving, &one_off(i), i as u64);
        let now = serving.pooled_prefixes();
        assert!(now >= prefixes, "request {i} wiped the pool");
        prefixes = now;
        let pooled = serving.pooled_subplans();
        assert!(
            pooled <= EAGER_SUBPLANS + per_entry,
            "{pooled} pooled results after {i} one-off requests"
        );
    }
    println!(
        "one-off stream: pooled_prefixes {} pooled_subplans {}",
        serving.pooled_prefixes(),
        serving.pooled_subplans()
    );
    let stats = serving.stats();
    assert_eq!(stats.cold_evaluations, 2 * POOL_CAP as u64);
    assert_eq!(stats.warm_evaluations, 0);
}

#[test]
fn past_the_budget_a_spine_is_pooled_on_its_second_sighting() {
    let serving = serving();
    fill_to_budget(&serving);
    let text = "aconf[0.3, 0.2](project[B](join(repairkey[K @ W](select[K >= 3](R)), S)))";
    let prefixes = serving.pooled_prefixes();

    eval(&serving, text, 1);
    assert_eq!(
        serving.pooled_prefixes(),
        prefixes,
        "first sighting declined"
    );
    eval(&serving, text, 2);
    assert_eq!(
        serving.pooled_prefixes(),
        prefixes + 1,
        "second sighting pooled"
    );
    let stats = serving.stats();
    assert_eq!(stats.warm_evaluations, 0);

    assert_matches_one_shot(&serving, text, 3);
    let after = serving.stats();
    assert_eq!(after.warm_evaluations, stats.warm_evaluations + 1);
    assert_eq!(after.cold_evaluations, stats.cold_evaluations);
}

#[test]
fn a_shared_spine_stays_pooled_while_its_one_off_tails_do_not() {
    let serving = serving();
    eval(&serving, &shared_tail(0), 0);
    fill_to_budget(&serving);
    let pooled = serving.pooled_subplans();
    for i in 1..=64 {
        let hits = serving.stats().shared_prefix_hits;
        assert_matches_one_shot(&serving, &shared_tail(i), i as u64);
        assert_eq!(serving.stats().shared_prefix_hits, hits + 1, "request {i}");
        assert_eq!(serving.pooled_subplans(), pooled, "request {i}");
    }
}

#[test]
fn a_demoted_slot_reabsorbs_on_its_first_recompute() {
    let serving = serving();
    let text = "aconf[0.3, 0.1](project[L](join(repairkey[K @ W](R), L)))";
    eval(&serving, text, 1);
    fill_to_budget(&serving);
    let pooled = serving.pooled_subplans();
    assert!(pooled >= EAGER_SUBPLANS);

    // Rewriting most of `L` crosses the patch-worthiness bound: the scan,
    // join and projection over it are demoted, the entry survives.
    let cold = serving.stats().cold_evaluations;
    let old = serving.database().relation("L").unwrap().clone();
    let new = complete(["K", "L"], (0..40).map(|i| (i % 6, 1000 + i)));
    let delta = old.diff(&new).unwrap();
    serving.apply_deltas([("L", delta)]).unwrap();
    let stats = serving.stats();
    assert_eq!(stats.snapshots_invalidated, 0);
    assert_eq!(stats.subplans_demoted, 3, "scan + join + project");
    assert_eq!(serving.pooled_subplans(), pooled - 3);

    // The first warm resume recomputes them and — sighted when first
    // pooled — they are admitted again although the pool is past its
    // budget: the next resume recomputes nothing.
    assert_matches_one_shot(&serving, text, 2);
    let recomputed = serving.stats().subplans_recomputed;
    assert_eq!(recomputed, 3);
    assert_eq!(serving.pooled_subplans(), pooled);
    assert_matches_one_shot(&serving, text, 3);
    let stats = serving.stats();
    assert_eq!(stats.subplans_recomputed, recomputed);
    assert_eq!(stats.cold_evaluations, cold, "warm throughout");
}
