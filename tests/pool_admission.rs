//! Snapshot-pool admission: while the pool holds fewer than its eager
//! budget of sub-plan results it pools every capture, past the budget only
//! spines and results seen before.  A stream of never-repeated texts
//! therefore stops growing the pool (and never wipes it), a repeated text
//! is pooled on its second sighting, a shared spine stays pooled while its
//! one-off pure tails are not, and a slot a commit demoted re-absorbs on
//! its first recompute.  A spine-free result — a pure one with no stateful
//! node below it — lives in one store every spine shares: a cold start of
//! a new spine resumes from it, and a commit patches it once or drops it.
//! Pooling changes cost only: every warm answer here is also checked
//! bit-for-bit against a one-shot `UEngine` run.

use engine::{EvalConfig, ServingEngine, UEngine};
use pdb::{Schema, Tuple, Value};
use rand::{RngCore, SeedableRng};
use rand_chacha::ChaCha8Rng;
use urel::{Condition, UDatabase, URelation, Var};

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

/// A never-repeated tail with no stateful node at all: `join(S, L)` is
/// stored once, the selection and `poss` above it are new per text, and
/// every such text shares the one empty spine.
fn spine_free_tail(i: usize) -> String {
    format!("poss(select[L >= 2.{i:08}](join(S, L)))")
}

/// `T(Id, A, B)`: twelve edges over six nodes, edge `i` present with its own
/// Boolean variable `t{i}` — `cold_adhoc`'s path relation in small.  Each
/// edge runs `shift + i / 6` nodes ahead (mod 6), never to its own node.
fn edges(shift: i64) -> URelation {
    let mut t = URelation::empty(Schema::new(["Id", "A", "B"]).unwrap());
    for i in 0..12i64 {
        let (a, b) = (i % 6, (i % 6 + shift + i / 6) % 6);
        let cond = Condition::new([(Var::new(format!("t{i}")), Value::Bool(true))]).unwrap();
        let tuple = Tuple::new(vec![Value::Int(i), Value::Int(a), Value::Int(b)]);
        t.insert(cond, tuple).unwrap();
    }
    t
}

/// A server over `edges(1)`.
fn path_serving() -> ServingEngine {
    let mut db = UDatabase::new();
    for i in 0..12 {
        let p = 0.1 + 0.07 * f64::from(i);
        (db.wtable_mut()
            .add_bool_variable(Var::new(format!("t{i}")), p))
        .unwrap();
    }
    db.set_relation("T", edges(1), false);
    ServingEngine::new(EvalConfig::default(), db).unwrap()
}

/// The two-step path join over `T`: spine-free, so one stored result
/// serves every spine above it.
const PATH: &str = "join(project[A, B](T), project[B, C](rename[A -> B](rename[B -> C](T))))";

/// An exact `conf` over a selected path join (`cold_adhoc`'s shape-2
/// form): the constant is part of the exact `conf` root, so every `c`
/// makes a new stateful spine — and a cold start.
fn path_conf(c: usize) -> String {
    format!("conf(project[A, B](select[C >= {c}]({PATH})))")
}

/// Sub-plan results one `path_conf` adds to an empty pool: the join and the
/// four nodes below it (the store), and the `conf` (its entry).  The `conf`
/// reads the selection and projection through its fused chain, so neither
/// is ever computed as a relation, let alone stored.
const PATH_CONF_RESULTS: usize = 6;

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
    // The spine-free tail stores its join, selection and `poss`, and pools
    // the empty spine they share.
    eval(&serving, &spine_free_tail(0), 0);
    let per_tail = serving.pooled_subplans() - per_entry;
    assert_eq!(per_tail, 3);
    let mut prefixes = serving.pooled_prefixes();
    for i in 1..2 * POOL_CAP {
        for text in [one_off(i), spine_free_tail(i)] {
            eval(&serving, &text, i as u64);
            let now = serving.pooled_prefixes();
            assert!(now >= prefixes, "request {i} wiped the pool");
            prefixes = now;
            let pooled = serving.pooled_subplans();
            assert!(
                pooled <= EAGER_SUBPLANS + per_entry.max(per_tail),
                "{pooled} pooled results after {i} rounds of one-off requests"
            );
        }
    }
    println!(
        "one-off stream: pooled_prefixes {} pooled_subplans {}",
        serving.pooled_prefixes(),
        serving.pooled_subplans()
    );
    // Every spine-free tail after the first resumes the pooled empty spine
    // and the stored join, and runs its own selection and `poss`.
    let stats = serving.stats();
    assert_eq!(stats.cold_evaluations, 2 * POOL_CAP as u64 + 1);
    assert_eq!(stats.warm_evaluations, 2 * POOL_CAP as u64 - 1);
    assert_matches_one_shot(&serving, &spine_free_tail(2 * POOL_CAP), 0);
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

    // Rewriting most of `L` crosses the patch-worthiness bound: the join
    // and projection over it are demoted (the scan is the served relation,
    // never pooled), the entry survives.
    let cold = serving.stats().cold_evaluations;
    let old = serving.database().relation("L").unwrap().clone();
    let new = complete(["K", "L"], (0..40).map(|i| (i % 6, 1000 + i)));
    let delta = old.diff(&new).unwrap();
    serving.apply_deltas([("L", delta)]).unwrap();
    let stats = serving.stats();
    assert_eq!(stats.snapshots_invalidated, 0);
    assert_eq!(stats.subplans_demoted, 2, "join + project");
    assert_eq!(serving.pooled_subplans(), pooled - 2);

    // The first warm resume recomputes them and — sighted when first
    // pooled — they are admitted again although the pool is past its
    // budget: the next resume recomputes nothing.
    assert_matches_one_shot(&serving, text, 2);
    let recomputed = serving.stats().subplans_recomputed;
    assert_eq!(recomputed, 2);
    assert_eq!(serving.pooled_subplans(), pooled);
    assert_matches_one_shot(&serving, text, 3);
    let stats = serving.stats();
    assert_eq!(stats.subplans_recomputed, recomputed);
    assert_eq!(stats.cold_evaluations, cold, "warm throughout");
}

#[test]
fn a_cold_start_resumes_the_join_another_spine_stored() {
    let serving = path_serving();
    eval(&serving, &path_conf(1), 1);
    assert_eq!(serving.pooled_subplans(), PATH_CONF_RESULTS);
    // A second constant is a second spine, so a cold start — which finds
    // the join stored: it adds its own `conf`, and no second copy of the
    // join or anything below it.
    assert_matches_one_shot(&serving, &path_conf(2), 2);
    assert_eq!(serving.pooled_subplans(), PATH_CONF_RESULTS + 1);
    let stats = serving.stats();
    assert_eq!((stats.cold_evaluations, stats.warm_evaluations), (2, 0));
}

#[test]
fn a_row_delta_patches_the_stored_join_once_and_the_next_spine_resumes_it() {
    let serving = path_serving();
    eval(&serving, &path_conf(1), 1);
    let old = serving.database().relation("T").unwrap().clone();
    let mut new = old.clone();
    assert!(new.remove_row(&old.iter().next().unwrap().clone()));
    serving
        .apply_deltas([("T", old.diff(&new).unwrap())])
        .unwrap();
    // The first text's `conf` reads `T`: its entry drops.  Its stored
    // results — the join and the four nodes below it — are patched once
    // each and re-stored against the new `T`.
    let stats = serving.stats();
    assert_eq!(stats.snapshots_invalidated, 1);
    assert_eq!(stats.subplans_patched, PATH_CONF_RESULTS as u64 - 1);
    assert_eq!(stats.subplans_demoted, 0);
    assert_eq!(serving.pooled_subplans(), PATH_CONF_RESULTS - 1);

    assert_matches_one_shot(&serving, &path_conf(2), 2);
    assert_eq!(serving.pooled_subplans(), PATH_CONF_RESULTS - 1 + 1);
    let stats = serving.stats();
    assert_eq!((stats.cold_evaluations, stats.warm_evaluations), (2, 0));
}

#[test]
fn a_replacement_drops_the_stored_join_and_the_next_spine_recomputes_it() {
    let serving = path_serving();
    eval(&serving, &path_conf(1), 1);
    // Every edge rewired: the net delta rewrites all of `T`, past the
    // patch-worthiness bound, so every stored result over `T` drops.
    serving.update_relations([("T", edges(2))]).unwrap();
    let stats = serving.stats();
    assert_eq!(stats.snapshots_invalidated, 1);
    assert_eq!(stats.subplans_patched, 0);
    assert_eq!(stats.subplans_invalidated, PATH_CONF_RESULTS as u64 - 1);
    assert_eq!(serving.pooled_subplans(), 0);

    // The second text recomputes the join from the new `T` and stores it.
    assert_matches_one_shot(&serving, &path_conf(2), 2);
    assert_eq!(serving.pooled_subplans(), PATH_CONF_RESULTS);
    let stats = serving.stats();
    assert_eq!((stats.cold_evaluations, stats.warm_evaluations), (2, 0));
}
