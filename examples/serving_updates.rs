//! Workload-level serving under updates: prepare a set of overlapping
//! queries, serve them warm from the cross-query snapshot pool, then commit
//! content changes and watch everything that did not touch the changed
//! relation stay at warm-path cost.  Every content change is committed as a
//! row delta: a *small* whole-relation replacement (`update_relations`)
//! patches the pooled sub-plan results in place, a replacement that rewrites
//! most of the relation demotes them for one selective re-warm, and an
//! explicit [`urel::RelationDelta`] (`apply_deltas`) takes the very same
//! path without the diff.
//!
//! Run with `cargo run --example serving_updates`.

use engine::{EvalConfig, ServingEngine};
use pdb::{Schema, Tuple, Value};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use urel::{UDatabase, URelation};

/// `Readings(Sensor, W)`: per-sensor reading candidates with weights (the
/// repair-key input that introduces uncertainty).
fn readings(rows: &[(i64, i64)]) -> URelation {
    let mut rel = pdb::Relation::empty(Schema::new(["Sensor", "W"]).expect("schema"));
    for &(sensor, w) in rows {
        let _ = rel.insert(Tuple::new(vec![Value::Int(sensor), Value::Int(w)]));
    }
    URelation::from_complete(&rel)
}

/// `Rooms(Sensor, Room)`: a deterministic dimension table (a pure join
/// side — no uncertainty flows through it).
fn rooms(rows: &[(i64, &str)]) -> URelation {
    let mut rel = pdb::Relation::empty(Schema::new(["Sensor", "Room"]).expect("schema"));
    for &(sensor, room) in rows {
        let _ = rel.insert(Tuple::new(vec![Value::Int(sensor), Value::str(room)]));
    }
    URelation::from_complete(&rel)
}

/// Prints what one commit did to the pool: the stats counters' growth since
/// `before` (demotions are charged to `subplans_invalidated` when the commit
/// arrived through `update_relations`, to `subplans_demoted` through
/// `apply_deltas`).
fn print_commit(serving: &ServingEngine, before: engine::ServingStats) {
    let s = serving.stats();
    println!(
        "  entries dropped: {}, sub-plans patched in place: {}, demoted: {}",
        s.snapshots_invalidated - before.snapshots_invalidated,
        s.subplans_patched - before.subplans_patched,
        (s.subplans_invalidated + s.subplans_demoted)
            - (before.subplans_invalidated + before.subplans_demoted)
    );
}

fn main() {
    let mut db = UDatabase::new();
    db.set_relation(
        "Readings",
        readings(&[(0, 3), (0, 1), (1, 2), (1, 2), (2, 1), (2, 4)]),
        true,
    );
    db.set_relation(
        "Rooms",
        rooms(&[
            (0, "lab"),
            (1, "lab"),
            (2, "office"),
            (3, "office"),
            (4, "attic"),
            (5, "attic"),
        ]),
        true,
    );

    // One server, several prepared queries sharing the same deterministic
    // prefix: repair-key over Readings joined with Rooms.  Only the
    // sampling suffix (the aconf accuracy) differs.
    let queries = [
        "aconf[0.30, 0.2](project[Room](join(repairkey[Sensor @ W](Readings), Rooms)))",
        "aconf[0.20, 0.1](project[Room](join(repairkey[Sensor @ W](Readings), Rooms)))",
        "aconf[0.10, 0.05](project[Room](join(repairkey[Sensor @ W](Readings), Rooms)))",
    ];
    let serving = ServingEngine::new(EvalConfig::default(), db).expect("serving engine builds");
    let mut rng = ChaCha8Rng::seed_from_u64(7);

    // 1. Prepare: the first query runs cold and pools the prefix; the other
    //    two resume it — their *first* evaluation is already warm.
    println!("— prepare —");
    for q in &queries {
        let out = serving.evaluate(q, &mut rng).expect("evaluation succeeds");
        println!("  {} rows for {q}", out.result.relation.len());
    }
    let s = serving.stats();
    println!(
        "  cold: {}, warm: {}, shared-prefix hits: {}, pooled prefixes: {}\n",
        s.cold_evaluations,
        s.warm_evaluations,
        s.shared_prefix_hits,
        serving.pooled_prefixes()
    );

    // 2. Steady state: every further request resumes at the sampling
    //    frontier (estimation-only cost).
    println!("— warm resume —");
    serving
        .evaluate(queries[0], &mut rng)
        .expect("warm evaluation");
    println!(
        "  warm evaluations so far: {}\n",
        serving.stats().warm_evaluations
    );

    // 3. Small replacement: sensor 2 moves to the hallway.  `Rooms` feeds
    //    only pure sub-plans (the repair-key spine reads `Readings`), so the
    //    pooled prefix entry survives; the replacement amounts to a
    //    two-row delta, so the Rooms scan, the join and the projection are
    //    patched in place and the next request recomputes nothing.
    println!("— replace Rooms, one row changed (pure join side) —");
    let moved = rooms(&[
        (0, "lab"),
        (1, "lab"),
        (2, "hallway"),
        (3, "office"),
        (4, "attic"),
        (5, "attic"),
    ]);
    let before = serving.stats();
    serving
        .update_relations([("Rooms", moved)])
        .expect("content update applies");
    print_commit(&serving, before);
    serving
        .evaluate(queries[0], &mut rng)
        .expect("patched warm evaluation");
    assert_eq!(
        serving.stats().subplans_recomputed,
        0,
        "a patched prefix resumes without recomputing anything"
    );
    println!("  next request recomputed nothing\n");

    // 4. Large replacement: every room is renamed.  The net delta rewrites
    //    the whole relation — patching would cost more than recomputing —
    //    so the Rooms-scanning sub-plans are demoted instead.  The next
    //    evaluation is still warm: it recomputes exactly the demoted
    //    join/projection over the new Rooms content, pools the fresh
    //    results, and keeps the repair-key variables untouched.  Further
    //    requests recompute nothing.
    println!("— replace Rooms, every row changed —");
    let renamed = rooms(&[
        (0, "B1.lab"),
        (1, "B1.lab"),
        (2, "B1.hallway"),
        (3, "B2.office"),
        (4, "B2.attic"),
        (5, "B2.attic"),
    ]);
    let before = serving.stats();
    serving
        .update_relations([("Rooms", renamed.clone())])
        .expect("content update applies");
    print_commit(&serving, before);
    println!("— selective re-warm —");
    let out = serving
        .evaluate(queries[0], &mut rng)
        .expect("re-warmed evaluation");
    for row in out.result.relation.iter() {
        println!("  {}", row.tuple);
    }
    let s = serving.stats();
    println!(
        "  cold: {}, warm: {}, sub-plans recomputed: {}",
        s.cold_evaluations, s.warm_evaluations, s.subplans_recomputed
    );
    serving
        .evaluate(queries[0], &mut rng)
        .expect("fully warm again");
    assert_eq!(
        serving.stats().subplans_recomputed,
        s.subplans_recomputed,
        "second evaluation after the re-warm recomputes nothing"
    );
    println!(
        "  …and the next request recomputes nothing (warm: {})\n",
        serving.stats().warm_evaluations
    );

    // 5. Explicit delta: sensor 1 moves to the office.  A caller that
    //    already knows the row edit ships it as a `RelationDelta` and skips
    //    the diff; the commit is the same one step 3 took — the Rooms scan,
    //    the join and the projection are patched in place (incremental
    //    operator rules), at cost proportional to the one-row change.
    println!("— delta update (one row of Rooms) —");
    let old = serving
        .database()
        .relation("Rooms")
        .expect("Rooms exists")
        .clone();
    let mut new = renamed;
    new.remove_row(
        &rooms(&[(1, "B1.lab")])
            .iter()
            .next()
            .expect("one row")
            .clone(),
    );
    new.absorb(rooms(&[(1, "B2.office")]));
    let delta = old.diff(&new).expect("same schema");
    println!(
        "  shipping Δ(+{} −{} rows)",
        delta.inserted().len(),
        delta.deleted().len()
    );
    let before = serving.stats();
    serving
        .apply_deltas([("Rooms", delta)])
        .expect("delta applies");
    print_commit(&serving, before);
    let s = serving.stats();
    let out = serving
        .evaluate(queries[0], &mut rng)
        .expect("patched warm evaluation");
    for row in out.result.relation.iter() {
        println!("  {}", row.tuple);
    }
    assert_eq!(
        serving.stats().subplans_recomputed,
        s.subplans_recomputed,
        "a patched prefix resumes without recomputing anything"
    );
    println!(
        "  cold: {}, warm: {} — the patched prefix resumed with zero recomputation",
        serving.stats().cold_evaluations,
        serving.stats().warm_evaluations
    );
}
