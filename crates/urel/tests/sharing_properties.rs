//! Property tests for the shared, copy-on-write representation of relation,
//! W-table and database content: sharing is invisible to everything but
//! `shares_content`, and an edit through a clone never reaches the value it
//! was cloned from.

use pdb::{Schema, Tuple, Value};
use proptest::prelude::*;
use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};
use urel::{segment, Condition, UDatabase, URelation, URow, Var, WTable};

/// A random row over the schema `(A, B)`, conditioned on at most one of three
/// variables.
fn arb_row() -> impl Strategy<Value = URow> {
    (0usize..4, 0i64..2, 0i64..5, 0i64..3).prop_map(|(var, alt, a, b)| {
        let condition = match var {
            3 => Condition::always(),
            v => Condition::new([(Var::new(format!("x{v}")), Value::Int(alt))]).unwrap(),
        };
        URow {
            condition,
            tuple: Tuple::new(vec![Value::Int(a), Value::Int(b)]),
        }
    })
}

/// One call of a `&mut self` method of [`URelation`].
#[derive(Clone, Debug)]
enum Edit {
    Insert(URow),
    Remove(URow),
    Absorb(Vec<URow>),
}

fn arb_edit() -> impl Strategy<Value = Edit> {
    (
        0usize..3,
        arb_row(),
        proptest::collection::vec(arb_row(), 0..4),
    )
        .prop_map(|(kind, row, rows)| match kind {
            0 => Edit::Insert(row),
            1 => Edit::Remove(row),
            _ => Edit::Absorb(rows),
        })
}

/// Builds a relation row by row — its own allocation, whatever else exists.
fn built(rows: &[URow]) -> URelation {
    let mut rel = URelation::empty(Schema::new(["A", "B"]).unwrap());
    for row in rows {
        rel.insert(row.condition.clone(), row.tuple.clone())
            .unwrap();
    }
    rel
}

fn apply(rel: &mut URelation, edit: &Edit) {
    match edit {
        Edit::Insert(row) => {
            rel.insert(row.condition.clone(), row.tuple.clone())
                .unwrap();
        }
        Edit::Remove(row) => {
            rel.remove_row(row);
        }
        Edit::Absorb(rows) => rel.absorb(built(rows)),
    }
}

fn hash_of(value: &impl Hash) -> u64 {
    let mut hasher = DefaultHasher::new();
    value.hash(&mut hasher);
    hasher.finish()
}

fn relation_bytes(rel: &URelation) -> Vec<u8> {
    let mut bytes = Vec::new();
    segment::put_relation(&mut bytes, rel);
    bytes
}

fn wtable_bytes(w: &WTable) -> Vec<u8> {
    let mut bytes = Vec::new();
    segment::put_wtable(&mut bytes, w);
    bytes
}

/// A W-table declaring `x0 … x{n-1}`, variable `i` with `arities[i]`
/// equiprobable alternatives.
fn wtable_of(arities: &[usize]) -> WTable {
    let mut w = WTable::new();
    for (i, &arity) in arities.iter().enumerate() {
        let dist = (0..arity).map(|j| (Value::Int(j as i64), 1.0 / arity as f64));
        w.add_variable(Var::new(format!("x{i}")), dist).unwrap();
    }
    w
}

/// One call of a `&mut self` method of [`UDatabase`].  Relation names index
/// [`NAMES`] (`T` is not in the database until a `Set` adds it); variables
/// `x0`–`x2` are declared, `x3` and `x4` not until an edit declares them.
#[derive(Clone, Debug)]
enum DbEdit {
    Set(usize, Vec<URow>),
    Replace(usize, Vec<URow>),
    /// A delta from the relation's current content to these rows.
    Delta(usize, Vec<URow>),
    /// A delta derived against other content: rejected as stale unless the
    /// two happen to agree.
    StaleDelta(usize, Vec<URow>, Vec<URow>),
    AddVariable(usize),
    WTableAddVariable(usize),
}

const NAMES: [&str; 3] = ["R", "S", "T"];

fn arb_db_edit() -> impl Strategy<Value = DbEdit> {
    let rows = || proptest::collection::vec(arb_row(), 0..4);
    (0usize..6, 0usize..3, rows(), rows(), 0usize..5).prop_map(|(kind, name, a, b, var)| match kind
    {
        0 => DbEdit::Set(name, a),
        1 => DbEdit::Replace(name, a),
        2 => DbEdit::Delta(name, a),
        3 => DbEdit::StaleDelta(name, a, b),
        4 => DbEdit::AddVariable(var),
        _ => DbEdit::WTableAddVariable(var),
    })
}

/// `R` uncertain over `x0`–`x2`, `S` complete (the rows' tuples, no
/// conditions) — built from scratch, sharing nothing with any other value.
fn database(r: &[URow], s: &[URow]) -> UDatabase {
    let mut db = UDatabase::new();
    for i in 0..3 {
        let dist = [(Value::Int(0), 0.5), (Value::Int(1), 0.5)];
        db.add_variable(Var::new(format!("x{i}")), dist).unwrap();
    }
    let complete: Vec<URow> = s
        .iter()
        .map(|row| URow {
            condition: Condition::always(),
            tuple: row.tuple.clone(),
        })
        .collect();
    db.set_relation("R", built(r), false);
    db.set_relation("S", built(&complete), true);
    db
}

/// Applies `edit`, returning whether it succeeded and which part of the
/// database it replaced: a relation's name, or `None` for the W-table.
fn apply_db(db: &mut UDatabase, edit: &DbEdit) -> (bool, Option<&'static str>) {
    let declare = |db: &mut UDatabase, var: usize, through_wtable: bool| {
        let var = Var::new(format!("x{var}"));
        let dist = [(Value::Int(0), 1.0)];
        let ok = if through_wtable {
            db.wtable_mut().add_variable(var, dist).is_ok()
        } else {
            db.add_variable(var, dist).is_ok()
        };
        (ok, None)
    };
    match edit {
        DbEdit::Set(name, rows) => {
            db.set_relation(NAMES[*name], built(rows), false);
            (true, Some(NAMES[*name]))
        }
        DbEdit::Replace(name, rows) => {
            let ok = db.replace_relation(NAMES[*name], built(rows)).is_ok();
            (ok, Some(NAMES[*name]))
        }
        DbEdit::Delta(name, rows) => {
            let Ok(current) = db.relation(NAMES[*name]) else {
                return (false, None);
            };
            let delta = current.diff(&built(rows)).unwrap();
            (
                db.apply_delta(NAMES[*name], &delta).is_ok(),
                Some(NAMES[*name]),
            )
        }
        DbEdit::StaleDelta(name, base, rows) => {
            let delta = built(base).diff(&built(rows)).unwrap();
            (
                db.apply_delta(NAMES[*name], &delta).is_ok(),
                Some(NAMES[*name]),
            )
        }
        DbEdit::AddVariable(var) => declare(db, *var, false),
        DbEdit::WTableAddVariable(var) => declare(db, *var, true),
    }
}

/// Everything observable of a database's content as one byte string: per
/// relation its name, completeness, content digest and segment bytes, then
/// the W-table's segment bytes.
fn database_bytes(db: &UDatabase) -> Vec<u8> {
    let mut bytes = Vec::new();
    for name in db.relation_names() {
        let rel = db.relation(&name).unwrap();
        let (a, b, rows) = rel.content_digest();
        segment::put_str(&mut bytes, &name);
        segment::put_u8(&mut bytes, u8::from(db.is_complete(&name)));
        for word in [a, b, rows as u64] {
            segment::put_u64(&mut bytes, word);
        }
        segment::put_relation(&mut bytes, rel);
    }
    segment::put_wtable(&mut bytes, db.wtable());
    bytes
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 96, .. ProptestConfig::default() })]

    /// Editing a clone through every `&mut` method leaves the original equal
    /// to an independently rebuilt copy, and the clone equal to the same
    /// edits applied to an independently built relation.
    #[test]
    fn relation_edits_through_a_clone_never_reach_the_original(
        rows in proptest::collection::vec(arb_row(), 0..12),
        edits in proptest::collection::vec(arb_edit(), 1..8),
    ) {
        let original = built(&rows);
        let mut clone = original.clone();
        prop_assert!(clone.shares_content(&original));
        let mut independent = built(&rows);
        prop_assert!(!independent.shares_content(&original));
        for (i, edit) in edits.iter().enumerate() {
            apply(&mut clone, edit);
            apply(&mut independent, edit);
            // The first write copied the shared rows (an empty relation
            // absorbing another takes *its* rows instead).
            prop_assert!(!clone.shares_content(&original), "edit {i}: {edit:?}");
            prop_assert_eq!(&clone, &independent);
        }
        prop_assert_eq!(&original, &built(&rows));
        prop_assert_eq!(original.content_digest(), built(&rows).content_digest());
        prop_assert_eq!(relation_bytes(&clone), relation_bytes(&independent));
    }

    /// A shared relation and its row-by-row rebuild agree on everything
    /// observable: equality, order (also against third relations), hash,
    /// content digest, byte weight and segment bytes.
    #[test]
    fn shared_and_rebuilt_relations_are_indistinguishable(
        rows in proptest::collection::vec(arb_row(), 0..12),
        other in proptest::collection::vec(arb_row(), 0..12),
    ) {
        let original = built(&rows);
        let shared = original.clone();
        let rebuilt = built(&rows);
        let other = built(&other);
        prop_assert!(shared.shares_content(&original) && !rebuilt.shares_content(&original));
        prop_assert_eq!(&shared, &rebuilt);
        prop_assert_eq!(shared.cmp(&rebuilt), std::cmp::Ordering::Equal);
        prop_assert_eq!(shared.cmp(&other), rebuilt.cmp(&other));
        prop_assert_eq!(shared == other, rebuilt == other);
        prop_assert_eq!(hash_of(&shared), hash_of(&rebuilt));
        prop_assert_eq!(shared.content_digest(), rebuilt.content_digest());
        prop_assert_eq!(shared.approx_bytes(), rebuilt.approx_bytes());
        prop_assert_eq!(relation_bytes(&shared), relation_bytes(&rebuilt));
        // Partitions and deltas built from a shared relation share nothing
        // with it.
        for part in shared.partition(3) {
            prop_assert!(part.is_empty() || !part.shares_content(&original));
        }
        let delta = shared.diff(&other).unwrap();
        prop_assert_eq!(&delta.apply_to(&shared).unwrap(), &other);
        prop_assert_eq!(&original, &rebuilt);
    }

    /// The same for W-tables: declaring into a clone (directly, as a Boolean
    /// variable, or by a merge) copies once and leaves the original alone.
    #[test]
    fn wtable_edits_through_a_clone_never_reach_the_original(
        arities in proptest::collection::vec(2usize..4, 0..5),
        extra in proptest::collection::vec(2usize..4, 1..4),
        kind in 0usize..3,
    ) {
        let original = wtable_of(&arities);
        let rebuilt = wtable_of(&arities);
        let mut clone = original.clone();
        prop_assert!(clone.shares_content(&original));
        prop_assert!(!rebuilt.shares_content(&original));
        prop_assert_eq!(&clone, &rebuilt);
        prop_assert_eq!(wtable_bytes(&clone), wtable_bytes(&rebuilt));

        let mut independent = wtable_of(&arities);
        for w in [&mut clone, &mut independent] {
            match kind {
                0 => w.add_variable(Var::new("fresh"), [(Value::Int(0), 1.0)]).unwrap(),
                1 => w.add_bool_variable(Var::new("fresh"), 0.25).unwrap(),
                _ => {
                    // Declares the variables past the shared ones.
                    let mut all = arities.clone();
                    all.extend(&extra);
                    w.merge(&wtable_of(&all)).unwrap();
                }
            }
        }
        prop_assert!(!clone.shares_content(&original));
        prop_assert_eq!(&clone, &independent);
        prop_assert_eq!(wtable_bytes(&clone), wtable_bytes(&independent));
        prop_assert!(clone.num_variables() > original.num_variables());
        prop_assert_eq!(&original, &rebuilt);
        prop_assert_eq!(wtable_bytes(&original), wtable_bytes(&rebuilt));
        // A rejected declaration changes nothing either.
        let mut again = original.clone();
        if let Some(var) = original.variables().first() {
            prop_assert!(again.add_variable(var.clone(), [(Value::Int(0), 1.0)]).is_err());
            prop_assert!(again.shares_content(&original));
        }
        prop_assert_eq!(&again, &rebuilt);
    }

    /// A database clone shares every relation and the W-table with the
    /// original.  Edits through any `&mut` method of the clone — rejected
    /// ones included — never change the original's equality, content
    /// digests or segment bytes, match the same edits on an independently
    /// built database, and end the sharing of exactly the part they
    /// replaced.
    #[test]
    fn database_clones_share_content_and_edits_stay_private(
        r in proptest::collection::vec(arb_row(), 0..12),
        s in proptest::collection::vec(arb_row(), 0..12),
        edits in proptest::collection::vec(arb_db_edit(), 1..8),
    ) {
        let original = database(&r, &s);
        let bytes = database_bytes(&original);
        let mut clone = original.clone();
        prop_assert!(clone.wtable().shares_content(original.wtable()));
        for name in original.relation_names() {
            let (a, b) = (clone.relation(&name).unwrap(), original.relation(&name).unwrap());
            prop_assert!(a.shares_content(b), "{name}");
        }
        let mut independent = database(&r, &s);
        let mut edited = std::collections::BTreeSet::new();
        let mut wtable_edited = false;
        for (i, edit) in edits.iter().enumerate() {
            let (ok, part) = apply_db(&mut clone, edit);
            prop_assert_eq!(apply_db(&mut independent, edit), (ok, part), "edit {}: {:?}", i, edit);
            prop_assert_eq!(&clone, &independent, "edit {}: {:?}", i, edit);
            match (ok, part) {
                (true, Some(name)) => {
                    edited.insert(name);
                }
                (true, None) => wtable_edited = true,
                (false, _) => {}
            }
            prop_assert_eq!(&original, &database(&r, &s), "edit {}: {:?}", i, edit);
            prop_assert_eq!(&database_bytes(&original), &bytes, "edit {}: {:?}", i, edit);
            prop_assert_eq!(
                clone.wtable().shares_content(original.wtable()),
                !wtable_edited,
                "edit {}: {:?}", i, edit
            );
            for name in original.relation_names() {
                let (a, b) = (clone.relation(&name).unwrap(), original.relation(&name).unwrap());
                prop_assert_eq!(
                    a.shares_content(b),
                    !edited.contains(name.as_str()),
                    "{} after edit {}: {:?}", name, i, edit
                );
            }
        }
    }
}
