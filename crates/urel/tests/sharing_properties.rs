//! Property tests for the shared, copy-on-write representation of relation
//! and W-table content: sharing is invisible to everything but
//! `shares_content`, and an edit through a clone never reaches the value it
//! was cloned from.

use pdb::{Schema, Tuple, Value};
use proptest::prelude::*;
use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};
use urel::{segment, Condition, URelation, URow, Var, WTable};

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

proptest! {
    #![proptest_config(ProptestConfig { cases: 96, .. ProptestConfig::default() })]

    /// Editing a clone through every `&mut` method leaves the original equal
    /// to an independently rebuilt copy, and the clone equal to the same
    /// edits applied to an unshared relation.
    #[test]
    fn relation_edits_through_a_clone_never_reach_the_original(
        rows in proptest::collection::vec(arb_row(), 0..12),
        edits in proptest::collection::vec(arb_edit(), 1..8),
    ) {
        let original = built(&rows);
        let mut clone = original.clone();
        prop_assert!(clone.shares_content(&original));
        let mut unshared = built(&rows);
        prop_assert!(!unshared.shares_content(&original));
        for (i, edit) in edits.iter().enumerate() {
            apply(&mut clone, edit);
            apply(&mut unshared, edit);
            // The first write copied the shared rows (an empty relation
            // absorbing another takes *its* rows instead).
            prop_assert!(!clone.shares_content(&original), "edit {i}: {edit:?}");
            prop_assert_eq!(&clone, &unshared);
        }
        prop_assert_eq!(&original, &built(&rows));
        prop_assert_eq!(original.content_digest(), built(&rows).content_digest());
        prop_assert_eq!(relation_bytes(&clone), relation_bytes(&unshared));
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

        let mut unshared = wtable_of(&arities);
        for w in [&mut clone, &mut unshared] {
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
        prop_assert_eq!(&clone, &unshared);
        prop_assert_eq!(wtable_bytes(&clone), wtable_bytes(&unshared));
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
}
