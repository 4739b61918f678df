//! Reference-model property tests for the row representation: a
//! [`Condition`] against a `BTreeMap<Var, Value>` with the same pairs, and
//! the bulk [`URelation::from_row_vec`] against one `insert` per row.
//!
//! Equality, order and hashing of conditions feed the canonical row order,
//! every content digest and the segment bytes, so they must be exactly those
//! of the sorted map, not merely consistent with it.

use pdb::{Schema, Tuple, Value};
use proptest::prelude::*;
use std::collections::hash_map::DefaultHasher;
use std::collections::BTreeMap;
use std::hash::{Hash, Hasher};
use urel::{segment, Condition, URelation, URow, UrelError, Var};

mod model {
    use pdb::Value;
    use std::collections::BTreeMap;
    use urel::Var;

    /// What a condition was before it became a sorted vector: same name and
    /// field, so the derived `Debug` prints what the condition must print.
    #[derive(Clone, Debug, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
    pub struct Condition {
        pub assignments: BTreeMap<Var, Value>,
    }
}

/// Variable names whose byte order differs from their index order
/// (`x10` sorts before `x2`).
const VARS: [&str; 6] = ["x2", "x10", "a", "x1", "b0", "x0"];

/// Values across variants, so the order compares variant tags as well as
/// payloads.
fn value_of(i: usize) -> Value {
    match i {
        0 => Value::Int(0),
        1 => Value::Int(1),
        2 => Value::Int(-3),
        3 => Value::str("H"),
        4 => Value::str("T"),
        _ => Value::float(0.5),
    }
}

/// Up to six `(variable, value)` pairs drawn from a small universe, so
/// repeats and conflicts are common.
fn arb_pairs() -> impl Strategy<Value = Vec<(Var, Value)>> {
    proptest::collection::vec((0usize..VARS.len(), 0usize..6), 0..7).prop_map(|pairs| {
        pairs
            .into_iter()
            .map(|(v, x)| (Var::new(VARS[v]), value_of(x)))
            .collect()
    })
}

/// The model of [`Condition::new`]: pairs assigned in order, the first
/// conflicting one an error naming its variable.
fn model_new(pairs: &[(Var, Value)]) -> Result<model::Condition, UrelError> {
    let mut assignments = BTreeMap::new();
    for (var, value) in pairs {
        match assignments.get(var) {
            Some(existing) if existing != value => {
                return Err(UrelError::InconsistentCondition(var.name().to_owned()))
            }
            _ => {
                assignments.insert(var.clone(), value.clone());
            }
        }
    }
    Ok(model::Condition { assignments })
}

fn model_of(c: &Condition) -> model::Condition {
    model::Condition {
        assignments: c.iter().map(|(k, v)| (k.clone(), v.clone())).collect(),
    }
}

fn model_display(m: &model::Condition) -> String {
    let pairs: Vec<String> = m
        .assignments
        .iter()
        .map(|(var, value)| format!("{var} ↦ {value}"))
        .collect();
    format!("{{{}}}", pairs.join(", "))
}

fn model_consistent(a: &model::Condition, b: &model::Condition) -> bool {
    a.assignments
        .iter()
        .all(|(var, value)| b.assignments.get(var).is_none_or(|v| v == value))
}

/// SipHash with its fixed default keys: equal across runs and processes.
fn hash_of(value: &impl Hash) -> u64 {
    let mut hasher = DefaultHasher::new();
    value.hash(&mut hasher);
    hasher.finish()
}

/// A row over `(A, B)` with a condition of up to two pairs; one row in
/// sixteen has the wrong arity.
fn arb_row() -> impl Strategy<Value = URow> {
    (arb_pairs(), 0i64..4, 0i64..3, 0usize..16).prop_map(|(pairs, a, b, shape)| {
        let pairs: Vec<(Var, Value)> = pairs.into_iter().take(2).collect();
        let condition = Condition::new(pairs).unwrap_or_default();
        let values = match shape {
            0 => vec![Value::Int(a)],
            1 => vec![Value::Int(a), Value::Int(b), Value::Int(0)],
            _ => vec![Value::Int(a), Value::Int(b)],
        };
        URow {
            condition,
            tuple: Tuple::new(values),
        }
    })
}

fn schema_ab() -> Schema {
    Schema::new(["A", "B"]).unwrap()
}

fn inserted_one_by_one(rows: &[URow]) -> urel::Result<URelation> {
    let mut rel = URelation::empty(schema_ab());
    for row in rows {
        rel.insert(row.condition.clone(), row.tuple.clone())?;
    }
    Ok(rel)
}

fn relation_bytes(rel: &URelation) -> Vec<u8> {
    let mut bytes = Vec::new();
    segment::put_relation(&mut bytes, rel);
    bytes
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 256, .. ProptestConfig::default() })]

    /// Construction, lookup, printing, equality, order, hashing,
    /// consistency and merge all agree with the sorted-map model.
    #[test]
    fn condition_matches_the_sorted_map_model(a in arb_pairs(), b in arb_pairs()) {
        let (built_a, built_b) = (Condition::new(a.clone()), Condition::new(b.clone()));
        let (model_a, model_b) = (model_new(&a), model_new(&b));
        prop_assert_eq!(built_a.as_ref().map(model_of), model_a.as_ref().cloned());
        prop_assert_eq!(built_b.as_ref().map(model_of), model_b.as_ref().cloned());
        let (Ok(ca), Ok(cb), Ok(ma), Ok(mb)) = (built_a, built_b, model_a, model_b) else {
            return Ok(());
        };
        for (c, m) in [(&ca, &ma), (&cb, &mb)] {
            prop_assert_eq!(c.len(), m.assignments.len());
            prop_assert_eq!(c.is_empty(), m.assignments.is_empty());
            prop_assert!(c.variables().eq(m.assignments.keys()));
            for name in VARS {
                let var = Var::new(name);
                prop_assert_eq!(c.get(&var), m.assignments.get(&var));
            }
            prop_assert_eq!(c.to_string(), model_display(m));
            prop_assert_eq!(format!("{c:?}"), format!("{m:?}"));
            prop_assert_eq!(format!("{c:#?}"), format!("{m:#?}"));
            prop_assert_eq!(hash_of(c), hash_of(m));
        }
        prop_assert_eq!(ca == cb, ma == mb);
        prop_assert_eq!(ca.cmp(&cb), ma.cmp(&mb));
        let consistent = model_consistent(&ma, &mb);
        prop_assert_eq!(ca.consistent_with(&cb), consistent);
        prop_assert_eq!(cb.consistent_with(&ca), consistent);
        let merged_model = consistent.then(|| {
            let mut assignments = ma.assignments.clone();
            assignments.extend(mb.assignments.clone());
            model::Condition { assignments }
        });
        prop_assert_eq!(ca.merge(&cb).as_ref().map(model_of), merged_model.clone());
        prop_assert_eq!(cb.merge(&ca).as_ref().map(model_of), merged_model);
    }

    /// Assigning into an existing condition: a repeat is a no-op, a new
    /// variable lands in order, a conflicting value is the model's error
    /// and leaves the condition as it was.
    #[test]
    fn assign_matches_the_model(pairs in arb_pairs(), var in 0usize..VARS.len(), x in 0usize..6) {
        let Ok(mut c) = Condition::new(pairs.clone()) else {
            return Ok(());
        };
        let before = c.clone();
        let (var, value) = (Var::new(VARS[var]), value_of(x));
        let mut extended = pairs;
        extended.push((var.clone(), value.clone()));
        let expected = model_new(&extended);
        let got = c.assign(var, value);
        match expected {
            Ok(m) => {
                prop_assert!(got.is_ok());
                prop_assert_eq!(model_of(&c), m);
            }
            Err(e) => {
                prop_assert_eq!(got, Err(e));
                prop_assert_eq!(c, before);
            }
        }
    }

    /// The bulk build is one `insert` per row: the same set (so the same
    /// digest and segment bytes) or the same arity error.
    #[test]
    fn bulk_build_matches_row_by_row_insert(
        rows in proptest::collection::vec(arb_row(), 0..24),
        repeats in proptest::collection::vec(0usize..24, 0..8),
    ) {
        // Exact duplicates as well as rows that merely share a tuple.
        let mut rows = rows;
        for &i in &repeats {
            if let Some(row) = rows.get(i % rows.len().max(1)).cloned() {
                rows.push(row);
            }
        }
        let bulk = URelation::from_row_vec(schema_ab(), rows.clone());
        match inserted_one_by_one(&rows) {
            Ok(reference) => {
                let bulk = bulk.expect("rows of the right arity build");
                prop_assert_eq!(&bulk, &reference);
                prop_assert_eq!(bulk.content_digest(), reference.content_digest());
                prop_assert_eq!(relation_bytes(&bulk), relation_bytes(&reference));
                let events = expected_events(&reference);
                prop_assert!(bulk.possible_tuples().iter().eq(events.iter().map(|(t, _)| t)));
                let grouped: Vec<(Tuple, Vec<Condition>)> = (bulk.tuple_events().iter())
                    .map(|(t, conditions)| (t.clone(), conditions.cloned().collect()))
                    .collect();
                prop_assert_eq!(bulk.tuple_events().len(), events.len());
                prop_assert_eq!(grouped, events);
            }
            Err(e) => prop_assert_eq!(bulk.err(), Some(e)),
        }
    }
}

/// Every distinct tuple with its conditions in canonical row order, grouped
/// through a map: the model of [`URelation::tuple_events`].
fn expected_events(rel: &URelation) -> Vec<(Tuple, Vec<Condition>)> {
    let mut events: BTreeMap<Tuple, Vec<Condition>> = BTreeMap::new();
    for row in rel.iter() {
        events
            .entry(row.tuple.clone())
            .or_default()
            .push(row.condition.clone());
    }
    events.into_iter().collect()
}
