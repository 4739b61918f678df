//! Reference-model property tests for [`Assignment`]: construction and
//! merging against a `BTreeMap<VarId, AltId>` with the same pairs.
//!
//! Equality, order and hashing of assignments key the exact kernel's
//! reference memo and the compiled arenas' term interning, so an assignment
//! must hold exactly the sorted map's pairs, and a rejected one must name
//! the conflict the map meets first.

use confidence::{Assignment, ConfidenceError, VarId};
use proptest::prelude::*;
use std::collections::BTreeMap;

/// The model of [`Assignment::new`]: pairs assigned in order, the first
/// pair that contradicts an earlier one an error naming both alternatives.
fn model_new(pairs: &[(VarId, usize)]) -> Result<BTreeMap<VarId, usize>, ConfidenceError> {
    let mut map = BTreeMap::new();
    for &(var, alt) in pairs {
        match map.get(&var) {
            Some(&existing) if existing != alt => {
                return Err(ConfidenceError::InvalidDistribution(format!(
                    "assignment maps variable {var} to both {existing} and {alt}"
                )))
            }
            _ => {
                map.insert(var, alt);
            }
        }
    }
    Ok(map)
}

/// The model of [`Assignment::merge`]: `None` on a shared variable with
/// different alternatives, else the union of the maps.
fn model_merge(
    a: &BTreeMap<VarId, usize>,
    b: &BTreeMap<VarId, usize>,
) -> Option<BTreeMap<VarId, usize>> {
    if a.iter()
        .any(|(var, alt)| b.get(var).is_some_and(|x| x != alt))
    {
        return None;
    }
    let mut union = a.clone();
    union.extend(b.iter().map(|(&var, &alt)| (var, alt)));
    Some(union)
}

fn pairs_of(a: &Assignment) -> Vec<(VarId, usize)> {
    a.iter().collect()
}

/// Up to eight pairs over six variables and three alternatives, so repeats,
/// conflicts and already sorted inputs are all common.
fn arb_pairs() -> impl Strategy<Value = Vec<(VarId, usize)>> {
    proptest::collection::vec((0usize..6, 0usize..3), 0..9)
}

/// Sorted, repeat-free pairs: a valid assignment's content.
fn arb_map() -> impl Strategy<Value = BTreeMap<VarId, usize>> {
    arb_pairs().prop_map(|pairs| pairs.into_iter().collect())
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 1024, .. ProptestConfig::default() })]

    #[test]
    fn new_matches_the_map(pairs in arb_pairs()) {
        match (Assignment::new(pairs.iter().copied()), model_new(&pairs)) {
            (Ok(a), Ok(map)) => {
                let expected: Vec<(VarId, usize)> = map.into_iter().collect();
                prop_assert_eq!(pairs_of(&a), expected);
            }
            (Err(e), Err(model)) => prop_assert_eq!(e, model),
            (got, model) => prop_assert!(false, "{:?} vs {:?} on {:?}", got, model, pairs),
        }
    }

    #[test]
    fn sorted_input_is_taken_as_it_is(map in arb_map()) {
        let pairs: Vec<(VarId, usize)> = map.into_iter().collect();
        let a = Assignment::new(pairs.iter().copied()).unwrap();
        prop_assert_eq!(pairs_of(&a), pairs);
    }

    #[test]
    fn merge_matches_the_map(a in arb_map(), b in arb_map()) {
        let (x, y) = (
            Assignment::new(a.clone()).unwrap(),
            Assignment::new(b.clone()).unwrap(),
        );
        let merged = x.merge(&y);
        prop_assert_eq!(merged.is_some(), x.consistent_with(&y));
        match (merged, model_merge(&a, &b)) {
            (Some(m), Some(model)) => {
                let expected: Vec<(VarId, usize)> = model.into_iter().collect();
                prop_assert_eq!(pairs_of(&m), expected);
                // The union is an assignment as `new` builds it.
                prop_assert_eq!(Assignment::new(pairs_of(&m)).unwrap(), m);
            }
            (None, None) => {}
            (got, model) => prop_assert!(false, "{:?} vs {:?}", got, model),
        }
    }
}

#[test]
fn the_first_conflict_in_input_order_is_reported() {
    // Variable 3 conflicts at position 3, variable 1 only at position 4,
    // although 1 sorts first.
    let err = Assignment::new([(3, 0), (1, 2), (3, 0), (3, 1), (1, 0)]).unwrap_err();
    assert_eq!(
        err,
        ConfidenceError::InvalidDistribution("assignment maps variable 3 to both 0 and 1".into())
    );
}
