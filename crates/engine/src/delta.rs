//! Incremental (delta) re-evaluation of pure relational operators.
//!
//! Given an operator's *old* output, its inputs' *new* values and the exact
//! row edits ([`urel::RelationDelta`]-style inserted/deleted sets) of each
//! input, these rules produce the operator's new output **bit-for-bit equal
//! to a full recompute** — the invariant that lets the serving layer patch
//! pooled sub-plan results in place after a relation update instead of
//! demoting and recomputing them (`ServingEngine::apply_deltas`).
//!
//! Cost model, per rule:
//!
//! * selection / renaming / extension map row edits **pointwise** — these
//!   operators are injective on rows, so an edited input row corresponds to
//!   exactly one output row; cost `O(|Δ|)`.
//! * projection (and `poss`) are *not* injective: inserting images is
//!   pointwise, but a deleted row's image survives while any other input
//!   row still maps onto it.  Deletions therefore rescan the new input for
//!   surviving support, with early exit once every candidate image is
//!   accounted for (`O(|Δ|)` when deleted images are re-inserted, up to one
//!   input scan otherwise).
//! * union removes a deleted row only when the *other* side no longer
//!   contains it (set semantics); cost `O(|Δ| log n)`.
//! * natural join recomputes exactly the join keys the delta touches: rows
//!   with unaffected keys are kept from the old output (one bulk clone plus
//!   targeted removals), and the new inputs restricted to affected keys are
//!   re-joined.  Linear key-projection scans over the inputs and old output
//!   remain (there is no retained key index), but all *join work* —
//!   condition merges, row construction, set insertion — is confined to the
//!   delta's key fan-out.
//!
//! Operators without a profitable rule (cartesian product — every output
//! pairs with every input row — and difference) decline by returning `None`
//! from [`PhysicalOp::execute_delta`](crate::physical::PhysicalOp::execute_delta),
//! which makes the serving layer fall back to demote-and-recompute for that
//! sub-plan.

use crate::error::Result;
use crate::ops::{self, JoinShape};
use algebra::{Predicate, ProjItem};
use pdb::Tuple;
use std::collections::{BTreeMap, BTreeSet};
use urel::{Condition, URelation, URow};

/// One input of an incremental re-evaluation: the input's value *after* the
/// update plus the exact row edits relative to its value before it.
pub struct DeltaInput<'a> {
    /// The input's new (post-update) value.
    pub new: &'a URelation,
    /// Rows added relative to the pre-update value.
    pub inserted: &'a BTreeSet<URow>,
    /// Rows removed relative to the pre-update value.
    pub deleted: &'a BTreeSet<URow>,
}

impl DeltaInput<'_> {
    /// True if this input did not change.
    pub fn is_unchanged(&self) -> bool {
        self.inserted.is_empty() && self.deleted.is_empty()
    }
}

/// Incremental `σ_φ`: selection is injective on rows, so deletions and
/// insertions map pointwise through the predicate.
pub fn select_delta(
    old_output: &URelation,
    input: &DeltaInput<'_>,
    predicate: &Predicate,
) -> Result<URelation> {
    let predicate = predicate.bind(input.new.schema())?;
    let mut out = old_output.clone();
    for row in input.deleted {
        if predicate.eval(&row.tuple)? {
            out.remove_row(row);
        }
    }
    for row in input.inserted {
        if predicate.eval(&row.tuple)? {
            out.insert(row.condition.clone(), row.tuple.clone())?;
        }
    }
    Ok(out)
}

/// Incremental `ρ`: renaming keeps every row unchanged (only the schema
/// differs), so edits map through verbatim.
pub fn rename_delta(old_output: &URelation, input: &DeltaInput<'_>) -> Result<URelation> {
    let mut out = old_output.clone();
    for row in input.deleted {
        out.remove_row(row);
    }
    for row in input.inserted {
        out.insert(row.condition.clone(), row.tuple.clone())?;
    }
    Ok(out)
}

/// Incremental extension: the input tuple is a recoverable prefix of the
/// output tuple, so extension is injective and edits map pointwise.
pub fn extend_delta(
    old_output: &URelation,
    input: &DeltaInput<'_>,
    items: &[ProjItem],
) -> Result<URelation> {
    let exprs = ops::bind_items(input.new.schema(), items)?;
    let extended = |row: &URow| -> Result<URow> {
        Ok(URow {
            condition: row.condition.clone(),
            tuple: ops::extended(&exprs, &row.tuple)?,
        })
    };
    let mut out = old_output.clone();
    for row in input.deleted {
        out.remove_row(&extended(row)?);
    }
    for row in input.inserted {
        let e = extended(row)?;
        out.insert(e.condition, e.tuple)?;
    }
    Ok(out)
}

/// Shared machinery of the non-injective pointwise operators (projection,
/// `poss`): insertions map pointwise; a deleted row's image is removed only
/// when no surviving input row still maps onto it, checked by a support
/// rescan with early exit.
fn mapped_delta(
    old_output: &URelation,
    input: &DeltaInput<'_>,
    map: impl Fn(&URow) -> Result<URow>,
) -> Result<URelation> {
    let mut out = old_output.clone();
    let mut candidates: BTreeSet<URow> = BTreeSet::new();
    for row in input.deleted {
        candidates.insert(map(row)?);
    }
    for row in input.inserted {
        let image = map(row)?;
        candidates.remove(&image);
        out.insert(image.condition, image.tuple)?;
    }
    if !candidates.is_empty() {
        // Rescan for support: any image still produced by the new input
        // survives.  Early exit once every candidate is either supported or
        // the input is exhausted.
        for row in input.new.iter() {
            candidates.remove(&map(row)?);
            if candidates.is_empty() {
                break;
            }
        }
        for unsupported in &candidates {
            out.remove_row(unsupported);
        }
    }
    Ok(out)
}

/// Incremental generalised projection `π`.
pub fn project_delta(
    old_output: &URelation,
    input: &DeltaInput<'_>,
    items: &[ProjItem],
) -> Result<URelation> {
    let exprs = ops::bind_items(input.new.schema(), items)?;
    mapped_delta(old_output, input, |row| {
        Ok(URow {
            condition: row.condition.clone(),
            tuple: ops::projected(&exprs, &row.tuple)?,
        })
    })
}

/// Incremental `poss`: the image of a row is its data tuple under the empty
/// condition, with the same support structure as a projection.
pub fn poss_delta(old_output: &URelation, input: &DeltaInput<'_>) -> Result<URelation> {
    mapped_delta(old_output, input, |row| {
        Ok(URow {
            condition: Condition::always(),
            tuple: row.tuple.clone(),
        })
    })
}

/// Incremental `∪`: a deleted row leaves the union only when the other
/// side's new value no longer contains it.
pub fn union_delta(
    old_output: &URelation,
    left: &DeltaInput<'_>,
    right: &DeltaInput<'_>,
) -> Result<URelation> {
    let mut out = old_output.clone();
    for row in left.deleted {
        if !right.new.contains_row(row) {
            out.remove_row(row);
        }
    }
    for row in right.deleted {
        if !left.new.contains_row(row) {
            out.remove_row(row);
        }
    }
    for row in left.inserted.iter().chain(right.inserted.iter()) {
        out.insert(row.condition.clone(), row.tuple.clone())?;
    }
    Ok(out)
}

/// Incremental `⋈`: every output row carries the join key of the input pair
/// that produced it, so rows with keys the delta never touches are exactly
/// unchanged.  The rule keeps those from the old output and re-joins the new
/// inputs *restricted to the affected keys* — deletions included, since an
/// output row can be supported by several input pairs and the per-key
/// recompute re-derives exactly the surviving support.
///
/// Returns `None` when the sides share no attributes (the join degenerates
/// to a cartesian product, where every output row is affected by every
/// edit and an in-place patch cannot beat a recompute).
pub fn natural_join_delta(
    old_output: &URelation,
    left: &DeltaInput<'_>,
    right: &DeltaInput<'_>,
) -> Result<Option<URelation>> {
    let shape = JoinShape::new(left.new.schema(), right.new.schema())?;
    if shape.left_key.is_empty() {
        return Ok(None);
    }

    let mut affected: BTreeSet<Tuple> = BTreeSet::new();
    for row in left.inserted.iter().chain(left.deleted.iter()) {
        affected.insert(row.tuple.project(&shape.left_key));
    }
    for row in right.inserted.iter().chain(right.deleted.iter()) {
        affected.insert(row.tuple.project(&shape.right_key));
    }
    if affected.is_empty() {
        return Ok(Some(old_output.clone()));
    }

    // Drop every old output row with an affected key (the output schema is
    // `left attrs ++ right rest`, so the left key indices address the join
    // key of an output row too).  One bulk clone plus targeted removals —
    // not a row-by-row rebuild of the unaffected majority.
    let stale: Vec<URow> = old_output
        .iter()
        .filter(|row| affected.contains(&row.tuple.project(&shape.left_key)))
        .cloned()
        .collect();
    let mut out = old_output.clone();
    for row in &stale {
        out.remove_row(row);
    }

    // Re-join the new inputs restricted to the affected keys.
    let mut right_map: BTreeMap<Tuple, Vec<&URow>> = BTreeMap::new();
    for row in right.new.iter() {
        let key = row.tuple.project(&shape.right_key);
        if affected.contains(&key) {
            right_map.entry(key).or_default().push(row);
        }
    }
    for l in left.new.iter() {
        let key = l.tuple.project(&shape.left_key);
        if !affected.contains(&key) {
            continue;
        }
        let Some(matches) = right_map.get(&key) else {
            continue;
        };
        for r in matches {
            let Some(cond) = l.condition.merge(&r.condition) else {
                continue;
            };
            out.insert(cond, l.tuple.concat(&r.tuple.project(&shape.right_rest)))?;
        }
    }
    Ok(Some(out))
}

#[cfg(test)]
mod tests {
    use super::*;
    use algebra::Expr;
    use pdb::Value;
    use rand::{Rng, SeedableRng};
    use rand_chacha::ChaCha8Rng;
    use urel::Var;

    /// A random relation over `schema` with rows `(A ∈ 0..keys, B ∈ 0..4)`
    /// under conditions drawn from a tiny variable pool (including the empty
    /// condition, so completeness paths are exercised too).
    fn random_relation(rng: &mut ChaCha8Rng, attrs: &[&str], keys: i64, rows: usize) -> URelation {
        let mut rel =
            URelation::empty(pdb::Schema::new(attrs.iter().map(|a| a.to_string())).unwrap());
        for _ in 0..rows {
            let tuple = Tuple::new(
                (0..attrs.len())
                    .map(|i| Value::Int(rng.gen_range(0..keys + i as i64)))
                    .collect::<Vec<_>>(),
            );
            let condition = match rng.gen_range(0..3u8) {
                0 => Condition::always(),
                v => Condition::new([(Var::new(format!("v{v}")), Value::Int(rng.gen_range(0..2)))])
                    .unwrap(),
            };
            rel.insert(condition, tuple).unwrap();
        }
        rel
    }

    /// A random edit of `base`: delete up to `edits` rows, insert up to
    /// `edits` fresh ones.  Returns (new value, inserted, deleted).
    fn random_edit(
        rng: &mut ChaCha8Rng,
        base: &URelation,
        keys: i64,
        edits: usize,
    ) -> (URelation, BTreeSet<URow>, BTreeSet<URow>) {
        let rows: Vec<URow> = base.iter().cloned().collect();
        let mut new = base.clone();
        for _ in 0..rng.gen_range(0..=edits) {
            if rows.is_empty() {
                break;
            }
            let victim = &rows[rng.gen_range(0..rows.len())];
            new.remove_row(victim);
        }
        for _ in 0..rng.gen_range(0..=edits) {
            let arity = base.schema().arity();
            let tuple = Tuple::new(
                (0..arity)
                    .map(|_| Value::Int(rng.gen_range(0..keys + 2)))
                    .collect::<Vec<_>>(),
            );
            let _ = new.insert(Condition::always(), tuple);
        }
        let delta = base.diff(&new).unwrap();
        (new, delta.inserted().clone(), delta.deleted().clone())
    }

    #[test]
    fn incremental_rules_match_full_recomputation() {
        let mut rng = ChaCha8Rng::seed_from_u64(77);
        let predicate = Predicate::ge(Expr::attr("A"), Expr::konst(2));
        let proj = [ProjItem::attr("A")];
        let ext = [ProjItem::computed(
            Expr::attr("A") * Expr::konst(2),
            "Doubled",
        )];
        for round in 0..40 {
            let old_l = random_relation(&mut rng, &["A", "B"], 4, 12);
            let old_r = random_relation(&mut rng, &["A", "C"], 4, 10);
            let (new_l, ins_l, del_l) = random_edit(&mut rng, &old_l, 4, 3);
            let (new_r, ins_r, del_r) = random_edit(&mut rng, &old_r, 4, 3);
            let dl = DeltaInput {
                new: &new_l,
                inserted: &ins_l,
                deleted: &del_l,
            };
            let dr = DeltaInput {
                new: &new_r,
                inserted: &ins_r,
                deleted: &del_r,
            };
            assert_eq!(dl.is_unchanged(), ins_l.is_empty() && del_l.is_empty());

            // Selection.
            let old_out = ops::select(&old_l, &predicate).unwrap();
            assert_eq!(
                select_delta(&old_out, &dl, &predicate).unwrap(),
                ops::select(&new_l, &predicate).unwrap(),
                "select, round {round}"
            );
            // Projection (non-injective: drops B).
            let old_out = ops::project(&old_l, &proj).unwrap();
            assert_eq!(
                project_delta(&old_out, &dl, &proj).unwrap(),
                ops::project(&new_l, &proj).unwrap(),
                "project, round {round}"
            );
            // Extension.
            let old_out = ops::extend(&old_l, &ext).unwrap();
            assert_eq!(
                extend_delta(&old_out, &dl, &ext).unwrap(),
                ops::extend(&new_l, &ext).unwrap(),
                "extend, round {round}"
            );
            // Renaming.
            let old_out = ops::rename(&old_l, "B", "B2").unwrap();
            assert_eq!(
                rename_delta(&old_out, &dl).unwrap(),
                ops::rename(&new_l, "B", "B2").unwrap(),
                "rename, round {round}"
            );
            // Poss.
            let old_out = URelation::from_complete(&old_l.possible_tuples());
            assert_eq!(
                poss_delta(&old_out, &dl).unwrap(),
                URelation::from_complete(&new_l.possible_tuples()),
                "poss, round {round}"
            );
            // Union (same-schema sides).
            let (new_l2, ins_l2, del_l2) = random_edit(&mut rng, &old_r, 4, 3);
            let dl2 = DeltaInput {
                new: &new_l2,
                inserted: &ins_l2,
                deleted: &del_l2,
            };
            let old_out = ops::union(&old_r, &old_r).unwrap();
            assert_eq!(
                union_delta(&old_out, &dr, &dl2).unwrap(),
                ops::union(&new_r, &new_l2).unwrap(),
                "union, round {round}"
            );
            // Natural join on the shared attribute A (conditions merge, and
            // conflicting conditions drop rows — both paths exercised).
            let old_out = ops::natural_join_nested_loop(&old_l, &old_r).unwrap();
            assert_eq!(
                natural_join_delta(&old_out, &dl, &dr).unwrap().unwrap(),
                ops::natural_join_nested_loop(&new_l, &new_r).unwrap(),
                "join, round {round}"
            );
        }
    }

    #[test]
    fn join_without_shared_attributes_declines() {
        let l = random_relation(&mut ChaCha8Rng::seed_from_u64(1), &["A"], 3, 4);
        let r = random_relation(&mut ChaCha8Rng::seed_from_u64(2), &["B"], 3, 4);
        let empty = BTreeSet::new();
        let dl = DeltaInput {
            new: &l,
            inserted: &empty,
            deleted: &empty,
        };
        let dr = DeltaInput {
            new: &r,
            inserted: &empty,
            deleted: &empty,
        };
        let old_out = ops::natural_join_nested_loop(&l, &r).unwrap();
        assert!(natural_join_delta(&old_out, &dl, &dr).unwrap().is_none());
    }

    #[test]
    fn unchanged_inputs_keep_the_old_output() {
        let l = random_relation(&mut ChaCha8Rng::seed_from_u64(3), &["A", "B"], 3, 8);
        let r = random_relation(&mut ChaCha8Rng::seed_from_u64(4), &["A", "C"], 3, 8);
        let empty = BTreeSet::new();
        let dl = DeltaInput {
            new: &l,
            inserted: &empty,
            deleted: &empty,
        };
        let dr = DeltaInput {
            new: &r,
            inserted: &empty,
            deleted: &empty,
        };
        let old_out = ops::natural_join_nested_loop(&l, &r).unwrap();
        assert_eq!(
            natural_join_delta(&old_out, &dl, &dr).unwrap().unwrap(),
            old_out
        );
    }
}
