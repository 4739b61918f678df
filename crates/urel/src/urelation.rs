//! U-relations: representation relations `U_R(D, A⃗)` pairing a condition
//! with a data tuple.

use crate::condition::Condition;
use crate::error::Result;
use crate::wtable::WTable;
use pdb::{Relation, Schema, Tuple, Value};
use std::collections::BTreeSet;
use std::fmt;
use std::sync::Arc;

/// Rough in-memory footprint of one value: a fixed 16-byte inline cost plus
/// any heap payload (string bytes).  Deliberately coarse — the spill tier
/// needs a *stable, deterministic* size proxy, not an allocator census.
fn value_bytes(v: &Value) -> usize {
    match v {
        Value::Str(s) => 16 + s.len(),
        _ => 16,
    }
}

/// One row `⟨f, t⟩` of a U-relation.
#[derive(Clone, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct URow {
    /// The condition `f` (the `D` columns).
    pub condition: Condition,
    /// The data tuple `t` (the `A⃗` columns).
    pub tuple: Tuple,
}

impl URow {
    /// Deterministic approximate in-memory size of the row in bytes: a fixed
    /// per-row overhead plus per-value costs for the condition pairs and the
    /// data tuple.  This is the unit the byte-budget
    /// [`partition`](URelation::partition) and the engine's spill tier plan
    /// against, so wide (e.g. long-string) rows weigh more than narrow ones.
    pub fn approx_bytes(&self) -> usize {
        let cond: usize = self
            .condition
            .iter()
            .map(|(var, value)| 32 + var.name().len() + value_bytes(value))
            .sum();
        let data: usize = self.tuple.values().map(value_bytes).sum();
        48 + cond + data
    }
}

/// A U-relation: a set of condition/tuple rows over a fixed data schema.
///
/// Tuple `t` is in relation `R` of possible world `f*` iff some row
/// `⟨f, t⟩` has `f` consistent with `f*`.  A classical complete relation is
/// the special case where every condition is empty.
///
/// The row set is shared, copy-on-write: `clone` copies a pointer, and the
/// first edit through a `&mut` method of a relation that shares its rows
/// copies them once.  Equality, order, hashing and every digest are those of
/// the content, so sharing is invisible except to
/// [`shares_content`](URelation::shares_content).
#[derive(Clone, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct URelation {
    schema: Schema,
    rows: Arc<BTreeSet<URow>>,
}

impl URelation {
    /// Creates an empty U-relation with the given data schema.
    pub fn empty(schema: Schema) -> Self {
        URelation::from_rows(schema, BTreeSet::new())
    }

    /// Creates a U-relation representing a complete relation: every tuple is
    /// paired with the empty condition.
    pub fn from_complete(rel: &Relation) -> Self {
        let rows = rel.iter().map(|t| URow {
            condition: Condition::always(),
            tuple: t.clone(),
        });
        URelation::from_rows(rel.schema().clone(), rows.collect())
    }

    /// Assembles a relation from rows already in canonical set form (crate
    /// internal: columnar chunks rebuild row form through this).
    pub(crate) fn from_rows(schema: Schema, rows: BTreeSet<URow>) -> Self {
        URelation {
            schema,
            rows: Arc::new(rows),
        }
    }

    /// True if `self` and `other` hold the *same* row-set allocation — what
    /// `clone` yields until either side is edited.  A test hook: content
    /// equality is `==`.
    pub fn shares_content(&self, other: &URelation) -> bool {
        Arc::ptr_eq(&self.rows, &other.rows)
    }

    /// The data schema `A⃗` (conditions are not part of the schema).
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// Deterministic approximate in-memory size of all rows in bytes (the
    /// sum of [`URow::approx_bytes`]).  Partitioning and the engine's spill
    /// tier use this as the relation's weight.
    pub fn approx_bytes(&self) -> usize {
        self.rows.iter().map(URow::approx_bytes).sum()
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// True if the U-relation has no rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Inserts a row; duplicate rows are kept only once.
    pub fn insert(&mut self, condition: Condition, tuple: Tuple) -> Result<bool> {
        if tuple.arity() != self.schema.arity() {
            return Err(pdb::PdbError::ArityMismatch {
                expected: self.schema.arity(),
                actual: tuple.arity(),
            }
            .into());
        }
        Ok(Arc::make_mut(&mut self.rows).insert(URow { condition, tuple }))
    }

    /// Iterates over the rows in canonical order.
    pub fn iter(&self) -> impl Iterator<Item = &URow> {
        self.rows.iter()
    }

    /// True if the exact row (condition *and* tuple) is present.
    pub fn contains_row(&self, row: &URow) -> bool {
        self.rows.contains(row)
    }

    /// Removes the exact row, returning whether it was present.  Together
    /// with [`insert`](URelation::insert) this is the edit primitive of
    /// delta maintenance: incremental operators patch a previous output by
    /// removing and inserting individual rows.
    pub fn remove_row(&mut self, row: &URow) -> bool {
        Arc::make_mut(&mut self.rows).remove(row)
    }

    /// The relation with `deleted` rows removed and `inserted` rows added
    /// (set semantics; membership was validated by the caller).
    pub(crate) fn with_rows_edited(
        &self,
        inserted: &BTreeSet<URow>,
        deleted: &BTreeSet<URow>,
    ) -> URelation {
        let mut rows = BTreeSet::clone(&self.rows);
        for row in deleted {
            rows.remove(row);
        }
        rows.extend(inserted.iter().cloned());
        URelation::from_rows(self.schema.clone(), rows)
    }

    /// The canonical row edit turning `self` into `new`, as `(inserted,
    /// deleted)`: one merge walk over both canonical row orders, with no
    /// content hashing — the hot inner step of delta propagation.
    pub fn row_edits(&self, new: &URelation) -> (BTreeSet<URow>, BTreeSet<URow>) {
        self.rows
            .symmetric_difference(&new.rows)
            .cloned()
            .partition(|row| new.rows.contains(row))
    }

    /// Derives the [`RelationDelta`](crate::RelationDelta) that turns `self`
    /// into `new` from their [`row_edits`](URelation::row_edits).  The
    /// schemas must be equal (a content delta never changes the catalog).
    pub fn diff(&self, new: &URelation) -> Result<crate::RelationDelta> {
        if self.schema != new.schema {
            return Err(crate::UrelError::SchemaMismatch {
                relation: "<diff>".to_owned(),
                expected: self.schema.to_string(),
                actual: new.schema.to_string(),
            });
        }
        let (inserted, deleted) = self.row_edits(new);
        crate::RelationDelta::new(self, inserted, deleted)
    }

    /// `poss(R)`: the distinct data tuples appearing in any row.
    pub fn possible_tuples(&self) -> Relation {
        let mut rel = Relation::empty(self.schema.clone());
        for row in self.rows.iter() {
            // Arity already validated on insert.
            let _ = rel.insert(row.tuple.clone());
        }
        rel
    }

    /// The event `F = {f | ⟨f, t⟩ ∈ U_R}` for tuple `t`: the set of
    /// conditions under which `t` appears.  This is the DNF whose probability
    /// is the tuple's confidence (Section 4).
    pub fn conditions_for(&self, t: &Tuple) -> Vec<Condition> {
        self.rows
            .iter()
            .filter(|r| &r.tuple == t)
            .map(|r| r.condition.clone())
            .collect()
    }

    /// Batch form of [`conditions_for`](URelation::conditions_for): every
    /// distinct data tuple paired with its DNF, in canonical tuple order (the
    /// same order as [`possible_tuples`](URelation::possible_tuples)).
    ///
    /// One pass over the rows instead of one pass per tuple, which is what
    /// the engine's batched confidence operators consume.
    pub fn tuple_events(&self) -> Vec<(Tuple, Vec<Condition>)> {
        let mut events: std::collections::BTreeMap<Tuple, Vec<Condition>> =
            std::collections::BTreeMap::new();
        for row in self.rows.iter() {
            events
                .entry(row.tuple.clone())
                .or_default()
                .push(row.condition.clone());
        }
        events.into_iter().collect()
    }

    /// Splits the relation into at most `chunks` partitions of near-equal
    /// *byte* weight, preserving the canonical row order across the
    /// concatenation of the chunks.  Partitions are never empty; fewer than
    /// `chunks` are returned when the relation has fewer rows.  This is the
    /// unit of work of the engine's sharded operator execution: running a
    /// row-local operator per chunk and merging with
    /// [`absorb`](URelation::absorb) yields exactly the single-batch result,
    /// because rows live in a set.
    ///
    /// Sizing is by a per-chunk byte budget derived from
    /// [`approx_bytes`](URelation::approx_bytes) — `⌈total_bytes/chunks⌉` —
    /// rather than by row count, so a run of wide (long-string) rows cannot
    /// concentrate most of the relation's bytes into one chunk and blow the
    /// engine's spill budget.  Every chunk's weight is bounded by
    /// `⌈total_bytes/chunks⌉ + max_row_bytes`.
    pub fn partition(&self, chunks: usize) -> Vec<URelation> {
        let n = self.rows.len();
        let chunks = chunks.clamp(1, n.max(1));
        let budget = self.approx_bytes().div_ceil(chunks).max(1);
        let mut out = Vec::with_capacity(chunks);
        let mut current: BTreeSet<URow> = BTreeSet::new();
        let mut current_bytes = 0usize;
        for row in self.rows.iter() {
            current_bytes += row.approx_bytes();
            current.insert(row.clone());
            // Flushing at ≥ budget keeps every earlier chunk at least the
            // average weight, which bounds whatever remains for the final
            // chunk by that same average.
            if current_bytes >= budget && out.len() + 1 < chunks {
                let rows = std::mem::take(&mut current);
                out.push(URelation::from_rows(self.schema.clone(), rows));
                current_bytes = 0;
            }
        }
        if !current.is_empty() || out.is_empty() {
            out.push(URelation::from_rows(self.schema.clone(), current));
        }
        out
    }

    /// Merges another relation's rows into this one (set union; duplicate
    /// rows collapse).  The schemas must have equal arity — chunked operator
    /// execution always merges outputs of the same operator, which share a
    /// schema by construction.
    pub fn absorb(&mut self, other: URelation) {
        debug_assert_eq!(
            self.schema.arity(),
            other.schema.arity(),
            "absorb merges chunks of one operator output"
        );
        if self.rows.is_empty() {
            self.rows = other.rows;
        } else {
            // `other`'s rows move over when it is their only holder.
            Arc::make_mut(&mut self.rows).extend(Arc::unwrap_or_clone(other.rows));
        }
    }

    /// True if the U-relation is purely complete (all conditions empty).
    pub fn is_complete_representation(&self) -> bool {
        self.rows.iter().all(|r| r.condition.is_empty())
    }

    /// A 128-bit-plus-length content fingerprint of the relation
    /// ([`pdb::content_fingerprint`] over schema and rows).  Two relations
    /// with equal digests are content-equal up to hash collision (which
    /// would require agreement on both hashes *and* the size).  Serving
    /// layers use the digest as the relation's *identity* across updates: a
    /// replacement whose digest matches the stored one is a no-op and need
    /// not invalidate anything.
    pub fn content_digest(&self) -> (u64, u64, usize) {
        pdb::content_fingerprint(self, self.rows.len())
    }

    /// The set of random variables mentioned anywhere in the relation.
    pub fn mentioned_variables(&self) -> BTreeSet<crate::Var> {
        self.rows
            .iter()
            .flat_map(|r| r.condition.variables().cloned())
            .collect()
    }

    /// Checks that every condition only mentions declared variables/values.
    pub fn check_against(&self, w: &WTable) -> Result<()> {
        for row in self.rows.iter() {
            row.condition.check_against(w)?;
        }
        Ok(())
    }

    /// Materialises the relation's content in the possible world described by
    /// the total assignment `world` (a condition defined on all variables the
    /// relation mentions).
    pub fn instantiate(&self, world: &Condition) -> Relation {
        let mut rel = Relation::empty(self.schema.clone());
        for row in self.rows.iter() {
            if row.condition.satisfied_by(world) {
                let _ = rel.insert(row.tuple.clone());
            }
        }
        rel
    }
}

impl fmt::Display for URelation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "U{} [D | data]", self.schema)?;
        for row in self.rows.iter() {
            writeln!(f, "  {} | {}", row.condition, row.tuple)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Var;
    use pdb::{relation, schema, tuple, Value};

    fn ur_coin() -> URelation {
        // Figure 1(a): U_R with variable c.
        let mut u = URelation::empty(schema!["CoinType"]);
        u.insert(
            Condition::new([(Var::new("c"), Value::str("fair"))]).unwrap(),
            tuple!["fair"],
        )
        .unwrap();
        u.insert(
            Condition::new([(Var::new("c"), Value::str("2headed"))]).unwrap(),
            tuple!["2headed"],
        )
        .unwrap();
        u
    }

    #[test]
    fn from_complete_gives_empty_conditions() {
        let r = relation![schema!["A", "B"]; [1, 2], [3, 4]];
        let u = URelation::from_complete(&r);
        assert_eq!(u.len(), 2);
        assert!(u.is_complete_representation());
        assert_eq!(u.possible_tuples(), r);
        assert!(u.mentioned_variables().is_empty());
    }

    #[test]
    fn insert_validates_arity_and_dedups() {
        let mut u = URelation::empty(schema!["A"]);
        assert!(u.insert(Condition::always(), tuple![1, 2]).is_err());
        assert!(u.insert(Condition::always(), tuple![1]).unwrap());
        assert!(!u.insert(Condition::always(), tuple![1]).unwrap());
        assert_eq!(u.len(), 1);
    }

    #[test]
    fn conditions_for_collects_the_dnf() {
        let u = ur_coin();
        let f = u.conditions_for(&tuple!["fair"]);
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].get(&Var::new("c")), Some(&Value::str("fair")));
        assert!(u.conditions_for(&tuple!["3sided"]).is_empty());
    }

    #[test]
    fn tuple_events_match_per_tuple_conditions() {
        let mut u = ur_coin();
        // A second row for `fair` under a different condition: its DNF has
        // two terms.
        u.insert(
            Condition::new([(Var::new("t1"), Value::str("H"))]).unwrap(),
            tuple!["fair"],
        )
        .unwrap();
        let batch = u.tuple_events();
        let poss = u.possible_tuples();
        assert_eq!(batch.len(), poss.len());
        for ((t, conditions), expected) in batch.iter().zip(poss.iter()) {
            assert_eq!(t, expected, "batch order must match possible_tuples");
            assert_eq!(conditions, &u.conditions_for(t));
        }
        assert!(batch.iter().any(|(_, c)| c.len() == 2));
    }

    #[test]
    fn partition_round_trips_through_absorb() {
        let mut u = URelation::empty(schema!["A"]);
        for i in 0..17 {
            u.insert(Condition::always(), tuple![i]).unwrap();
        }
        for chunks in [1usize, 2, 3, 4, 16, 17, 40] {
            let parts = u.partition(chunks);
            assert!(parts.len() <= chunks);
            assert!(parts.iter().all(|p| !p.is_empty()));
            assert_eq!(parts.iter().map(URelation::len).sum::<usize>(), u.len());
            let mut merged = URelation::empty(u.schema().clone());
            for p in parts {
                merged.absorb(p);
            }
            assert_eq!(merged, u);
        }
        // Empty relation: one empty chunk, so operators still see the schema.
        let empty = URelation::empty(schema!["A"]);
        let parts = empty.partition(4);
        assert_eq!(parts.len(), 1);
        assert!(parts[0].is_empty());
    }

    #[test]
    fn partition_chunks_respect_a_byte_budget_not_a_row_count() {
        // 20 wide rows (~1 KiB of string payload each) that sort *first* in
        // canonical order, followed by 80 narrow rows.  Row-count chunking
        // would put every wide row into the first quarter; byte-budget
        // chunking must spread the bytes evenly.
        let mut u = URelation::empty(schema!["A"]);
        for i in 0..20 {
            u.insert(
                Condition::always(),
                tuple![format!("a{i:02}-{}", "w".repeat(1024))],
            )
            .unwrap();
        }
        for i in 0..80 {
            u.insert(Condition::always(), tuple![format!("z{i:02}")])
                .unwrap();
        }
        let chunks = 4;
        let total = u.approx_bytes();
        let max_row = u.iter().map(URow::approx_bytes).max().unwrap();
        let budget = total.div_ceil(chunks);
        let parts = u.partition(chunks);
        assert_eq!(parts.len(), chunks);
        for p in &parts {
            assert!(
                p.approx_bytes() <= budget + max_row,
                "chunk weighs {} bytes, budget {} + max row {}",
                p.approx_bytes(),
                budget,
                max_row
            );
        }
        // The old row-count sizing gave the first chunk > half the bytes.
        assert!(parts[0].approx_bytes() < total / 2);
        // And the partition is still a faithful split.
        assert_eq!(parts.iter().map(URelation::len).sum::<usize>(), u.len());
        let mut merged = URelation::empty(u.schema().clone());
        for p in parts {
            merged.absorb(p);
        }
        assert_eq!(merged, u);
    }

    #[test]
    fn instantiate_picks_rows_consistent_with_world() {
        let u = ur_coin();
        let world = Condition::new([(Var::new("c"), Value::str("fair"))]).unwrap();
        let r = u.instantiate(&world);
        assert_eq!(r.len(), 1);
        assert!(r.contains(&tuple!["fair"]));
    }

    #[test]
    fn check_against_requires_declared_variables() {
        let u = ur_coin();
        let mut w = WTable::new();
        assert!(u.check_against(&w).is_err());
        w.add_variable(
            Var::new("c"),
            [
                (Value::str("fair"), 2.0 / 3.0),
                (Value::str("2headed"), 1.0 / 3.0),
            ],
        )
        .unwrap();
        assert!(u.check_against(&w).is_ok());
    }

    #[test]
    fn mentioned_variables() {
        let u = ur_coin();
        let vars = u.mentioned_variables();
        assert_eq!(vars.len(), 1);
        assert!(vars.contains(&Var::new("c")));
    }
}
