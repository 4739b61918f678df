//! Columnar chunks: per-attribute value arenas over a slice of a
//! U-relation's canonical row order.
//!
//! Instead of a set of boxed `(condition, tuple)` rows, a [`ColumnarChunk`]
//! stores one contiguous `Vec<Value>` arena *per attribute* plus a flattened
//! condition arena with per-row offsets, so a kernel scanning one attribute
//! (a selection predicate, a join-key probe) would walk contiguous memory.
//!
//! No engine operator consumes chunks today: the executor's kernels are
//! row-local and run on [`URelation::partition`] row chunks, because a
//! kernel that gathers every row back out of the arenas only pays for the
//! transposition.  The representation stays here, tested and measured (the
//! contract benchmark's `urel.columnar_encode_us` probe), for the kernel
//! that actually scans a column.
//!
//! The conversion is lossless in both directions and preserves the
//! canonical row order, so `to_relation ∘ from_relation` is the identity and
//! the chunk's [`content_digest`](ColumnarChunk::content_digest) equals the
//! source relation's.

use crate::condition::Condition;
use crate::urelation::{URelation, URow};
use crate::variable::Var;
use pdb::{Schema, Tuple, Value};

/// A columnar view of one partition chunk: `columns[a][i]` is the value of
/// attribute `a` in the chunk's `i`-th row (canonical order), and row `i`'s
/// condition pairs live at `cond_offsets[i]..cond_offsets[i + 1]` of the
/// flattened condition arenas.
#[derive(Clone, Debug, PartialEq)]
pub struct ColumnarChunk {
    schema: Schema,
    len: usize,
    columns: Vec<Vec<Value>>,
    cond_vars: Vec<Var>,
    cond_values: Vec<Value>,
    cond_offsets: Vec<usize>,
    digest: (u64, u64, usize),
}

impl ColumnarChunk {
    /// Transposes a U-relation into columnar form, preserving the canonical
    /// row order and recording the source's content digest.
    pub fn from_relation(rel: &URelation) -> ColumnarChunk {
        let arity = rel.schema().arity();
        let mut columns: Vec<Vec<Value>> =
            (0..arity).map(|_| Vec::with_capacity(rel.len())).collect();
        let mut cond_vars = Vec::new();
        let mut cond_values = Vec::new();
        let mut cond_offsets = Vec::with_capacity(rel.len() + 1);
        cond_offsets.push(0);
        for row in rel.iter() {
            for (column, value) in columns.iter_mut().zip(row.tuple.values()) {
                column.push(value.clone());
            }
            for (var, value) in row.condition.iter() {
                cond_vars.push(var.clone());
                cond_values.push(value.clone());
            }
            cond_offsets.push(cond_vars.len());
        }
        ColumnarChunk {
            schema: rel.schema().clone(),
            len: rel.len(),
            columns,
            cond_vars,
            cond_values,
            cond_offsets,
            digest: rel.content_digest(),
        }
    }

    /// Rebuilds the row-form relation (the exact inverse of
    /// [`from_relation`](ColumnarChunk::from_relation)).
    pub fn to_relation(&self) -> URelation {
        // Canonical order in, so the set is one bulk build of a sorted run.
        let rows = (0..self.len).map(|i| URow {
            condition: self.condition_at(i),
            tuple: self.tuple_at(i),
        });
        URelation::from_rows(self.schema.clone(), rows.collect())
    }

    /// The data schema.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True if the chunk has no rows.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The contiguous value arena of attribute `attr` (indexed by schema
    /// position); kernels probing one attribute scan this slice directly.
    pub fn column(&self, attr: usize) -> &[Value] {
        &self.columns[attr]
    }

    /// Materialises row `i`'s data tuple by gathering one value from each
    /// column arena.
    pub fn tuple_at(&self, i: usize) -> Tuple {
        self.columns.iter().map(|c| c[i].clone()).collect()
    }

    /// Row `i`'s condition pairs, in variable order, straight from the
    /// flattened condition arenas.
    pub fn condition_pairs(&self, i: usize) -> impl Iterator<Item = (&Var, &Value)> {
        let range = self.cond_offsets[i]..self.cond_offsets[i + 1];
        self.cond_vars[range.clone()]
            .iter()
            .zip(&self.cond_values[range])
    }

    /// Materialises row `i`'s condition.
    pub fn condition_at(&self, i: usize) -> Condition {
        Condition::new(
            self.condition_pairs(i)
                .map(|(var, value)| (var.clone(), value.clone())),
        )
        .expect("chunk conditions come from valid rows")
    }

    /// The content digest of the rows this chunk was built from; equal to
    /// [`URelation::content_digest`] of
    /// [`to_relation`](ColumnarChunk::to_relation) by construction.
    pub fn content_digest(&self) -> (u64, u64, usize) {
        self.digest
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pdb::{schema, tuple};

    fn mixed() -> URelation {
        let mut u = URelation::empty(schema!["A", "B", "C"]);
        for i in 0..20i64 {
            let cond = Condition::new([
                (Var::new(format!("x{}", i % 3)), Value::Int(i % 2)),
                (Var::new("y"), Value::str(format!("v{i}"))),
            ])
            .unwrap();
            u.insert(cond, tuple![i, format!("s{i}"), i as f64 / 4.0])
                .unwrap();
        }
        u.insert(Condition::always(), tuple![99, "plain", 0.5])
            .unwrap();
        u
    }

    #[test]
    fn round_trips_losslessly_and_digest_stable() {
        let u = mixed();
        let chunk = ColumnarChunk::from_relation(&u);
        assert_eq!(chunk.len(), u.len());
        assert_eq!(chunk.schema(), u.schema());
        let back = chunk.to_relation();
        assert_eq!(back, u);
        assert_eq!(chunk.content_digest(), u.content_digest());
        assert_eq!(back.content_digest(), u.content_digest());
    }

    #[test]
    fn columns_are_contiguous_per_attribute() {
        let u = mixed();
        let chunk = ColumnarChunk::from_relation(&u);
        let rows: Vec<&URow> = u.iter().collect();
        for (i, row) in rows.iter().enumerate() {
            for a in 0..u.schema().arity() {
                assert_eq!(chunk.column(a)[i], row.tuple[a]);
            }
            assert_eq!(chunk.tuple_at(i), row.tuple);
            assert_eq!(chunk.condition_at(i), row.condition);
            assert_eq!(chunk.condition_pairs(i).count(), row.condition.len());
        }
    }

    #[test]
    fn empty_chunk() {
        let u = URelation::empty(schema!["A"]);
        let chunk = ColumnarChunk::from_relation(&u);
        assert!(chunk.is_empty());
        assert_eq!(chunk.to_relation(), u);
        assert_eq!(chunk.content_digest(), u.content_digest());
    }
}
