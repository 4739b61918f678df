//! Relations: schema-carrying sets of tuples with the classical relational
//! algebra operations applied *within one possible world*.

use crate::error::{PdbError, Result};
use crate::schema::Schema;
use crate::tuple::Tuple;
use std::collections::BTreeSet;
use std::fmt;

/// A finite relation under set semantics.
///
/// Tuples are kept in a sorted set so iteration order is canonical; this is
/// what makes the naive possible-worlds engine usable as a deterministic
/// ground-truth oracle in tests.
#[derive(Clone, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Relation {
    schema: Schema,
    tuples: BTreeSet<Tuple>,
}

impl Relation {
    /// Creates an empty relation with the given schema.
    pub fn empty(schema: Schema) -> Self {
        Relation {
            schema,
            tuples: BTreeSet::new(),
        }
    }

    /// Creates a relation from a schema and tuples, validating arities (the
    /// first mismatching tuple is reported).  Duplicates collapse; the set
    /// is built in one sort and one pass rather than one insert per tuple.
    pub fn new(schema: Schema, tuples: impl IntoIterator<Item = Tuple>) -> Result<Self> {
        let tuples: Vec<Tuple> = tuples.into_iter().collect();
        if let Some(t) = tuples.iter().find(|t| t.arity() != schema.arity()) {
            return Err(PdbError::ArityMismatch {
                expected: schema.arity(),
                actual: t.arity(),
            });
        }
        Ok(Relation {
            schema,
            tuples: tuples.into_iter().collect(),
        })
    }

    /// The relation's schema.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// Number of tuples.
    pub fn len(&self) -> usize {
        self.tuples.len()
    }

    /// True if the relation holds no tuples.
    pub fn is_empty(&self) -> bool {
        self.tuples.is_empty()
    }

    /// A 128-bit-plus-length content fingerprint
    /// ([`content_fingerprint`](crate::content_fingerprint) over schema and
    /// tuples).  The relational identity used by caches and serving layers:
    /// equal digests mean content-equal relations up to hash collision, so
    /// a replacement with an unchanged digest is a no-op update.
    pub fn content_digest(&self) -> (u64, u64, usize) {
        crate::content_fingerprint(self, self.tuples.len())
    }

    /// Inserts a tuple, checking its arity; returns whether it was new.
    pub fn insert(&mut self, t: Tuple) -> Result<bool> {
        if t.arity() != self.schema.arity() {
            return Err(PdbError::ArityMismatch {
                expected: self.schema.arity(),
                actual: t.arity(),
            });
        }
        Ok(self.tuples.insert(t))
    }

    /// Membership test.
    pub fn contains(&self, t: &Tuple) -> bool {
        self.tuples.contains(t)
    }

    /// Iterates over tuples in canonical order.
    pub fn iter(&self) -> impl Iterator<Item = &Tuple> {
        self.tuples.iter()
    }

    /// Selection: keeps tuples satisfying `pred`.
    pub fn select(&self, mut pred: impl FnMut(&Tuple) -> bool) -> Relation {
        Relation {
            schema: self.schema.clone(),
            tuples: self.tuples.iter().filter(|t| pred(t)).cloned().collect(),
        }
    }

    /// Selection where the predicate may fail (for example on a type error in
    /// an arithmetic condition); the first error aborts the operation.
    pub fn try_select(&self, mut pred: impl FnMut(&Tuple) -> Result<bool>) -> Result<Relation> {
        let mut out = Relation::empty(self.schema.clone());
        for t in &self.tuples {
            if pred(t)? {
                out.tuples.insert(t.clone());
            }
        }
        Ok(out)
    }

    /// Projection onto the named attributes (duplicates eliminated).
    pub fn project(&self, names: &[impl AsRef<str>]) -> Result<Relation> {
        let idx = self.schema.indices_of(names)?;
        let schema = self.schema.project(names)?;
        let tuples = self.tuples.iter().map(|t| t.project(&idx)).collect();
        Ok(Relation { schema, tuples })
    }

    /// Generalised projection / renaming: each output attribute is produced
    /// by a function of the input tuple.  This is how `ρ_{A+B→C}` and the
    /// arithmetic arguments of `π` are executed.
    pub fn map<F>(&self, schema: Schema, mut f: F) -> Result<Relation>
    where
        F: FnMut(&Tuple) -> Result<Tuple>,
    {
        let mut out = Relation::empty(schema);
        for t in &self.tuples {
            let u = f(t)?;
            out.insert(u)?;
        }
        Ok(out)
    }

    /// Cartesian product; right-hand attribute names clashing with the left
    /// are prefixed with `rhs_prefix`.
    pub fn product(&self, other: &Relation, rhs_prefix: &str) -> Result<Relation> {
        let schema = self.schema.concat(other.schema(), rhs_prefix)?;
        let mut tuples = BTreeSet::new();
        for a in &self.tuples {
            for b in &other.tuples {
                tuples.insert(a.concat(b));
            }
        }
        Ok(Relation { schema, tuples })
    }

    /// Natural join on the shared attribute names.
    pub fn natural_join(&self, other: &Relation) -> Result<Relation> {
        let shared: Vec<String> = self
            .schema
            .attrs()
            .iter()
            .filter(|a| other.schema.contains(a))
            .cloned()
            .collect();
        let left_idx = self.schema.indices_of(&shared)?;
        let right_idx = other.schema.indices_of(&shared)?;
        let right_rest: Vec<String> = other.schema.minus(&shared);
        let right_rest_idx = other.schema.indices_of(&right_rest)?;

        let mut schema_attrs: Vec<String> = self.schema.attrs().to_vec();
        schema_attrs.extend(right_rest.iter().cloned());
        let schema = Schema::new(schema_attrs)?;

        let mut tuples = BTreeSet::new();
        for a in &self.tuples {
            let akey = a.project(&left_idx);
            for b in &other.tuples {
                if b.project(&right_idx) == akey {
                    tuples.insert(a.concat(&b.project(&right_rest_idx)));
                }
            }
        }
        Ok(Relation { schema, tuples })
    }

    /// Union; schemas must have the same arity (attribute names are taken
    /// from the left operand, as the algebra identifies columns by position).
    pub fn union(&self, other: &Relation) -> Result<Relation> {
        self.check_union_compatible(other)?;
        let mut tuples = self.tuples.clone();
        tuples.extend(other.tuples.iter().cloned());
        Ok(Relation {
            schema: self.schema.clone(),
            tuples,
        })
    }

    /// Set difference; schemas must be union-compatible.
    pub fn difference(&self, other: &Relation) -> Result<Relation> {
        self.check_union_compatible(other)?;
        let tuples = self
            .tuples
            .iter()
            .filter(|t| !other.tuples.contains(*t))
            .cloned()
            .collect();
        Ok(Relation {
            schema: self.schema.clone(),
            tuples,
        })
    }

    /// Intersection; schemas must be union-compatible.
    pub fn intersection(&self, other: &Relation) -> Result<Relation> {
        self.check_union_compatible(other)?;
        let tuples = self
            .tuples
            .iter()
            .filter(|t| other.tuples.contains(*t))
            .cloned()
            .collect();
        Ok(Relation {
            schema: self.schema.clone(),
            tuples,
        })
    }

    /// Renames a single attribute.
    pub fn rename_attr(&self, from: &str, to: &str) -> Result<Relation> {
        Ok(Relation {
            schema: self.schema.rename(from, to)?,
            tuples: self.tuples.clone(),
        })
    }

    /// Groups tuples by the values of the named key attributes, returning the
    /// groups in canonical key order.  Used by `repair-key`.
    pub fn group_by(&self, key: &[impl AsRef<str>]) -> Result<Vec<(Tuple, Vec<Tuple>)>> {
        let idx = self.schema.indices_of(key)?;
        let mut groups: Vec<(Tuple, Vec<Tuple>)> = Vec::new();
        for t in &self.tuples {
            let k = t.project(&idx);
            match groups.binary_search_by(|(g, _)| g.cmp(&k)) {
                Ok(i) => groups[i].1.push(t.clone()),
                Err(i) => groups.insert(i, (k, vec![t.clone()])),
            }
        }
        Ok(groups)
    }

    /// Reads a numeric attribute of a tuple, with a typed error otherwise.
    pub fn numeric_value(&self, t: &Tuple, attr: &str) -> Result<f64> {
        let i = self
            .schema
            .index_of(attr)
            .ok_or_else(|| PdbError::UnknownAttribute(attr.to_owned()))?;
        t[i].as_f64().ok_or_else(|| {
            PdbError::InvalidWeight(format!("attribute `{attr}` of {t} is not numeric"))
        })
    }

    fn check_union_compatible(&self, other: &Relation) -> Result<()> {
        if self.schema.arity() != other.schema.arity() {
            return Err(PdbError::SchemaMismatch(format!(
                "{} vs {}",
                self.schema, other.schema
            )));
        }
        Ok(())
    }
}

impl fmt::Display for Relation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "{}", self.schema)?;
        for t in &self.tuples {
            writeln!(f, "  {t}")?;
        }
        Ok(())
    }
}

/// Builds a relation literal from a schema and rows of values.
///
/// ```
/// use pdb::{relation, schema};
/// let coins = relation![schema!["CoinType", "Count"];
///     ["fair", 2],
///     ["2headed", 1],
/// ];
/// assert_eq!(coins.len(), 2);
/// ```
#[macro_export]
macro_rules! relation {
    ($schema:expr; $([$($v:expr),* $(,)?]),* $(,)?) => {
        $crate::Relation::new(
            $schema,
            vec![$($crate::tuple![$($v),*]),*],
        ).expect("invalid relation! literal")
    };
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::value::Value;
    use crate::{schema, tuple};

    fn coins() -> Relation {
        relation![schema!["CoinType", "Count"]; ["fair", 2], ["2headed", 1]]
    }

    fn faces() -> Relation {
        relation![schema!["CoinType", "Face", "FProb"];
            ["fair", "H", 0.5], ["fair", "T", 0.5], ["2headed", "H", 1.0]]
    }

    #[test]
    fn content_digests_identify_content() {
        assert_eq!(coins().content_digest(), coins().content_digest());
        assert_ne!(coins().content_digest(), faces().content_digest());
        // The length component alone separates truncations.
        let mut shorter = coins();
        let t = tuple!["2headed", 1];
        shorter = shorter.select(|row| row != &t);
        assert_ne!(coins().content_digest(), shorter.content_digest());
    }

    #[test]
    fn insert_checks_arity() {
        let mut r = Relation::empty(schema!["A"]);
        assert!(r.insert(tuple![1]).unwrap());
        assert!(!r.insert(tuple![1]).unwrap()); // duplicate
        assert!(r.insert(tuple![1, 2]).is_err());
        assert_eq!(r.len(), 1);
    }

    #[test]
    fn select_and_project() {
        let r = coins();
        let fair = r.select(|t| t[0] == Value::str("fair"));
        assert_eq!(fair.len(), 1);
        let types = r.project(&["CoinType"]).unwrap();
        assert_eq!(types.len(), 2);
        assert_eq!(types.schema().attrs(), &["CoinType".to_string()]);
        assert!(r.project(&["Nope"]).is_err());
    }

    #[test]
    fn projection_eliminates_duplicates() {
        let r = faces();
        let p = r.project(&["CoinType"]).unwrap();
        assert_eq!(p.len(), 2);
    }

    #[test]
    fn product_prefixes_clashing_names() {
        let r = coins();
        let s = faces();
        let p = r.product(&s, "f").unwrap();
        assert_eq!(p.len(), 6);
        assert_eq!(p.schema().arity(), 5);
        assert!(p.schema().contains("f.CoinType"));
    }

    #[test]
    fn natural_join_matches_on_shared_attrs() {
        let j = coins().natural_join(&faces()).unwrap();
        // fair matches 2 faces, 2headed matches 1
        assert_eq!(j.len(), 3);
        assert_eq!(j.schema().attrs().len(), 4);
    }

    #[test]
    fn natural_join_without_shared_attrs_is_product() {
        let a = relation![schema!["A"]; [1], [2]];
        let b = relation![schema!["B"]; [10]];
        let j = a.natural_join(&b).unwrap();
        assert_eq!(j.len(), 2);
    }

    #[test]
    fn union_difference_intersection() {
        let a = relation![schema!["A"]; [1], [2]];
        let b = relation![schema!["A"]; [2], [3]];
        assert_eq!(a.union(&b).unwrap().len(), 3);
        assert_eq!(a.difference(&b).unwrap().len(), 1);
        assert_eq!(a.intersection(&b).unwrap().len(), 1);
        let c = relation![schema!["A", "B"]; [1, 2]];
        assert!(a.union(&c).is_err());
        assert!(a.difference(&c).is_err());
    }

    #[test]
    fn group_by_orders_groups() {
        let g = faces().group_by(&["CoinType"]).unwrap();
        assert_eq!(g.len(), 2);
        assert_eq!(g[0].0, tuple!["2headed"]);
        assert_eq!(g[0].1.len(), 1);
        assert_eq!(g[1].1.len(), 2);
        // Grouping by the empty key puts everything in one group.
        let g0 = faces().group_by(&[] as &[&str]).unwrap();
        assert_eq!(g0.len(), 1);
        assert_eq!(g0[0].1.len(), 3);
    }

    #[test]
    fn numeric_value_errors_on_strings() {
        let r = coins();
        let t = tuple!["fair", 2];
        assert_eq!(r.numeric_value(&t, "Count").unwrap(), 2.0);
        assert!(r.numeric_value(&t, "CoinType").is_err());
        assert!(r.numeric_value(&t, "Missing").is_err());
    }

    #[test]
    fn map_builds_new_columns() {
        let r = coins();
        let out_schema = schema!["CoinType", "Double"];
        let doubled = r
            .map(out_schema, |t| {
                let c = t[1].as_f64().unwrap() * 2.0;
                Ok(Tuple::new(vec![t[0].clone(), Value::float(c)]))
            })
            .unwrap();
        assert!(doubled.contains(&tuple!["fair", 4.0]));
    }

    #[test]
    fn try_select_propagates_errors() {
        let r = coins();
        let res = r.try_select(|t| {
            t[0].as_f64()
                .map(|v| v > 0.0)
                .ok_or(PdbError::Invariant("not numeric".into()))
        });
        assert!(res.is_err());
    }
}
