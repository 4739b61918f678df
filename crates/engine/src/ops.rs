//! The parsimonious translation of positive relational algebra onto
//! U-relations (Section 3): every operation manipulates `(condition, tuple)`
//! rows directly, merging conditions where the classical operation would
//! combine tuples.

use crate::error::{EngineError, Result};
use algebra::{BoundExpr, BoundPredicate, Predicate, ProjItem};
use pdb::{Schema, Tuple, Value};
use std::borrow::Cow;
use std::collections::HashMap;
use std::sync::Arc;
use urel::{Condition, URelation, URow};

/// Merges per-chunk operator outputs; set semantics make the merged relation
/// identical to the single-batch result, whatever the chunking.
pub(crate) fn merge_chunks(outs: Vec<URelation>) -> URelation {
    let mut it = outs.into_iter();
    let mut merged = it.next().expect("partition yields at least one chunk");
    for o in it {
        merged.absorb(o);
    }
    merged
}

/// A chain of `σ`, `π` and `ρ` bound to the schema of the relation it
/// reads: every predicate and projection item resolved against its input
/// schema once, when the link is added, never per row.  Applied to a row's
/// tuple, the chain yields the tuple it ends with, or nothing when a `σ`
/// drops the row; Section 3 carries the row's condition through every link
/// unchanged.  The single-operator kernels ([`select`], [`project`],
/// [`rename`]) are one-link chains, and an exact `conf` reads its input
/// through the whole chain without building the relations between links.
pub(crate) struct Chain<'a> {
    links: Vec<Link<'a>>,
    schema: Schema,
}

/// One row-level link of a [`Chain`]; a `ρ` only renames the schema.
enum Link<'a> {
    Select(BoundPredicate<'a>),
    Project(Vec<BoundExpr<'a>>),
}

impl<'a> Chain<'a> {
    /// The empty chain over `schema`: every row, its tuple as it is.
    pub(crate) fn new(schema: Schema) -> Chain<'a> {
        Chain {
            links: Vec::new(),
            schema,
        }
    }

    /// The schema of the tuples the chain yields.
    pub(crate) fn schema(&self) -> &Schema {
        &self.schema
    }

    /// Appends `σ_predicate`.
    pub(crate) fn select(mut self, predicate: &'a Predicate) -> Result<Chain<'a>> {
        self.links.push(Link::Select(predicate.bind(&self.schema)?));
        Ok(self)
    }

    /// Appends `π_items`.
    pub(crate) fn project(mut self, items: &'a [ProjItem]) -> Result<Chain<'a>> {
        let schema = Schema::new(items.iter().map(|i| i.name.clone())).map_err(EngineError::Pdb)?;
        self.links
            .push(Link::Project(bind_items(&self.schema, items)?));
        self.schema = schema;
        Ok(self)
    }

    /// Appends `ρ_{from→to}`.
    pub(crate) fn rename(mut self, from: &str, to: &str) -> Result<Chain<'a>> {
        self.schema = self.schema.rename(from, to).map_err(EngineError::Pdb)?;
        Ok(self)
    }

    /// The tuple the chain makes of `tuple` — borrowed until a `π` computes
    /// a new one — or `None` if a `σ` drops it.
    pub(crate) fn apply<'t>(&self, tuple: &'t Tuple) -> Result<Option<Cow<'t, Tuple>>> {
        let mut tuple = Cow::Borrowed(tuple);
        for link in &self.links {
            match link {
                Link::Select(predicate) => {
                    if !predicate.eval(&tuple)? {
                        return Ok(None);
                    }
                }
                Link::Project(exprs) => tuple = Cow::Owned(projected(exprs, &tuple)?),
            }
        }
        Ok(Some(tuple))
    }

    /// The relation the chain makes of `rel`: its rows through
    /// [`apply`](Chain::apply), each with its condition, as one set.
    pub(crate) fn materialise(&self, rel: &URelation) -> Result<URelation> {
        let mut rows = Vec::with_capacity(rel.len());
        for row in rel.iter() {
            if let Some(tuple) = self.apply(&row.tuple)? {
                rows.push(URow {
                    condition: row.condition.clone(),
                    tuple: tuple.into_owned(),
                });
            }
        }
        Ok(URelation::from_row_vec(self.schema.clone(), rows)?)
    }
}

/// Projection items bound to `schema` ([`algebra::Expr::bind`]).
pub(crate) fn bind_items<'a>(schema: &Schema, items: &'a [ProjItem]) -> Result<Vec<BoundExpr<'a>>> {
    let bound = items.iter().map(|item| item.expr.bind(schema));
    Ok(bound.collect::<algebra::Result<_>>()?)
}

/// The tuple of the bound items' values over `tuple`: its image under `π`.
pub(crate) fn projected(exprs: &[BoundExpr<'_>], tuple: &Tuple) -> Result<Tuple> {
    let mut values = Vec::with_capacity(exprs.len());
    push_values(exprs, tuple, &mut values)?;
    Ok(Tuple::new(values))
}

/// `tuple` followed by the bound items' values over it: its image under an
/// extension.
pub(crate) fn extended(exprs: &[BoundExpr<'_>], tuple: &Tuple) -> Result<Tuple> {
    let mut values = Vec::with_capacity(tuple.arity() + exprs.len());
    values.extend(tuple.values().cloned());
    push_values(exprs, tuple, &mut values)?;
    Ok(Tuple::new(values))
}

fn push_values(exprs: &[BoundExpr<'_>], tuple: &Tuple, values: &mut Vec<Value>) -> Result<()> {
    for expr in exprs {
        values.push(expr.eval(tuple)?.into_owned());
    }
    Ok(())
}

/// `σ_φ`: keeps rows whose data tuple satisfies the predicate.
pub fn select(rel: &URelation, predicate: &Predicate) -> Result<URelation> {
    Chain::new(rel.schema().clone())
        .select(predicate)?
        .materialise(rel)
}

/// Generalised projection `π_items`: each output attribute is computed from
/// the input tuple; conditions are carried over unchanged.
pub fn project(rel: &URelation, items: &[ProjItem]) -> Result<URelation> {
    Chain::new(rel.schema().clone())
        .project(items)?
        .materialise(rel)
}

/// Extension: keeps all input attributes and appends the computed items.
pub fn extend(rel: &URelation, items: &[ProjItem]) -> Result<URelation> {
    let mut names: Vec<String> = rel.schema().attrs().to_vec();
    names.extend(items.iter().map(|i| i.name.clone()));
    let out_schema = Schema::new(names).map_err(EngineError::Pdb)?;
    let exprs = bind_items(rel.schema(), items)?;
    let mut rows = Vec::with_capacity(rel.len());
    for row in rel.iter() {
        rows.push(URow {
            condition: row.condition.clone(),
            tuple: extended(&exprs, &row.tuple)?,
        });
    }
    Ok(URelation::from_row_vec(out_schema, rows)?)
}

/// `ρ_{from→to}`: renames an attribute.
pub fn rename(rel: &URelation, from: &str, to: &str) -> Result<URelation> {
    Chain::new(rel.schema().clone())
        .rename(from, to)?
        .materialise(rel)
}

/// `×`: pairs of rows with consistent conditions; their conditions are merged
/// (the `UR.D ∪ US.D → D` of the Section 3 translation).
pub fn product(left: &URelation, right: &URelation) -> Result<URelation> {
    let out_schema = left
        .schema()
        .concat(right.schema(), "rhs")
        .map_err(EngineError::Pdb)?;
    let mut rows = Vec::new();
    for l in left.iter() {
        for r in right.iter() {
            let Some(condition) = l.condition.merge(&r.condition) else {
                continue;
            };
            rows.push(URow {
                condition,
                tuple: l.tuple.concat(&r.tuple),
            });
        }
    }
    Ok(URelation::from_row_vec(out_schema, rows)?)
}

/// How the two schemas of a `⋈` line up: where the shared (join-key)
/// attributes sit on each side, which right-side attributes are appended,
/// and the resulting output schema `left attrs ++ right rest`.
pub(crate) struct JoinShape {
    pub(crate) left_key: Vec<usize>,
    pub(crate) right_key: Vec<usize>,
    pub(crate) right_rest: Vec<usize>,
    pub(crate) out_schema: Schema,
}

impl JoinShape {
    pub(crate) fn new(left: &Schema, right: &Schema) -> Result<JoinShape> {
        let shared: Vec<String> = left
            .attrs()
            .iter()
            .filter(|a| right.contains(a))
            .cloned()
            .collect();
        let right_rest: Vec<String> = right.minus(&shared);
        let mut names: Vec<String> = left.attrs().to_vec();
        names.extend(right_rest.iter().cloned());
        Ok(JoinShape {
            left_key: left.indices_of(&shared).map_err(EngineError::Pdb)?,
            right_key: right.indices_of(&shared).map_err(EngineError::Pdb)?,
            right_rest: right.indices_of(&right_rest).map_err(EngineError::Pdb)?,
            out_schema: Schema::new(names).map_err(EngineError::Pdb)?,
        })
    }
}

/// The build side of a `⋈`: a relation's rows by the values of their
/// join-key columns, each with its condition and the projection of its
/// tuple onto the remaining columns.
pub(crate) struct KeyedRows {
    key: Vec<usize>,
    rest: Vec<usize>,
    /// Join key → the matching rows' conditions and rest-tuples.  Lookup
    /// only; output order comes from the set build.
    rows: HashMap<Tuple, Vec<(Condition, Tuple)>>,
}

impl KeyedRows {
    fn build(relation: &URelation, key: &[usize], rest: &[usize]) -> KeyedRows {
        let mut rows: HashMap<Tuple, Vec<(Condition, Tuple)>> = HashMap::new();
        for r in relation.iter() {
            rows.entry(r.tuple.project(key))
                .or_default()
                .push((r.condition.clone(), r.tuple.project(rest)));
        }
        KeyedRows {
            key: key.to_vec(),
            rest: rest.to_vec(),
            rows,
        }
    }
}

/// The right side of a `⋈`, indexed by join key: built once, then probed
/// read-only by the left side — whole, or chunk by chunk (concurrently) when
/// the executor partitions it.  Each left row costs one key lookup instead
/// of a right-side scan, whatever the input sizes.
pub(crate) struct JoinIndex {
    shape: JoinShape,
    right: Arc<KeyedRows>,
}

impl JoinIndex {
    /// Indexes `right` for probes by rows of the `left` schema.  With
    /// `memoise` the keyed rows are kept with `right`'s content
    /// ([`URelation::derived`]) — for a scanned relation, so every join
    /// over the same served content shares one index and a commit's new
    /// content builds its own.  A memo keyed on other columns is left as
    /// it is.
    pub(crate) fn build(left: &Schema, right: &URelation, memoise: bool) -> Result<JoinIndex> {
        let shape = JoinShape::new(left, right.schema())?;
        let fresh = |r: &URelation| KeyedRows::build(r, &shape.right_key, &shape.right_rest);
        let keyed = match memoise.then(|| right.derived(fresh)) {
            Some(memo) if memo.key == shape.right_key && memo.rest == shape.right_rest => memo,
            _ => Arc::new(fresh(right)),
        };
        Ok(JoinIndex {
            shape,
            right: keyed,
        })
    }

    /// Joins `left` (the whole left side or one chunk of it) against the
    /// indexed right side, merging conditions and dropping conflicts.
    pub(crate) fn probe(&self, left: &URelation) -> Result<URelation> {
        let mut rows = Vec::new();
        for l in left.iter() {
            let key = l.tuple.project(&self.shape.left_key);
            let Some(matches) = self.right.rows.get(&key) else {
                continue;
            };
            for (r_cond, r_rest) in matches {
                let Some(condition) = l.condition.merge(r_cond) else {
                    continue;
                };
                rows.push(URow {
                    condition,
                    tuple: l.tuple.concat(r_rest),
                });
            }
        }
        Ok(URelation::from_row_vec(
            self.shape.out_schema.clone(),
            rows,
        )?)
    }

    /// The keyed rows probed (test hook: memo sharing is a pointer
    /// comparison).
    #[cfg(test)]
    pub(crate) fn keyed_rows(&self) -> &Arc<KeyedRows> {
        &self.right
    }
}

/// `⋈`: natural join on shared attribute names, merging conditions (the
/// right side is indexed by join key once and probed by every left row).
pub fn natural_join(left: &URelation, right: &URelation) -> Result<URelation> {
    JoinIndex::build(left.schema(), right, false)?.probe(left)
}

/// How many chunks to split an operator input into: the sharding gate's
/// count, raised so no chunk's *input* weighs much more than the spill
/// budget (chunk outputs near the input's weight then spill individually).
pub(crate) fn chunk_count(input: &URelation, shards: usize, spill_budget: usize) -> usize {
    let by_budget = if spill_budget > 0 && !input.is_empty() {
        input.approx_bytes().div_ceil(spill_budget)
    } else {
        1
    };
    shards.max(1).max(by_budget)
}

/// `∪`: union of the row sets (schemas must have equal arity; the left
/// operand's attribute names win, as columns are positional).
pub fn union(left: &URelation, right: &URelation) -> Result<URelation> {
    if left.schema().arity() != right.schema().arity() {
        return Err(EngineError::Pdb(pdb::PdbError::SchemaMismatch(format!(
            "{} vs {}",
            left.schema(),
            right.schema()
        ))));
    }
    let rows = left.iter().chain(right.iter()).cloned().collect();
    Ok(URelation::from_row_vec(left.schema().clone(), rows)?)
}

/// `−c`: set difference of two *complete* relations (Proposition 3.3 keeps
/// this inside the tractable fragment).  Both inputs must carry only empty
/// conditions.
pub fn difference_complete(left: &URelation, right: &URelation) -> Result<URelation> {
    if !left.is_complete_representation() || !right.is_complete_representation() {
        return Err(EngineError::NotComplete(
            "difference (−c) requires complete inputs".into(),
        ));
    }
    if left.schema().arity() != right.schema().arity() {
        return Err(EngineError::Pdb(pdb::PdbError::SchemaMismatch(format!(
            "{} vs {}",
            left.schema(),
            right.schema()
        ))));
    }
    let right_tuples = right.possible_tuples();
    let rows = left
        .iter()
        .filter(|row| !right_tuples.contains(&row.tuple))
        .cloned()
        .collect();
    Ok(URelation::from_row_vec(left.schema().clone(), rows)?)
}

/// The nested-loop `⋈` straight from the Section 3 translation: the
/// reference the indexed [`natural_join`] and the incremental join rule are
/// tested against.
#[cfg(test)]
pub(crate) fn natural_join_nested_loop(left: &URelation, right: &URelation) -> Result<URelation> {
    let shape = JoinShape::new(left.schema(), right.schema())?;
    let mut out = URelation::empty(shape.out_schema.clone());
    for l in left.iter() {
        let lkey = l.tuple.project(&shape.left_key);
        for r in right.iter() {
            if r.tuple.project(&shape.right_key) != lkey {
                continue;
            }
            let Some(cond) = l.condition.merge(&r.condition) else {
                continue;
            };
            out.insert(cond, l.tuple.concat(&r.tuple.project(&shape.right_rest)))?;
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use algebra::{CmpOp, Expr};
    use pdb::{relation, schema, tuple};
    use urel::Var;

    fn cond(var: &str, val: &str) -> Condition {
        Condition::new([(Var::new(var), Value::str(val))]).unwrap()
    }

    /// The uncertain relation R of Figure 1(a).
    fn ur() -> URelation {
        let mut u = URelation::empty(schema!["CoinType"]);
        u.insert(cond("c", "fair"), tuple!["fair"]).unwrap();
        u.insert(cond("c", "2headed"), tuple!["2headed"]).unwrap();
        u
    }

    /// A complete Faces relation as a U-relation.
    fn faces() -> URelation {
        URelation::from_complete(&relation![schema!["CoinType", "Face", "FProb"];
            ["fair", "H", 0.5], ["fair", "T", 0.5], ["2headed", "H", 1.0]])
    }

    #[test]
    fn select_filters_on_data_only() {
        let s = select(
            &ur(),
            &Predicate::eq(Expr::attr("CoinType"), Expr::konst("fair")),
        )
        .unwrap();
        assert_eq!(s.len(), 1);
        assert_eq!(s.iter().next().unwrap().condition, cond("c", "fair"));
        // Unknown attribute in the predicate is caught.
        assert!(select(&ur(), &Predicate::eq(Expr::attr("X"), Expr::konst(1))).is_err());
    }

    #[test]
    fn project_keeps_conditions_and_dedups() {
        let p = project(&ur(), &[ProjItem::attr("CoinType")]).unwrap();
        assert_eq!(p.len(), 2);
        // Projecting onto the empty schema keeps one row per distinct
        // condition.
        let empty = project(&ur(), &[]).unwrap();
        assert_eq!(empty.schema().arity(), 0);
        assert_eq!(empty.len(), 2);
    }

    #[test]
    fn extend_appends_computed_columns() {
        let f = faces();
        let e = extend(
            &f,
            &[ProjItem::computed(
                Expr::attr("FProb") * Expr::konst(2.0),
                "Doubled",
            )],
        )
        .unwrap();
        assert_eq!(e.schema().arity(), 4);
        assert!(e.possible_tuples().contains(&tuple!["fair", "H", 0.5, 1.0]));
    }

    #[test]
    fn rename_preserves_rows() {
        let r = rename(&ur(), "CoinType", "Kind").unwrap();
        assert_eq!(r.schema().attrs(), &["Kind".to_string()]);
        assert_eq!(r.len(), 2);
        assert!(rename(&ur(), "Nope", "X").is_err());
    }

    #[test]
    fn kernels_bind_every_attribute_before_reading_a_row() {
        // An unknown attribute fails when the kernel binds its predicate or
        // items, before any row is read — over an empty input too, where
        // `π` and extension returned `Ok` while they looked attributes up
        // row by row.
        let empty = URelation::empty(schema!["A"]);
        let unknown = [ProjItem::attr("X")];
        assert!(project(&empty, &unknown).is_err());
        assert!(extend(&empty, &unknown).is_err());
        let predicate = Predicate::eq(Expr::attr("X"), Expr::konst(1));
        assert!(select(&empty, &predicate).is_err());
        assert!(project(&empty, &[ProjItem::attr("A")]).is_ok());
    }

    #[test]
    fn join_merges_conditions_and_drops_conflicts() {
        // Joining R with itself on CoinType keeps consistent pairs only.
        let j = natural_join(&ur(), &ur()).unwrap();
        assert_eq!(j.len(), 2);
        // Joining R with a renamed copy (no shared attributes → product)
        // produces only the consistent combinations: (fair, fair) and
        // (2headed, 2headed), since the conditions share variable c.
        let renamed = rename(&ur(), "CoinType", "Other").unwrap();
        let p = natural_join(&ur(), &renamed).unwrap();
        assert_eq!(p.len(), 2);
        for row in p.iter() {
            assert_eq!(row.tuple[0], row.tuple[1]);
        }
    }

    #[test]
    fn product_prefixes_duplicate_attributes() {
        let p = product(&ur(), &faces()).unwrap();
        assert!(p.schema().contains("rhs.CoinType"));
        // 2 uncertain rows × 3 complete rows, no condition conflicts.
        assert_eq!(p.len(), 6);
    }

    #[test]
    fn join_with_complete_relation() {
        let j = natural_join(&ur(), &faces()).unwrap();
        // fair joins 2 faces, 2headed joins 1.
        assert_eq!(j.len(), 3);
        for row in j.iter() {
            assert_eq!(row.condition.len(), 1);
        }
    }

    /// 60 uncertain sensor readings and a complete zone lookup table.
    fn readings_and_lookup() -> (URelation, URelation) {
        let mut readings = URelation::empty(schema!["Sensor", "Temp"]);
        for i in 0..60 {
            readings
                .insert(cond("v", &format!("a{i}")), tuple![i % 7, 10 + (i % 13)])
                .unwrap();
        }
        let lookup = URelation::from_complete(&relation![schema!["Sensor", "Zone"];
            [0, "north"], [1, "north"], [2, "south"], [3, "south"], [4, "east"], [5, "east"]]);
        (readings, lookup)
    }

    /// The executor's chunked form of a join: one index, one probe per
    /// left chunk, merged.
    fn chunked_join(left: &URelation, right: &URelation, chunks: usize) -> URelation {
        let index = JoinIndex::build(left.schema(), right, false).unwrap();
        merge_chunks(
            left.partition(chunks)
                .iter()
                .map(|c| index.probe(c).unwrap())
                .collect(),
        )
    }

    #[test]
    fn indexed_join_matches_the_nested_loop_reference_for_every_chunk_count() {
        let (readings, lookup) = readings_and_lookup();
        let reference = natural_join_nested_loop(&readings, &lookup).unwrap();
        assert_eq!(natural_join(&readings, &lookup).unwrap(), reference);
        for chunks in [1usize, 2, 3, 4, 8, 64] {
            assert_eq!(
                chunked_join(&readings, &lookup, chunks),
                reference,
                "chunks = {chunks}"
            );
        }
        // Self-join with conflicting conditions drops rows identically.
        let reference = natural_join_nested_loop(&ur(), &ur()).unwrap();
        assert_eq!(natural_join(&ur(), &ur()).unwrap(), reference);
        assert_eq!(chunked_join(&ur(), &ur(), 4), reference);
        // No shared attributes: the join degenerates to the product.
        let renamed = rename(&ur(), "CoinType", "Other").unwrap();
        assert_eq!(
            natural_join(&ur(), &renamed).unwrap(),
            natural_join_nested_loop(&ur(), &renamed).unwrap()
        );
        // Empty sides.
        let empty = URelation::empty(schema!["Sensor", "Temp"]);
        assert_eq!(
            natural_join(&empty, &lookup).unwrap(),
            natural_join_nested_loop(&empty, &lookup).unwrap()
        );
        assert_eq!(
            natural_join(&readings, &URelation::empty(schema!["Sensor", "Zone"])).unwrap(),
            natural_join_nested_loop(&readings, &URelation::empty(schema!["Sensor", "Zone"]))
                .unwrap()
        );
    }

    #[test]
    fn small_probes_against_a_large_table_match_the_reference() {
        // The left (probe) side straddles the executor's chunking threshold
        // while the right side is large: one indexed kernel serves them all.
        let mut table = URelation::empty(schema!["Sensor", "Zone"]);
        for i in 0..2_500 {
            table
                .insert(cond("z", &format!("b{}", i % 50)), tuple![i % 300, i])
                .unwrap();
        }
        for left_rows in [1usize, 127, 128, 129] {
            let mut probe = URelation::empty(schema!["Sensor", "Temp"]);
            for i in 0..left_rows as i64 {
                probe
                    .insert(cond("v", &format!("a{}", i % 9)), tuple![i, 10 + (i % 13)])
                    .unwrap();
            }
            assert_eq!(
                natural_join(&probe, &table).unwrap(),
                natural_join_nested_loop(&probe, &table).unwrap(),
                "left rows = {left_rows}"
            );
        }
    }

    #[test]
    fn chunked_row_kernels_match_single_batch_bit_for_bit() {
        let f = faces();
        let pred = Predicate::cmp(Expr::attr("FProb"), CmpOp::Ge, Expr::konst(0.5));
        let items = [
            ProjItem::attr("CoinType"),
            ProjItem::computed(Expr::attr("FProb") * Expr::konst(2.0), "Doubled"),
        ];
        for chunks in [1usize, 2, 3] {
            let chunked = |kernel: &dyn Fn(&URelation) -> Result<URelation>| {
                merge_chunks(
                    f.partition(chunks)
                        .iter()
                        .map(|c| kernel(c).unwrap())
                        .collect(),
                )
            };
            assert_eq!(chunked(&|c| select(c, &pred)), select(&f, &pred).unwrap());
            assert_eq!(
                chunked(&|c| project(c, &items)),
                project(&f, &items).unwrap()
            );
            assert_eq!(
                chunked(&|c| extend(c, &items[1..])),
                extend(&f, &items[1..]).unwrap()
            );
            assert_eq!(chunked(&|c| product(c, &ur())), product(&f, &ur()).unwrap());
        }
    }

    #[test]
    fn chunk_count_follows_the_shard_gate_and_the_spill_budget() {
        let (readings, _) = readings_and_lookup();
        // Budget-driven chunking kicks in even at one shard.
        assert!(chunk_count(&readings, 1, 64) > 1);
        assert_eq!(chunk_count(&readings, 4, 0), 4);
        assert_eq!(chunk_count(&URelation::empty(schema!["A"]), 1, 64), 1);
    }

    #[test]
    fn union_and_difference() {
        let u = union(&ur(), &ur()).unwrap();
        assert_eq!(u.len(), 2); // identical rows dedup
        let a = URelation::from_complete(&relation![schema!["A"]; [1], [2]]);
        let b = URelation::from_complete(&relation![schema!["A"]; [2], [3]]);
        let d = difference_complete(&a, &b).unwrap();
        assert_eq!(d.len(), 1);
        assert!(d.possible_tuples().contains(&tuple![1]));
        // Uncertain inputs are rejected.
        let bad = difference_complete(&ur(), &ur());
        assert!(matches!(bad, Err(EngineError::NotComplete(_))));
        // Arity mismatches are rejected.
        let c = URelation::from_complete(&relation![schema!["A", "B"]; [1, 2]]);
        assert!(union(&a, &c).is_err());
        assert!(difference_complete(&a, &c).is_err());
    }

    #[test]
    fn selection_with_comparison_on_numbers() {
        let f = faces();
        let s = select(
            &f,
            &Predicate::cmp(Expr::attr("FProb"), CmpOp::Ge, Expr::konst(0.9)),
        )
        .unwrap();
        assert_eq!(s.len(), 1);
        assert!(s.possible_tuples().contains(&tuple!["2headed", "H", 1.0]));
    }

    /// A relation over `schema` from `(a, b, c)` rows: integer columns
    /// `a`, `b`, then `c` for a third column, under no condition (`c` 0) or
    /// `v = c`.
    fn keyed_relation(schema: Schema, rows: &[(i64, i64, i64)]) -> URelation {
        let mut rel = URelation::empty(schema.clone());
        for &(a, b, c) in rows {
            let values = [a, b, c].into_iter().take(schema.arity()).map(Value::Int);
            let condition = match c {
                0 => Condition::always(),
                c => Condition::new([(Var::new("v"), Value::Int(c))]).unwrap(),
            };
            rel.insert(condition, Tuple::new(values.collect())).unwrap();
        }
        rel
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig { cases: 128, ..Default::default() })]

        /// Joins probing a memoised index of the right side against fresh
        /// ones and the nested-loop reference, for left sides keyed on
        /// both, one or none of the right side's first two columns: equal
        /// output; the memo shared by every build of its key, dropped by an
        /// edit, and never used for another key.
        #[test]
        fn a_memoised_join_index_matches_a_fresh_one(
            right_rows in proptest::collection::vec((0i64..4, 0i64..3, 0i64..3), 0..16),
            left_rows in proptest::collection::vec((0i64..4, 0i64..3, 0i64..3), 0..16),
            first in 0usize..3,
        ) {
            use proptest::{prop_assert, prop_assert_eq};
            let mut right = keyed_relation(schema!["K", "W", "B"], &right_rows);
            let lefts = [schema!["K", "W"], schema!["K", "X"], schema!["Y"]];
            // The first left schema built decides the memo's key.
            let order = (0..3).map(|i| &lefts[(first + i) % 3]);
            let mut memo = None;
            for schema in order {
                let left = keyed_relation(schema.clone(), &left_rows);
                let memoised = JoinIndex::build(schema, &right, true).unwrap();
                let fresh = JoinIndex::build(schema, &right, false).unwrap();
                let reference = natural_join_nested_loop(&left, &right).unwrap();
                prop_assert_eq!(memoised.probe(&left).unwrap(), fresh.probe(&left).unwrap());
                prop_assert_eq!(memoised.probe(&left).unwrap(), reference);
                let again = JoinIndex::build(schema, &right.clone(), true).unwrap();
                let kept = Arc::ptr_eq(memoised.keyed_rows(), again.keyed_rows());
                prop_assert_eq!(kept, memo.is_none());
                prop_assert!(!Arc::ptr_eq(fresh.keyed_rows(), memoised.keyed_rows()));
                memo = memo.or(Some(Arc::clone(memoised.keyed_rows())));
            }
            let memo = memo.unwrap();
            right.insert(Condition::always(), tuple![9, 9, 9]).unwrap();
            let schema = &lefts[first];
            let edited = JoinIndex::build(schema, &right, true).unwrap();
            prop_assert!(!Arc::ptr_eq(edited.keyed_rows(), &memo));
            let left = keyed_relation(schema.clone(), &left_rows);
            prop_assert_eq!(edited.probe(&left).unwrap(), natural_join_nested_loop(&left, &right).unwrap());
        }
    }
}
