//! Data provenance for positive relational algebra (Section 6).
//!
//! The paper defines `(t, Q) ≺ (r, R)` as the transitive closure of the
//! per-operator rules: intuitively, it holds if there is a database in which
//! changing the membership of `r` in `R` changes the membership of `t` in the
//! result of `Q`.  Lemma 6.4 bounds the error of a result tuple by the sum of
//! the errors of the `σ̂`-output tuples in its provenance, and Example 6.5
//! shows that the provenance of a projection output can be the *entire*
//! input (error `≤ µ·n`).
//!
//! The functions here compute provenance sets over materialised relations;
//! the evaluator itself uses the cheaper aggregated error propagation, and
//! the benchmark harness uses this module to reproduce Example 6.5 and to
//! cross-check the aggregated bounds.

use crate::error::Result;
use algebra::{Predicate, ProjItem, Query};
use pdb::{Relation, Schema, Tuple};
use std::collections::BTreeSet;

/// The provenance of one output tuple: the set of input tuples (per base
/// relation name) whose membership can influence it.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Provenance {
    entries: BTreeSet<(String, Tuple)>,
}

impl Provenance {
    /// Creates an empty provenance set.
    pub fn new() -> Self {
        Provenance::default()
    }

    /// Adds a dependency on `tuple` of base relation `relation`.
    pub fn add(&mut self, relation: impl Into<String>, tuple: Tuple) {
        self.entries.insert((relation.into(), tuple));
    }

    /// Merges another provenance set into this one.
    pub fn extend(&mut self, other: &Provenance) {
        self.entries.extend(other.entries.iter().cloned());
    }

    /// Number of `(relation, tuple)` dependencies.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True if the provenance is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Iterates over the dependencies.
    pub fn iter(&self) -> impl Iterator<Item = &(String, Tuple)> {
        self.entries.iter()
    }

    /// True if the provenance mentions the given tuple of the given relation.
    pub fn depends_on(&self, relation: &str, tuple: &Tuple) -> bool {
        self.entries.contains(&(relation.to_owned(), tuple.clone()))
    }

    /// The error bound of Lemma 6.4(1): the sum of the supplied per-input
    /// errors over the provenance set, capped at 1.
    pub fn error_bound(&self, mut error_of: impl FnMut(&str, &Tuple) -> f64) -> f64 {
        self.entries
            .iter()
            .map(|(r, t)| error_of(r, t))
            .sum::<f64>()
            .min(1.0)
    }
}

/// A relation whose tuples carry provenance annotations.
#[derive(Clone, Debug)]
pub struct AnnotatedRelation {
    /// The relation's schema.
    pub schema: Schema,
    /// Tuples with their provenance.
    pub tuples: Vec<(Tuple, Provenance)>,
}

impl AnnotatedRelation {
    /// Wraps a base relation: each tuple depends on itself.
    pub fn from_base(name: &str, relation: &Relation) -> AnnotatedRelation {
        let tuples = relation
            .iter()
            .map(|t| {
                let mut p = Provenance::new();
                p.add(name, t.clone());
                (t.clone(), p)
            })
            .collect();
        AnnotatedRelation {
            schema: relation.schema().clone(),
            tuples,
        }
    }

    /// Looks up the provenance of a tuple (the union over duplicates).
    pub fn provenance_of(&self, tuple: &Tuple) -> Provenance {
        let mut p = Provenance::new();
        for (t, prov) in &self.tuples {
            if t == tuple {
                p.extend(prov);
            }
        }
        p
    }

    fn push(&mut self, tuple: Tuple, provenance: Provenance) {
        // Set semantics with provenance union.
        if let Some(entry) = self.tuples.iter_mut().find(|(t, _)| *t == tuple) {
            entry.1.extend(&provenance);
        } else {
            self.tuples.push((tuple, provenance));
        }
    }
}

/// Evaluates a positive relational algebra query (σ, π, extend, ρ, ×, ⋈, ∪)
/// over complete annotated relations, tracking provenance per the ≺ rules.
///
/// `conf`, `repair-key`, `poss`, `cert` and `σ̂` are rejected: provenance in
/// the paper is defined for the relational core, and approximate selections
/// extend it with the rule `(t, σ̂(Q)) ≺ (t, Q)` which the evaluator handles
/// via its aggregated error bounds.
pub fn annotate(
    query: &Query,
    base: &dyn Fn(&str) -> Option<AnnotatedRelation>,
) -> Result<AnnotatedRelation> {
    use crate::error::EngineError;
    match query {
        Query::Table(name) => base(name).ok_or_else(|| {
            EngineError::Algebra(algebra::AlgebraError::UnknownRelation(name.clone()))
        }),
        Query::Select { input, predicate } => {
            let input = annotate(input, base)?;
            select(&input, predicate)
        }
        Query::Project { input, items } => {
            let input = annotate(input, base)?;
            project(&input, items)
        }
        Query::Extend { input, items } => {
            let input = annotate(input, base)?;
            extend(&input, items)
        }
        Query::Rename { input, from, to } => {
            let input = annotate(input, base)?;
            Ok(AnnotatedRelation {
                schema: input.schema.rename(from, to).map_err(EngineError::Pdb)?,
                tuples: input.tuples.clone(),
            })
        }
        Query::Product { left, right } => {
            let left = annotate(left, base)?;
            let right = annotate(right, base)?;
            product(&left, &right)
        }
        Query::NaturalJoin { left, right } => {
            let left = annotate(left, base)?;
            let right = annotate(right, base)?;
            natural_join(&left, &right)
        }
        Query::Union { left, right } => {
            let left = annotate(left, base)?;
            let right = annotate(right, base)?;
            let mut out = AnnotatedRelation {
                schema: left.schema.clone(),
                tuples: Vec::new(),
            };
            for (t, p) in left.tuples.iter().chain(right.tuples.iter()) {
                out.push(t.clone(), p.clone());
            }
            Ok(out)
        }
        other => Err(EngineError::Unsupported(format!(
            "provenance annotation only covers positive relational algebra, not `{other}`"
        ))),
    }
}

fn select(input: &AnnotatedRelation, predicate: &Predicate) -> Result<AnnotatedRelation> {
    let mut out = AnnotatedRelation {
        schema: input.schema.clone(),
        tuples: Vec::new(),
    };
    let predicate = predicate.bind(&input.schema)?;
    for (t, p) in &input.tuples {
        if predicate.eval(t)? {
            out.push(t.clone(), p.clone());
        }
    }
    Ok(out)
}

fn project(input: &AnnotatedRelation, items: &[ProjItem]) -> Result<AnnotatedRelation> {
    let schema = Schema::new(items.iter().map(|i| i.name.clone()))
        .map_err(crate::error::EngineError::Pdb)?;
    let mut out = AnnotatedRelation {
        schema,
        tuples: Vec::new(),
    };
    let exprs = crate::ops::bind_items(&input.schema, items)?;
    for (t, p) in &input.tuples {
        out.push(crate::ops::projected(&exprs, t)?, p.clone());
    }
    Ok(out)
}

fn extend(input: &AnnotatedRelation, items: &[ProjItem]) -> Result<AnnotatedRelation> {
    let mut names: Vec<String> = input.schema.attrs().to_vec();
    names.extend(items.iter().map(|i| i.name.clone()));
    let schema = Schema::new(names).map_err(crate::error::EngineError::Pdb)?;
    let mut out = AnnotatedRelation {
        schema,
        tuples: Vec::new(),
    };
    let exprs = crate::ops::bind_items(&input.schema, items)?;
    for (t, p) in &input.tuples {
        out.push(crate::ops::extended(&exprs, t)?, p.clone());
    }
    Ok(out)
}

fn product(left: &AnnotatedRelation, right: &AnnotatedRelation) -> Result<AnnotatedRelation> {
    let schema = left
        .schema
        .concat(&right.schema, "rhs")
        .map_err(crate::error::EngineError::Pdb)?;
    let mut out = AnnotatedRelation {
        schema,
        tuples: Vec::new(),
    };
    for (lt, lp) in &left.tuples {
        for (rt, rp) in &right.tuples {
            let mut p = lp.clone();
            p.extend(rp);
            out.push(lt.concat(rt), p);
        }
    }
    Ok(out)
}

fn natural_join(left: &AnnotatedRelation, right: &AnnotatedRelation) -> Result<AnnotatedRelation> {
    use crate::error::EngineError;
    let shared: Vec<String> = left
        .schema
        .attrs()
        .iter()
        .filter(|a| right.schema.contains(a))
        .cloned()
        .collect();
    let left_idx = left.schema.indices_of(&shared).map_err(EngineError::Pdb)?;
    let right_idx = right.schema.indices_of(&shared).map_err(EngineError::Pdb)?;
    let right_rest: Vec<String> = right.schema.minus(&shared);
    let right_rest_idx = right
        .schema
        .indices_of(&right_rest)
        .map_err(EngineError::Pdb)?;
    let mut names: Vec<String> = left.schema.attrs().to_vec();
    names.extend(right_rest);
    let schema = Schema::new(names).map_err(EngineError::Pdb)?;

    let mut out = AnnotatedRelation {
        schema,
        tuples: Vec::new(),
    };
    for (lt, lp) in &left.tuples {
        let lkey = lt.project(&left_idx);
        for (rt, rp) in &right.tuples {
            if rt.project(&right_idx) != lkey {
                continue;
            }
            let mut p = lp.clone();
            p.extend(rp);
            out.push(lt.concat(&rt.project(&right_rest_idx)), p);
        }
    }
    Ok(out)
}

/// The bound of Example 6.5: if every one of `n` input tuples is
/// independently wrong with probability at most `mu`, a projection output
/// tuple that depends on all of them is wrong with probability at most
/// `1 − (1 − mu)^n ≤ mu·n`.
pub fn example_6_5_bound(mu: f64, n: usize) -> (f64, f64) {
    let exact = 1.0 - (1.0 - mu).powi(n as i32);
    let linear = (mu * n as f64).min(1.0);
    (exact, linear)
}

#[cfg(test)]
mod tests {
    use super::*;
    use algebra::{Expr, Query};
    use pdb::{relation, schema, tuple};

    fn base() -> impl Fn(&str) -> Option<AnnotatedRelation> {
        |name: &str| match name {
            "R" => Some(AnnotatedRelation::from_base(
                "R",
                &relation![schema!["A", "B"]; [1, 10], [1, 20], [2, 30]],
            )),
            "S" => Some(AnnotatedRelation::from_base(
                "S",
                &relation![schema!["B", "C"]; [10, 100], [30, 300]],
            )),
            _ => None,
        }
    }

    #[test]
    fn base_tuples_depend_on_themselves() {
        let r = base()("R").unwrap();
        let p = r.provenance_of(&tuple![1, 10]);
        assert_eq!(p.len(), 1);
        assert!(p.depends_on("R", &tuple![1, 10]));
        assert!(!p.depends_on("R", &tuple![2, 30]));
    }

    #[test]
    fn projection_unions_provenance_of_collapsed_tuples() {
        // π_A(R): the output tuple (1) depends on both (1,10) and (1,20) —
        // the situation of Example 6.5.
        let q = Query::table("R").project(&["A"]);
        let out = annotate(&q, &base()).unwrap();
        let p = out.provenance_of(&tuple![1]);
        assert_eq!(p.len(), 2);
        assert!(p.depends_on("R", &tuple![1, 10]));
        assert!(p.depends_on("R", &tuple![1, 20]));
        let p2 = out.provenance_of(&tuple![2]);
        assert_eq!(p2.len(), 1);
    }

    #[test]
    fn join_provenance_combines_both_sides() {
        let q = Query::table("R").natural_join(Query::table("S"));
        let out = annotate(&q, &base()).unwrap();
        let t = tuple![1, 10, 100];
        let p = out.provenance_of(&t);
        assert_eq!(p.len(), 2);
        assert!(p.depends_on("R", &tuple![1, 10]));
        assert!(p.depends_on("S", &tuple![10, 100]));
    }

    #[test]
    fn selection_and_extend_preserve_provenance() {
        let q = Query::table("R")
            .select(Predicate::eq(Expr::attr("A"), Expr::konst(1)))
            .extend(vec![ProjItem::computed(
                Expr::attr("B") * Expr::konst(2.0),
                "B2",
            )]);
        let out = annotate(&q, &base()).unwrap();
        assert_eq!(out.tuples.len(), 2);
        let p = out.provenance_of(&tuple![1, 10, 20.0]);
        assert!(p.depends_on("R", &tuple![1, 10]));
    }

    #[test]
    fn error_bound_sums_over_provenance() {
        let q = Query::table("R").project(&["A"]);
        let out = annotate(&q, &base()).unwrap();
        let p = out.provenance_of(&tuple![1]);
        let bound = p.error_bound(|_, _| 0.01);
        assert!((bound - 0.02).abs() < 1e-12);
        // Caps at 1.
        let bound = p.error_bound(|_, _| 0.9);
        assert_eq!(bound, 1.0);
    }

    #[test]
    fn unsupported_operators_are_rejected() {
        let q = Query::table("R").conf("P");
        assert!(annotate(&q, &base()).is_err());
        let q = Query::table("Missing");
        assert!(annotate(&q, &base()).is_err());
    }

    #[test]
    fn example_6_5_bound_shapes() {
        let (exact, linear) = example_6_5_bound(0.01, 10);
        assert!(exact <= linear);
        assert!(exact > 0.09 && linear >= 0.0999);
        let (exact, linear) = example_6_5_bound(0.5, 10);
        assert_eq!(linear, 1.0);
        assert!(exact < 1.0);
    }
}
