//! Static analysis of UA queries: schema inference, completeness (the `c`
//! function of Section 2), fragment membership, and the structural
//! parameters `k`, `d`, arity used by the error bound of Proposition 6.6.

use crate::error::{AlgebraError, Result};
use crate::query::{ConfTerm, Query};
use pdb::Schema;
use std::collections::BTreeMap;

/// A catalog: the schema and completeness flag of every base relation.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Catalog {
    relations: BTreeMap<String, (Schema, bool)>,
}

impl Catalog {
    /// Creates an empty catalog.
    pub fn new() -> Self {
        Catalog::default()
    }

    /// Declares a base relation.
    pub fn add(&mut self, name: impl Into<String>, schema: Schema, complete: bool) {
        self.relations.insert(name.into(), (schema, complete));
    }

    /// Schema of a base relation.
    pub fn schema(&self, name: &str) -> Result<&Schema> {
        self.relations
            .get(name)
            .map(|(s, _)| s)
            .ok_or_else(|| AlgebraError::UnknownRelation(name.to_owned()))
    }

    /// Completeness flag of a base relation.
    pub fn is_complete(&self, name: &str) -> Result<bool> {
        self.relations
            .get(name)
            .map(|(_, c)| *c)
            .ok_or_else(|| AlgebraError::UnknownRelation(name.to_owned()))
    }

    /// Names of the declared relations.
    pub fn names(&self) -> Vec<String> {
        self.relations.keys().cloned().collect()
    }
}

/// Infers the output schema of a query and validates every attribute
/// reference along the way.
pub fn output_schema(query: &Query, catalog: &Catalog) -> Result<Schema> {
    match query {
        Query::Table(name) => Ok(catalog.schema(name)?.clone()),
        Query::Select { input, predicate } => {
            let s = output_schema(input, catalog)?;
            predicate.check(&s)?;
            Ok(s)
        }
        Query::Project { input, items } => {
            let s = output_schema(input, catalog)?;
            let mut names = Vec::with_capacity(items.len());
            for item in items {
                item.expr.check(&s)?;
                names.push(item.name.clone());
            }
            Schema::new(names).map_err(Into::into)
        }
        Query::Extend { input, items } => {
            let s = output_schema(input, catalog)?;
            let mut names: Vec<String> = s.attrs().to_vec();
            for item in items {
                item.expr.check(&s)?;
                names.push(item.name.clone());
            }
            Schema::new(names).map_err(Into::into)
        }
        Query::Rename { input, from, to } => {
            let s = output_schema(input, catalog)?;
            s.rename(from, to).map_err(Into::into)
        }
        Query::Product { left, right } => {
            let l = output_schema(left, catalog)?;
            let r = output_schema(right, catalog)?;
            l.concat(&r, "rhs").map_err(Into::into)
        }
        Query::NaturalJoin { left, right } => {
            let l = output_schema(left, catalog)?;
            let r = output_schema(right, catalog)?;
            let mut names: Vec<String> = l.attrs().to_vec();
            for a in r.attrs() {
                if !l.contains(a) {
                    names.push(a.clone());
                }
            }
            Schema::new(names).map_err(Into::into)
        }
        Query::Union { left, right }
        | Query::Difference { left, right }
        | Query::DifferenceC { left, right } => {
            let l = output_schema(left, catalog)?;
            let r = output_schema(right, catalog)?;
            if l.arity() != r.arity() {
                return Err(AlgebraError::NotUnionCompatible(format!("{l} vs {r}")));
            }
            Ok(l)
        }
        Query::Conf { input, prob_attr }
        | Query::ApproxConf {
            input, prob_attr, ..
        } => {
            let s = output_schema(input, catalog)?;
            s.with_appended(prob_attr).map_err(Into::into)
        }
        Query::RepairKey { input, key, weight } => {
            let s = output_schema(input, catalog)?;
            for a in key {
                if !s.contains(a) {
                    return Err(AlgebraError::UnknownAttribute(a.clone()));
                }
            }
            if !s.contains(weight) {
                return Err(AlgebraError::UnknownAttribute(weight.clone()));
            }
            Ok(s)
        }
        Query::Poss { input } | Query::Cert { input } => output_schema(input, catalog),
        Query::ApproxSelect {
            input,
            terms,
            predicate,
            epsilon0,
            delta,
        } => {
            let s = output_schema(input, catalog)?;
            check_approx_params(*epsilon0, *delta)?;
            check_conf_terms(terms, &s)?;
            let mut placeholder_names: Vec<String> = Vec::with_capacity(terms.len());
            // Output schema: the union of the terms' projection attributes,
            // in order of first appearance (the natural join of the
            // conf(π_{A⃗_i}(R)) relations, with the probability placeholders
            // projected away).
            let mut out_attrs: Vec<String> = Vec::new();
            for term in terms {
                for a in &term.attrs {
                    if !s.contains(a) {
                        return Err(AlgebraError::UnknownAttribute(a.clone()));
                    }
                    if !out_attrs.contains(a) {
                        out_attrs.push(a.clone());
                    }
                }
                placeholder_names.push(term.name.clone());
            }
            // The predicate sees the term placeholders (only).
            let placeholder_schema = Schema::new(placeholder_names)?;
            predicate.check(&placeholder_schema)?;
            Schema::new(out_attrs).map_err(Into::into)
        }
    }
}

fn check_approx_params(epsilon0: f64, delta: f64) -> Result<()> {
    if !(epsilon0 > 0.0 && epsilon0 < 1.0) {
        return Err(AlgebraError::InvalidParameter(format!(
            "epsilon0 = {epsilon0} must be in (0, 1)"
        )));
    }
    if !(delta > 0.0 && delta < 1.0) {
        return Err(AlgebraError::InvalidParameter(format!(
            "delta = {delta} must be in (0, 1)"
        )));
    }
    Ok(())
}

/// Computes the paper's completeness function `c` for the query result:
/// relational operations are complete iff all inputs are, `conf`/`poss`/
/// `cert` results are complete by definition, `repair-key` and `σ̂` results
/// are not.
pub fn is_complete(query: &Query, catalog: &Catalog) -> Result<bool> {
    Ok(match query {
        Query::Table(name) => catalog.is_complete(name)?,
        Query::Select { input, .. }
        | Query::Project { input, .. }
        | Query::Extend { input, .. }
        | Query::Rename { input, .. } => is_complete(input, catalog)?,
        Query::Product { left, right }
        | Query::NaturalJoin { left, right }
        | Query::Union { left, right }
        | Query::Difference { left, right }
        | Query::DifferenceC { left, right } => {
            is_complete(left, catalog)? && is_complete(right, catalog)?
        }
        Query::Conf { .. } | Query::ApproxConf { .. } | Query::Poss { .. } | Query::Cert { .. } => {
            true
        }
        Query::RepairKey { .. } | Query::ApproxSelect { .. } => false,
    })
}

/// True if the query is in *positive* UA: it contains no unrestricted
/// difference (the complete-input difference `−c` is allowed).
pub fn is_positive(query: &Query) -> bool {
    if matches!(query, Query::Difference { .. }) {
        return false;
    }
    query.children().iter().all(|c| is_positive(c))
}

/// Checks that a positive UA[σ̂] query only uses `repair-key` below every
/// approximate selection (footnote 3 of the paper: results apply to queries
/// that never use `repair-key` *above* a `σ̂`).
pub fn repair_key_below_approx_select(query: &Query) -> bool {
    fn contains_approx_select(q: &Query) -> bool {
        matches!(q, Query::ApproxSelect { .. })
            || q.children().iter().any(|c| contains_approx_select(c))
    }
    fn check(q: &Query) -> bool {
        if matches!(q, Query::RepairKey { .. }) && contains_approx_select(q) {
            return false;
        }
        q.children().iter().all(|c| check(c))
    }
    check(query)
}

/// Structural parameters of a query used by the error bound of
/// Proposition 6.6.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct StructuralParams {
    /// Nesting depth `d` of approximate selection operators.
    pub approx_select_depth: usize,
    /// Upper bound `k`: the maximum of (a) the arity of any subquery result
    /// and (b) the number of confidence terms in any single `σ̂`.
    pub k: usize,
    /// Number of `conf`/`conf_{ε,δ}` operators.
    pub conf_count: usize,
    /// Number of `repair-key` operators.
    pub repair_key_count: usize,
}

/// Computes the structural parameters of a query.
pub fn structural_params(query: &Query, catalog: &Catalog) -> Result<StructuralParams> {
    fn walk(q: &Query, catalog: &Catalog, params: &mut StructuralParams) -> Result<usize> {
        // Returns the σ̂-nesting depth of `q`.
        let arity = output_schema(q, catalog)?.arity();
        params.k = params.k.max(arity);
        let mut depth = 0usize;
        for c in q.children() {
            depth = depth.max(walk(c, catalog, params)?);
        }
        match q {
            Query::ApproxSelect { terms, .. } => {
                params.k = params.k.max(terms.len());
                depth += 1;
            }
            Query::Conf { .. } | Query::ApproxConf { .. } => params.conf_count += 1,
            Query::RepairKey { .. } => params.repair_key_count += 1,
            _ => {}
        }
        params.approx_select_depth = params.approx_select_depth.max(depth);
        Ok(depth)
    }
    let mut params = StructuralParams {
        approx_select_depth: 0,
        k: 0,
        conf_count: 0,
        repair_key_count: 0,
    };
    walk(query, catalog, &mut params)?;
    Ok(params)
}

/// Validates the placeholder names of a `σ̂`'s confidence terms: they must be
/// distinct and must not clash with the input schema.
pub fn check_conf_terms(terms: &[ConfTerm], input_schema: &Schema) -> Result<()> {
    for (i, t) in terms.iter().enumerate() {
        if terms[..i].iter().any(|u| u.name == t.name) {
            return Err(AlgebraError::Invariant(format!(
                "duplicate confidence-term placeholder `{}`",
                t.name
            )));
        }
        if input_schema.contains(&t.name) {
            return Err(AlgebraError::Invariant(format!(
                "confidence-term placeholder `{}` clashes with an input attribute",
                t.name
            )));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::Expr;
    use crate::predicate::{CmpOp, Predicate};
    use crate::query::ProjItem;
    use pdb::schema;

    fn catalog() -> Catalog {
        let mut c = Catalog::new();
        c.add("Coins", schema!["CoinType", "Count"], true);
        c.add("Faces", schema!["CoinType", "Face", "FProb"], true);
        c.add("Tosses", schema!["Toss"], true);
        c
    }

    #[test]
    fn schema_inference_for_the_coin_pipeline() {
        let cat = catalog();
        let r = Query::table("Coins")
            .repair_key(&[], "Count")
            .project(&["CoinType"]);
        assert_eq!(output_schema(&r, &cat).unwrap(), schema!["CoinType"]);

        let s = Query::table("Faces")
            .product(Query::table("Tosses"))
            .repair_key(&["CoinType", "Toss"], "FProb")
            .project(&["CoinType", "Toss", "Face"]);
        assert_eq!(
            output_schema(&s, &cat).unwrap(),
            schema!["CoinType", "Toss", "Face"]
        );

        let u = r
            .conf("P")
            .rename("P", "P1")
            .natural_join(Query::table("Coins").conf("P").rename("P", "P2"))
            .project_items(vec![
                ProjItem::attr("CoinType"),
                ProjItem::computed(Expr::attr("P1") / Expr::attr("P2"), "P"),
            ]);
        assert_eq!(output_schema(&u, &cat).unwrap(), schema!["CoinType", "P"]);
    }

    #[test]
    fn unknown_references_are_caught() {
        let cat = catalog();
        assert!(output_schema(&Query::table("Nope"), &cat).is_err());
        let q = Query::table("Coins").project(&["Missing"]);
        assert!(output_schema(&q, &cat).is_err());
        let q = Query::table("Coins").select(Predicate::eq(Expr::attr("Missing"), Expr::konst(1)));
        assert!(output_schema(&q, &cat).is_err());
        let q = Query::table("Coins").repair_key(&["Missing"], "Count");
        assert!(output_schema(&q, &cat).is_err());
        let q = Query::table("Coins").repair_key(&[], "Missing");
        assert!(output_schema(&q, &cat).is_err());
        let q = Query::table("Coins").union(Query::table("Tosses"));
        assert!(matches!(
            output_schema(&q, &cat),
            Err(AlgebraError::NotUnionCompatible(_))
        ));
    }

    #[test]
    fn approx_select_validates_terms_and_parameters() {
        let cat = catalog();
        let pred = Predicate::cmp(Expr::attr("P1"), CmpOp::Ge, Expr::konst(0.5));
        let good = Query::table("Coins").approx_select(
            vec![ConfTerm::new("P1", ["CoinType"])],
            pred.clone(),
            0.01,
            0.05,
        );
        assert_eq!(output_schema(&good, &cat).unwrap(), schema!["CoinType"]);
        let bad_attr = Query::table("Coins").approx_select(
            vec![ConfTerm::new("P1", ["Missing"])],
            pred.clone(),
            0.01,
            0.05,
        );
        assert!(output_schema(&bad_attr, &cat).is_err());
        let bad_pred = Query::table("Coins").approx_select(
            vec![ConfTerm::new("P1", ["CoinType"])],
            Predicate::cmp(Expr::attr("P9"), CmpOp::Ge, Expr::konst(0.5)),
            0.01,
            0.05,
        );
        assert!(output_schema(&bad_pred, &cat).is_err());
        let bad_eps = Query::table("Coins").approx_select(
            vec![ConfTerm::new("P1", ["CoinType"])],
            pred.clone(),
            0.0,
            0.05,
        );
        assert!(matches!(
            output_schema(&bad_eps, &cat),
            Err(AlgebraError::InvalidParameter(_))
        ));
        let bad_delta = Query::table("Coins").approx_select(
            vec![ConfTerm::new("P1", ["CoinType"])],
            pred,
            0.01,
            1.0,
        );
        assert!(output_schema(&bad_delta, &cat).is_err());
    }

    #[test]
    fn completeness_follows_definition_2_1() {
        let cat = catalog();
        assert!(is_complete(&Query::table("Coins"), &cat).unwrap());
        let r = Query::table("Coins").repair_key(&[], "Count");
        assert!(!is_complete(&r, &cat).unwrap());
        assert!(!is_complete(&r.clone().project(&["CoinType"]), &cat).unwrap());
        assert!(is_complete(&r.clone().conf("P"), &cat).unwrap());
        assert!(is_complete(&r.clone().poss(), &cat).unwrap());
        // Join of complete and uncertain is uncertain.
        let j = Query::table("Coins").natural_join(r);
        assert!(!is_complete(&j, &cat).unwrap());
    }

    #[test]
    fn positivity_and_repair_key_placement() {
        let q = Query::table("A").difference(Query::table("B"));
        assert!(!is_positive(&q));
        let q = Query::table("A").difference_c(Query::table("B"));
        assert!(is_positive(&q));
        let pred = Predicate::cmp(Expr::attr("P1"), CmpOp::Ge, Expr::konst(0.5));
        let below = Query::table("Coins")
            .repair_key(&[], "Count")
            .approx_select(
                vec![ConfTerm::new("P1", ["CoinType"])],
                pred.clone(),
                0.01,
                0.05,
            );
        assert!(repair_key_below_approx_select(&below));
        let above = Query::table("Coins")
            .approx_select(vec![ConfTerm::new("P1", ["CoinType"])], pred, 0.01, 0.05)
            .repair_key(&[], "Count");
        assert!(!repair_key_below_approx_select(&above));
    }

    #[test]
    fn structural_params_track_depth_and_k() {
        let cat = catalog();
        let pred = Predicate::cmp(Expr::attr("P1"), CmpOp::Ge, Expr::konst(0.5));
        let inner = Query::table("Coins")
            .repair_key(&[], "Count")
            .approx_select(
                vec![ConfTerm::new("P1", ["CoinType"])],
                pred.clone(),
                0.01,
                0.05,
            );
        let outer = inner.approx_select(
            vec![
                ConfTerm::new("P1", ["CoinType"]),
                ConfTerm::new("P2", Vec::<String>::new()),
            ],
            pred,
            0.01,
            0.05,
        );
        let p = structural_params(&outer, &cat).unwrap();
        assert_eq!(p.approx_select_depth, 2);
        assert_eq!(p.repair_key_count, 1);
        assert_eq!(p.conf_count, 0);
        assert!(p.k >= 2);
    }

    #[test]
    fn conf_term_checks() {
        let s = schema!["A", "P"];
        assert!(check_conf_terms(&[ConfTerm::new("P1", ["A"])], &s).is_ok());
        assert!(check_conf_terms(
            &[ConfTerm::new("P1", ["A"]), ConfTerm::new("P1", ["A"])],
            &s
        )
        .is_err());
        assert!(check_conf_terms(&[ConfTerm::new("P", ["A"])], &s).is_err());
    }

    #[test]
    fn placeholders_clashing_with_input_attributes_fail_validation() {
        let mut cat = Catalog::new();
        cat.add("T", schema!["A", "P1"], false);
        let clash = crate::parse_query("aselect[P1 = conf(A); P1 >= 0.5](T)").unwrap();
        assert!(matches!(
            output_schema(&clash, &cat),
            Err(AlgebraError::Invariant(_))
        ));
        assert!(crate::LogicalPlan::lower_validated(&clash, &cat).is_err());
        let fresh = crate::parse_query("aselect[P2 = conf(A); P2 >= 0.5](T)").unwrap();
        assert_eq!(output_schema(&fresh, &cat).unwrap(), schema!["A"]);
    }
}
