//! The `W(Var, Dom, P)` table: distributions of the independent random
//! variables underlying a U-relational database.
//!
//! A table is one sorted variable map, or two: a `repair-key` over a table
//! whose map another table shares (a request over the served database)
//! keeps that map, shared and immutable, as the table's *lower layer* and
//! declares its variables into a map of their own above it, so a
//! declaration never copies the served variables.  The layers are a
//! representation only: iteration, equality, [`Display`](fmt::Display)
//! and the segment bytes are those of one table in variable-name order.
//!
//! A table's content determines what is derived from it — the engine's
//! compiled probability space — so [`WTable::derived`] memoises one value
//! with the upper layer's allocation, as a
//! [`URelation`](crate::URelation) memoises its join index with its rows.
//! The memo rests on one invariant: tables that share an upper layer share
//! their lower layer too (an upper layer is only ever shared by clones,
//! and only a one-layer table's map moves down).  So the memo of a lower
//! layer holds the value of the one-layer table it was, and a value of a
//! two-layer table can be derived from it.

use crate::error::{Result, UrelError};
use crate::memo::Memo;
use crate::variable::Var;
use pdb::Value;
use std::any::Any;
use std::collections::{btree_map, BTreeMap};
use std::fmt;
use std::iter::Peekable;
use std::sync::Arc;

/// Numerical slack accepted when checking that a variable's probabilities sum
/// to 1.
pub const WTABLE_TOLERANCE: f64 = 1e-9;

/// A variable's distribution: `(value, probability)` in declaration order.
type Dist = Vec<(Value, f64)>;

/// One layer of a [`WTable`]: variable → distribution, in name order, and
/// the value [`WTable::derived`] memoised for the table whose upper layer
/// this is.  A copy starts with an empty memo ([`Memo`]'s `Clone`).
#[derive(Clone, Default)]
struct Layer {
    vars: BTreeMap<Var, Dist>,
    memo: Memo,
}

/// The W-table: for each variable `X`, a finite domain `Dom_X` with
/// `Pr[X = x] > 0` for every `x ∈ Dom_X` and `Σ_x Pr[X = x] = 1`.
///
/// The variable maps are shared, copy-on-write, like a
/// [`URelation`](crate::URelation)'s rows: `clone` copies pointers.  The
/// first declaration into a one-layer table whose map is shared keeps that
/// map as the lower layer and starts an upper one (nothing is copied); a
/// declaration into a shared upper layer copies that layer only.
#[derive(Clone, Default)]
pub struct WTable {
    /// The variables of the table this one was declared over, shared and
    /// never edited here; `None` for a one-layer table.
    lower: Option<Arc<Layer>>,
    /// The variables declared above `lower` — all of them for a one-layer
    /// table.  Disjoint from `lower`.
    upper: Arc<Layer>,
}

impl PartialEq for WTable {
    fn eq(&self, other: &WTable) -> bool {
        self.shares_content(other)
            || (self.num_variables() == other.num_variables() && self.iter().eq(other.iter()))
    }
}

/// The one-table form: `WTable { vars: {…} }`, whatever the layers.
impl fmt::Debug for WTable {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        struct Vars<'a>(&'a WTable);
        impl fmt::Debug for Vars<'_> {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                f.debug_map().entries(self.0.iter()).finish()
            }
        }
        f.debug_struct("WTable").field("vars", &Vars(self)).finish()
    }
}

impl WTable {
    /// Creates an empty W-table (no random variables: a single possible
    /// world).
    pub fn new() -> Self {
        WTable::default()
    }

    /// True if `self` and `other` hold the *same* variable-map allocations
    /// — what `clone` yields until either side declares a variable — and
    /// so the same [`derived`](WTable::derived) value.  A test hook, and
    /// the shortcut of `==`.
    pub fn shares_content(&self, other: &WTable) -> bool {
        let same_lower = match (&self.lower, &other.lower) {
            (None, None) => true,
            (Some(a), Some(b)) => Arc::ptr_eq(a, b),
            _ => false,
        };
        same_lower && Arc::ptr_eq(&self.upper, &other.upper)
    }

    /// The table's lower layer as the one-layer table it was declared over
    /// (a pointer copy): `None` for a one-layer table.
    pub fn lower_layer(&self) -> Option<WTable> {
        Some(WTable::one_layer(Arc::clone(self.lower.as_ref()?)))
    }

    /// The one-layer table over `upper`.
    fn one_layer(upper: Arc<Layer>) -> WTable {
        WTable { lower: None, upper }
    }

    /// The same content in one layer: a pointer copy of a one-layer table,
    /// one merged map otherwise.
    pub fn into_one_layer(self) -> WTable {
        match self.lower {
            None => self,
            Some(lower) => {
                let mut merged = Arc::unwrap_or_clone(lower);
                merged.memo.clear();
                let upper = self.upper.vars.iter().map(|(v, d)| (v.clone(), d.clone()));
                merged.vars.extend(upper);
                WTable::one_layer(Arc::new(merged))
            }
        }
    }

    /// Declares a variable with its distribution.
    ///
    /// Every probability must be strictly positive and the probabilities must
    /// sum to 1 (within [`WTABLE_TOLERANCE`]); domain values must be
    /// distinct.  Redeclaring an existing variable is an error.
    pub fn add_variable(
        &mut self,
        var: Var,
        distribution: impl IntoIterator<Item = (Value, f64)>,
    ) -> Result<()> {
        let redeclared =
            |var: &Var, _: &[(Value, f64)]| Err(invalid(var, "variable already declared"));
        self.declare(var, redeclared, |var| checked(var, distribution))
    }

    /// The one edit of a table: declares `var` with the distribution
    /// `fresh` makes, unless the table declares `var` already — then
    /// `declared` judges the distribution it has.  New variables go into
    /// the upper layer, after moving a shared one-layer map down to the
    /// lower layer, and the upper layer's memo is cleared.  Each layer is
    /// walked once: one lookup in the lower layer, one entry in an
    /// unshared upper layer (a shared one is looked up before it is
    /// copied, so a declaration that adds nothing copies nothing).
    fn declare(
        &mut self,
        var: Var,
        declared: impl FnOnce(&Var, &[(Value, f64)]) -> Result<()>,
        fresh: impl FnOnce(&Var) -> Result<Dist>,
    ) -> Result<()> {
        if let Some(dist) = self.lower.as_ref().and_then(|lower| lower.vars.get(&var)) {
            return declared(&var, dist);
        }
        if let Some(upper) = Arc::get_mut(&mut self.upper) {
            return match upper.vars.entry(var) {
                btree_map::Entry::Occupied(entry) => declared(entry.key(), entry.get()),
                btree_map::Entry::Vacant(entry) => {
                    let dist = fresh(entry.key())?;
                    entry.insert(dist);
                    upper.memo.clear();
                    Ok(())
                }
            };
        }
        if let Some(dist) = self.upper.vars.get(&var) {
            return declared(&var, dist);
        }
        let dist = fresh(&var)?;
        if self.lower.is_none() && !self.upper.vars.is_empty() {
            self.lower = Some(std::mem::take(&mut self.upper));
        }
        let upper = Arc::make_mut(&mut self.upper);
        upper.memo.clear();
        upper.vars.insert(var, dist);
        Ok(())
    }

    /// Declares a Boolean variable that is `true` with probability `p` and
    /// `false` with probability `1 − p` (the tuple-independence pattern).
    pub fn add_bool_variable(&mut self, var: Var, p: f64) -> Result<()> {
        if !(p > 0.0 && p < 1.0) {
            let reason = format!("Boolean probability {p} must be strictly between 0 and 1");
            return Err(invalid(&var, reason));
        }
        self.add_variable(var, [(Value::Bool(true), p), (Value::Bool(false), 1.0 - p)])
    }

    /// Number of declared variables.
    pub fn num_variables(&self) -> usize {
        self.lower.as_ref().map_or(0, |lower| lower.vars.len()) + self.upper.vars.len()
    }

    /// True if no variables are declared.
    pub fn is_empty(&self) -> bool {
        self.num_variables() == 0
    }

    /// True if `var` is declared.
    pub fn contains(&self, var: &Var) -> bool {
        self.get(var).is_some()
    }

    fn get(&self, var: &Var) -> Option<&Dist> {
        (self.upper.vars.get(var)).or_else(|| self.lower.as_ref()?.vars.get(var))
    }

    /// The domain of `var`, in declaration order.
    pub fn domain(&self, var: &Var) -> Result<Vec<Value>> {
        Ok(self
            .distribution(var)?
            .iter()
            .map(|(v, _)| v.clone())
            .collect())
    }

    /// The full distribution of `var`.
    pub fn distribution(&self, var: &Var) -> Result<&[(Value, f64)]> {
        self.get(var)
            .map(Vec::as_slice)
            .ok_or_else(|| UrelError::UnknownVariable(var.name().to_owned()))
    }

    /// `Pr[X = x]`; errors if the variable or value is unknown.
    pub fn probability(&self, var: &Var, value: &Value) -> Result<f64> {
        self.distribution(var)?
            .iter()
            .find(|(v, _)| v == value)
            .map(|(_, p)| *p)
            .ok_or_else(|| UrelError::UnknownDomainValue {
                var: var.name().to_owned(),
                value: value.to_string(),
            })
    }

    /// Iterates over `(variable, distribution)` pairs in variable order.
    pub fn iter(&self) -> impl Iterator<Item = (&Var, &[(Value, f64)])> {
        self.iter_layered().map(|(var, dist, _)| (var, dist))
    }

    /// [`iter`](WTable::iter), each variable with whether it sits in the
    /// [lower layer](WTable::lower_layer).
    pub fn iter_layered(&self) -> impl Iterator<Item = (&Var, &[(Value, f64)], bool)> {
        static NONE: BTreeMap<Var, Dist> = BTreeMap::new();
        let lower = self.lower.as_ref().map_or(&NONE, |lower| &lower.vars);
        Layered {
            lower: lower.iter().peekable(),
            upper: self.upper.vars.iter().peekable(),
        }
    }

    /// All declared variables, in order.
    pub fn variables(&self) -> Vec<Var> {
        self.iter().map(|(var, _)| var.clone()).collect()
    }

    /// Number of total assignments `f* : Var → Dom` this table induces
    /// (the number of possible worlds before coalescing), as a `u128` to
    /// avoid overflow on large tables.
    pub fn num_total_assignments(&self) -> u128 {
        self.iter().map(|(_, d)| d.len() as u128).product()
    }

    /// The variables this table declares and `base` does not, with their
    /// distributions: what was introduced on top of `base`.
    pub fn introduced_over(&self, base: &WTable) -> WTable {
        let fresh = self.iter().filter(|(var, _)| !base.contains(var));
        let vars = fresh.map(|(v, d)| (v.clone(), d.to_vec())).collect();
        WTable::one_layer(Arc::new(Layer {
            vars,
            memo: Memo::default(),
        }))
    }

    /// Merges another W-table into this one; shared variables must carry the
    /// identical distribution (they represent the same source of randomness).
    pub fn merge(&mut self, other: &WTable) -> Result<()> {
        let conflict = "conflicting redeclaration while merging W-tables";
        for (var, dist) in other.iter() {
            let declared = |var: &Var, existing: &[(Value, f64)]| {
                (existing == dist)
                    .then_some(())
                    .ok_or_else(|| invalid(var, conflict))
            };
            self.declare(var.clone(), declared, |_| Ok(dist.to_vec()))?;
        }
        Ok(())
    }

    /// `derive(self)`, memoised with the table's content like
    /// [`URelation::derived`](crate::URelation::derived): derived at most
    /// once per upper-layer allocation, shared by every clone, and dropped
    /// by a declaration (which starts the upper layer's memo over).  One
    /// value per content: while the memo holds a value of another type,
    /// `derive` runs and its value is returned unkept.  The engine keeps
    /// the table's compiled probability space here; a two-layer table's
    /// derivation can read its [lower layer](WTable::lower_layer)'s memo.
    pub fn derived<T: Any + Send + Sync>(&self, derive: impl FnOnce(&WTable) -> T) -> Arc<T> {
        self.upper.memo.get_or_derive(|| derive(self))
    }
}

/// `distribution`, collected and checked: a non-empty domain of distinct
/// values, every probability in `(0, 1]`, summing to 1 within
/// [`WTABLE_TOLERANCE`].
fn checked(var: &Var, distribution: impl IntoIterator<Item = (Value, f64)>) -> Result<Dist> {
    let dist: Dist = distribution.into_iter().collect();
    if dist.is_empty() {
        return Err(invalid(var, "empty domain"));
    }
    let mut total = 0.0;
    for (i, (value, p)) in dist.iter().enumerate() {
        if !p.is_finite() || *p <= 0.0 {
            return Err(invalid(
                var,
                format!("Pr[{var} = {value}] = {p} is not in (0, 1]"),
            ));
        }
        if dist[..i].iter().any(|(v, _)| v == value) {
            return Err(invalid(var, format!("duplicate domain value {value}")));
        }
        total += p;
    }
    if (total - 1.0).abs() > WTABLE_TOLERANCE {
        return Err(invalid(
            var,
            format!("probabilities sum to {total}, expected 1"),
        ));
    }
    Ok(dist)
}

/// The error of an invalid declaration of `var`.
fn invalid(var: &Var, reason: impl Into<String>) -> UrelError {
    UrelError::InvalidDistribution {
        var: var.name().to_owned(),
        reason: reason.into(),
    }
}

/// The two layers of a [`WTable`] merged into one name-ordered walk.
struct Layered<'a> {
    lower: Peekable<btree_map::Iter<'a, Var, Dist>>,
    upper: Peekable<btree_map::Iter<'a, Var, Dist>>,
}

impl<'a> Iterator for Layered<'a> {
    type Item = (&'a Var, &'a [(Value, f64)], bool);

    fn next(&mut self) -> Option<Self::Item> {
        let from_lower = match (self.lower.peek(), self.upper.peek()) {
            (Some((a, _)), Some((b, _))) => a < b,
            (lower, _) => lower.is_some(),
        };
        let (var, dist) = if from_lower {
            self.lower.next()?
        } else {
            self.upper.next()?
        };
        Some((var, dist.as_slice(), from_lower))
    }
}

impl fmt::Display for WTable {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "W(Var, Dom, P)")?;
        for (var, dist) in self.iter() {
            for (value, p) in dist {
                writeln!(f, "  {var}  {value}  {p}")?;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn coin_wtable() -> WTable {
        // Figure 1(b): variable c with {fair: 2/3, 2headed: 1/3} and four
        // fair-coin toss variables with {H: .5, T: .5}.
        let mut w = WTable::new();
        w.add_variable(
            Var::new("c"),
            [
                (Value::str("fair"), 2.0 / 3.0),
                (Value::str("2headed"), 1.0 / 3.0),
            ],
        )
        .unwrap();
        for name in ["(fair,1)", "(fair,2)"] {
            w.add_variable(
                Var::new(name),
                [(Value::str("H"), 0.5), (Value::str("T"), 0.5)],
            )
            .unwrap();
        }
        w
    }

    #[test]
    fn declares_and_queries_variables() {
        let w = coin_wtable();
        assert_eq!(w.num_variables(), 3);
        assert!(w.contains(&Var::new("c")));
        assert!(!w.contains(&Var::new("d")));
        let p = w.probability(&Var::new("c"), &Value::str("fair")).unwrap();
        assert!((p - 2.0 / 3.0).abs() < 1e-12);
        assert_eq!(w.domain(&Var::new("(fair,1)")).unwrap().len(), 2);
        assert_eq!(w.num_total_assignments(), 8);
    }

    #[test]
    fn rejects_invalid_distributions() {
        let mut w = WTable::new();
        assert!(w
            .add_variable(Var::new("x"), [(Value::Int(1), 0.5), (Value::Int(2), 0.4)])
            .is_err());
        assert!(w
            .add_variable(Var::new("x"), [(Value::Int(1), 0.0), (Value::Int(2), 1.0)])
            .is_err());
        assert!(w
            .add_variable(Var::new("x"), [(Value::Int(1), 0.5), (Value::Int(1), 0.5)])
            .is_err());
        assert!(w.add_variable(Var::new("x"), []).is_err());
        // valid, then redeclared
        assert!(w
            .add_variable(Var::new("x"), [(Value::Int(1), 1.0)])
            .is_ok());
        assert!(w
            .add_variable(Var::new("x"), [(Value::Int(1), 1.0)])
            .is_err());
    }

    #[test]
    fn bool_variable_helper() {
        let mut w = WTable::new();
        w.add_bool_variable(Var::new("t1"), 0.3).unwrap();
        let p = w.probability(&Var::new("t1"), &Value::Bool(false)).unwrap();
        assert!((p - 0.7).abs() < 1e-12);
        assert!(w.add_bool_variable(Var::new("t2"), 0.0).is_err());
        assert!(w.add_bool_variable(Var::new("t2"), 1.0).is_err());
    }

    #[test]
    fn unknown_lookups_error() {
        let w = coin_wtable();
        assert!(w.probability(&Var::new("zzz"), &Value::Int(1)).is_err());
        assert!(w
            .probability(&Var::new("c"), &Value::str("3headed"))
            .is_err());
        assert!(w.domain(&Var::new("zzz")).is_err());
    }

    #[test]
    fn merge_accepts_identical_and_rejects_conflicts() {
        let mut a = coin_wtable();
        let b = coin_wtable();
        a.merge(&b).unwrap();
        assert_eq!(a.num_variables(), 3);

        let mut c = WTable::new();
        c.add_variable(Var::new("c"), [(Value::str("fair"), 1.0)])
            .unwrap();
        assert!(a.merge(&c).is_err());

        let mut d = WTable::new();
        d.add_bool_variable(Var::new("new"), 0.1).unwrap();
        a.merge(&d).unwrap();
        assert_eq!(a.num_variables(), 4);
    }

    #[test]
    fn empty_table_has_one_assignment() {
        let w = WTable::new();
        assert!(w.is_empty());
        assert_eq!(w.num_total_assignments(), 1);
    }

    #[test]
    fn declaring_over_a_shared_table_keeps_it_as_the_lower_layer() {
        // Names that sort before, between and after the coin table's.
        let declared = ["(a)", "b", "d"];
        let served = coin_wtable();
        let mut layered = served.clone();
        let mut flat = coin_wtable();
        for name in declared {
            for table in [&mut layered, &mut flat] {
                table.add_bool_variable(Var::new(name), 0.25).unwrap();
            }
        }
        // Nothing copied: the served map is the lower layer, and the served
        // table is untouched.
        assert!(layered.lower_layer().unwrap().shares_content(&served));
        assert!(flat.lower_layer().is_none());
        assert_eq!(served.num_variables(), 3);
        // One table in name order, whatever the layers.
        assert!(layered.iter().eq(flat.iter()));
        assert_eq!(layered, flat);
        assert_eq!(flat, layered);
        assert_ne!(layered, served);
        assert_eq!(layered.to_string(), flat.to_string());
        assert_eq!(format!("{layered:?}"), format!("{flat:?}"));
        let bytes = |w: &WTable| {
            let mut out = Vec::new();
            crate::segment::put_wtable(&mut out, w);
            out
        };
        assert_eq!(bytes(&layered), bytes(&flat));
        assert_eq!(
            layered.num_total_assignments(),
            flat.num_total_assignments()
        );
        assert!(layered.contains(&Var::new("c")) && layered.contains(&Var::new("d")));
        assert!(layered.add_bool_variable(Var::new("c"), 0.5).is_err());
        let introduced = layered.introduced_over(&served);
        assert_eq!(introduced.variables(), declared.map(Var::new));
        let in_lower = layered.iter_layered().map(|(_, _, lower)| lower);
        assert_eq!(in_lower.filter(|&lower| lower).count(), 3);
        // One layer again: the same content.
        let one = layered.clone().into_one_layer();
        assert!(one.lower_layer().is_none());
        assert_eq!(one, flat);
        // A declaration into a shared upper layer copies that layer only.
        let mut again = layered.clone();
        again.add_bool_variable(Var::new("e"), 0.5).unwrap();
        assert!(again.lower_layer().unwrap().shares_content(&served));
        assert_eq!(layered.num_variables(), 6);
        assert_eq!(again.num_variables(), 7);
    }

    /// The variable list, memoised: a stale memo shows as a list other
    /// than the table's.
    fn memoised_variables(w: &WTable) -> Vec<Var> {
        w.derived(WTable::variables).to_vec()
    }

    #[test]
    fn the_memo_follows_the_upper_layer() {
        let served = coin_wtable();
        let memo = served.derived(WTable::variables);
        // A clone shares the memo; a rejected declaration and a merge that
        // adds nothing keep it.
        let mut table = served.clone();
        assert!(Arc::ptr_eq(&table.derived(WTable::variables), &memo));
        assert!(table.add_bool_variable(Var::new("c"), 0.5).is_err());
        assert!(table.add_variable(Var::new("x"), []).is_err());
        table.merge(&coin_wtable()).unwrap();
        assert!(table.shares_content(&served));
        assert!(Arc::ptr_eq(&table.derived(WTable::variables), &memo));
        // A declaration starts an upper layer with an empty memo; the lower
        // layer keeps the served table's.
        table.add_bool_variable(Var::new("d"), 0.5).unwrap();
        let lower = table.lower_layer().unwrap();
        assert!(Arc::ptr_eq(&lower.derived(WTable::variables), &memo));
        let before = table.derived(WTable::variables);
        assert_eq!(*before, table.variables());
        // In place, a declaration clears it.
        table.add_bool_variable(Var::new("e"), 0.5).unwrap();
        assert!(Arc::get_mut(&mut table.upper).is_some());
        assert_eq!(memoised_variables(&table), table.variables());
        assert_ne!(*before, table.variables());
        // One layer again: new content for that map, an empty memo — also
        // when the merge takes over a lower layer nothing else holds.
        let one = table.into_one_layer();
        assert_eq!(memoised_variables(&one), one.variables());
        let mut layered = served.clone();
        layered.add_bool_variable(Var::new("d"), 0.5).unwrap();
        drop((served, lower));
        let one = layered.into_one_layer();
        assert_eq!(memoised_variables(&one), one.variables());
    }

    /// One step of [`shared_uppers_share_lowers_and_memos_stay_fresh`],
    /// over indices into a growing list of tables.
    #[derive(Clone, Debug)]
    enum Step {
        Clone(usize),
        Declare(usize, usize),
        Merge(usize, usize),
        OneLayer(usize),
        Lower(usize),
        Introduced(usize, usize),
    }

    fn arb_step() -> impl proptest::strategy::Strategy<Value = Step> {
        use proptest::strategy::Strategy;
        (0usize..6, 0usize..16, 0usize..16).prop_map(|(kind, a, b)| match kind {
            0 => Step::Clone(a),
            1 => Step::Declare(a, b),
            2 => Step::Merge(a, b),
            3 => Step::OneLayer(a),
            4 => Step::Lower(a),
            _ => Step::Introduced(a, b),
        })
    }

    proptest::proptest! {
        /// The invariant the memo rests on, over random sequences of
        /// clones, declarations, merges and layer moves: two tables that
        /// share an upper-layer allocation share their lower layer too.
        /// And every memo stays fresh: after each step, every table's
        /// memoised variable list (memoised by the step before, if the
        /// table existed) is its variable list.
        #[test]
        fn shared_uppers_share_lowers_and_memos_stay_fresh(
            steps in proptest::collection::vec(arb_step(), 1..40),
        ) {
            use proptest::prop_assert;
            const NAMES: [&str; 6] = ["a", "c", "m", "(fair,1)", "z", "(b)"];
            let mut tables = vec![coin_wtable(), WTable::new()];
            for step in &steps {
                let n = tables.len();
                match *step {
                    Step::Clone(a) => tables.push(tables[a % n].clone()),
                    Step::Declare(a, b) => {
                        let name = format!("{}{}", NAMES[b % NAMES.len()], b / 8);
                        let _ = tables[a % n].add_bool_variable(Var::new(name), 0.25);
                    }
                    Step::Merge(a, b) => {
                        let other = tables[b % n].clone();
                        let _ = tables[a % n].merge(&other);
                    }
                    Step::OneLayer(a) => {
                        let table = std::mem::take(&mut tables[a % n]);
                        tables[a % n] = table.into_one_layer();
                    }
                    Step::Lower(a) => tables.extend(tables[a % n].lower_layer()),
                    Step::Introduced(a, b) => {
                        tables.push(tables[a % n].introduced_over(&tables[b % n]));
                    }
                }
                for a in &tables {
                    for b in &tables {
                        if Arc::ptr_eq(&a.upper, &b.upper) {
                            let same_lower = match (&a.lower, &b.lower) {
                                (None, None) => true,
                                (Some(x), Some(y)) => Arc::ptr_eq(x, y),
                                _ => false,
                            };
                            prop_assert!(same_lower, "{:?} after {:?}", a, step);
                        }
                    }
                    proptest::prop_assert_eq!(memoised_variables(a), a.variables());
                }
            }
        }
    }
}
