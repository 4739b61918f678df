//! The `W(Var, Dom, P)` table: distributions of the independent random
//! variables underlying a U-relational database.

use crate::error::{Result, UrelError};
use crate::variable::Var;
use pdb::Value;
use std::collections::BTreeMap;
use std::fmt;
use std::sync::Arc;

/// Numerical slack accepted when checking that a variable's probabilities sum
/// to 1.
pub const WTABLE_TOLERANCE: f64 = 1e-9;

/// The W-table: for each variable `X`, a finite domain `Dom_X` with
/// `Pr[X = x] > 0` for every `x ∈ Dom_X` and `Σ_x Pr[X = x] = 1`.
///
/// The variable map is shared, copy-on-write, like a
/// [`URelation`](crate::URelation)'s rows: `clone` copies a pointer, and
/// the first declaration into a table that shares its map copies it once.
#[derive(Clone, Debug, PartialEq, Default)]
pub struct WTable {
    vars: Arc<BTreeMap<Var, Vec<(Value, f64)>>>,
}

impl WTable {
    /// Creates an empty W-table (no random variables: a single possible
    /// world).
    pub fn new() -> Self {
        WTable::default()
    }

    /// A copy that shares no variables with `self`.
    pub(crate) fn unshared(&self) -> WTable {
        WTable {
            vars: Arc::new(BTreeMap::clone(&self.vars)),
        }
    }

    /// True if `self` and `other` hold the *same* variable-map allocation —
    /// what `clone` yields until either side declares a variable.  A test
    /// hook: content equality is `==`.
    pub fn shares_content(&self, other: &WTable) -> bool {
        Arc::ptr_eq(&self.vars, &other.vars)
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
        if self.vars.contains_key(&var) {
            return Err(UrelError::InvalidDistribution {
                var: var.name().to_owned(),
                reason: "variable already declared".to_owned(),
            });
        }
        let dist: Vec<(Value, f64)> = distribution.into_iter().collect();
        if dist.is_empty() {
            return Err(UrelError::InvalidDistribution {
                var: var.name().to_owned(),
                reason: "empty domain".to_owned(),
            });
        }
        let mut total = 0.0;
        for (i, (value, p)) in dist.iter().enumerate() {
            if !p.is_finite() || *p <= 0.0 {
                return Err(UrelError::InvalidDistribution {
                    var: var.name().to_owned(),
                    reason: format!("Pr[{var} = {value}] = {p} is not in (0, 1]"),
                });
            }
            if dist[..i].iter().any(|(v, _)| v == value) {
                return Err(UrelError::InvalidDistribution {
                    var: var.name().to_owned(),
                    reason: format!("duplicate domain value {value}"),
                });
            }
            total += p;
        }
        if (total - 1.0).abs() > WTABLE_TOLERANCE {
            return Err(UrelError::InvalidDistribution {
                var: var.name().to_owned(),
                reason: format!("probabilities sum to {total}, expected 1"),
            });
        }
        Arc::make_mut(&mut self.vars).insert(var, dist);
        Ok(())
    }

    /// Declares a Boolean variable that is `true` with probability `p` and
    /// `false` with probability `1 − p` (the tuple-independence pattern).
    pub fn add_bool_variable(&mut self, var: Var, p: f64) -> Result<()> {
        if !(p > 0.0 && p < 1.0) {
            return Err(UrelError::InvalidDistribution {
                var: var.name().to_owned(),
                reason: format!("Boolean probability {p} must be strictly between 0 and 1"),
            });
        }
        self.add_variable(var, [(Value::Bool(true), p), (Value::Bool(false), 1.0 - p)])
    }

    /// Number of declared variables.
    pub fn num_variables(&self) -> usize {
        self.vars.len()
    }

    /// True if no variables are declared.
    pub fn is_empty(&self) -> bool {
        self.vars.is_empty()
    }

    /// True if `var` is declared.
    pub fn contains(&self, var: &Var) -> bool {
        self.vars.contains_key(var)
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
        self.vars
            .get(var)
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
        self.vars.iter().map(|(v, d)| (v, d.as_slice()))
    }

    /// All declared variables, in order.
    pub fn variables(&self) -> Vec<Var> {
        self.vars.keys().cloned().collect()
    }

    /// Number of total assignments `f* : Var → Dom` this table induces
    /// (the number of possible worlds before coalescing), as a `u128` to
    /// avoid overflow on large tables.
    pub fn num_total_assignments(&self) -> u128 {
        self.vars.values().map(|d| d.len() as u128).product()
    }

    /// The variables this table declares and `base` does not, with their
    /// distributions: what was introduced on top of `base`.
    pub fn introduced_over(&self, base: &WTable) -> WTable {
        let fresh = self.vars.iter().filter(|(var, _)| !base.contains(var));
        WTable {
            vars: Arc::new(fresh.map(|(v, d)| (v.clone(), d.clone())).collect()),
        }
    }

    /// Merges another W-table into this one; shared variables must carry the
    /// identical distribution (they represent the same source of randomness).
    pub fn merge(&mut self, other: &WTable) -> Result<()> {
        for (var, dist) in other.vars.iter() {
            match self.vars.get(var) {
                None => {
                    Arc::make_mut(&mut self.vars).insert(var.clone(), dist.clone());
                }
                Some(existing) if existing == dist => {}
                Some(_) => {
                    return Err(UrelError::InvalidDistribution {
                        var: var.name().to_owned(),
                        reason: "conflicting redeclaration while merging W-tables".to_owned(),
                    })
                }
            }
        }
        Ok(())
    }
}

impl fmt::Display for WTable {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "W(Var, Dom, P)")?;
        for (var, dist) in self.vars.iter() {
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
}
