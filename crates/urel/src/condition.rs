//! Conditions: partial assignments `f : Var → Dom` attached to U-relation
//! rows (the `D` columns of Section 3).

use crate::error::{Result, UrelError};
use crate::variable::Var;
use crate::wtable::WTable;
use pdb::Value;
use std::cmp::Ordering;
use std::fmt;

/// A condition is a finite partial function from random variables to domain
/// values, stored as one vector of `(variable, value)` pairs sorted by
/// variable, each variable at most once.  A row `⟨f, t⟩` of a U-relation
/// means "tuple `t` is present in every world whose total assignment is
/// consistent with `f`".
///
/// The derived equality, order and hash are those of a sorted map with the
/// same pairs (lexicographic, length-prefixed), so the canonical row order
/// and every content digest do not depend on the representation.  A one- or
/// two-literal condition is one small allocation.
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Condition {
    assignments: Vec<(Var, Value)>,
}

impl Condition {
    /// The empty condition (true in every world); rows of complete relations
    /// carry it.
    pub fn always() -> Self {
        Condition::default()
    }

    /// Creates a condition from `(variable, value)` pairs; assigning two
    /// different values to the same variable is an error.
    pub fn new(pairs: impl IntoIterator<Item = (Var, Value)>) -> Result<Self> {
        let pairs = pairs.into_iter();
        let mut c = Condition {
            assignments: Vec::with_capacity(pairs.size_hint().0),
        };
        for (var, value) in pairs {
            c.assign(var, value)?;
        }
        Ok(c)
    }

    /// Where `var` sits in the sorted pairs: `Ok(index)` if assigned, else
    /// `Err(insertion point)`.
    fn position(&self, var: &Var) -> std::result::Result<usize, usize> {
        self.assignments.binary_search_by(|(v, _)| v.cmp(var))
    }

    /// Adds the assignment `var ↦ value`.  Re-assigning the same value is a
    /// no-op; a conflicting value is an error.
    pub fn assign(&mut self, var: Var, value: Value) -> Result<()> {
        match self.position(&var) {
            Ok(i) if self.assignments[i].1 != value => {
                Err(UrelError::InconsistentCondition(var.name().to_owned()))
            }
            Ok(_) => Ok(()),
            Err(i) => {
                self.assignments.insert(i, (var, value));
                Ok(())
            }
        }
    }

    /// Number of variables the condition constrains.
    pub fn len(&self) -> usize {
        self.assignments.len()
    }

    /// True if this is the empty (always-true) condition.
    pub fn is_empty(&self) -> bool {
        self.assignments.is_empty()
    }

    /// The value assigned to `var`, if any.
    pub fn get(&self, var: &Var) -> Option<&Value> {
        self.position(var).ok().map(|i| &self.assignments[i].1)
    }

    /// The variables mentioned by the condition, in order.
    pub fn variables(&self) -> impl Iterator<Item = &Var> {
        self.assignments.iter().map(|(var, _)| var)
    }

    /// Iterates over `(variable, value)` pairs in variable order.
    pub fn iter(&self) -> impl Iterator<Item = (&Var, &Value)> {
        self.assignments.iter().map(|(var, value)| (var, value))
    }

    /// Two partial functions are consistent if they agree on every variable
    /// on which both are defined.
    pub fn consistent_with(&self, other: &Condition) -> bool {
        self.walk(other, |_| {})
    }

    /// The union `f ∪ g` of two consistent conditions, or `None` if they
    /// conflict.  This is the condition attached to product/join results in
    /// the parsimonious translation.
    pub fn merge(&self, other: &Condition) -> Option<Condition> {
        if other.is_empty() {
            return Some(self.clone());
        }
        if self.is_empty() {
            return Some(other.clone());
        }
        let mut assignments = Vec::with_capacity(self.len() + other.len());
        self.walk(other, |pair| assignments.push(pair.clone()))
            .then_some(Condition { assignments })
    }

    /// One merge walk over both sorted pair lists, handing every pair of
    /// the union to `emit` in variable order (a shared variable once).
    /// Stops at the first variable the two assign different values, and
    /// returns whether none did.
    fn walk<'a>(&'a self, other: &'a Condition, mut emit: impl FnMut(&'a (Var, Value))) -> bool {
        let (a, b) = (&self.assignments, &other.assignments);
        let (mut i, mut j) = (0, 0);
        while i < a.len() && j < b.len() {
            match a[i].0.cmp(&b[j].0) {
                Ordering::Less => {
                    emit(&a[i]);
                    i += 1;
                }
                Ordering::Greater => {
                    emit(&b[j]);
                    j += 1;
                }
                Ordering::Equal if a[i].1 != b[j].1 => return false,
                Ordering::Equal => {
                    emit(&a[i]);
                    i += 1;
                    j += 1;
                }
            }
        }
        a[i..].iter().chain(&b[j..]).for_each(emit);
        true
    }

    /// The weight `p_f = Π_{X ∈ dom(f)} Pr[X = f(X)]` (Equation 2).
    pub fn weight(&self, w: &WTable) -> Result<f64> {
        let mut p = 1.0;
        for (var, value) in &self.assignments {
            p *= w.probability(var, value)?;
        }
        Ok(p)
    }

    /// True if the total assignment `total` (given as a condition defined on
    /// all variables of interest) is in `ω(f)`, i.e. extends this condition.
    pub fn satisfied_by(&self, total: &Condition) -> bool {
        self.assignments
            .iter()
            .all(|(var, value)| total.get(var) == Some(value))
    }

    /// Checks that every variable/value mentioned by the condition is
    /// declared in the W-table.
    pub fn check_against(&self, w: &WTable) -> Result<()> {
        for (var, value) in &self.assignments {
            w.probability(var, value)?;
        }
        Ok(())
    }
}

impl fmt::Debug for Condition {
    /// Prints the pairs as a map, as a map-backed condition would.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        struct Pairs<'a>(&'a [(Var, Value)]);
        impl fmt::Debug for Pairs<'_> {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                f.debug_map()
                    .entries(self.0.iter().map(|(var, value)| (var, value)))
                    .finish()
            }
        }
        f.debug_struct("Condition")
            .field("assignments", &Pairs(&self.assignments))
            .finish()
    }
}

impl FromIterator<(Var, Value)> for Condition {
    /// Builds a condition, panicking on conflicting assignments (use
    /// [`Condition::new`] for fallible construction).
    fn from_iter<T: IntoIterator<Item = (Var, Value)>>(iter: T) -> Self {
        Condition::new(iter).expect("conflicting assignments in Condition::from_iter")
    }
}

impl fmt::Display for Condition {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_empty() {
            return write!(f, "{{}}");
        }
        write!(f, "{{")?;
        for (i, (var, value)) in self.assignments.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{var} ↦ {value}")?;
        }
        write!(f, "}}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn v(n: &str) -> Var {
        Var::new(n)
    }

    #[test]
    fn assignment_and_conflicts() {
        let mut c = Condition::always();
        c.assign(v("x"), Value::Int(1)).unwrap();
        c.assign(v("x"), Value::Int(1)).unwrap(); // same value: fine
        assert!(c.assign(v("x"), Value::Int(2)).is_err());
        assert_eq!(c.len(), 1);
        assert_eq!(c.get(&v("x")), Some(&Value::Int(1)));
        assert_eq!(c.get(&v("y")), None);
    }

    #[test]
    fn consistency_is_agreement_on_shared_variables() {
        let a = Condition::new([(v("x"), Value::Int(1)), (v("y"), Value::Int(2))]).unwrap();
        let b = Condition::new([(v("y"), Value::Int(2)), (v("z"), Value::Int(3))]).unwrap();
        let c = Condition::new([(v("y"), Value::Int(9))]).unwrap();
        assert!(a.consistent_with(&b));
        assert!(b.consistent_with(&a));
        assert!(!a.consistent_with(&c));
        assert!(a.consistent_with(&Condition::always()));
        assert!(Condition::always().consistent_with(&c));
    }

    #[test]
    fn merge_unions_assignments() {
        let a = Condition::new([(v("x"), Value::Int(1))]).unwrap();
        let b = Condition::new([(v("y"), Value::Int(2))]).unwrap();
        let m = a.merge(&b).unwrap();
        assert_eq!(m.len(), 2);
        let c = Condition::new([(v("x"), Value::Int(5))]).unwrap();
        assert!(a.merge(&c).is_none());
        assert_eq!(a.merge(&a).unwrap(), a);
    }

    #[test]
    fn weight_is_product_of_probabilities() {
        let mut w = WTable::new();
        w.add_variable(
            v("c"),
            [
                (Value::str("fair"), 2.0 / 3.0),
                (Value::str("2headed"), 1.0 / 3.0),
            ],
        )
        .unwrap();
        w.add_variable(v("t"), [(Value::str("H"), 0.5), (Value::str("T"), 0.5)])
            .unwrap();
        let c = Condition::new([(v("c"), Value::str("fair")), (v("t"), Value::str("H"))]).unwrap();
        assert!((c.weight(&w).unwrap() - 1.0 / 3.0).abs() < 1e-12);
        assert!((Condition::always().weight(&w).unwrap() - 1.0).abs() < 1e-12);
        // Unknown value errors.
        let bad = Condition::new([(v("c"), Value::str("3headed"))]).unwrap();
        assert!(bad.weight(&w).is_err());
        assert!(bad.check_against(&w).is_err());
        assert!(c.check_against(&w).is_ok());
    }

    #[test]
    fn satisfied_by_total_assignments() {
        let total = Condition::new([(v("x"), Value::Int(1)), (v("y"), Value::Int(2))]).unwrap();
        let f = Condition::new([(v("x"), Value::Int(1))]).unwrap();
        let g = Condition::new([(v("x"), Value::Int(2))]).unwrap();
        let h = Condition::new([(v("z"), Value::Int(0))]).unwrap();
        assert!(f.satisfied_by(&total));
        assert!(!g.satisfied_by(&total));
        assert!(!h.satisfied_by(&total)); // z not defined by `total`
        assert!(Condition::always().satisfied_by(&total));
    }

    #[test]
    fn display() {
        assert_eq!(Condition::always().to_string(), "{}");
        let c = Condition::new([(v("c"), Value::str("fair"))]).unwrap();
        assert_eq!(c.to_string(), "{c ↦ fair}");
    }
}
