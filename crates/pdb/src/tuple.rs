//! Tuples: ordered sequences of [`Value`]s.

use crate::value::Value;
use std::fmt;
use std::ops::Index;

/// A database tuple.
///
/// Tuples are positional; attribute names live in the relation's
/// [`Schema`](crate::schema::Schema).  They are ordered and hashable so that
/// relations can be stored as canonical sorted sets, which keeps the
/// possible-worlds reference engine deterministic.
#[derive(Clone, Debug, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Tuple(Vec<Value>);

impl Tuple {
    /// Creates a tuple from a vector of values.
    pub fn new(values: Vec<Value>) -> Self {
        Tuple(values)
    }

    /// The empty (0-ary) tuple, the only inhabitant of `π_∅`-style results.
    pub fn empty() -> Self {
        Tuple(Vec::new())
    }

    /// Number of attributes.
    pub fn arity(&self) -> usize {
        self.0.len()
    }

    /// True if the tuple has no attributes.
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    /// Value at position `i`, if present.
    pub fn get(&self, i: usize) -> Option<&Value> {
        self.0.get(i)
    }

    /// Iterates over the values in attribute order.
    pub fn values(&self) -> impl Iterator<Item = &Value> {
        self.0.iter()
    }

    /// Consumes the tuple and returns its values.
    pub fn into_values(self) -> Vec<Value> {
        self.0
    }

    /// Projects onto the given positions (in the given order).
    ///
    /// Positions may repeat; out-of-range positions panic, mirroring the fact
    /// that projections are validated against the schema before execution.
    pub fn project(&self, positions: &[usize]) -> Tuple {
        Tuple(positions.iter().map(|&i| self.0[i].clone()).collect())
    }

    /// Concatenates two tuples (used by `×` and join).
    pub fn concat(&self, other: &Tuple) -> Tuple {
        let mut v = Vec::with_capacity(self.0.len() + other.0.len());
        v.extend_from_slice(&self.0);
        v.extend_from_slice(&other.0);
        Tuple(v)
    }

    /// Returns a copy of the tuple with `value` appended.
    pub fn with_appended(&self, value: Value) -> Tuple {
        let mut v = Vec::with_capacity(self.0.len() + 1);
        v.extend_from_slice(&self.0);
        v.push(value);
        Tuple(v)
    }
}

impl Index<usize> for Tuple {
    type Output = Value;
    fn index(&self, i: usize) -> &Value {
        &self.0[i]
    }
}

impl From<Vec<Value>> for Tuple {
    fn from(v: Vec<Value>) -> Self {
        Tuple(v)
    }
}

impl FromIterator<Value> for Tuple {
    fn from_iter<T: IntoIterator<Item = Value>>(iter: T) -> Self {
        Tuple(iter.into_iter().collect())
    }
}

impl fmt::Display for Tuple {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "(")?;
        for (i, v) in self.0.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{v}")?;
        }
        write!(f, ")")
    }
}

/// Builds a tuple from a list of things convertible into [`Value`].
///
/// ```
/// use pdb::{tuple, Value};
/// let t = tuple!["fair", 2];
/// assert_eq!(t[0], Value::str("fair"));
/// assert_eq!(t[1], Value::Int(2));
/// ```
#[macro_export]
macro_rules! tuple {
    ($($v:expr),* $(,)?) => {
        $crate::Tuple::new(vec![$($crate::Value::from($v)),*])
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    fn abc() -> Tuple {
        Tuple::new(vec![Value::Int(1), Value::str("a"), Value::float(0.5)])
    }

    #[test]
    fn arity_and_access() {
        let t = abc();
        assert_eq!(t.arity(), 3);
        assert_eq!(t[1], Value::str("a"));
        assert_eq!(t.get(2), Some(&Value::float(0.5)));
        assert_eq!(t.get(3), None);
        assert!(!t.is_empty());
        assert!(Tuple::empty().is_empty());
    }

    #[test]
    fn project_reorders_and_repeats() {
        let t = abc();
        let p = t.project(&[2, 0, 0]);
        assert_eq!(
            p,
            Tuple::new(vec![Value::float(0.5), Value::Int(1), Value::Int(1)])
        );
    }

    #[test]
    fn concat_and_append() {
        let t = abc();
        let u = Tuple::new(vec![Value::Bool(true)]);
        let c = t.concat(&u);
        assert_eq!(c.arity(), 4);
        assert_eq!(c[3], Value::Bool(true));
        let a = t.with_appended(Value::Int(9));
        assert_eq!(a.arity(), 4);
        assert_eq!(a[3], Value::Int(9));
        // original untouched
        assert_eq!(t.arity(), 3);
    }

    #[test]
    fn ordering_is_lexicographic() {
        let a = tuple![1, "a"];
        let b = tuple![1, "b"];
        let c = tuple![2, "a"];
        assert!(a < b);
        assert!(b < c);
    }

    #[test]
    fn display() {
        assert_eq!(abc().to_string(), "(1, a, 0.5)");
        assert_eq!(Tuple::empty().to_string(), "()");
    }

    #[test]
    fn macro_builds_values() {
        let t = tuple!["x", 3, 0.25, true];
        assert_eq!(t.arity(), 4);
        assert_eq!(t[3], Value::Bool(true));
    }
}
