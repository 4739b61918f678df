//! Arithmetic expressions used in selection conditions and in the arguments
//! of `π` and `ρ` (Section 2 allows arbitrary arithmetic there, e.g.
//! `ρ_{A+B→C}(R)` or `π_{CoinType, P1/P2 → P}`).

use crate::error::{AlgebraError, Result};
use pdb::{Schema, Tuple, Value};
use std::borrow::Cow;
use std::fmt;
use std::ops::{Add, Div, Mul, Neg, Sub};

/// An arithmetic expression over the attributes of a single tuple.
#[derive(Clone, Debug, PartialEq)]
pub enum Expr {
    /// A constant value.
    Const(Value),
    /// Reference to an attribute by name.
    Attr(String),
    /// Unary negation.
    Neg(Box<Expr>),
    /// Addition.
    Add(Box<Expr>, Box<Expr>),
    /// Subtraction.
    Sub(Box<Expr>, Box<Expr>),
    /// Multiplication.
    Mul(Box<Expr>, Box<Expr>),
    /// Division.
    Div(Box<Expr>, Box<Expr>),
}

impl Expr {
    /// Constant expression.
    pub fn konst(v: impl Into<Value>) -> Expr {
        Expr::Const(v.into())
    }

    /// Attribute reference.
    pub fn attr(name: impl Into<String>) -> Expr {
        Expr::Attr(name.into())
    }

    /// The attribute names referenced by the expression, in first-occurrence
    /// order and without duplicates.
    pub fn attrs(&self) -> Vec<String> {
        fn collect(e: &Expr, out: &mut Vec<String>) {
            match e {
                Expr::Const(_) => {}
                Expr::Attr(a) => {
                    if !out.contains(a) {
                        out.push(a.clone());
                    }
                }
                Expr::Neg(x) => collect(x, out),
                Expr::Add(a, b) | Expr::Sub(a, b) | Expr::Mul(a, b) | Expr::Div(a, b) => {
                    collect(a, out);
                    collect(b, out);
                }
            }
        }
        let mut out = Vec::new();
        collect(self, &mut out);
        out
    }

    /// Counts how many times each attribute occurs (Theorem 5.5 applies to
    /// predicates in which each approximated attribute occurs exactly once).
    pub fn occurrence_counts(&self) -> Vec<(String, usize)> {
        fn collect(e: &Expr, out: &mut Vec<(String, usize)>) {
            match e {
                Expr::Const(_) => {}
                Expr::Attr(a) => {
                    if let Some(entry) = out.iter_mut().find(|(n, _)| n == a) {
                        entry.1 += 1;
                    } else {
                        out.push((a.clone(), 1));
                    }
                }
                Expr::Neg(x) => collect(x, out),
                Expr::Add(a, b) | Expr::Sub(a, b) | Expr::Mul(a, b) | Expr::Div(a, b) => {
                    collect(a, out);
                    collect(b, out);
                }
            }
        }
        let mut out = Vec::new();
        collect(self, &mut out);
        out
    }

    /// Checks that every referenced attribute exists in `schema`.
    pub fn check(&self, schema: &Schema) -> Result<()> {
        self.bind(schema).map(drop)
    }

    /// The expression bound to `schema`'s column positions: every attribute
    /// resolved once, every constant borrowed.  Fails on the first unknown
    /// attribute, left to right.
    pub fn bind(&self, schema: &Schema) -> Result<BoundExpr<'_>> {
        Ok(BoundExpr(match self {
            Expr::Const(v) => Bound::Const(v),
            Expr::Attr(a) => match schema.index_of(a) {
                Some(i) => Bound::Column(i, a),
                None => return Err(AlgebraError::UnknownAttribute(a.clone())),
            },
            Expr::Neg(x) => Bound::Neg(Box::new(x.bind(schema)?)),
            Expr::Add(a, b) => Bound::Add(Box::new(a.bind(schema)?), Box::new(b.bind(schema)?)),
            Expr::Sub(a, b) => Bound::Sub(Box::new(a.bind(schema)?), Box::new(b.bind(schema)?)),
            Expr::Mul(a, b) => Bound::Mul(Box::new(a.bind(schema)?), Box::new(b.bind(schema)?)),
            Expr::Div(a, b) => Bound::Div(Box::new(a.bind(schema)?), Box::new(b.bind(schema)?)),
        }))
    }

    /// Evaluates the expression against a tuple of the given schema: binds
    /// it, then evaluates the bound form.
    ///
    /// Attribute references that resolve to non-arithmetic leaf expressions
    /// (plain `Attr` or `Const`) may produce strings/booleans; any value
    /// participating in arithmetic must be numeric.
    pub fn eval(&self, schema: &Schema, tuple: &Tuple) -> Result<Value> {
        Ok(self.bind(schema)?.eval(tuple)?.into_owned())
    }

    /// Evaluates the expression and requires a numeric result.
    pub fn eval_numeric(&self, schema: &Schema, tuple: &Tuple) -> Result<f64> {
        self.bind(schema)?.eval_numeric(tuple)
    }

    /// True if the expression contains no attribute references.
    pub fn is_constant(&self) -> bool {
        self.attrs().is_empty()
    }
}

/// An [`Expr`] bound to the column positions of one schema
/// ([`Expr::bind`]): attributes are column indices and constants are
/// borrowed from the expression, so evaluating it against a tuple searches
/// no schema and clones nothing that is not computed.
#[derive(Clone, Debug)]
pub struct BoundExpr<'a>(Bound<'a>);

#[derive(Clone, Debug)]
enum Bound<'a> {
    Const(&'a Value),
    /// A column and the attribute name it was bound from.
    Column(usize, &'a str),
    Neg(Box<BoundExpr<'a>>),
    Add(Box<BoundExpr<'a>>, Box<BoundExpr<'a>>),
    Sub(Box<BoundExpr<'a>>, Box<BoundExpr<'a>>),
    Mul(Box<BoundExpr<'a>>, Box<BoundExpr<'a>>),
    Div(Box<BoundExpr<'a>>, Box<BoundExpr<'a>>),
}

impl BoundExpr<'_> {
    /// Evaluates the expression against a tuple of the schema it was bound
    /// to.  A constant or an attribute is borrowed; arithmetic yields a new
    /// float.
    pub fn eval<'t>(&'t self, tuple: &'t Tuple) -> Result<Cow<'t, Value>> {
        Ok(match &self.0 {
            Bound::Const(v) => Cow::Borrowed(*v),
            Bound::Column(i, _) => Cow::Borrowed(&tuple[*i]),
            _ => Cow::Owned(Value::float(self.eval_numeric(tuple)?)),
        })
    }

    /// Evaluates the expression and requires a numeric result.  Every
    /// arithmetic step is a [`Value::float`], so a zero result is `0.0`,
    /// whatever its sign.
    pub fn eval_numeric(&self, tuple: &Tuple) -> Result<f64> {
        // A leaf's error names the leaf as written.
        let not_a_number = |v: &Value, leaf: &dyn fmt::Display| {
            AlgebraError::TypeError(format!("expected a number, got `{v}` in `{leaf}`"))
        };
        let float = |x: f64| Value::float(x).as_f64().expect("a float is a number");
        match &self.0 {
            Bound::Const(v) => {
                (v.as_f64()).ok_or_else(|| not_a_number(v, &Expr::Const((*v).clone())))
            }
            Bound::Column(i, a) => (tuple[*i].as_f64()).ok_or_else(|| not_a_number(&tuple[*i], a)),
            Bound::Neg(x) => Ok(float(-x.eval_numeric(tuple)?)),
            Bound::Add(a, b) => Ok(float(a.eval_numeric(tuple)? + b.eval_numeric(tuple)?)),
            Bound::Sub(a, b) => Ok(float(a.eval_numeric(tuple)? - b.eval_numeric(tuple)?)),
            Bound::Mul(a, b) => Ok(float(a.eval_numeric(tuple)? * b.eval_numeric(tuple)?)),
            Bound::Div(a, b) => {
                let d = b.eval_numeric(tuple)?;
                if d == 0.0 {
                    return Err(AlgebraError::DivisionByZero);
                }
                Ok(float(a.eval_numeric(tuple)? / d))
            }
        }
    }
}

impl fmt::Display for Expr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Expr::Const(Value::Str(s)) => write!(f, "'{s}'"),
            Expr::Const(v) => write!(f, "{v}"),
            Expr::Attr(a) => write!(f, "{a}"),
            Expr::Neg(x) => write!(f, "(-{x})"),
            Expr::Add(a, b) => write!(f, "({a} + {b})"),
            Expr::Sub(a, b) => write!(f, "({a} - {b})"),
            Expr::Mul(a, b) => write!(f, "({a} * {b})"),
            Expr::Div(a, b) => write!(f, "({a} / {b})"),
        }
    }
}

impl Add for Expr {
    type Output = Expr;
    fn add(self, rhs: Expr) -> Expr {
        Expr::Add(Box::new(self), Box::new(rhs))
    }
}
impl Sub for Expr {
    type Output = Expr;
    fn sub(self, rhs: Expr) -> Expr {
        Expr::Sub(Box::new(self), Box::new(rhs))
    }
}
impl Mul for Expr {
    type Output = Expr;
    fn mul(self, rhs: Expr) -> Expr {
        Expr::Mul(Box::new(self), Box::new(rhs))
    }
}
impl Div for Expr {
    type Output = Expr;
    fn div(self, rhs: Expr) -> Expr {
        Expr::Div(Box::new(self), Box::new(rhs))
    }
}
impl Neg for Expr {
    type Output = Expr;
    fn neg(self) -> Expr {
        Expr::Neg(Box::new(self))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pdb::{schema, tuple};

    fn env() -> (Schema, Tuple) {
        (schema!["A", "B", "Name"], tuple![4, 2.5, "x"])
    }

    #[test]
    fn evaluates_arithmetic() {
        let (s, t) = env();
        let e = (Expr::attr("A") + Expr::attr("B")) * Expr::konst(2.0);
        assert_eq!(e.eval_numeric(&s, &t).unwrap(), 13.0);
        let e = Expr::attr("A") / Expr::konst(8.0) - Expr::konst(0.25);
        assert_eq!(e.eval_numeric(&s, &t).unwrap(), 0.25);
        let e = -Expr::attr("A");
        assert_eq!(e.eval_numeric(&s, &t).unwrap(), -4.0);
    }

    #[test]
    fn attribute_leaves_keep_their_type() {
        let (s, t) = env();
        assert_eq!(Expr::attr("Name").eval(&s, &t).unwrap(), Value::str("x"));
        assert_eq!(Expr::konst(true).eval(&s, &t).unwrap(), Value::Bool(true));
    }

    #[test]
    fn type_and_division_errors() {
        let (s, t) = env();
        let e = Expr::attr("Name") + Expr::konst(1.0);
        assert!(matches!(e.eval(&s, &t), Err(AlgebraError::TypeError(_))));
        let e = Expr::attr("A") / Expr::konst(0.0);
        assert_eq!(e.eval(&s, &t), Err(AlgebraError::DivisionByZero));
        let e = Expr::attr("Missing");
        assert!(matches!(
            e.eval(&s, &t),
            Err(AlgebraError::UnknownAttribute(_))
        ));
    }

    #[test]
    fn attrs_and_occurrences() {
        let e = Expr::attr("A") + Expr::attr("B") * Expr::attr("A");
        assert_eq!(e.attrs(), vec!["A".to_string(), "B".to_string()]);
        let counts = e.occurrence_counts();
        assert!(counts.contains(&("A".to_string(), 2)));
        assert!(counts.contains(&("B".to_string(), 1)));
        assert!(!e.is_constant());
        assert!(Expr::konst(1).is_constant());
    }

    #[test]
    fn check_against_schema() {
        let (s, _) = env();
        assert!(Expr::attr("A").check(&s).is_ok());
        assert!(Expr::attr("Z").check(&s).is_err());
    }

    #[test]
    fn display_round_trip_shape() {
        let e = (Expr::attr("P1") / Expr::attr("P2")) - Expr::konst(0.5);
        assert_eq!(e.to_string(), "((P1 / P2) - 0.5)");
        assert_eq!(Expr::konst("s").to_string(), "'s'");
    }
}
