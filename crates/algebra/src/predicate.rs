//! Selection predicates: Boolean combinations of atomic comparisons over
//! arithmetic expressions (Section 2 permits negation even in positive UA).

use crate::error::Result;
use crate::expr::{BoundExpr, Expr};
use pdb::{Schema, Tuple, Value};
use std::fmt;

/// Comparison operators allowed in atomic conditions.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CmpOp {
    /// `=`
    Eq,
    /// `!=`
    Ne,
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
}

impl CmpOp {
    /// The negated comparison (`¬(a < b)` is `a >= b`, …), used when pushing
    /// negations into atoms as in Section 5.
    pub fn negate(self) -> CmpOp {
        match self {
            CmpOp::Eq => CmpOp::Ne,
            CmpOp::Ne => CmpOp::Eq,
            CmpOp::Lt => CmpOp::Ge,
            CmpOp::Le => CmpOp::Gt,
            CmpOp::Gt => CmpOp::Le,
            CmpOp::Ge => CmpOp::Lt,
        }
    }

    /// Applies the comparison to two values.  Numeric values compare
    /// numerically (so `2 = 2.0`); other values compare by equality only, and
    /// ordering comparisons on them use the total order of [`Value`].
    pub fn apply(self, a: &Value, b: &Value) -> bool {
        match (a.as_f64(), b.as_f64()) {
            (Some(x), Some(y)) => match self {
                CmpOp::Eq => x == y,
                CmpOp::Ne => x != y,
                CmpOp::Lt => x < y,
                CmpOp::Le => x <= y,
                CmpOp::Gt => x > y,
                CmpOp::Ge => x >= y,
            },
            _ => match self {
                CmpOp::Eq => a == b,
                CmpOp::Ne => a != b,
                CmpOp::Lt => a < b,
                CmpOp::Le => a <= b,
                CmpOp::Gt => a > b,
                CmpOp::Ge => a >= b,
            },
        }
    }
}

impl fmt::Display for CmpOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            CmpOp::Eq => "=",
            CmpOp::Ne => "!=",
            CmpOp::Lt => "<",
            CmpOp::Le => "<=",
            CmpOp::Gt => ">",
            CmpOp::Ge => ">=",
        };
        write!(f, "{s}")
    }
}

/// A selection predicate.
#[derive(Clone, Debug, PartialEq)]
pub enum Predicate {
    /// Always true.
    True,
    /// Always false.
    False,
    /// Atomic comparison between two expressions.
    Cmp(Expr, CmpOp, Expr),
    /// Conjunction.
    And(Box<Predicate>, Box<Predicate>),
    /// Disjunction.
    Or(Box<Predicate>, Box<Predicate>),
    /// Negation.
    Not(Box<Predicate>),
}

impl Predicate {
    /// Atomic comparison helper.
    pub fn cmp(lhs: Expr, op: CmpOp, rhs: Expr) -> Predicate {
        Predicate::Cmp(lhs, op, rhs)
    }

    /// `lhs = rhs`.
    pub fn eq(lhs: Expr, rhs: Expr) -> Predicate {
        Predicate::cmp(lhs, CmpOp::Eq, rhs)
    }

    /// `lhs <= rhs`.
    pub fn le(lhs: Expr, rhs: Expr) -> Predicate {
        Predicate::cmp(lhs, CmpOp::Le, rhs)
    }

    /// `lhs >= rhs`.
    pub fn ge(lhs: Expr, rhs: Expr) -> Predicate {
        Predicate::cmp(lhs, CmpOp::Ge, rhs)
    }

    /// Conjunction helper.
    pub fn and(self, other: Predicate) -> Predicate {
        Predicate::And(Box::new(self), Box::new(other))
    }

    /// Disjunction helper.
    pub fn or(self, other: Predicate) -> Predicate {
        Predicate::Or(Box::new(self), Box::new(other))
    }

    /// Negation helper.
    #[allow(clippy::should_implement_trait)]
    pub fn not(self) -> Predicate {
        Predicate::Not(Box::new(self))
    }

    /// Attribute names referenced anywhere in the predicate.
    pub fn attrs(&self) -> Vec<String> {
        fn collect(p: &Predicate, out: &mut Vec<String>) {
            match p {
                Predicate::True | Predicate::False => {}
                Predicate::Cmp(a, _, b) => {
                    for x in a.attrs().into_iter().chain(b.attrs()) {
                        if !out.contains(&x) {
                            out.push(x);
                        }
                    }
                }
                Predicate::And(a, b) | Predicate::Or(a, b) => {
                    collect(a, out);
                    collect(b, out);
                }
                Predicate::Not(a) => collect(a, out),
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

    /// The predicate bound to `schema`'s column positions ([`Expr::bind`]
    /// for every operand).  Fails on the first unknown attribute, left to
    /// right.
    pub fn bind(&self, schema: &Schema) -> Result<BoundPredicate<'_>> {
        Ok(BoundPredicate(match self {
            Predicate::True => Node::Const(true),
            Predicate::False => Node::Const(false),
            Predicate::Cmp(a, op, b) => Node::Cmp(a.bind(schema)?, *op, b.bind(schema)?),
            Predicate::And(a, b) => Node::And(Box::new(a.bind(schema)?), Box::new(b.bind(schema)?)),
            Predicate::Or(a, b) => Node::Or(Box::new(a.bind(schema)?), Box::new(b.bind(schema)?)),
            Predicate::Not(a) => Node::Not(Box::new(a.bind(schema)?)),
        }))
    }

    /// Evaluates the predicate against a tuple: binds it to `schema`, then
    /// evaluates the bound form.
    pub fn eval(&self, schema: &Schema, tuple: &Tuple) -> Result<bool> {
        self.bind(schema)?.eval(tuple)
    }

    /// Pushes negations down to the atoms (negation normal form), using
    /// De Morgan's laws and negated comparison operators, as prescribed at
    /// the start of the ε-composition procedure in Section 5.
    pub fn to_nnf(&self) -> Predicate {
        fn nnf(p: &Predicate, negated: bool) -> Predicate {
            match (p, negated) {
                (Predicate::True, false) | (Predicate::False, true) => Predicate::True,
                (Predicate::True, true) | (Predicate::False, false) => Predicate::False,
                (Predicate::Cmp(a, op, b), false) => Predicate::Cmp(a.clone(), *op, b.clone()),
                (Predicate::Cmp(a, op, b), true) => {
                    Predicate::Cmp(a.clone(), op.negate(), b.clone())
                }
                (Predicate::And(a, b), false) => nnf(a, false).and(nnf(b, false)),
                (Predicate::And(a, b), true) => nnf(a, true).or(nnf(b, true)),
                (Predicate::Or(a, b), false) => nnf(a, false).or(nnf(b, false)),
                (Predicate::Or(a, b), true) => nnf(a, true).and(nnf(b, true)),
                (Predicate::Not(a), _) => nnf(a, !negated),
            }
        }
        nnf(self, false)
    }
}

/// A [`Predicate`] bound to the column positions of one schema
/// ([`Predicate::bind`]): evaluating it against a tuple searches no schema
/// and clones no attribute or constant.
#[derive(Clone, Debug)]
pub struct BoundPredicate<'a>(Node<'a>);

#[derive(Clone, Debug)]
enum Node<'a> {
    Const(bool),
    Cmp(BoundExpr<'a>, CmpOp, BoundExpr<'a>),
    And(Box<BoundPredicate<'a>>, Box<BoundPredicate<'a>>),
    Or(Box<BoundPredicate<'a>>, Box<BoundPredicate<'a>>),
    Not(Box<BoundPredicate<'a>>),
}

impl BoundPredicate<'_> {
    /// Evaluates the predicate against a tuple of the schema it was bound
    /// to; `and` and `or` evaluate their right side only when needed.
    pub fn eval(&self, tuple: &Tuple) -> Result<bool> {
        match &self.0 {
            Node::Const(b) => Ok(*b),
            Node::Cmp(a, op, b) => Ok(op.apply(&*a.eval(tuple)?, &*b.eval(tuple)?)),
            Node::And(a, b) => Ok(a.eval(tuple)? && b.eval(tuple)?),
            Node::Or(a, b) => Ok(a.eval(tuple)? || b.eval(tuple)?),
            Node::Not(a) => Ok(!a.eval(tuple)?),
        }
    }
}

impl fmt::Display for Predicate {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Predicate::True => write!(f, "true"),
            Predicate::False => write!(f, "false"),
            Predicate::Cmp(a, op, b) => write!(f, "{a} {op} {b}"),
            Predicate::And(a, b) => write!(f, "({a} and {b})"),
            Predicate::Or(a, b) => write!(f, "({a} or {b})"),
            Predicate::Not(a) => write!(f, "(not {a})"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pdb::{schema, tuple};

    fn env() -> (Schema, Tuple) {
        (schema!["Toss", "Face", "P"], tuple![1, "H", 0.25])
    }

    #[test]
    fn atomic_comparisons() {
        let (s, t) = env();
        let p = Predicate::eq(Expr::attr("Face"), Expr::konst("H"));
        assert!(p.eval(&s, &t).unwrap());
        let p = Predicate::cmp(Expr::attr("Toss"), CmpOp::Lt, Expr::konst(2));
        assert!(p.eval(&s, &t).unwrap());
        let p = Predicate::ge(Expr::attr("P"), Expr::konst(0.5));
        assert!(!p.eval(&s, &t).unwrap());
    }

    #[test]
    fn numeric_comparison_crosses_int_and_float() {
        let (s, t) = env();
        let p = Predicate::eq(Expr::attr("Toss"), Expr::konst(1.0));
        assert!(p.eval(&s, &t).unwrap());
    }

    #[test]
    fn boolean_combinations() {
        let (s, t) = env();
        let p = Predicate::eq(Expr::attr("Toss"), Expr::konst(1))
            .and(Predicate::eq(Expr::attr("Face"), Expr::konst("H")));
        assert!(p.eval(&s, &t).unwrap());
        let q = p.clone().not();
        assert!(!q.eval(&s, &t).unwrap());
        let r = q.or(Predicate::True);
        assert!(r.eval(&s, &t).unwrap());
        assert!(!Predicate::False.eval(&s, &t).unwrap());
    }

    #[test]
    fn nnf_pushes_negation_into_atoms() {
        let p = Predicate::cmp(Expr::attr("P"), CmpOp::Lt, Expr::konst(0.5))
            .and(Predicate::eq(Expr::attr("Face"), Expr::konst("H")))
            .not();
        let n = p.to_nnf();
        // ¬(A ∧ B) = ¬A ∨ ¬B with comparisons negated.
        assert_eq!(
            n,
            Predicate::cmp(Expr::attr("P"), CmpOp::Ge, Expr::konst(0.5)).or(Predicate::cmp(
                Expr::attr("Face"),
                CmpOp::Ne,
                Expr::konst("H")
            ))
        );
        // Double negation disappears.
        let d = Predicate::True.not().not().to_nnf();
        assert_eq!(d, Predicate::True);
        // NNF of a negated constant flips it.
        assert_eq!(Predicate::False.not().to_nnf(), Predicate::True);
        // Semantics preserved on sample data.
        let (s, t) = env();
        assert_eq!(p.eval(&s, &t).unwrap(), n.eval(&s, &t).unwrap());
    }

    #[test]
    fn attrs_and_check() {
        let p = Predicate::ge(Expr::attr("P1") / Expr::attr("P2"), Expr::konst(0.5));
        assert_eq!(p.attrs(), vec!["P1".to_string(), "P2".to_string()]);
        let s = schema!["P1", "P2"];
        assert!(p.check(&s).is_ok());
        assert!(p.check(&schema!["P1"]).is_err());
    }

    #[test]
    fn cmp_op_negation_table() {
        assert_eq!(CmpOp::Eq.negate(), CmpOp::Ne);
        assert_eq!(CmpOp::Lt.negate(), CmpOp::Ge);
        assert_eq!(CmpOp::Le.negate(), CmpOp::Gt);
        assert_eq!(CmpOp::Gt.negate(), CmpOp::Le);
        assert_eq!(CmpOp::Ge.negate(), CmpOp::Lt);
        assert_eq!(CmpOp::Ne.negate(), CmpOp::Eq);
    }

    #[test]
    fn string_ordering_uses_value_order() {
        let s = schema!["A"];
        let t = tuple!["abc"];
        let p = Predicate::cmp(Expr::attr("A"), CmpOp::Lt, Expr::konst("abd"));
        assert!(p.eval(&s, &t).unwrap());
    }
}
