//! A small textual syntax for UA queries, mirroring the algebraic notation of
//! the paper.
//!
//! Grammar (informally):
//!
//! ```text
//! query     := IDENT
//!            | select '[' pred ']' '(' query ')'
//!            | project '[' projlist ']' '(' query ')'
//!            | extend '[' projlist ']' '(' query ')'
//!            | rename '[' IDENT '->' IDENT ']' '(' query ')'
//!            | product | join | union | diff | diffc  '(' query ',' query ')'
//!            | conf [ '[' IDENT ']' ] '(' query ')'
//!            | aconf '[' NUM ',' NUM [',' IDENT] ']' '(' query ')'
//!            | repairkey '[' [identlist] '@' IDENT ']' '(' query ')'
//!            | poss '(' query ')' | cert '(' query ')'
//!            | aselect '[' termlist ';' pred [';' eps0 '=' NUM] [';' delta '=' NUM] ']' '(' query ')'
//! term      := IDENT '=' conf '(' [identlist] ')'
//! pred      := disjunction of conjunctions of (possibly negated) comparisons
//! expr      := arithmetic over attributes, numbers and 'strings'
//! ```
//!
//! Example — the conditional-probability selection of Example 6.1:
//!
//! ```text
//! aselect[P1 = conf(CoinType), P2 = conf(); P1 / P2 <= 0.5](T)
//! ```

mod lexer;

pub use lexer::{tokenize, Token, TokenKind};

use crate::error::{AlgebraError, Result};
use crate::expr::Expr;
use crate::predicate::{CmpOp, Predicate};
use crate::query::{ConfTerm, ProjItem, Query, DEFAULT_DELTA, DEFAULT_EPSILON0};
use pdb::Value;

/// Parses a textual UA query.
pub fn parse_query(input: &str) -> Result<Query> {
    let tokens = tokenize(input)?;
    let mut p = Parser { tokens, pos: 0 };
    let q = p.query()?;
    p.expect(&TokenKind::Eof)?;
    Ok(q)
}

/// Parses a selection predicate on its own (useful in tests and tools).
pub fn parse_predicate(input: &str) -> Result<Predicate> {
    let tokens = tokenize(input)?;
    let mut p = Parser { tokens, pos: 0 };
    let pred = p.predicate()?;
    p.expect(&TokenKind::Eof)?;
    Ok(pred)
}

/// Parses an arithmetic expression on its own.
pub fn parse_expr(input: &str) -> Result<Expr> {
    let tokens = tokenize(input)?;
    let mut p = Parser { tokens, pos: 0 };
    let e = p.expr()?;
    p.expect(&TokenKind::Eof)?;
    Ok(e)
}

struct Parser {
    tokens: Vec<Token>,
    pos: usize,
}

impl Parser {
    fn peek(&self) -> &TokenKind {
        &self.tokens[self.pos].kind
    }

    fn position(&self) -> usize {
        self.tokens[self.pos].position
    }

    fn advance(&mut self) -> TokenKind {
        let k = self.tokens[self.pos].kind.clone();
        if self.pos + 1 < self.tokens.len() {
            self.pos += 1;
        }
        k
    }

    fn error(&self, message: impl Into<String>) -> AlgebraError {
        AlgebraError::Parse {
            position: self.position(),
            message: message.into(),
        }
    }

    fn expect(&mut self, kind: &TokenKind) -> Result<()> {
        if self.peek() == kind {
            self.advance();
            Ok(())
        } else {
            Err(self.error(format!("expected {kind:?}, found {:?}", self.peek())))
        }
    }

    fn eat(&mut self, kind: &TokenKind) -> bool {
        if self.peek() == kind {
            self.advance();
            true
        } else {
            false
        }
    }

    fn ident(&mut self) -> Result<String> {
        match self.advance() {
            TokenKind::Ident(s) => Ok(s),
            other => Err(self.error(format!("expected identifier, found {other:?}"))),
        }
    }

    fn number(&mut self) -> Result<f64> {
        match self.advance() {
            TokenKind::Number(n) => Ok(n),
            other => Err(self.error(format!("expected number, found {other:?}"))),
        }
    }

    // ---- queries ---------------------------------------------------------

    fn query(&mut self) -> Result<Query> {
        let TokenKind::Ident(head) = self.peek().clone() else {
            return Err(self.error("expected an operator or relation name"));
        };
        match head.as_str() {
            "select" => {
                self.advance();
                self.expect(&TokenKind::LBracket)?;
                let pred = self.predicate()?;
                self.expect(&TokenKind::RBracket)?;
                let input = self.parenthesised_query()?;
                Ok(input.select(pred))
            }
            "project" | "extend" => {
                self.advance();
                self.expect(&TokenKind::LBracket)?;
                let items = self.proj_items()?;
                self.expect(&TokenKind::RBracket)?;
                let input = self.parenthesised_query()?;
                Ok(if head == "project" {
                    input.project_items(items)
                } else {
                    input.extend(items)
                })
            }
            "rename" => {
                self.advance();
                self.expect(&TokenKind::LBracket)?;
                let from = self.ident()?;
                self.expect(&TokenKind::Arrow)?;
                let to = self.ident()?;
                self.expect(&TokenKind::RBracket)?;
                let input = self.parenthesised_query()?;
                Ok(input.rename(from, to))
            }
            "product" | "join" | "union" | "diff" | "diffc" => {
                self.advance();
                self.expect(&TokenKind::LParen)?;
                let left = self.query()?;
                self.expect(&TokenKind::Comma)?;
                let right = self.query()?;
                self.expect(&TokenKind::RParen)?;
                Ok(match head.as_str() {
                    "product" => left.product(right),
                    "join" => left.natural_join(right),
                    "union" => left.union(right),
                    "diff" => left.difference(right),
                    _ => left.difference_c(right),
                })
            }
            "conf" => {
                self.advance();
                let prob_attr = if self.eat(&TokenKind::LBracket) {
                    let a = self.ident()?;
                    self.expect(&TokenKind::RBracket)?;
                    a
                } else {
                    "P".to_owned()
                };
                let input = self.parenthesised_query()?;
                Ok(input.conf(prob_attr))
            }
            "aconf" => {
                self.advance();
                self.expect(&TokenKind::LBracket)?;
                let epsilon = self.number()?;
                self.expect(&TokenKind::Comma)?;
                let delta = self.number()?;
                let prob_attr = if self.eat(&TokenKind::Comma) {
                    self.ident()?
                } else {
                    "P".to_owned()
                };
                self.expect(&TokenKind::RBracket)?;
                let input = self.parenthesised_query()?;
                Ok(input.approx_conf(prob_attr, epsilon, delta))
            }
            "repairkey" => {
                self.advance();
                self.expect(&TokenKind::LBracket)?;
                let mut key = Vec::new();
                while !matches!(self.peek(), TokenKind::At) {
                    key.push(self.ident()?);
                    if !self.eat(&TokenKind::Comma) {
                        break;
                    }
                }
                self.expect(&TokenKind::At)?;
                let weight = self.ident()?;
                self.expect(&TokenKind::RBracket)?;
                let input = self.parenthesised_query()?;
                let key_refs: Vec<&str> = key.iter().map(String::as_str).collect();
                Ok(input.repair_key(&key_refs, weight))
            }
            "poss" => {
                self.advance();
                Ok(self.parenthesised_query()?.poss())
            }
            "cert" => {
                self.advance();
                Ok(self.parenthesised_query()?.cert())
            }
            "aselect" => {
                self.advance();
                self.expect(&TokenKind::LBracket)?;
                let terms = self.conf_terms()?;
                self.expect(&TokenKind::Semicolon)?;
                let pred = self.predicate()?;
                let mut epsilon0 = DEFAULT_EPSILON0;
                let mut delta = DEFAULT_DELTA;
                while self.eat(&TokenKind::Semicolon) {
                    let name = self.ident()?;
                    self.expect(&TokenKind::Eq)?;
                    let value = self.number()?;
                    match name.as_str() {
                        "eps0" => epsilon0 = value,
                        "delta" => delta = value,
                        other => {
                            return Err(self.error(format!(
                                "unknown aselect parameter `{other}` (expected eps0 or delta)"
                            )))
                        }
                    }
                }
                self.expect(&TokenKind::RBracket)?;
                let input = self.parenthesised_query()?;
                Ok(input.approx_select(terms, pred, epsilon0, delta))
            }
            _ => {
                // A bare identifier is a base relation.
                self.advance();
                Ok(Query::table(head))
            }
        }
    }

    fn parenthesised_query(&mut self) -> Result<Query> {
        self.expect(&TokenKind::LParen)?;
        let q = self.query()?;
        self.expect(&TokenKind::RParen)?;
        Ok(q)
    }

    fn proj_items(&mut self) -> Result<Vec<ProjItem>> {
        let mut items = Vec::new();
        // An empty item list (project[]) is allowed: it is π_∅.
        if matches!(self.peek(), TokenKind::RBracket) {
            return Ok(items);
        }
        loop {
            let expr = self.expr()?;
            let item = if let TokenKind::Ident(kw) = self.peek() {
                if kw == "as" {
                    self.advance();
                    let name = self.ident()?;
                    ProjItem::computed(expr, name)
                } else {
                    return Err(self.error("expected `as`, `,` or `]` after projection item"));
                }
            } else if let Expr::Attr(name) = &expr {
                ProjItem::attr(name.clone())
            } else {
                return Err(self.error("computed projection item needs `as <name>`"));
            };
            items.push(item);
            if !self.eat(&TokenKind::Comma) {
                break;
            }
        }
        Ok(items)
    }

    fn conf_terms(&mut self) -> Result<Vec<ConfTerm>> {
        let mut terms = Vec::new();
        loop {
            let name = self.ident()?;
            self.expect(&TokenKind::Eq)?;
            let kw = self.ident()?;
            if kw != "conf" {
                return Err(self.error("confidence term must be of the form `P = conf(...)`"));
            }
            self.expect(&TokenKind::LParen)?;
            let mut attrs = Vec::new();
            while !matches!(self.peek(), TokenKind::RParen) {
                attrs.push(self.ident()?);
                if !self.eat(&TokenKind::Comma) {
                    break;
                }
            }
            self.expect(&TokenKind::RParen)?;
            terms.push(ConfTerm { name, attrs });
            if !self.eat(&TokenKind::Comma) {
                break;
            }
        }
        Ok(terms)
    }

    // ---- predicates -------------------------------------------------------

    fn predicate(&mut self) -> Result<Predicate> {
        let mut left = self.conjunction()?;
        while let TokenKind::Ident(kw) = self.peek() {
            if kw == "or" {
                self.advance();
                let right = self.conjunction()?;
                left = left.or(right);
            } else {
                break;
            }
        }
        Ok(left)
    }

    fn conjunction(&mut self) -> Result<Predicate> {
        let mut left = self.negation()?;
        while let TokenKind::Ident(kw) = self.peek() {
            if kw == "and" {
                self.advance();
                let right = self.negation()?;
                left = left.and(right);
            } else {
                break;
            }
        }
        Ok(left)
    }

    fn negation(&mut self) -> Result<Predicate> {
        if let TokenKind::Ident(kw) = self.peek() {
            if kw == "not" {
                self.advance();
                return Ok(self.negation()?.not());
            }
            if kw == "true" {
                self.advance();
                return Ok(Predicate::True);
            }
            if kw == "false" {
                self.advance();
                return Ok(Predicate::False);
            }
        }
        // A leading `(` is ambiguous: it may parenthesise a Boolean predicate
        // (as the Display form of And/Or does) or an arithmetic expression
        // inside a comparison.  Try the predicate reading first and backtrack
        // on failure.
        if matches!(self.peek(), TokenKind::LParen) {
            let saved = self.pos;
            self.advance();
            if let Ok(pred) = self.predicate() {
                if self.eat(&TokenKind::RParen) {
                    return Ok(pred);
                }
            }
            self.pos = saved;
        }
        self.comparison()
    }

    fn comparison(&mut self) -> Result<Predicate> {
        let left = self.expr()?;
        let op = match self.peek() {
            TokenKind::Eq => CmpOp::Eq,
            TokenKind::Ne => CmpOp::Ne,
            TokenKind::Lt => CmpOp::Lt,
            TokenKind::Le => CmpOp::Le,
            TokenKind::Gt => CmpOp::Gt,
            TokenKind::Ge => CmpOp::Ge,
            other => {
                return Err(self.error(format!("expected comparison operator, found {other:?}")))
            }
        };
        self.advance();
        let right = self.expr()?;
        Ok(Predicate::Cmp(left, op, right))
    }

    // ---- expressions ------------------------------------------------------

    fn expr(&mut self) -> Result<Expr> {
        let mut left = self.term()?;
        loop {
            match self.peek() {
                TokenKind::Plus => {
                    self.advance();
                    left = left + self.term()?;
                }
                TokenKind::Minus => {
                    self.advance();
                    left = left - self.term()?;
                }
                _ => break,
            }
        }
        Ok(left)
    }

    fn term(&mut self) -> Result<Expr> {
        let mut left = self.factor()?;
        loop {
            match self.peek() {
                TokenKind::Star => {
                    self.advance();
                    left = left * self.factor()?;
                }
                TokenKind::Slash => {
                    self.advance();
                    left = left / self.factor()?;
                }
                _ => break,
            }
        }
        Ok(left)
    }

    fn factor(&mut self) -> Result<Expr> {
        match self.peek().clone() {
            TokenKind::Minus => {
                self.advance();
                Ok(-self.factor()?)
            }
            TokenKind::Number(n) => {
                self.advance();
                Ok(Expr::konst(n))
            }
            TokenKind::Str(s) => {
                self.advance();
                Ok(Expr::Const(Value::Str(s)))
            }
            TokenKind::Ident(name) => {
                self.advance();
                Ok(Expr::attr(name))
            }
            TokenKind::LParen => {
                self.advance();
                let e = self.expr()?;
                self.expect(&TokenKind::RParen)?;
                Ok(e)
            }
            other => Err(self.error(format!("expected expression, found {other:?}"))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_a_bare_table() {
        assert_eq!(parse_query("Coins").unwrap(), Query::table("Coins"));
    }

    #[test]
    fn parses_the_coin_pipeline() {
        let q = parse_query("project[CoinType](repairkey[ @ Count](Coins))").unwrap();
        assert_eq!(
            q,
            Query::table("Coins")
                .repair_key(&[], "Count")
                .project(&["CoinType"])
        );
        let q = parse_query(
            "project[CoinType, Toss, Face](repairkey[CoinType, Toss @ FProb](product(Faces, Tosses)))",
        )
        .unwrap();
        assert_eq!(
            q,
            Query::table("Faces")
                .product(Query::table("Tosses"))
                .repair_key(&["CoinType", "Toss"], "FProb")
                .project(&["CoinType", "Toss", "Face"])
        );
    }

    #[test]
    fn parses_selections_and_predicates() {
        let q = parse_query("select[Toss = 1 and Face = 'H'](S)").unwrap();
        assert_eq!(
            q,
            Query::table("S").select(
                Predicate::eq(Expr::attr("Toss"), Expr::konst(1.0))
                    .and(Predicate::eq(Expr::attr("Face"), Expr::konst("H")))
            )
        );
        let p = parse_predicate("not P >= 0.5 or Face != 'T'").unwrap();
        assert_eq!(
            p,
            Predicate::ge(Expr::attr("P"), Expr::konst(0.5))
                .not()
                .or(Predicate::cmp(
                    Expr::attr("Face"),
                    CmpOp::Ne,
                    Expr::konst("T")
                ))
        );
    }

    #[test]
    fn parses_arithmetic_with_precedence() {
        let e = parse_expr("P1 / P2 + 2 * 3").unwrap();
        assert_eq!(
            e,
            Expr::attr("P1") / Expr::attr("P2") + Expr::konst(2.0) * Expr::konst(3.0)
        );
        let e = parse_expr("(A + B) * -C").unwrap();
        assert_eq!(e, (Expr::attr("A") + Expr::attr("B")) * (-Expr::attr("C")));
    }

    #[test]
    fn parses_conf_and_conditional_probability_query() {
        let q = parse_query(
            "project[CoinType, P1 / P2 as P](join(rename[P -> P1](conf(T)), rename[P -> P2](conf(project[](T)))))",
        )
        .unwrap();
        let expected = Query::table("T")
            .conf("P")
            .rename("P", "P1")
            .natural_join(
                Query::table("T")
                    .project_items(vec![])
                    .conf("P")
                    .rename("P", "P2"),
            )
            .project_items(vec![
                ProjItem::attr("CoinType"),
                ProjItem::computed(Expr::attr("P1") / Expr::attr("P2"), "P"),
            ]);
        assert_eq!(q, expected);
    }

    #[test]
    fn parses_aconf_and_aselect() {
        let q = parse_query("aconf[0.1, 0.05, Prob](T)").unwrap();
        assert_eq!(q, Query::table("T").approx_conf("Prob", 0.1, 0.05));

        let q = parse_query(
            "aselect[P1 = conf(CoinType), P2 = conf(); P1 / P2 <= 0.5; eps0 = 0.02; delta = 0.1](T)",
        )
        .unwrap();
        if let Query::ApproxSelect {
            terms,
            epsilon0,
            delta,
            ..
        } = &q
        {
            assert_eq!(terms.len(), 2);
            assert_eq!(terms[0].attrs, vec!["CoinType".to_string()]);
            assert!(terms[1].attrs.is_empty());
            assert_eq!(*epsilon0, 0.02);
            assert_eq!(*delta, 0.1);
        } else {
            panic!("expected ApproxSelect, got {q:?}");
        }
        // Defaults are filled in when parameters are omitted.
        let q = parse_query("aselect[P1 = conf(A); P1 >= 0.5](T)").unwrap();
        if let Query::ApproxSelect {
            epsilon0, delta, ..
        } = q
        {
            assert_eq!(epsilon0, DEFAULT_EPSILON0);
            assert_eq!(delta, DEFAULT_DELTA);
        } else {
            panic!("expected ApproxSelect");
        }
    }

    /// The display form of a parsed query must re-parse to the same display
    /// (a closed normalization).  The serving layer's query cache names each
    /// prepared query — and the checkpoint store its persisted warm entries
    /// — by this normalized text, so a display form the parser rejects would
    /// make a query unpreparable from its own cache key.
    #[test]
    fn display_forms_re_parse_to_a_fixpoint() {
        let texts = [
            "poss(join(R, S))",
            "conf(project[CoinType](repairkey[ @ Count](Coins)))",
            "aconf[0.3, 0.15](project[B](join(repairkey[K @ W](R), S)))",
            "aconf[0.1, 0.05, Prob](T)",
            "aselect[P1 = conf(A); P1 >= 0.5; eps0 = 0.02; delta = 0.1](T)",
            "diffc(poss(select[K = 1](A)), cert(extend[W * 2 as V](B)))",
            "union(rename[B -> C](product(A, B)), diff(A, A))",
        ];
        for text in texts {
            let normalized = parse_query(text).unwrap().to_string();
            let reparsed = parse_query(&normalized)
                .unwrap_or_else(|e| panic!("`{normalized}` does not re-parse: {e}"));
            assert_eq!(reparsed.to_string(), normalized, "not a fixpoint: {text}");
        }
    }

    #[test]
    fn parses_set_operations_and_poss_cert() {
        assert_eq!(
            parse_query("union(A, B)").unwrap(),
            Query::table("A").union(Query::table("B"))
        );
        assert_eq!(
            parse_query("diffc(poss(A), cert(B))").unwrap(),
            Query::table("A")
                .poss()
                .difference_c(Query::table("B").cert())
        );
    }

    #[test]
    fn round_trips_display_output() {
        // Display output of a query parses back to the same query.
        let q = Query::table("Faces")
            .product(Query::table("Tosses"))
            .repair_key(&["CoinType", "Toss"], "FProb")
            .select(Predicate::eq(Expr::attr("Face"), Expr::konst("H")))
            .project(&["CoinType"])
            .conf("P");
        let reparsed = parse_query(&q.to_string()).unwrap();
        // Numeric constants become floats when parsed, so compare displays.
        assert_eq!(reparsed.to_string(), q.to_string());
    }

    #[test]
    fn reports_parse_errors() {
        assert!(parse_query("select[P >](T)").is_err());
        assert!(parse_query("project[A as ](T)").is_err());
        assert!(parse_query("join(A,)").is_err());
        assert!(parse_query("aselect[P1 = xonf(A); P1 >= 0.5](T)").is_err());
        assert!(parse_query("aselect[P1 = conf(A); P1 >= 0.5; bogus = 1](T)").is_err());
        assert!(parse_query("Coins extra").is_err());
        assert!(parse_expr("1 +").is_err());
        assert!(parse_predicate("A").is_err());
    }
}
