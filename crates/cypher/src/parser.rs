//! Recursive-descent parser for the concrete Cypher surface syntax.
//!
//! The parser accepts the Featherweight Cypher fragment of Figure 9 written
//! in ordinary Cypher syntax:
//!
//! ```text
//! MATCH (c1:CONCEPT {CID: 1})-[r1:CS]->(p1:PA)-[r2:SP]->(s:SENTENCE)
//! WITH s
//! MATCH (s:SENTENCE)<-[r3:SP]-(p2:PA)<-[r4:CS]-(c2:CONCEPT)
//! RETURN c2.CID, Count(*)
//! ```
//!
//! Constructs outside the fragment (variable-length paths, `shortestPath`,
//! `WITH` over computed expressions, `LIMIT`, ...) are rejected with
//! [`graphiti_common::Error::Unsupported`] so callers can distinguish
//! "not in the fragment" from syntax errors.

use crate::ast::*;
use crate::lexer::{tokenize, Token};
use graphiti_common::{AggKind, BinArith, CmpOp, Error, Ident, Result, Value, MAX_NESTING};
use std::collections::HashMap;

/// Parsed body of an edge pattern: variable, label, and property literals.
type EdgeBody = (Option<String>, Option<String>, Vec<(Ident, Value)>);

/// Parses a complete Cypher query.
pub fn parse_query(input: &str) -> Result<Query> {
    let tokens = tokenize(input)?;
    let mut parser = Parser::new(tokens);
    let q = parser.parse_query()?;
    parser.expect_eof()?;
    Ok(q)
}

struct Parser {
    tokens: Vec<Token>,
    pos: usize,
    anon: usize,
    /// Labels seen for each variable, used to resolve label-less patterns
    /// such as `(C)` that re-use an earlier binding.
    var_labels: HashMap<String, String>,
    /// Nesting levels entered so far (see [`MAX_NESTING`]).
    depth: usize,
}

impl Parser {
    fn new(tokens: Vec<Token>) -> Self {
        Parser { tokens, pos: 0, anon: 0, var_labels: HashMap::new(), depth: 0 }
    }

    /// Enters one more nesting level; the caller restores the depth, via
    /// [`Parser::nested`] or [`Parser::chain`].
    fn descend(&mut self) -> Result<()> {
        if self.depth == MAX_NESTING {
            return Err(Error::too_deep("cypher"));
        }
        self.depth += 1;
        Ok(())
    }

    /// Runs `f` one nesting level deeper.
    fn nested<T>(&mut self, f: impl FnOnce(&mut Self) -> Result<T>) -> Result<T> {
        self.chain(|p| {
            p.descend()?;
            f(p)
        })
    }

    /// Runs `f`, which descends once per link of a left-deep chain, and
    /// restores the depth afterwards.
    fn chain<T>(&mut self, f: impl FnOnce(&mut Self) -> Result<T>) -> Result<T> {
        let depth = self.depth;
        let out = f(self);
        self.depth = depth;
        out
    }

    fn peek(&self) -> &Token {
        &self.tokens[self.pos]
    }

    fn peek_at(&self, offset: usize) -> &Token {
        self.tokens.get(self.pos + offset).unwrap_or(&Token::Eof)
    }

    fn bump(&mut self) -> Token {
        let t = self.tokens[self.pos].clone();
        if self.pos + 1 < self.tokens.len() {
            self.pos += 1;
        }
        t
    }

    fn at_kw(&self, kw: &str) -> bool {
        self.peek().is_kw(kw)
    }

    fn eat_kw(&mut self, kw: &str) -> bool {
        if self.at_kw(kw) {
            self.bump();
            true
        } else {
            false
        }
    }

    fn expect_kw(&mut self, kw: &str) -> Result<()> {
        if self.eat_kw(kw) {
            Ok(())
        } else {
            Err(Error::parse("cypher", format!("expected `{kw}`, found {:?}", self.peek())))
        }
    }

    fn eat(&mut self, t: &Token) -> bool {
        if self.peek() == t {
            self.bump();
            true
        } else {
            false
        }
    }

    fn expect(&mut self, t: &Token) -> Result<()> {
        if self.eat(t) {
            Ok(())
        } else {
            Err(Error::parse("cypher", format!("expected {t:?}, found {:?}", self.peek())))
        }
    }

    fn expect_ident(&mut self) -> Result<String> {
        match self.bump() {
            Token::Ident(s) => Ok(s),
            other => Err(Error::parse("cypher", format!("expected identifier, found {other:?}"))),
        }
    }

    fn expect_eof(&mut self) -> Result<()> {
        self.eat(&Token::Semicolon);
        if matches!(self.peek(), Token::Eof) {
            Ok(())
        } else {
            Err(Error::parse("cypher", format!("trailing tokens starting at {:?}", self.peek())))
        }
    }

    fn fresh_var(&mut self) -> String {
        let v = format!("_anon{}", self.anon);
        self.anon += 1;
        v
    }

    // ---------------------------------------------------------------- query

    fn parse_query(&mut self) -> Result<Query> {
        self.chain(Self::parse_union_chain)
    }

    fn parse_union_chain(&mut self) -> Result<Query> {
        let mut q = self.parse_single_query()?;
        loop {
            if self.at_kw("union") {
                self.bump();
                self.descend()?;
                let all = self.eat_kw("all");
                let rhs = self.parse_single_query()?;
                q = if all {
                    Query::UnionAll(Box::new(q), Box::new(rhs))
                } else {
                    Query::Union(Box::new(q), Box::new(rhs))
                };
            } else {
                break;
            }
        }
        Ok(q)
    }

    fn parse_single_query(&mut self) -> Result<Query> {
        let clause = self.parse_clauses()?;
        self.expect_kw("return")?;
        let distinct = self.eat_kw("distinct");
        let (items, names) = self.parse_return_items()?;
        let mut ret = ReturnQuery::new(clause, items, names);
        ret.distinct = distinct;
        let mut query = Query::Return(ret);
        if self.at_kw("order") {
            self.bump();
            self.expect_kw("by")?;
            let keys = self.parse_sort_keys()?;
            query = Query::OrderBy { input: Box::new(query), keys };
        }
        if self.at_kw("limit") || self.at_kw("skip") {
            return Err(Error::unsupported("LIMIT/SKIP are outside Featherweight Cypher"));
        }
        Ok(query)
    }

    fn parse_return_items(&mut self) -> Result<(Vec<Expr>, Vec<Ident>)> {
        let mut items = Vec::new();
        let mut names = Vec::new();
        loop {
            let e = self.parse_expr()?;
            let name = if self.eat_kw("as") { self.expect_ident()? } else { default_name(&e) };
            items.push(e);
            names.push(Ident::new(name));
            if !self.eat(&Token::Comma) {
                break;
            }
        }
        Ok((items, names))
    }

    fn parse_sort_keys(&mut self) -> Result<Vec<SortKey>> {
        let mut keys = Vec::new();
        loop {
            let expr = self.parse_expr()?;
            let ascending = if self.eat_kw("desc") || self.eat_kw("descending") {
                false
            } else {
                self.eat_kw("asc");
                self.eat_kw("ascending");
                true
            };
            keys.push(SortKey { expr, ascending });
            if !self.eat(&Token::Comma) {
                break;
            }
        }
        Ok(keys)
    }

    // --------------------------------------------------------------- clause

    fn parse_clauses(&mut self) -> Result<Clause> {
        self.chain(Self::parse_clause_chain)
    }

    fn parse_clause_chain(&mut self) -> Result<Clause> {
        let mut clause: Option<Clause> = None;
        loop {
            if self.at_kw("match") {
                self.bump();
                self.descend()?;
                clause = Some(self.parse_match(clause, false)?);
            } else if self.at_kw("optional") {
                self.bump();
                self.descend()?;
                self.expect_kw("match")?;
                let prev = clause.ok_or_else(|| {
                    Error::parse("cypher", "OPTIONAL MATCH must follow another clause")
                })?;
                clause = Some(self.parse_match(Some(prev), true)?);
            } else if self.at_kw("with") {
                self.bump();
                self.descend()?;
                let prev = clause
                    .ok_or_else(|| Error::parse("cypher", "WITH must follow another clause"))?;
                clause = Some(self.parse_with(prev)?);
            } else {
                break;
            }
        }
        clause.ok_or_else(|| Error::parse("cypher", "query must contain at least one MATCH clause"))
    }

    fn parse_match(&mut self, mut prev: Option<Clause>, optional: bool) -> Result<Clause> {
        let mut patterns = vec![self.parse_path_pattern()?];
        while self.eat(&Token::Comma) {
            self.descend()?;
            patterns.push(self.parse_path_pattern()?);
        }
        let pred = if self.eat_kw("where") { self.parse_pred()? } else { Pred::True };
        let n = patterns.len();
        for (i, pattern) in patterns.into_iter().enumerate() {
            let p = if i + 1 == n { pred.clone() } else { Pred::True };
            prev = Some(match (prev.take(), optional) {
                (None, false) => Clause::Match { prev: None, pattern, pred: p },
                (Some(c), false) => Clause::Match { prev: Some(Box::new(c)), pattern, pred: p },
                (Some(c), true) => Clause::OptMatch { prev: Box::new(c), pattern, pred: p },
                (None, true) => {
                    return Err(Error::parse("cypher", "OPTIONAL MATCH cannot be the first clause"))
                }
            });
        }
        Ok(prev.unwrap())
    }

    fn parse_with(&mut self, prev: Clause) -> Result<Clause> {
        let mut old = Vec::new();
        let mut new = Vec::new();
        loop {
            if self.eat(&Token::Star) {
                // `WITH *` keeps every variable in scope.
                for (v, _) in prev.visible_variables() {
                    old.push(v.clone());
                    new.push(v);
                }
            } else {
                let start = self.pos;
                let name = self.expect_ident()?;
                // Reject computed expressions in WITH (outside the fragment).
                if matches!(self.peek(), Token::Dot | Token::LParen) {
                    self.pos = start;
                    return Err(Error::unsupported(
                        "WITH over computed expressions is outside Featherweight Cypher",
                    ));
                }
                let renamed = if self.eat_kw("as") { self.expect_ident()? } else { name.clone() };
                if let Some(label) = self.var_labels.get(&name).cloned() {
                    self.var_labels.insert(renamed.clone(), label);
                }
                old.push(Ident::new(name));
                new.push(Ident::new(renamed));
            }
            if !self.eat(&Token::Comma) {
                break;
            }
        }
        if self.at_kw("where") {
            return Err(Error::unsupported("WHERE after WITH is outside Featherweight Cypher"));
        }
        Ok(Clause::With { prev: Box::new(prev), old, new })
    }

    // -------------------------------------------------------------- pattern

    fn parse_path_pattern(&mut self) -> Result<PathPattern> {
        self.chain(Self::parse_path_chain)
    }

    fn parse_path_chain(&mut self) -> Result<PathPattern> {
        let start = self.parse_node_pattern()?;
        let mut steps = Vec::new();
        loop {
            let save = self.pos;
            match self.try_parse_edge_pattern()? {
                Some(edge) => {
                    self.descend()?;
                    let node = self.parse_node_pattern()?;
                    steps.push((edge, node));
                }
                None => {
                    self.pos = save;
                    break;
                }
            }
        }
        Ok(PathPattern { start, steps })
    }

    fn parse_node_pattern(&mut self) -> Result<NodePattern> {
        self.expect(&Token::LParen)?;
        let var = match self.peek() {
            Token::Ident(s) if !matches!(self.peek_at(0), Token::Colon) => {
                let s = s.clone();
                self.bump();
                Some(s)
            }
            _ => None,
        };
        let label = if self.eat(&Token::Colon) { Some(self.expect_ident()?) } else { None };
        let props = if self.peek() == &Token::LBrace { self.parse_props()? } else { Vec::new() };
        self.expect(&Token::RParen)?;
        let var = var.unwrap_or_else(|| self.fresh_var());
        let label = match label {
            Some(l) => l,
            None => self.var_labels.get(&var).cloned().ok_or_else(|| {
                Error::parse(
                    "cypher",
                    format!("node pattern `({var})` has no label and `{var}` is not bound earlier"),
                )
            })?,
        };
        self.var_labels.insert(var.clone(), label.clone());
        Ok(NodePattern { var: Ident::new(var), label: Ident::new(label), props })
    }

    /// Tries to parse an edge pattern; returns `Ok(None)` if the upcoming
    /// tokens do not start one.
    fn try_parse_edge_pattern(&mut self) -> Result<Option<EdgePattern>> {
        // Left-pointing edge: `<-[ ... ]-`
        if self.peek() == &Token::Lt && self.peek_at(1) == &Token::Minus {
            self.bump();
            self.bump();
            self.expect(&Token::LBracket)?;
            let (var, label, props) = self.parse_edge_body()?;
            self.expect(&Token::RBracket)?;
            self.expect(&Token::Minus)?;
            return Ok(Some(self.finish_edge(var, label, props, Direction::Left)?));
        }
        // Right-pointing or undirected edge: `-[ ... ]->` or `-[ ... ]-`
        if self.peek() == &Token::Minus && self.peek_at(1) == &Token::LBracket {
            self.bump();
            self.bump();
            let (var, label, props) = self.parse_edge_body()?;
            self.expect(&Token::RBracket)?;
            self.expect(&Token::Minus)?;
            let dir = if self.eat(&Token::Gt) { Direction::Right } else { Direction::Undirected };
            return Ok(Some(self.finish_edge(var, label, props, dir)?));
        }
        Ok(None)
    }

    fn parse_edge_body(&mut self) -> Result<EdgeBody> {
        let var = match self.peek() {
            Token::Ident(s) => {
                let s = s.clone();
                self.bump();
                Some(s)
            }
            _ => None,
        };
        let label = if self.eat(&Token::Colon) {
            let l = self.expect_ident()?;
            if self.eat(&Token::Star)
                || self.peek() == &Token::Dot && self.peek_at(1) == &Token::Dot
            {
                return Err(Error::unsupported(
                    "variable-length path patterns are outside Featherweight Cypher",
                ));
            }
            Some(l)
        } else {
            None
        };
        let props = if self.peek() == &Token::LBrace { self.parse_props()? } else { Vec::new() };
        Ok((var, label, props))
    }

    fn finish_edge(
        &mut self,
        var: Option<String>,
        label: Option<String>,
        props: Vec<(Ident, Value)>,
        dir: Direction,
    ) -> Result<EdgePattern> {
        let var = var.unwrap_or_else(|| self.fresh_var());
        let label = match label {
            Some(l) => l,
            None => self.var_labels.get(&var).cloned().ok_or_else(|| {
                Error::parse("cypher", format!("edge pattern `[{var}]` has no label"))
            })?,
        };
        self.var_labels.insert(var.clone(), label.clone());
        Ok(EdgePattern { var: Ident::new(var), label: Ident::new(label), dir, props })
    }

    fn parse_props(&mut self) -> Result<Vec<(Ident, Value)>> {
        self.expect(&Token::LBrace)?;
        let mut props = Vec::new();
        if self.peek() != &Token::RBrace {
            loop {
                let key = self.expect_ident()?;
                self.expect(&Token::Colon)?;
                let value = self.parse_literal()?;
                props.push((Ident::new(key), value));
                if !self.eat(&Token::Comma) {
                    break;
                }
            }
        }
        self.expect(&Token::RBrace)?;
        Ok(props)
    }

    fn parse_literal(&mut self) -> Result<Value> {
        match self.bump() {
            Token::Int(i) => Ok(Value::Int(i)),
            Token::Float(f) => Ok(Value::Float(f)),
            Token::Str(s) => Ok(Value::str(s)),
            Token::Minus => match self.bump() {
                Token::Int(i) => Ok(Value::Int(-i)),
                Token::Float(f) => Ok(Value::Float(-f)),
                other => Err(Error::parse(
                    "cypher",
                    format!("expected number after `-`, found {other:?}"),
                )),
            },
            Token::Ident(s) if s.eq_ignore_ascii_case("null") => Ok(Value::Null),
            Token::Ident(s) if s.eq_ignore_ascii_case("true") => Ok(Value::Bool(true)),
            Token::Ident(s) if s.eq_ignore_ascii_case("false") => Ok(Value::Bool(false)),
            other => Err(Error::parse("cypher", format!("expected literal, found {other:?}"))),
        }
    }

    // ------------------------------------------------------------ predicate

    fn parse_pred(&mut self) -> Result<Pred> {
        self.parse_or_pred()
    }

    fn parse_or_pred(&mut self) -> Result<Pred> {
        self.chain(|p| {
            let mut pred = p.parse_and_pred()?;
            while p.eat_kw("or") {
                p.descend()?;
                let rhs = p.parse_and_pred()?;
                pred = Pred::or(pred, rhs);
            }
            Ok(pred)
        })
    }

    fn parse_and_pred(&mut self) -> Result<Pred> {
        self.chain(|p| {
            let mut pred = p.parse_not_pred()?;
            while p.eat_kw("and") {
                p.descend()?;
                let rhs = p.parse_not_pred()?;
                pred = Pred::and(pred, rhs);
            }
            Ok(pred)
        })
    }

    fn parse_not_pred(&mut self) -> Result<Pred> {
        if self.eat_kw("not") {
            Ok(Pred::not(self.nested(Self::parse_not_pred)?))
        } else {
            self.parse_primary_pred()
        }
    }

    fn parse_primary_pred(&mut self) -> Result<Pred> {
        if self.at_kw("true") && !matches!(self.peek_at(1), Token::Dot) {
            self.bump();
            return Ok(Pred::True);
        }
        if self.at_kw("false") && !matches!(self.peek_at(1), Token::Dot) {
            self.bump();
            return Ok(Pred::False);
        }
        if self.at_kw("exists") {
            self.bump();
            return self.parse_exists();
        }
        // Parenthesized predicate (with backtracking to expressions).
        if self.peek() == &Token::LParen {
            let save = self.pos;
            self.bump();
            let inner = self.nested(Self::parse_pred);
            if matches!(&inner, Err(e) if *e == Error::too_deep("cypher")) {
                return inner;
            }
            if let Ok(p) = inner {
                if self.eat(&Token::RParen)
                    && !matches!(
                        self.peek(),
                        Token::Eq
                            | Token::Ne
                            | Token::Lt
                            | Token::Le
                            | Token::Gt
                            | Token::Ge
                            | Token::Plus
                            | Token::Minus
                            | Token::Star
                            | Token::Slash
                    )
                {
                    return Ok(p);
                }
            }
            self.pos = save;
        }
        let lhs = self.parse_expr()?;
        if self.at_kw("is") {
            self.bump();
            let negated = self.eat_kw("not");
            self.expect_kw("null")?;
            let p = Pred::IsNull(Box::new(lhs));
            return Ok(if negated { Pred::not(p) } else { p });
        }
        if self.at_kw("in") {
            self.bump();
            let open = self.bump();
            let close = match open {
                Token::LBracket => Token::RBracket,
                Token::LParen => Token::RParen,
                other => {
                    return Err(Error::parse(
                        "cypher",
                        format!("expected `[` or `(` after IN, found {other:?}"),
                    ))
                }
            };
            let mut values = Vec::new();
            if self.peek() != &close {
                loop {
                    values.push(self.parse_literal()?);
                    if !self.eat(&Token::Comma) {
                        break;
                    }
                }
            }
            self.expect(&close)?;
            return Ok(Pred::In(Box::new(lhs), values));
        }
        let op = match self.bump() {
            Token::Eq => CmpOp::Eq,
            Token::Ne => CmpOp::Ne,
            Token::Lt => CmpOp::Lt,
            Token::Le => CmpOp::Le,
            Token::Gt => CmpOp::Gt,
            Token::Ge => CmpOp::Ge,
            other => {
                return Err(Error::parse(
                    "cypher",
                    format!("expected comparison operator, found {other:?}"),
                ))
            }
        };
        let rhs = self.parse_expr()?;
        Ok(Pred::Cmp(Box::new(lhs), op, Box::new(rhs)))
    }

    fn parse_exists(&mut self) -> Result<Pred> {
        match self.bump() {
            Token::LBrace => {
                // `EXISTS { MATCH <pattern> }`
                self.eat_kw("match");
                let pp = self.parse_path_pattern()?;
                if self.at_kw("where") {
                    return Err(Error::unsupported(
                        "WHERE inside EXISTS subqueries is outside Featherweight Cypher",
                    ));
                }
                self.expect(&Token::RBrace)?;
                Ok(Pred::Exists(pp))
            }
            Token::LParen => {
                // `EXISTS ((n)-[:R]->(m))`
                let pp = self.parse_path_pattern()?;
                self.expect(&Token::RParen)?;
                Ok(Pred::Exists(pp))
            }
            other => Err(Error::parse(
                "cypher",
                format!("expected `{{` or `(` after EXISTS, found {other:?}"),
            )),
        }
    }

    // ----------------------------------------------------------- expression

    fn parse_expr(&mut self) -> Result<Expr> {
        self.chain(|p| {
            let mut e = p.parse_term()?;
            loop {
                let op = match p.peek() {
                    Token::Plus => BinArith::Add,
                    Token::Minus => BinArith::Sub,
                    _ => break,
                };
                p.bump();
                p.descend()?;
                let rhs = p.parse_term()?;
                e = Expr::Arith(Box::new(e), op, Box::new(rhs));
            }
            Ok(e)
        })
    }

    fn parse_term(&mut self) -> Result<Expr> {
        self.chain(|p| {
            let mut e = p.parse_factor()?;
            loop {
                let op = match p.peek() {
                    Token::Star => BinArith::Mul,
                    Token::Slash => BinArith::Div,
                    Token::Percent => BinArith::Mod,
                    _ => break,
                };
                p.bump();
                p.descend()?;
                let rhs = p.parse_factor()?;
                e = Expr::Arith(Box::new(e), op, Box::new(rhs));
            }
            Ok(e)
        })
    }

    fn parse_factor(&mut self) -> Result<Expr> {
        match self.peek().clone() {
            Token::Int(i) => {
                self.bump();
                Ok(Expr::Value(Value::Int(i)))
            }
            Token::Float(f) => {
                self.bump();
                Ok(Expr::Value(Value::Float(f)))
            }
            Token::Str(s) => {
                self.bump();
                Ok(Expr::Value(Value::str(s)))
            }
            Token::Minus => {
                self.bump();
                let inner = self.nested(Self::parse_factor)?;
                Ok(Expr::Arith(
                    Box::new(Expr::Value(Value::Int(0))),
                    BinArith::Sub,
                    Box::new(inner),
                ))
            }
            Token::Star => {
                self.bump();
                Ok(Expr::Star)
            }
            Token::LParen => {
                self.bump();
                let e = self.nested(Self::parse_expr)?;
                self.expect(&Token::RParen)?;
                Ok(e)
            }
            Token::Ident(name) => {
                // Aggregates.
                if let Some(kind) = AggKind::from_name(&name) {
                    if self.peek_at(1) == &Token::LParen {
                        self.bump();
                        self.bump();
                        let distinct = self.eat_kw("distinct");
                        let inner = if self.peek() == &Token::Star {
                            self.bump();
                            Expr::Star
                        } else {
                            self.nested(Self::parse_expr)?
                        };
                        self.expect(&Token::RParen)?;
                        return Ok(Expr::Agg(kind, Box::new(inner), distinct));
                    }
                }
                if name.eq_ignore_ascii_case("null") {
                    self.bump();
                    return Ok(Expr::Value(Value::Null));
                }
                if name.eq_ignore_ascii_case("true") {
                    self.bump();
                    return Ok(Expr::Value(Value::Bool(true)));
                }
                if name.eq_ignore_ascii_case("false") {
                    self.bump();
                    return Ok(Expr::Value(Value::Bool(false)));
                }
                self.bump();
                if self.eat(&Token::Dot) {
                    let key = self.expect_ident()?;
                    Ok(Expr::Prop(Ident::new(name), Ident::new(key)))
                } else {
                    Ok(Expr::Var(Ident::new(name)))
                }
            }
            other => Err(Error::parse("cypher", format!("expected expression, found {other:?}"))),
        }
    }
}

/// Produces the default output column name for an expression without an
/// explicit `AS` alias, mirroring Neo4j's behaviour of echoing the
/// expression text.
pub fn default_name(e: &Expr) -> String {
    crate::pretty::expr_to_string(e)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_example_3_4() {
        let q = parse_query(
            "MATCH (n:EMP)-[:WORK_AT]->(m:DEPT) RETURN m.dname AS name, Count(n) AS num",
        )
        .unwrap();
        match &q {
            Query::Return(r) => {
                assert_eq!(r.items.len(), 2);
                assert_eq!(r.names[0].as_str(), "name");
                assert!(r.has_agg());
                match &r.clause {
                    Clause::Match { prev, pattern, pred } => {
                        assert!(prev.is_none());
                        assert_eq!(pattern.steps.len(), 1);
                        assert_eq!(pattern.start.label.as_str(), "EMP");
                        assert_eq!(pred, &Pred::True);
                    }
                    _ => panic!("expected match clause"),
                }
            }
            _ => panic!("expected return query"),
        }
    }

    #[test]
    fn parse_motivating_example() {
        let q = parse_query(
            "MATCH (c1:CONCEPT {CID: 1})-[r1:CS]->(p1:PA)-[r2:SP]->(s:SENTENCE) \
             WITH s \
             MATCH (s:SENTENCE)<-[r3:SP]-(p2:PA)<-[r4:CS]-(c2:CONCEPT) \
             RETURN c2.CID, Count(*)",
        )
        .unwrap();
        assert!(q.has_agg());
        match &q {
            Query::Return(r) => match &r.clause {
                Clause::Match { prev, pattern, .. } => {
                    assert_eq!(pattern.steps.len(), 2);
                    assert_eq!(pattern.steps[0].0.dir, Direction::Left);
                    assert!(matches!(prev.as_deref(), Some(Clause::With { .. })));
                }
                _ => panic!("expected match"),
            },
            _ => panic!("expected return"),
        }
    }

    #[test]
    fn parse_optional_match_and_where() {
        let q = parse_query(
            "MATCH (c:Customer {CompanyName:'Drachenblut Delikatessen'}) \
             OPTIONAL MATCH (p:Product)<-[od:OrderDetails]-(o:Order)<-[pu:Purchased]-(c) \
             RETURN p.ProductName, Sum(od.UnitPrice * od.Quantity) AS Volume",
        )
        .unwrap();
        assert!(q.has_optional_match());
        assert!(q.has_agg());
    }

    #[test]
    fn parse_where_predicates() {
        let q = parse_query(
            "MATCH (t0:EMP {EmpNo: 10})-[w:WORK_AT]->(t1:DEPT) \
             WHERE t1.DeptNo + t0.EmpNo = t1.DeptNo + 5 AND NOT t1.DName IS NULL \
             RETURN t0.EmpNo, t1.DeptNo, t1.DeptNo AS DeptNo0",
        )
        .unwrap();
        match q {
            Query::Return(r) => match r.clause {
                Clause::Match { pred, .. } => {
                    assert!(matches!(pred, Pred::And(..)));
                }
                _ => panic!(),
            },
            _ => panic!(),
        }
    }

    #[test]
    fn parse_exists_subquery() {
        let q = parse_query(
            "MATCH (s:SENTENCE)<-[r3:SP]-(p2:PA)<-[r4:CS]-(c2:CONCEPT) \
             WHERE EXISTS { MATCH (c1:CONCEPT {CID: 1})-[r1:CS]->(p1:PA)-[r2:SP]->(s:SENTENCE) } \
             RETURN c2.CID, Count(*)",
        )
        .unwrap();
        match q {
            Query::Return(r) => match r.clause {
                Clause::Match { pred, .. } => assert!(matches!(pred, Pred::Exists(_))),
                _ => panic!(),
            },
            _ => panic!(),
        }
    }

    #[test]
    fn parse_union_and_order_by() {
        let q = parse_query(
            "MATCH (n:EMP) RETURN n.name ORDER BY n.name DESC \
             UNION ALL MATCH (m:DEPT) RETURN m.dname",
        )
        .unwrap();
        assert!(matches!(q, Query::UnionAll(..)));
    }

    #[test]
    fn parse_in_list_and_anonymous_nodes() {
        let q = parse_query(
            "MATCH (p:Product)<-[:OrderDetails]-(:Order) WHERE p.Price IN [1, 2, 3] RETURN p.ProductName",
        )
        .unwrap();
        match q {
            Query::Return(r) => match r.clause {
                Clause::Match { pred, pattern, .. } => {
                    assert!(matches!(pred, Pred::In(..)));
                    assert!(pattern.steps[0].1.var.as_str().starts_with("_anon"));
                }
                _ => panic!(),
            },
            _ => panic!(),
        }
    }

    #[test]
    fn parse_label_reuse_without_label() {
        let q = parse_query(
            "MATCH (c:Customer) OPTIONAL MATCH (p:Product)<-[:Bought]-(c) RETURN p.Name, c.Name",
        )
        .unwrap();
        match q {
            Query::Return(r) => match r.clause {
                Clause::OptMatch { pattern, .. } => {
                    assert_eq!(pattern.last().label.as_str(), "Customer");
                }
                _ => panic!(),
            },
            _ => panic!(),
        }
    }

    #[test]
    fn unsupported_features_are_flagged() {
        assert!(parse_query("MATCH (n:A)-[:R*1..3]->(m:B) RETURN n.id").is_err());
        let err = parse_query("MATCH (n:A) RETURN n.id LIMIT 5").unwrap_err();
        assert!(err.is_unsupported());
        let err = parse_query("MATCH (n:A) WITH n.id AS x RETURN x").unwrap_err();
        assert!(err.is_unsupported());
    }

    #[test]
    fn parse_distinct_and_multi_pattern_match() {
        let q = parse_query(
            "MATCH (x:USR), (u:PIC) WHERE x.UsrId = u.PicId RETURN DISTINCT x.UsrId AS id",
        )
        .unwrap();
        match q {
            Query::Return(r) => {
                assert!(r.distinct);
                match r.clause {
                    Clause::Match { prev, .. } => assert!(prev.is_some()),
                    _ => panic!(),
                }
            }
            _ => panic!(),
        }
    }

    #[test]
    fn syntax_errors_are_reported() {
        assert!(parse_query("MATCH (n:EMP RETURN n.id").is_err());
        assert!(parse_query("RETURN 1").is_err());
        assert!(parse_query("MATCH (n:EMP) RETURN n.id extra").is_err());
    }
}
