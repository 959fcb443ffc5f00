//! Recursive-descent parser: concrete SQL text → Featherweight SQL algebra.
//!
//! The parser accepts the `SELECT`/`FROM`/`WHERE`/`GROUP BY`/`HAVING`/
//! `ORDER BY`/`UNION`/`WITH` fragment corresponding to Figure 10 and builds
//! the algebraic [`SqlQuery`] representation directly:
//!
//! * comma-separated `FROM` items become cross joins,
//! * `JOIN ... ON` / `LEFT JOIN ... ON` become inner / outer joins,
//! * `WHERE` becomes a selection,
//! * aggregation (explicit `GROUP BY` or aggregates in the select list)
//!   becomes `GroupBy`,
//! * `WITH` common table expressions become nested `With` nodes.
//!
//! Unsupported constructs (window functions, `CASE` beyond the `Cast`
//! encoding, correlated `LIMIT`s, ...) are reported as
//! [`graphiti_common::Error::Unsupported`].

use crate::ast::*;
use crate::lexer::{tokenize, Token};
use graphiti_common::{AggKind, BinArith, CmpOp, Error, Ident, Result, Value, MAX_NESTING};

/// Parses a complete SQL query.
pub fn parse_query(input: &str) -> Result<SqlQuery> {
    let tokens = tokenize(input)?;
    let mut p = Parser { tokens, pos: 0, depth: 0 };
    let q = p.parse_with_query()?;
    p.expect_eof()?;
    Ok(q)
}

struct Parser {
    tokens: Vec<Token>,
    pos: usize,
    /// Nesting levels entered so far (see [`MAX_NESTING`]).
    depth: usize,
}

impl Parser {
    /// Enters one more nesting level; the caller restores the depth, via
    /// [`Parser::nested`] or [`Parser::chain`].
    fn descend(&mut self) -> Result<()> {
        if self.depth == MAX_NESTING {
            return Err(Error::too_deep("sql"));
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
            Err(Error::parse("sql", format!("expected `{kw}`, found {:?}", self.peek())))
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
            Err(Error::parse("sql", format!("expected {t:?}, found {:?}", self.peek())))
        }
    }

    fn expect_ident(&mut self) -> Result<String> {
        match self.bump() {
            Token::Ident(s) => Ok(s),
            other => Err(Error::parse("sql", format!("expected identifier, found {other:?}"))),
        }
    }

    fn expect_eof(&mut self) -> Result<()> {
        self.eat(&Token::Semicolon);
        if matches!(self.peek(), Token::Eof) {
            Ok(())
        } else {
            Err(Error::parse("sql", format!("trailing tokens starting at {:?}", self.peek())))
        }
    }

    fn is_reserved(word: &str) -> bool {
        const RESERVED: &[&str] = &[
            "select", "from", "where", "group", "having", "order", "by", "union", "all", "join",
            "inner", "left", "right", "full", "outer", "cross", "on", "as", "and", "or", "not",
            "in", "is", "null", "exists", "distinct", "with", "limit", "case", "when", "then",
            "else", "end", "asc", "desc",
        ];
        RESERVED.iter().any(|r| r.eq_ignore_ascii_case(word))
    }

    // ----------------------------------------------------------------- WITH

    fn parse_with_query(&mut self) -> Result<SqlQuery> {
        self.chain(Self::parse_with_chain)
    }

    fn parse_with_chain(&mut self) -> Result<SqlQuery> {
        if self.eat_kw("with") {
            let mut defs: Vec<(Ident, SqlQuery)> = Vec::new();
            loop {
                self.descend()?;
                let name = self.expect_ident()?;
                self.expect_kw("as")?;
                self.expect(&Token::LParen)?;
                let def = self.parse_with_query()?;
                self.expect(&Token::RParen)?;
                defs.push((Ident::new(name), def));
                if !self.eat(&Token::Comma) {
                    break;
                }
            }
            let body = self.parse_set_query()?;
            let mut q = body;
            for (name, def) in defs.into_iter().rev() {
                q = SqlQuery::With { name, definition: Box::new(def), body: Box::new(q) };
            }
            Ok(q)
        } else {
            self.parse_set_query()
        }
    }

    fn parse_set_query(&mut self) -> Result<SqlQuery> {
        let mut q = self.parse_select_query()?;
        loop {
            if self.at_kw("union") {
                self.bump();
                self.descend()?;
                let all = self.eat_kw("all");
                let rhs = self.parse_select_query()?;
                q = if all {
                    SqlQuery::UnionAll(Box::new(q), Box::new(rhs))
                } else {
                    SqlQuery::Union(Box::new(q), Box::new(rhs))
                };
            } else {
                break;
            }
        }
        if self.at_kw("order") {
            self.bump();
            self.expect_kw("by")?;
            let mut keys = Vec::new();
            loop {
                let e = self.parse_expr()?;
                let asc = if self.eat_kw("desc") {
                    false
                } else {
                    self.eat_kw("asc");
                    true
                };
                keys.push((e, asc));
                if !self.eat(&Token::Comma) {
                    break;
                }
            }
            q = SqlQuery::OrderBy { input: Box::new(q), keys };
        }
        if self.at_kw("limit") {
            return Err(Error::unsupported("LIMIT is outside Featherweight SQL"));
        }
        Ok(q)
    }

    // --------------------------------------------------------------- SELECT

    fn parse_select_query(&mut self) -> Result<SqlQuery> {
        self.expect_kw("select")?;
        let distinct = self.eat_kw("distinct");
        // Select list.
        let mut items: Vec<SelectItem> = Vec::new();
        let mut star_only = false;
        if self.peek() == &Token::Star && self.peek_at(1).is_kw("from") {
            self.bump();
            star_only = true;
        } else {
            loop {
                let expr = self.parse_expr()?;
                let alias = if self.eat_kw("as") {
                    Some(Ident::new(self.expect_ident()?))
                } else if let Token::Ident(s) = self.peek() {
                    // Implicit alias: `SELECT a.x x2` — but only when the
                    // identifier is not a keyword.
                    if !Self::is_reserved(s) {
                        Some(Ident::new(self.expect_ident()?))
                    } else {
                        None
                    }
                } else {
                    None
                };
                items.push(SelectItem { expr, alias });
                if !self.eat(&Token::Comma) {
                    break;
                }
            }
        }
        self.expect_kw("from")?;
        let from = self.parse_from()?;
        let filtered = if self.eat_kw("where") {
            let pred = self.parse_pred()?;
            from.select(pred)
        } else {
            from
        };
        // GROUP BY / aggregation handling.
        let mut group_keys: Option<Vec<SqlExpr>> = None;
        let mut having = SqlPred::true_();
        if self.at_kw("group") {
            self.bump();
            self.expect_kw("by")?;
            let mut keys = Vec::new();
            loop {
                keys.push(self.parse_expr()?);
                if !self.eat(&Token::Comma) {
                    break;
                }
            }
            group_keys = Some(keys);
            if self.eat_kw("having") {
                having = self.parse_pred()?;
            }
        }
        let has_agg = items.iter().any(|i| i.expr.has_agg());
        let q = if let Some(keys) = group_keys {
            if star_only {
                return Err(Error::parse("sql", "GROUP BY requires an explicit select list"));
            }
            SqlQuery::GroupBy { input: Box::new(filtered), keys, items, having }
        } else if has_agg {
            // Aggregates without GROUP BY: a single implicit group.
            SqlQuery::GroupBy { input: Box::new(filtered), keys: Vec::new(), items, having }
        } else if star_only {
            if distinct {
                return Err(Error::unsupported("SELECT DISTINCT * is not supported"));
            }
            filtered
        } else {
            SqlQuery::Project { input: Box::new(filtered), items, distinct }
        };
        if distinct && matches!(q, SqlQuery::GroupBy { .. }) {
            return Err(Error::unsupported("SELECT DISTINCT with aggregation is not supported"));
        }
        Ok(q)
    }

    // ----------------------------------------------------------------- FROM

    fn parse_from(&mut self) -> Result<SqlQuery> {
        self.chain(Self::parse_from_chain)
    }

    fn parse_from_chain(&mut self) -> Result<SqlQuery> {
        let mut q = self.parse_from_item()?;
        loop {
            if self.eat(&Token::Comma) {
                self.descend()?;
                let rhs = self.parse_from_item()?;
                q = q.cross_join(rhs);
            } else if self.at_kw("cross") {
                self.bump();
                self.descend()?;
                self.expect_kw("join")?;
                let rhs = self.parse_from_item()?;
                q = q.cross_join(rhs);
            } else if self.at_kw("join") || self.at_kw("inner") {
                self.descend()?;
                self.eat_kw("inner");
                self.expect_kw("join")?;
                let rhs = self.parse_from_item()?;
                let pred = if self.eat_kw("on") { self.parse_pred()? } else { SqlPred::true_() };
                q = SqlQuery::Join {
                    left: Box::new(q),
                    right: Box::new(rhs),
                    kind: JoinKind::Inner,
                    pred,
                };
            } else if self.at_kw("left") || self.at_kw("right") || self.at_kw("full") {
                self.descend()?;
                let kind = if self.eat_kw("left") {
                    JoinKind::Left
                } else if self.eat_kw("right") {
                    JoinKind::Right
                } else {
                    self.expect_kw("full")?;
                    JoinKind::Full
                };
                self.eat_kw("outer");
                self.expect_kw("join")?;
                let rhs = self.parse_from_item()?;
                self.expect_kw("on")?;
                let pred = self.parse_pred()?;
                q = SqlQuery::Join { left: Box::new(q), right: Box::new(rhs), kind, pred };
            } else {
                break;
            }
        }
        Ok(q)
    }

    fn parse_from_item(&mut self) -> Result<SqlQuery> {
        if self.eat(&Token::LParen) {
            let sub = self.nested(Self::parse_with_query)?;
            self.expect(&Token::RParen)?;
            self.eat_kw("as");
            let alias = self.expect_ident()?;
            return Ok(sub.rename(alias));
        }
        let name = self.expect_ident()?;
        if self.eat_kw("as") {
            let alias = self.expect_ident()?;
            return Ok(SqlQuery::table(name).rename(alias));
        }
        if let Token::Ident(s) = self.peek() {
            if !Self::is_reserved(s) {
                let alias = self.expect_ident()?;
                return Ok(SqlQuery::table(name).rename(alias));
            }
        }
        Ok(SqlQuery::table(name))
    }

    // ------------------------------------------------------------ predicate

    fn parse_pred(&mut self) -> Result<SqlPred> {
        self.chain(|p| {
            let mut pred = p.parse_and_pred()?;
            while p.eat_kw("or") {
                p.descend()?;
                let rhs = p.parse_and_pred()?;
                pred = SqlPred::or(pred, rhs);
            }
            Ok(pred)
        })
    }

    fn parse_and_pred(&mut self) -> Result<SqlPred> {
        self.chain(|p| {
            let mut pred = p.parse_not_pred()?;
            while p.eat_kw("and") {
                p.descend()?;
                let rhs = p.parse_not_pred()?;
                pred = SqlPred::And(Box::new(pred), Box::new(rhs));
            }
            Ok(pred)
        })
    }

    fn parse_not_pred(&mut self) -> Result<SqlPred> {
        if self.eat_kw("not") {
            Ok(SqlPred::not(self.nested(Self::parse_not_pred)?))
        } else {
            self.parse_primary_pred()
        }
    }

    fn parse_primary_pred(&mut self) -> Result<SqlPred> {
        if self.at_kw("true") {
            self.bump();
            return Ok(SqlPred::Bool(true));
        }
        if self.at_kw("false") {
            self.bump();
            return Ok(SqlPred::Bool(false));
        }
        if self.at_kw("exists") {
            self.bump();
            self.expect(&Token::LParen)?;
            let sub = self.nested(Self::parse_with_query)?;
            self.expect(&Token::RParen)?;
            return Ok(SqlPred::Exists(Box::new(sub)));
        }
        // Parenthesized predicate, with backtracking to expression parsing.
        if self.peek() == &Token::LParen {
            let save = self.pos;
            self.bump();
            let inner = self.nested(Self::parse_pred);
            if matches!(&inner, Err(e) if *e == Error::too_deep("sql")) {
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
                    && !self.at_kw("in")
                    && !self.at_kw("is")
                {
                    return Ok(p);
                }
            }
            self.pos = save;
            if let Some(p) = self.try_tuple_in()? {
                return Ok(p);
            }
        }
        let lhs = self.parse_expr()?;
        if self.at_kw("is") {
            self.bump();
            let negated = self.eat_kw("not");
            self.expect_kw("null")?;
            let p = SqlPred::IsNull(Box::new(lhs));
            return Ok(if negated { SqlPred::not(p) } else { p });
        }
        if self.at_kw("not") && self.peek_at(1).is_kw("in") {
            self.bump();
            self.bump();
            let p = self.parse_in_rhs(lhs)?;
            return Ok(SqlPred::not(p));
        }
        if self.at_kw("in") {
            self.bump();
            return self.parse_in_rhs(lhs);
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
                    "sql",
                    format!("expected comparison operator, found {other:?}"),
                ))
            }
        };
        let rhs = self.parse_expr()?;
        Ok(SqlPred::Cmp(Box::new(lhs), op, Box::new(rhs)))
    }

    /// Parses `(E1, ..., En) [NOT] IN (SELECT ...)` with n ≥ 2; `None`,
    /// with the position restored, when the text is not one.
    fn try_tuple_in(&mut self) -> Result<Option<SqlPred>> {
        let save = self.pos;
        let tuple = self.nested(|p| {
            p.expect(&Token::LParen)?;
            let mut exprs = vec![p.parse_expr()?];
            while p.eat(&Token::Comma) {
                exprs.push(p.parse_expr()?);
            }
            p.expect(&Token::RParen)?;
            Ok(exprs)
        });
        let negated = self.at_kw("not") && self.peek_at(1).is_kw("in");
        match tuple {
            Ok(exprs) if exprs.len() > 1 && (negated || self.at_kw("in")) => {
                self.eat_kw("not");
                self.expect_kw("in")?;
                self.expect(&Token::LParen)?;
                let sub = self.nested(Self::parse_with_query)?;
                self.expect(&Token::RParen)?;
                let p = SqlPred::InQuery(exprs, Box::new(sub));
                Ok(Some(if negated { SqlPred::not(p) } else { p }))
            }
            Err(e) if e == Error::too_deep("sql") => Err(e),
            _ => {
                self.pos = save;
                Ok(None)
            }
        }
    }

    fn parse_in_rhs(&mut self, lhs: SqlExpr) -> Result<SqlPred> {
        self.expect(&Token::LParen)?;
        if self.at_kw("select") || self.at_kw("with") {
            let sub = self.nested(Self::parse_with_query)?;
            self.expect(&Token::RParen)?;
            return Ok(SqlPred::InQuery(vec![lhs], Box::new(sub)));
        }
        let mut values = Vec::new();
        loop {
            values.push(self.parse_literal()?);
            if !self.eat(&Token::Comma) {
                break;
            }
        }
        self.expect(&Token::RParen)?;
        Ok(SqlPred::InList(Box::new(lhs), values))
    }

    fn parse_literal(&mut self) -> Result<Value> {
        match self.bump() {
            Token::Int(i) => Ok(Value::Int(i)),
            Token::Float(f) => Ok(Value::Float(f)),
            Token::Str(s) => Ok(Value::str(s)),
            Token::Minus => match self.bump() {
                Token::Int(i) => Ok(Value::Int(-i)),
                Token::Float(f) => Ok(Value::Float(-f)),
                other => {
                    Err(Error::parse("sql", format!("expected number after `-`, found {other:?}")))
                }
            },
            Token::Ident(s) if s.eq_ignore_ascii_case("null") => Ok(Value::Null),
            Token::Ident(s) if s.eq_ignore_ascii_case("true") => Ok(Value::Bool(true)),
            Token::Ident(s) if s.eq_ignore_ascii_case("false") => Ok(Value::Bool(false)),
            other => Err(Error::parse("sql", format!("expected literal, found {other:?}"))),
        }
    }

    // ----------------------------------------------------------- expression

    fn parse_expr(&mut self) -> Result<SqlExpr> {
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
                e = SqlExpr::Arith(Box::new(e), op, Box::new(rhs));
            }
            Ok(e)
        })
    }

    fn parse_term(&mut self) -> Result<SqlExpr> {
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
                e = SqlExpr::Arith(Box::new(e), op, Box::new(rhs));
            }
            Ok(e)
        })
    }

    fn parse_factor(&mut self) -> Result<SqlExpr> {
        match self.peek().clone() {
            Token::Int(i) => {
                self.bump();
                Ok(SqlExpr::Value(Value::Int(i)))
            }
            Token::Float(f) => {
                self.bump();
                Ok(SqlExpr::Value(Value::Float(f)))
            }
            Token::Str(s) => {
                self.bump();
                Ok(SqlExpr::Value(Value::str(s)))
            }
            Token::Minus => {
                self.bump();
                let inner = self.nested(Self::parse_factor)?;
                Ok(SqlExpr::Arith(
                    Box::new(SqlExpr::Value(Value::Int(0))),
                    BinArith::Sub,
                    Box::new(inner),
                ))
            }
            Token::LParen => {
                self.bump();
                let e = self.nested(Self::parse_expr)?;
                self.expect(&Token::RParen)?;
                Ok(e)
            }
            Token::Ident(name) => {
                if name.eq_ignore_ascii_case("case") {
                    return self.parse_case();
                }
                if let Some(kind) = AggKind::from_name(&name) {
                    if self.peek_at(1) == &Token::LParen {
                        self.bump();
                        self.bump();
                        let distinct = self.eat_kw("distinct");
                        let inner = if self.peek() == &Token::Star {
                            self.bump();
                            SqlExpr::Star
                        } else {
                            self.nested(Self::parse_expr)?
                        };
                        self.expect(&Token::RParen)?;
                        return Ok(SqlExpr::Agg(kind, Box::new(inner), distinct));
                    }
                }
                if name.eq_ignore_ascii_case("null") {
                    self.bump();
                    return Ok(SqlExpr::Value(Value::Null));
                }
                self.bump();
                if self.eat(&Token::Dot) {
                    let col = self.expect_ident()?;
                    Ok(SqlExpr::Col(ColumnRef::qualified(name, col)))
                } else {
                    Ok(SqlExpr::Col(ColumnRef::unqualified(name)))
                }
            }
            other => Err(Error::parse("sql", format!("expected expression, found {other:?}"))),
        }
    }

    /// Parses the restricted `CASE WHEN φ THEN 1 ELSE 0 END` form into
    /// `Cast(φ)`; anything more general is unsupported.
    fn parse_case(&mut self) -> Result<SqlExpr> {
        self.expect_kw("case")?;
        self.expect_kw("when")?;
        let pred = self.nested(Self::parse_pred)?;
        self.expect_kw("then")?;
        let then_val = self.parse_literal()?;
        let else_val = if self.eat_kw("else") { Some(self.parse_literal()?) } else { None };
        self.expect_kw("end")?;
        if then_val == Value::Int(1) && else_val == Some(Value::Int(0)) {
            Ok(SqlExpr::Cast(Box::new(pred)))
        } else {
            Err(Error::unsupported("only CASE WHEN φ THEN 1 ELSE 0 END (Cast) is supported"))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_motivating_sql_query() {
        let q = parse_query(
            "SELECT c2.CID, Count(*) FROM Cs AS c2, Pa AS p2, Sp AS s2 \
             WHERE s2.PID = p2.PID AND p2.CSID = c2.CSID AND s2.SID IN ( \
               SELECT s1.SID FROM Cs AS c1, Pa AS p1, Sp AS s1 \
               WHERE s1.PID = p1.PID AND p1.CSID = c1.CSID AND c1.CID = 1 ) \
             GROUP BY CID",
        )
        .unwrap();
        match &q {
            SqlQuery::GroupBy { keys, items, .. } => {
                assert_eq!(keys.len(), 1);
                assert_eq!(items.len(), 2);
                assert!(items[1].expr.has_agg());
            }
            other => panic!("expected GroupBy, got {other:?}"),
        }
        assert!(q.has_agg());
        assert_eq!(q.base_tables().len(), 3);
    }

    #[test]
    fn parse_left_joins_and_group_by() {
        let q = parse_query(
            "SELECT P.ProductName, Sum(OD.UnitPrice * OD.Quantity) AS Volume FROM Customers AS C \
             LEFT JOIN Orders AS O ON C.CustomerID = O.CustomerID \
             LEFT JOIN OrderDetails AS OD ON O.OrderID = OD.OrderID \
             LEFT JOIN Products AS P ON OD.ProductID = P.ProductID \
             WHERE C.CompanyName = 'Drachenblut Delikatessen' GROUP BY P.ProductName",
        )
        .unwrap();
        assert!(q.has_agg());
        assert!(q.has_outer_join());
        assert_eq!(q.base_tables().len(), 4);
    }

    #[test]
    fn parse_with_ctes() {
        let q = parse_query(
            "WITH T1 AS (SELECT s.SID AS s_SID FROM Sentence AS s), \
                  T2 AS (SELECT s_SID FROM T1) \
             SELECT T2.s_SID, Count(*) FROM T2 GROUP BY T2.s_SID",
        )
        .unwrap();
        match &q {
            SqlQuery::With { name, body, .. } => {
                assert_eq!(name.as_str(), "T1");
                assert!(matches!(body.as_ref(), SqlQuery::With { .. }));
            }
            other => panic!("expected With, got {other:?}"),
        }
    }

    #[test]
    fn parse_nested_subquery_in_from() {
        let q = parse_query(
            "SELECT t0.EmpNo, t1.DeptNo FROM ( \
               SELECT EmpNo, EName, DeptNo, DeptNo + EmpNo AS f9 FROM EMP WHERE EmpNo = 10 \
             ) AS t0 JOIN (SELECT DeptNo, Name, DeptNo + 5 AS f2 FROM DEPT) AS t1 \
             ON t0.EmpNo = t1.DeptNo AND t0.f9 = t1.f2",
        )
        .unwrap();
        assert_eq!(q.base_tables().len(), 2);
        match &q {
            SqlQuery::Project { input, .. } => {
                assert!(matches!(input.as_ref(), SqlQuery::Join { kind: JoinKind::Inner, .. }));
            }
            other => panic!("expected projection, got {other:?}"),
        }
    }

    #[test]
    fn parse_union_order_by_distinct() {
        let q = parse_query(
            "SELECT DISTINCT name FROM emp UNION ALL SELECT dname FROM dept ORDER BY name DESC",
        )
        .unwrap();
        assert!(matches!(q, SqlQuery::OrderBy { .. }));
        let q2 = parse_query("SELECT name FROM emp UNION SELECT dname FROM dept").unwrap();
        assert!(matches!(q2, SqlQuery::Union(..)));
    }

    #[test]
    fn parse_exists_and_not_in() {
        let q = parse_query(
            "SELECT c.id FROM customers AS c WHERE EXISTS (SELECT o.id FROM orders AS o WHERE o.cid = c.id) \
             AND c.region NOT IN ('EU', 'US')",
        )
        .unwrap();
        match &q {
            SqlQuery::Project { input, .. } => match input.as_ref() {
                SqlQuery::Select { pred, .. } => {
                    assert!(pred.has_subquery());
                }
                other => panic!("expected selection, got {other:?}"),
            },
            other => panic!("expected projection, got {other:?}"),
        }
    }

    #[test]
    fn parse_implicit_group_for_bare_aggregates() {
        let q = parse_query("SELECT Count(*) FROM emp WHERE id > 3").unwrap();
        match q {
            SqlQuery::GroupBy { keys, .. } => assert!(keys.is_empty()),
            other => panic!("expected GroupBy, got {other:?}"),
        }
    }

    #[test]
    fn parse_case_when_cast() {
        let q = parse_query("SELECT CASE WHEN a > 1 THEN 1 ELSE 0 END AS flag FROM t").unwrap();
        match q {
            SqlQuery::Project { items, .. } => assert!(matches!(items[0].expr, SqlExpr::Cast(_))),
            other => panic!("expected projection, got {other:?}"),
        }
    }

    #[test]
    fn parse_tuple_in_and_not_in() {
        for (text, negated) in [
            ("SELECT e.id FROM emp AS e WHERE (e.id, e.dept) IN (SELECT d.a, d.b FROM d AS d)", false),
            ("SELECT e.id FROM emp AS e WHERE (e.id, e.dept) NOT IN (SELECT d.a, d.b FROM d AS d)", true),
        ] {
            let q = parse_query(text).unwrap();
            let SqlQuery::Project { input, .. } = &q else { panic!("{q:?}") };
            let SqlQuery::Select { pred, .. } = input.as_ref() else { panic!("{q:?}") };
            let pred = match (pred, negated) {
                (SqlPred::Not(inner), true) => inner.as_ref(),
                (pred, false) => pred,
                other => panic!("{other:?}"),
            };
            assert!(matches!(pred, SqlPred::InQuery(es, _) if es.len() == 2), "{pred:?}");
            assert_eq!(parse_query(&crate::pretty::query_to_string(&q)).unwrap(), q);
        }
        // A parenthesized expression or predicate is still one.
        assert!(parse_query("SELECT e.id FROM emp AS e WHERE (e.id) IN (1, 2)").is_ok());
        assert!(parse_query("SELECT e.id FROM emp AS e WHERE (e.id + 1) * 2 = 4").is_ok());
        assert!(parse_query("SELECT e.id FROM emp AS e WHERE (e.id, e.dept) = 4").is_err());
    }

    #[test]
    fn parse_select_star() {
        let q = parse_query("SELECT * FROM emp AS e WHERE e.id = 1").unwrap();
        assert!(matches!(q, SqlQuery::Select { .. }));
    }

    #[test]
    fn errors_and_unsupported() {
        assert!(parse_query("SELECT FROM emp").is_err());
        assert!(parse_query("SELECT a FROM emp LIMIT 3").unwrap_err().is_unsupported());
        assert!(parse_query("SELECT a FROM emp WHERE").is_err());
        assert!(parse_query("SELECT CASE WHEN a > 1 THEN 2 ELSE 0 END FROM t")
            .unwrap_err()
            .is_unsupported());
    }

    #[test]
    fn round_trip_through_pretty_printer() {
        let original = parse_query(
            "SELECT c2.CID AS cid, Count(*) AS cnt FROM Cs AS c2 JOIN Pa AS p2 ON p2.CSID = c2.CSID \
             WHERE c2.CID > 0 GROUP BY c2.CID",
        )
        .unwrap();
        let text = crate::pretty::query_to_string(&original);
        let reparsed = parse_query(&text).unwrap();
        assert_eq!(original, reparsed);
    }
}
