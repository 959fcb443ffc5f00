//! Featherweight Cypher abstract syntax (Figure 9 of the paper).
//!
//! The AST mirrors the paper's grammar:
//!
//! ```text
//! Query  Q  ::= R | OrderBy(R, k, b) | Union(Q, Q) | UnionAll(Q, Q)
//! Return R  ::= Return(C, E, k)
//! Clause C  ::= Match(PP, φ) | Match(C, PP, φ) | OptMatch(C, PP, φ) | With(C, X, X)
//! Path   PP ::= NP | NP, EP, PP
//! Node   NP ::= (X, l)          Edge EP ::= (X, l, d)
//! Expr   E  ::= k | v | Cast(φ) | Agg(E) | E ⊕ E
//! Pred   φ  ::= ⊤ | ⊥ | E ⊙ E | IsNull(E) | E ∈ v | Exists(PP) | φ∧φ | φ∨φ | ¬φ
//! ```
//!
//! Property accesses are written `var.key` (e.g. `c2.CID`); since the paper
//! assumes globally-unique property keys the variable qualifier is
//! technically redundant, but keeping it makes the AST match real Cypher
//! surface syntax and simplifies transpilation.

use graphiti_common::{AggKind, BinArith, CmpOp, Ident, Value};
use serde::{Deserialize, Serialize};

/// Direction of an edge pattern.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Direction {
    /// `-[e:L]->` — the edge points from the previous node to the next one.
    Right,
    /// `<-[e:L]-` — the edge points from the next node to the previous one.
    Left,
    /// `-[e:L]-` — either orientation matches.
    Undirected,
}

/// A node pattern `(X, l)` with optional inline property constraints
/// (`{CID: 1}`), which desugar to equality predicates.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct NodePattern {
    /// The bound variable name (auto-generated if anonymous).
    pub var: Ident,
    /// The node label.
    pub label: Ident,
    /// Inline property constraints.
    pub props: Vec<(Ident, Value)>,
}

impl NodePattern {
    /// Creates a node pattern without inline properties.
    pub fn new(var: impl Into<Ident>, label: impl Into<Ident>) -> Self {
        NodePattern { var: var.into(), label: label.into(), props: Vec::new() }
    }
}

/// An edge pattern `(X, l, d)`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct EdgePattern {
    /// The bound variable name (auto-generated if anonymous).
    pub var: Ident,
    /// The edge label.
    pub label: Ident,
    /// Traversal direction relative to the textual order of the pattern.
    pub dir: Direction,
    /// Inline property constraints.
    pub props: Vec<(Ident, Value)>,
}

impl EdgePattern {
    /// Creates an edge pattern without inline properties.
    pub fn new(var: impl Into<Ident>, label: impl Into<Ident>, dir: Direction) -> Self {
        EdgePattern { var: var.into(), label: label.into(), dir, props: Vec::new() }
    }
}

/// A path pattern: a start node followed by zero or more `(edge, node)`
/// steps.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PathPattern {
    /// The first node pattern.
    pub start: NodePattern,
    /// Subsequent hops.
    pub steps: Vec<(EdgePattern, NodePattern)>,
}

impl PathPattern {
    /// Creates a single-node path pattern.
    pub fn node(start: NodePattern) -> Self {
        PathPattern { start, steps: Vec::new() }
    }

    /// Creates a path pattern from a start node and steps.
    pub fn new(start: NodePattern, steps: Vec<(EdgePattern, NodePattern)>) -> Self {
        PathPattern { start, steps }
    }

    /// The first node pattern (`head(PP)` in the paper).
    pub fn head(&self) -> &NodePattern {
        &self.start
    }

    /// The last node pattern (`last(PP)` in the paper).
    pub fn last(&self) -> &NodePattern {
        self.steps.last().map(|(_, n)| n).unwrap_or(&self.start)
    }

    /// All node patterns in order.
    pub fn nodes(&self) -> impl Iterator<Item = &NodePattern> {
        std::iter::once(&self.start).chain(self.steps.iter().map(|(_, n)| n))
    }

    /// All edge patterns in order.
    pub fn edges(&self) -> impl Iterator<Item = &EdgePattern> {
        self.steps.iter().map(|(e, _)| e)
    }

    /// The variables this pattern binds, in order of appearance, repeats
    /// included.
    pub fn var_names(&self) -> impl Iterator<Item = &Ident> {
        std::iter::once(&self.start.var)
            .chain(self.steps.iter().flat_map(|(e, n)| [&e.var, &n.var]))
    }

    /// All variables bound by this pattern with their labels, in order of
    /// appearance (`X` in the translation judgments).
    pub fn variables(&self) -> Vec<(Ident, Ident)> {
        let mut out = vec![(self.start.var.clone(), self.start.label.clone())];
        for (e, n) in &self.steps {
            out.push((e.var.clone(), e.label.clone()));
            out.push((n.var.clone(), n.label.clone()));
        }
        out
    }

    /// Number of AST nodes in this pattern (for the Table 1 size metric).
    pub fn size(&self) -> usize {
        1 + self.nodes().count() + self.edges().count()
    }
}

/// A Featherweight Cypher expression.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Expr {
    /// Property access `var.key` (the paper's bare `k`).
    Prop(Ident, Ident),
    /// A bare variable reference, e.g. the `n` in `Count(n)`.  Evaluates to
    /// the element's identity (non-null iff the variable is bound).
    Var(Ident),
    /// A literal value.
    Value(Value),
    /// `Cast(φ)` — casts a predicate to `1`, `0`, or `Null`.
    Cast(Box<Pred>),
    /// An aggregate over an expression; `Count(*)` is `Agg(Count, Star)`.
    Agg(AggKind, Box<Expr>, bool),
    /// Binary arithmetic.
    Arith(Box<Expr>, BinArith, Box<Expr>),
    /// The `*` inside `Count(*)`.
    Star,
}

impl Expr {
    /// Convenience constructor for `var.key`.
    pub fn prop(var: impl Into<Ident>, key: impl Into<Ident>) -> Self {
        Expr::Prop(var.into(), key.into())
    }

    /// Convenience constructor for literals.
    pub fn value(v: impl Into<Value>) -> Self {
        Expr::Value(v.into())
    }

    /// Convenience constructor for `Count(*)`.
    pub fn count_star() -> Self {
        Expr::Agg(AggKind::Count, Box::new(Expr::Star), false)
    }

    /// Convenience constructor for a non-distinct aggregate.
    pub fn agg(kind: AggKind, e: Expr) -> Self {
        Expr::Agg(kind, Box::new(e), false)
    }

    /// Returns `true` if the expression contains an aggregate
    /// (`hasAgg` in the paper).
    pub fn has_agg(&self) -> bool {
        match self {
            Expr::Agg(..) => true,
            Expr::Arith(a, _, b) => a.has_agg() || b.has_agg(),
            Expr::Cast(p) => p.has_agg(),
            _ => false,
        }
    }

    /// Number of AST nodes (Table 1 size metric).
    pub fn size(&self) -> usize {
        match self {
            Expr::Prop(..) | Expr::Var(_) | Expr::Value(_) | Expr::Star => 1,
            Expr::Cast(p) => 1 + p.size(),
            Expr::Agg(_, e, _) => 1 + e.size(),
            Expr::Arith(a, _, b) => 1 + a.size() + b.size(),
        }
    }

    /// All variables referenced by the expression.
    pub fn variables(&self) -> Vec<Ident> {
        let mut out = Vec::new();
        self.collect_vars(&mut out);
        out.into_iter().cloned().collect()
    }

    /// Pushes every variable the expression references onto `out`.
    pub(crate) fn collect_vars<'a>(&'a self, out: &mut Vec<&'a Ident>) {
        match self {
            Expr::Prop(v, _) | Expr::Var(v) => out.push(v),
            Expr::Cast(p) => p.collect_vars(out),
            Expr::Agg(_, e, _) => e.collect_vars(out),
            Expr::Arith(a, _, b) => {
                a.collect_vars(out);
                b.collect_vars(out);
            }
            Expr::Value(_) | Expr::Star => {}
        }
    }
}

/// A Featherweight Cypher predicate.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Pred {
    /// `⊤`
    True,
    /// `⊥`
    False,
    /// Comparison `E ⊙ E`.
    Cmp(Box<Expr>, CmpOp, Box<Expr>),
    /// `IsNull(E)` — `E IS NULL` in surface syntax.
    IsNull(Box<Expr>),
    /// `E ∈ v̄` — `E IN [v1, ..., vn]`.
    In(Box<Expr>, Vec<Value>),
    /// `Exists(PP)` — existence of a pattern match.
    Exists(PathPattern),
    /// Conjunction.
    And(Box<Pred>, Box<Pred>),
    /// Disjunction.
    Or(Box<Pred>, Box<Pred>),
    /// Negation.
    Not(Box<Pred>),
}

impl Pred {
    /// Convenience constructor for comparisons.
    pub fn cmp(a: Expr, op: CmpOp, b: Expr) -> Self {
        Pred::Cmp(Box::new(a), op, Box::new(b))
    }

    /// Convenience constructor for conjunction.
    pub fn and(a: Pred, b: Pred) -> Self {
        Pred::And(Box::new(a), Box::new(b))
    }

    /// Convenience constructor for disjunction.
    pub fn or(a: Pred, b: Pred) -> Self {
        Pred::Or(Box::new(a), Box::new(b))
    }

    /// Convenience constructor for negation.
    #[allow(clippy::should_implement_trait)]
    pub fn not(p: Pred) -> Self {
        Pred::Not(Box::new(p))
    }

    /// Returns `true` if the predicate contains an aggregate.
    pub fn has_agg(&self) -> bool {
        match self {
            Pred::Cmp(a, _, b) => a.has_agg() || b.has_agg(),
            Pred::IsNull(e) | Pred::In(e, _) => e.has_agg(),
            Pred::And(a, b) | Pred::Or(a, b) => a.has_agg() || b.has_agg(),
            Pred::Not(p) => p.has_agg(),
            _ => false,
        }
    }

    /// Number of AST nodes (Table 1 size metric).
    pub fn size(&self) -> usize {
        match self {
            Pred::True | Pred::False => 1,
            Pred::Cmp(a, _, b) => 1 + a.size() + b.size(),
            Pred::IsNull(e) => 1 + e.size(),
            Pred::In(e, vs) => 1 + e.size() + vs.len(),
            Pred::Exists(pp) => 1 + pp.size(),
            Pred::And(a, b) | Pred::Or(a, b) => 1 + a.size() + b.size(),
            Pred::Not(p) => 1 + p.size(),
        }
    }

    /// Pushes every variable the predicate references, those of its
    /// `EXISTS` patterns included, onto `out`.
    pub(crate) fn collect_vars<'a>(&'a self, out: &mut Vec<&'a Ident>) {
        match self {
            Pred::Cmp(a, _, b) => {
                a.collect_vars(out);
                b.collect_vars(out);
            }
            Pred::IsNull(e) | Pred::In(e, _) => e.collect_vars(out),
            Pred::Exists(pp) => out.extend(pp.var_names()),
            Pred::And(a, b) | Pred::Or(a, b) => {
                a.collect_vars(out);
                b.collect_vars(out);
            }
            Pred::Not(p) => p.collect_vars(out),
            Pred::True | Pred::False => {}
        }
    }

    /// All variables referenced by the predicate.
    pub fn variables(&self) -> Vec<Ident> {
        let mut out = Vec::new();
        self.collect_vars(&mut out);
        out.into_iter().cloned().collect()
    }
}

/// A Featherweight Cypher clause.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Clause {
    /// `Match(PP, φ)` when `prev` is `None`; `Match(C, PP, φ)` otherwise.
    Match {
        /// Preceding clause, if any.
        prev: Option<Box<Clause>>,
        /// The path pattern being matched.
        pattern: PathPattern,
        /// The `WHERE` predicate (defaults to `⊤`).
        pred: Pred,
    },
    /// `OptMatch(C, PP, φ)` — `OPTIONAL MATCH`.
    OptMatch {
        /// Preceding clause.
        prev: Box<Clause>,
        /// The path pattern being matched.
        pattern: PathPattern,
        /// The `WHERE` predicate (defaults to `⊤`).
        pred: Pred,
    },
    /// `With(C, X̄, Z̄)` — projects and renames variables.
    With {
        /// Preceding clause.
        prev: Box<Clause>,
        /// Variables kept (old names).
        old: Vec<Ident>,
        /// New names (same length as `old`).
        new: Vec<Ident>,
    },
}

impl Clause {
    /// Creates a `Match` with no preceding clause.
    pub fn match_pattern(pattern: PathPattern, pred: Pred) -> Self {
        Clause::Match { prev: None, pattern, pred }
    }

    /// Chains a `Match` onto this clause.
    pub fn then_match(self, pattern: PathPattern, pred: Pred) -> Self {
        Clause::Match { prev: Some(Box::new(self)), pattern, pred }
    }

    /// Chains an `OPTIONAL MATCH` onto this clause.
    pub fn then_opt_match(self, pattern: PathPattern, pred: Pred) -> Self {
        Clause::OptMatch { prev: Box::new(self), pattern, pred }
    }

    /// Chains a `WITH` projection/renaming onto this clause.
    pub fn then_with(self, old: Vec<Ident>, new: Vec<Ident>) -> Self {
        Clause::With { prev: Box::new(self), old, new }
    }

    /// The variables (with labels) visible after this clause, in first-bound
    /// order.  `WITH` restricts and renames the visible set.
    pub fn visible_variables(&self) -> Vec<(Ident, Ident)> {
        match self {
            Clause::Match { prev, pattern, .. } => {
                let mut vars = prev.as_ref().map(|p| p.visible_variables()).unwrap_or_default();
                for (v, l) in pattern.variables() {
                    if !vars.iter().any(|(x, _)| *x == v) {
                        vars.push((v, l));
                    }
                }
                vars
            }
            Clause::OptMatch { prev, pattern, .. } => {
                let mut vars = prev.visible_variables();
                for (v, l) in pattern.variables() {
                    if !vars.iter().any(|(x, _)| *x == v) {
                        vars.push((v, l));
                    }
                }
                vars
            }
            Clause::With { prev, old, new } => {
                let vars = prev.visible_variables();
                old.iter()
                    .zip(new.iter())
                    .filter_map(|(o, n)| {
                        vars.iter().find(|(x, _)| x == o).map(|(_, l)| (n.clone(), l.clone()))
                    })
                    .collect()
            }
        }
    }

    /// Number of AST nodes (Table 1 size metric).
    pub fn size(&self) -> usize {
        match self {
            Clause::Match { prev, pattern, pred } => {
                1 + prev.as_ref().map(|p| p.size()).unwrap_or(0) + pattern.size() + pred.size()
            }
            Clause::OptMatch { prev, pattern, pred } => {
                1 + prev.size() + pattern.size() + pred.size()
            }
            Clause::With { prev, old, .. } => 1 + prev.size() + old.len(),
        }
    }
}

/// A return query `Return(C, Ē, k̄)` — the clause's matches shaped into a
/// table with column expressions `Ē` named `k̄`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ReturnQuery {
    /// The clause producing matches.
    pub clause: Clause,
    /// Column expressions.
    pub items: Vec<Expr>,
    /// Output column names (same length as `items`).
    pub names: Vec<Ident>,
    /// `RETURN DISTINCT`.
    pub distinct: bool,
}

impl ReturnQuery {
    /// Creates a return query; output names default to a rendering of the
    /// expressions when not provided.
    pub fn new(clause: Clause, items: Vec<Expr>, names: Vec<Ident>) -> Self {
        ReturnQuery { clause, items, names, distinct: false }
    }

    /// Returns `true` if any returned expression contains an aggregate.
    pub fn has_agg(&self) -> bool {
        self.items.iter().any(Expr::has_agg)
    }

    /// Number of AST nodes (Table 1 size metric).
    pub fn size(&self) -> usize {
        1 + self.clause.size() + self.items.iter().map(Expr::size).sum::<usize>()
    }
}

/// A sort key for `ORDER BY`: an expression plus ascending flag.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SortKey {
    /// The sort expression (typically a returned column).
    pub expr: Expr,
    /// `true` for ascending order.
    pub ascending: bool,
}

/// A Featherweight Cypher query.
// `Return` is by far the most common variant; boxing it to appease
// `large_enum_variant` would cost an allocation on the hot path.
#[allow(clippy::large_enum_variant)]
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Query {
    /// A plain return query.
    Return(ReturnQuery),
    /// `OrderBy(R, k, b)` — a return query followed by `ORDER BY`.
    OrderBy {
        /// The ordered return query.
        input: Box<Query>,
        /// Sort keys.
        keys: Vec<SortKey>,
    },
    /// `UNION` (set semantics).
    Union(Box<Query>, Box<Query>),
    /// `UNION ALL` (bag semantics).
    UnionAll(Box<Query>, Box<Query>),
}

impl Query {
    /// Wraps a return query.
    pub fn ret(r: ReturnQuery) -> Self {
        Query::Return(r)
    }

    /// Number of AST nodes (the Table 1 "Cypher Size" metric).
    pub fn size(&self) -> usize {
        match self {
            Query::Return(r) => r.size(),
            Query::OrderBy { input, keys } => {
                1 + input.size() + keys.iter().map(|k| k.expr.size()).sum::<usize>()
            }
            Query::Union(a, b) | Query::UnionAll(a, b) => 1 + a.size() + b.size(),
        }
    }

    /// Returns `true` if the query (anywhere) uses aggregation.
    pub fn has_agg(&self) -> bool {
        match self {
            Query::Return(r) => r.has_agg(),
            Query::OrderBy { input, .. } => input.has_agg(),
            Query::Union(a, b) | Query::UnionAll(a, b) => a.has_agg() || b.has_agg(),
        }
    }

    /// Returns `true` if the query uses `OPTIONAL MATCH` anywhere.
    pub fn has_optional_match(&self) -> bool {
        fn clause_has_opt(c: &Clause) -> bool {
            match c {
                Clause::Match { prev, .. } => prev.as_deref().map(clause_has_opt).unwrap_or(false),
                Clause::OptMatch { .. } => true,
                Clause::With { prev, .. } => clause_has_opt(prev),
            }
        }
        match self {
            Query::Return(r) => clause_has_opt(&r.clause),
            Query::OrderBy { input, .. } => input.has_optional_match(),
            Query::Union(a, b) | Query::UnionAll(a, b) => {
                a.has_optional_match() || b.has_optional_match()
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The query from Example 3.4:
    /// `MATCH (n:EMP)-[:WORK_AT]->(m:DEPT) RETURN m.dname AS name, Count(n) AS num`
    pub(crate) fn example_3_4() -> Query {
        let pattern = PathPattern::new(
            NodePattern::new("n", "EMP"),
            vec![(
                EdgePattern::new("e", "WORK_AT", Direction::Right),
                NodePattern::new("m", "DEPT"),
            )],
        );
        let clause = Clause::match_pattern(pattern, Pred::True);
        Query::Return(ReturnQuery::new(
            clause,
            vec![Expr::prop("m", "dname"), Expr::agg(AggKind::Count, Expr::Var("n".into()))],
            vec!["name".into(), "num".into()],
        ))
    }

    #[test]
    fn example_3_4_shape() {
        let q = example_3_4();
        assert!(q.has_agg());
        assert!(!q.has_optional_match());
        assert!(q.size() > 5);
    }

    #[test]
    fn pattern_accessors() {
        let pp = PathPattern::new(
            NodePattern::new("a", "A"),
            vec![
                (EdgePattern::new("e1", "R", Direction::Right), NodePattern::new("b", "B")),
                (EdgePattern::new("e2", "S", Direction::Left), NodePattern::new("c", "C")),
            ],
        );
        assert_eq!(pp.head().var.as_str(), "a");
        assert_eq!(pp.last().var.as_str(), "c");
        assert_eq!(pp.nodes().count(), 3);
        assert_eq!(pp.edges().count(), 2);
        assert_eq!(pp.variables().len(), 5);
    }

    #[test]
    fn visible_variables_through_with() {
        let pp1 = PathPattern::new(
            NodePattern::new("n", "EMP"),
            vec![(
                EdgePattern::new("e", "WORK_AT", Direction::Right),
                NodePattern::new("m", "DEPT"),
            )],
        );
        let clause = Clause::match_pattern(pp1, Pred::True)
            .then_with(vec!["m".into()], vec!["d".into()])
            .then_match(PathPattern::node(NodePattern::new("d", "DEPT")), Pred::True);
        let vars = clause.visible_variables();
        assert_eq!(vars.len(), 1);
        assert_eq!(vars[0].0.as_str(), "d");
        assert_eq!(vars[0].1.as_str(), "DEPT");
    }

    #[test]
    fn expr_agg_detection_and_size() {
        let e = Expr::Arith(
            Box::new(Expr::prop("t", "a")),
            BinArith::Add,
            Box::new(Expr::agg(AggKind::Sum, Expr::prop("t", "b"))),
        );
        assert!(e.has_agg());
        assert_eq!(e.size(), 4);
        assert_eq!(e.variables().len(), 2);
    }

    #[test]
    fn pred_size_and_vars() {
        let p = Pred::and(
            Pred::cmp(Expr::prop("n", "id"), CmpOp::Eq, Expr::value(10)),
            Pred::not(Pred::IsNull(Box::new(Expr::prop("m", "x")))),
        );
        // And(1) + Cmp(1 + 1 + 1) + Not(1) + IsNull(1 + 1) = 7 nodes.
        assert_eq!(p.size(), 7);
        assert_eq!(p.variables().len(), 2);
    }
}
