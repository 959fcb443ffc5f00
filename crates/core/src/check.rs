//! The equivalence-checking pipeline (Algorithm 1 and Algorithm 2).
//!
//! [`check_equivalence`] wires together the three steps of the paper:
//!
//! 1. [`infer_sdt`] — induced schema + SDT;
//! 2. [`transpile_query`] — a SQL query
//!    over the induced schema provably equivalent to the Cypher query modulo
//!    the SDT;
//! 3. [`residual_transformer`] + a pluggable [`SqlEquivChecker`] backend —
//!    reduce to SQL-vs-SQL equivalence modulo the residual transformer.
//!
//! The actual backends (bounded model checking à la VeriEQL, deductive
//! verification à la Mediator) live in the `graphiti-checkers` crate; this
//! module only defines the interface and the reduction.

use crate::infer_sdt::{infer_sdt, SdtContext};
use crate::transpile::transpile_query;
use graphiti_common::{Ident, Result};
use graphiti_cypher::Query as CypherQuery;
use graphiti_graph::{GraphInstance, GraphSchema};
use graphiti_relational::{RelInstance, RelSchema, Table};
use graphiti_sql::SqlQuery;
use graphiti_transformer::Transformer;
use serde::{Deserialize, Serialize};

/// A concrete witness that two queries are *not* equivalent.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Counterexample {
    /// The relational instance over the induced schema.
    pub induced_instance: RelInstance,
    /// The corresponding relational instance over the target schema
    /// (obtained by applying the residual transformer).
    pub target_instance: RelInstance,
    /// The graph instance corresponding to the induced instance (obtained by
    /// inverting the SDT), when available.
    pub graph_instance: Option<GraphInstance>,
    /// The result of the (transpiled) Cypher-side query.
    pub graph_side_result: Table,
    /// The result of the SQL-side query.
    pub relational_side_result: Table,
}

/// The verdict of an equivalence check.
#[derive(Debug, Clone)]
pub enum CheckOutcome {
    /// Fully verified equivalent (deductive backends).
    Verified,
    /// No counterexample found for instances up to the given bound (bounded
    /// backends); `bound` is the largest per-table row count explored.
    BoundedEquivalent {
        /// Largest per-table row count explored.
        bound: usize,
    },
    /// A counterexample demonstrating non-equivalence.
    Refuted(Box<Counterexample>),
    /// The backend could not decide (unsupported fragment, timeout, ...).
    Unknown(String),
}

impl CheckOutcome {
    /// Returns `true` for `Verified` or `BoundedEquivalent`.
    pub fn is_equivalent_verdict(&self) -> bool {
        matches!(self, CheckOutcome::Verified | CheckOutcome::BoundedEquivalent { .. })
    }

    /// Returns `true` for `Refuted`.
    pub fn is_refuted(&self) -> bool {
        matches!(self, CheckOutcome::Refuted(_))
    }
}

/// A backend that checks equivalence of two SQL queries over different
/// schemas related by a residual database transformer (the `CheckSQL`
/// procedure of Algorithm 2).
pub trait SqlEquivChecker {
    /// Checks whether `induced_query` (over `induced_schema`) is equivalent
    /// to `target_query` (over `target_schema`) modulo `rdt`, which maps
    /// induced instances to target instances.
    fn check_sql(
        &self,
        induced_schema: &RelSchema,
        induced_query: &SqlQuery,
        target_schema: &RelSchema,
        target_query: &SqlQuery,
        rdt: &Transformer,
    ) -> Result<CheckOutcome>;

    /// A short human-readable name for reports.
    fn name(&self) -> &'static str;
}

/// Computes the residual database transformer `Φ_rdt` (Algorithm 2): every
/// *body* predicate of the user transformer that names a graph label is
/// renamed to the corresponding induced table.
///
/// Because the standard transformer maps each label `l` to the induced table
/// of the same name, this substitution is the identity on predicate names in
/// our representation; the function still re-derives it from the SDT so that
/// alternative naming schemes keep working.
pub fn residual_transformer(user: &Transformer, sdt: &Transformer) -> Transformer {
    let mapping: Vec<(Ident, Ident)> = sdt
        .rules
        .iter()
        .filter(|r| r.body.len() == 1)
        .map(|r| (r.body[0].name.clone(), r.head.name.clone()))
        .collect();
    user.rename_body_predicates(&move |name: &Ident| {
        mapping.iter().find(|(from, _)| from == name).map(|(_, to)| to.clone())
    })
}

/// Everything produced by the front half of the pipeline, useful for
/// callers that want to inspect the transpiled query or the residual
/// transformer (e.g. the experiment harness).
#[derive(Debug, Clone)]
pub struct Reduction {
    /// The SDT context (induced schema, SDT, graph schema).
    pub ctx: SdtContext,
    /// The transpiled SQL query over the induced schema.
    pub transpiled: SqlQuery,
    /// The residual transformer from the induced to the target schema.
    pub rdt: Transformer,
}

/// Runs steps (1) and (2) of Algorithm 1 and computes the residual
/// transformer, without invoking a backend.
pub fn reduce(
    graph_schema: &GraphSchema,
    cypher: &CypherQuery,
    user_transformer: &Transformer,
) -> Result<Reduction> {
    let ctx = infer_sdt(graph_schema)?;
    let transpiled = transpile_query(&ctx, cypher)?;
    let rdt = residual_transformer(user_transformer, &ctx.sdt);
    Ok(Reduction { ctx, transpiled, rdt })
}

/// The full `CheckEquivalence` procedure of Algorithm 1.
pub fn check_equivalence(
    graph_schema: &GraphSchema,
    cypher: &CypherQuery,
    target_schema: &RelSchema,
    sql: &SqlQuery,
    user_transformer: &Transformer,
    backend: &dyn SqlEquivChecker,
) -> Result<CheckOutcome> {
    let reduction = reduce(graph_schema, cypher, user_transformer)?;
    let mut outcome = backend.check_sql(
        &reduction.ctx.induced_schema,
        &reduction.transpiled,
        target_schema,
        sql,
        &reduction.rdt,
    )?;
    // Lift relational counterexamples back to a graph instance (Fig. 23).
    if let CheckOutcome::Refuted(cex) = &mut outcome {
        if cex.graph_instance.is_none() {
            cex.graph_instance =
                crate::counterexample::lift_to_graph(&reduction.ctx, &cex.induced_instance).ok();
        }
    }
    Ok(outcome)
}

#[cfg(test)]
mod tests {
    use super::*;
    use graphiti_graph::{EdgeType, NodeType};
    use graphiti_transformer::parse_transformer;

    fn emp_schema() -> GraphSchema {
        GraphSchema::new()
            .with_node(NodeType::new("EMP", ["id", "name"]))
            .with_node(NodeType::new("DEPT", ["dnum", "dname"]))
            .with_edge(EdgeType::new("WORK_AT", "EMP", "DEPT", ["wid"]))
    }

    #[test]
    fn residual_transformer_renames_bodies_only() {
        let ctx = infer_sdt(&emp_schema()).unwrap();
        let user = parse_transformer(
            "EMP(id, name) -> Employee(id, name)\n\
             EMP(id, _), WORK_AT(wid, id, dnum), DEPT(dnum, _) -> Assignment(id, dnum)",
        )
        .unwrap();
        let rdt = residual_transformer(&user, &ctx.sdt);
        assert_eq!(rdt.rule_count(), 2);
        // Heads untouched.
        assert_eq!(rdt.rules[0].head.name.as_str(), "Employee");
        assert_eq!(rdt.rules[1].head.name.as_str(), "Assignment");
        // Bodies now name induced tables (identical names in our scheme).
        assert_eq!(rdt.rules[1].body[1].name.as_str(), "WORK_AT");
    }

    #[test]
    fn reduce_produces_transpiled_query_and_rdt() {
        let cypher = graphiti_cypher::parse_query(
            "MATCH (n:EMP)-[e:WORK_AT]->(m:DEPT) RETURN m.dname, Count(n)",
        )
        .unwrap();
        let user = parse_transformer("EMP(id, name) -> Employee(id, name)").unwrap();
        let r = reduce(&emp_schema(), &cypher, &user).unwrap();
        assert!(r.transpiled.has_agg());
        assert_eq!(r.rdt.rule_count(), 1);
        assert_eq!(r.ctx.induced_schema.relations.len(), 3);
    }

    #[test]
    fn outcome_helpers() {
        assert!(CheckOutcome::Verified.is_equivalent_verdict());
        assert!(CheckOutcome::BoundedEquivalent { bound: 3 }.is_equivalent_verdict());
        assert!(!CheckOutcome::Unknown("x".into()).is_equivalent_verdict());
        assert!(!CheckOutcome::Unknown("x".into()).is_refuted());
    }
}
