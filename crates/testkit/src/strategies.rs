//! Proptest strategies for schema-valid graphs and in-fragment queries.
//!
//! Both strategies implement [`proptest::Strategy`] directly (rather than
//! being built from combinators) because they need the schema at generation
//! time: default-key values must be fresh per label, edge endpoints must
//! respect declared source/target types, and query templates must mention
//! labels and property keys that actually exist.

use graphiti_common::Value;
use graphiti_graph::{GraphInstance, GraphSchema};
use proptest::Strategy;
use rand::rngs::StdRng;
use rand::Rng;

/// Small string pool for non-key properties; collisions across nodes are
/// deliberate so that joins, `GROUP BY`, and `DISTINCT` have work to do.
const STRINGS: &[&str] = &["a", "b", "c"];

/// Strategy generating schema-valid [`GraphInstance`]s: see
/// [`arb_instance`].
#[derive(Debug, Clone)]
pub struct ArbInstance {
    schema: GraphSchema,
    max_nodes_per_type: usize,
    max_edges_per_type: usize,
}

impl Strategy for ArbInstance {
    type Value = GraphInstance;

    fn generate(&self, rng: &mut StdRng) -> GraphInstance {
        let mut g = GraphInstance::new();
        let mut by_label: std::collections::BTreeMap<String, Vec<graphiti_graph::NodeId>> =
            std::collections::BTreeMap::new();
        for ty in &self.schema.node_types {
            let count = rng.gen_range(0..=self.max_nodes_per_type);
            for i in 0..count {
                let props = props(&ty.keys, i as i64, rng);
                let id = g.add_node(ty.label.as_str(), props);
                by_label.entry(ty.label.to_string()).or_default().push(id);
            }
        }
        let mut next_edge_key = 0i64;
        for ty in &self.schema.edge_types {
            let sources = by_label.get(ty.src.as_str()).cloned().unwrap_or_default();
            let targets = by_label.get(ty.tgt.as_str()).cloned().unwrap_or_default();
            if sources.is_empty() || targets.is_empty() {
                continue;
            }
            let count = rng.gen_range(0..=self.max_edges_per_type);
            for _ in 0..count {
                let src = sources[rng.gen_range(0..sources.len())];
                let tgt = targets[rng.gen_range(0..targets.len())];
                let props = props(&ty.keys, next_edge_key, rng);
                next_edge_key += 1;
                g.add_edge(ty.label.as_str(), src, tgt, props);
            }
        }
        g
    }
}

/// Default-key values (the first key) are sequential, guaranteeing
/// per-label uniqueness; the remaining properties draw from small
/// int/string pools. Shared by node and edge generation.
fn props(
    keys: &[graphiti_common::Ident],
    fresh_key: i64,
    rng: &mut StdRng,
) -> Vec<(String, Value)> {
    keys.iter()
        .enumerate()
        .map(|(i, key)| {
            let value = if i == 0 { Value::Int(fresh_key) } else { random_value(rng) };
            (key.to_string(), value)
        })
        .collect()
}

fn random_value(rng: &mut StdRng) -> Value {
    match rng.gen_range(0..4usize) {
        0 => Value::Int(rng.gen_range(0..4i64)),
        1 => Value::str(STRINGS[rng.gen_range(0..STRINGS.len())]),
        2 => Value::Bool(rng.gen_bool(0.5)),
        _ => Value::Null,
    }
}

/// Returns a strategy for instances of `schema` with at most
/// `max_nodes_per_type` nodes and `max_edges_per_type` edges per type.
///
/// Generated instances always satisfy
/// [`GraphInstance::validate`](graphiti_graph::GraphInstance::validate):
/// labels are declared, default keys are fresh integers, non-key properties
/// draw from small pools (including `NULL`), and edges only connect nodes
/// of the declared endpoint types.
pub fn arb_instance(
    schema: &GraphSchema,
    max_nodes_per_type: usize,
    max_edges_per_type: usize,
) -> ArbInstance {
    ArbInstance { schema: schema.clone(), max_nodes_per_type, max_edges_per_type }
}

/// Strategy generating in-fragment Cypher query text: see [`arb_cypher`].
#[derive(Debug, Clone)]
pub struct ArbCypher {
    schema: GraphSchema,
}

impl Strategy for ArbCypher {
    type Value = String;

    fn generate(&self, rng: &mut StdRng) -> String {
        let nodes = &self.schema.node_types;
        assert!(!nodes.is_empty(), "arb_cypher requires at least one node type");
        let n = &nodes[rng.gen_range(0..nodes.len())];
        let nk = pick_key(&n.keys, rng);
        let template = if self.schema.edge_types.is_empty() {
            rng.gen_range(0..3usize)
        } else {
            rng.gen_range(0..10usize)
        };
        match template {
            // Single-type templates.
            0 => format!("MATCH (n:{l}) RETURN n.{nk} AS a", l = n.label),
            1 => {
                let c = rng.gen_range(0..3i64);
                format!(
                    "MATCH (n:{l}) WHERE n.{k} > {c} RETURN n.{k} AS a",
                    l = n.label,
                    k = n.keys[0]
                )
            }
            2 => format!("MATCH (n:{l}) RETURN Count(*) AS total", l = n.label),
            // Edge templates: pick an edge type and its endpoint types.
            _ => {
                let e = &self.schema.edge_types[rng.gen_range(0..self.schema.edge_types.len())];
                let src = self.schema.node_type(e.src.as_str()).expect("declared src");
                let tgt = self.schema.node_type(e.tgt.as_str()).expect("declared tgt");
                let sk = pick_key(&src.keys, rng);
                let tk = pick_key(&tgt.keys, rng);
                let pattern =
                    format!("(n:{s})-[e:{l}]->(m:{t})", s = src.label, l = e.label, t = tgt.label);
                match template {
                    3 => format!("MATCH {pattern} RETURN n.{sk} AS a, m.{tk} AS b"),
                    4 => format!("MATCH {pattern} RETURN m.{tk} AS grp, Count(n) AS cnt"),
                    5 => format!(
                        "MATCH (n:{s}) OPTIONAL MATCH {pattern} RETURN n.{sk} AS a, m.{tk} AS b",
                        s = src.label
                    ),
                    6 => format!(
                        "MATCH (m:{t}) WHERE EXISTS ({pattern}) RETURN m.{tk} AS a",
                        t = tgt.label
                    ),
                    // An anti-join: `NOT (k IN (SELECT …))` once transpiled.
                    7 => format!(
                        "MATCH (m:{t}) WHERE NOT EXISTS ({pattern}) RETURN m.{tk} AS a",
                        t = tgt.label
                    ),
                    // Both endpoints bound: a tuple `(n.k, m.k) IN (SELECT …)`.
                    8 => format!(
                        "MATCH {pattern} WHERE EXISTS ((n:{s})-[f:{l}]->(m:{t})) \
                         RETURN n.{sk} AS a, m.{tk} AS b",
                        s = src.label,
                        l = e.label,
                        t = tgt.label
                    ),
                    _ => {
                        let c = rng.gen_range(0..3i64);
                        format!(
                            "MATCH {pattern} WHERE n.{k} > {c} RETURN n.{k} AS a, m.{tk} AS b",
                            k = src.keys[0]
                        )
                    }
                }
            }
        }
    }
}

fn pick_key(keys: &[graphiti_common::Ident], rng: &mut StdRng) -> String {
    keys[rng.gen_range(0..keys.len())].to_string()
}

/// Returns a strategy for small Featherweight Cypher queries over `schema`.
///
/// Every generated query parses and stays inside the transpiler's fragment:
/// templates cover plain matches, predicates, `Count(*)`, traversals,
/// grouping aggregation, `OPTIONAL MATCH`, `EXISTS`, its anti-join `NOT
/// EXISTS`, and `EXISTS` with both endpoints bound (a tuple `IN` once
/// transpiled), instantiated with labels and property keys drawn from
/// `schema`.
pub fn arb_cypher(schema: &GraphSchema) -> ArbCypher {
    assert!(
        !schema.node_types.is_empty(),
        "arb_cypher requires a schema with at least one node type"
    );
    ArbCypher { schema: schema.clone() }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fixtures;
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Generated instances are schema-valid by construction, for both
        /// fixture schemas.
        #[test]
        fn generated_instances_validate(
            emp in arb_instance(&fixtures::emp::schema(), 5, 8),
            bio in arb_instance(&fixtures::biomed::schema(), 4, 6),
        ) {
            prop_assert!(emp.validate(&fixtures::emp::schema()).is_ok());
            prop_assert!(bio.validate(&fixtures::biomed::schema()).is_ok());
        }

        /// Generated queries parse and stay in the transpiler's fragment.
        #[test]
        fn generated_queries_parse_and_transpile(
            q in arb_cypher(&fixtures::emp::schema()),
        ) {
            let parsed = graphiti_cypher::parse_query(&q);
            prop_assert!(parsed.is_ok(), "`{}` failed to parse: {:?}", q, parsed.err());
            let ctx = graphiti_core::infer_sdt(&fixtures::emp::schema()).unwrap();
            let sql = graphiti_core::transpile_query(&ctx, &parsed.unwrap());
            prop_assert!(sql.is_ok(), "`{}` failed to transpile: {:?}", q, sql.err());
        }

        /// The paper's central soundness property, via the oracle, on
        /// random (graph, query) pairs over the EMP schema.
        #[test]
        fn oracle_holds_on_random_graphs_and_queries(
            graph in arb_instance(&fixtures::emp::schema(), 4, 6),
            q in arb_cypher(&fixtures::emp::schema()),
        ) {
            let schema = fixtures::emp::schema();
            let result = crate::oracle::differential_oracle(&schema, &graph, &q);
            prop_assert!(result.is_ok(), "{}", result.err().map(|e| e.to_string()).unwrap_or_default());
        }
    }
}
