//! Property-graph instances (Definition 3.3).
//!
//! An instance `G = (N, E, P, T)` is represented as arenas of [`Node`]s and
//! [`Edge`]s.  Properties `P` are stored inline on each element, and the
//! typing function `T` is the element's label (labels and types are
//! interchangeable per the paper's uniqueness assumption).

use crate::cow::CowVec;
use crate::schema::GraphSchema;
use graphiti_common::{Error, Ident, Result, Value};
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, HashMap, HashSet};
use std::fmt;
use std::sync::Arc;

/// Index of a node in a [`GraphInstance`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct NodeId(pub usize);

/// Index of an edge in a [`GraphInstance`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct EdgeId(pub usize);

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

impl fmt::Display for EdgeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "e{}", self.0)
    }
}

/// A node carrying a label and property map.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Node {
    /// The node's identity within its instance.
    pub id: NodeId,
    /// The node label (its type).
    pub label: Ident,
    /// Property key/value pairs.
    pub props: BTreeMap<Ident, Value>,
}

/// A directed edge carrying a label, endpoints, and property map.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Edge {
    /// The edge's identity within its instance.
    pub id: EdgeId,
    /// The edge label (its type).
    pub label: Ident,
    /// Source node.
    pub src: NodeId,
    /// Target node.
    pub tgt: NodeId,
    /// Property key/value pairs.
    pub props: BTreeMap<Ident, Value>,
}

impl Node {
    /// Returns the value of property `key`, or `Null` if absent.
    pub fn prop(&self, key: &str) -> Value {
        self.props.get(key).cloned().unwrap_or(Value::Null)
    }
}

impl Edge {
    /// Returns the value of property `key`, or `Null` if absent.
    pub fn prop(&self, key: &str) -> Value {
        self.props.get(key).cloned().unwrap_or(Value::Null)
    }
}

/// A property-graph instance.
///
/// Besides the node/edge arenas, the instance maintains **persistent
/// adjacency indexes** that are kept up to date on every mutation:
///
/// * label → node ids and label → edge ids, backing
///   [`nodes_with_label`](GraphInstance::nodes_with_label) and
///   [`edges_with_label`](GraphInstance::edges_with_label);
/// * per-node outgoing/incoming edge lists, backing
///   [`out_edges`](GraphInstance::out_edges) /
///   [`in_edges`](GraphInstance::in_edges).
///
/// The indexes turn the Cypher evaluator's pattern matching from
/// *O(bindings × edges)* rescans into *O(bindings × degree)* adjacency
/// walks.  They are derived data: equality and serialization semantics are
/// determined by the arenas alone (two instances built by the same
/// insertion sequence have identical indexes).
///
/// # Clone cost and copy-on-write
///
/// The instance is a value: a clone is independent of the original, and
/// a mutation of either is never visible through the other.  Cloning is
/// nevertheless cheap, because the four arenas (nodes, edges, out- and
/// in-adjacency) are chunked copy-on-write vectors and each label index
/// entry sits behind an `Arc`.  A clone bumps one refcount per 32
/// elements and one per label, whatever the elements hold.  The first
/// write after a clone copies what it touches and the clone still shares:
/// the 32-slot chunk holding the element (its slots are shared, not
/// copied), the element itself, and the label entry it updates.  Elements
/// that no write touched stay one allocation in every clone, so a series
/// of clones, each followed by a small mutation, costs O(touched chunks)
/// per clone instead of O(graph).
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct GraphInstance {
    nodes: CowVec<Node>,
    edges: CowVec<Edge>,
    nodes_by_label: HashMap<Ident, Arc<Vec<NodeId>>>,
    edges_by_label: HashMap<Ident, Arc<Vec<EdgeId>>>,
    out_adjacency: CowVec<Vec<EdgeId>>,
    in_adjacency: CowVec<Vec<EdgeId>>,
}

// Snapshots hand instances across reader and writer threads.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<GraphInstance>();
};

impl PartialEq for GraphInstance {
    fn eq(&self, other: &Self) -> bool {
        // Indexes are a function of the arenas; comparing them would be
        // redundant work.
        self.nodes == other.nodes && self.edges == other.edges
    }
}

impl GraphInstance {
    /// Creates an empty instance.
    pub fn new() -> Self {
        GraphInstance::default()
    }

    /// Adds a node with the given label and properties, returning its id.
    pub fn add_node(
        &mut self,
        label: impl Into<Ident>,
        props: impl IntoIterator<Item = (impl Into<Ident>, impl Into<Value>)>,
    ) -> NodeId {
        let id = NodeId(self.nodes.len());
        let label = label.into();
        Arc::make_mut(self.nodes_by_label.entry(label.clone()).or_default()).push(id);
        self.out_adjacency.push(Vec::new());
        self.in_adjacency.push(Vec::new());
        self.nodes.push(Node {
            id,
            label,
            props: props.into_iter().map(|(k, v)| (k.into(), v.into())).collect(),
        });
        id
    }

    /// Adds an edge with the given label, endpoints, and properties,
    /// returning its id.
    ///
    /// # Panics
    ///
    /// Panics if either endpoint has not been added to this instance yet
    /// (dangling endpoints would corrupt the adjacency indexes).
    pub fn add_edge(
        &mut self,
        label: impl Into<Ident>,
        src: NodeId,
        tgt: NodeId,
        props: impl IntoIterator<Item = (impl Into<Ident>, impl Into<Value>)>,
    ) -> EdgeId {
        assert!(
            src.0 < self.nodes.len() && tgt.0 < self.nodes.len(),
            "edge endpoints must be added before the edge"
        );
        let id = EdgeId(self.edges.len());
        let label = label.into();
        Arc::make_mut(self.edges_by_label.entry(label.clone()).or_default()).push(id);
        self.out_adjacency[src.0].push(id);
        self.in_adjacency[tgt.0].push(id);
        self.edges.push(Edge {
            id,
            label,
            src,
            tgt,
            props: props.into_iter().map(|(k, v)| (k.into(), v.into())).collect(),
        });
        id
    }

    /// Removes an edge, returning it.  The last edge of the arena is
    /// swap-moved into the freed slot (its [`EdgeId`] changes to `id`), and
    /// every index — the label index and both endpoint adjacency lists —
    /// is patched so index-backed traversals keep agreeing with arena
    /// scans.  O(degree + label population) for the affected entries.
    pub fn remove_edge(&mut self, id: EdgeId) -> Result<Edge> {
        self.try_edge(id)?;
        let last = EdgeId(self.edges.len() - 1);
        let edge = self.edges.swap_remove(id.0);
        // Detach the removed edge from its indexes.
        remove_from_index(&mut self.edges_by_label, &edge.label, id);
        self.out_adjacency[edge.src.0].retain(|e| *e != id);
        self.in_adjacency[edge.tgt.0].retain(|e| *e != id);
        if id != last {
            // The former last edge now lives at `id`: renumber it and
            // rewrite `last -> id` in its indexes, re-sorting them so they
            // stay aligned with arena order.
            let (label, src, tgt) = {
                let moved = &mut self.edges[id.0];
                moved.id = id;
                (moved.label.clone(), moved.src, moved.tgt)
            };
            if let Some(ids) = self.edges_by_label.get_mut(&label) {
                rewrite_id(Arc::make_mut(ids).as_mut_slice(), last, id);
            }
            rewrite_id(&mut self.out_adjacency[src.0], last, id);
            rewrite_id(&mut self.in_adjacency[tgt.0], last, id);
        }
        Ok(edge)
    }

    /// Removes a node, returning it.  Fails if the node still has incident
    /// edges (remove those first: a dangling endpoint would corrupt both
    /// the adjacency indexes and any schema obligations).  The last node of
    /// the arena is swap-moved into the freed slot (its [`NodeId`] changes
    /// to `id`); its label-index entry, adjacency rows, and the endpoint
    /// references of its incident edges are all patched.
    pub fn remove_node(&mut self, id: NodeId) -> Result<Node> {
        self.try_node(id)?;
        if !self.out_adjacency[id.0].is_empty() || !self.in_adjacency[id.0].is_empty() {
            return Err(Error::instance(format!("node {id} still has incident edges")));
        }
        let last = NodeId(self.nodes.len() - 1);
        let node = self.nodes.swap_remove(id.0);
        self.out_adjacency.swap_remove(id.0);
        self.in_adjacency.swap_remove(id.0);
        remove_from_index(&mut self.nodes_by_label, &node.label, id);
        if id != last {
            let label = {
                let moved = &mut self.nodes[id.0];
                moved.id = id;
                moved.label.clone()
            };
            if let Some(ids) = self.nodes_by_label.get_mut(&label) {
                rewrite_id(Arc::make_mut(ids).as_mut_slice(), last, id);
            }
            // Incident edges of the moved node still reference `last`.
            for k in 0..self.out_adjacency[id.0].len() {
                let e = self.out_adjacency[id.0][k];
                self.edges[e.0].src = id;
            }
            for k in 0..self.in_adjacency[id.0].len() {
                let e = self.in_adjacency[id.0][k];
                self.edges[e.0].tgt = id;
            }
        }
        Ok(node)
    }

    /// Sets (or, with `Null`, overwrites with an explicit `NULL`) one
    /// property of a node, returning the previous value if any.  Purely a
    /// storage primitive: schema obligations (declared keys, default-key
    /// uniqueness) are the caller's to enforce.
    pub fn set_node_prop(
        &mut self,
        id: NodeId,
        key: impl Into<Ident>,
        value: Value,
    ) -> Result<Option<Value>> {
        self.try_node(id)?;
        Ok(self.nodes[id.0].props.insert(key.into(), value))
    }

    /// Sets one property of an edge, returning the previous value if any.
    /// Like [`GraphInstance::set_node_prop`], a pure storage primitive.
    pub fn set_edge_prop(
        &mut self,
        id: EdgeId,
        key: impl Into<Ident>,
        value: Value,
    ) -> Result<Option<Value>> {
        self.try_edge(id)?;
        Ok(self.edges[id.0].props.insert(key.into(), value))
    }

    /// Iterates over all nodes, in arena (id) order.
    pub fn nodes(&self) -> impl DoubleEndedIterator<Item = &Node> + '_ {
        self.nodes.iter()
    }

    /// Iterates over all edges, in arena (id) order.
    pub fn edges(&self) -> impl DoubleEndedIterator<Item = &Edge> + '_ {
        self.edges.iter()
    }

    /// Number of nodes.
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Number of edges.
    pub fn edge_count(&self) -> usize {
        self.edges.len()
    }

    /// Returns the node with the given id.
    ///
    /// # Panics
    ///
    /// Panics if `id` does not name a node of this instance; mutation and
    /// validation paths that handle untrusted ids should use
    /// [`GraphInstance::try_node`] instead.
    pub fn node(&self, id: NodeId) -> &Node {
        &self.nodes[id.0]
    }

    /// Returns the edge with the given id.
    ///
    /// # Panics
    ///
    /// Panics if `id` does not name an edge of this instance; mutation and
    /// validation paths that handle untrusted ids should use
    /// [`GraphInstance::try_edge`] instead.
    pub fn edge(&self, id: EdgeId) -> &Edge {
        &self.edges[id.0]
    }

    /// Returns the node with the given id, or an error for unknown ids —
    /// the non-panicking form of [`GraphInstance::node`].
    pub fn try_node(&self, id: NodeId) -> Result<&Node> {
        self.nodes.get(id.0).ok_or_else(|| Error::instance(format!("unknown node id {id}")))
    }

    /// Returns the edge with the given id, or an error for unknown ids —
    /// the non-panicking form of [`GraphInstance::edge`].
    pub fn try_edge(&self, id: EdgeId) -> Result<&Edge> {
        self.edges.get(id.0).ok_or_else(|| Error::instance(format!("unknown edge id {id}")))
    }

    /// Iterates over the nodes with a given label, in insertion order.
    ///
    /// Backed by the label index: cost is proportional to the number of
    /// *matching* nodes, not the total node count.
    pub fn nodes_with_label<'a>(&'a self, label: &'a str) -> impl Iterator<Item = &'a Node> + 'a {
        self.nodes_by_label
            .get(label)
            .map(|ids| ids.as_slice())
            .unwrap_or_default()
            .iter()
            .map(move |id| &self.nodes[id.0])
    }

    /// Iterates over the edges with a given label, in insertion order.
    ///
    /// Backed by the label index: cost is proportional to the number of
    /// *matching* edges, not the total edge count.
    pub fn edges_with_label<'a>(&'a self, label: &'a str) -> impl Iterator<Item = &'a Edge> + 'a {
        self.edges_by_label
            .get(label)
            .map(|ids| ids.as_slice())
            .unwrap_or_default()
            .iter()
            .map(move |id| &self.edges[id.0])
    }

    /// Iterates over edges whose source is `node`, in insertion order
    /// (adjacency-list lookup, O(out-degree)).
    pub fn out_edges(&self, node: NodeId) -> impl Iterator<Item = &Edge> + '_ {
        self.out_adjacency
            .get(node.0)
            .map(Vec::as_slice)
            .unwrap_or_default()
            .iter()
            .map(move |id| &self.edges[id.0])
    }

    /// Iterates over edges whose target is `node`, in insertion order
    /// (adjacency-list lookup, O(in-degree)).
    pub fn in_edges(&self, node: NodeId) -> impl Iterator<Item = &Edge> + '_ {
        self.in_adjacency
            .get(node.0)
            .map(Vec::as_slice)
            .unwrap_or_default()
            .iter()
            .map(move |id| &self.edges[id.0])
    }

    /// Validates the instance against a schema:
    ///
    /// * every node/edge label is declared;
    /// * properties are a subset of the declared keys;
    /// * default-key values are present, non-null, and unique per type;
    /// * edge endpoints exist and have the declared source/target labels.
    pub fn validate(&self, schema: &GraphSchema) -> Result<()> {
        let mut default_seen: HashSet<(String, Value)> = HashSet::new();
        for node in self.nodes.iter() {
            let ty = schema
                .node_type(node.label.as_str())
                .ok_or_else(|| Error::instance(format!("unknown node label `{}`", node.label)))?;
            for key in node.props.keys() {
                if !ty.keys.contains(key) {
                    return Err(Error::instance(format!(
                        "node `{}` has undeclared property `{key}`",
                        node.label
                    )));
                }
            }
            let dk = ty.default_key();
            let v = node.prop(dk.as_str());
            if v.is_null() {
                return Err(Error::instance(format!(
                    "node `{}` is missing its default key `{dk}`",
                    node.label
                )));
            }
            if !default_seen.insert((node.label.to_string(), v.clone())) {
                return Err(Error::instance(format!(
                    "duplicate default-key value {v} for node label `{}`",
                    node.label
                )));
            }
        }
        for edge in self.edges.iter() {
            let ty = schema
                .edge_type(edge.label.as_str())
                .ok_or_else(|| Error::instance(format!("unknown edge label `{}`", edge.label)))?;
            if edge.src.0 >= self.nodes.len() || edge.tgt.0 >= self.nodes.len() {
                return Err(Error::instance(format!(
                    "edge `{}` has dangling endpoints",
                    edge.label
                )));
            }
            let src = self.node(edge.src);
            let tgt = self.node(edge.tgt);
            if src.label != ty.src || tgt.label != ty.tgt {
                return Err(Error::instance(format!(
                    "edge `{}` connects `{}`->`{}` but schema declares `{}`->`{}`",
                    edge.label, src.label, tgt.label, ty.src, ty.tgt
                )));
            }
            for key in edge.props.keys() {
                if !ty.keys.contains(key) {
                    return Err(Error::instance(format!(
                        "edge `{}` has undeclared property `{key}`",
                        edge.label
                    )));
                }
            }
            let dk = ty.default_key();
            let v = edge.prop(dk.as_str());
            if v.is_null() {
                return Err(Error::instance(format!(
                    "edge `{}` is missing its default key `{dk}`",
                    edge.label
                )));
            }
            if !default_seen.insert((edge.label.to_string(), v.clone())) {
                return Err(Error::instance(format!(
                    "duplicate default-key value {v} for edge label `{}`",
                    edge.label
                )));
            }
        }
        Ok(())
    }
}

/// Drops `id` from a label index entry, removing the entry once empty.
fn remove_from_index<I: Copy + PartialEq>(
    index: &mut HashMap<Ident, Arc<Vec<I>>>,
    label: &Ident,
    id: I,
) {
    if let Some(ids) = index.get_mut(label) {
        let ids = Arc::make_mut(ids);
        ids.retain(|e| *e != id);
        if ids.is_empty() {
            index.remove(label);
        }
    }
}

/// Renumbers `from` to `to` in an index vector, then re-sorts it: after a
/// swap-remove, ids *are* arena slots, so id order is arena order and the
/// sorted vector keeps index-backed iteration aligned with full scans.
fn rewrite_id<I: Copy + PartialEq + Ord>(ids: &mut [I], from: I, to: I) {
    for e in ids.iter_mut() {
        if *e == from {
            *e = to;
        }
    }
    ids.sort_unstable();
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::{EdgeType, GraphSchema, NodeType};

    fn emp_schema() -> GraphSchema {
        GraphSchema::new()
            .with_node(NodeType::new("EMP", ["id", "name"]))
            .with_node(NodeType::new("DEPT", ["dnum", "dname"]))
            .with_edge(EdgeType::new("WORK_AT", "EMP", "DEPT", ["wid"]))
    }

    /// Builds the instance from Figure 15a of the paper.
    fn fig15_instance() -> GraphInstance {
        let mut g = GraphInstance::new();
        let a = g.add_node("EMP", [("id", Value::Int(1)), ("name", Value::str("A"))]);
        let b = g.add_node("EMP", [("id", Value::Int(2)), ("name", Value::str("B"))]);
        let cs = g.add_node("DEPT", [("dnum", Value::Int(1)), ("dname", Value::str("CS"))]);
        let _ee = g.add_node("DEPT", [("dnum", Value::Int(2)), ("dname", Value::str("EE"))]);
        g.add_edge("WORK_AT", a, cs, [("wid", Value::Int(10))]);
        g.add_edge("WORK_AT", b, cs, [("wid", Value::Int(11))]);
        g
    }

    #[test]
    fn build_and_validate_fig15() {
        let g = fig15_instance();
        assert_eq!(g.node_count(), 4);
        assert_eq!(g.edge_count(), 2);
        assert!(g.validate(&emp_schema()).is_ok());
        assert_eq!(g.nodes_with_label("EMP").count(), 2);
        assert_eq!(g.edges_with_label("WORK_AT").count(), 2);
    }

    #[test]
    fn traversal_helpers() {
        let g = fig15_instance();
        let a = g.nodes_with_label("EMP").next().unwrap().id;
        assert_eq!(g.out_edges(a).count(), 1);
        let cs =
            g.nodes_with_label("DEPT").find(|n| n.prop("dname") == Value::str("CS")).unwrap().id;
        assert_eq!(g.in_edges(cs).count(), 2);
    }

    #[test]
    fn missing_property_defaults_to_null() {
        let g = fig15_instance();
        let n = g.nodes_with_label("EMP").next().unwrap();
        assert_eq!(n.prop("nonexistent"), Value::Null);
    }

    #[test]
    fn validation_rejects_unknown_label() {
        let mut g = fig15_instance();
        g.add_node("GHOST", [("x", Value::Int(1))]);
        assert!(g.validate(&emp_schema()).is_err());
    }

    #[test]
    fn validation_rejects_duplicate_default_key() {
        let mut g = fig15_instance();
        g.add_node("EMP", [("id", Value::Int(1)), ("name", Value::str("dup"))]);
        assert!(g.validate(&emp_schema()).is_err());
    }

    #[test]
    fn validation_rejects_wrong_endpoint_type() {
        let mut g = GraphInstance::new();
        let d1 = g.add_node("DEPT", [("dnum", Value::Int(1))]);
        let d2 = g.add_node("DEPT", [("dnum", Value::Int(2))]);
        g.add_edge("WORK_AT", d1, d2, [("wid", Value::Int(1))]);
        assert!(g.validate(&emp_schema()).is_err());
    }

    #[test]
    fn validation_rejects_undeclared_property() {
        let mut g = GraphInstance::new();
        g.add_node("EMP", [("id", Value::Int(1)), ("salary", Value::Int(9))]);
        assert!(g.validate(&emp_schema()).is_err());
    }

    #[test]
    fn adjacency_indexes_track_insertions() {
        let g = fig15_instance();
        let cs =
            g.nodes_with_label("DEPT").find(|n| n.prop("dname") == Value::str("CS")).unwrap().id;
        let ee =
            g.nodes_with_label("DEPT").find(|n| n.prop("dname") == Value::str("EE")).unwrap().id;
        // Index-backed traversals agree with a full scan.
        assert_eq!(g.in_edges(cs).count(), g.edges().filter(|e| e.tgt == cs).count());
        assert_eq!(g.in_edges(ee).count(), 0);
        for n in g.nodes() {
            let scanned: Vec<_> = g.edges().filter(|e| e.src == n.id).map(|e| e.id).collect();
            let indexed: Vec<_> = g.out_edges(n.id).map(|e| e.id).collect();
            assert_eq!(scanned, indexed);
        }
    }

    #[test]
    fn label_indexes_preserve_insertion_order() {
        let g = fig15_instance();
        let scanned: Vec<_> = g.nodes().filter(|n| n.label == "EMP").map(|n| n.id).collect();
        let indexed: Vec<_> = g.nodes_with_label("EMP").map(|n| n.id).collect();
        assert_eq!(scanned, indexed);
        let scanned_e: Vec<_> = g.edges().filter(|e| e.label == "WORK_AT").map(|e| e.id).collect();
        let indexed_e: Vec<_> = g.edges_with_label("WORK_AT").map(|e| e.id).collect();
        assert_eq!(scanned_e, indexed_e);
        assert_eq!(g.nodes_with_label("GHOST").count(), 0);
        assert_eq!(g.edges_with_label("GHOST").count(), 0);
    }

    #[test]
    #[should_panic(expected = "endpoints must be added before the edge")]
    fn dangling_edge_endpoints_are_rejected_at_insertion() {
        let mut g = GraphInstance::new();
        g.add_edge("WORK_AT", NodeId(0), NodeId(1), [("wid", Value::Int(1))]);
    }

    #[test]
    fn try_accessors_return_errors_for_unknown_ids() {
        let g = fig15_instance();
        assert!(g.try_node(NodeId(0)).is_ok());
        assert!(g.try_node(NodeId(99)).is_err());
        assert!(g.try_edge(EdgeId(1)).is_ok());
        assert!(g.try_edge(EdgeId(99)).is_err());
    }

    /// Every index agrees with a full arena scan — the invariant the
    /// removal paths must preserve.
    fn assert_indexes_consistent(g: &GraphInstance) {
        for (i, n) in g.nodes().enumerate() {
            assert_eq!(n.id, NodeId(i), "node ids must match arena slots");
        }
        for (i, e) in g.edges().enumerate() {
            assert_eq!(e.id, EdgeId(i), "edge ids must match arena slots");
            assert!(e.src.0 < g.node_count() && e.tgt.0 < g.node_count());
        }
        let labels: HashSet<Ident> = g.nodes().map(|n| n.label.clone()).collect();
        for l in &labels {
            let scanned: Vec<_> = g.nodes().filter(|n| n.label == *l).map(|n| n.id).collect();
            let indexed: Vec<_> = g.nodes_with_label(l.as_str()).map(|n| n.id).collect();
            assert_eq!(scanned, indexed, "node label index for `{l}`");
        }
        let elabels: HashSet<Ident> = g.edges().map(|e| e.label.clone()).collect();
        for l in &elabels {
            let scanned: Vec<_> = g.edges().filter(|e| e.label == *l).map(|e| e.id).collect();
            let indexed: Vec<_> = g.edges_with_label(l.as_str()).map(|e| e.id).collect();
            assert_eq!(scanned, indexed, "edge label index for `{l}`");
        }
        for n in g.nodes() {
            let scanned: Vec<_> = g.edges().filter(|e| e.src == n.id).map(|e| e.id).collect();
            let indexed: Vec<_> = g.out_edges(n.id).map(|e| e.id).collect();
            assert_eq!(scanned, indexed, "out adjacency of {}", n.id);
            let scanned_in: Vec<_> = g.edges().filter(|e| e.tgt == n.id).map(|e| e.id).collect();
            let indexed_in: Vec<_> = g.in_edges(n.id).map(|e| e.id).collect();
            assert_eq!(scanned_in, indexed_in, "in adjacency of {}", n.id);
        }
    }

    #[test]
    fn remove_edge_patches_every_index() {
        let mut g = fig15_instance();
        // Removing the first edge swap-moves the second into slot 0.
        let removed = g.remove_edge(EdgeId(0)).unwrap();
        assert_eq!(removed.prop("wid"), Value::Int(10));
        assert_eq!(g.edge_count(), 1);
        assert_eq!(g.edge(EdgeId(0)).prop("wid"), Value::Int(11));
        assert_indexes_consistent(&g);
        assert!(g.validate(&emp_schema()).is_ok());
        assert!(g.remove_edge(EdgeId(5)).is_err());
    }

    #[test]
    fn remove_node_requires_no_incident_edges() {
        let mut g = fig15_instance();
        let cs =
            g.nodes_with_label("DEPT").find(|n| n.prop("dname") == Value::str("CS")).unwrap().id;
        assert!(g.remove_node(cs).is_err(), "CS still has incoming WORK_AT edges");
        // Detach, then removal succeeds and the moved node's edges follow.
        let edge_ids: Vec<EdgeId> = g.in_edges(cs).map(|e| e.id).collect();
        for id in edge_ids.into_iter().rev() {
            g.remove_edge(id).unwrap();
        }
        g.remove_node(cs).unwrap();
        assert_eq!(g.node_count(), 3);
        assert_indexes_consistent(&g);
        assert!(g.validate(&emp_schema()).is_ok());
    }

    #[test]
    fn removing_a_middle_node_renumbers_the_moved_nodes_edges() {
        let mut g = GraphInstance::new();
        let a = g.add_node("EMP", [("id", Value::Int(1)), ("name", Value::str("A"))]);
        let b = g.add_node("EMP", [("id", Value::Int(2)), ("name", Value::str("B"))]);
        let d1 = g.add_node("DEPT", [("dnum", Value::Int(1)), ("dname", Value::str("CS"))]);
        g.add_edge("WORK_AT", a, d1, [("wid", Value::Int(10))]);
        g.add_edge("WORK_AT", b, d1, [("wid", Value::Int(11))]);
        // Remove `b` (middle of the arena): the DEPT node moves into its
        // slot, and both edges' `tgt` must follow it.
        let edge: Vec<EdgeId> = g.out_edges(b).map(|e| e.id).collect();
        for id in edge {
            g.remove_edge(id).unwrap();
        }
        g.remove_node(b).unwrap();
        assert_eq!(g.node_count(), 2);
        assert_indexes_consistent(&g);
        assert!(g.validate(&emp_schema()).is_ok());
        let dept = g.nodes_with_label("DEPT").next().unwrap();
        assert_eq!(g.in_edges(dept.id).count(), 1);
    }

    #[test]
    fn set_prop_updates_and_returns_old_values() {
        let mut g = fig15_instance();
        let a = g.nodes_with_label("EMP").next().unwrap().id;
        let old = g.set_node_prop(a, "name", Value::str("A2")).unwrap();
        assert_eq!(old, Some(Value::str("A")));
        assert_eq!(g.node(a).prop("name"), Value::str("A2"));
        let e = g.edges_with_label("WORK_AT").next().unwrap().id;
        let old = g.set_edge_prop(e, "wid", Value::Int(99)).unwrap();
        assert_eq!(old, Some(Value::Int(10)));
        assert!(g.set_node_prop(NodeId(77), "name", Value::Null).is_err());
        assert!(g.set_edge_prop(EdgeId(77), "wid", Value::Null).is_err());
    }

    /// A randomized add/remove churn keeps every index exactly consistent
    /// with arena scans.
    #[test]
    fn randomized_churn_keeps_indexes_consistent() {
        let mut g = GraphInstance::new();
        let mut next = 0i64;
        let mut state = 0x243F6A88_85A308D3u64;
        let mut rand = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for step in 0..400 {
            match rand() % 4 {
                0 => {
                    next += 1;
                    g.add_node("EMP", [("id", Value::Int(next)), ("name", Value::str("x"))]);
                }
                1 => {
                    next += 1;
                    g.add_node("DEPT", [("dnum", Value::Int(next)), ("dname", Value::str("y"))]);
                }
                2 => {
                    let emps: Vec<NodeId> = g.nodes_with_label("EMP").map(|n| n.id).collect();
                    let depts: Vec<NodeId> = g.nodes_with_label("DEPT").map(|n| n.id).collect();
                    if !emps.is_empty() && !depts.is_empty() {
                        next += 1;
                        let s = emps[(rand() % emps.len() as u64) as usize];
                        let t = depts[(rand() % depts.len() as u64) as usize];
                        g.add_edge("WORK_AT", s, t, [("wid", Value::Int(next))]);
                    }
                }
                _ => {
                    if g.edge_count() > 0 && rand() % 2 == 0 {
                        let id = EdgeId((rand() % g.edge_count() as u64) as usize);
                        g.remove_edge(id).unwrap();
                    } else if g.node_count() > 0 {
                        let id = NodeId((rand() % g.node_count() as u64) as usize);
                        // Only succeeds on isolated nodes; failure must not
                        // disturb anything.
                        let _ = g.remove_node(id);
                    }
                }
            }
            if step % 40 == 0 {
                assert_indexes_consistent(&g);
            }
        }
        assert_indexes_consistent(&g);
        assert!(g.validate(&emp_schema()).is_ok());
    }
}
