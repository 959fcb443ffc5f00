//! Structural sharing between [`GraphInstance`] clones.
//!
//! A clone shares its arenas' chunks and elements with the original, and a
//! write copies whatever it touches that a clone still shares.  The
//! property: random scripts of all six mutations, with clones taken at
//! random points, leave every clone equal to a twin rebuilt from the same
//! script prefix with no clone taken, and leave the mutated instance equal
//! to the whole script run with no clone taken.  Each script first grows
//! the graph past a hundred elements, so that swap-removes move elements
//! across 32-slot chunks.

use graphiti_common::Value;
use graphiti_graph::{EdgeId, GraphInstance, NodeId};
use proptest::prelude::*;

const NODE_LABELS: [&str; 3] = ["A", "B", "C"];
const EDGE_LABELS: [&str; 2] = ["R", "S"];

/// One script step.  Picks (`u64`) are reduced modulo the current node or
/// edge count when the step runs, so every script is valid.
#[derive(Debug, Clone, Copy)]
enum Step {
    AddNode(usize, i64),
    AddEdge(usize, u64, u64, i64),
    RemoveNode(u64),
    RemoveEdge(u64),
    SetNodeProp(u64, i64),
    SetEdgeProp(u64, i64),
    Clone,
}

fn pick(x: u64, n: usize) -> usize {
    (x % n as u64) as usize
}

fn prop_key(v: i64) -> &'static str {
    if v % 2 == 0 {
        "k"
    } else {
        "p"
    }
}

/// Runs one mutation step; [`Step::Clone`] and steps that find nothing to
/// mutate do nothing.
fn apply(g: &mut GraphInstance, step: Step) {
    let (nodes, edges) = (g.node_count(), g.edge_count());
    match step {
        Step::AddNode(label, v) => {
            g.add_node(NODE_LABELS[label], [("k", Value::Int(v))]);
        }
        Step::AddEdge(label, s, t, v) if nodes > 0 => {
            let (src, tgt) = (NodeId(pick(s, nodes)), NodeId(pick(t, nodes)));
            g.add_edge(EDGE_LABELS[label], src, tgt, [("k", Value::Int(v))]);
        }
        Step::RemoveNode(x) if nodes > 0 => {
            let id = NodeId(pick(x, nodes));
            // Detach first, highest edge id first: each removal moves the
            // last edge, whose id is above every incident edge still left.
            let mut incident: Vec<EdgeId> =
                g.out_edges(id).chain(g.in_edges(id)).map(|e| e.id).collect();
            incident.sort_unstable();
            incident.dedup();
            for e in incident.into_iter().rev() {
                g.remove_edge(e).expect("incident edge exists");
            }
            g.remove_node(id).expect("detached node is removable");
        }
        Step::RemoveEdge(x) if edges > 0 => {
            g.remove_edge(EdgeId(pick(x, edges))).expect("edge exists");
        }
        Step::SetNodeProp(x, v) if nodes > 0 => {
            g.set_node_prop(NodeId(pick(x, nodes)), prop_key(v), Value::Int(v))
                .expect("node exists");
        }
        Step::SetEdgeProp(x, v) if edges > 0 => {
            g.set_edge_prop(EdgeId(pick(x, edges)), prop_key(v), Value::Int(v))
                .expect("edge exists");
        }
        _ => {}
    }
}

/// Runs `script` from an empty instance with no clone taken.
fn rebuild(script: &[Step]) -> GraphInstance {
    let mut g = GraphInstance::new();
    for step in script {
        apply(&mut g, *step);
    }
    g
}

/// Asserts that `actual` equals `expected` in its arenas and in every
/// index, element by element and in order.
fn assert_same(actual: &GraphInstance, expected: &GraphInstance, what: &str) {
    assert!(actual == expected, "{what}: arenas differ");
    for label in NODE_LABELS {
        assert!(
            actual.nodes_with_label(label).eq(expected.nodes_with_label(label)),
            "{what}: nodes_with_label({label}) differs"
        );
    }
    for label in EDGE_LABELS {
        assert!(
            actual.edges_with_label(label).eq(expected.edges_with_label(label)),
            "{what}: edges_with_label({label}) differs"
        );
    }
    for i in 0..expected.node_count() {
        let id = NodeId(i);
        assert!(actual.out_edges(id).eq(expected.out_edges(id)), "{what}: out_edges({id}) differs");
        assert!(actual.in_edges(id).eq(expected.in_edges(id)), "{what}: in_edges({id}) differs");
    }
}

fn step() -> impl Strategy<Value = Step> {
    (0u8..20, any::<u64>(), any::<u64>(), -50i64..50).prop_map(|(kind, a, b, v)| match kind {
        0..=5 => Step::AddNode(pick(a, NODE_LABELS.len()), v),
        6..=10 => Step::AddEdge(pick(b, EDGE_LABELS.len()), a, b, v),
        11 => Step::RemoveNode(a),
        12 | 13 => Step::RemoveEdge(a),
        14 | 15 => Step::SetNodeProp(a, v),
        16 | 17 => Step::SetEdgeProp(a, v),
        _ => Step::Clone,
    })
}

/// A growth phase of additions (and clones), then a body of every step.
fn script() -> impl Strategy<Value = Vec<Step>> {
    let growth = step().prop_map(|s| match s {
        Step::RemoveNode(x) | Step::SetNodeProp(x, _) => Step::AddNode(pick(x, 3), 0),
        Step::RemoveEdge(x) | Step::SetEdgeProp(x, _) => Step::AddEdge(pick(x, 2), x, x / 7, 0),
        s => s,
    });
    (collection::vec(growth, 140..180), collection::vec(step(), 200..400)).prop_map(
        |(mut growth, body)| {
            growth.extend(body);
            growth
        },
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn clones_are_isolated_from_later_writes(script in script()) {
        let mut g = GraphInstance::new();
        let mut clones = Vec::new();
        let mut peak = 0;
        for (at, step) in script.iter().enumerate() {
            match step {
                Step::Clone => clones.push((at, g.clone())),
                step => apply(&mut g, *step),
            }
            peak = peak.max(g.node_count() + g.edge_count());
        }
        prop_assert!(peak >= 100, "the script grew the graph to only {peak} elements");
        for (at, clone) in &clones {
            assert_same(clone, &rebuild(&script[..*at]), &format!("clone taken at step {at}"));
        }
        assert_same(&g, &rebuild(&script), "mutated instance");
    }
}
