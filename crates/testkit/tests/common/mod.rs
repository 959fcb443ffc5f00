//! The mutation-script generator the store suites share:
//! `store_equivalence`, `durability` and `chaos` each include this
//! module (the testkit library cannot depend on `graphiti-store`).
//!
//! A script is a sequence of random, *valid-by-construction* deltas,
//! each drawn against the store's current state: additions, removals
//! (edges before their endpoints), property updates and default-key
//! re-keys of existing elements — and of elements staged earlier in the
//! same delta, which the store writes at positions past its base image.

use graphiti_common::{Ident, Value};
use graphiti_graph::GraphSchema;
use graphiti_store::{Delta, EdgeKey, EdgeRef, GraphStore, NodeKey, NodeRef};
use rand::rngs::StdRng;
use rand::Rng;
use std::collections::HashSet;

/// Draws a random value for a non-default property.
fn random_prop_value(rng: &mut StdRng) -> Value {
    match rng.gen_range(0..4usize) {
        0 => Value::Int(rng.gen_range(0..4i64)),
        1 => Value::str(["a", "b", "c"][rng.gen_range(0..3usize)]),
        2 => Value::Bool(rng.gen_bool(0.5)),
        _ => Value::Null,
    }
}

fn props_for(keys: &[Ident], fresh_pk: i64, rng: &mut StdRng) -> Vec<(String, Value)> {
    keys.iter()
        .enumerate()
        .map(|(i, k)| {
            let v = if i == 0 { Value::Int(fresh_pk) } else { random_prop_value(rng) };
            (k.to_string(), v)
        })
        .collect()
}

/// A property update of an element whose label declares `keys`:
/// usually a payload key, sometimes a default-key re-key to a fresh
/// value (a node re-key must ripple into its edges' SRC/TGT).
fn random_update(rng: &mut StdRng, keys: &[Ident], next_pk: &mut i64) -> (Ident, Value) {
    if keys.len() > 1 && rng.gen_bool(0.7) {
        (keys[rng.gen_range(1..keys.len())].clone(), random_prop_value(rng))
    } else {
        *next_pk += 1;
        (keys[0].clone(), Value::Int(*next_pk))
    }
}

fn pick<T: Copy>(rng: &mut StdRng, candidates: &[T]) -> Option<T> {
    (!candidates.is_empty()).then(|| candidates[rng.gen_range(0..candidates.len())])
}

/// An element staged by the delta being drawn.
struct Staged<R> {
    r: R,
    label: Ident,
    /// Cleared when a later operation of the delta removes it.
    alive: bool,
}

/// Builds one random, valid-by-construction delta of one to six
/// operations against the store's current state.  Fresh default keys
/// count up from `next_pk`.
pub fn random_delta(
    rng: &mut StdRng,
    store: &GraphStore,
    schema: &GraphSchema,
    next_pk: &mut i64,
) -> Delta {
    let mut delta = Delta::new();
    let nodes = store.node_directory();
    let edges = store.edge_directory();
    let mut removed_nodes: HashSet<NodeKey> = HashSet::new();
    let mut removed_edges: HashSet<EdgeKey> = HashSet::new();
    let mut staged_nodes: Vec<Staged<NodeRef>> = Vec::new();
    // Staged edges with their endpoints.
    let mut staged_edges: Vec<(Staged<EdgeRef>, [NodeRef; 2])> = Vec::new();
    // Existing nodes that edges staged by this delta hang off — removing
    // them would (correctly) be rejected.
    let mut staged_endpoints: HashSet<NodeKey> = HashSet::new();
    for _ in 0..rng.gen_range(1..=6usize) {
        match rng.gen_range(0..100u32) {
            // Add a node.
            0..=29 => {
                let ty = &schema.node_types[rng.gen_range(0..schema.node_types.len())];
                *next_pk += 1;
                let r = delta.add_node(ty.label.clone(), props_for(&ty.keys, *next_pk, rng));
                staged_nodes.push(Staged { r, label: ty.label.clone(), alive: true });
            }
            // Add an edge between two live (or staged) endpoints.
            30..=49 if !schema.edge_types.is_empty() => {
                let ty = &schema.edge_types[rng.gen_range(0..schema.edge_types.len())];
                let endpoints = |label: &Ident| -> Vec<NodeRef> {
                    let existing = nodes
                        .iter()
                        .filter(|(k, l, _)| l == label && !removed_nodes.contains(k))
                        .map(|(k, _, _)| NodeRef::Key(*k));
                    let staged =
                        staged_nodes.iter().filter(|n| n.alive && n.label == *label).map(|n| n.r);
                    existing.chain(staged).collect()
                };
                let (Some(src), Some(tgt)) =
                    (pick(rng, &endpoints(&ty.src)), pick(rng, &endpoints(&ty.tgt)))
                else {
                    continue;
                };
                *next_pk += 1;
                let r =
                    delta.add_edge(ty.label.clone(), src, tgt, props_for(&ty.keys, *next_pk, rng));
                staged_edges.push((Staged { r, label: ty.label.clone(), alive: true }, [src, tgt]));
                for endpoint in [src, tgt] {
                    if let NodeRef::Key(k) = endpoint {
                        staged_endpoints.insert(k);
                    }
                }
            }
            // Remove an existing edge.
            50..=61 => {
                let candidates: Vec<EdgeKey> = edges
                    .iter()
                    .filter(|(k, ..)| !removed_edges.contains(k))
                    .map(|(k, ..)| *k)
                    .collect();
                let Some(victim) = pick(rng, &candidates) else { continue };
                delta.remove_edge(victim);
                removed_edges.insert(victim);
            }
            // Remove an existing node whose (remaining) incident edges
            // this delta already removed.
            62..=69 => {
                let candidates: Vec<NodeKey> = nodes
                    .iter()
                    .filter(|(k, _, _)| {
                        !removed_nodes.contains(k)
                            && !staged_endpoints.contains(k)
                            && edges
                                .iter()
                                .filter(|(ek, ..)| !removed_edges.contains(ek))
                                .all(|(_, _, _, s, t)| s != k && t != k)
                    })
                    .map(|(k, _, _)| *k)
                    .collect();
                let Some(victim) = pick(rng, &candidates) else { continue };
                delta.remove_node(victim);
                removed_nodes.insert(victim);
            }
            // Update a property of an existing edge.
            70..=74 => {
                let candidates: Vec<usize> =
                    (0..edges.len()).filter(|&i| !removed_edges.contains(&edges[i].0)).collect();
                let Some(i) = pick(rng, &candidates) else { continue };
                let ty = schema.edge_type(edges[i].1.as_str()).expect("declared");
                let (key, value) = random_update(rng, &ty.keys, next_pk);
                delta.set_edge_prop(edges[i].0, key, value);
            }
            // Update a property of an existing node.
            75..=84 => {
                let candidates: Vec<usize> =
                    (0..nodes.len()).filter(|&i| !removed_nodes.contains(&nodes[i].0)).collect();
                let Some(i) = pick(rng, &candidates) else { continue };
                let ty = schema.node_type(nodes[i].1.as_str()).expect("declared");
                let (key, value) = random_update(rng, &ty.keys, next_pk);
                delta.set_node_prop(nodes[i].0, key, value);
            }
            // Remove, update or re-key an element this delta staged: a
            // staged node goes only after its staged edges.
            _ => {
                let live_edges: Vec<usize> =
                    (0..staged_edges.len()).filter(|&i| staged_edges[i].0.alive).collect();
                let live_nodes: Vec<usize> =
                    (0..staged_nodes.len()).filter(|&i| staged_nodes[i].alive).collect();
                let bare_nodes: Vec<usize> = live_nodes
                    .iter()
                    .copied()
                    .filter(|&i| {
                        !staged_edges
                            .iter()
                            .any(|(e, ends)| e.alive && ends.contains(&staged_nodes[i].r))
                    })
                    .collect();
                match rng.gen_range(0..4u32) {
                    0 => {
                        let Some(i) = pick(rng, &live_edges) else { continue };
                        delta.remove_edge(staged_edges[i].0.r);
                        staged_edges[i].0.alive = false;
                    }
                    1 => {
                        let Some(i) = pick(rng, &bare_nodes) else { continue };
                        delta.remove_node(staged_nodes[i].r);
                        staged_nodes[i].alive = false;
                    }
                    2 => {
                        let Some(i) = pick(rng, &live_nodes) else { continue };
                        let ty =
                            schema.node_type(staged_nodes[i].label.as_str()).expect("declared");
                        let (key, value) = random_update(rng, &ty.keys, next_pk);
                        delta.set_node_prop(staged_nodes[i].r, key, value);
                    }
                    _ => {
                        let Some(i) = pick(rng, &live_edges) else { continue };
                        let edge = &staged_edges[i].0;
                        let ty = schema.edge_type(edge.label.as_str()).expect("declared");
                        let (key, value) = random_update(rng, &ty.keys, next_pk);
                        delta.set_edge_prop(edge.r, key, value);
                    }
                }
            }
        }
    }
    delta
}
