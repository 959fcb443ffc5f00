//! The parser's nesting bound: a text at [`MAX_NESTING`] levels parses,
//! executes and drops on a 2 MiB thread, the servers' stack size, in a
//! debug build; one level more, or 10,000, is a parse error rather than a
//! stack overflow that aborts the process.

use graphiti_common::{Error, Value, MAX_NESTING};
use graphiti_cypher::{eval_query, parse_query};
use graphiti_graph::{GraphInstance, GraphSchema, NodeType};

/// Runs `f` on a thread with a 2 MiB stack.
fn on_small_stack<T: Send + 'static>(f: impl FnOnce() -> T + Send + 'static) -> T {
    std::thread::Builder::new()
        .stack_size(2 << 20)
        .spawn(f)
        .expect("thread spawns")
        .join()
        .expect("no panic on a 2 MiB stack")
}

/// Texts nesting `depth` levels, one per way of nesting.  A `MATCH`
/// clause is one level, so its `WHERE` and the queries of a `UNION` start
/// one level down; `RETURN` items start at the top.
fn texts(depth: usize) -> Vec<String> {
    let rep = |s: &str, n: usize| s.repeat(n);
    let inner = depth - 1;
    vec![
        format!("MATCH (n:T) WHERE {}n.a = 1 RETURN n.a AS a", rep("NOT ", inner)),
        format!("MATCH (n:T) WHERE {}n.a = 1{} RETURN n.a AS a", rep("(", inner), rep(")", inner)),
        format!("MATCH (n:T) WHERE n.a = 1{} RETURN n.a AS a", rep(" AND n.a = 1", inner)),
        format!("MATCH (n:T) RETURN {}n.a{} AS a", rep("(", depth), rep(")", depth)),
        format!("MATCH (n:T) RETURN {}n.a AS a", rep("- ", depth)),
        format!("MATCH (n:T) RETURN n.a{} AS a", rep(" + 1", depth)),
        format!("MATCH (n:T) RETURN n.a AS a{}", rep(" UNION MATCH (n:T) RETURN n.a AS a", inner)),
        format!("MATCH (n:T){} RETURN n.a AS a", rep(" MATCH (n:T)", inner)),
    ]
}

#[test]
fn texts_at_the_bound_parse_execute_and_drop_on_a_small_stack() {
    on_small_stack(|| {
        let schema = GraphSchema::new().with_node(NodeType::new("T", ["a"]));
        let mut graph = GraphInstance::new();
        graph.add_node("T", [("a", Value::Int(1))]);
        for text in texts(MAX_NESTING) {
            let q = parse_query(&text).unwrap_or_else(|e| panic!("{e} on `{text}`"));
            eval_query(&schema, &graph, &q).unwrap_or_else(|e| panic!("{e} on `{text}`"));
        }
    });
}

#[test]
fn one_level_past_the_bound_is_a_parse_error() {
    for text in texts(MAX_NESTING + 1) {
        assert_eq!(parse_query(&text).unwrap_err(), Error::too_deep("cypher"), "on `{text}`");
    }
}

#[test]
fn ten_thousand_levels_are_refused_on_a_small_stack() {
    on_small_stack(|| {
        for text in texts(10_000) {
            assert_eq!(parse_query(&text).unwrap_err(), Error::too_deep("cypher"));
        }
    });
}
