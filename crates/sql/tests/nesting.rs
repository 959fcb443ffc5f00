//! The parser's nesting bound: a text at [`MAX_NESTING`] levels parses,
//! executes and drops on a 2 MiB thread, the servers' stack size, in a
//! debug build; one level more, or 10,000, is a parse error rather than a
//! stack overflow that aborts the process.

use graphiti_common::{Error, Value, MAX_NESTING};
use graphiti_relational::{RelInstance, Table};
use graphiti_sql::{eval_query, parse_query};

/// Runs `f` on a thread with a 2 MiB stack.
fn on_small_stack<T: Send + 'static>(f: impl FnOnce() -> T + Send + 'static) -> T {
    std::thread::Builder::new()
        .stack_size(2 << 20)
        .spawn(f)
        .expect("thread spawns")
        .join()
        .expect("no panic on a 2 MiB stack")
}

fn instance() -> RelInstance {
    let mut inst = RelInstance::new();
    inst.insert_table("t", Table::with_rows(["a"], vec![vec![Value::Int(1)], vec![Value::Int(2)]]));
    inst
}

/// Texts nesting `depth` levels, one per way of nesting.
fn texts(depth: usize) -> Vec<String> {
    let rep = |s: &str, n: usize| s.repeat(n);
    vec![
        format!("SELECT t.a FROM t AS t WHERE {}t.a = 1", rep("NOT ", depth)),
        format!("SELECT t.a FROM t AS t WHERE {}t.a = 1{}", rep("(", depth), rep(")", depth)),
        format!("SELECT {}t.a{} AS x FROM t AS t", rep("(", depth), rep(")", depth)),
        format!("SELECT {}t.a AS x FROM t AS t", rep("- ", depth)),
        format!("SELECT t.a FROM t AS t WHERE t.a = 1{}", rep(" AND t.a = 1", depth)),
        format!("SELECT t.a{} AS x FROM t AS t", rep(" + 1", depth)),
        format!("SELECT t.a FROM t AS t{}", rep(" UNION SELECT t.a FROM t AS t", depth)),
        format!(
            "SELECT t.a FROM t AS t WHERE {}t.a = 1{}",
            rep("EXISTS (SELECT t.a FROM t AS t WHERE ", depth),
            rep(")", depth)
        ),
    ]
}

#[test]
fn texts_at_the_bound_parse_execute_and_drop_on_a_small_stack() {
    on_small_stack(|| {
        let inst = instance();
        for text in texts(MAX_NESTING) {
            let q = parse_query(&text).unwrap_or_else(|e| panic!("{e} on `{text}`"));
            eval_query(&inst, &q).unwrap_or_else(|e| panic!("{e} on `{text}`"));
        }
    });
}

#[test]
fn one_level_past_the_bound_is_a_parse_error() {
    for text in texts(MAX_NESTING + 1) {
        assert_eq!(parse_query(&text).unwrap_err(), Error::too_deep("sql"), "on `{text}`");
    }
}

#[test]
fn ten_thousand_levels_are_refused_on_a_small_stack() {
    on_small_stack(|| {
        for text in texts(10_000) {
            assert_eq!(parse_query(&text).unwrap_err(), Error::too_deep("sql"));
        }
    });
}
