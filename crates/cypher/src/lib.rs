//! Featherweight Cypher for the Graphiti reproduction.
//!
//! This crate implements the graph query language of the paper (Section 3.2
//! and Appendix A):
//!
//! * [`ast`] — the Featherweight Cypher abstract syntax (Figure 9), with AST
//!   size metrics used by the Table 1 experiment.
//! * [`parser`] — a lexer and recursive-descent parser for concrete Cypher
//!   surface syntax covering the featherweight fragment, rejecting
//!   out-of-fragment constructs with `Error::Unsupported`.
//! * [`pretty`] — renders ASTs back to Cypher text.
//! * [`eval`] — the denotational evaluator (Figure 19): queries map graph
//!   instances to bag-semantics tables.
//!
//! # Example
//!
//! ```
//! use graphiti_cypher::{parse_query, eval_query};
//! use graphiti_graph::{GraphSchema, GraphInstance, NodeType, EdgeType};
//! use graphiti_common::Value;
//!
//! let schema = GraphSchema::new()
//!     .with_node(NodeType::new("EMP", ["id", "name"]))
//!     .with_node(NodeType::new("DEPT", ["dnum", "dname"]))
//!     .with_edge(EdgeType::new("WORK_AT", "EMP", "DEPT", ["wid"]));
//! let mut g = GraphInstance::new();
//! let a = g.add_node("EMP", [("id", Value::Int(1)), ("name", Value::str("A"))]);
//! let cs = g.add_node("DEPT", [("dnum", Value::Int(1)), ("dname", Value::str("CS"))]);
//! g.add_edge("WORK_AT", a, cs, [("wid", Value::Int(10))]);
//!
//! let q = parse_query("MATCH (n:EMP)-[e:WORK_AT]->(m:DEPT) RETURN m.dname AS name").unwrap();
//! let table = eval_query(&schema, &g, &q).unwrap();
//! assert_eq!(table.len(), 1);
//! ```

pub mod ast;
pub mod eval;
pub mod lexer;
pub mod parser;
pub mod pretty;

pub use ast::{
    Clause, Direction, EdgePattern, Expr, NodePattern, PathPattern, Pred, Query, ReturnQuery,
    SortKey,
};
pub use eval::{eval_query, eval_query_profiled, eval_query_unoptimized};
pub use parser::parse_query;
pub use pretty::query_to_string;
