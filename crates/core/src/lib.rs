//! Graphiti core: the paper's primary contribution.
//!
//! This crate implements the three components of the Graphiti pipeline
//! (Algorithm 1):
//!
//! * [`infer_sdt`](mod@infer_sdt) — the induced relational schema and the standard database
//!   transformer (Section 5.1, Figure 13);
//! * [`transpile`] — correct-by-construction, syntax-directed transpilation
//!   of Featherweight Cypher into Featherweight SQL over the induced schema
//!   (Section 5.2, Figures 16-18, 21-22);
//! * [`check`] — the reduction to SQL equivalence checking modulo a residual
//!   database transformer (Section 5.3, Algorithm 2), parameterized by a
//!   pluggable [`check::SqlEquivChecker`] backend;
//! * [`counterexample`] — lifting relational counterexamples back to graph
//!   instances, as in Figure 23.
//!
//! # Example: transpiling a Cypher query
//!
//! ```
//! use graphiti_graph::{GraphSchema, NodeType, EdgeType};
//! use graphiti_core::{infer_sdt, transpile_query};
//! use graphiti_cypher::parse_query;
//!
//! let schema = GraphSchema::new()
//!     .with_node(NodeType::new("EMP", ["id", "name"]))
//!     .with_node(NodeType::new("DEPT", ["dnum", "dname"]))
//!     .with_edge(EdgeType::new("WORK_AT", "EMP", "DEPT", ["wid"]));
//! let ctx = infer_sdt(&schema).unwrap();
//! let q = parse_query("MATCH (n:EMP)-[e:WORK_AT]->(m:DEPT) RETURN m.dname, Count(n)").unwrap();
//! let sql = transpile_query(&ctx, &q).unwrap();
//! assert!(sql.has_agg());
//! ```

pub mod check;
pub mod counterexample;
pub mod infer_sdt;
pub mod transpile;

pub use check::{
    check_equivalence, reduce, residual_transformer, CheckOutcome, Counterexample, Reduction,
    SqlEquivChecker,
};
pub use counterexample::lift_to_graph;
pub use infer_sdt::{infer_sdt, SdtContext, SRC_ATTR, TGT_ATTR};
pub use transpile::{transpile_query, transpile_to_sql_text};
