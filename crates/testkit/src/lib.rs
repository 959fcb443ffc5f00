//! Test support for the Graphiti workspace: shared fixtures, property-based
//! generators, and the differential soundness oracle.
//!
//! Every crate in the workspace tests some slice of the same pipeline
//! (schema → SDT inference → transpilation → evaluation), and before this
//! crate existed each test file re-declared its own EMP/DEPT schema and
//! hand-rolled graph builders. `graphiti-testkit` centralizes that:
//!
//! * [`fixtures`] — the canonical EMP/DEPT/WORK_AT scenario and the paper's
//!   Section 2 biomedical scenario (CONCEPT/PA/SENTENCE), as plain
//!   functions returning schemas, instances, and query batteries;
//! * [`strategies`] — proptest [`Strategy`](proptest::Strategy) values
//!   generating schema-valid [`GraphInstance`](graphiti_graph::GraphInstance)s
//!   for *any* schema, and parseable Featherweight Cypher query texts
//!   derived from a schema;
//! * [`oracle`] — [`differential_oracle`], the
//!   executable form of the paper's Theorem 5.7: evaluating a Cypher query
//!   on a graph must agree with evaluating its transpilation on the
//!   SDT-image of that graph;
//! * [`faultlink`] — [`FaultLink`], a
//!   deterministic fault-injecting TCP proxy (disconnect, stall, torn
//!   write by operation index) for wire-level chaos sweeps.
//!
//! # Example
//!
//! ```
//! use graphiti_testkit::{fixtures, oracle};
//!
//! let schema = fixtures::emp::schema();
//! let graph = fixtures::emp::graph();
//! for query in fixtures::emp::QUERIES {
//!     oracle::differential_oracle(&schema, &graph, query).unwrap();
//! }
//! ```

pub mod faultlink;
pub mod fixtures;
pub mod oracle;
pub mod strategies;

pub use faultlink::{FaultLink, LinkFault};
pub use oracle::{
    differential_oracle, differential_oracle_against_sql, differential_oracle_batch,
    differential_oracle_on, OracleError,
};
pub use strategies::{arb_cypher, arb_instance, ArbCypher, ArbInstance};
