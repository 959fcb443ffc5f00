//! Property-graph data model for the Graphiti reproduction.
//!
//! This crate implements Section 3.1 of the paper:
//!
//! * [`NodeType`] and [`EdgeType`] — node/edge types (Definition 3.1),
//!   where the *first* property key of each type is the **default property
//!   key** and plays the role of a primary key.
//! * [`GraphSchema`] — a graph database schema (Definition 3.2).
//! * [`GraphInstance`] — a property graph instance (Definition 3.3), with a
//!   builder API, schema validation, and traversal helpers used by the
//!   Cypher evaluator.

mod cow;
pub mod instance;
pub mod schema;

pub use instance::{Edge, EdgeId, GraphInstance, Node, NodeId};
pub use schema::{EdgeType, GraphSchema, NodeType};
