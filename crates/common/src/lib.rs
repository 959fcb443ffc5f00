//! Shared substrate for the Graphiti reproduction.
//!
//! This crate provides the pieces that both the graph and relational data
//! models (and both query languages) need:
//!
//! * [`Value`] — the dynamically-typed value domain used for node/edge
//!   properties and relational attributes, including SQL-style `NULL`.
//! * [`Truth`] — three-valued logic used by predicate evaluation in both
//!   Featherweight Cypher and Featherweight SQL.
//! * [`Error`] — the common error type shared across the workspace.
//! * [`intern`](mod@intern) — the global string interner behind
//!   [`Value::Str`], making value clones cheap on evaluator hot paths.
//! * Small helpers for identifier handling and deterministic hashing.

pub mod api;
pub mod error;
pub mod ident;
pub mod intern;
pub mod truth;
pub mod value;

pub use api::{ApiError, ApiResult};
pub use error::{Error, Result, MAX_NESTING};
pub use ident::Ident;
pub use intern::intern;
pub use truth::Truth;
pub use value::{number_hash_bits, AggKind, BinArith, CmpOp, Value};
