//! Featherweight SQL for the Graphiti reproduction.
//!
//! This crate implements the relational query language of the paper
//! (Section 3.3, Figure 10) together with everything needed to *execute* it,
//! standing in for the SQL engines and checkers the paper builds on:
//!
//! * [`ast`] — the algebraic Featherweight SQL AST with AST-size metrics.
//! * [`parser`] — a lexer and recursive-descent parser from SQL text to the
//!   algebra (`SELECT`/`FROM`/`WHERE`/`GROUP BY`/`HAVING`/`ORDER BY`/
//!   `UNION`/`WITH`, joins, subqueries).
//! * [`pretty`] — renders the algebra back to SQL text (used for the Fig. 7
//!   style transpilation output).
//! * [`optimize`](mod@optimize) — selection pushdown into join trees so textbook
//!   `FROM a, b WHERE ...` queries do not materialize Cartesian products.
//! * [`compile`] — lowers expressions/predicates into positional programs
//!   (column references resolved to row indexes once per operator).
//! * [`eval`] — a bag-semantics evaluator with three-valued `NULL` logic,
//!   hash equi-joins, outer joins, grouping, and correlated subqueries;
//!   [`eval_query`] runs compiled programs, [`eval_query_unoptimized`]
//!   retains the naive per-row interpreter as the ablation baseline.
//! * [`vectorized`] — columnar, batch-at-a-time execution of compiled
//!   plans over [`ColumnTable`](graphiti_relational::ColumnTable)s
//!   ([`eval_vectorized`]), differentially tested against [`eval_compiled`]
//!   which remains the row-at-a-time oracle path.
//!
//! # Example
//!
//! ```
//! use graphiti_sql::{parse_query, eval_query};
//! use graphiti_relational::{RelInstance, Table};
//! use graphiti_common::Value;
//!
//! let mut inst = RelInstance::new();
//! inst.insert_table("emp", Table::with_rows(
//!     ["id", "name"],
//!     vec![vec![Value::Int(1), Value::str("Ada")], vec![Value::Int(2), Value::str("Bob")]],
//! ));
//! let q = parse_query("SELECT e.name FROM emp AS e WHERE e.id = 1").unwrap();
//! let result = eval_query(&inst, &q).unwrap();
//! assert_eq!(result.rows, vec![vec![Value::str("Ada")]]);
//! ```

pub mod ast;
pub mod compile;
pub mod eval;
pub mod lexer;
pub mod optimize;
pub mod parser;
pub mod plan;
pub mod pretty;
pub mod vectorized;

pub use ast::{ColumnRef, JoinKind, SelectItem, SqlExpr, SqlPred, SqlQuery};
pub use eval::{eval_compiled, eval_query, eval_query_unoptimized, resolve_column};
pub use optimize::optimize;
pub use parser::parse_query;
pub use plan::{compile_query, CompiledQuery};
pub use pretty::query_to_string;
pub use vectorized::{eval_vectorized, eval_vectorized_profiled};
