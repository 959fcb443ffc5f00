//! Relational data model for the Graphiti reproduction.
//!
//! This crate implements Section 3.3 of the paper:
//!
//! * [`RelSchema`] / [`Relation`] — relational schemas (Definition 3.5) with
//!   primary-key, foreign-key, and not-null [`Constraint`]s.
//! * [`RelInstance`] — relational database instances (Definition 3.6) with
//!   validation against schemas and constraints.
//! * [`Table`] — bag-semantics result tables with the table-equivalence
//!   relation of Definition 4.4 (column-bijection + multiset equality) and
//!   its ordered variant for `ORDER BY` results.
//! * [`HashTable`] / [`KeyHasher`] — the hash kernel of every hash
//!   operator (joins, grouping, `DISTINCT`, `IN`) over [`Column`] keys,
//!   and [`KeyIndex`], each published column's rows grouped by key.

pub mod column;
pub mod hash;
pub mod instance;
pub mod schema;
pub mod table;

pub use column::{Bitmap, Column, ColumnData, ColumnInstance, ColumnTable, NameIndex, NULL_IDX};
pub use hash::{
    counting_sort, first_seen, hash_eq_class_into, hash_rows, FirstSeen, HashTable, KeyHasher,
    KeyIndex,
};
pub use instance::RelInstance;
pub use schema::{Constraint, RelSchema, Relation};
pub use table::{column_index_in, Row, Table, TableDelta};
