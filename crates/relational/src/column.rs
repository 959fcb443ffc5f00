//! Columnar storage: typed per-column vectors with validity bitmaps.
//!
//! [`Table`] stores rows as `Vec<Vec<Value>>`: every predicate pays per-row
//! dispatch and per-value enum matching, and every operator that copies rows
//! copies `Value`s one at a time.  [`ColumnTable`] is the cache-friendly
//! dual: one typed vector per column (`Int`, `Float`, `Bool`, interned
//! `Arc<str>` strings) with a validity bitmap for `NULL`s, falling back to a
//! mixed `Vec<Value>` only for genuinely heterogeneous columns.  Conversion
//! in both directions is lossless — `Int(3)` and `Float(3.0)` never collapse
//! into one representation — which the round-trip property tests in
//! `graphiti-testkit` pin down.
//!
//! Column payloads sit behind `Arc`s, so cloning a column (a scan, a rename)
//! is a reference-count bump, and a filter is a *gather*: build a selection
//! vector, then copy only the surviving slots of each typed vector.  A
//! payload also holds the column's [`KeyIndex`], built the first time a
//! key lookup asks for it, so every clone of a published column shares one
//! index until a commit replaces the payload.
//!
//! [`NameIndex`] precomputes the four-step column-name resolution of
//! [`column_index_in`](crate::column_index_in) (exact, unambiguous suffix, then the case-insensitive
//! versions) into hash maps, so callers that resolve many names against one
//! layout — or one name against many rows — do it O(1) per lookup instead
//! of O(columns) per call.

use crate::hash::KeyIndex;
use crate::instance::RelInstance;
use crate::table::{unqualified, Table};
use graphiti_common::Value;
use std::collections::{BTreeMap, HashMap};
use std::hash::Hasher;
use std::sync::{Arc, OnceLock};

/// Index value in a gather vector that produces a `NULL` slot instead of
/// reading from the source column (used for outer-join null extension).
pub const NULL_IDX: u32 = u32::MAX;

// ---------------------------------------------------------------- validity

/// A validity bitmap: bit `i` set means slot `i` holds a real value, clear
/// means the slot is `NULL`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Bitmap {
    words: Vec<u64>,
    len: usize,
}

impl Bitmap {
    /// An all-invalid (all-`NULL`) bitmap of the given length.
    pub fn all_invalid(len: usize) -> Bitmap {
        Bitmap { words: vec![0; len.div_ceil(64)], len }
    }

    /// An all-valid bitmap of the given length.
    pub fn all_valid(len: usize) -> Bitmap {
        let mut words = vec![u64::MAX; len.div_ceil(64)];
        if let Some(last) = words.last_mut() {
            let tail = len % 64;
            if tail != 0 {
                *last = (1u64 << tail) - 1;
            }
        }
        Bitmap { words, len }
    }

    /// Whether slot `i` holds a real value.
    #[inline]
    pub fn get(&self, i: usize) -> bool {
        (self.words[i / 64] >> (i % 64)) & 1 == 1
    }

    /// Marks slot `i` valid.
    #[inline]
    pub fn set(&mut self, i: usize) {
        self.words[i / 64] |= 1 << (i % 64);
    }

    /// Marks slot `i` invalid (`NULL`).
    #[inline]
    pub fn clear(&mut self, i: usize) {
        self.words[i / 64] &= !(1 << (i % 64));
    }

    /// Number of slots.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the bitmap is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Number of valid (non-`NULL`) slots.
    pub fn count_valid(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }
}

// ----------------------------------------------------------------- columns

/// The typed payload of one column.
#[derive(Debug, Clone, PartialEq)]
pub enum ColumnData {
    /// 64-bit integers (invalid slots hold `0`).
    Int(Vec<i64>),
    /// Double-precision floats (invalid slots hold `0.0`).
    Float(Vec<f64>),
    /// Booleans (invalid slots hold `false`).
    Bool(Vec<bool>),
    /// Interned strings (invalid slots hold a shared empty string).
    Str(Vec<Arc<str>>),
    /// Heterogeneous fallback: the values themselves, `NULL`s included.
    Mixed(Vec<Value>),
}

/// One column: an `Arc`-shared payload — the typed values and the
/// column's [`KeyIndex`], built on first use — plus an optional validity
/// bitmap (`None` = every slot valid).  Cloning is a reference-count bump,
/// so every clone of a payload (a scan, a rename, an untouched column of a
/// patched table) shares one index; any new payload starts without one.
/// Every payload is created together with its bitmap and never paired
/// with another, so the index always describes the column's `NULL`s too.
#[derive(Debug, Clone)]
pub struct Column {
    data: Arc<Payload>,
    validity: Option<Arc<Bitmap>>,
}

#[derive(Debug)]
struct Payload {
    values: ColumnData,
    index: OnceLock<Box<KeyIndex>>,
}

fn empty_str() -> Arc<str> {
    static EMPTY: OnceLock<Arc<str>> = OnceLock::new();
    Arc::clone(EMPTY.get_or_init(|| Arc::from("")))
}

impl Column {
    /// Builds a column from owned values, inferring the tightest typed
    /// representation: a column whose non-null values are all of one type
    /// gets a typed vector + validity bitmap, anything heterogeneous keeps
    /// the values as [`ColumnData::Mixed`].  All-`NULL` columns become an
    /// all-invalid `Int` column (losslessly: every slot reads back `NULL`).
    pub fn from_values(values: Vec<Value>) -> Column {
        #[derive(PartialEq, Clone, Copy)]
        enum Kind {
            Unknown,
            Int,
            Float,
            Bool,
            Str,
            Mixed,
        }
        let mut kind = Kind::Unknown;
        let mut nulls = false;
        for v in &values {
            let k = match v {
                Value::Null => {
                    nulls = true;
                    continue;
                }
                Value::Int(_) => Kind::Int,
                Value::Float(_) => Kind::Float,
                Value::Bool(_) => Kind::Bool,
                Value::Str(_) => Kind::Str,
            };
            if kind == Kind::Unknown {
                kind = k;
            } else if kind != k {
                kind = Kind::Mixed;
                break;
            }
        }
        let len = values.len();
        let mut validity = if nulls { Some(Bitmap::all_invalid(len)) } else { None };
        let data = match kind {
            Kind::Mixed => return Column::from_parts(ColumnData::Mixed(values), None),
            Kind::Unknown | Kind::Int => {
                let mut out = Vec::with_capacity(len);
                for (i, v) in values.iter().enumerate() {
                    match v {
                        Value::Int(x) => {
                            if let Some(b) = &mut validity {
                                b.set(i);
                            }
                            out.push(*x);
                        }
                        _ => out.push(0),
                    }
                }
                ColumnData::Int(out)
            }
            Kind::Float => {
                let mut out = Vec::with_capacity(len);
                for (i, v) in values.iter().enumerate() {
                    match v {
                        Value::Float(x) => {
                            if let Some(b) = &mut validity {
                                b.set(i);
                            }
                            out.push(*x);
                        }
                        _ => out.push(0.0),
                    }
                }
                ColumnData::Float(out)
            }
            Kind::Bool => {
                let mut out = Vec::with_capacity(len);
                for (i, v) in values.iter().enumerate() {
                    match v {
                        Value::Bool(x) => {
                            if let Some(b) = &mut validity {
                                b.set(i);
                            }
                            out.push(*x);
                        }
                        _ => out.push(false),
                    }
                }
                ColumnData::Bool(out)
            }
            Kind::Str => {
                let mut out = Vec::with_capacity(len);
                for (i, v) in values.iter().enumerate() {
                    match v {
                        Value::Str(s) => {
                            if let Some(b) = &mut validity {
                                b.set(i);
                            }
                            out.push(Arc::clone(s));
                        }
                        _ => out.push(empty_str()),
                    }
                }
                ColumnData::Str(out)
            }
        };
        Column::from_parts(data, validity)
    }

    /// A column of `len` copies of one value (constant broadcast).
    pub fn splat(value: &Value, len: usize) -> Column {
        match value {
            Value::Null => {
                Column::from_parts(ColumnData::Int(vec![0; len]), Some(Bitmap::all_invalid(len)))
            }
            Value::Int(x) => Column::from_parts(ColumnData::Int(vec![*x; len]), None),
            Value::Float(x) => Column::from_parts(ColumnData::Float(vec![*x; len]), None),
            Value::Bool(x) => Column::from_parts(ColumnData::Bool(vec![*x; len]), None),
            Value::Str(s) => Column::from_parts(ColumnData::Str(vec![Arc::clone(s); len]), None),
        }
    }

    /// Wraps typed parts directly (kernels that already produced a typed
    /// vector).  `validity: None` means every slot is valid.
    pub fn from_parts(data: ColumnData, validity: Option<Bitmap>) -> Column {
        Column {
            data: Arc::new(Payload { values: data, index: OnceLock::new() }),
            validity: validity.map(Arc::new),
        }
    }

    /// Number of slots.
    pub fn len(&self) -> usize {
        match self.data() {
            ColumnData::Int(v) => v.len(),
            ColumnData::Float(v) => v.len(),
            ColumnData::Bool(v) => v.len(),
            ColumnData::Str(v) => v.len(),
            ColumnData::Mixed(v) => v.len(),
        }
    }

    /// Whether the column has no slots.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The typed payload.
    pub fn data(&self) -> &ColumnData {
        &self.data.values
    }

    /// The validity bitmap (`None` = all valid).  Meaningless for
    /// [`ColumnData::Mixed`], whose `NULL`s live in the values.
    pub fn validity(&self) -> Option<&Bitmap> {
        self.validity.as_deref()
    }

    /// The column's key index, built on the first call for this payload
    /// and shared by every clone of it.
    pub fn key_index(&self) -> &KeyIndex {
        self.data.index.get_or_init(|| Box::new(KeyIndex::build(self)))
    }

    /// The rows whose key equals slot `j` of `probe`, as the hash join
    /// calls keys equal, read from the key index: one slice per group of
    /// equal keys, each in ascending row order.  A `NULL` probe matches
    /// nothing.
    pub fn rows_matching<'a>(
        &'a self,
        probe: &'a Column,
        j: usize,
    ) -> impl Iterator<Item = &'a [u32]> + 'a {
        self.key_index().matching(self, probe, j)
    }

    /// Whether slot `i` is `NULL`.
    #[inline]
    pub fn is_null(&self, i: usize) -> bool {
        match self.data() {
            ColumnData::Mixed(v) => v[i].is_null(),
            _ => self.validity().is_some_and(|b| !b.get(i)),
        }
    }

    /// Materializes slot `i` as a [`Value`] (cheap: at most an `Arc` bump).
    #[inline]
    pub fn value(&self, i: usize) -> Value {
        if let Some(b) = self.validity() {
            if !b.get(i) {
                return Value::Null;
            }
        }
        match self.data() {
            ColumnData::Int(v) => Value::Int(v[i]),
            ColumnData::Float(v) => Value::Float(v[i]),
            ColumnData::Bool(v) => Value::Bool(v[i]),
            ColumnData::Str(v) => Value::Str(Arc::clone(&v[i])),
            ColumnData::Mixed(v) => v[i].clone(),
        }
    }

    /// Strict structural equality of slot `i` with `other`'s slot `j`,
    /// mirroring [`Value::strict_eq`] (so `NULL == NULL`, and `Int`/`Float`
    /// compare numerically across the two typed representations).
    pub fn strict_eq_at(&self, i: usize, other: &Column, j: usize) -> bool {
        match (self.is_null(i), other.is_null(j)) {
            (true, true) => return true,
            (false, false) => {}
            _ => return false,
        }
        match (self.data(), other.data()) {
            (ColumnData::Int(a), ColumnData::Int(b)) => a[i] == b[j],
            (ColumnData::Float(a), ColumnData::Float(b)) => {
                a[i] == b[j] || (a[i].is_nan() && b[j].is_nan())
            }
            (ColumnData::Int(a), ColumnData::Float(b)) => (a[i] as f64) == b[j],
            (ColumnData::Float(a), ColumnData::Int(b)) => a[i] == (b[j] as f64),
            (ColumnData::Bool(a), ColumnData::Bool(b)) => a[i] == b[j],
            (ColumnData::Str(a), ColumnData::Str(b)) => Arc::ptr_eq(&a[i], &b[j]) || a[i] == b[j],
            _ => self.value(i).strict_eq(&other.value(j)),
        }
    }

    /// Hashes slot `i` exactly as [`Value`]'s `Hash` implementation would:
    /// the words the hash kernel ([`crate::hash`]) keys joins, groups and
    /// `DISTINCT` by, as the oracle's `HashMap<Vec<Value>, _>` keys do.
    #[inline]
    pub fn hash_value_into(&self, i: usize, state: &mut impl Hasher) {
        use std::hash::Hash;
        if self.is_null(i) {
            0u8.hash(state);
            return;
        }
        match self.data() {
            ColumnData::Int(v) => {
                2u8.hash(state);
                (v[i] as f64).to_bits().hash(state);
            }
            ColumnData::Float(v) => {
                2u8.hash(state);
                v[i].to_bits().hash(state);
            }
            ColumnData::Bool(v) => {
                1u8.hash(state);
                v[i].hash(state);
            }
            ColumnData::Str(v) => {
                3u8.hash(state);
                v[i].hash(state);
            }
            ColumnData::Mixed(v) => v[i].hash(state),
        }
    }

    /// Copies the selected slots into a new column (`gather`).  Every index
    /// must be in bounds; use [`Column::gather_opt`] when some output slots
    /// should be `NULL`.
    pub fn gather(&self, indices: &[u32]) -> Column {
        let data = match self.data() {
            ColumnData::Int(v) => ColumnData::Int(indices.iter().map(|&i| v[i as usize]).collect()),
            ColumnData::Float(v) => {
                ColumnData::Float(indices.iter().map(|&i| v[i as usize]).collect())
            }
            ColumnData::Bool(v) => {
                ColumnData::Bool(indices.iter().map(|&i| v[i as usize]).collect())
            }
            ColumnData::Str(v) => {
                ColumnData::Str(indices.iter().map(|&i| Arc::clone(&v[i as usize])).collect())
            }
            ColumnData::Mixed(v) => {
                ColumnData::Mixed(indices.iter().map(|&i| v[i as usize].clone()).collect())
            }
        };
        let validity = self.validity().map(|b| {
            let mut out = Bitmap::all_invalid(indices.len());
            for (o, &i) in indices.iter().enumerate() {
                if b.get(i as usize) {
                    out.set(o);
                }
            }
            out
        });
        Column::from_parts(data, validity)
    }

    /// Like [`Column::gather`], but an index of [`NULL_IDX`] produces a
    /// `NULL` slot (outer-join null extension).
    pub fn gather_opt(&self, indices: &[u32]) -> Column {
        if !indices.contains(&NULL_IDX) {
            return self.gather(indices);
        }
        let mut bitmap = Bitmap::all_invalid(indices.len());
        for (o, &i) in indices.iter().enumerate() {
            if i != NULL_IDX && !self.is_null(i as usize) {
                bitmap.set(o);
            }
        }
        let data = match self.data() {
            ColumnData::Int(v) => ColumnData::Int(
                indices.iter().map(|&i| if i == NULL_IDX { 0 } else { v[i as usize] }).collect(),
            ),
            ColumnData::Float(v) => ColumnData::Float(
                indices.iter().map(|&i| if i == NULL_IDX { 0.0 } else { v[i as usize] }).collect(),
            ),
            ColumnData::Bool(v) => ColumnData::Bool(
                indices
                    .iter()
                    .map(|&i| if i == NULL_IDX { false } else { v[i as usize] })
                    .collect(),
            ),
            ColumnData::Str(v) => ColumnData::Str(
                indices
                    .iter()
                    .map(|&i| if i == NULL_IDX { empty_str() } else { Arc::clone(&v[i as usize]) })
                    .collect(),
            ),
            ColumnData::Mixed(v) => ColumnData::Mixed(
                indices
                    .iter()
                    .map(|&i| if i == NULL_IDX { Value::Null } else { v[i as usize].clone() })
                    .collect(),
            ),
        };
        Column::from_parts(data, Some(bitmap))
    }

    /// Returns a copy with the given slots replaced (`patches` are
    /// `(slot, new value)` pairs).  Patches whose values stay within the
    /// column's typed representation (same variant, or `NULL`) take a
    /// typed fast path — one payload copy plus in-place writes; anything
    /// else re-infers the representation from the materialized values
    /// (still lossless).
    pub fn patched(&self, patches: &[(usize, Value)]) -> Column {
        if patches.is_empty() {
            return self.clone();
        }
        let len = self.len();
        if let ColumnData::Mixed(values) = self.data() {
            let mut v = values.clone();
            for (i, val) in patches {
                v[*i] = val.clone();
            }
            return Column::from_parts(ColumnData::Mixed(v), None);
        }
        let compatible = patches.iter().all(|(_, v)| {
            matches!(
                (self.data(), v),
                (_, Value::Null)
                    | (ColumnData::Int(_), Value::Int(_))
                    | (ColumnData::Float(_), Value::Float(_))
                    | (ColumnData::Bool(_), Value::Bool(_))
                    | (ColumnData::Str(_), Value::Str(_))
            )
        });
        if !compatible {
            let mut values: Vec<Value> = (0..len).map(|i| self.value(i)).collect();
            for (i, val) in patches {
                values[*i] = val.clone();
            }
            return Column::from_values(values);
        }
        let needs_bitmap = self.validity().is_some() || patches.iter().any(|(_, v)| v.is_null());
        let mut validity = needs_bitmap
            .then(|| self.validity().cloned().unwrap_or_else(|| Bitmap::all_valid(len)));
        let mut data = self.data().clone();
        for (i, val) in patches {
            if val.is_null() {
                if let Some(b) = &mut validity {
                    b.clear(*i);
                }
                continue;
            }
            match (&mut data, val) {
                (ColumnData::Int(v), Value::Int(x)) => v[*i] = *x,
                (ColumnData::Float(v), Value::Float(x)) => v[*i] = *x,
                (ColumnData::Bool(v), Value::Bool(x)) => v[*i] = *x,
                (ColumnData::Str(v), Value::Str(s)) => v[*i] = Arc::clone(s),
                _ => unreachable!("patch compatibility checked above"),
            }
            if let Some(b) = &mut validity {
                b.set(*i);
            }
        }
        Column::from_parts(data, validity)
    }

    /// Appends owned values to the column (copy-on-write).  A tail whose
    /// values match the column's typed representation keeps it typed; a
    /// mismatch degrades to [`ColumnData::Mixed`] via [`Column::concat`]'s
    /// lossless fallback.
    pub fn append_values(&self, tail: Vec<Value>) -> Column {
        if tail.is_empty() {
            return self.clone();
        }
        if self.is_empty() {
            // An empty column carries no type commitment: infer fresh.
            return Column::from_values(tail);
        }
        self.concat(&Column::from_values(tail))
    }

    /// Concatenates two columns.  Matching typed variants stay typed;
    /// anything else degrades to [`ColumnData::Mixed`] (still lossless).
    pub fn concat(&self, other: &Column) -> Column {
        let (n, m) = (self.len(), other.len());
        let concat_validity = || -> Option<Bitmap> {
            if self.validity().is_none() && other.validity().is_none() {
                return None;
            }
            let mut out = Bitmap::all_invalid(n + m);
            for i in 0..n {
                if !self.is_null(i) {
                    out.set(i);
                }
            }
            for j in 0..m {
                if !other.is_null(j) {
                    out.set(n + j);
                }
            }
            Some(out)
        };
        match (self.data(), other.data()) {
            (ColumnData::Int(a), ColumnData::Int(b)) => Column::from_parts(
                ColumnData::Int(a.iter().chain(b.iter()).copied().collect()),
                concat_validity(),
            ),
            (ColumnData::Float(a), ColumnData::Float(b)) => Column::from_parts(
                ColumnData::Float(a.iter().chain(b.iter()).copied().collect()),
                concat_validity(),
            ),
            (ColumnData::Bool(a), ColumnData::Bool(b)) => Column::from_parts(
                ColumnData::Bool(a.iter().chain(b.iter()).copied().collect()),
                concat_validity(),
            ),
            (ColumnData::Str(a), ColumnData::Str(b)) => Column::from_parts(
                ColumnData::Str(a.iter().chain(b.iter()).cloned().collect()),
                concat_validity(),
            ),
            _ => {
                let mut values = Vec::with_capacity(n + m);
                for i in 0..n {
                    values.push(self.value(i));
                }
                for j in 0..m {
                    values.push(other.value(j));
                }
                Column::from_parts(ColumnData::Mixed(values), None)
            }
        }
    }
}

// -------------------------------------------------------------- name index

#[derive(Debug, Clone, Copy, PartialEq)]
enum SuffixEntry {
    Unique(usize),
    Ambiguous,
}

/// Precomputed column-name resolution over one layout, replaying the
/// four-step rules of [`column_index_in`](crate::column_index_in) with O(1) lookups: exact match,
/// unambiguous unqualified suffix, then the case-insensitive versions of
/// both.  Build once per operator/table, resolve as many names (or rows) as
/// needed.
#[derive(Debug, Clone, Default)]
pub struct NameIndex {
    exact: HashMap<String, usize>,
    suffix: HashMap<String, SuffixEntry>,
    exact_ci: HashMap<String, usize>,
    suffix_ci: HashMap<String, SuffixEntry>,
}

impl NameIndex {
    /// Builds the index for a column layout.
    pub fn new(columns: &[String]) -> NameIndex {
        let mut idx = NameIndex::default();
        for (i, c) in columns.iter().enumerate() {
            idx.exact.entry(c.clone()).or_insert(i);
            idx.exact_ci.entry(c.to_ascii_lowercase()).or_insert(i);
            let suffix = unqualified(c);
            idx.suffix
                .entry(suffix.to_string())
                .and_modify(|e| *e = SuffixEntry::Ambiguous)
                .or_insert(SuffixEntry::Unique(i));
            idx.suffix_ci
                .entry(suffix.to_ascii_lowercase())
                .and_modify(|e| {
                    // Distinct columns sharing a suffix are ambiguous; the
                    // same physical column reached twice is not possible
                    // here because each index is inserted once.
                    *e = SuffixEntry::Ambiguous;
                })
                .or_insert(SuffixEntry::Unique(i));
        }
        idx
    }

    /// Resolves `name` exactly as [`column_index_in`](crate::column_index_in) would.
    pub fn get(&self, name: &str) -> Option<usize> {
        if let Some(&i) = self.exact.get(name) {
            return Some(i);
        }
        if let Some(SuffixEntry::Unique(i)) = self.suffix.get(name) {
            return Some(*i);
        }
        let lower = name.to_ascii_lowercase();
        if let Some(&i) = self.exact_ci.get(&lower) {
            return Some(i);
        }
        if let Some(SuffixEntry::Unique(i)) = self.suffix_ci.get(&lower) {
            return Some(*i);
        }
        None
    }
}

// ------------------------------------------------------------ column table

/// A result table in columnar form: named, typed columns of equal length.
///
/// Column names sit behind an `Arc` (operators that only reshuffle data
/// share one name vector), and the [`NameIndex`] is built lazily on first
/// by-name lookup — positional execution paths never pay for it.
#[derive(Debug, Clone, Default)]
pub struct ColumnTable {
    columns: Arc<Vec<String>>,
    cols: Vec<Column>,
    len: usize,
    index: OnceLock<Arc<NameIndex>>,
}

impl ColumnTable {
    /// Builds a columnar table from named columns.  All columns must share
    /// one length (`len` is taken from the first; callers uphold equality).
    pub fn from_columns(columns: Arc<Vec<String>>, cols: Vec<Column>, len: usize) -> ColumnTable {
        debug_assert_eq!(columns.len(), cols.len(), "name/column arity mismatch");
        debug_assert!(cols.iter().all(|c| c.len() == len), "column length mismatch");
        ColumnTable { columns, cols, len, index: OnceLock::new() }
    }

    /// Converts a row-oriented table losslessly.
    pub fn from_table(table: &Table) -> ColumnTable {
        let arity = table.arity();
        let mut cols = Vec::with_capacity(arity);
        for c in 0..arity {
            let values: Vec<Value> = table.rows.iter().map(|r| r[c].clone()).collect();
            cols.push(Column::from_values(values));
        }
        ColumnTable {
            columns: Arc::new(table.columns.clone()),
            cols,
            len: table.rows.len(),
            index: OnceLock::new(),
        }
    }

    /// Converts back to a row-oriented table losslessly.
    pub fn to_table(&self) -> Table {
        let mut rows = Vec::with_capacity(self.len);
        for i in 0..self.len {
            rows.push(self.row(i));
        }
        Table { columns: self.columns.as_ref().clone(), rows }
    }

    /// Materializes row `i` as a value vector.
    pub fn row(&self, i: usize) -> Vec<Value> {
        self.cols.iter().map(|c| c.value(i)).collect()
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the table has no rows.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Number of columns.
    pub fn arity(&self) -> usize {
        self.cols.len()
    }

    /// The column names.
    pub fn columns(&self) -> &Arc<Vec<String>> {
        &self.columns
    }

    /// The columns themselves.
    pub fn cols(&self) -> &[Column] {
        &self.cols
    }

    /// One column by position.
    pub fn col(&self, i: usize) -> &Column {
        &self.cols[i]
    }

    /// The lazily-built name-resolution index for this layout.
    pub fn name_index(&self) -> &NameIndex {
        self.index.get_or_init(|| Arc::new(NameIndex::new(&self.columns)))
    }

    /// Resolves a column name with the same rules as
    /// [`Table::column_index`], O(1) after the first lookup.
    pub fn column_index(&self, name: &str) -> Option<usize> {
        self.name_index().get(name)
    }

    /// The value at (`row`, named column), if the column resolves.
    pub fn value(&self, row: usize, column: &str) -> Option<Value> {
        let idx = self.column_index(column)?;
        (row < self.len).then(|| self.cols[idx].value(row))
    }

    /// Reuses this table's column data under new names (a rename /
    /// requalification: no payload is copied).
    pub fn with_column_names(&self, columns: Arc<Vec<String>>) -> ColumnTable {
        debug_assert_eq!(columns.len(), self.cols.len());
        ColumnTable { columns, cols: self.cols.clone(), len: self.len, index: OnceLock::new() }
    }

    /// Gathers the selected rows of every column.
    pub fn gather(&self, indices: &[u32]) -> ColumnTable {
        ColumnTable {
            columns: Arc::clone(&self.columns),
            cols: self.cols.iter().map(|c| c.gather(indices)).collect(),
            len: indices.len(),
            index: OnceLock::new(),
        }
    }

    /// Applies a [`TableDelta`](crate::table::TableDelta) column-at-a-time:
    /// cell patches per touched column ([`Column::patched`]), removals as
    /// one survivor gather shared by every column, appends as typed tail
    /// concatenation ([`Column::append_values`]).  Untouched columns of a
    /// patch-and-append-only delta are shared (`Arc` bumps, no payload
    /// copy).  The result is row-for-row identical to
    /// [`Table::apply_delta`](crate::table::Table::apply_delta) on the
    /// table's row image.
    pub fn apply_delta(&self, delta: &crate::table::TableDelta) -> ColumnTable {
        let mut cols = self.cols.clone();
        if !delta.patches.is_empty() {
            let mut per_col: BTreeMap<usize, Vec<(usize, Value)>> = BTreeMap::new();
            for (row, col, value) in &delta.patches {
                per_col.entry(*col).or_default().push((*row, value.clone()));
            }
            for (col, patches) in per_col {
                cols[col] = cols[col].patched(&patches);
            }
        }
        let mut len = self.len;
        if !delta.removed.is_empty() {
            let mut dead = vec![false; len];
            for &r in &delta.removed {
                dead[r as usize] = true;
            }
            let survivors: Vec<u32> = (0..len as u32).filter(|i| !dead[*i as usize]).collect();
            cols = cols.iter().map(|c| c.gather(&survivors)).collect();
            len = survivors.len();
        }
        if !delta.appended.is_empty() {
            for (ci, col) in cols.iter_mut().enumerate() {
                let tail: Vec<Value> = delta.appended.iter().map(|r| r[ci].clone()).collect();
                *col = col.append_values(tail);
            }
            len += delta.appended.len();
        }
        ColumnTable { columns: Arc::clone(&self.columns), cols, len, index: OnceLock::new() }
    }
}

impl PartialEq for ColumnTable {
    fn eq(&self, other: &Self) -> bool {
        self.to_table() == other.to_table()
    }
}

// --------------------------------------------------------- column instance

/// A relational instance in columnar form: one [`ColumnTable`] per
/// relation, with the same case-insensitive lookup fallback as
/// [`RelInstance::table`].
#[derive(Debug, Clone, Default)]
pub struct ColumnInstance {
    tables: BTreeMap<String, ColumnTable>,
}

impl ColumnInstance {
    /// An empty columnar instance.
    pub fn new() -> ColumnInstance {
        ColumnInstance::default()
    }

    /// Converts every table of a row-oriented instance.
    pub fn from_rel(instance: &RelInstance) -> ColumnInstance {
        let mut out = ColumnInstance::new();
        for (name, table) in instance.tables() {
            out.tables.insert(name.clone(), ColumnTable::from_table(table));
        }
        out
    }

    /// Inserts (or replaces) a table.
    pub fn insert_table(&mut self, name: impl Into<String>, table: ColumnTable) {
        self.tables.insert(name.into(), table);
    }

    /// Looks up a table by name (case-insensitive fallback, mirroring
    /// [`RelInstance::table`]).
    pub fn table(&self, name: &str) -> Option<&ColumnTable> {
        self.tables.get(name).or_else(|| {
            self.tables.iter().find(|(k, _)| k.eq_ignore_ascii_case(name)).map(|(_, v)| v)
        })
    }

    /// Iterates over `(name, table)` pairs.
    pub fn tables(&self) -> impl Iterator<Item = (&String, &ColumnTable)> {
        self.tables.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::table::column_index_in;

    fn v(i: i64) -> Value {
        Value::Int(i)
    }

    fn sample_table() -> Table {
        Table::with_rows(
            ["e.id", "e.name", "e.score"],
            vec![
                vec![v(1), Value::str("A"), Value::Float(1.5)],
                vec![v(2), Value::Null, Value::Null],
                vec![Value::Null, Value::str("C"), Value::Float(-0.5)],
            ],
        )
    }

    #[test]
    fn round_trip_is_lossless() {
        let t = sample_table();
        let ct = ColumnTable::from_table(&t);
        assert_eq!(ct.len(), 3);
        assert_eq!(ct.arity(), 3);
        assert_eq!(ct.to_table(), t);
    }

    #[test]
    fn typed_columns_are_inferred() {
        let ct = ColumnTable::from_table(&sample_table());
        assert!(matches!(ct.col(0).data(), ColumnData::Int(_)));
        assert!(matches!(ct.col(1).data(), ColumnData::Str(_)));
        assert!(matches!(ct.col(2).data(), ColumnData::Float(_)));
        assert!(ct.col(0).is_null(2));
        assert!(!ct.col(0).is_null(0));
    }

    #[test]
    fn int_float_mix_falls_back_to_mixed_losslessly() {
        let t = Table::with_rows(["x"], vec![vec![v(3)], vec![Value::Float(3.0)]]);
        let ct = ColumnTable::from_table(&t);
        assert!(matches!(ct.col(0).data(), ColumnData::Mixed(_)));
        let back = ct.to_table();
        assert!(matches!(back.rows[0][0], Value::Int(3)));
        assert!(matches!(back.rows[1][0], Value::Float(_)));
    }

    #[test]
    fn all_null_column_round_trips() {
        let t = Table::with_rows(["x"], vec![vec![Value::Null], vec![Value::Null]]);
        let ct = ColumnTable::from_table(&t);
        assert_eq!(ct.to_table(), t);
        assert!(ct.col(0).is_null(0) && ct.col(0).is_null(1));
    }

    #[test]
    fn gather_selects_and_reorders() {
        let ct = ColumnTable::from_table(&sample_table());
        let g = ct.gather(&[2, 0]);
        assert_eq!(g.len(), 2);
        assert_eq!(g.col(0).value(0), Value::Null);
        assert_eq!(g.col(0).value(1), v(1));
        assert_eq!(g.col(1).value(0), Value::str("C"));
    }

    #[test]
    fn gather_opt_produces_null_rows() {
        let ct = ColumnTable::from_table(&sample_table());
        let g = ct.cols()[0].gather_opt(&[0, NULL_IDX, 1]);
        assert_eq!(g.value(0), v(1));
        assert_eq!(g.value(1), Value::Null);
        assert_eq!(g.value(2), v(2));
    }

    #[test]
    fn concat_matches_row_concat() {
        let a = ColumnTable::from_table(&sample_table());
        let strs = Column::from_values(vec![Value::str("x"), Value::Null]);
        let ints = Column::from_values(vec![v(9), v(8)]);
        let mixed = ints.concat(&strs);
        assert_eq!(mixed.value(0), v(9));
        assert_eq!(mixed.value(2), Value::str("x"));
        assert_eq!(mixed.value(3), Value::Null);
        let same = a.col(0).concat(a.col(0));
        assert!(matches!(same.data(), ColumnData::Int(_)));
        assert_eq!(same.len(), 6);
        assert!(same.is_null(2) && same.is_null(5));
    }

    #[test]
    fn strict_eq_at_crosses_numeric_representations() {
        let ints = Column::from_values(vec![v(3), Value::Null]);
        let floats = Column::from_values(vec![Value::Float(3.0), Value::Null]);
        assert!(ints.strict_eq_at(0, &floats, 0));
        assert!(ints.strict_eq_at(1, &floats, 1), "NULL == NULL under strict equality");
        assert!(!ints.strict_eq_at(0, &floats, 1));
    }

    #[test]
    fn hashes_agree_with_value_hash() {
        use std::collections::hash_map::DefaultHasher;
        use std::hash::{Hash, Hasher};
        let col = Column::from_values(vec![v(3), Value::Float(3.0), Value::Null, Value::str("s")]);
        for i in 0..col.len() {
            let mut a = DefaultHasher::new();
            col.hash_value_into(i, &mut a);
            let mut b = DefaultHasher::new();
            col.value(i).hash(&mut b);
            assert_eq!(a.finish(), b.finish(), "slot {i}");
        }
    }

    #[test]
    fn name_index_replays_column_index_in() {
        let layouts: Vec<Vec<String>> = vec![
            vec!["c2.CID".into(), "cnt".into()],
            vec!["a.id".into(), "b.id".into()],
            vec!["a.ID".into(), "b.id".into(), "x".into()],
            vec!["E.Name".into(), "e.name".into()],
            vec![],
        ];
        let probes =
            ["c2.CID", "CID", "cid", "cnt", "missing", "id", "ID", "a.id", "A.ID", "x", "name"];
        for cols in &layouts {
            let idx = NameIndex::new(cols);
            for p in probes {
                assert_eq!(idx.get(p), column_index_in(cols, p), "layout {cols:?} probe `{p}`");
            }
        }
    }

    #[test]
    fn column_instance_lookup_is_case_insensitive() {
        let mut rel = RelInstance::new();
        rel.insert_table("Emp", Table::with_rows(["id"], vec![vec![v(1)]]));
        let ci = ColumnInstance::from_rel(&rel);
        assert!(ci.table("Emp").is_some());
        assert!(ci.table("EMP").is_some());
        assert!(ci.table("nope").is_none());
        assert_eq!(ci.table("emp").unwrap().value(0, "id"), Some(v(1)));
    }

    #[test]
    fn patched_keeps_typed_representation_and_handles_nulls() {
        let col = Column::from_values(vec![v(1), v(2), Value::Null, v(4)]);
        let p = col.patched(&[(0, v(9)), (2, v(7)), (1, Value::Null)]);
        assert!(matches!(p.data(), ColumnData::Int(_)));
        assert_eq!(p.value(0), v(9));
        assert_eq!(p.value(1), Value::Null);
        assert_eq!(p.value(2), v(7));
        assert_eq!(p.value(3), v(4));
        // A type-changing patch re-infers losslessly.
        let q = col.patched(&[(0, Value::str("s"))]);
        assert_eq!(q.value(0), Value::str("s"));
        assert_eq!(q.value(1), v(2));
        // Null patch on a column without a validity bitmap grows one.
        let dense = Column::from_values(vec![v(1), v(2)]);
        let r = dense.patched(&[(1, Value::Null)]);
        assert_eq!(r.value(1), Value::Null);
        assert_eq!(r.value(0), v(1));
    }

    #[test]
    fn append_values_stays_typed_or_degrades_losslessly() {
        let col = Column::from_values(vec![v(1), v(2)]);
        let a = col.append_values(vec![v(3), Value::Null]);
        assert!(matches!(a.data(), ColumnData::Int(_)));
        assert_eq!(a.len(), 4);
        assert_eq!(a.value(3), Value::Null);
        let b = col.append_values(vec![Value::str("x")]);
        assert!(matches!(b.data(), ColumnData::Mixed(_)));
        assert_eq!(b.value(2), Value::str("x"));
        // Appending onto an empty column adopts the tail's type.
        let empty = Column::from_values(vec![]);
        let c = empty.append_values(vec![Value::str("y")]);
        assert!(matches!(c.data(), ColumnData::Str(_)));
    }

    #[test]
    fn apply_delta_agrees_with_row_layout() {
        use crate::table::TableDelta;
        let t = sample_table();
        let ct = ColumnTable::from_table(&t);
        let deltas = vec![
            TableDelta::new(),
            TableDelta {
                patches: vec![(0, 1, Value::str("Z")), (2, 0, v(9))],
                removed: vec![1],
                appended: vec![
                    vec![v(4), Value::str("D"), Value::Float(2.5)],
                    vec![Value::Null, Value::Null, Value::Null],
                ],
            },
            TableDelta { patches: vec![], removed: vec![0, 1, 2], appended: vec![] },
            TableDelta {
                patches: vec![(1, 2, v(7))], // Int into a Float column
                removed: vec![],
                appended: vec![vec![v(5), Value::str("E"), Value::Bool(true)]],
            },
        ];
        for delta in &deltas {
            let via_rows = t.apply_delta(delta);
            let via_cols = ct.apply_delta(delta).to_table();
            assert_eq!(via_rows, via_cols, "layouts disagree on {delta:?}");
        }
        // Deltas compose: row-by-row identical again after a second hop.
        let d1 = &deltas[1];
        let d2 = TableDelta {
            patches: vec![(0, 0, v(42))],
            removed: vec![3],
            appended: vec![vec![v(6), Value::str("F"), Value::Null]],
        };
        let rows2 = t.apply_delta(d1).apply_delta(&d2);
        let cols2 = ct.apply_delta(d1).apply_delta(&d2).to_table();
        assert_eq!(rows2, cols2);
    }

    #[test]
    fn apply_delta_shares_untouched_columns() {
        use crate::table::TableDelta;
        let ct = ColumnTable::from_table(&sample_table());
        let delta = TableDelta { patches: vec![(0, 0, v(9))], removed: vec![], appended: vec![] };
        let out = ct.apply_delta(&delta);
        // Column 0 was rewritten; columns 1 and 2 are shared payloads.
        assert!(!std::ptr::eq(ct.col(0).data(), out.col(0).data()));
        assert!(std::ptr::eq(ct.col(1).data(), out.col(1).data()));
        assert!(std::ptr::eq(ct.col(2).data(), out.col(2).data()));
    }

    #[test]
    fn an_index_survives_renames_and_other_columns_patches_but_not_appends() {
        use crate::table::TableDelta;
        let ct = ColumnTable::from_table(&sample_table());
        let index: *const KeyIndex = ct.col(0).key_index();
        let renamed =
            ct.with_column_names(Arc::new(vec!["x.a".into(), "x.b".into(), "x.c".into()]));
        assert!(std::ptr::eq(renamed.col(0).key_index(), index));
        let patched = ct.apply_delta(&TableDelta {
            patches: vec![(0, 1, Value::str("Z"))],
            removed: vec![],
            appended: vec![],
        });
        assert!(std::ptr::eq(patched.col(0).key_index(), index));
        let appended = ct.apply_delta(&TableDelta {
            patches: vec![],
            removed: vec![],
            appended: vec![vec![v(1), Value::str("D"), Value::Null]],
        });
        let fresh = appended.col(0).key_index();
        assert!(!std::ptr::eq(fresh, index));
        assert_eq!(fresh.distinct_keys(), 2);
        let probe = Column::from_values(vec![v(1)]);
        let rows: Vec<&[u32]> = appended.col(0).rows_matching(&probe, 0).collect();
        assert_eq!(rows, vec![&[0, 3][..]]);
    }

    #[test]
    fn bitmap_counts_and_bounds() {
        let mut b = Bitmap::all_invalid(70);
        assert_eq!(b.count_valid(), 0);
        b.set(0);
        b.set(69);
        assert!(b.get(0) && b.get(69) && !b.get(35));
        assert_eq!(b.count_valid(), 2);
        let full = Bitmap::all_valid(70);
        assert_eq!(full.count_valid(), 70);
        assert_eq!(Bitmap::all_valid(64).count_valid(), 64);
    }
}
