//! The hash kernel behind every hash operator: one keyed hasher and one
//! flat chained table.
//!
//! [`KeyHasher`] folds each 64-bit word it is fed into its state with one
//! folded multiply (the 128-bit product of state and key, high half XOR
//! low half).  It is fed the words [`Column::hash_value_into`] writes, or
//! those of [`hash_eq_class_into`] where equality is `sql_eq`, so the
//! words that decide which keys may collide are the ones `Value`'s `Hash`
//! writes.  Its seed and multiplier are drawn once per process from the
//! standard library's `RandomState`: the table picks a slot from a hash's
//! low bits, and an unkeyed hash would let one fixed set of keys pile into
//! one slot on every run.
//!
//! [`HashTable`] is a slot array of chain heads, a next-entry array and
//! the stored 64-bit hash of every entry.  Entries are numbered `0..n`
//! (rows of a build input, or groups in first-seen order); nothing is
//! allocated per slot or per chain.  A lookup walks one chain and yields
//! only entries whose stored hash equals the probe's, in ascending entry
//! order; callers verify each candidate against their own equality, so a
//! hash collision costs a comparison and never a wrong answer.  Since
//! chains are ordered, no output order depends on a hash value.
//!
//! [`KeyIndex`] is the same kernel kept with a column: its non-`NULL` rows
//! grouped by key, so the rows that hold a given key come back without
//! hashing the column again.

use crate::column::{Column, ColumnData};
use graphiti_common::Value;
use std::hash::{BuildHasher, Hash, Hasher};
use std::sync::OnceLock;

/// An empty slot, and the end of a chain.
const NONE: u32 = u32::MAX;

/// `a * b` as a 128-bit product, high half XOR low half.
#[inline]
fn folded_multiply(a: u64, b: u64) -> u64 {
    let full = u128::from(a) * u128::from(b);
    (full as u64) ^ ((full >> 64) as u64)
}

/// The process's seed and (odd) multiplier.
fn keys() -> [u64; 2] {
    static KEYS: OnceLock<[u64; 2]> = OnceLock::new();
    *KEYS.get_or_init(|| {
        let state = std::collections::hash_map::RandomState::new();
        [state.hash_one(0u64), state.hash_one(1u64) | 1]
    })
}

/// A folded-multiply [`Hasher`] under the process's keys.
#[derive(Debug, Clone, Copy)]
pub struct KeyHasher {
    acc: u64,
    multiplier: u64,
}

impl KeyHasher {
    /// A hasher in its initial, keyed state.
    pub fn new() -> KeyHasher {
        let [seed, multiplier] = keys();
        KeyHasher { acc: seed, multiplier }
    }
}

impl Default for KeyHasher {
    fn default() -> Self {
        KeyHasher::new()
    }
}

impl Hasher for KeyHasher {
    #[inline]
    fn write_u64(&mut self, word: u64) {
        self.acc = folded_multiply(self.acc ^ word, self.multiplier);
    }

    #[inline]
    fn write_u8(&mut self, word: u8) {
        self.write_u64(u64::from(word));
    }

    #[inline]
    fn write_u32(&mut self, word: u32) {
        self.write_u64(u64::from(word));
    }

    #[inline]
    fn write_usize(&mut self, word: usize) {
        self.write_u64(word as u64);
    }

    /// Bytes go in as their length, then little-endian 8-byte words with
    /// the last one zero-padded (the length keeps padding unambiguous).
    fn write(&mut self, bytes: &[u8]) {
        self.write_u64(bytes.len() as u64);
        let mut words = bytes.chunks_exact(8);
        for w in &mut words {
            self.write_u64(u64::from_le_bytes(w.try_into().expect("an 8-byte chunk")));
        }
        let tail = words.remainder();
        if !tail.is_empty() {
            let mut last = [0u8; 8];
            last[..tail.len()].copy_from_slice(tail);
            self.write_u64(u64::from_le_bytes(last));
        }
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.acc
    }
}

/// The hash of every row `0..len` of a key: the words
/// [`Column::hash_value_into`] writes for each key column in turn.
/// Columns are hashed one at a time, so each pass dispatches on one type.
pub fn hash_rows(keys: &[&Column], len: usize) -> Vec<u64> {
    let mut states = vec![KeyHasher::new(); len];
    for key in keys {
        for (i, state) in states.iter_mut().enumerate() {
            key.hash_value_into(i, state);
        }
    }
    states.iter().map(Hasher::finish).collect()
}

/// Writes `v`'s words for an equality that calls `Int(0)`, `0.0` and
/// `-0.0` equal and every NaN equal to every NaN (`sql_eq`, and
/// [`Value::strict_eq`] on non-`NULL` values): numbers go in by their
/// `f64` value with `-0.0` as `0.0` and one bit pattern for NaN, every
/// other value as `Value`'s `Hash` writes it.  Values that equality
/// calls equal therefore always hash alike, unlike under `Value`'s own
/// `Hash`.
pub fn hash_eq_class_into(v: &Value, state: &mut impl Hasher) {
    match v {
        Value::Int(i) => canonical_bits(*i as f64).hash(state),
        Value::Float(f) => canonical_bits(*f).hash(state),
        other => other.hash(state),
    }
}

/// One bit pattern per `f64` equality class: `-0.0` as `0.0`, every NaN
/// as one NaN.
fn canonical_bits(f: f64) -> u64 {
    if f.is_nan() {
        f64::NAN.to_bits()
    } else if f == 0.0 {
        0
    } else {
        f.to_bits()
    }
}

/// A flat chained hash table over entries numbered from `0`.
///
/// Built in one step over known hashes ([`HashTable::build`]: a join's
/// build input) or grown one entry at a time ([`first_seen`]: groups and
/// distinct values in first-seen order).  Either way each chain lists its
/// entries in ascending order, and [`HashTable::matches`] yields those
/// whose stored hash equals the probe's.
#[derive(Debug, Clone)]
pub struct HashTable {
    /// `slot = hash & mask`.
    mask: u64,
    /// The first entry of each slot's chain.
    heads: Vec<u32>,
    /// The entry after each entry in its chain.
    next: Vec<u32>,
    /// Each entry's hash.
    hashes: Vec<u64>,
}

impl HashTable {
    /// An empty table with one slot or more per expected entry, rounded up
    /// to a power of two.  It never resizes: entries past `capacity` only
    /// lengthen chains.
    fn with_capacity(capacity: usize) -> HashTable {
        HashTable::with_entries(
            capacity,
            Vec::with_capacity(capacity),
            Vec::with_capacity(capacity),
        )
    }

    /// A table with no chains, sized for `capacity` entries, over the
    /// given entry arrays.
    fn with_entries(capacity: usize, next: Vec<u32>, hashes: Vec<u64>) -> HashTable {
        let slots = capacity.max(1).next_power_of_two();
        HashTable { mask: slots as u64 - 1, heads: vec![NONE; slots], next, hashes }
    }

    /// A table over entries `0..hashes.len()`, entry `i` with hash
    /// `hashes[i]`, leaving out every entry for which `skip` holds (a
    /// left-out entry keeps its number and is never yielded).
    pub fn build(hashes: Vec<u64>, skip: impl Fn(usize) -> bool) -> HashTable {
        let mut table = HashTable::with_entries(hashes.len(), vec![NONE; hashes.len()], hashes);
        // Prepending from the last entry down leaves every chain ascending.
        for i in (0..table.hashes.len()).rev() {
            if skip(i) {
                continue;
            }
            let slot = (table.hashes[i] & table.mask) as usize;
            table.next[i] = table.heads[slot];
            table.heads[slot] = i as u32;
        }
        table
    }

    /// A table over the rows `0..len` of a key, hashed by [`hash_rows`],
    /// leaving out every row with a `NULL` in some key column (an
    /// equi-join never matches `NULL`).
    pub fn build_on_keys(keys: &[&Column], len: usize) -> HashTable {
        HashTable::build(hash_rows(keys, len), |i| keys.iter().any(|k| k.is_null(i)))
    }

    /// The entries whose hash is `hash`, in ascending order.
    #[inline]
    pub fn matches(&self, hash: u64) -> Matches<'_> {
        Matches { table: self, hash, at: self.heads[(hash & self.mask) as usize] }
    }

    /// The first entry with hash `hash` that `eq` accepts, as `(entry,
    /// false)`; or, if there is none, a new entry numbered after every
    /// existing one and appended to the end of its chain, as `(entry,
    /// true)`.
    fn find_or_insert(&mut self, hash: u64, mut eq: impl FnMut(u32) -> bool) -> (u32, bool) {
        let slot = (hash & self.mask) as usize;
        let mut last = NONE;
        let mut at = self.heads[slot];
        while at != NONE {
            if self.hashes[at as usize] == hash && eq(at) {
                return (at, false);
            }
            last = at;
            at = self.next[at as usize];
        }
        let entry = self.hashes.len() as u32;
        self.hashes.push(hash);
        self.next.push(NONE);
        if last == NONE {
            self.heads[slot] = entry;
        } else {
            self.next[last as usize] = entry;
        }
        (entry, true)
    }
}

/// The entries of one chain whose hash equals the probe's (see
/// [`HashTable::matches`]).
#[derive(Debug, Clone)]
pub struct Matches<'a> {
    table: &'a HashTable,
    hash: u64,
    at: u32,
}

impl Iterator for Matches<'_> {
    type Item = u32;

    #[inline]
    fn next(&mut self) -> Option<u32> {
        while self.at != NONE {
            let entry = self.at;
            self.at = self.table.next[entry as usize];
            if self.table.hashes[entry as usize] == self.hash {
                return Some(entry);
            }
        }
        None
    }
}

/// Items numbered by equality class, first seen first (see
/// [`first_seen`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FirstSeen {
    /// Each item's class.
    pub class_of: Vec<u32>,
    /// Each class's first item, ascending.
    pub firsts: Vec<u32>,
}

/// Numbers the items `0..hashes.len()` by equality class in first-seen
/// order: item `i` joins the first class whose first item `f` hashes alike
/// and satisfies `eq(i, f)`, or else opens a class of its own.  Items are
/// only ever compared with a class's first item, so `eq` need not be
/// transitive; `hash` must give items that `eq` calls equal the same
/// hash.  One table serves every class, grown one class at a time.
pub fn first_seen(hashes: &[u64], eq: impl Fn(usize, usize) -> bool) -> FirstSeen {
    let mut table = HashTable::with_capacity(hashes.len());
    let mut firsts: Vec<u32> = Vec::new();
    let mut class_of = Vec::with_capacity(hashes.len());
    for (i, &h) in hashes.iter().enumerate() {
        let (class, new) = table.find_or_insert(h, |c| eq(i, firsts[c as usize] as usize));
        if new {
            firsts.push(i as u32);
        }
        class_of.push(class);
    }
    FirstSeen { class_of, firsts }
}

/// Counting sort of `0..keys.len()` by key, stable: the positions with
/// key `k` come out as `order[offsets[k]..offsets[k + 1]]`, ascending.
/// Every key must be below `buckets`.
pub fn counting_sort(keys: &[u32], buckets: usize) -> (Vec<u32>, Vec<u32>) {
    let mut offsets = vec![0u32; buckets + 1];
    for &k in keys {
        offsets[k as usize + 1] += 1;
    }
    for b in 0..buckets {
        offsets[b + 1] += offsets[b];
    }
    let mut next = offsets.clone();
    let mut order = vec![0u32; keys.len()];
    for (i, &k) in keys.iter().enumerate() {
        order[next[k as usize] as usize] = i as u32;
        next[k as usize] += 1;
    }
    (order, offsets)
}

/// A column's key index: its non-`NULL` rows grouped by key, each group in
/// ascending row order, plus its `NULL` rows.
///
/// Keys are equal as a hash join calls them equal: the same
/// [`Column::hash_value_into`] words, verified by [`Column::strict_eq_at`].
/// In a [`ColumnData::Mixed`] column a group also holds one representation
/// only, so every group holds one exact value and a probe equals either
/// all of a group's rows or none: [`Column::rows_matching`] returns exactly
/// the rows a hash join would pair with the probe.  `NULL` is never a key.
///
/// Built on first use by [`Column::key_index`] and kept with the column's
/// payload.
#[derive(Debug)]
pub struct KeyIndex {
    /// One entry per group, under its key's hash.
    groups: HashTable,
    /// Group `g`'s rows are `rows[offsets[g]..offsets[g + 1]]`.
    rows: Vec<u32>,
    offsets: Vec<u32>,
    /// The rows holding `NULL`, ascending.
    nulls: Vec<u32>,
}

impl KeyIndex {
    /// Indexes every row of `col`.
    pub(crate) fn build(col: &Column) -> KeyIndex {
        let len = col.len();
        let (live, nulls): (Vec<u32>, Vec<u32>) =
            (0..len as u32).partition(|&r| !col.is_null(r as usize));
        let hashes = hash_rows(&[col], len);
        let live_hashes: Vec<u64> = live.iter().map(|&r| hashes[r as usize]).collect();
        let mixed = match col.data() {
            ColumnData::Mixed(values) => Some(values),
            _ => None,
        };
        let classes = first_seen(&live_hashes, |a, b| {
            let (a, b) = (live[a] as usize, live[b] as usize);
            col.strict_eq_at(a, col, b)
                && mixed
                    .is_none_or(|v| std::mem::discriminant(&v[a]) == std::mem::discriminant(&v[b]))
        });
        let (order, offsets) = counting_sort(&classes.class_of, classes.firsts.len());
        let group_hashes = classes.firsts.iter().map(|&i| live_hashes[i as usize]).collect();
        KeyIndex {
            groups: HashTable::build(group_hashes, |_| false),
            rows: order.iter().map(|&i| live[i as usize]).collect(),
            offsets,
            nulls,
        }
    }

    /// The number of distinct keys.
    pub fn distinct_keys(&self) -> usize {
        self.offsets.len() - 1
    }

    /// The rows holding `NULL`, ascending.
    pub fn nulls(&self) -> &[u32] {
        &self.nulls
    }

    /// The groups of `col`, the column this index was built over, whose
    /// key equals slot `j` of `probe`; see [`Column::rows_matching`].
    pub(crate) fn matching<'a>(
        &'a self,
        col: &'a Column,
        probe: &'a Column,
        j: usize,
    ) -> impl Iterator<Item = &'a [u32]> + 'a {
        let candidates = (!probe.is_null(j)).then(|| {
            let mut h = KeyHasher::new();
            probe.hash_value_into(j, &mut h);
            self.groups.matches(h.finish())
        });
        candidates.into_iter().flatten().filter_map(move |g| {
            let rows = &self.rows
                [self.offsets[g as usize] as usize..self.offsets[g as usize + 1] as usize];
            col.strict_eq_at(rows[0] as usize, probe, j).then_some(rows)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn column(values: Vec<Value>) -> Column {
        Column::from_values(values)
    }

    #[test]
    fn chains_come_out_in_ascending_row_order() {
        // Every row hashes alike, so all share one chain.
        let table = HashTable::build(vec![7; 10], |_| false);
        assert_eq!(table.matches(7).collect::<Vec<_>>(), (0..10).collect::<Vec<_>>());
        assert_eq!(table.matches(8).count(), 0);
        // Two hashes in one slot: each probe sees only its own rows, in
        // order.
        let slots = (table.mask + 1) as u64;
        let hashes: Vec<u64> = (0..12u64).map(|i| if i % 3 == 0 { 5 } else { 5 + slots }).collect();
        let table = HashTable::build(hashes, |_| false);
        assert_eq!(table.matches(5).collect::<Vec<_>>(), vec![0, 3, 6, 9]);
        assert_eq!(table.matches(5 + slots).collect::<Vec<_>>(), vec![1, 2, 4, 5, 7, 8, 10, 11]);
        // Grown one entry at a time, chains keep insertion order.
        let mut grown = HashTable::with_capacity(2);
        for i in 0..6u32 {
            assert_eq!(grown.find_or_insert(u64::from(i % 2), |_| false), (i, true));
        }
        assert_eq!(grown.matches(0).collect::<Vec<_>>(), vec![0, 2, 4]);
        assert_eq!(grown.matches(1).collect::<Vec<_>>(), vec![1, 3, 5]);
    }

    #[test]
    fn find_or_insert_returns_the_first_accepted_entry() {
        let mut table = HashTable::with_capacity(4);
        assert_eq!(table.find_or_insert(9, |_| unreachable!()), (0, true));
        assert_eq!(table.find_or_insert(9, |_| false), (1, true));
        assert_eq!(table.find_or_insert(9, |e| e == 1), (1, false));
        assert_eq!(table.find_or_insert(9, |_| true), (0, false));
        // A different hash never reaches `eq`, even in the same slot.
        assert_eq!(table.find_or_insert(9 + 4, |_| panic!("hash differs")), (2, true));
        assert_eq!(table.hashes.len(), 3);
    }

    #[test]
    fn null_keys_are_never_inserted() {
        let a = column(vec![Value::Int(1), Value::Null, Value::Int(1), Value::Int(2)]);
        let b = column(vec![Value::str("x"), Value::str("x"), Value::Null, Value::str("x")]);
        let table = HashTable::build_on_keys(&[&a, &b], 4);
        let hashes = hash_rows(&[&a, &b], 4);
        assert_eq!(table.hashes.len(), 4);
        // Rows 1 and 2 hold a NULL: no probe finds them, not even their
        // own hash.
        assert_eq!(table.matches(hashes[1]).count(), 0);
        assert_eq!(table.matches(hashes[2]).count(), 0);
        assert_eq!(table.matches(hashes[0]).collect::<Vec<_>>(), vec![0]);
        assert_eq!(table.matches(hashes[3]).collect::<Vec<_>>(), vec![3]);
        // An all-NULL key column leaves the table empty of chains.
        let nulls = column(vec![Value::Null; 3]);
        let table = HashTable::build_on_keys(&[&nulls], 3);
        assert!(hash_rows(&[&nulls], 3).iter().all(|&h| table.matches(h).count() == 0));
    }

    #[test]
    fn row_hashes_follow_the_value_hash_words() {
        // `Int(3)` and `Float(3.0)` write the same words; `Int(2^53)` and
        // `Int(2^53 + 1)` too (their `f64` images are equal).
        let ints = column(vec![Value::Int(3), Value::Int(1 << 53), Value::Int((1 << 53) + 1)]);
        let floats = column(vec![Value::Float(3.0), Value::Float(9007199254740992.0)]);
        let (hi, hf) = (hash_rows(&[&ints], 3), hash_rows(&[&floats], 2));
        assert_eq!(hi[0], hf[0]);
        assert_eq!(hi[1], hi[2]);
        assert_eq!(hi[1], hf[1]);
        // `0.0` and `-0.0` write different words there, and the same ones
        // under `hash_eq_class_into`.
        let zeros = column(vec![Value::Float(0.0), Value::Float(-0.0)]);
        let hz = hash_rows(&[&zeros], 2);
        assert_ne!(hz[0], hz[1]);
        let eq_class = |v: &Value| {
            let mut h = KeyHasher::new();
            hash_eq_class_into(v, &mut h);
            h.finish()
        };
        assert_eq!(eq_class(&Value::Float(0.0)), eq_class(&Value::Float(-0.0)));
        assert_eq!(eq_class(&Value::Int(0)), eq_class(&Value::Float(-0.0)));
        let (nan_a, nan_b) =
            (f64::from_bits(0x7ff8_0000_0000_0001), f64::from_bits(0xfff8_0000_0000_0002));
        assert_eq!(eq_class(&Value::Float(nan_a)), eq_class(&Value::Float(nan_b)));
        // Strings hash by content, not by allocation.
        let s = column(vec![Value::str_owned("abcdefghij"), Value::str("abcdefghij")]);
        let hs = hash_rows(&[&s], 2);
        assert_eq!(hs[0], hs[1]);
        let t = column(vec![Value::str("ab"), Value::str_owned("ab\0")]);
        let ht = hash_rows(&[&t], 2);
        assert_ne!(ht[0], ht[1]);
    }

    #[test]
    fn first_seen_compares_only_with_first_items() {
        // Equal under `eq` when the values differ by at most one: 2 joins
        // 1's class, 3 is compared with 1 only and opens a class, and 4
        // joins 3's.  A different hash keeps 1 apart from 1 however `eq`
        // answers.
        let values = [1i64, 2, 3, 4, 1, 1];
        let hashes = [0, 0, 0, 0, 0, 9];
        let got = first_seen(&hashes, |i, j| (values[i] - values[j]).abs() <= 1);
        assert_eq!(got.class_of, vec![0, 0, 1, 1, 0, 2]);
        assert_eq!(got.firsts, vec![0, 2, 5]);
        assert_eq!(first_seen(&[], |_, _| true), FirstSeen { class_of: vec![], firsts: vec![] });
    }

    /// The rows a hash join pairs with slot `j` of `probe`: the join
    /// kernel itself, built over `col`.
    fn join_matches(col: &Column, probe: &Column, j: usize) -> Vec<u32> {
        if probe.is_null(j) {
            return Vec::new();
        }
        let table = HashTable::build_on_keys(&[col], col.len());
        let h = hash_rows(&[probe], probe.len())[j];
        table.matches(h).filter(|&r| col.strict_eq_at(r as usize, probe, j)).collect()
    }

    /// The index's rows for slot `j` of `probe`, group by group.
    fn index_matches(col: &Column, probe: &Column, j: usize) -> Vec<Vec<u32>> {
        col.rows_matching(probe, j).map(<[u32]>::to_vec).collect()
    }

    #[test]
    fn index_groups_come_back_in_ascending_row_order() {
        let col = column([3, 1, 3, 2, 1, 3, 2, 3].into_iter().map(Value::Int).collect());
        let index = col.key_index();
        assert_eq!(index.distinct_keys(), 3);
        let probe = column(vec![Value::Int(3), Value::Int(1), Value::Int(2), Value::Int(4)]);
        assert_eq!(index_matches(&col, &probe, 0), vec![vec![0, 2, 5, 7]]);
        assert_eq!(index_matches(&col, &probe, 1), vec![vec![1, 4]]);
        assert_eq!(index_matches(&col, &probe, 2), vec![vec![3, 6]]);
        assert!(index_matches(&col, &probe, 3).is_empty());
        // Strings and booleans group by value too.
        let words = column(vec![Value::str("b"), Value::str("a"), Value::str_owned("b")]);
        let probe = column(vec![Value::str("b")]);
        assert_eq!(index_matches(&words, &probe, 0), vec![vec![0, 2]]);
        let flags = column(vec![Value::Bool(true), Value::Bool(false), Value::Bool(true)]);
        assert_eq!(index_matches(&flags, &column(vec![Value::Bool(true)]), 0), vec![vec![0, 2]]);
    }

    #[test]
    fn null_is_never_a_key() {
        let col = column(vec![Value::Null, Value::Int(1), Value::Null, Value::Int(1)]);
        let index = col.key_index();
        assert_eq!(index.distinct_keys(), 1);
        assert_eq!(index.nulls(), &[0, 2]);
        let probe = column(vec![Value::Null, Value::Int(1)]);
        assert!(index_matches(&col, &probe, 0).is_empty());
        assert_eq!(index_matches(&col, &probe, 1), vec![vec![1, 3]]);
        // An all-NULL column has no key at all; in a mixed column NULL is
        // no key either.
        let nulls = column(vec![Value::Null; 3]);
        assert_eq!(nulls.key_index().distinct_keys(), 0);
        assert_eq!(nulls.key_index().nulls(), &[0, 1, 2]);
        let mixed = column(vec![Value::Null, Value::str("x"), Value::Int(1)]);
        assert_eq!(mixed.key_index().distinct_keys(), 2);
        assert_eq!(mixed.key_index().nulls(), &[0]);
    }

    #[test]
    fn zero_and_nan_keys_follow_the_join_equality() {
        let (nan_a, nan_b) =
            (f64::from_bits(0x7ff8_0000_0000_0001), f64::from_bits(0xfff8_0000_0000_0002));
        let big = 1i64 << 53;
        let columns = [
            vec![Value::Float(0.0), Value::Float(-0.0), Value::Float(nan_a), Value::Float(nan_b)],
            vec![Value::Int(0), Value::Float(-0.0), Value::Float(0.0), Value::Float(nan_a)],
            vec![Value::Int(big), Value::Int(big + 1), Value::Float(big as f64), Value::Int(big)],
            vec![Value::Int(big), Value::Int(big + 1), Value::Null, Value::Int(big + 1)],
        ];
        let probes = column(vec![
            Value::Int(0),
            Value::Float(0.0),
            Value::Float(-0.0),
            Value::Float(nan_a),
            Value::Float(nan_b),
            Value::Float(f64::NAN),
            Value::Int(big),
            Value::Int(big + 1),
            Value::Float(big as f64),
        ]);
        for values in columns {
            let col = column(values.clone());
            for j in 0..probes.len() {
                let mut got: Vec<u32> = index_matches(&col, &probes, j).concat();
                got.sort_unstable();
                assert_eq!(got, join_matches(&col, &probes, j), "{values:?} probed by slot {j}");
            }
        }
        // Spelled out: `0.0` and `-0.0` hash apart, so they are two keys,
        // as they are two join keys; so are NaNs with different bits.
        let zeros = column(vec![Value::Float(0.0), Value::Float(-0.0), Value::Float(0.0)]);
        assert_eq!(zeros.key_index().distinct_keys(), 2);
        assert_eq!(index_matches(&zeros, &probes, 0), vec![vec![0, 2]]);
        assert_eq!(index_matches(&zeros, &probes, 2), vec![vec![1]]);
        let nans = column(vec![Value::Float(nan_a), Value::Float(nan_b), Value::Float(nan_a)]);
        assert_eq!(nans.key_index().distinct_keys(), 2);
        assert_eq!(index_matches(&nans, &probes, 3), vec![vec![0, 2]]);
        // 2^53 as a float equals both integers it rounds from: one probe,
        // two groups.
        let ints = column(vec![Value::Int(big), Value::Int(big + 1), Value::Int(big)]);
        assert_eq!(ints.key_index().distinct_keys(), 2);
        assert_eq!(index_matches(&ints, &probes, 8), vec![vec![0, 2], vec![1]]);
        assert_eq!(index_matches(&ints, &probes, 7), vec![vec![1]]);
    }

    /// A column of one representation (or a mixed one), `NULL`s included,
    /// over the values on which equality is most fragile.
    fn arb_column() -> impl Strategy<Value = Vec<Value>> {
        let big = 1i64 << 53;
        let ints = sample::select(vec![0i64, 1, 2, -1, big, big + 1]).prop_map(Value::Int).boxed();
        let floats = sample::select(vec![
            0.0,
            -0.0,
            1.0,
            2.5,
            big as f64,
            f64::NAN,
            f64::from_bits(0x7ff8_0000_0000_0001),
        ])
        .prop_map(Value::Float)
        .boxed();
        let strs = sample::select(vec!["", "a", "b"]).prop_map(Value::str).boxed();
        let bools = any::<bool>().prop_map(Value::Bool).boxed();
        let with_nulls = |s: BoxedStrategy<Value>| {
            collection::vec(prop_oneof![Just(Value::Null), s.clone(), s], 0..40)
        };
        // Integers and floats whose hash words collide (2^53, 2^53 + 1 and
        // 2^53 as a float), or whose equality differs from their words
        // (0 and -0.0), mixed in one column.
        let numbers = prop_oneof![ints.clone(), floats.clone()].boxed();
        let mixed = prop_oneof![ints.clone(), floats.clone(), strs.clone(), bools.clone()].boxed();
        prop_oneof![
            with_nulls(ints),
            with_nulls(floats),
            with_nulls(strs),
            with_nulls(bools),
            with_nulls(numbers),
            with_nulls(mixed),
        ]
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// For every probe, the index returns exactly the rows the hash join
        /// pairs with it; every non-`NULL` row sits in exactly one group,
        /// and the groups number the distinct keys.
        #[test]
        fn index_lookups_equal_the_join_kernel(values in arb_column(), probes in arb_column()) {
            let (col, probe) = (column(values), column(probes));
            let index = col.key_index();
            for j in 0..probe.len() {
                let groups = index_matches(&col, &probe, j);
                prop_assert!(groups.iter().all(|g| g.windows(2).all(|w| w[0] < w[1])));
                let mut got = groups.concat();
                got.sort_unstable();
                prop_assert_eq!(got, join_matches(&col, &probe, j));
            }
            let mut seen = vec![0u32; col.len()];
            let mut groups = 0;
            for r in 0..col.len() {
                let found = col.rows_matching(&col, r).collect::<Vec<_>>();
                if col.is_null(r) {
                    prop_assert!(found.is_empty());
                    continue;
                }
                // A row finds its own group, whose first row numbers it.
                let own: Vec<_> = found.into_iter().filter(|g| g.contains(&(r as u32))).collect();
                prop_assert_eq!(own.len(), 1);
                if own[0][0] == r as u32 {
                    groups += 1;
                    for &m in own[0] {
                        seen[m as usize] += 1;
                    }
                }
            }
            prop_assert_eq!(groups, index.distinct_keys());
            for (r, n) in seen.iter().enumerate() {
                prop_assert_eq!(*n, u32::from(!col.is_null(r)), "row {}", r);
            }
            let nulls: Vec<u32> = (0..col.len() as u32).filter(|&r| col.is_null(r as usize)).collect();
            prop_assert_eq!(index.nulls(), nulls.as_slice());
        }
    }

    #[test]
    fn counting_sort_is_stable() {
        let (order, offsets) = counting_sort(&[2, 0, 2, 1, 0, 2], 4);
        assert_eq!(order, vec![1, 4, 3, 0, 2, 5]);
        assert_eq!(offsets, vec![0, 2, 3, 6, 6]);
        assert_eq!(counting_sort(&[], 0), (vec![], vec![0]));
    }
}
