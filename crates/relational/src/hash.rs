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

use crate::column::Column;
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

#[cfg(test)]
mod tests {
    use super::*;

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

    #[test]
    fn counting_sort_is_stable() {
        let (order, offsets) = counting_sort(&[2, 0, 2, 1, 0, 2], 4);
        assert_eq!(order, vec![1, 4, 3, 0, 2, 5]);
        assert_eq!(offsets, vec![0, 2, 3, 6, 6]);
        assert_eq!(counting_sort(&[], 0), (vec![], vec![0]));
    }
}
