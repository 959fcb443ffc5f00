//! Copy-on-write arena storage for [`GraphInstance`](crate::GraphInstance).
//!
//! A [`CowVec`] is a vector with structural sharing.  Its elements sit in
//! chunks of [`CHUNK`] slots: each chunk lives behind an `Arc`, and each
//! slot holds an `Arc` of its element.  Cloning a `CowVec` bumps one
//! refcount per chunk.  A write copies only what other clones still
//! share: the chunk it lands in (one allocation plus `CHUNK` refcount
//! bumps — the slots are shared, not copied) and then the element itself.
//! So no clone ever observes another's writes, and an element that no
//! write touched stays one allocation in every clone.

use serde::{Deserialize, Serialize};
use std::fmt;
use std::ops::{Index, IndexMut};
use std::sync::Arc;

/// Slots per chunk.
const CHUNK: usize = 32;

/// A vector whose clone costs one refcount bump per [`CHUNK`] elements.
///
/// Invariant: element `i` sits in chunk `i / CHUNK` at slot `i % CHUNK`,
/// and exactly the slots below `len` are filled.
#[derive(Clone, Serialize, Deserialize)]
pub(crate) struct CowVec<T> {
    chunks: Vec<Arc<[Option<Arc<T>>; CHUNK]>>,
    len: usize,
}

impl<T> CowVec<T> {
    pub(crate) fn len(&self) -> usize {
        self.len
    }

    pub(crate) fn get(&self, i: usize) -> Option<&T> {
        self.chunks.get(i / CHUNK)?[i % CHUNK].as_deref()
    }

    pub(crate) fn iter(&self) -> impl DoubleEndedIterator<Item = &T> + '_ {
        self.chunks.iter().flat_map(|chunk| chunk.iter().flatten().map(|slot| &**slot))
    }

    pub(crate) fn push(&mut self, value: T) {
        if self.len.is_multiple_of(CHUNK) {
            self.chunks.push(Arc::new([const { None }; CHUNK]));
        }
        let last = self.chunks.last_mut().expect("a chunk with room exists");
        Arc::make_mut(last)[self.len % CHUNK] = Some(Arc::new(value));
        self.len += 1;
    }
}

impl<T: Clone> CowVec<T> {
    /// Mutable access to element `i`, first copying its chunk and then
    /// the element if another clone shares them.
    pub(crate) fn get_mut(&mut self, i: usize) -> Option<&mut T> {
        let chunk = self.chunks.get_mut(i / CHUNK)?;
        chunk[i % CHUNK].as_ref()?;
        Arc::make_mut(chunk)[i % CHUNK].as_mut().map(Arc::make_mut)
    }

    /// Removes element `i`, moving the last element into its slot (the
    /// moved element's allocation is kept, not copied).
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of bounds.
    pub(crate) fn swap_remove(&mut self, i: usize) -> T {
        assert!(i < self.len, "swap_remove index {i} out of bounds (len {})", self.len);
        self.len -= 1;
        let last_chunk = self.chunks.last_mut().expect("a non-empty vector has a last chunk");
        let last =
            Arc::make_mut(last_chunk)[self.len % CHUNK].take().expect("slots below len are filled");
        if self.len.is_multiple_of(CHUNK) {
            self.chunks.pop();
        }
        let removed = if i == self.len {
            last
        } else {
            let slot = &mut Arc::make_mut(&mut self.chunks[i / CHUNK])[i % CHUNK];
            slot.replace(last).expect("slots below len are filled")
        };
        Arc::unwrap_or_clone(removed)
    }
}

impl<T> Default for CowVec<T> {
    fn default() -> Self {
        CowVec { chunks: Vec::new(), len: 0 }
    }
}

impl<T: PartialEq> PartialEq for CowVec<T> {
    fn eq(&self, other: &Self) -> bool {
        self.len == other.len && self.iter().eq(other.iter())
    }
}

impl<T: fmt::Debug> fmt::Debug for CowVec<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

impl<T> Index<usize> for CowVec<T> {
    type Output = T;

    fn index(&self, i: usize) -> &T {
        self.chunks[i / CHUNK][i % CHUNK].as_deref().expect("index out of bounds")
    }
}

impl<T: Clone> IndexMut<usize> for CowVec<T> {
    fn index_mut(&mut self, i: usize) -> &mut T {
        self.get_mut(i).expect("index out of bounds")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn filled(n: usize) -> CowVec<Vec<usize>> {
        let mut v = CowVec::default();
        for i in 0..n {
            v.push(vec![i]);
        }
        v
    }

    #[test]
    fn a_clone_shares_every_chunk_until_a_write_copies_one() {
        let mut v = filled(3 * CHUNK + 5);
        let snapshot = v.clone();
        v[CHUNK + 1].push(99);
        assert_eq!(snapshot[CHUNK + 1], vec![CHUNK + 1], "the clone keeps its element");
        assert_eq!(v[CHUNK + 1], vec![CHUNK + 1, 99]);
        for c in 0..v.chunks.len() {
            let shared = Arc::ptr_eq(&v.chunks[c], &snapshot.chunks[c]);
            assert_eq!(shared, c != 1, "only the written chunk is copied (chunk {c})");
        }
        // The copied chunk still shares every slot it did not write.
        assert!(std::ptr::eq(&v[CHUNK], &snapshot[CHUNK]));
        assert!(!std::ptr::eq(&v[CHUNK + 1], &snapshot[CHUNK + 1]));
    }

    #[test]
    fn swap_remove_moves_the_last_element_across_chunks() {
        let mut v = filled(2 * CHUNK + 1);
        let snapshot = v.clone();
        assert_eq!(v.swap_remove(3), vec![3]);
        assert_eq!(v.len(), 2 * CHUNK);
        assert_eq!(v[3], vec![2 * CHUNK], "the last element moved into the freed slot");
        assert!(std::ptr::eq(&v[3], &snapshot[2 * CHUNK]), "moved, not copied");
        assert_eq!(v.chunks.len(), 2, "the emptied last chunk is dropped");
        assert_eq!(snapshot, filled(2 * CHUNK + 1));
        assert_eq!(v.swap_remove(2 * CHUNK - 1), vec![2 * CHUNK - 1]);
        assert_eq!(v.len(), 2 * CHUNK - 1);
        assert_eq!(v.get(2 * CHUNK - 1), None);
        assert_eq!(v.iter().next_back(), Some(&vec![2 * CHUNK - 2]));
    }
}
