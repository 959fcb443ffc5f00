//! Lightweight identifier type with case-preserving equality.
//!
//! Identifiers (labels, table names, attribute names, variable names) are
//! compared *case-insensitively* for keywords at the parser level, but once
//! they reach the data model they are treated as case-preserving strings.
//! [`Ident`] is a thin newtype over an **interned** `Arc<str>` (the same
//! interner backing [`Value::Str`](crate::Value::Str)): the data model
//! clones identifiers constantly — every node and edge carries its label
//! and property keys — so cloning an `Ident` is a reference-count bump,
//! equal identifiers share one allocation, and equality takes an
//! `Arc::ptr_eq` fast path before falling back to a byte comparison.

use crate::intern::intern;
use serde::{Deserialize, Serialize};
use std::borrow::Borrow;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::sync::Arc;

/// An identifier (label, relation name, attribute name, variable name).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Ident(Arc<str>);

impl Ident {
    /// Creates a new identifier from anything string-like, interning the
    /// backing storage (equal identifiers share one allocation).
    pub fn new(s: impl AsRef<str>) -> Self {
        Ident(intern(s.as_ref()))
    }

    /// Returns the identifier as a string slice.
    pub fn as_str(&self) -> &str {
        &self.0
    }

    /// Returns `true` if this identifier equals `other` ignoring ASCII case.
    pub fn eq_ignore_case(&self, other: &str) -> bool {
        self.0.eq_ignore_ascii_case(other)
    }

    /// Returns the underlying string (copied out of the interner).
    pub fn into_string(self) -> String {
        self.0.as_ref().to_owned()
    }

    /// The interned backing storage.
    pub fn as_arc(&self) -> &Arc<str> {
        &self.0
    }
}

impl PartialEq for Ident {
    fn eq(&self, other: &Self) -> bool {
        // Interned: equal contents are normally pointer-equal.
        Arc::ptr_eq(&self.0, &other.0) || self.0 == other.0
    }
}

impl Eq for Ident {}

impl Hash for Ident {
    fn hash<H: Hasher>(&self, state: &mut H) {
        // Must agree with `str::hash` for `Borrow<str>` map lookups.
        (*self.0).hash(state)
    }
}

impl PartialOrd for Ident {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Ident {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.as_str().cmp(other.as_str())
    }
}

impl fmt::Display for Ident {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl From<&str> for Ident {
    fn from(s: &str) -> Self {
        Ident::new(s)
    }
}

impl From<String> for Ident {
    fn from(s: String) -> Self {
        Ident::new(s)
    }
}

impl Borrow<str> for Ident {
    fn borrow(&self) -> &str {
        &self.0
    }
}

impl AsRef<str> for Ident {
    fn as_ref(&self) -> &str {
        &self.0
    }
}

impl PartialEq<str> for Ident {
    fn eq(&self, other: &str) -> bool {
        &*self.0 == other
    }
}

impl PartialEq<&str> for Ident {
    fn eq(&self, other: &&str) -> bool {
        &*self.0 == *other
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn round_trip() {
        let id = Ident::new("Concept");
        assert_eq!(id.as_str(), "Concept");
        assert_eq!(id.to_string(), "Concept");
        assert_eq!(id, "Concept");
    }

    #[test]
    fn case_insensitive_helper() {
        let id = Ident::new("MATCH");
        assert!(id.eq_ignore_case("match"));
        assert!(!id.eq_ignore_case("matc"));
    }

    #[test]
    fn usable_as_hash_key_by_str() {
        let mut set: HashSet<Ident> = HashSet::new();
        set.insert(Ident::new("emp"));
        assert!(set.contains("emp"));
        assert!(!set.contains("dept"));
    }

    #[test]
    fn interned_idents_share_one_allocation() {
        let a = Ident::new("interned-ident-probe");
        let b = Ident::new(String::from("interned-ident-") + "probe");
        let c = a.clone();
        assert!(Arc::ptr_eq(a.as_arc(), b.as_arc()), "equal idents intern to one Arc");
        assert!(Arc::ptr_eq(a.as_arc(), c.as_arc()), "clone is a refcount bump");
        assert_eq!(a, b);
    }

    #[test]
    fn ordering_matches_str_ordering() {
        let mut v = [Ident::new("b"), Ident::new("a"), Ident::new("c")];
        v.sort();
        assert_eq!(v.iter().map(Ident::as_str).collect::<Vec<_>>(), vec!["a", "b", "c"]);
    }
}
