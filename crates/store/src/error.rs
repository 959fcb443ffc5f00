//! The store's error taxonomy: every fallible `GraphStore` operation
//! returns a [`StoreError`], which classifies failures by what the
//! caller can do about them.
//!
//! | Variant      | Meaning                                   | Caller's move                        |
//! |--------------|-------------------------------------------|--------------------------------------|
//! | `Rejected`   | The delta failed validation               | fix the delta; store unchanged       |
//! | `Io`         | An I/O op failed, mutation rolled back    | retry later; store unchanged, live   |
//! | `Fenced`     | Store is read-only after a failure whose  | `checkpoint_now()` or reopen         |
//! |              | durability outcome cannot be trusted      |                                      |
//! | `Corrupt`    | A durable file fails validation           | inspect the named file, restore      |
//! | `Unsupported`| The operation needs a durability layer    | open the store durably               |
//! | `Internal`   | A broken internal invariant               | reopen; please report                |
//!
//! The split between `Io` and `Fenced` is the heart of the failure
//! model: a failed *write* can be rolled back (the bytes never counted),
//! so the commit is side-effect-free and the store stays live — but a
//! failed *fsync* cannot be un-asked (the kernel may have marked dirty
//! pages clean, so a retry that "succeeds" proves nothing — the
//! fsyncgate lesson), so the store fences itself instead of guessing.

use graphiti_common::{ApiError, Error};
use std::fmt;
use std::path::PathBuf;

/// Convenience alias for store-facing results.
pub type StoreResult<T> = std::result::Result<T, StoreError>;

/// Everything that can go wrong talking to a [`GraphStore`](crate::GraphStore).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StoreError {
    /// An I/O operation failed and the store rolled back cleanly: no
    /// in-memory mutation, no acknowledged bytes.  The store stays
    /// live; the operation may be retried.
    Io {
        /// What the store was doing (e.g. `"wal: appending"`).
        op: String,
        /// The file involved, when one is known.
        path: Option<PathBuf>,
        /// The underlying OS error, stringified.
        message: String,
    },
    /// A durable file failed validation (bad checksum, impossible
    /// length, generation gap).  Names the offending file.
    Corrupt {
        /// The file that failed validation.
        file: PathBuf,
        /// Why it was rejected.
        detail: String,
    },
    /// The delta failed schema/integrity validation.  Nothing was
    /// written or mutated.
    Rejected(Error),
    /// The store is fenced: an earlier failure left on-disk state
    /// untrustworthy, so writes are refused while reads keep serving
    /// the last published generation.  Recover with
    /// [`checkpoint_now`](crate::GraphStore::checkpoint_now) (re-captures
    /// state on fresh files) or by reopening the store.
    Fenced {
        /// Why the store fenced.
        reason: String,
    },
    /// The operation requires a durability layer and the store has none.
    Unsupported(String),
    /// An internal invariant broke (a checkpoint that cannot rebuild
    /// the store, a group committer gone before replying).  A commit
    /// that breaks one mid-apply fences the store instead.
    Internal(String),
}

impl StoreError {
    /// Builds an [`StoreError::Io`] from an OS error with context.
    pub(crate) fn io(op: impl Into<String>, path: &std::path::Path, e: std::io::Error) -> Self {
        StoreError::Io { op: op.into(), path: Some(path.to_path_buf()), message: e.to_string() }
    }

    /// Builds a [`StoreError::Corrupt`] naming the offending file.
    pub(crate) fn corrupt(file: impl Into<PathBuf>, detail: impl Into<String>) -> Self {
        StoreError::Corrupt { file: file.into(), detail: detail.into() }
    }

    /// Returns `true` for [`StoreError::Fenced`].
    pub fn is_fenced(&self) -> bool {
        matches!(self, StoreError::Fenced { .. })
    }

    /// Returns `true` for [`StoreError::Rejected`] (validation failure,
    /// store untouched).
    pub fn is_rejected(&self) -> bool {
        matches!(self, StoreError::Rejected(_))
    }

    /// Returns `true` for [`StoreError::Corrupt`].
    pub fn is_corrupt(&self) -> bool {
        matches!(self, StoreError::Corrupt { .. })
    }

    /// Returns `true` for [`StoreError::Io`].
    pub fn is_io(&self) -> bool {
        matches!(self, StoreError::Io { .. })
    }
}

impl fmt::Display for StoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StoreError::Io { op, path: Some(p), message } => {
                write!(f, "{op} `{}`: {message}", p.display())
            }
            StoreError::Io { op, path: None, message } => write!(f, "{op}: {message}"),
            StoreError::Corrupt { file, detail } => {
                write!(f, "corrupt store file `{}`: {detail}", file.display())
            }
            StoreError::Rejected(e) => write!(f, "delta rejected: {e}"),
            StoreError::Fenced { reason } => write!(f, "store is fenced (read-only): {reason}"),
            StoreError::Unsupported(m) => write!(f, "unsupported: {m}"),
            StoreError::Internal(m) => write!(f, "internal store error: {m}"),
        }
    }
}

impl std::error::Error for StoreError {}

/// Lets store errors flow into the workspace-wide [`Error`] (e.g. when
/// a tool mixes query evaluation and store mutation in one `Result`).
impl From<StoreError> for Error {
    fn from(e: StoreError) -> Error {
        match e {
            StoreError::Rejected(inner) => inner,
            StoreError::Fenced { reason } => Error::fenced(reason),
            StoreError::Io { .. } => Error::io(e.to_string()),
            StoreError::Corrupt { .. } => Error::instance(e.to_string()),
            StoreError::Unsupported(m) => Error::unsupported(m),
            StoreError::Internal(m) => Error::checker(m),
        }
    }
}

/// Maps store failures into the public façade's [`ApiError`], keeping
/// the caller-actionable classes (`Rejected`, `Fenced`, `Io`) distinct
/// so wire clients can react without parsing messages.
impl From<StoreError> for ApiError {
    fn from(e: StoreError) -> ApiError {
        match e {
            StoreError::Rejected(inner) => ApiError::Rejected(inner.to_string()),
            StoreError::Fenced { reason } => ApiError::Fenced(reason),
            StoreError::Io { .. } => ApiError::Io(e.to_string()),
            StoreError::Corrupt { .. } => ApiError::Corrupt(e.to_string()),
            StoreError::Unsupported(m) => ApiError::Unsupported(m),
            StoreError::Internal(m) => ApiError::Internal(m),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_names_the_offending_file() {
        let e = StoreError::corrupt("/tmp/db/ckpt-7.ckpt", "fails its checksum");
        assert!(e.to_string().contains("ckpt-7.ckpt"));
        assert!(e.is_corrupt());
    }

    #[test]
    fn predicates_match_variants() {
        assert!(StoreError::Fenced { reason: "x".into() }.is_fenced());
        assert!(StoreError::Rejected(Error::instance("bad")).is_rejected());
        let io = StoreError::Io { op: "wal: appending".into(), path: None, message: "boom".into() };
        assert!(io.is_io());
        assert_eq!(io.to_string(), "wal: appending: boom");
        assert!(!StoreError::Internal("x".into()).is_fenced());
    }

    #[test]
    fn converts_into_workspace_error() {
        let e: Error = StoreError::Fenced { reason: "fsync failed".into() }.into();
        assert!(e.is_fenced());
        let e: Error = StoreError::Rejected(Error::instance("dup pk")).into();
        assert_eq!(e, Error::instance("dup pk"));
    }

    #[test]
    fn converts_into_api_error() {
        let e: ApiError = StoreError::Fenced { reason: "fsync failed".into() }.into();
        assert!(e.is_fenced());
        let e: ApiError = StoreError::Rejected(Error::instance("dup pk")).into();
        assert!(e.is_rejected());
        assert!(e.to_string().contains("dup pk"));
    }
}
