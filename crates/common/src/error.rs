//! Error handling shared by every crate in the workspace.

use std::fmt;

/// Convenience alias used throughout the workspace.
pub type Result<T> = std::result::Result<T, Error>;

/// The unified error type of the Graphiti reproduction.
///
/// Variants are intentionally coarse-grained: each one identifies the
/// subsystem that failed plus a human-readable message, which is what the
/// command-line tools and the experiment harness surface to the user.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Error {
    /// A lexer or parser error (Cypher, SQL, or transformer DSL).
    Parse {
        /// Which language was being parsed (e.g. `"cypher"`, `"sql"`).
        language: &'static str,
        /// Human-readable description including position information.
        message: String,
    },
    /// A schema is malformed or a query refers to unknown schema elements.
    Schema(String),
    /// A database instance violates its schema or integrity constraints.
    Instance(String),
    /// Runtime evaluation failure (type error, unknown column, ...).
    Eval(String),
    /// The transpiler does not support the given construct.
    Unsupported(String),
    /// A transformer could not be applied or inverted.
    Transformer(String),
    /// An equivalence-checking backend failed or gave up.
    Checker(String),
    /// An I/O operation failed (durability layer, file import/export).
    Io(String),
    /// A durable store has fenced itself read-only after an I/O failure
    /// whose outcome cannot be trusted (see `graphiti-store`).
    Fenced(String),
}

/// How deeply one query text may nest, in both query languages: each
/// parenthesis, `NOT`, unary minus, subquery, aggregate call, and each link
/// of an `AND`/`OR`/arithmetic/`UNION`/join/clause chain counts one level.
/// The parsers refuse deeper text with [`Error::too_deep`], so no text can
/// overflow a 2 MiB thread stack — the server's and the worker pool's — in
/// the parser or in the passes that walk the tree after it.  The costliest
/// shape, nested subqueries, fits 60 levels in 2 MiB in a debug build; the
/// deepest query of the benchmark corpus nests 7.
pub const MAX_NESTING: usize = 32;

impl Error {
    /// Builds a parse error for `language` with the given message.
    pub fn parse(language: &'static str, message: impl Into<String>) -> Self {
        Error::Parse { language, message: message.into() }
    }

    /// The parse error for a `language` text nesting deeper than
    /// [`MAX_NESTING`].
    pub fn too_deep(language: &'static str) -> Self {
        Error::parse(language, format!("query nests deeper than {MAX_NESTING} levels"))
    }

    /// Builds a schema error.
    pub fn schema(message: impl Into<String>) -> Self {
        Error::Schema(message.into())
    }

    /// Builds an instance error.
    pub fn instance(message: impl Into<String>) -> Self {
        Error::Instance(message.into())
    }

    /// Builds an evaluation error.
    pub fn eval(message: impl Into<String>) -> Self {
        Error::Eval(message.into())
    }

    /// Builds an "unsupported construct" error.
    pub fn unsupported(message: impl Into<String>) -> Self {
        Error::Unsupported(message.into())
    }

    /// Builds a transformer error.
    pub fn transformer(message: impl Into<String>) -> Self {
        Error::Transformer(message.into())
    }

    /// Builds a checker error.
    pub fn checker(message: impl Into<String>) -> Self {
        Error::Checker(message.into())
    }

    /// Builds an I/O error.
    pub fn io(message: impl Into<String>) -> Self {
        Error::Io(message.into())
    }

    /// Builds a fenced-store error.
    pub fn fenced(message: impl Into<String>) -> Self {
        Error::Fenced(message.into())
    }

    /// Returns `true` if this error reports a fenced (read-only
    /// degraded) store.
    pub fn is_fenced(&self) -> bool {
        matches!(self, Error::Fenced(_))
    }

    /// Returns `true` if this error indicates an unsupported construct
    /// rather than a hard failure.
    pub fn is_unsupported(&self) -> bool {
        matches!(self, Error::Unsupported(_))
    }
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Error::Parse { language, message } => write!(f, "{language} parse error: {message}"),
            Error::Schema(m) => write!(f, "schema error: {m}"),
            Error::Instance(m) => write!(f, "instance error: {m}"),
            Error::Eval(m) => write!(f, "evaluation error: {m}"),
            Error::Unsupported(m) => write!(f, "unsupported: {m}"),
            Error::Transformer(m) => write!(f, "transformer error: {m}"),
            Error::Checker(m) => write!(f, "checker error: {m}"),
            Error::Io(m) => write!(f, "i/o error: {m}"),
            Error::Fenced(m) => write!(f, "store fenced: {m}"),
        }
    }
}

impl std::error::Error for Error {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_includes_subsystem() {
        let e = Error::parse("cypher", "unexpected token `)` at 12");
        assert!(e.to_string().contains("cypher"));
        assert!(e.to_string().contains("unexpected token"));
    }

    #[test]
    fn unsupported_flag() {
        assert!(Error::unsupported("variable-length paths").is_unsupported());
        assert!(!Error::eval("boom").is_unsupported());
    }

    #[test]
    fn fenced_flag() {
        assert!(Error::fenced("wal fsync failed").is_fenced());
        assert!(!Error::io("short write").is_fenced());
        assert!(Error::io("enospc").to_string().contains("i/o error"));
    }
}
