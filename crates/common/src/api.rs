//! The unified public error surface of the serving API.
//!
//! The workspace grew two error families: [`Error`] for
//! query-language / schema / evaluation failures, and the store's typed
//! `StoreError` taxonomy for durability failures.  A wire protocol must
//! freeze **one** vocabulary, and the embedded API must report through
//! the same one so a caller cannot observe which transport it is behind.
//! [`ApiError`] is that vocabulary: every variant carries a stable
//! numeric [wire code](ApiError::code) plus a human-readable message,
//! and the pair round-trips losslessly through
//! [`ApiError::to_wire`]/[`ApiError::from_wire`] — a client
//! reconstructs exactly the error the server formatted.

use crate::Error;
use std::fmt;

/// Convenience alias for fallible session/service operations.
pub type ApiResult<T> = std::result::Result<T, ApiError>;

/// The one public error enum of the `graphiti` session API, shared
/// verbatim by the in-process embedding and the wire protocol.
///
/// The first block mirrors the query-side [`Error`] taxonomy; the second
/// block carries the store/service failures a serving front-end adds
/// (durability, admission control, protocol framing, session lifecycle).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ApiError {
    /// A lexer or parser error (message names the language).
    Parse(String),
    /// Malformed schema, or a query naming unknown schema elements.
    Schema(String),
    /// An instance violates its schema or integrity constraints.
    Instance(String),
    /// Runtime evaluation failure (type error, unknown column, ...).
    Eval(String),
    /// The construct is recognized but not supported.
    Unsupported(String),
    /// A commit delta failed incremental validation; nothing changed.
    Rejected(String),
    /// An I/O operation failed and was cleanly rolled back.
    Io(String),
    /// On-disk state failed a checksum or structural invariant.
    Corrupt(String),
    /// The store is fenced read-only after an untrustable I/O failure.
    Fenced(String),
    /// Admission control refused the request; retry later.
    Backpressure(String),
    /// A malformed, truncated, or oversized protocol frame.
    Protocol(String),
    /// The session is closed (explicitly, or by a server-side failure).
    SessionClosed(String),
    /// An internal invariant broke (including panicked workers).
    Internal(String),
    /// The request's deadline budget expired before a reply could be
    /// produced.  For commits the outcome is ambiguous: the write may
    /// still land, so retries must carry an idempotency token.
    DeadlineExceeded(String),
    /// The server is draining for shutdown and refuses new requests;
    /// retry against another (or the restarted) server.
    Draining(String),
}

impl ApiError {
    /// The stable wire code of this variant.  Codes are append-only
    /// protocol surface: existing values never change meaning.
    pub fn code(&self) -> u16 {
        match self {
            ApiError::Parse(_) => 1,
            ApiError::Schema(_) => 2,
            ApiError::Instance(_) => 3,
            ApiError::Eval(_) => 4,
            ApiError::Unsupported(_) => 5,
            ApiError::Rejected(_) => 6,
            ApiError::Io(_) => 7,
            ApiError::Corrupt(_) => 8,
            ApiError::Fenced(_) => 9,
            ApiError::Backpressure(_) => 10,
            ApiError::Protocol(_) => 11,
            ApiError::SessionClosed(_) => 12,
            ApiError::Internal(_) => 13,
            ApiError::DeadlineExceeded(_) => 14,
            ApiError::Draining(_) => 15,
        }
    }

    /// The human-readable message (without the variant prefix
    /// `Display` adds).
    pub fn message(&self) -> &str {
        match self {
            ApiError::Parse(m)
            | ApiError::Schema(m)
            | ApiError::Instance(m)
            | ApiError::Eval(m)
            | ApiError::Unsupported(m)
            | ApiError::Rejected(m)
            | ApiError::Io(m)
            | ApiError::Corrupt(m)
            | ApiError::Fenced(m)
            | ApiError::Backpressure(m)
            | ApiError::Protocol(m)
            | ApiError::SessionClosed(m)
            | ApiError::Internal(m)
            | ApiError::DeadlineExceeded(m)
            | ApiError::Draining(m) => m,
        }
    }

    /// Splits into the `(code, message)` pair a protocol frame carries.
    pub fn to_wire(&self) -> (u16, String) {
        (self.code(), self.message().to_string())
    }

    /// Rebuilds the error from its wire pair.  Unknown codes (a newer
    /// server) degrade to [`ApiError::Internal`] without losing the
    /// message.
    pub fn from_wire(code: u16, message: impl Into<String>) -> ApiError {
        let m = message.into();
        match code {
            1 => ApiError::Parse(m),
            2 => ApiError::Schema(m),
            3 => ApiError::Instance(m),
            4 => ApiError::Eval(m),
            5 => ApiError::Unsupported(m),
            6 => ApiError::Rejected(m),
            7 => ApiError::Io(m),
            8 => ApiError::Corrupt(m),
            9 => ApiError::Fenced(m),
            10 => ApiError::Backpressure(m),
            11 => ApiError::Protocol(m),
            12 => ApiError::SessionClosed(m),
            13 => ApiError::Internal(m),
            14 => ApiError::DeadlineExceeded(m),
            15 => ApiError::Draining(m),
            other => ApiError::Internal(format!("unknown error code {other}: {m}")),
        }
    }

    /// Whether the request may sensibly be retried as-is after waiting
    /// (admission-control pushback, not a hard failure).
    pub fn is_backpressure(&self) -> bool {
        matches!(self, ApiError::Backpressure(_))
    }

    /// Whether the error reports a fenced (read-only degraded) store.
    pub fn is_fenced(&self) -> bool {
        matches!(self, ApiError::Fenced(_))
    }

    /// Whether the error reports a rejected (validation-failed) delta.
    pub fn is_rejected(&self) -> bool {
        matches!(self, ApiError::Rejected(_))
    }

    /// Whether a client may safely retry the request after backing off.
    ///
    /// Retryable errors are transient serving conditions — admission
    /// pushback, an expired deadline, a draining server — where the
    /// request itself is fine.  Validation failures ([`Rejected`]), a
    /// fenced store, and protocol/internal faults are never retryable:
    /// repeating them cannot succeed and may mask real damage.  Note
    /// that retrying a timed-out or disconnected *commit* is only
    /// exactly-once when it carries an idempotency token.
    ///
    /// [`Rejected`]: ApiError::Rejected
    pub fn is_retryable(&self) -> bool {
        matches!(
            self,
            ApiError::Backpressure(_) | ApiError::DeadlineExceeded(_) | ApiError::Draining(_)
        )
    }
}

impl fmt::Display for ApiError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ApiError::Parse(m) => write!(f, "parse error: {m}"),
            ApiError::Schema(m) => write!(f, "schema error: {m}"),
            ApiError::Instance(m) => write!(f, "instance error: {m}"),
            ApiError::Eval(m) => write!(f, "evaluation error: {m}"),
            ApiError::Unsupported(m) => write!(f, "unsupported: {m}"),
            ApiError::Rejected(m) => write!(f, "commit rejected: {m}"),
            ApiError::Io(m) => write!(f, "i/o error: {m}"),
            ApiError::Corrupt(m) => write!(f, "corrupt state: {m}"),
            ApiError::Fenced(m) => write!(f, "store fenced: {m}"),
            ApiError::Backpressure(m) => write!(f, "backpressure: {m}"),
            ApiError::Protocol(m) => write!(f, "protocol error: {m}"),
            ApiError::SessionClosed(m) => write!(f, "session closed: {m}"),
            ApiError::Internal(m) => write!(f, "internal error: {m}"),
            ApiError::DeadlineExceeded(m) => write!(f, "deadline exceeded: {m}"),
            ApiError::Draining(m) => write!(f, "server draining: {m}"),
        }
    }
}

impl std::error::Error for ApiError {}

impl From<Error> for ApiError {
    fn from(e: Error) -> ApiError {
        match e {
            Error::Parse { language, message } => ApiError::Parse(format!("{language}: {message}")),
            Error::Schema(m) => ApiError::Schema(m),
            Error::Instance(m) => ApiError::Instance(m),
            Error::Eval(m) => ApiError::Eval(m),
            Error::Unsupported(m) => ApiError::Unsupported(m),
            // Transformer/checker failures cannot reach the serving
            // surface through supported requests; they fold into the
            // internal bucket rather than widening the wire vocabulary.
            Error::Transformer(m) => ApiError::Internal(format!("transformer: {m}")),
            Error::Checker(m) => ApiError::Internal(format!("checker: {m}")),
            Error::Io(m) => ApiError::Io(m),
            Error::Fenced(m) => ApiError::Fenced(m),
        }
    }
}

/// Folds an [`ApiError`] back into the query-side [`Error`] taxonomy —
/// the inverse a wire client needs when it rebuilds per-query outcomes
/// (whose error slot is an [`Error`]) from a decoded batch reply.
/// Query-side variants map back one-to-one; service-side variants fold
/// into the closest query-side class, keeping the full message.
impl From<ApiError> for Error {
    fn from(e: ApiError) -> Error {
        match e {
            ApiError::Parse(m) => Error::parse("api", m),
            ApiError::Schema(m) => Error::schema(m),
            ApiError::Instance(m) | ApiError::Rejected(m) | ApiError::Corrupt(m) => {
                Error::instance(m)
            }
            ApiError::Eval(m) => Error::eval(m),
            ApiError::Unsupported(m) => Error::unsupported(m),
            ApiError::Io(m)
            | ApiError::Backpressure(m)
            | ApiError::Protocol(m)
            | ApiError::DeadlineExceeded(m)
            | ApiError::Draining(m) => Error::io(m),
            ApiError::Fenced(m) => Error::fenced(m),
            ApiError::SessionClosed(m) | ApiError::Internal(m) => Error::checker(m),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wire_round_trip_is_lossless() {
        let all = [
            ApiError::Parse("cypher: bad token".into()),
            ApiError::Schema("x".into()),
            ApiError::Instance("x".into()),
            ApiError::Eval("x".into()),
            ApiError::Unsupported("x".into()),
            ApiError::Rejected("duplicate key".into()),
            ApiError::Io("short write".into()),
            ApiError::Corrupt("bad crc".into()),
            ApiError::Fenced("fsync failed".into()),
            ApiError::Backpressure("queue full".into()),
            ApiError::Protocol("oversized frame".into()),
            ApiError::SessionClosed("worker panicked".into()),
            ApiError::Internal("invariant".into()),
            ApiError::DeadlineExceeded("budget spent in queue".into()),
            ApiError::Draining("server is shutting down".into()),
        ];
        let mut codes: Vec<u16> = all.iter().map(ApiError::code).collect();
        codes.dedup();
        assert_eq!(codes.len(), all.len(), "wire codes must be distinct");
        for e in all {
            let (code, message) = e.to_wire();
            assert_eq!(ApiError::from_wire(code, message), e);
        }
    }

    #[test]
    fn retryable_predicate_covers_transient_errors_only() {
        assert!(ApiError::Backpressure("queue full".into()).is_retryable());
        assert!(ApiError::DeadlineExceeded("budget spent".into()).is_retryable());
        assert!(ApiError::Draining("shutting down".into()).is_retryable());
        assert!(!ApiError::Rejected("duplicate key".into()).is_retryable());
        assert!(!ApiError::Fenced("fsync failed".into()).is_retryable());
        assert!(!ApiError::Internal("invariant".into()).is_retryable());
        assert!(!ApiError::Io("short write".into()).is_retryable());
    }

    #[test]
    fn unknown_code_degrades_to_internal() {
        let e = ApiError::from_wire(999, "future variant");
        assert!(matches!(e, ApiError::Internal(_)));
        assert!(e.to_string().contains("future variant"));
    }

    #[test]
    fn from_error_preserves_reporting() {
        let e: ApiError = Error::parse("cypher", "unexpected `)`").into();
        assert!(e.to_string().contains("cypher"));
        assert!(e.to_string().contains("unexpected"));
        assert!(ApiError::from(Error::fenced("wal")).is_fenced());
    }
}
