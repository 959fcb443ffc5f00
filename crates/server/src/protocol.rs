//! The wire protocol: length-prefixed, CRC-framed binary messages.
//!
//! Every message is one **frame**:
//!
//! ```text
//! len: u32 LE | crc: u32 LE | payload (len bytes)
//! ```
//!
//! where `crc` is the store's CRC-32 (IEEE) over the payload — the same
//! checksum and little-endian primitive encoding the WAL uses, via
//! [`graphiti_store::codec`], so there is exactly one binary codec in
//! the system to fuzz and keep honest.  The payload is
//!
//! ```text
//! requests:  kind: u8 | request_id: u64 LE | deadline_ms: u32 LE | body
//! responses: kind: u8 | request_id: u64 LE | body (kind-specific)
//! ```
//!
//! Request ids are chosen by the client and echoed verbatim by the
//! server, which answers every request with exactly one frame (typed
//! reply or [`Response::Error`]).  `deadline_ms` is the request's
//! deadline budget in milliseconds measured from server receipt; `0`
//! means the client sets no deadline and the server applies its
//! default.  Decoding is **total**: truncated, oversized,
//! checksum-corrupt, or otherwise malformed bytes produce a typed
//! [`ApiError::Protocol`] — never a panic, no matter how hostile the
//! input.

use graphiti_common::{ApiError, ApiResult, Error};
use graphiti_engine::{BatchQuery, BatchReport, QueryOutcome, SqlTarget};
use graphiti_relational::Table;
use graphiti_store::codec::{self, Reader};
use graphiti_store::{CommitAck, Delta, ServiceStats};
use std::io::{Read, Write};

/// Protocol revision; a [`Request::Hello`] outside the supported range
/// is refused.  Version 2 added the `deadline_ms` request-header field
/// and the commit idempotency token.  Version 3 adds a `trace_id: u64`
/// request-header field after `deadline_ms` on every post-`Hello`
/// request (the `Hello` frame itself keeps the version-2 layout so the
/// negotiation is decodable before a version is known), the
/// [`Request::Introspect`] and [`Request::QueryProfiled`] kinds, and
/// five appended observability fields on the `Stats` reply.
pub const PROTOCOL_VERSION: u32 = 3;

/// Oldest protocol revision the server still speaks.  A version-2 peer
/// gets version-2 framing back (no trace ids, no appended stats
/// fields); the version-3 request kinds are refused on its connection.
pub const MIN_PROTOCOL_VERSION: u32 = 2;

/// Default ceiling on one frame's payload (16 MiB).  A peer advertising
/// a larger frame is cut off before any allocation happens.
pub const DEFAULT_MAX_FRAME: u32 = 16 * 1024 * 1024;

/// Everything a client can ask.
#[derive(Debug, Clone)]
pub enum Request {
    /// Version handshake; must be the first request on a connection.
    Hello {
        /// The client's [`PROTOCOL_VERSION`].
        version: u32,
    },
    /// Opens the connection's session, pinned at the latest published
    /// generation (reopening re-pins).
    OpenSession,
    /// Runs one query on the session's pinned snapshot.
    Query(BatchQuery),
    /// Runs a batch on the session's pinned snapshot.
    Batch(Vec<BatchQuery>),
    /// Commits a delta through the server's group-commit write path.
    Commit {
        /// The mutation to apply.
        delta: Delta,
        /// Client-generated idempotency token; `0` means untagged.  A
        /// retried commit resending the same non-zero token is deduped
        /// by the store (the replay returns the original generation).
        token: u128,
    },
    /// Re-pins the session to the latest published generation.
    Refresh,
    /// Fetches service-level counters.
    Stats,
    /// Forces a checkpoint (durable stores only).
    Checkpoint,
    /// Closes the session (the server replies, then the connection
    /// winds down).
    Close,
    /// Fetches the live observability surface (protocol v3+).
    Introspect {
        /// What to render: see [`IntrospectMode`].
        mode: IntrospectMode,
    },
    /// Runs one query with per-operator profiling enabled (protocol
    /// v3+); the reply carries the result rows plus the profile.
    QueryProfiled(BatchQuery),
}

/// What a [`Request::Introspect`] renders.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IntrospectMode {
    /// The metrics registry as Prometheus-style text.
    Metrics,
    /// Recent trace span events as JSON.
    Traces,
    /// The slow-query log as JSON.
    SlowQueries,
}

impl IntrospectMode {
    fn to_wire(self) -> u8 {
        match self {
            IntrospectMode::Metrics => 0,
            IntrospectMode::Traces => 1,
            IntrospectMode::SlowQueries => 2,
        }
    }

    fn from_wire(v: u8) -> ApiResult<IntrospectMode> {
        match v {
            0 => Ok(IntrospectMode::Metrics),
            1 => Ok(IntrospectMode::Traces),
            2 => Ok(IntrospectMode::SlowQueries),
            other => Err(proto_err(format!("unknown introspect mode {other}"))),
        }
    }
}

/// Everything the server can answer.
#[derive(Debug)]
pub enum Response {
    /// Handshake accepted.
    HelloOk {
        /// The server's [`PROTOCOL_VERSION`].
        version: u32,
    },
    /// Session opened and pinned.
    SessionOpen {
        /// The pinned snapshot generation.
        generation: u64,
    },
    /// A query's result table.
    Rows(Table),
    /// A batch's full report (per-query outcomes keep their errors).
    BatchOk(BatchReport),
    /// A commit went through.
    CommitOk {
        /// The commit's own and published generations.
        ack: CommitAck,
        /// The generation the session is pinned at after the commit
        /// (read-your-writes).
        session_generation: u64,
    },
    /// The generation after a [`Request::Refresh`].
    Generation(u64),
    /// Service counters.
    StatsOk(ServiceStats),
    /// Generation covered by the forced checkpoint.
    CheckpointOk(u64),
    /// Session closed.
    Closed,
    /// The rendered observability surface (protocol v3+): Prometheus
    /// text for metrics, JSON for traces and slow queries.
    IntrospectOk(String),
    /// A profiled query's result table plus its per-operator profile,
    /// rendered as JSON (protocol v3+).
    RowsProfiled {
        /// The result rows (identical to the unprofiled query's).
        table: Table,
        /// The [`QueryProfile`](graphiti_obs::profile::QueryProfile) as
        /// a JSON object.
        profile_json: String,
    },
    /// The request failed; the pair round-trips through
    /// [`ApiError::from_wire`].
    Error {
        /// [`ApiError::code`] of the failure.
        code: u16,
        /// Human-readable message.
        message: String,
    },
}

// Request kinds. Response kinds are the request's | 0x80, errors 0xEE.
const K_HELLO: u8 = 0x01;
const K_OPEN: u8 = 0x02;
const K_QUERY: u8 = 0x03;
const K_BATCH: u8 = 0x04;
const K_COMMIT: u8 = 0x05;
const K_REFRESH: u8 = 0x06;
const K_STATS: u8 = 0x07;
const K_CHECKPOINT: u8 = 0x08;
const K_CLOSE: u8 = 0x09;
const K_INTROSPECT: u8 = 0x0A;
const K_QUERY_PROFILED: u8 = 0x0B;
const K_ERROR: u8 = 0xEE;

fn proto_err(detail: impl Into<String>) -> ApiError {
    ApiError::Protocol(detail.into())
}

// ---------------------------------------------------------------------
// Frames
// ---------------------------------------------------------------------

/// Wraps a payload into one wire frame (header + payload bytes).
pub fn frame(payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(8 + payload.len());
    codec::put_u32(&mut out, payload.len() as u32);
    codec::put_u32(&mut out, codec::crc32(payload));
    out.extend_from_slice(payload);
    out
}

/// Writes one frame.
pub fn write_frame(w: &mut impl Write, payload: &[u8]) -> ApiResult<()> {
    w.write_all(&frame(payload)).map_err(|e| ApiError::Io(e.to_string()))?;
    w.flush().map_err(|e| ApiError::Io(e.to_string()))
}

/// Reads one frame's payload.  `Ok(None)` is a clean end-of-stream (the
/// peer closed between frames); anything torn, oversized, or
/// checksum-corrupt is a typed [`ApiError::Protocol`].
pub fn read_frame(r: &mut impl Read, max_frame: u32) -> ApiResult<Option<Vec<u8>>> {
    let mut header = [0u8; 8];
    let mut filled = 0usize;
    while filled < header.len() {
        match r.read(&mut header[filled..]) {
            Ok(0) if filled == 0 => return Ok(None),
            Ok(0) => return Err(proto_err("connection closed inside a frame header")),
            Ok(n) => filled += n,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e) => return Err(ApiError::Io(e.to_string())),
        }
    }
    let len = u32::from_le_bytes(header[0..4].try_into().expect("4 bytes"));
    let crc = u32::from_le_bytes(header[4..8].try_into().expect("4 bytes"));
    if len == 0 {
        return Err(proto_err("empty frame payload"));
    }
    if len > max_frame {
        return Err(proto_err(format!("oversized frame: {len} bytes exceeds the {max_frame} cap")));
    }
    let mut payload = vec![0u8; len as usize];
    r.read_exact(&mut payload).map_err(|e| {
        if e.kind() == std::io::ErrorKind::UnexpectedEof {
            proto_err("connection closed inside a frame payload")
        } else {
            ApiError::Io(e.to_string())
        }
    })?;
    if codec::crc32(&payload) != crc {
        return Err(proto_err("frame checksum mismatch"));
    }
    Ok(Some(payload))
}

// ---------------------------------------------------------------------
// Body primitives
// ---------------------------------------------------------------------

fn put_query(buf: &mut Vec<u8>, q: &BatchQuery) {
    match q {
        BatchQuery::Cypher { text } => {
            buf.push(1);
            codec::put_str(buf, text);
        }
        BatchQuery::Sql { text, target: SqlTarget::Induced } => {
            buf.push(2);
            codec::put_str(buf, text);
        }
        BatchQuery::Sql { text, target: SqlTarget::Named(name) } => {
            buf.push(3);
            codec::put_str(buf, text);
            codec::put_str(buf, name);
        }
    }
}

fn read_query(r: &mut Reader<'_>) -> ApiResult<BatchQuery> {
    let tag = r.u8().map_err(wire_decode)?;
    let text = r.str().map_err(wire_decode)?;
    match tag {
        1 => Ok(BatchQuery::Cypher { text }),
        2 => Ok(BatchQuery::Sql { text, target: SqlTarget::Induced }),
        3 => {
            let name = r.str().map_err(wire_decode)?;
            Ok(BatchQuery::Sql { text, target: SqlTarget::Named(name) })
        }
        other => Err(proto_err(format!("unknown query tag {other}"))),
    }
}

fn put_table(buf: &mut Vec<u8>, t: &Table) {
    codec::put_u32(buf, t.columns.len() as u32);
    for c in &t.columns {
        codec::put_str(buf, c);
    }
    codec::put_u32(buf, t.rows.len() as u32);
    for row in &t.rows {
        for v in row {
            codec::put_value(buf, v);
        }
    }
}

fn read_table(r: &mut Reader<'_>) -> ApiResult<Table> {
    let ncols = r.u32().map_err(wire_decode)? as usize;
    let mut columns = Vec::with_capacity(ncols.min(4096));
    for _ in 0..ncols {
        columns.push(r.str().map_err(wire_decode)?);
    }
    let nrows = r.u32().map_err(wire_decode)? as usize;
    let mut table = Table::new(columns);
    for _ in 0..nrows {
        let mut row = Vec::with_capacity(ncols.min(4096));
        for _ in 0..ncols {
            row.push(r.value().map_err(wire_decode)?);
        }
        table.push_row(row);
    }
    Ok(table)
}

/// A decode failure inside a frame body is a protocol error (the frame
/// passed its checksum, so this is a malformed or hostile *payload*).
fn wire_decode(e: Error) -> ApiError {
    proto_err(format!("malformed frame body: {e}"))
}

fn put_stats(buf: &mut Vec<u8>, s: &ServiceStats, version: u32) {
    codec::put_u64(buf, s.generation);
    codec::put_u64(buf, s.commits);
    codec::put_u64(buf, s.rejected_commits);
    codec::put_u64(buf, s.live_nodes);
    codec::put_u64(buf, s.live_edges);
    buf.push(s.fenced as u8);
    codec::put_u64(buf, s.groups_formed);
    codec::put_u64(buf, s.group_members);
    codec::put_u64(buf, s.backpressured);
    codec::put_u64(buf, s.idempotent_replays);
    codec::put_u64(buf, s.deadlines_exceeded);
    codec::put_u64(buf, s.connections_reaped);
    codec::put_u64(buf, s.draining_refusals);
    codec::put_u64(buf, s.drain_micros);
    if version >= 3 {
        // Version 3 appends the observability view; a version-2 reader
        // decoding these extra bytes fails its trailing-bytes check with
        // a typed Protocol error instead of misreading them.
        codec::put_u64(buf, s.queries);
        codec::put_u64(buf, s.query_p95_micros);
        codec::put_u64(buf, s.spans_recorded);
        codec::put_u64(buf, s.spans_dropped);
        codec::put_u64(buf, s.slow_queries);
    }
}

fn read_stats(r: &mut Reader<'_>, version: u32) -> ApiResult<ServiceStats> {
    let mut stats = ServiceStats {
        generation: r.u64().map_err(wire_decode)?,
        commits: r.u64().map_err(wire_decode)?,
        rejected_commits: r.u64().map_err(wire_decode)?,
        live_nodes: r.u64().map_err(wire_decode)?,
        live_edges: r.u64().map_err(wire_decode)?,
        fenced: r.u8().map_err(wire_decode)? != 0,
        groups_formed: r.u64().map_err(wire_decode)?,
        group_members: r.u64().map_err(wire_decode)?,
        backpressured: r.u64().map_err(wire_decode)?,
        idempotent_replays: r.u64().map_err(wire_decode)?,
        deadlines_exceeded: r.u64().map_err(wire_decode)?,
        connections_reaped: r.u64().map_err(wire_decode)?,
        draining_refusals: r.u64().map_err(wire_decode)?,
        drain_micros: r.u64().map_err(wire_decode)?,
        queries: 0,
        query_p95_micros: 0,
        spans_recorded: 0,
        spans_dropped: 0,
        slow_queries: 0,
    };
    if version >= 3 {
        stats.queries = r.u64().map_err(wire_decode)?;
        stats.query_p95_micros = r.u64().map_err(wire_decode)?;
        stats.spans_recorded = r.u64().map_err(wire_decode)?;
        stats.spans_dropped = r.u64().map_err(wire_decode)?;
        stats.slow_queries = r.u64().map_err(wire_decode)?;
    }
    Ok(stats)
}

fn put_report(buf: &mut Vec<u8>, report: &BatchReport) {
    codec::put_u32(buf, report.outcomes.len() as u32);
    for outcome in &report.outcomes {
        match &outcome.result {
            Ok(table) => {
                buf.push(1);
                put_table(buf, table);
            }
            Err(e) => {
                buf.push(0);
                let (code, message) = ApiError::from(e.clone()).to_wire();
                codec::put_u16(buf, code);
                codec::put_str(buf, &message);
            }
        }
        codec::put_u64(buf, outcome.micros);
        buf.push(outcome.cache_hit as u8);
    }
    codec::put_u64(buf, report.wall_micros);
    codec::put_u32(buf, report.workers as u32);
    codec::put_u64(buf, report.cache_hits);
    codec::put_u64(buf, report.cache_misses);
}

fn read_report(r: &mut Reader<'_>) -> ApiResult<BatchReport> {
    let n = r.u32().map_err(wire_decode)? as usize;
    let mut outcomes = Vec::with_capacity(n.min(4096));
    for _ in 0..n {
        let result = match r.u8().map_err(wire_decode)? {
            1 => Ok(read_table(r)?),
            0 => {
                let code = r.u16().map_err(wire_decode)?;
                let message = r.str().map_err(wire_decode)?;
                Err(Error::from(ApiError::from_wire(code, message)))
            }
            other => return Err(proto_err(format!("unknown outcome tag {other}"))),
        };
        let micros = r.u64().map_err(wire_decode)?;
        let cache_hit = r.u8().map_err(wire_decode)? != 0;
        outcomes.push(QueryOutcome { result, micros, cache_hit, profile: None });
    }
    Ok(BatchReport {
        outcomes,
        wall_micros: r.u64().map_err(wire_decode)?,
        workers: r.u32().map_err(wire_decode)? as usize,
        cache_hits: r.u64().map_err(wire_decode)?,
        cache_misses: r.u64().map_err(wire_decode)?,
    })
}

// ---------------------------------------------------------------------
// Requests
// ---------------------------------------------------------------------

/// Encodes a request payload with version-2 framing (no trace id).
/// `deadline_ms` is the request's deadline budget in milliseconds from
/// server receipt; `0` defers to the server default.
pub fn encode_request(request_id: u64, deadline_ms: u32, req: &Request) -> Vec<u8> {
    encode_request_versioned(MIN_PROTOCOL_VERSION, request_id, deadline_ms, 0, req)
}

/// Encodes a request payload for a negotiated protocol `version` (frame
/// it with [`write_frame`]).  On version 3+ every request except
/// [`Request::Hello`] carries `trace_id` after the deadline; `0` asks
/// the server to mint one.  `Hello` always uses the version-2 layout so
/// the handshake decodes before any version is agreed.
pub fn encode_request_versioned(
    version: u32,
    request_id: u64,
    deadline_ms: u32,
    trace_id: u64,
    req: &Request,
) -> Vec<u8> {
    let mut buf = Vec::new();
    let kind = match req {
        Request::Hello { .. } => K_HELLO,
        Request::OpenSession => K_OPEN,
        Request::Query(_) => K_QUERY,
        Request::Batch(_) => K_BATCH,
        Request::Commit { .. } => K_COMMIT,
        Request::Refresh => K_REFRESH,
        Request::Stats => K_STATS,
        Request::Checkpoint => K_CHECKPOINT,
        Request::Close => K_CLOSE,
        Request::Introspect { .. } => K_INTROSPECT,
        Request::QueryProfiled(_) => K_QUERY_PROFILED,
    };
    buf.push(kind);
    codec::put_u64(&mut buf, request_id);
    codec::put_u32(&mut buf, deadline_ms);
    if version >= 3 && kind != K_HELLO {
        codec::put_u64(&mut buf, trace_id);
    }
    match req {
        Request::Hello { version } => codec::put_u32(&mut buf, *version),
        Request::Query(q) => put_query(&mut buf, q),
        Request::Batch(qs) => {
            codec::put_u32(&mut buf, qs.len() as u32);
            for q in qs {
                put_query(&mut buf, q);
            }
        }
        Request::Commit { delta, token } => {
            codec::put_u64(&mut buf, (*token >> 64) as u64);
            codec::put_u64(&mut buf, *token as u64);
            codec::put_delta(&mut buf, delta);
        }
        Request::Introspect { mode } => buf.push(mode.to_wire()),
        Request::QueryProfiled(q) => put_query(&mut buf, q),
        Request::OpenSession
        | Request::Refresh
        | Request::Stats
        | Request::Checkpoint
        | Request::Close => {}
    }
    buf
}

/// Decodes a version-2 request payload into
/// `(request_id, deadline_ms, request)`.
pub fn decode_request(payload: &[u8]) -> (u64, u32, ApiResult<Request>) {
    let (request_id, deadline_ms, _trace, req) =
        decode_request_versioned(payload, MIN_PROTOCOL_VERSION);
    (request_id, deadline_ms, req)
}

/// Decodes a request payload for a negotiated protocol `version` into
/// `(request_id, deadline_ms, trace_id, request)`.  The returned id is
/// `0` when the payload is too short to even carry one — the server
/// still has something to address its error reply to; likewise the
/// deadline and trace id degrade to `0` (server default / untraced).
/// On version 2 the trace id is always `0`.
pub fn decode_request_versioned(
    payload: &[u8],
    version: u32,
) -> (u64, u32, u64, ApiResult<Request>) {
    let mut r = Reader::new(payload);
    let Ok(kind) = r.u8() else {
        return (0, 0, 0, Err(proto_err("empty request payload")));
    };
    let Ok(request_id) = r.u64() else {
        return (0, 0, 0, Err(proto_err("request payload too short for a request id")));
    };
    let Ok(deadline_ms) = r.u32() else {
        return (request_id, 0, 0, Err(proto_err("request payload too short for a deadline")));
    };
    let trace_id = if version >= 3 && kind != K_HELLO {
        match r.u64() {
            Ok(t) => t,
            Err(_) => {
                return (
                    request_id,
                    deadline_ms,
                    0,
                    Err(proto_err("request payload too short for a trace id")),
                );
            }
        }
    } else {
        0
    };
    let req = decode_request_body(kind, &mut r, version);
    let req = req.and_then(|req| {
        if r.is_done() {
            Ok(req)
        } else {
            Err(proto_err("trailing bytes after the request body"))
        }
    });
    (request_id, deadline_ms, trace_id, req)
}

fn decode_request_body(kind: u8, r: &mut Reader<'_>, version: u32) -> ApiResult<Request> {
    if version < 3 && matches!(kind, K_INTROSPECT | K_QUERY_PROFILED) {
        return Err(proto_err(format!(
            "request kind 0x{kind:02x} requires protocol version 3 (negotiated {version})"
        )));
    }
    match kind {
        K_HELLO => Ok(Request::Hello { version: r.u32().map_err(wire_decode)? }),
        K_OPEN => Ok(Request::OpenSession),
        K_QUERY => Ok(Request::Query(read_query(r)?)),
        K_BATCH => {
            let n = r.u32().map_err(wire_decode)? as usize;
            let mut qs = Vec::with_capacity(n.min(4096));
            for _ in 0..n {
                qs.push(read_query(r)?);
            }
            Ok(Request::Batch(qs))
        }
        K_COMMIT => {
            let hi = r.u64().map_err(wire_decode)?;
            let lo = r.u64().map_err(wire_decode)?;
            let token = ((hi as u128) << 64) | lo as u128;
            Ok(Request::Commit { delta: r.delta().map_err(wire_decode)?, token })
        }
        K_REFRESH => Ok(Request::Refresh),
        K_STATS => Ok(Request::Stats),
        K_CHECKPOINT => Ok(Request::Checkpoint),
        K_CLOSE => Ok(Request::Close),
        K_INTROSPECT => Ok(Request::Introspect {
            mode: IntrospectMode::from_wire(r.u8().map_err(wire_decode)?)?,
        }),
        K_QUERY_PROFILED => Ok(Request::QueryProfiled(read_query(r)?)),
        other => Err(proto_err(format!("unknown request kind 0x{other:02x}"))),
    }
}

// ---------------------------------------------------------------------
// Responses
// ---------------------------------------------------------------------

/// Encodes a response payload with version-2 framing.
pub fn encode_response(request_id: u64, resp: &Response) -> Vec<u8> {
    encode_response_versioned(MIN_PROTOCOL_VERSION, request_id, resp)
}

/// Encodes a response payload for a negotiated protocol `version`
/// (frame it with [`write_frame`]).  The version picks the `Stats`
/// layout: version-2 peers get the original fourteen fields, version-3
/// peers get the appended observability fields too.
pub fn encode_response_versioned(version: u32, request_id: u64, resp: &Response) -> Vec<u8> {
    let mut buf = Vec::new();
    let kind = match resp {
        Response::HelloOk { .. } => K_HELLO | 0x80,
        Response::SessionOpen { .. } => K_OPEN | 0x80,
        Response::Rows(_) => K_QUERY | 0x80,
        Response::BatchOk(_) => K_BATCH | 0x80,
        Response::CommitOk { .. } => K_COMMIT | 0x80,
        Response::Generation(_) => K_REFRESH | 0x80,
        Response::StatsOk(_) => K_STATS | 0x80,
        Response::CheckpointOk(_) => K_CHECKPOINT | 0x80,
        Response::Closed => K_CLOSE | 0x80,
        Response::IntrospectOk(_) => K_INTROSPECT | 0x80,
        Response::RowsProfiled { .. } => K_QUERY_PROFILED | 0x80,
        Response::Error { .. } => K_ERROR,
    };
    buf.push(kind);
    codec::put_u64(&mut buf, request_id);
    match resp {
        Response::HelloOk { version } => codec::put_u32(&mut buf, *version),
        Response::SessionOpen { generation } => codec::put_u64(&mut buf, *generation),
        Response::Rows(table) => put_table(&mut buf, table),
        Response::BatchOk(report) => put_report(&mut buf, report),
        Response::CommitOk { ack, session_generation } => {
            codec::put_u64(&mut buf, ack.generation);
            codec::put_u64(&mut buf, ack.published_generation);
            codec::put_u64(&mut buf, *session_generation);
        }
        Response::Generation(g) => codec::put_u64(&mut buf, *g),
        Response::StatsOk(stats) => put_stats(&mut buf, stats, version),
        Response::CheckpointOk(g) => codec::put_u64(&mut buf, *g),
        Response::Closed => {}
        Response::IntrospectOk(text) => codec::put_str(&mut buf, text),
        Response::RowsProfiled { table, profile_json } => {
            put_table(&mut buf, table);
            codec::put_str(&mut buf, profile_json);
        }
        Response::Error { code, message } => {
            codec::put_u16(&mut buf, *code);
            codec::put_str(&mut buf, message);
        }
    }
    buf
}

/// Decodes a version-2 response payload into `(request_id, response)`.
pub fn decode_response(payload: &[u8]) -> (u64, ApiResult<Response>) {
    decode_response_versioned(payload, MIN_PROTOCOL_VERSION)
}

/// Decodes a response payload for a negotiated protocol `version` into
/// `(request_id, response)`.  A version-2 decoder handed a version-3
/// payload fails typed: extra `Stats` bytes trip the trailing-bytes
/// check and the version-3 response kinds are refused outright.
pub fn decode_response_versioned(payload: &[u8], version: u32) -> (u64, ApiResult<Response>) {
    let mut r = Reader::new(payload);
    let Ok(kind) = r.u8() else {
        return (0, Err(proto_err("empty response payload")));
    };
    let Ok(request_id) = r.u64() else {
        return (0, Err(proto_err("response payload too short for a request id")));
    };
    let resp = decode_response_body(kind, &mut r, version);
    let resp = resp.and_then(|resp| {
        if r.is_done() {
            Ok(resp)
        } else {
            Err(proto_err("trailing bytes after the response body"))
        }
    });
    (request_id, resp)
}

fn decode_response_body(kind: u8, r: &mut Reader<'_>, version: u32) -> ApiResult<Response> {
    if version < 3 && matches!(kind, k if k == K_INTROSPECT | 0x80 || k == K_QUERY_PROFILED | 0x80)
    {
        return Err(proto_err(format!(
            "response kind 0x{kind:02x} requires protocol version 3 (negotiated {version})"
        )));
    }
    match kind {
        k if k == K_HELLO | 0x80 => {
            Ok(Response::HelloOk { version: r.u32().map_err(wire_decode)? })
        }
        k if k == K_OPEN | 0x80 => {
            Ok(Response::SessionOpen { generation: r.u64().map_err(wire_decode)? })
        }
        k if k == K_QUERY | 0x80 => Ok(Response::Rows(read_table(r)?)),
        k if k == K_BATCH | 0x80 => Ok(Response::BatchOk(read_report(r)?)),
        k if k == K_COMMIT | 0x80 => {
            let generation = r.u64().map_err(wire_decode)?;
            let published_generation = r.u64().map_err(wire_decode)?;
            let session_generation = r.u64().map_err(wire_decode)?;
            Ok(Response::CommitOk {
                ack: CommitAck { generation, published_generation },
                session_generation,
            })
        }
        k if k == K_REFRESH | 0x80 => Ok(Response::Generation(r.u64().map_err(wire_decode)?)),
        k if k == K_STATS | 0x80 => Ok(Response::StatsOk(read_stats(r, version)?)),
        k if k == K_CHECKPOINT | 0x80 => Ok(Response::CheckpointOk(r.u64().map_err(wire_decode)?)),
        k if k == K_CLOSE | 0x80 => Ok(Response::Closed),
        k if k == K_INTROSPECT | 0x80 => Ok(Response::IntrospectOk(r.str().map_err(wire_decode)?)),
        k if k == K_QUERY_PROFILED | 0x80 => {
            let table = read_table(r)?;
            let profile_json = r.str().map_err(wire_decode)?;
            Ok(Response::RowsProfiled { table, profile_json })
        }
        k if k == K_ERROR => {
            let code = r.u16().map_err(wire_decode)?;
            let message = r.str().map_err(wire_decode)?;
            Ok(Response::Error { code, message })
        }
        other => Err(proto_err(format!("unknown response kind 0x{other:02x}"))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use graphiti_common::Value;

    #[test]
    fn frames_round_trip_and_detect_corruption() {
        let payload = encode_request(7, 0, &Request::Refresh);
        let framed = frame(&payload);
        let mut cursor = std::io::Cursor::new(framed.clone());
        let got = read_frame(&mut cursor, DEFAULT_MAX_FRAME).unwrap().unwrap();
        assert_eq!(got, payload);
        // Clean EOF at a frame boundary.
        assert!(read_frame(&mut cursor, DEFAULT_MAX_FRAME).unwrap().is_none());
        // A flipped payload byte fails the checksum.
        let mut bad = framed.clone();
        let last = bad.len() - 1;
        bad[last] ^= 0x01;
        let err = read_frame(&mut std::io::Cursor::new(bad), DEFAULT_MAX_FRAME).unwrap_err();
        assert!(matches!(err, ApiError::Protocol(_)), "{err}");
        // Every truncation is typed, never a panic.
        for cut in 0..framed.len() {
            match read_frame(&mut std::io::Cursor::new(&framed[..cut]), DEFAULT_MAX_FRAME) {
                Ok(None) => assert_eq!(cut, 0, "only the empty prefix is a clean EOF"),
                Ok(Some(_)) => panic!("cut at {cut} decoded a whole frame"),
                Err(ApiError::Protocol(_)) => {}
                Err(other) => panic!("cut at {cut}: unexpected {other}"),
            }
        }
    }

    #[test]
    fn oversized_frames_are_refused_before_allocation() {
        let mut header = Vec::new();
        codec::put_u32(&mut header, u32::MAX);
        codec::put_u32(&mut header, 0);
        let err = read_frame(&mut std::io::Cursor::new(header), 1024).unwrap_err();
        assert!(err.to_string().contains("oversized"), "{err}");
    }

    #[test]
    fn requests_round_trip() {
        let mut delta = Delta::new();
        delta.add_node("EMP", [("id", Value::Int(1)), ("name", Value::str("Ada"))]);
        let reqs = [
            Request::Hello { version: PROTOCOL_VERSION },
            Request::OpenSession,
            Request::Query(BatchQuery::cypher("MATCH (n:EMP) RETURN n.id AS i")),
            Request::Query(BatchQuery::sql_on("aux", "SELECT x FROM side")),
            Request::Batch(vec![
                BatchQuery::sql("SELECT Count(*) AS c FROM EMP AS e"),
                BatchQuery::cypher("MATCH (n:EMP) RETURN n.name AS w"),
            ]),
            Request::Commit { delta, token: (0xFEED_u128 << 64) | 0xBEEF },
            Request::Commit { delta: Delta::new(), token: 0 },
            Request::Refresh,
            Request::Stats,
            Request::Checkpoint,
            Request::Close,
        ];
        for (i, req) in reqs.into_iter().enumerate() {
            let deadline_ms = (i as u32) * 250;
            let payload = encode_request(i as u64, deadline_ms, &req);
            let (id, got_deadline, got) = decode_request(&payload);
            assert_eq!(id, i as u64);
            assert_eq!(got_deadline, deadline_ms);
            let got = got.unwrap_or_else(|e| panic!("decoding {req:?}: {e}"));
            // Delta is not PartialEq; compare the debug projection.
            assert_eq!(format!("{got:?}"), format!("{req:?}"));
        }
    }

    #[test]
    fn responses_round_trip() {
        let mut table = Table::new(["id", "name"]);
        table.push_row(vec![Value::Int(1), Value::str("Ada")]);
        table.push_row(vec![Value::Null, Value::Bool(true)]);
        let resps = [
            Response::HelloOk { version: 1 },
            Response::SessionOpen { generation: 42 },
            Response::Rows(table),
            Response::CommitOk {
                ack: CommitAck { generation: 7, published_generation: 9 },
                session_generation: 9,
            },
            Response::Generation(11),
            Response::StatsOk(ServiceStats {
                generation: 9,
                commits: 7,
                rejected_commits: 1,
                live_nodes: 5,
                live_edges: 2,
                fenced: false,
                groups_formed: 3,
                group_members: 7,
                backpressured: 4,
                idempotent_replays: 2,
                deadlines_exceeded: 6,
                connections_reaped: 1,
                draining_refusals: 3,
                drain_micros: 1234,
                queries: 0,
                query_p95_micros: 0,
                spans_recorded: 0,
                spans_dropped: 0,
                slow_queries: 0,
            }),
            Response::CheckpointOk(9),
            Response::Closed,
            Response::Error { code: 10, message: "queue full".into() },
        ];
        for (i, resp) in resps.into_iter().enumerate() {
            let payload = encode_response(i as u64, &resp);
            let (id, got) = decode_response(&payload);
            assert_eq!(id, i as u64);
            let got = got.unwrap_or_else(|e| panic!("decoding {resp:?}: {e}"));
            assert_eq!(format!("{got:?}"), format!("{resp:?}"));
        }
    }

    #[test]
    fn batch_reports_round_trip_with_mixed_outcomes() {
        let mut table = Table::new(["c"]);
        table.push_row(vec![Value::Int(3)]);
        let report = BatchReport {
            outcomes: vec![
                QueryOutcome { result: Ok(table), micros: 120, cache_hit: true, profile: None },
                QueryOutcome {
                    result: Err(Error::eval("unknown column `x`")),
                    micros: 40,
                    cache_hit: false,
                    profile: None,
                },
            ],
            wall_micros: 200,
            workers: 2,
            cache_hits: 1,
            cache_misses: 1,
        };
        let payload = encode_response(5, &Response::BatchOk(report));
        let (_, got) = decode_response(&payload);
        let Response::BatchOk(got) = got.unwrap() else { panic!("wrong variant") };
        assert_eq!(got.outcomes.len(), 2);
        assert!(got.outcomes[0].result.is_ok());
        assert!(got.outcomes[0].cache_hit);
        let err = got.outcomes[1].result.as_ref().unwrap_err();
        assert!(err.to_string().contains("unknown column"), "{err}");
        assert_eq!(got.wall_micros, 200);
        assert_eq!(got.workers, 2);
    }

    #[test]
    fn garbage_payloads_decode_to_typed_errors() {
        for payload in [&[][..], &[0xFF][..], &[K_QUERY, 1, 2, 3][..], &[0x42; 64][..]] {
            let (_, _, req) = decode_request(payload);
            assert!(req.is_err(), "payload {payload:?} must not decode");
            let (_, resp) = decode_response(payload);
            assert!(resp.is_err(), "payload {payload:?} must not decode as a response");
        }
        // Trailing bytes after a valid body are refused too.
        let mut payload = encode_request(1, 0, &Request::Refresh);
        payload.push(0);
        let (_, _, req) = decode_request(&payload);
        assert!(matches!(req, Err(ApiError::Protocol(_))));
    }

    #[test]
    fn v3_requests_round_trip_with_trace_ids() {
        let reqs = [
            Request::OpenSession,
            Request::Query(BatchQuery::cypher("MATCH (n:EMP) RETURN n.id AS i")),
            Request::Introspect { mode: IntrospectMode::Metrics },
            Request::Introspect { mode: IntrospectMode::Traces },
            Request::Introspect { mode: IntrospectMode::SlowQueries },
            Request::QueryProfiled(BatchQuery::sql("SELECT Count(*) AS c FROM EMP AS e")),
            Request::Close,
        ];
        for (i, req) in reqs.into_iter().enumerate() {
            let trace = 0xABCD_0000 + i as u64;
            let payload = encode_request_versioned(3, i as u64, 125, trace, &req);
            let (id, deadline, got_trace, got) = decode_request_versioned(&payload, 3);
            assert_eq!(id, i as u64);
            assert_eq!(deadline, 125);
            assert_eq!(got_trace, trace, "trace id must survive the v3 header");
            let got = got.unwrap_or_else(|e| panic!("decoding {req:?}: {e}"));
            assert_eq!(format!("{got:?}"), format!("{req:?}"));
        }
    }

    #[test]
    fn hello_keeps_the_v2_layout_on_every_version() {
        // The handshake must decode before a version is negotiated, so
        // its bytes are identical no matter which version encodes it.
        let hello = Request::Hello { version: PROTOCOL_VERSION };
        let v2 = encode_request(1, 0, &hello);
        let v3 = encode_request_versioned(3, 1, 0, 0xDEAD, &hello);
        assert_eq!(v2, v3);
        let (_, _, trace, got) = decode_request_versioned(&v2, 3);
        assert_eq!(trace, 0);
        assert!(matches!(got, Ok(Request::Hello { version }) if version == PROTOCOL_VERSION));
    }

    #[test]
    fn v3_responses_round_trip() {
        let mut table = Table::new(["c"]);
        table.push_row(vec![Value::Int(3)]);
        let resps = [
            Response::IntrospectOk("# TYPE graphiti_commits_total counter\n".into()),
            Response::RowsProfiled {
                table,
                profile_json: "{\"language\":\"sql\",\"stages\":[]}".into(),
            },
            Response::StatsOk(ServiceStats {
                generation: 9,
                commits: 7,
                rejected_commits: 1,
                live_nodes: 5,
                live_edges: 2,
                fenced: false,
                groups_formed: 3,
                group_members: 7,
                backpressured: 4,
                idempotent_replays: 2,
                deadlines_exceeded: 6,
                connections_reaped: 1,
                draining_refusals: 3,
                drain_micros: 1234,
                queries: 612,
                query_p95_micros: 480,
                spans_recorded: 99,
                spans_dropped: 1,
                slow_queries: 8,
            }),
        ];
        for (i, resp) in resps.into_iter().enumerate() {
            let payload = encode_response_versioned(3, i as u64, &resp);
            let (id, got) = decode_response_versioned(&payload, 3);
            assert_eq!(id, i as u64);
            let got = got.unwrap_or_else(|e| panic!("decoding {resp:?}: {e}"));
            assert_eq!(format!("{got:?}"), format!("{resp:?}"));
        }
    }

    #[test]
    fn v2_reader_never_sees_garbage_from_v3_payloads() {
        // A v3 Stats reply carries five appended fields; a v2 decoder
        // must refuse the surplus bytes rather than misparse them.
        let stats = ServiceStats { queries: 612, spans_recorded: 99, ..ServiceStats::default() };
        let v3_payload = encode_response_versioned(3, 7, &Response::StatsOk(stats));
        let (_, got) = decode_response(&v3_payload);
        match got {
            Err(ApiError::Protocol(msg)) => {
                assert!(msg.contains("trailing bytes"), "{msg}")
            }
            other => panic!("v2 decode of a v3 stats reply must fail typed, got {other:?}"),
        }

        // The v3-only response kinds are refused outright at v2.
        let intro = encode_response_versioned(3, 8, &Response::IntrospectOk("x".into()));
        let (_, got) = decode_response(&intro);
        assert!(matches!(got, Err(ApiError::Protocol(_))), "{got:?}");

        // Same story for requests: the v3-only kinds and the trace-id
        // header field are both invisible to a v2 server — typed errors,
        // never a misdecode.
        let introspect_req = encode_request_versioned(
            3,
            9,
            0,
            0x1234,
            &Request::Introspect { mode: IntrospectMode::Metrics },
        );
        let (_, _, got) = decode_request(&introspect_req);
        assert!(matches!(got, Err(ApiError::Protocol(_))), "{got:?}");
        let traced_query = encode_request_versioned(
            3,
            10,
            0,
            0x5678,
            &Request::Query(BatchQuery::cypher("MATCH (n:EMP) RETURN n.id AS i")),
        );
        let (_, _, got) = decode_request(&traced_query);
        assert!(matches!(got, Err(ApiError::Protocol(_))), "{got:?}");

        // And every truncation of a v3 payload is total at both
        // versions: a typed error, or — at v2, exactly at the v2 field
        // boundary — a clean truncation whose shared fields are intact.
        // Never garbage.
        for cut in 0..v3_payload.len() {
            match decode_response(&v3_payload[..cut]).1 {
                Err(ApiError::Protocol(_)) => {}
                Ok(Response::StatsOk(s)) => {
                    assert_eq!(s.queries, 0, "cut {cut}: v2 cannot see the appended fields");
                    assert_eq!(s.commits, 0);
                    assert_eq!(s.generation, 0);
                }
                other => panic!("cut {cut} decoded {other:?} at v2"),
            }
            let (_, got) = decode_response_versioned(&v3_payload[..cut], 3);
            assert!(got.is_err(), "cut {cut} must not decode at v3");
        }
    }
}
