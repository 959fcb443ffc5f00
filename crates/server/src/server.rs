//! The serving loop: thread-per-connection over TCP or unix sockets.
//!
//! One [`Server`] wraps a [`Graphiti`] service.  Each accepted
//! connection gets its own OS thread and its own wire session, pinned
//! at the generation it opened at; admission control is two-layered:
//!
//! * a **connection cap** — a connection over [`ServerOptions::max_connections`]
//!   receives one typed [`ApiError::Backpressure`] frame and is closed
//!   before a session ever exists;
//! * a **bounded commit queue** — wire commits go through the service's
//!   group committer with [`Graphiti::try_commit`]; a full queue
//!   is a typed backpressure *reply* (the connection survives, the
//!   client retries).
//!
//! Every socket read runs under a short timeout tick
//! ([`ServerOptions::tick`]) so no connection thread ever blocks
//! indefinitely: an idle peer is reaped after
//! [`ServerOptions::idle_timeout`], a peer stalled mid-frame is cut off
//! after [`ServerOptions::stall_timeout`], and a draining server
//! interrupts blocked readers within one tick.  Each request carries a
//! deadline budget (wire header, or [`ServerOptions::default_deadline`])
//! checked at admission, before the commit queue, and before reply
//! serialization — an expired budget answers a typed
//! [`ApiError::DeadlineExceeded`] instead of late work.
//!
//! [`ServerHandle::shutdown`] drains rather than aborts: accepting
//! stops, requests arriving after the flag flips are refused with a
//! typed [`ApiError::Draining`] frame, in-flight handlers finish, and
//! readers blocked mid-frame are cut off after
//! [`ServerOptions::drain_deadline`] — so shutdown completes in bounded
//! time against any mix of idle, slow, and mid-request peers.
//!
//! A panic while handling a request never hangs the client: the
//! connection thread catches it, answers with a typed
//! [`ApiError::Internal`] frame, drops the session, and closes the
//! connection.

use crate::protocol::{
    self, IntrospectMode, Request, Response, DEFAULT_MAX_FRAME, MIN_PROTOCOL_VERSION,
    PROTOCOL_VERSION,
};
use graphiti_common::{ApiError, ApiResult};
use graphiti_obs::metrics::{Counter, Histogram, Registry};
use graphiti_obs::trace::mint_trace_id;
use graphiti_store::codec;
use graphiti_store::{CommitRequest, Graphiti, Session};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::os::unix::net::{UnixListener, UnixStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Environment variable naming the server's default per-request
/// deadline budget in milliseconds (used when a request's wire header
/// carries `deadline_ms == 0`).  Unset, unparsable, or `0` means no
/// default deadline.
pub const DEADLINE_ENV: &str = "GRAPHITI_DEADLINE_MS";

/// Tuning knobs for a [`Server`].
#[derive(Debug, Clone)]
pub struct ServerOptions {
    /// Maximum concurrently served connections; the next one is
    /// backpressured at accept time.
    pub max_connections: usize,
    /// Ceiling on one frame's payload, bytes.
    pub max_frame_bytes: u32,
    /// Socket read-timeout granularity.  Every blocking read wakes at
    /// least this often to check the drain flag and the idle/stall
    /// budgets; it bounds how stale those checks can be.
    pub tick: Duration,
    /// Socket write timeout: a peer that stops draining its receive
    /// buffer cannot pin a connection thread in `write` forever.
    pub write_timeout: Duration,
    /// A connection idle (no bytes between frames) longer than this is
    /// reaped: closed, with the reap counted in the lifecycle stats.
    pub idle_timeout: Duration,
    /// A peer that started a frame but stops making progress for this
    /// long is cut off (a trickling or wedged peer cannot hold a thread
    /// hostage mid-frame).
    pub stall_timeout: Duration,
    /// Deadline budget applied to requests whose wire header carries
    /// `deadline_ms == 0`.  Defaults from [`DEADLINE_ENV`]; `None`
    /// means such requests run without a deadline.
    pub default_deadline: Option<Duration>,
    /// How long a drain waits on peers blocked mid-frame before
    /// cutting them off.  Idle peers close within one tick; this only
    /// bounds the stragglers, so shutdown completes in roughly
    /// `max(in-flight handler time, drain_deadline)`.
    pub drain_deadline: Duration,
    /// Test hook: a query whose text equals this panics inside the
    /// handler, exercising the panic-to-typed-error-frame path.
    pub poison_query: Option<String>,
    /// Test hook: sleep this long inside the handler before executing
    /// any post-handshake request, exercising the deadline checks.
    pub handler_delay: Option<Duration>,
}

impl Default for ServerOptions {
    fn default() -> ServerOptions {
        ServerOptions {
            max_connections: 64,
            max_frame_bytes: DEFAULT_MAX_FRAME,
            tick: Duration::from_millis(100),
            write_timeout: Duration::from_secs(10),
            idle_timeout: Duration::from_secs(300),
            stall_timeout: Duration::from_secs(10),
            default_deadline: deadline_from_env(),
            drain_deadline: Duration::from_secs(5),
            poison_query: None,
            handler_delay: None,
        }
    }
}

fn deadline_from_env() -> Option<Duration> {
    std::env::var(DEADLINE_ENV)
        .ok()
        .and_then(|v| v.trim().parse::<u64>().ok())
        .filter(|&ms| ms > 0)
        .map(Duration::from_millis)
}

/// Server-side request-lifecycle counters: live registry cells (so the
/// introspection surface sees them) merged into the
/// [`ServiceStats`](graphiti_store::ServiceStats) a wire `Stats`
/// request returns.
#[derive(Debug)]
struct LifecycleCounters {
    deadlines_exceeded: Counter,
    connections_reaped: Counter,
    draining_refusals: Counter,
    drain_micros: Counter,
}

impl LifecycleCounters {
    fn register(registry: &Registry) -> LifecycleCounters {
        LifecycleCounters {
            deadlines_exceeded: registry.counter("graphiti_deadlines_exceeded_total"),
            connections_reaped: registry.counter("graphiti_connections_reaped_total"),
            draining_refusals: registry.counter("graphiti_draining_refusals_total"),
            drain_micros: registry.counter("graphiti_drain_micros"),
        }
    }
}

/// Per-request-kind service-time distributions plus the deadline slack
/// observed at admission, registered once per server.
#[derive(Debug)]
struct ServerMetrics {
    deadline_slack_ms: Arc<Histogram>,
    hello: Arc<Histogram>,
    open: Arc<Histogram>,
    query: Arc<Histogram>,
    batch: Arc<Histogram>,
    commit: Arc<Histogram>,
    refresh: Arc<Histogram>,
    stats: Arc<Histogram>,
    checkpoint: Arc<Histogram>,
    close: Arc<Histogram>,
    introspect: Arc<Histogram>,
    query_profiled: Arc<Histogram>,
}

impl ServerMetrics {
    fn register(registry: &Registry) -> ServerMetrics {
        let h = |kind: &str| registry.histogram(&format!("graphiti_request_micros_{kind}"));
        ServerMetrics {
            deadline_slack_ms: registry.histogram("graphiti_deadline_slack_ms"),
            hello: h("hello"),
            open: h("open"),
            query: h("query"),
            batch: h("batch"),
            commit: h("commit"),
            refresh: h("refresh"),
            stats: h("stats"),
            checkpoint: h("checkpoint"),
            close: h("close"),
            introspect: h("introspect"),
            query_profiled: h("query_profiled"),
        }
    }

    fn service_time(&self, request: &Request) -> &Arc<Histogram> {
        match request {
            Request::Hello { .. } => &self.hello,
            Request::OpenSession => &self.open,
            Request::Query(_) => &self.query,
            Request::Batch(_) => &self.batch,
            Request::Commit { .. } => &self.commit,
            Request::Refresh => &self.refresh,
            Request::Stats => &self.stats,
            Request::Checkpoint => &self.checkpoint,
            Request::Close => &self.close,
            Request::Introspect { .. } => &self.introspect,
            Request::QueryProfiled(_) => &self.query_profiled,
        }
    }
}

/// What [`ServerHandle::shutdown`] observed while draining.
#[derive(Debug, Clone, Default)]
pub struct DrainReport {
    /// Wall-clock time from the drain flag flipping to the last
    /// connection thread joining.
    pub duration: Duration,
    /// Requests refused with a typed [`ApiError::Draining`] frame
    /// because they arrived after the drain began (whole server life,
    /// monotone — a server drains once).
    pub draining_refusals: u64,
    /// Connection threads joined by this drain (idle, in-flight, and
    /// stalled peers alike).
    pub connections_joined: usize,
}

enum Listener {
    Tcp(TcpListener),
    Unix(UnixListener),
}

/// One accepted connection, either transport.
enum Stream {
    Tcp(TcpStream),
    Unix(UnixStream),
}

impl Stream {
    fn set_read_timeout(&self, t: Option<Duration>) -> std::io::Result<()> {
        match self {
            Stream::Tcp(s) => s.set_read_timeout(t),
            Stream::Unix(s) => s.set_read_timeout(t),
        }
    }

    fn set_write_timeout(&self, t: Option<Duration>) -> std::io::Result<()> {
        match self {
            Stream::Tcp(s) => s.set_write_timeout(t),
            Stream::Unix(s) => s.set_write_timeout(t),
        }
    }
}

impl Read for Stream {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        match self {
            Stream::Tcp(s) => s.read(buf),
            Stream::Unix(s) => s.read(buf),
        }
    }
}

impl Write for Stream {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        match self {
            Stream::Tcp(s) => s.write(buf),
            Stream::Unix(s) => s.write(buf),
        }
    }

    fn flush(&mut self) -> std::io::Result<()> {
        match self {
            Stream::Tcp(s) => s.flush(),
            Stream::Unix(s) => s.flush(),
        }
    }
}

/// A serving front-end over a [`Graphiti`] service.
pub struct Server {
    service: Graphiti,
    options: ServerOptions,
}

impl Server {
    /// Wraps a service with default options.
    pub fn new(service: Graphiti) -> Server {
        Server::with_options(service, ServerOptions::default())
    }

    /// Wraps a service with explicit options.
    pub fn with_options(service: Graphiti, options: ServerOptions) -> Server {
        Server { service, options }
    }

    /// Binds a TCP listener (use port 0 for an OS-assigned port; the
    /// bound address is on the handle) and starts accepting.
    pub fn serve_tcp(self, addr: impl std::net::ToSocketAddrs) -> ApiResult<ServerHandle> {
        let listener = TcpListener::bind(addr).map_err(|e| ApiError::Io(e.to_string()))?;
        let local = listener.local_addr().map_err(|e| ApiError::Io(e.to_string()))?;
        self.spawn(Listener::Tcp(listener), Some(local), None)
    }

    /// Binds a unix-domain socket at `path` (removed again on shutdown)
    /// and starts accepting.
    pub fn serve_unix(self, path: impl AsRef<Path>) -> ApiResult<ServerHandle> {
        let path = path.as_ref().to_path_buf();
        // A stale socket file from a crashed predecessor would make
        // bind fail; serving is the only reason the file exists.
        let _ = std::fs::remove_file(&path);
        let listener = UnixListener::bind(&path).map_err(|e| ApiError::Io(e.to_string()))?;
        self.spawn(Listener::Unix(listener), None, Some(path))
    }

    fn spawn(
        self,
        listener: Listener,
        tcp_addr: Option<SocketAddr>,
        unix_path: Option<PathBuf>,
    ) -> ApiResult<ServerHandle> {
        let shutdown = Arc::new(AtomicBool::new(false));
        let active = Arc::new(AtomicUsize::new(0));
        let registry = Arc::clone(self.service.obs().registry());
        let lifecycle = Arc::new(LifecycleCounters::register(&registry));
        let metrics = Arc::new(ServerMetrics::register(&registry));
        let conns: Arc<Mutex<Vec<JoinHandle<()>>>> = Arc::new(Mutex::new(Vec::new()));
        let accepter = {
            let shutdown = Arc::clone(&shutdown);
            let active = Arc::clone(&active);
            let lifecycle = Arc::clone(&lifecycle);
            let metrics = Arc::clone(&metrics);
            let conns = Arc::clone(&conns);
            std::thread::Builder::new()
                .name("graphiti-accept".into())
                .spawn(move || {
                    accept_loop(self, listener, shutdown, active, lifecycle, metrics, conns)
                })
                .map_err(|e| ApiError::Io(e.to_string()))?
        };
        Ok(ServerHandle {
            shutdown,
            accepter: Some(accepter),
            conns,
            lifecycle,
            tcp_addr,
            unix_path,
        })
    }
}

#[allow(clippy::too_many_arguments)]
fn accept_loop(
    server: Server,
    listener: Listener,
    shutdown: Arc<AtomicBool>,
    active: Arc<AtomicUsize>,
    lifecycle: Arc<LifecycleCounters>,
    metrics: Arc<ServerMetrics>,
    conns: Arc<Mutex<Vec<JoinHandle<()>>>>,
) {
    loop {
        let stream = match &listener {
            Listener::Tcp(l) => l.accept().map(|(s, _)| Stream::Tcp(s)),
            Listener::Unix(l) => l.accept().map(|(s, _)| Stream::Unix(s)),
        };
        if shutdown.load(Ordering::SeqCst) {
            return;
        }
        let Ok(mut stream) = stream else { continue };
        // Admission layer one: the connection cap.
        if active.fetch_add(1, Ordering::SeqCst) >= server.options.max_connections {
            active.fetch_sub(1, Ordering::SeqCst);
            let err = ApiError::Backpressure(format!(
                "server at its {}-connection cap; retry later",
                server.options.max_connections
            ));
            let (code, message) = err.to_wire();
            let _ = protocol::write_frame(
                &mut stream,
                &protocol::encode_response(0, &Response::Error { code, message }),
            );
            continue;
        }
        let service = server.service.clone();
        let options = server.options.clone();
        let conn_shutdown = Arc::clone(&shutdown);
        let conn_lifecycle = Arc::clone(&lifecycle);
        let conn_metrics = Arc::clone(&metrics);
        let conn_active = Arc::clone(&active);
        let handle = std::thread::Builder::new().name("graphiti-conn".into()).spawn(move || {
            serve_conn(
                service,
                options,
                &mut stream,
                &conn_shutdown,
                &conn_lifecycle,
                &conn_metrics,
            );
            conn_active.fetch_sub(1, Ordering::SeqCst);
        });
        match handle {
            Ok(h) => conns.lock().expect("conn registry lock").push(h),
            Err(_) => {
                active.fetch_sub(1, Ordering::SeqCst);
            }
        }
    }
}

/// How one governed `read_exact` over the timeout tick ended.
enum GovRead {
    /// The buffer is full.
    Full,
    /// Clean end-of-stream at a frame boundary.
    Eof,
    /// The peer closed mid-read.
    Torn,
    /// The drain flag flipped while idle at a frame boundary.
    Draining,
    /// Idle at a frame boundary past the idle timeout.
    IdleReap,
    /// Mid-read without progress past the stall timeout.
    Stalled,
    /// Mid-read when the drain deadline expired.
    DrainExpired,
    /// A hard I/O failure.
    Io(String),
}

/// Fills `buf` under the connection's timeout tick.  `at_boundary`
/// marks a read that starts between frames, where zero bytes so far
/// means the peer is merely idle (eligible for clean EOF, drain close,
/// and idle reaping) rather than stalled mid-frame.
fn read_governed(
    stream: &mut Stream,
    buf: &mut [u8],
    at_boundary: bool,
    options: &ServerOptions,
    shutdown: &AtomicBool,
    first_byte: &mut Option<Instant>,
) -> GovRead {
    let started = Instant::now();
    let mut progress_at = started;
    let mut drain_seen: Option<Instant> = None;
    let mut filled = 0usize;
    while filled < buf.len() {
        match stream.read(&mut buf[filled..]) {
            Ok(0) if filled == 0 && at_boundary => return GovRead::Eof,
            Ok(0) => return GovRead::Torn,
            Ok(n) => {
                filled += n;
                progress_at = Instant::now();
                first_byte.get_or_insert(progress_at);
            }
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut =>
            {
                let now = Instant::now();
                let idle = filled == 0 && at_boundary;
                if shutdown.load(Ordering::SeqCst) {
                    if idle {
                        return GovRead::Draining;
                    }
                    let seen = *drain_seen.get_or_insert(now);
                    if now.duration_since(seen) >= options.drain_deadline {
                        return GovRead::DrainExpired;
                    }
                }
                if idle {
                    if now.duration_since(started) >= options.idle_timeout {
                        return GovRead::IdleReap;
                    }
                } else if now.duration_since(progress_at) >= options.stall_timeout {
                    return GovRead::Stalled;
                }
            }
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e) => return GovRead::Io(e.to_string()),
        }
    }
    GovRead::Full
}

/// One whole frame read under the lifecycle governor.
enum FrameOutcome {
    /// A complete payload, plus when its first byte arrived (the
    /// request's deadline budget is measured from there, so a
    /// trickled-in frame spends its own budget).
    Frame(Vec<u8>, Instant),
    /// Clean end-of-stream between frames.
    Eof,
    /// Close quietly: drain observed while idle.
    Draining,
    /// Close and count a reap: idle or stalled peer.
    Reaped,
    /// Close: the drain deadline expired on a mid-frame peer.
    DrainExpired,
    /// Close after a typed error frame: torn, oversized, or corrupt.
    Failed(ApiError),
}

fn read_frame_governed(
    stream: &mut Stream,
    options: &ServerOptions,
    shutdown: &AtomicBool,
) -> FrameOutcome {
    let mut first_byte = None;
    let mut header = [0u8; 8];
    match read_governed(stream, &mut header, true, options, shutdown, &mut first_byte) {
        GovRead::Full => {}
        GovRead::Eof => return FrameOutcome::Eof,
        GovRead::Draining => return FrameOutcome::Draining,
        GovRead::IdleReap | GovRead::Stalled => return FrameOutcome::Reaped,
        GovRead::DrainExpired => return FrameOutcome::DrainExpired,
        GovRead::Torn => {
            return FrameOutcome::Failed(ApiError::Protocol(
                "connection closed inside a frame header".into(),
            ))
        }
        GovRead::Io(m) => return FrameOutcome::Failed(ApiError::Io(m)),
    }
    let len = u32::from_le_bytes(header[0..4].try_into().expect("4 bytes"));
    let crc = u32::from_le_bytes(header[4..8].try_into().expect("4 bytes"));
    if len == 0 {
        return FrameOutcome::Failed(ApiError::Protocol("empty frame payload".into()));
    }
    if len > options.max_frame_bytes {
        return FrameOutcome::Failed(ApiError::Protocol(format!(
            "oversized frame: {len} bytes exceeds the {} cap",
            options.max_frame_bytes
        )));
    }
    let mut payload = vec![0u8; len as usize];
    match read_governed(stream, &mut payload, false, options, shutdown, &mut first_byte) {
        GovRead::Full => {}
        GovRead::Eof | GovRead::Torn => {
            return FrameOutcome::Failed(ApiError::Protocol(
                "connection closed inside a frame payload".into(),
            ))
        }
        GovRead::Stalled | GovRead::IdleReap => return FrameOutcome::Reaped,
        GovRead::Draining | GovRead::DrainExpired => return FrameOutcome::DrainExpired,
        GovRead::Io(m) => return FrameOutcome::Failed(ApiError::Io(m)),
    }
    if codec::crc32(&payload) != crc {
        return FrameOutcome::Failed(ApiError::Protocol("frame checksum mismatch".into()));
    }
    FrameOutcome::Frame(payload, first_byte.unwrap_or_else(Instant::now))
}

/// One connection's request loop.  Returns when the peer disconnects,
/// sends something malformed, closes its session, idles or stalls past
/// its budgets, the server drains, or a handler panics.
fn serve_conn(
    service: Graphiti,
    options: ServerOptions,
    stream: &mut Stream,
    shutdown: &AtomicBool,
    lifecycle: &LifecycleCounters,
    metrics: &ServerMetrics,
) {
    let _ = stream.set_read_timeout(Some(options.tick));
    let _ = stream.set_write_timeout(Some(options.write_timeout));
    let mut session: Option<graphiti_store::EmbeddedSession> = None;
    let mut greeted = false;
    // The framing version this connection negotiated at Hello; until
    // then the oldest supported layout, which the Hello frame itself
    // always uses.
    let mut version: u32 = MIN_PROTOCOL_VERSION;
    loop {
        let (payload, arrived) = match read_frame_governed(stream, &options, shutdown) {
            FrameOutcome::Frame(payload, arrived) => (payload, arrived),
            FrameOutcome::Eof | FrameOutcome::Draining | FrameOutcome::DrainExpired => return,
            FrameOutcome::Reaped => {
                lifecycle.connections_reaped.inc();
                return;
            }
            FrameOutcome::Failed(err) => {
                // A torn or hostile frame gets a typed reply; the
                // stream is unsynchronized past it, so close.
                send_error(stream, version, 0, &err, lifecycle);
                return;
            }
        };
        let (request_id, deadline_ms, wire_trace, request) =
            protocol::decode_request_versioned(&payload, version);
        // A request that arrives once the drain began is refused with a
        // typed frame; only handlers already running are in-flight.
        if shutdown.load(Ordering::SeqCst) {
            lifecycle.draining_refusals.inc();
            send_error(
                stream,
                version,
                request_id,
                &ApiError::Draining("server is draining for shutdown; retry after restart".into()),
                lifecycle,
            );
            return;
        }
        let request = match request {
            Ok(request) => request,
            Err(err) => {
                send_error(stream, version, request_id, &err, lifecycle);
                return;
            }
        };
        // Every post-handshake request gets a trace id: the client's if
        // it supplied one (version 3+), minted at decode otherwise — so
        // a version-2 peer's requests still trace server-side.
        let trace = if greeted && !matches!(request, Request::Hello { .. }) {
            if wire_trace != 0 {
                wire_trace
            } else {
                mint_trace_id()
            }
        } else {
            0
        };
        // The deadline budget runs from the frame's first byte: the
        // wire header's, or the server default when the header says 0.
        let budget = if deadline_ms > 0 {
            Some(Duration::from_millis(deadline_ms as u64))
        } else {
            options.default_deadline
        };
        let deadline = budget.map(|b| arrived + b);
        // Admission check: a frame that trickled in past its own
        // budget is answered without running the handler at all.  The
        // slack distribution records how much budget survives admission
        // (an expired budget is zero slack).
        if let Some(d) = deadline {
            let slack = d.saturating_duration_since(Instant::now());
            metrics.deadline_slack_ms.record(slack.as_millis() as u64);
        }
        if deadline.is_some_and(|d| Instant::now() >= d) {
            if !send_error(
                stream,
                version,
                request_id,
                &ApiError::DeadlineExceeded("deadline expired before admission".into()),
                lifecycle,
            ) {
                return;
            }
            continue;
        }
        let closing = matches!(request, Request::Close);
        let service_time = Arc::clone(metrics.service_time(&request));
        let span = (trace != 0)
            .then(|| service.obs().tracer().clone())
            .map(|tracer| OwnedSpan::begin(tracer, trace));
        let served = Instant::now();
        // The handler runs under catch_unwind so a panic — a store bug,
        // or the poison-query test hook — becomes a typed error frame
        // instead of a hung client.
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            handle_request(
                &service,
                &options,
                lifecycle,
                &mut session,
                &mut greeted,
                &mut version,
                deadline,
                trace,
                request,
            )
        }));
        drop(span);
        service_time.record(served.elapsed().as_micros() as u64);
        match outcome {
            Ok(Ok(response)) => {
                // Pre-reply check: a reply the client has given up on
                // is not worth serializing; the typed error keeps the
                // connection usable.
                if deadline.is_some_and(|d| Instant::now() >= d) {
                    if !send_error(
                        stream,
                        version,
                        request_id,
                        &ApiError::DeadlineExceeded(
                            "deadline expired before the reply was serialized".into(),
                        ),
                        lifecycle,
                    ) {
                        return;
                    }
                    if closing {
                        return;
                    }
                    continue;
                }
                let encoded = protocol::encode_response_versioned(version, request_id, &response);
                if protocol::write_frame(stream, &encoded).is_err() {
                    return;
                }
            }
            Ok(Err(err)) => {
                if !send_error(stream, version, request_id, &err, lifecycle) {
                    return;
                }
            }
            Err(_panic) => {
                // The session's state is suspect; drop it and close.
                drop(session.take());
                send_error(
                    stream,
                    version,
                    request_id,
                    &ApiError::Internal(
                        "server panicked handling the request; session closed".into(),
                    ),
                    lifecycle,
                );
                return;
            }
        }
        if closing {
            return;
        }
    }
}

/// A `server.request` span that owns its tracer, so it can outlive the
/// borrow checker's view of the request while the handler runs.
struct OwnedSpan {
    tracer: Arc<graphiti_obs::trace::Tracer>,
    trace: u64,
    span: u64,
}

impl OwnedSpan {
    fn begin(tracer: Arc<graphiti_obs::trace::Tracer>, trace: u64) -> OwnedSpan {
        let span = tracer.span_begin(trace, 0, "server.request");
        OwnedSpan { tracer, trace, span }
    }
}

impl Drop for OwnedSpan {
    fn drop(&mut self) {
        self.tracer.span_end(self.trace, self.span, 0, "server.request");
    }
}

/// Writes a typed error frame (counting expired deadlines); false when
/// the stream is already gone.
fn send_error(
    stream: &mut Stream,
    version: u32,
    request_id: u64,
    err: &ApiError,
    lifecycle: &LifecycleCounters,
) -> bool {
    if matches!(err, ApiError::DeadlineExceeded(_)) {
        lifecycle.deadlines_exceeded.inc();
    }
    let (code, message) = err.to_wire();
    protocol::write_frame(
        stream,
        &protocol::encode_response_versioned(
            version,
            request_id,
            &Response::Error { code, message },
        ),
    )
    .is_ok()
}

#[allow(clippy::too_many_arguments)]
fn handle_request(
    service: &Graphiti,
    options: &ServerOptions,
    lifecycle: &LifecycleCounters,
    session: &mut Option<graphiti_store::EmbeddedSession>,
    greeted: &mut bool,
    negotiated: &mut u32,
    deadline: Option<Instant>,
    trace: u64,
    request: Request,
) -> ApiResult<Response> {
    // The handshake gates everything else.  The server accepts any
    // version it still speaks and echoes it back; the connection then
    // uses that framing both ways.
    if !*greeted {
        return match request {
            Request::Hello { version }
                if (MIN_PROTOCOL_VERSION..=PROTOCOL_VERSION).contains(&version) =>
            {
                *greeted = true;
                *negotiated = version;
                Ok(Response::HelloOk { version })
            }
            Request::Hello { version } => Err(ApiError::Protocol(format!(
                "protocol version {version} not supported (server speaks \
                 {MIN_PROTOCOL_VERSION}..={PROTOCOL_VERSION})"
            ))),
            _ => Err(ApiError::Protocol("expected Hello as the first request".into())),
        };
    }
    if let Some(delay) = options.handler_delay {
        std::thread::sleep(delay);
    }
    match request {
        Request::Hello { .. } => {
            Err(ApiError::Protocol("duplicate Hello on an established connection".into()))
        }
        Request::OpenSession => {
            let s = service.session();
            let generation = s.generation();
            *session = Some(s);
            Ok(Response::SessionOpen { generation })
        }
        Request::Query(query) => {
            if let (Some(poison), Some(text)) = (&options.poison_query, query_text(&query)) {
                assert_ne!(poison, text, "poison query tripped (test hook)");
            }
            let s = open(session)?;
            Ok(Response::Rows(s.query(&query)?))
        }
        Request::Batch(queries) => {
            let s = open(session)?;
            Ok(Response::BatchOk(s.batch(&queries)?))
        }
        Request::Commit { delta, token } => {
            let s = open(session)?;
            // Pre-queue check: an already-expired budget is refused
            // before the commit is ever submitted (nothing ambiguous).
            if deadline.is_some_and(|d| Instant::now() >= d) {
                return Err(ApiError::DeadlineExceeded(
                    "deadline expired before the commit was queued; nothing was submitted".into(),
                ));
            }
            // The bounded admission queue, surfaced as typed
            // backpressure instead of blocking the connection thread.
            // The request's trace id rides along so the commit's WAL,
            // fsync, and publish spans join the server.request span.
            let req = CommitRequest { delta, token: (token != 0).then_some(token), trace };
            match service.try_commit(req, deadline)? {
                Ok(ack) => {
                    // Re-pin for read-your-writes, matching the
                    // embedded session's commit semantics.
                    let session_generation = s.refresh()?;
                    Ok(Response::CommitOk { ack, session_generation })
                }
                Err(_req) => Err(ApiError::Backpressure("commit queue full; retry later".into())),
            }
        }
        Request::Refresh => Ok(Response::Generation(open(session)?.refresh()?)),
        Request::Stats => {
            let mut stats = service.service_stats();
            stats.deadlines_exceeded = lifecycle.deadlines_exceeded.get();
            stats.connections_reaped = lifecycle.connections_reaped.get();
            stats.draining_refusals = lifecycle.draining_refusals.get();
            stats.drain_micros = lifecycle.drain_micros.get();
            Ok(Response::StatsOk(stats))
        }
        Request::Checkpoint => Ok(Response::CheckpointOk(open(session)?.checkpoint()?)),
        Request::Close => {
            if let Some(mut s) = session.take() {
                s.close()?;
            }
            Ok(Response::Closed)
        }
        Request::Introspect { mode } => {
            let obs = service.obs();
            let text = match mode {
                IntrospectMode::Metrics => obs.render_metrics(),
                IntrospectMode::Traces => obs.render_traces_json(),
                IntrospectMode::SlowQueries => obs.render_slow_queries_json(),
            };
            Ok(Response::IntrospectOk(text))
        }
        Request::QueryProfiled(query) => {
            if let (Some(poison), Some(text)) = (&options.poison_query, query_text(&query)) {
                assert_ne!(poison, text, "poison query tripped (test hook)");
            }
            let s = open(session)?;
            let (table, profile) = s.query_profiled(&query)?;
            Ok(Response::RowsProfiled { table, profile_json: profile.to_json() })
        }
    }
}

fn query_text(q: &graphiti_engine::BatchQuery) -> Option<&str> {
    match q {
        graphiti_engine::BatchQuery::Cypher { text } => Some(text),
        graphiti_engine::BatchQuery::Sql { text, .. } => Some(text),
    }
}

fn open(
    session: &mut Option<graphiti_store::EmbeddedSession>,
) -> ApiResult<&mut graphiti_store::EmbeddedSession> {
    session.as_mut().ok_or_else(|| {
        ApiError::SessionClosed("no open session on this connection (send OpenSession)".into())
    })
}

/// A running server.  Dropping the handle shuts the server down.
pub struct ServerHandle {
    shutdown: Arc<AtomicBool>,
    accepter: Option<JoinHandle<()>>,
    conns: Arc<Mutex<Vec<JoinHandle<()>>>>,
    lifecycle: Arc<LifecycleCounters>,
    tcp_addr: Option<SocketAddr>,
    unix_path: Option<PathBuf>,
}

impl ServerHandle {
    /// The bound TCP address (None for a unix-socket server).
    pub fn tcp_addr(&self) -> Option<SocketAddr> {
        self.tcp_addr
    }

    /// The unix socket path (None for a TCP server).
    pub fn unix_path(&self) -> Option<&Path> {
        self.unix_path.as_deref()
    }

    /// Drains and stops the server in bounded time: accepting stops,
    /// requests arriving past this point are refused with typed
    /// [`ApiError::Draining`] frames, in-flight handlers finish, idle
    /// connections close within one tick, and peers blocked mid-frame
    /// are cut off after [`ServerOptions::drain_deadline`].  Joins
    /// every connection thread and removes the unix socket file.
    pub fn shutdown(mut self) -> DrainReport {
        self.stop().unwrap_or_default()
    }

    fn stop(&mut self) -> Option<DrainReport> {
        let accepter = self.accepter.take()?;
        let started = Instant::now();
        self.shutdown.store(true, Ordering::SeqCst);
        // The accepter blocks in accept(); poke it awake with one
        // throwaway connection so it observes the flag.
        match (&self.tcp_addr, &self.unix_path) {
            (Some(addr), _) => {
                let _ = TcpStream::connect(addr);
            }
            (_, Some(path)) => {
                let _ = UnixStream::connect(path);
            }
            _ => {}
        }
        let _ = accepter.join();
        let handles: Vec<JoinHandle<()>> =
            std::mem::take(&mut *self.conns.lock().expect("conn registry lock"));
        let connections_joined = handles.len();
        // Every connection thread reads under the timeout tick, so each
        // observes the drain flag within a tick and exits on its own;
        // these joins are bounded, idle peers included.
        for h in handles {
            let _ = h.join();
        }
        if let Some(path) = &self.unix_path {
            let _ = std::fs::remove_file(path);
        }
        let duration = started.elapsed();
        self.lifecycle.drain_micros.set(duration.as_micros() as u64);
        Some(DrainReport {
            duration,
            draining_refusals: self.lifecycle.draining_refusals.get(),
            connections_joined,
        })
    }
}

impl Drop for ServerHandle {
    fn drop(&mut self) {
        self.stop();
    }
}
