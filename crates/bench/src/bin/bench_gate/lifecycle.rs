//! `lifecycle`: the happy-path cost of deadlines and idempotency
//! tokens, a bounded drain, and exactly-once commits across an
//! ambiguous disconnect.
//!
//! * **tokened relative throughput** — single-session commit throughput
//!   over a unix socket: a resilient client carrying a token and a
//!   deadline on every request, divided by a plain client (no token, no
//!   deadline, no retry).  Each leg is its best of 4 reps after a
//!   warm-up; `tokened_relative_throughput` is floored at 0.95;
//! * **bounded drain** — `shutdown` against a server holding an idle,
//!   never-sending connection plus a live session must return within
//!   2 s and join both (`drain_bounded`);
//! * **exactly-once under disconnect** — a `FaultLink` proxy eats
//!   exactly the commit response; the client's retry must resolve as an
//!   idempotent replay: the same generation and one commit in the
//!   store's history (`exactly_once_under_disconnect`).

use crate::fixtures::{
    best_of_each, connect, delta_for, service, socket_path, wire_commit_throughput,
};
use graphiti_bench::json::Json;
use graphiti_server::{Client, ClientOptions, Server, ServerOptions};
use graphiti_store::Session;
use graphiti_testkit::{FaultLink, LinkFault};
use std::time::{Duration, Instant};

const COMMITS: i64 = 512;
const REPS: usize = 4;

/// (drain seconds, bounded).
fn drain_bound() -> (f64, bool) {
    let sock = socket_path("drain");
    let options = ServerOptions {
        tick: Duration::from_millis(20),
        drain_deadline: Duration::from_millis(500),
        ..ServerOptions::default()
    };
    let handle =
        Server::with_options(service(16), options).serve_unix(&sock).expect("server binds");
    let idle = std::os::unix::net::UnixStream::connect(&sock).expect("idle peer connects");
    let mut session = Client::connect_unix(&sock).expect("live client connects");
    session.commit(delta_for(9_000_000)).expect("commit lands");
    std::thread::sleep(Duration::from_millis(50));
    let started = Instant::now();
    let report = handle.shutdown();
    let elapsed = started.elapsed();
    drop(idle);
    (elapsed.as_secs_f64(), elapsed < Duration::from_secs(2) && report.connections_joined >= 2)
}

fn exactly_once_under_disconnect() -> bool {
    let resilient = |addr| {
        Client::connect_tcp_with(
            addr,
            ClientOptions { deadline: Some(Duration::from_secs(2)), ..ClientOptions::resilient() },
        )
        .expect("resilient client connects")
    };
    // Probe: learn which transfer op carries the commit response.
    let (commit_response_op, probe_generation) = {
        let svc = service(16);
        let handle = Server::new(svc.clone()).serve_tcp("127.0.0.1:0").expect("server binds");
        let link = FaultLink::start(handle.tcp_addr().expect("tcp addr")).expect("proxy starts");
        let mut session = resilient(link.addr());
        let ack = session.commit(delta_for(0)).expect("probe commit lands");
        let op = link.ops();
        drop(link);
        handle.shutdown();
        (op, ack.generation)
    };
    // Re-run with the response eaten mid-flight.
    let svc = service(16);
    let handle = Server::with_options(
        svc.clone(),
        ServerOptions { tick: Duration::from_millis(20), ..ServerOptions::default() },
    )
    .serve_tcp("127.0.0.1:0")
    .expect("server binds");
    let link = FaultLink::start(handle.tcp_addr().expect("tcp addr")).expect("proxy starts");
    link.fail_nth(commit_response_op, LinkFault::Disconnect);
    let mut session = resilient(link.addr());
    let Ok(ack) = session.commit(delta_for(0)) else { return false };
    let stats = svc.service_stats();
    drop(link);
    handle.shutdown();
    ack.generation == probe_generation && stats.commits == 1 && stats.idempotent_replays == 1
}

pub fn run() -> Json {
    let (plain, tokened) = best_of_each(
        REPS,
        || wire_commit_throughput("plain", COMMITS, connect, |_, _| {}),
        || {
            wire_commit_throughput(
                "tokened",
                COMMITS,
                |sock| {
                    Client::connect_unix_with(
                        sock,
                        ClientOptions {
                            deadline: Some(Duration::from_secs(30)),
                            ..ClientOptions::resilient()
                        },
                    )
                    .expect("resilient client connects")
                },
                |_, _| {},
            )
        },
    );
    let (drain_secs, drain_bounded) = drain_bound();
    let exactly_once = exactly_once_under_disconnect();
    Json::obj([
        ("plain_commits_per_sec", plain.into()),
        ("tokened_commits_per_sec", tokened.into()),
        ("drain_secs", drain_secs.into()),
        (
            "gate",
            Json::obj([
                ("tokened_relative_throughput", (tokened / plain.max(1e-9)).into()),
                ("drain_bounded", drain_bounded.into()),
                ("exactly_once_under_disconnect", exactly_once.into()),
            ]),
        ),
    ])
}
