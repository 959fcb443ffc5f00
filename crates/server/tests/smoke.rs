//! End-to-end serving smoke tests over a unix-domain socket: a mixed
//! 32-client workload with group-committed writes, the
//! panic-to-typed-error-frame path, refusal of deeply nested text, and
//! admission control at the connection cap.

use graphiti_common::{ApiError, Value};
use graphiti_engine::BatchQuery;
use graphiti_server::{Client, Server, ServerOptions};
use graphiti_store::{Delta, Graphiti, Session};
use graphiti_testkit::fixtures;
use std::path::PathBuf;

/// A short unix socket path (the 108-byte sockaddr limit rules out
/// deep target dirs).
fn sock_path(tag: &str) -> PathBuf {
    let path = std::env::temp_dir().join(format!("graphiti-{tag}-{}.sock", std::process::id()));
    let _ = std::fs::remove_file(&path);
    path
}

fn service() -> Graphiti {
    Graphiti::builder(fixtures::emp::schema())
        .group_commit_default()
        .open()
        .expect("in-memory service opens")
}

#[test]
fn mixed_32_client_workload_over_unix_socket_with_clean_shutdown() {
    const CLIENTS: u64 = 32;
    const COMMITS_PER_CLIENT: u64 = 4;
    let path = sock_path("smoke");
    let service = service();
    let handle = Server::new(service.clone()).serve_unix(&path).expect("server binds");

    let mut threads = Vec::new();
    for c in 0..CLIENTS {
        let path = path.clone();
        threads.push(std::thread::spawn(move || {
            let mut session = Client::connect_unix(&path).expect("client connects");
            let opened_at = session.generation();
            for i in 0..COMMITS_PER_CLIENT {
                let mut delta = Delta::new();
                let id = (c * COMMITS_PER_CLIENT + i) as i64;
                delta.add_node(
                    "EMP",
                    [("id", Value::Int(id)), ("ename", Value::str(format!("w{id}")))],
                );
                let ack = session.commit(delta).expect("disjoint ids never reject");
                // Commits re-pin the session at (or past) the commit's
                // publication: read-your-writes.
                assert!(session.generation() >= ack.published_generation);
                assert!(ack.published_generation >= ack.generation);
            }
            // The pinned snapshot serves queries and batches mid-write.
            let rows = session
                .query(&BatchQuery::cypher("MATCH (n:EMP) RETURN n.id AS id"))
                .expect("query runs");
            assert!(rows.rows.len() as u64 >= COMMITS_PER_CLIENT);
            let report = session
                .batch(&[
                    BatchQuery::sql("SELECT Count(*) AS c FROM EMP AS e"),
                    BatchQuery::cypher("MATCH (n:EMP) RETURN n.ename AS name"),
                ])
                .expect("batch runs");
            assert_eq!(report.outcomes.len(), 2);
            for outcome in &report.outcomes {
                outcome.result.as_ref().expect("batch outcomes succeed");
            }
            let g = session.refresh().expect("refresh runs");
            assert!(g >= opened_at);
            let stats = session.stats().expect("stats run");
            assert!(stats.generation >= g);
            session.close().expect("clean close");
        }));
    }
    for t in threads {
        t.join().expect("client threads never panic");
    }

    let stats = service.service_stats();
    assert_eq!(stats.commits, CLIENTS * COMMITS_PER_CLIENT);
    assert_eq!(stats.rejected_commits, 0);
    assert_eq!(stats.live_nodes, CLIENTS * COMMITS_PER_CLIENT);
    assert_eq!(stats.group_members, CLIENTS * COMMITS_PER_CLIENT);
    assert!(stats.groups_formed <= stats.group_members);
    assert!(!stats.fenced);

    handle.shutdown();
    assert!(!path.exists(), "shutdown removes the socket file");
}

#[test]
fn tcp_round_trip_commit_query_and_clean_shutdown() {
    let service = service();
    let handle = Server::new(service.clone()).serve_tcp("127.0.0.1:0").expect("server binds");
    let addr = handle.tcp_addr().expect("tcp listener has an address");

    let mut session = Client::connect_tcp(addr).expect("client connects over tcp");
    let mut delta = Delta::new();
    delta.add_node("EMP", [("id", Value::Int(1)), ("ename", Value::str("Ada"))]);
    let ack = session.commit(delta).expect("commit lands");
    assert!(session.generation() >= ack.published_generation);
    let rows = session
        .query(&BatchQuery::cypher("MATCH (n:EMP) RETURN n.ename AS name"))
        .expect("query runs");
    assert_eq!(rows.rows.len(), 1);
    session.close().expect("clean close");

    assert_eq!(service.service_stats().commits, 1);
    handle.shutdown();
}

#[test]
fn deeply_nested_text_gets_an_error_frame_and_the_session_keeps_serving() {
    let path = sock_path("deep");
    let handle = Server::new(service()).serve_unix(&path).expect("server binds");
    let mut session = Client::connect_unix(&path).expect("client connects");
    // 10,000 levels would overflow a connection thread's 2 MiB stack in
    // the parser and abort the whole process.
    let nots = "NOT ".repeat(10_000);
    let deep = [
        BatchQuery::cypher(format!("MATCH (n:EMP) WHERE {nots}n.id = 1 RETURN n.id AS id")),
        BatchQuery::sql(format!("SELECT n.id FROM EMP AS n WHERE {nots}n.id = 1")),
        BatchQuery::sql(format!(
            "SELECT n.id FROM EMP AS n WHERE {}n.id = 1{}",
            "(".repeat(10_000),
            ")".repeat(10_000)
        )),
    ];
    for query in &deep {
        let err = session.query(query).expect_err("deep text is refused");
        let ApiError::Parse(m) = &err else { panic!("expected Parse, got {err}") };
        assert!(m.contains("nests deeper than"), "message names the bound: {m}");
        let rows = session
            .query(&BatchQuery::cypher("MATCH (n:EMP) RETURN n.id AS id"))
            .expect("the next request succeeds");
        assert!(rows.rows.is_empty());
    }
    session.close().expect("clean close");
    handle.shutdown();
}

#[test]
fn panicking_handler_sends_typed_error_frame_and_closes_session() {
    let poison = "MATCH (boom:EMP) RETURN boom.id AS id";
    let path = sock_path("poison");
    let handle = Server::with_options(
        service(),
        ServerOptions { poison_query: Some(poison.into()), ..ServerOptions::default() },
    )
    .serve_unix(&path)
    .expect("server binds");

    let mut session = Client::connect_unix(&path).expect("client connects");
    // The poisoned query panics inside the handler; the client must get
    // a typed error frame — not a hang, not a dead socket.
    let err = session.query(&BatchQuery::cypher(poison)).expect_err("poisoned query fails");
    let ApiError::Internal(m) = &err else { panic!("expected Internal, got {err}") };
    assert!(m.contains("panicked"), "message names the panic: {m}");
    // The session is closed on both sides; further use is refused
    // locally without touching the dead connection.
    let err = session.refresh().expect_err("session is closed");
    assert!(matches!(err, ApiError::SessionClosed(_)), "{err}");

    // One connection's panic poisons nothing else.
    let mut fresh = Client::connect_unix(&path).expect("fresh client connects");
    fresh
        .query(&BatchQuery::cypher("MATCH (n:EMP) RETURN n.id AS id"))
        .expect("the server still serves");
    fresh.close().expect("clean close");

    handle.shutdown();
}

#[test]
fn connection_cap_backpressures_at_accept() {
    let path = sock_path("cap");
    let handle = Server::with_options(
        service(),
        ServerOptions { max_connections: 1, ..ServerOptions::default() },
    )
    .serve_unix(&path)
    .expect("server binds");

    let mut first = Client::connect_unix(&path).expect("first client connects");
    let err = Client::connect_unix(&path).expect_err("second client is refused");
    assert!(err.is_backpressure(), "typed backpressure at accept: {err}");

    // Closing the first connection frees its slot.
    first.close().expect("clean close");
    drop(first);
    // The slot is released when the connection thread winds down; poll
    // briefly rather than assuming scheduling order.
    let mut admitted = false;
    for _ in 0..100 {
        match Client::connect_unix(&path) {
            Ok(mut s) => {
                s.close().expect("clean close");
                admitted = true;
                break;
            }
            Err(e) if e.is_backpressure() => {
                std::thread::sleep(std::time::Duration::from_millis(10));
            }
            Err(e) => panic!("unexpected connect failure: {e}"),
        }
    }
    assert!(admitted, "a freed slot re-admits clients");

    handle.shutdown();
}
