//! Protocol robustness proptests: random payloads round-trip, and no
//! input — truncated, oversized, bit-flipped, or pure garbage — ever
//! panics the decoder or a live server.  A malformed frame gets a typed
//! error *reply*, not a dropped connection with no explanation.

use graphiti_common::{ApiError, Value};
use graphiti_engine::{BatchQuery, SqlTarget};
use graphiti_server::protocol::{self, Request, Response, DEFAULT_MAX_FRAME, PROTOCOL_VERSION};
use graphiti_server::{Client, Server};
use graphiti_store::{Delta, Graphiti, Session};
use graphiti_testkit::fixtures;
use proptest::prelude::*;
use std::io::Write;
use std::os::unix::net::UnixStream;

/// Arbitrary strings over the full Latin-1 block — embedded NULs,
/// control characters, and multi-byte UTF-8 all included.
fn arb_string() -> impl Strategy<Value = String> {
    collection::vec(any::<u8>(), 0..12)
        .prop_map(|bytes| bytes.into_iter().map(char::from).collect())
}

fn arb_value() -> impl Strategy<Value = Value> {
    prop_oneof![
        Just(Value::Null),
        any::<bool>().prop_map(Value::Bool),
        any::<i64>().prop_map(Value::Int),
        any::<i64>().prop_map(|i| Value::Float(i as f64 / 256.0)),
        arb_string().prop_map(Value::str),
    ]
}

fn arb_query() -> impl Strategy<Value = BatchQuery> {
    prop_oneof![
        arb_string().prop_map(BatchQuery::cypher),
        arb_string().prop_map(BatchQuery::sql),
        (arb_string(), arb_string())
            .prop_map(|(t, q)| BatchQuery::Sql { text: q, target: SqlTarget::Named(t) }),
    ]
}

fn arb_delta() -> impl Strategy<Value = Delta> {
    collection::vec((arb_string(), collection::vec((arb_string(), arb_value()), 0..4)), 0..4)
        .prop_map(|nodes| {
            let mut delta = Delta::new();
            for (label, props) in nodes {
                delta.add_node(label, props);
            }
            delta
        })
}

fn arb_request() -> impl Strategy<Value = Request> {
    prop_oneof![
        any::<u32>().prop_map(|version| Request::Hello { version }),
        Just(Request::OpenSession),
        arb_query().prop_map(Request::Query),
        collection::vec(arb_query(), 0..4).prop_map(Request::Batch),
        (arb_delta(), any::<u64>(), any::<u64>()).prop_map(|(delta, hi, lo)| {
            Request::Commit { delta, token: ((hi as u128) << 64) | lo as u128 }
        }),
        Just(Request::Refresh),
        Just(Request::Stats),
        Just(Request::Checkpoint),
        Just(Request::Close),
    ]
}

/// A 45-byte Commit payload whose one `AddNode` claims `count`
/// properties and carries none: request header (13 bytes), token (16),
/// op count (4), op tag (1), the label `EMP` (7), then the count (4).
fn add_node_claiming(count: u32) -> Vec<u8> {
    let mut delta = Delta::new();
    delta.add_node("EMP", Vec::<(String, Value)>::new());
    let mut payload = protocol::encode_request(7, 0, &Request::Commit { delta, token: 0 });
    assert_eq!(payload.len(), 45);
    payload[41..].copy_from_slice(&count.to_le_bytes());
    payload
}

/// A count field read off the bytes must never size an allocation: a
/// property count of `u32::MAX` once made the decoder ask for 160 GiB,
/// and the failed allocation aborted the process.
#[test]
fn a_hostile_property_count_is_a_protocol_error() {
    for count in [16, u32::MAX] {
        let (id, _, decoded) = protocol::decode_request(&add_node_claiming(count));
        assert_eq!(id, 7);
        assert!(matches!(decoded, Err(ApiError::Protocol(_))), "count {count}: {decoded:?}");
    }
}

/// Request kinds whose bodies hold count fields, each behind the common
/// 13-byte header.
fn arb_counted_request() -> impl Strategy<Value = Request> {
    prop_oneof![
        collection::vec(arb_query(), 0..4).prop_map(Request::Batch),
        (arb_delta(), any::<u64>())
            .prop_map(|(delta, token)| Request::Commit { delta, token: token as u128 }),
    ]
}

proptest! {
    /// Overwriting any 4-byte window of a valid request body with a
    /// huge count decodes to a typed result — never an abort.  A window
    /// that lands on a count field makes the decoder run out of bytes.
    #[test]
    fn huge_counts_in_valid_requests_are_typed(
        req in arb_counted_request(),
        at in any::<usize>(),
        count in (1u32 << 24)..=u32::MAX,
    ) {
        let mut payload = protocol::encode_request(1, 0, &req);
        prop_assume!(payload.len() >= 17);
        let at = 13 + at % (payload.len() - 16);
        payload[at..at + 4].copy_from_slice(&count.to_le_bytes());
        match protocol::decode_request(&payload).2 {
            Ok(_) | Err(ApiError::Protocol(_)) => {}
            Err(other) => prop_assert!(false, "unexpected error class: {other}"),
        }
    }

    /// Any request round-trips bit-exactly through encode/decode.
    #[test]
    fn requests_round_trip(id in any::<u64>(), deadline_ms in any::<u32>(), req in arb_request()) {
        let payload = protocol::encode_request(id, deadline_ms, &req);
        let (echo, echo_deadline, got) = protocol::decode_request(&payload);
        prop_assert_eq!(echo, id);
        prop_assert_eq!(echo_deadline, deadline_ms);
        let got = got.unwrap();
        prop_assert_eq!(format!("{got:?}"), format!("{req:?}"));
    }

    /// Garbage payloads decode to typed errors — never panics (the
    /// decoders are total functions over arbitrary bytes).
    #[test]
    fn garbage_payloads_never_panic(payload in collection::vec(any::<u8>(), 0..256)) {
        let _ = protocol::decode_request(&payload);
        let _ = protocol::decode_response(&payload);
    }

    /// Truncating or bit-flipping a framed request never panics the
    /// frame reader: every outcome is a clean EOF, a typed error, or
    /// the untouched full decode.
    #[test]
    fn torn_and_flipped_frames_are_typed(
        id in any::<u64>(),
        req in arb_request(),
        cut_at in any::<usize>(),
        flip_at in any::<usize>(),
    ) {
        let framed = protocol::frame(&protocol::encode_request(id, 0, &req));
        let cut = cut_at % (framed.len() + 1);
        match protocol::read_frame(&mut &framed[..cut], DEFAULT_MAX_FRAME) {
            Ok(None) => prop_assert_eq!(cut, 0, "only the empty prefix is a clean EOF"),
            Ok(Some(payload)) => {
                prop_assert_eq!(cut, framed.len());
                prop_assert!(protocol::decode_request(&payload).2.is_ok());
            }
            Err(ApiError::Protocol(_)) | Err(ApiError::Io(_)) => {}
            Err(other) => prop_assert!(false, "unexpected error class: {other}"),
        }
        let mut flipped = framed.clone();
        let at = flip_at % flipped.len();
        flipped[at] ^= 0x40;
        match protocol::read_frame(&mut flipped.as_slice(), DEFAULT_MAX_FRAME) {
            // A flip in the length header lands on truncation, the
            // size cap, or (vanishingly) a CRC collision; a payload
            // flip must fail the checksum — CRC-32 catches every
            // single-bit error.
            Ok(Some(_)) => prop_assert!(at < 4, "flips past the length header cannot decode"),
            Ok(None) => prop_assert!(false, "a flipped frame is not a clean EOF"),
            Err(ApiError::Protocol(_)) | Err(ApiError::Io(_)) => {}
            Err(other) => prop_assert!(false, "unexpected error class: {other}"),
        }
    }
}

/// A live server answers a malformed-but-framed payload with a typed
/// error reply before closing — the client is never left staring at a
/// silently dropped connection.
#[test]
fn live_server_replies_typed_error_to_malformed_frames() {
    let path = std::env::temp_dir().join(format!("graphiti-frames-{}.sock", std::process::id()));
    let _ = std::fs::remove_file(&path);
    let service =
        Graphiti::builder(fixtures::emp::schema()).open().expect("in-memory service opens");
    let handle = Server::new(service).serve_unix(&path).expect("server binds");

    // Correctly framed garbage: passes the CRC, fails request decode.
    let mut conn = UnixStream::connect(&path).expect("connects");
    protocol::write_frame(&mut conn, &[0x7F; 24]).expect("send");
    let payload = protocol::read_frame(&mut conn, DEFAULT_MAX_FRAME)
        .expect("a typed reply, not a dropped connection")
        .expect("a frame, not EOF");
    let (_, resp) = protocol::decode_response(&payload);
    let Ok(Response::Error { code, message }) = resp else { panic!("expected an error frame") };
    assert!(
        matches!(ApiError::from_wire(code, message), ApiError::Protocol(_)),
        "malformed payloads are protocol errors"
    );
    // ... and the stream is closed past the reply.
    assert!(protocol::read_frame(&mut conn, DEFAULT_MAX_FRAME).expect("clean EOF").is_none());

    // A torn frame (header promises more than arrives) is answered
    // too, once the disconnect is observed.
    let mut conn = UnixStream::connect(&path).expect("connects");
    let whole = protocol::frame(&protocol::encode_request(
        1,
        0,
        &Request::Hello { version: PROTOCOL_VERSION },
    ));
    conn.write_all(&whole[..whole.len() - 3]).expect("send prefix");
    conn.shutdown(std::net::Shutdown::Write).expect("half-close");
    let payload = protocol::read_frame(&mut conn, DEFAULT_MAX_FRAME)
        .expect("a typed reply, not a dropped connection")
        .expect("a frame, not EOF");
    let (_, resp) = protocol::decode_response(&payload);
    let Ok(Response::Error { code, message }) = resp else { panic!("expected an error frame") };
    assert!(matches!(ApiError::from_wire(code, message), ApiError::Protocol(_)));

    handle.shutdown();
}

/// A hostile count in a connection's first frame — decoded before any
/// handshake — is answered with a typed error, and the server lives on
/// to serve the next connection.
#[test]
fn live_server_survives_a_hostile_count_in_the_first_frame() {
    let path = std::env::temp_dir().join(format!("graphiti-count-{}.sock", std::process::id()));
    let _ = std::fs::remove_file(&path);
    let service =
        Graphiti::builder(fixtures::emp::schema()).open().expect("in-memory service opens");
    let handle = Server::new(service).serve_unix(&path).expect("server binds");

    let mut conn = UnixStream::connect(&path).expect("connects");
    protocol::write_frame(&mut conn, &add_node_claiming(u32::MAX)).expect("send");
    let payload = protocol::read_frame(&mut conn, DEFAULT_MAX_FRAME)
        .expect("a typed reply, not a dropped connection")
        .expect("a frame, not EOF");
    let (_, resp) = protocol::decode_response(&payload);
    let Ok(Response::Error { code, message }) = resp else { panic!("expected an error frame") };
    assert!(matches!(ApiError::from_wire(code, message), ApiError::Protocol(_)));

    let mut session = Client::connect_unix(&path).expect("the next connection is served");
    let mut delta = Delta::new();
    delta.add_node("EMP", [("id", Value::Int(1)), ("ename", Value::str("Ada"))]);
    assert_eq!(session.commit(delta).expect("commits").generation, 1);
    handle.shutdown();
}
