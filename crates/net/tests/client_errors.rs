//! Client-side failure semantics against scripted fake servers: a
//! deadline that expires yields [`Error::Timeout`], a dead connection
//! is re-dialed with exponential backoff, and an unreachable server
//! surfaces as [`Error::ConnectionLost`] — typed errors, never panics —
//! and so does a server whose stream carries what no server sends.
//! A pipelined request window re-issues across a mid-window reconnect.
//! (How a window completes out of order and degrades one search without
//! stalling the rest is the client core's, and `hyperdex-runtime`'s
//! `client_core` suite scripts it with no socket.)

use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::mpsc::channel;
use std::time::{Duration, Instant};

use hyperdex_core::{Error, KeywordSet, ObjectId};
use hyperdex_net::client::{NetClient, NetConfig};
use hyperdex_net::stream::{push_unit, StreamDecoder, CLIENT_DEST};
use hyperdex_runtime::wire::WireMsg;

fn quick_cfg() -> NetConfig {
    NetConfig {
        connect_timeout: Duration::from_secs(2),
        request_timeout: Duration::from_millis(150),
        reconnect_attempts: 3,
        reconnect_backoff: Duration::from_millis(10),
        window: 8,
    }
}

/// Reads the 4-byte client hello off a fresh connection.
/// `msg` as one unit for `dest`, the bytes a server writes.
fn unit(dest: u32, msg: &WireMsg) -> Vec<u8> {
    let mut out = Vec::new();
    push_unit(&mut out, dest, &msg.encode());
    out
}

fn read_hello(stream: &mut TcpStream) -> u32 {
    let mut hello = [0u8; 4];
    stream.read_exact(&mut hello).expect("client hello");
    u32::from_le_bytes(hello)
}

#[test]
fn silent_server_times_out_with_the_configured_deadline() {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap().to_string();
    // A server that accepts, consumes everything, and never answers.
    // Detached: the client's reader keeps the socket alive past drop,
    // so this thread only exits with the test process.
    std::thread::spawn(move || {
        let (mut stream, _) = listener.accept().unwrap();
        assert_eq!(read_hello(&mut stream), CLIENT_DEST);
        let mut sink = [0u8; 4096];
        while matches!(stream.read(&mut sink), Ok(n) if n > 0) {}
    });

    let mut client = NetClient::connect(&[addr], 8, 42, 1, quick_cfg()).expect("connect");
    let started = Instant::now();
    let err = client
        .pin_search(&KeywordSet::parse("any keywords").unwrap())
        .expect_err("no reply ever comes");
    match err {
        Error::Timeout {
            operation,
            after_ms,
        } => {
            assert_eq!(after_ms, 150, "deadline must echo the configured timeout");
            assert!(
                operation.contains("pin"),
                "operation names the request: {operation}"
            );
        }
        other => panic!("expected Timeout, got {other}"),
    }
    assert!(
        started.elapsed() >= Duration::from_millis(150),
        "returned before the deadline"
    );
}

#[test]
fn dropped_connection_is_redialed_and_the_request_succeeds() {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap().to_string();
    let (port_done_tx, port_done_rx) = channel::<()>();
    // A server that slams the first connection shut, then serves the
    // second one properly: one pin request, one canned reply.
    let flaky = std::thread::spawn(move || {
        let (mut first, _) = listener.accept().unwrap();
        assert_eq!(read_hello(&mut first), CLIENT_DEST);
        drop(first);

        let (mut second, _) = listener.accept().unwrap();
        assert_eq!(read_hello(&mut second), CLIENT_DEST);
        let mut dec = StreamDecoder::new();
        let mut chunk = [0u8; 4096];
        loop {
            let n = second.read(&mut chunk).expect("request bytes");
            assert!(n > 0, "client hung up before asking");
            dec.push(&chunk[..n]);
            if let Some((_, frame)) = dec.next_unit_ref().expect("well-formed") {
                let WireMsg::Pin { query_id, .. } =
                    WireMsg::decode_exact(frame).expect("a pin request")
                else {
                    panic!("expected a pin request");
                };
                let reply = WireMsg::PinResults {
                    query_id,
                    objects: vec![7],
                };
                second.write_all(&unit(CLIENT_DEST, &reply)).expect("reply");
                break;
            }
        }
        // Hold the socket open until the client has read the reply.
        port_done_rx.recv().ok();
    });

    let mut client = NetClient::connect(&[addr], 8, 42, 1, quick_cfg()).expect("connect");
    // Give the reader thread time to observe the hangup.
    std::thread::sleep(Duration::from_millis(50));
    let objects = client
        .pin_search(&KeywordSet::parse("resilient lookup").unwrap())
        .expect("reconnect transparently and complete");
    assert_eq!(objects.len(), 1);
    port_done_tx.send(()).ok();
    drop(client);
    flaky.join().unwrap();
}

#[test]
fn unreachable_server_exhausts_the_reconnect_budget() {
    // Bind then drop: the port is (briefly) known-dead.
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap().to_string();
    drop(listener);

    let started = Instant::now();
    let Err(err) = NetClient::connect(std::slice::from_ref(&addr), 8, 42, 1, quick_cfg()) else {
        panic!("nobody is listening, connect must fail");
    };
    match err {
        Error::ConnectionLost { endpoint, .. } => assert_eq!(endpoint, addr),
        other => panic!("expected ConnectionLost, got {other}"),
    }
    // connect() itself does not retry; it must fail fast.
    assert!(started.elapsed() < Duration::from_secs(2));
}

/// A client whose one server accepted it, hung up and stopped
/// listening, and the server's address.
fn client_of_a_dead_server() -> (NetClient, String) {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap().to_string();
    let gone = std::thread::spawn({
        let listener = listener.try_clone().unwrap();
        move || {
            let (mut stream, _) = listener.accept().unwrap();
            assert_eq!(read_hello(&mut stream), CLIENT_DEST);
            drop(stream);
        }
    });
    let client =
        NetClient::connect(std::slice::from_ref(&addr), 8, 42, 1, quick_cfg()).expect("connect");
    gone.join().unwrap();
    // Now the port is dead for reconnects too. Give the reader thread
    // time to observe the hangup.
    drop(listener);
    std::thread::sleep(Duration::from_millis(50));
    (client, addr)
}

#[test]
fn mid_session_loss_gives_up_after_backoff_and_names_the_endpoint() {
    let (mut client, addr) = client_of_a_dead_server();
    let started = Instant::now();
    let err = client
        .pin_search(&KeywordSet::parse("anyone there").unwrap())
        .expect_err("server is gone for good");
    let elapsed = started.elapsed();
    match err {
        Error::ConnectionLost { endpoint, detail } => {
            assert_eq!(endpoint, addr);
            assert!(
                detail.contains("gave up after 3 attempts"),
                "detail documents the budget: {detail}"
            );
        }
        other => panic!("expected ConnectionLost, got {other}"),
    }
    // Exponential backoff: attempt, 10ms, attempt, 20ms, attempt.
    assert!(
        elapsed >= Duration::from_millis(30),
        "reconnect returned too fast for its backoff schedule ({elapsed:?})"
    );
}

/// An insert is only queued, so the inserts to a server that died
/// succeed; the flush that writes them finds the server gone and says
/// which one — a load is never lost in silence.
#[test]
fn inserts_to_a_dead_server_fail_the_flush_that_writes_them() {
    let (mut client, addr) = client_of_a_dead_server();
    for object in 0..10 {
        let keywords = KeywordSet::parse(&format!("lost write {object}")).unwrap();
        client
            .insert(ObjectId::from_raw(object), keywords)
            .expect("queued, not written");
    }
    match client.flush() {
        Err(Error::ConnectionLost { endpoint, detail }) => {
            assert_eq!(endpoint, addr);
            assert!(detail.contains("gave up after 3 attempts"), "{detail}");
        }
        other => panic!("expected ConnectionLost, got {other:?}"),
    }
}

/// A reply unit addressed to a worker is a stream this client should
/// not be reading: the request awaiting that server fails with
/// `ConnectionLost`, at once, in every build profile (a debug build
/// used to panic its reader and sit out the deadline, a release build
/// to take the frame for the answer).
#[test]
fn a_worker_bound_unit_at_the_client_is_a_lost_connection() {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap().to_string();
    let server = std::thread::spawn(move || {
        let (mut stream, _) = listener.accept().unwrap();
        assert_eq!(read_hello(&mut stream), CLIENT_DEST);
        let mut sink = [0u8; 4096];
        assert!(stream.read(&mut sink).expect("the pin request") > 0);
        // The first id a client issues, the answer it hopes for — and a
        // header that says worker 0.
        let reply = WireMsg::PinResults {
            query_id: 1,
            objects: vec![7],
        };
        stream.write_all(&unit(0, &reply)).expect("reply");
        // Until the client is gone: its reader left at the bad unit.
        while matches!(stream.read(&mut sink), Ok(n) if n > 0) {}
    });

    let cfg = NetConfig {
        request_timeout: Duration::from_secs(3),
        ..quick_cfg()
    };
    let mut client = NetClient::connect(&[addr], 8, 42, 1, cfg).unwrap();
    let started = Instant::now();
    let err = client
        .pin_search(&KeywordSet::parse("misaddressed answer").unwrap())
        .expect_err("the answer was not addressed to a client");
    assert!(
        matches!(&err, Error::ConnectionLost { detail, .. } if detail.contains("worker-bound")),
        "{err}"
    );
    assert!(started.elapsed() < Duration::from_secs(2), "{err}");
    drop(client);
    server.join().unwrap();
}
