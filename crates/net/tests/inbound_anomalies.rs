//! Input from outside the process that a server cannot use is counted
//! under a name, never asserted on and never silent: a live
//! single-server cluster is fed a unit for a worker it does not host,
//! a perfectly framed unit per worker whose body is no message, an
//! insert and a pin for a vertex their receiver does not own, two
//! frames under a retired tag and one of a kind no worker is ever
//! sent, three region queries whose `coord` is nobody a worker could
//! answer, and then a header no stream can recover from; it keeps
//! serving, and reports all of it in its `SSTATS` and `WSTATS` lines.
//! And a client connection is not the only one a server ever answers:
//! the newest one gets the replies; nor does a connection that never
//! says hello keep it from reading the next one's.

use std::io::{Read, Write};
use std::net::{Shutdown, TcpStream};
use std::path::PathBuf;
use std::time::Duration;

use hyperdex_core::{KeywordHasher, KeywordSet, ObjectId};
use hyperdex_net::cluster::{Cluster, ClusterConfig};
use hyperdex_net::stream::{push_unit, CLIENT_DEST};
use hyperdex_runtime::wire::{WireMsg, MAX_BODY_LEN};
use hyperdex_runtime::{ShardMap, WorkerStats};

#[test]
fn misrouted_undecodable_and_corrupt_input_is_counted_and_the_server_keeps_serving() {
    let owner = |keywords: &KeywordSet| {
        let bits = KeywordHasher::new(8, 42)
            .unwrap()
            .vertex_for(keywords)
            .bits();
        ShardMap::new(8, 2, 42).owner_of(bits)
    };
    let mut cfg = ClusterConfig::new(8, 42, 2, 1);
    cfg.server_bin = Some(PathBuf::from(env!("CARGO_BIN_EXE_hyperdex-server")));
    let cluster = Cluster::launch(cfg).expect("cluster launch");
    let mut client = cluster.client().expect("cluster client");

    // A connection that says a mesh peer's hello, sends `units` and
    // its end of stream, and waits for the server to hang up: whatever
    // the server made of the bytes is final when the read returns.
    let feed = |units: &[u8]| {
        let mut rogue = TcpStream::connect(&cluster.addrs()[0]).expect("dial the server");
        let mut bytes = 1u32.to_le_bytes().to_vec();
        bytes.extend_from_slice(units);
        rogue.write_all(&bytes).expect("send garbage");
        rogue.shutdown(Shutdown::Write).expect("end of stream");
        let mut rest = Vec::new();
        rogue
            .read_to_end(&mut rest)
            .expect("server closes the connection");
        assert!(rest.is_empty(), "mesh connections carry nothing back");
    };
    // A well-formed unit for worker 99, then for each hosted worker a
    // unit whose one-byte body is the unknown tag 0xEE: the reader
    // checks framing only, the worker is who decodes.
    let mut units = Vec::new();
    push_unit(&mut units, 99, &WireMsg::Flush { token: 1 }.encode());
    for worker in 0..2 {
        push_unit(&mut units, worker, &[1, 0, 0, 0, 0xEE]);
    }
    feed(&units);
    // A write and a read handed to the worker that does not own their
    // vertex: the write must not be indexed where nobody will ever ask
    // for it, the read finds nothing (its reply, under an id the client
    // never issued, is dropped there).
    let stray = KeywordSet::parse("stray set").unwrap();
    let mut units = Vec::new();
    for msg in [
        WireMsg::Insert {
            object: 8,
            keywords: stray.clone(),
        },
        WireMsg::Pin {
            query_id: u64::MAX,
            keywords: stray.clone(),
        },
    ] {
        push_unit(&mut units, 1 - owner(&stray), &msg.encode());
    }
    feed(&units);
    // All to worker 0: two whole frames under tag 13, which released a
    // respawned worker from its replay when recovery was a protocol —
    // retired, so undecodable — and a frame that decodes but is no
    // worker's to act on, a reply meant for a client.
    let mut units = Vec::new();
    for worker in [1u8, 0] {
        push_unit(&mut units, 0, &[5, 0, 0, 0, 13, worker, 0, 0, 0]);
    }
    let reply = WireMsg::QueryDone {
        query_id: u64::MAX,
        objects: vec![(8, 0)],
    };
    push_unit(&mut units, 0, &reply.encode());
    feed(&units);
    // Region queries, to worker 0, whose answer would go to no worker
    // at all, to the client's slot, and to worker 0 itself (the first
    // used to index the worker's lanes out of bounds).
    let mut units = Vec::new();
    for coord in [99, 2, 0] {
        let msg = WireMsg::RegionQuery {
            query_id: u64::MAX,
            keywords: stray.clone(),
            threshold: 1,
            coord,
            attempt: 0,
        };
        push_unit(&mut units, 0, &msg.encode());
    }
    feed(&units);
    // A header announcing an impossible body.
    let mut header = 0u32.to_le_bytes().to_vec();
    header.extend_from_slice(&(MAX_BODY_LEN + 1).to_le_bytes());
    feed(&header);

    let keywords = KeywordSet::parse("still serving").unwrap();
    client
        .insert(ObjectId::from_raw(7), keywords.clone())
        .expect("insert");
    client.flush().expect("flush");
    assert_eq!(
        client.pin_search(&keywords).expect("pin"),
        vec![ObjectId::from_raw(7)]
    );

    assert_eq!(client.pin_search(&stray).expect("pin"), vec![]);
    assert_eq!(
        client.superset_search(&stray, 10).expect("superset"),
        vec![]
    );

    let report = cluster.shutdown(client).expect("cluster shutdown");
    // The six misrouted frames are in nobody's `sent`: the ledger is
    // over by exactly them (the stray pin's reply was sent and received
    // like any other; the region queries were not answered).
    assert_eq!(
        report.total_received(),
        report.total_sent() + 6,
        "{report:?}"
    );
    let misrouted: Vec<u64> = report.workers.iter().map(|w| w.frames_misrouted).collect();
    let mut expected = vec![4, 0];
    expected[1 - owner(&stray) as usize] += 2;
    assert_eq!(misrouted, expected, "{report:?}");
    assert_eq!(report.supervisor.units_misrouted, 1, "{report:?}");
    assert_eq!(report.supervisor.streams_corrupt, 1, "{report:?}");
    let undecodable: u64 = report.workers.iter().map(|w| w.frames_undecodable).sum();
    assert_eq!(undecodable, 4, "{report:?}");
}

/// The client writer's queue outlives a client connection and answers
/// on the newest: a second connection to a live server is served, which
/// is what lets a client that lost its socket re-dial.
#[test]
fn the_newest_client_connection_gets_the_replies() {
    let mut cfg = ClusterConfig::new(8, 42, 2, 1);
    cfg.server_bin = Some(PathBuf::from(env!("CARGO_BIN_EXE_hyperdex-server")));
    let cluster = Cluster::launch(cfg).expect("cluster launch");
    // A client by hand, twice: the hello, a barrier for worker 0, its
    // ack (one 29-byte unit) read back, the hangup.
    for token in [1, 2] {
        let mut raw = TcpStream::connect(&cluster.addrs()[0]).expect("dial the server");
        let mut bytes = CLIENT_DEST.to_le_bytes().to_vec();
        push_unit(&mut bytes, 0, &WireMsg::Flush { token }.encode());
        raw.write_all(&bytes).expect("send the barrier");
        raw.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
        let mut unit = [0u8; 29];
        raw.read_exact(&mut unit)
            .unwrap_or_else(|e| panic!("connection {token} was never answered: {e}"));
        let ack = WireMsg::decode_exact(&unit[4..]).expect("a frame");
        assert!(matches!(ack, WireMsg::FlushAck { token: t, worker: 0, .. } if t == token));
    }
    // The third and newest connection is the library's.
    let mut client = cluster.client().expect("cluster client");
    let keywords = KeywordSet::parse("third time").unwrap();
    let object = ObjectId::from_raw(7);
    client.insert(object, keywords.clone()).expect("insert");
    client.flush().expect("flush");
    assert_eq!(client.pin_search(&keywords).expect("pin"), vec![object]);
    let report = cluster.shutdown(client).expect("cluster shutdown");
    // The raw connections' two barriers and two acks are in the
    // workers' ledgers and not in the client's: nothing else is off, and
    // nothing was written to a connection that was gone.
    let sum = |counter: fn(&WorkerStats) -> u64| report.workers.iter().map(counter).sum::<u64>();
    assert_eq!(sum(|w| w.frames_received), report.client_sent + 2);
    assert_eq!(sum(|w| w.frames_sent), report.client_received + 2);
    assert_eq!(report.supervisor.frames_drained, 0, "{report:?}");
}

/// A peer that connects and says nothing holds up no connection but its
/// own: each connection's hello is read by its own reader, so a client
/// that dials in behind a silent one is served. A connection that ends
/// inside its hello is a corrupt stream, counted once.
#[test]
fn a_silent_connection_does_not_stop_the_server_from_accepting() {
    let mut cfg = ClusterConfig::new(8, 42, 2, 1);
    cfg.server_bin = Some(PathBuf::from(env!("CARGO_BIN_EXE_hyperdex-server")));
    cfg.net.request_timeout = Duration::from_secs(2);
    let cluster = Cluster::launch(cfg).expect("cluster launch");
    let silent = TcpStream::connect(&cluster.addrs()[0]).expect("dial the server");
    let mut client = cluster.client().expect("cluster client");
    let keywords = KeywordSet::parse("behind a silent peer").unwrap();
    let object = ObjectId::from_raw(7);
    client.insert(object, keywords.clone()).expect("insert");
    client.flush().expect("flush");
    assert_eq!(client.pin_search(&keywords).expect("pin"), vec![object]);
    // Two bytes of a hello, the end of the stream, and the server's
    // hangup: whatever it made of them is counted when the read returns.
    let mut torn = TcpStream::connect(&cluster.addrs()[0]).expect("dial the server");
    torn.write_all(&CLIENT_DEST.to_le_bytes()[..2])
        .expect("half a hello");
    torn.shutdown(Shutdown::Write).expect("end of stream");
    torn.read_to_end(&mut Vec::new())
        .expect("server closes the connection");
    let report = cluster.shutdown(client).expect("cluster shutdown");
    report.assert_conserved();
    assert_eq!(report.supervisor.streams_corrupt, 1, "{report:?}");
    // Still silent, and still open: it never counted.
    drop(silent);
}
