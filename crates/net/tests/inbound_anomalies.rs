//! Input from outside the process that a server cannot use is counted
//! under a name, never asserted on and never silent: a live
//! single-server cluster is fed a unit for a worker it does not host,
//! a perfectly framed unit per worker whose body is no message, and
//! then a header no stream can recover from; it keeps serving, and
//! reports all three in its `SSTATS` and `WSTATS` lines.

use std::io::{Read, Write};
use std::net::{Shutdown, TcpStream};
use std::path::PathBuf;

use hyperdex_core::{KeywordSet, ObjectId};
use hyperdex_net::cluster::{Cluster, ClusterConfig};
use hyperdex_net::stream::push_unit;
use hyperdex_runtime::wire::{WireMsg, MAX_BODY_LEN};

#[test]
fn misrouted_undecodable_and_corrupt_input_is_counted_and_the_server_keeps_serving() {
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

    let report = cluster.shutdown(client).expect("cluster shutdown");
    report.assert_conserved();
    assert_eq!(report.supervisor.units_misrouted, 1, "{report:?}");
    assert_eq!(report.supervisor.streams_corrupt, 1, "{report:?}");
    let undecodable: u64 = report.workers.iter().map(|w| w.frames_undecodable).sum();
    assert_eq!(undecodable, 2, "{report:?}");
}
