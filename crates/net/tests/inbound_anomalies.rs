//! Input from outside the process that a server cannot use is counted
//! under a name, never asserted on and never silent: a live
//! single-server cluster is fed a unit for a worker it does not host
//! and then a header no stream can recover from, keeps serving, and
//! reports both in its `SSTATS` line.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::path::PathBuf;

use hyperdex_core::{KeywordSet, ObjectId};
use hyperdex_net::cluster::{Cluster, ClusterConfig};
use hyperdex_net::stream::push_unit;
use hyperdex_runtime::wire::{WireMsg, MAX_BODY_LEN};

#[test]
fn a_misrouted_unit_and_a_corrupt_stream_are_counted_and_the_server_keeps_serving() {
    let mut cfg = ClusterConfig::new(8, 42, 2, 1);
    cfg.server_bin = Some(PathBuf::from(env!("CARGO_BIN_EXE_hyperdex-server")));
    let cluster = Cluster::launch(cfg).expect("cluster launch");
    let mut client = cluster.client().expect("cluster client");

    // A connection that says a mesh peer's hello, then a well-formed
    // unit for worker 99, then a header announcing an impossible body.
    let mut rogue = TcpStream::connect(&cluster.addrs()[0]).expect("dial the server");
    let mut bytes = 1u32.to_le_bytes().to_vec();
    push_unit(&mut bytes, 99, &WireMsg::Flush { token: 1 }.encode());
    bytes.extend_from_slice(&0u32.to_le_bytes());
    bytes.extend_from_slice(&(MAX_BODY_LEN + 1).to_le_bytes());
    rogue.write_all(&bytes).expect("send garbage");
    // The server hangs up once it has judged the stream: both
    // counters are final when the read returns.
    let mut rest = Vec::new();
    rogue
        .read_to_end(&mut rest)
        .expect("server closes the connection");
    assert!(rest.is_empty(), "mesh connections carry nothing back");

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
}
