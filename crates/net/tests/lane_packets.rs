//! What a socket lane puts on a writer queue is what the stream
//! decoder reads: the packet is byte for byte the `[dest][frame]` unit
//! stream [`push_unit`] writes for the frames appended, in append
//! order, and [`StreamDecoder`] splits it cleanly back into them. (The
//! lane's behaviour under full and closed sinks is property-tested
//! against a model in `hyperdex-runtime`'s `transport` tests.)

use std::sync::mpsc::sync_channel;

use hyperdex_net::stream::{push_unit, StreamDecoder, CLIENT_DEST};
use hyperdex_runtime::wire::exemplars;
use hyperdex_runtime::{Fabric, PacketPool, WireMsg};

#[test]
fn a_socket_lanes_packet_is_the_unit_stream_the_decoder_reads() {
    let (tx, rx) = sync_channel(1);
    let mut fabric = Fabric::new(3, PacketPool::default());
    fabric.socket_lane(tx, [(0, 5), (2, CLIENT_DEST)]);
    let mut expected = Vec::new();
    for (i, msg) in exemplars().iter().enumerate() {
        let (endpoint, unit_dest) = [(0, 5), (2, CLIENT_DEST)][i % 2];
        fabric.append(endpoint, msg);
        push_unit(&mut expected, unit_dest, &msg.encode());
    }
    fabric.offer(true);
    assert_eq!(fabric.pending(), 0);
    let packet = rx.try_recv().expect("one packet for the whole window");
    assert_eq!(packet, expected);

    let mut dec = StreamDecoder::new();
    dec.push(&packet);
    for (i, msg) in exemplars().iter().enumerate() {
        let unit = dec.next_unit().expect("well-formed").expect("buffered");
        assert_eq!(unit.dest, [5, CLIENT_DEST][i % 2]);
        assert_eq!(WireMsg::decode_exact(&unit.frame).as_ref(), Ok(msg));
    }
    assert_eq!(dec.buffered(), 0, "the packet ends on a unit boundary");
}
