//! The worker fabric: one lane per destination.
//!
//! A worker never talks to an `mpsc` sender (or a socket) directly. It
//! appends each outbound frame — encoded once, in place — to the
//! **lane** of the frame's destination: the growing packet the fabric
//! will carry, plus the sender it goes to. A lane ships by swapping its
//! packet against a spare and `try_send`ing it. The never-block
//! discipline the runtime was built on is the lane's whole contract: a
//! ship either hands the packet over, finds the sink *full* (the lane
//! keeps its bytes and keeps growing — that is the parked outbox — and
//! the push-back is counted), or finds it *closed* (the lane's frames
//! are dropped **with a count**, so conservation still balances).
//!
//! There are two lane kinds because there are two kinds of sink:
//!
//! * an **inbox lane** feeds a co-located worker or the in-process
//!   client: raw frames back to back, offered on every loop turn;
//! * a **socket lane** feeds a connection's writer queue (a remote
//!   server, or the TCP client): `[dest u32][frame]` units — what
//!   `hyperdex-net`'s stream decoder reads — offered when the worker
//!   closes its batching window or once the packet passes
//!   [`LANE_WATERMARK`].
//!
//! [`crate::runtime::NodeRuntime`] builds fabrics of inbox lanes only;
//! a `hyperdex-net` server routes co-located workers to inbox lanes and
//! everything else to socket lanes. The unit on every sink is therefore
//! a **packet** — one or more length-prefixed [`WireMsg`] frames — and
//! every receive path walks packets with [`wire::frames`] (a socket
//! lane's with [`wire::units`]) and counts logical frames, never fabric
//! operations. This module holds lanes only: what a frame or a unit
//! looks like is [`wire`]'s.

use std::sync::mpsc::{SyncSender, TrySendError};
use std::sync::{Arc, Mutex};

use crate::wire::{self, WireMsg};

/// Bytes a socket lane's packet reaches before it is offered to the
/// writer queue even while the batching window is still open.
pub const LANE_WATERMARK: usize = 32 * 1024;

/// Packet buffers a [`PacketPool`] retains.
pub const PACKET_POOL_CAP: usize = 64;

/// Recycled packet buffers, shared by everything that empties a packet
/// (a worker done with an inbound one, a writer thread done with an
/// outbound one) and the lanes, which draw their spares here — the
/// steady-state send path allocates nothing.
#[derive(Debug, Clone, Default)]
pub struct PacketPool(Arc<Mutex<Vec<Vec<u8>>>>);

impl PacketPool {
    /// An empty buffer, recycled when one is available.
    pub fn take(&self) -> Vec<u8> {
        self.0
            .lock()
            .ok()
            .and_then(|mut pool| pool.pop())
            .unwrap_or_default()
    }

    /// Hands a spent buffer back (cleared here; dropped when the pool
    /// already holds [`PACKET_POOL_CAP`]).
    pub fn put(&self, mut buf: Vec<u8>) {
        if buf.capacity() == 0 {
            return;
        }
        buf.clear();
        if let Ok(mut pool) = self.0.lock() {
            if pool.len() < PACKET_POOL_CAP {
                pool.push(buf);
            }
        }
    }
}

/// One destination sink: where packets go and the packet being grown.
#[derive(Debug)]
struct Lane {
    tx: SyncSender<Vec<u8>>,
    packet: Vec<u8>,
    /// Logical frames in `packet`.
    frames: u64,
    /// A socket lane waits for the watermark or the window close; an
    /// inbox lane is offered every turn.
    socket: bool,
}

/// A worker's view of the fabric: endpoint-addressed, never-blocking
/// frame delivery. Endpoints `0..endpoints()-1` are workers (global
/// shard indices); the last endpoint is the client.
#[derive(Debug)]
pub struct Fabric {
    lanes: Vec<Lane>,
    /// Per endpoint: its lane and the `dest` its frames' unit headers
    /// name when that lane is a socket lane. `None` at the owning
    /// worker's own slot (frames to self never travel).
    routes: Vec<Option<(usize, u32)>>,
    pool: PacketPool,
    backpressure_hits: u64,
    frames_dropped: u64,
}

impl Fabric {
    /// A fabric of `endpoints` unrouted slots drawing spares from
    /// `pool`.
    pub fn new(endpoints: usize, pool: PacketPool) -> Fabric {
        Fabric {
            lanes: Vec::new(),
            routes: vec![None; endpoints],
            pool,
            backpressure_hits: 0,
            frames_dropped: 0,
        }
    }

    /// The in-process fabric: an inbox lane per endpoint, `None` at the
    /// slot of the worker holding it.
    pub fn inboxes(links: Vec<Option<SyncSender<Vec<u8>>>>) -> Fabric {
        let mut fabric = Fabric::new(links.len(), PacketPool::default());
        for (dest, tx) in links.into_iter().enumerate() {
            if let Some(tx) = tx {
                fabric.inbox_lane(dest, tx);
            }
        }
        fabric
    }

    /// Routes endpoint `dest` to its own inbox lane.
    pub fn inbox_lane(&mut self, dest: usize, tx: SyncSender<Vec<u8>>) {
        self.routes[dest] = Some((self.lanes.len(), dest as u32));
        self.add_lane(tx, false);
    }

    /// Adds one socket lane and routes every `(endpoint, unit dest)`
    /// of `dests` to it.
    pub fn socket_lane(
        &mut self,
        tx: SyncSender<Vec<u8>>,
        dests: impl IntoIterator<Item = (usize, u32)>,
    ) {
        for (endpoint, unit_dest) in dests {
            self.routes[endpoint] = Some((self.lanes.len(), unit_dest));
        }
        self.add_lane(tx, true);
    }

    fn add_lane(&mut self, tx: SyncSender<Vec<u8>>, socket: bool) {
        self.lanes.push(Lane {
            tx,
            packet: Vec::new(),
            frames: 0,
            socket,
        });
    }

    /// Addressable endpoints, including the trailing client slot.
    pub fn endpoints(&self) -> usize {
        self.routes.len()
    }

    /// Encodes `msg` onto the end of `dest`'s packet, behind its unit
    /// header on a socket lane. A `dest` that is no endpoint, or an
    /// unrouted one, drops the frame with a count.
    pub fn append(&mut self, dest: usize, msg: &WireMsg) {
        let Some(&Some((lane, unit_dest))) = self.routes.get(dest) else {
            self.frames_dropped += 1;
            return;
        };
        let lane = &mut self.lanes[lane];
        if lane.socket {
            wire::put_unit_header(&mut lane.packet, unit_dest);
        }
        msg.encode_append(&mut lane.packet);
        lane.frames += 1;
    }

    /// Offers lanes to their sinks without blocking: every lane that
    /// holds frames when `window_closed` (nothing more can join the
    /// batch), otherwise the inbox lanes and any socket lane past the
    /// watermark. A worker offers once per loop turn, so a lane is
    /// refused — and counted — at most once a turn.
    pub fn offer(&mut self, window_closed: bool) {
        for lane in &mut self.lanes {
            let due = window_closed || !lane.socket || lane.packet.len() >= LANE_WATERMARK;
            if lane.frames == 0 || !due {
                continue;
            }
            let packet = std::mem::replace(&mut lane.packet, self.pool.take());
            match lane.tx.try_send(packet) {
                Ok(()) => lane.frames = 0,
                Err(TrySendError::Full(packet)) => {
                    // The lane keeps its bytes and keeps growing; the
                    // spare goes back unused.
                    self.pool.put(std::mem::replace(&mut lane.packet, packet));
                    self.backpressure_hits += 1;
                }
                Err(TrySendError::Disconnected(packet)) => {
                    // Sink gone: only possible once the run is over.
                    self.pool.put(packet);
                    self.frames_dropped += lane.frames;
                    lane.frames = 0;
                }
            }
        }
    }

    /// Logical frames appended but not yet handed to a sink.
    pub fn pending(&self) -> u64 {
        self.lanes.iter().map(|lane| lane.frames).sum()
    }

    /// Empties every lane without shipping it — what a crash does to
    /// frames not yet handed over — and returns how many there were.
    pub fn write_off(&mut self) -> u64 {
        self.lanes
            .iter_mut()
            .map(|lane| {
                lane.packet.clear();
                std::mem::take(&mut lane.frames)
            })
            .sum()
    }

    /// Times a lane was offered and found its sink full.
    pub fn backpressure_hits(&self) -> u64 {
        self.backpressure_hits
    }

    /// Frames discarded toward a closed sink or an unrouted endpoint.
    pub fn frames_dropped(&self) -> u64 {
        self.frames_dropped
    }

    /// Returns a consumed inbound packet's buffer to the pool the lanes
    /// draw their spares from.
    pub fn recycle(&self, packet: Vec<u8>) {
        self.pool.put(packet);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::VecDeque;
    use std::sync::mpsc::{sync_channel, Receiver};

    /// What the model knows of one lane: its sink's receiver until it
    /// hangs up, the packets queued on the sink, and the bytes parked
    /// on the lane — in append order, raw frames on an inbox lane,
    /// `[dest u32 LE][frame]` units on a socket lane.
    struct Model {
        socket: bool,
        rx: Option<Receiver<Vec<u8>>>,
        capacity: usize,
        queued: VecDeque<Vec<u8>>,
        parked: Vec<u8>,
        parked_frames: u64,
    }

    proptest! {
        /// A random script of *append frame to dest / loop turn /
        /// window close / receiver takes k packets / receiver hangs up /
        /// crash write-off* against a fabric routing endpoint 0 to an
        /// inbox lane (capacity 1), endpoints 1 and 2 to one shared
        /// socket lane (capacity 4) and endpoint 3 to a socket lane of
        /// its own (capacity 1); endpoint 4 is left unrouted and 5 does
        /// not exist — a frame for either is dropped with a count. The
        /// fabric must match the model after every
        /// step; the script runs on one thread, so finishing at all is
        /// the proof that nothing ever blocks. (That a socket lane's
        /// packet is what the stream decoder reads: `hyperdex-net`'s
        /// `stream_robustness` suite, where the decoder is.)
        #[test]
        fn lanes_follow_the_model(
            script in prop::collection::vec((0u8..9, 0usize..6, 1usize..4), 1..200)
        ) {
            const LANE_OF: [usize; 4] = [0, 1, 1, 2];
            let mut fabric = Fabric::new(5, PacketPool::default());
            let mut lanes = Vec::new();
            for (capacity, dests) in [(1, vec![0]), (4, vec![1, 2]), (1, vec![3])] {
                let (tx, rx) = sync_channel(capacity);
                let socket = dests != [0];
                if socket {
                    fabric.socket_lane(tx, dests.iter().map(|&d| (d, 100 + d as u32)));
                } else {
                    fabric.inbox_lane(0, tx);
                }
                lanes.push(Model {
                    socket,
                    rx: Some(rx),
                    capacity,
                    queued: VecDeque::new(),
                    parked: Vec::new(),
                    parked_frames: 0,
                });
            }
            let (mut appended, mut delivered, mut dropped, mut hits) = (0u64, 0u64, 0u64, 0u64);
            let mut written_off = 0u64;
            for (step, (op, dest, k)) in script.into_iter().enumerate() {
                let Some(&lane) = LANE_OF.get(dest) else {
                    fabric.append(dest, &WireMsg::Flush { token: step as u64 });
                    appended += 1;
                    dropped += 1;
                    prop_assert_eq!(fabric.frames_dropped(), dropped);
                    continue;
                };
                let lane = &mut lanes[lane];
                match op {
                    // Small frames mostly; a 24 KiB one now and then, so
                    // socket lanes cross the watermark with the window
                    // still open.
                    0..=2 => {
                        let msg = match op {
                            2 => WireMsg::PinResults { query_id: step as u64, objects: vec![7; 3000] },
                            _ => WireMsg::Flush { token: step as u64 },
                        };
                        fabric.append(dest, &msg);
                        if lane.socket {
                            lane.parked.extend_from_slice(&(100 + dest as u32).to_le_bytes());
                        }
                        lane.parked.extend_from_slice(&msg.encode());
                        lane.parked_frames += 1;
                        appended += 1;
                    }
                    3..=5 => {
                        let before: Vec<Vec<u8>> =
                            fabric.lanes.iter().map(|lane| lane.packet.clone()).collect();
                        fabric.offer(op == 5);
                        for (i, lane) in lanes.iter_mut().enumerate() {
                            let due = op == 5 || !lane.socket || lane.parked.len() >= LANE_WATERMARK;
                            if lane.parked_frames == 0 || !due {
                                continue;
                            }
                            if lane.rx.is_none() {
                                dropped += lane.parked_frames;
                                lane.parked.clear();
                            } else if lane.queued.len() == lane.capacity {
                                hits += 1;
                                prop_assert_eq!(
                                    &fabric.lanes[i].packet,
                                    &before[i],
                                    "a full sink must leave the lane's bytes untouched"
                                );
                                continue;
                            } else {
                                delivered += lane.parked_frames;
                                lane.queued.push_back(std::mem::take(&mut lane.parked));
                            }
                            lane.parked_frames = 0;
                        }
                    }
                    6 => {
                        for _ in 0..k {
                            let got = lane.rx.as_ref().and_then(|rx| rx.try_recv().ok());
                            // Byte for byte what was appended since the
                            // lane last shipped, in append order.
                            prop_assert_eq!(&got, &lane.queued.pop_front());
                            let Some(packet) = got else { break };
                            let frames = if lane.socket { wire::units(&packet) } else { wire::frames(&packet) };
                            for frame in frames {
                                let frame = frame.map_err(|e| e.to_string())?;
                                prop_assert!(WireMsg::decode_exact(frame).is_ok());
                            }
                        }
                    }
                    7 => {
                        lane.rx = None;
                        lane.queued.clear();
                    }
                    // Every lane's parked frames, gone unshipped; what
                    // is appended next starts a fresh packet.
                    _ => {
                        let parked: u64 = lanes.iter().map(|lane| lane.parked_frames).sum();
                        prop_assert_eq!(fabric.write_off(), parked);
                        prop_assert_eq!(fabric.pending(), 0);
                        written_off += parked;
                        for lane in &mut lanes {
                            lane.parked.clear();
                            lane.parked_frames = 0;
                        }
                    }
                }
                let parked: u64 = lanes.iter().map(|lane| lane.parked_frames).sum();
                prop_assert_eq!(fabric.pending(), parked);
                prop_assert_eq!(fabric.frames_dropped(), dropped);
                prop_assert_eq!(fabric.backpressure_hits(), hits);
                prop_assert_eq!(appended, delivered + dropped + written_off + fabric.pending());
            }
        }
    }
}
