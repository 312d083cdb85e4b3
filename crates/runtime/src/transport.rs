//! The transport abstraction under the worker fabric.
//!
//! A worker never talks to an `mpsc` sender (or a socket) directly: it
//! parks outbound frames in a per-destination outbox and asks its
//! [`Transport`] to flush them. The trait captures exactly the
//! never-block discipline the runtime was built on — a flush either
//! ships frames, reports *Full* (fabric pushed back, frames stay
//! parked for a later retry), or reports *Closed* (destination gone,
//! frames dropped **with a count** so conservation still balances).
//!
//! Two implementations exist:
//!
//! * [`ChannelTransport`] — bounded in-process channels, the
//!   [`crate::runtime::NodeRuntime`] fabric;
//! * `hyperdex-net`'s TCP mesh transport — the same worker event loop
//!   across OS processes over loopback or a real network.
//!
//! # Coalescing
//!
//! A flush hands the transport the *whole* per-destination queue, so
//! many frames bound for one destination travel as a single fabric
//! operation: one channel message in-process, one `write` syscall on a
//! socket. The unit on the fabric is therefore a **packet** — one or
//! more length-prefixed [`crate::wire::WireMsg`] frames back to back —
//! and every receive path splits packets with [`take_frame`] and
//! counts logical frames, never fabric operations.

use std::collections::VecDeque;
use std::sync::mpsc::{SyncSender, TrySendError};

use crate::wire::{self, WireError};

/// What a [`Transport::flush`] did with the queued frames.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FlushStatus {
    /// Every queued frame was handed to the fabric.
    Done,
    /// The fabric pushed back; undelivered frames remain in the queue
    /// (possibly re-packed into one packet) for a later retry.
    Full,
    /// The destination is gone. The queue was drained and its frames
    /// discarded; the count keeps the conservation law balanced.
    Closed {
        /// Logical frames discarded.
        frames_dropped: u64,
    },
}

/// The worker fabric: endpoint-addressed, never-blocking frame
/// delivery. Endpoints `0..endpoints()-1` are workers (global shard
/// indices); the last endpoint is the client.
pub trait Transport: Send {
    /// Addressable endpoints, including the trailing client slot.
    fn endpoints(&self) -> usize;

    /// Tries to ship every frame queued for `dest`, coalescing
    /// adjacent frames into one fabric operation where the transport
    /// supports it. Must never block.
    ///
    /// A transport may *accept* frames without putting them on the
    /// fabric yet (accumulating toward a batch); such frames count in
    /// [`Transport::pending`] until a later flush or
    /// [`Transport::drain`] ships them.
    fn flush(&mut self, dest: usize, queue: &mut VecDeque<Vec<u8>>) -> FlushStatus;

    /// Logical frames `flush` accepted but is still buffering inside
    /// the transport (accumulated toward a batch, not yet handed to
    /// the fabric). Zero for transports that ship eagerly.
    fn pending(&self) -> u64 {
        0
    }

    /// Window close: pushes every accumulated frame toward the fabric.
    /// `Full` means some remain buffered (the fabric pushed back —
    /// retry later); `Closed` counts frames discarded toward a dead
    /// destination. Must never block.
    fn drain(&mut self) -> FlushStatus {
        FlushStatus::Done
    }

    /// Moves spent frame buffers (consumed and emptied by `flush`)
    /// into `pool` until it holds `cap` buffers, so the caller's
    /// encode path can reuse them instead of allocating.
    fn reclaim(&mut self, pool: &mut Vec<Vec<u8>>, cap: usize) {
        let _ = (pool, cap);
    }
}

/// Spent frame buffers a transport retains for reuse before
/// [`Transport::reclaim`] hands them back to the worker's pool.
pub const SPENT_POOL_CAP: usize = 32;

/// The in-process fabric: one bounded [`SyncSender`] per endpoint,
/// `None` at the owning worker's slot (frames to self never travel).
#[derive(Debug)]
pub struct ChannelTransport {
    links: Vec<Option<SyncSender<Vec<u8>>>>,
    /// Emptied frame buffers salvaged by the pooled coalesce, handed
    /// back to the worker via [`Transport::reclaim`].
    spent: Vec<Vec<u8>>,
}

impl ChannelTransport {
    /// Wraps the per-endpoint senders. `links[i] == None` marks the
    /// slot of the worker holding this transport.
    pub fn new(links: Vec<Option<SyncSender<Vec<u8>>>>) -> ChannelTransport {
        ChannelTransport {
            links,
            spent: Vec::new(),
        }
    }
}

impl Transport for ChannelTransport {
    fn endpoints(&self) -> usize {
        self.links.len()
    }

    fn flush(&mut self, dest: usize, queue: &mut VecDeque<Vec<u8>>) -> FlushStatus {
        let Some(tx) = &self.links[dest] else {
            debug_assert!(queue.is_empty(), "frames addressed to self");
            let dropped = drain_frames(queue);
            return if dropped == 0 {
                FlushStatus::Done
            } else {
                FlushStatus::Closed {
                    frames_dropped: dropped,
                }
            };
        };
        while !queue.is_empty() {
            let packet = coalesce_pooled(queue, &mut self.spent);
            match tx.try_send(packet) {
                Ok(()) => {}
                Err(TrySendError::Full(packet)) => {
                    // Park the (possibly multi-frame) packet back at the
                    // front; it re-flushes on the next loop iteration.
                    queue.push_front(packet);
                    return FlushStatus::Full;
                }
                Err(TrySendError::Disconnected(packet)) => {
                    // Only possible after the shutdown barrier, when no
                    // protocol frame can still be pending.
                    debug_assert!(false, "send to a disconnected endpoint");
                    let dropped = count_frames(&packet) + drain_frames(queue);
                    return FlushStatus::Closed {
                        frames_dropped: dropped,
                    };
                }
            }
        }
        FlushStatus::Done
    }

    fn reclaim(&mut self, pool: &mut Vec<Vec<u8>>, cap: usize) {
        while pool.len() < cap {
            let Some(buf) = self.spent.pop() else { return };
            pool.push(buf);
        }
    }
}

/// Pops the whole queue into one packet (frames concatenated, each
/// keeping its own length prefix); a single queued frame travels
/// as-is. The packet buffer comes from `pool` when one is available,
/// and the emptied frame buffers go back into `pool` (up to
/// [`SPENT_POOL_CAP`]) instead of being dropped — the steady-state
/// coalesce path allocates nothing.
pub fn coalesce_pooled(queue: &mut VecDeque<Vec<u8>>, pool: &mut Vec<Vec<u8>>) -> Vec<u8> {
    if queue.len() == 1 {
        return queue.pop_front().expect("checked non-empty");
    }
    let total: usize = queue.iter().map(Vec::len).sum();
    let mut packet = pool.pop().unwrap_or_default();
    packet.clear();
    packet.reserve(total);
    for mut frame in queue.drain(..) {
        packet.extend_from_slice(&frame);
        if pool.len() < SPENT_POOL_CAP {
            frame.clear();
            pool.push(frame);
        }
    }
    packet
}

/// Splits one frame off the front of a packet: `(frame, rest)`, where
/// `frame` includes its length prefix (so [`WireMsg::decode_exact`]
/// accepts it verbatim).
///
/// # Errors
///
/// Returns the underlying [`WireError`] when the packet does not start
/// with a well-formed frame header.
pub fn take_frame(packet: &[u8]) -> Result<(&[u8], &[u8]), WireError> {
    if packet.len() < wire::PREFIX_LEN {
        return Err(WireError::Truncated {
            needed: wire::PREFIX_LEN - packet.len(),
            have: packet.len(),
        });
    }
    let body_len = u32::from_le_bytes(packet[..wire::PREFIX_LEN].try_into().expect("4 bytes"));
    if body_len > wire::MAX_BODY_LEN {
        return Err(WireError::Oversized { len: body_len });
    }
    let frame_len = wire::PREFIX_LEN + body_len as usize;
    if packet.len() < frame_len {
        return Err(WireError::Truncated {
            needed: frame_len - packet.len(),
            have: packet.len(),
        });
    }
    Ok(packet.split_at(frame_len))
}

/// Logical frames in a packet. Packets are built from well-formed
/// frames, so a parse failure is a bug; the count stops there (debug
/// builds assert).
pub fn count_frames(packet: &[u8]) -> u64 {
    let mut rest = packet;
    let mut n = 0;
    while !rest.is_empty() {
        match take_frame(rest) {
            Ok((_, tail)) => {
                n += 1;
                rest = tail;
            }
            Err(_) => {
                debug_assert!(false, "malformed packet in count_frames");
                break;
            }
        }
    }
    n
}

/// Empties the queue, returning how many logical frames it held.
fn drain_frames(queue: &mut VecDeque<Vec<u8>>) -> u64 {
    let n = queue.iter().map(|f| count_frames(f)).sum();
    queue.clear();
    n
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wire::WireMsg;
    use std::sync::mpsc::sync_channel;

    fn frame(token: u64) -> Vec<u8> {
        WireMsg::Flush { token }.encode()
    }

    #[test]
    fn coalesce_concatenates_and_preserves_frames() {
        let mut q: VecDeque<Vec<u8>> = [frame(1), frame(2), frame(3)].into_iter().collect();
        let packet = coalesce_pooled(&mut q, &mut Vec::new());
        assert!(q.is_empty());
        assert_eq!(count_frames(&packet), 3);
        let (f1, rest) = take_frame(&packet).unwrap();
        assert_eq!(
            WireMsg::decode_exact(f1).unwrap(),
            WireMsg::Flush { token: 1 }
        );
        let (f2, rest) = take_frame(rest).unwrap();
        assert_eq!(
            WireMsg::decode_exact(f2).unwrap(),
            WireMsg::Flush { token: 2 }
        );
        let (f3, rest) = take_frame(rest).unwrap();
        assert_eq!(
            WireMsg::decode_exact(f3).unwrap(),
            WireMsg::Flush { token: 3 }
        );
        assert!(rest.is_empty());
    }

    #[test]
    fn single_frame_passes_through_uncopied() {
        let f = frame(9);
        let mut q: VecDeque<Vec<u8>> = [f.clone()].into_iter().collect();
        assert_eq!(coalesce_pooled(&mut q, &mut Vec::new()), f);
    }

    #[test]
    fn channel_flush_coalesces_into_one_message() {
        let (tx, rx) = sync_channel::<Vec<u8>>(4);
        let mut t = ChannelTransport::new(vec![Some(tx)]);
        let mut q: VecDeque<Vec<u8>> = (0..5).map(frame).collect();
        assert_eq!(t.flush(0, &mut q), FlushStatus::Done);
        assert!(q.is_empty());
        let packet = rx.try_recv().expect("one packet");
        assert_eq!(count_frames(&packet), 5);
        assert!(rx.try_recv().is_err(), "five frames, one channel op");
    }

    #[test]
    fn channel_flush_reports_full_and_keeps_frames() {
        let (tx, _rx) = sync_channel::<Vec<u8>>(1);
        let mut t = ChannelTransport::new(vec![Some(tx)]);
        let mut q: VecDeque<Vec<u8>> = [frame(1)].into_iter().collect();
        assert_eq!(t.flush(0, &mut q), FlushStatus::Done);
        // Channel now full: the next flush must park, not lose.
        let mut q2: VecDeque<Vec<u8>> = [frame(2), frame(3)].into_iter().collect();
        assert_eq!(t.flush(0, &mut q2), FlushStatus::Full);
        assert_eq!(q2.iter().map(|f| count_frames(f)).sum::<u64>(), 2);
    }

    #[test]
    fn closed_destination_counts_dropped_frames() {
        let (tx, rx) = sync_channel::<Vec<u8>>(1);
        drop(rx);
        let mut t = ChannelTransport::new(vec![Some(tx)]);
        let mut q: VecDeque<Vec<u8>> = [frame(1), frame(2)].into_iter().collect();
        // debug_assert fires under cfg(debug_assertions); release-mode
        // behaviour is the counted drop. Run the release path only.
        if cfg!(debug_assertions) {
            return;
        }
        assert_eq!(
            t.flush(0, &mut q),
            FlushStatus::Closed { frames_dropped: 2 }
        );
        assert!(q.is_empty());
    }

    #[test]
    fn take_frame_rejects_short_and_oversized_headers() {
        assert!(matches!(
            take_frame(&[1, 2]),
            Err(WireError::Truncated { .. })
        ));
        let mut bad = (wire::MAX_BODY_LEN + 1).to_le_bytes().to_vec();
        bad.push(0);
        assert!(matches!(take_frame(&bad), Err(WireError::Oversized { .. })));
        let mut short = frame(1);
        short.pop();
        assert!(matches!(
            take_frame(&short),
            Err(WireError::Truncated { .. })
        ));
    }
}
