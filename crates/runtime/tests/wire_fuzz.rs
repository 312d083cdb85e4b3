//! Property tests of the wire codec's failure envelope.
//!
//! The runtime treats its channels like sockets, and a socket can hand
//! you anything: torn writes, bit rot, garbage. The decoder's contract
//! is that it *never panics* — every input is either a valid frame or
//! a typed [`WireError`] — and that valid frames survive arbitrary
//! corruption of *other* bytes only by being rejected, never by being
//! silently misparsed into out-of-bounds lengths.
//!
//! What decodes reaches a worker, and a socket can hand a worker any
//! *sequence* of frames that decode: the last property feeds a live
//! [`NodeMachine`] sequences no honest peer would send.

use std::sync::mpsc::sync_channel;
use std::time::Duration;

use hyperdex_core::{KeywordHasher, KeywordSet};
use hyperdex_runtime::wire::{exemplars, insert_frame, split_frame};
use hyperdex_runtime::{Fabric, NodeMachine, ShardMap, WireError, WireMsg, WorkerContext};
use proptest::prelude::*;

/// Frames in `packet` as a machine counts them: every frame that
/// splits off, plus one for a remainder that does not.
fn frames_in(packet: &[u8]) -> u64 {
    let mut rest = packet;
    let mut n = 0;
    while !rest.is_empty() {
        n += 1;
        match split_frame(rest) {
            Ok((_, tail)) => rest = tail,
            Err(_) => break,
        }
    }
    n
}

/// Overwrites the fields of `msg` a peer could lie in with values drawn
/// from `v`: ids that collide, a `coord` or `worker` that is this
/// worker, the client slot or nobody, attempts and parts out of order,
/// epochs from the future, thresholds of zero, policies that never
/// time out and ones that time out at once.
fn mutate(msg: &mut WireMsg, v: u64) {
    let small_id = v % 4;
    let endpoint = [0, 1, 2, 3, 99, u32::MAX][(v >> 8) as usize % 6];
    let threshold = [0, 1, 20, u64::MAX - 1, u64::MAX][(v >> 16) as usize % 5];
    let attempt = [0, 1, 2, u32::MAX][(v >> 24) as usize % 4];
    match msg {
        WireMsg::Query {
            query_id,
            threshold: t,
            ..
        } => (*query_id, *t) = (small_id, threshold),
        WireMsg::QueryAt {
            query_id,
            threshold: t,
            marks,
            ..
        } => {
            (*query_id, *t) = (small_id, threshold);
            *marks = vec![v >> 32; (v >> 40) as usize % 5];
        }
        WireMsg::FtQuery {
            query_id,
            threshold: t,
            max_retries,
            base_timeout,
            ..
        } => {
            (*query_id, *t, *max_retries) = (small_id, threshold, attempt);
            *base_timeout = [0, 1, 25, u64::MAX][(v >> 40) as usize % 4];
        }
        WireMsg::RegionQuery {
            query_id,
            threshold: t,
            coord,
            attempt: a,
            ..
        } => (*query_id, *t, *coord, *a) = (small_id, threshold, endpoint, attempt),
        WireMsg::RegionDone {
            query_id,
            worker,
            epoch,
            attempt: a,
            part,
            more,
            ..
        } => {
            (*query_id, *worker, *epoch, *a) = (small_id, endpoint, v >> 32, attempt);
            (*part, *more) = ((v >> 44) as u32 % 3, v >> 48 & 1 == 1);
        }
        WireMsg::FlushAck { worker, .. } => *worker = endpoint,
        _ => {}
    }
}

/// Exemplar `which`, its fields overwritten from `v` when `lie` — or,
/// one past the exemplars, a whole frame under retired tag 13 (it
/// released a respawned worker from its replay): undecodable.
fn script_frame(which: usize, lie: bool, v: u64) -> Vec<u8> {
    let Some(mut msg) = exemplars().get(which).cloned() else {
        return vec![5, 0, 0, 0, 13, 3, 0, 0, 0];
    };
    if lie {
        mutate(&mut msg, v);
    }
    msg.encode()
}

/// Bytes that, strung together, make keywords of every kind the
/// decoder distinguishes: canonical, upper case, padded, empty after
/// trimming, multi-byte, and broken UTF-8.
const KEYWORD_BYTES: &[u8] = b"abAB \xC3\xA9\xFF";

proptest! {
    /// Arbitrary bytes never panic the decoder: every outcome is a
    /// frame or a typed error.
    #[test]
    fn decode_never_panics_on_arbitrary_bytes(bytes in prop::collection::vec(any::<u8>(), 0..512)) {
        let _ = WireMsg::decode(&bytes);
        let _ = WireMsg::decode_exact(&bytes);
    }

    /// Every truncation of every valid frame is rejected (as
    /// `Truncated`/`BadLength`-class errors), never panics, and never
    /// "succeeds" with a different message.
    #[test]
    fn truncations_of_valid_frames_are_rejected(which in 0..exemplars().len(), cut in 0usize..200) {
        let encoded = exemplars()[which].encode();
        if cut < encoded.len() {
            prop_assert!(WireMsg::decode_exact(&encoded[..cut]).is_err());
        }
    }

    /// A single flipped bit anywhere in a valid frame either still
    /// decodes (the flip landed in a value field) or is rejected —
    /// never a panic, and never a frame-length escape.
    #[test]
    fn bit_flips_never_panic(which in 0..exemplars().len(), byte in 0usize..200, bit in 0u8..8) {
        let mut encoded = exemplars()[which].encode();
        let len = encoded.len();
        encoded[byte % len] ^= 1 << bit;
        match WireMsg::decode(&encoded) {
            // A surviving parse must still account for a sane span, and
            // whatever it read re-encodes to a frame that reads back
            // the same (a flipped keyword may have been normalized).
            Ok((msg, consumed)) => {
                prop_assert!(consumed <= encoded.len());
                prop_assert_eq!(WireMsg::decode_exact(&msg.encode()), Ok(msg));
            }
            Err(
                WireError::Truncated { .. }
                | WireError::TrailingGarbage { .. }
                | WireError::BadTag(_)
                | WireError::Oversized { .. }
                | WireError::BadUtf8
                | WireError::BadKeyword
                | WireError::KeywordTooLong,
            ) => {}
        }
    }

    /// Keyword fields of any spelling decode to what normalizing each
    /// keyword gives — the canonical fast path and the normalizing
    /// path agree with `KeywordSet::from_strs` — and broken ones are
    /// typed errors, in stream order.
    #[test]
    fn keyword_fields_decode_as_their_normalization(
        fields in prop::collection::vec(
            prop::collection::vec(0usize..KEYWORD_BYTES.len(), 0..5),
            0..5,
        ),
    ) {
        let fields: Vec<Vec<u8>> = fields
            .iter()
            .map(|f| f.iter().map(|&i| KEYWORD_BYTES[i]).collect())
            .collect();
        // The first field that is not a keyword decides the error.
        let mut expect = Ok(Vec::new());
        for field in &fields {
            match std::str::from_utf8(field) {
                Err(_) => expect = Err(WireError::BadUtf8),
                Ok(text) if text.trim().is_empty() => expect = Err(WireError::BadKeyword),
                Ok(text) => {
                    if let Ok(texts) = &mut expect {
                        texts.push(text);
                    }
                    continue;
                }
            }
            break;
        }
        let got = WireMsg::decode_exact(&insert_frame(&fields));
        match expect {
            Err(e) => prop_assert_eq!(got, Err(e)),
            Ok(texts) => {
                let keywords = KeywordSet::from_strs(texts).expect("non-empty keywords");
                prop_assert_eq!(got, Ok(WireMsg::Insert { object: 1, keywords }));
            }
        }
    }

    /// Arbitrary bytes where the keyword field belongs, under a frame
    /// length that covers exactly them: the set reader neither panics
    /// nor reads past the body, and what it accepts is a fixpoint of
    /// encode ∘ decode.
    #[test]
    fn keyword_field_soup_never_panics_or_over_reads(soup in prop::collection::vec(any::<u8>(), 0..96)) {
        let mut body = vec![0u8];
        body.extend_from_slice(&7u64.to_le_bytes());
        body.extend_from_slice(&soup);
        let mut frame = (body.len() as u32).to_le_bytes().to_vec();
        frame.extend_from_slice(&body);
        // Bytes after the frame must never be looked at.
        let mut followed = frame.clone();
        followed.extend_from_slice(&[0x01, 0x00, 0x61]);
        let alone = WireMsg::decode(&frame);
        prop_assert_eq!(&WireMsg::decode(&followed), &alone);
        if let Ok((msg, consumed)) = alone {
            prop_assert_eq!(consumed, frame.len());
            prop_assert_eq!(WireMsg::decode_exact(&msg.encode()), Ok(msg));
        }
    }

    /// Sequences drawn from the exemplars, field-mutated, duplicated,
    /// packed several to a packet or cut short, fed to a live machine —
    /// worker 1 of three, fresh or built from a log of such frames (some
    /// cut short), as a crashed worker restarts — with ticks at
    /// arbitrary times: it never panics — any log restores, what is no
    /// load frame skipped, nothing sent or counted received — every
    /// frame it is handed is counted received or undecodable, and every
    /// frame it counts sent is on a lane or counted dropped. One such frame, a `RegionQuery` naming
    /// a `coord` that is no endpoint, used to take the worker thread
    /// down.
    #[test]
    fn frame_sequences_never_panic_a_machine_and_its_ledger_closes(
        fresh in 0u8..2,
        log in prop::collection::vec((0..=exemplars().len(), any::<u64>(), 0u8..4), 0..12),
        script in prop::collection::vec(
            (0..=exemplars().len(), any::<u64>(), 0u8..16, 0u64..40_000),
            1..80,
        ),
    ) {
        let (r, seed, workers) = (8, 42, 3usize);
        let (sinks, links): (Vec<_>, Vec<_>) = (0..=workers)
            .map(|dest| {
                let (tx, rx) = sync_channel::<Vec<u8>>(1);
                (rx, (dest != 1).then_some(tx))
            })
            .unzip();
        let ctx = WorkerContext {
            index: 1,
            hasher: KeywordHasher::new(r, seed).unwrap(),
            shards: ShardMap::new(r, workers as u32, seed),
            crash_after: None,
            log: (fresh == 0).then(|| {
                let cut = |(which, v, shape): (usize, u64, u8)| {
                    let mut frame = script_frame(which, shape & 1 == 1, v);
                    frame.truncate(frame.len() - usize::from(shape >> 1));
                    frame
                };
                log.into_iter().map(cut).collect()
            }),
        };
        let mut node = NodeMachine::new(ctx, Fabric::inboxes(links));
        let restored = node.stats();
        prop_assert_eq!((restored.frames_received, restored.frames_sent), (0, 0));
        prop_assert_eq!(node.fabric().pending(), 0);
        let (mut fed, mut on_lanes) = (0u64, 0u64);
        let mut now = Duration::ZERO;
        let mut packet = Vec::new();
        for (which, v, shape, elapsed) in script {
            let frame = script_frame(which, shape & 1 == 1, v);
            for _ in 0..=(shape >> 1 & 1) {
                packet.extend_from_slice(&frame);
            }
            // One packet in four keeps growing: frames interleave.
            if shape >> 2 == 1 {
                continue;
            }
            // One in four is cut short, or ends in garbage.
            match shape >> 2 {
                2 => packet.truncate(packet.len() - 1 - v as usize % 4),
                3 => packet.extend_from_slice(&v.to_le_bytes()),
                _ => {}
            }
            // Time passes: a little, or past every deadline there is.
            now = now.saturating_add(match elapsed {
                0 => Duration::MAX,
                ms => Duration::from_millis(ms),
            });
            fed += frames_in(&packet);
            node.receive(now, &packet);
            packet.clear();
            if v & 1 == 1 {
                node.tick(now);
            }
            prop_assert!(node.next_deadline().is_some() == (node.parked() > 0));
            node.fabric().offer(true);
            prop_assert_eq!(node.fabric().pending(), 0);
            on_lanes += sinks.iter().flat_map(|rx| rx.try_iter()).map(|p| frames_in(&p)).sum::<u64>();
        }
        let parked = node.parked();
        let live = node.stats();
        let stats = node.exit();
        prop_assert_eq!(fed, stats.frames_received + stats.frames_undecodable);
        prop_assert_eq!(
            stats.frames_sent,
            on_lanes + stats.frames_dropped,
            "{:?}", stats
        );
        prop_assert_eq!(stats.queries_abandoned, live.queries_abandoned + parked);
    }
}
