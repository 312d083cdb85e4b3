//! Property tests of the wire codec's failure envelope.
//!
//! The runtime treats its channels like sockets, and a socket can hand
//! you anything: torn writes, bit rot, garbage. The decoder's contract
//! is that it *never panics* — every input is either a valid frame or
//! a typed [`WireError`] — and that valid frames survive arbitrary
//! corruption of *other* bytes only by being rejected, never by being
//! silently misparsed into out-of-bounds lengths.

use hyperdex_core::{KeywordSet, RecoveryStrategy};
use hyperdex_runtime::{WireError, WireMsg};
use proptest::prelude::*;

fn set(s: &str) -> KeywordSet {
    KeywordSet::parse(s).unwrap()
}

/// A spread of valid frames covering every tag, including the
/// fault-tolerance messages.
fn exemplars() -> Vec<WireMsg> {
    vec![
        WireMsg::Insert {
            object: 7,
            keywords: set("alpha beta"),
        },
        WireMsg::Handoff {
            bits: 0b1011,
            entries: vec![(set("a"), vec![1, 2]), (set("a b"), vec![3])],
        },
        WireMsg::Query {
            query_id: 9,
            keywords: set("alpha"),
            threshold: 64,
        },
        WireMsg::TQuery {
            query_id: 9,
            bits: 0b1100,
            keywords: set("alpha"),
            remaining: 3,
            via_dim: Some(2),
            coord: 1,
        },
        WireMsg::TCont {
            query_id: 9,
            bits: 0b1100,
            objects: vec![(4, 1), (5, 0)],
            children: vec![(0b1101, 0), (0b1110, 1)],
        },
        WireMsg::FtQuery {
            query_id: 10,
            keywords: set("alpha beta"),
            threshold: 8,
            strategy: RecoveryStrategy::Redelegate,
            max_retries: 3,
            base_timeout_ms: 25,
        },
        WireMsg::FtQueryDone {
            query_id: 10,
            objects: vec![(4, 1)],
            subcube: 64,
            reached: 62,
            retries: 5,
            timeouts: 2,
            redelegations: 1,
            queries_sent: 70,
            conts: 66,
            result_messages: 12,
            skipped: vec![0b111, 0b1011],
        },
        WireMsg::TQueryBatch {
            query_id: 9,
            keywords: set("alpha"),
            remaining: 12,
            coord: 1,
            entries: vec![(0b1100, 2), (0b1010, 1), (0b1001, 0)],
        },
        WireMsg::TContBatch {
            query_id: 9,
            epoch: 1_234,
            entries: vec![
                (0b1100, vec![(4, 1), (5, 0)], vec![(0b1101, 0)]),
                (0b1010, vec![], vec![]),
            ],
        },
        WireMsg::RepairDone { worker: 3 },
        WireMsg::Shutdown,
        WireMsg::QueryAt {
            query_id: 11,
            keywords: set("alpha beta"),
            threshold: 20,
            marks: vec![65_590, 0, 7],
        },
        WireMsg::FlushAck {
            token: 12,
            worker: 2,
            epoch: 65_590,
        },
    ]
}

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
    fn truncations_of_valid_frames_are_rejected(which in 0usize..13, cut in 0usize..200) {
        let msgs = exemplars();
        let encoded = msgs[which % msgs.len()].encode();
        if cut < encoded.len() {
            prop_assert!(WireMsg::decode_exact(&encoded[..cut]).is_err());
        }
    }

    /// A single flipped bit anywhere in a valid frame either still
    /// decodes (the flip landed in a value field) or is rejected —
    /// never a panic, and never a frame-length escape.
    #[test]
    fn bit_flips_never_panic(which in 0usize..13, byte in 0usize..200, bit in 0u8..8) {
        let msgs = exemplars();
        let mut encoded = msgs[which % msgs.len()].encode();
        let len = encoded.len();
        encoded[byte % len] ^= 1 << bit;
        match WireMsg::decode(&encoded) {
            // A surviving parse must still account for a sane span.
            Ok((_, consumed)) => prop_assert!(consumed <= encoded.len()),
            Err(
                WireError::Truncated { .. }
                | WireError::TrailingGarbage { .. }
                | WireError::BadTag(_)
                | WireError::Oversized { .. }
                | WireError::BadUtf8
                | WireError::BadKeyword
                | WireError::BadStrategy(_),
            ) => {}
        }
    }
}
