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
        // Multi-byte keywords, one a byte-prefix of another: a flipped
        // bit here breaks UTF-8, case or the sort order.
        WireMsg::Pin {
            query_id: 13,
            keywords: set("日 日本 éa mp3"),
        },
    ]
}

/// Bytes that, strung together, make keywords of every kind the
/// decoder distinguishes: canonical, upper case, padded, empty after
/// trimming, multi-byte, and broken UTF-8.
const KEYWORD_BYTES: &[u8] = b"abAB \xC3\xA9\xFF";

/// An `Insert` frame around hand-written keyword fields.
fn insert_frame(keywords: &[Vec<u8>]) -> Vec<u8> {
    let mut body = vec![0u8]; // the Insert tag
    body.extend_from_slice(&7u64.to_le_bytes());
    body.extend_from_slice(&(keywords.len() as u16).to_le_bytes());
    for k in keywords {
        body.extend_from_slice(&(k.len() as u16).to_le_bytes());
        body.extend_from_slice(k);
    }
    let mut frame = (body.len() as u32).to_le_bytes().to_vec();
    frame.extend_from_slice(&body);
    frame
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
    fn truncations_of_valid_frames_are_rejected(which in 0usize..14, cut in 0usize..200) {
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
    fn bit_flips_never_panic(which in 0usize..14, byte in 0usize..200, bit in 0u8..8) {
        let msgs = exemplars();
        let mut encoded = msgs[which % msgs.len()].encode();
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
                | WireError::KeywordTooLong
                | WireError::BadStrategy(_),
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
                prop_assert_eq!(got, Ok(WireMsg::Insert { object: 7, keywords }));
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
}
