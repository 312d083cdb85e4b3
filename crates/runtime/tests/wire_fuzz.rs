//! Property tests of the wire codec's failure envelope.
//!
//! The runtime treats its channels like sockets, and a socket can hand
//! you anything: torn writes, bit rot, garbage. The decoder's contract
//! is that it *never panics* — every input is either a valid frame or
//! a typed [`WireError`] — and that valid frames survive arbitrary
//! corruption of *other* bytes only by being rejected, never by being
//! silently misparsed into out-of-bounds lengths.

use hyperdex_core::KeywordSet;
use hyperdex_runtime::wire::{exemplars, insert_frame};
use hyperdex_runtime::{WireError, WireMsg};
use proptest::prelude::*;

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
}
