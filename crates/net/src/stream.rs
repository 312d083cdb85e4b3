//! Framing on the TCP wire and the streaming decoder.
//!
//! A connection carries a sequence of **units**:
//!
//! ```text
//! [dest u32 LE][body_len u32 LE][tag u8][body]
//! \-- routing --/\------ WireMsg frame ------/
//! ```
//!
//! The trailing three fields are byte-identical to the in-process
//! [`WireMsg`] frame (length prefix included), so a unit is just a
//! frame with a routing header: peel off `dest` and the existing codec
//! decodes the rest verbatim. `dest` is the global worker index, or
//! [`CLIENT_DEST`] for client-bound replies. What a unit is — its
//! header, its length prefix, when it is torn — is
//! [`hyperdex_runtime::wire`]'s to say ([`wire::split_unit`]); this
//! module only buffers.
//!
//! TCP gives a byte stream, not messages: one `read` may return half a
//! header, three units and a torn fourth, or a single byte.
//! [`StreamDecoder`] is a push-based incremental parser that accepts
//! arbitrary read fragments and yields complete units — tolerant of
//! every possible split point, which the robustness suite exercises
//! exhaustively (every `WireMsg` variant, every byte boundary).
//!
//! [`WireMsg`]: hyperdex_runtime::WireMsg

use std::io::Read;

use hyperdex_runtime::wire::{self, WireError};

/// `dest` marking a unit for the client rather than a worker.
pub const CLIENT_DEST: u32 = u32::MAX;

/// Appends one `[dest][frame]` unit to `out`. `frame` must be a
/// complete encoded [`WireMsg`](hyperdex_runtime::WireMsg) (length
/// prefix included).
pub fn push_unit(out: &mut Vec<u8>, dest: u32, frame: &[u8]) {
    wire::put_unit_header(out, dest);
    out.extend_from_slice(frame);
}

/// Bytes one [`StreamDecoder::fill_from`] call asks the kernel for
/// when no pending unit header demands more. A server's reader hands
/// each read's units to the worker inboxes as one packet per worker,
/// so this is also what bounds a packet — and an inbox, bounded in
/// packets, in bytes: capacity × 8 KiB, past which the reader blocks
/// and TCP pushes back on the writer. A unit larger than the chunk
/// still arrives whole, in a read sized from its length prefix.
const READ_CHUNK: usize = 8 * 1024;

/// Incremental unit parser over an arbitrary byte stream.
///
/// Feed read fragments with [`StreamDecoder::push`] (or let the
/// decoder read straight into its own buffer with
/// [`StreamDecoder::fill_from`]), then drain complete units with
/// [`StreamDecoder::next_unit_ref`].
/// Bytes that do not yet form a complete unit stay buffered; a header
/// that can never be valid (oversized length) surfaces as an error
/// instead of a stall or a panic.
///
/// When a buffered header announces a unit longer than what has
/// arrived, the decoder pre-reserves exactly the announced unit length
/// (`reserve_exact`, capped by the wire's [`wire::MAX_BODY_LEN`]), so
/// a large batch frame trickling in over many reads reallocates at
/// most once instead of growing incrementally.
#[derive(Debug, Default)]
pub struct StreamDecoder {
    /// Initialized storage; live bytes are `buf[start..end]`.
    buf: Vec<u8>,
    /// Consumed prefix of the live region; compacted lazily so every
    /// unit does not trigger a memmove of the remainder.
    start: usize,
    /// End of the live region (`buf[end..]` is writable spare room).
    end: usize,
}

impl StreamDecoder {
    /// An empty decoder.
    pub fn new() -> StreamDecoder {
        StreamDecoder::default()
    }

    /// Appends one read fragment (any length, including empty).
    pub fn push(&mut self, bytes: &[u8]) {
        self.compact();
        self.grow_for(bytes.len());
        self.buf[self.end..self.end + bytes.len()].copy_from_slice(bytes);
        self.end += bytes.len();
    }

    /// Reads once from `r` directly into the decoder's spare room —
    /// no intermediate chunk buffer, no copy. Returns the byte count
    /// (`0` means EOF). The read asks for 8 KiB (`READ_CHUNK`), or the
    /// remainder of a partially-buffered unit when its header announces
    /// more.
    ///
    /// # Errors
    ///
    /// Propagates the underlying read error.
    pub fn fill_from<R: Read>(&mut self, r: &mut R) -> std::io::Result<usize> {
        self.compact();
        let want = self.missing().max(READ_CHUNK);
        self.grow_for(want);
        let n = r.read(&mut self.buf[self.end..])?;
        self.end += n;
        Ok(n)
    }

    /// Bytes buffered but not yet consumed as units.
    pub fn buffered(&self) -> usize {
        self.end - self.start
    }

    /// Pops the next complete unit as its `dest` and its complete
    /// `WireMsg` frame (length prefix included, ready for
    /// `WireMsg::decode_exact`), `Ok(None)` when more bytes are needed.
    /// The frame borrows the decoder's buffer and is valid until the
    /// next mutating call.
    ///
    /// # Errors
    ///
    /// [`WireError::Oversized`] when the header announces a body larger
    /// than [`wire::MAX_BODY_LEN`] — the stream is corrupt and cannot
    /// be resynchronized.
    pub fn next_unit_ref(&mut self) -> Result<Option<(u32, &[u8])>, WireError> {
        let (dest, frame_len, rest_len) = match wire::split_unit(&self.buf[self.start..self.end]) {
            Ok((dest, frame, rest)) => (dest, frame.len(), rest.len()),
            Err(WireError::Truncated { .. }) => return Ok(None),
            Err(corrupt) => return Err(corrupt),
        };
        // The unit ends where the rest begins; its frame ends it.
        self.start = self.end - rest_len;
        Ok(Some((dest, &self.buf[self.start - frame_len..self.start])))
    }

    /// Bytes the buffered unit still lacks: 0 when one is whole or
    /// its header is corrupt (that surfaces as an error from
    /// [`StreamDecoder::next_unit_ref`], so nothing is reserved for it).
    fn missing(&self) -> usize {
        match wire::split_unit(&self.buf[self.start..self.end]) {
            Err(WireError::Truncated { needed, .. }) => needed,
            _ => 0,
        }
    }

    /// Ensures `extra` writable bytes after `end`, pre-reserving the
    /// full announced unit when a partial one is buffered. Growth is
    /// `reserve_exact`: the buffer never balloons past what the wire
    /// format itself justifies.
    fn grow_for(&mut self, extra: usize) {
        let target = self.end + extra.max(self.missing());
        if self.buf.len() < target {
            self.buf.reserve_exact(target - self.buf.len());
            self.buf.resize(target, 0);
        }
    }

    /// Reclaims consumed bytes once they dominate the buffer.
    fn compact(&mut self) {
        if self.start == 0 {
            return;
        }
        if self.buffered() == 0 {
            self.start = 0;
            self.end = 0;
        } else if self.start >= 4096 {
            self.buf.copy_within(self.start..self.end, 0);
            self.end -= self.start;
            self.start = 0;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hyperdex_runtime::wire::WireMsg;

    /// One definition of a torn frame: every cut of a frame short of
    /// its end, and a prefix declaring too long a body, read the same
    /// through the codec, the packet splitter and the stream decoder —
    /// which waits for exactly the bytes the others say are missing.
    #[test]
    fn torn_and_oversized_frames_read_alike_on_every_path() {
        let frame = WireMsg::PinResults {
            query_id: 9,
            objects: vec![1, 2, 3],
        }
        .encode();
        let mut cases: Vec<(&[u8], WireError)> = (1..frame.len())
            .map(|cut| {
                // Until the prefix is there, only the prefix is known
                // to be missing.
                let len = if cut < wire::PREFIX_LEN {
                    wire::PREFIX_LEN
                } else {
                    frame.len()
                };
                let torn = WireError::Truncated {
                    needed: len - cut,
                    have: cut,
                };
                (&frame[..cut], torn)
            })
            .collect();
        let mut oversized = (wire::MAX_BODY_LEN + 1).to_le_bytes().to_vec();
        oversized.push(0);
        let over = WireError::Oversized {
            len: wire::MAX_BODY_LEN + 1,
        };
        cases.push((&oversized, over));
        for (bytes, expected) in cases {
            assert_eq!(WireMsg::decode(bytes).err().as_ref(), Some(&expected));
            assert_eq!(
                wire::frames(bytes).collect::<Vec<_>>(),
                [Err(expected.clone())]
            );
            let mut unit = Vec::new();
            push_unit(&mut unit, 7, bytes);
            let mut dec = StreamDecoder::new();
            dec.push(&unit);
            match expected {
                WireError::Truncated { needed, .. } => {
                    assert_eq!(dec.next_unit_ref(), Ok(None));
                    assert_eq!(dec.missing(), needed, "{} bytes", bytes.len());
                }
                corrupt => assert_eq!(dec.next_unit_ref(), Err(corrupt)),
            }
        }
    }

    #[test]
    fn decodes_units_fed_one_byte_at_a_time() {
        let frame = WireMsg::Flush { token: 77 }.encode();
        let mut unit = Vec::new();
        push_unit(&mut unit, 3, &frame);
        let mut dec = StreamDecoder::new();
        for (i, b) in unit.iter().enumerate() {
            dec.push(&[*b]);
            let got = dec.next_unit_ref().unwrap();
            if i + 1 < unit.len() {
                assert!(got.is_none(), "unit complete early at byte {i}");
            } else {
                assert_eq!(got, Some((3, &frame[..])));
            }
        }
        assert_eq!(dec.buffered(), 0);
    }

    #[test]
    fn decodes_many_units_from_one_fragment() {
        let mut stream = Vec::new();
        for token in 0..5u64 {
            push_unit(
                &mut stream,
                token as u32,
                &WireMsg::Flush { token }.encode(),
            );
        }
        let mut dec = StreamDecoder::new();
        dec.push(&stream);
        for token in 0..5u64 {
            let (dest, frame) = dec.next_unit_ref().unwrap().expect("buffered");
            assert_eq!(dest, token as u32);
            assert_eq!(
                WireMsg::decode_exact(frame).unwrap(),
                WireMsg::Flush { token }
            );
        }
        assert!(dec.next_unit_ref().unwrap().is_none());
    }

    #[test]
    fn oversized_header_is_an_error_not_a_stall() {
        let mut dec = StreamDecoder::new();
        let mut bad = 0u32.to_le_bytes().to_vec();
        bad.extend_from_slice(&(wire::MAX_BODY_LEN + 1).to_le_bytes());
        bad.push(0);
        dec.push(&bad);
        assert!(matches!(
            dec.next_unit_ref(),
            Err(WireError::Oversized { .. })
        ));
    }

    #[test]
    fn compaction_does_not_lose_a_torn_unit() {
        let frame = WireMsg::Flush { token: 1 }.encode();
        let mut unit = Vec::new();
        push_unit(&mut unit, 0, &frame);
        let mut dec = StreamDecoder::new();
        // Thousands of whole units (forces compaction), then a torn one
        // split across pushes.
        let mut stream = Vec::new();
        for _ in 0..2000 {
            stream.extend_from_slice(&unit);
        }
        dec.push(&stream);
        let mut n = 0;
        while dec.next_unit_ref().unwrap().is_some() {
            n += 1;
        }
        assert_eq!(n, 2000);
        dec.push(&unit[..5]);
        assert!(dec.next_unit_ref().unwrap().is_none());
        dec.push(&unit[5..]);
        let (_, got) = dec.next_unit_ref().unwrap().expect("reassembled");
        assert_eq!(got, frame);
    }

    #[test]
    fn pre_reservation_sizes_to_the_announced_unit_not_beyond() {
        // A torn unit whose header announces more than has arrived: the
        // decoder pre-reserves exactly the announced unit (so the body
        // trickling in never triggers incremental reallocation) and not a
        // byte-ballooning multiple of it.
        let big = WireMsg::PinResults {
            query_id: 1,
            objects: (0..20_000u64).collect(),
        };
        let frame = big.encode();
        let mut unit = Vec::new();
        push_unit(&mut unit, CLIENT_DEST, &frame);
        let mut dec = StreamDecoder::new();
        // Header plus one body byte: enough to announce the full length.
        // The pre-reservation fires on the next write into the buffer.
        dec.push(&unit[..9]);
        assert!(dec.next_unit_ref().expect("no error").is_none());
        let mut chunks = unit[9..].chunks(4096);
        dec.push(chunks.next().expect("body bytes"));
        let reserved = dec.buf.capacity();
        assert!(
            reserved >= unit.len(),
            "decoder did not pre-reserve the announced unit ({reserved} < {})",
            unit.len()
        );
        assert!(
            reserved <= unit.len() * 2,
            "pre-reservation over-allocated: {reserved} bytes for a {}-byte unit",
            unit.len()
        );
        // Trickle the rest in; capacity must not grow past the
        // pre-reservation (that would mean incremental reallocs).
        for chunk in chunks {
            dec.push(chunk);
            assert_eq!(dec.buf.capacity(), reserved, "decoder reallocated mid-unit");
        }
        let (_, got) = dec.next_unit_ref().expect("well-formed").expect("complete");
        assert_eq!(got, frame);
    }

    #[test]
    fn oversized_header_does_not_trigger_pre_reservation() {
        // A corrupt header announcing an absurd body must surface as a
        // typed error without the decoder reserving memory for it.
        let mut bad = 0u32.to_le_bytes().to_vec();
        bad.extend_from_slice(&u32::MAX.to_le_bytes());
        let mut dec = StreamDecoder::new();
        dec.push(&bad);
        assert!(
            dec.buf.capacity() < 1024 * 1024,
            "decoder reserved {} bytes for a corrupt header",
            dec.buf.capacity()
        );
        assert!(matches!(
            dec.next_unit_ref(),
            Err(WireError::Oversized { .. })
        ));
    }
}
