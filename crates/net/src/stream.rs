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
//! [`CLIENT_DEST`] for client-bound replies.
//!
//! TCP gives a byte stream, not messages: one `read` may return half a
//! header, three units and a torn fourth, or a single byte.
//! [`StreamDecoder`] is a push-based incremental parser that accepts
//! arbitrary read fragments and yields complete units — tolerant of
//! every possible split point, which the robustness suite exercises
//! exhaustively (every `WireMsg` variant, every byte boundary).

use std::io::Read;

use hyperdex_runtime::wire::{self, WireError};

/// `dest` marking a unit for the client rather than a worker.
pub const CLIENT_DEST: u32 = u32::MAX;

/// Bytes of the routing header in front of each frame.
pub const DEST_LEN: usize = 4;

/// Appends one `[dest][frame]` unit to `out`. `frame` must be a
/// complete encoded [`WireMsg`] (length prefix included).
pub fn push_unit(out: &mut Vec<u8>, dest: u32, frame: &[u8]) {
    out.extend_from_slice(&dest.to_le_bytes());
    out.extend_from_slice(frame);
}

/// Encodes one unit into a fresh buffer.
pub fn encode_unit(dest: u32, frame: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(DEST_LEN + frame.len());
    push_unit(&mut out, dest, frame);
    out
}

/// Logical units in a wire packet (`[dest][frame]` back to back).
/// Packets are built from well-formed units, so a parse failure is a
/// bug; the count stops there (debug builds assert).
pub fn count_units(packet: &[u8]) -> u64 {
    let header = DEST_LEN + wire::PREFIX_LEN;
    let mut rest = packet;
    let mut n = 0;
    while !rest.is_empty() {
        if rest.len() < header {
            debug_assert!(false, "torn unit header in count_units");
            break;
        }
        let body_len = u32::from_le_bytes(rest[DEST_LEN..header].try_into().expect("4 bytes"));
        let unit_len = header + body_len as usize;
        if body_len > wire::MAX_BODY_LEN || rest.len() < unit_len {
            debug_assert!(false, "malformed unit in count_units");
            break;
        }
        n += 1;
        rest = &rest[unit_len..];
    }
    n
}

/// One decoded unit: where it goes and the complete `WireMsg` frame
/// (length prefix included, ready for `WireMsg::decode_exact`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Unit {
    /// Global worker index, or [`CLIENT_DEST`].
    pub dest: u32,
    /// The encoded frame, byte-identical to what the sender encoded.
    pub frame: Vec<u8>,
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
/// [`StreamDecoder::next_unit`] / [`StreamDecoder::next_unit_ref`].
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
        let want = match self.pending_unit_len() {
            Some(unit_len) if unit_len > self.buffered() => {
                (unit_len - self.buffered()).max(READ_CHUNK)
            }
            _ => READ_CHUNK,
        };
        self.grow_for(want);
        let n = r.read(&mut self.buf[self.end..])?;
        self.end += n;
        Ok(n)
    }

    /// Bytes buffered but not yet consumed as units.
    pub fn buffered(&self) -> usize {
        self.end - self.start
    }

    /// Bytes of backing storage the decoder holds — what the
    /// pre-reservation discipline bounds.
    pub fn capacity(&self) -> usize {
        self.buf.capacity()
    }

    /// Pops the next complete unit, `Ok(None)` when more bytes are
    /// needed.
    ///
    /// # Errors
    ///
    /// [`WireError::Oversized`] when the header announces a body larger
    /// than [`wire::MAX_BODY_LEN`] — the stream is corrupt and cannot
    /// be resynchronized.
    pub fn next_unit(&mut self) -> Result<Option<Unit>, WireError> {
        Ok(self.next_unit_ref()?.map(|(dest, frame)| Unit {
            dest,
            frame: frame.to_vec(),
        }))
    }

    /// [`StreamDecoder::next_unit`] without the frame copy: the
    /// returned slice borrows the decoder's buffer and is valid until
    /// the next mutating call.
    ///
    /// # Errors
    ///
    /// [`WireError::Oversized`], exactly like
    /// [`StreamDecoder::next_unit`].
    pub fn next_unit_ref(&mut self) -> Result<Option<(u32, &[u8])>, WireError> {
        let header = DEST_LEN + wire::PREFIX_LEN;
        let pending = &self.buf[self.start..self.end];
        if pending.len() < header {
            return Ok(None);
        }
        let dest = u32::from_le_bytes(pending[..DEST_LEN].try_into().expect("4 bytes"));
        let body_len = u32::from_le_bytes(pending[DEST_LEN..header].try_into().expect("4 bytes"));
        if body_len > wire::MAX_BODY_LEN {
            return Err(WireError::Oversized { len: body_len });
        }
        let unit_len = header + body_len as usize;
        if pending.len() < unit_len {
            return Ok(None);
        }
        let frame_start = self.start + DEST_LEN;
        let frame_end = self.start + unit_len;
        self.start = frame_end;
        Ok(Some((dest, &self.buf[frame_start..frame_end])))
    }

    /// The full length of the unit whose header is buffered, when one
    /// is and its length is plausible.
    fn pending_unit_len(&self) -> Option<usize> {
        let header = DEST_LEN + wire::PREFIX_LEN;
        let pending = &self.buf[self.start..self.end];
        if pending.len() < header {
            return None;
        }
        let body_len = u32::from_le_bytes(pending[DEST_LEN..header].try_into().expect("4 bytes"));
        if body_len > wire::MAX_BODY_LEN {
            // Corrupt header: surfaces as an error from next_unit, so
            // never reserve for it.
            return None;
        }
        Some(header + body_len as usize)
    }

    /// Ensures `extra` writable bytes after `end`, pre-reserving the
    /// full announced unit when a partial one is buffered. Growth is
    /// `reserve_exact`: the buffer never balloons past what the wire
    /// format itself justifies.
    fn grow_for(&mut self, extra: usize) {
        let mut target = self.end + extra;
        if let Some(unit_len) = self.pending_unit_len() {
            target = target.max(self.start + unit_len);
        }
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
        if self.start >= self.end {
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

    #[test]
    fn decodes_units_fed_one_byte_at_a_time() {
        let frame = WireMsg::Flush { token: 77 }.encode();
        let unit = encode_unit(3, &frame);
        let mut dec = StreamDecoder::new();
        for (i, b) in unit.iter().enumerate() {
            dec.push(&[*b]);
            let got = dec.next_unit().unwrap();
            if i + 1 < unit.len() {
                assert!(got.is_none(), "unit complete early at byte {i}");
            } else {
                let got = got.expect("complete");
                assert_eq!(got.dest, 3);
                assert_eq!(got.frame, frame);
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
            let unit = dec.next_unit().unwrap().expect("buffered");
            assert_eq!(unit.dest, token as u32);
            assert_eq!(
                WireMsg::decode_exact(&unit.frame).unwrap(),
                WireMsg::Flush { token }
            );
        }
        assert!(dec.next_unit().unwrap().is_none());
    }

    #[test]
    fn oversized_header_is_an_error_not_a_stall() {
        let mut dec = StreamDecoder::new();
        let mut bad = 0u32.to_le_bytes().to_vec();
        bad.extend_from_slice(&(wire::MAX_BODY_LEN + 1).to_le_bytes());
        bad.push(0);
        dec.push(&bad);
        assert!(matches!(dec.next_unit(), Err(WireError::Oversized { .. })));
    }

    #[test]
    fn compaction_does_not_lose_a_torn_unit() {
        let frame = WireMsg::Flush { token: 1 }.encode();
        let unit = encode_unit(0, &frame);
        let mut dec = StreamDecoder::new();
        // Thousands of whole units (forces compaction), then a torn one
        // split across pushes.
        let mut stream = Vec::new();
        for _ in 0..2000 {
            stream.extend_from_slice(&unit);
        }
        dec.push(&stream);
        let mut n = 0;
        while dec.next_unit().unwrap().is_some() {
            n += 1;
        }
        assert_eq!(n, 2000);
        dec.push(&unit[..5]);
        assert!(dec.next_unit().unwrap().is_none());
        dec.push(&unit[5..]);
        let got = dec.next_unit().unwrap().expect("reassembled");
        assert_eq!(got.frame, frame);
    }
}
