//! Varint delta codec for posting lists.
//!
//! A posting list is a strictly ascending sequence of [`ObjectId`]s.
//! The slab store keeps it as LEB128 varints in a shared byte arena:
//! the first value is the raw id (its delta to 0), every later value is
//! the (always ≥ 1) delta to its predecessor. Ascending ids produced by
//! bulk loads encode to 1–2 bytes per object instead of the 8-byte word
//! (plus tree-node overhead) the `BTreeSet` backend pays. A list carries
//! no count: it is exactly the varints of its byte range.
//!
//! Because `ObjectId`'s derived `Ord` is the order of its raw `u64`,
//! decoding yields exactly the ascending sequence a
//! `BTreeSet<ObjectId>` iteration would — the byte-identical-parity
//! contract of [`crate::store`] rests on this.
//!
//! Only a list of two or more ids is encoded: a list of one is kept in
//! its slot (see [`crate::store::slab`]), and [`DeltaIter`] yields it
//! from a pending head instead of from arena bytes.

use hyperdex_dht::ObjectId;

/// Appends `v` to `buf` as an LEB128 varint (7 payload bits per byte,
/// high bit = continuation). Returns the number of bytes written.
pub(crate) fn push_varint(buf: &mut Vec<u8>, mut v: u64) -> usize {
    let mut written = 0;
    loop {
        let byte = (v & 0x7f) as u8;
        v >>= 7;
        written += 1;
        if v == 0 {
            buf.push(byte);
            return written;
        }
        buf.push(byte | 0x80);
    }
}

/// Reads one varint off the front of `bytes`, advancing the slice.
///
/// The arena only ever hands out ranges it encoded itself, so a
/// truncated varint is a store bug; debug builds catch it on the
/// slice index.
pub(crate) fn read_varint(bytes: &mut &[u8]) -> u64 {
    let mut v = 0u64;
    let mut shift = 0u32;
    loop {
        let byte = bytes[0];
        *bytes = &bytes[1..];
        v |= u64::from(byte & 0x7f) << shift;
        if byte & 0x80 == 0 {
            return v;
        }
        shift += 7;
    }
}

/// Streaming decoder over one posting list — the slab-backend
/// counterpart of the `BTreeSet` posting iterator. Yields `ObjectId`s
/// in ascending order without materializing the list, and stops where
/// its byte range ends.
#[derive(Debug, Clone)]
pub struct DeltaIter<'a> {
    /// A slot's inline id, yielded before any byte is read.
    head: Option<u64>,
    bytes: &'a [u8],
    prev: u64,
}

impl<'a> DeltaIter<'a> {
    /// A decoder over the ids encoded in `bytes`, all of them.
    pub(crate) fn new(bytes: &'a [u8]) -> Self {
        DeltaIter {
            head: None,
            bytes,
            prev: 0,
        }
    }

    /// The list of the one id `raw`, which no byte encodes.
    pub(crate) fn one(raw: u64) -> Self {
        DeltaIter {
            head: Some(raw),
            ..DeltaIter::empty()
        }
    }

    /// An exhausted decoder (missing entry / short-circuited lookup).
    pub(crate) fn empty() -> Self {
        DeltaIter::new(&[])
    }
}

impl Iterator for DeltaIter<'_> {
    type Item = ObjectId;

    fn next(&mut self) -> Option<ObjectId> {
        if let Some(raw) = self.head.take() {
            return Some(ObjectId::from_raw(raw));
        }
        if self.bytes.is_empty() {
            return None;
        }
        self.prev += read_varint(&mut self.bytes);
        Some(ObjectId::from_raw(self.prev))
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        // A varint is 1 to 10 bytes.
        let (n, head) = (self.bytes.len(), usize::from(self.head.is_some()));
        (n.div_ceil(10) + head, Some(n + head))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The ascending `ids` encoded as one list, appended to `buf`.
    fn encode_list(buf: &mut Vec<u8>, ids: &[u64]) -> usize {
        let mut prev = 0;
        ids.iter()
            .map(|&id| push_varint(buf, id - std::mem::replace(&mut prev, id)))
            .sum()
    }

    fn decode(bytes: &[u8]) -> Vec<u64> {
        DeltaIter::new(bytes).map(ObjectId::raw).collect()
    }

    #[test]
    fn varint_round_trips_boundaries() {
        for v in [0u64, 1, 127, 128, 16_383, 16_384, u64::MAX - 1, u64::MAX] {
            let mut buf = Vec::new();
            let n = push_varint(&mut buf, v);
            assert_eq!(n, buf.len());
            let mut slice = buf.as_slice();
            assert_eq!(read_varint(&mut slice), v);
            assert!(slice.is_empty(), "decoder consumed exactly one varint");
        }
    }

    #[test]
    fn list_round_trips_and_stays_ascending() {
        let ids = [3u64, 4, 100, 10_000, 1 << 40];
        let mut buf = Vec::new();
        let len = encode_list(&mut buf, &ids);
        assert_eq!(len, buf.len());
        assert_eq!(decode(&buf), ids);
    }

    #[test]
    fn dense_ascending_ids_cost_one_byte_each_after_the_first() {
        let ids: Vec<u64> = (1000..1100).collect();
        let mut buf = Vec::new();
        encode_list(&mut buf, &ids);
        assert_eq!(buf.len(), 2 + 99, "2-byte head + 1-byte deltas");
    }

    #[test]
    fn empty_iter_yields_nothing() {
        assert_eq!(DeltaIter::empty().count(), 0);
        assert_eq!(DeltaIter::new(&[]).size_hint(), (0, Some(0)));
    }

    #[test]
    fn a_one_id_list_is_its_head() {
        for raw in [0u64, 1, u64::MAX] {
            let it = DeltaIter::one(raw);
            assert_eq!(it.size_hint(), (1, Some(1)));
            assert_eq!(it.map(ObjectId::raw).collect::<Vec<_>>(), [raw]);
        }
    }

    #[test]
    fn a_list_stops_where_its_range_ends() {
        // Two slots' lists back to back, as the arena holds them.
        let (first, second) = ([7u64, 9, 300], [1u64, 2, 1 << 50]);
        let mut arena = Vec::new();
        let len = encode_list(&mut arena, &first);
        encode_list(&mut arena, &second);
        assert_eq!(decode(&arena[..len]), first);
        assert_eq!(decode(&arena[len..]), second);
        let (lo, hi) = DeltaIter::new(&arena[..len]).size_hint();
        assert!(lo <= first.len() && hi >= Some(first.len()));
    }

    #[test]
    fn u64_max_decodes_as_the_last_id() {
        for ids in [
            &[u64::MAX][..],
            &[0, u64::MAX],
            &[5, u64::MAX - 1, u64::MAX],
        ] {
            let mut buf = Vec::new();
            encode_list(&mut buf, ids);
            assert_eq!(decode(&buf), ids);
        }
    }
}
