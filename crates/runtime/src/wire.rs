//! Hand-rolled length-prefixed wire codec for the runtime's protocol
//! frames.
//!
//! Workers exchange `Vec<u8>` frames, never structs — the thread
//! boundary is byte-defined, exactly as a socket boundary would be, so
//! moving a worker onto a real transport changes nothing above this
//! module. A frame is
//!
//! ```text
//! [ body_len: u32 LE ][ tag: u8 ][ fields... ]
//!   └─ prefix ─┘       └───── body (body_len bytes) ─────┘
//! ```
//!
//! All integers are little-endian and fixed-width. Variable-length
//! fields carry their own count: keywords are `u16 count` then per
//! keyword `u16 len + UTF-8 bytes` — the packed form a [`KeywordSet`]
//! holds in memory, so a set is written with one copy and a canonical
//! one is read with one validation pass; object lists are `u32 count` of
//! fixed-width records.
//!
//! The vocabulary is declared once: the `wire_messages!` table gives
//! each message's tag and its fields in wire order, and [`WireMsg`],
//! its encoder and its decoder are generated from it.
//!
//! [`WireMsg::decode_exact`] is strict: a frame must parse completely —
//! a short buffer is [`WireError::Truncated`], excess bytes (after the
//! frame or inside the declared body) are [`WireError::TrailingGarbage`],
//! and an unknown tag is [`WireError::BadTag`]. The roundtrip tests
//! sweep every variant through every truncation point.
//!
//! This module is also the one place a frame's envelope is read or
//! written. Frames travel in **packets**, back to back: raw on a
//! channel into a worker's inbox, and on a socket as **units**, each
//! frame behind a `[dest u32 LE]` routing header naming the worker (or
//! the client) it is for. [`split_frame`] and [`split_unit`] take one
//! off the front of a buffer, [`frames`] and [`units`] walk a packet,
//! and [`put_unit_header`] writes the routing header; all of them, and
//! [`WireMsg::decode`], read the length prefix through one function, so
//! every path agrees on what a torn or oversized frame is.

use std::fmt;

use hyperdex_core::{Error, FtCoverage, Keyword, KeywordSet, PackedError};

/// Upper bound on a frame body; larger declared lengths are rejected
/// before any allocation ([`WireError::Oversized`]).
pub const MAX_BODY_LEN: u32 = 16 * 1024 * 1024;

/// The length prefix's width in bytes.
pub const PREFIX_LEN: usize = 4;

/// The routing header's width in bytes: a unit is `[dest u32 LE]`
/// then a frame.
const DEST_LEN: usize = 4;

/// Most vertex groups one [`WireMsg::RegionDone`] carries: their count
/// is a `u16`. Senders split longer replies over several frames.
pub const MAX_BATCH_ENTRIES: usize = u16::MAX as usize;

/// Encoded bytes of one `(object id, extra keywords)` record.
const HIT_LEN: usize = 12;

/// Body bytes a [`WireMsg::RegionDone`] spends before its groups: tag,
/// query id, worker, epoch, attempt, part, `more` flag, group count.
pub const REGION_DONE_HEADER_LEN: usize = 1 + 8 + 4 + 8 + 4 + 4 + 1 + 2;

/// Encoded bytes of one [`WireMsg::RegionDone`] group.
pub fn region_group_len((_, objects): &RegionGroup) -> usize {
    8 + 4 + objects.len() * HIT_LEN
}

/// How many leading entries of a batch its next frame takes: as many
/// as fit under both caps — `max_entries` by count, `max_bytes` by the
/// sum of their encoded `sizes` — and never fewer than one of a
/// non-empty list (a single entry over the byte cap cannot be split;
/// the encoder's frame check stops it at the sender).
pub fn batch_prefix(
    sizes: impl IntoIterator<Item = usize>,
    max_entries: usize,
    max_bytes: usize,
) -> usize {
    let mut bytes = 0usize;
    let mut taken = 0;
    for size in sizes.into_iter().take(max_entries) {
        bytes = bytes.saturating_add(size);
        if taken > 0 && bytes > max_bytes {
            break;
        }
        taken += 1;
    }
    taken
}

/// Declares the wire vocabulary: each row is a tag, a variant with its
/// doc comments, and its fields in wire order. From the one table it
/// writes [`WireMsg`], the encoder's arm and the decoder's arm of every
/// variant. A field travels by its type's [`Field`] codec; one marked
/// `[short]` is a list with a `u16` count instead of a `u32` one. A row
/// whose fields do not travel in order names a hand-written
/// `by (put, get)` pair instead.
macro_rules! wire_messages {
    (@put $out:ident, $value:ident) => { Field::put($value, $out) };
    (@put $out:ident, $value:ident short) => { put_short($value, $out) };
    (@get $r:ident) => { Field::get($r)? };
    (@get $r:ident short) => { get_short($r)? };
    (@encode $out:ident by $put:ident; $($field:ident),*) => { $put($out, $($field),*) };
    (@encode $out:ident; $($field:ident $($short:ident)?),*) => {
        $(wire_messages!(@put $out, $field $($short)?);)*
    };
    (@decode $r:ident by $get:ident; $($row:tt)*) => { $get($r) };
    (@decode $r:ident; $variant:ident $({ $($field:ident $($short:ident)?),* })?) => {
        Ok(WireMsg::$variant $({ $($field: wire_messages!(@get $r $($short)?)),* })?)
    };
    (
        $(
            $(#[$meta:meta])*
            $tag:literal => $variant:ident $({
                $($(#[$fmeta:meta])* $([$short:ident])? $field:ident: $ty:ty,)*
            })? $(by ($put:ident, $get:ident))?,
        )*
    ) => {
        /// One protocol frame between runtime endpoints (workers, or the
        /// client handle).
        #[derive(Debug, Clone, PartialEq, Eq)]
        pub enum WireMsg {
            $(
                $(#[$meta])*
                $variant $({ $($(#[$fmeta])* $field: $ty,)* })?,
            )*
        }

        impl WireMsg {
            /// Appends the tag and the fields: the frame's body.
            fn put_body(&self, out: &mut Vec<u8>) {
                match self {
                    $(WireMsg::$variant $({ $($field),* })? => {
                        out.push($tag);
                        wire_messages!(@encode out $(by $put)?; $($($field $($short)?),*)?);
                    })*
                }
            }
        }

        fn decode_body(r: &mut Reader<'_>) -> Result<WireMsg, WireError> {
            match u8::get(r)? {
                $($tag => wire_messages!(@decode r $(by $get)?;
                    $variant $({ $($field $($short)?),* })?),)*
                other => Err(WireError::BadTag(other)),
            }
        }
    };
}

wire_messages! {
    /// Client → vertex owner: index `object` under `keywords`
    /// (`T_INSERT`; the owner recomputes `F_h(K)` itself — the frame
    /// carries no derived state).
    0 => Insert {
        /// The object's raw id.
        object: u64,
        /// Its full keyword set.
        keywords: KeywordSet,
    },
    /// Client → root owner: start a superset search. The receiving
    /// worker becomes the query's coordinator; clients send it to the
    /// owner of `F_h(K)`, which answers from the root alone when that
    /// fills the threshold, but any worker coordinates what it is sent
    /// (the root's region is then one more remote region). The bare
    /// form of [`WireMsg::QueryAt`]: a worker treats it as that variant
    /// with no marks.
    1 => Query {
        /// Client-assigned correlation id.
        query_id: u64,
        /// Results wanted (the paper's `c`).
        threshold: u64,
        /// The queried keyword set `K`.
        keywords: KeywordSet,
    },
    // 2 and 3 named the per-vertex visit and its continuation: retired,
    // never reused.
    /// Coordinator → client: the search finished.
    4 => QueryDone {
        /// Correlation id of the finished query.
        query_id: u64,
        /// All matches, truncated to the threshold.
        objects: Vec<(u64, u32)>,
    },
    /// Client → vertex owner: exact-match pin lookup.
    5 => Pin {
        /// Client-assigned correlation id.
        query_id: u64,
        /// The full keyword set to pin.
        keywords: KeywordSet,
    },
    /// Vertex owner → client: the pin matches (sent even when empty,
    /// so the client observes completion).
    6 => PinResults {
        /// Correlation id of the pin.
        query_id: u64,
        /// Exact-match object ids.
        objects: Vec<u64>,
    },
    // 7 installed a whole vertex table: a bulk load is inserts, so it is
    // retired too.
    /// Client → worker: drain barrier. The worker replies `FlushAck`
    /// after processing everything queued before this frame.
    8 => Flush {
        /// Barrier token echoed in the ack.
        token: u64,
    },
    /// Worker → client: barrier reached.
    9 => FlushAck {
        /// The echoed barrier token.
        token: u64,
        /// The acknowledging worker's index.
        worker: u32,
        /// The worker's write epoch at the barrier: how many objects
        /// its shard has indexed. A client sends the highest epoch it
        /// was shown back on its next [`WireMsg::QueryAt`].
        epoch: u64,
    },
    /// Client → worker: ship every lane and exit the event loop.
    10 => Shutdown,
    /// Client → root owner: start a *fault-tolerant* superset search
    /// (§3.4): the plain query's one round per region, each awaited
    /// owner under the frame's deadline and retry budget, answered with
    /// an exact account of what was and was not covered.
    11 => FtQuery {
        /// Client-assigned correlation id.
        query_id: u64,
        /// Results wanted (the paper's `c`).
        threshold: u64,
        /// Retransmissions of a silent region owner before it is given
        /// up.
        max_retries: u32,
        /// The first attempt's deadline in milliseconds, doubling per
        /// retry.
        base_timeout: u64,
        /// The queried keyword set `K`.
        keywords: KeywordSet,
    },
    /// Coordinator → client: the fault-tolerant search finished, with
    /// its exact coverage accounting.
    12 => FtQueryDone {
        /// Correlation id of the finished query.
        query_id: u64,
        /// All matches, truncated to the threshold.
        objects: Vec<(u64, u32)>,
        /// The coordinator's accounting, in regions' worth of vertices.
        coverage: FtCoverage,
    } by (put_ft_query_done, get_ft_query_done),
    // 13 released a respawned worker from repair: retired like 2 and 3.
    /// Coordinator → region owner: walk every prefix region of
    /// `H_r(F_h(K))` you own — the receiver works out which from the
    /// keywords and the shard map — each up to `threshold` matches, and
    /// answer with one [`WireMsg::RegionDone`].
    14 => RegionQuery {
        /// Correlation id of the driving query.
        query_id: u64,
        /// Results wanted (the whole query's: a region cannot know how
        /// many the regions visited before it will contribute).
        threshold: u64,
        /// Worker index of the coordinator (where to send the reply).
        coord: u32,
        /// Which transmission of this request it is (0 = the first);
        /// the answer echoes it.
        attempt: u32,
        /// The queried keyword set.
        keywords: KeywordSet,
    },
    /// Region owner → coordinator: the answer to a
    /// [`WireMsg::RegionQuery`] — the owner's first `threshold` matches
    /// in the sequential traversal's visit order, grouped by vertex,
    /// vertices holding none left out. An answer too long for one frame
    /// travels in several, numbered from 0 and all but the last flagged
    /// `more`; each counts as one frame in the conservation ledger. The
    /// coordinator takes an answer only whole: the parts of one
    /// `attempt`, in order, up to the last.
    15 => RegionDone {
        /// Correlation id of the driving query.
        query_id: u64,
        /// The answering worker's index.
        worker: u32,
        /// The sender's write epoch when it scanned: how many objects
        /// its shard had indexed. The coordinator stamps cached
        /// results with it.
        epoch: u64,
        /// The [`WireMsg::RegionQuery::attempt`] this answers.
        attempt: u32,
        /// This frame's position in the answer, from 0.
        part: u32,
        /// Whether another frame of this answer follows.
        more: bool,
        /// The vertices that hold matches, in visit order.
        [short] groups: Vec<RegionGroup>,
    },
    /// Client → root owner: a [`WireMsg::Query`] that also says which
    /// writes the client already knows are in place, so a coordinator
    /// never answers it from a cached result that predates them.
    16 => QueryAt {
        /// Client-assigned correlation id.
        query_id: u64,
        /// Results wanted (the paper's `c`).
        threshold: u64,
        /// The queried keyword set `K`.
        keywords: KeywordSet,
        /// Per worker, the highest write epoch a `FlushAck` showed
        /// this client (0 before any). Empty means no marks.
        [short] marks: Vec<u64>,
    },
}

/// One vertex's matches inside a [`WireMsg::RegionDone`]: `(bits,
/// objects)`, the objects as the `(id, extra keywords)` pairs a
/// [`WireMsg::QueryDone`] carries.
pub type RegionGroup = (u64, Vec<(u64, u32)>);

/// Decode failure. Every variant pinpoints what the bytes got wrong;
/// none of them allocates proportionally to attacker-controlled
/// lengths.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireError {
    /// The buffer ends before the frame does. Both counts are of the
    /// read that ran short, from its first byte: a torn frame is read
    /// from its length prefix (a torn unit from its routing header), so
    /// [`WireMsg::decode`], [`split_frame`] and [`frames`] report the
    /// same bytes alike; a body that ends inside a field is read from
    /// that field.
    Truncated {
        /// Bytes missing: how many more the read needed.
        needed: usize,
        /// Bytes there: how many the read had.
        have: usize,
    },
    /// Bytes remain after the frame (or after the body's last field).
    TrailingGarbage {
        /// How many bytes were left over.
        extra: usize,
    },
    /// Unknown message tag.
    BadTag(u8),
    /// Declared body length exceeds [`MAX_BODY_LEN`].
    Oversized {
        /// The declared length.
        len: u32,
    },
    /// A keyword's bytes are not valid UTF-8.
    BadUtf8,
    /// A keyword failed [`Keyword::new`]'s validation (empty after
    /// normalization).
    BadKeyword,
    /// A keyword normalizes to more bytes than a `u16` length prefix
    /// can carry (lowercasing can lengthen a maximal keyword).
    KeywordTooLong,
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::Truncated { needed, have } => {
                write!(f, "truncated frame: needed {needed} more bytes, had {have}")
            }
            WireError::TrailingGarbage { extra } => {
                write!(f, "{extra} trailing bytes after the frame")
            }
            WireError::BadTag(tag) => write!(f, "unknown message tag {tag:#04x}"),
            WireError::Oversized { len } => {
                write!(f, "declared body length {len} exceeds {MAX_BODY_LEN}")
            }
            WireError::BadUtf8 => write!(f, "keyword bytes are not valid UTF-8"),
            WireError::BadKeyword => write!(f, "keyword failed validation"),
            WireError::KeywordTooLong => write!(f, "keyword exceeds the length limit"),
        }
    }
}

impl std::error::Error for WireError {}

impl WireMsg {
    /// Serializes the message into a complete frame (length prefix
    /// included).
    pub fn encode(&self) -> Vec<u8> {
        let mut frame = Vec::with_capacity(64);
        self.encode_append(&mut frame);
        frame
    }

    /// Serializes the message into `frame` (cleared first), producing
    /// the same bytes as [`WireMsg::encode`].
    pub fn encode_into(&self, frame: &mut Vec<u8>) {
        frame.clear();
        self.encode_append(frame);
    }

    /// Appends the message's complete frame to `out`, leaving what
    /// `out` already holds untouched: the one encoder body. A send path
    /// writes each frame once, straight into the packet that travels.
    ///
    /// # Panics
    ///
    /// When the body would exceed [`MAX_BODY_LEN`] — in every build
    /// profile: a peer reads such a frame as a corrupt stream and drops
    /// the connection, so a sender's bug must stop at the sender.
    pub fn encode_append(&self, out: &mut Vec<u8>) {
        let start = out.len();
        out.resize(start + PREFIX_LEN, 0);
        self.put_body(out);
        let body_len = out.len() - start - PREFIX_LEN;
        assert!(
            body_len <= MAX_BODY_LEN as usize,
            "frame body of {body_len} bytes exceeds MAX_BODY_LEN"
        );
        out[start..start + PREFIX_LEN].copy_from_slice(&(body_len as u32).to_le_bytes());
    }

    /// Parses one frame from the front of `buf`, returning the message
    /// and how many bytes it consumed (stream decoding: the caller may
    /// hold several concatenated frames).
    pub fn decode(buf: &[u8]) -> Result<(WireMsg, usize), WireError> {
        let (frame, _) = split_frame(buf)?;
        let mut r = Reader {
            buf: &frame[PREFIX_LEN..],
            pos: 0,
        };
        let msg = decode_body(&mut r)?;
        // Every body byte must belong to a field — a frame whose body
        // outruns its fields is corrupt, not padded.
        if r.pos != r.buf.len() {
            return Err(WireError::TrailingGarbage {
                extra: r.buf.len() - r.pos,
            });
        }
        Ok((msg, frame.len()))
    }

    /// [`WireMsg::decode`] for exactly-one-frame buffers: any byte
    /// beyond the frame is [`WireError::TrailingGarbage`]. This is the
    /// entry point workers use — channels deliver whole frames.
    pub fn decode_exact(buf: &[u8]) -> Result<WireMsg, WireError> {
        let (msg, used) = WireMsg::decode(buf)?;
        if used != buf.len() {
            return Err(WireError::TrailingGarbage {
                extra: buf.len() - used,
            });
        }
        Ok(msg)
    }
}

/// Reads the length prefix at the front of `buf`: `None` until its
/// [`PREFIX_LEN`] bytes are there, [`WireError::Oversized`] past
/// [`MAX_BODY_LEN`], otherwise the frame's length, prefix included.
/// The one reader of a length prefix.
fn frame_len(buf: &[u8]) -> Result<Option<usize>, WireError> {
    let Some(prefix) = buf.first_chunk::<PREFIX_LEN>() else {
        return Ok(None);
    };
    let body_len = u32::from_le_bytes(*prefix);
    if body_len > MAX_BODY_LEN {
        return Err(WireError::Oversized { len: body_len });
    }
    Ok(Some(PREFIX_LEN + body_len as usize))
}

/// Splits `header` routing bytes and the frame behind them off the
/// front of `buf`: `(header and frame, rest)`. The one frame splitter;
/// its torn case is [`WireError::Truncated`] counted from `buf`'s first
/// byte — until the length prefix is there, only the header and the
/// prefix are known to be missing.
fn split(buf: &[u8], header: usize) -> Result<(&[u8], &[u8]), WireError> {
    let frame_len = frame_len(buf.get(header..).unwrap_or_default())?;
    let len = header + frame_len.unwrap_or(PREFIX_LEN);
    if buf.len() < len {
        return Err(WireError::Truncated {
            needed: len - buf.len(),
            have: buf.len(),
        });
    }
    Ok(buf.split_at(len))
}

/// Splits one frame off the front of `buf`: `(frame, rest)`, the frame
/// with its length prefix, as [`WireMsg::decode_exact`] takes it.
///
/// # Errors
///
/// [`WireError::Truncated`] while `buf` holds less than the frame,
/// [`WireError::Oversized`] when its prefix declares too long a body.
pub fn split_frame(buf: &[u8]) -> Result<(&[u8], &[u8]), WireError> {
    split(buf, 0)
}

/// Splits one unit off the front of `buf`: `(dest, frame, rest)`.
///
/// # Errors
///
/// As [`split_frame`], counted over the whole unit, routing header
/// included.
pub fn split_unit(buf: &[u8]) -> Result<(u32, &[u8], &[u8]), WireError> {
    let (unit, rest) = split(buf, DEST_LEN)?;
    let (dest, frame) = unit
        .split_first_chunk::<DEST_LEN>()
        .expect("a unit starts with its routing header");
    Ok((u32::from_le_bytes(*dest), frame, rest))
}

/// Appends a unit's routing header to `out`: the frame encoded there
/// next travels to `dest`.
pub fn put_unit_header(out: &mut Vec<u8>, dest: u32) {
    dest.put(out);
}

/// The frames of a packet of raw frames, front to back.
pub fn frames(packet: &[u8]) -> Frames<'_> {
    Frames {
        rest: packet,
        header: 0,
    }
}

/// The frames of a packet of units, front to back, their routing
/// headers passed over.
pub fn units(packet: &[u8]) -> Frames<'_> {
    Frames {
        rest: packet,
        header: DEST_LEN,
    }
}

/// A packet's frames, each with its length prefix: every frame that
/// splits off, then — when what is left does not split — its error,
/// once, as the last item.
#[derive(Debug)]
pub struct Frames<'a> {
    rest: &'a [u8],
    /// Routing bytes in front of each frame.
    header: usize,
}

impl<'a> Frames<'a> {
    /// The frames of a packet this process built itself: a remainder
    /// that does not split is a bug, not input, and panics in every
    /// build profile.
    pub fn expect_whole(self) -> impl Iterator<Item = &'a [u8]> {
        self.map(|frame| frame.expect("a packet this process built splits into whole frames"))
    }
}

impl<'a> Iterator for Frames<'a> {
    type Item = Result<&'a [u8], WireError>;

    fn next(&mut self) -> Option<Self::Item> {
        if self.rest.is_empty() {
            return None;
        }
        Some(match split(self.rest, self.header) {
            Ok((unit, rest)) => {
                self.rest = rest;
                Ok(&unit[self.header..])
            }
            Err(e) => {
                self.rest = &[];
                Err(e)
            }
        })
    }
}

/// How a field's type goes onto the wire and comes back off it.
trait Field: Sized {
    fn put(&self, out: &mut Vec<u8>);
    fn get(r: &mut Reader<'_>) -> Result<Self, WireError>;
}

/// Fixed-width little-endian integers.
macro_rules! int_field {
    ($($int:ty),*) => {$(
        impl Field for $int {
            fn put(&self, out: &mut Vec<u8>) {
                out.extend_from_slice(&self.to_le_bytes());
            }
            fn get(r: &mut Reader<'_>) -> Result<Self, WireError> {
                Ok(<$int>::from_le_bytes(r.array()?))
            }
        }
    )*};
}
int_field!(u8, u16, u32, u64);

/// One byte; any non-zero one reads as true (the encoder writes 1).
impl Field for bool {
    fn put(&self, out: &mut Vec<u8>) {
        out.push(u8::from(*self));
    }
    fn get(r: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok(u8::get(r)? != 0)
    }
}

/// `u16 count` then per keyword `u16 len + UTF-8 bytes`: the packed
/// form the set holds, written with one copy. A canonical set is read
/// with one validation pass; any other spelling is normalized.
impl Field for KeywordSet {
    fn put(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(self.as_packed());
    }
    fn get(r: &mut Reader<'_>) -> Result<Self, WireError> {
        match KeywordSet::decode_packed(&r.buf[r.pos..]) {
            Ok((set, used)) => {
                r.pos += used;
                Ok(set)
            }
            Err(PackedError::Truncated { needed, have }) => {
                Err(WireError::Truncated { needed, have })
            }
            Err(PackedError::BadUtf8) => Err(WireError::BadUtf8),
            Err(PackedError::NotCanonical) => get_keywords_normalizing(r),
        }
    }
}

impl<A: Field, B: Field> Field for (A, B) {
    fn put(&self, out: &mut Vec<u8>) {
        self.0.put(out);
        self.1.put(out);
    }
    fn get(r: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok((A::get(r)?, B::get(r)?))
    }
}

/// A list: its count, then its items.
fn put_list<T: Field>(count: impl Field, items: &[T], out: &mut Vec<u8>) {
    count.put(out);
    for item in items {
        item.put(out);
    }
}

/// `u32 count` then the items.
impl<T: Field> Field for Vec<T> {
    fn put(&self, out: &mut Vec<u8>) {
        put_list(self.len() as u32, self, out);
    }
    fn get(r: &mut Reader<'_>) -> Result<Self, WireError> {
        let count = u32::get(r)? as usize;
        r.list(count)
    }
}

/// A `[short]` list: `u16 count` then the items. A longer list is a
/// sender's bug (region replies are split at [`MAX_BATCH_ENTRIES`])
/// that must not reach the wire as a wrapped count the peer would read
/// as a corrupt frame.
fn put_short<T: Field>(items: &[T], out: &mut Vec<u8>) {
    let count = u16::try_from(items.len()).expect("senders split batches at MAX_BATCH_ENTRIES");
    put_list(count, items, out);
}

/// What [`put_short`] wrote.
fn get_short<T: Field>(r: &mut Reader<'_>) -> Result<Vec<T>, WireError> {
    let count = u16::get(r)? as usize;
    r.list(count)
}

/// [`WireMsg::FtQueryDone`]'s hand-written codec: its coverage's
/// counters travel ahead of the objects, its `skipped` list after them.
fn put_ft_query_done(out: &mut Vec<u8>, id: &u64, objects: &[(u64, u32)], c: &FtCoverage) {
    for n in [
        *id,
        c.subcube_vertices,
        c.reached,
        c.retries,
        c.timeouts,
        c.redelegations,
        c.queries_sent,
        c.conts,
        c.result_messages,
    ] {
        n.put(out);
    }
    put_list(objects.len() as u32, objects, out);
    c.skipped.put(out);
}

/// What [`put_ft_query_done`] wrote.
fn get_ft_query_done(r: &mut Reader<'_>) -> Result<WireMsg, WireError> {
    let query_id = Field::get(r)?;
    let mut coverage = FtCoverage {
        subcube_vertices: Field::get(r)?,
        reached: Field::get(r)?,
        retries: Field::get(r)?,
        timeouts: Field::get(r)?,
        redelegations: Field::get(r)?,
        queries_sent: Field::get(r)?,
        conts: Field::get(r)?,
        result_messages: Field::get(r)?,
        skipped: Vec::new(),
    };
    let objects = Field::get(r)?;
    coverage.skipped = Field::get(r)?;
    Ok(WireMsg::FtQueryDone {
        query_id,
        objects,
        coverage,
    })
}

/// Reads a keyword set some other encoder wrote unsorted, duplicated or
/// unnormalized: every keyword goes through [`Keyword::new`].
fn get_keywords_normalizing(r: &mut Reader<'_>) -> Result<KeywordSet, WireError> {
    let n = u16::get(r)? as usize;
    let mut keywords = Vec::with_capacity(n.min(r.buf.len() - r.pos));
    for _ in 0..n {
        let len = u16::get(r)? as usize;
        let bytes = r.bytes(len)?;
        let text = std::str::from_utf8(bytes).map_err(|_| WireError::BadUtf8)?;
        keywords.push(Keyword::new(text).map_err(|e| match e {
            Error::KeywordTooLong { .. } => WireError::KeywordTooLong,
            _ => WireError::BadKeyword,
        })?);
    }
    Ok(keywords.into_iter().collect())
}

/// Bounds-checked body reader; every miss is a precise `Truncated`.
struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn bytes(&mut self, n: usize) -> Result<&'a [u8], WireError> {
        let have = self.buf.len() - self.pos;
        if have < n {
            return Err(WireError::Truncated {
                needed: n - have,
                have,
            });
        }
        let out = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(out)
    }

    fn array<const N: usize>(&mut self) -> Result<[u8; N], WireError> {
        Ok(self.bytes(N)?.try_into().expect("N bytes"))
    }

    /// `count` items; the declared count reserves at most 1024 slots
    /// before any item has been seen.
    fn list<T: Field>(&mut self, count: usize) -> Result<Vec<T>, WireError> {
        let mut out = Vec::with_capacity(count.min(1024));
        for _ in 0..count {
            out.push(T::get(self)?);
        }
        Ok(out)
    }
}

/// The wire vocabulary by example: every variant at least once, with
/// non-trivial field values (empty and non-empty lists, multi-byte
/// keywords) so every codec branch is
/// exercised. The codec, fuzz and stream suites all sweep this one
/// list; a test holds its tag bytes to exactly the defined tags.
#[doc(hidden)]
pub fn exemplars() -> Vec<WireMsg> {
    let set = |s: &str| KeywordSet::parse(s).expect("exemplar keywords are valid");
    vec![
        WireMsg::Insert {
            object: 0xDEAD_BEEF,
            keywords: set("alpha beta gamma"),
        },
        WireMsg::Query {
            query_id: 7,
            keywords: set("alpha"),
            threshold: u64::MAX - 1,
        },
        WireMsg::QueryDone {
            query_id: 8,
            objects: vec![(1, 0), (2, 1), (3, 7)],
        },
        WireMsg::Pin {
            query_id: 11,
            keywords: set("exact match terms"),
        },
        WireMsg::PinResults {
            query_id: 11,
            objects: vec![5, 6, 7],
        },
        WireMsg::Flush { token: 1234 },
        WireMsg::FlushAck {
            token: 1234,
            worker: 7,
            epoch: 65_590,
        },
        WireMsg::Shutdown,
        WireMsg::FtQuery {
            query_id: 21,
            keywords: set("alpha beta"),
            threshold: 40,
            max_retries: 2,
            base_timeout: 16,
        },
        WireMsg::FtQuery {
            query_id: 22,
            keywords: set("x"),
            threshold: 1,
            max_retries: 0,
            base_timeout: 0,
        },
        WireMsg::FtQueryDone {
            query_id: 21,
            objects: vec![(4, 1), (5, 0)],
            coverage: FtCoverage {
                subcube_vertices: 8,
                reached: 6,
                skipped: vec![0b0101, 0b0111],
                queries_sent: 11,
                conts: 6,
                result_messages: 2,
                retries: 3,
                timeouts: 1,
                redelegations: 1,
            },
        },
        WireMsg::FtQueryDone {
            query_id: 22,
            objects: vec![],
            coverage: FtCoverage {
                subcube_vertices: 1,
                reached: 1,
                queries_sent: 1,
                ..FtCoverage::default()
            },
        },
        WireMsg::RegionQuery {
            query_id: 30,
            keywords: set("alpha beta"),
            threshold: 17,
            coord: 2,
            attempt: 3,
        },
        WireMsg::RegionQuery {
            query_id: 31,
            keywords: set("x"),
            threshold: u64::MAX - 1,
            coord: 0,
            attempt: 0,
        },
        WireMsg::RegionDone {
            query_id: 30,
            worker: 3,
            epoch: 65_590,
            attempt: 3,
            part: 1,
            more: true,
            groups: vec![
                (0b1010_1100, vec![(1, 0), (99, 2)]),
                (0b1010_1101, vec![(7, 1)]),
            ],
        },
        WireMsg::RegionDone {
            query_id: 31,
            worker: 0,
            epoch: 0,
            attempt: 0,
            part: 0,
            more: false,
            groups: vec![],
        },
        WireMsg::QueryAt {
            query_id: 40,
            keywords: set("alpha beta"),
            threshold: 20,
            marks: vec![65_590, 0, u64::MAX],
        },
        WireMsg::QueryAt {
            query_id: 41,
            keywords: set("x"),
            threshold: u64::MAX - 1,
            marks: vec![],
        },
        // Multi-byte keywords, one a byte-prefix of another: a flipped
        // bit here breaks UTF-8, case or the sort order.
        WireMsg::Pin {
            query_id: 13,
            keywords: set("日 日本 éa mp3"),
        },
    ]
}

/// An `Insert` frame for object 1 around hand-written keyword fields
/// — what an encoder that does not sort, fold case, deduplicate or
/// check its UTF-8 would send.
#[doc(hidden)]
pub fn insert_frame<K: AsRef<[u8]>>(keywords: &[K]) -> Vec<u8> {
    let mut frame = WireMsg::Insert {
        object: 1,
        keywords: KeywordSet::new(),
    }
    .encode();
    // The empty set's count goes; the fields are written by hand.
    frame.truncate(frame.len() - 2);
    (keywords.len() as u16).put(&mut frame);
    for k in keywords {
        (k.as_ref().len() as u16).put(&mut frame);
        frame.extend_from_slice(k.as_ref());
    }
    let body_len = (frame.len() - PREFIX_LEN) as u32;
    frame[..PREFIX_LEN].copy_from_slice(&body_len.to_le_bytes());
    frame
}

#[cfg(test)]
mod tests {
    use super::*;

    fn set(s: &str) -> KeywordSet {
        KeywordSet::parse(s).unwrap()
    }

    #[test]
    fn exemplars_cover_exactly_the_defined_tags() {
        let tags: std::collections::BTreeSet<u8> =
            exemplars().iter().map(|m| m.encode()[PREFIX_LEN]).collect();
        let retired = [2, 3, 7, 13];
        assert_eq!(
            tags,
            (0..=16).filter(|tag| !retired.contains(tag)).collect()
        );
        for tag in retired {
            assert_eq!(
                WireMsg::decode_exact(&[1, 0, 0, 0, tag]),
                Err(WireError::BadTag(tag)),
                "a retired tag came back"
            );
        }
        assert_eq!(
            WireMsg::decode_exact(&[1, 0, 0, 0, 16 + 1]),
            Err(WireError::BadTag(16 + 1)),
            "a tag was added past the last one the exemplars are held to"
        );
    }

    #[test]
    fn every_variant_roundtrips() {
        for msg in exemplars() {
            let frame = msg.encode();
            let back =
                WireMsg::decode_exact(&frame).unwrap_or_else(|e| panic!("decode {msg:?}: {e}"));
            assert_eq!(back, msg);
            // Stream decode agrees on the consumed length.
            let (back2, used) = WireMsg::decode(&frame).unwrap();
            assert_eq!(back2, msg);
            assert_eq!(used, frame.len());
        }
    }

    /// The exemplar frames, back to back, as the encoder wrote them
    /// when `encode_into` was its only body (FNV-1a over 872 bytes: the
    /// 1,120 of the 17-variant vocabulary less the 184 of the retired
    /// per-vertex pair's four exemplars, the 9 of the retired repair
    /// release's one and the 77 of the retired table handoff's one, plus
    /// 4 per `RegionQuery` for its attempt and 8 per `RegionDone` for
    /// its attempt and part, less the retired strategy byte of each of
    /// the two `FtQuery`s).
    /// One scratch buffer is cleared and refilled and one buffer only
    /// ever appended to, both across every exemplar in growing and
    /// shrinking order: each call writes the bytes of a fresh encode,
    /// and appending moves nothing already in the buffer.
    #[test]
    fn encode_into_and_encode_append_write_the_golden_bytes() {
        let (mut scratch, mut appended) = (vec![0xEE; 7], Vec::new());
        for msg in exemplars().iter().chain(exemplars().iter().rev()) {
            msg.encode_into(&mut scratch);
            assert_eq!(scratch, msg.encode(), "{msg:?}");
            msg.encode_append(&mut appended);
            assert!(appended.ends_with(&scratch), "{msg:?}");
        }
        let forward = &appended[..appended.len() / 2];
        let digest = forward.iter().fold(0xcbf2_9ce4_8422_2325u64, |h, &b| {
            (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3)
        });
        assert_eq!((forward.len(), digest), (872, 0xd0f8_d8b7_290c_8a42));
    }

    /// In every build profile: an over-cap frame must stop at the
    /// sender, not reach a peer that reads it as a corrupt stream.
    #[test]
    #[should_panic(expected = "exceeds MAX_BODY_LEN")]
    fn an_over_cap_frame_panics_in_the_encoder() {
        let objects = vec![0; MAX_BODY_LEN as usize / 8];
        let _ = WireMsg::PinResults {
            query_id: 1,
            objects,
        }
        .encode();
    }

    #[test]
    fn batches_split_on_the_entry_cap_and_on_the_byte_cap() {
        // The splitter's sizes are the encoder's: header plus groups
        // is the body.
        for msg in exemplars() {
            let WireMsg::RegionDone { groups, .. } = &msg else {
                continue;
            };
            let predicted =
                REGION_DONE_HEADER_LEN + groups.iter().map(region_group_len).sum::<usize>();
            assert_eq!(msg.encode().len() - PREFIX_LEN, predicted, "{msg:?}");
        }
        let chunks = |sizes: &[usize], max_entries, max_bytes| {
            let (mut rest, mut out) = (sizes, Vec::new());
            while !rest.is_empty() {
                let take = batch_prefix(rest.iter().copied(), max_entries, max_bytes);
                out.push(take);
                rest = &rest[take..];
            }
            out
        };
        // Count cap alone, byte cap alone, both at once.
        assert_eq!(chunks(&[9; 7], 3, usize::MAX), [3, 3, 1]);
        assert_eq!(chunks(&[40, 40, 40, 10, 10], 100, 100), [2, 3]);
        assert_eq!(chunks(&[10, 10, 10, 95, 10], 2, 100), [2, 1, 1, 1]);
        // A sum that lands exactly on the cap fits; one entry over it
        // on its own still travels alone (the encoder judges it).
        assert_eq!(chunks(&[50, 50, 1], 100, 100), [2, 1]);
        assert_eq!(chunks(&[10, 500, 10], 100, 100), [1, 1, 1]);
        assert_eq!(batch_prefix([], 100, 100), 0);
    }

    #[test]
    fn every_truncation_point_is_rejected() {
        // Fuzz-style sweep: every strict prefix of every exemplar frame
        // must fail with Truncated — never panic, never mis-parse.
        for msg in exemplars() {
            let frame = msg.encode();
            for cut in 0..frame.len() {
                match WireMsg::decode_exact(&frame[..cut]) {
                    Err(WireError::Truncated { .. }) => {}
                    other => panic!("prefix {cut}/{} of {msg:?}: {other:?}", frame.len()),
                }
            }
        }
    }

    #[test]
    fn trailing_garbage_is_rejected() {
        for msg in exemplars() {
            let mut frame = msg.encode();
            frame.push(0xAB);
            assert_eq!(
                WireMsg::decode_exact(&frame),
                Err(WireError::TrailingGarbage { extra: 1 }),
                "{msg:?}"
            );
        }
    }

    #[test]
    fn garbage_inside_the_declared_body_is_rejected() {
        // A body longer than its fields: Shutdown plus one stray byte,
        // with the prefix updated to cover it.
        let mut frame = WireMsg::Shutdown.encode();
        frame.push(0xCD);
        let body_len = (frame.len() - PREFIX_LEN) as u32;
        frame[..PREFIX_LEN].copy_from_slice(&body_len.to_le_bytes());
        assert_eq!(
            WireMsg::decode_exact(&frame),
            Err(WireError::TrailingGarbage { extra: 1 })
        );
    }

    #[test]
    fn bad_tag_is_rejected() {
        let frame = [1u8, 0, 0, 0, 0xEE];
        assert_eq!(WireMsg::decode_exact(&frame), Err(WireError::BadTag(0xEE)));
    }

    #[test]
    fn oversized_declared_length_is_rejected_before_allocation() {
        let mut frame = Vec::new();
        frame.extend_from_slice(&(MAX_BODY_LEN + 1).to_le_bytes());
        frame.push(10);
        assert_eq!(
            WireMsg::decode_exact(&frame),
            Err(WireError::Oversized {
                len: MAX_BODY_LEN + 1
            })
        );
    }

    #[test]
    fn invalid_utf8_keyword_is_rejected() {
        // Hand-build an Insert whose single keyword is invalid UTF-8.
        let mut body = vec![0];
        body.extend_from_slice(&1u64.to_le_bytes());
        body.extend_from_slice(&1u16.to_le_bytes()); // one keyword
        body.extend_from_slice(&2u16.to_le_bytes()); // two bytes
        body.extend_from_slice(&[0xFF, 0xFE]);
        let mut frame = (body.len() as u32).to_le_bytes().to_vec();
        frame.extend_from_slice(&body);
        assert_eq!(WireMsg::decode_exact(&frame), Err(WireError::BadUtf8));
    }

    fn unhex(text: &str) -> Vec<u8> {
        text.split_whitespace()
            .map(|b| u8::from_str_radix(b, 16).unwrap())
            .collect()
    }

    /// Frames captured from the encoder as it was when a `KeywordSet`
    /// was a `BTreeSet<String>` walked keyword by keyword: the packed
    /// set must put the very same bytes on the wire.
    #[test]
    fn canonical_sets_encode_to_the_golden_frames() {
        let keywords = KeywordSet::from_strs(["mp3", "jazz", "a b", "日本"]).unwrap();
        let set_bytes = "04 00 03 00 61 20 62 04 00 6a 61 7a 7a 03 00 6d 70 33 \
                         06 00 e6 97 a5 e6 9c ac";
        let golden = [
            (
                WireMsg::Pin {
                    query_id: 0x0102_0304_0506_0708,
                    keywords: keywords.clone(),
                },
                format!("23 00 00 00 05 08 07 06 05 04 03 02 01 {set_bytes}"),
            ),
            (
                WireMsg::Insert {
                    object: 0xDEAD_BEEF,
                    keywords: keywords.clone(),
                },
                format!("23 00 00 00 00 ef be ad de 00 00 00 00 {set_bytes}"),
            ),
            (
                WireMsg::QueryAt {
                    query_id: 11,
                    keywords,
                    threshold: 20,
                    marks: vec![65_590, 0, 7],
                },
                format!(
                    "45 00 00 00 10 0b 00 00 00 00 00 00 00 14 00 00 00 00 00 00 00 {set_bytes} \
                     03 00 36 00 01 00 00 00 00 00 00 00 00 00 00 00 00 00 07 00 00 00 00 00 00 00"
                ),
            ),
            (
                WireMsg::Pin {
                    query_id: 1,
                    keywords: KeywordSet::new(),
                },
                "0b 00 00 00 05 01 00 00 00 00 00 00 00 00 00".to_owned(),
            ),
        ];
        for (msg, hex) in golden {
            let frame = unhex(&hex);
            assert_eq!(msg.encode(), frame, "{msg:?}");
            assert_eq!(WireMsg::decode_exact(&frame), Ok(msg));
        }
    }

    /// The fault-tolerant exemplar frames as the encoder wrote them
    /// when `FtQuery` and `FtQueryDone` listed the policy and the
    /// counters field by field: nesting the shared records moved no
    /// byte.
    #[test]
    fn ft_frames_encode_to_the_golden_frames() {
        let golden = [
            "2c 00 00 00 0b 15 00 00 00 00 00 00 00 28 00 00 00 00 00 00 00 02 00 00 \
             00 10 00 00 00 00 00 00 00 02 00 05 00 61 6c 70 68 61 04 00 62 65 74 61",
            "22 00 00 00 0b 16 00 00 00 00 00 00 00 01 00 00 00 00 00 00 00 00 00 00 \
             00 00 00 00 00 00 00 00 00 01 00 01 00 78",
            "79 00 00 00 0c 15 00 00 00 00 00 00 00 08 00 00 00 00 00 00 00 06 00 00 \
             00 00 00 00 00 03 00 00 00 00 00 00 00 01 00 00 00 00 00 00 00 01 00 00 \
             00 00 00 00 00 0b 00 00 00 00 00 00 00 06 00 00 00 00 00 00 00 02 00 00 \
             00 00 00 00 00 02 00 00 00 04 00 00 00 00 00 00 00 01 00 00 00 05 00 00 \
             00 00 00 00 00 00 00 00 00 02 00 00 00 05 00 00 00 00 00 00 00 07 00 00 \
             00 00 00 00 00",
            "51 00 00 00 0c 16 00 00 00 00 00 00 00 01 00 00 00 00 00 00 00 01 00 00 \
             00 00 00 00 00 00 00 00 00 00 00 00 00 00 00 00 00 00 00 00 00 00 00 00 \
             00 00 00 00 00 01 00 00 00 00 00 00 00 00 00 00 00 00 00 00 00 00 00 00 \
             00 00 00 00 00 00 00 00 00 00 00 00 00",
        ];
        let mut ft_frames = exemplars();
        ft_frames.retain(|m| matches!(m, WireMsg::FtQuery { .. } | WireMsg::FtQueryDone { .. }));
        assert_eq!(ft_frames.len(), golden.len());
        for (msg, hex) in ft_frames.into_iter().zip(golden) {
            let frame = unhex(hex);
            assert_eq!(msg.encode(), frame, "{msg:?}");
            assert_eq!(WireMsg::decode_exact(&frame), Ok(msg));
        }
    }

    #[test]
    fn non_canonical_keyword_fields_decode_to_the_normalized_set() {
        let expect = WireMsg::Insert {
            object: 1,
            keywords: set("alpha beta"),
        };
        let spellings: [&[&[u8]]; 6] = [
            &[b"alpha", b"beta"],            // canonical
            &[b"beta", b"alpha"],            // unsorted
            &[b"alpha", b"beta", b"alpha"],  // duplicated
            &[b"ALPHA", b"Beta"],            // upper case
            &[b"  alpha", b"beta\t"],        // padded
            &[b"beta", b" Alpha ", b"BETA"], // all of it
        ];
        for fields in spellings {
            let frame = insert_frame(fields);
            assert_eq!(WireMsg::decode_exact(&frame).as_ref(), Ok(&expect));
        }
        // The re-encoding is the canonical frame whatever came in.
        assert_eq!(expect.encode(), insert_frame(spellings[0]));
        // Normalization can merge keywords that were distinct on the
        // wire, and lowercasing can change a keyword's length.
        let merged = WireMsg::decode_exact(&insert_frame(&["İ".as_bytes(), "i̇".as_bytes()]));
        assert_eq!(
            merged,
            Ok(WireMsg::Insert {
                object: 1,
                keywords: KeywordSet::from_strs(["i̇"]).unwrap(),
            })
        );
    }

    #[test]
    fn malformed_keyword_fields_keep_their_typed_errors() {
        // Empty and whitespace-only keywords, alone or after a
        // canonical one.
        for fields in [&[b"" as &[u8]] as &[&[u8]], &[b"  "], &[b"alpha", b""]] {
            assert_eq!(
                WireMsg::decode_exact(&insert_frame(fields)),
                Err(WireError::BadKeyword)
            );
        }
        // Bad UTF-8 behind a keyword that already forced the
        // normalizing path, and ahead of one that would.
        for fields in [
            &[b"ZED" as &[u8], &[0xFF, 0xFE]] as &[&[u8]],
            &[&[0xC3], b"ZED"],
        ] {
            assert_eq!(
                WireMsg::decode_exact(&insert_frame(fields)),
                Err(WireError::BadUtf8)
            );
        }
        // Errors come in stream order: the empty keyword is met first.
        assert_eq!(
            WireMsg::decode_exact(&insert_frame(&[b"" as &[u8], &[0xFF]])),
            Err(WireError::BadKeyword)
        );
    }

    /// The limits live in the types, so the encoder has nothing to
    /// truncate; the one over-limit input a frame can carry is a
    /// maximal keyword that lowercasing lengthens.
    #[test]
    fn over_limit_keywords_are_rejected_not_truncated() {
        use hyperdex_core::keyword::{MAX_KEYWORDS, MAX_KEYWORD_LEN};

        let longest = "x".repeat(MAX_KEYWORD_LEN);
        let full = WireMsg::Insert {
            object: 1,
            keywords: KeywordSet::from_strs([longest.as_str(), "y"]).unwrap(),
        };
        assert_eq!(WireMsg::decode_exact(&full.encode()), Ok(full));

        let widest = WireMsg::Insert {
            object: 1,
            keywords: KeywordSet::from_strs((0..MAX_KEYWORDS).map(|i| format!("k{i}"))).unwrap(),
        };
        assert_eq!(WireMsg::decode_exact(&widest.encode()), Ok(widest));

        // 'İ' is two bytes, its lowercase three.
        let growing = "İ".repeat(MAX_KEYWORD_LEN / 2);
        assert_eq!(
            WireMsg::decode_exact(&insert_frame(&[growing.as_bytes()])),
            Err(WireError::KeywordTooLong)
        );
    }

    /// A packet's frames come out whole and in order, and a remainder
    /// that does not split comes out once, as the last item; a unit
    /// packet is the same frames behind their routing headers.
    #[test]
    fn packets_split_into_their_frames_then_one_error() {
        let msgs = [WireMsg::Flush { token: 1 }, WireMsg::Shutdown];
        let (mut packet, mut unit_packet) = (Vec::new(), Vec::new());
        for (dest, msg) in (5..).zip(&msgs) {
            msg.encode_append(&mut packet);
            put_unit_header(&mut unit_packet, dest);
            msg.encode_append(&mut unit_packet);
        }
        let whole: Vec<&[u8]> = frames(&packet).expect_whole().collect();
        assert_eq!(
            whole,
            units(&unit_packet).expect_whole().collect::<Vec<_>>()
        );
        let decoded: Vec<WireMsg> = whole
            .iter()
            .map(|frame| WireMsg::decode_exact(frame).unwrap())
            .collect();
        assert_eq!(decoded, msgs);
        let (dest, frame, rest) = split_unit(&unit_packet).unwrap();
        assert_eq!((dest, frame), (5, whole[0]));
        assert_eq!(split_unit(rest).unwrap().0, 6);

        let packet = [&packet[..], &[9, 0]].concat();
        let torn = Err(WireError::Truncated { needed: 2, have: 2 });
        assert_eq!(
            frames(&packet).collect::<Vec<_>>(),
            [Ok(whole[0]), Ok(whole[1]), torn]
        );
    }

    #[test]
    fn stream_decode_handles_concatenated_frames() {
        let a = WireMsg::Flush { token: 1 }.encode();
        let b = WireMsg::Shutdown.encode();
        let mut stream = a.clone();
        stream.extend_from_slice(&b);
        let (m1, used1) = WireMsg::decode(&stream).unwrap();
        assert_eq!(m1, WireMsg::Flush { token: 1 });
        let (m2, used2) = WireMsg::decode(&stream[used1..]).unwrap();
        assert_eq!(m2, WireMsg::Shutdown);
        assert_eq!(used1 + used2, stream.len());
    }
}
