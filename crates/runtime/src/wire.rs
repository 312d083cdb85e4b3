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
//! fixed-width records. `Option<u8>` dimensions encode as a single
//! byte with `0xFF` for `None` (dimensions never exceed 62).
//!
//! [`decode_exact`] is strict: a frame must parse completely — a short
//! buffer is [`WireError::Truncated`], excess bytes (after the frame
//! or inside the declared body) are [`WireError::TrailingGarbage`],
//! and an unknown tag is [`WireError::BadTag`]. The roundtrip tests
//! sweep every variant through every truncation point.

use std::fmt;

use hyperdex_core::{Error, Keyword, KeywordSet, PackedError, RecoveryStrategy};

/// Upper bound on a frame body; larger declared lengths are rejected
/// before any allocation ([`WireError::Oversized`]).
pub const MAX_BODY_LEN: u32 = 16 * 1024 * 1024;

/// The length prefix's width in bytes.
pub const PREFIX_LEN: usize = 4;

/// One protocol frame between runtime endpoints (workers, or the
/// client handle).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireMsg {
    /// Client → vertex owner: index `object` under `keywords`
    /// (`T_INSERT`; the owner recomputes `F_h(K)` itself — the frame
    /// carries no derived state).
    Insert {
        /// The object's raw id.
        object: u64,
        /// Its full keyword set.
        keywords: KeywordSet,
    },
    /// Client → any worker: start a superset search. The receiving
    /// worker becomes the query's coordinator whichever vertices it
    /// owns (clients spread coordinators round-robin); a remote root
    /// region is delegated to its owner like every other region. The
    /// bare form of [`WireMsg::QueryAt`]: a worker treats it as that
    /// variant with no marks.
    Query {
        /// Client-assigned correlation id.
        query_id: u64,
        /// The queried keyword set `K`.
        keywords: KeywordSet,
        /// Results wanted (the paper's `c`).
        threshold: u64,
    },
    /// Coordinator → vertex owner: visit one SBT node (`T_QUERY`).
    TQuery {
        /// Correlation id of the driving query.
        query_id: u64,
        /// The vertex to scan.
        bits: u64,
        /// The queried keyword set.
        keywords: KeywordSet,
        /// Results still wanted.
        remaining: u64,
        /// Arrival dimension (`None` only for a root visit).
        via_dim: Option<u8>,
        /// Worker index of the coordinator (where to send `TCont`).
        coord: u32,
    },
    /// Vertex owner → coordinator: scan results plus SBT children
    /// (`T_CONT`; a threshold-satisfying node simply reports enough
    /// results for the coordinator to stop — no separate `T_STOP`).
    TCont {
        /// Correlation id of the driving query.
        query_id: u64,
        /// The scanned vertex. Sequential coordination has exactly one
        /// visit outstanding, but the fault-tolerant coordinator keeps
        /// many in flight — replies must name their vertex.
        bits: u64,
        /// Matches as `(object id, extra keyword count)` pairs.
        objects: Vec<(u64, u32)>,
        /// SBT child contacts `(vertex bits, dimension)`.
        children: Vec<(u64, u8)>,
    },
    /// Coordinator → vertex owner: visit several SBT nodes of one
    /// query in a single frame (frontier aggregation). All entries
    /// share the query's keywords and the coordinator's result budget
    /// at dispatch time; each entry carries its own vertex and arrival
    /// dimension. A traversal root whose owner is not the coordinator
    /// rides the same frame with dimension `r` — an arrival dimension
    /// of `r` spans every free dimension below it, exactly the root's
    /// frontier — so the dimension is a plain byte. One batch frame
    /// counts as **one** frame in the conservation ledger; per-entry
    /// volume is tracked by the worker's `batch_entries_sent` counter.
    TQueryBatch {
        /// Correlation id of the driving query.
        query_id: u64,
        /// The queried keyword set.
        keywords: KeywordSet,
        /// Results still wanted when the batch was dispatched.
        remaining: u64,
        /// Worker index of the coordinator (where to send the reply).
        coord: u32,
        /// The vertices to scan, as `(bits, via_dim)` pairs in
        /// dispatch order.
        entries: Vec<(u64, u8)>,
    },
    /// Vertex owner → coordinator: the replies to a whole
    /// [`WireMsg::TQueryBatch`], one entry per scanned vertex, in the
    /// batch's order.
    TContBatch {
        /// Correlation id of the driving query.
        query_id: u64,
        /// The sender's write epoch when it scanned: how many objects
        /// its shard had indexed. The coordinator stamps cached
        /// results with it.
        epoch: u64,
        /// Per-vertex replies.
        entries: Vec<BatchReply>,
    },
    /// Coordinator → client: the search finished.
    QueryDone {
        /// Correlation id of the finished query.
        query_id: u64,
        /// All matches, truncated to the threshold.
        objects: Vec<(u64, u32)>,
    },
    /// Client → vertex owner: exact-match pin lookup.
    Pin {
        /// Client-assigned correlation id.
        query_id: u64,
        /// The full keyword set to pin.
        keywords: KeywordSet,
    },
    /// Vertex owner → client: the pin matches (sent even when empty,
    /// so the client observes completion).
    PinResults {
        /// Correlation id of the pin.
        query_id: u64,
        /// Exact-match object ids.
        objects: Vec<u64>,
    },
    /// Client → vertex owner: install a whole vertex table at once
    /// (bulk load / rebalancing, the runtime's handoff).
    Handoff {
        /// The vertex receiving the entries.
        bits: u64,
        /// `⟨K', objects⟩` entries to install.
        entries: Vec<(KeywordSet, Vec<u64>)>,
    },
    /// Client → worker: drain barrier. The worker replies `FlushAck`
    /// after processing everything queued before this frame.
    Flush {
        /// Barrier token echoed in the ack.
        token: u64,
    },
    /// Worker → client: barrier reached.
    FlushAck {
        /// The echoed barrier token.
        token: u64,
        /// The acknowledging worker's index.
        worker: u32,
        /// The worker's write epoch at the barrier: how many objects
        /// its shard has indexed. A client sends the highest epoch it
        /// was shown back on its next [`WireMsg::QueryAt`].
        epoch: u64,
    },
    /// Client → worker: flush outboxes and exit the event loop.
    Shutdown,
    /// Client → root owner: start a *fault-tolerant* superset search
    /// (§3.4). The receiving worker coordinates the traversal with
    /// deadlines, retries, and the named recovery strategy.
    FtQuery {
        /// Client-assigned correlation id.
        query_id: u64,
        /// The queried keyword set `K`.
        keywords: KeywordSet,
        /// Results wanted (the paper's `c`).
        threshold: u64,
        /// Recovery behaviour on a missed deadline.
        strategy: RecoveryStrategy,
        /// Retransmissions per child before declaring it dead.
        max_retries: u32,
        /// First-attempt deadline in milliseconds; doubles per retry.
        base_timeout_ms: u64,
    },
    /// Coordinator → client: the fault-tolerant search finished, with
    /// its exact coverage accounting.
    FtQueryDone {
        /// Correlation id of the finished query.
        query_id: u64,
        /// All matches, truncated to the threshold.
        objects: Vec<(u64, u32)>,
        /// Vertices in the query's induced subcube.
        subcube: u64,
        /// Distinct vertices that answered.
        reached: u64,
        /// Retransmissions after a missed deadline.
        retries: u64,
        /// Children declared dead after the retry budget ran out.
        timeouts: u64,
        /// Dead children whose subtrees were re-delegated.
        redelegations: u64,
        /// `T_QUERY` transmissions, including retransmissions.
        queries_sent: u64,
        /// Continuation messages the coordinator received.
        conts: u64,
        /// Continuations that carried at least one fresh result.
        result_messages: u64,
        /// Bits of the vertices given up on, sorted ascending.
        skipped: Vec<u64>,
    },
    /// Supervisor → respawned worker: the journal replay for its shard
    /// is complete; parked frames may now be processed.
    RepairDone {
        /// The recovering worker's index.
        worker: u32,
    },
    /// Client → any worker: a [`WireMsg::Query`] that also says which
    /// writes the client already knows are in place, so a coordinator
    /// never answers it from a cached result that predates them.
    QueryAt {
        /// Client-assigned correlation id.
        query_id: u64,
        /// The queried keyword set `K`.
        keywords: KeywordSet,
        /// Results wanted (the paper's `c`).
        threshold: u64,
        /// Per worker, the highest write epoch a `FlushAck` showed
        /// this client (0 before any). Empty means no marks.
        marks: Vec<u64>,
    },
}

/// One scanned vertex's reply inside a [`WireMsg::TContBatch`]:
/// `(bits, objects, children)` — the same payload a standalone
/// [`WireMsg::TCont`] carries for that vertex.
pub type BatchReply = (u64, Vec<(u64, u32)>, Vec<(u64, u8)>);

const TAG_INSERT: u8 = 0;
const TAG_QUERY: u8 = 1;
const TAG_TQUERY: u8 = 2;
const TAG_TCONT: u8 = 3;
const TAG_QUERY_DONE: u8 = 4;
const TAG_PIN: u8 = 5;
const TAG_PIN_RESULTS: u8 = 6;
const TAG_HANDOFF: u8 = 7;
const TAG_FLUSH: u8 = 8;
const TAG_FLUSH_ACK: u8 = 9;
const TAG_SHUTDOWN: u8 = 10;
const TAG_FT_QUERY: u8 = 11;
const TAG_FT_QUERY_DONE: u8 = 12;
const TAG_REPAIR_DONE: u8 = 13;
const TAG_TQUERY_BATCH: u8 = 14;
const TAG_TCONT_BATCH: u8 = 15;
const TAG_QUERY_AT: u8 = 16;

/// The `via_dim` byte that stands for `None`.
const DIM_NONE: u8 = 0xFF;

/// Decode failure. Every variant pinpoints what the bytes got wrong;
/// none of them allocates proportionally to attacker-controlled
/// lengths.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireError {
    /// The buffer ends before the frame does.
    Truncated {
        /// Bytes the decoder needed next.
        needed: usize,
        /// Bytes it had left.
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
    /// An `FtQuery`'s strategy byte names no [`RecoveryStrategy`].
    BadStrategy(u8),
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
            WireError::BadStrategy(b) => write!(f, "unknown recovery strategy byte {b:#04x}"),
        }
    }
}

impl std::error::Error for WireError {}

impl WireMsg {
    /// Serializes the message into a complete frame (length prefix
    /// included).
    pub fn encode(&self) -> Vec<u8> {
        let mut frame = Vec::with_capacity(64);
        self.encode_into(&mut frame);
        frame
    }

    /// Serializes the message into `frame` (cleared first), producing
    /// the same bytes as [`WireMsg::encode`]. Hot send paths reuse one
    /// scratch buffer across frames instead of allocating per frame.
    pub fn encode_into(&self, frame: &mut Vec<u8>) {
        frame.clear();
        frame.resize(PREFIX_LEN, 0);
        let body = frame;
        match self {
            WireMsg::Insert { object, keywords } => {
                body.push(TAG_INSERT);
                put_u64(body, *object);
                put_keywords(body, keywords);
            }
            WireMsg::Query {
                query_id,
                keywords,
                threshold,
            } => {
                body.push(TAG_QUERY);
                put_u64(body, *query_id);
                put_u64(body, *threshold);
                put_keywords(body, keywords);
            }
            WireMsg::TQuery {
                query_id,
                bits,
                keywords,
                remaining,
                via_dim,
                coord,
            } => {
                body.push(TAG_TQUERY);
                put_u64(body, *query_id);
                put_u64(body, *bits);
                put_u64(body, *remaining);
                body.push(via_dim.unwrap_or(DIM_NONE));
                put_u32(body, *coord);
                put_keywords(body, keywords);
            }
            WireMsg::TCont {
                query_id,
                bits,
                objects,
                children,
            } => {
                body.push(TAG_TCONT);
                put_u64(body, *query_id);
                put_u64(body, *bits);
                put_u32(body, objects.len() as u32);
                for (id, extra) in objects {
                    put_u64(body, *id);
                    put_u32(body, *extra);
                }
                put_u16(body, children.len() as u16);
                for (bits, dim) in children {
                    put_u64(body, *bits);
                    body.push(*dim);
                }
            }
            WireMsg::TQueryBatch {
                query_id,
                keywords,
                remaining,
                coord,
                entries,
            } => {
                body.push(TAG_TQUERY_BATCH);
                put_u64(body, *query_id);
                put_u64(body, *remaining);
                put_u32(body, *coord);
                put_keywords(body, keywords);
                put_u16(body, entries.len() as u16);
                for (bits, dim) in entries {
                    put_u64(body, *bits);
                    body.push(*dim);
                }
            }
            WireMsg::TContBatch {
                query_id,
                epoch,
                entries,
            } => {
                body.push(TAG_TCONT_BATCH);
                put_u64(body, *query_id);
                put_u64(body, *epoch);
                put_u16(body, entries.len() as u16);
                for (bits, objects, children) in entries {
                    put_u64(body, *bits);
                    put_u32(body, objects.len() as u32);
                    for (id, extra) in objects {
                        put_u64(body, *id);
                        put_u32(body, *extra);
                    }
                    put_u16(body, children.len() as u16);
                    for (bits, dim) in children {
                        put_u64(body, *bits);
                        body.push(*dim);
                    }
                }
            }
            WireMsg::QueryDone { query_id, objects } => {
                body.push(TAG_QUERY_DONE);
                put_u64(body, *query_id);
                put_u32(body, objects.len() as u32);
                for (id, extra) in objects {
                    put_u64(body, *id);
                    put_u32(body, *extra);
                }
            }
            WireMsg::Pin { query_id, keywords } => {
                body.push(TAG_PIN);
                put_u64(body, *query_id);
                put_keywords(body, keywords);
            }
            WireMsg::PinResults { query_id, objects } => {
                body.push(TAG_PIN_RESULTS);
                put_u64(body, *query_id);
                put_u32(body, objects.len() as u32);
                for id in objects {
                    put_u64(body, *id);
                }
            }
            WireMsg::Handoff { bits, entries } => {
                body.push(TAG_HANDOFF);
                put_u64(body, *bits);
                put_u32(body, entries.len() as u32);
                for (set, objects) in entries {
                    put_keywords(body, set);
                    put_u32(body, objects.len() as u32);
                    for id in objects {
                        put_u64(body, *id);
                    }
                }
            }
            WireMsg::Flush { token } => {
                body.push(TAG_FLUSH);
                put_u64(body, *token);
            }
            WireMsg::FlushAck {
                token,
                worker,
                epoch,
            } => {
                body.push(TAG_FLUSH_ACK);
                put_u64(body, *token);
                put_u32(body, *worker);
                put_u64(body, *epoch);
            }
            WireMsg::Shutdown => body.push(TAG_SHUTDOWN),
            WireMsg::FtQuery {
                query_id,
                keywords,
                threshold,
                strategy,
                max_retries,
                base_timeout_ms,
            } => {
                body.push(TAG_FT_QUERY);
                put_u64(body, *query_id);
                put_u64(body, *threshold);
                body.push(strategy_byte(*strategy));
                put_u32(body, *max_retries);
                put_u64(body, *base_timeout_ms);
                put_keywords(body, keywords);
            }
            WireMsg::FtQueryDone {
                query_id,
                objects,
                subcube,
                reached,
                retries,
                timeouts,
                redelegations,
                queries_sent,
                conts,
                result_messages,
                skipped,
            } => {
                body.push(TAG_FT_QUERY_DONE);
                put_u64(body, *query_id);
                put_u64(body, *subcube);
                put_u64(body, *reached);
                put_u64(body, *retries);
                put_u64(body, *timeouts);
                put_u64(body, *redelegations);
                put_u64(body, *queries_sent);
                put_u64(body, *conts);
                put_u64(body, *result_messages);
                put_u32(body, objects.len() as u32);
                for (id, extra) in objects {
                    put_u64(body, *id);
                    put_u32(body, *extra);
                }
                put_u32(body, skipped.len() as u32);
                for bits in skipped {
                    put_u64(body, *bits);
                }
            }
            WireMsg::RepairDone { worker } => {
                body.push(TAG_REPAIR_DONE);
                put_u32(body, *worker);
            }
            WireMsg::QueryAt {
                query_id,
                keywords,
                threshold,
                marks,
            } => {
                body.push(TAG_QUERY_AT);
                put_u64(body, *query_id);
                put_u64(body, *threshold);
                put_keywords(body, keywords);
                put_u16(body, marks.len() as u16);
                for mark in marks {
                    put_u64(body, *mark);
                }
            }
        }
        let body_len = (body.len() - PREFIX_LEN) as u32;
        debug_assert!(body_len <= MAX_BODY_LEN);
        body[..PREFIX_LEN].copy_from_slice(&body_len.to_le_bytes());
    }

    /// Parses one frame from the front of `buf`, returning the message
    /// and how many bytes it consumed (stream decoding: the caller may
    /// hold several concatenated frames).
    pub fn decode(buf: &[u8]) -> Result<(WireMsg, usize), WireError> {
        if buf.len() < PREFIX_LEN {
            return Err(WireError::Truncated {
                needed: PREFIX_LEN - buf.len(),
                have: buf.len(),
            });
        }
        let body_len = u32::from_le_bytes(buf[..PREFIX_LEN].try_into().expect("4 bytes"));
        if body_len > MAX_BODY_LEN {
            return Err(WireError::Oversized { len: body_len });
        }
        let body_len = body_len as usize;
        let rest = &buf[PREFIX_LEN..];
        if rest.len() < body_len {
            return Err(WireError::Truncated {
                needed: body_len - rest.len(),
                have: rest.len(),
            });
        }
        let mut r = Reader {
            buf: &rest[..body_len],
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
        Ok((msg, PREFIX_LEN + body_len))
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

fn decode_body(r: &mut Reader<'_>) -> Result<WireMsg, WireError> {
    let tag = r.u8()?;
    match tag {
        TAG_INSERT => Ok(WireMsg::Insert {
            object: r.u64()?,
            keywords: get_keywords(r)?,
        }),
        TAG_QUERY => Ok(WireMsg::Query {
            query_id: r.u64()?,
            threshold: r.u64()?,
            keywords: get_keywords(r)?,
        }),
        TAG_TQUERY => Ok(WireMsg::TQuery {
            query_id: r.u64()?,
            bits: r.u64()?,
            remaining: r.u64()?,
            via_dim: match r.u8()? {
                DIM_NONE => None,
                d => Some(d),
            },
            coord: r.u32()?,
            keywords: get_keywords(r)?,
        }),
        TAG_TCONT => {
            let query_id = r.u64()?;
            let bits = r.u64()?;
            let n = r.u32()? as usize;
            let mut objects = Vec::with_capacity(n.min(1024));
            for _ in 0..n {
                objects.push((r.u64()?, r.u32()?));
            }
            let n = r.u16()? as usize;
            let mut children = Vec::with_capacity(n);
            for _ in 0..n {
                children.push((r.u64()?, r.u8()?));
            }
            Ok(WireMsg::TCont {
                query_id,
                bits,
                objects,
                children,
            })
        }
        TAG_QUERY_DONE => {
            let query_id = r.u64()?;
            let n = r.u32()? as usize;
            let mut objects = Vec::with_capacity(n.min(1024));
            for _ in 0..n {
                objects.push((r.u64()?, r.u32()?));
            }
            Ok(WireMsg::QueryDone { query_id, objects })
        }
        TAG_PIN => Ok(WireMsg::Pin {
            query_id: r.u64()?,
            keywords: get_keywords(r)?,
        }),
        TAG_PIN_RESULTS => {
            let query_id = r.u64()?;
            let n = r.u32()? as usize;
            let mut objects = Vec::with_capacity(n.min(1024));
            for _ in 0..n {
                objects.push(r.u64()?);
            }
            Ok(WireMsg::PinResults { query_id, objects })
        }
        TAG_HANDOFF => {
            let bits = r.u64()?;
            let n = r.u32()? as usize;
            let mut entries = Vec::with_capacity(n.min(1024));
            for _ in 0..n {
                let set = get_keywords(r)?;
                let m = r.u32()? as usize;
                let mut objects = Vec::with_capacity(m.min(1024));
                for _ in 0..m {
                    objects.push(r.u64()?);
                }
                entries.push((set, objects));
            }
            Ok(WireMsg::Handoff { bits, entries })
        }
        TAG_FLUSH => Ok(WireMsg::Flush { token: r.u64()? }),
        TAG_FLUSH_ACK => Ok(WireMsg::FlushAck {
            token: r.u64()?,
            worker: r.u32()?,
            epoch: r.u64()?,
        }),
        TAG_SHUTDOWN => Ok(WireMsg::Shutdown),
        TAG_FT_QUERY => Ok(WireMsg::FtQuery {
            query_id: r.u64()?,
            threshold: r.u64()?,
            strategy: strategy_from_byte(r.u8()?)?,
            max_retries: r.u32()?,
            base_timeout_ms: r.u64()?,
            keywords: get_keywords(r)?,
        }),
        TAG_FT_QUERY_DONE => {
            let query_id = r.u64()?;
            let subcube = r.u64()?;
            let reached = r.u64()?;
            let retries = r.u64()?;
            let timeouts = r.u64()?;
            let redelegations = r.u64()?;
            let queries_sent = r.u64()?;
            let conts = r.u64()?;
            let result_messages = r.u64()?;
            let n = r.u32()? as usize;
            let mut objects = Vec::with_capacity(n.min(1024));
            for _ in 0..n {
                objects.push((r.u64()?, r.u32()?));
            }
            let n = r.u32()? as usize;
            let mut skipped = Vec::with_capacity(n.min(1024));
            for _ in 0..n {
                skipped.push(r.u64()?);
            }
            Ok(WireMsg::FtQueryDone {
                query_id,
                objects,
                subcube,
                reached,
                retries,
                timeouts,
                redelegations,
                queries_sent,
                conts,
                result_messages,
                skipped,
            })
        }
        TAG_REPAIR_DONE => Ok(WireMsg::RepairDone { worker: r.u32()? }),
        TAG_TQUERY_BATCH => {
            let query_id = r.u64()?;
            let remaining = r.u64()?;
            let coord = r.u32()?;
            let keywords = get_keywords(r)?;
            let n = r.u16()? as usize;
            let mut entries = Vec::with_capacity(n);
            for _ in 0..n {
                entries.push((r.u64()?, r.u8()?));
            }
            Ok(WireMsg::TQueryBatch {
                query_id,
                keywords,
                remaining,
                coord,
                entries,
            })
        }
        TAG_TCONT_BATCH => {
            let query_id = r.u64()?;
            let epoch = r.u64()?;
            let n = r.u16()? as usize;
            let mut entries = Vec::with_capacity(n);
            for _ in 0..n {
                let bits = r.u64()?;
                let m = r.u32()? as usize;
                let mut objects = Vec::with_capacity(m.min(1024));
                for _ in 0..m {
                    objects.push((r.u64()?, r.u32()?));
                }
                let c = r.u16()? as usize;
                let mut children = Vec::with_capacity(c);
                for _ in 0..c {
                    children.push((r.u64()?, r.u8()?));
                }
                entries.push((bits, objects, children));
            }
            Ok(WireMsg::TContBatch {
                query_id,
                epoch,
                entries,
            })
        }
        TAG_QUERY_AT => {
            let query_id = r.u64()?;
            let threshold = r.u64()?;
            let keywords = get_keywords(r)?;
            let n = r.u16()? as usize;
            let mut marks = Vec::with_capacity(n);
            for _ in 0..n {
                marks.push(r.u64()?);
            }
            Ok(WireMsg::QueryAt {
                query_id,
                keywords,
                threshold,
                marks,
            })
        }
        other => Err(WireError::BadTag(other)),
    }
}

fn strategy_byte(s: RecoveryStrategy) -> u8 {
    match s {
        RecoveryStrategy::Naive => 0,
        RecoveryStrategy::RetryOnly => 1,
        RecoveryStrategy::Redelegate => 2,
        RecoveryStrategy::ReplicatedFailover => 3,
    }
}

fn strategy_from_byte(b: u8) -> Result<RecoveryStrategy, WireError> {
    match b {
        0 => Ok(RecoveryStrategy::Naive),
        1 => Ok(RecoveryStrategy::RetryOnly),
        2 => Ok(RecoveryStrategy::Redelegate),
        3 => Ok(RecoveryStrategy::ReplicatedFailover),
        other => Err(WireError::BadStrategy(other)),
    }
}

fn put_u16(out: &mut Vec<u8>, v: u16) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_keywords(out: &mut Vec<u8>, set: &KeywordSet) {
    out.extend_from_slice(set.as_packed());
}

fn get_keywords(r: &mut Reader<'_>) -> Result<KeywordSet, WireError> {
    match KeywordSet::decode_packed(&r.buf[r.pos..]) {
        Ok((set, used)) => {
            r.pos += used;
            Ok(set)
        }
        Err(PackedError::Truncated { needed, have }) => Err(WireError::Truncated { needed, have }),
        Err(PackedError::BadUtf8) => Err(WireError::BadUtf8),
        Err(PackedError::NotCanonical) => get_keywords_normalizing(r),
    }
}

/// Reads a keyword set some other encoder wrote unsorted, duplicated or
/// unnormalized: every keyword goes through [`Keyword::new`].
fn get_keywords_normalizing(r: &mut Reader<'_>) -> Result<KeywordSet, WireError> {
    let n = r.u16()? as usize;
    let mut keywords = Vec::with_capacity(n.min(r.buf.len() - r.pos));
    for _ in 0..n {
        let len = r.u16()? as usize;
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

    fn u8(&mut self) -> Result<u8, WireError> {
        Ok(self.bytes(1)?[0])
    }

    fn u16(&mut self) -> Result<u16, WireError> {
        Ok(u16::from_le_bytes(self.bytes(2)?.try_into().expect("2")))
    }

    fn u32(&mut self) -> Result<u32, WireError> {
        Ok(u32::from_le_bytes(self.bytes(4)?.try_into().expect("4")))
    }

    fn u64(&mut self) -> Result<u64, WireError> {
        Ok(u64::from_le_bytes(self.bytes(8)?.try_into().expect("8")))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn set(s: &str) -> KeywordSet {
        KeywordSet::parse(s).unwrap()
    }

    /// One exemplar per variant, with non-trivial field values so every
    /// encoder branch is exercised.
    fn exemplars() -> Vec<WireMsg> {
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
            WireMsg::TQuery {
                query_id: 8,
                bits: 0b1010_1100,
                keywords: set("alpha beta"),
                remaining: 41,
                via_dim: Some(5),
                coord: 3,
            },
            WireMsg::TQuery {
                query_id: 9,
                bits: 0,
                keywords: set("x"),
                remaining: 1,
                via_dim: None,
                coord: 0,
            },
            WireMsg::TCont {
                query_id: 8,
                bits: 0b1010_1100,
                objects: vec![(1, 0), (99, 2)],
                children: vec![(0b1110_1100, 4), (0b1010_1101, 0)],
            },
            WireMsg::TCont {
                query_id: 10,
                bits: 0,
                objects: vec![],
                children: vec![],
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
            WireMsg::Handoff {
                bits: 0b11,
                entries: vec![
                    (set("a b"), vec![1, 2]),
                    (set("a b c"), vec![3]),
                    (set("z"), vec![]),
                ],
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
                strategy: RecoveryStrategy::Redelegate,
                max_retries: 2,
                base_timeout_ms: 16,
            },
            WireMsg::FtQuery {
                query_id: 22,
                keywords: set("x"),
                threshold: 1,
                strategy: RecoveryStrategy::Naive,
                max_retries: 0,
                base_timeout_ms: 0,
            },
            WireMsg::FtQueryDone {
                query_id: 21,
                objects: vec![(4, 1), (5, 0)],
                subcube: 8,
                reached: 6,
                retries: 3,
                timeouts: 1,
                redelegations: 1,
                queries_sent: 11,
                conts: 6,
                result_messages: 2,
                skipped: vec![0b0101, 0b0111],
            },
            WireMsg::FtQueryDone {
                query_id: 22,
                objects: vec![],
                subcube: 1,
                reached: 1,
                retries: 0,
                timeouts: 0,
                redelegations: 0,
                queries_sent: 1,
                conts: 0,
                result_messages: 0,
                skipped: vec![],
            },
            WireMsg::RepairDone { worker: 3 },
            WireMsg::TQueryBatch {
                query_id: 30,
                keywords: set("alpha beta"),
                remaining: 17,
                coord: 2,
                entries: vec![(0b1010_1100, 5), (0b1010_1101, 0), (0b1110_1100, 4)],
            },
            WireMsg::TQueryBatch {
                query_id: 31,
                keywords: set("x"),
                remaining: 1,
                coord: 0,
                entries: vec![],
            },
            WireMsg::TContBatch {
                query_id: 30,
                epoch: 65_590,
                entries: vec![
                    (0b1010_1100, vec![(1, 0), (99, 2)], vec![(0b1011_1100, 4)]),
                    (0b1010_1101, vec![], vec![]),
                ],
            },
            WireMsg::TContBatch {
                query_id: 31,
                epoch: 0,
                entries: vec![],
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
        ]
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

    #[test]
    fn encode_into_reuses_the_buffer_and_matches_encode() {
        // One scratch buffer across every exemplar, in both growing
        // and shrinking order: the bytes must equal a fresh encode.
        let mut scratch = Vec::new();
        for msg in exemplars().iter().chain(exemplars().iter().rev()) {
            msg.encode_into(&mut scratch);
            assert_eq!(scratch, msg.encode(), "{msg:?}");
        }
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
        frame.push(TAG_SHUTDOWN);
        assert_eq!(
            WireMsg::decode_exact(&frame),
            Err(WireError::Oversized {
                len: MAX_BODY_LEN + 1
            })
        );
    }

    #[test]
    fn bad_strategy_byte_is_rejected() {
        let mut frame = WireMsg::FtQuery {
            query_id: 1,
            keywords: set("a"),
            threshold: 1,
            strategy: RecoveryStrategy::RetryOnly,
            max_retries: 1,
            base_timeout_ms: 1,
        }
        .encode();
        // The strategy byte sits right after the tag and two u64s.
        let strategy_at = PREFIX_LEN + 1 + 8 + 8;
        frame[strategy_at] = 0x7F;
        assert_eq!(
            WireMsg::decode_exact(&frame),
            Err(WireError::BadStrategy(0x7F))
        );
    }

    #[test]
    fn invalid_utf8_keyword_is_rejected() {
        // Hand-build an Insert whose single keyword is invalid UTF-8.
        let mut body = vec![TAG_INSERT];
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

    /// An `Insert` frame around hand-written keyword fields.
    fn insert_frame(keywords: &[&[u8]]) -> Vec<u8> {
        let mut body = vec![TAG_INSERT];
        body.extend_from_slice(&1u64.to_le_bytes());
        body.extend_from_slice(&(keywords.len() as u16).to_le_bytes());
        for k in keywords {
            body.extend_from_slice(&(k.len() as u16).to_le_bytes());
            body.extend_from_slice(k);
        }
        let mut frame = (body.len() as u32).to_le_bytes().to_vec();
        frame.extend_from_slice(&body);
        frame
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
            WireMsg::decode_exact(&insert_frame(&[b"", &[0xFF]])),
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
