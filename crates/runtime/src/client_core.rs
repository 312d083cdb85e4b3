//! The client half of the request protocol, written once.
//!
//! Whatever carries its frames, a client allocates a query id, routes
//! the request to `F_h(K)`'s owner (insert, pin and superset search
//! alike: one rule), ships the frame, matches the completion
//! by id, and re-issues a fault-tolerant search under a fresh id when
//! an attempt's deadline passes. That is [`ClientCore`]. How a frame
//! reaches a worker and a reply comes back — and what time it is — is
//! the five-method [`ClientLink`]: the in-process channel link behind
//! [`crate::NodeRuntime`], `hyperdex-net`'s reconnecting TCP link
//! behind `NetClient`, a scripted fake in `tests/client_core.rs` and
//! the virtual-time [`crate::mesh::Mesh`].
//! An insert waits for no reply, so it is only queued: the link ships
//! it with whatever follows it, or once its queued bytes reach the
//! worker lanes' watermark — one write per burst, not per insert.
//! The core keeps no clock of its own: every deadline and latency is a
//! `Duration` on the link's ([`ClientLink::now`]), so under a link
//! whose time is virtual the production client runs in virtual time.
//!
//! The core also keeps, per worker, the highest write epoch a
//! `FlushAck` has shown it, and sends those marks on every superset
//! request: a coordinator then never answers from a cached result that
//! predates a write this client flushed (DESIGN.md § "Serving-path
//! result cache"). The marks ride the request frame; no frame is added.
//!
//! Every client-bound frame is received in one place,
//! `ClientCore::recv`, whichever operation is waiting: a `FlushAck`
//! always folds its epoch into the marks; a reply under an id nobody
//! awaits — the completion of a request that timed out, of an FT
//! attempt the client gave up on, the ack of an abandoned barrier — is
//! dropped, so a request
//! issued after an [`Error::Timeout`] is safe; and a frame kind no
//! client is ever sent is [`Error::UnexpectedFrame`], not a panic.

use std::collections::HashMap;
use std::time::Duration;

use hyperdex_core::{Error, FtCoverage, KeywordHasher, KeywordSet, ObjectId};

use crate::shard::ShardMap;
use crate::transport::LANE_WATERMARK;
use crate::wire::WireMsg;

/// How a client's frames reach the workers and replies come back.
pub trait ClientLink {
    /// Queues `msg` for `worker`; nothing moves until
    /// [`ClientLink::ship`], so a burst can travel as one operation.
    fn queue(&mut self, worker: u32, msg: &WireMsg);

    /// Bytes queued and not yet shipped, over every worker: what the
    /// core holds against [`LANE_WATERMARK`] before it ships inserts.
    fn queued_bytes(&self) -> usize;

    /// Hands every queued frame to the fabric, per worker in queue
    /// order.
    ///
    /// # Errors
    ///
    /// [`Error::ConnectionLost`] when a destination stays unreachable.
    fn ship(&mut self) -> Result<(), Error>;

    /// The time on this link's clock: what deadlines handed to
    /// [`ClientLink::recv`] are measured on. Wall time since the link
    /// was made, for a link over real channels or sockets.
    fn now(&self) -> Duration;

    /// The next client-bound frame, or `None` once [`ClientLink::now`]
    /// reaches `deadline` (no deadline: wait until one arrives).
    /// `awaiting` names the
    /// worker whose reply the caller needs: a link that can lose its
    /// path to that worker fails the wait at once.
    ///
    /// # Errors
    ///
    /// [`Error::ConnectionLost`] when the path to `awaiting` died.
    fn recv(
        &mut self,
        deadline: Option<Duration>,
        awaiting: Option<u32>,
    ) -> Result<Option<WireMsg>, Error>;
}

/// One match from a runtime superset search.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RuntimeMatch {
    /// The matching object.
    pub object: ObjectId,
    /// `|K'| − |K|`: how many keywords beyond the query it carries.
    pub extra_keywords: u32,
}

/// One request of a pipelined [`ClientCore::run_batch`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Request {
    /// Exact-match pin lookup.
    Pin(KeywordSet),
    /// Superset search wanting up to `threshold` results.
    Superset {
        /// The queried keyword set.
        keywords: KeywordSet,
        /// Results wanted.
        threshold: usize,
    },
}

/// One completed batch request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BatchResult {
    /// Matching object ids (set semantics; order is arrival order).
    pub objects: Vec<ObjectId>,
    /// Send-to-completion time for this request, on the link's clock.
    pub latency: Duration,
}

/// How many times a fault-tolerant search is issued before the client
/// returns a degraded result.
const FT_ATTEMPTS: u32 = 5;

/// How long the client waits for one fault-tolerant attempt's answer
/// before it re-issues the search: if the coordinator itself died, the
/// next attempt finds it restarted. It outlasts the coordinator's own
/// budget (6,350 ms until a silent owner is given up) by more than a
/// round trip, so an answer that reports skipped regions reaches the
/// client rather than arriving after it stopped listening.
pub(crate) const FT_ATTEMPT_TIMEOUT: Duration = Duration::from_millis(10_000);

/// Outcome of a fault-tolerant runtime search.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FtSearchOutcome {
    /// The matches collected (complete or partial).
    pub matches: Vec<RuntimeMatch>,
    /// `true` when every subcube vertex was either scanned or the
    /// threshold was met — the result set is exactly what a fault-free
    /// run returns.
    pub complete: bool,
    /// Client attempts consumed (1 = first try succeeded).
    pub attempts: u32,
    /// The coordinator's exact coverage accounting, as its frame
    /// carried it; `None` when no coordinator ever answered (every
    /// attempt timed out).
    pub coverage: Option<FtCoverage>,
}

/// The client request protocol over any [`ClientLink`]. Synchronous
/// from the caller's point of view; concurrency lives in the workers
/// (the windowed paths keep several requests in flight to exploit it).
#[derive(Debug)]
pub struct ClientCore<L> {
    hasher: KeywordHasher,
    shards: ShardMap,
    link: L,
    /// Deadline for one reply (per reply for multi-reply waits like the
    /// flush barrier); `None` waits for as long as it takes.
    request_timeout: Option<Duration>,
    next_id: u64,
    /// Per worker: the highest write epoch a `FlushAck` carried.
    marks: Vec<u64>,
}

/// What a reply carries besides its id: matches (a pin's are exact, so
/// zero extra keywords; a `FlushAck` has none) and, from an FT
/// coordinator, its coverage.
struct Reply {
    matches: Vec<(u64, u32)>,
    coverage: Option<FtCoverage>,
}

impl<L: ClientLink> ClientCore<L> {
    /// A client routing with `hasher` and `shards` — which must be the
    /// workers' own — over `link`.
    pub fn new(
        hasher: KeywordHasher,
        shards: ShardMap,
        link: L,
        request_timeout: Option<Duration>,
    ) -> ClientCore<L> {
        ClientCore {
            hasher,
            shards,
            link,
            request_timeout,
            next_id: 0,
            marks: vec![0; shards.workers() as usize],
        }
    }

    /// The vertex → worker map the cluster shares.
    pub fn shards(&self) -> ShardMap {
        self.shards
    }

    /// The link, to read its clock or its counters.
    pub fn link(&self) -> &L {
        &self.link
    }

    /// Surrenders the link at shutdown.
    pub fn into_link(self) -> L {
        self.link
    }

    /// Sends one frame to `worker` right away, behind whatever is
    /// queued.
    ///
    /// # Errors
    ///
    /// Whatever [`ClientLink::ship`] reports.
    pub fn send(&mut self, worker: u32, msg: &WireMsg) -> Result<(), Error> {
        self.link.queue(worker, msg);
        self.link.ship()
    }

    /// Routes one `T_INSERT` to the shard owning `F_h(K)`. Fire and
    /// forget: the frame is queued, and the link ships it once its
    /// queued bytes reach [`LANE_WATERMARK`], or with the next
    /// operation that ships — any search, [`ClientCore::flush`],
    /// [`ClientCore::bulk_load`] — ahead of that operation's own frames
    /// and in per-worker queue order. Only the barrier says a write
    /// has landed, as before.
    ///
    /// # Errors
    ///
    /// [`Error::EmptyKeywordSet`] when `keywords` is empty, otherwise
    /// the link's errors — for whichever queued frames this call
    /// shipped. An insert that did not ship here reports its link's
    /// failure from the call that ships it.
    pub fn insert(&mut self, object: ObjectId, keywords: KeywordSet) -> Result<(), Error> {
        if keywords.is_empty() {
            return Err(Error::EmptyKeywordSet);
        }
        let owner = self.owner_of(&keywords);
        self.link.queue(
            owner,
            &WireMsg::Insert {
                object: object.raw(),
                keywords,
            },
        );
        self.ship_at_watermark()
    }

    /// Bulk load: one [`ClientCore::insert`] per entry, in input order —
    /// the link ships each time its queued bytes reach
    /// [`LANE_WATERMARK`] — and one ship at the end. A worker handles
    /// its frames in the order they were queued, so every vertex store
    /// receives its entries in input order.
    ///
    /// # Errors
    ///
    /// [`Error::EmptyKeywordSet`] if any entry's set is empty (before
    /// anything is queued), otherwise the link's errors.
    pub fn bulk_load<'a, I>(&mut self, entries: I) -> Result<(), Error>
    where
        I: IntoIterator<Item = (ObjectId, &'a KeywordSet)>,
    {
        let entries: Vec<_> = entries.into_iter().collect();
        if entries.iter().any(|(_, keywords)| keywords.is_empty()) {
            return Err(Error::EmptyKeywordSet);
        }
        for (object, keywords) in entries {
            self.insert(object, keywords.clone())?;
        }
        self.link.ship()
    }

    /// Drain barrier: returns once every worker has processed every
    /// frame this client sent before the call.
    ///
    /// # Errors
    ///
    /// [`Error::Timeout`] when an ack misses the per-reply deadline,
    /// otherwise the link's errors.
    pub fn flush(&mut self) -> Result<(), Error> {
        let token = self.fresh_id();
        let workers = self.shards.workers();
        for w in 0..workers {
            self.link.queue(w, &WireMsg::Flush { token });
        }
        self.link.ship()?;
        for _ in 0..workers {
            self.recv_reply("flush ack", None, |id| (id == token).then_some(()))?;
        }
        Ok(())
    }

    /// Pin search (§3.2): one frame to `F_h(K)`'s owner, one reply.
    ///
    /// # Errors
    ///
    /// [`Error::Timeout`] on a late reply, otherwise the link's errors.
    pub fn pin_search(&mut self, keywords: &KeywordSet) -> Result<Vec<ObjectId>, Error> {
        let (id, owner) = self.queue_pin(keywords);
        Ok(object_ids(self.complete(id, owner, "pin reply")?.matches))
    }

    /// Superset search (§3.3): blocks until the root's owner, which
    /// coordinates, finishes the traversal. Lost region frames are
    /// retried there; a query that loses an owner for good is dropped
    /// unanswered (never answered short), which the caller sees as
    /// [`Error::Timeout`].
    ///
    /// # Errors
    ///
    /// [`Error::ZeroThreshold`] when `threshold == 0`,
    /// [`Error::Timeout`] on a late reply, otherwise the link's errors.
    pub fn superset_search(
        &mut self,
        keywords: &KeywordSet,
        threshold: usize,
    ) -> Result<Vec<RuntimeMatch>, Error> {
        if threshold == 0 {
            return Err(Error::ZeroThreshold);
        }
        let (id, owner) = self.queue_superset(keywords, threshold);
        Ok(matches(self.complete(id, owner, "superset reply")?.matches))
    }

    /// Fault-tolerant superset search (§3.4): the coordinating worker
    /// retries per region owner under its fault-tolerant policy; the
    /// client waits for each attempt's completion for 10 s, re-issues
    /// the search under a fresh id when that passes — a late completion
    /// of the abandoned attempt is then a stale reply, dropped — and
    /// once its five attempts are spent returns an honest empty outcome
    /// (`complete: false`, no coverage).
    ///
    /// # Errors
    ///
    /// [`Error::ZeroThreshold`] on a zero `threshold`, otherwise the
    /// link's errors.
    pub fn superset_search_ft(
        &mut self,
        keywords: &KeywordSet,
        threshold: usize,
    ) -> Result<FtSearchOutcome, Error> {
        if threshold == 0 {
            return Err(Error::ZeroThreshold);
        }
        for attempt in 1..=FT_ATTEMPTS {
            let id = self.queue_ft(keywords, threshold);
            let deadline = self.link.now() + FT_ATTEMPT_TIMEOUT;
            self.link.ship()?;
            if let Some(((), reply)) =
                self.recv(Some(deadline), None, |got| (got == id).then_some(()))?
            {
                return Ok(FtSearchOutcome {
                    matches: matches(reply.matches),
                    complete: reply
                        .coverage
                        .as_ref()
                        .is_some_and(|c| c.skipped.is_empty()),
                    attempts: attempt,
                    coverage: reply.coverage,
                });
            }
        }
        // Every attempt timed out — no coordinator ever answered.
        Ok(FtSearchOutcome {
            matches: Vec::new(),
            complete: false,
            attempts: FT_ATTEMPTS,
            coverage: None,
        })
    }

    /// Runs `requests` keeping up to `window` of them in flight.
    ///
    /// # Errors
    ///
    /// [`Error::Timeout`] when no completion arrives within the
    /// per-reply deadline, otherwise the link's errors.
    pub fn run_batch(
        &mut self,
        requests: &[Request],
        window: usize,
    ) -> Result<Vec<BatchResult>, Error> {
        let window = window.max(1);
        let mut out: Vec<Option<BatchResult>> = requests.iter().map(|_| None).collect();
        let mut in_flight: HashMap<u64, (usize, Duration)> = HashMap::new();
        let mut next = 0usize;
        let mut completed = 0usize;
        while completed < requests.len() {
            while next < requests.len() && in_flight.len() < window {
                let started = self.link.now();
                let (id, _) = match &requests[next] {
                    Request::Pin(keywords) => self.queue_pin(keywords),
                    Request::Superset {
                        keywords,
                        threshold,
                    } => self.queue_superset(keywords, *threshold),
                };
                in_flight.insert(id, (next, started));
                next += 1;
            }
            self.link.ship()?;
            let ((slot, started), reply) =
                self.recv_reply("batch reply", None, |id| in_flight.remove(&id))?;
            out[slot] = Some(BatchResult {
                objects: object_ids(reply.matches),
                latency: self.link.now().saturating_sub(started),
            });
            completed += 1;
        }
        Ok(out.into_iter().map(|r| r.expect("all completed")).collect())
    }

    /// Ships what is queued once it reaches [`LANE_WATERMARK`] bytes —
    /// the size at which a worker's socket lane ships too.
    fn ship_at_watermark(&mut self) -> Result<(), Error> {
        if self.link.queued_bytes() >= LANE_WATERMARK {
            self.link.ship()?;
        }
        Ok(())
    }

    fn fresh_id(&mut self) -> u64 {
        self.next_id += 1;
        self.next_id
    }

    /// The worker owning `F_h(keywords)`.
    fn owner_of(&self, keywords: &KeywordSet) -> u32 {
        self.shards
            .owner_of(self.hasher.vertex_for(keywords).bits())
    }

    /// Queues one pin lookup for `F_h(K)`'s owner under a fresh id,
    /// returning the id and that worker.
    fn queue_pin(&mut self, keywords: &KeywordSet) -> (u64, u32) {
        let id = self.fresh_id();
        let owner = self.owner_of(keywords);
        self.link.queue(
            owner,
            &WireMsg::Pin {
                query_id: id,
                keywords: keywords.clone(),
            },
        );
        (id, owner)
    }

    /// Queues one sequential superset search for `F_h(K)`'s owner under
    /// a fresh id, returning the id and that worker — the query's
    /// coordinator. The paper's placement: the root is where the
    /// traversal starts and where its answer is cached, so every
    /// client's repeat of a query meets the one entry the cluster keeps
    /// for it. The frame carries this client's flush marks.
    fn queue_superset(&mut self, keywords: &KeywordSet, threshold: usize) -> (u64, u32) {
        let id = self.fresh_id();
        let coordinator = self.owner_of(keywords);
        self.link.queue(
            coordinator,
            &WireMsg::QueryAt {
                query_id: id,
                keywords: keywords.clone(),
                threshold: threshold as u64,
                marks: self.marks.clone(),
            },
        );
        (id, coordinator)
    }

    /// Queues one FT query toward its root's owner (one routing rule)
    /// and returns the fresh query id.
    fn queue_ft(&mut self, keywords: &KeywordSet, threshold: usize) -> u64 {
        let id = self.fresh_id();
        let owner = self.owner_of(keywords);
        self.link.queue(
            owner,
            &WireMsg::FtQuery {
                query_id: id,
                keywords: keywords.clone(),
                threshold: threshold as u64,
            },
        );
        id
    }

    /// Ships what is queued and waits for request `id`'s completion
    /// from `owner` — a window of one.
    fn complete(&mut self, id: u64, owner: u32, operation: &str) -> Result<Reply, Error> {
        self.link.ship()?;
        let ((), reply) =
            self.recv_reply(operation, Some(owner), |got| (got == id).then_some(()))?;
        Ok(reply)
    }

    /// One awaited reply within the request deadline, a missed
    /// deadline being [`Error::Timeout`] naming `operation`.
    fn recv_reply<T>(
        &mut self,
        operation: &str,
        awaiting: Option<u32>,
        claim: impl FnMut(u64) -> Option<T>,
    ) -> Result<(T, Reply), Error> {
        let deadline = self.request_timeout.map(|t| self.link.now() + t);
        self.recv(deadline, awaiting, claim)?
            .ok_or_else(|| Error::Timeout {
                operation: operation.to_string(),
                after_ms: self.request_timeout.map_or(0, |t| t.as_millis() as u64),
            })
    }

    /// The one receive path: the next reply some request awaits, or
    /// `None` once `deadline` passes. `claim` takes a reply's id (query
    /// id or flush token — one counter issues both) out of the caller's
    /// window; an id it does not know is a stale reply, dropped and
    /// counted.
    ///
    /// # Errors
    ///
    /// [`Error::UnexpectedFrame`] for a frame kind no client is ever
    /// sent, otherwise the link's errors.
    fn recv<T>(
        &mut self,
        deadline: Option<Duration>,
        awaiting: Option<u32>,
        mut claim: impl FnMut(u64) -> Option<T>,
    ) -> Result<Option<(T, Reply)>, Error> {
        while let Some(frame) = self.link.recv(deadline, awaiting)? {
            let (id, matches, coverage) = match frame {
                // Even the ack of a barrier that timed out says how far
                // its worker's shard has moved.
                WireMsg::FlushAck {
                    token,
                    worker,
                    epoch,
                } => {
                    if let Some(mark) = self.marks.get_mut(worker as usize) {
                        *mark = (*mark).max(epoch);
                    }
                    (token, Vec::new(), None)
                }
                WireMsg::PinResults { query_id, objects } => (
                    query_id,
                    objects.into_iter().map(|raw| (raw, 0)).collect(),
                    None,
                ),
                WireMsg::QueryDone { query_id, objects } => (query_id, objects, None),
                WireMsg::FtQueryDone {
                    query_id,
                    objects,
                    coverage,
                } => (query_id, objects, Some(coverage)),
                other => {
                    let debug = format!("{other:?}");
                    let kind = debug.split(|c: char| !c.is_alphanumeric()).next();
                    return Err(Error::UnexpectedFrame {
                        kind: kind.unwrap_or_default().to_string(),
                    });
                }
            };
            // A reply no request awaits any more is dropped.
            if let Some(kept) = claim(id) {
                return Ok(Some((kept, Reply { matches, coverage })));
            }
        }
        Ok(None)
    }
}

fn object_ids(matches: Vec<(u64, u32)>) -> Vec<ObjectId> {
    matches
        .into_iter()
        .map(|(raw, _)| ObjectId::from_raw(raw))
        .collect()
}

fn matches(objects: Vec<(u64, u32)>) -> Vec<RuntimeMatch> {
    objects
        .into_iter()
        .map(|(raw, extra)| RuntimeMatch {
            object: ObjectId::from_raw(raw),
            extra_keywords: extra,
        })
        .collect()
}
