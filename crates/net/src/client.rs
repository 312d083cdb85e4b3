//! The cluster client: typed errors, deadlines, and reconnection.
//!
//! [`NetClient`] runs the same request protocol as the in-process
//! [`hyperdex_runtime::NodeRuntime`] handle — literally: both are the
//! shared [`ClientCore`], and this module only supplies its TCP
//! [`ClientLink`], one connection per server. Because sockets fail in
//! ways channels cannot, every operation returns `Result`:
//!
//! * [`Error::Timeout`] — a request's deadline expired; the connection
//!   may be healthy and the reply merely late.
//! * [`Error::ConnectionLost`] — the connection to the server owning
//!   the request died and could not be re-established within the
//!   reconnect budget (attempts with exponential backoff).
//!
//! A background reader thread per connection decodes reply units and
//! feeds one event channel, which the link's receive drains. Routing is
//! client-side: the core owns the same seeded [`KeywordHasher`] and
//! [`ShardMap`] as the workers, computes each request's worker, and the
//! link writes to the server hosting it.

use std::collections::VecDeque;
use std::io::Write;
use std::net::{TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use hyperdex_core::{Error, KeywordHasher, KeywordSet, ObjectId};
use hyperdex_runtime::client_core::{ClientCore, ClientLink};
use hyperdex_runtime::runtime::{BatchResult, Request, RuntimeMatch};
use hyperdex_runtime::wire::{self, WireMsg};
use hyperdex_runtime::ShardMap;

use crate::server::server_of;
use crate::stream::{StreamDecoder, CLIENT_DEST};

/// Client-side knobs: connection and request deadlines, reconnect
/// budget.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NetConfig {
    /// Deadline for establishing one TCP connection.
    pub connect_timeout: Duration,
    /// Deadline for one request's reply (per reply for multi-reply
    /// barriers like flush).
    pub request_timeout: Duration,
    /// Connection attempts before a lost server is given up on.
    pub reconnect_attempts: u32,
    /// Sleep before the second reconnect attempt; doubles per attempt.
    pub reconnect_backoff: Duration,
    /// Read by nothing: [`NetClient::run_batch`] takes its window per
    /// call. Kept because `benchmark/` spells it. Defaults to
    /// [`DEFAULT_WINDOW`].
    pub window: usize,
}

/// Default for [`NetConfig::window`].
pub const DEFAULT_WINDOW: usize = 32;

impl Default for NetConfig {
    fn default() -> NetConfig {
        NetConfig {
            connect_timeout: Duration::from_secs(2),
            request_timeout: Duration::from_secs(10),
            reconnect_attempts: 4,
            reconnect_backoff: Duration::from_millis(25),
            window: DEFAULT_WINDOW,
        }
    }
}

/// What a connection reader reports to the request path.
enum Event {
    /// A decoded client-bound frame.
    Frame(WireMsg),
    /// The connection to `server` died (EOF, reset, or corrupt
    /// stream).
    Lost { server: usize, detail: String },
}

/// Connected client handle: the shared request protocol
/// ([`ClientCore`]) over the TCP link. Synchronous like the in-process
/// handle; all I/O concurrency lives in the servers.
pub struct NetClient {
    core: ClientCore<TcpLink>,
}

/// The TCP [`ClientLink`]: one connection per server, re-dialed with
/// exponential backoff when it dies, one reader thread per connection.
struct TcpLink {
    cfg: NetConfig,
    addrs: Vec<String>,
    conns: Vec<Option<TcpStream>>,
    events_tx: Sender<Event>,
    events_rx: Receiver<Event>,
    /// Per server: units queued for the next ship, written as one
    /// coalesced packet. The `u64` is the queued frame count (for the
    /// conservation ledger).
    wqueue: Vec<(Vec<u8>, u64)>,
    /// Frames decoded but not yet consumed by a request.
    pending: VecDeque<WireMsg>,
    received: Arc<AtomicU64>,
    readers: Vec<JoinHandle<()>>,
    frames_sent: u64,
    /// When the link was made: the origin of [`ClientLink::now`].
    started: Instant,
}

/// The client's half of the conservation ledger, produced by
/// [`NetClient::shutdown`]. Call [`ClientClose::finish`] after the
/// server processes have exited to get final counts.
pub struct ClientClose {
    frames_sent: u64,
    received: Arc<AtomicU64>,
    readers: Vec<JoinHandle<()>>,
}

impl ClientClose {
    /// Joins the reader threads (they exit when the servers close
    /// their sockets) and returns `(frames_sent, frames_received)`.
    pub fn finish(self) -> (u64, u64) {
        for handle in self.readers {
            let _ = handle.join();
        }
        (self.frames_sent, self.received.load(Ordering::SeqCst))
    }
}

impl NetClient {
    /// Connects to every server of a cluster. `addrs` lists the
    /// servers' listen addresses in cluster order; `total_workers`,
    /// `r`, and `seed` must match the servers' configuration — the
    /// client computes the same vertex → worker map as the servers, so
    /// a mismatch would misroute every insert.
    ///
    /// # Errors
    ///
    /// [`Error::ConnectionLost`] when any server cannot be reached
    /// within the connect timeout.
    pub fn connect(
        addrs: &[String],
        r: u8,
        seed: u64,
        total_workers: u32,
        cfg: NetConfig,
    ) -> Result<NetClient, Error> {
        let hasher = KeywordHasher::new(r, seed)?;
        let shards = ShardMap::new(r, total_workers, seed);
        let (events_tx, events_rx) = channel();
        let mut link = TcpLink {
            cfg,
            addrs: addrs.to_vec(),
            conns: (0..addrs.len()).map(|_| None).collect(),
            events_tx,
            events_rx,
            wqueue: (0..addrs.len()).map(|_| (Vec::new(), 0)).collect(),
            pending: VecDeque::new(),
            received: Arc::new(AtomicU64::new(0)),
            readers: Vec::new(),
            frames_sent: 0,
            started: Instant::now(),
        };
        for server in 0..addrs.len() {
            let stream = link.open(server)?;
            link.install(server, stream);
        }
        Ok(NetClient {
            core: ClientCore::new(hasher, shards, link, Some(cfg.request_timeout)),
        })
    }

    /// Worker shards across the cluster.
    pub fn workers(&self) -> u32 {
        self.core.shards().workers()
    }

    /// Routes one insert to the shard owning `F_h(K)`. The unit is
    /// appended to its server's packet, and the packets are written
    /// once they hold
    /// [`LANE_WATERMARK`](hyperdex_runtime::transport::LANE_WATERMARK)
    /// bytes, or with the next operation that writes
    /// ([`ClientCore::insert`]): a load costs a `write` per burst, not
    /// per insert. [`NetClient::flush`] says when the inserts have
    /// landed.
    ///
    /// # Errors
    ///
    /// [`Error::EmptyKeywordSet`] for an empty set;
    /// [`Error::ConnectionLost`] when this call wrote the queued
    /// packets and a server was unreachable. An insert that was only
    /// queued reports a lost server from the call that writes it — the
    /// next insert past the watermark, a search, `flush` or `shutdown`.
    pub fn insert(&mut self, object: ObjectId, keywords: KeywordSet) -> Result<(), Error> {
        self.core.insert(object, keywords)
    }

    /// Drain barrier across every server: returns once each worker has
    /// processed everything enqueued before this call.
    ///
    /// # Errors
    ///
    /// [`Error::Timeout`] when any worker's ack misses the per-reply
    /// deadline; connection errors as [`Error::ConnectionLost`].
    pub fn flush(&mut self) -> Result<(), Error> {
        self.core.flush()
    }

    /// Pin search (§3.2) over the wire: one request unit, one reply.
    ///
    /// # Errors
    ///
    /// [`Error::Timeout`] on a late reply, [`Error::ConnectionLost`]
    /// when the owning server is gone.
    pub fn pin_search(&mut self, keywords: &KeywordSet) -> Result<Vec<ObjectId>, Error> {
        self.core.pin_search(keywords)
    }

    /// Superset search (§3.3), coordinated by the worker that owns
    /// `F_h(K)`, with one round trip to every other worker — possibly
    /// in a different process — that owns part of the query's subcube.
    ///
    /// # Errors
    ///
    /// [`Error::ZeroThreshold`] for a zero threshold, otherwise the
    /// usual timeout/connection errors.
    pub fn superset_search(
        &mut self,
        keywords: &KeywordSet,
        threshold: usize,
    ) -> Result<Vec<RuntimeMatch>, Error> {
        self.core.superset_search(keywords, threshold)
    }

    /// Runs `requests` keeping up to `window` in flight across the
    /// cluster — the socket-mode throughput path the bench measures.
    ///
    /// # Errors
    ///
    /// The usual timeout/connection errors.
    pub fn run_batch(
        &mut self,
        requests: &[Request],
        window: usize,
    ) -> Result<Vec<BatchResult>, Error> {
        self.core.run_batch(requests, window)
    }

    /// Sends `Shutdown` to every worker and releases the connections.
    /// The returned [`ClientClose`] yields the client's conservation
    /// counters once the servers have exited.
    ///
    /// # Errors
    ///
    /// [`Error::ConnectionLost`] when a shutdown frame cannot be
    /// delivered.
    pub fn shutdown(mut self) -> Result<ClientClose, Error> {
        for w in 0..self.workers() {
            self.core.send(w, &WireMsg::Shutdown)?;
        }
        let mut link = self.core.into_link();
        Ok(ClientClose {
            frames_sent: link.frames_sent,
            received: Arc::clone(&link.received),
            readers: std::mem::take(&mut link.readers),
        })
    }
}

impl TcpLink {
    /// Opens one connection: TCP connect within the deadline, then the
    /// client hello.
    fn open(&self, server: usize) -> Result<TcpStream, Error> {
        let endpoint = self.addrs[server].clone();
        let lost = |detail: String| Error::ConnectionLost {
            endpoint: endpoint.clone(),
            detail,
        };
        let addr = endpoint
            .to_socket_addrs()
            .map_err(|e| lost(e.to_string()))?
            .next()
            .ok_or_else(|| lost("address resolved to nothing".into()))?;
        let mut stream = TcpStream::connect_timeout(&addr, self.cfg.connect_timeout)
            .map_err(|e| lost(e.to_string()))?;
        stream.set_nodelay(true).ok();
        stream
            .write_all(&CLIENT_DEST.to_le_bytes())
            .map_err(|e| lost(e.to_string()))?;
        Ok(stream)
    }

    /// Registers an opened connection: keeps the write half, spawns
    /// the reader on a clone.
    fn install(&mut self, server: usize, stream: TcpStream) {
        let read_half = stream.try_clone().expect("clone stream");
        let tx = self.events_tx.clone();
        let received = Arc::clone(&self.received);
        self.readers.push(
            std::thread::Builder::new()
                .name(format!("hyperdex-net-client-reader-{server}"))
                .spawn(move || reader_loop(read_half, server, tx, received))
                .expect("spawn client reader"),
        );
        self.conns[server] = Some(stream);
    }

    /// Re-establishes a lost connection: immediate first attempt, then
    /// exponential backoff, up to the configured budget.
    fn reconnect(&mut self, server: usize) -> Result<(), Error> {
        let mut backoff = self.cfg.reconnect_backoff;
        let mut last = String::from("no attempt made");
        for attempt in 0..self.cfg.reconnect_attempts.max(1) {
            if attempt > 0 {
                std::thread::sleep(backoff);
                backoff = backoff.saturating_mul(2);
            }
            match self.open(server) {
                Ok(stream) => {
                    self.install(server, stream);
                    return Ok(());
                }
                Err(Error::ConnectionLost { detail, .. }) => last = detail,
                Err(other) => return Err(other),
            }
        }
        Err(Error::ConnectionLost {
            endpoint: self.addrs[server].clone(),
            detail: format!(
                "reconnect gave up after {} attempts: {last}",
                self.cfg.reconnect_attempts.max(1)
            ),
        })
    }

    /// Drains reader events without blocking: frames queue up for the
    /// next receive, losses mark their connection dead.
    fn poll_events(&mut self) {
        while let Ok(event) = self.events_rx.try_recv() {
            match event {
                Event::Frame(msg) => self.pending.push_back(msg),
                Event::Lost { server, .. } => self.conns[server] = None,
            }
        }
    }

    fn server_of(&self, worker: u32) -> usize {
        server_of(worker, self.addrs.len() as u32) as usize
    }
}

impl ClientLink for TcpLink {
    fn queue(&mut self, worker: u32, msg: &WireMsg) {
        let server = self.server_of(worker);
        let (buf, frames) = &mut self.wqueue[server];
        // One unit, written in place: the routing header, then the
        // frame encoded straight behind it.
        wire::put_unit_header(buf, worker);
        msg.encode_append(buf);
        *frames += 1;
    }

    fn queued_bytes(&self) -> usize {
        self.wqueue.iter().map(|(buf, _)| buf.len()).sum()
    }

    /// Writes every queued packet, one `write_all` per server. A dead
    /// connection is re-dialed first; a socket that dies under the
    /// write gets one reconnect cycle, then a typed error.
    fn ship(&mut self) -> Result<(), Error> {
        self.poll_events();
        for server in 0..self.wqueue.len() {
            if self.wqueue[server].0.is_empty() {
                continue;
            }
            let (mut buf, frames) = std::mem::take(&mut self.wqueue[server]);
            if self.conns[server].is_none() {
                self.reconnect(server)?;
            }
            let failed = match self.conns[server].as_mut() {
                Some(stream) => stream.write_all(&buf).is_err(),
                None => true,
            };
            if failed {
                self.conns[server] = None;
                self.reconnect(server)?;
                let stream = self.conns[server].as_mut().expect("just reconnected");
                stream.write_all(&buf).map_err(|e| Error::ConnectionLost {
                    endpoint: self.addrs[server].clone(),
                    detail: e.to_string(),
                })?;
            }
            self.frames_sent += frames;
            // Hand the packet buffer back: the next burst reuses it.
            buf.clear();
            self.wqueue[server].0 = buf;
        }
        Ok(())
    }

    fn now(&self) -> Duration {
        self.started.elapsed()
    }

    fn recv(
        &mut self,
        deadline: Option<Duration>,
        awaiting: Option<u32>,
    ) -> Result<Option<WireMsg>, Error> {
        let awaiting = awaiting.map(|worker| self.server_of(worker));
        loop {
            if let Some(msg) = self.pending.pop_front() {
                return Ok(Some(msg));
            }
            let event = match deadline {
                None => self.events_rx.recv().ok(),
                Some(deadline) => {
                    let wait = deadline.saturating_sub(self.now());
                    self.events_rx.recv_timeout(wait).ok()
                }
            };
            match event {
                Some(Event::Frame(msg)) => return Ok(Some(msg)),
                Some(Event::Lost { server, detail }) => {
                    self.conns[server] = None;
                    if awaiting == Some(server) {
                        return Err(Error::ConnectionLost {
                            endpoint: self.addrs[server].clone(),
                            detail,
                        });
                    }
                }
                None => return Ok(None),
            }
        }
    }
}

/// A client dropped with inserts still queued writes them, best-effort,
/// on the connections still up (no re-dial), so a drop without a flush
/// loses no more than a drop of a client that wrote every insert at
/// once.
impl Drop for TcpLink {
    fn drop(&mut self) {
        for (conn, (buf, _)) in self.conns.iter_mut().zip(&self.wqueue) {
            if let Some(stream) = conn.as_mut().filter(|_| !buf.is_empty()) {
                let _ = stream.write_all(buf);
            }
        }
    }
}

/// Decodes client-bound units off one connection into the shared event
/// channel, reporting the connection's death — or the first thing on it
/// no server sends a client — as a final event.
fn reader_loop(mut stream: TcpStream, server: usize, tx: Sender<Event>, received: Arc<AtomicU64>) {
    let mut dec = StreamDecoder::new();
    let detail = 'conn: loop {
        match dec.fill_from(&mut stream) {
            Ok(0) => break "server closed the connection".to_string(),
            Err(e) => break e.to_string(),
            Ok(_) => {}
        }
        loop {
            let frame = match dec.next_unit_ref() {
                Ok(None) => break,
                Err(e) => break 'conn format!("corrupt stream: {e}"),
                // Whatever wrote a unit for a worker, this is not the
                // stream a client reads.
                Ok(Some((dest, _))) if dest != CLIENT_DEST => {
                    break 'conn format!("worker-bound unit (worker {dest}) at the client")
                }
                Ok(Some((_, frame))) => frame,
            };
            received.fetch_add(1, Ordering::SeqCst);
            match WireMsg::decode_exact(frame) {
                Ok(msg) => {
                    if tx.send(Event::Frame(msg)).is_err() {
                        return;
                    }
                }
                Err(e) => break 'conn format!("undecodable frame: {e}"),
            }
        }
    };
    let _ = tx.send(Event::Lost { server, detail });
}
