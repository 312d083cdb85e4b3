//! The server process: one listener hosting one or more worker shards.
//!
//! A server is the [`hyperdex_runtime::worker`] event loop behind real
//! sockets. Worker `w` of a `servers`-process cluster lives on server
//! `w % servers`; frames between workers on the same server travel
//! over in-process channels exactly like the threaded runtime, frames
//! to remote workers (and replies to the client) cross TCP as
//! `[dest][frame]` units ([`crate::stream`]).
//!
//! # Connection fabric
//!
//! Every server dials every other server once (a directed mesh: the
//! dialed connection carries only frames *from* the dialer), and the
//! client dials every server. Each inbound connection gets a reader
//! thread that reads straight into the [`StreamDecoder`]'s buffer,
//! groups the decoded units per destination worker, and delivers one
//! multi-frame packet per `(read batch, worker)` with a **blocking**
//! send — when a worker falls behind, its inbox fills, the reader
//! stops reading, the kernel's receive window fills, and the remote
//! writer blocks: TCP itself propagates the same backpressure the
//! in-process fabric expresses with `try_send`.
//!
//! Outbound, the wire path batches adaptively. [`MeshTransport`]
//! accepts flushed frames into a per-peer **accumulation buffer**
//! instead of shipping a packet per flush; the buffer drains to the
//! connection's writer queue when it crosses a size watermark or when
//! the worker's event loop closes its batching window (nothing left
//! to fold into the batch — see `Transport::drain`). The writer
//! thread drains its whole queue greedily and ships the packets with
//! one vectored write, then recycles the packet buffers through a
//! shared pool back to the accumulating transports, so the
//! steady-state wire path allocates nothing.
//!
//! # Recovery and accounting
//!
//! The server runs the runtime's one supervisor
//! ([`hyperdex_runtime::runtime::supervise`]) over its local shards,
//! handing it a `MeshTransport` builder: a crashed worker (scheduled
//! via [`CrashPoint`]) is respawned on the same inbox, its shard
//! replayed from a journal of the load frames this server received,
//! and released with `RepairDone`. At shutdown the server
//! prints a plain-text frame-conservation report (`WSTATS` per worker,
//! one `SSTATS`, then `REPORT_END`) that the cluster launcher
//! aggregates into the same [`hyperdex_runtime::ShutdownReport`] the
//! other executors use.

use std::collections::{HashMap, VecDeque};
use std::io::{self, IoSlice, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{channel, sync_channel, Receiver, SyncSender, TrySendError};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

use hyperdex_core::KeywordHasher;
use hyperdex_hypercube::Shape;
use hyperdex_runtime::fault::{CrashPoint, FaultInjector, FaultPlan};
use hyperdex_runtime::runtime::{supervise, Journal, Spawner};
use hyperdex_runtime::transport::{
    coalesce_pooled, count_frames, FlushStatus, Transport, SPENT_POOL_CAP,
};
use hyperdex_runtime::wire::WireMsg;
use hyperdex_runtime::ShardMap;

use crate::stream::{count_units, push_unit, StreamDecoder, CLIENT_DEST, DEST_LEN};

/// How one server process is shaped. All servers of a cluster share
/// `r`, `seed`, `total_workers`, and `servers`; only `index` differs.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// This server's position in the cluster (`0..servers`).
    pub index: u32,
    /// Server processes in the cluster.
    pub servers: u32,
    /// Hypercube dimension `r`.
    pub r: u8,
    /// Seed for keyword hashing and shard placement.
    pub seed: u64,
    /// Worker shards across the whole cluster.
    pub total_workers: u32,
    /// Bound of every inbox channel and writer queue, in packets.
    pub capacity: usize,
    /// Optional scheduled crash of one local worker.
    pub crash: Option<CrashPoint>,
}

/// The global worker indices hosted by server `index`.
pub fn local_workers(total_workers: u32, servers: u32, index: u32) -> Vec<u32> {
    (0..total_workers)
        .filter(|w| w % servers == index)
        .collect()
}

/// The server hosting worker `w`.
pub fn server_of(worker: u32, servers: u32) -> u32 {
    worker % servers.max(1)
}

/// Accumulated bytes that trigger a hand-off to the writer queue even
/// while the batching window is still open.
const ACC_WATERMARK: usize = 32 * 1024;

/// Accumulation bound: once the buffer holds this much and the writer
/// queue refuses to take it, the transport reports `Full` and the
/// worker's outbox backpressure engages.
const ACC_HARD_CAP: usize = 4 * ACC_WATERMARK;

/// Packet buffers the shared pool retains.
const PACKET_POOL_CAP: usize = 64;

/// Recycled wire-packet buffers, shared between the accumulating
/// transports (which take) and the writer threads (which return
/// drained packets).
#[derive(Clone, Default)]
pub(crate) struct BufferPool(Arc<Mutex<Vec<Vec<u8>>>>);

impl BufferPool {
    fn take(&self) -> Vec<u8> {
        self.0
            .lock()
            .ok()
            .and_then(|mut pool| pool.pop())
            .unwrap_or_default()
    }

    fn put(&self, mut buf: Vec<u8>) {
        if buf.capacity() == 0 {
            return;
        }
        buf.clear();
        if let Ok(mut pool) = self.0.lock() {
            if pool.len() < PACKET_POOL_CAP {
                pool.push(buf);
            }
        }
    }
}

/// One connection's accumulation buffer: wire units awaiting a
/// watermark or window-close drain, with their logical frame count
/// (what `Transport::pending` reports).
#[derive(Default)]
struct AccBuf {
    buf: Vec<u8>,
    frames: u64,
}

/// What [`MeshTransport::ship`] did with an accumulation buffer.
enum ShipOutcome {
    /// The packet is on the writer queue (or the buffer was empty).
    Shipped,
    /// The writer queue is full; the buffer keeps accumulating.
    Full,
    /// The writer is gone; the buffered frames were discarded.
    Closed { frames_dropped: u64 },
}

/// The TCP fabric seen by one worker: local peers over channels,
/// remote peers and the client over per-connection writer queues fed
/// by adaptive accumulation buffers.
struct MeshTransport {
    own: u32,
    servers: u32,
    server_index: u32,
    total: usize,
    /// Per global worker: `Some` only for co-located workers (and
    /// `None` at the owning worker's own slot).
    inboxes: Vec<Option<SyncSender<Vec<u8>>>>,
    /// Per server: the writer queue toward that server; `None` at our
    /// own slot.
    peers: Vec<Option<SyncSender<Vec<u8>>>>,
    client: SyncSender<Vec<u8>>,
    /// Per server: units accumulated toward that peer's next packet.
    peer_acc: Vec<AccBuf>,
    /// Client-bound accumulation.
    client_acc: AccBuf,
    /// Emptied frame buffers, handed back via `Transport::reclaim`.
    spent: Vec<Vec<u8>>,
    /// Shared packet-buffer pool (writer threads return drained
    /// packets here).
    pool: BufferPool,
}

impl MeshTransport {
    /// Swaps the accumulation buffer for a pooled one and offers the
    /// packet to the writer queue, without blocking.
    fn ship(acc: &mut AccBuf, tx: &SyncSender<Vec<u8>>, pool: &BufferPool) -> ShipOutcome {
        if acc.buf.is_empty() {
            return ShipOutcome::Shipped;
        }
        let packet = std::mem::replace(&mut acc.buf, pool.take());
        match tx.try_send(packet) {
            Ok(()) => {
                acc.frames = 0;
                ShipOutcome::Shipped
            }
            Err(TrySendError::Full(packet)) => {
                // Keep accumulating into the same buffer; the fresh
                // pool buffer goes back unused.
                pool.put(std::mem::replace(&mut acc.buf, packet));
                ShipOutcome::Full
            }
            Err(TrySendError::Disconnected(packet)) => {
                // Writer gone: only possible once the run is over.
                pool.put(packet);
                let dropped = acc.frames;
                acc.frames = 0;
                ShipOutcome::Closed {
                    frames_dropped: dropped,
                }
            }
        }
    }

    /// Moves every queued frame into the accumulation buffer as
    /// `[dest][frame]` units. The buffer drains to the writer queue at
    /// the watermark; past the hard cap with a full writer queue the
    /// remaining frames stay in the worker's outbox (`Full`).
    fn acc_flush(
        acc: &mut AccBuf,
        tx: &SyncSender<Vec<u8>>,
        pool: &BufferPool,
        spent: &mut Vec<Vec<u8>>,
        dest: u32,
        queue: &mut VecDeque<Vec<u8>>,
    ) -> FlushStatus {
        while let Some(front) = queue.front() {
            if !acc.buf.is_empty() && acc.buf.len() + DEST_LEN + front.len() > ACC_HARD_CAP {
                match MeshTransport::ship(acc, tx, pool) {
                    ShipOutcome::Shipped => {}
                    ShipOutcome::Full => return FlushStatus::Full,
                    ShipOutcome::Closed { frames_dropped } => {
                        let dropped =
                            frames_dropped + queue.iter().map(|f| count_frames(f)).sum::<u64>();
                        queue.clear();
                        return FlushStatus::Closed {
                            frames_dropped: dropped,
                        };
                    }
                }
            }
            let mut frame = queue.pop_front().expect("checked front");
            push_unit(&mut acc.buf, dest, &frame);
            acc.frames += 1;
            if spent.len() < SPENT_POOL_CAP {
                frame.clear();
                spent.push(frame);
            }
        }
        if acc.buf.len() >= ACC_WATERMARK {
            match MeshTransport::ship(acc, tx, pool) {
                // A full writer queue at the watermark is fine: the
                // frames are accepted (pending) and retry at the next
                // flush or window close.
                ShipOutcome::Shipped | ShipOutcome::Full => {}
                ShipOutcome::Closed { frames_dropped } => {
                    return FlushStatus::Closed { frames_dropped }
                }
            }
        }
        FlushStatus::Done
    }
}

impl Transport for MeshTransport {
    fn endpoints(&self) -> usize {
        self.total + 1
    }

    fn flush(&mut self, dest: usize, queue: &mut VecDeque<Vec<u8>>) -> FlushStatus {
        if queue.is_empty() {
            return FlushStatus::Done;
        }
        if dest == self.total {
            return MeshTransport::acc_flush(
                &mut self.client_acc,
                &self.client,
                &self.pool,
                &mut self.spent,
                CLIENT_DEST,
                queue,
            );
        }
        let dest_w = dest as u32;
        if server_of(dest_w, self.servers) == self.server_index {
            // Co-located worker: raw coalesced packet over the channel,
            // identical to the in-process fabric.
            let Some(tx) = &self.inboxes[dest] else {
                debug_assert!(dest_w == self.own, "missing inbox for local worker");
                let dropped = queue.iter().map(|f| count_frames(f)).sum();
                queue.clear();
                return FlushStatus::Closed {
                    frames_dropped: dropped,
                };
            };
            while !queue.is_empty() {
                let packet = coalesce_pooled(queue, &mut self.spent);
                match tx.try_send(packet) {
                    Ok(()) => {}
                    Err(TrySendError::Full(packet)) => {
                        queue.push_front(packet);
                        return FlushStatus::Full;
                    }
                    Err(TrySendError::Disconnected(packet)) => {
                        let dropped = count_frames(&packet)
                            + queue.iter().map(|f| count_frames(f)).sum::<u64>();
                        queue.clear();
                        return FlushStatus::Closed {
                            frames_dropped: dropped,
                        };
                    }
                }
            }
            return FlushStatus::Done;
        }
        let peer = server_of(dest_w, self.servers) as usize;
        let Some(tx) = &self.peers[peer] else {
            debug_assert!(false, "remote dest mapped to own server");
            let dropped = queue.iter().map(|f| count_frames(f)).sum();
            queue.clear();
            return FlushStatus::Closed {
                frames_dropped: dropped,
            };
        };
        MeshTransport::acc_flush(
            &mut self.peer_acc[peer],
            tx,
            &self.pool,
            &mut self.spent,
            dest_w,
            queue,
        )
    }

    fn pending(&self) -> u64 {
        self.client_acc.frames + self.peer_acc.iter().map(|a| a.frames).sum::<u64>()
    }

    fn drain(&mut self) -> FlushStatus {
        let mut full = false;
        let mut dropped = 0;
        for peer in 0..self.peer_acc.len() {
            if self.peer_acc[peer].frames == 0 {
                continue;
            }
            let Some(tx) = &self.peers[peer] else {
                continue;
            };
            match MeshTransport::ship(&mut self.peer_acc[peer], tx, &self.pool) {
                ShipOutcome::Shipped => {}
                ShipOutcome::Full => full = true,
                ShipOutcome::Closed { frames_dropped } => dropped += frames_dropped,
            }
        }
        if self.client_acc.frames > 0 {
            match MeshTransport::ship(&mut self.client_acc, &self.client, &self.pool) {
                ShipOutcome::Shipped => {}
                ShipOutcome::Full => full = true,
                ShipOutcome::Closed { frames_dropped } => dropped += frames_dropped,
            }
        }
        if dropped > 0 {
            FlushStatus::Closed {
                frames_dropped: dropped,
            }
        } else if full {
            FlushStatus::Full
        } else {
            FlushStatus::Done
        }
    }

    fn reclaim(&mut self, pool: &mut Vec<Vec<u8>>, cap: usize) {
        while pool.len() < cap {
            let Some(buf) = self.spent.pop() else { return };
            pool.push(buf);
        }
    }
}

/// Reads units off one inbound connection and delivers them to local
/// worker inboxes. Each read lands straight in the decoder's buffer
/// ([`StreamDecoder::fill_from`]); the decoded units of one read batch
/// are grouped per destination worker and delivered as one multi-frame
/// packet per `(batch, worker)`. Blocking sends are the backpressure
/// valve: a full inbox stalls this reader, which stalls the remote
/// writer through TCP flow control.
fn reader_loop(
    mut stream: TcpStream,
    inbox_tx: Vec<Option<SyncSender<Vec<u8>>>>,
    journal: Option<Journal>,
) {
    let mut dec = StreamDecoder::new();
    // Per-dest frame groups for the current read batch; reused across
    // batches so the steady state allocates nothing.
    let mut groups: Vec<(u32, Vec<u8>)> = Vec::new();
    loop {
        match dec.fill_from(&mut stream) {
            Ok(0) | Err(_) => return,
            Ok(_) => {}
        }
        for (_, packet) in &mut groups {
            packet.clear();
        }
        let mut used = 0;
        loop {
            match dec.next_unit_ref() {
                Ok(None) => break,
                Err(_) => return, // corrupt stream: drop the connection
                Ok(Some((dest, frame))) => {
                    if inbox_tx.get(dest as usize).is_none_or(Option::is_none) {
                        debug_assert!(false, "unit for non-local worker {dest}");
                        continue;
                    }
                    if let Some(journal) = &journal {
                        if matches!(
                            WireMsg::decode_exact(frame),
                            Ok(WireMsg::Insert { .. } | WireMsg::Handoff { .. })
                        ) {
                            journal
                                .lock()
                                .expect("journal lock")
                                .push((dest, frame.to_vec()));
                        }
                    }
                    let slot = match groups[..used].iter_mut().find(|(d, _)| *d == dest) {
                        Some((_, packet)) => packet,
                        None => {
                            if used == groups.len() {
                                groups.push((dest, Vec::new()));
                            } else {
                                groups[used].0 = dest;
                            }
                            used += 1;
                            &mut groups[used - 1].1
                        }
                    };
                    slot.extend_from_slice(frame);
                }
            }
        }
        for (dest, packet) in &groups[..used] {
            if packet.is_empty() {
                continue;
            }
            let tx = inbox_tx[*dest as usize].as_ref().expect("checked above");
            if tx.send(packet.clone()).is_err() {
                return;
            }
        }
    }
}

/// Drains a writer queue into one socket: greedily gathers everything
/// queued (`try_recv` loop) and ships the whole batch with vectored
/// writes, then recycles the packet buffers through the shared pool.
/// Exits when every sender is gone and the queue is empty — packets
/// queued before disconnect are still delivered. If the socket dies
/// the loop keeps receiving (so senders never wedge) and counts every
/// undelivered unit into `lost` for the conservation report.
fn writer_loop(
    rx: Receiver<Vec<u8>>,
    mut stream: TcpStream,
    pool: BufferPool,
    lost: Arc<AtomicU64>,
) {
    let mut batch: Vec<Vec<u8>> = Vec::new();
    let mut broken = false;
    while let Ok(first) = rx.recv() {
        batch.push(first);
        while let Ok(more) = rx.try_recv() {
            batch.push(more);
        }
        if !broken && write_batch(&mut stream, &batch).is_err() {
            broken = true;
        }
        if broken {
            let undelivered: u64 = batch.iter().map(|p| count_units(p)).sum();
            lost.fetch_add(undelivered, Ordering::Relaxed);
        }
        for packet in batch.drain(..) {
            pool.put(packet);
        }
    }
}

/// Writes every packet of `batch` with as few syscalls as vectored
/// I/O allows, advancing manually through partial writes.
fn write_batch(stream: &mut TcpStream, batch: &[Vec<u8>]) -> io::Result<()> {
    let mut idx = 0; // first packet not fully written
    let mut off = 0; // bytes of batch[idx] already written
    while idx < batch.len() {
        if batch[idx].len() == off {
            idx += 1;
            off = 0;
            continue;
        }
        let mut slices: Vec<IoSlice<'_>> = Vec::with_capacity(batch.len() - idx);
        slices.push(IoSlice::new(&batch[idx][off..]));
        for packet in &batch[idx + 1..] {
            if !packet.is_empty() {
                slices.push(IoSlice::new(packet));
            }
        }
        let mut n = match stream.write_vectored(&slices) {
            Ok(0) => return Err(io::Error::new(io::ErrorKind::WriteZero, "socket wrote 0")),
            Ok(n) => n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(e),
        };
        while idx < batch.len() && n >= batch[idx].len() - off {
            n -= batch[idx].len() - off;
            idx += 1;
            off = 0;
        }
        off += n;
    }
    Ok(())
}

/// Dials `addr` until the peer's listener answers (peers of a cluster
/// start concurrently, so the first attempts may race the bind).
fn dial(addr: &str) -> io::Result<TcpStream> {
    let mut last = None;
    for _ in 0..100 {
        match TcpStream::connect(addr) {
            Ok(s) => return Ok(s),
            Err(e) => {
                last = Some(e);
                std::thread::sleep(Duration::from_millis(20));
            }
        }
    }
    Err(last.expect("at least one attempt"))
}

/// Runs one server to completion: dial the mesh, host the local
/// shards, supervise crashes, and print the conservation report on
/// stdout once every local worker has shut down cleanly.
///
/// `peer_addrs` lists every server's listen address in cluster order
/// (including this server's own, which is ignored).
///
/// # Errors
///
/// Propagates socket errors from the mesh dial; everything after the
/// fabric is up is handled by supervision.
pub fn run(cfg: ServerConfig, listener: TcpListener, peer_addrs: &[String]) -> io::Result<()> {
    let shape = Shape::new(cfg.r).expect("validated r");
    let hasher = KeywordHasher::new(cfg.r, cfg.seed).expect("validated r");
    let shards = ShardMap::new(cfg.r, cfg.total_workers, cfg.seed);
    let local = local_workers(cfg.total_workers, cfg.servers, cfg.index);
    let cap = cfg.capacity.max(1);

    // Inboxes for local workers, addressed by global index.
    let mut inbox_tx: Vec<Option<SyncSender<Vec<u8>>>> =
        (0..cfg.total_workers).map(|_| None).collect();
    let mut inbox_rx: HashMap<u32, Receiver<Vec<u8>>> = HashMap::new();
    for &w in &local {
        let (tx, rx) = sync_channel::<Vec<u8>>(cap);
        inbox_tx[w as usize] = Some(tx);
        inbox_rx.insert(w, rx);
    }

    // Writer queues: one per remote server, one for the client.
    let mut peer_tx: Vec<Option<SyncSender<Vec<u8>>>> = (0..cfg.servers).map(|_| None).collect();
    let mut peer_rx: Vec<Option<Receiver<Vec<u8>>>> = (0..cfg.servers).map(|_| None).collect();
    for j in 0..cfg.servers {
        if j != cfg.index {
            let (tx, rx) = sync_channel::<Vec<u8>>(cap * local.len().max(1));
            peer_tx[j as usize] = Some(tx);
            peer_rx[j as usize] = Some(rx);
        }
    }
    let (client_tx, client_rx) = sync_channel::<Vec<u8>>(cap * cfg.total_workers.max(1) as usize);

    let journal: Option<Journal> = cfg
        .crash
        .is_some()
        .then(|| Arc::new(Mutex::new(Vec::new())));

    // Dial the mesh and start one writer per outbound connection. The
    // packet pool is shared by the accumulating transports and every
    // writer; `wire_lost` counts units a broken socket never delivered.
    let pool = BufferPool::default();
    let wire_lost = Arc::new(AtomicU64::new(0));
    let mut writers: Vec<JoinHandle<()>> = Vec::new();
    for j in 0..cfg.servers {
        if j == cfg.index {
            continue;
        }
        let mut stream = dial(&peer_addrs[j as usize])?;
        stream.set_nodelay(true).ok();
        stream.write_all(&cfg.index.to_le_bytes())?;
        let rx = peer_rx[j as usize].take().expect("created above");
        let pool = pool.clone();
        let lost = Arc::clone(&wire_lost);
        writers.push(
            std::thread::Builder::new()
                .name(format!("hyperdex-net-writer-{}-{j}", cfg.index))
                .spawn(move || writer_loop(rx, stream, pool, lost))
                .expect("spawn writer thread"),
        );
    }

    // Accept loop: mesh peers get a reader; the client connection gets
    // a reader plus the client writer (replies flow back on the same
    // socket).
    let client_writer: Arc<Mutex<Option<JoinHandle<()>>>> = Arc::new(Mutex::new(None));
    let pending_client_rx = Arc::new(Mutex::new(Some(client_rx)));
    {
        let inbox_tx = inbox_tx.clone();
        let journal = journal.clone();
        let client_writer = Arc::clone(&client_writer);
        let pool = pool.clone();
        let wire_lost = Arc::clone(&wire_lost);
        std::thread::Builder::new()
            .name(format!("hyperdex-net-accept-{}", cfg.index))
            .spawn(move || {
                for conn in listener.incoming() {
                    let Ok(mut stream) = conn else { return };
                    stream.set_nodelay(true).ok();
                    let mut hello = [0u8; 4];
                    if stream.read_exact(&mut hello).is_err() {
                        continue;
                    }
                    if u32::from_le_bytes(hello) == CLIENT_DEST {
                        if let Some(rx) = pending_client_rx.lock().expect("client rx").take() {
                            let out = stream.try_clone().expect("clone client stream");
                            let pool = pool.clone();
                            let lost = Arc::clone(&wire_lost);
                            let handle = std::thread::Builder::new()
                                .name("hyperdex-net-client-writer".into())
                                .spawn(move || writer_loop(rx, out, pool, lost))
                                .expect("spawn client writer");
                            *client_writer.lock().expect("writer slot") = Some(handle);
                        }
                    }
                    let inbox_tx = inbox_tx.clone();
                    let journal = journal.clone();
                    std::thread::Builder::new()
                        .name("hyperdex-net-reader".into())
                        .spawn(move || reader_loop(stream, inbox_tx, journal))
                        .expect("spawn reader thread");
                }
            })
            .expect("spawn accept thread");
    }

    // Spawn the local shards, each behind its own view of the mesh.
    let (event_tx, event_rx) = channel();
    let (servers, server_index, total) = (cfg.servers, cfg.index, cfg.total_workers as usize);
    let spawner = Spawner {
        shape,
        hasher,
        shards,
        inbox_tx,
        transport: move |inboxes: &[Option<SyncSender<Vec<u8>>>],
                         worker: u32|
              -> Box<dyn Transport> {
            let mut inboxes = inboxes.to_vec();
            inboxes[worker as usize] = None;
            Box::new(MeshTransport {
                own: worker,
                servers,
                server_index,
                total,
                inboxes,
                peers: peer_tx.clone(),
                client: client_tx.clone(),
                peer_acc: (0..servers).map(|_| AccBuf::default()).collect(),
                client_acc: AccBuf::default(),
                spent: Vec::new(),
                pool: pool.clone(),
            })
        },
        event_tx,
    };
    let mut handles: Vec<Option<JoinHandle<()>>> = (0..total).map(|_| None).collect();
    for &w in &local {
        let injector = cfg.crash.and_then(|c| {
            (c.worker == w).then(|| {
                FaultInjector::new(
                    FaultPlan::default().crash(c.worker, c.after_query_frames),
                    w,
                )
            })
        });
        let rx = inbox_rx.remove(&w).expect("inbox created");
        handles[w as usize] = Some(spawner.spawn(w, rx, injector, false));
    }
    println!("READY");
    io::stdout().flush().ok();

    // Supervise until the client's `Shutdown` frames have stopped every
    // local worker. Dropping the spawner on return closes the writer
    // queues, so the writer threads finish flushing and exit.
    let (stats, mut sup) = supervise(spawner, handles, journal, event_rx);
    for handle in writers {
        let _ = handle.join();
    }
    if let Some(handle) = client_writer.lock().expect("writer slot").take() {
        let _ = handle.join();
    }
    // Units a broken socket never delivered count as drained: they
    // left the workers' ledgers as sent but never reached a receiver.
    sup.frames_drained += wire_lost.load(Ordering::Relaxed);

    // Conservation report, parsed by the cluster launcher.
    let mut lines = String::new();
    for s in &stats {
        lines.push_str(&s.report_line());
        lines.push('\n');
    }
    lines.push_str(&sup.report_line());
    lines.push_str("\nREPORT_END\n");
    print!("{lines}");
    io::stdout().flush().ok();
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn workers_partition_across_servers() {
        let all: Vec<Vec<u32>> = (0..3).map(|i| local_workers(8, 3, i)).collect();
        let mut seen: Vec<u32> = all.iter().flatten().copied().collect();
        seen.sort_unstable();
        assert_eq!(seen, (0..8).collect::<Vec<u32>>());
        for (i, workers) in all.iter().enumerate() {
            for &w in workers {
                assert_eq!(server_of(w, 3), i as u32);
            }
        }
    }
}
