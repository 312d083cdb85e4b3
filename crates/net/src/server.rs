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
//! Outbound, the wire path batches adaptively. A worker's
//! [`Fabric`] routes every remote worker and the client to a **socket
//! lane** — one per connection — where each frame is encoded once,
//! behind its unit header, into the packet the writer will put on the
//! socket. The lane is offered to the connection's writer queue when
//! it crosses a size watermark or when the worker's event loop closes
//! its batching window (nothing left to fold into the batch). The
//! writer thread drains its whole queue greedily and ships the packets
//! with one vectored write, then returns the packet buffers to the
//! [`PacketPool`] the lanes draw their spares from, so the steady-state
//! wire path allocates nothing.
//!
//! # Recovery and accounting
//!
//! The server runs the runtime's one supervisor
//! ([`hyperdex_runtime::runtime::supervise`]) over its local shards,
//! handing it a builder for that fabric: a crashed worker (scheduled
//! via [`CrashPoint`]) is respawned on the same inbox, its shard
//! replayed from a journal of the load frames this server received,
//! and released with `RepairDone`. At shutdown the server
//! prints a plain-text frame-conservation report (`WSTATS` per worker,
//! one `SSTATS`, then `REPORT_END`) that the cluster launcher
//! aggregates into the same [`hyperdex_runtime::ShutdownReport`] the
//! other executors use.

use std::collections::HashMap;
use std::io::{self, IoSlice, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{channel, sync_channel, Receiver, SyncSender};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

use hyperdex_core::KeywordHasher;
use hyperdex_hypercube::Shape;
use hyperdex_runtime::fault::{CrashPoint, FaultInjector, FaultPlan};
use hyperdex_runtime::runtime::{supervise, Journal, Spawner};
use hyperdex_runtime::wire::WireMsg;
use hyperdex_runtime::{Fabric, PacketPool, ShardMap};

use crate::stream::{count_units, StreamDecoder, CLIENT_DEST};

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

/// What inbound connections fed this server that it could not use —
/// input from outside the process, so counted, never asserted.
#[derive(Default)]
struct InboundAnomalies {
    /// Connections dropped on a stream that stopped parsing as units.
    streams_corrupt: AtomicU64,
    /// Units skipped because they named a worker not hosted here.
    units_misrouted: AtomicU64,
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
    anomalies: Arc<InboundAnomalies>,
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
                Err(_) => {
                    // Cannot be resynchronized: drop the connection.
                    anomalies.streams_corrupt.fetch_add(1, Ordering::Relaxed);
                    return;
                }
                Ok(Some((dest, frame))) => {
                    if inbox_tx.get(dest as usize).is_none_or(Option::is_none) {
                        anomalies.units_misrouted.fetch_add(1, Ordering::Relaxed);
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
    pool: PacketPool,
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
    // packet pool is shared by every worker's lanes and every writer;
    // `wire_lost` counts units a broken socket never delivered.
    let pool = PacketPool::default();
    let wire_lost = Arc::new(AtomicU64::new(0));
    let anomalies = Arc::new(InboundAnomalies::default());
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
        let anomalies = Arc::clone(&anomalies);
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
                    let anomalies = Arc::clone(&anomalies);
                    std::thread::Builder::new()
                        .name("hyperdex-net-reader".into())
                        .spawn(move || reader_loop(stream, inbox_tx, journal, anomalies))
                        .expect("spawn reader thread");
                }
            })
            .expect("spawn accept thread");
    }

    // Spawn the local shards, each behind its own view of the mesh:
    // an inbox lane to every co-located worker, one socket lane per
    // remote server carrying the units of all its workers, and one for
    // the client.
    let (event_tx, event_rx) = channel();
    let (servers, total) = (cfg.servers, cfg.total_workers);
    let spawner = Spawner {
        shape,
        hasher,
        shards,
        inbox_tx,
        fabric: move |inboxes: &[Option<SyncSender<Vec<u8>>>], worker: u32| {
            let mut fabric = Fabric::new(total as usize + 1, pool.clone());
            for (w, tx) in inboxes.iter().enumerate() {
                if let Some(tx) = tx.as_ref().filter(|_| w != worker as usize) {
                    fabric.inbox_lane(w, tx.clone());
                }
            }
            for (peer, tx) in peer_tx.iter().enumerate() {
                if let Some(tx) = tx {
                    let hosted = (0..total).filter(|&w| server_of(w, servers) as usize == peer);
                    fabric.socket_lane(tx.clone(), hosted.map(|w| (w as usize, w)));
                }
            }
            fabric.socket_lane(client_tx.clone(), [(total as usize, CLIENT_DEST)]);
            fabric
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
    sup.streams_corrupt = anomalies.streams_corrupt.load(Ordering::Relaxed);
    sup.units_misrouted = anomalies.units_misrouted.load(Ordering::Relaxed);

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
