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
//! thread that reads its 4-byte hello (one that ends before it is a
//! corrupt stream), then reads straight into the [`StreamDecoder`]'s buffer,
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
//! The server hosts its local shards on the runtime's worker threads
//! ([`hyperdex_runtime::Host`]), one [`Fabric`] each. A worker a
//! [`CrashPoint`] names restarts itself in place from the load log it
//! keeps — this module never looks inside a frame, and has no crash
//! branch. What outlives a connection goes to its successor: the
//! client's writer queue is handed every client connection accepted
//! and answers on the newest, so a client that re-dials a live server
//! is served. At shutdown the
//! server prints a plain-text frame-conservation report (`WSTATS` per
//! worker, one `SSTATS`, then `REPORT_END`) that the cluster launcher
//! aggregates into the same [`hyperdex_runtime::ShutdownReport`] the
//! other executors use.

use std::io::{self, IoSlice, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{channel, sync_channel, Receiver, Sender, SyncSender};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use hyperdex_core::KeywordHasher;
use hyperdex_runtime::CrashPoint;
use hyperdex_runtime::{Fabric, Host, PacketPool, ShardMap, WorkerContext};

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
    /// Connections dropped on a stream that stopped parsing as units,
    /// or that ended before its hello did.
    streams_corrupt: AtomicU64,
    /// Units skipped because they named a worker not hosted here.
    units_misrouted: AtomicU64,
}

/// Reads one inbound connection: its 4-byte hello — a client's stream
/// is handed to the client writer through `client_streams` — then its
/// units, delivered to local worker inboxes. Each read lands straight
/// in the decoder's buffer ([`StreamDecoder::fill_from`]); the decoded
/// units of one read batch are grouped per destination worker and
/// delivered as one multi-frame packet per `(batch, worker)`: the
/// group's buffer itself, replaced from `pool`, which the workers
/// refill with the packets they have consumed. Blocking sends are the
/// backpressure valve: a full inbox stalls this reader, which stalls
/// the remote writer through TCP flow control.
fn reader_loop(
    mut stream: TcpStream,
    inbox_tx: Vec<Option<SyncSender<Vec<u8>>>>,
    pool: PacketPool,
    anomalies: Arc<InboundAnomalies>,
    client_streams: Sender<TcpStream>,
) {
    // Read here, not where connections are accepted: a peer that says
    // nothing holds up no connection but its own.
    let mut hello = [0u8; 4];
    if stream.read_exact(&mut hello).is_err() {
        anomalies.streams_corrupt.fetch_add(1, Ordering::Relaxed);
        return;
    }
    if u32::from_le_bytes(hello) == CLIENT_DEST {
        // Replies flow back on the same socket.
        let Ok(out) = stream.try_clone() else { return };
        let _ = client_streams.send(out);
    }
    let mut dec = StreamDecoder::new();
    // Per-dest frame groups for the current read batch; a group that
    // ships is refilled from the pool, so the steady state allocates
    // nothing.
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
        for (dest, packet) in &mut groups[..used] {
            if packet.is_empty() {
                continue;
            }
            let tx = inbox_tx[*dest as usize].as_ref().expect("checked above");
            if tx.send(std::mem::replace(packet, pool.take())).is_err() {
                return;
            }
        }
    }
}

/// Drains a writer queue into the newest socket `streams` has handed
/// it: greedily gathers everything queued (`try_recv` loop) and ships
/// the whole batch with vectored writes, then recycles the packet
/// buffers through the shared pool. The queue outlives any one
/// connection: a peer's writer is handed the one dialed stream, the
/// client's every client connection accepted. Exits when every sender
/// is gone and the queue is empty — packets queued before disconnect
/// are still delivered. With no socket yet, or once it died, the loop
/// keeps receiving (so senders never wedge) and counts every
/// undelivered unit into `lost` for the conservation report.
fn writer_loop(
    rx: Receiver<Vec<u8>>,
    streams: Receiver<TcpStream>,
    pool: PacketPool,
    lost: Arc<AtomicU64>,
) {
    let mut batch: Vec<Vec<u8>> = Vec::new();
    let mut stream: Option<TcpStream> = None;
    while let Ok(first) = rx.recv() {
        batch.push(first);
        while let Ok(more) = rx.try_recv() {
            batch.push(more);
        }
        if let Some(newest) = streams.try_iter().last() {
            stream = Some(newest);
        }
        if stream
            .as_mut()
            .is_none_or(|stream| write_batch(stream, &batch).is_err())
        {
            stream = None;
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
/// shards, and print the conservation report on stdout once every
/// local worker has shut down.
///
/// `peer_addrs` lists every server's listen address in cluster order
/// (including this server's own, which is ignored).
///
/// # Errors
///
/// Propagates socket errors from the mesh dial; once the fabric is up
/// nothing fails the run: a crashed worker restarts itself.
pub fn run(cfg: ServerConfig, listener: TcpListener, peer_addrs: &[String]) -> io::Result<()> {
    let hasher = KeywordHasher::new(cfg.r, cfg.seed).expect("validated r");
    let shards = ShardMap::new(cfg.r, cfg.total_workers, cfg.seed);
    let local = local_workers(cfg.total_workers, cfg.servers, cfg.index);
    let cap = cfg.capacity.max(1);

    // Inboxes for local workers, addressed by global index.
    let mut inbox_tx: Vec<Option<SyncSender<Vec<u8>>>> =
        (0..cfg.total_workers).map(|_| None).collect();
    let mut inbox_rx: Vec<Receiver<Vec<u8>>> = Vec::with_capacity(local.len());
    for &w in &local {
        let (tx, rx) = sync_channel::<Vec<u8>>(cap);
        inbox_tx[w as usize] = Some(tx);
        inbox_rx.push(rx);
    }

    // Writer queues: one per remote server, one for the client.
    let mut peer_tx: Vec<Option<SyncSender<Vec<u8>>>> = (0..cfg.servers).map(|_| None).collect();
    let (client_tx, client_rx) = sync_channel::<Vec<u8>>(cap * cfg.total_workers.max(1) as usize);

    // Dial the mesh and start one writer per writer queue, the
    // client's included: a queue outlives its connections. The packet
    // pool is shared by every worker's lanes and every writer;
    // `wire_lost` counts units no live socket delivered.
    let pool = PacketPool::default();
    let wire_lost = Arc::new(AtomicU64::new(0));
    let anomalies = Arc::new(InboundAnomalies::default());
    let mut writers: Vec<JoinHandle<()>> = Vec::new();
    let mut writer = |name: String, rx| {
        let (stream_tx, streams) = channel();
        let (pool, lost) = (pool.clone(), Arc::clone(&wire_lost));
        writers.push(
            std::thread::Builder::new()
                .name(name)
                .spawn(move || writer_loop(rx, streams, pool, lost))
                .expect("spawn writer thread"),
        );
        stream_tx
    };
    for j in 0..cfg.servers {
        if j == cfg.index {
            continue;
        }
        let mut stream = dial(&peer_addrs[j as usize])?;
        stream.set_nodelay(true).ok();
        stream.write_all(&cfg.index.to_le_bytes())?;
        let (tx, rx) = sync_channel::<Vec<u8>>(cap * local.len().max(1));
        peer_tx[j as usize] = Some(tx);
        writer(format!("hyperdex-net-writer-{}-{j}", cfg.index), rx)
            .send(stream)
            .expect("writer just started");
    }
    let client_streams = writer("hyperdex-net-client-writer".into(), client_rx);

    // Accept loop: every connection gets a reader, which reads its
    // hello; a client's stream is also handed to the client writer,
    // which from then on answers on it.
    {
        let inbox_tx = inbox_tx.clone();
        let pool = pool.clone();
        let anomalies = Arc::clone(&anomalies);
        std::thread::Builder::new()
            .name(format!("hyperdex-net-accept-{}", cfg.index))
            .spawn(move || {
                for conn in listener.incoming() {
                    let Ok(stream) = conn else { return };
                    stream.set_nodelay(true).ok();
                    let inbox_tx = inbox_tx.clone();
                    let pool = pool.clone();
                    let anomalies = Arc::clone(&anomalies);
                    let client_streams = client_streams.clone();
                    std::thread::Builder::new()
                        .name("hyperdex-net-reader".into())
                        .spawn(move || {
                            reader_loop(stream, inbox_tx, pool, anomalies, client_streams)
                        })
                        .expect("spawn reader thread");
                }
            })
            .expect("spawn accept thread");
    }

    // Host the local shards, each behind its own view of the mesh: an
    // inbox lane to every co-located worker, one socket lane per remote
    // server carrying the units of all its workers, and one for the
    // client. The crash point, if any, names one of them.
    let (servers, total) = (cfg.servers, cfg.total_workers);
    let host = Host::start(local.iter().zip(inbox_rx).map(|(&worker, inbox)| {
        let mut fabric = Fabric::new(total as usize + 1, pool.clone());
        for (w, tx) in inbox_tx.iter().enumerate() {
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
        let ctx = WorkerContext::new(worker, hasher, shards, cfg.crash.as_slice());
        (ctx, fabric, inbox)
    }));
    println!("READY");
    io::stdout().flush().ok();

    // Wait for the client's `Shutdown` frames to stop every local
    // worker; closing the writer queues then (the workers' lanes went
    // with them) lets the writer threads finish flushing and exit.
    let (stats, mut sup) = host.join();
    drop((peer_tx, client_tx));
    for handle in writers {
        let _ = handle.join();
    }
    // Units no live socket delivered count as drained: they
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
