//! Multi-process cluster launcher.
//!
//! [`Cluster::launch`] spawns one `hyperdex-server` process per
//! server over loopback, wires them into a mesh, and hands out
//! connected [`NetClient`]s. The handshake runs over the children's
//! stdio:
//!
//! ```text
//! child  -> LISTENING <addr>     (after binding an ephemeral port)
//! parent -> PEERS <a0> <a1> ...  (every server's address, in order)
//! child  -> READY                (mesh dialed, workers spawned)
//! ...
//! child  -> WSTATS ... / SSTATS ... / REPORT_END   (at shutdown)
//! ```
//!
//! [`Cluster::shutdown`] closes the loop: the client broadcasts
//! `Shutdown`, every server prints its conservation counters, and the
//! launcher folds them — plus the client's own ledger — into the same
//! [`ShutdownReport`] the in-process runtime produces, so
//! `assert_conserved` holds across process boundaries too.

use std::io::{self, BufRead, BufReader, Write};
use std::path::PathBuf;
use std::process::{Child, ChildStdout, Command, Stdio};

use hyperdex_core::{Error, StoreBackend};
use hyperdex_runtime::CrashPoint;
use hyperdex_runtime::{ShardPolicy, ShutdownReport, SupervisorStats, WorkerStats};

use crate::client::{NetClient, NetConfig};
use crate::server::server_of;

/// How a cluster is shaped. Mirrors
/// [`hyperdex_runtime::RuntimeConfig`] plus process placement.
#[derive(Debug, Clone)]
pub struct ClusterConfig {
    /// Hypercube dimension `r` (1 ..= 63).
    pub r: u8,
    /// Seed for hashing and shard placement.
    pub seed: u64,
    /// Worker shards across the whole cluster.
    pub total_workers: u32,
    /// Server processes hosting them (worker `w` lives on process
    /// `w % servers`).
    pub servers: u32,
    /// Inbox and writer-queue bound, in packets.
    pub capacity: usize,
    /// Zero-sized, selects nothing: `benchmark/` writes this field in
    /// its struct literal. Remove with [`ShardPolicy`].
    pub policy: ShardPolicy,
    /// Zero-sized, selects nothing: `benchmark/` writes this field in
    /// its struct literal. Remove with [`StoreBackend`].
    pub store: StoreBackend,
    /// Optional scheduled crash, exercised end-to-end over TCP.
    pub crash: Option<CrashPoint>,
    /// Explicit path to the `hyperdex-server` binary; resolved via
    /// [`server_binary`] when `None`.
    pub server_bin: Option<PathBuf>,
    /// Client-side timeouts and reconnect budget.
    pub net: NetConfig,
}

impl ClusterConfig {
    /// A small default cluster: callers set `servers`/`total_workers`.
    pub fn new(r: u8, seed: u64, total_workers: u32, servers: u32) -> ClusterConfig {
        ClusterConfig {
            r,
            seed,
            total_workers,
            servers,
            capacity: 64,
            policy: ShardPolicy::Prefix,
            store: StoreBackend::Slab,
            crash: None,
            server_bin: None,
            net: NetConfig::default(),
        }
    }
}

/// Locates the `hyperdex-server` binary when no explicit path is
/// given: a sibling of the current executable or of one of its
/// ancestors (covers `target/<profile>/` and test binaries living one
/// level down in `deps/`).
pub fn server_binary() -> io::Result<PathBuf> {
    let exe = std::env::current_exe()?;
    let name = format!("hyperdex-server{}", std::env::consts::EXE_SUFFIX);
    let mut dir = exe.parent();
    while let Some(d) = dir {
        let candidate = d.join(&name);
        if candidate.is_file() {
            return Ok(candidate);
        }
        dir = d.parent();
    }
    Err(io::Error::new(
        io::ErrorKind::NotFound,
        "hyperdex-server binary not found; build it with `cargo build -p hyperdex-net` \
         or set `ClusterConfig::server_bin`",
    ))
}

/// One launched server process with its report stream.
struct ServerProc {
    child: Child,
    stdout: BufReader<ChildStdout>,
}

impl ServerProc {
    /// Reads stdout lines until `want` returns a value.
    fn read_until<T>(
        &mut self,
        what: &str,
        mut want: impl FnMut(&str) -> Option<T>,
    ) -> io::Result<T> {
        let mut line = String::new();
        loop {
            line.clear();
            if self.stdout.read_line(&mut line)? == 0 {
                return Err(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    format!("server exited before printing {what}"),
                ));
            }
            if let Some(v) = want(line.trim_end()) {
                return Ok(v);
            }
        }
    }
}

/// A running multi-process cluster.
pub struct Cluster {
    cfg: ClusterConfig,
    addrs: Vec<String>,
    children: Vec<ServerProc>,
}

impl Cluster {
    /// Launches `cfg.servers` processes over loopback and completes
    /// the mesh handshake; returns once every server printed `READY`.
    ///
    /// # Errors
    ///
    /// [`io::ErrorKind::InvalidInput`], before any spawn, unless
    /// `1 <= servers <= total_workers`; else any spawn or handshake
    /// failure, including a missing server binary.
    pub fn launch(cfg: ClusterConfig) -> io::Result<Cluster> {
        if !(1..=cfg.total_workers).contains(&cfg.servers) {
            let shape = format!("{} servers for {} workers", cfg.servers, cfg.total_workers);
            return Err(io::Error::new(io::ErrorKind::InvalidInput, shape));
        }
        let bin = match &cfg.server_bin {
            Some(path) => path.clone(),
            None => server_binary()?,
        };
        let mut children = Vec::new();
        for index in 0..cfg.servers {
            let mut cmd = Command::new(&bin);
            cmd.arg("--index")
                .arg(index.to_string())
                .arg("--servers")
                .arg(cfg.servers.to_string())
                .arg("--listen")
                .arg("127.0.0.1:0")
                .arg("--r")
                .arg(cfg.r.to_string())
                .arg("--seed")
                .arg(cfg.seed.to_string())
                .arg("--workers")
                .arg(cfg.total_workers.to_string())
                .arg("--capacity")
                .arg(cfg.capacity.to_string())
                .stdin(Stdio::piped())
                .stdout(Stdio::piped())
                .stderr(Stdio::inherit());
            if let Some(crash) = cfg.crash {
                if server_of(crash.worker, cfg.servers) == index {
                    cmd.arg("--crash")
                        .arg(format!("{}@{}", crash.worker, crash.after_query_frames));
                }
            }
            let mut child = cmd.spawn()?;
            let stdout = BufReader::new(child.stdout.take().expect("piped stdout"));
            children.push(ServerProc { child, stdout });
        }
        // Collect every listen address, then tell each child the full
        // roster; they dial each other and report READY.
        let mut addrs = Vec::new();
        for proc in &mut children {
            let addr = proc.read_until("LISTENING", |l| {
                l.strip_prefix("LISTENING ").map(str::to_string)
            })?;
            addrs.push(addr);
        }
        let roster = format!("PEERS {}\n", addrs.join(" "));
        for proc in &mut children {
            let stdin = proc.child.stdin.as_mut().expect("piped stdin");
            stdin.write_all(roster.as_bytes())?;
            stdin.flush()?;
        }
        for proc in &mut children {
            proc.read_until("READY", |l| (l == "READY").then_some(()))?;
        }
        Ok(Cluster {
            cfg,
            addrs,
            children,
        })
    }

    /// The servers' listen addresses, in cluster order.
    pub fn addrs(&self) -> &[String] {
        &self.addrs
    }

    /// Connects a new client to every server of this cluster.
    ///
    /// # Errors
    ///
    /// [`Error::ConnectionLost`] when a server is unreachable.
    pub fn client(&self) -> Result<NetClient, Error> {
        NetClient::connect(
            &self.addrs,
            self.cfg.r,
            self.cfg.seed,
            self.cfg.total_workers,
            self.cfg.net,
        )
    }

    /// Shuts the cluster down through `client`: broadcasts `Shutdown`,
    /// collects every server's conservation report, reaps the
    /// processes, and folds everything into one [`ShutdownReport`].
    ///
    /// # Errors
    ///
    /// Client errors delivering the shutdown frames; I/O errors
    /// reading reports or reaping children.
    pub fn shutdown(mut self, client: NetClient) -> Result<ShutdownReport, Error> {
        let close = client.shutdown()?;
        let io_err = |e: io::Error| Error::ConnectionLost {
            endpoint: "cluster".into(),
            detail: e.to_string(),
        };
        let mut workers: Vec<WorkerStats> = Vec::new();
        let mut supervisor = SupervisorStats::default();
        for proc in &mut self.children {
            let (w, s) = proc
                .read_until("REPORT_END", {
                    let mut ws: Vec<WorkerStats> = Vec::new();
                    let mut ss = SupervisorStats::default();
                    move |line| {
                        if let Some(stat) = WorkerStats::parse_line(line) {
                            ws.push(stat);
                            None
                        } else if let Some(stat) = SupervisorStats::parse_line(line) {
                            ss = stat;
                            None
                        } else if line == "REPORT_END" {
                            Some((std::mem::take(&mut ws), std::mem::take(&mut ss)))
                        } else {
                            None
                        }
                    }
                })
                .map_err(io_err)?;
            workers.extend(w);
            supervisor.merge(&s);
        }
        for proc in &mut self.children {
            proc.child.wait().map_err(io_err)?;
        }
        let (client_sent, client_received) = close.finish();
        workers.sort_unstable_by_key(|w| w.worker);
        Ok(ShutdownReport {
            client_sent,
            client_received,
            workers,
            supervisor,
            lost: 0,
            copied: 0,
        })
    }
}

impl Drop for Cluster {
    fn drop(&mut self) {
        // Reaped children make kill a no-op error; this only matters
        // when launch or a test aborts midway.
        for proc in &mut self.children {
            let _ = proc.child.kill();
            let _ = proc.child.wait();
        }
    }
}
