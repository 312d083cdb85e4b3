//! The `hyperdex-server` process: worker shards behind one listener.
//!
//! Usage (normally driven by the cluster launcher, not by hand):
//!
//! ```text
//! hyperdex-server --index 0 --servers 2 --listen 127.0.0.1:0 \
//!     --r 12 --seed 42 --workers 4 --capacity 64 \
//!     [--crash W@N]
//! ```
//!
//! The process binds, prints `LISTENING <addr>`, reads one
//! `PEERS <a0> <a1> ...` line from stdin (every server's address in
//! cluster order), dials the mesh, prints `READY`, and serves until a
//! client broadcasts `Shutdown` — at which point it prints its
//! conservation report (`WSTATS`/`SSTATS`/`REPORT_END`) and exits.

use std::io::{self, BufRead, Write};
use std::net::TcpListener;
use std::process::ExitCode;

use hyperdex_net::server::{self, ServerConfig};
use hyperdex_runtime::CrashPoint;

fn usage(detail: &str) -> ExitCode {
    eprintln!("hyperdex-server: {detail}");
    eprintln!(
        "usage: hyperdex-server --index I --servers N --listen ADDR \
         --r R --seed S --workers W --capacity C [--crash W@N]"
    );
    ExitCode::FAILURE
}

/// Parses a `W@N` crash spec.
fn parse_crash(spec: &str) -> Option<CrashPoint> {
    let (w, n) = spec.split_once('@')?;
    Some(CrashPoint {
        worker: w.parse().ok()?,
        after_query_frames: n.parse().ok()?,
    })
}

fn main() -> ExitCode {
    let mut index: Option<u32> = None;
    let mut servers: Option<u32> = None;
    let mut listen = String::from("127.0.0.1:0");
    let mut r: Option<u8> = None;
    let mut seed: u64 = 0;
    let mut workers: Option<u32> = None;
    let mut capacity: usize = 64;
    let mut crash: Option<CrashPoint> = None;

    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let Some(value) = args.next() else {
            return usage(&format!("flag {flag} needs a value"));
        };
        let ok = match flag.as_str() {
            "--index" => value.parse().map(|v| index = Some(v)).is_ok(),
            "--servers" => value.parse().map(|v| servers = Some(v)).is_ok(),
            "--listen" => {
                listen = value;
                true
            }
            "--r" => value.parse().map(|v| r = Some(v)).is_ok(),
            "--seed" => value.parse().map(|v| seed = v).is_ok(),
            "--workers" => value.parse().map(|v| workers = Some(v)).is_ok(),
            "--capacity" => value.parse().map(|v| capacity = v).is_ok(),
            "--crash" => {
                crash = parse_crash(&value);
                crash.is_some()
            }
            other => return usage(&format!("unknown flag {other}")),
        };
        if !ok {
            return usage(&format!("bad value for {flag}"));
        }
    }
    let (Some(index), Some(servers), Some(r), Some(workers)) = (index, servers, r, workers) else {
        return usage("--index, --servers, --r, and --workers are required");
    };
    if index >= servers {
        return usage("--index must be below --servers");
    }
    if workers < servers {
        return usage("--workers must be at least --servers: each server hosts a worker");
    }

    let listener = match TcpListener::bind(&listen) {
        Ok(l) => l,
        Err(e) => {
            eprintln!("hyperdex-server: bind {listen}: {e}");
            return ExitCode::FAILURE;
        }
    };
    let addr = listener.local_addr().expect("bound socket has an address");
    println!("LISTENING {addr}");
    io::stdout().flush().ok();

    // One PEERS line from the launcher: every server's address.
    let mut line = String::new();
    if io::stdin().lock().read_line(&mut line).is_err() {
        return usage("could not read PEERS line from stdin");
    }
    let Some(rest) = line.trim_end().strip_prefix("PEERS ") else {
        return usage("expected a PEERS line on stdin");
    };
    let peer_addrs: Vec<String> = rest.split_whitespace().map(str::to_string).collect();
    if peer_addrs.len() != servers as usize {
        return usage("PEERS line does not list every server");
    }

    let cfg = ServerConfig {
        index,
        servers,
        r,
        seed,
        total_workers: workers,
        capacity,
        crash,
    };
    match server::run(cfg, listener, &peer_addrs) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("hyperdex-server: {e}");
            ExitCode::FAILURE
        }
    }
}
