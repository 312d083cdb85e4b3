//! # hyperdex-net — the runtime over real sockets
//!
//! TCP deployment of the shared-nothing runtime: the same workers,
//! frames, and conservation ledger as [`hyperdex_runtime`], spread
//! across OS processes instead of threads. Built entirely on
//! `std::net` — no external dependencies, loopback-friendly, offline.
//!
//! * [`stream`] — `[dest][frame]` units on the wire and a streaming
//!   decoder tolerant of arbitrary partial reads.
//! * [`server`] — the server process: worker shards behind a listener
//!   (a crashed one restarts itself in place), a directed mesh between
//!   servers, a reader per connection that reads its hello, a client
//!   writer that answers on the newest client connection, and a
//!   plain-text conservation report at shutdown.
//! * [`client`] — the client library: typed [`hyperdex_core::Error`]
//!   results (`ConnectionLost`, `Timeout`), request deadlines, and
//!   reconnect with exponential backoff.
//! * [`cluster`] — multi-process launcher over loopback with a stdio
//!   handshake, folding every process's counters into one
//!   [`hyperdex_runtime::ShutdownReport`].
//!
//! Traversal traffic rides the mesh as `RegionQuery`/`RegionDone`
//! frames: one round trip per worker owning part of a query's subcube
//! rather than one per vertex, so the socket-mode frame count — and
//! with it the per-unit overhead this crate pays on every
//! `[dest][frame]` unit — is bounded by the worker count; with prefix
//! shard placement most hops never reach a socket at all.

pub mod client;
pub mod cluster;
pub mod server;
pub mod stream;

pub use client::{ClientClose, NetClient, NetConfig};
pub use cluster::{server_binary, Cluster, ClusterConfig};
pub use server::{local_workers, server_of, ServerConfig};
pub use stream::{StreamDecoder, Unit, CLIENT_DEST};
