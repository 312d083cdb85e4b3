//! `hyperdex-runtime`: the hypercube keyword index on real OS threads.
//!
//! Everything the repo reproduced from the paper so far — pin lookup,
//! SBT superset traversal, inserts — executes here on a multithreaded
//! **shared-nothing** cluster: worker threads own disjoint vertex
//! shards, exchange length-prefixed protocol frames over bounded
//! channels with explicit backpressure, and answer a superset search
//! with exactly what the single-threaded simulator's
//! [`hyperdex_core::protocol::SupersetCoordinator`] folds — each
//! worker walks its regions of the subcube in that machine's visit
//! order, ranking each vertex's matches as every executor does
//! (`core::protocol::scan_store`), the root's owner merges — which is
//! what lets the test suites demand the same answer, id for id in
//! order, at every worker count.
//!
//! The cluster also survives being hurt: a worker a [`CrashPoint`]
//! names restarts itself in place from its shard's load log, and
//! every superset traversal holds the region owners it waits for to
//! deadlines on its driver's clock under the retry rule the
//! simulator's recovery machine reads too
//! ([`hyperdex_core::RetryBudget::attempt_timeout`]), with one of two
//! constant budgets the request's kind picks; a fault-tolerant search
//! ([`ClientCore::superset_search_ft`]) gets an exact account of what
//! was covered. Lost, copied and delayed frames are a wire's faults:
//! the [`mesh`] deals them.
//!
//! Module map:
//!
//! * [`client_core`] — the client half of the request protocol
//!   ([`ClientCore`]) over a five-method link ([`ClientLink`], which
//!   is also its clock); the in-process handle and `hyperdex-net`'s
//!   TCP client are both thin shells around it.
//! * [`wire`] — the hand-rolled length-prefixed codec; the thread
//!   boundary is byte-defined, like a socket. Also the one reader of a
//!   frame's envelope: its length prefix, a packet's split into frames
//!   and a socket unit's `[dest]` header.
//! * [`shard`] — pure, seeded vertex → worker ownership.
//! * [`transport`] — the worker fabric ([`Fabric`]): one lane per
//!   destination, each frame encoded once into the packet that
//!   travels; inbox lanes for co-located sinks, socket lanes for the
//!   writer queues `hyperdex-net` hangs behind them. Lanes only: it
//!   reads no frame.
//! * [`worker`] — the shard-owning worker as a clockless, loop-less
//!   machine ([`NodeMachine`]): a driver hands it packets and the
//!   time. The same code in-process, inside a server binary, and on
//!   the mesh.
//! * [`runtime`] — the thread driver ([`run_worker`]), the worker
//!   threads every deployment hosts them on ([`Host`]), the in-process
//!   handle (the client core over the channel link), the
//!   shutdown/conservation protocol.
//! * [`mesh`] — the virtual-time driver ([`Mesh`]): N machines and the
//!   production client in one thread over `hyperdex-simnet`, its wire
//!   dealing seeded drop/duplicate/delay fates ([`FaultPlan`]); the
//!   `faults` experiment and the machine test suite run on it.
//!
//! ```
//! use hyperdex_runtime::{NodeRuntime, RuntimeConfig};
//! use hyperdex_core::{KeywordSet, ObjectId};
//!
//! let mut rt = NodeRuntime::start(RuntimeConfig::new(8, 4))?;
//! let keywords = KeywordSet::parse("rust p2p")?;
//! rt.bulk_load([(ObjectId::from_raw(1), &keywords)])?;
//! rt.flush();
//! assert_eq!(rt.pin_search(&keywords).len(), 1);
//! let report = rt.shutdown();
//! report.assert_conserved();
//! # Ok::<(), hyperdex_core::Error>(())
//! ```

#![warn(missing_docs)]

pub mod client_core;
pub mod mesh;
pub mod runtime;
pub mod shard;
pub mod transport;
pub mod wire;
pub mod worker;

pub use client_core::{
    BatchResult, ClientCore, ClientLink, FtSearchOutcome, Request, RuntimeMatch,
};
pub use mesh::{FaultPlan, Mesh};
pub use runtime::{run_worker, Host, NodeRuntime, RuntimeConfig, ShutdownReport, SupervisorStats};
pub use shard::{ShardMap, ShardPolicy};
pub use transport::{Fabric, PacketPool};
pub use wire::{WireError, WireMsg};
pub use worker::{CrashPoint, Flow, NodeMachine, WorkerContext, WorkerStats};
