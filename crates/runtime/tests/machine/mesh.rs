//! The scripts' side of the virtual-time mesh
//! ([`hyperdex_runtime::Mesh`], the library's driver): the production
//! [`ClientCore`] over a mesh the test keeps a handle on, and what only
//! a script asks of a mesh — a quiet one, a key's owner, the client's
//! inbox, the frames that crossed between workers.
//!
//! A script that needs one exact interleaving holds a lane
//! ([`Mesh::hold`]): its packets queue up unscheduled until released,
//! lost ([`Mesh::lose`]) or taken ([`Mesh::take_held`]), and the next
//! packet on a lane can be made to arrive twice ([`Mesh::copy_next`]).
//! A [`MeshRuntime`] dropped by a panicking test prints its label (the
//! seed and script, when the caller set one) and every packet the mesh
//! delivered.

use std::cell::RefCell;
use std::rc::Rc;
use std::time::Duration;

use hyperdex_core::{Error, KeywordSet};
use hyperdex_runtime::wire::WireMsg;
use hyperdex_runtime::{ClientCore, ClientLink, FaultPlan, RuntimeConfig, ShutdownReport};
use hyperdex_simnet::LatencyModel;

pub use hyperdex_runtime::mesh::{decode_all, Trace};
pub use hyperdex_runtime::Mesh;

/// What a script asks of a mesh beyond driving it.
pub trait Script {
    /// A fault-free mesh with latencies of 1–3 ms.
    fn quiet(r: u8, workers: u32, seed: u64) -> Mesh;

    /// The worker owning `F_h(keywords)`.
    fn owner(&self, keywords: &KeywordSet) -> u32;

    /// Plain queries given up plus worker restarts, so far: what a
    /// request nobody answered is accounted by.
    fn unanswered(&self) -> u64;

    /// Takes what the client has been sent so far.
    fn replies(&mut self) -> Vec<WireMsg>;

    /// The worker → worker frames delivered since the trace was
    /// `since` long.
    fn crossed_since(&self, since: usize) -> Vec<WireMsg>;
}

impl Script for Mesh {
    fn quiet(r: u8, workers: u32, seed: u64) -> Mesh {
        Mesh::start(
            RuntimeConfig::new(r, workers).seed(seed),
            FaultPlan::default(),
            LatencyModel::uniform(1, 3),
            seed,
        )
    }

    fn owner(&self, keywords: &KeywordSet) -> u32 {
        self.shards
            .owner_of(self.hasher.vertex_for(keywords).bits())
    }

    fn unanswered(&self) -> u64 {
        (0..self.shards.workers() as usize)
            .map(|index| self.stats(index))
            .map(|w| w.queries_abandoned + w.respawns)
            .sum()
    }

    fn replies(&mut self) -> Vec<WireMsg> {
        self.inbox.drain(..).collect()
    }

    fn crossed_since(&self, since: usize) -> Vec<WireMsg> {
        let workers = self.shards.workers() as usize;
        self.trace[since..]
            .iter()
            .filter(|(_, from, to, _)| *from < workers && *to < workers)
            .flat_map(|(_, _, _, packet)| decode_all(packet))
            .collect()
    }
}

/// The mesh as the production client's link, shared with the test that
/// scripts and inspects it.
#[derive(Clone)]
pub struct MeshLink(pub Rc<RefCell<Mesh>>);

impl ClientLink for MeshLink {
    fn queue(&mut self, worker: u32, msg: &WireMsg) {
        self.0.borrow_mut().queue(worker, msg);
    }

    fn queued_bytes(&self) -> usize {
        self.0.borrow().queued_bytes()
    }

    fn ship(&mut self) -> Result<(), Error> {
        self.0.borrow_mut().ship()
    }

    fn now(&self) -> Duration {
        self.0.borrow().now()
    }

    fn recv(
        &mut self,
        deadline: Option<Duration>,
        awaiting: Option<u32>,
    ) -> Result<Option<WireMsg>, Error> {
        self.0.borrow_mut().recv(deadline, awaiting)
    }
}

/// Longer than anything a worker does on its own (a plain query is
/// given up after 15 s, and one that started over after twice that): a request that times out under it was never going to be
/// answered.
pub const REQUEST_TIMEOUT: Duration = Duration::from_secs(60);

/// What [`hyperdex_runtime::NodeRuntime`] is to worker threads, to a
/// mesh: the production [`ClientCore`] over it (every request method
/// is the core's own, by deref), and the mesh itself for the test to
/// script and inspect.
pub struct MeshRuntime {
    pub core: ClientCore<MeshLink>,
    pub mesh: Rc<RefCell<Mesh>>,
    /// Printed with the trace when a test panics.
    pub label: String,
}

impl MeshRuntime {
    pub fn over(mesh: Mesh) -> MeshRuntime {
        let (hasher, shards) = (mesh.hasher, mesh.shards);
        let mesh = Rc::new(RefCell::new(mesh));
        let link = MeshLink(Rc::clone(&mesh));
        MeshRuntime {
            core: ClientCore::new(hasher, shards, link, Some(REQUEST_TIMEOUT)),
            mesh,
            label: String::new(),
        }
    }

    /// A fault-free mesh ([`Script::quiet`]) and its client.
    pub fn start(r: u8, workers: u32, seed: u64) -> MeshRuntime {
        MeshRuntime::over(Mesh::quiet(r, workers, seed))
    }

    /// [`Script::quiet`]'s latencies under `plan`.
    pub fn faulted(r: u8, workers: u32, seed: u64, plan: FaultPlan) -> MeshRuntime {
        let cfg = RuntimeConfig::new(r, workers).seed(seed);
        MeshRuntime::over(Mesh::start(cfg, plan, LatencyModel::uniform(1, 3), seed))
    }

    /// The barrier: load frames and `Flush` are never lost, so it
    /// cannot fail.
    pub fn flush(&mut self) {
        self.core.flush().expect("every worker acks a barrier");
    }

    /// The barrier, then [`Mesh::shutdown`].
    pub fn shutdown(mut self) -> ShutdownReport {
        self.flush();
        let report = self.mesh.borrow_mut().shutdown();
        report
    }
}

impl Drop for MeshRuntime {
    fn drop(&mut self) {
        if !std::thread::panicking() {
            return;
        }
        let Ok(mesh) = self.mesh.try_borrow() else {
            return;
        };
        eprintln!("mesh {}", self.label);
        for (tick, from, to, packet) in &mesh.trace {
            let mut frames = format!("{:?}", decode_all(packet));
            frames.truncate(160);
            eprintln!("  t={tick} {from} → {to} {frames}");
        }
    }
}

impl std::ops::Deref for MeshRuntime {
    type Target = ClientCore<MeshLink>;

    fn deref(&self) -> &Self::Target {
        &self.core
    }
}

impl std::ops::DerefMut for MeshRuntime {
    fn deref_mut(&mut self) -> &mut Self::Target {
        &mut self.core
    }
}
