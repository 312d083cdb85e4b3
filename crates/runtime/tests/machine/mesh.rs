//! The deterministic driver: N [`NodeMachine`]s in one thread, under
//! `hyperdex-simnet`'s virtual time (1 tick = 1 ms).
//!
//! Every machine keeps its real [`Fabric`] — the in-process one,
//! [`Fabric::inboxes`] — and the mesh holds the far end of every lane.
//! After a machine's turn the mesh offers its lanes once, lifts the
//! packets off and posts each on the simulated network with a seeded
//! latency; a delivery for lane `a → b` hands `b` that lane's *oldest*
//! undelivered packet, so a lane is FIFO (a channel and a TCP stream
//! both are, and the flush barrier rests on it) and what the seed
//! permutes is the order *across* lanes. Each machine has one timer, at
//! its [`NodeMachine::next_deadline`]. A machine's own [`FaultInjector`]
//! rolls drop, duplicate, delay and crash, and a crash is the machine's
//! business: it restarts in place, from its own load log, inside the
//! `receive` that met the crash point — the production restart, with
//! nothing of the mesh's own in between.
//!
//! The mesh is a [`ClientLink`] ([`MeshLink`]), so the client under
//! test is the production [`ClientCore`]: a wait nobody answers ends
//! when virtual time reaches its deadline, at no wall-clock cost.
//!
//! A script that needs one exact interleaving holds a lane
//! ([`Mesh::hold`]): its packets queue up unscheduled until released,
//! lost ([`Mesh::lose`]) or taken ([`Mesh::take_held`]), and the next
//! packet on a lane can be made to arrive twice ([`Mesh::copy_next`]).
//!
//! Every packet delivered is recorded as `(tick, from, to, packet)`; a
//! mesh dropped by a panicking test prints its label (the seed and
//! script, when the caller set one) and that trace.

use std::cell::RefCell;
use std::collections::{BTreeMap, VecDeque};
use std::rc::Rc;
use std::sync::mpsc::{sync_channel, Receiver, SyncSender};
use std::time::Duration;

use hyperdex_core::{Error, KeywordHasher, KeywordSet};
use hyperdex_runtime::wire::WireMsg;
use hyperdex_runtime::{
    count_frames, take_frame, ClientCore, ClientLink, Fabric, FaultPlan, Flow, NodeMachine,
    RuntimeConfig, ShardMap, ShutdownReport, SupervisorStats, WorkerContext, WorkerStats,
};
use hyperdex_simnet::net::{NetEvent, TimerId};
use hyperdex_simnet::{EndpointId, LatencyModel, NetMetrics, Network, SimDuration};

/// One `(tick, from, to, packet)` per delivery. Endpoints `0..W` are
/// the workers, `W` the client.
pub type Trace = Vec<(u64, usize, usize, Vec<u8>)>;

/// A timer further out than this is never armed: 35 years is forever,
/// and the simulator's clock must not overflow on the way there.
const FOREVER_TICKS: u64 = 1 << 40;

/// The frames of a well-formed packet.
pub fn decode_all(packet: &[u8]) -> Vec<WireMsg> {
    let mut out = Vec::new();
    let mut rest = packet;
    while !rest.is_empty() {
        let (frame, tail) = take_frame(rest).expect("workers emit whole frames");
        out.push(WireMsg::decode_exact(frame).expect("workers emit valid frames"));
        rest = tail;
    }
    out
}

/// One directed lane `from → to`: what was posted and not yet
/// delivered, oldest first.
#[derive(Default)]
struct Lane {
    queue: VecDeque<Vec<u8>>,
    /// `Some(n)` while held: the last `n` packets of `queue` have no
    /// delivery scheduled.
    held: Option<usize>,
    copy_next: bool,
}

/// What one [`Mesh::step`] did.
enum Stepped {
    Event,
    /// The timer a client wait set has fired.
    ClientDeadline,
}

/// N machines, the network between them and a client inbox.
pub struct Mesh {
    pub hasher: KeywordHasher,
    pub shards: ShardMap,
    workers: usize,
    /// `None` once the machine has left (`Shutdown`).
    nodes: Vec<Option<NodeMachine>>,
    /// Per worker: the counters it left with.
    left: Vec<WorkerStats>,
    /// Per worker: the far ends of its fabric's lanes, by destination.
    sinks: Vec<Vec<Option<Receiver<Vec<u8>>>>>,
    /// Per worker: the near ends, to build a twin on.
    links: Vec<Vec<Option<SyncSender<Vec<u8>>>>>,
    lanes: BTreeMap<(usize, usize), Lane>,
    net: Network<(), ()>,
    /// The network endpoint of worker `i`, the client's last.
    endpoints: Vec<EndpointId>,
    /// Per worker: the deadline its one timer is armed for.
    timers: Vec<Option<(Duration, TimerId)>>,
    queued: Vec<(u32, Vec<u8>)>,
    inbox: VecDeque<WireMsg>,
    pub client_sent: u64,
    pub client_received: u64,
    /// Frames that arrived for a machine that had left.
    pub drained: u64,
    /// Frames the script removed from a held lane.
    pub lost: u64,
    /// Extra copies the script made.
    pub copied: u64,
    /// Worker → worker frames delivered.
    pub crossed: u64,
    pub trace: Trace,
    /// Printed with the trace when a test panics.
    pub label: String,
}

impl Mesh {
    /// `cfg.workers` machines of an `r`-cube under `plan`; `net_seed`
    /// seeds the latencies, drawn from `latency`.
    pub fn start(
        cfg: RuntimeConfig,
        plan: FaultPlan,
        latency: LatencyModel,
        net_seed: u64,
    ) -> Mesh {
        let workers = cfg.workers.max(1) as usize;
        let mut net = Network::new(latency, net_seed);
        let endpoints = (0..=workers).map(|_| net.add_endpoint()).collect();
        let mut mesh = Mesh {
            hasher: KeywordHasher::new(cfg.r, cfg.seed).expect("valid r"),
            shards: cfg.shard_map(),
            workers,
            nodes: Vec::new(),
            left: vec![WorkerStats::default(); workers],
            sinks: Vec::new(),
            links: Vec::new(),
            lanes: BTreeMap::new(),
            net,
            endpoints,
            timers: vec![None; workers],
            queued: Vec::new(),
            inbox: VecDeque::new(),
            client_sent: 0,
            client_received: 0,
            drained: 0,
            lost: 0,
            copied: 0,
            crossed: 0,
            trace: Vec::new(),
            label: String::new(),
        };
        for index in 0..workers {
            // One offer a turn and every packet lifted at once: a lane
            // never holds more than one.
            let (links, sinks): (Vec<_>, Vec<_>) = (0..=workers)
                .map(|dest| match dest == index {
                    true => (None, None),
                    false => {
                        let (tx, rx) = sync_channel(1);
                        (Some(tx), Some(rx))
                    }
                })
                .unzip();
            mesh.links.push(links);
            mesh.sinks.push(sinks);
            let node = mesh.machine(index, &plan);
            mesh.nodes.push(Some(node));
        }
        mesh
    }

    /// A fault-free mesh with latencies of 1–3 ms.
    pub fn quiet(r: u8, workers: u32, seed: u64) -> Mesh {
        Mesh::start(
            RuntimeConfig::new(r, workers).seed(seed),
            FaultPlan::default(),
            LatencyModel::uniform(1, 3),
            seed,
        )
    }

    fn machine(&self, index: usize, plan: &FaultPlan) -> NodeMachine {
        let ctx = WorkerContext::new(index as u32, self.hasher, self.shards, plan);
        NodeMachine::new(ctx, Fabric::inboxes(self.links[index].clone()))
    }

    fn client(&self) -> usize {
        self.workers
    }

    /// Virtual time.
    pub fn now(&self) -> Duration {
        Duration::from_millis(self.net.now().ticks())
    }

    /// The worker owning `F_h(keywords)`.
    pub fn owner(&self, keywords: &KeywordSet) -> u32 {
        self.shards
            .owner_of(self.hasher.vertex_for(keywords).bits())
    }

    // -----------------------------------------------------------
    // Lanes
    // -----------------------------------------------------------

    /// Puts `packet` on lane `from → to`: queued, and — unless the
    /// lane is held — a delivery scheduled.
    fn post(&mut self, from: usize, to: usize, packet: Vec<u8>) {
        let lane = self.lanes.entry((from, to)).or_default();
        let copies = if std::mem::take(&mut lane.copy_next) {
            self.copied += count_frames(&packet);
            2
        } else {
            1
        };
        for _ in 0..copies {
            lane.queue.push_back(packet.clone());
            match &mut lane.held {
                Some(unscheduled) => *unscheduled += 1,
                None => self.net.send(self.endpoints[from], self.endpoints[to], ()),
            }
        }
    }

    /// Holds lane `from → to`: what is posted on it from now on waits.
    pub fn hold(&mut self, from: usize, to: usize) {
        let lane = self.lanes.entry((from, to)).or_default();
        lane.held.get_or_insert(0);
    }

    /// The frames waiting on held lane `from → to`.
    pub fn held(&self, from: usize, to: usize) -> Vec<WireMsg> {
        let Some(lane) = self.lanes.get(&(from, to)) else {
            return Vec::new();
        };
        let unscheduled = lane.held.unwrap_or(0);
        lane.queue
            .iter()
            .skip(lane.queue.len() - unscheduled)
            .flat_map(|packet| decode_all(packet))
            .collect()
    }

    /// Takes what waits on held lane `from → to` off it, for good.
    pub fn take_held(&mut self, from: usize, to: usize) -> Vec<WireMsg> {
        let frames = self.held(from, to);
        let lane = self.lanes.get_mut(&(from, to)).expect("a held lane");
        let unscheduled = lane.held.replace(0).expect("a held lane");
        lane.queue.truncate(lane.queue.len() - unscheduled);
        self.lost += frames.len() as u64;
        frames
    }

    /// Loses what waits on held lane `from → to`.
    pub fn lose(&mut self, from: usize, to: usize) {
        self.take_held(from, to);
    }

    /// Releases lane `from → to`: what waited travels, in order.
    pub fn release(&mut self, from: usize, to: usize) {
        let lane = self.lanes.get_mut(&(from, to)).expect("a held lane");
        for _ in 0..lane.held.take().expect("a held lane") {
            self.net.send(self.endpoints[from], self.endpoints[to], ());
        }
    }

    /// The next packet posted on lane `from → to` arrives twice.
    pub fn copy_next(&mut self, from: usize, to: usize) {
        self.lanes.entry((from, to)).or_default().copy_next = true;
    }

    // -----------------------------------------------------------
    // Turns
    // -----------------------------------------------------------

    /// The rest of a machine's turn, once it has received or ticked:
    /// one offer, every lane lifted, the timer re-armed — and a
    /// departure handled.
    fn finish_turn(&mut self, index: usize, flow: Flow) {
        let node = self.nodes[index].as_mut().expect("a live machine");
        node.fabric().offer(true);
        assert_eq!(
            node.fabric().pending(),
            0,
            "the mesh's sinks are never full"
        );
        let lifted: Vec<(usize, Vec<u8>)> = self.sinks[index]
            .iter()
            .enumerate()
            .filter_map(|(to, sink)| Some((to, sink.as_ref()?.try_recv().ok()?)))
            .collect();
        for (to, packet) in lifted {
            self.post(index, to, packet);
        }
        if flow == Flow::Leaving {
            let node = self.nodes[index].take().expect("a live machine");
            self.left[index] = node.exit();
        }
        self.arm(index);
    }

    /// Keeps worker `index`'s one timer at its next deadline.
    fn arm(&mut self, index: usize) {
        let want = self.nodes[index]
            .as_ref()
            .and_then(NodeMachine::next_deadline);
        if self.timers[index].map(|(deadline, _)| deadline) == want {
            return;
        }
        if let Some((_, timer)) = self.timers[index].take() {
            self.net.cancel_timer(timer);
        }
        let Some(deadline) = want else { return };
        let after = deadline.saturating_sub(self.now()).as_millis();
        if after < u128::from(FOREVER_TICKS) {
            let owner = self.endpoints[index];
            let timer = self
                .net
                .set_timer(owner, SimDuration::from_ticks(after as u64), ());
            self.timers[index] = Some((deadline, timer));
        }
    }

    /// The worker (or the client) an endpoint stands for.
    fn index_of(&self, endpoint: EndpointId) -> usize {
        self.endpoints
            .iter()
            .position(|&e| e == endpoint)
            .expect("one of the mesh's endpoints")
    }

    /// Handles the network's next event; `None` when there is none.
    fn step(&mut self) -> Option<Stepped> {
        match self.net.step_event()? {
            NetEvent::Timer(fired) => {
                let owner = self.index_of(fired.owner);
                if owner == self.client() {
                    return Some(Stepped::ClientDeadline);
                }
                self.timers[owner] = None;
                let now = self.now();
                let node = self.nodes[owner].as_mut().expect("a live machine's timer");
                node.tick(now);
                self.finish_turn(owner, Flow::Continue);
            }
            NetEvent::Delivery(delivery) => {
                let (from, to) = (self.index_of(delivery.from), self.index_of(delivery.to));
                let lane = self
                    .lanes
                    .get_mut(&(from, to))
                    .expect("a posted packet's lane");
                let packet = lane.queue.pop_front().expect("one delivery per packet");
                let frames = count_frames(&packet);
                // Recorded first: a machine that panics on a packet
                // leaves it as the trace's last line.
                self.trace.push((delivery.at.ticks(), from, to, packet));
                let (.., packet) = self.trace.last().expect("just pushed");
                if to == self.client() {
                    self.client_received += frames;
                    self.inbox.extend(decode_all(packet));
                } else if let Some(node) = &mut self.nodes[to] {
                    if from < self.workers {
                        self.crossed += frames;
                    }
                    let flow = node.receive(Duration::from_millis(delivery.at.ticks()), packet);
                    self.finish_turn(to, flow);
                } else {
                    // Its worker has left: drained, as a host drains
                    // an exited worker's inbox.
                    self.drained += frames;
                }
            }
        }
        Some(Stepped::Event)
    }

    /// Runs until no packet is in flight; deadlines further out stay
    /// pending.
    pub fn deliver(&mut self) {
        let in_flight =
            |m: &NetMetrics| m.messages_sent - m.messages_delivered - m.messages_dropped;
        while in_flight(self.net.metrics()) > 0 {
            self.step();
        }
    }

    /// Runs until nothing is left to happen — every packet delivered,
    /// every deadline met — and checks what must hold then.
    pub fn settle(&mut self) {
        while self.step().is_some() {}
        self.check_quiescent();
    }

    /// At a quiescent point: nothing waits on a lane that is not held;
    /// no traversal is parked (each had a deadline, and all are met);
    /// and the frame ledger balances — every frame the client or a
    /// machine counts sent (or copied) is one some endpoint counts
    /// received, dropped, drained or lost, but for those in a live
    /// machine's delay stash.
    fn check_quiescent(&self) {
        for (&(from, to), lane) in &self.lanes {
            assert_eq!(
                lane.queue.len(),
                lane.held.unwrap_or(0),
                "lane {from} → {to} is not empty"
            );
        }
        for (index, node) in self.nodes.iter().enumerate() {
            let parked = node.as_ref().map_or(0, NodeMachine::parked);
            assert_eq!(parked, 0, "worker {index} still has a traversal parked");
        }
        let stats: Vec<WorkerStats> = (0..self.workers).map(|index| self.stats(index)).collect();
        let sum = |counter: fn(&WorkerStats) -> u64| stats.iter().map(counter).sum::<u64>();
        let sent = sum(|w| w.frames_sent + w.frames_duplicated) + self.client_sent + self.copied;
        let accounted = sum(|w| w.frames_received + w.frames_undecodable + w.frames_dropped)
            + self.client_received
            + self.drained
            + self.lost;
        let stashed = sent
            .checked_sub(accounted)
            .unwrap_or_else(|| panic!("{accounted} frames arrived, {sent} were sent: {stats:?}"));
        let may_stash = match self.nodes.iter().any(Option::is_some) {
            true => sum(|w| w.frames_delayed),
            false => 0,
        };
        assert!(
            stashed <= may_stash,
            "{sent} frames sent, {accounted} accounted for: {stats:?}"
        );
    }

    /// At a quiescent point: every live worker that has restarted
    /// answers a barrier and a pin of every set it was ever loaded with
    /// exactly as a never-crashed twin fed the same load frames does:
    /// the same epoch, the same objects in the same order. The probe is
    /// a client exchange off the network: counted in the ledger, not
    /// traced.
    pub fn check_respawns(&mut self) {
        let (client, now) = (self.client(), self.now());
        for index in 0..self.workers {
            if self.nodes[index].is_none() || self.stats(index).respawns == 0 {
                continue;
            }
            let mut twin = self.machine(index, &FaultPlan::default());
            let mut probe = WireMsg::Flush { token: 0 }.encode();
            let delivered = self.trace.iter().filter(|(_, _, to, _)| *to == index);
            for load in delivered.flat_map(|(.., packet)| decode_all(packet)) {
                let WireMsg::Insert { keywords, .. } = &load else {
                    continue;
                };
                WireMsg::Pin {
                    query_id: 0,
                    keywords: keywords.clone(),
                }
                .encode_append(&mut probe);
                twin.receive(now, &load.encode());
            }
            let live = self.nodes[index].as_mut().expect("checked above");
            let [expected, got] = [&mut twin, live].map(|node| {
                node.receive(now, &probe);
                node.fabric().offer(true);
                let sink = self.sinks[index][client].as_ref().expect("a client lane");
                sink.try_recv().expect("a barrier is acked")
            });
            self.client_sent += count_frames(&probe);
            self.client_received += count_frames(&got);
            assert!(
                got == expected,
                "worker {index}: the restarted machine answers {:?}, its twin {:?}",
                decode_all(&got),
                decode_all(&expected)
            );
        }
    }

    /// Worker `index`'s lifetime counters so far.
    pub fn stats(&self, index: usize) -> WorkerStats {
        match &self.nodes[index] {
            Some(node) => node.stats(),
            None => self.left[index].clone(),
        }
    }

    /// Plain queries given up plus worker restarts, so far: what a
    /// request nobody answered is accounted by.
    pub fn unanswered(&self) -> u64 {
        (0..self.workers)
            .map(|index| self.stats(index))
            .map(|w| w.queries_abandoned + w.respawns)
            .sum()
    }

    /// Sends `Shutdown` to every worker, runs everything out and closes
    /// the books as `NodeRuntime::shutdown` does.
    pub fn shutdown(&mut self) -> ShutdownReport {
        self.settle();
        for worker in 0..self.workers as u32 {
            self.send(worker, &WireMsg::Shutdown);
        }
        self.settle();
        assert!(self.nodes.iter().all(Option::is_none));
        let sum = |counter: fn(&WorkerStats) -> u64| self.left.iter().map(counter).sum();
        ShutdownReport {
            client_sent: self.client_sent,
            client_received: self.client_received,
            workers: self.left.clone(),
            supervisor: SupervisorStats {
                respawns: sum(|w| w.respawns),
                replayed_frames: sum(|w| w.replayed_frames),
                frames_drained: self.drained,
                ..SupervisorStats::default()
            },
        }
    }

    // -----------------------------------------------------------
    // The client's side, by hand
    // -----------------------------------------------------------

    /// Sends one client frame to `worker`.
    pub fn send(&mut self, worker: u32, msg: &WireMsg) {
        self.queue(worker, msg);
        self.ship().expect("the mesh cannot fail");
    }

    /// Sends `frames` to `worker` in one packet.
    pub fn send_packed(&mut self, worker: u32, frames: &[WireMsg]) {
        let packet = frames.iter().flat_map(WireMsg::encode).collect();
        self.client_sent += frames.len() as u64;
        self.post(self.client(), worker as usize, packet);
    }

    /// Takes what the client has been sent so far.
    pub fn replies(&mut self) -> Vec<WireMsg> {
        self.inbox.drain(..).collect()
    }

    /// The worker → worker frames delivered since the trace was
    /// `since` long.
    pub fn crossed_since(&self, since: usize) -> Vec<WireMsg> {
        self.trace[since..]
            .iter()
            .filter(|(_, from, to, _)| *from < self.workers && *to < self.workers)
            .flat_map(|(_, _, _, packet)| decode_all(packet))
            .collect()
    }
}

impl ClientLink for Mesh {
    fn queue(&mut self, worker: u32, msg: &WireMsg) {
        self.queued.push((worker, msg.encode()));
    }

    fn queued_bytes(&self) -> usize {
        self.queued.iter().map(|(_, frame)| frame.len()).sum()
    }

    fn ship(&mut self) -> Result<(), Error> {
        let client = self.client();
        for (worker, frame) in std::mem::take(&mut self.queued) {
            self.client_sent += 1;
            self.post(client, worker as usize, frame);
        }
        Ok(())
    }

    fn now(&self) -> Duration {
        Mesh::now(self)
    }

    /// A wait nobody answers ends when virtual time reaches `deadline`.
    fn recv(
        &mut self,
        deadline: Option<Duration>,
        _awaiting: Option<u32>,
    ) -> Result<Option<WireMsg>, Error> {
        let timer = deadline.map(|deadline| {
            let after = deadline.saturating_sub(Mesh::now(self)).as_millis() as u64;
            let client = self.endpoints[self.client()];
            self.net
                .set_timer(client, SimDuration::from_ticks(after), ())
        });
        loop {
            if let Some(msg) = self.inbox.pop_front() {
                if let Some(timer) = timer {
                    self.net.cancel_timer(timer);
                }
                return Ok(Some(msg));
            }
            match self.step() {
                Some(Stepped::Event) => {}
                Some(Stepped::ClientDeadline) => return Ok(None),
                None => panic!("a wait nobody will answer needs a deadline"),
            }
        }
    }
}

impl Drop for Mesh {
    fn drop(&mut self) {
        if !std::thread::panicking() {
            return;
        }
        eprintln!("mesh {}", self.label);
        for (tick, from, to, packet) in &self.trace {
            let mut frames = format!("{:?}", decode_all(packet));
            frames.truncate(160);
            eprintln!("  t={tick} {from} → {to} {frames}");
        }
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
}

impl MeshRuntime {
    pub fn over(mesh: Mesh) -> MeshRuntime {
        let (hasher, shards) = (mesh.hasher, mesh.shards);
        let mesh = Rc::new(RefCell::new(mesh));
        let link = MeshLink(Rc::clone(&mesh));
        MeshRuntime {
            core: ClientCore::new(hasher, shards, link, Some(REQUEST_TIMEOUT)),
            mesh,
        }
    }

    /// A fault-free mesh ([`Mesh::quiet`]) and its client.
    pub fn start(r: u8, workers: u32, seed: u64) -> MeshRuntime {
        MeshRuntime::over(Mesh::quiet(r, workers, seed))
    }

    /// [`Mesh::quiet`]'s latencies under `plan`.
    pub fn start_faulted(r: u8, workers: u32, seed: u64, plan: FaultPlan) -> MeshRuntime {
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
