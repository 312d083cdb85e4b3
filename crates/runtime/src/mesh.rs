//! The virtual-time driver: N [`NodeMachine`]s and a client in one
//! thread, under `hyperdex-simnet`'s virtual time (1 tick = 1 ms).
//!
//! Every machine keeps its real [`Fabric`] — the in-process one,
//! [`Fabric::inboxes`] — and the mesh holds the far end of every lane.
//! After a machine's turn the mesh offers its lanes once, lifts the
//! packets off and posts each on the simulated network with a seeded
//! latency; a delivery for lane `a → b` hands `b` that lane's *oldest*
//! undelivered packet, so a lane is FIFO (a channel and a TCP stream
//! both are, and the flush barrier rests on it) and what the seed
//! permutes is the order *across* lanes. Each machine has one timer, at
//! its [`NodeMachine::next_deadline`].
//!
//! The mesh is the wire, so the wire's faults are its own. Under a
//! lossy [`FaultPlan`] every worker → worker frame travels alone and is
//! dealt a seeded fate from the lane operations a script uses to force
//! one interleaving: lost ([`Mesh::lose`]), copied
//! ([`Mesh::copy_next`]), held back ([`Mesh::hold`]) until the lane's
//! next packet overtakes it and releases it ([`Mesh::release`]), or
//! posted. A crash is the machine's business: the plan's crash points
//! go to the machines, and one restarts in place, from its own load
//! log, inside the `receive` that met it.
//!
//! The mesh is a [`ClientLink`], so its client is the production
//! [`crate::ClientCore`]: a wait nobody answers ends when virtual time
//! reaches its deadline, at no wall-clock cost. Every packet delivered
//! is recorded as `(tick, from, to, packet)`.

use std::collections::{BTreeMap, VecDeque};
use std::sync::mpsc::{sync_channel, Receiver, SyncSender};
use std::time::Duration;

use hyperdex_core::{Error, KeywordHasher};
use hyperdex_dht::stable_hash64_seeded;
use hyperdex_simnet::net::{NetEvent, TimerId};
use hyperdex_simnet::{EndpointId, LatencyModel, NetMetrics, Network, SimDuration};

use crate::client_core::ClientLink;
use crate::runtime::{RuntimeConfig, ShutdownReport, SupervisorStats};
use crate::shard::ShardMap;
use crate::transport::Fabric;
use crate::wire::{self, WireMsg};
use crate::worker::{CrashPoint, Flow, NodeMachine, WorkerContext, WorkerStats};

/// One `(tick, from, to, packet)` per delivery. Endpoints `0..W` are
/// the workers, `W` the client.
pub type Trace = Vec<(u64, usize, usize, Vec<u8>)>;

/// Domain separation from the shard and keyword hashes derived from
/// the same seed.
const FAULT_SALT: u64 = 0x4641_554C_545F_494E; // "FAULT_IN"

/// The frames of a well-formed packet.
pub fn decode_all(packet: &[u8]) -> Vec<WireMsg> {
    wire::frames(packet)
        .expect_whole()
        .map(|frame| WireMsg::decode_exact(frame).expect("workers emit valid frames"))
        .collect()
}

/// One run's hostility on a mesh: the fates its wire deals worker →
/// worker frames, and the crash points it hands its machines.
///
/// Only the traversal's `RegionQuery`/`RegionDone` travel between
/// workers, so only they meet a fate. Loads, control frames and
/// replies travel to and from the client and are never touched: the
/// indexed corpus is always well-defined, and every lost frame is one
/// its coordinator knows how to recover — the owner is asked again
/// under its deadline. A fate is a pure function of `(seed, lane, the
/// frame's number on the lane)`, so a plan replays bit-for-bit.
/// [`FaultPlan::default`] is fault-free.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FaultPlan {
    /// Seed of the per-frame fates (independent of the runtime seed, so
    /// loss schedules can vary while placement stays fixed).
    pub seed: u64,
    /// Frames lost, in ‰ of worker → worker frames.
    pub drop_per_mille: u16,
    /// Frames delivered twice, in ‰.
    pub duplicate_per_mille: u16,
    /// Frames held back until the lane's next packet has gone ahead,
    /// in ‰: how the wire reorders.
    pub delay_per_mille: u16,
    /// Workers that crash and restart mid-run.
    pub crashes: Vec<CrashPoint>,
}

impl FaultPlan {
    /// A plan with only wire faults (no crashes).
    ///
    /// # Panics
    ///
    /// Panics when the rates add up to more than 1000 ‰.
    pub fn lossy(seed: u64, drop: u16, duplicate: u16, delay: u16) -> FaultPlan {
        assert!(
            usize::from(drop) + usize::from(duplicate) + usize::from(delay) <= 1000,
            "fault rates exceed 1000 per mille"
        );
        FaultPlan {
            seed,
            drop_per_mille: drop,
            duplicate_per_mille: duplicate,
            delay_per_mille: delay,
            crashes: Vec::new(),
        }
    }

    /// Adds a crash point.
    pub fn crash(mut self, worker: u32, after_query_frames: u64) -> FaultPlan {
        self.crashes.push(CrashPoint {
            worker,
            after_query_frames,
        });
        self
    }

    /// Whether the wire deals any fate but delivery.
    fn lossy_wire(&self) -> bool {
        self.drop_per_mille > 0 || self.duplicate_per_mille > 0 || self.delay_per_mille > 0
    }

    /// The roll of frame number `seq` on lane `from → to`, in ‰.
    fn roll(&self, from: usize, to: usize, seq: u64) -> u16 {
        let mut key = [0u8; 16];
        key[..4].copy_from_slice(&(from as u32).to_le_bytes());
        key[4..8].copy_from_slice(&(to as u32).to_le_bytes());
        key[8..].copy_from_slice(&seq.to_le_bytes());
        (stable_hash64_seeded(&key, self.seed ^ FAULT_SALT) % 1000) as u16
    }
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
    /// Held by a delay fate: the next packet posted overtakes what
    /// waits and releases it.
    delaying: bool,
    /// Frames dealt a fate on this lane: the next roll's number.
    dealt: u64,
}

/// What one [`Mesh::step`] did.
enum Stepped {
    Event,
    /// The timer a client wait set has fired.
    ClientDeadline,
}

/// N machines, the network between them and a client inbox.
pub struct Mesh {
    /// The keyword → vertex hash every endpoint shares.
    pub hasher: KeywordHasher,
    /// The vertex → worker map.
    pub shards: ShardMap,
    plan: FaultPlan,
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
    /// Frames delivered to the client and not read yet, oldest first.
    pub inbox: VecDeque<WireMsg>,
    /// Frames the client sent.
    pub client_sent: u64,
    /// Frames delivered to the client.
    pub client_received: u64,
    /// Frames that arrived for a machine that had left.
    pub drained: u64,
    /// Frames lost on the wire: by a drop fate, or taken off a held
    /// lane.
    pub lost: u64,
    /// Extra copies the wire delivered.
    pub copied: u64,
    /// Worker → worker frames delivered.
    pub crossed: u64,
    /// Every packet delivered.
    pub trace: Trace,
}

impl Mesh {
    /// `cfg.workers` machines of an `r`-cube under `plan`; `net_seed`
    /// seeds the latencies, drawn from `latency`.
    ///
    /// # Panics
    ///
    /// Panics when `cfg.r` is outside `1..=63`.
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
            plan,
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
            let node = mesh.machine(index, &mesh.plan.crashes);
            mesh.nodes.push(Some(node));
        }
        mesh
    }

    fn machine(&self, index: usize, crashes: &[CrashPoint]) -> NodeMachine {
        let ctx = WorkerContext::new(index as u32, self.hasher, self.shards, crashes);
        NodeMachine::new(ctx, Fabric::inboxes(self.links[index].clone()))
    }

    fn client(&self) -> usize {
        self.workers
    }

    /// Virtual time.
    pub fn now(&self) -> Duration {
        Duration::from_millis(self.net.now().ticks())
    }

    // -----------------------------------------------------------
    // Lanes
    // -----------------------------------------------------------

    /// Puts `packet` on lane `from → to`: queued, and — unless the
    /// lane is held — a delivery scheduled. On a lane a delay fate
    /// holds, it goes ahead of what waits, which follows it.
    fn post(&mut self, from: usize, to: usize, packet: Vec<u8>) {
        let lane = self.lanes.entry((from, to)).or_default();
        let copies = if std::mem::take(&mut lane.copy_next) {
            self.copied += wire::frames(&packet).expect_whole().count() as u64;
            2
        } else {
            1
        };
        let overtake = std::mem::take(&mut lane.delaying);
        for _ in 0..copies {
            match &mut lane.held {
                Some(unscheduled) if !overtake => {
                    lane.queue.push_back(packet.clone());
                    *unscheduled += 1;
                }
                Some(unscheduled) => {
                    let at = lane.queue.len() - *unscheduled;
                    lane.queue.insert(at, packet.clone());
                    self.net.send(self.endpoints[from], self.endpoints[to], ());
                }
                None => {
                    lane.queue.push_back(packet.clone());
                    self.net.send(self.endpoints[from], self.endpoints[to], ());
                }
            }
        }
        if overtake {
            self.release(from, to);
        }
    }

    /// Deals worker → worker frame `frame` its fate on lane
    /// `from → to`: lost, copied, held back until the lane's next
    /// packet overtakes it, or posted. A held lane deals none: what is
    /// posted on one a script holds waits for the script, and a frame
    /// behind a delayed one is that next packet.
    fn deal(&mut self, from: usize, to: usize, frame: Vec<u8>) {
        let lane = self.lanes.entry((from, to)).or_default();
        if lane.held.is_some() {
            return self.post(from, to, frame);
        }
        lane.dealt += 1;
        let roll = self.plan.roll(from, to, lane.dealt);
        let drop = self.plan.drop_per_mille;
        let duplicate = drop + self.plan.duplicate_per_mille;
        let delay = duplicate + self.plan.delay_per_mille;
        if roll < drop {
            self.hold(from, to);
            self.post(from, to, frame);
            self.lose(from, to);
            self.release(from, to);
        } else if roll < duplicate {
            self.copy_next(from, to);
            self.post(from, to, frame);
        } else if roll < delay {
            self.hold(from, to);
            self.post(from, to, frame);
            self.lanes.get_mut(&(from, to)).expect("just held").delaying = true;
        } else {
            self.post(from, to, frame);
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
            if to == self.client() || !self.plan.lossy_wire() {
                self.post(index, to, packet);
                continue;
            }
            // Every frame travels alone, to meet its own fate.
            for frame in wire::frames(&packet).expect_whole() {
                self.deal(index, to, frame.to_vec());
            }
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
        // A machine's deadlines are its constant policies' waits: never
        // further out than 8 s.
        let after = deadline.saturating_sub(self.now()).as_millis() as u64;
        let owner = self.endpoints[index];
        let timer = self
            .net
            .set_timer(owner, SimDuration::from_ticks(after), ());
        self.timers[index] = Some((deadline, timer));
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
                let frames = wire::frames(&packet).expect_whole().count() as u64;
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
    /// machine counts sent, and every copy the wire made, is one some
    /// endpoint counts received, undecodable, dropped (by a crash) or
    /// drained, the wire counts lost, or still waits on a held lane.
    fn check_quiescent(&self) {
        let mut waiting = 0;
        for (&(from, to), lane) in &self.lanes {
            assert_eq!(
                lane.queue.len(),
                lane.held.unwrap_or(0),
                "lane {from} → {to} is not empty"
            );
            waiting += self.held(from, to).len() as u64;
        }
        for (index, node) in self.nodes.iter().enumerate() {
            let parked = node.as_ref().map_or(0, NodeMachine::parked);
            assert_eq!(parked, 0, "worker {index} still has a traversal parked");
        }
        let stats: Vec<WorkerStats> = (0..self.workers).map(|index| self.stats(index)).collect();
        let sum = |counter: fn(&WorkerStats) -> u64| stats.iter().map(counter).sum::<u64>();
        let sent = sum(|w| w.frames_sent) + self.client_sent + self.copied;
        let accounted = sum(|w| w.frames_received + w.frames_undecodable + w.frames_dropped)
            + self.client_received
            + self.drained
            + self.lost
            + waiting;
        assert_eq!(
            sent, accounted,
            "{sent} frames sent or copied, {accounted} accounted for: {stats:?}"
        );
    }

    /// At a quiescent point: every live worker that has restarted
    /// answers a barrier and a pin of every set it was ever loaded with
    /// exactly as a never-crashed twin fed the same load frames does:
    /// the same epoch, the same objects in the same order. The probe is
    /// a client exchange off the network: counted in the ledger, not
    /// traced.
    ///
    /// # Panics
    ///
    /// Panics when a restarted worker and its twin answer differently.
    pub fn check_respawns(&mut self) {
        let (client, now) = (self.client(), self.now());
        for index in 0..self.workers {
            if self.nodes[index].is_none() || self.stats(index).respawns == 0 {
                continue;
            }
            let mut twin = self.machine(index, &[]);
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
            self.client_sent += wire::frames(&probe).expect_whole().count() as u64;
            self.client_received += wire::frames(&got).expect_whole().count() as u64;
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

    /// Sends `Shutdown` to every worker, runs everything out and closes
    /// the books as `NodeRuntime::shutdown` does. What the wire still
    /// holds back behind a packet that never came is lost.
    pub fn shutdown(&mut self) -> ShutdownReport {
        self.settle();
        for worker in 0..self.workers as u32 {
            self.send(worker, &WireMsg::Shutdown);
        }
        self.deliver();
        assert!(self.nodes.iter().all(Option::is_none));
        let delaying: Vec<(usize, usize)> = self
            .lanes
            .iter()
            .filter(|(_, lane)| lane.delaying)
            .map(|(&lane, _)| lane)
            .collect();
        for (from, to) in delaying {
            self.lose(from, to);
        }
        self.check_quiescent();
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
            lost: self.lost,
            copied: self.copied,
        }
    }

    /// Sends one client frame to `worker`.
    pub fn send(&mut self, worker: u32, msg: &WireMsg) {
        self.send_packed(worker, std::slice::from_ref(msg));
    }

    /// Sends `frames` to `worker` in one packet, as the client.
    pub fn send_packed(&mut self, worker: u32, frames: &[WireMsg]) {
        let packet = frames.iter().flat_map(WireMsg::encode).collect();
        self.client_sent += frames.len() as u64;
        self.post(self.client(), worker as usize, packet);
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

#[cfg(test)]
mod tests {
    use hyperdex_core::{KeywordSet, RetryBudget};

    use super::*;
    use crate::client_core::FT_ATTEMPT_TIMEOUT;
    use crate::worker::{FT_QUERY_POLICY, PLAIN_QUERY_POLICY};

    /// How long a traversal under `policy` can stay parked: every
    /// transmission's whole wait, in milliseconds.
    fn total_wait(policy: &RetryBudget) -> u64 {
        (0..)
            .map_while(|attempt| policy.attempt_timeout(attempt))
            .sum()
    }

    /// Under total loss every `RegionQuery` is lost, so a traversal
    /// stays parked for exactly its policy's total wait and no longer:
    /// an `FtQuery` is answered, its silent owner given up, 6,350 ms
    /// after it arrives (50 ms doubling, seven transmissions); a plain
    /// `QueryAt` is abandoned unanswered after 15,000 ms (1 s doubling,
    /// four). At no step does a machine name a deadline past that.
    #[test]
    fn a_parked_traversal_lives_exactly_its_policys_total_wait() {
        let (ft_wait, plain_wait) = (
            total_wait(&FT_QUERY_POLICY),
            total_wait(&PLAIN_QUERY_POLICY),
        );
        assert_eq!((ft_wait, plain_wait), (6_350, 15_000));
        // The client listens for an `FtQuery`'s answer longer than its
        // coordinator can stay parked.
        assert!(FT_ATTEMPT_TIMEOUT > Duration::from_millis(ft_wait));
        let cfg = RuntimeConfig::new(8, 2).seed(42);
        let plan = FaultPlan::lossy(7, 1000, 0, 0);
        let mut mesh = Mesh::start(cfg, plan, LatencyModel::uniform(1, 3), 42);
        // A one-word query: its subcube spans both workers' halves.
        let keywords = KeywordSet::parse("a").unwrap();
        let coordinator = mesh
            .shards
            .owner_of(mesh.hasher.vertex_for(&keywords).bits());
        let ft = WireMsg::FtQuery {
            query_id: 1,
            keywords: keywords.clone(),
            threshold: 5,
        };
        let plain = WireMsg::QueryAt {
            query_id: 2,
            keywords,
            threshold: 5,
            marks: vec![0, 0],
        };
        for (query, wait) in [(ft, ft_wait), (plain, plain_wait)] {
            let abandoned = mesh.stats(coordinator as usize).queries_abandoned;
            mesh.send(coordinator, &query);
            // Nothing else is in flight: the first event is its arrival.
            mesh.step();
            let arrived = mesh.now();
            let last_deadline = arrived + Duration::from_millis(wait);
            let parked = |mesh: &Mesh| mesh.nodes[coordinator as usize].as_ref().unwrap().parked();
            assert_eq!(parked(&mesh), 1);
            let mut ended = None;
            while mesh.step().is_some() {
                for node in mesh.nodes.iter().flatten() {
                    let deadline = node.next_deadline();
                    assert!(
                        deadline <= Some(last_deadline),
                        "{deadline:?} after {arrived:?}"
                    );
                }
                if ended.is_none() && parked(&mesh) == 0 {
                    ended = Some(mesh.now());
                }
            }
            assert_eq!(ended, Some(last_deadline), "arrived at {arrived:?}");
            mesh.settle();
            let replies: Vec<WireMsg> = mesh.inbox.drain(..).collect();
            let abandoned = mesh.stats(coordinator as usize).queries_abandoned - abandoned;
            match query {
                WireMsg::FtQuery { .. } => {
                    let [WireMsg::FtQueryDone { coverage, .. }] = &replies[..] else {
                        panic!("not one FT answer: {replies:?}");
                    };
                    let retries = u64::from(FT_QUERY_POLICY.max_retries);
                    assert_eq!(
                        (coverage.queries_sent, coverage.retries, coverage.timeouts),
                        (retries + 1, retries, 1),
                        "{coverage:?}"
                    );
                    assert!(!coverage.skipped.is_empty(), "{coverage:?}");
                    assert_eq!(abandoned, 0);
                }
                _ => assert_eq!((replies.len(), abandoned), (0, 1), "{replies:?}"),
            }
        }
    }

    #[test]
    fn fates_replay_deterministically() {
        let plan = FaultPlan::lossy(7, 100, 50, 50);
        let again = plan.clone();
        for (seq, to) in [0usize, 1, 3, 0, 0, 1].into_iter().enumerate() {
            assert_eq!(plan.roll(2, to, seq as u64), again.roll(2, to, seq as u64));
        }
    }

    /// Each rate is the share of rolls below its band's edge: 20 % /
    /// 10 % / 10 % nominal, within ±5 points.
    #[test]
    fn rates_are_roughly_honored() {
        let plan = FaultPlan::lossy(11, 200, 100, 100);
        let mut counts = [0u32; 4];
        for seq in 1..=10_000 {
            let band = match plan.roll(0, 1, seq) {
                0..200 => 1,
                200..300 => 2,
                300..400 => 3,
                _ => 0,
            };
            counts[band] += 1;
        }
        assert!((1500..=2500).contains(&counts[1]), "drops {}", counts[1]);
        assert!((500..=1500).contains(&counts[2]), "dups {}", counts[2]);
        assert!((500..=1500).contains(&counts[3]), "delays {}", counts[3]);
    }

    #[test]
    fn a_fault_free_plan_deals_no_fate() {
        assert!(!FaultPlan::default().lossy_wire());
        assert!(!FaultPlan::default().crash(0, 1).lossy_wire());
        assert!(FaultPlan::lossy(1, 0, 0, 1).lossy_wire());
    }
}
