//! Deterministic fault injection for the threaded runtime.
//!
//! A [`FaultPlan`] describes, per run, how hostile the "network"
//! between workers is: per-mille rates for dropping, duplicating, and
//! delaying frames, plus crash points that stop whole workers. Every
//! decision is a pure function of `(plan seed, sender, receiver,
//! sequence number)` via the same stable hash the shard map uses, so a
//! faulted run replays identically — the property the seeded schedule
//! suite and the `faults` bench rely on.
//!
//! Scope: injection applies only to **worker → worker traversal
//! frames** (`RegionQuery`/`RegionDone`). Client-bound frames, control
//! frames (flush/shutdown), and load frames (`Insert`, a bulk load's
//! included) are reliable — so the indexed corpus is always well-defined and
//! every lost frame is one its coordinator knows how to recover: the
//! owner is asked again under its deadline, and given up only as
//! skipped coverage of an `FtQuery` or the end of a plain query.
//! Delayed frames are stashed and released behind the *next* frame to
//! the same destination, which is also how the plan reorders traffic.
//!
//! A crash point stops a worker cold on the N-th query-path frame it
//! receives, *before* processing it: in-memory tables, frames parked
//! on lanes, and coordinator state all vanish, exactly like a process
//! kill. What survives is the shard's load log — the paper's surviving
//! copy (§3.4) — and the machine restarts in place through its
//! constructor, from that log ([`crate::worker::WorkerContext::log`]).

use hyperdex_dht::stable_hash64_seeded;

/// Domain separation from the shard and keyword hashes derived from
/// the same seed.
const FAULT_SALT: u64 = 0x4641_554C_545F_494E; // "FAULT_IN"

/// Crash-stop one worker after it has received `after_query_frames`
/// query-path frames (inserts and control frames don't count).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CrashPoint {
    /// Which worker dies.
    pub worker: u32,
    /// How many query-path frames it survives; the N-th is the trigger
    /// and is **not** processed.
    pub after_query_frames: u64,
}

/// One run's complete fault schedule. [`FaultPlan::default`] is
/// fault-free, which is what [`crate::runtime::NodeRuntime::start`]
/// uses.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FaultPlan {
    /// Seed for the per-frame fate hash (independent of the runtime
    /// seed, so loss schedules can vary while placement stays fixed).
    pub seed: u64,
    /// Frames dropped, in ‰ of injectable sends.
    pub drop_per_mille: u16,
    /// Frames duplicated (delivered twice), in ‰.
    pub duplicate_per_mille: u16,
    /// Frames delayed behind the next same-destination send, in ‰.
    pub delay_per_mille: u16,
    /// Workers that crash-stop mid-run.
    pub crashes: Vec<CrashPoint>,
}

impl FaultPlan {
    /// A plan with only frame-level faults (no crashes).
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

    /// Whether the plan injects anything at all.
    pub fn is_active(&self) -> bool {
        self.drop_per_mille > 0
            || self.duplicate_per_mille > 0
            || self.delay_per_mille > 0
            || !self.crashes.is_empty()
    }
}

/// What the injector decided for one frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fate {
    /// Deliver normally.
    Deliver,
    /// Silently discard.
    Drop,
    /// Deliver two copies.
    Duplicate,
    /// Stash; release behind the next frame to the same destination.
    Delay,
}

/// Per-worker injector. Owns the worker's send sequence counter and
/// its crash countdown; replays bit-for-bit for a given plan.
#[derive(Debug, Clone)]
pub struct FaultInjector {
    plan: FaultPlan,
    worker: u32,
    seq: u64,
    query_frames: u64,
    crash_after: Option<u64>,
}

impl FaultInjector {
    /// The injector for `worker` under `plan`.
    pub fn new(plan: FaultPlan, worker: u32) -> FaultInjector {
        let crash_after = plan
            .crashes
            .iter()
            .find(|c| c.worker == worker)
            .map(|c| c.after_query_frames.max(1));
        FaultInjector {
            plan,
            worker,
            seq: 0,
            query_frames: 0,
            crash_after,
        }
    }

    /// Decides the fate of this worker's next injectable frame to
    /// `dest`. Deterministic in `(plan seed, worker, dest, call count)`.
    pub fn fate(&mut self, dest: u32) -> Fate {
        self.seq += 1;
        let mut key = [0u8; 16];
        key[..4].copy_from_slice(&self.worker.to_le_bytes());
        key[4..8].copy_from_slice(&dest.to_le_bytes());
        key[8..].copy_from_slice(&self.seq.to_le_bytes());
        let roll = (stable_hash64_seeded(&key, self.plan.seed ^ FAULT_SALT) % 1000) as u16;
        if roll < self.plan.drop_per_mille {
            Fate::Drop
        } else if roll < self.plan.drop_per_mille + self.plan.duplicate_per_mille {
            Fate::Duplicate
        } else if roll
            < self.plan.drop_per_mille + self.plan.duplicate_per_mille + self.plan.delay_per_mille
        {
            Fate::Delay
        } else {
            Fate::Deliver
        }
    }

    /// Called once per query-path frame received; `true` exactly once,
    /// on the frame the crash point names.
    pub fn should_crash(&mut self) -> bool {
        let Some(at) = self.crash_after else {
            return false;
        };
        self.query_frames += 1;
        if self.query_frames >= at {
            // One-shot: a worker only dies once per plan.
            self.crash_after = None;
            true
        } else {
            false
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fates_replay_deterministically() {
        let plan = FaultPlan::lossy(7, 100, 50, 50);
        let mut a = FaultInjector::new(plan.clone(), 2);
        let mut b = FaultInjector::new(plan, 2);
        for dest in [0u32, 1, 3, 0, 0, 1] {
            assert_eq!(a.fate(dest), b.fate(dest));
        }
    }

    #[test]
    fn rates_are_roughly_honored() {
        let plan = FaultPlan::lossy(11, 200, 100, 100);
        let mut inj = FaultInjector::new(plan, 0);
        let mut counts = [0u32; 4];
        for _ in 0..10_000 {
            match inj.fate(1) {
                Fate::Deliver => counts[0] += 1,
                Fate::Drop => counts[1] += 1,
                Fate::Duplicate => counts[2] += 1,
                Fate::Delay => counts[3] += 1,
            }
        }
        // 20% / 10% / 10% nominal, generous ±5pp tolerance.
        assert!((1500..=2500).contains(&counts[1]), "drops {}", counts[1]);
        assert!((500..=1500).contains(&counts[2]), "dups {}", counts[2]);
        assert!((500..=1500).contains(&counts[3]), "delays {}", counts[3]);
    }

    #[test]
    fn crash_fires_exactly_once_at_the_named_frame() {
        let plan = FaultPlan::default().crash(3, 5);
        let mut inj = FaultInjector::new(plan, 3);
        let fires: Vec<bool> = (0..8).map(|_| inj.should_crash()).collect();
        assert_eq!(
            fires,
            [false, false, false, false, true, false, false, false]
        );
    }

    #[test]
    fn other_workers_never_crash() {
        let plan = FaultPlan::default().crash(3, 1);
        let mut inj = FaultInjector::new(plan, 2);
        assert!((0..100).all(|_| !inj.should_crash()));
    }

    #[test]
    fn fault_free_plan_is_inert() {
        let plan = FaultPlan::default();
        assert!(!plan.is_active());
        let mut inj = FaultInjector::new(plan, 0);
        assert!((0..1000).all(|_| inj.fate(1) == Fate::Deliver));
        assert!(!inj.should_crash());
    }
}
