//! Virtual simulation time.
//!
//! Time is measured in abstract integer *ticks*. The paper's cost model
//! counts message transmission time as the unit of latency (§3.5), so one
//! tick conventionally corresponds to one hop of message transmission,
//! though latency models may scale it arbitrarily.

use std::fmt;
use std::ops::Add;

/// An instant in virtual time, in ticks since simulation start.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime(u64);

/// A span of virtual time, in ticks.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimDuration(u64);

impl SimTime {
    /// The simulation epoch (tick zero).
    pub const ZERO: SimTime = SimTime(0);

    /// Creates an instant at the given tick.
    pub const fn from_ticks(ticks: u64) -> Self {
        SimTime(ticks)
    }

    /// Returns the tick count since the epoch.
    pub const fn ticks(self) -> u64 {
        self.0
    }

    /// Returns the duration elapsed since `earlier`, saturating at zero
    /// if `earlier` is in the future.
    pub fn saturating_since(self, earlier: SimTime) -> SimDuration {
        SimDuration(self.0.saturating_sub(earlier.0))
    }
}

impl SimDuration {
    /// The zero-length duration.
    pub const ZERO: SimDuration = SimDuration(0);

    /// Creates a duration of the given tick count.
    pub const fn from_ticks(ticks: u64) -> Self {
        SimDuration(ticks)
    }

    /// Returns the tick count.
    pub const fn ticks(self) -> u64 {
        self.0
    }
}

impl Add<SimDuration> for SimTime {
    type Output = SimTime;

    fn add(self, rhs: SimDuration) -> SimTime {
        SimTime(self.0.checked_add(rhs.0).expect("simulation time overflow"))
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t={}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn add_duration_advances_time() {
        let t = SimTime::from_ticks(10) + SimDuration::from_ticks(5);
        assert_eq!(t.ticks(), 15);
    }

    #[test]
    fn saturating_since_clamps() {
        let early = SimTime::from_ticks(5);
        let late = SimTime::from_ticks(20);
        assert_eq!(early.saturating_since(late), SimDuration::ZERO);
        assert_eq!(late.saturating_since(early), SimDuration::from_ticks(15));
    }

    #[test]
    fn ordering_is_chronological() {
        assert!(SimTime::ZERO < SimTime::from_ticks(1));
        assert!(SimDuration::from_ticks(2) > SimDuration::from_ticks(1));
    }

    #[test]
    fn display_formats() {
        assert_eq!(SimTime::from_ticks(3).to_string(), "t=3");
    }
}
