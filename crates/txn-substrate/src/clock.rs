//! A virtual clock.
//!
//! Everything in this workspace that needs time — deadlines on workflow
//! activities, notification timers, audit timestamps, retry backoff —
//! reads a [`VirtualClock`] instead of the wall clock. Tests advance it
//! explicitly, which makes every execution trace deterministic and lets
//! golden-trace tests (the appendix reproductions) compare timestamps
//! exactly.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// A logical timestamp in clock ticks. The unit is deliberately
/// abstract; the engine documents deadlines in ticks.
pub type Tick = u64;

/// A shareable, monotonically non-decreasing virtual clock.
///
/// Cloning is cheap (an `Arc` bump); all clones observe the same time.
///
/// ```
/// use txn_substrate::VirtualClock;
/// let clock = VirtualClock::new();
/// assert_eq!(clock.now(), 0);
/// clock.advance(5);
/// let other = clock.clone();
/// assert_eq!(other.now(), 5);
/// ```
#[derive(Debug, Clone, Default)]
pub struct VirtualClock {
    ticks: Arc<AtomicU64>,
}

impl VirtualClock {
    /// Creates a clock at tick 0.
    pub fn new() -> Self {
        Self::default()
    }

    /// Current tick.
    pub fn now(&self) -> Tick {
        self.ticks.load(Ordering::Acquire)
    }

    /// Advances the clock by `delta` ticks and returns the new time.
    pub fn advance(&self, delta: Tick) -> Tick {
        self.ticks.fetch_add(delta, Ordering::AcqRel) + delta
    }

    /// Moves the clock forward to `tick` if `tick` is in the future;
    /// the clock never goes backwards. Returns the resulting time.
    pub fn advance_to(&self, tick: Tick) -> Tick {
        let mut cur = self.ticks.load(Ordering::Acquire);
        loop {
            if tick <= cur {
                return cur;
            }
            match self
                .ticks
                .compare_exchange(cur, tick, Ordering::AcqRel, Ordering::Acquire)
            {
                Ok(_) => return tick,
                Err(actual) => cur = actual,
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn starts_at_zero() {
        assert_eq!(VirtualClock::new().now(), 0);
    }

    #[test]
    fn advance_accumulates() {
        let c = VirtualClock::new();
        assert_eq!(c.advance(3), 3);
        assert_eq!(c.advance(4), 7);
        assert_eq!(c.now(), 7);
    }

    #[test]
    fn clones_share_time() {
        let c = VirtualClock::new();
        let d = c.clone();
        c.advance(10);
        assert_eq!(d.now(), 10);
    }

    #[test]
    fn advance_to_is_monotonic() {
        let c = VirtualClock::new();
        c.advance(100);
        assert_eq!(c.advance_to(50), 100, "never goes backwards");
        assert_eq!(c.advance_to(150), 150);
        assert_eq!(c.now(), 150);
    }

    #[test]
    fn advance_to_races_settle_at_max() {
        let c = VirtualClock::new();
        let mut handles = Vec::new();
        for i in 0..8u64 {
            let c = c.clone();
            handles.push(std::thread::spawn(move || {
                c.advance_to(i * 10);
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(c.now(), 70);
    }
}
