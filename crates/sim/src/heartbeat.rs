//! Opt-in wall-clock progress heartbeat for long campaigns.
//!
//! A [`Heartbeat`] prints rate-limited progress lines to **stderr** so a
//! paper-scale campaign (minutes of wall clock) is visibly alive without
//! touching a single simulated observable. Non-perturbation is by
//! construction, not by discipline:
//!
//! * the struct holds no simulation state and its methods return nothing a
//!   harness could branch on;
//! * rate limiting uses [`std::time::Instant`] — wall clock only, never the
//!   simulated clock;
//! * output goes to stderr, so piped stdout (tables, JSON) is unchanged.
//!
//! `tests/parallel_determinism.rs` additionally pins that a campaign run
//! with the heartbeat enabled is bit-identical to one without.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Rate-limited stderr progress reporter. Disabled is the default and
/// costs one branch per tick; enabled prints at most once per interval.
#[derive(Debug)]
pub struct Heartbeat {
    enabled: bool,
    label: &'static str,
    interval: Duration,
    done: AtomicU64,
    last: Mutex<Option<Instant>>,
}

impl Heartbeat {
    /// Default interval between printed lines.
    pub const DEFAULT_INTERVAL: Duration = Duration::from_secs(2);

    /// A heartbeat labelled `label`, printing only when `enabled`.
    pub fn new(enabled: bool, label: &'static str) -> Self {
        Heartbeat {
            enabled,
            label,
            interval: Self::DEFAULT_INTERVAL,
            done: AtomicU64::new(0),
            last: Mutex::new(None),
        }
    }

    /// Records one completed work unit of `total` and prints a progress
    /// line when the rate limiter allows. Callable from worker threads.
    pub fn tick(&self, total: u64) {
        if !self.enabled {
            return;
        }
        let done = self.done.fetch_add(1, Ordering::Relaxed) + 1;
        let mut last = self.last.lock().unwrap();
        let now = Instant::now();
        let due = match *last {
            None => true,
            Some(prev) => now.duration_since(prev) >= self.interval,
        };
        // The final unit always prints, so every enabled run ends with a
        // complete line even when it finishes inside one interval.
        if due || done == total {
            *last = Some(now);
            eprintln!("[heartbeat] {}: {done}/{total} units", self.label);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_heartbeat_counts_nothing_and_prints_nothing() {
        let hb = Heartbeat::new(false, "");
        hb.tick(10);
        assert_eq!(hb.done.load(Ordering::Relaxed), 0, "disabled tick is a pure no-op");
    }

    #[test]
    fn enabled_heartbeat_counts_units() {
        let hb = Heartbeat::new(true, "test");
        for _ in 0..5 {
            hb.tick(5);
        }
        assert_eq!(hb.done.load(Ordering::Relaxed), 5);
    }
}
