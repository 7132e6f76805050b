//! The clock abstraction for wall-clock time.
//!
//! Both execution paths stamp events in `u64` microseconds since the run
//! origin. The simulated engine stamps them with its own virtual time;
//! the real runtime reads a [`WallClock`] anchored at run start.

use std::time::Instant;

/// A source of microseconds-since-run-origin timestamps.
pub trait Clock {
    /// Current time in microseconds since the run origin.
    fn now_us(&self) -> u64;
}

/// Real time: microseconds elapsed since construction, from a monotonic
/// [`Instant`]. Cheap to share by reference across worker threads.
#[derive(Clone, Copy, Debug)]
pub struct WallClock {
    origin: Instant,
}

impl WallClock {
    /// A clock whose origin is now.
    pub fn start() -> Self {
        WallClock {
            // vine-audit: allow(A103) -- WallClock IS the wall-clock boundary: it measures real elapsed runtime for reporting and never feeds simulated time or digests
            origin: Instant::now(),
        }
    }
}

impl Default for WallClock {
    fn default() -> Self {
        Self::start()
    }
}

impl Clock for WallClock {
    fn now_us(&self) -> u64 {
        // u64 micros covers ~585 000 years of run time.
        self.origin.elapsed().as_micros() as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wall_clock_is_monotonic() {
        let c = WallClock::start();
        let a = c.now_us();
        let b = c.now_us();
        assert!(b >= a);
    }
}
