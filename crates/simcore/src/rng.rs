//! Named, independently-seeded RNG streams.
//!
//! Every stochastic component of a run (task durations, event kinematics,
//! worker preemption, heterogeneity jitter) draws from its own stream,
//! derived from the master seed and a stream name. Turning one source of
//! randomness on or off therefore leaves every other source's draws intact,
//! which keeps A/B comparisons (e.g. Work Queue vs TaskVine on "the same"
//! workload) honest.

use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::hash::splitmix64;

/// Factory for named RNG streams derived from a single master seed.
#[derive(Clone, Copy, Debug)]
pub struct RngHub {
    master_seed: u64,
}

impl RngHub {
    /// Create a hub with the given master seed.
    pub fn new(master_seed: u64) -> Self {
        RngHub { master_seed }
    }

    /// The master seed this hub was built from.
    pub fn master_seed(&self) -> u64 {
        self.master_seed
    }

    /// Derive the deterministic sub-seed for a named stream.
    pub fn stream_seed(&self, name: &str) -> u64 {
        let mut h = splitmix64(&mut (self.master_seed ^ 0x9e37_79b9_7f4a_7c15));
        for &b in name.as_bytes() {
            h = splitmix64(&mut (h ^ b as u64));
        }
        h
    }

    /// A fresh RNG for the named stream. Calling twice with the same name
    /// yields identical generators.
    pub fn stream(&self, name: &str) -> StdRng {
        StdRng::seed_from_u64(self.stream_seed(name))
    }

    /// A fresh RNG for a named stream with a numeric index (e.g. one stream
    /// per worker).
    pub fn indexed_stream(&self, name: &str, index: u64) -> StdRng {
        StdRng::seed_from_u64(splitmix64(&mut (self.stream_seed(name) ^ index)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::Rng;

    #[test]
    fn same_name_same_stream() {
        let hub = RngHub::new(42);
        let a: Vec<u64> = hub
            .stream("tasks")
            .sample_iter(rand::distributions::Standard)
            .take(8)
            .collect();
        let b: Vec<u64> = hub
            .stream("tasks")
            .sample_iter(rand::distributions::Standard)
            .take(8)
            .collect();
        assert_eq!(a, b);
    }

    #[test]
    fn different_names_differ() {
        let hub = RngHub::new(42);
        assert_ne!(hub.stream_seed("tasks"), hub.stream_seed("preemption"));
    }

    #[test]
    fn different_master_seeds_differ() {
        assert_ne!(
            RngHub::new(1).stream_seed("tasks"),
            RngHub::new(2).stream_seed("tasks")
        );
    }

    #[test]
    fn indexed_streams_differ_by_index() {
        let hub = RngHub::new(7);
        let mut a = hub.indexed_stream("worker", 0);
        let mut b = hub.indexed_stream("worker", 1);
        let xa: u64 = a.gen();
        let xb: u64 = b.gen();
        assert_ne!(xa, xb);
    }

    #[test]
    fn indexed_stream_reproducible() {
        let hub = RngHub::new(7);
        let x: u64 = hub.indexed_stream("worker", 5).gen();
        let y: u64 = hub.indexed_stream("worker", 5).gen();
        assert_eq!(x, y);
    }

    #[test]
    fn prefix_names_do_not_collide() {
        // "ab" + stream vs "a" + "bstream"-style collisions must not happen
        // because each byte passes through the mixer.
        let hub = RngHub::new(9);
        assert_ne!(hub.stream_seed("ab"), hub.stream_seed("a"));
        assert_ne!(hub.stream_seed(""), hub.stream_seed("a"));
    }
}
