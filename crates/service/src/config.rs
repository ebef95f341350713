//! Service sizing knobs: shard count, admission-queue depth, worker count.

use setsig_core::{Error, Result};

/// How a [`QueryService`](crate::QueryService) is laid out: how many
/// shards the store is hash-partitioned into, how deep the bounded
/// admission queue is, and how many worker threads drain it. Set by the
/// program that builds the service; no environment variable spells it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServiceConfig {
    /// Number of hash partitions (≥ 1). One facility instance per shard.
    pub shards: usize,
    /// Bounded admission-queue depth in shard-tasks (≥ 1). A query fans
    /// out into `shards` tasks admitted as one batch, so the effective
    /// capacity is `max(queue_depth, shards)` — a single query always
    /// fits.
    pub queue_depth: usize,
    /// Worker threads draining the queue (≥ 1).
    pub workers: usize,
}

impl ServiceConfig {
    /// Default queue depth in shard-tasks.
    pub const DEFAULT_QUEUE_DEPTH: usize = 64;

    /// A config for `shards` partitions: default queue depth, one worker
    /// per shard (capped at 8).
    pub fn new(shards: usize) -> Self {
        ServiceConfig {
            shards,
            queue_depth: Self::DEFAULT_QUEUE_DEPTH,
            workers: shards.clamp(1, 8),
        }
    }

    /// Sets the admission-queue depth (builder style).
    #[must_use]
    pub fn with_queue_depth(mut self, depth: usize) -> Self {
        self.queue_depth = depth;
        self
    }

    /// Sets the worker count (builder style).
    #[must_use]
    pub fn with_workers(mut self, workers: usize) -> Self {
        self.workers = workers;
        self
    }

    /// Validates the config: every knob must be ≥ 1. Zero shards cannot
    /// hold objects, a zero-depth queue admits nothing, and zero workers
    /// would leave admitted queries waiting forever — each is a config
    /// typo that must fail loudly, not hang.
    pub fn validate(&self) -> Result<()> {
        for (name, v) in [
            ("shards", self.shards),
            ("queue_depth", self.queue_depth),
            ("workers", self.workers),
        ] {
            if v == 0 {
                return Err(Error::BadConfig(format!(
                    "service {name} must be >= 1, got 0"
                )));
            }
        }
        Ok(())
    }

    /// The effective admission-queue capacity: `queue_depth`, raised to
    /// `shards` so one query's whole fan-out batch always fits.
    pub fn capacity(&self) -> usize {
        self.queue_depth.max(self.shards)
    }
}

impl Default for ServiceConfig {
    fn default() -> Self {
        ServiceConfig::new(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_single_shard_serial() {
        let c = ServiceConfig::default();
        assert_eq!(c.shards, 1);
        assert_eq!(c.queue_depth, ServiceConfig::DEFAULT_QUEUE_DEPTH);
        assert_eq!(c.workers, 1);
        assert!(c.validate().is_ok());
    }

    #[test]
    fn workers_track_shards_with_a_cap() {
        assert_eq!(ServiceConfig::new(4).workers, 4);
        assert_eq!(ServiceConfig::new(32).workers, 8);
    }

    #[test]
    fn zero_knobs_are_rejected_by_name() {
        for (cfg, name) in [
            (ServiceConfig::new(1).with_queue_depth(0), "queue_depth"),
            (ServiceConfig::new(1).with_workers(0), "workers"),
            (
                ServiceConfig {
                    shards: 0,
                    queue_depth: 1,
                    workers: 1,
                },
                "shards",
            ),
        ] {
            let err = cfg.validate().unwrap_err();
            assert!(err.to_string().contains(name), "{err}");
        }
    }

    #[test]
    fn capacity_always_fits_one_batch() {
        let c = ServiceConfig::new(16).with_queue_depth(4);
        assert_eq!(c.capacity(), 16);
        assert_eq!(ServiceConfig::new(2).capacity(), 64);
    }
}
