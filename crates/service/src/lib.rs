//! Sharded concurrent query service over set access facilities.
//!
//! The paper's experiments (Ishikawa, Kitagawa & Ohbo, SIGMOD '93)
//! measure each signature-file organisation as a single-threaded scan.
//! This crate is the serving layer above those facilities: the object
//! store and its signature files are hash-partitioned into `N` shards
//! by OID ([`shard_of`]), a [`ShardRouter`] gives each shard
//! independent reader/writer access, and a [`QueryService`] fans every
//! [`SetQuery`](setsig_core::SetQuery) across a worker pool — bounded
//! admission queue, batched per-query admission, per-shard concurrent
//! `candidates_with_stats`, and a merge ([`merge_parts`]) that unions
//! candidates and *conserves* the scan-page charge (merged stats are
//! the exact sum of per-shard stats).
//!
//! Both [`ShardRouter`] and [`QueryService`] implement
//! [`SetAccessFacility`](setsig_core::SetAccessFacility) themselves, so
//! the measurement harness and exhibit pipeline drive a sharded store
//! exactly like a flat one. With one shard
//! ([`ServiceConfig::new`]`(1)`) the service is answer- and page-identical
//! to the facility it wraps, which is what keeps the drift gates meaningful.
//!
//! Correctness story (exercised by the repo-level differential tests):
//! a sharded, concurrently-updated service must agree with a serial,
//! single-shard oracle at every quiescent point — same candidates, no
//! OID duplicated or dropped across the shard boundary, page totals
//! conserved under the merge.

#![warn(missing_docs)]

mod config;
mod pool;
mod router;
#[cfg(test)]
pub(crate) mod testutil;

pub use config::ServiceConfig;
pub use pool::{QueryService, Ticket};
pub use router::{merge_parts, shard_of, QueryAnswer, ShardRouter};
