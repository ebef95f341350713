//! lock-order fixture for a three-level hierarchy, shaped like a worker
//! pool over sharded facilities (the workspace's query service has no
//! such pool; this only exercises the lint): an admission queue ranks
//! above per-shard locks (the lexical ranges of the two guards may
//! overlap), with a per-query pending latch as the leaf. Clean
//! worker/writer paths pass; inverting either edge is an order violation.

use std::sync::{Mutex, RwLock};

struct ServicePool {
    // LOCK-ORDER: svc.admission
    admission: Mutex<u32>,
    // LOCK-ORDER: svc.shard < svc.admission
    shard: RwLock<u32>,
    // LOCK-ORDER: svc.pending < svc.shard leaf
    pending: Mutex<u32>,
}

impl ServicePool {
    fn worker_pops_then_scans(&self) {
        let q = self.admission.lock();
        let s = self.shard.read();
        drop(s);
        drop(q);
    }

    fn writer_updates_then_completes(&self) {
        let s = self.shard.write();
        let p = self.pending.lock();
        let _ = (s, p);
    }

    fn admission_to_leaf_transitively(&self) {
        let q = self.admission.lock();
        let p = self.pending.lock();
        let _ = (q, p);
    }

    fn queue_bookkeeping_under_a_shard_guard(&self) {
        let s = self.shard.read();
        let q = self.admission.lock(); //~ ERROR lock-order: order-violation
        let _ = (s, q);
    }

    fn shard_under_the_pending_leaf(&self) {
        let p = self.pending.lock();
        let s = self.shard.write(); //~ ERROR lock-order: order-violation
        let _ = (p, s);
    }
}
