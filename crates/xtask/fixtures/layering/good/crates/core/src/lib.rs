//! Layering PASS fixture: downward references only.

use setsig_pagestore::Disk;

/// Storage-layer code stays in the storage layer.
pub fn f(_d: &Disk) {}

/// Test code may reach what the dev-dependencies reach.
#[cfg(test)]
mod tests {
    use setsig_workload::WorkloadConfig;
}
