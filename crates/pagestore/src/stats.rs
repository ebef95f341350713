//! I/O accounting: the observable the whole reproduction is built around.
//!
//! The paper's retrieval / storage / update costs are all expressed in
//! page accesses. Every [`Disk`](crate::Disk) operation bumps counters here,
//! and experiments take [`IoSnapshot`]s around an operation to obtain its
//! exact cost as an [`IoDelta`].

/// Cumulative counters for one file.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FileStats {
    /// Pages read.
    pub reads: u64,
    /// Pages written (including appends).
    pub writes: u64,
}

impl FileStats {
    /// Total page accesses (reads + writes) — the paper's cost unit.
    pub fn accesses(&self) -> u64 {
        self.reads + self.writes
    }
}

/// A point-in-time copy of the disk-wide counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct IoSnapshot {
    /// Total pages read across all files.
    pub reads: u64,
    /// Total pages written across all files.
    pub writes: u64,
}

impl IoSnapshot {
    /// Counters accumulated since `earlier`.
    ///
    /// Panics in debug builds if `earlier` is not actually earlier.
    pub fn since(&self, earlier: IoSnapshot) -> IoDelta {
        debug_assert!(self.reads >= earlier.reads && self.writes >= earlier.writes);
        IoDelta {
            reads: self.reads - earlier.reads,
            writes: self.writes - earlier.writes,
        }
    }

    /// Total page accesses.
    pub fn accesses(&self) -> u64 {
        self.reads + self.writes
    }
}

/// The I/O cost of a bracketed operation.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct IoDelta {
    /// Pages read during the operation.
    pub reads: u64,
    /// Pages written during the operation.
    pub writes: u64,
}

impl IoDelta {
    /// Total page accesses — directly comparable to the paper's `RC`,
    /// `UC_I`, `UC_D` figures.
    pub fn accesses(&self) -> u64 {
        self.reads + self.writes
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snapshot_delta() {
        let a = IoSnapshot {
            reads: 10,
            writes: 4,
        };
        let b = IoSnapshot {
            reads: 25,
            writes: 9,
        };
        let d = b.since(a);
        assert_eq!(
            d,
            IoDelta {
                reads: 15,
                writes: 5
            }
        );
        assert_eq!(d.accesses(), 20);
    }

    #[test]
    fn file_stats_accesses() {
        let fs = FileStats {
            reads: 7,
            writes: 3,
        };
        assert_eq!(fs.accesses(), 10);
    }
}
