//! cost PASS fixture: tight contracts at every level — the page
//! primitive, a linear scan, a composed degree-2 slice scan, a contracted
//! hot-path root, a pure kernel root that owes nothing, an uncontracted
//! entry that only enters a composite contract, and an allowlisted
//! maintenance read. Nothing here may produce a diagnostic.

/// The page-primitive wrapper: one page per call, degree 0.
// COST: 1 pages
pub fn read_one(p: u32) -> u32 {
    read_page(p);
    p / 2
}

/// A linear scan: one lexical loop over a degree-0 contract.
// COST: npages pages
pub fn row_scan(npages: u32) {
    for p in 0..npages {
        read_one(p);
    }
}

/// One slice is `pages_per_slice` sequential page reads…
// COST: pages_per_slice pages
pub fn read_slice(pages_per_slice: u32) {
    for p in 0..pages_per_slice {
        read_page(p);
    }
}

/// …and the AND scan loops slices over it: 1 lexical level + the
/// callee's declared degree 1 = exactly the declared degree 2.
// COST: slices * pages_per_slice pages
pub fn and_scan(ones: &[u32]) {
    for j in ones {
        read_slice(*j);
    }
}

/// A contracted hot-path root: the registry is satisfied, and the
/// overflow-chain `while` counts one opaque level within `height + chain`.
// HOT-PATH: fixture.probe
// COST: height + chain pages
pub fn probe(mut link: u32) -> u32 {
    while link != 0 {
        link = read_one(link);
    }
    link
}

/// A pure compute kernel on the hot path owes no contract: no page I/O,
/// no registry entry.
// HOT-PATH: fixture.kernel
pub fn kernel(a: u64, b: u64) -> u64 {
    a & b
}

/// An uncontracted entry point that only *enters* a composite (degree
/// ≥ 1) contract is sanctioned: the callee's bound accounts the pages.
pub fn service_entry(ones: &[u32]) {
    and_scan(ones);
}

/// A maintenance read justified in the allowlist
/// (`fixture.rs::compact` in the self-test's cost allowlist).
pub fn compact(npages: u32) {
    for p in 0..npages {
        read_page(p);
    }
}

/// Prose may mention the grammar — `COST: <expr> pages` — without
/// becoming an annotation, and test code is invisible to the analysis.
#[cfg(test)]
mod tests {
    use super::*;

    fn tests_read_freely() {
        read_page(0);
        assert_eq!(kernel(6, 3), 2);
    }
}
