//! Failure injection on the write path: a failed insert is an `Err`, never
//! a panic, and a fault at any page access of a row writer leaves the
//! facility as if the call had never happened. A truncated disk image is an
//! `Err` on load. Faulted queries are checked by `tests/history.rs`.

#![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)] // test code

use setsig::core::{Layout, Result, SignatureFile};
use setsig::nix::Nix;
use setsig::prelude::*;
use std::sync::Arc;

fn setup() -> (Arc<Disk>, Ssf, Bssf, Nix) {
    let disk = Arc::new(Disk::new());
    let io = || Arc::clone(&disk) as Arc<dyn PageIo>;
    let mut ssf = Ssf::create(io(), "s", SignatureConfig::new(64, 2).unwrap()).unwrap();
    let mut bssf = Bssf::create(io(), "b", SignatureConfig::new(64, 2).unwrap()).unwrap();
    let mut nix = Nix::on_io(io(), "n");
    for i in 0..200u64 {
        let set: Vec<ElementKey> = (0..4).map(|j| ElementKey::from(i * 7 + j)).collect();
        ssf.insert(Oid::new(i), &set).unwrap();
        bssf.insert(Oid::new(i), &set).unwrap();
        nix.insert(Oid::new(i), &set).unwrap();
    }
    (disk, ssf, bssf, nix)
}

#[test]
fn inserts_fail_cleanly() {
    let (disk, mut ssf, mut bssf, mut nix) = setup();
    let set: Vec<ElementKey> = (0..4).map(|j| ElementKey::from(9000 + j)).collect();
    disk.inject_fault_after(0);
    assert!(ssf.insert(Oid::new(900), &set).is_err());
    assert!(bssf.insert(Oid::new(900), &set).is_err());
    assert!(nix.insert(Oid::new(900), &set).is_err());
    disk.clear_fault();
    // The nix tree may have a torn multi-element insert (one key in, the
    // rest not) — the tree itself must still be structurally sound.
    nix.tree().check_integrity().unwrap();
}

#[test]
fn persistence_load_failures_are_errors() {
    let (disk, ..) = setup();
    let dir = std::env::temp_dir().join(format!("setsig-fault-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("img.bin");
    disk.save_to(&path).unwrap();
    let bytes = std::fs::read(&path).unwrap();
    std::fs::write(&path, &bytes[..100]).unwrap();
    assert!(Disk::load_from(&path).is_err());
    std::fs::remove_dir_all(&dir).ok();
}

// ---- Fault sweep of the row writers (SSF rows, BSSF slices, FSSF frames) --
//
// An insert sets its row's bits and then appends the OID, the commit point.
// A fault at any page access before that must leave the row as if the call
// had never happened: the next acknowledged object gets the same position
// and must not inherit the failed one's bits (a `T ⊆ Q` / `T = Q` false
// negative), whichever access the fault hit.

type Entry = (Oid, Vec<ElementKey>);

/// What the sweep needs to know of a layout beyond the signature file.
trait RowFacility: SetAccessFacility {
    /// Disk writes an insert of `set` makes when nothing failed before it.
    fn own_writes(&self, set: &[ElementKey]) -> u64;
}

impl RowFacility for Ssf {
    fn own_writes(&self, _set: &[ElementKey]) -> u64 {
        2
    }
}

impl RowFacility for Bssf {
    fn own_writes(&self, set: &[ElementKey]) -> u64 {
        u64::from(self.config().signature(set).count_ones()) + 1
    }
}

impl RowFacility for Fssf {
    fn own_writes(&self, set: &[ElementKey]) -> u64 {
        let cfg = self.config();
        let mut frames: Vec<u32> = set.iter().map(|e| cfg.frame_of(e)).collect();
        frames.sort_unstable();
        frames.dedup();
        // A row that starts a frame page extends every frame first.
        let new_page = self.oid_file().len().is_multiple_of(cfg.rows_per_page());
        frames.len() as u64 + 1 + if new_page { u64::from(cfg.frames()) } else { 0 }
    }
}

fn elems(range: std::ops::Range<u64>) -> Vec<ElementKey> {
    range.map(ElementKey::from).collect()
}

/// Queries under all five predicates that `set`'s object must answer.
fn own_queries(set: &[ElementKey]) -> Vec<SetQuery> {
    let absent = ElementKey::from(777_777u64);
    let mut wider = set.to_vec();
    wider.push(absent.clone());
    let mut queries = vec![
        SetQuery::has_subset(set[..set.len().min(2)].to_vec()),
        SetQuery::in_subset(wider),
        SetQuery::equals(set.to_vec()),
    ];
    if let Some(first) = set.first() {
        queries.push(SetQuery::overlaps(vec![first.clone(), absent]));
        queries.push(SetQuery::contains(first.clone()));
    }
    queries
}

fn assert_all_found(fac: &dyn SetAccessFacility, acknowledged: &[Entry], when: &str) {
    for (oid, set) in acknowledged {
        for q in own_queries(set) {
            assert!(
                fac.candidates(&q).unwrap().oids.contains(oid),
                "{} {when}: {oid} is missing from its own {} query",
                fac.name(),
                q.predicate
            );
        }
    }
}

/// One injection point: `op` runs with a fault after `n` page accesses. If
/// it fails, a different object is inserted and must take the position the
/// failed call was writing, at no more than its own writes plus the failed
/// call's, with no acknowledged object lost. Returns whether `op` failed.
fn torn_round<L: Layout>(
    disk: &Disk,
    fac: &mut SignatureFile<L>,
    acknowledged: &mut Vec<Entry>,
    n: u64,
    op: impl FnOnce(&mut SignatureFile<L>) -> Result<()>,
) -> bool
where
    SignatureFile<L>: RowFacility,
{
    let pos = fac.oid_file().len();
    let before = disk.snapshot().writes;
    disk.inject_fault_after(n);
    let outcome = op(fac);
    disk.clear_fault();
    let failed_writes = disk.snapshot().writes - before;
    if outcome.is_ok() {
        return false;
    }
    let when = format!("after a fault at access {n} of a write at position {pos}");
    assert_eq!(
        fac.oid_file().len(),
        pos,
        "{when}: a failed call commits nothing"
    );

    // Disjoint from every other set in the test, the failed one included.
    let recovery: Entry = (
        Oid::new(500_000 + n),
        elems(600_000 + 8 * n..600_004 + 8 * n),
    );
    let own = fac.own_writes(&recovery.1);
    let before = disk.snapshot().writes;
    fac.insert(recovery.0, &recovery.1).unwrap();
    let writes = disk.snapshot().writes - before;
    let last = fac.oid_file().scan_live().unwrap().pop();
    assert_eq!(last, Some((pos, recovery.0)), "{when}");
    assert!(
        writes <= own + failed_writes,
        "{} {when}: recovery wrote {writes} pages, its own {own} + the failed call's {failed_writes}",
        fac.name()
    );
    acknowledged.push(recovery);
    assert_all_found(fac, acknowledged, &when);
    true
}

/// Sweeps every injection point of a single insert, one after the other on
/// the same facility; returns how many there were (`io_count(insert)`).
fn sweep_inserts<L: Layout>(
    disk: &Disk,
    fac: &mut SignatureFile<L>,
    acknowledged: &mut Vec<Entry>,
) -> u64
where
    SignatureFile<L>: RowFacility,
{
    let mut n = 0;
    while torn_round(disk, fac, acknowledged, n, |f| {
        f.insert(
            Oid::new(900_000 + n),
            &elems(910_000 + 8 * n..910_006 + 8 * n),
        )
    }) {
        n += 1;
    }
    n
}

/// Sweeps every injection point of writing `entries` at one fixed position:
/// the facility is rebuilt for each, and after the recovery insert the
/// failed write itself is retried and must go through whole.
fn sweep_at<L: Layout>(
    build: impl Fn() -> (Arc<Disk>, SignatureFile<L>, Vec<Entry>),
    entries: &[Entry],
    write: fn(&mut SignatureFile<L>, &[Entry]) -> Result<()>,
) -> u64
where
    SignatureFile<L>: RowFacility,
{
    let mut n = 0;
    loop {
        let (disk, mut fac, mut acknowledged) = build();
        if !torn_round(&disk, &mut fac, &mut acknowledged, n, |f| write(f, entries)) {
            return n;
        }
        write(&mut fac, entries).unwrap();
        acknowledged.extend_from_slice(entries);
        assert_all_found(
            &fac,
            &acknowledged,
            &format!("after the retry of round {n}"),
        );
        n += 1;
    }
}

fn entry(i: u64) -> Entry {
    (Oid::new(i), elems(i * 7..i * 7 + 4))
}

fn populated(fac: &mut dyn SetAccessFacility, n: u64) -> Vec<Entry> {
    let entries: Vec<Entry> = (0..n).map(entry).collect();
    for (oid, set) in &entries {
        fac.insert(*oid, set).unwrap();
    }
    entries
}

#[test]
fn ssf_insert_survives_a_fault_at_every_page_access() {
    let build = |rows: u64| {
        let disk = Arc::new(Disk::new());
        let io = Arc::clone(&disk) as Arc<dyn PageIo>;
        let mut ssf = Ssf::create(io, "s", SignatureConfig::new(64, 2).unwrap()).unwrap();
        let acknowledged = populated(&mut ssf, rows);
        (disk, ssf, acknowledged)
    };
    // Mid-page: the signature page's write, then the OID page's.
    let (disk, mut ssf, mut acknowledged) = build(200);
    assert_eq!(sweep_inserts(&disk, &mut ssf, &mut acknowledged), 2);

    // And where the row starts a signature page: the page a failed call
    // appended is written over, not followed by a second one.
    let per_page = ssf.signatures_per_page();
    let points = sweep_at(
        || {
            let (disk, ssf, mut acknowledged) = build(per_page);
            let recent = acknowledged.split_off(acknowledged.len() - 20);
            (disk, ssf, recent)
        },
        &[(Oid::new(900_000), elems(910_000..910_006))],
        |f, entries| f.insert(entries[0].0, &entries[0].1),
    );
    assert_eq!(points, 2);
}

#[test]
fn bssf_insert_survives_a_fault_at_every_page_access() {
    let disk = Arc::new(Disk::new());
    let io = Arc::clone(&disk) as Arc<dyn PageIo>;
    let mut bssf = Bssf::create(io, "b", SignatureConfig::new(64, 2).unwrap()).unwrap();
    let mut acknowledged = populated(&mut bssf, 200);
    let points = sweep_inserts(&disk, &mut bssf, &mut acknowledged);
    // Six elements, m = 2: up to 12 slice writes, then the OID write.
    assert!((8..=13).contains(&points), "{points} injection points");
}

#[test]
fn fssf_insert_survives_a_fault_at_every_page_access() {
    let build = |cfg: FssfConfig, rows: u64| {
        let disk = Arc::new(Disk::new());
        let io = Arc::clone(&disk) as Arc<dyn PageIo>;
        let mut fssf = Fssf::create(io, "f", cfg).unwrap();
        let acknowledged = populated(&mut fssf, rows);
        (disk, fssf, acknowledged)
    };
    let (disk, mut fssf, mut acknowledged) = build(FssfConfig::new(64, 8, 2).unwrap(), 200);
    let points = sweep_inserts(&disk, &mut fssf, &mut acknowledged);
    assert!((2..=7).contains(&points), "{points} injection points");

    // And where the row starts a frame page (two frames of 32 bits: 1,024
    // rows a page), so that the insert first extends every frame.
    let cfg = FssfConfig::new(64, 2, 2).unwrap();
    let points = sweep_at(
        || {
            let (disk, fssf, mut acknowledged) = build(cfg, cfg.rows_per_page());
            let recent = acknowledged.split_off(acknowledged.len() - 20);
            (disk, fssf, recent)
        },
        &[(Oid::new(900_000), elems(910_000..910_006))],
        |f, entries| f.insert(entries[0].0, &entries[0].1),
    );
    assert!((4..=5).contains(&points), "{points} injection points");
}

#[test]
fn bssf_batch_across_a_row_page_survives_a_fault_at_every_page_access() {
    // 32,767 entries: the batch's first row is the last of row page 0 (and
    // of OID page 63), its other two open row page 1 and OID page 64.
    let first_row = 32_767u64;
    let build = || {
        let disk = Arc::new(Disk::new());
        let io = Arc::clone(&disk) as Arc<dyn PageIo>;
        let mut bssf = Bssf::create(io, "b", SignatureConfig::new(64, 2).unwrap()).unwrap();
        let filler = elems(424_242..424_243);
        let mut entries: Vec<Entry> = (0..first_row - 60)
            .map(|i| (Oid::new(i), filler.clone()))
            .collect();
        entries.extend((first_row - 60..first_row).map(entry));
        bssf.insert_batch(&entries).unwrap();
        assert_eq!(bssf.oid_file().len(), first_row);
        let recent = entries.split_off(entries.len() - 12);
        (disk, bssf, recent)
    };
    let batch: Vec<Entry> = (0..3u64)
        .map(|i| {
            (
                Oid::new(900_000 + i),
                elems(910_000 + 8 * i..910_006 + 8 * i),
            )
        })
        .collect();
    let points = sweep_at(build, &batch, Bssf::insert_batch);
    // One access per slice page touched on row page 0, two (gap check +
    // append) per slice page opened on row page 1, two OID pages.
    assert!(points > 20, "{points} injection points");
}
