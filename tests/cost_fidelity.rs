//! Measured page-access costs versus the paper's closed forms, at the
//! paper's exact parameters where cheap and at reduced scale elsewhere.

use setsig::core::OidFile;
use setsig::costmodel::{actual_drops_superset, fd_superset};
use setsig::nix::Nix;
use setsig::prelude::*;
use setsig_experiments::drift::{and_scan_pages, drops, group_size, occupancy, Banded};
use std::sync::Arc;

fn build_sets(n: u64, v: u64, d_t: u32, seed: u64) -> Vec<Vec<u64>> {
    let cfg = WorkloadConfig {
        n_objects: n,
        domain: v,
        cardinality: setsig::workload::Cardinality::Fixed(d_t),
        distribution: setsig::workload::Distribution::Uniform,
        seed,
    };
    SetGenerator::new(cfg).generate_all()
}

fn as_items(sets: &[Vec<u64>]) -> Vec<(Oid, Vec<ElementKey>)> {
    sets.iter()
        .enumerate()
        .map(|(i, s)| {
            (
                Oid::new(i as u64),
                s.iter().map(|&e| ElementKey::from(e)).collect(),
            )
        })
        .collect()
}

/// Ground-truth signature of every indexed set, in position order.
fn target_signatures(bssf: &Bssf, items: &[(Oid, Vec<ElementKey>)]) -> Vec<Signature> {
    items
        .iter()
        .map(|(_, set)| Signature::for_set(bssf.config(), set))
        .collect()
}

/// OID-file positions of the drops: OID `i` was indexed at position `i`.
fn positions(c: &CandidateSet) -> Vec<u64> {
    c.oids.iter().map(|o| o.raw()).collect()
}

/// The gate's band on `T ⊇ Q` drops of BSSF `F = 500, m = 2, D_t = 10`.
fn drops_band(p: &Params, d_q: u32) -> Banded {
    drops(
        p.n,
        fd_superset(500, 2, 10, d_q),
        actual_drops_superset(p, 10, d_q),
        group_size(p, 10),
    )
}

#[test]
fn ssf_storage_matches_model_at_paper_scale() {
    // SC_SIG for F = 500 must be exactly 493 pages; + SC_OID = 63.
    let sets = build_sets(32_000, 13_000, 10, 1);
    let disk = Arc::new(Disk::new());
    let io = Arc::clone(&disk) as Arc<dyn PageIo>;
    let mut ssf = Ssf::create(io, "s", SignatureConfig::new(500, 2).unwrap()).unwrap();
    for (oid, set) in as_items(&sets) {
        ssf.insert(oid, &set).unwrap();
    }
    assert_eq!(ssf.signature_pages().unwrap(), 493);
    assert_eq!(ssf.oid_file().storage_pages().unwrap(), 63);
    assert_eq!(ssf.storage_pages().unwrap(), 556);

    let model = SsfModel::new(Params::paper(), 500, 2, 10);
    assert_eq!(model.sc(), 556);
}

#[test]
fn bssf_storage_and_update_costs_match_model_at_paper_scale() {
    let sets = build_sets(32_000, 13_000, 10, 2);
    let disk = Arc::new(Disk::new());
    let io = Arc::clone(&disk) as Arc<dyn PageIo>;
    let mut bssf = Bssf::create(io, "b", SignatureConfig::new(250, 2).unwrap()).unwrap();
    bssf.bulk_load(&as_items(&sets)).unwrap();

    // SC = 1·250 + 63 = 313 (paper §6: "almost same as that of SSF").
    assert_eq!(bssf.storage_pages().unwrap(), 313);
    assert_eq!(BssfModel::new(Params::paper(), 250, 2, 10).sc(), 313);

    // UC_I = weight(sig) + 1 writes, exactly: only the slices whose bit is 1
    // (§6's anticipated improvement), not the paper's worst case F + 1 = 251.
    let set: Vec<ElementKey> = sets[0].iter().map(|&e| ElementKey::from(e)).collect();
    let weight = u64::from(Signature::for_set(bssf.config(), &set).weight());
    disk.reset_stats();
    bssf.insert(Oid::new(40_000), &set).unwrap();
    let d = disk.snapshot();
    assert_eq!((d.reads, d.writes), (0, weight + 1));
    let expected = BssfModel::new(Params::paper(), 250, 2, 10).uc_insert_sparse();
    assert!(
        (weight as f64 + 1.0 - expected).abs() < 3.0,
        "m_t + 1 ≈ {expected}"
    );

    // UC_D: expected SC_OID/2 reads + 1 write; for the entry just appended
    // (worst case end-of-file) the scan reads all 63 pages + writes 1.
    disk.reset_stats();
    bssf.delete(Oid::new(40_000), &set).unwrap();
    let d = disk.snapshot();
    assert_eq!((d.reads, d.writes), (63, 1));
}

#[test]
fn ssf_scan_cost_is_sc_sig_at_paper_scale() {
    // Retrieval with a never-matching query reads exactly the signature
    // file: Eq. (7) with F_d ≈ 0 and A = 0.
    let sets = build_sets(32_000, 13_000, 10, 3);
    let disk = Arc::new(Disk::new());
    let io = Arc::clone(&disk) as Arc<dyn PageIo>;
    let mut ssf = Ssf::create(io, "s", SignatureConfig::new(500, 35).unwrap()).unwrap();
    for (oid, set) in as_items(&sets) {
        ssf.insert(oid, &set).unwrap();
    }
    disk.reset_stats();
    // m_opt makes false drops negligible; a random 5-element query from
    // outside the domain cannot hit anything.
    let q = SetQuery::has_subset(
        (0..5)
            .map(|i| ElementKey::from(1_000_000 + i as u64))
            .collect(),
    );
    let c = ssf.candidates(&q).unwrap();
    assert!(c.is_empty());
    assert_eq!(disk.snapshot().reads, 493, "full scan of SC_SIG pages");
}

#[test]
fn bssf_superset_reads_m_q_slices_at_paper_scale() {
    let p = Params::paper();
    let items = as_items(&build_sets(p.n, p.v, 10, 4));
    let disk = Arc::new(Disk::new());
    let io = Arc::clone(&disk) as Arc<dyn PageIo>;
    let mut bssf = Bssf::create(io, "b", SignatureConfig::new(500, 2).unwrap()).unwrap();
    bssf.bulk_load(&items).unwrap();
    let sigs = target_signatures(&bssf, &items);

    let q = SetQuery::has_subset(vec![ElementKey::from(7u64), ElementKey::from(9_999u64)]);
    let ones: Vec<u32> = q.signature(bssf.config()).bitmap().iter_ones().collect();
    disk.reset_stats();
    let c = bssf.candidates(&q).unwrap();
    // Exactly the slices at the query signature's m_q one-bits (1 page each
    // at N = 32,000; fewer only if the AND empties first) plus the OID
    // pages holding a drop.
    assert_eq!(bssf.pages_per_slice(), 1);
    let slice_pages = and_scan_pages(&sigs, &ones, p.rows_per_slice_page() as usize);
    assert!(slice_pages <= ones.len() as u64);
    assert!(c.is_empty() || slice_pages == ones.len() as u64);
    assert_eq!(
        disk.snapshot().reads,
        slice_pages + OidFile::pages_touched(&positions(&c))
    );
    // Drops within the band around F_d·(N − A) + A.
    let band = drops_band(&p, 2);
    assert!(
        band.admits(c.len() as f64, 1),
        "{} drops vs {band:?}",
        c.len()
    );
}

#[test]
fn nix_structure_matches_table4_regime_at_paper_scale() {
    // d ≈ 24.6 OIDs per key, rc = 3 (height 2), as §4.3 derives.
    let sets = build_sets(32_000, 13_000, 10, 5);
    let disk = Arc::new(Disk::new());
    let mut nix = Nix::create(Arc::clone(&disk), "n");
    for (oid, set) in as_items(&sets) {
        nix.insert(oid, &set).unwrap();
    }
    assert_eq!(nix.tree().rc_lookup(), 3, "the paper's rc = 3");
    assert_eq!(nix.tree().posting_count(), 320_000);

    // Look-up cost for a D_q = 2 ⊇ query: rc·D_q = 6 reads before drops.
    disk.reset_stats();
    let q = SetQuery::has_subset(vec![ElementKey::from(3u64), ElementKey::from(5u64)]);
    let _ = nix.candidates(&q).unwrap();
    let reads = disk.snapshot().reads;
    assert_eq!(reads, 6, "rc·D_q with no overflow chains");

    nix.tree().check_integrity().unwrap();
}

#[test]
fn smart_strategies_cap_reads_and_stay_sound() {
    // §5.1.3 / §5.2.2: the smart strategies bound the slice reads while the
    // filter stays sound (no false negatives for a known-present target).
    let sets = build_sets(2_000, 1_000, 10, 7);
    let disk = Arc::new(Disk::new());
    let io = Arc::clone(&disk) as Arc<dyn PageIo>;
    let mut bssf = Bssf::create(io, "b", SignatureConfig::new(500, 2).unwrap()).unwrap();
    bssf.bulk_load(&as_items(&sets)).unwrap();

    // Superset smart: query = full target set (10 elements), cap at 2
    // elements → at most 2·m = 4 slice pages instead of up to 20.
    let target_keys: Vec<ElementKey> = sets[55].iter().map(|&e| ElementKey::from(e)).collect();
    let q_sup = SetQuery::has_subset(target_keys.clone());
    disk.reset_stats();
    let (c, scan) = bssf
        .candidates_with_stats(&q_sup.clone().with_cap(2).unwrap())
        .unwrap();
    let scan = scan.unwrap();
    assert!(
        c.oids.contains(&Oid::new(55)),
        "smart ⊇ must keep the true match"
    );
    // At most 2·m = 4 slice pages, plus the OID-file look-up pages (the
    // whole OID file spans ⌈2000/512⌉ = 4 pages).
    assert!(scan.pages <= 4 + 4, "smart ⊇ charged {} pages", scan.pages);
    // Full strategy reads more slices and yields a subset of the smart
    // strategy's drops (more slices ANDed → fewer candidates).
    let (full, full_scan) = bssf.candidates_with_stats(&q_sup).unwrap();
    assert!(full_scan.unwrap().pages >= scan.pages);
    for oid in &full.oids {
        assert!(c.oids.contains(oid), "smart drops must cover full drops");
    }

    // Subset smart: cap the 0-slice reads at 40 of the ~480.
    let q_sub = SetQuery::in_subset(target_keys);
    disk.reset_stats();
    let (c, scan) = bssf
        .candidates_with_stats(&q_sub.clone().with_cap(40).unwrap())
        .unwrap();
    let scan = scan.unwrap();
    assert!(
        c.oids.contains(&Oid::new(55)),
        "smart ⊆ must keep the true match"
    );
    // Exactly the 40-slice cap, plus 1–4 OID-file look-up pages.
    assert!(
        scan.pages >= 40 && scan.pages <= 40 + 4,
        "⊆ smart charged {} pages for a 40-slice cap",
        scan.pages
    );
    let (full, full_scan) = bssf.candidates_with_stats(&q_sub).unwrap();
    assert!(full_scan.unwrap().pages >= 40);
    for oid in &full.oids {
        assert!(c.oids.contains(oid), "smart ⊆ drops must cover full drops");
    }
}

#[test]
fn cached_engine_serves_hot_slices_without_disk_reads() {
    // Routing slice reads through the buffer pool: the second identical
    // query finds every slice page resident — pool hits, zero disk reads —
    // while the page charge stays exactly the uncached protocol's.
    let sets = build_sets(2_000, 1_000, 10, 9);
    let disk = Arc::new(Disk::new());
    let pool = Arc::new(BufferPool::new(Arc::clone(&disk), 512));
    let io = Arc::clone(&pool) as Arc<dyn PageIo>;
    let mut bssf = Bssf::create(io, "b", SignatureConfig::new(250, 2).unwrap()).unwrap();
    bssf.bulk_load(&as_items(&sets)).unwrap();
    // The write-through load installed every page; start from a cold pool.
    pool.clear();

    let q = SetQuery::has_subset(vec![ElementKey::from(7u64), ElementKey::from(423u64)]);
    let (first, first_scan) = bssf.candidates_with_stats(&q).unwrap();
    let first_scan = first_scan.unwrap();
    let cold = bssf.cache_stats().unwrap();
    assert!(cold.misses > 0, "cold scan must reach the disk");

    disk.reset_stats();
    let (second, second_scan) = bssf.candidates_with_stats(&q).unwrap();
    let second_scan = second_scan.unwrap();
    let hot = bssf.cache_stats().unwrap();

    assert_eq!(first, second, "cache must not change answers");
    assert_eq!(
        first_scan, second_scan,
        "page accounting is cache-independent"
    );
    assert_eq!(
        disk.snapshot().reads,
        0,
        "hot query must be served from the pool"
    );
    assert!(hot.hits > cold.hits, "second query must hit the pool");

    // Same story for the SSF full scan.
    let disk2 = Arc::new(Disk::new());
    let io2 = Arc::new(BufferPool::new(Arc::clone(&disk2), 128)) as Arc<dyn PageIo>;
    let mut ssf = Ssf::create(io2, "s", SignatureConfig::new(500, 2).unwrap()).unwrap();
    for (oid, set) in as_items(&sets[..500]) {
        ssf.insert(oid, &set).unwrap();
    }
    let q = SetQuery::has_subset(vec![ElementKey::from(11u64)]);
    let first = ssf.candidates(&q).unwrap();
    disk2.reset_stats();
    let second = ssf.candidates(&q).unwrap();
    assert_eq!(first, second);
    assert_eq!(
        disk2.snapshot().reads,
        0,
        "hot SSF scan must be pool-resident"
    );
    assert!(ssf.cache_stats().unwrap().hits > 0);
}

#[test]
fn measured_superset_rc_tracks_model_at_reduced_scale() {
    // Whole-pipeline fidelity on the drift gate's comparator (model and
    // instance at the same 1/8 scale): every query reads exactly the
    // predicted pages, and the two stochastic quantities of Eq. (8) — the
    // query weight behind the slice term, the drops behind LC_OID and the
    // object fetches — average within their bands.
    let p = Params::scaled(4000, 1625);
    let items = as_items(&build_sets(p.n, p.v, 10, 6));
    let disk = Arc::new(Disk::new());
    let io = Arc::clone(&disk) as Arc<dyn PageIo>;
    let mut bssf = Bssf::create(io, "b", SignatureConfig::new(500, 2).unwrap()).unwrap();
    bssf.bulk_load(&items).unwrap();
    let sigs = target_signatures(&bssf, &items);

    let mut qg = QueryGen::new(p.v, 77);
    for d_q in [1u32, 2, 4, 8] {
        let trials = 8;
        let (mut weight, mut drops) = (0u64, 0u64);
        for _ in 0..trials {
            let q =
                SetQuery::has_subset(qg.random(d_q).into_iter().map(ElementKey::from).collect());
            let ones: Vec<u32> = q.signature(bssf.config()).bitmap().iter_ones().collect();
            disk.reset_stats();
            let c = bssf.candidates(&q).unwrap();
            assert_eq!(
                disk.snapshot().reads,
                and_scan_pages(&sigs, &ones, p.rows_per_slice_page() as usize)
                    + OidFile::pages_touched(&positions(&c)),
                "D_q = {d_q}"
            );
            weight += ones.len() as u64;
            drops += c.len() as u64;
        }
        let avg = |total: u64| total as f64 / trials as f64;
        let m_s = occupancy(500, 2, d_q);
        assert!(
            m_s.admits(avg(weight), trials),
            "D_q = {d_q}: weight {} vs {m_s:?}",
            avg(weight)
        );
        let band = drops_band(&p, d_q);
        assert!(
            band.admits(avg(drops), trials),
            "D_q = {d_q}: drops {} vs {band:?}",
            avg(drops)
        );
    }
}

#[test]
fn resolution_charges_one_page_per_inline_candidate_and_the_span_of_a_spanning_one() {
    const PAGE: usize = 4096;
    let mut db = Database::in_memory();
    let class = db
        .define_class(ClassDef::new(
            "Synthetic",
            vec![("elems", AttrType::set_of(AttrType::Int))],
        ))
        .unwrap();
    let ints = |r: std::ops::Range<i64>| Value::set(r.map(Value::Int).collect());
    let k = 40u64;
    let mut oids: Vec<Oid> = (0..k as i64)
        .map(|i| db.insert_object(class, vec![ints(i..i + 10)]).unwrap())
        .collect();
    let big = db.insert_object(class, vec![ints(0..1000)]).unwrap();
    oids.push(big);
    let span = db.get_object(big).unwrap().encode().len().div_ceil(PAGE) as u64;
    assert_eq!(span, 3, "9 bytes an element");

    let source = db.target_source(class, "elems").unwrap();
    let candidates = CandidateSet::new(oids, false);
    let keys = |r: std::ops::Range<u64>| r.map(ElementKey::from).collect::<Vec<_>>();
    // Every stored set starts below 40 and ends at 9 or above. Against
    // {5000..5003} each verdict but ⊇'s is fixed by the first element read
    // (a miss, and no hit can follow); against {0..2000} ⊆ and = need the
    // last one. The charge is the same: the record is read to its end.
    for elements in [keys(5000..5003), keys(0..2000), keys(5..6), vec![]] {
        for predicate in [
            SetPredicate::HasSubset,
            SetPredicate::InSubset,
            SetPredicate::Equals,
            SetPredicate::Overlaps,
        ] {
            let query = SetQuery::new(predicate, elements.clone());
            let before = db.disk().snapshot();
            let report = resolve_drops(&query, &candidates, &source).unwrap();
            let io = db.disk().snapshot().since(before);
            assert_eq!(
                (io.reads, io.writes),
                (k + span, 0),
                "{predicate} against {} elements",
                elements.len()
            );
            assert_eq!(report.candidates, k + 1);
        }
    }
}
