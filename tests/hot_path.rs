//! Hot-path budgets, counted.
//!
//! The engine's claim — nothing is allocated per page scanned, per slice
//! combined or per candidate resolved — is held here by a number: this
//! binary installs a counting global allocator and runs each path on real
//! instances. A word kernel, a buffer-pool hit and the record walk of an
//! inline candidate must allocate nothing; a `BTree::lookup` at most the
//! `Vec` it returns, whatever the height and the chain, and a
//! `BTree::lookup_many` over hundreds of keys only that `Vec`'s growth;
//! and a filter scan
//! what its query and its answer need, not what it read — NIX's `T ⊆ Q` and
//! `T ≬ Q` unions their query's digests, their pooled postings, one tally
//! table and their answer; the same query over [`SMALL`] objects and over
//! an instance of the same objects plus sixteen times as many that do not
//! match must return the same candidates from several times the pages with
//! no allocation more. Each path also has a shape that reads ten times more
//! pages than its whole budget, so that one allocation a page could not pass
//! for noise.
//!
//! A NIX update has a test of its own, since it reads `height + 1` pages
//! and no shape could read ten times its budget: an insert into an inline
//! posting allocates the leaf's copy-on-write copy and the descent path, a
//! remove the copy, however many entries the leaf holds and whether the
//! leaf compacts first.
//!
//! Loading an object, parsing a query or planning it reads no page, so
//! those four paths count elements where the others count pages:
//! `Value::set` and `Database::plan` allocate nothing however large the
//! set, and the set-signature encoder `SignatureConfig::signature` and
//! `parse_query` over 1,000 elements what they do over 10.
//!
//! `cargo test --test hot_path -- --nocapture` prints the table. To see it
//! bite, compile the `RowTest` per page in `Rows::scan_page`, allocate per
//! row in the FSSF scan (`Frames::match_frames`), `.to_vec()` the page in
//! `Slices::slice_page` or the key in `Verifier::observe`, `collect()` a
//! node's keys in `BTree::descend`, parse the leaf (`Leaf::entries`)
//! before `Leaf::compact` in `BTree::insert_into_leaf`, sort `Value::set`
//! by `sort_by_key(Value::encode)`, have `ElementHasher::positions_into`
//! fill a fresh `Vec` per element, or have `parse_query` collect its tokens
//! into a `Vec` or give each string literal a `String`.

#![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)] // test code

use counting_alloc::{count, CountingAlloc};
use setsig::core::{kernel, FssfConfig};
use setsig::nix::BTree;
use setsig::oodb::{parse_query, ClassId};
use setsig::pagestore::{count_reads, Page, PagedFile, PAGE_SIZE};
use setsig::prelude::*;
use setsig::workload::Cardinality;
use setsig_experiments::SimDb;
use std::hint::black_box;
use std::sync::Arc;

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

/// Signature width of every facility built here.
const F: u32 = 500;
/// `F·ln 2 / D_t` at `D_t = 10`: the classic weight the paper sets its small
/// `m` against. One query element is 35 slices, so a `T ⊇ Q` scan reads
/// several times more pages than hashing its query allocates.
const M: u32 = 35;
/// FSSF's frames and their per-element weight: 50 frames of 10 bits, so a
/// frame page holds 3,276 rows.
const FRAMES: u32 = 50;
const FRAME_M: u32 = 3;
/// Objects of the small instance; OID `TARGET` is the one the queries hit.
const SMALL: u64 = 4_096;
const TARGET: usize = 1_234;
/// Rows a BSSF slice page holds: the large instance spans three.
const ROW_PAGE: u64 = (PAGE_SIZE * 8) as u64;
const LARGE: u64 = 2 * ROW_PAGE + SMALL;

struct Row {
    path: &'static str,
    shape: String,
    /// Pages read — or, on the two load paths, which read none, the set
    /// elements ordered or hashed.
    work: u64,
    allocations: u64,
    budget: u64,
}

impl Row {
    fn name(&self) -> String {
        format!("{} [{}]", self.path, self.shape)
    }
}

fn print(rows: &[Row]) {
    let width = rows.iter().map(|r| r.name().chars().count()).max();
    let width = width.unwrap_or(0);
    println!(
        "{:<width$} | {:>14} | {:>11} | {:>6}",
        "path", "pages|elements", "allocations", "budget"
    );
    for r in rows {
        println!(
            "{:<width$} | {:>14} | {:>11} | {:>6}",
            r.name(),
            r.work,
            r.allocations,
            r.budget
        );
    }
}

/// Every row over its budget, and every path none of whose shapes reads ten
/// times more pages than it may allocate.
fn violations(rows: &[Row]) -> Vec<String> {
    let over = rows.iter().filter(|r| r.allocations > r.budget);
    let mut out: Vec<String> = over
        .map(|r| {
            format!(
                "{}: {} allocations over {} pages|elements, budget {}",
                r.name(),
                r.allocations,
                r.work,
                r.budget
            )
        })
        .collect();
    let mut paths: Vec<&str> = rows.iter().map(|r| r.path).collect();
    paths.dedup();
    for path in paths {
        let shapes = || rows.iter().filter(|r| r.path == path);
        if shapes().any(|r| r.work >= 10 * r.budget) {
            continue;
        }
        let widest = shapes().max_by_key(|r| r.work).unwrap();
        out.push(format!(
            "{}: {} pages|elements against a budget of {} allocations — no shape of this path \
             reads 10× its budget, so an allocation per page or element could hide",
            widest.name(),
            widest.work,
            widest.budget
        ));
    }
    out
}

/// What a `Vec` asks of the allocator to take `n` pushes: the part of a
/// budget that is the answer's.
fn vec_growth(n: usize) -> u64 {
    count(|| {
        let mut v = Vec::new();
        (0..n as u64).for_each(|i| v.push(Oid::new(i)));
        black_box(v);
    })
    .0
}

fn keys(elements: &[u64]) -> Vec<ElementKey> {
    elements.iter().map(|&e| ElementKey::from(e)).collect()
}

/// The four scan queries with their signatures, and the set of the rows
/// that keep a `T ⊇ Q` scan reading.
struct Probes {
    cfg: SignatureConfig,
    /// `T ⊇ Q`, `T ⊆ Q`, `T = Q`, `T ≬ Q`, in that order.
    queries: [(SetQuery, Bitmap); 4],
    /// Has every bit of the `T ⊇ Q` signature but the highest: a row page
    /// holding this set stays alive to the scan's last slice and yields no
    /// drop.
    near_miss: Vec<u64>,
    /// The FSSF frames the `T ⊆ Q` query's elements hash to (the `T ⊇ Q`
    /// query's are among them).
    frames: Vec<u32>,
}

impl Probes {
    fn new(sim: &SimDb) -> Self {
        let cfg = SignatureConfig::new(F, M).unwrap();
        let element_signature = |e: u64| cfg.signature(&keys(&[e]));
        let target = &sim.sets[TARGET];
        let superset = SetQuery::has_subset(keys(&target[..2]));
        let wanted = cfg.signature(&superset.elements);
        let last = wanted.iter_ones().last().unwrap();
        let mut covered = Bitmap::zeroed(F);
        let near_miss: Vec<u64> = (2_000_000u64..)
            .filter(|&e| !element_signature(e).get(last))
            .take_while(|&e| {
                let short = wanted.count_ones() - covered.intersection_count(&wanted);
                covered.or_assign(&element_signature(e));
                short > 1
            })
            .collect();
        // One absent element sharing that highest bit: `T ≬ Q` asks for all
        // 35 of its bits, and the near-miss rows lack one.
        let absent = (3_000_000u64..)
            .find(|&e| element_signature(e).get(last))
            .unwrap();
        let mut wider = target.clone();
        wider.extend_from_slice(&sim.sets[TARGET + 1][..2]);
        let queries = [
            superset,
            SetQuery::in_subset(keys(&wider)),
            SetQuery::equals(keys(target)),
            SetQuery::overlaps(keys(&[absent])),
        ];
        let frames = queries[1].elements.iter().map(|e| fssf().frame_of(e));
        Probes {
            cfg,
            frames: frames.collect(),
            queries: queries.map(|q| {
                let sig = cfg.signature(&q.elements);
                (q, sig)
            }),
            near_miss,
        }
    }

    /// Whether a row holding `set` would be a drop of one of the queries —
    /// for FSSF, conservatively: whether one of its elements hashes to a
    /// query frame. (A row with bits outside the query's frames is no
    /// `T ⊆ Q` drop, and one with bits only there no `T ⊇ Q` drop.)
    fn drops(&self, set: &[u64]) -> bool {
        let row = self.cfg.signature(&keys(set));
        let matches = |(q, sig): &(SetQuery, Bitmap)| q.signature_matches(&self.cfg, &row, sig);
        let framed = |e: &ElementKey| self.frames.contains(&fssf().frame_of(e));
        self.queries.iter().any(matches) || keys(set).iter().any(framed)
    }
}

fn fssf() -> FssfConfig {
    FssfConfig::new(F, FRAMES, FRAME_M).unwrap()
}

fn small_instance() -> SimDb {
    SimDb::build(WorkloadConfig {
        n_objects: SMALL,
        domain: 2_000,
        cardinality: Cardinality::Fixed(10),
        seed: 1993,
    })
}

/// The small instance plus rows that are no query's drop, to three row
/// pages: one near-miss row at the head of each new row page, and otherwise
/// one-element sets over elements of their own, which between them set every
/// slice. (The element hasher's positions are an arithmetic progression, so
/// a few dozen of 65,000 such sets would be `T ⊆ Q` false drops: skipped.)
fn large_instance(probes: &Probes) -> SimDb {
    let mut sim = small_instance();
    let mut fillers = (1_000_000u64..)
        .map(|e| vec![e])
        .filter(|set| !probes.drops(set));
    for row in SMALL..LARGE {
        let set = if row % ROW_PAGE == 0 {
            probes.near_miss.clone()
        } else {
            fillers.next().unwrap()
        };
        let value = Value::Set(set.iter().map(|&e| Value::Int(e as i64)).collect());
        sim.db.insert_object(sim.class, vec![value]).unwrap();
        sim.sets.push(set);
    }
    sim
}

/// One filter-stage call: its allocations, its pages, its drops.
fn filter(facility: &dyn SetAccessFacility, query: &SetQuery) -> (u64, u64, CandidateSet) {
    let (allocations, (drops, stats)) = count(|| facility.candidates_with_stats(query).unwrap());
    (allocations, stats.unwrap().pages, drops)
}

/// The scans: what the query costs on the small instance is the budget on
/// the large one.
fn scans(rows: &mut Vec<Row>, small: &SimDb, large: &SimDb, probes: &Probes) {
    let ssf = [small, large].map(|sim| sim.build_ssf(F, M));
    let bssf = [small, large].map(|sim| sim.build_bssf(F, M));
    let fssf = [small, large].map(|sim| sim.build_fssf(F, FRAMES, FRAME_M));
    let ssf: [&dyn SetAccessFacility; 2] = [&ssf[0], &ssf[1]];
    let bssf: [&dyn SetAccessFacility; 2] = [&bssf[0], &bssf[1]];
    let fssf: [&dyn SetAccessFacility; 2] = [&fssf[0], &fssf[1]];
    let [superset, subset, equals, overlaps] = &probes.queries;
    for (path, [on_small, on_large], (query, _)) in [
        ("core.ssf.scan_page", ssf, superset),
        ("core.ssf.scan_page", ssf, subset),
        ("core.ssf.scan_page", ssf, equals),
        ("core.ssf.scan_page", ssf, overlaps),
        ("core.bssf.superset_positions", bssf, superset),
        ("core.bssf.or_slices", bssf, subset),
        ("core.bssf.equals_positions", bssf, equals),
        ("core.bssf.overlap_positions", bssf, overlaps),
        ("core.fssf.match_frames", fssf, superset),
        ("core.fssf.match_frames", fssf, subset),
    ] {
        let (budget, pages_small, want) = filter(on_small, query);
        let (allocations, pages, got) = filter(on_large, query);
        let shape = format!(
            "{} D_q {}, N {LARGE}; budget from N {SMALL}, {pages_small} pages",
            query.predicate,
            query.d_q()
        );
        assert_eq!(got, want, "{path} [{shape}]: the rows added must not match");
        assert!(
            pages >= 2 * pages_small,
            "{path} [{shape}]: {pages} pages — the larger instance must cost the scan more"
        );
        rows.push(Row {
            path,
            shape,
            work: pages,
            allocations,
            budget,
        });
    }
}

/// False-drop resolution of inline records: the verifier's bitmap, the
/// answer, and nothing per candidate.
fn resolution(rows: &mut Vec<Row>, sim: &SimDb, probes: &Probes) {
    const PATH: &str = "core.resolve_drops → walk_attr → observe";
    let mut resolve = |what: &str, db: &Database, class: ClassId, attr: &str, query: &SetQuery| {
        let source = db.target_source(class, attr).unwrap();
        let drops = CandidateSet::new((0..1_024).map(Oid::new).collect(), false);
        let before = db.disk().snapshot();
        let (allocations, report) = count(|| resolve_drops(query, &drops, &source).unwrap());
        let pages = db.disk().snapshot().since(before).reads;
        assert_eq!(pages, 1_024, "{what}: one page per inline candidate");
        rows.push(Row {
            path: PATH,
            shape: format!(
                "{what}, {} D_q {}, 1024 candidates, {} actual",
                query.predicate,
                query.d_q(),
                report.actual.len()
            ),
            work: pages,
            allocations,
            budget: 1 + vec_growth(report.actual.len()),
        });
    };
    // Every candidate a false drop, then every candidate a hit.
    resolve(
        "Int sets",
        &sim.db,
        sim.class,
        "elems",
        &probes.queries[0].0,
    );
    let domain: Vec<u64> = (0..sim.cfg.domain).collect();
    let all = SetQuery::in_subset(keys(&domain));
    resolve("Int sets", &sim.db, sim.class, "elems", &all);

    let mut db = Database::in_memory();
    let class = db
        .define_class(ClassDef::new(
            "Course",
            vec![("students", AttrType::set_of(AttrType::Ref))],
        ))
        .unwrap();
    for i in 0..1_024u64 {
        let students = (0..10).map(|j| Value::Ref(Oid::new(i * 3 + j))).collect();
        let oid = db.insert_object(class, vec![Value::set(students)]).unwrap();
        assert_eq!(oid, Oid::new(i));
    }
    let enrolled = SetQuery::has_subset(vec![
        ElementKey::from(Oid::new(300)),
        ElementKey::from(Oid::new(303)),
    ]);
    resolve("Ref sets", &db, class, "students", &enrolled);
}

/// The word kernels, each over 64 pages' worth of bytes.
fn kernels(rows: &mut Vec<Row>) {
    const PAGES: u64 = 64;
    let nbits = (PAGE_SIZE * 8) as u32;
    let page: Vec<u8> = (0..PAGE_SIZE).map(|i| (i * 31 % 251) as u8).collect();
    let query = vec![0x0f0f_0f0f_0f0f_0f0fu64; PAGE_SIZE / 8];
    let mut acc = vec![!0u64; PAGE_SIZE / 8];
    let mut counts = vec![0u32; PAGE_SIZE * 8];
    // A page of SSF rows at width `F`, matched against the query's first
    // `F` bits into a buffer that holds a page's hits.
    let stride = F.div_ceil(8) as usize;
    let per_page = PAGE_SIZE / stride;
    let signature = &query[..F.div_ceil(64) as usize];
    let mut hits = Vec::with_capacity(per_page);
    let mut run = |path: &'static str, what: &str, kernel: &mut dyn FnMut()| {
        let (allocations, ()) = count(|| (0..PAGES).for_each(|_| kernel()));
        rows.push(Row {
            path,
            shape: format!("{what}{PAGES} × 4 KiB"),
            work: PAGES,
            allocations,
            budget: 0,
        });
    };
    run("core.kernel.and_assign", "", &mut || {
        black_box(kernel::and_assign(&mut acc, &page));
    });
    run("core.kernel.or_assign", "", &mut || {
        kernel::or_assign(&mut acc, &page, nbits);
    });
    for (what, test) in [
        ("T ⊇ Q, ", kernel::RowTest::superset(signature, F)),
        ("T ⊆ Q, ", kernel::RowTest::subset(signature, F)),
        ("T = Q, ", kernel::RowTest::equals(signature, F)),
    ] {
        run("core.kernel.match_rows", what, &mut || {
            hits.clear();
            kernel::match_rows(&test, &page, stride, per_page, 0, &mut hits);
        });
    }
    run("core.kernel.intersection_count", "", &mut || {
        black_box(kernel::intersection_count(&query, &page));
    });
    run("core.kernel.iter_ones", "", &mut || {
        black_box(kernel::iter_ones(nbits, &page).count());
    });
    run("core.kernel.accumulate_ones", "", &mut || {
        kernel::accumulate_ones(&mut counts, &page);
    });
}

/// `BTree::lookup`: at most the posting list it returns; `lookup_many`: the
/// growth of the one `Vec` it appends to.
fn btree_lookup(rows: &mut Vec<Row>) {
    let disk = Arc::new(Disk::new());
    let io = || Arc::clone(&disk) as Arc<dyn PageIo>;
    let mut low = BTree::create(io(), "low");
    let mut tall = BTree::create(io(), "tall");
    for key in 0..50 {
        low.insert(key, key).unwrap();
    }
    for key in 0..80_000 {
        tall.insert(key, key).unwrap();
    }
    for oid in 0..6_000 {
        tall.insert(40_000, 100_000 + oid).unwrap();
    }
    assert_eq!((low.height(), tall.height()), (0, 2));
    for (tree, key) in [(&low, 7), (&tall, 7), (&tall, 40_000), (&tall, 999_999)] {
        let ((allocations, postings), pages) = count_reads(|| count(|| tree.lookup(key).unwrap()));
        rows.push(Row {
            path: "nix.btree.lookup",
            shape: format!("height {}, {} postings", tree.height(), postings.len()),
            work: pages,
            allocations,
            budget: u64::from(!postings.is_empty()),
        });
    }
    // One descent over `n` sorted keys, half of them past the tree's last
    // key, plus the chained one: the output's growth and nothing per key or
    // per level.
    for n in [1u64, 50, 500] {
        let mut keys: Vec<u64> = (1..n).map(|i| i * 160_000 / n + 1).collect();
        keys.push(40_000);
        keys.sort_unstable();
        let ((allocations, postings), pages) = count_reads(|| {
            count(|| {
                let mut out = Vec::new();
                tall.lookup_many(&keys, &mut out, |_, _| true).unwrap();
                out
            })
        });
        rows.push(Row {
            path: "nix.btree.lookup_many",
            shape: format!("height 2, {} keys, {} postings", keys.len(), postings.len()),
            work: pages,
            allocations,
            budget: vec_growth(postings.len()),
        });
    }
}

/// NIX's `T ⊆ Q` and `T ≬ Q` unions pool their postings in one `Vec` and
/// count them in one hashed tally: the query's digests, the pooled postings'
/// growth, the tally's table at its final size and the answer — no `Vec` per
/// posting list, nothing per candidate. One descent reads a page once for
/// every key on it, so the shape that reads ten times its budget is a query
/// over a thousand of the large instance's one-object filler elements: a
/// leaf apiece, and one posting each.
fn nix_union(rows: &mut Vec<Row>, small: &SimDb, large: &SimDb, probes: &Probes) {
    let wide: Vec<u64> = (small.sets[TARGET].iter().copied())
        .chain((0..small.cfg.domain).step_by(7))
        .collect();
    let fillers: Vec<u64> = (small.sets[TARGET].iter().copied())
        .chain((0..1_024).map(|i| 1_000_000 + 64 * i))
        .collect();
    let (small_nix, large_nix) = (small.build_nix(), large.build_nix());
    for (nix, query) in [
        (&small_nix, &probes.queries[1].0),
        (&small_nix, &SetQuery::in_subset(keys(&wide))),
        (&small_nix, &SetQuery::overlaps(keys(&small.sets[TARGET]))),
        (&large_nix, &SetQuery::in_subset(keys(&fillers))),
    ] {
        let pooled: usize = (query.elements.iter())
            .map(|e| {
                nix.candidates(&SetQuery::contains(e.clone()))
                    .unwrap()
                    .len()
            })
            .sum();
        let (allocations, pages, drops) = filter(nix, query);
        assert!(drops.exact && drops.oids.contains(&Oid::new(TARGET as u64)));
        rows.push(Row {
            path: "nix.candidates",
            shape: format!(
                "{} D_q {}, N {}, {pooled} postings, {} answers",
                query.predicate,
                query.d_q(),
                nix.indexed_count(),
                drops.len()
            ),
            work: pages,
            allocations,
            budget: 1 + vec_growth(pooled) + 1 + vec_growth(drops.len()),
        });
    }
}

/// Loading an object: `Value::set` orders its elements in place, by a
/// comparison that encodes nothing, and a set signature hashes every element
/// into one positions buffer — no allocation per element or comparison.
fn load(rows: &mut Vec<Row>) {
    let cfg = SignatureConfig::new(F, M).unwrap();
    let mut ten = None;
    for n in [10u64, 1_000] {
        // Scrambled, with repeats and both signs, so the sort and the
        // dedup have work to do.
        let ints = (0..n).map(|i| (i * 7_919 % (n * 9 / 10)) as i64 - n as i64 / 2);
        let elems: Vec<Value> = ints.map(Value::Int).collect();
        let (allocations, set) = count(|| Value::set(elems));
        black_box(set);
        rows.push(Row {
            path: "oodb.value_set",
            shape: format!("{n} Int elements"),
            work: n,
            allocations,
            budget: 0,
        });
        let set = keys(&(0..n).collect::<Vec<_>>());
        let (allocations, signature) = count(|| cfg.signature(&set));
        black_box(signature);
        rows.push(Row {
            path: "core.SignatureConfig::signature",
            shape: format!("{n} elements; budget from 10"),
            work: n,
            allocations,
            budget: *ten.get_or_insert(allocations),
        });
    }
}

/// Parsing a query lexes as it goes: the class and attribute names and one
/// element `Vec` sized up front, whatever the set's size — integer and short
/// string literals are keys held inline.
fn parse(rows: &mut Vec<Row>) {
    let int = |i: u64| format!("{}", i * 7_919 % 1_000);
    let mixed = |i: u64| match i % 2 {
        0 => int(i),
        _ => format!("\"e{i}\""),
    };
    for (kind, literal) in [("Int", &int as &dyn Fn(u64) -> String), ("Int|Str", &mixed)] {
        let mut ten = None;
        for n in [10u64, 1_000] {
            let literals: Vec<String> = (0..n).map(literal).collect();
            let text = format!(
                "select Student where hobbies in-subset ({})",
                literals.join(", ")
            );
            let (allocations, parsed) = count(|| parse_query(&text).unwrap());
            assert_eq!(parsed.condition.unwrap().1.d_q(), n as usize);
            rows.push(Row {
                path: "oodb.parse_query",
                shape: format!("{n} {kind} elements; budget from 10"),
                work: n,
                allocations,
                budget: *ten.get_or_insert(allocations),
            });
        }
    }
}

/// Planning a parsed query is arithmetic on the facility's counts: the
/// query moves in and out with its cap, and nothing is allocated — a BSSF
/// `T ⊆ Q` below `D_q^opt`, a NIX `T ⊇ Q` above `j`.
fn plan(rows: &mut Vec<Row>, sim: &SimDb) {
    let mut db = Database::in_memory();
    let class = db
        .define_class(ClassDef::new(
            "Student",
            vec![("hobbies", AttrType::set_of(AttrType::Int))],
        ))
        .unwrap();
    // The paper's small `m`; the store is empty, so nothing is back-filled.
    let mut register = |facility| db.register_facility(class, "hobbies", facility).unwrap();
    let bssf = register(Box::new(sim.build_bssf(F, 2)));
    let nix = register(Box::new(sim.build_nix()));
    for (fidx, predicate, d_q, name) in [
        (bssf, "in-subset", 50, "BSSF m = 2"),
        (nix, "has-subset", 5, "NIX"),
    ] {
        let literals: Vec<String> = (0..d_q).map(|i: u64| (i * 37).to_string()).collect();
        let text = format!(
            "select Student where hobbies {predicate} ({})",
            literals.join(", ")
        );
        let query = parse_query(&text).unwrap().condition.unwrap().1;
        let (allocations, planned) = count(|| db.plan(fidx, query));
        assert!(planned.cap().is_some(), "{text}: the plan caps it");
        rows.push(Row {
            path: "oodb.Database::plan",
            shape: format!("{} D_q {}, {name}", planned.predicate, planned.d_q()),
            work: planned.d_q() as u64,
            allocations,
            budget: 0,
        });
    }
}

/// A buffer-pool hit hands out the frame's snapshot.
fn pool_hit(rows: &mut Vec<Row>) {
    const FRAMES: u32 = 64;
    let pool = Arc::new(BufferPool::new(Arc::new(Disk::new()), FRAMES as usize));
    let file = PagedFile::create(Arc::clone(&pool) as Arc<dyn PageIo>, "hot");
    for _ in 0..FRAMES {
        file.append(&Page::zeroed()).unwrap();
    }
    let before = pool.stats().hits;
    let (allocations, ()) = count(|| {
        (0..FRAMES).for_each(|n| {
            black_box(file.read(n).unwrap());
        });
    });
    assert_eq!(pool.stats().hits - before, u64::from(FRAMES));
    rows.push(Row {
        path: "pagestore.BufferPool::read_page",
        shape: format!("{FRAMES} hits"),
        work: u64::from(FRAMES),
        allocations,
        budget: 0,
    });
}

/// A tree whose first leaf holds `keys` postings of `oids` OIDs each, keys
/// `0..keys` filled one after another (so the last ends the leaf's heap),
/// plus `tail` single-OID keys after them that grow it to a taller tree.
fn nix_tree(keys: u64, oids: u64, tail: u64) -> BTree {
    let mut tree = BTree::create(Arc::new(Disk::new()), "nix");
    for key in 0..keys {
        (0..oids).for_each(|oid| tree.insert(key, oid).unwrap());
    }
    (0..tail).for_each(|key| tree.insert(1_000 + key, key).unwrap());
    tree
}

/// A NIX update edits its leaf in place: an insert into an inline posting
/// allocates the leaf's copy-on-write copy and the descent path, a remove
/// the copy — whether the leaf holds one entry or nineteen, whether the
/// record grows where it is, moves, or the leaf compacts first. Nothing is
/// parsed, so nothing is allocated per entry. (Its own test: an update reads
/// `height + 1` pages, so no shape reads ten times its budget.)
#[test]
fn nix_updates_allocate_the_leaf_copy_not_its_entries() {
    // 19 × (10 + 8·25 + 4) = 4,066 of the leaf's 4,088 bytes: 22 free, so
    // key 0's 210-byte record can neither grow nor move — the leaf compacts.
    // At 20 OIDs a key, 782 are free and the record moves; a lone key's
    // record ends the heap and grows in place.
    let shapes = [
        ("1 entry, grows in place", nix_tree(1, 25, 0), 0),
        (
            "19 entries, heap end, grows in place",
            nix_tree(19, 20, 0),
            18,
        ),
        ("19 entries, moves to the heap end", nix_tree(19, 20, 0), 0),
        ("19 entries, compacts", nix_tree(19, 25, 0), 0),
        ("height 1, 1,000 keys", nix_tree(1, 25, 1_000), 0),
    ];
    for (shape, mut tree, key) in shapes {
        let (pages, height) = (tree.storage_pages().unwrap(), tree.height());
        let (inserted, ()) = count(|| tree.insert(key, 99).unwrap());
        let (removed, found) = count(|| tree.remove(key, 3).unwrap());
        assert!(found);
        assert_eq!(tree.storage_pages().unwrap(), pages, "{shape}: no split");
        println!("nix.btree.insert / remove [{shape}, height {height}]: {inserted} / {removed}");
        assert_eq!(
            inserted,
            1 + u64::from(height > 0),
            "{shape}: an insert allocates the leaf copy and the descent path"
        );
        assert_eq!(removed, 1, "{shape}: a remove allocates the leaf copy");
        tree.check_integrity().unwrap();
    }
}

#[test]
fn the_allocator_counts_each_thread_apart() {
    // Each thread allocates once while the other is inside its counted
    // region: both count one.
    let gate = std::sync::Barrier::new(2);
    let one_alloc = || {
        count(|| {
            gate.wait();
            black_box(vec![0u8; 64]);
            gate.wait();
        })
        .0
    };
    std::thread::scope(|s| {
        let there = s.spawn(one_alloc);
        assert_eq!(one_alloc(), 1);
        assert_eq!(there.join().unwrap(), 1);
    });
}

#[test]
fn hot_paths_allocate_what_their_answers_need_not_what_they_read() {
    let small = small_instance();
    let probes = Probes::new(&small);
    let large = large_instance(&probes);

    let mut rows = Vec::new();
    kernels(&mut rows);
    pool_hit(&mut rows);
    load(&mut rows);
    parse(&mut rows);
    plan(&mut rows, &small);
    resolution(&mut rows, &small, &probes);
    btree_lookup(&mut rows);
    nix_union(&mut rows, &small, &large, &probes);
    scans(&mut rows, &small, &large, &probes);

    print(&rows);
    let violations = violations(&rows);
    assert!(
        violations.is_empty(),
        "hot-path budgets exceeded:\n{}",
        violations.join("\n")
    );
}
