//! The live workspace must satisfy its own invariants: `xtask analyze`
//! runs here as a test, so `cargo test --workspace` alone gates the
//! project lint without needing the separate CI step. The retained lint
//! set is pinned too: growing it back is a deliberate act. Two claims
//! about the engine crates are held by the tokens alone — no tree set, no
//! lock — and by nothing else in the analyzer; so is the workspace's lock
//! inventory: one lock declared in each of three files.

#![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)] // test code

use std::path::PathBuf;
use std::process::Command;

use xtask::workspace::{FileClass, SourceFile, Workspace};
use xtask::Lint;

/// The invariants only the project analyzer can hold; everything else is
/// rustc's and clippy's job (root `Cargo.toml`, `[workspace.lints]`).
const RETAINED: [&str; 1] = ["layering"];

fn repo_root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .canonicalize()
        .expect("repo root exists")
}

#[test]
fn workspace_is_clean_under_exactly_the_retained_lints() {
    assert_eq!(Lint::ALL.map(Lint::name), RETAINED);
    let diags = xtask::analyze(&repo_root()).expect("workspace readable");
    assert!(
        diags.is_empty(),
        "xtask analyze found {} violation(s):\n{}",
        diags.len(),
        diags
            .iter()
            .map(ToString::to_string)
            .collect::<Vec<_>>()
            .join("\n")
    );
}

#[test]
fn every_lint_has_a_failing_fixture() {
    let mut markers = Vec::new();
    xtask::selftest::collect_tree_markers(&repo_root().join("crates/xtask/fixtures"), &mut markers)
        .expect("fixtures readable");
    for lint in Lint::ALL {
        assert!(
            markers.iter().any(|(_, l, _)| *l == lint),
            "no `~ ERROR {lint}` marker anywhere under crates/xtask/fixtures/: \
             a lint nothing proves can fail is not a gate"
        );
    }
}

#[test]
fn cli_names_the_retained_set_and_has_no_other_subcommand() {
    let xtask = |arg: &str| {
        Command::new(env!("CARGO_BIN_EXE_xtask"))
            .arg(arg)
            .output()
            .expect("xtask binary runs")
    };
    let out = xtask("analyze");
    assert_eq!(
        String::from_utf8_lossy(&out.stdout).trim(),
        format!("xtask analyze: workspace clean ({})", RETAINED.join(", "))
    );
    for other in ["effects", "cost"] {
        let out = xtask(other);
        assert_eq!(out.status.code(), Some(2));
        assert!(
            String::from_utf8_lossy(&out.stderr).contains(&format!("unknown command `{other}`"))
        );
    }
}

/// `file:line` of every identifier in `names` that the library code of
/// `files` spells outside its test-gated items.
fn named<'a>(files: impl IntoIterator<Item = &'a SourceFile>, names: &[&str]) -> Vec<String> {
    let mut sites = Vec::new();
    for file in files {
        if file.class != FileClass::Lib {
            continue;
        }
        for (tok, &in_test) in file.scanned.toks.iter().zip(&file.test_mask) {
            if !in_test && names.iter().any(|name| tok.is_ident(name)) {
                sites.push(format!("{}:{}", file.rel, tok.line));
            }
        }
    }
    sites
}

fn in_crates<'a>(ws: &'a Workspace, crates: &'a [&str]) -> impl Iterator<Item = &'a SourceFile> {
    let member = |f: &&SourceFile| f.crate_dir.as_deref().is_some_and(|c| crates.contains(&c));
    ws.files.iter().filter(member)
}

/// `(file, n)` for every file whose library code names a lock type,
/// outside `xtask` (whose source names lock types as tokens): `n` counts
/// the type-position names (`Mutex<`, `RwLock<`), one per declared lock.
fn lock_inventory<'a>(files: impl IntoIterator<Item = &'a SourceFile>) -> Vec<(&'a str, usize)> {
    let mut inventory = Vec::new();
    for file in files {
        if file.class != FileClass::Lib || file.crate_dir.as_deref() == Some("xtask") {
            continue;
        }
        let toks = &file.scanned.toks;
        let mut names = None;
        for (i, tok) in toks.iter().enumerate() {
            if !file.test_mask[i] && (tok.is_ident("Mutex") || tok.is_ident("RwLock")) {
                let in_type = toks.get(i + 1).is_some_and(|t| t.is_punct('<'));
                *names.get_or_insert(0) += usize::from(in_type);
            }
        }
        if let Some(n) = names {
            inventory.push((file.rel.as_str(), n));
        }
    }
    inventory.sort();
    inventory
}

const ENGINE: [&str; 3] = ["core", "nix", "oodb"];

/// The engine's set algebra is ascending `Vec`s (`setsig_core::sorted`) and
/// the per-candidate verifier's bitmap; a tree set on a query or update
/// path is a node allocation per element come back.
#[test]
fn engine_crates_name_no_btreeset_outside_test_code() {
    let ws = Workspace::load(&repo_root()).expect("workspace readable");
    let sites = named(in_crates(&ws, &ENGINE), &["BTreeSet"]);
    assert!(
        sites.is_empty(),
        "BTreeSet in non-test code of crates/{{core,nix,oodb}}/src: {sites:?}"
    );
}

/// "No lock and no parking on a scan, a probe or a resolve" needs no call
/// graph while the engine crates declare no lock at all: every lock a page
/// access takes is `pagestore`'s (one per access, never across I/O: the
/// pool's lock lives in a frame table that holds no disk), and nothing
/// parks: the service runs a query's shards on the caller's thread, so
/// `crates/service` spawns no thread and waits on nothing but its shard
/// `RwLock`s. What the allocation side of the
/// claim needs is counted in `tests/hot_path.rs`. The whole lock inventory
/// is three locks, one per file: the disk's, the pool's and a shard's. All
/// three are leaves: no code path holds two of them at once.
#[test]
fn engine_crates_name_no_lock_and_the_service_never_parks() {
    const LOCKS: [&str; 6] = ["Mutex", "RwLock", "Condvar", "mpsc", "sleep", "parking_lot"];
    const PARKING: [&str; 4] = ["Condvar", "mpsc", "sleep", "spawn"];
    const LOCK_DECLS: [(&str, usize); 3] = [
        ("crates/pagestore/src/cache.rs", 1),
        ("crates/pagestore/src/disk.rs", 1),
        ("crates/service/src/lib.rs", 1),
    ];
    let ws = Workspace::load(&repo_root()).expect("workspace readable");
    assert_eq!(
        lock_inventory(&ws.files),
        LOCK_DECLS,
        "non-test library code declares a lock outside the inventory"
    );
    let sites = named(in_crates(&ws, &ENGINE), &LOCKS);
    assert!(
        sites.is_empty(),
        "a lock or a blocking wait in non-test code of crates/{{core,nix,oodb}}/src: {sites:?}"
    );
    let sites = named(in_crates(&ws, &["service"]), &PARKING);
    assert!(
        sites.is_empty(),
        "crates/service parks or spawns a thread: {sites:?}"
    );

    // The check can fail: a lock in `core` is reported, line by line, and
    // one inside a test module is not; so is a parking primitive anywhere
    // in the service's non-test code.
    let scratch = SourceFile::new(
        "crates/core/src/scratch.rs".to_string(),
        FileClass::Lib,
        Some("core".to_string()),
        "use std::sync::Mutex;\nfn hot(m: &Mutex<u64>) {}\n\
         #[cfg(test)]\nmod tests {\n    use std::sync::Mutex;\n}\n",
    );
    assert_eq!(
        named([&scratch], &LOCKS),
        [
            "crates/core/src/scratch.rs:1",
            "crates/core/src/scratch.rs:2"
        ]
    );
    let scratch = SourceFile::new(
        "crates/service/src/scratch.rs".to_string(),
        FileClass::Lib,
        Some("service".to_string()),
        "use parking_lot::RwLock;\nuse std::sync::Condvar;\n\
         #[cfg(test)]\nmod tests {\n    fn go() { std::thread::spawn(|| ()); }\n}\n",
    );
    assert_eq!(
        named([&scratch], &PARKING),
        ["crates/service/src/scratch.rs:2"]
    );
    // A lock anywhere else — here the registry `crates/obs` used to hold —
    // joins the inventory, so the assertion above fails.
    let scratch = SourceFile::new(
        "crates/obs/src/metrics.rs".to_string(),
        FileClass::Lib,
        Some("obs".to_string()),
        "pub struct Registry {\n    metrics: parking_lot::Mutex<u64>,\n}\n",
    );
    assert_eq!(
        lock_inventory(ws.files.iter().chain([&scratch])),
        [("crates/obs/src/metrics.rs", 1)]
            .into_iter()
            .chain(LOCK_DECLS)
            .collect::<Vec<_>>()
    );
    // So does a second lock in a file that already holds one: a `Disk` with
    // a second field counts 2.
    let scratch = SourceFile::new(
        "crates/pagestore/src/disk.rs".to_string(),
        FileClass::Lib,
        Some("pagestore".to_string()),
        "use std::sync::Mutex;\n\
         pub struct Disk {\n    inner: Mutex<DiskInner>,\n    reads: Mutex<u64>,\n}\n\
         impl Disk {\n    pub fn new() -> Self {\n        \
         Disk { inner: Mutex::new(DiskInner), reads: Mutex::new(0) }\n    }\n}\n",
    );
    let files = ws.files.iter().filter(|f| f.rel != scratch.rel);
    let mut want = LOCK_DECLS;
    want[1].1 = 2;
    assert_eq!(lock_inventory(files.chain([&scratch])), want);
}
