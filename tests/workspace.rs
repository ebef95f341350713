//! The workspace's structure, checked on its own files (DESIGN.md §6): the
//! crate DAG, every member in the `[workspace.lints]` table, the lock
//! inventory, and the names engine and service code may not use outside tests.

#![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)] // test code

use std::{collections::BTreeMap, fs, path::Path};

/// Each crate dir, and the setsig crates it may depend on: storage and
/// facilities never reach up into the harness, nor the models into storage.
const ALLOWED_DEPS: &str = "pagestore:
core: pagestore
nix: pagestore core
oodb: pagestore core costmodel
costmodel:
workload:
service: pagestore core
experiments: pagestore core nix oodb costmodel workload service";

/// The lock inventory: non-test code declares one `Mutex<` or `RwLock<` in
/// each of these files (the pool's, the disk's, a shard's) and none elsewhere.
const LOCKS: [&str; 3] = [
    "crates/pagestore/src/cache.rs",
    "crates/pagestore/src/disk.rs",
    "crates/service/src/lib.rs",
];

/// Each crate dir, and the names its non-test code never uses: no tree set
/// (a node per element) and no lock or parking in the engine, whose page
/// accesses take `pagestore`'s locks, and no thread or wait in the service.
const NAME_RULES: &str = "core: BTreeSet Mutex RwLock Condvar mpsc sleep parking_lot
nix: BTreeSet Mutex RwLock Condvar mpsc sleep parking_lot
oodb: BTreeSet Mutex RwLock Condvar mpsc sleep parking_lot
service: Condvar mpsc sleep spawn";

/// `Cargo.toml` and every file under `src/`, at the root and in `crates/*`,
/// and each `vendor/*/Cargo.toml`: `(path from the root, text)` pairs.
fn tree() -> Vec<(String, String)> {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let crates = fs::read_dir(root.join("crates")).unwrap();
    let dirs = crates.map(|k| k.unwrap().path()).chain([root.into()]);
    let mut todo = Vec::from_iter(dirs.flat_map(|d| [d.join("Cargo.toml"), d.join("src")]));
    let vendor = fs::read_dir(root.join("vendor")).unwrap();
    todo.extend(vendor.map(|k| k.unwrap().path().join("Cargo.toml")));
    let mut files = Vec::new();
    while let Some(path) = todo.pop() {
        let entries = fs::read_dir(&path).into_iter().flatten();
        todo.extend(entries.map(|e| e.unwrap().path()));
        if let Ok(text) = fs::read_to_string(&path) {
            let rel = path.strip_prefix(root).unwrap().to_string_lossy();
            files.push((rel.replace('\\', "/"), text));
        }
    }
    files
}

/// A scratch tree written as `== <path>` lines, each followed by its file.
fn scratch(tree: &str) -> Vec<(String, String)> {
    let files = tree.split("\n== ").filter_map(|f| f.split_once('\n'));
    files.map(|(rel, text)| (rel.into(), text.into())).collect()
}

/// The words after `key:` in `table`, a line per key.
fn row(table: &'static str, key: &str) -> Option<&'static str> {
    let words = |l: &'static str| l.strip_prefix(key)?.strip_prefix(':');
    table.lines().find_map(words)
}

/// `file:line: problem` for a member without `[lints] workspace = true`, a
/// crate not in the DAG, and a normal dependency outside it: in `[dependencies]`,
/// `[target.*.dependencies]` or a `[dependencies.*]` table, named by its key
/// or, renamed, by its `package`.
fn manifest_findings(files: &[(String, String)]) -> Vec<String> {
    let mut out = Vec::new();
    let members = files.iter().filter(|f| !f.0.starts_with("vendor/"));
    for (rel, text) in members.filter(|f| f.0.ends_with("Cargo.toml")) {
        let lines: Vec<&str> = text.lines().map(str::trim).collect();
        let lints = lines.iter().skip_while(|l| **l != "[lints]").skip(1);
        let mut lints = lints.take_while(|l| !l.starts_with('['));
        if lines.contains(&"[package]") && !lints.any(|l| l.replace(' ', "") == "workspace=true") {
            out.push(format!("{rel}:1: no `[lints] workspace = true`"));
        }
        let name = rel.split('/').nth(1).unwrap_or_default(); // "" at the root
        let Some(allowed) = row(ALLOWED_DEPS, name).filter(|_| !name.is_empty()) else {
            out.extend((!name.is_empty()).then(|| format!("{rel}:1: `{name}` is not in the DAG")));
            continue;
        };
        // After `dependencies` in the header, any target's: `""` a list, `.x` a table.
        let mut tail = None;
        for (n, line) in (1..).zip(lines) {
            let mut fields = line.split(['{', ',', '=']).map(str::trim);
            let package = fields.find(|f| *f == "package").and_then(|_| fields.next());
            let key = match line.strip_prefix('[') {
                Some(header) => {
                    let table = header.split(']').next().unwrap_or_default();
                    tail = match table.strip_prefix("target.") {
                        Some(target) => target.split_once(".dependencies").map(|(_, t)| t),
                        None => table.strip_prefix("dependencies"),
                    };
                    tail.and_then(|t| t.strip_prefix('.'))
                }
                None if tail == Some("") => package.or(line.split(['=', '.', ' ']).next()),
                None => package.filter(|_| tail.is_some()),
            };
            let dep = key.and_then(|k| k.trim_matches(['"', ' ', '}']).strip_prefix("setsig-"));
            if let Some(dep) = dep.filter(|d| !allowed.split_whitespace().any(|a| a == *d)) {
                out.push(format!("{rel}:{n}: `{name}` → `setsig-{dep}`"));
            }
        }
    }
    out
}

/// Every dependency key `text` names outside `[workspace.dependencies]`: a
/// dependency table's line keys and each `[…dependencies.<key>]` table's.
fn dependency_names(text: &str) -> Vec<&str> {
    let mut names = Vec::new();
    let mut table = "";
    for line in text.lines().map(str::trim) {
        match line.strip_prefix('[') {
            Some(header) => {
                table = header.split(']').next().unwrap_or_default();
                let keyed = table
                    .rsplit_once('.')
                    .filter(|t| t.0.ends_with("dependencies"));
                names.extend(keyed.map(|t| t.1));
            }
            None if table.contains("dependencies") && table != "workspace.dependencies" => {
                names.extend(line.split(['=', '.', ' ']).next());
            }
            None => {}
        }
    }
    names
}

/// `Cargo.toml:line: problem` for a vendored stand-in that outlived its last
/// user: a root `[workspace.dependencies]` entry with `path = "vendor/<x>"`
/// that no member manifest names, and a `vendor/<x>` crate with no such entry.
fn vendor_findings(files: &[(String, String)]) -> Vec<String> {
    let manifests = files.iter().filter(|f| f.0.ends_with("Cargo.toml"));
    let (vendored, members): (Vec<_>, Vec<_>) = manifests.partition(|f| f.0.starts_with("vendor/"));
    let used = Vec::from_iter(members.iter().flat_map(|f| dependency_names(&f.1)));
    let root = members
        .iter()
        .find(|f| f.0 == "Cargo.toml")
        .map_or("", |f| &f.1);
    let (mut out, mut entries, mut table, mut at) = (Vec::new(), Vec::new(), "", 1);
    for (n, line) in (1..).zip(root.lines().map(str::trim)) {
        if line.starts_with('[') {
            table = line;
        }
        if line == "[workspace.dependencies]" {
            at = n;
        }
        let dir = line
            .split("\"vendor/")
            .nth(1)
            .and_then(|d| d.split('"').next());
        let Some(dir) = dir.filter(|_| table == "[workspace.dependencies]") else {
            continue;
        };
        let name = line.split(['=', '.', ' ']).next().unwrap_or_default();
        if !used.contains(&name) {
            out.push(format!(
                "Cargo.toml:{n}: `{name}` (vendor/{dir}) is named by no manifest"
            ));
        }
        entries.push(dir);
    }
    for (rel, _) in vendored {
        let dir = rel.split('/').nth(1).unwrap_or_default();
        if !entries.contains(&dir) {
            out.push(format!(
                "Cargo.toml:{at}: `vendor/{dir}` has no [workspace.dependencies] entry"
            ));
        }
    }
    out
}

fn is_ident(c: char) -> bool {
    c.is_alphanumeric() || c == '_'
}

/// How many chars `c` starts with that satisfy `f`.
fn run(c: &[char], f: impl Fn(char) -> bool) -> usize {
    c.iter().take_while(|&&ch| f(ch)).count()
}

/// Rust source `src` with comments (nested too), string, raw-string and char
/// literals, and every item under an attribute that mentions `test` (through
/// its `}` or `;`) blanked to spaces; newlines stay, so lines keep numbers.
fn non_test(src: &str) -> String {
    let mut c: Vec<char> = src.chars().collect();
    let blank = |c: &mut [char]| c.iter_mut().filter(|x| **x != '\n').for_each(|x| *x = ' ');
    let at = |c: &[char], k: usize| c.get(k).copied().unwrap_or('\0');
    let mut i = 0;
    while i < c.len() {
        let word = run(&c[i..], is_ident);
        let hashes = run(&c[i + word..], |ch| ch == '#');
        let raw = matches!(&*String::from_iter(&c[i..i + word]), "r" | "br" | "cr");
        let mut k = i + 1; // past the literal or comment at `i`
        match (c[i], at(&c, k)) {
            _ if raw && at(&c, i + word + hashes) == '"' => {
                k += word + hashes;
                while k < c.len() && !(c[k] == '"' && run(&c[k + 1..], |ch| ch == '#') >= hashes) {
                    k += 1;
                }
                k += hashes + 1;
            }
            ('/', '/') => k += run(&c[k..], |ch| ch != '\n'),
            ('/', '*') => {
                let mut depth = 1;
                while depth > 0 && k + 1 < c.len() {
                    match (c[k + 1], at(&c, k + 2)) {
                        ('/', '*') => (depth, k) = (depth + 1, k + 2),
                        ('*', '/') => (depth, k) = (depth - 1, k + 2),
                        _ => k += 1,
                    }
                }
                k += 1;
            }
            // A string, or a char literal (not a lifetime).
            (q @ ('"' | '\''), next) if q == '"' || next == '\\' || at(&c, i + 2) == '\'' => {
                while k < c.len() && c[k] != q {
                    k += if c[k] == '\\' { 2 } else { 1 };
                }
                k += 1;
            }
            _ => {
                i += word.max(1); // code
                continue;
            }
        }
        k = k.min(c.len());
        blank(&mut c[i..k]);
        i = k;
    }
    // The `closer` or `;` at bracket depth zero from `from` on, or the end of the block.
    let end_at = |c: &[char], from: usize, closer: char| {
        let mut depth = 0;
        let mut ends = (from..c.len()).filter(|&k| {
            depth += i32::from("([{".contains(c[k])) - i32::from(")]}".contains(c[k]));
            depth < 0 || depth == 0 && (c[k] == closer || c[k] == ';')
        });
        ends.next().unwrap_or(c.len() - 1)
    };
    for i in 0..c.len().saturating_sub(1) {
        if (c[i], c[i + 1]) == ('#', '[') {
            let close = end_at(&c, i + 1, ']');
            let attr = String::from_iter(&c[i..close]);
            if attr.split(|ch| !is_ident(ch)).any(|w| w == "test") {
                let end = end_at(&c, close + 1, '}');
                blank(&mut c[i..=end]);
            }
        }
    }
    c.into_iter().collect()
}

/// Every problem of `files` as a `file:line: problem` line: the manifests', a
/// name [`NAME_RULES`] bans, lock declarations (`Mutex<`) off [`LOCKS`].
fn findings(files: &[(String, String)]) -> String {
    let mut out = manifest_findings(files);
    out.extend(vendor_findings(files));
    let inventory = files.iter().filter(|f| LOCKS.contains(&f.0.as_str()));
    let mut locks = BTreeMap::from_iter(inventory.map(|f| (&*f.0, (Vec::new(), 0))));
    for (rel, text) in files.iter().filter(|f| f.0.ends_with(".rs")) {
        let krate = rel.split('/').nth(1).filter(|_| rel.starts_with("crates/"));
        let banned = krate.and_then(|k| row(NAME_RULES, k)).unwrap_or_default();
        for (n, line) in (1..).zip(non_test(text).lines()) {
            for piece in line.split_inclusive(|c: char| !is_ident(c)) {
                let word = piece.trim_end_matches(|c: char| !is_ident(c));
                if banned.split_whitespace().any(|name| name == word) {
                    out.push(format!("{rel}:{n}: `{word}` in non-test code"));
                }
                if word == "Mutex" || word == "RwLock" {
                    let (at, decls) = locks.entry(rel).or_default();
                    at.push(n.to_string());
                    *decls += usize::from(piece.ends_with('<'));
                }
            }
        }
    }
    for (rel, (at, decls)) in locks {
        if decls != 1 || !LOCKS.contains(&rel) {
            out.push(format!("{rel}:{}: {decls} lock(s) declared", at.join(",")));
        }
    }
    out.join("\n")
}

/// Every finding: an edge up the DAG however spelled (dev-dependencies are
/// exempt however spelled), a member outside the lint table, an unregistered
/// crate, a stand-in without a user or without an entry, locks off the
/// inventory, and banned names, but none in test items.
const BAD: &str = r##"
== Cargo.toml
[package]
[workspace.dependencies]
rand = { path = "vendor/rand" }
proptest = { path = "vendor/proptest" }
[dev-dependencies]
proptest.workspace = true
== vendor/proptest/Cargo.toml
[package]
name = "proptest"
== vendor/orphan/Cargo.toml
[package]
name = "orphan"
== crates/core/Cargo.toml
[package]
[dependencies]
setsig-pagestore.workspace = true
setsig-experiments.workspace = true
nix = { path = "../nix", package = "setsig-nix" }
[dev-dependencies]
setsig-workload.workspace = true
== crates/mystery/Cargo.toml
[package]
[lints]
workspace = true
== crates/nix/Cargo.toml
[dependencies.setsig-experiments]
workspace = true
[target.'cfg(unix)'.dependencies]
setsig-oodb = { path = "../oodb" }
[dependencies.harness]
package = "setsig-experiments"
[dev-dependencies.setsig-workload]
package = "setsig-service"
[target.'cfg(unix)'.dev-dependencies]
setsig-experiments = { path = "../experiments" }
== crates/core/src/scratch.rs
use std::sync::Mutex;
fn hot<'a>(m: &'a Mutex<u64>) -> char { '\'' }
/* a /* nested */ Mutex<u8>
*/ const S: &str = "Mutex<u8> \" Mutex<u8>"; const R: &str = r#"Mutex<u8> " RwLock"#;
#[cfg(test)]
mod tests { use std::sync::Mutex; }
#[cfg(any(test, feature = "bench"))]
mod reference { struct R(Mutex<u8>); }
/// A doc comment's `Mutex<u8>`.
impl Rows {
    #[cfg(test)]
    fn files_mut(&mut self) -> &mut [Mutex<u8>] { &mut self.files }
    fn lock(&self) -> &RwLock<u8> { &self.lock }
}
== crates/nix/src/index.rs
use std::collections::BTreeSet;
== crates/obs/src/metrics.rs
pub struct Registry(parking_lot::Mutex<u64>);
== crates/pagestore/src/disk.rs
pub struct Disk { inner: Mutex<DiskInner>, reads: Mutex<u64> }
== crates/service/src/lib.rs
use std::sync::Condvar;
#[test]
fn go() { std::thread::spawn(|| ()); }
fn run(shard: &RwLock<u8>) { std::thread::spawn(|| ()); }
"##;

#[test]
fn the_workspace_holds_its_dag_lock_inventory_and_name_rules() {
    assert_eq!(findings(&tree()), "");
    let want = "Cargo.toml:1: no `[lints] workspace = true`
crates/core/Cargo.toml:1: no `[lints] workspace = true`
crates/core/Cargo.toml:4: `core` → `setsig-experiments`
crates/core/Cargo.toml:5: `core` → `setsig-nix`
crates/mystery/Cargo.toml:1: `mystery` is not in the DAG
crates/nix/Cargo.toml:1: `nix` → `setsig-experiments`
crates/nix/Cargo.toml:4: `nix` → `setsig-oodb`
crates/nix/Cargo.toml:6: `nix` → `setsig-experiments`
Cargo.toml:3: `rand` (vendor/rand) is named by no manifest
Cargo.toml:2: `vendor/orphan` has no [workspace.dependencies] entry
crates/core/src/scratch.rs:1: `Mutex` in non-test code
crates/core/src/scratch.rs:2: `Mutex` in non-test code
crates/core/src/scratch.rs:13: `RwLock` in non-test code
crates/nix/src/index.rs:1: `BTreeSet` in non-test code
crates/service/src/lib.rs:1: `Condvar` in non-test code
crates/service/src/lib.rs:4: `spawn` in non-test code
crates/core/src/scratch.rs:1,2,13: 2 lock(s) declared
crates/obs/src/metrics.rs:1: 1 lock(s) declared
crates/pagestore/src/disk.rs:1,1: 2 lock(s) declared";
    assert_eq!(findings(&scratch(BAD)), want);
}
