//! hot-path-hygiene PASS fixture: the per-candidate path of false-drop
//! resolution as the workspace writes it — the walker hands out key bytes
//! from a stack buffer, the verifier probes the query's sorted keys and
//! counts distinct hits in a bitmap its constructor sized. The one
//! allocation is the error constructor, which the self-test allowlist
//! justifies (`fixture.rs::unknown_tag`). Nothing here may produce a
//! diagnostic.

/// The record walker: hands each stored element to `visit` as key bytes.
// HOT-PATH: fixture.walk_set
pub fn walk_set(record: &[u8], visit: &mut dyn FnMut(&[u8])) -> Result<(), String> {
    let mut pos = 0;
    while pos < record.len() {
        let tag = record[pos];
        if tag > 2 {
            return Err(unknown_tag(tag));
        }
        let mut key = [tag; 9];
        key[1..].copy_from_slice(&record[pos + 1..pos + 9]);
        pos += 9;
        visit(&key);
    }
    Ok(())
}

fn unknown_tag(tag: u8) -> String {
    format!("unknown value tag {tag}")
}

/// The verifier: one per query, reset per candidate.
pub struct Verifier {
    query: Vec<[u8; 9]>,
    met: Vec<u64>,
    hits: usize,
    missed: bool,
}

impl Verifier {
    /// Per-query setup may allocate: it is no root's callee.
    pub fn new(query: Vec<[u8; 9]>) -> Verifier {
        let met = vec![0; query.len().div_ceil(64)];
        Verifier {
            query,
            met,
            hits: 0,
            missed: false,
        }
    }

    // HOT-PATH: fixture.reset
    pub fn reset(&mut self) {
        self.met.fill(0);
        self.hits = 0;
        self.missed = false;
    }

    // HOT-PATH: fixture.verify
    pub fn observe(&mut self, key: &[u8]) {
        match self.query.binary_search_by(|q| q.as_slice().cmp(key)) {
            Ok(i) => {
                let bit = 1u64 << (i % 64);
                if self.met[i / 64] & bit == 0 {
                    self.met[i / 64] |= bit;
                    self.hits += 1;
                }
            }
            Err(_) => self.missed = true,
        }
    }
}
