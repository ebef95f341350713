//! hot-path-hygiene FAIL fixture: the per-candidate path of false-drop
//! resolution the way it must not be written — a heap key per stored
//! element in the record walker, an owned set per candidate in the
//! verifier. Every marked line must produce a diagnostic.

/// The record walker: hands each stored element to `visit` as key bytes.
// HOT-PATH: fixture.walk_set
pub fn walk_set(record: &[u8], visit: &mut dyn FnMut(&[u8])) -> Result<(), String> {
    let mut pos = 0;
    while pos < record.len() {
        let key = element_key(record, &mut pos)?;
        visit(&key);
    }
    Ok(())
}

fn element_key(record: &[u8], pos: &mut usize) -> Result<Vec<u8>, String> {
    let tag = record[*pos];
    if tag > 2 {
        return Err(format!("unknown value tag {tag}")); //~ ERROR hot-path-hygiene: walk_set (crates/experiments/src/fixture.rs:8) → element_key (crates/experiments/src/fixture.rs:11) → `format!`
    }
    let mut key = Vec::with_capacity(9); //~ ERROR hot-path-hygiene: Vec::with_capacity
    key.extend_from_slice(&record[*pos..*pos + 9]);
    *pos += 9;
    Ok(key)
}

/// The verifier: collects the candidate's keys, then probes the set.
pub struct Verifier {
    query: Vec<Vec<u8>>,
    target: Vec<Vec<u8>>,
}

impl Verifier {
    // HOT-PATH: fixture.verify
    pub fn observe(&mut self, key: &[u8]) {
        self.target.push(key.to_vec()); //~ ERROR hot-path-hygiene: .to_vec()
    }

    // HOT-PATH: fixture.verdict
    pub fn verdict(&self) -> bool {
        let sorted: Vec<&Vec<u8>> = self.sorted_target();
        self.query.iter().all(|q| sorted.binary_search(&q).is_ok())
    }

    fn sorted_target(&self) -> Vec<&Vec<u8>> {
        let mut keys: Vec<&Vec<u8>> = self.target.iter().collect(); //~ ERROR hot-path-hygiene: verdict (crates/experiments/src/fixture.rs:41) → sorted_target (crates/experiments/src/fixture.rs:42) → `.collect()`
        keys.sort_unstable();
        keys
    }
}
