//! One module per paper exhibit, plus the extension studies.

mod extops;
mod extorgs;
mod subset;
mod superset;
mod tables;
mod validate;

pub use extops::extops;
pub use extorgs::{advisor_exhibit, extorgs};
pub use subset::{fig10, fig8, fig9};
pub use superset::{fig4, fig5, fig6, fig7};
pub use tables::{params, table5, table6, table7};
pub use validate::{appendix_c, validate_fd, varcard};

use crate::report::Exhibit;
use crate::sim::SimDb;
use setsig_costmodel::Params;
use setsig_workload::{Cardinality, WorkloadConfig};

/// Attaches the JSONL query trace (`<id>.trace.jsonl`) gathered by `sims`
/// to the exhibit, and its fold (`<id>.metrics.txt`, see
/// [`metrics_text`](crate::metrics_text)). Exhibits spanning several
/// simulated databases pass them all; each one's trace is folded and
/// written in sequence.
pub(crate) fn attach_observability<'a>(
    ex: &mut Exhibit,
    sims: impl IntoIterator<Item = &'a SimDb>,
) {
    let mut metrics = String::new();
    let mut trace = String::new();
    for sim in sims {
        let events = sim.trace.take();
        metrics.push_str(&crate::metrics_text(&events));
        for ev in events {
            trace.push_str(&ev.to_json());
            trace.push('\n');
        }
    }
    if !metrics.is_empty() {
        ex.artifacts
            .push((format!("{}.metrics.txt", ex.id), metrics));
    }
    if !trace.is_empty() {
        ex.artifacts.push((format!("{}.trace.jsonl", ex.id), trace));
    }
}

/// Knobs shared by every exhibit.
#[derive(Debug, Clone, Copy)]
pub struct Options {
    /// Also run the real implementations and add measured columns.
    pub simulate: bool,
    /// Divide `N` and `V` by this factor for faster simulation (1 = the
    /// paper's full scale). Analytic columns are computed at the same
    /// scale so the comparison stays apples-to-apples.
    pub scale: u64,
    /// Queries averaged per measured point.
    pub trials: u32,
}

impl Default for Options {
    fn default() -> Self {
        Options {
            simulate: false,
            scale: 1,
            trials: 3,
        }
    }
}

impl Options {
    /// Cost-model constants at the chosen scale.
    pub fn params(&self) -> Params {
        let paper = Params::paper();
        if self.scale <= 1 {
            paper
        } else {
            Params::scaled(paper.n / self.scale, paper.v / self.scale)
        }
    }

    /// Workload matching [`Options::params`] for cardinality `d_t`.
    pub fn workload(&self, d_t: u32) -> WorkloadConfig {
        let p = self.params();
        WorkloadConfig {
            n_objects: p.n,
            domain: p.v,
            cardinality: Cardinality::Fixed(d_t),
            seed: 0x1993_5160 + d_t as u64,
        }
    }

    /// These options for an exhibit that always measures (`validate`,
    /// `varcard`, `extops`): simulated, at 1/8 scale unless a scale was
    /// given, with at least three trials.
    pub(crate) fn measured(&self) -> Options {
        Options {
            simulate: true,
            scale: if self.scale > 1 { self.scale } else { 8 },
            trials: self.trials.max(3),
        }
    }

    /// The simulated database of [`Options::workload`] for cardinality `d_t`.
    pub(crate) fn sim(&self, d_t: u32) -> SimDb {
        SimDb::build(self.workload(d_t))
    }

    /// Scale note appended to exhibits when not at paper scale.
    pub fn annotate_scale(&self, exhibit: &mut Exhibit) {
        if self.scale > 1 {
            let p = self.params();
            exhibit.note(format!(
                "scaled instance: N = {}, V = {} (paper: 32000 / 13000); analytic columns use the same scale",
                p.n, p.v
            ));
        }
    }
}

/// Every exhibit id, in paper order.
pub const ALL: &[&str] = &[
    "params", "fig4", "fig5", "fig6", "fig7", "fig8", "fig9", "fig10", "table5", "table6",
    "table7", "validate", "appc", "varcard", "extorgs", "extops", "advisor",
];

/// Runs one exhibit by id.
pub fn run(id: &str, opts: &Options) -> Option<Exhibit> {
    Some(match id {
        "params" => params(),
        "fig4" => fig4(opts),
        "fig5" => fig5(opts),
        "fig6" => fig6(opts),
        "fig7" => fig7(opts),
        "fig8" => fig8(opts),
        "fig9" => fig9(opts),
        "fig10" => fig10(opts),
        "table5" => table5(),
        "table6" => table6(opts),
        "table7" => table7(opts),
        "validate" => validate_fd(opts),
        "appc" => appendix_c(),
        "varcard" => varcard(opts),
        "extorgs" => extorgs(opts),
        "extops" => extops(opts),
        "advisor" => advisor_exhibit(opts),
        _ => return None,
    })
}
