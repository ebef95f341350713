//! # setsig-experiments — regenerating every table and figure of the paper
//!
//! One module per exhibit of Ishikawa, Kitagawa & Ohbo (SIGMOD 1993). Each
//! module produces an [`Exhibit`]: the analytic series straight from
//! `setsig-costmodel` (the paper is analytical, so these ARE the paper's
//! curves), optionally cross-checked by **measured** series obtained by
//! running the real SSF / BSSF / NIX implementations on the accounting disk
//! simulator.
//!
//! The `repro` binary drives everything:
//!
//! ```text
//! repro all                 # every exhibit, analytic only
//! repro all --simulate      # add measured page counts from the real code
//! repro fig5 --simulate     # one exhibit
//! repro validate            # false-drop formulas vs. measured rates
//! repro drift               # the page-cost conformance gate (`drift`)
//! ```
//!
//! CSV copies of every exhibit land in `results/`.

#![warn(missing_docs)]
#![allow(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    reason = "the paper's measurement harness, not a reusable library: a failed build/measure \
              step must abort the run loudly, so no exhibit or gate is silently computed from a \
              half-built facility"
)]

pub mod drift;
pub mod exhibits;
mod report;
mod sim;
mod trace;

pub use report::Exhibit;
pub use sim::SimDb;
pub use trace::{metrics_text, QueryTrace};
