//! The project lints. Each exposes a `run(&Workspace, …)` entry point
//! plus a file-granular `check_*` entry point the fixture self-tests
//! drive directly. `stale_allow` is different: it runs *after* the
//! others, over the allowlist `accounting` consulted.

pub mod accounting;
pub mod guard_across_io;
pub mod layering;
pub mod stale_allow;
