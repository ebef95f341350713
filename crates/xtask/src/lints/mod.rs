//! The project lints. Each exposes a `run(&Workspace)` entry point that
//! the fixture self-test drives too.

pub mod layering;
