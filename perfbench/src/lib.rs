//! Support library of the repository benchmark (`perfbench` binary): the
//! statistics every reported number goes through and the in-memory span
//! recorder behind the traced run. Both are dependency-free so their tests
//! run without building the program crates' workloads.

pub mod spans;
pub mod stats;
