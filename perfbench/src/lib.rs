//! The repository benchmark: time-to-report of population-scale Chronos
//! fleets, driven through the public `fleet` and `chronosd` APIs.
//!
//! `cargo run --release --manifest-path perfbench/Cargo.toml -- --workload
//! <name> --seed <n> --seconds <s> --trace <0|1>` runs one workload and
//! prints one JSON result line last; `perfbench/README.md` describes the
//! workloads, the metrics and the correctness checks.

pub mod checks;
pub mod daemon_loop;
pub mod fleet_loop;
pub mod metrics;
pub mod run;
pub mod stats;
pub mod trace;
pub mod workload;
