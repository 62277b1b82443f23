//! # perfbench — host-time benchmark of the study harness
//!
//! One command measures one workload: an untraced pass for the
//! end-to-end metrics, or a traced pass for the per-layer ledger.
//! It drives the harness only through its public API — `study::run_once`,
//! `neko::SimBuilder`/`Sim`, `study::oracle` and the protocol node
//! types — and measures each layer from outside, by
//! timing the calls into it. See `README.md` beside this crate.

pub mod alloc;
pub mod calib;
pub mod metrics;
pub mod replica;
pub mod report;
pub mod trace;
pub mod workload;
