//! The troll-rs repository benchmark: served, durable and replicated
//! TROLL events, end to end and layer by layer. See `README.md` in this
//! directory for the workloads, the metrics and how to run it.

pub mod gen;
pub mod net;
pub mod replay;
pub mod run;
pub mod stats;
pub mod trace;
