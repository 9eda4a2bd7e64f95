//! Instrumentation counters for the temporal substrate.
//!
//! The evaluators have no natural owner to thread a
//! [`troll_obs::Metrics`] handle through — they are free functions
//! called from several crates — so their counters live in the
//! process-wide [`troll_obs::global`] registry:
//!
//! * `temporal.scan_evals` — reference-evaluator entries
//!   ([`crate::eval_at`], [`crate::eval_now`],
//!   [`crate::eval_now_appended`]): each one is a full history scan,
//!   O(|trace|·|φ|). On the runtime's hot path these are exactly the
//!   scan-path *fallbacks* of the monitor cache.
//! * `temporal.compiled_scan_evals` — the subset of scans answered by
//!   the compiled scan ([`crate::CompiledFormula`]): same complexity
//!   class, but predicate leaves run as bytecode. Counted *in addition*
//!   to `temporal.scan_evals`, which stays the total scan count.
//! * `temporal.monitor_steps` — committed steps consumed by
//!   [`crate::Monitor::step`] and [`crate::ParametricMonitor::step`],
//!   O(|φ|) each plus one hash update per binding the step touches.
//! * `temporal.monitor_peeks` — non-mutating hot-path queries via
//!   [`crate::Monitor::peek`] and [`crate::ParametricMonitor::peek`],
//!   O(|φ|) each plus one hash lookup of the binding.
//!
//! Handles are resolved once through a `OnceLock`, so the per-call cost
//! is one relaxed atomic increment. Values are cumulative over the
//! process; read them as differences around a workload.

use std::sync::OnceLock;
use troll_obs::Counter;

/// Counter of reference-evaluator (history scan) entries.
pub(crate) fn scan_evals() -> &'static Counter {
    static C: OnceLock<Counter> = OnceLock::new();
    C.get_or_init(|| troll_obs::global().counter("temporal.scan_evals"))
}

/// Counter of compiled-scan entries (also counted in `scan_evals`).
pub(crate) fn compiled_scan_evals() -> &'static Counter {
    static C: OnceLock<Counter> = OnceLock::new();
    C.get_or_init(|| troll_obs::global().counter("temporal.compiled_scan_evals"))
}

/// Counter of monitor steps (committed feeds).
pub(crate) fn monitor_steps() -> &'static Counter {
    static C: OnceLock<Counter> = OnceLock::new();
    C.get_or_init(|| troll_obs::global().counter("temporal.monitor_steps"))
}

/// Counter of monitor peeks (hot-path checks).
pub(crate) fn monitor_peeks() -> &'static Counter {
    static C: OnceLock<Counter> = OnceLock::new();
    C.get_or_init(|| troll_obs::global().counter("temporal.monitor_peeks"))
}
