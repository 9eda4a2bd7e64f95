//! Incremental monitors for permission and constraint checks.
//!
//! The reference path evaluates every permission precondition and
//! dynamic constraint by re-scanning the instance's whole trace
//! ([`troll_temporal::eval_now_appended`], O(|trace|·|φ|) per check).
//! This cache decides once per rule — (kind, context class, event,
//! declaration index) — how its checks are answered ([`Plan`]):
//!
//! * a formula with no temporal operator (`{ n >= 0 }`, `static
//!   Salary >= 5000.00`) is evaluated on the checked step alone, with no
//!   state at all;
//! * a formula in the [`ParametricMonitor`] fragment gets one monitor
//!   per (instance, rule), its state indexed by the binding of the
//!   slicing variable. `fire(P)`'s `sometime(after(hire(P)))` costs one
//!   hash lookup, and DEPT's `for all(P in hired_ever :
//!   sometime(after(fire(P))))` one lookup per element of `hired_ever`;
//! * everything else scans.
//!
//! An instance's monitors are created at its first committed step and
//! fed every committed step after it. An instance restored from a
//! snapshot, or checked after the cache was re-enabled, builds each
//! monitor once by catching up over its committed trace (a *miss*).
//!
//! # Safety argument
//!
//! The cache must never change observable semantics, only cost:
//!
//! 1. **The fragment is exact.** [`ParametricMonitor`] answers what the
//!    scan answers whenever it answers at all (its property test runs
//!    against the reference evaluator at every prefix). Historical state
//!    predicates read only [`recorded_state_vars`], which every committed
//!    step records.
//! 2. **Errors go to the scan.** A check the monitor cannot evaluate (an
//!    unbound slicing variable, a failing predicate the scan might
//!    short-circuit past) is answered by the scan, which reports
//!    whatever it reports. A monitor whose feed fails is abandoned for
//!    the scan for good.
//! 3. **Feeding happens at commit only.** [`MonitorCache::on_commit`]
//!    is called exactly where the step engine pushes a committed trace
//!    step; checks evaluate the transaction's virtual step without
//!    mutating anything. A rolled-back transaction therefore leaves
//!    every monitor untouched by construction.
//!
//! `tests/monitor_differential.rs` drives random and long scripted
//! event sequences through a cached and an uncached object base and
//! asserts decision-for-decision equality, including across rollbacks.

use std::cmp::Ordering;
use std::collections::{BTreeMap, BTreeSet};
use troll_data::{Env, ObjectId};
use troll_lang::ast::ComponentKind;
use troll_lang::{ClassModel, ConstraintKind};
use troll_obs::{Counter, Metrics};
use troll_temporal::{Formula, ParametricMonitor, Step, Trace};

/// What kind of check a rule is.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub(crate) enum CheckKind {
    /// A permission precondition of an event.
    Permission,
    /// A static/dynamic constraint.
    Constraint,
}

/// Identity of one check rule: kind, context class, guarded event and
/// the rule's index (among the event's permissions, or among the class's
/// constraints).
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub(crate) struct CheckKey {
    pub kind: CheckKind,
    pub ctx_class: String,
    /// Guarded event name; empty for constraints.
    pub event: String,
    pub index: usize,
}

/// Borrowed view of a [`CheckKey`], built on the check hot path without
/// allocating; an owned key is made only when an entry is inserted.
#[derive(Debug, Clone, Copy)]
pub(crate) struct CheckRef<'a> {
    pub kind: CheckKind,
    pub ctx_class: &'a str,
    /// Guarded event name; empty for constraints.
    pub event: &'a str,
    pub index: usize,
}

impl CheckRef<'_> {
    fn to_owned(self) -> CheckKey {
        CheckKey {
            kind: self.kind,
            ctx_class: self.ctx_class.to_string(),
            event: self.event.to_string(),
            index: self.index,
        }
    }

    /// How `stored` orders relative to this key — consistent with
    /// `CheckKey`'s derived `Ord` against `self.to_owned()`.
    fn order(self, stored: &CheckKey) -> Ordering {
        stored
            .kind
            .cmp(&self.kind)
            .then_with(|| stored.ctx_class.as_str().cmp(self.ctx_class))
            .then_with(|| stored.event.as_str().cmp(self.event))
            .then_with(|| stored.index.cmp(&self.index))
    }
}

/// How a rule's checks are answered, decided once per rule.
#[derive(Debug)]
enum Plan {
    /// Outside the monitorable fragment.
    Scan,
    /// No temporal operator: evaluated on the checked step alone.
    Stateless(ParametricMonitor),
    /// A fresh monitor; every instance keeps its own copy.
    Monitored(ParametricMonitor),
}

impl Plan {
    fn new(formula: &Formula, class: &ClassModel) -> Plan {
        match ParametricMonitor::new(formula, &recorded_state_vars(class)) {
            Ok(m) if m.is_stateless() => Plan::Stateless(m),
            Ok(m) => Plan::Monitored(m),
            Err(_) => Plan::Scan,
        }
    }
}

#[derive(Debug)]
enum Entry {
    /// A live monitor, fed every committed step of its instance.
    Active(ParametricMonitor),
    /// Feeding a historical state predicate failed; answer with the
    /// scan from now on.
    Abandoned,
}

/// A stable point-in-time snapshot of the monitor-cache counters, as
/// returned by [`crate::ObjectBase::monitor_cache_stats`]. Used by
/// benchmarks, the differential test suite and the `troll animate
/// --stats` report.
///
/// The counters themselves live in the object base's
/// [`troll_obs::Metrics`] registry (`monitor_cache.hits` etc.); this
/// struct is the typed façade over that registry.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MonitorCacheStats {
    /// Checks answered without a history scan.
    pub hits: u64,
    /// Monitors built by catching up over a committed trace: instances
    /// restored from a snapshot, or checked after the cache was
    /// re-enabled.
    pub misses: u64,
    /// Checks answered by the reference scan evaluator: formulas
    /// outside the monitorable fragment, checks the monitor could not
    /// evaluate, or a disabled cache.
    pub fallbacks: u64,
    /// Monitors dropped or abandoned (instance death, failed feed).
    pub invalidations: u64,
}

impl MonitorCacheStats {
    /// Total checks that consulted the cache (hits + fallbacks).
    pub fn checks(&self) -> u64 {
        self.hits + self.fallbacks
    }
}

impl std::fmt::Display for MonitorCacheStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "hits {} / misses {} / fallbacks {} / invalidations {}",
            self.hits, self.misses, self.fallbacks, self.invalidations
        )
    }
}

/// Outcome of consulting the cache for one check.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Verdict {
    /// The formula holds (or not) on the history extended with the
    /// virtual step.
    Holds(bool),
    /// Scan: the cache is off, or the formula is outside the fragment.
    Scan,
    /// Scan: the monitor could not evaluate this check, or was abandoned.
    Failed,
}

/// The cache proper: plans keyed by rule, monitors keyed by instance,
/// then rule. The stats counters are obs handles — registered in the
/// owning object base's [`Metrics`] under `monitor_cache.*` — so one
/// instrumentation source feeds both [`MonitorCacheStats`] and the
/// metrics snapshot.
///
/// Both tables are `Vec`s sorted by key and probed by binary search with
/// a borrowed [`CheckRef`]: a class has a handful of rules, and the flat
/// layout lets a lookup compare in place instead of allocating a key.
#[derive(Debug)]
pub(crate) struct MonitorCache {
    enabled: bool,
    plans: Vec<(CheckKey, Plan)>,
    per_instance: BTreeMap<ObjectId, Vec<(CheckKey, Entry)>>,
    hits: Counter,
    misses: Counter,
    fallbacks: Counter,
    invalidations: Counter,
}

impl Default for MonitorCache {
    /// A cache with free-standing (unregistered) counters — used as the
    /// placeholder during `mem::take` in the step engine and in unit
    /// tests. The runtime's real cache is built by [`MonitorCache::new`].
    fn default() -> Self {
        MonitorCache {
            enabled: true,
            plans: Vec::new(),
            per_instance: BTreeMap::new(),
            hits: Counter::new(),
            misses: Counter::new(),
            fallbacks: Counter::new(),
            invalidations: Counter::new(),
        }
    }
}

impl MonitorCache {
    /// Creates a cache whose counters are registered in `metrics` under
    /// `monitor_cache.{hits,misses,fallbacks,invalidations}`.
    pub(crate) fn new(metrics: &Metrics) -> Self {
        MonitorCache {
            hits: metrics.counter("monitor_cache.hits"),
            misses: metrics.counter("monitor_cache.misses"),
            fallbacks: metrics.counter("monitor_cache.fallbacks"),
            invalidations: metrics.counter("monitor_cache.invalidations"),
            ..MonitorCache::default()
        }
    }

    /// Enables or disables the cache. Disabling drops every monitor, so
    /// a later re-enable rebuilds them from committed traces. The
    /// counters are cumulative and survive the toggle.
    pub(crate) fn set_enabled(&mut self, enabled: bool) {
        if !enabled {
            self.per_instance.clear();
        }
        self.enabled = enabled;
    }

    pub(crate) fn enabled(&self) -> bool {
        self.enabled
    }

    pub(crate) fn stats(&self) -> MonitorCacheStats {
        MonitorCacheStats {
            hits: self.hits.get(),
            misses: self.misses.get(),
            fallbacks: self.fallbacks.get(),
            invalidations: self.invalidations.get(),
        }
    }

    /// The index of `key`'s plan, built from `formula` on first sight.
    fn plan(&mut self, key: CheckRef<'_>, formula: &Formula, class: &ClassModel) -> usize {
        match self.plans.binary_search_by(|(k, _)| key.order(k)) {
            Ok(p) => p,
            Err(p) => {
                self.plans
                    .insert(p, (key.to_owned(), Plan::new(formula, class)));
                p
            }
        }
    }

    /// Answers one check of rule `key` (whose formula is `formula`, in
    /// `class`) against `trace` extended with `virtual_step`. The hit
    /// path allocates no key: both tables are probed with `key` as is.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn check(
        &mut self,
        id: &ObjectId,
        key: CheckRef<'_>,
        formula: &Formula,
        class: &ClassModel,
        trace: &Trace,
        virtual_step: &Step,
        env: &dyn Env,
    ) -> Verdict {
        if !self.enabled {
            self.fallbacks.inc();
            return Verdict::Scan;
        }
        let p = self.plan(key, formula, class);
        let answer = match &self.plans[p].1 {
            Plan::Scan => {
                self.fallbacks.inc();
                return Verdict::Scan;
            }
            Plan::Stateless(m) => m.eval_appended(virtual_step, env),
            Plan::Monitored(fresh) => {
                let entries = instance_entries(&mut self.per_instance, id);
                let e = match entries.binary_search_by(|(k, _)| key.order(k)) {
                    Ok(e) => e,
                    Err(e) => {
                        if !trace.is_empty() {
                            self.misses.inc();
                        }
                        let mut m = fresh.clone();
                        let entry = match trace.iter().try_for_each(|s| m.step(s)) {
                            Ok(()) => Entry::Active(m),
                            Err(_) => Entry::Abandoned,
                        };
                        entries.insert(e, (key.to_owned(), entry));
                        e
                    }
                };
                match &entries[e].1 {
                    Entry::Active(m) => m.eval_appended(virtual_step, env),
                    Entry::Abandoned => {
                        self.fallbacks.inc();
                        return Verdict::Failed;
                    }
                }
            }
        };
        match answer {
            Ok(holds) => {
                self.hits.inc();
                Verdict::Holds(holds)
            }
            Err(_) => {
                self.fallbacks.inc();
                Verdict::Failed
            }
        }
    }

    /// Feeds a freshly committed step to every monitor of the instance.
    /// Must be called exactly once per step pushed to the instance's
    /// base trace; `first` carries the instance's class when this is its
    /// first step, which creates its monitors. Returns the number of
    /// monitors that consumed the step (for the `MonitorFed`
    /// observability event).
    pub(crate) fn on_commit(
        &mut self,
        id: &ObjectId,
        step: &Step,
        first: Option<&ClassModel>,
    ) -> usize {
        if !self.enabled {
            return 0;
        }
        if let Some(class) = first {
            self.start(id, class);
        }
        let Some(entries) = self.per_instance.get_mut(id) else {
            return 0;
        };
        let mut fed = 0usize;
        for (_, entry) in entries.iter_mut() {
            if let Entry::Active(m) = entry {
                if m.step(step).is_err() {
                    self.invalidations.inc();
                    *entry = Entry::Abandoned;
                } else {
                    fed += 1;
                }
            }
        }
        fed
    }

    /// Creates a fresh monitor for every monitored rule of `class` the
    /// instance does not have yet — the rules its checks will key by:
    /// permissions by event and index, recurring constraints by index.
    fn start(&mut self, id: &ObjectId, class: &ClassModel) {
        let mut per_event: BTreeMap<&str, usize> = BTreeMap::new();
        let mut rules = Vec::new();
        for p in &class.permissions {
            let index = per_event.entry(&p.event).or_default();
            rules.push((CheckKind::Permission, p.event.as_str(), *index, &p.formula));
            *index += 1;
        }
        for (index, c) in class.constraints.iter().enumerate() {
            if c.kind != ConstraintKind::Initially {
                rules.push((CheckKind::Constraint, "", index, &c.formula));
            }
        }
        for (kind, event, index, formula) in rules {
            let key = CheckRef {
                kind,
                ctx_class: &class.name,
                event,
                index,
            };
            let p = self.plan(key, formula, class);
            let Plan::Monitored(fresh) = &self.plans[p].1 else {
                continue;
            };
            let entries = instance_entries(&mut self.per_instance, id);
            if let Err(e) = entries.binary_search_by(|(k, _)| key.order(k)) {
                entries.insert(e, (key.to_owned(), Entry::Active(fresh.clone())));
            }
        }
    }

    /// Drops all monitors of a dead instance.
    pub(crate) fn on_death(&mut self, id: &ObjectId) {
        if let Some(entries) = self.per_instance.remove(id) {
            self.invalidations.add(entries.len() as u64);
        }
    }
}

/// The instance's entry table, created empty on first use; the id is
/// cloned only then.
fn instance_entries<'a>(
    per_instance: &'a mut BTreeMap<ObjectId, Vec<(CheckKey, Entry)>>,
    id: &ObjectId,
) -> &'a mut Vec<(CheckKey, Entry)> {
    if !per_instance.contains_key(id) {
        per_instance.insert(id.clone(), Vec::new());
    }
    per_instance.get_mut(id).expect("ensured above")
}

/// Variables guaranteed resolvable from a committed base-trace snapshot
/// of `class`: stored (non-derived) attributes, identification
/// attributes, inherited-base aliases and single-valued component
/// names. (If one of these happens to be missing from some historical
/// snapshot, feeding errors and the monitor is abandoned for the scan —
/// the set gates what we *attempt*, not what is correct.)
fn recorded_state_vars(class: &ClassModel) -> BTreeSet<String> {
    let mut vars = BTreeSet::new();
    for attr in class.template.signature().attributes() {
        if !attr.derived {
            vars.insert(attr.name.clone());
        }
    }
    for (name, _) in &class.identification {
        vars.insert(name.clone());
    }
    for (_, alias) in &class.inheriting {
        vars.insert(alias.clone());
    }
    for comp in &class.components {
        if comp.kind == ComponentKind::Single {
            vars.insert(comp.name.clone());
        }
    }
    vars
}

#[cfg(test)]
mod tests {
    use super::*;
    use troll_data::{MapEnv, Value};
    use troll_temporal::EventOccurrence;

    const DEPT: &str = r#"
object class DEPT
  identification id: string;
  template
    attributes
      budget: int;
      hired_ever: set(string);
    events
      birth establishment;
      hire(string);
      fire(string);
      audit(string);
      spend(int);
    permissions
      variables P: string; n: int;
      { sometime(after(hire(P))) } fire(P);
      { sometime(budget > 0 and P = "x") } audit(P);
      { n >= 0 } spend(n);
end object class DEPT;
"#;

    fn dept() -> ClassModel {
        let model = troll_lang::analyze(&troll_lang::parse(DEPT).unwrap()).unwrap();
        model.class("DEPT").unwrap().clone()
    }

    fn key(event: &str) -> CheckRef<'_> {
        CheckRef {
            kind: CheckKind::Permission,
            ctx_class: "DEPT",
            event,
            index: 0,
        }
    }

    fn step(events: Vec<(&str, &str)>) -> Step {
        Step::new(
            events
                .into_iter()
                .map(|(e, a)| EventOccurrence::new(e, vec![Value::from(a)]))
                .collect(),
            [("budget".to_string(), Value::from(1))],
        )
    }

    fn bound(pairs: &[(&str, Value)]) -> MapEnv {
        let mut env = MapEnv::new();
        for (k, v) in pairs {
            env.bind(*k, v.clone());
        }
        env
    }

    fn formula<'a>(class: &'a ClassModel, event: &'a str) -> &'a Formula {
        &class.permissions_for(event).next().unwrap().formula
    }

    /// An instance born under the cache gets its monitors at its first
    /// commit and is fed from there; one restored with a history
    /// replays it once, on its first check.
    #[test]
    fn check_replays_peeks_and_feeds() {
        let class = dept();
        let fire = formula(&class, "fire");
        let trace: Trace = [step(vec![]), step(vec![("hire", "ada")])]
            .into_iter()
            .collect();
        let born = ObjectId::new("DEPT", vec![Value::from("born")]);
        let restored = ObjectId::new("DEPT", vec![Value::from("restored")]);
        let mut cache = MonitorCache::default();
        for (i, s) in trace.iter().enumerate() {
            let first = (i == 0).then_some(&class);
            assert_eq!(cache.on_commit(&born, s, first), 1);
        }
        for id in [&born, &restored] {
            let vstep = step(vec![]);
            for (who, holds) in [("ada", true), ("bob", false)] {
                let env = bound(&[("P", Value::from(who))]);
                let v = cache.check(id, key("fire"), fire, &class, &trace, &vstep, &env);
                assert_eq!(v, Verdict::Holds(holds));
            }
            // hired within the checked step itself
            let env = bound(&[("P", Value::from("cy"))]);
            let vstep = step(vec![("hire", "cy")]);
            let v = cache.check(id, key("fire"), fire, &class, &trace, &vstep, &env);
            assert_eq!(v, Verdict::Holds(true));
        }
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses, stats.fallbacks), (6, 1, 0));
    }

    #[test]
    fn death_drops_entries() {
        let class = dept();
        let mut cache = MonitorCache::default();
        let id = ObjectId::new("DEPT", vec![]);
        cache.on_commit(&id, &step(vec![]), Some(&class));
        cache.on_death(&id);
        assert_eq!(cache.stats().invalidations, 1);
        assert_eq!(cache.on_commit(&id, &step(vec![]), None), 0);
    }

    #[test]
    fn unmonitorable_and_disabled_fall_back() {
        let class = dept();
        let mut cache = MonitorCache::default();
        let id = ObjectId::new("DEPT", vec![]);
        let trace = Trace::new();
        let vstep = step(vec![]);

        // no temporal operator: no monitor, answered on the step
        let spend = formula(&class, "spend");
        let env = bound(&[("n", Value::from(-1))]);
        let v = cache.check(&id, key("spend"), spend, &class, &trace, &vstep, &env);
        assert_eq!(v, Verdict::Holds(false));
        assert!(cache.per_instance.is_empty());

        // the slicing-free state predicate mentions a parameter
        let audit = formula(&class, "audit");
        let env = bound(&[("P", Value::from("x"))]);
        let v = cache.check(&id, key("audit"), audit, &class, &trace, &vstep, &env);
        assert_eq!(v, Verdict::Scan);

        // an unbound slicing variable is left to the scan to report
        let fire = formula(&class, "fire");
        let v = cache.check(
            &id,
            key("fire"),
            fire,
            &class,
            &trace,
            &vstep,
            &MapEnv::new(),
        );
        assert_eq!(v, Verdict::Failed);

        cache.set_enabled(false);
        let v = cache.check(&id, key("spend"), spend, &class, &trace, &vstep, &env);
        assert_eq!(v, Verdict::Scan);
        assert!(!cache.enabled());
        assert_eq!(cache.stats().fallbacks, 3);
    }
}
