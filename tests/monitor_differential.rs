//! Differential tests for the runtime's incremental monitors: with the
//! cache on (default) and off (forced history scans), event scripts —
//! random ones, and a long one past a hundred distinct persons — must
//! produce decision-for-decision identical behaviour: same grants, same
//! refusals (including mid-transaction rollbacks), same observable
//! states and histories.

use proptest::prelude::*;
use troll::data::{ObjectId, Value};
use troll::System;

/// A DEPT-flavoured class tailored to stress every cache path:
/// * `fire`'s permission is monitored, its state sliced by `P`;
/// * `closure`'s quantified permission is monitored too, one binding
///   lookup per element of `hired_ever`;
/// * `audit`'s permission reads `P` in a historical state predicate,
///   which is outside the monitorable fragment: it falls back to the
///   scan evaluator;
/// * the static constraint has no temporal operator and is evaluated on
///   the checked step; it refuses over-hiring, exercising
///   constraint-driven rollback;
/// * `swap` calls `fire; hire` synchronously, so one refused sub-event
///   rolls back a multi-occurrence transaction.
const SPEC: &str = r#"
object class DEPT
  identification id: string;
  data types |PERSON|, set(|PERSON|);
  template
    attributes
      employees: set(|PERSON|);
      hired_ever: set(|PERSON|);
    events
      birth establishment;
      death closure;
      hire(|PERSON|);
      fire(|PERSON|);
      audit(|PERSON|);
      swap(|PERSON|, |PERSON|);
    valuation
      variables P: |PERSON|;
      [establishment] employees = {};
      [establishment] hired_ever = {};
      [hire(P)] employees = insert(P, employees);
      [hire(P)] hired_ever = insert(P, hired_ever);
      [fire(P)] employees = remove(P, employees);
    constraints
      static card(employees) <= 3;
    interaction
      variables P: |PERSON|; Q: |PERSON|;
      swap(P, Q) >> (fire(P); hire(Q));
    permissions
      variables P: |PERSON|;
      { sometime(after(hire(P))) } fire(P);
      { sometime(P in employees) } audit(P);
      { for all(P in hired_ever : sometime(after(fire(P)))) } closure;
end object class DEPT;
"#;

fn person(n: u32) -> Value {
    Value::Id(ObjectId::new("PERSON", vec![Value::from(format!("p{n}"))]))
}

#[derive(Debug, Clone)]
enum Op {
    Hire(u32),
    Fire(u32),
    Audit(u32),
    Swap(u32, u32),
    Closure,
}

impl Op {
    fn run(
        &self,
        ob: &mut troll::runtime::ObjectBase,
        id: &ObjectId,
    ) -> troll::runtime::Result<troll::runtime::StepReport> {
        match self {
            Op::Hire(n) => ob.execute(id, "hire", vec![person(*n)]),
            Op::Fire(n) => ob.execute(id, "fire", vec![person(*n)]),
            Op::Audit(n) => ob.execute(id, "audit", vec![person(*n)]),
            Op::Swap(a, b) => ob.execute(id, "swap", vec![person(*a), person(*b)]),
            Op::Closure => ob.execute(id, "closure", vec![]),
        }
    }
}

fn arb_op() -> impl Strategy<Value = Op> {
    prop_oneof![
        (0u32..5).prop_map(Op::Hire),
        (0u32..5).prop_map(Op::Fire),
        (0u32..5).prop_map(Op::Audit),
        (0u32..5, 0u32..5).prop_map(|(a, b)| Op::Swap(a, b)),
        Just(Op::Closure),
    ]
}

fn fresh_dept(cache_enabled: bool) -> (troll::runtime::ObjectBase, ObjectId) {
    let system = System::load_str(SPEC).unwrap();
    let mut ob = system.object_base().unwrap();
    ob.set_monitor_cache_enabled(cache_enabled);
    let id = ob
        .birth("DEPT", vec![Value::from("D")], "establishment", vec![])
        .unwrap();
    (ob, id)
}

/// Runs `ops` in lock-step against a cached and an uncached base and
/// fails on the first difference in decision, error message,
/// attribute or history length. Stops after the department's death.
fn lockstep(ops: &[Op]) -> Result<troll::runtime::ObjectBase, String> {
    let (mut cached, id) = fresh_dept(true);
    let (mut scan, id_s) = fresh_dept(false);
    assert_eq!(id, id_s);
    for op in ops {
        let rc = op.run(&mut cached, &id);
        let rs = op.run(&mut scan, &id);
        match (&rc, &rs) {
            (Ok(a), Ok(b)) if a.occurrences == b.occurrences => {}
            (Err(a), Err(b)) if a.to_string() == b.to_string() => {}
            _ => {
                return Err(format!(
                    "decision divergence on {op:?}: cached={rc:?} scan={rs:?}"
                ))
            }
        }
        for attr in ["employees", "hired_ever"] {
            if cached.attribute(&id, attr).unwrap() != scan.attribute(&id, attr).unwrap() {
                return Err(format!("attribute {attr} diverged after {op:?}"));
            }
        }
        let (ci, si) = (cached.instance(&id).unwrap(), scan.instance(&id).unwrap());
        if ci.trace().len() != si.trace().len() || ci.is_alive() != si.is_alive() {
            return Err(format!("history diverged after {op:?}"));
        }
        if !ci.is_alive() {
            break;
        }
    }
    // the scan base never consults monitors
    assert_eq!(scan.monitor_cache_stats().hits, 0);
    Ok(cached)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Lock-step execution of the same random script against a cached
    /// and an uncached object base: every decision, error message,
    /// observation and trace length must match, whatever mixture of
    /// grants, permission refusals, constraint violations and
    /// multi-event rollbacks the script produces.
    #[test]
    fn cache_and_scan_agree_on_random_scripts(ops in proptest::collection::vec(arb_op(), 1..50)) {
        let cached = lockstep(&ops).map_err(TestCaseError::fail)?;
        // the cached base decides every check through the cache
        // (monitor answer or counted fallback)
        let cs = cached.monitor_cache_stats();
        prop_assert!(cs.hits + cs.fallbacks > 0);
    }
}

/// A deterministic churn through 300 distinct persons — far past any
/// per-instance bound on bindings — with refused fires, refused and
/// granted `swap`s (whole-transaction rollbacks), refused `closure`s
/// while someone is employed and a final granted `closure`. Cached and
/// scan runs agree on every decision, and the cached run never scans.
#[test]
fn long_churn_past_128_persons_agrees_with_scan() {
    let mut ops = Vec::new();
    for i in 0..300 {
        ops.push(Op::Hire(i));
        // never hired: refused, and the swap's hire rolls back with it
        ops.push(Op::Swap(i + 1000, i + 2000));
        ops.push(Op::Fire(i + 2000));
        if i % 10 == 0 {
            // someone is still employed
            ops.push(Op::Closure);
        }
        if i % 3 == 0 {
            // granted: p_i leaves, p_{i+300} joins
            ops.push(Op::Swap(i, i + 300));
            ops.push(Op::Fire(i));
            ops.push(Op::Fire(i + 300));
        } else {
            ops.push(Op::Fire(i));
        }
        // refused: fired persons stay hired in the past, but an old
        // never-hired person does not
        ops.push(Op::Fire(i + 3000));
    }
    ops.push(Op::Closure);
    let cached = lockstep(&ops).unwrap_or_else(|e| panic!("{e}"));
    assert!(
        !cached.instance(&cached_id()).unwrap().is_alive(),
        "the final closure is granted"
    );
    let stats = cached.monitor_cache_stats();
    assert_eq!(stats.fallbacks, 0, "{stats}");
    assert_eq!(stats.misses, 0, "{stats}");
    let snapshot = cached.metrics().snapshot();
    assert_eq!(snapshot.counters["permissions.path.scan"], 0);
    assert!(snapshot.counters["permissions.path.monitored"] > 1000);
}

fn cached_id() -> ObjectId {
    ObjectId::new("DEPT", vec![Value::from("D")])
}

/// A scripted session pinning down the cache's observable behaviour:
/// monitorable checks — the quantified `closure` included — are
/// answered by monitors (hits) built at the department's birth (no
/// misses), `audit`'s out-of-fragment permission demonstrably falls
/// back to the scan path, and death drops the instance's monitors.
#[test]
fn scripted_session_exercises_hits_and_fallbacks() {
    let (mut ob, id) = fresh_dept(true);

    ob.execute(&id, "hire", vec![person(0)]).unwrap();
    ob.execute(&id, "fire", vec![person(0)]).unwrap();
    let after_first = ob.monitor_cache_stats();
    assert_eq!(after_first.misses, 0, "monitors start at birth");
    assert!(
        after_first.hits > 0,
        "monitorable check must be answered by a monitor"
    );

    // the same check again: another hit
    ob.execute(&id, "hire", vec![person(0)]).unwrap();
    ob.execute(&id, "fire", vec![person(0)]).unwrap();
    let after_second = ob.monitor_cache_stats();
    assert!(after_second.hits > after_first.hits);

    // fire(p1) was never permitted — the refusal must also come from
    // the monitor, and the rolled-back step must not advance monitors
    // (witnessed by the follow-up checks still agreeing with history)
    assert!(ob.execute(&id, "fire", vec![person(1)]).is_err());
    assert!(ob.execute(&id, "fire", vec![person(0)]).is_ok());

    // audit's permission reads P in a historical state predicate: it
    // must fall back to the scan evaluator
    let before_audit = ob.monitor_cache_stats();
    ob.execute(&id, "audit", vec![person(0)]).unwrap();
    let after_audit = ob.monitor_cache_stats();
    assert!(
        after_audit.fallbacks > before_audit.fallbacks,
        "out-of-fragment permission must fall back to the scan evaluator"
    );

    // the quantified closure permission is monitored (and here
    // succeeds, killing the instance and dropping its monitors)
    ob.execute(&id, "closure", vec![]).unwrap();
    let after_closure = ob.monitor_cache_stats();
    assert!(after_closure.hits > after_audit.hits);
    assert_eq!(after_closure.fallbacks, after_audit.fallbacks);
    assert!(
        after_closure.invalidations > after_audit.invalidations,
        "death must drop the instance's monitors"
    );
}

/// A refused sub-event of a synchronous transaction rolls the whole
/// step back; the cache must neither observe the aborted step nor
/// diverge from the scan afterwards.
#[test]
fn multi_event_rollback_leaves_cache_consistent() {
    let (mut ob, id) = fresh_dept(true);
    let (mut scan, _) = fresh_dept(false);

    for base in [&mut ob, &mut scan] {
        base.execute(&id, "hire", vec![person(0)]).unwrap();
        // swap calls fire(p1); hire(p2) — fire(p1) is refused, so the
        // whole transaction (including the otherwise-fine hire) aborts
        assert!(base
            .execute(&id, "swap", vec![person(1), person(2)])
            .is_err());
        // p2 must NOT have been hired by the aborted transaction
        assert!(base.execute(&id, "fire", vec![person(2)]).is_err());
        // a successful swap afterwards: fire(p0) permitted, hire(p1)
        assert!(base
            .execute(&id, "swap", vec![person(0), person(1)])
            .is_ok());
        assert!(base.execute(&id, "fire", vec![person(1)]).is_ok());
    }

    for attr in ["employees", "hired_ever"] {
        assert_eq!(
            ob.attribute(&id, attr).unwrap(),
            scan.attribute(&id, attr).unwrap()
        );
    }
    assert_eq!(
        ob.instance(&id).unwrap().trace().len(),
        scan.instance(&id).unwrap().trace().len()
    );
    assert!(ob.monitor_cache_stats().hits > 0);
}

/// Disabling the cache mid-life drops state; re-enabling rebuilds
/// monitors from the committed trace (one miss each) with identical
/// answers.
#[test]
fn toggle_rebuilds_from_committed_history() {
    let (mut ob, id) = fresh_dept(true);
    ob.execute(&id, "hire", vec![person(0)]).unwrap();
    ob.execute(&id, "fire", vec![person(0)]).unwrap();

    ob.set_monitor_cache_enabled(false);
    assert!(!ob.monitor_cache_enabled());
    // scan path only
    assert!(ob.execute(&id, "fire", vec![person(1)]).is_err());
    assert!(ob.execute(&id, "fire", vec![person(0)]).is_ok());

    ob.set_monitor_cache_enabled(true);
    let before = ob.monitor_cache_stats();
    // replayed from the full committed trace, same verdicts as ever
    assert!(ob.execute(&id, "fire", vec![person(0)]).is_ok());
    assert!(ob.execute(&id, "fire", vec![person(3)]).is_err());
    let after = ob.monitor_cache_stats();
    assert!(after.hits > before.hits);
    assert_eq!(after.misses, before.misses + 1, "one catch-up, then feeds");
}
