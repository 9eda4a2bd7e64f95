//! The benchmark's generator: deterministic per seed, and every line it
//! makes is accepted by the sequential engine.

use troll::script::run_script;
use troll::serve::Request;
use troll::System;
use troll_perfbench::gen::{open_loop_sequence, Kind, WorldGen, WORKLOADS};

/// Requests per world beyond the preload: enough for a churn world to
/// reach its department's `closure` (1 birth + 2 × 1000 hire/fire).
const PER_WORLD: usize = 2400;
/// Worlds checked per workload.
const WORLDS: usize = 3;

fn stream(seed: u64) -> Vec<Vec<String>> {
    WORKLOADS
        .iter()
        .map(|w| {
            let mut gens: Vec<WorldGen> =
                (0..w.worlds).map(|i| WorldGen::new(w, seed, i)).collect();
            let mut lines: Vec<String> = gens
                .iter_mut()
                .flat_map(|g| g.preload())
                .map(|r| r.line)
                .collect();
            lines.extend(
                open_loop_sequence(&mut gens, seed, 500)
                    .into_iter()
                    .map(|r| r.line),
            );
            lines.extend(
                gens.iter_mut()
                    .take(2)
                    .flat_map(|g| (0..100).map(|_| g.next_request().line).collect::<Vec<_>>()),
            );
            lines.extend(gens.iter().flat_map(|g| g.final_queries()).map(|r| r.line));
            lines
        })
        .collect()
}

#[test]
fn same_seed_same_lines() {
    assert_eq!(stream(42), stream(42));
    assert_ne!(stream(42), stream(43));
}

/// The animation-script line a request stands for (what the server
/// runs for it).
fn script_line(json: &str) -> String {
    match Request::parse(json).expect("generated lines parse") {
        Request::SubmitEvent { line, .. } => line,
        Request::QueryAttr { id, attr, .. } => format!("show {id} {attr}"),
        Request::QueryView { interface, .. } => format!("view {interface}"),
        other => panic!("unexpected generated request {other:?}"),
    }
}

#[test]
fn oracle_accepts_every_generated_line() {
    for w in WORKLOADS {
        let system = System::load_str(w.spec()).expect("spec compiles");
        for index in 0..WORLDS {
            let mut g = WorldGen::new(w, 7, index);
            let mut reqs = g.preload();
            reqs.extend((0..PER_WORLD).map(|_| g.next_request()));
            reqs.extend(g.final_queries());
            let writes = reqs.iter().filter(|r| r.kind == Kind::Write).count();
            let script: String = reqs.iter().map(|r| script_line(&r.line) + "\n").collect();
            let mut ob = system.object_base().expect("world builds");
            let outcomes = run_script(&mut ob, &script)
                .unwrap_or_else(|e| panic!("{} world {index} refused: {e}", w.name));
            assert_eq!(outcomes.len(), reqs.len(), "{}", w.name);
            assert_eq!(
                ob.steps_executed(),
                writes,
                "{}: every write is one step",
                w.name
            );
        }
        // the prefix the durable primary is loaded with is valid too
        let mut g = WorldGen::new(w, 7, 0);
        let script: String = g
            .durable_prefix()
            .iter()
            .map(|r| script_line(&r.line) + "\n")
            .collect();
        let mut ob = system.object_base().expect("world builds");
        run_script(&mut ob, &script).unwrap_or_else(|e| panic!("{} prefix refused: {e}", w.name));
    }
}

#[test]
fn churn_worlds_reach_closure() {
    let w = &WORKLOADS[0];
    let mut g = WorldGen::new(w, 7, 0);
    let mut lines: Vec<String> = g.preload().into_iter().map(|r| r.line).collect();
    lines.extend((0..PER_WORLD).map(|_| g.next_request().line));
    assert!(
        lines.iter().any(|l| l.contains("closure")),
        "no closure generated"
    );
}
