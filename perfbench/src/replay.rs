//! In-process, single-threaded replays of a run's request stream.
//!
//! The same function serves as the sequential oracle (tracing off) and
//! as the traced run that yields per-layer numbers (tracing on): each
//! request line goes through the layers' public functions in the order
//! the server would use them — `Request::parse`, `script::run_command`
//! (with a durable world's `DurableSink` wrapped in a timing sink, so
//! `store.append` nests inside `runtime.step`), `Response::to_json`.

use crate::trace::{self, span};
use std::path::Path;
use std::sync::{Arc, Mutex};
use troll::obs::Histogram;
use troll::runtime::{ObjectBase, Occurrence, StepSink};
use troll::script::run_command;
use troll::serve::{Request, Response};
use troll::store::{open_world, DurableSink, FsyncPolicy, Store, StoreOptions};
use troll::System;

/// Store settings of every durable world, in-process and served alike.
pub fn store_options() -> StoreOptions {
    StoreOptions {
        fsync: FsyncPolicy::Group(32),
        segment_bytes: 4 << 20,
        snapshot_every: crate::net::SNAPSHOT_EVERY,
    }
}

/// Times every append into a durable world's store. The store's own
/// fsyncs (the group window, the sync before a snapshot) happen inside
/// the append; their duration comes from the store's exact
/// `store.fsync_latency_ns` sum and is recorded as a child span. An
/// append that also wrote a snapshot is renamed `store.snapshot`.
#[derive(Debug)]
struct TimingSink {
    inner: DurableSink,
    store: Arc<Mutex<Store>>,
    fsync: Histogram,
}

impl StepSink for TimingSink {
    fn on_step_committed(&mut self, base: &ObjectBase, initial: &[Occurrence]) {
        let before = self.fsync.summary();
        let g = span("store.append");
        self.inner.on_step_committed(base, initial);
        if self.fsync.count() != before.count {
            let synced = self.fsync.summary().sum_ns - before.sum_ns;
            g.child_ending_now("store.fsync", synced);
        }
        let store = self.store.lock().expect("store lock");
        if store.figures().bytes_since_snapshot == 0 {
            g.rename("store.snapshot");
        }
    }
}

/// One replayed world.
pub struct World {
    /// The engine.
    pub base: ObjectBase,
    /// Its store, when durable.
    pub store: Option<Arc<Mutex<Store>>>,
}

/// The outcome of a replay.
pub struct Replay {
    /// Response lines per world, in request order.
    pub responses: Vec<Vec<String>>,
    /// Wall time of the replay, nanoseconds.
    pub wall_ns: u64,
    /// The replayed worlds.
    pub worlds: Vec<World>,
}

/// Answers one request line the way `troll serve` does.
fn answer(ob: &mut ObjectBase, line: &str) -> String {
    let req = {
        let _g = span("serve.codec");
        Request::parse(line)
    };
    let outcome = match req {
        Ok(Request::SubmitEvent { line, .. }) => {
            let line = line.split("--").next().unwrap_or("").trim().to_string();
            let _g = span("runtime.step");
            run_command(ob, &line)
        }
        Ok(Request::QueryAttr { id, attr, .. }) => {
            let cmd = format!("show {id} {attr}");
            let _g = span("runtime.show");
            run_command(ob, &cmd)
        }
        Ok(Request::QueryView { interface, .. }) => {
            let cmd = format!("view {interface}");
            let _g = span("runtime.view");
            run_command(ob, &cmd)
        }
        Ok(other) => Err(format!("not a world request: {other:?}")),
        Err(e) => Err(e),
    };
    let resp = match outcome {
        Ok(o) => Response::Ok(o.to_string()),
        Err(e) => Response::Err(e),
    };
    let _g = span("serve.codec");
    resp.to_json()
}

/// Compiles `spec` once under a `lang.compile` span.
pub fn compile(spec: &str) -> Result<System, String> {
    let _g = span("lang.compile");
    System::load_str(spec).map_err(|e| e.to_string())
}

/// Replays `requests[w]` against world `names[w]`, world after world.
/// `system` is `spec` compiled; `durable` gives every world a store under `<root>/worlds/<name>` with
/// [`store_options`]; request ids start at `first_request`.
pub fn replay(
    system: &System,
    spec: &str,
    names: &[String],
    requests: &[Vec<String>],
    durable: Option<&Path>,
    first_request: u64,
) -> Result<Replay, String> {
    let t0 = std::time::Instant::now();
    let mut worlds = Vec::with_capacity(names.len());
    for name in names {
        let _g = span("runtime.build_world");
        worlds.push(match durable {
            None => World {
                base: system.object_base().map_err(|e| e.to_string())?,
                store: None,
            },
            Some(root) => {
                let dir = root.join("worlds").join(name);
                let (mut base, store, _) = open_world(&dir, spec, &store_options())
                    .map_err(|e| format!("{}: {e}", dir.display()))?;
                let fsync = base.metrics().histogram("store.fsync_latency_ns");
                let (inner, store) = DurableSink::new(store);
                base.set_step_sink(Box::new(TimingSink {
                    inner,
                    store: Arc::clone(&store),
                    fsync,
                }));
                World {
                    base,
                    store: Some(store),
                }
            }
        });
    }
    let mut id = first_request;
    let mut responses = Vec::with_capacity(names.len());
    for (world, lines) in worlds.iter_mut().zip(requests) {
        let mut out = Vec::with_capacity(lines.len());
        for line in lines {
            trace::set_request(id);
            id += 1;
            let _g = span("serve.dispatch");
            out.push(answer(&mut world.base, line));
        }
        trace::set_request(0);
        if let Some(store) = &world.store {
            // the acknowledgement sync a group committer issues for the
            // world's last window
            let _g = span("store.sync_for_ack");
            store
                .lock()
                .expect("store lock")
                .sync_for_ack()
                .map_err(|e| e.to_string())?;
        }
        responses.push(out);
    }
    let wall_ns = t0.elapsed().as_nanos() as u64;
    Ok(Replay {
        responses,
        wall_ns,
        worlds,
    })
}

impl Replay {
    /// Closes every durable store (final sync and snapshot).
    pub fn close(&self) -> Result<(), String> {
        for w in &self.worlds {
            if let Some(store) = &w.store {
                store
                    .lock()
                    .expect("store lock")
                    .close(&w.base)
                    .map_err(|e| e.to_string())?;
            }
        }
        Ok(())
    }

    /// A counter summed over every replayed world.
    pub fn counter(&self, name: &str) -> u64 {
        self.worlds
            .iter()
            .map(|w| w.base.metrics().counter(name).get())
            .sum()
    }

    /// Committed steps over every replayed world.
    pub fn steps(&self) -> u64 {
        self.worlds
            .iter()
            .map(|w| w.base.steps_executed() as u64)
            .sum()
    }
}
