//! One benchmark run: drive the served primary, check every answer,
//! and report either the end-to-end metrics (`--trace 0`) or the
//! per-layer metrics of the traced in-process replay (`--trace 1`).

use crate::gen::{open_loop_sequence, workload, world_name, Kind, Workload, WorldGen};
use crate::net::{
    batch, closed_phase, dir_bytes, follow_once, is_ok, open_phase, open_worlds, stat_field,
    world_stats, Conn, Exchange, FollowRun, Phase, Server, CONNS, FSYNC, SNAPSHOT_EVERY, WORKERS,
};
use crate::replay::{compile, replay, store_options};
use crate::stats::{json_num, median_f64, median_of_slices, quantile, ratio, slices, Table};
use crate::trace::{self, span, Span};
use std::fs;
use std::io::Write;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Server start-ups per group; `setup_s` is the median over every
/// group. The groups are spread over the run (before the preload, after
/// the open loop, after the durability phase, after the closed loop), so
/// that one run samples the shared host in several of its states.
const SETUP_REPS: usize = 11;
/// Follower catch-ups and primary restarts per run; `catchup_rps` and
/// `recover_s` are their medians.
const DURABILITY_REPS: usize = 3;
/// Equal time slices of the open and the closed loop. Latency
/// percentiles and throughput are computed exactly per slice, and the
/// median over slices is reported.
const SLICES: usize = 5;
/// Compilations in the traced run; `lang.compile_ms` is their median.
const COMPILE_REPS: usize = 5;
/// `trace.accounted_frac` must lie in this range (the profiler's
/// partition bar), or the traced run fails.
const ACCOUNTED: (f64, f64) = (0.90, 1.02);
/// Where runs write their scratch directories, spans and history.
const OUT_DIR: &str = "perfbench/out";

/// Parsed command line.
#[derive(Debug)]
pub struct Args {
    /// The `troll` binary to drive.
    pub troll: PathBuf,
    /// The workload.
    pub workload: &'static Workload,
    /// Generator seed.
    pub seed: u64,
    /// Measured seconds (split evenly between open and closed loop).
    pub seconds: u64,
    /// Report per-layer metrics from a traced replay.
    pub trace: bool,
}

impl Args {
    /// Parses `--troll P --workload W --seed N --seconds S --trace 0|1`.
    pub fn parse(args: &[String]) -> Option<Args> {
        let (mut troll, mut wl, mut seed, mut seconds, mut trace) = (None, None, None, None, None);
        let mut it = args.iter();
        while let Some(a) = it.next() {
            let v = it.next()?;
            match a.as_str() {
                "--troll" => troll = Some(PathBuf::from(v)),
                "--workload" => wl = Some(workload(v)?),
                "--seed" => seed = Some(v.parse().ok()?),
                "--seconds" => seconds = Some(v.parse().ok().filter(|&s: &u64| s >= 1)?),
                "--trace" => {
                    trace = Some(match v.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return None,
                    })
                }
                _ => return None,
            }
        }
        Some(Args {
            troll: troll?,
            workload: wl?,
            seed: seed?,
            seconds: seconds?,
            trace: trace?,
        })
    }
}

/// What a run prints last.
pub struct RunResult {
    /// The JSON result line.
    pub line: String,
    /// Whether every check passed.
    pub correct: bool,
}

/// Every request sent to a server, and how many were not answered `ok`.
#[derive(Debug, Default)]
struct Ledger {
    attempted: u64,
    failed: u64,
}

impl Ledger {
    fn add(&mut self, response: &str) {
        self.attempted += 1;
        if !is_ok(response) {
            self.failed += 1;
        }
    }
}

/// Everything a run learns that the reports draw on.
struct Ctx<'a> {
    args: &'a Args,
    w: &'static Workload,
    work: PathBuf,
    spec_path: PathBuf,
    log: PathBuf,
    names: Vec<String>,
    ledger: Ledger,
    problems: Vec<String>,
}

/// Runs one benchmark invocation; the scratch directory is removed
/// afterwards whatever happens.
///
/// # Errors
///
/// A failure that prevents measuring at all (no server, I/O errors).
pub fn run(args: &Args) -> Result<RunResult, String> {
    let out = PathBuf::from(OUT_DIR);
    let work = out.join(format!("work-{}", std::process::id()));
    let _ = fs::remove_dir_all(&work);
    fs::create_dir_all(&work).map_err(|e| format!("{}: {e}", work.display()))?;
    let log = out.join(format!("{}.log", args.workload.name));
    let _ = fs::remove_file(&log);
    let mut ctx = Ctx {
        args,
        w: args.workload,
        spec_path: work.join("spec.troll"),
        work: work.clone(),
        log,
        names: (0..args.workload.worlds)
            .map(|i| world_name(args.workload, i))
            .collect(),
        ledger: Ledger::default(),
        problems: Vec::new(),
    };
    let result = measure(&mut ctx);
    let _ = fs::remove_dir_all(&work);
    result
}

fn connect(addr: &str) -> Result<Vec<Conn>, String> {
    (0..CONNS)
        .map(|_| Conn::connect(addr).map_err(|e| format!("connecting to {addr}: {e}")))
        .collect()
}

fn io(e: std::io::Error) -> String {
    format!("client I/O: {e}")
}

/// Spawns `troll serve` (durable on `root`, if given), connects, and
/// opens every world; returns the server, the connections and the
/// seconds from spawn until every world answered.
fn start(ctx: &mut Ctx, root: Option<&Path>) -> Result<(Server, Vec<Conn>, f64), String> {
    let t0 = Instant::now();
    let server = Server::spawn(&ctx.args.troll, &ctx.spec_path, root, &ctx.log)?;
    let mut conns = connect(&server.addr)?;
    let answers = open_worlds(&mut conns, &ctx.names).map_err(io)?;
    let secs = t0.elapsed().as_secs_f64();
    answers.iter().for_each(|a| ctx.ledger.add(a));
    Ok((server, conns, secs))
}

/// One group of timed set-ups (spawn -> every world opened and
/// answering), each server shut down again.
fn setups(ctx: &mut Ctx, out: &mut Vec<f64>) -> Result<(), String> {
    for _ in 0..SETUP_REPS {
        let (server, conns, secs) = start(ctx, None)?;
        out.push(secs);
        drop(conns);
        server.shutdown()?;
    }
    Ok(())
}

/// Notes on stderr how long each part of a run took.
fn lap(t: &mut Instant, what: &str) {
    eprintln!(
        "troll-perfbench: {what} took {:.2} s",
        t.elapsed().as_secs_f64()
    );
    *t = Instant::now();
}

/// The served part of a run (both modes), then the report.
fn measure(ctx: &mut Ctx) -> Result<RunResult, String> {
    let (args, w) = (ctx.args, ctx.w);
    let mut t = Instant::now();
    fs::write(&ctx.spec_path, w.spec()).map_err(|e| e.to_string())?;

    let mut setup = Vec::with_capacity(4 * SETUP_REPS);
    setups(ctx, &mut setup)?;
    let (server, mut conns, _) = start(ctx, None)?;
    lap(&mut t, "set-up");

    let mut gens: Vec<WorldGen> = (0..w.worlds)
        .map(|i| WorldGen::new(w, args.seed, i))
        .collect();
    let preload = batch(&mut conns, &mut gens, w.window, Phase::Preload, |g| {
        g.preload()
    })
    .map_err(io)?;
    let open_secs = args.seconds as f64 / 2.0;
    let seq = open_loop_sequence(
        &mut gens,
        args.seed,
        (w.rate_rps * open_secs).round() as usize,
    );
    let open = open_phase(&mut conns, seq, w.rate_rps).map_err(io)?;
    // the work so far is fixed by the seed, so the memory it needs is too
    let rss_mib = server.peak_rss_mib()?;
    let mut log = WorldLog::new(w.worlds);
    for e in preload.into_iter().chain(open.iter().cloned()) {
        ctx.ledger.add(&e.response);
        log.push(e);
    }
    setups(ctx, &mut setup)?;
    lap(&mut t, "preload, open loop and set-ups");

    // the durability rows measure fixed work: a durable primary loaded
    // with a fixed generated prefix of the workload
    let root = ctx.work.join("durable");
    let (durable, mut durable_conns, _) = start(ctx, Some(&root))?;
    let mut fresh: Vec<WorldGen> = (0..w.worlds)
        .map(|i| WorldGen::new(w, args.seed, i))
        .collect();
    let pre = batch(
        &mut durable_conns,
        &mut fresh,
        w.window,
        Phase::Preload,
        |g| g.durable_prefix(),
    )
    .map_err(io)?;
    let mut durable_log = WorldLog::new(w.worlds);
    for e in pre {
        ctx.ledger.add(&e.response);
        durable_log.push(e);
    }
    lap(&mut t, "durable prefix");
    let dur = durability(ctx, durable, durable_conns, &root, &durable_log.acked)?;
    t = Instant::now();
    setups(ctx, &mut setup)?;

    let cpu_before = server.cpu_secs()?;
    let (closed, closed_wall) = closed_phase(
        &mut conns,
        &mut gens,
        w.window,
        args.seconds as f64 - open_secs,
        args.seed,
    )
    .map_err(io)?;
    let closed_cpu = server.cpu_secs()? - cpu_before;
    let fin = batch(&mut conns, &mut gens, w.window, Phase::Final, |g| {
        g.final_queries()
    })
    .map_err(io)?;
    let closed_ok_at = closed
        .iter()
        .filter(|e| is_ok(&e.response))
        .map(|e| e.at_ns)
        .collect();
    for e in closed.into_iter().chain(fin) {
        ctx.ledger.add(&e.response);
        log.push(e);
    }
    drop(conns);
    server.shutdown()?;
    setups(ctx, &mut setup)?;
    lap(&mut t, "set-ups, closed loop and set-ups");

    let served = Served {
        setup,
        open,
        closed_ok_at,
        closed_wall,
        closed_cpu,
        open_ns: (open_secs * 1e9) as u64,
        rss_mib,
        dur,
        log,
    };
    let table = if args.trace {
        traced(ctx, &served)?
    } else {
        let system = compile(w.spec())?;
        let oracle = replay(&system, w.spec(), &ctx.names, &served.log.requests, None, 1)?;
        check_answers(ctx, "oracle", &oracle.responses, &served.log.responses);
        end_to_end(ctx, &served)
    };
    lap(&mut t, "in-process replay");
    let mut extra = Table::default();
    if !args.trace {
        unbounded_rows(&mut extra, &served);
    }
    Ok(report(ctx, &table, &extra))
}

/// Requests and answers per world, in the order each world saw them.
struct WorldLog {
    requests: Vec<Vec<String>>,
    responses: Vec<Vec<String>>,
    phases: Vec<Vec<Phase>>,
    /// Steps acknowledged per world.
    acked: Vec<u64>,
}

impl WorldLog {
    fn new(worlds: usize) -> WorldLog {
        WorldLog {
            requests: vec![Vec::new(); worlds],
            responses: vec![Vec::new(); worlds],
            phases: vec![Vec::new(); worlds],
            acked: vec![0; worlds],
        }
    }

    fn push(&mut self, e: Exchange) {
        let w = e.req.world;
        if e.req.kind == Kind::Write && is_ok(&e.response) {
            self.acked[w] += 1;
        }
        self.requests[w].push(e.req.line);
        self.responses[w].push(e.response);
        self.phases[w].push(e.phase);
    }
}

/// What the served phases measured.
struct Served {
    setup: Vec<f64>,
    open: Vec<Exchange>,
    /// Arrival offsets of the closed loop's `ok` answers.
    closed_ok_at: Vec<u64>,
    closed_wall: f64,
    /// CPU time the server used during the closed loop, seconds.
    closed_cpu: f64,
    open_ns: u64,
    rss_mib: f64,
    dur: Durability,
    log: WorldLog,
}

/// What the durability phase measured.
struct Durability {
    follows: Vec<FollowRun>,
    events: u64,
    store_bytes: u64,
    recover: Vec<f64>,
    appends: u64,
    fsyncs: u64,
}

/// Checks that each world's step count (per-world `stats`) equals the
/// steps acknowledged to it.
fn check_steps(ctx: &mut Ctx, conn: &mut Conn, acked: &[u64]) -> Result<(), String> {
    let stats = world_stats(conn, &ctx.names).map_err(io)?;
    for ((name, s), &want) in ctx.names.iter().zip(&stats).zip(acked) {
        ctx.ledger.add(s);
        if stat_field(s, "steps") != Some(want) {
            ctx.problems
                .push(format!("world {name}: {s}; {want} steps were acknowledged"));
        }
    }
    Ok(())
}

/// Catch-up of an empty follower, restart of the primary on its root,
/// and the checks that go with them: the follower re-derived exactly
/// the acknowledged steps, every acknowledged step survives the
/// restart, and the follower's worlds dump equal to the primary's.
fn durability(
    ctx: &mut Ctx,
    server: Server,
    mut conns: Vec<Conn>,
    root: &Path,
    acked: &[u64],
) -> Result<Durability, String> {
    let stats = world_stats(&mut conns[0], &ctx.names).map_err(io)?;
    stats.iter().for_each(|s| ctx.ledger.add(s));
    let appends = stats.iter().filter_map(|s| stat_field(s, "appends")).sum();
    let fsyncs = stats.iter().filter_map(|s| stat_field(s, "fsyncs")).sum();

    let mut t = Instant::now();
    let events: u64 = acked.iter().sum();
    let mut follows = Vec::with_capacity(DURABILITY_REPS);
    for rep in 0..DURABILITY_REPS {
        let fdir = ctx.work.join(format!("follower-{rep}"));
        let f = follow_once(&ctx.args.troll, &server.addr, &fdir, &ctx.log)?;
        if f.records != events {
            ctx.problems.push(format!(
                "follower re-derived {} records; the primary acknowledged {events} steps",
                f.records
            ));
        }
        follows.push(f);
    }
    drop(conns);
    server.shutdown()?;
    lap(&mut t, "follower catch-ups");
    let store_bytes = dir_bytes(&root.join("worlds")).map_err(|e| e.to_string())?;

    let mut recover = Vec::with_capacity(DURABILITY_REPS);
    for _ in 0..DURABILITY_REPS {
        let (server, mut conns, secs) = start(ctx, Some(root))?;
        recover.push(secs);
        check_steps(ctx, &mut conns[0], acked)?;
        drop(conns);
        server.shutdown()?;
    }
    lap(&mut t, "restarts");

    // the primary's and the follower's worlds are recovered side by side
    let fdir = ctx.work.join("follower-0");
    let names = &ctx.names;
    let dumps = |dir: &Path| -> Result<Vec<String>, String> {
        names
            .iter()
            .map(|name| {
                let (base, _) = troll::store::recover(&dir.join("worlds").join(name))
                    .map_err(|e| format!("recovering {name}: {e}"))?;
                Ok(troll::store::world_dump(&base))
            })
            .collect()
    };
    let (primary, follower) = std::thread::scope(|s| {
        let primary = s.spawn(|| dumps(root));
        let follower = dumps(&fdir);
        (primary.join().expect("dump thread panicked"), follower)
    });
    for ((name, p), f) in ctx.names.iter().zip(primary?).zip(follower?) {
        if p != f {
            ctx.problems.push(format!(
                "world {name}: follower dump differs from the primary's"
            ));
        }
    }
    lap(&mut t, "dump comparison");
    Ok(Durability {
        follows,
        events,
        store_bytes,
        recover,
        appends,
        fsyncs,
    })
}

/// Compares replayed answers with served ones, request by request.
fn check_answers(ctx: &mut Ctx, what: &str, expected: &[Vec<String>], served: &[Vec<String>]) {
    for (i, (exp, got)) in expected.iter().zip(served).enumerate() {
        if exp.len() != got.len() {
            ctx.problems.push(format!(
                "world {}: {what} has {} answers, server gave {}",
                ctx.names[i],
                exp.len(),
                got.len()
            ));
            continue;
        }
        if let Some(k) = (0..exp.len()).find(|&k| exp[k] != got[k]) {
            ctx.problems.push(format!(
                "world {} request {k}: {what} answered {}, server answered {}",
                ctx.names[i], exp[k], got[k]
            ));
        }
    }
}

fn ms(ns: u64) -> f64 {
    ns as f64 / 1e6
}

impl Served {
    /// Open-loop requests of one kind.
    fn count(&self, kind: Kind) -> u64 {
        self.open.iter().filter(|e| e.req.kind == kind).count() as u64
    }
}

/// Open-loop latency quantile `q` of one request kind, in ms: exact per
/// time slice, median over [`SLICES`] slices.
fn open_latency_ms(s: &Served, kind: Kind, q: f64) -> f64 {
    let samples = s
        .open
        .iter()
        .filter(|e| e.req.kind == kind)
        .map(|e| (e.at_ns, e.latency_ns));
    median_of_slices(&mut slices(samples, s.open_ns, SLICES), q) / 1e6
}

/// Rows measured on the served primary whose run-to-run spread on the
/// shared 2-vCPU reference host is wider than any bound an end-to-end
/// metric may have (interquartile range over median, 10 runs: 0.2–0.7
/// for the medians and durability times, above 1 for the 99th
/// percentiles). They are printed with every run and kept in the
/// history, and listed with the per-layer metrics, which have no bound.
fn unbounded_rows(t: &mut Table, s: &Served) {
    for (kind, p50, p99) in [
        (Kind::Write, "write_p50_ms", "write_p99_ms"),
        (Kind::Read, "read_p50_ms", "read_p99_ms"),
    ] {
        t.put(p50, open_latency_ms(s, kind, 0.50), "ms", s.count(kind));
        t.put(p99, open_latency_ms(s, kind, 0.99), "ms", s.count(kind));
    }
    let d = &s.dur;
    let catchup: Vec<f64> = d
        .follows
        .iter()
        .map(|f| ratio(f.records as f64, f.secs))
        .collect();
    t.put(
        "catchup_rps",
        median_f64(&catchup),
        "records/s",
        d.events * catchup.len() as u64,
    );
    t.put(
        "recover_s",
        median_f64(&d.recover),
        "s",
        d.recover.len() as u64,
    );
}

/// The end-to-end metrics (untraced run).
fn end_to_end(ctx: &Ctx, s: &Served) -> Table {
    let w = ctx.w;
    let mut t = Table::default();
    t.put("setup_s", median_f64(&s.setup), "s", s.setup.len() as u64);
    let closed_ns = (s.closed_wall * 1e9) as u64;
    let tput = slices(s.closed_ok_at.iter().map(|&at| (at, 1)), closed_ns, SLICES);
    let per_slice: Vec<f64> = tput
        .iter()
        .map(|sl| sl.len() as f64 / (s.closed_wall / SLICES as f64))
        .collect();
    t.put(
        "tput_rps",
        median_f64(&per_slice),
        "req/s",
        s.closed_ok_at.len() as u64,
    );
    let limit_ns = (w.limit_ms * 1e6) as u64;
    let within = s
        .open
        .iter()
        .filter(|e| is_ok(&e.response) && e.latency_ns <= limit_ns)
        .count();
    t.put(
        "slo_frac",
        ratio(within as f64, s.open.len() as f64),
        "ratio",
        s.open.len() as u64,
    );
    let l = &ctx.ledger;
    t.put(
        "ok_frac",
        ratio((l.attempted - l.failed) as f64, l.attempted as f64),
        "ratio",
        l.attempted,
    );
    let d = &s.dur;
    t.put(
        "store_bytes_per_event",
        ratio(d.store_bytes as f64, d.events as f64),
        "B/event",
        d.events,
    );
    t.put("server_rss_mb", s.rss_mib, "MiB", 1);
    t
}

/// The traced run: the untraced in-process replay (the oracle), then
/// the traced replay, recovery and follower catch-up, all under spans,
/// then the untraced replay once more as the baseline for the tracing
/// overhead (after the traced worlds are dropped, so that both replays
/// start from memory the previous one freed).
fn traced(ctx: &mut Ctx, s: &Served) -> Result<Table, String> {
    let w = ctx.w;
    let system = compile(w.spec())?;
    let plain = replay(&system, w.spec(), &ctx.names, &s.log.requests, None, 1)?;
    check_answers(ctx, "oracle", &plain.responses, &s.log.responses);
    drop(plain);

    let root = ctx.work.join("replay-traced");
    let scans_before = troll::obs::global().counter("temporal.scan_evals").get();
    trace::set_enabled(true);
    let t0 = Instant::now();
    let mut system = None;
    for _ in 0..COMPILE_REPS {
        system = Some(compile(w.spec())?);
    }
    let system = system.expect("compiled");
    let main = replay(&system, w.spec(), &ctx.names, &s.log.requests, None, 1)?;
    let scan_evals = troll::obs::global().counter("temporal.scan_evals").get() - scans_before;
    let main_spans = trace::take();
    let requests: u64 = s.log.requests.iter().map(|r| r.len() as u64).sum();
    // the durability layers, on the same prefix as served
    let pre: Vec<Vec<String>> = (0..w.worlds)
        .map(|i| {
            WorldGen::new(w, ctx.args.seed, i)
                .durable_prefix()
                .into_iter()
                .map(|r| r.line)
                .collect()
        })
        .collect();
    let stores = replay(
        &system,
        w.spec(),
        &ctx.names,
        &pre,
        Some(&root),
        requests + 1,
    )?;
    {
        let _g = span("store.close");
        stores.close()?;
    }
    for name in &ctx.names {
        let _g = span("store.recover");
        troll::store::recover(&root.join("worlds").join(name))
            .map_err(|e| format!("recovering {name}: {e}"))?;
    }
    let follow = follow_in_process(ctx, &root)?;
    let wall_ns = t0.elapsed().as_nanos() as u64;
    trace::set_enabled(false);
    let tail_spans = trace::take();
    check_answers(ctx, "traced replay", &main.responses, &s.log.responses);
    let accounted = ratio(
        (trace::root_ns(&main_spans) + trace::root_ns(&tail_spans)) as f64,
        wall_ns as f64,
    );
    if !(ACCOUNTED.0..=ACCOUNTED.1).contains(&accounted) {
        ctx.problems.push(format!(
            "traced run accounts for {:.1} % of its wall time, outside [{:.0} %, {:.0} %]",
            accounted * 100.0,
            ACCOUNTED.0 * 100.0,
            ACCOUNTED.1 * 100.0
        ));
    }
    write_spans(ctx, &[&main_spans, &tail_spans])?;

    let main_self = trace::self_times(&main_spans);
    let tail_self = trace::self_times(&tail_spans);
    let get = |name: &str| -> Vec<u64> {
        let mut v = main_self.get(name).cloned().unwrap_or_default();
        v.extend(tail_self.get(name).cloned().unwrap_or_default());
        v
    };
    let med_us = |name: &str| -> (f64, u64) {
        let mut v = get(name);
        (quantile(&mut v, 0.5) as f64 / 1e3, v.len() as u64)
    };
    let mut t = Table::default();
    let (v, n) = med_us("lang.compile");
    t.put("lang.compile_ms", v / 1e3, "ms", n);
    let mut build = main_self
        .get("runtime.build_world")
        .cloned()
        .unwrap_or_default();
    t.put(
        "runtime.build_world_us",
        quantile(&mut build, 0.5) as f64 / 1e3,
        "us",
        build.len() as u64,
    );
    let mut steps = main_self.get("runtime.step").cloned().unwrap_or_default();
    t.put(
        "runtime.step_us",
        quantile(&mut steps, 0.5) as f64 / 1e3,
        "us",
        steps.len() as u64,
    );
    t.put(
        "runtime.step_p99_us",
        quantile(&mut steps, 0.99) as f64 / 1e3,
        "us",
        steps.len() as u64,
    );
    let committed = main.steps() as f64;
    let c = |name: &str| main.counter(name) as f64;
    t.put(
        "runtime.scan_checks_per_step",
        ratio(c("permissions.path.scan"), committed),
        "count/step",
        committed as u64,
    );
    let checks = c("monitor_cache.hits") + c("monitor_cache.misses") + c("monitor_cache.fallbacks");
    t.put(
        "runtime.monitor_hit_ratio",
        ratio(c("monitor_cache.hits"), checks),
        "ratio",
        checks as u64,
    );
    let delta = c("valuation.delta_applied") + c("valuation.recomputed");
    t.put(
        "runtime.delta_ratio",
        ratio(c("valuation.delta_applied"), delta),
        "ratio",
        delta as u64,
    );
    t.put(
        "temporal.scan_evals_per_step",
        ratio(scan_evals as f64, committed),
        "count/step",
        committed as u64,
    );
    let mut views = main_self.get("runtime.view").cloned().unwrap_or_default();
    t.put(
        "runtime.view_us",
        quantile(&mut views, 0.5) as f64 / 1e3,
        "us",
        views.len() as u64,
    );
    let mut shows = main_self.get("runtime.show").cloned().unwrap_or_default();
    t.put(
        "runtime.show_us",
        quantile(&mut shows, 0.5) as f64 / 1e3,
        "us",
        shows.len() as u64,
    );
    let codec: u64 = main_self.get("serve.codec").map_or(0, |v| v.iter().sum());
    t.put(
        "serve.codec_us",
        ratio(codec as f64 / 1e3, requests as f64),
        "us",
        requests,
    );

    // in-process time of the closed-loop requests, against the server's
    // CPU time per request for the same stream
    let phase_of: Vec<Phase> = s.log.phases.iter().flatten().copied().collect();
    let closed_ns: Vec<u64> = main_spans
        .iter()
        .filter(|sp| {
            sp.name == "serve.dispatch"
                && sp.request >= 1
                && phase_of.get(sp.request as usize - 1) == Some(&Phase::Closed)
        })
        .map(|sp| sp.end_ns - sp.start_ns)
        .collect();
    let inproc_us = ratio(
        closed_ns.iter().sum::<u64>() as f64 / 1e3,
        closed_ns.len() as f64,
    );
    let closed_ok = s.closed_ok_at.len() as u64;
    let served_us = ratio(s.closed_cpu * 1e6, closed_ok as f64);
    t.put(
        "serve.unaccounted_us_per_req",
        served_us - inproc_us,
        "us",
        closed_ok,
    );

    let (v, n) = med_us("store.append");
    t.put("store.append_us", v, "us", n);
    let fsync = get("store.fsync");
    t.put(
        "store.fsync_us",
        ratio(fsync.iter().sum::<u64>() as f64 / 1e3, fsync.len() as f64),
        "us",
        fsync.len() as u64,
    );
    let d = &s.dur;
    t.put(
        "store.steps_per_fsync",
        ratio(d.appends as f64, d.fsyncs as f64),
        "steps",
        d.fsyncs,
    );
    let (v, n) = med_us("store.snapshot");
    t.put("store.snapshot_ms", v / 1e3, "ms", n);
    let appends = stores.counter("store.appends");
    t.put(
        "store.bytes_per_step",
        ratio(stores.counter("store.bytes") as f64, appends as f64),
        "B/step",
        appends,
    );
    let (v, n) = med_us("store.recover");
    t.put("store.recover_ms_per_world", v / 1e3, "ms", n);
    t.put("repl.apply_us_per_record", follow.0, "us", follow.1);
    let (records, polls) = d
        .follows
        .iter()
        .fold((0, 0), |(r, p), f| (r + f.records, p + f.polls));
    t.put(
        "repl.records_per_poll",
        ratio(records as f64, polls as f64),
        "records/poll",
        polls,
    );
    unbounded_rows(&mut t, s);
    let mut late: Vec<u64> = s.open.iter().map(|e| e.late_ns).collect();
    t.put(
        "loadgen.late_p99_ms",
        ms(quantile(&mut late, 0.99)),
        "ms",
        late.len() as u64,
    );
    t.put(
        "trace.accounted_frac",
        accounted,
        "ratio",
        (main_spans.len() + tail_spans.len()) as u64,
    );
    let traced_ns = main.wall_ns;
    drop(main);
    drop(stores);
    let baseline = replay(&system, w.spec(), &ctx.names, &s.log.requests, None, 1)?;
    t.put(
        "trace.overhead_frac",
        ratio(traced_ns as f64, baseline.wall_ns as f64) - 1.0,
        "ratio",
        requests,
    );
    Ok(t)
}

/// Starts an in-process durable server on `root`, opens its worlds, and
/// catches an empty follower up from it. Returns (µs per record applied,
/// records applied).
fn follow_in_process(ctx: &Ctx, root: &Path) -> Result<(f64, u64), String> {
    let primary = {
        let _g = span("repl.primary_open");
        let opts = troll::serve::ServeOptions {
            workers: WORKERS,
            durable: Some(root.to_path_buf()),
            store: store_options(),
            ..Default::default()
        };
        let spawned = troll::serve::Server::spawn("127.0.0.1:0", ctx.w.spec(), opts)
            .map_err(|e| e.to_string())?;
        let addr = spawned.addr.to_string();
        let mut conns = connect(&addr)?;
        for a in open_worlds(&mut conns, &ctx.names).map_err(io)? {
            if !is_ok(&a) {
                return Err(format!("in-process primary refused open: {a}"));
            }
        }
        (spawned, addr)
    };
    let fdir = ctx.work.join("follower-in-process");
    let (summary, ns) = {
        let g = span("repl.follow");
        let t0 = Instant::now();
        let opts = troll::repl::FollowOptions {
            once: true,
            ..Default::default()
        };
        let summary =
            troll::repl::run_follow(&primary.1, &fdir, &opts).map_err(|e| e.to_string())?;
        let ns = t0.elapsed().as_nanos() as u64;
        drop(g);
        (summary, ns)
    };
    let _g = span("repl.primary_shutdown");
    let mut conn = Conn::connect(&primary.1).map_err(io)?;
    conn.send("{\"op\":\"shutdown\"}").map_err(io)?;
    conn.recv().map_err(io)?;
    primary
        .0
        .join
        .join()
        .map_err(|_| "in-process primary panicked".to_string())?
        .map_err(|e| e.to_string())?;
    Ok((
        ratio(ns as f64 / 1e3, summary.records_applied as f64),
        summary.records_applied,
    ))
}

fn write_spans(ctx: &Ctx, batches: &[&[Span]]) -> Result<(), String> {
    let path = PathBuf::from(OUT_DIR).join(format!("spans-{}-{}.jsonl", ctx.w.name, ctx.args.seed));
    let mut f = std::io::BufWriter::new(
        fs::File::create(&path).map_err(|e| format!("{}: {e}", path.display()))?,
    );
    for b in batches {
        trace::write_jsonl(b, &mut f).map_err(|e| e.to_string())?;
    }
    f.flush().map_err(|e| e.to_string())
}

fn git_rev() -> String {
    std::process::Command::new("git")
        .args(["rev-parse", "--short", "HEAD"])
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

/// Prints the human-readable table, appends the history row, and builds
/// the result line. `extra` metrics are printed and kept in the history
/// but are not part of the result line.
fn report(ctx: &Ctx, table: &Table, extra: &Table) -> RunResult {
    let (args, w) = (ctx.args, ctx.w);
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let settings = format!(
        "workload={} seed={} seconds={} trace={} nproc={nproc} workers={WORKERS} conns={CONNS} fsync={FSYNC} snapshot_every={SNAPSHOT_EVERY} compaction=off rate_rps={} limit_ms={} window={}",
        w.name,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        json_num(w.rate_rps),
        json_num(w.limit_ms),
        w.window
    );
    println!("{settings}");
    for m in table.0.iter().chain(&extra.0) {
        println!(
            "  {:<32} {:>14.4} {:<12} n={}",
            m.name, m.value, m.unit, m.samples
        );
    }
    for p in &ctx.problems {
        println!("  CHECK FAILED: {p}");
    }
    let correct = ctx.problems.is_empty();
    let history = format!(
        "{{\"workload\":\"{}\",\"seed\":{},\"seconds\":{},\"trace\":{},\"nproc\":{nproc},\"git_rev\":{},\"workers\":{WORKERS},\"conns\":{CONNS},\"fsync\":\"{FSYNC}\",\"snapshot_every\":{SNAPSHOT_EVERY},\"compaction\":\"off\",\"rate_rps\":{},\"limit_ms\":{},\"window\":{},\"correct\":{correct},\"attempted\":{},\"failed\":{},\"metrics\":{}}}",
        w.name,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        troll::obs::json_str(&git_rev()),
        json_num(w.rate_rps),
        json_num(w.limit_ms),
        w.window,
        ctx.ledger.attempted,
        ctx.ledger.failed,
        Table(table.0.iter().chain(&extra.0).cloned().collect()).to_json(true)
    );
    let path = PathBuf::from(OUT_DIR).join("history.jsonl");
    if let Err(e) = fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(&path)
        .and_then(|mut f| writeln!(f, "{history}"))
    {
        eprintln!("troll-perfbench: {}: {e}", path.display());
    }
    RunResult {
        line: format!(
            "{{\"correct\":{correct},\"attempted\":{},\"failed\":{},\"metrics\":{}}}",
            ctx.ledger.attempted,
            ctx.ledger.failed,
            table.to_json(false)
        ),
        correct,
    }
}
