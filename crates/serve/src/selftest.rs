//! Zero-dependency load driver (`troll serve --selftest`, CI).
//!
//! Spawns an in-process server on a loopback port, drives `conns`
//! client threads over `worlds` worlds with pipelined submissions, and
//! reports events/sec plus a latency histogram recorded through the
//! obs machinery ([`troll_obs::Histogram`]). Requests round-robin
//! across each connection's worlds so the server-side registry and
//! worker pool multiplex for real instead of draining one world at a
//! time.

use crate::proto::{Request, Response};
use crate::server::{ServeOptions, ServeSummary, Server};
use std::io::{BufRead, BufReader, BufWriter, Write};
use std::net::TcpStream;
use std::thread;
use std::time::{Duration, Instant};
use troll_obs::{Histogram, HistogramSummary};

/// Load shape. The script templates expand `{w}` to the world id and
/// `{i}` to the event index, so the driver works against any spec.
#[derive(Debug, Clone)]
pub struct LoadConfig {
    /// Worlds to open (ids `w0000`, `w0001`, …).
    pub worlds: usize,
    /// Client connections, each on its own thread.
    pub conns: usize,
    /// `submit-event` requests per world after the setup line.
    pub events_per_world: usize,
    /// Requests in flight per connection (pipelining window).
    pub pipeline: usize,
    /// First script line per world (the birth), `{w}` expanded.
    pub setup_line: String,
    /// Per-event script line, `{w}` and `{i}` expanded.
    pub event_line: String,
    /// Server options for the spawned instance.
    pub opts: ServeOptions,
}

impl Default for LoadConfig {
    fn default() -> LoadConfig {
        LoadConfig {
            worlds: 1000,
            conns: 8,
            events_per_world: 100,
            pipeline: 64,
            setup_line: r#"birth DEPT ("{w}") establishment (date(1991,10,16))"#.to_string(),
            event_line: r#"exec |DEPT|("{w}") hire (|PERSON|("p{i}"))"#.to_string(),
            opts: ServeOptions::default(),
        }
    }
}

/// What the driver measured.
#[derive(Debug, Clone)]
pub struct LoadReport {
    /// Worlds driven.
    pub worlds: usize,
    /// Client connections used.
    pub conns: usize,
    /// Requests sent (opens + submissions).
    pub total_requests: u64,
    /// `submit-event` requests sent (births + events).
    pub total_events: u64,
    /// Error responses received.
    pub errors: u64,
    /// Wall-clock of the driving phase (excludes shutdown).
    pub elapsed: Duration,
    /// `total_events / elapsed`.
    pub events_per_sec: f64,
    /// Client-observed per-request latency (batch send → response
    /// read, so it includes pipeline queueing).
    pub latency: HistogramSummary,
    /// The server's own exit totals.
    pub summary: ServeSummary,
}

impl LoadReport {
    /// Renders the report as the multi-line text the CLI prints.
    pub fn render(&self) -> String {
        let l = &self.latency;
        format!(
            "serve selftest: {} worlds x {} events over {} conns\n\
             requests={} events={} errors={} commits={}\n\
             elapsed={:.3}s events/sec={:.0}\n\
             client latency: p50={}ns p90={}ns p99={}ns max={}ns (n={})",
            self.worlds,
            self.total_events / self.worlds.max(1) as u64,
            self.conns,
            self.total_requests,
            self.total_events,
            self.errors,
            self.summary.commits,
            self.elapsed.as_secs_f64(),
            self.events_per_sec,
            l.p50_ns,
            l.p90_ns,
            l.p99_ns,
            l.max_ns,
            l.count,
        )
    }
}

/// Spawns a server for `spec_source`, drives the configured load, and
/// shuts the server down cleanly.
///
/// # Errors
///
/// Spawn/connect failures or a client thread that lost its connection.
pub fn run_load(spec_source: &str, cfg: &LoadConfig) -> Result<LoadReport, String> {
    let spawned =
        Server::spawn("127.0.0.1:0", spec_source, cfg.opts.clone()).map_err(|e| e.to_string())?;
    let addr = spawned.addr;
    let latency = Histogram::new();
    let worlds: Vec<String> = (0..cfg.worlds).map(|i| format!("w{i:04}")).collect();

    let start = Instant::now();
    let conns = cfg.conns.max(1);
    let mut errors = 0u64;
    let results: Vec<Result<u64, String>> = thread::scope(|scope| {
        let mut handles = Vec::with_capacity(conns);
        for c in 0..conns {
            let mine: Vec<&str> = worlds
                .iter()
                .skip(c)
                .step_by(conns)
                .map(String::as_str)
                .collect();
            let latency = latency.clone();
            let cfg = &*cfg;
            handles.push(scope.spawn(move || drive_conn(addr, &mine, cfg, &latency)));
        }
        handles
            .into_iter()
            .map(|h| {
                h.join()
                    .unwrap_or_else(|_| Err("client panicked".to_string()))
            })
            .collect()
    });
    let elapsed = start.elapsed();
    for r in results {
        errors += r?;
    }

    // clean shutdown over the wire, then collect the server's totals
    let stream = TcpStream::connect(addr).map_err(|e| e.to_string())?;
    let mut reader = BufReader::new(stream.try_clone().map_err(|e| e.to_string())?);
    let mut writer = BufWriter::new(stream);
    for req in [Request::Stats { world: None }, Request::Shutdown] {
        writeln!(writer, "{}", req.to_json()).map_err(|e| e.to_string())?;
    }
    writer.flush().map_err(|e| e.to_string())?;
    for _ in 0..2 {
        let mut line = String::new();
        reader.read_line(&mut line).map_err(|e| e.to_string())?;
    }
    let summary = spawned
        .join
        .join()
        .map_err(|_| "server thread panicked".to_string())?
        .map_err(|e| e.to_string())?;

    let total_events = (cfg.worlds * (1 + cfg.events_per_world)) as u64;
    let total_requests = total_events + cfg.worlds as u64;
    Ok(LoadReport {
        worlds: cfg.worlds,
        conns,
        total_requests,
        total_events,
        errors,
        elapsed,
        events_per_sec: total_events as f64 / elapsed.as_secs_f64().max(f64::EPSILON),
        latency: latency.summary(),
        summary,
    })
}

/// Drives one connection: open + birth every assigned world, then the
/// event lines round-robin across those worlds, pipelined in windows.
/// Returns the number of error responses seen.
fn drive_conn(
    addr: std::net::SocketAddr,
    mine: &[&str],
    cfg: &LoadConfig,
    latency: &Histogram,
) -> Result<u64, String> {
    if mine.is_empty() {
        return Ok(0);
    }
    let mut lines = Vec::with_capacity(mine.len() * (2 + cfg.events_per_world));
    for w in mine {
        lines.push(
            Request::Open {
                world: w.to_string(),
            }
            .to_json(),
        );
        lines.push(
            Request::SubmitEvent {
                world: w.to_string(),
                line: cfg.setup_line.replace("{w}", w),
            }
            .to_json(),
        );
    }
    for i in 0..cfg.events_per_world {
        let idx = i.to_string();
        for w in mine {
            lines.push(
                Request::SubmitEvent {
                    world: w.to_string(),
                    line: cfg.event_line.replace("{w}", w).replace("{i}", &idx),
                }
                .to_json(),
            );
        }
    }

    let stream = TcpStream::connect(addr).map_err(|e| e.to_string())?;
    let _ = stream.set_nodelay(true);
    let mut reader = BufReader::new(stream.try_clone().map_err(|e| e.to_string())?);
    let mut writer = BufWriter::new(stream);
    let mut errors = 0u64;
    let window = cfg.pipeline.max(1);
    let mut resp = String::new();
    for chunk in lines.chunks(window) {
        let t0 = Instant::now();
        for line in chunk {
            writer
                .write_all(line.as_bytes())
                .map_err(|e| e.to_string())?;
            writer.write_all(b"\n").map_err(|e| e.to_string())?;
        }
        writer.flush().map_err(|e| e.to_string())?;
        for _ in chunk {
            resp.clear();
            let n = reader.read_line(&mut resp).map_err(|e| e.to_string())?;
            if n == 0 {
                return Err("server closed the connection".to_string());
            }
            latency.record_ns(t0.elapsed().as_nanos() as u64);
            match Response::parse(resp.trim_end()) {
                Ok(Response::Ok(_)) => {}
                Ok(Response::Err(_)) | Err(_) => errors += 1,
            }
        }
    }
    Ok(errors)
}
