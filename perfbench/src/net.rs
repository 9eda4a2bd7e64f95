//! The load generator: `troll serve` / `troll follow` child processes
//! and the two client connections that drive them.
//!
//! There are never more than two client threads and two connections
//! (the host has two cores, shared with the server). Each world is
//! bound to one connection, so a world's requests reach the server, and
//! its answers come back, in generated order.

use crate::gen::{Req, Rng, WorldGen};
use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::os::fd::AsRawFd;
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdout, Command, Stdio};
use std::time::{Duration, Instant};

/// Settings every served primary runs with. They are printed with each
/// result and never differ between the two sides of an A/B comparison.
pub const WORKERS: usize = 2;
/// Group commit with a 32-step window.
pub const FSYNC: &str = "group:32";
/// Snapshot cadence per durable world.
pub const SNAPSHOT_EVERY: u64 = 1024;
/// Client connections (one client thread each).
pub const CONNS: usize = 2;

/// How long a child process may take to exit after being asked to.
const EXIT_GRACE: Duration = Duration::from_secs(60);

/// A running `troll serve`.
pub struct Server {
    child: Child,
    stdout: BufReader<ChildStdout>,
    /// `ip:port` it listens on.
    pub addr: String,
}

impl Server {
    /// Starts `troll serve` on a free port with the fixed settings and
    /// waits until it listens. `durable` adds `--durable` with the fixed
    /// flush policy and snapshot cadence (the compaction daemon stays
    /// off, so no timer-triggered work enters a run).
    pub fn spawn(
        troll: &Path,
        spec: &Path,
        durable: Option<&Path>,
        log: &Path,
    ) -> Result<Server, String> {
        let mut cmd = Command::new(troll);
        cmd.arg("serve")
            .args(["--addr", "127.0.0.1:0", "--workers", &WORKERS.to_string()]);
        if let Some(root) = durable {
            cmd.arg("--durable").arg(root).args([
                "--fsync",
                FSYNC,
                "--snapshot-every",
                &SNAPSHOT_EVERY.to_string(),
            ]);
        }
        let log = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(log)
            .map_err(|e| format!("{}: {e}", log.display()))?;
        let mut child = cmd
            .arg(spec)
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(log)
            .spawn()
            .map_err(|e| format!("spawning {}: {e}", troll.display()))?;
        let mut stdout = BufReader::new(child.stdout.take().expect("piped stdout"));
        let mut first = String::new();
        let read = stdout.read_line(&mut first);
        let addr = first
            .trim()
            .strip_prefix("troll-serve listening on ")
            .map(str::to_string);
        match (read, addr) {
            (Ok(_), Some(addr)) => Ok(Server {
                child,
                stdout,
                addr,
            }),
            _ => {
                let _ = child.kill();
                let _ = child.wait();
                Err(format!("troll serve did not start: {first:?}"))
            }
        }
    }

    /// Peak resident set of the server process (`VmHWM`), in MiB.
    pub fn peak_rss_mib(&self) -> Result<f64, String> {
        let status = std::fs::read_to_string(format!("/proc/{}/status", self.child.id()))
            .map_err(|e| format!("reading server status: {e}"))?;
        status
            .lines()
            .find_map(|l| l.strip_prefix("VmHWM:"))
            .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
            .map(|kib| kib / 1024.0)
            .ok_or_else(|| "no VmHWM in server status".to_string())
    }

    /// CPU time (user + system, every thread) the server process has
    /// used so far, in seconds, from `/proc/<pid>/stat`.
    pub fn cpu_secs(&self) -> Result<f64, String> {
        let stat = std::fs::read_to_string(format!("/proc/{}/stat", self.child.id()))
            .map_err(|e| format!("reading server stat: {e}"))?;
        // the fields after the parenthesised command name start at the
        // third (state); utime and stime are the 14th and 15th
        let rest = stat.rsplit_once(')').map_or("", |(_, rest)| rest);
        let fields: Vec<&str> = rest.split_whitespace().collect();
        let tick = |i: usize| fields.get(i).and_then(|v| v.parse::<u64>().ok());
        let ticks = tick(11)
            .zip(tick(12))
            .map(|(u, s)| u + s)
            .ok_or_else(|| format!("unexpected server stat: {stat}"))?;
        // SAFETY: sysconf only reads a process-wide constant.
        let per_sec = unsafe { sysconf(SC_CLK_TCK) };
        if per_sec <= 0 {
            return Err("sysconf(_SC_CLK_TCK) failed".to_string());
        }
        Ok(ticks as f64 / per_sec as f64)
    }

    /// Sends `shutdown` and waits for a clean exit (the server closes
    /// every durable store on the way out).
    pub fn shutdown(mut self) -> Result<(), String> {
        let mut conn = Conn::connect(&self.addr).map_err(|e| format!("shutdown connect: {e}"))?;
        conn.send("{\"op\":\"shutdown\"}")
            .map_err(|e| e.to_string())?;
        let reply = conn.recv().map_err(|e| format!("shutdown reply: {e}"))?;
        if !is_ok(&reply) {
            return Err(format!("shutdown refused: {reply}"));
        }
        drop(conn);
        let mut rest = String::new();
        let _ = self.stdout.read_to_string(&mut rest);
        wait_exit(&mut self.child, "troll serve")
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        // only reached on an error path: never leave a server behind
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
            let _ = self.child.wait();
        }
    }
}

fn wait_exit(child: &mut Child, what: &str) -> Result<(), String> {
    let deadline = Instant::now() + EXIT_GRACE;
    loop {
        match child.try_wait() {
            Ok(Some(status)) if status.success() => return Ok(()),
            Ok(Some(status)) => return Err(format!("{what} exited with {status}")),
            Ok(None) if Instant::now() < deadline => std::thread::sleep(Duration::from_millis(5)),
            Ok(None) => {
                let _ = child.kill();
                let _ = child.wait();
                return Err(format!("{what} did not exit in time"));
            }
            Err(e) => return Err(format!("waiting for {what}: {e}")),
        }
    }
}

/// What `troll follow --once` reported.
#[derive(Debug, Clone, Copy)]
pub struct FollowRun {
    /// Records re-derived.
    pub records: u64,
    /// `repl-poll` round trips.
    pub polls: u64,
    /// Wall time from spawn to exit.
    pub secs: f64,
}

/// Runs `troll follow --once <addr> <dir>` to completion.
pub fn follow_once(troll: &Path, addr: &str, dir: &Path, log: &Path) -> Result<FollowRun, String> {
    let log = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(log)
        .map_err(|e| format!("{}: {e}", log.display()))?;
    let t0 = Instant::now();
    let out = Command::new(troll)
        .args(["follow", "--once", addr])
        .arg(dir)
        .stdin(Stdio::null())
        .stderr(log)
        .output()
        .map_err(|e| format!("spawning troll follow: {e}"))?;
    let secs = t0.elapsed().as_secs_f64();
    let text = String::from_utf8_lossy(&out.stdout);
    if !out.status.success() {
        return Err(format!("troll follow failed ({}): {text}", out.status));
    }
    let field = |name: &str| -> Option<u64> {
        text.split_whitespace()
            .find_map(|t| t.strip_prefix(name))
            .and_then(|v| v.parse().ok())
    };
    match (field("records="), field("polls=")) {
        (Some(records), Some(polls)) => Ok(FollowRun {
            records,
            polls,
            secs,
        }),
        _ => Err(format!("unexpected troll follow output: {text}")),
    }
}

/// Total size of the regular files under `dir`.
pub fn dir_bytes(dir: &Path) -> io::Result<u64> {
    let mut total = 0;
    let mut stack: Vec<PathBuf> = vec![dir.to_path_buf()];
    while let Some(d) = stack.pop() {
        for entry in std::fs::read_dir(&d)? {
            let entry = entry?;
            let meta = entry.metadata()?;
            if meta.is_dir() {
                stack.push(entry.path());
            } else {
                total += meta.len();
            }
        }
    }
    Ok(total)
}

/// Whether a response line is a success.
pub fn is_ok(line: &str) -> bool {
    line.starts_with("{\"ok\":true")
}

#[repr(C)]
struct PollFd {
    fd: i32,
    events: i16,
    revents: i16,
}

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

const POLLIN: i16 = 1;
/// `_SC_CLK_TCK` on Linux: the unit of `/proc/<pid>/stat` CPU times.
const SC_CLK_TCK: i32 = 2;

extern "C" {
    fn ppoll(fds: *mut PollFd, nfds: u64, timeout: *const Timespec, sigmask: *const u8) -> i32;
    fn sysconf(name: i32) -> i64;
}

/// Waits until `fd` is readable or `timeout` passes, with nanosecond
/// timer resolution (socket read timeouts round to scheduler ticks,
/// which would make the open-loop sender late by whole milliseconds).
fn wait_readable(fd: i32, timeout: Duration) -> io::Result<bool> {
    let mut pfd = PollFd {
        fd,
        events: POLLIN,
        revents: 0,
    };
    let ts = Timespec {
        tv_sec: timeout.as_secs() as i64,
        tv_nsec: i64::from(timeout.subsec_nanos()),
    };
    // SAFETY: `pfd` and `ts` are live, properly laid-out (repr(C))
    // locals for the duration of the call; nfds = 1 matches the single
    // descriptor passed, and a null sigmask means "leave it unchanged".
    let n = unsafe { ppoll(&mut pfd, 1, &ts, std::ptr::null()) };
    match n {
        n if n > 0 => Ok(true),
        0 => Ok(false),
        _ => {
            let e = io::Error::last_os_error();
            if e.kind() == io::ErrorKind::Interrupted {
                Ok(false)
            } else {
                Err(e)
            }
        }
    }
}

/// One newline-JSON client connection.
pub struct Conn {
    stream: TcpStream,
    inbuf: Vec<u8>,
    start: usize,
}

impl Conn {
    /// Connects with Nagle off (requests are single small lines).
    pub fn connect(addr: &str) -> io::Result<Conn> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        Ok(Conn {
            stream,
            inbuf: Vec::with_capacity(1 << 16),
            start: 0,
        })
    }

    /// Sends one request line.
    pub fn send(&mut self, line: &str) -> io::Result<()> {
        let mut buf = Vec::with_capacity(line.len() + 1);
        buf.extend_from_slice(line.as_bytes());
        buf.push(b'\n');
        self.stream.write_all(&buf)
    }

    fn take_line(&mut self) -> Option<String> {
        let off = self.inbuf[self.start..].iter().position(|&b| b == b'\n')?;
        let line = String::from_utf8_lossy(&self.inbuf[self.start..self.start + off]).into_owned();
        self.start += off + 1;
        if self.start == self.inbuf.len() {
            self.inbuf.clear();
            self.start = 0;
        }
        Some(line)
    }

    fn fill(&mut self) -> io::Result<()> {
        if self.start > 0 {
            self.inbuf.drain(..self.start);
            self.start = 0;
        }
        let mut buf = [0u8; 65536];
        let n = loop {
            match self.stream.read(&mut buf) {
                Ok(n) => break n,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(e),
            }
        };
        if n == 0 {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "server closed the connection",
            ));
        }
        self.inbuf.extend_from_slice(&buf[..n]);
        Ok(())
    }

    /// Blocks for the next response line.
    pub fn recv(&mut self) -> io::Result<String> {
        loop {
            if let Some(line) = self.take_line() {
                return Ok(line);
            }
            self.fill()?;
        }
    }

    /// The next response line if one arrives within `timeout`.
    fn recv_within(&mut self, timeout: Duration) -> io::Result<Option<String>> {
        if let Some(line) = self.take_line() {
            return Ok(Some(line));
        }
        if wait_readable(self.stream.as_raw_fd(), timeout)? {
            self.fill()?;
            return Ok(self.take_line());
        }
        Ok(None)
    }
}

/// Which part of a run a request belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    /// Untimed: brings fresh worlds to their starting state.
    Preload,
    /// Fixed-rate arrivals, latency timed from each request's due time.
    Open,
    /// Fixed pipeline window, as fast as answers come back.
    Closed,
    /// Untimed read-back of every world's final state.
    Final,
}

/// One request and its answer, with timing.
#[derive(Debug, Clone)]
pub struct Exchange {
    /// The request.
    pub req: Req,
    /// Phase it was sent in.
    pub phase: Phase,
    /// The response line.
    pub response: String,
    /// Response arrival minus the request's due time (open loop) or
    /// send time (otherwise), nanoseconds.
    pub latency_ns: u64,
    /// How late the sender sent it (open loop only), nanoseconds.
    pub late_ns: u64,
    /// Offset from the phase start of the request's due time (open
    /// loop) or of its answer's arrival (otherwise), nanoseconds.
    pub at_ns: u64,
}

/// Sends requests with at most `window` unanswered, pulling the next
/// request from `source` until it returns `None`.
fn windowed(
    conn: &mut Conn,
    window: usize,
    phase: Phase,
    t0: Instant,
    mut source: impl FnMut() -> Option<Req>,
) -> io::Result<Vec<Exchange>> {
    let mut out = Vec::new();
    let mut inflight: std::collections::VecDeque<(Req, Instant)> = Default::default();
    let mut exhausted = false;
    loop {
        while !exhausted && inflight.len() < window {
            match source() {
                Some(req) => {
                    conn.send(&req.line)?;
                    inflight.push_back((req, Instant::now()));
                }
                None => exhausted = true,
            }
        }
        let Some((req, sent)) = inflight.pop_front() else {
            return Ok(out);
        };
        let response = conn.recv()?;
        out.push(Exchange {
            req,
            phase,
            response,
            latency_ns: sent.elapsed().as_nanos() as u64,
            late_ns: 0,
            at_ns: t0.elapsed().as_nanos() as u64,
        });
    }
}

/// Sends each request at its due offset from `t0`, reading answers in
/// between; waits for every answer.
fn open_loop(conn: &mut Conn, schedule: Vec<(u64, Req)>, t0: Instant) -> io::Result<Vec<Exchange>> {
    let mut out = Vec::with_capacity(schedule.len());
    let mut inflight: std::collections::VecDeque<(Req, u64, u64)> = Default::default();
    let mut todo = schedule.into_iter().peekable();
    loop {
        let now = Instant::now();
        while let Some((due_ns, _)) = todo.peek() {
            let due = t0 + Duration::from_nanos(*due_ns);
            if due > now {
                break;
            }
            let (due_ns, req) = todo.next().expect("peeked");
            conn.send(&req.line)?;
            let late = Instant::now().saturating_duration_since(due).as_nanos() as u64;
            inflight.push_back((req, due_ns, late));
        }
        if inflight.is_empty() && todo.peek().is_none() {
            return Ok(out);
        }
        let wait = match todo.peek() {
            Some((due_ns, _)) => {
                (t0 + Duration::from_nanos(*due_ns)).saturating_duration_since(Instant::now())
            }
            None => Duration::from_secs(30),
        };
        if inflight.is_empty() {
            std::thread::sleep(wait);
            continue;
        }
        if let Some(response) = conn.recv_within(wait)? {
            let (req, due_ns, late_ns) = inflight.pop_front().expect("an answer implies a request");
            let due = t0 + Duration::from_nanos(due_ns);
            out.push(Exchange {
                req,
                phase: Phase::Open,
                response,
                latency_ns: Instant::now().saturating_duration_since(due).as_nanos() as u64,
                late_ns,
                at_ns: due_ns,
            });
        }
    }
}

/// Runs `f` once per connection on its own thread, handing it the
/// worlds bound to that connection (world i goes to connection
/// i mod [`CONNS`]).
fn per_conn<T: Send>(
    conns: &mut [Conn],
    gens: &mut [WorldGen],
    f: impl Fn(usize, &mut Conn, Vec<&mut WorldGen>) -> io::Result<T> + Sync,
) -> io::Result<Vec<T>> {
    let mut parts: Vec<Vec<&mut WorldGen>> = (0..conns.len()).map(|_| Vec::new()).collect();
    for (i, g) in gens.iter_mut().enumerate() {
        parts[i % conns.len()].push(g);
    }
    std::thread::scope(|s| {
        let handles: Vec<_> = conns
            .iter_mut()
            .zip(parts)
            .enumerate()
            .map(|(t, (conn, mine))| {
                let f = &f;
                s.spawn(move || f(t, conn, mine))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    })
}

/// Sends a fixed list of requests per world (preload, final queries)
/// pipelined at `window`, worlds interleaved round-robin.
pub fn batch(
    conns: &mut [Conn],
    gens: &mut [WorldGen],
    window: usize,
    phase: Phase,
    make: impl Fn(&mut WorldGen) -> Vec<Req> + Sync,
) -> io::Result<Vec<Exchange>> {
    let parts = per_conn(conns, gens, |_, conn, mine| {
        let mut lists: Vec<std::vec::IntoIter<Req>> =
            mine.into_iter().map(|g| make(g).into_iter()).collect();
        let mut next = 0usize;
        let source = move || {
            for _ in 0..lists.len() {
                let i = next % lists.len();
                next += 1;
                if let Some(req) = lists[i].next() {
                    return Some(req);
                }
            }
            None
        };
        windowed(conn, window, phase, Instant::now(), source)
    })?;
    Ok(parts.into_iter().flatten().collect())
}

/// The open-loop phase: `seq` at `rate_rps`, request k due at k/rate.
pub fn open_phase(conns: &mut [Conn], seq: Vec<Req>, rate_rps: f64) -> io::Result<Vec<Exchange>> {
    let mut schedules: Vec<Vec<(u64, Req)>> = (0..conns.len()).map(|_| Vec::new()).collect();
    let n = conns.len();
    for (k, req) in seq.into_iter().enumerate() {
        let due = (k as f64 * 1e9 / rate_rps) as u64;
        schedules[req.world % n].push((due, req));
    }
    let t0 = Instant::now() + Duration::from_millis(5);
    let parts = std::thread::scope(|s| {
        let handles: Vec<_> = conns
            .iter_mut()
            .zip(schedules)
            .map(|(conn, sched)| s.spawn(move || open_loop(conn, sched, t0)))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect::<io::Result<Vec<_>>>()
    })?;
    Ok(parts.into_iter().flatten().collect())
}

/// The closed-loop phase: each connection keeps `window` requests in
/// flight for `secs` seconds, drawing worlds from its own seeded stream.
/// Returns the exchanges and the phase's wall time.
pub fn closed_phase(
    conns: &mut [Conn],
    gens: &mut [WorldGen],
    window: usize,
    secs: f64,
    seed: u64,
) -> io::Result<(Vec<Exchange>, f64)> {
    let t0 = Instant::now();
    let deadline = t0 + Duration::from_secs_f64(secs);
    let parts = per_conn(conns, gens, |t, conn, mut mine| {
        let mut pick = Rng::new(seed, 1 << 32 | t as u64);
        let source = || {
            if Instant::now() >= deadline {
                return None;
            }
            let i = pick.below(mine.len() as u64) as usize;
            Some(mine[i].next_request())
        };
        windowed(conn, window, Phase::Closed, t0, source)
    })?;
    let wall = t0.elapsed().as_secs_f64();
    Ok((parts.into_iter().flatten().collect(), wall))
}

/// Opens every world (`open` requests), pipelined.
pub fn open_worlds(conns: &mut [Conn], names: &[String]) -> io::Result<Vec<String>> {
    let n = conns.len();
    for (i, name) in names.iter().enumerate() {
        conns[i % n].send(
            &troll::serve::Request::Open {
                world: name.clone(),
            }
            .to_json(),
        )?;
    }
    (0..names.len()).map(|i| conns[i % n].recv()).collect()
}

/// Asks every world for its `stats` line.
pub fn world_stats(conn: &mut Conn, names: &[String]) -> io::Result<Vec<String>> {
    for name in names {
        conn.send(
            &troll::serve::Request::Stats {
                world: Some(name.clone()),
            }
            .to_json(),
        )?;
    }
    names.iter().map(|_| conn.recv()).collect()
}

/// Reads `key=<n>` out of a `stats` answer.
pub fn stat_field(line: &str, key: &str) -> Option<u64> {
    let text = line.split("\"text\":\"").nth(1)?;
    text.split([' ', '"'])
        .find_map(|t| t.strip_prefix(key).and_then(|v| v.strip_prefix('=')))
        .and_then(|v| v.parse().ok())
}
