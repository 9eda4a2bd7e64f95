//! Spans recorded by the benchmark around its calls into each layer.
//!
//! The traced replay is single-threaded, so the recorder is a
//! thread-local: a span opens when [`span`] returns its guard and
//! closes when the guard drops; the innermost open span is its parent.
//! Spans stay in memory until [`take`], and the caller writes them out
//! when the run ends. With tracing off, [`span`] costs one branch.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::time::Instant;

/// One closed span. Times are nanoseconds since the recorder started.
#[derive(Debug, Clone)]
pub struct Span {
    /// Id of this span, unique within a run.
    pub id: usize,
    /// Id of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Request id shared by every span of one request (0 outside one).
    pub request: u64,
    /// Layer-qualified name, e.g. `runtime.step`.
    pub name: &'static str,
    /// Start offset.
    pub start_ns: u64,
    /// End offset.
    pub end_ns: u64,
}

struct Recorder {
    on: bool,
    epoch: Instant,
    request: u64,
    /// Id of `spans[0]`: ids keep counting across [`take`]s.
    first_id: usize,
    spans: Vec<Span>,
    open: Vec<usize>,
}

thread_local! {
    static REC: RefCell<Recorder> = RefCell::new(Recorder {
        on: false,
        epoch: Instant::now(),
        request: 0,
        first_id: 0,
        spans: Vec::new(),
        open: Vec::new(),
    });
}

/// Turns recording on or off for this thread.
pub fn set_enabled(on: bool) {
    REC.with(|r| r.borrow_mut().on = on);
}

/// Sets the request id that spans opened from now on carry.
pub fn set_request(id: u64) {
    REC.with(|r| r.borrow_mut().request = id);
}

/// An open span; closes on drop.
pub struct Guard(Option<usize>);

/// Opens a span named `name` under the innermost open span.
pub fn span(name: &'static str) -> Guard {
    REC.with(|r| {
        let mut r = r.borrow_mut();
        if !r.on {
            return Guard(None);
        }
        let id = r.first_id + r.spans.len();
        let start_ns = r.epoch.elapsed().as_nanos() as u64;
        let parent = r.open.last().copied();
        let request = r.request;
        r.spans.push(Span {
            id,
            parent,
            request,
            name,
            start_ns,
            end_ns: start_ns,
        });
        r.open.push(id);
        Guard(Some(id))
    })
}

impl Guard {
    /// Renames the span (for a call whose kind is only known after it
    /// returned, e.g. an append that also wrote a snapshot).
    pub fn rename(&self, name: &'static str) {
        if let Some(id) = self.0 {
            REC.with(|r| {
                let mut r = r.borrow_mut();
                let i = id - r.first_id;
                r.spans[i].name = name;
            });
        }
    }

    /// Records a child span of `dur_ns` ending now — for time the
    /// program measured itself inside the call this span wraps.
    pub fn child_ending_now(&self, name: &'static str, dur_ns: u64) {
        if let Some(parent) = self.0 {
            REC.with(|r| {
                let mut r = r.borrow_mut();
                let end_ns = r.epoch.elapsed().as_nanos() as u64;
                let start_ns = end_ns
                    .saturating_sub(dur_ns)
                    .max(r.spans[parent - r.first_id].start_ns);
                let id = r.first_id + r.spans.len();
                let request = r.request;
                r.spans.push(Span {
                    id,
                    parent: Some(parent),
                    request,
                    name,
                    start_ns,
                    end_ns,
                });
            });
        }
    }
}

impl Drop for Guard {
    fn drop(&mut self) {
        if let Some(id) = self.0 {
            REC.with(|r| {
                let mut r = r.borrow_mut();
                let i = id - r.first_id;
                r.spans[i].end_ns = r.epoch.elapsed().as_nanos() as u64;
                r.open.pop();
            });
        }
    }
}

/// Hands over every recorded span (all of them closed) and clears the
/// recorder; later spans continue the id sequence.
pub fn take() -> Vec<Span> {
    REC.with(|r| {
        let mut r = r.borrow_mut();
        assert!(r.open.is_empty(), "take() with spans still open");
        let spans = std::mem::take(&mut r.spans);
        r.first_id += spans.len();
        spans
    })
}

/// Per-name self times: a span's duration minus the time its child
/// spans cover. Returns name → every self time, in recording order.
/// `spans` is one [`take`], so every parent is in it.
pub fn self_times(spans: &[Span]) -> BTreeMap<&'static str, Vec<u64>> {
    let first = spans.first().map_or(0, |s| s.id);
    let mut child_ns = vec![0u64; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            child_ns[p - first] += s.end_ns - s.start_ns;
        }
    }
    let mut out: BTreeMap<&'static str, Vec<u64>> = BTreeMap::new();
    for s in spans {
        let own = (s.end_ns - s.start_ns).saturating_sub(child_ns[s.id - first]);
        out.entry(s.name).or_default().push(own);
    }
    out
}

/// Summed duration of the top-level spans (equal to the sum of every
/// span's self time, since children nest inside their parents).
pub fn root_ns(spans: &[Span]) -> u64 {
    spans
        .iter()
        .filter(|s| s.parent.is_none())
        .map(|s| s.end_ns - s.start_ns)
        .sum()
}

/// Writes spans as JSON lines.
pub fn write_jsonl(spans: &[Span], out: &mut impl std::io::Write) -> std::io::Result<()> {
    for s in spans {
        let parent = s
            .parent
            .map_or_else(|| "null".to_string(), |p| p.to_string());
        writeln!(
            out,
            "{{\"id\":{},\"parent\":{},\"request\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
            s.id, parent, s.request, s.name, s.start_ns, s.end_ns
        )?;
    }
    Ok(())
}
