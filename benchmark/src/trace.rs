//! Spans recorded around the harness's calls into each layer, held in
//! memory and written when the run ends.
//!
//! One trace per batch.  The root span `batch` runs from the first
//! operation built to the last callback; its children partition it:
//!
//! * `client.issue`    building the operations and buffering them
//! * `client.flush`    the `issue()` call that trips the session's flush:
//!   encode + socket write
//! * `client.wait`     flush returned -> the reply's first callback runs
//!   (wire, server, wire, `poll()` decode)
//! * `client.complete` first callback -> last callback of the batch
//!
//! Replay micro-measurements use the same writer: one `replay` trace whose
//! children are `replay.<metric>`.  A span's self time is its duration
//! minus its children's.

use std::collections::HashMap;

use crate::json::Json;

pub const BATCH: &str = "batch";
pub const ISSUE: &str = "client.issue";
pub const FLUSH: &str = "client.flush";
pub const WAIT: &str = "client.wait";
pub const COMPLETE: &str = "client.complete";

#[derive(Debug, Clone)]
pub struct Span {
    pub trace: u64,
    pub name: &'static str,
    pub parent: Option<&'static str>,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// A batch whose reply has not fully arrived yet.
struct OpenBatch {
    ops: u32,
    done: u32,
    start_ns: u64,
    flushed_ns: u64,
    first_callback_ns: u64,
}

/// Most traces written to a file; the rest stay in the statistics only.
const MAX_TRACES_WRITTEN: usize = 2000;

#[derive(Default)]
pub struct Tracer {
    spans: Vec<Span>,
    open: HashMap<u64, OpenBatch>,
    next_trace: u64,
}

impl Tracer {
    pub fn new_trace(&mut self) -> u64 {
        self.next_trace += 1;
        self.next_trace
    }

    pub fn span(
        &mut self,
        trace: u64,
        name: &'static str,
        parent: Option<&'static str>,
        start_ns: u64,
        end_ns: u64,
    ) {
        self.spans.push(Span {
            trace,
            name,
            parent,
            start_ns,
            end_ns,
        });
    }

    /// The batch went out: `issue` covers `[start, flush_start)`, `flush`
    /// covers `[flush_start, flush_end)`.
    pub fn batch_sent(
        &mut self,
        trace: u64,
        ops: u32,
        start: u64,
        flush_start: u64,
        flush_end: u64,
    ) {
        self.span(trace, ISSUE, Some(BATCH), start, flush_start);
        self.span(trace, FLUSH, Some(BATCH), flush_start, flush_end);
        self.open.insert(
            trace,
            OpenBatch {
                ops,
                done: 0,
                start_ns: start,
                flushed_ns: flush_end,
                first_callback_ns: 0,
            },
        );
    }

    /// One callback of `trace` started at `start`; the batch's last one
    /// closes the trace when it ends.
    pub fn callback(&mut self, trace: u64, start: u64) {
        let Some(batch) = self.open.get_mut(&trace) else {
            return;
        };
        if batch.done == 0 {
            batch.first_callback_ns = start;
        }
        batch.done += 1;
        if batch.done == batch.ops {
            let batch = self.open.remove(&trace).expect("entry just seen");
            let end = crate::sys::now_ns();
            self.span(
                trace,
                WAIT,
                Some(BATCH),
                batch.flushed_ns,
                batch.first_callback_ns,
            );
            self.span(trace, COMPLETE, Some(BATCH), batch.first_callback_ns, end);
            self.span(trace, BATCH, None, batch.start_ns, end);
        }
    }

    /// Durations (ns) of every finished span called `name`, ascending.
    pub fn durations(&self, name: &str) -> Vec<u64> {
        let mut durations: Vec<u64> = self
            .spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.end_ns.saturating_sub(s.start_ns))
            .collect();
        durations.sort_unstable();
        durations
    }

    /// Writes an evenly spaced sample of at most [`MAX_TRACES_WRITTEN`]
    /// traces, every span naming its parent, plus per-name totals.
    pub fn write(&self, path: &std::path::Path, header: Json) -> Result<(), String> {
        let mut trace_ids: Vec<u64> = self
            .spans
            .iter()
            .filter(|s| s.parent.is_none())
            .map(|s| s.trace)
            .collect();
        trace_ids.sort_unstable();
        let stride = trace_ids.len().div_ceil(MAX_TRACES_WRITTEN).max(1);
        let keep: std::collections::HashSet<u64> =
            trace_ids.iter().copied().step_by(stride).collect();
        let spans: Vec<Json> = self
            .spans
            .iter()
            .filter(|s| keep.contains(&s.trace))
            .map(|s| {
                Json::obj([
                    ("trace", Json::Num(s.trace as f64)),
                    ("name", Json::str(s.name)),
                    ("parent", s.parent.map(Json::str).unwrap_or(Json::Null)),
                    ("start_ns", Json::Num(s.start_ns as f64)),
                    ("end_ns", Json::Num(s.end_ns as f64)),
                ])
            })
            .collect();
        let mut names: Vec<&'static str> = self.spans.iter().map(|s| s.name).collect();
        names.sort_unstable();
        names.dedup();
        let totals: Vec<(String, Json)> = names
            .iter()
            .map(|name| {
                let d = self.durations(name);
                (
                    name.to_string(),
                    Json::obj([
                        ("count", Json::Num(d.len() as f64)),
                        ("total_ns", Json::Num(d.iter().sum::<u64>() as f64)),
                        ("p50_ns", Json::Num(crate::stats::percentile(&d, 50.0))),
                    ]),
                )
            })
            .collect();
        let doc = Json::obj([
            ("header", header),
            ("traces_recorded", Json::Num(trace_ids.len() as f64)),
            ("traces_written", Json::Num(keep.len() as f64)),
            ("span_totals", Json::Obj(totals)),
            ("spans", Json::Arr(spans)),
        ]);
        std::fs::write(path, doc.render() + "\n")
            .map_err(|e| format!("write {}: {e}", path.display()))
    }
}
