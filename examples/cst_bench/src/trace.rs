//! In-memory spans, recorded by the benchmark around its calls into each
//! layer (the program itself carries no tracing).
//!
//! A span is a name, a start and end in nanoseconds since the run
//! epoch, the index of its parent span (or [`ROOT`]), and the request
//! it belongs to. Self time is a span's duration minus the time its
//! children cover; children never overlap, since every caller is
//! single-threaded.

use std::collections::BTreeMap;
use std::time::Instant;

/// Parent index of a top-level span.
pub const ROOT: u32 = u32::MAX;

#[derive(Clone, Debug)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: u32,
    pub request: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// One thread's span log.
pub struct Recorder {
    epoch: Instant,
    pub spans: Vec<Span>,
}

impl Recorder {
    pub fn new(epoch: Instant) -> Recorder {
        Recorder {
            epoch,
            spans: Vec::new(),
        }
    }

    pub fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Open a span; returns its index for [`Recorder::close`] and for use
    /// as its children's parent.
    pub fn open(&mut self, name: &'static str, parent: u32, request: u64) -> u32 {
        let start_ns = self.now();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            request,
        });
        (self.spans.len() - 1) as u32
    }

    pub fn close(&mut self, idx: u32) {
        let end = self.now();
        self.spans[idx as usize].end_ns = end;
    }

    /// Run `f` inside a span.
    pub fn time<T>(
        &mut self,
        name: &'static str,
        parent: u32,
        request: u64,
        f: impl FnOnce() -> T,
    ) -> T {
        let idx = self.open(name, parent, request);
        let out = f();
        self.close(idx);
        out
    }
}

/// Self time of every span: its duration minus its children's.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut own: Vec<u64> = spans.iter().map(Span::dur_ns).collect();
    for s in spans {
        if s.parent != ROOT {
            let p = s.parent as usize;
            own[p] = own[p].saturating_sub(s.dur_ns());
        }
    }
    own
}

/// Self times grouped by span name, in microseconds, over several
/// threads' logs (parent indices are local to each log).
pub fn self_us_by_name(logs: &[&[Span]]) -> BTreeMap<&'static str, Vec<f64>> {
    let mut by: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    for spans in logs {
        for (s, own) in spans.iter().zip(self_times(spans)) {
            by.entry(s.name).or_default().push(own as f64 / 1e3);
        }
    }
    by
}

/// Write spans as a JSON array, one span per line. `source` names the
/// log a span came from; its `parent` indexes that log.
pub fn write_json(path: &std::path::Path, groups: &[(String, &[Span])]) -> std::io::Result<()> {
    use std::io::Write;
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(out, "[")?;
    let mut first = true;
    for (source, spans) in groups {
        for s in spans.iter() {
            let sep = if first { "" } else { "," };
            first = false;
            let parent = if s.parent == ROOT {
                -1
            } else {
                i64::from(s.parent)
            };
            writeln!(
                out,
                "{sep}{{\"source\":\"{source}\",\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"request\":{}}}",
                s.name, s.start_ns, s.end_ns, s.request
            )?;
        }
    }
    writeln!(out, "]")?;
    out.flush()
}
