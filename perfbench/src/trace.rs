//! In-memory spans recorded around calls into the crates' public
//! functions. Nothing inside the program is instrumented: a span's
//! duration is what the benchmark saw from outside the call.

use std::collections::BTreeMap;
use std::io::Write;
use std::time::Instant;

const NO_PARENT: u32 = u32::MAX;

#[derive(Clone, Debug)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: u32,
    pub op: u32,
}

pub struct Tracer {
    epoch: Instant,
    pub spans: Vec<Span>,
    stack: Vec<u32>,
    /// The operation id stamped on every span opened from now on.
    pub op: u32,
}

impl Tracer {
    pub fn new(epoch: Instant) -> Tracer {
        Tracer {
            epoch,
            spans: Vec::new(),
            stack: Vec::new(),
            op: 0,
        }
    }

    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span named `name`, a child of the innermost open
    /// span.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> T) -> T {
        let index = self.spans.len() as u32;
        let parent = self.stack.last().copied().unwrap_or(NO_PARENT);
        let start_ns = self.now();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            op: self.op,
        });
        self.stack.push(index);
        let out = f(self);
        self.stack.pop();
        let end = self.now();
        self.spans[index as usize].end_ns = end;
        out
    }

    /// Appends another tracer's spans (same epoch), re-basing parents.
    pub fn absorb(&mut self, other: Tracer) {
        let base = self.spans.len() as u32;
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            if s.parent != NO_PARENT {
                s.parent += base;
            }
            s
        }));
    }
}

/// Per span name: (inclusive ns, self ns, count). Self time is a span's
/// duration minus the time its child spans cover.
pub fn totals(spans: &[Span]) -> BTreeMap<&'static str, (u64, u64, u64)> {
    let mut child_ns = vec![0u64; spans.len()];
    for s in spans {
        if s.parent != NO_PARENT {
            child_ns[s.parent as usize] += s.end_ns - s.start_ns;
        }
    }
    let mut out: BTreeMap<&'static str, (u64, u64, u64)> = BTreeMap::new();
    for (s, child) in spans.iter().zip(&child_ns) {
        let dur = s.end_ns - s.start_ns;
        let e = out.entry(s.name).or_default();
        e.0 += dur;
        e.1 += dur.saturating_sub(*child);
        e.2 += 1;
    }
    out
}

/// Inclusive ns of spans named `name`, restricted to ops accepted by `keep`.
pub fn inclusive_where(spans: &[Span], name: &str, keep: impl Fn(u32) -> bool) -> u64 {
    spans
        .iter()
        .filter(|s| s.name == name && keep(s.op))
        .map(|s| s.end_ns - s.start_ns)
        .sum()
}

/// Sum of the durations of `child` spans whose parent is named `parent`.
pub fn under(spans: &[Span], parent: &str, child: &str) -> u64 {
    spans
        .iter()
        .filter(|s| {
            s.name == child && s.parent != NO_PARENT && spans[s.parent as usize].name == parent
        })
        .map(|s| s.end_ns - s.start_ns)
        .sum()
}

/// Writes the spans as JSON lines.
pub fn write_spans(path: &std::path::Path, spans: &[Span]) -> std::io::Result<()> {
    let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
    for (i, s) in spans.iter().enumerate() {
        let parent = if s.parent == NO_PARENT {
            "null".to_string()
        } else {
            s.parent.to_string()
        };
        writeln!(
            w,
            "{{\"id\":{i},\"op\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent}}}",
            s.op, s.name, s.start_ns, s.end_ns
        )?;
    }
    w.flush()
}
