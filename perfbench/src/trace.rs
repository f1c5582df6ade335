//! In-memory spans recorded by the benchmark around its calls into each
//! layer. Each span has a name, a start, an end and a parent; the spans
//! stay in memory until the run ends and are then written out in one go.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// No parent: a root span.
pub const NO_PARENT: u32 = u32::MAX;

/// One closed (or still open) span, times in nanoseconds since the
/// tracer's epoch.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// Index into the tracer's name table.
    pub name: u16,
    /// The enclosing span's index, or [`NO_PARENT`].
    pub parent: u32,
    /// Start, ns since the epoch.
    pub start: u64,
    /// End, ns since the epoch (equal to `start` while open).
    pub end: u64,
}

/// A span recorder. Disabled tracers record nothing and cost one branch
/// per call, so untraced and traced runs share their code.
pub struct Tracer {
    on: bool,
    epoch: Instant,
    names: Vec<&'static str>,
    spans: Vec<Span>,
    open: Vec<u32>,
}

/// Self and total time of one span name.
#[derive(Debug, Clone, Copy, Default)]
pub struct LayerTime {
    /// Spans recorded under the name.
    pub count: u64,
    /// Summed span durations, ns.
    pub total_ns: u64,
    /// Summed durations minus the part covered by child spans, ns.
    pub self_ns: u64,
}

impl Tracer {
    /// A tracer that records when `on`.
    pub fn new(on: bool) -> Self {
        Tracer {
            on,
            epoch: Instant::now(),
            names: Vec::new(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Whether spans are being recorded.
    pub fn enabled(&self) -> bool {
        self.on
    }

    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    fn name_id(&mut self, name: &'static str) -> u16 {
        match self.names.iter().position(|n| *n == name) {
            Some(i) => i as u16,
            None => {
                self.names.push(name);
                (self.names.len() - 1) as u16
            }
        }
    }

    /// Opens a span under the innermost open span.
    pub fn begin(&mut self, name: &'static str) {
        if !self.on {
            return;
        }
        let id = self.name_id(name);
        let parent = self.open.last().copied().unwrap_or(NO_PARENT);
        let now = self.now();
        self.spans.push(Span {
            name: id,
            parent,
            start: now,
            end: now,
        });
        self.open.push((self.spans.len() - 1) as u32);
    }

    /// Closes the innermost open span and returns its duration in ns (0
    /// when disabled).
    pub fn end(&mut self) -> u64 {
        if !self.on {
            return 0;
        }
        let idx = self.open.pop().expect("end() matches a begin()") as usize;
        let now = self.now();
        let span = &mut self.spans[idx];
        span.end = now;
        now - span.start
    }

    /// Every recorded span.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Per-name self and total times. The self times of a root and all
    /// its descendants sum exactly to the root's duration, since children
    /// nest inside their parents.
    pub fn layer_times(&self) -> BTreeMap<&'static str, LayerTime> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if s.parent != NO_PARENT {
                child_ns[s.parent as usize] += s.end - s.start;
            }
        }
        let mut out: BTreeMap<&'static str, LayerTime> = BTreeMap::new();
        for (i, s) in self.spans.iter().enumerate() {
            let dur = s.end - s.start;
            let e = out.entry(self.names[s.name as usize]).or_default();
            e.count += 1;
            e.total_ns += dur;
            e.self_ns += dur.saturating_sub(child_ns[i]);
        }
        out
    }

    /// The spans as compact JSON: `{"names": [...], "spans": [[name,
    /// parent, start_ns, end_ns], ...]}` with `parent = -1` for roots.
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(32 * self.spans.len() + 64);
        out.push_str("{\"names\": [");
        for (i, n) in self.names.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            write!(out, "\"{n}\"").unwrap();
        }
        out.push_str("], \"spans\": [");
        for (i, s) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let parent = if s.parent == NO_PARENT {
                -1
            } else {
                i64::from(s.parent)
            };
            write!(out, "[{},{parent},{},{}]", s.name, s.start, s.end).unwrap();
        }
        out.push_str("]}\n");
        out
    }
}
