//! In-memory spans for the traced run: one per call into a layer, nested
//! under the phase (set-up, write window, read batch, recovery) that made
//! it. Written out as JSON lines when the run ends.

use crate::sys::ThreadClock;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// Marks a span with no parent, or no write window.
pub const NONE: u32 = u32::MAX;

/// One timed call.
#[derive(Clone, Copy, Debug)]
pub struct Span {
    /// What was called (`<layer>.<call>` for layer calls, a phase name for
    /// roots).
    pub name: &'static str,
    /// Index of the enclosing span, or [`NONE`].
    pub parent: u32,
    /// The write window the call belongs to, or [`NONE`].
    pub window: u32,
    /// Start and end, nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// See `start_ns`.
    pub end_ns: u64,
    /// On-CPU time of the thread within the span.
    pub busy_ns: u64,
    /// Time the thread waited on a run queue within the span.
    pub wait_ns: u64,
}

impl Span {
    /// Wall time.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Records spans, reading the thread's clocks at both edges of each.
pub struct Tracer {
    epoch: Instant,
    clock: ThreadClock,
    spans: Vec<Span>,
    open: Vec<(u32, (u64, u64))>,
}

impl Tracer {
    /// An empty trace whose clock starts now.
    ///
    /// # Errors
    ///
    /// Fails where the thread's clocks are unreadable.
    pub fn new() -> Result<Tracer, String> {
        Ok(Tracer {
            epoch: Instant::now(),
            clock: ThreadClock::open()?,
            spans: Vec::with_capacity(1 << 14),
            open: Vec::new(),
        })
    }

    /// Opens a span under the innermost open one and returns its id.
    pub fn begin(&mut self, name: &'static str, window: u32) -> u32 {
        let id = self.spans.len() as u32;
        let parent = self.open.last().map_or(NONE, |&(p, _)| p);
        let clocks = self.clock.read();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            parent,
            window,
            start_ns,
            end_ns: start_ns,
            busy_ns: 0,
            wait_ns: 0,
        });
        self.open.push((id, clocks));
        id
    }

    /// Closes span `id`, which must be the innermost open one.
    pub fn end(&mut self, id: u32) {
        let end_ns = self.now_ns();
        let (busy1, wait1) = self.clock.read();
        let (top, (busy0, wait0)) = self.open.pop().expect("a span is open");
        assert_eq!(top, id, "spans close innermost first");
        let span = &mut self.spans[id as usize];
        span.end_ns = end_ns;
        span.busy_ns = busy1.saturating_sub(busy0);
        span.wait_ns = wait1.saturating_sub(wait0);
    }

    /// Runs `f` as a leaf span.
    pub fn leaf<R>(&mut self, name: &'static str, window: u32, f: impl FnOnce() -> R) -> R {
        let id = self.begin(name, window);
        let result = f();
        self.end(id);
        result
    }

    /// The spans recorded so far, in start order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }
}

/// Each span's self time: its duration minus the part its children cover.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut own: Vec<u64> = spans.iter().map(Span::duration_ns).collect();
    for span in spans {
        if span.parent != NONE {
            let p = span.parent as usize;
            own[p] = own[p].saturating_sub(span.duration_ns());
        }
    }
    own
}

/// Problems with the span tree: a child outside its parent, siblings that
/// overlap, or a root whose subtree's self times do not add up to its
/// wall time.
pub fn check_spans(spans: &[Span]) -> Vec<String> {
    let mut problems = Vec::new();
    let mut last_child_end: Vec<u64> = spans.iter().map(|s| s.start_ns).collect();
    let mut roots_end = 0u64;
    for (id, span) in spans.iter().enumerate() {
        if span.end_ns < span.start_ns {
            problems.push(format!("span {id} ({}) ends before it starts", span.name));
        }
        let sibling_floor = if span.parent == NONE {
            roots_end
        } else {
            let p = &spans[span.parent as usize];
            if span.parent as usize >= id || span.start_ns < p.start_ns || span.end_ns > p.end_ns {
                problems.push(format!(
                    "span {id} ({}) is not inside its parent {} ({})",
                    span.name, span.parent, p.name
                ));
            }
            last_child_end[span.parent as usize]
        };
        if span.start_ns < sibling_floor {
            problems.push(format!(
                "span {id} ({}) overlaps its previous sibling",
                span.name
            ));
        }
        if span.parent == NONE {
            roots_end = span.end_ns;
        } else {
            last_child_end[span.parent as usize] = span.end_ns;
        }
    }
    // Self times of every span under a root, plus the root's own
    // (unattributed) remainder, must add up to the root's wall time.
    let own = self_times(spans);
    let mut subtree_self = vec![0u64; spans.len()];
    for id in (0..spans.len()).rev() {
        subtree_self[id] += own[id];
        if spans[id].parent != NONE {
            subtree_self[spans[id].parent as usize] += subtree_self[id];
        }
    }
    for (id, span) in spans.iter().enumerate() {
        if span.parent == NONE && subtree_self[id] != span.duration_ns() {
            problems.push(format!(
                "phase {id} ({}): self times add up to {} ns of {} ns",
                span.name,
                subtree_self[id],
                span.duration_ns()
            ));
        }
    }
    problems
}

/// Writes the spans to `path` as JSON lines.
pub fn write_spans(spans: &[Span], path: &Path) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for (id, s) in spans.iter().enumerate() {
        let opt = |x: u32| {
            if x == NONE {
                "null".to_string()
            } else {
                x.to_string()
            }
        };
        writeln!(
            out,
            "{{\"id\":{id},\"name\":\"{}\",\"parent\":{},\"window\":{},\"start_ns\":{},\"end_ns\":{},\"busy_ns\":{},\"wait_ns\":{}}}",
            s.name,
            opt(s.parent),
            opt(s.window),
            s.start_ns,
            s.end_ns,
            s.busy_ns,
            s.wait_ns
        )?;
    }
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, parent: u32, start_ns: u64, end_ns: u64) -> Span {
        Span {
            name,
            parent,
            window: NONE,
            start_ns,
            end_ns,
            busy_ns: 0,
            wait_ns: 0,
        }
    }

    #[test]
    fn nested_spans_pass_and_self_times_add_up() {
        let mut tracer = Tracer::new().unwrap();
        let root = tracer.begin("window", 0);
        tracer.leaf("a", 0, || std::hint::black_box(1 + 1));
        tracer.leaf("b", 0, || std::hint::black_box(2 + 2));
        tracer.end(root);
        assert!(check_spans(tracer.spans()).is_empty());
        let own = self_times(tracer.spans());
        let total: u64 = own.iter().sum();
        assert_eq!(total, tracer.spans()[0].duration_ns());
    }

    #[test]
    fn escaping_and_overlapping_spans_are_reported() {
        let escaping = [span("root", NONE, 0, 10), span("child", 0, 5, 12)];
        assert!(!check_spans(&escaping).is_empty());
        let overlapping = [
            span("root", NONE, 0, 10),
            span("a", 0, 1, 6),
            span("b", 0, 5, 9),
        ];
        assert!(!check_spans(&overlapping).is_empty());
    }
}
