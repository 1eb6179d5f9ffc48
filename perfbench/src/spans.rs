//! The benchmark's own host-time spans, recorded around its calls into
//! the crates' public functions.
//!
//! Spans stay in memory and are written out once the run ends. A span's
//! self time is its duration minus the time its child spans cover, so
//! the self times of a span tree sum to the root's duration.

use std::fmt::Write as _;
use std::time::Instant;

/// One closed span: host nanoseconds since the recorder's origin.
#[derive(Debug, Clone)]
pub struct Span {
    /// What the span times, named after the layer call it wraps.
    pub name: &'static str,
    /// Start, ns since the recorder was created.
    pub start_ns: u64,
    /// End, ns since the recorder was created.
    pub end_ns: u64,
    /// Index of the enclosing span, `None` for a root.
    pub parent: Option<usize>,
}

impl Span {
    /// Duration in seconds.
    pub fn secs(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 * 1e-9
    }
}

/// A span recorder. A disabled recorder still runs the timed closures but
/// keeps nothing, so untimed and timed code paths are the same code.
#[derive(Debug)]
pub struct Spans {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Spans {
    /// A recorder whose origin is now.
    pub fn new(enabled: bool) -> Spans {
        Spans {
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).expect("run shorter than 584 years")
    }

    /// Runs `f` inside a span called `name`, nested under the span that
    /// is open when it starts.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Spans) -> R) -> R {
        if !self.enabled {
            return f(self);
        }
        let idx = self.spans.len();
        let parent = self.open.last().copied();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
        });
        self.open.push(idx);
        let out = f(self);
        self.open.pop();
        self.spans[idx].end_ns = self.now_ns();
        out
    }

    /// All closed spans, in start order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Durations in seconds of every span called `name`, in start order.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::secs)
            .collect()
    }

    /// The span tree as JSON: every span with its run id, name, start,
    /// end and parent index.
    pub fn to_json(&self, run_id: &str) -> String {
        let mut out = String::from("[\n");
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = write!(
                out,
                "  {{\"id\": {i}, \"run\": \"{run_id}\", \"name\": \"{}\", \"start_ns\": {}, \
                 \"end_ns\": {}, \"parent\": {parent}}}",
                s.name, s.start_ns, s.end_ns
            );
            out.push_str(if i + 1 < self.spans.len() {
                ",\n"
            } else {
                "\n"
            });
        }
        out.push(']');
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_inside_the_open_span() {
        let mut s = Spans::new(true);
        s.span("root", |s| {
            s.span("a", |s| {
                s.span("b", |_| {
                    std::thread::sleep(std::time::Duration::from_millis(2))
                })
            });
            s.span("c", |_| ());
        });
        let parents: Vec<_> = s.spans().iter().map(|x| x.parent).collect();
        assert_eq!(parents, [None, Some(0), Some(1), Some(0)]);
        assert!(s.spans()[1].secs() <= s.spans()[0].secs());
    }

    #[test]
    fn disabled_recorder_keeps_nothing_but_runs_the_work() {
        let mut s = Spans::new(false);
        assert_eq!(s.span("x", |_| 7), 7);
        assert!(s.spans().is_empty());
    }
}
