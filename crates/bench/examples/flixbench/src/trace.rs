//! Spans recorded by the benchmark itself around its calls into each
//! layer's public functions. Spans stay in memory until the run ends;
//! a disabled tracer costs one branch per call.

use std::collections::BTreeMap;
use std::time::Instant;

/// One timed interval: which layer call, when, caused by which span, on
/// behalf of which request (the operation's index in the run).
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub request: u64,
    pub thread: u32,
}

impl Span {
    fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Handle returned by [`Tracer::begin`]; `None` inside when tracing is off.
pub struct SpanId(Option<usize>);

pub struct Tracer {
    pub enabled: bool,
    epoch: Instant,
    thread: u32,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    /// All tracers of one run share `epoch`, so their spans share a clock.
    pub fn new(epoch: Instant, thread: u32, enabled: bool) -> Tracer {
        Tracer {
            enabled,
            epoch,
            thread,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    pub fn epoch(&self) -> Instant {
        self.epoch
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    pub fn begin(&mut self, name: &'static str, request: u64) -> SpanId {
        if !self.enabled {
            return SpanId(None);
        }
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
            request,
            thread: self.thread,
        });
        self.open.push(self.spans.len() - 1);
        SpanId(Some(self.spans.len() - 1))
    }

    pub fn end(&mut self, id: SpanId) {
        if let Some(index) = id.0 {
            self.spans[index].end_ns = self.now_ns();
            let closed = self.open.pop();
            debug_assert_eq!(closed, Some(index), "spans close innermost first");
        }
    }

    /// Times a leaf call: a span around `f`.
    pub fn scope<T>(&mut self, name: &'static str, request: u64, f: impl FnOnce() -> T) -> T {
        let id = self.begin(name, request);
        let out = f();
        self.end(id);
        out
    }

    /// Takes over the spans another thread's tracer recorded.
    pub fn absorb(&mut self, other: Tracer) {
        let offset = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut span| {
            span.parent = span.parent.map(|p| p + offset);
            span
        }));
    }

    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Durations in seconds of every span called `name`.
    pub fn durations_s(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.dur_ns() as f64 / 1e9)
            .collect()
    }

    /// Self time in seconds by span name, over the spans at or below a
    /// span called `root`: a span's duration minus the part its child
    /// spans cover.
    pub fn self_times_s(&self, root: &str) -> BTreeMap<&'static str, f64> {
        let mut child_ns = vec![0u64; self.spans.len()];
        let mut under_root = vec![false; self.spans.len()];
        for (i, span) in self.spans.iter().enumerate() {
            // Parents are recorded before their children.
            under_root[i] = span.name == root || span.parent.is_some_and(|p| under_root[p]);
            if let Some(p) = span.parent {
                child_ns[p] += span.dur_ns();
            }
        }
        let mut by_name = BTreeMap::new();
        for (i, span) in self.spans.iter().enumerate() {
            if under_root[i] {
                let own = span.dur_ns().saturating_sub(child_ns[i]);
                *by_name.entry(span.name).or_insert(0.0) += own as f64 / 1e9;
            }
        }
        by_name
    }

    /// The spans as a Chrome trace-event document (`chrome://tracing`,
    /// Perfetto): complete events in microseconds, one `tid` per client
    /// thread, request id and parent span in `args`.
    pub fn to_chrome_json(&self, workload: &str) -> String {
        let mut out = String::from("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n");
        out.push_str(&format!(
            "{{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,\"args\":{{\"name\":\"flixbench {workload}\"}}}}"
        ));
        for (i, span) in self.spans.iter().enumerate() {
            let parent = match span.parent {
                Some(p) => format!("\"{}#{p}\"", self.spans[p].name),
                None => "null".to_string(),
            };
            out.push_str(&format!(
                ",\n{{\"name\":\"{}\",\"cat\":\"flixbench\",\"ph\":\"X\",\"pid\":1,\"tid\":{},\
                 \"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"span\":{i},\"parent\":{parent},\"request\":{}}}}}",
                span.name,
                span.thread,
                span.start_ns as f64 / 1e3,
                span.dur_ns() as f64 / 1e3,
                span.request,
            ));
        }
        out.push_str("\n]}\n");
        out
    }
}
