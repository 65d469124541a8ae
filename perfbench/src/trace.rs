//! The span recorder of the traced run.
//!
//! Spans are recorded from the benchmark's own code, around its calls into
//! each layer's public functions; nothing inside the simulator is traced.
//! A disabled recorder runs every closure unchanged and records nothing, so
//! the untraced and traced runs execute the same calls.

use std::fmt::Write as _;
use std::io;
use std::path::Path;
use std::sync::Mutex;
use std::time::Instant;

/// Index of a recorded span; children name their parent by it.
pub type SpanId = usize;

struct Span {
    name: String,
    parent: Option<SpanId>,
    start_ns: u64,
    end_ns: u64,
}

/// An in-memory span recorder, shared by the worker threads of one run.
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    /// A recorder that records spans when `enabled`, and nothing otherwise.
    pub fn new(enabled: bool) -> Tracer {
        Tracer { enabled, origin: Instant::now(), spans: Mutex::new(Vec::new()) }
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).expect("run shorter than 584 years")
    }

    /// Runs `f` inside a span named `name` under `parent`. The closure gets
    /// the new span's id (None when disabled) to parent its own children.
    pub fn span<R>(
        &self,
        name: &str,
        parent: Option<SpanId>,
        f: impl FnOnce(Option<SpanId>) -> R,
    ) -> R {
        if !self.enabled {
            return f(None);
        }
        let id = {
            let mut spans = self.spans.lock().expect("span list lock");
            spans.push(Span { name: name.to_string(), parent, start_ns: self.now_ns(), end_ns: 0 });
            spans.len() - 1
        };
        let out = f(Some(id));
        let end = self.now_ns();
        self.spans.lock().expect("span list lock")[id].end_ns = end;
        out
    }

    /// Total seconds of every span named `name` whose parent is `parent`.
    pub fn total_seconds(&self, name: &str, parent: Option<SpanId>) -> f64 {
        let spans = self.spans.lock().expect("span list lock");
        let ns: u64 = spans
            .iter()
            .filter(|s| s.name == name && s.parent == parent)
            .map(|s| s.end_ns - s.start_ns)
            .sum();
        ns as f64 * 1e-9
    }

    /// Writes every span as one JSON object per line: id, name, parent,
    /// start and end in nanoseconds since the recorder was created.
    pub fn write_jsonl(&self, path: &Path) -> io::Result<()> {
        let spans = self.spans.lock().expect("span list lock");
        let mut text = String::new();
        for (id, s) in spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                text,
                "{{\"id\":{id},\"name\":\"{}\",\"parent\":{parent},\"start_ns\":{},\"end_ns\":{}}}",
                s.name, s.start_ns, s.end_ns
            );
        }
        std::fs::write(path, text)
    }
}
