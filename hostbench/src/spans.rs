//! In-memory spans around the benchmark's calls into each layer, written
//! out at the end as Chrome trace-event JSON.
//!
//! A span's layer is its name up to the first `.` (`sim.run` belongs to
//! `sim`). Spans nest strictly — the benchmark is single-threaded where
//! it records them — so a layer's self time is its spans' durations
//! minus the parts their child spans cover.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// One recorded interval.
#[derive(Debug, Clone)]
pub struct Span {
    /// `<layer>.<call>`.
    pub name: &'static str,
    /// Cache key of the cell the call worked on (empty for none).
    pub cell: String,
    /// Nanoseconds since the tracer started.
    pub start_ns: u64,
    /// Nanoseconds since the tracer started.
    pub end_ns: u64,
    /// Index of the enclosing span.
    pub parent: Option<usize>,
}

/// Records spans when enabled; when disabled, `span` only calls through.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    /// A tracer that records (`enabled`) or only calls through.
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Starts or stops recording.
    pub fn set_enabled(&mut self, enabled: bool) {
        self.enabled = enabled;
    }

    /// Runs `f` inside a span named `name` for `cell`.
    pub fn span<T>(&mut self, name: &'static str, cell: &str, f: impl FnOnce(&mut Self) -> T) -> T {
        if !self.enabled {
            return f(self);
        }
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            cell: cell.to_string(),
            start_ns: self.now_ns(),
            end_ns: 0,
            parent: self.open.last().copied(),
        });
        self.open.push(id);
        let out = f(self);
        self.open.pop();
        self.spans[id].end_ns = self.now_ns();
        out
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).expect("run shorter than 584 years")
    }

    /// The recorded spans, in start order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Total duration, in seconds, of the spans named `name`.
    pub fn total_s(&self, name: &str) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| (s.end_ns - s.start_ns) as f64 * 1e-9)
            .sum()
    }

    /// Self time per layer, in seconds.
    pub fn self_time_by_layer(&self) -> BTreeMap<&'static str, f64> {
        self_time_by_layer(&self.spans)
    }

    /// Writes the spans as Chrome trace-event JSON (one complete `X`
    /// event per span, times in microseconds).
    pub fn write_chrome_trace(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        w.write_all(chrome_trace(&self.spans).as_bytes())?;
        w.flush()
    }
}

fn layer(name: &'static str) -> &'static str {
    name.split('.').next().unwrap_or(name)
}

/// Each layer's span time minus the time its spans' children cover.
pub fn self_time_by_layer(spans: &[Span]) -> BTreeMap<&'static str, f64> {
    let mut self_ns: Vec<i128> = spans
        .iter()
        .map(|s| i128::from(s.end_ns - s.start_ns))
        .collect();
    for s in spans {
        if let Some(p) = s.parent {
            self_ns[p] -= i128::from(s.end_ns - s.start_ns);
        }
    }
    let mut by_layer = BTreeMap::new();
    for (s, ns) in spans.iter().zip(self_ns) {
        *by_layer.entry(layer(s.name)).or_insert(0.0) += ns as f64 * 1e-9;
    }
    by_layer
}

/// The Chrome trace-event document for `spans`.
pub fn chrome_trace(spans: &[Span]) -> String {
    let events: Vec<String> = spans
        .iter()
        .enumerate()
        .map(|(id, s)| {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            format!(
                "{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\
                 \"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"id\":{id},\"parent\":{parent},\
                 \"cell\":\"{}\"}}}}",
                s.name,
                layer(s.name),
                s.start_ns as f64 / 1e3,
                (s.end_ns - s.start_ns) as f64 / 1e3,
                s.cell
            )
        })
        .collect();
    format!(
        "{{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n{}\n]}}\n",
        events.join(",\n")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            cell: "c".into(),
            start_ns,
            end_ns,
            parent,
        }
    }

    #[test]
    fn self_time_subtracts_children() {
        let spans = vec![
            span("bench.cell", 0, 100, None),
            span("sim.run", 10, 70, Some(0)),
            span("pt.prebuild", 70, 90, Some(0)),
        ];
        let t = self_time_by_layer(&spans);
        assert!((t["bench"] - 20e-9).abs() < 1e-15);
        assert!((t["sim"] - 60e-9).abs() < 1e-15);
        assert!((t["pt"] - 20e-9).abs() < 1e-15);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        assert_eq!(t.span("sim.run", "", |_| 7), 7);
        assert!(t.spans().is_empty());
    }

    #[test]
    fn nested_spans_carry_parents_and_export_valid_json() {
        let mut t = Tracer::new(true);
        t.span("bench.cell", "k", |t| t.span("sim.run", "k", |_| ()));
        assert_eq!(t.spans()[1].parent, Some(0));
        assert!(t.spans()[0].end_ns >= t.spans()[1].end_ns);
        swgpu_obs::validate_json(&chrome_trace(t.spans())).expect("valid trace JSON");
    }
}
