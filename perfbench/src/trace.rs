//! Host spans recorded in memory around calls into the program's layers.
//!
//! A span has a name, a start and end on the process's monotonic clock, the
//! span that was open when it started (its parent) and the request id of
//! the batch it served. With tracing off every call is a no-op that still
//! runs the wrapped work, so the traced and untraced runs execute the same
//! code around the program.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One recorded interval.
#[derive(Clone, Debug)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub req: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Time spent in spans of one name.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct LayerTime {
    pub count: u64,
    pub total_ns: u64,
    /// Duration minus the part covered by child spans.
    pub self_ns: u64,
}

pub struct Tracer {
    on: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    pub fn new(on: bool) -> Tracer {
        Tracer {
            on,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    pub fn enabled(&self) -> bool {
        self.on
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    pub fn enter(&mut self, name: &'static str, req: u64) {
        if !self.on {
            return;
        }
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
            req,
        });
        self.open.push(self.spans.len() - 1);
    }

    pub fn exit(&mut self) {
        if !self.on {
            return;
        }
        let id = self.open.pop().expect("exit matches an enter");
        self.spans[id].end_ns = self.now_ns();
    }

    /// Runs `f` inside a span.
    pub fn span<R>(&mut self, name: &'static str, req: u64, f: impl FnOnce() -> R) -> R {
        self.enter(name, req);
        let r = f();
        self.exit();
        r
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Per-name totals over the spans whose request id passes `keep`.
    /// Children run inside their parent and one after another, so the
    /// time they cover is the sum of their durations.
    pub fn layer_times(&self, keep: impl Fn(u64) -> bool) -> BTreeMap<&'static str, LayerTime> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.duration_ns();
            }
        }
        let mut out: BTreeMap<&'static str, LayerTime> = BTreeMap::new();
        for (i, s) in self.spans.iter().enumerate() {
            if !keep(s.req) {
                continue;
            }
            let t = out.entry(s.name).or_default();
            t.count += 1;
            t.total_ns += s.duration_ns();
            t.self_ns += s.duration_ns().saturating_sub(child_ns[i]);
        }
        out
    }

    /// Chrome trace events (without the enclosing array) for every span,
    /// on process 1 so they sit beside the simulated timeline's process 0.
    pub fn chrome_events(&self) -> String {
        let mut out = String::from(
            "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,\"args\":{\"name\":\"host wall clock\"}},\n\
             {\"name\":\"process_name\",\"ph\":\"M\",\"pid\":0,\"args\":{\"name\":\"simulated device\"}}",
        );
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or(-1, |p| p as i64);
            let _ = write!(
                out,
                ",\n{{\"name\":\"{}\",\"cat\":\"host\",\"ph\":\"X\",\"ts\":{:.3},\"dur\":{:.3},\"pid\":1,\"tid\":0,\
                 \"args\":{{\"id\":{i},\"parent\":{parent},\"req\":{}}}}}",
                s.name,
                s.start_ns as f64 / 1e3,
                s.duration_ns() as f64 / 1e3,
                s.req
            );
        }
        out
    }
}

/// Strips the `{"traceEvents":[ ... ], ...}` wrapper from a
/// `fleche_gpu::to_chrome_trace` document, leaving its events.
pub fn device_events(doc: &str) -> &str {
    let start = doc.find('[').map_or(0, |i| i + 1);
    let end = doc.rfind(']').unwrap_or(doc.len());
    doc[start..end].trim()
}

/// Writes host spans and sampled device events as one Chrome trace
/// under `.bench_out/` in the working directory.
pub fn write_chrome_trace(
    file: &str,
    tracer: &Tracer,
    device: &[String],
    stamp: &str,
) -> std::io::Result<String> {
    let dir = std::path::Path::new(".bench_out");
    std::fs::create_dir_all(dir)?;
    let mut doc = String::from("{\"traceEvents\":[\n");
    doc.push_str(&tracer.chrome_events());
    for events in device {
        let events = device_events(events);
        if !events.is_empty() {
            doc.push_str(",\n");
            doc.push_str(events);
        }
    }
    let _ = write!(
        doc,
        "\n],\"displayTimeUnit\":\"ns\",\"otherData\":{{\"host\":\"{}\"}}}}\n",
        stamp.replace('\\', "\\\\").replace('"', "\\\"")
    );
    let path = dir.join(file);
    std::fs::write(&path, doc)?;
    Ok(path.display().to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        let mut t = Tracer::new(true);
        t.enter("outer", 7);
        t.span("inner", 7, || {
            std::thread::sleep(std::time::Duration::from_millis(2))
        });
        t.exit();
        let times = t.layer_times(|_| true);
        let outer = times["outer"];
        let inner = times["inner"];
        assert_eq!(outer.count, 1);
        assert!(inner.total_ns >= 2_000_000);
        assert_eq!(outer.self_ns, outer.total_ns - inner.total_ns);
        assert_eq!(t.spans()[1].parent, Some(0));
        assert_eq!(t.spans()[1].req, 7);
    }

    #[test]
    fn disabled_tracer_records_nothing_but_runs_the_work() {
        let mut t = Tracer::new(false);
        assert_eq!(t.span("x", 0, || 41 + 1), 42);
        assert!(t.spans().is_empty());
    }

    #[test]
    fn device_events_strip_the_wrapper() {
        let doc = "{\"traceEvents\":[\n{\"a\":1}\n],\"displayTimeUnit\":\"ns\"}";
        assert_eq!(device_events(doc), "{\"a\":1}");
    }
}
