//! In-memory spans around the benchmark's calls into each layer.
//!
//! A span's name is `<layer>.<call>`; its layer is the part before the
//! first dot. Spans are kept in memory while the benchmark runs and
//! written out once, as Chrome trace-event JSON, when it ends.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One timed call.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    /// Nanoseconds since the tracer was created.
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span.
    pub parent: Option<usize>,
    /// Shared by every span of one simulation or one model query.
    pub run: u64,
}

impl Span {
    #[must_use]
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }

    #[must_use]
    pub fn layer(&self) -> &'static str {
        self.name.split('.').next().unwrap_or(self.name)
    }
}

/// Records spans while enabled; every call is a no-op while disabled.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

/// Handle of an open span (`None` while tracing is off).
#[must_use]
pub struct Open(Option<usize>);

impl Tracer {
    #[must_use]
    pub fn new(enabled: bool) -> Self {
        Self {
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    pub fn set_enabled(&mut self, enabled: bool) {
        self.enabled = enabled;
    }

    fn ns(&self, t: Instant) -> u64 {
        u64::try_from(t.saturating_duration_since(self.origin).as_nanos()).unwrap_or(u64::MAX)
    }

    /// Opens a span, nested in the innermost open one.
    pub fn open(&mut self, name: &'static str, run: u64) -> Open {
        if !self.enabled {
            return Open(None);
        }
        let now = self.ns(Instant::now());
        self.spans.push(Span {
            name,
            start_ns: now,
            end_ns: now,
            parent: self.open.last().copied(),
            run,
        });
        self.open.push(self.spans.len() - 1);
        Open(Some(self.spans.len() - 1))
    }

    /// Closes a span opened by [`Self::open`]; spans close innermost first.
    pub fn close(&mut self, span: Open) {
        if let Some(i) = span.0 {
            let now = self.ns(Instant::now());
            self.spans[i].end_ns = now;
            let top = self.open.pop();
            debug_assert_eq!(top, Some(i), "spans must close innermost first");
        }
    }

    /// Records a finished call timed by the caller.
    pub fn record(&mut self, name: &'static str, run: u64, start: Instant, end: Instant) {
        if self.enabled {
            self.spans.push(Span {
                name,
                start_ns: self.ns(start),
                end_ns: self.ns(end),
                parent: self.open.last().copied(),
                run,
            });
        }
    }

    #[must_use]
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// Each span's self time: its duration minus the part of its interval
/// that its direct children cover.
#[must_use]
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            kids.sort_unstable();
            let (mut covered, mut reach) = (0u64, s.start_ns);
            for &(a, b) in kids.iter() {
                let (a, b) = (a.max(reach), b.min(s.end_ns));
                if b > a {
                    covered += b - a;
                    reach = b;
                }
            }
            s.duration_ns() - covered.min(s.duration_ns())
        })
        .collect()
}

/// Per root span (a span without parent) and the spans under it: inclusive
/// time per span name, self time per layer, in seconds, and the span count. Spans are
/// appended in open order, so a root owns every span up to the next root.
#[must_use]
pub fn per_root(spans: &[Span]) -> Vec<(&'static str, BTreeMap<String, f64>)> {
    let self_ns = self_times_ns(spans);
    let mut out: Vec<(&'static str, BTreeMap<String, f64>)> = Vec::new();
    for (s, own) in spans.iter().zip(self_ns) {
        if s.parent.is_none() {
            out.push((s.name, BTreeMap::new()));
        }
        let Some((_, m)) = out.last_mut() else {
            continue;
        };
        *m.entry("trace.spans".to_string()).or_default() += 1.0;
        *m.entry(format!("{}_s", s.name)).or_default() += s.duration_ns() as f64 * 1e-9;
        *m.entry(format!("{}.self_s", s.layer())).or_default() += own as f64 * 1e-9;
    }
    out
}

/// Chrome trace-event JSON (`chrome://tracing`, Perfetto).
#[must_use]
pub fn to_chrome_json(spans: &[Span]) -> String {
    let mut out = String::from("{\"displayTimeUnit\":\"ns\",\"traceEvents\":[");
    for (i, s) in spans.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        let _ = write!(
            out,
            "\n{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\
             \"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"id\":{i},\"parent\":{parent},\"run\":{}}}}}",
            s.name,
            s.layer(),
            s.start_ns as f64 / 1e3,
            s.duration_ns() as f64 / 1e3,
            s.run
        );
    }
    out.push_str("\n]}\n");
    out
}
