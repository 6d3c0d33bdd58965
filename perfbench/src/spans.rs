//! The benchmark's own spans, kept in memory and written when a traced
//! run ends.

use std::io::Write as _;
use std::time::Instant;

use unet_obs::json::Value;

/// One timed call into a layer.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    /// The span that caused this one (`None` for an operation's root).
    pub parent: Option<&'static str>,
    /// Operation id, shared by every span of one operation.
    pub op: usize,
    pub start_ms: f64,
    pub end_ms: f64,
}

/// Spans of one thread, timed against a clock shared by all threads.
#[derive(Debug, Clone)]
pub struct SpanLog {
    origin: Instant,
    pub spans: Vec<Span>,
}

impl SpanLog {
    pub fn new(origin: Instant) -> SpanLog {
        SpanLog { origin, spans: Vec::new() }
    }

    fn now_ms(&self) -> f64 {
        self.origin.elapsed().as_secs_f64() * 1e3
    }

    /// Run `f` inside a span.
    pub fn time<T>(
        &mut self,
        name: &'static str,
        parent: Option<&'static str>,
        op: usize,
        f: impl FnOnce() -> T,
    ) -> T {
        let start_ms = self.now_ms();
        let out = f();
        let end_ms = self.now_ms();
        self.spans.push(Span { name, parent, op, start_ms, end_ms });
        out
    }

    /// Run `f` inside a root span; `f` may record child spans on the log.
    pub fn root<T>(
        &mut self,
        name: &'static str,
        op: usize,
        f: impl FnOnce(&mut SpanLog) -> T,
    ) -> T {
        let start_ms = self.now_ms();
        let out = f(self);
        let end_ms = self.now_ms();
        self.spans.push(Span { name, parent: None, op, start_ms, end_ms });
        out
    }

    pub fn absorb(&mut self, other: SpanLog) {
        self.spans.extend(other.spans);
    }

    /// Mean over operations of the time spent in spans named `name`
    /// (an operation with several such spans counts their sum); 0 when
    /// no operation has one.
    pub fn mean_ms(&self, name: &str) -> f64 {
        let mut per_op: Vec<(usize, f64)> = Vec::new();
        for s in self.spans.iter().filter(|s| s.name == name) {
            match per_op.iter_mut().find(|(op, _)| *op == s.op) {
                Some((_, total)) => *total += s.end_ms - s.start_ms,
                None => per_op.push((s.op, s.end_ms - s.start_ms)),
            }
        }
        crate::stats::mean(&per_op.iter().map(|p| p.1).collect::<Vec<_>>())
    }

    /// Write one JSON object per span.
    pub fn write_jsonl(&self, path: &std::path::Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in &self.spans {
            let v = Value::Obj(vec![
                ("name".into(), Value::Str(s.name.into())),
                ("parent".into(), s.parent.map_or(Value::Null, |p| Value::Str(p.into()))),
                ("op".into(), Value::UInt(s.op as u64)),
                ("start_ms".into(), Value::Float(s.start_ms)),
                ("end_ms".into(), Value::Float(s.end_ms)),
            ]);
            writeln!(out, "{}", v.to_json())?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mean_sums_repeated_spans_within_an_operation() {
        let mut log = SpanLog::new(Instant::now());
        let span = |op, start_ms, end_ms| Span { name: "p", parent: None, op, start_ms, end_ms };
        log.spans = vec![span(0, 0.0, 1.0), span(0, 2.0, 4.0), span(1, 5.0, 6.0)];
        assert_eq!(log.mean_ms("p"), 2.0);
        assert_eq!(log.mean_ms("absent"), 0.0);
    }
}
