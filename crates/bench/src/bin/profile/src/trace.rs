//! In-memory spans recorded around the benchmark's calls into each layer.
//!
//! A span has a name, start, end, parent and op id, plus attributes read
//! from the program's public counters (stage timings, reuse stats, kernel
//! cost). Spans stay in memory and are written out once the run ends.

use std::io::Write as _;
use std::time::{Duration, Instant};

#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub op: u64,
    pub parent: Option<usize>,
    pub start: Duration,
    pub end: Duration,
    pub attrs: Vec<(&'static str, f64)>,
}

impl Span {
    pub fn secs(&self) -> f64 {
        self.end.saturating_sub(self.start).as_secs_f64()
    }
}

/// Span id; `None` while tracing is off, which makes every call a no-op.
pub type SpanId = Option<usize>;

#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    enabled: bool,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new(origin: Instant) -> Tracer {
        Tracer {
            origin,
            enabled: false,
            spans: Vec::new(),
        }
    }

    pub fn set_enabled(&mut self, enabled: bool) {
        self.enabled = enabled;
    }

    pub fn begin(&mut self, name: &'static str, op: u64, parent: SpanId) -> SpanId {
        if !self.enabled {
            return None;
        }
        let now = self.origin.elapsed();
        self.spans.push(Span {
            name,
            op,
            parent,
            start: now,
            end: now,
            attrs: Vec::new(),
        });
        Some(self.spans.len() - 1)
    }

    pub fn end(&mut self, id: SpanId) {
        if let Some(i) = id {
            self.spans[i].end = self.origin.elapsed();
        }
    }

    pub fn attr(&mut self, id: SpanId, key: &'static str, value: f64) {
        if let Some(i) = id {
            self.spans[i].attrs.push((key, value));
        }
    }

    /// A span whose interval was measured by the caller.
    pub fn record(
        &mut self,
        name: &'static str,
        op: u64,
        parent: SpanId,
        start: Instant,
        end: Instant,
    ) -> SpanId {
        if !self.enabled {
            return None;
        }
        self.spans.push(Span {
            name,
            op,
            parent,
            start: start.saturating_duration_since(self.origin),
            end: end.saturating_duration_since(self.origin),
            attrs: Vec::new(),
        });
        Some(self.spans.len() - 1)
    }

    /// Appends another tracer's spans (one per client thread), keeping
    /// their parent links.
    pub fn absorb(&mut self, other: Tracer) {
        let base = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            if let Some(offset) = other.origin.checked_duration_since(self.origin) {
                s.start += offset;
                s.end += offset;
            }
            s
        }));
    }

    /// Mean over spans called `name` of the share of each span covered by
    /// its children.
    pub fn coverage(&self, name: &str) -> f64 {
        let mut children = vec![0.0; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                children[p] += s.secs();
            }
        }
        let shares: Vec<f64> = self
            .spans
            .iter()
            .enumerate()
            .filter(|(_, s)| s.name == name && s.secs() > 0.0)
            .map(|(i, s)| (children[i] / s.secs()).min(1.0))
            .collect();
        if shares.is_empty() {
            0.0
        } else {
            shares.iter().sum::<f64>() / shares.len() as f64
        }
    }

    /// Writes one tab-separated line per span:
    /// `id name op parent start_ns end_ns key=value...`.
    pub fn write_tsv(&self, path: &std::path::Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "id\tname\top\tparent\tstart_ns\tend_ns\tattrs")?;
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("-".to_string(), |p| p.to_string());
            let attrs: Vec<String> = s.attrs.iter().map(|(k, v)| format!("{k}={v}")).collect();
            writeln!(
                out,
                "{i}\t{}\t{}\t{parent}\t{}\t{}\t{}",
                s.name,
                s.op,
                s.start.as_nanos(),
                s.end.as_nanos(),
                attrs.join(",")
            )?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(Instant::now());
        let id = t.begin("op", 0, None);
        t.attr(id, "x", 1.0);
        t.end(id);
        assert!(id.is_none());
        assert_eq!(t.coverage("op"), 0.0);
    }

    #[test]
    fn coverage_is_child_share() {
        let origin = Instant::now();
        let mut t = Tracer::new(origin);
        t.set_enabled(true);
        let at = |ms| origin + Duration::from_millis(ms);
        let op = t.record("op", 0, None, at(0), at(100));
        t.record("child", 0, op, at(10), at(40));
        t.record("child", 0, op, at(50), at(70));
        assert!((t.coverage("op") - 0.5).abs() < 1e-9);
    }
}
