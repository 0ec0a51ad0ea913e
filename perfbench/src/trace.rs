//! In-memory span recorder for the traced run.
//!
//! Spans are recorded by the benchmark around each call it makes into a
//! layer (engine, codec, daemon request); nothing inside the program is
//! instrumented beyond the existing `fleet::FleetMetrics` side channel.
//! Spans stay in memory and are written out once, when the run ends.

use std::time::Instant;

/// One recorded interval. `parent` is the span that caused it; spans of
/// one iteration share the iteration's root span as ancestor.
#[derive(Debug, Clone)]
pub struct Span {
    /// Unique within the run, starting at 1.
    pub id: u64,
    /// The causing span, if any.
    pub parent: Option<u64>,
    /// Layer-qualified name, e.g. `fleet.engine.run_until`.
    pub name: &'static str,
    /// Offset from the recorder's origin, nanoseconds.
    pub start_ns: u64,
    /// Offset from the recorder's origin, nanoseconds.
    pub end_ns: u64,
}

/// Collects spans when enabled; every call is a no-op otherwise.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    /// A recorder whose offsets count from now.
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    /// Whether spans are being kept.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Records `[start, end)` under `parent` and returns the new span's
    /// id (0 when disabled).
    pub fn record(
        &mut self,
        name: &'static str,
        parent: Option<u64>,
        start: Instant,
        end: Instant,
    ) -> u64 {
        if !self.enabled {
            return 0;
        }
        let id = self.spans.len() as u64 + 1;
        let offset = |t: Instant| t.saturating_duration_since(self.origin).as_nanos() as u64;
        self.spans.push(Span {
            id,
            parent,
            name,
            start_ns: offset(start),
            end_ns: offset(end),
        });
        id
    }

    /// Opens a span at `start` whose end `end` sets later, so that spans
    /// recorded meanwhile can name it as parent. Returns its id (0 when
    /// disabled).
    pub fn begin(&mut self, name: &'static str, parent: Option<u64>, start: Instant) -> u64 {
        self.record(name, parent, start, start)
    }

    /// Closes a span opened with [`Tracer::begin`].
    pub fn end(&mut self, id: u64, end: Instant) {
        let offset = end.saturating_duration_since(self.origin).as_nanos() as u64;
        if let Some(span) = id
            .checked_sub(1)
            .and_then(|i| self.spans.get_mut(i as usize))
        {
            span.end_ns = offset;
        }
    }

    /// The spans recorded so far, in recording order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// The spans as a JSON array.
    pub fn spans_json(&self) -> String {
        let rows: Vec<String> = self
            .spans
            .iter()
            .map(|s| {
                let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
                format!(
                    "{{\"id\": {}, \"parent\": {parent}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}}}",
                    s.id, s.name, s.start_ns, s.end_ns
                )
            })
            .collect();
        format!("[\n    {}\n  ]", rows.join(",\n    "))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_tracer_keeps_nothing() {
        let mut t = Tracer::new(false);
        let now = Instant::now();
        assert_eq!(t.record("x", None, now, now), 0);
        assert!(t.spans().is_empty());
    }

    #[test]
    fn spans_link_to_their_parent() {
        let mut t = Tracer::new(true);
        let a = Instant::now();
        let b = Instant::now();
        let root = t.record("iteration", None, a, b);
        let child = t.record("fleet.engine.new", Some(root), a, b);
        assert_eq!((root, child), (1, 2));
        assert_eq!(t.spans()[1].parent, Some(1));
        assert!(t.spans_json().contains("\"name\": \"fleet.engine.new\""));
    }

    #[test]
    fn begun_spans_end_later() {
        let mut t = Tracer::new(true);
        let a = Instant::now();
        let root = t.begin("iteration", None, a);
        t.record("chronosd.jobs.submit", Some(root), a, a);
        let b = a + std::time::Duration::from_millis(5);
        t.end(root, b);
        let span = &t.spans()[0];
        assert_eq!(span.end_ns - span.start_ns, 5_000_000);
    }
}
