//! In-memory span and count recorder of the traced run. Spans are taken from
//! the harness's side of each layer boundary; nothing inside the layer crates
//! is instrumented.

use std::time::Instant;

use serde_json::{json, Value};

pub struct Span {
    pub id: usize,
    pub parent: Option<usize>,
    pub name: String,
    pub start_ns: u64,
    pub end_ns: u64,
}

pub struct Tracer {
    workload: String,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    counts: Vec<(String, f64)>,
}

impl Tracer {
    pub fn new(workload: &str) -> Self {
        Tracer {
            workload: workload.to_string(),
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            counts: Vec::new(),
        }
    }

    fn ns(&self, at: Instant) -> u64 {
        at.duration_since(self.origin).as_nanos() as u64
    }

    /// Runs `f` inside a span named `name`, child of the innermost open span.
    pub fn span<T>(&mut self, name: &str, f: impl FnOnce(&mut Tracer) -> T) -> T {
        let id = self.spans.len();
        let start_ns = self.ns(Instant::now());
        self.spans.push(Span {
            id,
            parent: self.open.last().copied(),
            name: name.to_string(),
            start_ns,
            end_ns: start_ns,
        });
        self.open.push(id);
        let out = f(self);
        self.open.pop();
        self.spans[id].end_ns = self.ns(Instant::now());
        out
    }

    /// Records a span that was timed where the tracer could not be borrowed
    /// (inside a rank's closure), as a child of the innermost open span.
    pub fn add(&mut self, name: &str, start: Instant, end: Instant) {
        let id = self.spans.len();
        self.spans.push(Span {
            id,
            parent: self.open.last().copied(),
            name: name.to_string(),
            start_ns: self.ns(start),
            end_ns: self.ns(end),
        });
    }

    pub fn count(&mut self, name: &str, value: f64) {
        self.counts.push((name.to_string(), value));
    }

    fn find(&self, name: &str) -> &Span {
        self.spans
            .iter()
            .find(|s| s.name == name)
            .unwrap_or_else(|| panic!("no span named {name}"))
    }

    /// Duration in seconds of the span named `name` (names are unique), if
    /// it was recorded.
    pub fn try_seconds(&self, name: &str) -> Option<f64> {
        let s = self.spans.iter().find(|s| s.name == name)?;
        Some((s.end_ns - s.start_ns) as f64 * 1e-9)
    }

    /// Duration of a span that must exist.
    pub fn seconds(&self, name: &str) -> f64 {
        self.try_seconds(name)
            .unwrap_or_else(|| panic!("no span named {name}"))
    }

    /// A span's duration minus the part its children cover.
    pub fn self_seconds(&self, name: &str) -> f64 {
        let s = self.find(name);
        let children: u64 = self
            .spans
            .iter()
            .filter(|c| c.parent == Some(s.id))
            .map(|c| c.end_ns - c.start_ns)
            .sum();
        (s.end_ns - s.start_ns - children) as f64 * 1e-9
    }

    pub fn get_count(&self, name: &str) -> Option<f64> {
        self.counts.iter().find(|(n, _)| n == name).map(|&(_, v)| v)
    }

    pub fn to_json(&self) -> Value {
        let spans: Vec<Value> = self
            .spans
            .iter()
            .map(|s| {
                json!({
                    "id": s.id,
                    "parent": s.parent,
                    "name": s.name,
                    "start_ns": s.start_ns,
                    "end_ns": s.end_ns,
                    "self_s": self.self_seconds(&s.name),
                    "workload": self.workload,
                })
            })
            .collect();
        let counts: Vec<(String, Value)> = self
            .counts
            .iter()
            .map(|(n, v)| (n.clone(), json!(*v)))
            .collect();
        Value::Object(vec![
            ("workload".to_string(), json!(self.workload)),
            ("spans".to_string(), Value::Array(spans)),
            ("counts".to_string(), Value::Object(counts)),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nesting_sets_parents_and_self_time_excludes_children() {
        let mut t = Tracer::new("w");
        t.span("outer", |t| {
            t.span("inner", |_| {
                std::thread::sleep(std::time::Duration::from_millis(5))
            });
            let now = Instant::now();
            t.add("added", now, now);
        });
        assert_eq!(t.find("inner").parent, Some(t.find("outer").id));
        assert_eq!(t.find("added").parent, Some(t.find("outer").id));
        assert_eq!(t.find("outer").parent, None);
        assert!(t.seconds("inner") >= 0.005);
        let gap = t.seconds("outer") - t.seconds("inner") - t.self_seconds("outer");
        assert!(gap.abs() < 1e-9, "{gap}");
    }
}
