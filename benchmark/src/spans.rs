//! In-memory span recorder for the traced run.
//!
//! Spans are recorded by the benchmark's own code around each call into
//! a layer's public function; the program itself is not instrumented.
//! Every span carries its parent and the request (item, instance or
//! pass) it belongs to, stays in memory while the run measures, and is
//! written out once at the end.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use crate::stats::union_len;

/// One closed span. Times are nanoseconds since the recorder's epoch.
#[derive(Debug, Clone)]
pub struct Span {
    pub id: u64,
    pub parent: Option<u64>,
    pub name: &'static str,
    pub request: u64,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

#[derive(Debug)]
pub struct Recorder {
    epoch: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

impl Default for Recorder {
    fn default() -> Self {
        Recorder {
            epoch: Instant::now(),
            next_id: AtomicU64::new(0),
            spans: Mutex::new(Vec::new()),
        }
    }
}

impl Recorder {
    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Run `f` inside a span; `f` receives the span's id so it can
    /// parent child spans.
    pub fn span<T>(
        &self,
        name: &'static str,
        parent: Option<u64>,
        request: u64,
        f: impl FnOnce(u64) -> T,
    ) -> T {
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let start_ns = self.now_ns();
        let out = f(id);
        let end_ns = self.now_ns();
        self.spans.lock().expect("span list lock").push(Span {
            id,
            parent,
            name,
            request,
            start_ns,
            end_ns,
        });
        out
    }

    /// Every span recorded so far, ordered by start time.
    pub fn spans(&self) -> Vec<Span> {
        let mut v = self.spans.lock().expect("span list lock").clone();
        v.sort_by_key(|s| (s.start_ns, s.id));
        v
    }
}

/// Run `f` inside a span when tracing, or directly when not.
pub fn traced<T>(
    rec: Option<&Recorder>,
    name: &'static str,
    parent: Option<u64>,
    request: u64,
    f: impl FnOnce(Option<u64>) -> T,
) -> T {
    match rec {
        Some(r) => r.span(name, parent, request, |id| f(Some(id))),
        None => f(None),
    }
}

/// Durations in microseconds of every span called `name`.
pub fn durations_us(spans: &[Span], name: &str) -> Vec<f64> {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(|s| s.dur_ns() as f64 / 1e3)
        .collect()
}

/// Self time per span name in nanoseconds: each span's duration minus
/// the part of it its children cover.
pub fn self_time_ns(spans: &[Span]) -> BTreeMap<&'static str, u64> {
    let mut children: BTreeMap<u64, Vec<(u64, u64)>> = BTreeMap::new();
    for s in spans {
        if let Some(p) = s.parent {
            children.entry(p).or_default().push((s.start_ns, s.end_ns));
        }
    }
    let mut out = BTreeMap::new();
    for s in spans {
        let covered = children
            .get_mut(&s.id)
            .map_or(0, |c| union_len(c).min(s.dur_ns()));
        *out.entry(s.name).or_insert(0) += s.dur_ns() - covered;
    }
    out
}

/// Share of each root span's duration covered by the union of its
/// leaf descendants (spans with no children of their own), one value
/// per root, in root order.
pub fn leaf_coverage(spans: &[Span]) -> Vec<f64> {
    let by_id: BTreeMap<u64, &Span> = spans.iter().map(|s| (s.id, s)).collect();
    let has_child: std::collections::BTreeSet<u64> =
        spans.iter().filter_map(|s| s.parent).collect();
    let root_of = |s: &Span| {
        let mut id = s.id;
        while let Some(p) = by_id.get(&id).and_then(|s| s.parent) {
            id = p;
        }
        id
    };
    let mut leaves: BTreeMap<u64, Vec<(u64, u64)>> = BTreeMap::new();
    for s in spans {
        if s.parent.is_some() && !has_child.contains(&s.id) {
            leaves
                .entry(root_of(s))
                .or_default()
                .push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .filter(|s| s.parent.is_none() && s.dur_ns() > 0)
        .map(|root| {
            let covered = leaves.get_mut(&root.id).map_or(0, |l| union_len(l));
            covered as f64 / root.dur_ns() as f64
        })
        .collect()
}

/// The spans as a JSON array (name, start, end, parent, request).
pub fn to_json(spans: &[Span]) -> String {
    use osa_json::Value;
    let arr = spans
        .iter()
        .map(|s| {
            Value::Object(vec![
                ("id".to_owned(), Value::Number(s.id as f64)),
                (
                    "parent".to_owned(),
                    s.parent.map_or(Value::Null, |p| Value::Number(p as f64)),
                ),
                ("name".to_owned(), Value::String(s.name.to_owned())),
                ("request".to_owned(), Value::Number(s.request as f64)),
                ("start_ns".to_owned(), Value::Number(s.start_ns as f64)),
                ("end_ns".to_owned(), Value::Number(s.end_ns as f64)),
            ])
        })
        .collect();
    osa_json::to_string(&Value::Array(arr))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: Option<u64>, name: &'static str, s: u64, e: u64) -> Span {
        Span {
            id,
            parent,
            name,
            request: 0,
            start_ns: s,
            end_ns: e,
        }
    }

    #[test]
    fn self_time_subtracts_covered_children() {
        let spans = vec![
            span(0, None, "pass", 0, 100),
            span(1, Some(0), "a", 0, 40),
            span(2, Some(0), "b", 30, 60),
            span(3, Some(2), "c", 35, 45),
        ];
        let st = self_time_ns(&spans);
        assert_eq!(st["pass"], 40);
        assert_eq!(st["a"], 40);
        assert_eq!(st["b"], 20);
        assert_eq!(st["c"], 10);
        // Leaves are a (0..40) and c (35..45): 45 of 100.
        assert_eq!(leaf_coverage(&spans), vec![0.45]);
    }

    #[test]
    fn recorder_nests_spans() {
        let rec = Recorder::default();
        let v = rec.span("outer", None, 7, |id| rec.span("inner", Some(id), 7, |_| 3));
        assert_eq!(v, 3);
        let spans = rec.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[0].name, "outer");
        assert_eq!(spans[1].parent, Some(spans[0].id));
        assert!(to_json(&spans).contains("\"inner\""));
    }
}
