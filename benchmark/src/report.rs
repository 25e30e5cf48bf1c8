//! Metric catalogue, the per-run outcome, and its three renderings: one
//! human-readable line per metric, a results file with provenance, and
//! the final JSON line.

use std::path::{Path, PathBuf};

use osa_json::Value;

use crate::spans::Span;

/// Whether a metric is seen by a user of the system or belongs to one
/// layer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    EndToEnd,
    Layer,
}

/// One catalogued metric: name, unit, better direction, kind, and
/// whether it is one of the gated metrics every workload reports.
#[derive(Debug, Clone, Copy)]
pub struct Def {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
    pub kind: Kind,
    pub gated: bool,
    /// For a layer metric: the end-to-end metric and workload it should
    /// move.
    pub moves: &'static str,
}

const fn e2e(name: &'static str, unit: &'static str, better: &'static str, gated: bool) -> Def {
    Def {
        name,
        unit,
        better,
        kind: Kind::EndToEnd,
        gated,
        moves: "",
    }
}

const fn layer(
    name: &'static str,
    unit: &'static str,
    better: &'static str,
    moves: &'static str,
) -> Def {
    Def {
        name,
        unit,
        better,
        kind: Kind::Layer,
        gated: true,
        moves,
    }
}

const SETUP_COLD: &str = "setup_s on cold-huge";
const BATCH_ITEMS: &str = "items_per_s and item_p95_ms on batch-large";
const EXACT_ITEMS: &str = "items_per_s and item_p95_ms on exact-fig4";
const INGEST: &str = "ingest_p50_ms and ingest_p95_ms on serve-mixed";
const QUEUE: &str = "summary_p99_ms and max_rps_at_slo on serve-mixed";

/// Every metric the benchmark can print. The gated end-to-end metrics
/// are the ones all four workloads measure; they form the final JSON
/// line of an untraced run. `op_p50_ms` is the median latency of each
/// workload's unit of work: an item (batch-large), a whole cold boot
/// (cold-huge), a cache-missing `GET /summary` at the nominal rate, from
/// send to reply (serve-mixed) and
/// an instance (exact-fig4). Every layer metric forms the final line of
/// a traced run (0 where the workload bypasses the layer).
pub const CATALOGUE: &[Def] = &[
    e2e("setup_s", "s", "lower", true),
    e2e("items_per_s", "1/s", "higher", true),
    e2e("op_p50_ms", "ms", "lower", true),
    e2e("peak_rss_mb", "MB", "lower", true),
    e2e("item_p50_ms", "ms", "lower", false),
    e2e("item_p95_ms", "ms", "lower", false),
    e2e("summary_p50_ms", "ms", "lower", false),
    e2e("summary_p99_ms", "ms", "lower", false),
    e2e("ingest_p50_ms", "ms", "lower", false),
    e2e("ingest_p95_ms", "ms", "lower", false),
    e2e("max_rps_at_slo", "1/s", "higher", false),
    e2e("failed_frac", "ratio", "lower", false),
    e2e("greedy_gap_pct", "%", "lower", false),
    e2e("rr_gap_pct", "%", "lower", false),
    layer("json.parse_ms", "ms", "lower", SETUP_COLD),
    layer("json.parse_mb_per_s", "MB/s", "higher", SETUP_COLD),
    layer("ontology.build_ms", "ms", "lower", SETUP_COLD),
    layer(
        "ontology.index_warm_ms",
        "ms",
        "lower",
        "setup_s on cold-huge and serve-mixed",
    ),
    layer("artifact.open_ms", "ms", "lower", "setup_s on serve-mixed"),
    layer(
        "artifact.block_decode_us",
        "us",
        "lower",
        "summary_p99_ms on serve-mixed (first touches)",
    ),
    layer(
        "extract.build_ms",
        "ms",
        "lower",
        "setup_s on cold-huge and serve-mixed",
    ),
    layer("extract.item_us", "us", "lower", BATCH_ITEMS),
    layer("extract.item_p95_us", "us", "lower", BATCH_ITEMS),
    layer("extract.reviews_per_s", "1/s", "higher", BATCH_ITEMS),
    layer(
        "graph.build_us",
        "us",
        "lower",
        "items_per_s on batch-large, summary_p99_ms on serve-mixed",
    ),
    layer(
        "graph.build_p95_us",
        "us",
        "lower",
        "items_per_s on batch-large, summary_p99_ms on serve-mixed",
    ),
    layer(
        "graph.edges",
        "count",
        "lower",
        "items_per_s on batch-large",
    ),
    layer(
        "solve.greedy_us",
        "us",
        "lower",
        "items_per_s on batch-large",
    ),
    layer("solve.ilp_ms", "ms", "lower", EXACT_ITEMS),
    layer("solve.ilp_p95_ms", "ms", "lower", EXACT_ITEMS),
    layer("solve.rr_ms", "ms", "lower", EXACT_ITEMS),
    layer(
        "solver.simplex_pivots",
        "count",
        "lower",
        "items_per_s on exact-fig4",
    ),
    layer(
        "solver.bb_nodes",
        "count",
        "lower",
        "items_per_s on exact-fig4",
    ),
    layer(
        "solver.bb_pruned_frac",
        "ratio",
        "higher",
        "items_per_s on exact-fig4",
    ),
    layer(
        "render.item_us",
        "us",
        "lower",
        "items_per_s on batch-large",
    ),
    layer(
        "runtime.busy_frac",
        "ratio",
        "higher",
        "items_per_s on batch-large",
    ),
    layer("runtime.update_us", "us", "lower", INGEST),
    layer("runtime.update_p95_us", "us", "lower", INGEST),
    layer(
        "runtime.rebuild_us",
        "us",
        "lower",
        "nothing: the base of runtime.update_speedup",
    ),
    layer("runtime.update_speedup", "x", "higher", INGEST),
    layer(
        "serve.cache_hit_frac",
        "ratio",
        "higher",
        "summary_p50_ms on serve-mixed",
    ),
    layer("serve.queue_wait_ms", "ms", "lower", QUEUE),
    layer("serve.queue_wait_p99_ms", "ms", "lower", QUEUE),
    layer(
        "serve.service_ms",
        "ms",
        "lower",
        "summary_p50_ms on serve-mixed",
    ),
    layer(
        "serve.refused_frac",
        "ratio",
        "lower",
        "failed_frac on serve-mixed",
    ),
    layer(
        "client.lag_ms",
        "ms",
        "lower",
        "nothing: a validity check of the serve-mixed client",
    ),
    layer(
        "trace.overhead_pct",
        "%",
        "lower",
        "nothing: traced minus untraced, as a share of untraced",
    ),
    layer(
        "trace.coverage_pct",
        "%",
        "higher",
        "nothing: share of pass wall time the leaf spans cover",
    ),
];

/// Look up a catalogued metric.
pub fn def(name: &str) -> &'static Def {
    CATALOGUE
        .iter()
        .find(|d| d.name == name)
        .unwrap_or_else(|| panic!("metric '{name}' is not catalogued"))
}

/// One measured value with the number of samples behind it. `value` is
/// `None` when the layer is bypassed or a tail percentile has too few
/// samples beyond it; it prints as 0 in the final JSON line.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: &'static str,
    pub value: Option<f64>,
    pub samples: usize,
}

/// Everything one workload run produced.
#[derive(Debug, Default)]
pub struct Outcome {
    pub metrics: Vec<Metric>,
    pub attempted: u64,
    pub failed: u64,
    /// Output-check failures; any entry makes the run incorrect.
    pub mismatches: Vec<String>,
    /// Input sizes and other facts about the run, in print order.
    pub provenance: Vec<(&'static str, String)>,
    /// Ratios printed with their base, one line each.
    pub notes: Vec<String>,
    pub spans: Vec<Span>,
}

impl Outcome {
    pub fn put(&mut self, name: &'static str, value: Option<f64>, samples: usize) {
        def(name);
        assert!(
            self.metrics.iter().all(|m| m.name != name),
            "metric '{name}' reported twice"
        );
        self.metrics.push(Metric {
            name,
            value,
            samples,
        });
    }

    pub fn fact(&mut self, key: &'static str, value: impl ToString) {
        self.provenance.push((key, value.to_string()));
    }

    pub fn mismatch(&mut self, what: impl Into<String>) {
        self.mismatches.push(what.into());
    }

    pub fn get(&self, name: &str) -> Option<&Metric> {
        self.metrics.iter().find(|m| m.name == name)
    }

    pub fn correct(&self) -> bool {
        self.mismatches.is_empty()
    }

    /// The metric lines: every catalogued metric of the requested kinds,
    /// in catalogue order, with unit, better direction and sample count.
    /// A value reads `n/a` when too few samples support it and
    /// `not-measured` when the workload bypasses the layer.
    pub fn lines(&self, traced: bool) -> Vec<String> {
        CATALOGUE
            .iter()
            .filter(|d| traced || d.kind == Kind::EndToEnd)
            .map(|d| {
                let (value, samples) = match self.get(d.name) {
                    Some(Metric {
                        value: Some(v),
                        samples,
                        ..
                    }) => (format!("{v:.6}"), *samples),
                    Some(m) => ("n/a".to_owned(), m.samples),
                    None => ("not-measured".to_owned(), 0),
                };
                let kind = match d.kind {
                    Kind::EndToEnd => "e2e",
                    Kind::Layer => "layer",
                };
                let moves = match d.kind {
                    Kind::EndToEnd => String::new(),
                    Kind::Layer => format!(", moves {}", d.moves),
                };
                format!(
                    "metric {kind} {} = {value} {} (n={samples}, better {}{moves})",
                    d.name, d.unit, d.better
                )
            })
            .collect()
    }

    /// The final JSON line: the gated end-to-end metrics untraced, every
    /// layer metric traced.
    pub fn final_json(&self, traced: bool) -> String {
        let want = |d: &&Def| match traced {
            false => d.kind == Kind::EndToEnd && d.gated,
            true => d.kind == Kind::Layer,
        };
        let metrics = CATALOGUE
            .iter()
            .filter(want)
            .map(|d| {
                let v = self.get(d.name).and_then(|m| m.value).unwrap_or(0.0);
                (
                    d.name.to_owned(),
                    Value::Object(vec![
                        ("value".to_owned(), Value::Number(v)),
                        ("unit".to_owned(), Value::String(d.unit.to_owned())),
                    ]),
                )
            })
            .collect();
        let obj = Value::Object(vec![
            ("correct".to_owned(), Value::Bool(self.correct())),
            ("attempted".to_owned(), Value::Number(self.attempted as f64)),
            ("failed".to_owned(), Value::Number(self.failed as f64)),
            ("metrics".to_owned(), Value::Object(metrics)),
        ]);
        osa_json::to_string(&obj)
    }

    /// The results document: provenance, every metric with unit and
    /// sample count, checks and notes.
    pub fn results_json(&self, workload: &str, why: &str, seed: u64, traced: bool) -> String {
        let metrics = self
            .metrics
            .iter()
            .map(|m| {
                let d = def(m.name);
                (
                    m.name.to_owned(),
                    Value::Object(vec![
                        (
                            "value".to_owned(),
                            m.value.map_or(Value::Null, Value::Number),
                        ),
                        ("unit".to_owned(), Value::String(d.unit.to_owned())),
                        ("better".to_owned(), Value::String(d.better.to_owned())),
                        ("samples".to_owned(), Value::Number(m.samples as f64)),
                    ]),
                )
            })
            .collect();
        let strings =
            |v: &[String]| Value::Array(v.iter().map(|s| Value::from(s.as_str())).collect());
        let obj = Value::Object(vec![
            ("workload".to_owned(), Value::from(workload)),
            ("why".to_owned(), Value::from(why)),
            ("seed".to_owned(), Value::Number(seed as f64)),
            ("traced".to_owned(), Value::Bool(traced)),
            (
                "provenance".to_owned(),
                Value::Object(
                    self.provenance
                        .iter()
                        .map(|(k, v)| ((*k).to_owned(), Value::from(v.as_str())))
                        .collect(),
                ),
            ),
            ("metrics".to_owned(), Value::Object(metrics)),
            ("notes".to_owned(), strings(&self.notes)),
            ("mismatches".to_owned(), strings(&self.mismatches)),
            ("attempted".to_owned(), Value::Number(self.attempted as f64)),
            ("failed".to_owned(), Value::Number(self.failed as f64)),
        ]);
        osa_json::to_string_pretty(&obj)
    }
}

/// Scratch directory for generated inputs, results and traces,
/// relative to the directory the benchmark runs in.
pub fn work_dir() -> PathBuf {
    PathBuf::from(".bench_work")
}

/// The commit the benchmark runs from, when it runs inside a git
/// checkout; read from `.git` directly so no process is spawned.
pub fn git_rev() -> String {
    let read = |p: &Path| std::fs::read_to_string(p).ok();
    let Some(head) = read(Path::new(".git/HEAD")) else {
        return "unknown (not a git checkout)".to_owned();
    };
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head.to_owned();
    };
    if let Some(rev) = read(&Path::new(".git").join(reference)) {
        return rev.trim().to_owned();
    }
    read(Path::new(".git/packed-refs"))
        .and_then(|packed| {
            packed
                .lines()
                .find(|l| l.ends_with(reference))
                .and_then(|l| l.split_whitespace().next().map(str::to_owned))
        })
        .unwrap_or_else(|| format!("unknown ({reference})"))
}

/// Reset this process's resident-set high-water mark to its current
/// resident set, so a later [`peak_rss_mb`] covers only what runs after
/// the reset and not the benchmark's own input generation and checks.
pub fn reset_peak_rss() {
    // "5" clears the peak; a kernel without it leaves the mark alone.
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

/// A memory field of `/proc/self/status`, in MB.
fn status_mb(field: &str) -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with(field))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// Peak resident set of this process in MB (`VmHWM`).
pub fn peak_rss_mb() -> Option<f64> {
    status_mb("VmHWM:")
}

/// Current resident set of this process in MB (`VmRSS`).
pub fn current_rss_mb() -> Option<f64> {
    status_mb("VmRSS:")
}

/// CPU time this process has used, all threads (live and exited) and
/// user plus system, in seconds: `utime + stime` of `/proc/self/stat`.
/// The kernel keeps time the host stole from a virtual CPU out of it.
pub fn process_cpu_s() -> Option<f64> {
    cpu_s("/proc/self/stat")
}

/// CPU time the calling thread has used, as `process_cpu_s` counts it.
pub fn thread_cpu_s() -> Option<f64> {
    cpu_s("/proc/thread-self/stat")
}

/// `utime + stime` of a `stat` file in seconds. Ticks are `USER_HZ`,
/// which Linux fixes at 100.
fn cpu_s(path: &str) -> Option<f64> {
    let stat = std::fs::read_to_string(path).ok()?;
    // Fields after the parenthesised command name, from `state` (field 3).
    let rest: Vec<&str> = stat.rsplit_once(')')?.1.split_whitespace().collect();
    let utime: u64 = rest.get(11)?.parse().ok()?;
    let stime: u64 = rest.get(12)?.parse().ok()?;
    Some((utime + stime) as f64 / 100.0)
}

/// The machine's cumulative (steal, total) CPU ticks from `/proc/stat`.
/// Steal is time a virtual CPU was ready but the host ran something
/// else; a run with a large share of it measured a contended host.
pub fn cpu_ticks() -> Option<(u64, u64)> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let ticks: Vec<u64> = stat
        .lines()
        .next()?
        .split_whitespace()
        .skip(1)
        .take(8)
        .map(str::parse)
        .collect::<Result<_, _>>()
        .ok()?;
    Some((*ticks.get(7)?, ticks.iter().sum()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn catalogue_names_are_unique_and_well_formed() {
        let mut names: Vec<&str> = CATALOGUE.iter().map(|d| d.name).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), CATALOGUE.len());
        for d in CATALOGUE {
            assert!(d.name.len() <= 64 && d.unit.len() <= 16);
            assert!(d
                .name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == '.' || c == '-'));
            assert!(matches!(d.better, "lower" | "higher"));
        }
    }

    #[test]
    fn final_line_has_exactly_the_gated_metrics() {
        let mut o = Outcome::default();
        o.put("setup_s", Some(1.5), 3);
        o.put("item_p95_ms", None, 12);
        o.attempted = 4;
        let v = osa_json::parse(&o.final_json(false)).unwrap();
        let m = v.get("metrics").unwrap().as_object().unwrap();
        let names: Vec<&str> = m.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(
            names,
            ["setup_s", "items_per_s", "op_p50_ms", "peak_rss_mb"]
        );
        assert_eq!(v.get("correct"), Some(&Value::Bool(true)));
        o.mismatch("x");
        assert!(o.final_json(true).contains("\"correct\":false"));
    }
}
