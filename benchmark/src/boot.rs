//! `batch-large` and `cold-huge`: repeated `summarize --item all` runs
//! over corpus files, each one `load_corpus` → `summarize_corpus`, as
//! the CLI does. The untraced pass calls exactly those two functions;
//! the traced pass makes the same calls one layer down, with a span
//! around each, so its output must equal the untraced output.

use std::path::{Path, PathBuf};
use std::time::Instant;

use osa_core::{CoverageGraph, Granularity};
use osa_datasets::{corpus_from_json, load_corpus, Corpus, Extractor};
use osa_runtime::incremental::ItemArtifacts;
use osa_runtime::{
    item_seed, render_item_summary, summarize_corpus, summarize_one, warm_ancestor_index, BatchJob,
    BatchOptions, Fault, ItemSummary, WorkerScratch,
};

use crate::report::{peak_rss_mb, reset_peak_rss, Outcome};
use crate::spans::{self, Recorder};
use crate::stats::{mean, median, percentile};

/// One corpus file a boot workload runs over, with its reference output
/// and size.
#[derive(Debug, Clone)]
pub struct Input {
    pub path: PathBuf,
    pub reference: String,
    pub items: usize,
    pub reviews: usize,
}

/// Timing of one pass.
#[derive(Debug, Clone)]
struct Pass {
    /// Items in the pass's corpus.
    items: usize,
    /// Load plus summarize, microseconds.
    wall_us: f64,
    /// The item phase `summarize_corpus` reports, microseconds.
    item_phase_us: f64,
    per_item_us: Vec<f64>,
    failed_items: usize,
    /// The rendered summaries of every item, in item order.
    output: String,
}

impl Pass {
    fn setup_us(&self) -> f64 {
        self.wall_us - self.item_phase_us
    }
}

/// One untraced `summarize --item all` over the corpus file.
fn untraced_pass(path: &Path, opts: &BatchOptions) -> Pass {
    let t0 = Instant::now();
    let corpus = load_corpus(path).expect("benchmark corpus loads");
    let report = summarize_corpus(&corpus, opts);
    let wall_us = t0.elapsed().as_secs_f64() * 1e6;
    Pass {
        items: corpus.items.len(),
        wall_us,
        item_phase_us: report.wall_micros,
        per_item_us: report.per_item_micros.clone(),
        failed_items: report.failed.len(),
        output: report.render_items(),
    }
}

/// The same pass with a span around every layer call. Returns the pass
/// and the corpus text, which the caller parses once more on its own
/// (outside the pass) to split JSON parsing from ontology building.
fn traced_pass(path: &Path, opts: &BatchOptions, rec: &Recorder, pass: u64) -> (Pass, String, u64) {
    assert_eq!(
        opts.granularity,
        Granularity::Sentences,
        "the traced pass mirrors the sentence-granularity pipeline"
    );
    let t0 = Instant::now();
    let (text, corpus, report) = rec.span("pass", None, pass, |pid| {
        let text = rec.span("io.read", Some(pid), pass, |_| {
            std::fs::read_to_string(path).expect("benchmark corpus reads")
        });
        let corpus = rec.span("corpus_from_json", Some(pid), pass, |_| {
            corpus_from_json(&text).expect("benchmark corpus parses")
        });
        let extractor = rec.span("extract.build", Some(pid), pass, |_| {
            Extractor::from_hierarchy(&corpus.hierarchy)
        });
        rec.span("ontology.index_warm", Some(pid), pass, |_| {
            warm_ancestor_index(&corpus.hierarchy, opts.ancestor_impl)
        });
        let items: Vec<_> = corpus.indexed_items().collect();
        let report = rec.span("items", Some(pid), pass, |items_id| {
            BatchJob::new(&items)
                .jobs(opts.jobs)
                .run(|scratch, _, &(idx, _)| {
                    rec.span("item", Some(items_id), idx as u64, |iid| {
                        traced_item(&corpus, &extractor, opts, scratch, idx, rec, iid)
                    })
                })
        });
        // `summarize_corpus` drops its extractor before returning; the
        // corpus outlives the call, so it is dropped after the pass.
        rec.span("extract.drop", Some(pid), pass, |_| drop(extractor));
        (text, corpus, report)
    });
    let wall_us = t0.elapsed().as_secs_f64() * 1e6;
    let items = corpus.items.len();
    drop(corpus);
    let edges = report.results.iter().map(|r| r.1).sum();
    let output: String = report.results.into_iter().map(|r| r.0).collect();
    (
        Pass {
            items,
            wall_us,
            item_phase_us: report.wall_micros,
            per_item_us: report.per_item_micros,
            failed_items: report.failed.len(),
            output,
        },
        text,
        edges,
    )
}

/// One item through extract → graph → solve → render, each a span.
/// Returns the rendered summary and the coverage graph's edge count.
fn traced_item(
    corpus: &Corpus,
    extractor: &Extractor,
    opts: &BatchOptions,
    scratch: &mut WorkerScratch,
    idx: usize,
    rec: &Recorder,
    parent: u64,
) -> (String, u64) {
    let item = &corpus.items[idx];
    let req = idx as u64;
    let ex = rec.span("extract", Some(parent), req, |_| {
        extractor.extract(item, opts.extract_impl, &mut scratch.extract)
    });
    let graph = rec.span("graph.build", Some(parent), req, |_| {
        CoverageGraph::for_groups_with_ancestor(
            &corpus.hierarchy,
            &ex.pairs,
            &ex.sentence_groups(),
            opts.eps,
            Granularity::Sentences,
            opts.graph_impl,
            opts.ancestor_impl,
            &mut scratch.graph_build,
        )
    });
    let summary = rec.span("solve.greedy", Some(parent), req, |_| {
        opts.algorithm
            .summarizer(item_seed(opts.corpus_seed, req))
            .summarize(&graph, opts.k)
    });
    let summary = ItemSummary {
        item: idx,
        name: item.name.clone(),
        rendered: summary
            .selected
            .iter()
            .map(|&s| ex.sentences[s].text.clone())
            .collect(),
        summary,
        num_pairs: ex.pairs.len(),
        num_candidates: graph.num_candidates(),
        root_cost: graph.root_cost(),
    };
    let text = rec.span("render", Some(parent), req, |_| {
        render_item_summary(&summary)
    });
    (text, graph.num_edges() as u64)
}

/// The `jobs = 1` reference output, cross-checked against
/// `summarize_one` item by item.
pub fn batch_reference(corpus: &Corpus, opts: &BatchOptions, out: &mut Outcome) -> String {
    let serial = BatchOptions {
        jobs: 1,
        ..opts.clone()
    };
    let reference = summarize_corpus(corpus, &serial).render_items();
    let extractor = Extractor::from_hierarchy(&corpus.hierarchy);
    let mut scratch = WorkerScratch::new();
    let one_by_one: String = (0..corpus.items.len())
        .map(|i| {
            let s = summarize_one(corpus, &extractor, &serial, &mut scratch, i, Fault::None)
                .expect("item index in range");
            render_item_summary(&s)
        })
        .collect();
    if one_by_one != reference {
        out.mismatch("summarize_one per item differs from the jobs=1 batch");
    }
    reference
}

/// The summaries decoded from the corpus's compiled artifact, rendered
/// the way `osars summarize --artifacts` does.
pub fn artifact_reference(corpus: &Corpus, opts: &BatchOptions) -> String {
    let extractor = Extractor::from_hierarchy(&corpus.hierarchy);
    let mut scratch = WorkerScratch::new();
    let extracted: Vec<_> = corpus
        .items
        .iter()
        .map(|it| extractor.extract(it, opts.extract_impl, &mut scratch.extract))
        .collect();
    drop(extractor);
    let bytes = osa_artifact::encode(corpus, &extracted);
    drop(extracted);
    let art = osa_artifact::decode(&bytes).expect("freshly encoded artifact decodes");
    warm_ancestor_index(&art.corpus.hierarchy, opts.ancestor_impl);
    let h = &art.corpus.hierarchy;
    art.corpus
        .items
        .iter()
        .zip(art.extracted)
        .enumerate()
        .map(|(idx, (item, ex))| {
            let a = ItemArtifacts::from_extracted(h, opts, item, ex, &mut scratch);
            render_item_summary(&a.summarize(h, opts, idx, item, &mut scratch, None))
        })
        .collect()
}

/// Run passes, cycling over `inputs`, until `seconds` have elapsed and
/// at least `min_passes` ran, checking each pass's output against its
/// input's reference.
fn timed_passes(
    inputs: &[Input],
    seconds: f64,
    min_passes: usize,
    out: &mut Outcome,
    mut pass_fn: impl FnMut(u64, &Input) -> Pass,
) -> Vec<Pass> {
    let start = Instant::now();
    let mut passes = Vec::new();
    while passes.len() < min_passes || start.elapsed().as_secs_f64() < seconds {
        let input = &inputs[passes.len() % inputs.len()];
        let p = pass_fn(passes.len() as u64, input);
        if p.output != input.reference {
            out.mismatch(format!(
                "pass {}: rendered summaries differ from the reference",
                passes.len()
            ));
        }
        passes.push(p);
    }
    passes
}

/// Report the end-to-end metrics of a set of untraced passes.
fn report_passes(passes: &[Pass], op: Op, out: &mut Outcome) {
    let setups: Vec<f64> = passes.iter().map(|p| p.setup_us() / 1e6).collect();
    let rates: Vec<f64> = passes
        .iter()
        .map(|p| (p.items - p.failed_items) as f64 / (p.wall_us / 1e6))
        .collect();
    let per_item_ms: Vec<f64> = passes
        .iter()
        .flat_map(|p| p.per_item_us.iter().map(|us| us / 1e3))
        .collect();
    let attempted = passes.iter().map(|p| p.items as u64).sum::<u64>();
    let failed: u64 = passes.iter().map(|p| p.failed_items as u64).sum();
    out.attempted += attempted;
    out.failed += failed;
    out.put("setup_s", median(&setups), setups.len());
    // The median pass rate, so one disturbed pass does not move it.
    out.put("items_per_s", median(&rates), passes.len());
    let walls_ms: Vec<f64> = passes.iter().map(|p| p.wall_us / 1e3).collect();
    let ops = match op {
        Op::Item => &per_item_ms,
        Op::Pass => &walls_ms,
    };
    out.put("op_p50_ms", median(ops), ops.len());
    out.put("item_p50_ms", median(&per_item_ms), per_item_ms.len());
    out.put(
        "item_p95_ms",
        percentile(&per_item_ms, 0.95),
        per_item_ms.len(),
    );
    out.put(
        "failed_frac",
        Some(failed as f64 / attempted.max(1) as f64),
        attempted as usize,
    );
    out.put("peak_rss_mb", peak_rss_mb(), 1);
    let (min, max) = walls_ms
        .iter()
        .fold((f64::INFINITY, 0.0f64), |(lo, hi), &w| {
            (lo.min(w), hi.max(w))
        });
    out.notes.push(format!(
        "{} passes, wall ms min {min:.1} median {:.1} max {max:.1}",
        walls_ms.len(),
        median(&walls_ms).unwrap_or(0.0),
    ));
}

/// Shape of a boot workload run.
#[derive(Debug, Clone, Copy)]
pub struct Spec {
    /// Measured seconds and the least number of timed passes.
    pub seconds: f64,
    pub min_passes: usize,
    pub traced: bool,
    /// The unit of work `op_p50_ms` times.
    pub op: Op,
}

/// What one operation of a boot workload is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    /// One item inside a pass: the batch view.
    Item,
    /// One whole pass: the cold-start view, where boot is the work.
    Pass,
}

/// Drive a boot workload: one untimed warm-up pass per input, then
/// timed passes that cycle over the inputs. Untraced, every second of
/// the run is measured. Traced, the first half measures untraced passes
/// (for the overhead baseline and the end-to-end lines) and the second
/// half traced ones.
pub fn run(inputs: &[Input], opts: &BatchOptions, spec: &Spec, out: &mut Outcome) {
    let Spec {
        seconds,
        min_passes,
        traced,
        op,
    } = *spec;
    // The peak covers the passes, not the references built before them.
    reset_peak_rss();
    for input in inputs {
        if untraced_pass(&input.path, opts).output != input.reference {
            out.mismatch("warm-up pass: rendered summaries differ from the reference");
        }
    }
    let untraced_s = if traced { seconds / 2.0 } else { seconds };
    let plain = timed_passes(inputs, untraced_s, min_passes, out, |_, input| {
        untraced_pass(&input.path, opts)
    });
    report_passes(&plain, op, out);
    if !traced {
        return;
    }

    let rec = Recorder::default();
    let mut parse_us = Vec::new();
    let mut parse_mb_per_s = Vec::new();
    let mut edges = Vec::new();
    let mut reviews = 0;
    let traced_passes = timed_passes(inputs, seconds / 2.0, 1, out, |i, input| {
        let (p, text, e) = traced_pass(&input.path, opts, &rec, i);
        edges.push(e);
        reviews += input.reviews;
        // Parse the same text once more, outside the pass, so ontology
        // building can be told apart from JSON parsing.
        let t = Instant::now();
        std::hint::black_box(osa_json::parse(&text).expect("corpus text parses"));
        let us = t.elapsed().as_secs_f64() * 1e6;
        parse_us.push(us);
        parse_mb_per_s.push(text.len() as f64 / us);
        p
    });
    let spans = rec.spans();
    let n_passes = traced_passes.len();
    let per = |name: &str| spans::durations_us(&spans, name);
    let med = |name: &str| median(&per(name));
    let parse_med = median(&parse_us);
    out.put("json.parse_ms", parse_med.map(|u| u / 1e3), parse_us.len());
    out.put(
        "json.parse_mb_per_s",
        median(&parse_mb_per_s),
        parse_mb_per_s.len(),
    );
    out.put(
        "ontology.build_ms",
        med("corpus_from_json")
            .zip(parse_med)
            .map(|(c, p)| (c - p) / 1e3),
        n_passes,
    );
    out.put(
        "ontology.index_warm_ms",
        med("ontology.index_warm").map(|u| u / 1e3),
        n_passes,
    );
    out.put(
        "extract.build_ms",
        med("extract.build").map(|u| u / 1e3),
        n_passes,
    );
    let extract = per("extract");
    out.put("extract.item_us", mean(&extract), extract.len());
    out.put(
        "extract.item_p95_us",
        percentile(&extract, 0.95),
        extract.len(),
    );
    out.put(
        "extract.reviews_per_s",
        Some(reviews as f64 / (extract.iter().sum::<f64>() / 1e6)),
        extract.len(),
    );
    let graph = per("graph.build");
    out.put("graph.build_us", mean(&graph), graph.len());
    out.put("graph.build_p95_us", percentile(&graph, 0.95), graph.len());
    out.put("graph.edges", edges.first().map(|&e| e as f64), edges.len());
    let solve = per("solve.greedy");
    out.put("solve.greedy_us", mean(&solve), solve.len());
    let render = per("render");
    out.put("render.item_us", mean(&render), render.len());
    let item_sum: f64 = per("item").iter().sum();
    let phase_sum: f64 = per("items").iter().sum();
    out.put(
        "runtime.busy_frac",
        Some(item_sum / (phase_sum * opts.jobs.max(1) as f64)),
        n_passes,
    );
    // Traced against untraced passes over the same input, then the
    // median over inputs: pass `i` of either half ran input `i mod n`.
    let wall_of = |passes: &[Pass], j: usize| {
        let walls: Vec<f64> = passes
            .iter()
            .skip(j)
            .step_by(inputs.len())
            .map(|p| p.wall_us)
            .collect();
        median(&walls)
    };
    let ratios: Vec<f64> = (0..inputs.len())
        .filter_map(|j| Some(wall_of(&traced_passes, j)? / wall_of(&plain, j)?))
        .collect();
    out.put(
        "trace.overhead_pct",
        median(&ratios).map(|r| 100.0 * (r - 1.0)),
        n_passes,
    );
    let coverage = spans::leaf_coverage(&spans);
    out.put(
        "trace.coverage_pct",
        coverage.iter().copied().reduce(f64::min).map(|c| 100.0 * c),
        coverage.len(),
    );
    out.spans = spans;
}

#[cfg(test)]
mod tests {
    use super::*;
    use osa_datasets::{save_corpus, CorpusConfig};

    #[test]
    fn a_corrupted_batch_output_fails_the_check() {
        let cfg = CorpusConfig {
            items: 3,
            min_reviews: 4,
            max_reviews: 8,
            mean_reviews: 6.0,
            ..CorpusConfig::doctors_small()
        };
        let corpus = Corpus::doctors(&cfg, 5);
        let dir = crate::report::work_dir();
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(format!("batch-unit-{}.json", std::process::id()));
        save_corpus(&corpus, &path).unwrap();
        let opts = BatchOptions {
            jobs: 2,
            ..BatchOptions::default()
        };
        let spec = Spec {
            seconds: 0.0,
            min_passes: 1,
            traced: true,
            op: Op::Item,
        };
        let mut clean = Outcome::default();
        let mut input = Input {
            reference: batch_reference(&corpus, &opts, &mut clean),
            path: path.clone(),
            items: corpus.items.len(),
            reviews: corpus.total_reviews(),
        };
        run(std::slice::from_ref(&input), &opts, &spec, &mut clean);
        assert!(clean.correct(), "{:?}", clean.mismatches);

        let corrupted = input.reference.replacen("cost", "kost", 1);
        assert_ne!(corrupted, input.reference);
        input.reference = corrupted;
        let mut bad = Outcome::default();
        run(&[input], &opts, &spec, &mut bad);
        std::fs::remove_file(&path).unwrap();
        assert!(
            !bad.correct(),
            "a corrupted batch output must fail the check"
        );
    }
}
