//! Workload catalogue and the runner that runs one workload, prints its
//! report and writes its results and trace files.

use std::path::PathBuf;

use osa_datasets::{huge_corpus, save_corpus, Corpus, CorpusConfig, SyntheticOntologyConfig};
use osa_runtime::BatchOptions;

use crate::report::{cpu_ticks, git_rev, work_dir, Outcome};
use crate::{boot, exact, serve, spans};

/// Workload names. Keep them stable: results are compared by name.
pub const NAMES: [&str; 4] = ["batch-large", "cold-huge", "serve-mixed", "exact-fig4"];

/// Why each workload is in the benchmark.
pub fn why(workload: &str) -> &'static str {
    match workload {
        "batch-large" => "per-item pipeline (extract, graph, solve) over four 120-item doctors-large corpora on the small hand-built hierarchy; boot is cheap",
        "cold-huge" => "repeated cold boots of the 300k-concept corpus: JSON parse, hierarchy build and extractor build dominate, items are 1%",
        "serve-mixed" => "artifact-booted daemon under open- and closed-loop Zipf reads and appends: cache, admission queue, lazy decode, incremental update",
        "exact-fig4" => "the paper's Fig. 4/5 instances: ILP and RR against greedy, the only workload the simplex and branch and bound run on",
        _ => unreachable!("workload names are validated"),
    }
}

/// Input size: `Full` is the benchmark; `Tiny` runs every workload in
/// seconds for the benchmark's own tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Size {
    Full,
    Tiny,
}

#[derive(Debug, Clone)]
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub traced: bool,
    pub size: Size,
}

/// Corpora a batch-large run cycles its passes over.
const BATCH_CORPORA: usize = 4;

fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

fn tiny_ontology() -> SyntheticOntologyConfig {
    SyntheticOntologyConfig {
        nodes: 3000,
        levels: 7,
        multi_parent_prob: 0.15,
    }
}

fn tiny_items(items: usize) -> CorpusConfig {
    CorpusConfig {
        items,
        min_reviews: 5,
        max_reviews: 12,
        mean_reviews: 8.0,
        ..CorpusConfig::doctors_small()
    }
}

fn describe(corpus: &Corpus, out: &mut Outcome) {
    out.fact("items", corpus.items.len());
    out.fact("reviews", corpus.total_reviews());
    out.fact("concepts", corpus.hierarchy.node_count());
}

/// A file in the work directory private to this process.
fn scratch_file(name: &str, ext: &str) -> PathBuf {
    work_dir().join(format!("{name}-{}.{ext}", std::process::id()))
}

/// Removes the generated input files when the run ends, however it ends.
struct Cleanup(Vec<PathBuf>);

impl Drop for Cleanup {
    fn drop(&mut self) {
        for p in &self.0 {
            let _ = std::fs::remove_file(p);
        }
    }
}

/// Run one workload and print its report. Returns whether every output
/// check passed.
pub fn run(args: &Args) -> Result<bool, String> {
    let jobs = nproc();
    let tiny = args.size == Size::Tiny;
    let dir = work_dir();
    std::fs::create_dir_all(dir.join("results"))
        .map_err(|e| format!("creating {}: {e}", dir.display()))?;
    std::fs::create_dir_all(dir.join("traces"))
        .map_err(|e| format!("creating {}: {e}", dir.display()))?;
    let mut out = Outcome::default();
    out.fact("seed", args.seed);
    out.fact("size", if tiny { "tiny" } else { "full" });
    out.fact("nproc", jobs);
    out.fact("git_rev", git_rev());
    out.fact("seconds", args.seconds);
    let ticks_before = cpu_ticks();
    let mut cleanup = Cleanup(Vec::new());
    let opts = BatchOptions {
        jobs,
        ..BatchOptions::default()
    };

    match args.workload.as_str() {
        name @ ("batch-large" | "cold-huge") => {
            // batch-large cycles its passes over several corpora: how fast
            // a doctors-large corpus summarizes varies with its seed, and
            // more corpora per run narrow that spread between runs.
            let corpora = if name == "batch-large" {
                BATCH_CORPORA
            } else {
                1
            };
            let mut inputs = Vec::new();
            for j in 0..corpora {
                let seed = args
                    .seed
                    .wrapping_mul(corpora as u64)
                    .wrapping_add(j as u64);
                let corpus = match (name, tiny) {
                    ("batch-large", false) => Corpus::doctors(&CorpusConfig::doctors_large(), seed),
                    ("batch-large", true) => Corpus::doctors(&tiny_items(6), seed),
                    (_, false) => huge_corpus("doctors", seed),
                    (_, true) => serve::ontology_corpus(&tiny_ontology(), &tiny_items(4), seed),
                };
                let path = scratch_file(&format!("{name}-{j}"), "json");
                cleanup.0.push(path.clone());
                save_corpus(&corpus, &path)
                    .map_err(|e| format!("writing {}: {e}", path.display()))?;
                inputs.push(boot::Input {
                    reference: match name {
                        "batch-large" => boot::batch_reference(&corpus, &opts, &mut out),
                        _ => boot::artifact_reference(&corpus, &opts),
                    },
                    path,
                    items: corpus.items.len(),
                    reviews: corpus.total_reviews(),
                });
                if j == 0 {
                    out.fact("concepts", corpus.hierarchy.node_count());
                }
            }
            out.fact("corpora", corpora);
            out.fact("items", inputs.iter().map(|i| i.items).sum::<usize>());
            out.fact("reviews", inputs.iter().map(|i| i.reviews).sum::<usize>());
            let spec = boot::Spec {
                seconds: args.seconds,
                min_passes: if tiny { 1 } else { 3 },
                traced: args.traced,
                op: match name {
                    "batch-large" => boot::Op::Item,
                    _ => boot::Op::Pass,
                },
            };
            boot::run(&inputs, &opts, &spec, &mut out);
        }
        "serve-mixed" => {
            let generate = || match tiny {
                false => serve::ontology_corpus(
                    &SyntheticOntologyConfig::huge(),
                    &CorpusConfig::doctors_large(),
                    args.seed,
                ),
                true => serve::ontology_corpus(&tiny_ontology(), &tiny_items(10), args.seed),
            };
            let corpus = generate();
            describe(&corpus, &mut out);
            let path = scratch_file("serve-mixed", "osar");
            cleanup.0.push(path.clone());
            serve::compile_artifact(&corpus, &path)?;
            let spec = serve::Spec {
                seconds: args.seconds,
                rates: if tiny {
                    [40.0, 80.0, 160.0]
                } else {
                    [300.0, 1200.0, 2400.0]
                },
                conns: jobs,
                traced: args.traced,
            };
            serve::run(corpus, generate, &path, args.seed, &spec, &mut out);
        }
        "exact-fig4" => {
            // Items per pool and instances the gaps are read over; the
            // pool holds more than a run solves.
            let (items, gap_instances) = if tiny { (4, 6) } else { (1200, 120) };
            exact::run(
                items,
                gap_instances,
                args.seed,
                jobs,
                args.seconds,
                args.traced,
                &mut out,
            );
        }
        _ => unreachable!("workload names are validated"),
    }

    if let (Some((s0, t0)), Some((s1, t1))) = (ticks_before, cpu_ticks()) {
        let share = 100.0 * (s1 - s0) as f64 / (t1 - t0).max(1) as f64;
        out.fact("cpu_steal_pct", format!("{share:.2}"));
    }
    for (k, v) in &out.provenance {
        println!("provenance {k} = {v}");
    }
    for line in out.lines(args.traced) {
        println!("{line}");
    }
    if args.traced {
        let mut self_ms: Vec<(&str, f64)> = spans::self_time_ns(&out.spans)
            .into_iter()
            .map(|(name, ns)| (name, ns as f64 / 1e6))
            .collect();
        self_ms.sort_by(|a, b| b.1.total_cmp(&a.1));
        for (name, ms) in self_ms {
            println!("selftime {name} = {ms:.3} ms");
        }
    }
    for note in &out.notes {
        println!("note {note}");
    }
    for m in &out.mismatches {
        println!("check FAILED: {m}");
    }
    println!(
        "check {}: {} attempted, {} failed, {} output mismatches",
        if out.correct() { "passed" } else { "FAILED" },
        out.attempted,
        out.failed,
        out.mismatches.len()
    );
    let tag = format!(
        "{}-seed{}-trace{}",
        args.workload,
        args.seed,
        u8::from(args.traced)
    );
    let results = dir.join("results").join(format!("{tag}.json"));
    std::fs::write(
        &results,
        out.results_json(&args.workload, why(&args.workload), args.seed, args.traced),
    )
    .map_err(|e| format!("writing {}: {e}", results.display()))?;
    if args.traced {
        let trace = dir.join("traces").join(format!("{tag}.json"));
        std::fs::write(&trace, spans::to_json(&out.spans))
            .map_err(|e| format!("writing {}: {e}", trace.display()))?;
        println!("spans {} written to {}", out.spans.len(), trace.display());
    }
    println!("results written to {}", results.display());
    println!("{}", out.final_json(args.traced));
    Ok(out.correct())
}
