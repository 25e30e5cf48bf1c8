//! `exact-fig4`: the paper's Fig. 4/5 instances solved by ILP, RR and
//! greedy at k = 5, ε = 0.5, over the pairs, sentences and reviews
//! variants of fig4_5's synthetic doctor pair sets.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;

use osa_bench::{BenchItem, QuantWorkload};
use osa_core::{
    CoverageGraph, Granularity, GreedySummarizer, IlpSummarizer, RandomizedRounding, Summarizer,
};
use osa_datasets::{sample_grouped_pairs, synthetic_ontology, SyntheticOntologyConfig};
use osa_runtime::item_seed;
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::report::{peak_rss_mb, Outcome};
use crate::spans::{self, traced, Recorder};
use crate::stats::{mean, median, percentile};

const K: usize = 5;
const EPS: f64 = 0.5;
const MEAN_PAIRS: usize = 60;
/// fig4_5's seed, which fixes its ontology.
const ONTOLOGY_SEED: u64 = 42;
const SETUPS: usize = 5;
const GRANULARITIES: [Granularity; 3] = [
    Granularity::Pairs,
    Granularity::Sentences,
    Granularity::Reviews,
];

/// The costs the three algorithms reached on one instance.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Costs {
    ilp: u64,
    rr: u64,
    greedy: u64,
}

/// fig4_5's workload (`osa_bench::quant_workload`), with the ontology
/// fixed at fig4_5's own seed and only the items drawn from `seed`: the
/// paper runs every item against one ontology, as production does.
fn fig4_workload(items: usize, seed: u64) -> QuantWorkload {
    let hierarchy = synthetic_ontology(&SyntheticOntologyConfig::default(), ONTOLOGY_SEED);
    let mut rng = StdRng::seed_from_u64(seed);
    // Stratified shapes: every stretch of items spans fig4_5's ranges of
    // pair count (mean ± half) and cluster count (2–5) evenly, so the
    // prefix a run solves has the same mix of sizes whatever the seed.
    // The seed picks the concepts and sentiments.
    let span = MEAN_PAIRS + 1;
    let items = (0..items)
        .map(|i| {
            let n = MEAN_PAIRS / 2 + (i * 37) % span;
            let clusters = 2 + i % 4;
            let (pairs, sentence_groups, review_groups) =
                sample_grouped_pairs(&hierarchy, n, clusters, 5, &mut rng);
            BenchItem {
                pairs,
                sentence_groups,
                review_groups,
            }
        })
        .collect();
    QuantWorkload { hierarchy, items }
}

/// Generate `items` fig4_5 items and build their three graphs each.
fn instances(items: usize, seed: u64, rec: Option<&Recorder>) -> Vec<CoverageGraph> {
    let w = traced(rec, "instances.generate", None, 0, |_| {
        fig4_workload(items, seed)
    });
    let mut out = Vec::with_capacity(items * GRANULARITIES.len());
    for (i, item) in w.items.iter().enumerate() {
        for g in GRANULARITIES {
            let graph = traced(rec, "graph.build", None, i as u64, |_| {
                item.graph(&w.hierarchy, EPS, g)
            });
            out.push(graph);
        }
    }
    out
}

/// Solve one instance with all three algorithms; returns the costs and
/// the instance latency in microseconds.
fn solve(g: &CoverageGraph, idx: usize, seed: u64, rec: Option<&Recorder>) -> (Costs, f64) {
    let t = Instant::now();
    let req = idx as u64;
    let costs = traced(rec, "instance", None, req, |p| {
        let ilp = traced(rec, "solve.ilp", p, req, |_| IlpSummarizer.summarize(g, K));
        let rr = traced(rec, "solve.rr", p, req, |_| {
            RandomizedRounding::with_seed(item_seed(seed, req)).summarize(g, K)
        });
        let greedy = traced(rec, "solve.greedy", p, req, |_| {
            GreedySummarizer.summarize(g, K)
        });
        Costs {
            ilp: ilp.cost,
            rr: rr.cost,
            greedy: greedy.cost,
        }
    });
    (costs, t.elapsed().as_secs_f64() * 1e6)
}

/// Solve `insts` in order (wrapping around) on `jobs` workers that each
/// take the next unsolved instance, until `seconds` have elapsed and at
/// least `min_solved` are done. No worker waits for another, so a heavy
/// instance holds up only its own worker. Returns per-instance costs and
/// latencies (µs) in instance order, and the wall time in seconds.
fn solve_for(
    insts: &[CoverageGraph],
    seed: u64,
    jobs: usize,
    seconds: f64,
    min_solved: usize,
    rec: Option<&Recorder>,
) -> (Vec<Costs>, Vec<f64>, f64) {
    let next = AtomicUsize::new(0);
    let start = Instant::now();
    // A worker tests the stop condition before it claims an instance
    // and solves every instance it claims, so the solved instances are
    // exactly the claims, a prefix of the instance order.
    let mut solved: Vec<(usize, Costs, f64)> = std::thread::scope(|s| {
        let workers: Vec<_> = (0..jobs.max(1))
            .map(|_| {
                s.spawn(|| {
                    let mut done = Vec::new();
                    loop {
                        if next.load(Ordering::Relaxed) >= min_solved
                            && start.elapsed().as_secs_f64() >= seconds
                        {
                            break done;
                        }
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        let (c, us) = solve(&insts[i % insts.len()], i, seed, rec);
                        done.push((i, c, us));
                    }
                })
            })
            .collect();
        workers
            .into_iter()
            .flat_map(|w| w.join().expect("exact worker panicked"))
            .collect()
    });
    let wall = start.elapsed().as_secs_f64();
    solved.sort_by_key(|r| r.0);
    assert!(
        solved.iter().enumerate().all(|(k, r)| r.0 == k),
        "solved instances form a prefix"
    );
    let (costs, lat) = solved.into_iter().map(|(_, c, us)| (c, us)).unzip();
    (costs, lat, wall)
}

/// Check that the ILP cost is no higher than greedy or RR anywhere.
fn check_costs(costs: &[Costs], out: &mut Outcome) {
    for (i, c) in costs.iter().enumerate() {
        if c.ilp > c.greedy || c.ilp > c.rr {
            out.mismatch(format!(
                "instance {i}: ILP cost {} exceeds greedy {} or RR {}",
                c.ilp, c.greedy, c.rr
            ));
        }
    }
}

/// Mean cost excess of greedy and of RR over ILP, in percent, over the
/// instances with a positive optimum.
fn gaps(costs: &[Costs]) -> (f64, f64) {
    let mut greedy_gap = Vec::new();
    let mut rr_gap = Vec::new();
    for c in costs {
        if c.ilp > 0 {
            greedy_gap.push(100.0 * (c.greedy as f64 - c.ilp as f64) / c.ilp as f64);
            rr_gap.push(100.0 * (c.rr as f64 - c.ilp as f64) / c.ilp as f64);
        }
    }
    (
        mean(&greedy_gap).unwrap_or(0.0),
        mean(&rr_gap).unwrap_or(0.0),
    )
}

/// Run the workload over a pool of `items` fig4_5 items (three
/// instances each). Set-up (generating the pool and its graphs) repeats
/// `SETUPS` times. The timed phase then solves the pool in order for
/// `seconds`: a run measures many distinct instances, so the
/// heavy-tailed ILP times of a few do not decide the result. The gaps are
/// read over the first `gap_instances`, which every run solves.
pub fn run(
    items: usize,
    gap_instances: usize,
    seed: u64,
    jobs: usize,
    seconds: f64,
    traced_run: bool,
    out: &mut Outcome,
) {
    let mut setup_s = Vec::new();
    let mut insts = Vec::new();
    for _ in 0..SETUPS {
        let t = Instant::now();
        insts = instances(items, seed, None);
        setup_s.push(t.elapsed().as_secs_f64());
    }
    out.fact("pool_items", items);
    out.fact("pool_instances", insts.len());
    out.fact("mean_pairs", MEAN_PAIRS);
    out.fact("concepts", SyntheticOntologyConfig::default().nodes);

    let untraced_s = if traced_run { seconds / 2.0 } else { seconds };
    let (costs, lat_us, wall) = solve_for(&insts, seed, jobs, untraced_s, gap_instances, None);
    check_costs(&costs, out);
    let (greedy_gap, rr_gap) = gaps(&costs[..gap_instances]);
    let lat_ms: Vec<f64> = lat_us.iter().map(|us| us / 1e3).collect();
    let solved = costs.len();
    out.attempted += solved as u64;
    out.fact("instances_solved", solved);
    out.put("setup_s", median(&setup_s), setup_s.len());
    out.put("items_per_s", Some(solved as f64 / wall), solved);
    out.put("op_p50_ms", median(&lat_ms), solved);
    out.put("item_p50_ms", median(&lat_ms), solved);
    out.put("item_p95_ms", percentile(&lat_ms, 0.95), solved);
    out.put("failed_frac", Some(0.0), solved);
    out.put("greedy_gap_pct", Some(greedy_gap), gap_instances);
    out.put("rr_gap_pct", Some(rr_gap), gap_instances);
    out.put("peak_rss_mb", peak_rss_mb(), 1);
    if !traced_run {
        return;
    }

    let rec = Recorder::default();
    let obs = osa_obs::global();
    obs.set_enabled(true);
    // Primal and dual simplex publish their pivots under two names.
    const COUNTERS: [&str; 4] = [
        "solver.simplex_pivots",
        "solver.dual_pivots",
        "solver.bb_nodes",
        "solver.bb_pruned",
    ];
    let counter = |name: &str| obs.counter(name).get();
    let before = COUNTERS.map(counter);
    let traced_insts = instances(items, seed, Some(&rec));
    let (t_costs, t_lat_us, _) = solve_for(&traced_insts, seed, jobs, seconds / 2.0, 1, Some(&rec));
    obs.set_enabled(false);
    let after = COUNTERS.map(counter);
    let common = t_costs.len().min(costs.len());
    if t_costs[..common] != costs[..common] {
        out.mismatch("traced costs differ from the untraced costs");
    }
    let solved = t_costs.len() as f64;
    let spans = rec.spans();
    let per = |name: &str| spans::durations_us(&spans, name);
    let ilp_ms: Vec<f64> = per("solve.ilp").iter().map(|u| u / 1e3).collect();
    let graph = per("graph.build");
    out.put("graph.build_us", mean(&graph), graph.len());
    out.put("graph.build_p95_us", percentile(&graph, 0.95), graph.len());
    out.put(
        "graph.edges",
        Some(
            traced_insts
                .iter()
                .map(CoverageGraph::num_edges)
                .sum::<usize>() as f64,
        ),
        traced_insts.len(),
    );
    out.put("solve.ilp_ms", mean(&ilp_ms), ilp_ms.len());
    out.put("solve.ilp_p95_ms", percentile(&ilp_ms, 0.95), ilp_ms.len());
    let rr = per("solve.rr");
    out.put("solve.rr_ms", mean(&rr).map(|u| u / 1e3), rr.len());
    let greedy = per("solve.greedy");
    out.put("solve.greedy_us", mean(&greedy), greedy.len());
    let delta = |i: usize| (after[i] - before[i]) as f64;
    let (pivots, nodes, pruned) = (delta(0) + delta(1), delta(2), delta(3));
    out.put(
        "solver.simplex_pivots",
        Some(pivots / solved),
        solved as usize,
    );
    out.put("solver.bb_nodes", Some(nodes / solved), solved as usize);
    out.put(
        "solver.bb_pruned_frac",
        Some(if nodes > 0.0 { pruned / nodes } else { 0.0 }),
        solved as usize,
    );
    // Same instances on both sides: the common prefix of the two phases.
    let sum = |v: &[f64]| v[..common].iter().sum::<f64>();
    out.put(
        "trace.overhead_pct",
        Some(100.0 * (sum(&t_lat_us) / sum(&lat_us) - 1.0)),
        common,
    );
    out.spans = spans;
}
