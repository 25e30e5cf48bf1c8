//! Coverage-graph construction shoot-out: the naive §4.1 builder vs the
//! ancestor-index + sorted-window builder (with scratch reuse), over
//! growing pair counts on the synthetic 3000-node multi-parent ontology.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use osa_bench::quant_workload;
use osa_core::{Candidates, CoverageGraph, GraphBuildScratch, GraphImpl};
use osa_ontology::AncestorImpl;

fn bench_graph_build(c: &mut Criterion) {
    let mut group = c.benchmark_group("graph_build/for_pairs");
    for &n in &[100usize, 400, 1600] {
        let w = quant_workload(1, n, 13);
        let item = &w.items[0];
        // Warm the shared ancestor index so the indexed timings measure
        // the build, not the one-off closure construction.
        let _ = w.hierarchy.ancestor_index();
        for imp in [GraphImpl::Naive, GraphImpl::Indexed] {
            group.bench_with_input(BenchmarkId::new(imp.name(), n), &n, |b, _| {
                let mut scratch = GraphBuildScratch::new();
                b.iter(|| {
                    CoverageGraph::build(
                        &w.hierarchy,
                        &item.pairs,
                        Candidates::Pairs,
                        0.5,
                        imp,
                        AncestorImpl::Dense,
                        &mut scratch,
                    )
                });
            });
        }
    }
    group.finish();
}

criterion_group!(benches, bench_graph_build);
criterion_main!(benches);
