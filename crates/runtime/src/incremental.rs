//! Per-item incremental pipeline artifacts — the runtime layer of
//! "`POST /reviews` without the full rebuild".
//!
//! An [`ItemArtifacts`] caches, for one corpus item, everything the
//! per-item pipeline computes that can be **extended** instead of
//! rebuilt when reviews are appended (or truncated when trailing
//! reviews are retracted):
//!
//! * the interned extraction ([`ExtractedItem`]) — an append
//!   re-extracts only the new reviews
//!   ([`osa_datasets::extract_append`]),
//! * the sentiment-sorted [`GraphBuildPlan`] buckets and the full-range
//!   [`GraphShard`] — an append merges the new pairs' bucket runs and
//!   re-resolves only the rows whose ancestor closure touches a grown
//!   bucket ([`GraphBuildPlan::append`] /
//!   [`GraphBuildPlan::shard_append`]),
//! * the exact CELF initial-gain vector — maintained by exact
//!   subtract/add arithmetic over the recomputed rows
//!   ([`GraphBuildPlan::warm_keys`]), so
//!   [`LazyGreedySummarizer::summarize_seeded`] warm-starts the lazy
//!   heap and still selects byte-identically to a cold run.
//!
//! Every update path is **byte-identical** to rebuilding from scratch —
//! the property the `osa-check --edits` differential oracle enforces
//! over seeded random edit scripts. Graph artifacts are kept for the
//! indexed builder at sentence/review granularity (the serving
//! default); every other `(granularity, graph-impl)` signature falls
//! back to a fresh graph build from the cached extraction, which is
//! still sublinear in corpus size because only the edited item is
//! touched.

use std::borrow::Cow;

use osa_core::{
    CoverageGraph, Granularity, GraphBuildPlan, GraphImpl, GraphShard, LazyGreedySummarizer,
};
use osa_datasets::{extract_append, extract_truncate, ExtractedItem, Extractor, Item};
use osa_ontology::Hierarchy;

use crate::{item_groups, summarize_item, BatchOptions, Fault, ItemSummary, WorkerScratch};

/// Cached per-item pipeline state, valid for one `(item, revision)` and
/// one graph signature (`eps`, granularity, indexed builder). Build one
/// with [`ItemArtifacts::build`], advance it with
/// [`ItemArtifacts::update`] after an edit, and answer requests with
/// [`ItemArtifacts::summarize`].
#[derive(Debug, Clone)]
pub struct ItemArtifacts {
    /// Number of reviews the cached extraction covers.
    reviews: usize,
    /// Full extraction of those reviews (impl-invariant bytes).
    extracted: ExtractedItem,
    /// Mergeable graph state for the signature it was built under.
    graph: Option<GraphArtifacts>,
}

/// The mergeable coverage-graph state: the plan (sorted CSR buckets),
/// the full-range shard (per-pair edge runs), and the exact CELF
/// initial-gain vector.
#[derive(Debug, Clone)]
pub(crate) struct GraphArtifacts {
    eps: f64,
    granularity: Granularity,
    plan: GraphBuildPlan,
    shard: GraphShard,
    keys: Vec<u64>,
}

impl GraphArtifacts {
    fn matches(&self, opts: &BatchOptions) -> bool {
        self.eps.to_bits() == opts.eps.to_bits() && self.granularity == opts.granularity
    }

    /// The coverage graph these artifacts describe — equal to a fresh build.
    pub(crate) fn assemble(&self) -> CoverageGraph {
        let shard = std::slice::from_ref(&self.shard);
        CoverageGraph::assemble(&self.plan, self.granularity, None, shard)
    }

    /// The exact CELF initial-gain vector of [`assemble`](Self::assemble)'s graph.
    pub(crate) fn keys(&self) -> &[u64] {
        &self.keys
    }
}

/// Graph artifacts are cached for the signatures the incremental merge
/// supports: the indexed builder at group granularity. `Pairs`
/// granularity compresses duplicates into weights (an append can grow
/// an *existing* pair's weight, so the pair list is not append-only),
/// and the naive builder is the oracle the deltas are tested against.
fn graph_eligible(opts: &BatchOptions) -> bool {
    opts.graph_impl == GraphImpl::Indexed && opts.granularity != Granularity::Pairs
}

fn groups_of(ex: &ExtractedItem, granularity: Granularity) -> Vec<Vec<usize>> {
    item_groups(ex, granularity).expect("pairs granularity caches no graph artifacts")
}

impl ItemArtifacts {
    /// Build artifacts for `item` from scratch under `opts`.
    pub fn build(
        hierarchy: &Hierarchy,
        extractor: &Extractor,
        opts: &BatchOptions,
        item: &Item,
        scratch: &mut WorkerScratch,
    ) -> Self {
        let extracted = extractor.extract(item, opts.extract_impl, &mut scratch.extract);
        Self::from_extracted(hierarchy, opts, item, extracted, scratch)
    }

    /// Build artifacts from an **already extracted** item — the artifact
    /// cold-boot path: `osars serve --artifacts` deserializes every
    /// item's `ExtractedItem` from the compiled store and seeds the
    /// per-item caches without re-running extraction (extraction is the
    /// dominant boot cost; this is what makes an artifact boot I/O-bound).
    /// `extracted` must be the full extraction of `item.reviews` —
    /// extraction bytes are impl-invariant, so artifacts written by either
    /// extract impl are valid seeds.
    pub fn from_extracted(
        hierarchy: &Hierarchy,
        opts: &BatchOptions,
        item: &Item,
        extracted: ExtractedItem,
        scratch: &mut WorkerScratch,
    ) -> Self {
        let graph = Self::fresh_graph(hierarchy, &extracted, opts, scratch);
        ItemArtifacts {
            reviews: item.reviews.len(),
            extracted,
            graph,
        }
    }

    fn fresh_graph(
        hierarchy: &Hierarchy,
        ex: &ExtractedItem,
        opts: &BatchOptions,
        scratch: &mut WorkerScratch,
    ) -> Option<GraphArtifacts> {
        if !graph_eligible(opts) {
            return None;
        }
        let groups = groups_of(ex, opts.granularity);
        let plan = GraphBuildPlan::new(
            hierarchy,
            &ex.pairs,
            Some(&groups),
            opts.eps,
            opts.ancestor_impl,
        );
        let shard = plan.shard(
            hierarchy,
            &ex.pairs,
            0..ex.pairs.len(),
            &mut scratch.graph_build,
        );
        let graph =
            CoverageGraph::assemble(&plan, opts.granularity, None, std::slice::from_ref(&shard));
        let keys = LazyGreedySummarizer::initial_keys(&graph);
        Some(GraphArtifacts {
            eps: opts.eps,
            granularity: opts.granularity,
            plan,
            shard,
            keys,
        })
    }

    /// Advance the artifacts after an edit to `item`.
    ///
    /// Contract: the surviving prefix of reviews is unchanged — either
    /// reviews were **appended** (`item.reviews.len() >= self.reviews`,
    /// the first `self.reviews` identical) or trailing reviews were
    /// **retracted** (`item.reviews.len() < self.reviews`, all
    /// remaining identical). Appends re-extract only the new reviews
    /// and merge the graph state; retractions truncate the extraction
    /// and rebuild the (single-item) graph state fresh.
    pub fn update(
        &self,
        hierarchy: &Hierarchy,
        extractor: &Extractor,
        opts: &BatchOptions,
        item: &Item,
        scratch: &mut WorkerScratch,
    ) -> Self {
        if item.reviews.len() < self.reviews {
            let extracted = extract_truncate(&self.extracted, item.reviews.len());
            let graph = Self::fresh_graph(hierarchy, &extracted, opts, scratch);
            return ItemArtifacts {
                reviews: item.reviews.len(),
                extracted,
                graph,
            };
        }
        let extracted = extract_append(extractor, &self.extracted, item, self.reviews);
        let graph = match &self.graph {
            Some(prev) if graph_eligible(opts) && prev.matches(opts) => {
                let groups = groups_of(&extracted, opts.granularity);
                let (plan, delta) = prev.plan.append(hierarchy, &extracted.pairs, Some(&groups));
                let (shard, recomputed) = plan.shard_append(
                    hierarchy,
                    &extracted.pairs,
                    &prev.shard,
                    &delta,
                    &mut scratch.graph_build,
                );
                let keys =
                    plan.warm_keys(&prev.keys, &prev.shard, &shard, &recomputed, &delta, None);
                Some(GraphArtifacts {
                    eps: opts.eps,
                    granularity: opts.granularity,
                    plan,
                    shard,
                    keys,
                })
            }
            _ => Self::fresh_graph(hierarchy, &extracted, opts, scratch),
        };
        ItemArtifacts {
            reviews: item.reviews.len(),
            extracted,
            graph,
        }
    }

    /// Summarize `item` from the cached artifacts. Byte-identical to
    /// [`summarize_one`](crate::summarize_one) with [`Fault::None`] for
    /// the same `(hierarchy, opts)`: the cached extraction is the full
    /// extraction, the assembled graph equals a fresh build, and a
    /// warm-started lazy greedy selects exactly what a cold one does.
    /// Signatures without cached graph artifacts rebuild the graph from
    /// the cached extraction.
    pub fn summarize(
        &self,
        hierarchy: &Hierarchy,
        opts: &BatchOptions,
        idx: usize,
        item: &Item,
        scratch: &mut WorkerScratch,
        trace: Option<&osa_obs::Trace>,
    ) -> ItemSummary {
        assert_eq!(
            self.reviews,
            item.reviews.len(),
            "artifacts are stale: update() before summarize()"
        );
        // The batch pipeline body, fed the cached extraction and graph
        // state, so traces and `Server-Timing` keep their shape when a
        // request is answered from artifacts. Its "extract" stage
        // measures the cache hit — near zero by design; the real
        // extraction cost was paid once in `build`/`update`.
        let cached = self.cached_graph(opts);
        let extract = |_: &mut _| Cow::Borrowed(&self.extracted);
        summarize_item(
            hierarchy,
            opts,
            scratch,
            (idx, item),
            extract,
            Fault::None,
            cached,
            trace,
        )
        .0
    }

    /// Number of reviews the cached extraction covers.
    pub fn reviews(&self) -> usize {
        self.reviews
    }

    /// The cached extraction.
    pub fn extracted(&self) -> &ExtractedItem {
        &self.extracted
    }

    /// Whether mergeable graph artifacts are cached for `opts`'
    /// signature (and a lazy-greedy request would warm-start).
    pub fn has_graph_for(&self, opts: &BatchOptions) -> bool {
        self.cached_graph(opts).is_some()
    }

    /// The cached graph state, if it was built under `opts`' signature.
    fn cached_graph(&self, opts: &BatchOptions) -> Option<&GraphArtifacts> {
        let eligible = graph_eligible(opts);
        self.graph.as_ref().filter(|g| eligible && g.matches(opts))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{summarize_one, BatchAlgorithm};
    use osa_datasets::{Corpus, CorpusConfig, Review};
    use osa_ontology::AncestorImpl;

    fn corpus() -> Corpus {
        Corpus::phones(
            &CorpusConfig {
                items: 3,
                min_reviews: 3,
                max_reviews: 6,
                mean_reviews: 4.0,
                mean_sentences: 3.0,
                aspect_sentence_prob: 0.85,
            },
            77,
        )
    }

    fn opts_matrix() -> Vec<BatchOptions> {
        let mut all = Vec::new();
        for granularity in [
            Granularity::Pairs,
            Granularity::Sentences,
            Granularity::Reviews,
        ] {
            for graph_impl in [GraphImpl::Indexed, GraphImpl::Naive] {
                for ancestor_impl in [AncestorImpl::Dense, AncestorImpl::Segmented] {
                    for algorithm in [
                        BatchAlgorithm::Greedy,
                        BatchAlgorithm::LazyGreedy,
                        BatchAlgorithm::Ilp,
                        BatchAlgorithm::RandomizedRounding,
                        BatchAlgorithm::LocalSearch,
                    ] {
                        all.push(BatchOptions {
                            granularity,
                            graph_impl,
                            ancestor_impl,
                            algorithm,
                            ..BatchOptions::default()
                        });
                    }
                }
            }
        }
        all
    }

    #[test]
    fn artifact_summaries_match_the_batch_pipeline() {
        let corpus = corpus();
        let mut scratch = WorkerScratch::new();
        let extractor = Extractor::from_hierarchy(&corpus.hierarchy);
        for opts in opts_matrix() {
            for (idx, item) in corpus.items.iter().enumerate() {
                let art =
                    ItemArtifacts::build(&corpus.hierarchy, &extractor, &opts, item, &mut scratch);
                let got = art.summarize(&corpus.hierarchy, &opts, idx, item, &mut scratch, None);
                let expect =
                    summarize_one(&corpus, &extractor, &opts, &mut scratch, idx, Fault::None)
                        .unwrap();
                assert_eq!(got, expect, "{opts:?} item {idx}");
            }
        }
    }

    #[test]
    fn updated_artifacts_match_a_scratch_rebuild() {
        let corpus = corpus();
        let extractor = Extractor::from_hierarchy(&corpus.hierarchy);
        let mut scratch = WorkerScratch::new();
        let recycled: Review = corpus.items[1].reviews[0].clone();
        for opts in opts_matrix() {
            let mut item = corpus.items[0].clone();
            let mut art =
                ItemArtifacts::build(&corpus.hierarchy, &extractor, &opts, &item, &mut scratch);
            // Append, append, retract, append — artifacts advance
            // through each edit and always match a from-scratch build.
            for edit in 0..4 {
                if edit == 2 {
                    item.reviews.pop();
                } else {
                    item.reviews.push(recycled.clone());
                }
                art = art.update(&corpus.hierarchy, &extractor, &opts, &item, &mut scratch);
                let fresh =
                    ItemArtifacts::build(&corpus.hierarchy, &extractor, &opts, &item, &mut scratch);
                assert_eq!(art.extracted(), fresh.extracted(), "{opts:?} edit {edit}");
                let got = art.summarize(&corpus.hierarchy, &opts, 0, &item, &mut scratch, None);
                let expect =
                    fresh.summarize(&corpus.hierarchy, &opts, 0, &item, &mut scratch, None);
                assert_eq!(got, expect, "{opts:?} edit {edit}");
            }
        }
    }

    #[test]
    fn graph_artifacts_are_cached_for_the_serving_signature() {
        let corpus = corpus();
        let extractor = Extractor::from_hierarchy(&corpus.hierarchy);
        let mut scratch = WorkerScratch::new();
        let serving = BatchOptions {
            granularity: Granularity::Sentences,
            algorithm: BatchAlgorithm::LazyGreedy,
            ..BatchOptions::default()
        };
        let art = ItemArtifacts::build(
            &corpus.hierarchy,
            &extractor,
            &serving,
            &corpus.items[0],
            &mut scratch,
        );
        assert!(art.has_graph_for(&serving));
        // A different eps is a different signature — no cached graph.
        let other = BatchOptions {
            eps: serving.eps + 0.25,
            ..serving.clone()
        };
        assert!(!art.has_graph_for(&other));
        let naive = BatchOptions {
            graph_impl: GraphImpl::Naive,
            ..serving.clone()
        };
        assert!(!art.has_graph_for(&naive));
    }
}
