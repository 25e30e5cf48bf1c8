//! # osa-core
//!
//! The paper's primary contribution: ontology- and sentiment-aware
//! opinion-coverage summarization (Le, Young, Hristidis — ICDE 2017 /
//! WISE 2019).
//!
//! Reviews are modeled as [`Pair`]s — `(concept, sentiment)` with the
//! concept drawn from an `osa-ontology` hierarchy and the sentiment a
//! continuous value in `[-1, 1]`. A pair `p₁` *covers* `p₂` (Definition 1)
//! when `p₁`'s concept is an ancestor of `p₂`'s and their sentiments
//! differ by at most `ε` (no sentiment check when `p₁` sits on the root);
//! the coverage distance is the shortest directed path between the
//! concepts. The cost of a summary `F` (Definition 2) is the sum over all
//! pairs of the distance to the nearest covering element of `F ∪ {root}`.
//!
//! Three NP-hard problem variants are supported through one abstraction,
//! the [`CoverageGraph`] (the paper's Section 4.1 initialization): the
//! candidates are single pairs (*k-Pairs Coverage*), sentences, or whole
//! reviews (*k-Reviews/Sentences Coverage*, Section 4.5).
//!
//! Algorithms (all implementing [`Summarizer`]):
//!
//! * [`GreedySummarizer`] — Algorithm 2: max-heap greedy with two-hop key
//!   updates; Wolsey's submodular-cover guarantee,
//! * [`IlpSummarizer`] — the Section 4.2 k-medians-style ILP, solved
//!   exactly by `osa-solver`'s branch & bound,
//! * [`RandomizedRounding`] — Algorithm 1: LP relaxation + weighted
//!   sampling without replacement,
//! * [`ExactBruteForce`] — exhaustive search for small instances (test
//!   oracle),
//! * [`LazyGreedySummarizer`] — a CELF-style lazy variant used by the
//!   ablation benchmarks,
//! * [`LocalSearchSummarizer`] — single-swap k-median local search on top
//!   of greedy (an extension beyond the paper's three algorithms).
//!
//! The [`reduction`] module constructs the Theorem 1 Set-Cover reduction
//! (Fig. 2) for verification and demonstration.
//!
//! ## Example
//!
//! ```
//! use osa_core::{CoverageGraph, GreedySummarizer, Pair, Summarizer};
//! use osa_ontology::HierarchyBuilder;
//!
//! // phone -> {screen, battery}
//! let mut b = HierarchyBuilder::new();
//! b.add_edge_by_name("phone", "screen").unwrap();
//! b.add_edge_by_name("phone", "battery").unwrap();
//! let h = b.build().unwrap();
//!
//! let pairs = vec![
//!     Pair::new(h.node_by_name("screen").unwrap(), 0.8),
//!     Pair::new(h.node_by_name("screen").unwrap(), 0.7),
//!     Pair::new(h.node_by_name("battery").unwrap(), -0.5),
//! ];
//! let graph = CoverageGraph::for_pairs(&h, &pairs, 0.5);
//! let summary = GreedySummarizer.summarize(&graph, 2);
//! assert_eq!(summary.cost, 0); // one screen pair covers the other
//! ```

#![warn(missing_docs)]

mod exact;
pub mod explain;
mod graph;
mod greedy;
mod heap;
mod ilp;
mod local_search;
mod pair;
pub mod reduction;
mod rounding;
mod summarizer;

pub use exact::ExactBruteForce;
pub use graph::{
    Candidates, CoverageGraph, Granularity, GraphBuildPlan, GraphBuildScratch, GraphImpl,
    GraphShard, PlanDelta,
};
pub use greedy::{GreedySummarizer, LazyGreedySummarizer};
#[doc(hidden)]
pub use ilp::__diag_build_model;
pub use ilp::{IlpSummarizer, LpRelaxationStats};
pub use local_search::LocalSearchSummarizer;
pub use pair::{compress_pairs, pair_distance, Pair};
pub use rounding::RandomizedRounding;
pub use summarizer::{Summarizer, Summary};
