//! The Section 4.1 initialization: the edge-weighted bipartite coverage
//! graph shared by every algorithm and every problem variant.
//!
//! [`CoverageGraph::build`] is the one entry point; [`Candidates`] says
//! whether the candidates are plain pairs, weighted (compressed) pairs or
//! groups of pairs at a granularity. Two construction implementations
//! behind it produce identical graphs:
//!
//! * **Indexed** (the default, [`GraphImpl::Indexed`]) — pass 1 buckets
//!   candidate pairs per concept into a CSR arena sorted by sentiment;
//!   pass 2 walks each target pair's precomputed ancestor closure
//!   ([`osa_ontology::AncestorIndex`]) and resolves the ε-window
//!   `[s − ε, s + ε]` with two binary searches, deduplicating candidates
//!   through a dense epoch-stamped scratch ([`GraphBuildScratch`]).
//!   The stages are public ([`GraphBuildPlan`], [`GraphShard`],
//!   [`CoverageGraph::assemble`]) so `osa-runtime` can cache them per
//!   item and extend them on append instead of rebuilding.
//! * **Naive** ([`GraphImpl::Naive`]) — the original per-pair upward BFS
//!   plus full-bucket scan, kept as the cross-checking oracle
//!   (`--graph-impl naive`, property tests, benchmarks).
//!
//! The ε-window binary searches reproduce the naive predicate *exactly*:
//! `|s − s_q| ≤ ε ⟺ fl(s − s_q) ≤ ε ∧ fl(s_q − s) ≤ ε` (IEEE negation is
//! exact), and each one-sided rounded difference is weakly monotone along
//! the sentiment-sorted bucket, so the two partition points bound
//! precisely the candidates the naive `(s - s_q).abs() <= eps` test
//! accepts — floating-point boundaries included.

use std::collections::HashMap;
use std::ops::Range;

use osa_ontology::{AncestorImpl, AncestorIndex, Hierarchy, NodeId, SegmentIndex, SegmentScratch};

use crate::Pair;

/// Which problem variant a [`CoverageGraph`] was built for (informational;
/// the algorithms are granularity-agnostic, exactly as in Section 4.5).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Granularity {
    /// k-Pairs Coverage: each candidate is a single pair.
    Pairs,
    /// k-Sentences Coverage: each candidate is a sentence's pair set.
    Sentences,
    /// k-Reviews Coverage: each candidate is a review's pair set.
    Reviews,
}

/// The bipartite graph `G = (U, W, E)` of Section 4.1: `U` are the
/// selection candidates (pairs, sentences, or reviews), `W` the
/// concept-sentiment pairs to cover, and an edge `(u, q)` with weight `d`
/// means candidate `u` covers pair `q` at distance `d` (the minimum over
/// the candidate's member pairs, per Section 4.5).
///
/// The virtual root is *not* a candidate; its coverage of every pair is
/// recorded in [`root_dist`](CoverageGraph::root_dist), so the cost of any
/// selection is always finite (Definition 2 takes the min over `F ∪ {r}`).
///
/// Equality compares the full structure (granularity, both adjacency
/// sides, root distances, weights) — the naive and indexed builders are
/// property-tested `==`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CoverageGraph {
    granularity: Granularity,
    /// `cand_edges[u]` = sorted `(pair, dist)` covered by candidate `u`.
    cand_edges: Vec<Vec<(u32, u32)>>,
    /// Reverse adjacency: `pair_edges[q]` = `(candidate, dist)`.
    pair_edges: Vec<Vec<(u32, u32)>>,
    /// Distance from the virtual root to each pair (= concept depth).
    root_dist: Vec<u32>,
    /// Multiplicity of each pair (1 unless built from compressed pairs).
    pair_weight: Vec<u64>,
}

/// Selects which [`CoverageGraph`] construction implementation runs: the
/// index-backed windowed builder (default) or the original scan builder,
/// kept as a cross-checking oracle (`--graph-impl naive`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum GraphImpl {
    /// Ancestor-closure walk + sentiment-sorted buckets with binary-search
    /// ε-windows + dense epoch-stamped dedup scratch.
    #[default]
    Indexed,
    /// Per-pair upward BFS + full-bucket scan + per-pair `HashMap`
    /// (the pre-index builder; slower, trivially auditable).
    Naive,
}

impl GraphImpl {
    /// Parse the CLI spelling (`indexed|naive`).
    pub fn from_name(name: &str) -> Option<Self> {
        Some(match name {
            "indexed" => GraphImpl::Indexed,
            "naive" => GraphImpl::Naive,
            _ => return None,
        })
    }

    /// The CLI spelling of this implementation.
    pub fn name(self) -> &'static str {
        match self {
            GraphImpl::Indexed => "indexed",
            GraphImpl::Naive => "naive",
        }
    }
}

/// Reusable dense scratch of the indexed builder: per-candidate best
/// distance for the pair currently being resolved, deduplicated by an
/// epoch stamp instead of clearing (or hashing) between pairs. One
/// scratch amortizes across any number of builds of any size; workers in
/// `osa-runtime` keep one per thread.
#[derive(Debug, Clone, Default)]
pub struct GraphBuildScratch {
    /// Best distance of candidate `u` — valid only when
    /// `stamp[u] == epoch`.
    dist: Vec<u32>,
    stamp: Vec<u32>,
    /// Candidates stamped in the current epoch.
    touched: Vec<u32>,
    epoch: u32,
    /// Segment-walk buffers for [`AncestorImpl::Segmented`] plans; unused
    /// (and unallocated) on the dense path.
    seg: SegmentScratch,
    /// Ancestor output of the segment walk, reused across pairs.
    anc_buf: Vec<(NodeId, u32)>,
}

impl GraphBuildScratch {
    /// Fresh scratch with empty buffers.
    pub fn new() -> Self {
        Self::default()
    }

    fn reserve(&mut self, n_cands: usize) {
        if self.dist.len() < n_cands {
            self.dist.resize(n_cands, 0);
            self.stamp.resize(n_cands, 0);
        }
        self.touched.clear();
    }

    /// Start resolving a new target pair; invalidates all stamps.
    fn next_epoch(&mut self) -> u32 {
        self.touched.clear();
        self.epoch = self.epoch.wrapping_add(1);
        if self.epoch == 0 {
            // u32 wrap: ancient stamps could alias the restarted counter,
            // so wipe them and skip epoch 0 (the initial stamp value).
            self.stamp.fill(0);
            self.epoch = 1;
        }
        self.epoch
    }

    /// Record that some member of candidate `u` covers the current pair
    /// at `dist`, keeping the minimum over the candidate's members.
    #[inline]
    fn offer(&mut self, u: u32, dist: u32, epoch: u32) {
        let i = u as usize;
        if self.stamp[i] != epoch {
            self.stamp[i] = epoch;
            self.dist[i] = dist;
            self.touched.push(u);
        } else if dist < self.dist[i] {
            self.dist[i] = dist;
        }
    }
}

/// Pass 1 of the indexed builder, reusable across shards: candidate
/// member pairs bucketed per concept into a CSR arena, each bucket sorted
/// by sentiment so pass 2 can window it with two binary searches.
#[derive(Debug, Clone)]
pub struct GraphBuildPlan {
    eps: f64,
    root: NodeId,
    n_cands: usize,
    /// CSR offsets per concept node into `bucket_entries`.
    bucket_off: Vec<u32>,
    /// `(sentiment, candidate)` per bucket, sorted ascending (ties by
    /// candidate id; the order within equal sentiments is irrelevant to
    /// the output but fixed for determinism of the scan).
    bucket_entries: Vec<(f64, u32)>,
    /// Root distance (= concept depth) per target pair.
    root_dist: Vec<u32>,
    /// Which ancestor index pass 2 walks per target pair.
    ancestor_impl: AncestorImpl,
}

/// The ancestor index a shard walks, resolved once per shard from the
/// plan's [`AncestorImpl`].
enum AncestorSource<'h> {
    Dense(&'h AncestorIndex),
    Segmented(&'h SegmentIndex),
}

impl GraphBuildPlan {
    /// Bucket `groups` (or, with `None`, one candidate per pair — the
    /// k-Pairs identity grouping, without materializing it) by member
    /// concept and sort each bucket by sentiment. Pass 2 walks the
    /// `ancestor_impl` index: `Segmented` plans never materialize the
    /// dense closure — the whole build stays `O(n)` in hierarchy memory —
    /// and produce byte-identical graphs (the `osars check` ancestor axis
    /// proves it).
    pub fn new(
        h: &Hierarchy,
        pairs: &[Pair],
        groups: Option<&[Vec<usize>]>,
        eps: f64,
        ancestor_impl: AncestorImpl,
    ) -> Self {
        assert!(eps >= 0.0, "sentiment threshold must be non-negative");
        let n_nodes = h.node_count();
        let n_cands = groups.map_or(pairs.len(), <[Vec<usize>]>::len);

        // Counting pass, then placement into the CSR arena.
        let mut bucket_off = vec![0u32; n_nodes + 1];
        let each_member = |f: &mut dyn FnMut(u32, Pair)| match groups {
            None => {
                for (u, p) in pairs.iter().enumerate() {
                    f(u as u32, *p);
                }
            }
            Some(gs) => {
                for (u, members) in gs.iter().enumerate() {
                    for &pi in members {
                        f(u as u32, pairs[pi]);
                    }
                }
            }
        };
        each_member(&mut |_, p| {
            // Matches the target-side assert in `shard`: a literal
            // `Pair` with NaN (bypassing `Pair::new`) must fail loudly
            // rather than land unwindowable in a sorted bucket.
            assert!(
                !p.sentiment.is_nan(),
                "NaN sentiments must be sanitized by Pair::new before building"
            );
            bucket_off[p.concept.index() + 1] += 1;
        });
        for i in 0..n_nodes {
            bucket_off[i + 1] += bucket_off[i];
        }
        let mut cursor = bucket_off.clone();
        let mut bucket_entries = vec![(0.0, 0u32); bucket_off[n_nodes] as usize];
        each_member(&mut |u, p| {
            let at = &mut cursor[p.concept.index()];
            bucket_entries[*at as usize] = (p.sentiment, u);
            *at += 1;
        });
        for c in 0..n_nodes {
            bucket_entries[bucket_off[c] as usize..bucket_off[c + 1] as usize]
                .sort_unstable_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
        }

        GraphBuildPlan {
            eps,
            root: h.root(),
            n_cands,
            bucket_off,
            bucket_entries,
            root_dist: pairs.iter().map(|p| h.depth(p.concept)).collect(),
            ancestor_impl,
        }
    }

    /// Resolve the plan's ancestor index against `h` (building and
    /// caching it on first use).
    fn ancestor_source<'h>(&self, h: &'h Hierarchy) -> AncestorSource<'h> {
        match self.ancestor_impl {
            AncestorImpl::Dense => AncestorSource::Dense(h.ancestor_index()),
            AncestorImpl::Segmented => AncestorSource::Segmented(h.segment_index()),
        }
    }

    /// Number of coverage targets the plan was built over.
    pub fn num_pairs(&self) -> usize {
        self.root_dist.len()
    }

    /// The ε-window of bucket `anc` around target sentiment `s_q`, as a
    /// range into `bucket_entries`. Exactly the candidates the naive
    /// `(s - s_q).abs() <= eps` test accepts: each one-sided rounded
    /// difference is weakly monotone along the sorted bucket, and
    /// `fl(s_q − s) = −fl(s − s_q)` exactly, so the two partition points
    /// split the bucket on the very same predicate.
    #[inline]
    fn window(&self, anc: NodeId, s_q: f64) -> (usize, usize) {
        let lo0 = self.bucket_off[anc.index()] as usize;
        let hi0 = self.bucket_off[anc.index() + 1] as usize;
        let b = &self.bucket_entries[lo0..hi0];
        let lo = b.partition_point(|&(s, _)| s_q - s > self.eps);
        let hi = lo + b[lo..].partition_point(|&(s, _)| s - s_q <= self.eps);
        (lo0 + lo, lo0 + hi)
    }

    /// Pass 2 over the contiguous target range `range`: resolve each
    /// pair's covering candidates (minimum distance over members) by
    /// walking the concept's ancestor closure and windowing each bucket.
    /// Pure with respect to `self`; shards of disjoint ranges can run on
    /// any threads in any order and [`CoverageGraph::assemble`] back into
    /// the exact sequential result.
    ///
    /// `h` and `pairs` must be the values the plan was built from.
    pub fn shard(
        &self,
        h: &Hierarchy,
        pairs: &[Pair],
        range: Range<usize>,
        scratch: &mut GraphBuildScratch,
    ) -> GraphShard {
        let src = self.ancestor_source(h);
        scratch.reserve(self.n_cands);
        let mut pair_off = Vec::with_capacity(range.len() + 1);
        pair_off.push(0u32);
        let mut edges: Vec<(u32, u32)> = Vec::new();
        let mut window_hits = 0u64;
        let start = range.start;
        for qi in range {
            self.resolve_pair(&src, pairs[qi], scratch, &mut edges, &mut window_hits);
            pair_off.push(u32::try_from(edges.len()).expect("shard edge count exceeds u32"));
        }
        GraphShard {
            start,
            pair_off,
            edges,
            window_hits,
        }
    }

    /// Resolve one target pair's covering candidates into `edges` —
    /// the shared body of [`shard`](Self::shard) and
    /// [`shard_append`](Self::shard_append).
    fn resolve_pair(
        &self,
        src: &AncestorSource<'_>,
        q: Pair,
        scratch: &mut GraphBuildScratch,
        edges: &mut Vec<(u32, u32)>,
        window_hits: &mut u64,
    ) {
        // Real assert, not debug: `Pair.sentiment` is a pub field, so
        // a literal-constructed NaN can bypass `Pair::new`'s
        // sanitization, and a NaN here would silently corrupt the
        // sorted-bucket windows in release builds.
        assert!(
            !q.sentiment.is_nan(),
            "NaN sentiments must be sanitized by Pair::new before building"
        );
        let epoch = scratch.next_epoch();
        match src {
            AncestorSource::Dense(index) => {
                for &(anc, dist) in index.ancestors(q.concept) {
                    self.offer_bucket(anc, dist, q.sentiment, scratch, epoch, window_hits);
                }
            }
            AncestorSource::Segmented(index) => {
                // Walk into an owned buffer so the bucket offers below can
                // borrow the scratch mutably again.
                let mut anc_buf = std::mem::take(&mut scratch.anc_buf);
                index.ancestors_with_dist_into(q.concept, &mut scratch.seg, &mut anc_buf);
                for &(anc, dist) in &anc_buf {
                    self.offer_bucket(anc, dist, q.sentiment, scratch, epoch, window_hits);
                }
                scratch.anc_buf = anc_buf;
            }
        }
        // Ascending candidate order makes the shard (and therefore
        // the assembled graph) independent of closure walk order — this
        // sort is also why the two ancestor implementations, which
        // enumerate the same set in different orders, produce
        // byte-identical shards.
        scratch.touched.sort_unstable();
        edges.extend(
            scratch
                .touched
                .iter()
                .map(|&u| (u, scratch.dist[u as usize])),
        );
    }

    /// Offer one ancestor's ε-window (or whole root bucket) to the
    /// current pair's candidates.
    #[inline]
    fn offer_bucket(
        &self,
        anc: NodeId,
        dist: u32,
        s_q: f64,
        scratch: &mut GraphBuildScratch,
        epoch: u32,
        window_hits: &mut u64,
    ) {
        // A candidate on the root covers every pair with no
        // sentiment condition (Definition 1), so the root bucket
        // is taken whole.
        let (lo, hi) = if anc == self.root {
            (
                self.bucket_off[anc.index()] as usize,
                self.bucket_off[anc.index() + 1] as usize,
            )
        } else {
            self.window(anc, s_q)
        };
        *window_hits += (hi - lo) as u64;
        for &(_, u) in &self.bucket_entries[lo..hi] {
            scratch.offer(u, dist, epoch);
        }
    }

    /// Build the successor plan after an **append**: `self` was built
    /// over a prefix of `pairs` (and of `groups`, when grouped), and the
    /// result is byte-identical to `GraphBuildPlan::new(h, pairs, groups,
    /// eps, ancestor_impl)` — but only the *new* members are bucketed and each touched
    /// bucket is merged (old sorted run + new sorted run) instead of
    /// re-sorting every bucket from scratch.
    ///
    /// Contract: `h` and `eps` are unchanged, the old pairs/groups are an
    /// unmodified prefix, and new groups only extend the candidate list.
    /// The returned [`PlanDelta`] records which concept buckets grew, so
    /// [`shard_append`](Self::shard_append) can reuse unaffected rows.
    pub fn append(
        &self,
        h: &Hierarchy,
        pairs: &[Pair],
        groups: Option<&[Vec<usize>]>,
    ) -> (GraphBuildPlan, PlanDelta) {
        let n_nodes = h.node_count();
        let prev_pairs = self.root_dist.len();
        let prev_cands = self.n_cands;
        let n_cands = groups.map_or(pairs.len(), <[Vec<usize>]>::len);
        assert!(pairs.len() >= prev_pairs, "append must extend the pairs");
        assert!(n_cands >= prev_cands, "append must extend the candidates");

        // Bucket only the new members (new candidates' member pairs).
        let mut fresh: Vec<(u32, (f64, u32))> = Vec::new();
        let each_new = |f: &mut dyn FnMut(u32, Pair)| match groups {
            None => {
                for (u, p) in pairs.iter().enumerate().skip(prev_cands) {
                    f(u as u32, *p);
                }
            }
            Some(gs) => {
                for (u, members) in gs.iter().enumerate().skip(prev_cands) {
                    for &pi in members {
                        f(u as u32, pairs[pi]);
                    }
                }
            }
        };
        each_new(&mut |u, p| {
            assert!(
                !p.sentiment.is_nan(),
                "NaN sentiments must be sanitized by Pair::new before building"
            );
            fresh.push((p.concept.index() as u32, (p.sentiment, u)));
        });
        // Group new entries per bucket, sorted the way `new` sorts: the
        // comparator totally orders entries (ties are identical tuples),
        // so merging two sorted runs reproduces the full sort exactly.
        fresh.sort_unstable_by(|a, b| {
            a.0.cmp(&b.0)
                .then(a.1 .0.total_cmp(&b.1 .0))
                .then(a.1 .1.cmp(&b.1 .1))
        });
        let mut delta_count = vec![0u32; n_nodes];
        for &(node, _) in &fresh {
            delta_count[node as usize] += 1;
        }

        let mut bucket_off = vec![0u32; n_nodes + 1];
        for i in 0..n_nodes {
            let old = self.bucket_off[i + 1] - self.bucket_off[i];
            bucket_off[i + 1] = bucket_off[i] + old + delta_count[i];
        }
        let mut bucket_entries = Vec::with_capacity(bucket_off[n_nodes] as usize);
        let mut fresh_at = 0usize;
        let mut changed_nodes = Vec::new();
        for (c, &count) in delta_count.iter().enumerate().take(n_nodes) {
            let old =
                &self.bucket_entries[self.bucket_off[c] as usize..self.bucket_off[c + 1] as usize];
            let added = count as usize;
            if added == 0 {
                bucket_entries.extend_from_slice(old);
                continue;
            }
            changed_nodes.push(c as u32);
            let new = &fresh[fresh_at..fresh_at + added];
            fresh_at += added;
            // Two-run merge under the bucket comparator.
            let (mut i, mut j) = (0, 0);
            while i < old.len() && j < new.len() {
                let a = old[i];
                let b = new[j].1;
                if a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)).is_le() {
                    bucket_entries.push(a);
                    i += 1;
                } else {
                    bucket_entries.push(b);
                    j += 1;
                }
            }
            bucket_entries.extend_from_slice(&old[i..]);
            bucket_entries.extend(new[j..].iter().map(|&(_, e)| e));
        }

        let mut root_dist = self.root_dist.clone();
        root_dist.extend(pairs[prev_pairs..].iter().map(|p| h.depth(p.concept)));
        let root_changed = delta_count[self.root.index()] > 0;
        let next = GraphBuildPlan {
            eps: self.eps,
            root: self.root,
            n_cands,
            bucket_off,
            bucket_entries,
            root_dist,
            ancestor_impl: self.ancestor_impl,
        };
        (
            next,
            PlanDelta {
                prev_pairs,
                prev_cands,
                changed_nodes,
                root_changed,
            },
        )
    }

    /// Incremental pass 2 after [`append`](Self::append): produce the
    /// full-range shard of the successor plan (`self`), copying the edge
    /// row of every old pair whose ancestor closure touches **no** grown
    /// bucket (its ε-windows are unchanged, so its row is unchanged by
    /// construction) and resolving only affected old pairs plus all new
    /// pairs. Byte-identical to `self.shard(h, pairs, 0..pairs.len())`.
    ///
    /// `prev` must be the predecessor plan's full-range shard. Returns
    /// the shard plus the indices of old pairs that were re-resolved —
    /// the exact rows whose edges may differ, which
    /// [`warm_keys`](Self::warm_keys) uses to update gain keys.
    pub fn shard_append(
        &self,
        h: &Hierarchy,
        pairs: &[Pair],
        prev: &GraphShard,
        delta: &PlanDelta,
        scratch: &mut GraphBuildScratch,
    ) -> (GraphShard, Vec<u32>) {
        assert_eq!(prev.start, 0, "prev must be a full-range shard");
        assert_eq!(prev.len(), delta.prev_pairs, "prev covers the old pairs");
        let src = self.ancestor_source(h);
        scratch.reserve(self.n_cands);
        let mut changed = vec![false; h.node_count()];
        for &c in &delta.changed_nodes {
            changed[c as usize] = true;
        }
        let mut pair_off = Vec::with_capacity(pairs.len() + 1);
        pair_off.push(0u32);
        let mut edges: Vec<(u32, u32)> = Vec::new();
        let mut window_hits = 0u64;
        let mut recomputed = Vec::new();
        for (qi, &q) in pairs.iter().enumerate() {
            let reusable = qi < delta.prev_pairs
                && !delta.root_changed
                && match &src {
                    AncestorSource::Dense(index) => index
                        .ancestors(q.concept)
                        .iter()
                        .all(|&(anc, _)| !changed[anc.index()]),
                    AncestorSource::Segmented(index) => {
                        let mut anc_buf = std::mem::take(&mut scratch.anc_buf);
                        index.ancestors_with_dist_into(q.concept, &mut scratch.seg, &mut anc_buf);
                        let clean = anc_buf.iter().all(|&(anc, _)| !changed[anc.index()]);
                        scratch.anc_buf = anc_buf;
                        clean
                    }
                };
            if reusable {
                edges.extend_from_slice(prev.row(qi));
            } else {
                if qi < delta.prev_pairs {
                    recomputed.push(qi as u32);
                }
                self.resolve_pair(&src, q, scratch, &mut edges, &mut window_hits);
            }
            pair_off.push(u32::try_from(edges.len()).expect("shard edge count exceeds u32"));
        }
        (
            GraphShard {
                start: 0,
                pair_off,
                edges,
                window_hits,
            },
            recomputed,
        )
    }

    /// Update a cached exact initial-gain vector (one `u64` per
    /// candidate, as seeded by the lazy greedy heap) across an append:
    /// subtract the contributions of every re-resolved old row, add the
    /// contributions of its replacement, and add the rows of the new
    /// pairs. Old pairs' root distances and weights are unchanged by an
    /// append, so the result is byte-identical to recomputing the keys
    /// from the assembled successor graph.
    ///
    /// `weights` must match what the graph is assembled with (`None` =
    /// unit weights).
    pub fn warm_keys(
        &self,
        prev_keys: &[u64],
        prev: &GraphShard,
        next: &GraphShard,
        recomputed: &[u32],
        delta: &PlanDelta,
        weights: Option<&[u64]>,
    ) -> Vec<u64> {
        assert_eq!(
            prev_keys.len(),
            delta.prev_cands,
            "one key per old candidate"
        );
        assert_eq!(next.len(), self.root_dist.len(), "next must be full-range");
        let weight = |q: usize| weights.map_or(1, |w| w[q]);
        let mut keys = prev_keys.to_vec();
        keys.resize(self.n_cands, 0);
        for &qi in recomputed {
            let q = qi as usize;
            let rd = self.root_dist[q];
            let w = weight(q);
            for &(u, d) in prev.row(q) {
                keys[u as usize] -= u64::from(rd.saturating_sub(d)) * w;
            }
            for &(u, d) in next.row(q) {
                keys[u as usize] += u64::from(rd.saturating_sub(d)) * w;
            }
        }
        for q in delta.prev_pairs..self.root_dist.len() {
            let rd = self.root_dist[q];
            let w = weight(q);
            for &(u, d) in next.row(q) {
                keys[u as usize] += u64::from(rd.saturating_sub(d)) * w;
            }
        }
        keys
    }
}

/// What changed between a plan and its [`append`](GraphBuildPlan::append)
/// successor: the prefix sizes plus which concept buckets grew. Drives
/// row reuse in [`GraphBuildPlan::shard_append`] and key reuse in
/// [`GraphBuildPlan::warm_keys`].
#[derive(Debug, Clone)]
pub struct PlanDelta {
    /// Coverage targets of the predecessor plan.
    prev_pairs: usize,
    /// Candidates of the predecessor plan.
    prev_cands: usize,
    /// Concept node indices whose bucket gained entries, ascending.
    changed_nodes: Vec<u32>,
    /// Did the root bucket grow? Root candidates cover *every* pair, so
    /// this forces every row to re-resolve.
    root_changed: bool,
}

impl PlanDelta {
    /// Coverage targets of the predecessor plan.
    pub fn prev_pairs(&self) -> usize {
        self.prev_pairs
    }

    /// Candidates of the predecessor plan.
    pub fn prev_cands(&self) -> usize {
        self.prev_cands
    }

    /// Number of concept buckets that gained entries.
    pub fn changed_buckets(&self) -> usize {
        self.changed_nodes.len()
    }
}

/// Pass-2 output for one contiguous range of target pairs (see
/// [`GraphBuildPlan::shard`]): per pair, the covering candidates with
/// their minimum distances, candidates ascending.
#[derive(Debug, Clone)]
pub struct GraphShard {
    start: usize,
    /// CSR offsets: pair `start + i` owns `edges[pair_off[i]..pair_off[i + 1]]`.
    pair_off: Vec<u32>,
    /// `(candidate, dist)` runs.
    edges: Vec<(u32, u32)>,
    /// Candidates examined through ε-windows and root buckets — a
    /// deterministic per-pair sum, so totals are sharding-invariant.
    window_hits: u64,
}

impl GraphShard {
    /// First target pair index this shard covers.
    pub fn start(&self) -> usize {
        self.start
    }

    /// Number of target pairs this shard covers.
    pub fn len(&self) -> usize {
        self.pair_off.len() - 1
    }

    /// Does this shard cover no pairs?
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The `(candidate, dist)` edge row of local pair `i` (for a
    /// full-range shard, `i` is the pair index itself).
    pub fn row(&self, i: usize) -> &[(u32, u32)] {
        &self.edges[self.pair_off[i] as usize..self.pair_off[i + 1] as usize]
    }
}

/// The candidate side `U` of a [`CoverageGraph::build`] over the
/// coverage targets `pairs`.
#[derive(Debug, Clone, Copy)]
pub enum Candidates<'a> {
    /// k-Pairs Coverage: every pair is both a candidate and a target.
    Pairs,
    /// k-Pairs Coverage over *compressed* pairs: `weights[q]` is the
    /// multiplicity of `pairs[q]` (see [`compress_pairs`](crate::compress_pairs)).
    WeightedPairs(&'a [u64]),
    /// k-Sentences/Reviews Coverage: candidate `u` is the pair set
    /// `groups[u]` (indices into `pairs`).
    Groups(&'a [Vec<usize>], Granularity),
}

impl<'a> Candidates<'a> {
    fn granularity(self) -> Granularity {
        match self {
            Candidates::Pairs | Candidates::WeightedPairs(_) => Granularity::Pairs,
            Candidates::Groups(_, granularity) => granularity,
        }
    }

    /// Member pairs per candidate; `None` is the k-Pairs identity grouping.
    fn groups(self) -> Option<&'a [Vec<usize>]> {
        match self {
            Candidates::Groups(groups, _) => Some(groups),
            _ => None,
        }
    }

    fn weights(self) -> Option<&'a [u64]> {
        match self {
            Candidates::WeightedPairs(weights) => Some(weights),
            _ => None,
        }
    }
}

impl CoverageGraph {
    /// The Section 4.1 initialization — the one construction every
    /// problem variant goes through: bucket the candidates' member pairs
    /// by concept, walk each target pair's ancestors, and connect every
    /// bucketed candidate within `eps`. `imp` picks the indexed builder
    /// or the naive oracle; `ancestor` picks the index the indexed
    /// builder walks (the naive BFS needs none); `scratch` is reused
    /// across builds (ignored by the naive builder).
    pub fn build(
        h: &Hierarchy,
        pairs: &[Pair],
        candidates: Candidates<'_>,
        eps: f64,
        imp: GraphImpl,
        ancestor: AncestorImpl,
        scratch: &mut GraphBuildScratch,
    ) -> Self {
        if let Some(weights) = candidates.weights() {
            assert_eq!(pairs.len(), weights.len(), "one weight per pair");
        }
        match imp {
            GraphImpl::Indexed => {
                let plan = GraphBuildPlan::new(h, pairs, candidates.groups(), eps, ancestor);
                let shard = plan.shard(h, pairs, 0..pairs.len(), scratch);
                Self::assemble(
                    &plan,
                    candidates.granularity(),
                    candidates.weights(),
                    &[shard],
                )
            }
            GraphImpl::Naive => Self::build_naive(h, pairs, candidates, eps),
        }
    }

    /// [`build`](Self::build) with the default builder and ancestor index.
    fn build_default(h: &Hierarchy, pairs: &[Pair], candidates: Candidates<'_>, eps: f64) -> Self {
        Self::build(
            h,
            pairs,
            candidates,
            eps,
            GraphImpl::default(),
            AncestorImpl::default(),
            &mut GraphBuildScratch::new(),
        )
    }

    /// Build the graph for **k-Pairs Coverage**: every pair is both a
    /// candidate and a coverage target.
    pub fn for_pairs(h: &Hierarchy, pairs: &[Pair], eps: f64) -> Self {
        Self::build_default(h, pairs, Candidates::Pairs, eps)
    }

    /// Build the k-Pairs graph over *compressed* pairs: `weights[q]` is
    /// the multiplicity of `pairs[q]` (see [`compress_pairs`]). Costs are
    /// identical to the uncompressed instance, but the graph is as small
    /// as the number of distinct pairs.
    ///
    /// [`compress_pairs`]: crate::compress_pairs
    pub fn for_weighted_pairs(h: &Hierarchy, pairs: &[Pair], weights: &[u64], eps: f64) -> Self {
        Self::build_default(h, pairs, Candidates::WeightedPairs(weights), eps)
    }

    /// Build the graph for **k-Reviews/Sentences Coverage**: candidate `u`
    /// is the set of pairs `groups[u]` (indices into `pairs`).
    pub fn for_groups(
        h: &Hierarchy,
        pairs: &[Pair],
        groups: &[Vec<usize>],
        eps: f64,
        granularity: Granularity,
    ) -> Self {
        Self::build_default(h, pairs, Candidates::Groups(groups, granularity), eps)
    }

    /// [`build`](Self::build) over groups, argument for argument. Kept
    /// only because the standalone `benchmark/` package calls it with
    /// this exact signature; new code calls `build`.
    #[allow(clippy::too_many_arguments)]
    pub fn for_groups_with_ancestor(
        h: &Hierarchy,
        pairs: &[Pair],
        groups: &[Vec<usize>],
        eps: f64,
        granularity: Granularity,
        imp: GraphImpl,
        ancestor: AncestorImpl,
        scratch: &mut GraphBuildScratch,
    ) -> Self {
        let candidates = Candidates::Groups(groups, granularity);
        Self::build(h, pairs, candidates, eps, imp, ancestor, scratch)
    }

    /// Merge pass-2 shards into the final graph. The shards must tile
    /// `0..plan.num_pairs()` contiguously in order; because target
    /// indices then ascend across the walk and are unique per candidate,
    /// every adjacency list comes out sorted — the exact layout the naive
    /// builder produces, regardless of how the range was sharded.
    pub fn assemble(
        plan: &GraphBuildPlan,
        granularity: Granularity,
        weights: Option<&[u64]>,
        shards: &[GraphShard],
    ) -> Self {
        let n_pairs = plan.num_pairs();
        let mut expect = 0usize;
        for s in shards {
            assert_eq!(s.start, expect, "shards must tile the pair range in order");
            expect += s.len();
        }
        assert_eq!(expect, n_pairs, "shards must cover every pair");

        let mut cand_edges: Vec<Vec<(u32, u32)>> = vec![Vec::new(); plan.n_cands];
        let mut window_hits = 0u64;
        let mut n_edges = 0u64;
        for s in shards {
            window_hits += s.window_hits;
            n_edges += s.edges.len() as u64;
            for li in 0..s.len() {
                let qi = (s.start + li) as u32;
                for &(u, d) in &s.edges[s.pair_off[li] as usize..s.pair_off[li + 1] as usize] {
                    cand_edges[u as usize].push((qi, d));
                }
            }
        }
        let mut pair_edges: Vec<Vec<(u32, u32)>> = vec![Vec::new(); n_pairs];
        for (u, edges) in cand_edges.iter().enumerate() {
            for &(q, d) in edges {
                pair_edges[q as usize].push((u as u32, d));
            }
        }

        let pair_weight = match weights {
            Some(w) => {
                assert_eq!(w.len(), n_pairs, "one weight per pair");
                w.to_vec()
            }
            None => vec![1; n_pairs],
        };
        let obs = osa_obs::global();
        obs.add("graph.builds", 1);
        obs.add("graph.edges", n_edges);
        obs.add("graph.window.hits", window_hits);
        obs.add("graph.sharded_items", n_pairs as u64);
        CoverageGraph {
            granularity,
            cand_edges,
            pair_edges,
            root_dist: plan.root_dist.clone(),
            pair_weight,
        }
    }

    /// The original two-pass construction of Section 4.1, kept verbatim
    /// as the oracle the indexed builder is tested against: bucket
    /// candidate pairs by concept, then for each target pair walk its
    /// concept's ancestors (upward BFS) and connect every bucketed
    /// candidate within the sentiment threshold (no threshold for
    /// candidates sitting on the root concept).
    fn build_naive(h: &Hierarchy, pairs: &[Pair], candidates: Candidates<'_>, eps: f64) -> Self {
        assert!(eps >= 0.0, "sentiment threshold must be non-negative");
        let n_pairs = pairs.len();
        let identity: Vec<Vec<usize>>;
        let groups = match candidates.groups() {
            Some(groups) => groups,
            None => {
                identity = (0..n_pairs).map(|i| vec![i]).collect();
                &identity
            }
        };
        let n_cands = groups.len();

        // Pass 1: bucket (candidate, sentiment) by member-pair concept.
        let mut buckets: Vec<Vec<(u32, f64)>> = vec![Vec::new(); h.node_count()];
        for (u, members) in groups.iter().enumerate() {
            for &pi in members {
                let p = pairs[pi];
                buckets[p.concept.index()].push((u as u32, p.sentiment));
            }
        }

        // Pass 2: for each target pair, BFS up the ancestors.
        let root = h.root();
        let mut cand_edges: Vec<Vec<(u32, u32)>> = vec![Vec::new(); n_cands];
        let mut root_dist = Vec::with_capacity(n_pairs);
        // Reused scratch: candidate -> best distance for the current pair.
        let mut best: HashMap<u32, u32> = HashMap::new();
        for (qi, q) in pairs.iter().enumerate() {
            root_dist.push(h.depth(q.concept));
            best.clear();
            for (anc, dist) in h.ancestors_with_dist(q.concept) {
                let is_root = anc == root;
                for &(u, s) in &buckets[anc.index()] {
                    if is_root || (s - q.sentiment).abs() <= eps {
                        best.entry(u)
                            .and_modify(|d| *d = (*d).min(dist))
                            .or_insert(dist);
                    }
                }
            }
            for (&u, &d) in &best {
                cand_edges[u as usize].push((qi as u32, d));
            }
        }
        for e in &mut cand_edges {
            e.sort_unstable();
        }
        let mut pair_edges: Vec<Vec<(u32, u32)>> = vec![Vec::new(); n_pairs];
        for (u, edges) in cand_edges.iter().enumerate() {
            for &(q, d) in edges {
                pair_edges[q as usize].push((u as u32, d));
            }
        }

        let pair_weight = match candidates.weights() {
            Some(w) => w.to_vec(),
            None => vec![1; n_pairs],
        };
        let obs = osa_obs::global();
        obs.add("graph.builds", 1);
        obs.add(
            "graph.edges",
            cand_edges.iter().map(|e| e.len() as u64).sum(),
        );
        CoverageGraph {
            granularity: candidates.granularity(),
            cand_edges,
            pair_edges,
            root_dist,
            pair_weight,
        }
    }

    /// Problem variant this graph was built for.
    pub fn granularity(&self) -> Granularity {
        self.granularity
    }

    /// Number of selection candidates `|U|`.
    pub fn num_candidates(&self) -> usize {
        self.cand_edges.len()
    }

    /// Number of coverage targets `|W|`.
    pub fn num_pairs(&self) -> usize {
        self.root_dist.len()
    }

    /// Number of coverage edges `|E|` (excluding the implicit root edges).
    pub fn num_edges(&self) -> usize {
        self.cand_edges.iter().map(Vec::len).sum()
    }

    /// Pairs covered by candidate `u`, with distances.
    pub fn covered_by(&self, u: usize) -> &[(u32, u32)] {
        &self.cand_edges[u]
    }

    /// Candidates covering pair `q`, with distances.
    pub fn coverers_of(&self, q: usize) -> &[(u32, u32)] {
        &self.pair_edges[q]
    }

    /// Distance from the virtual root to pair `q`.
    pub fn root_dist(&self, q: usize) -> u32 {
        self.root_dist[q]
    }

    /// Multiplicity of pair `q` (1 unless built from compressed pairs).
    pub fn pair_weight(&self, q: usize) -> u64 {
        self.pair_weight[q]
    }

    /// Cost of the empty summary: every pair served by the root.
    pub fn root_cost(&self) -> u64 {
        self.root_dist
            .iter()
            .zip(&self.pair_weight)
            .map(|(&d, &w)| u64::from(d) * w)
            .sum()
    }

    /// The Definition 2 cost `C(F, P)` of selecting candidates `selected`.
    pub fn cost_of(&self, selected: &[usize]) -> u64 {
        let mut best = self.root_dist.clone();
        for &u in selected {
            for &(q, d) in &self.cand_edges[u] {
                let b = &mut best[q as usize];
                if d < *b {
                    *b = d;
                }
            }
        }
        best.iter()
            .zip(&self.pair_weight)
            .map(|(&d, &w)| u64::from(d) * w)
            .sum()
    }

    /// Per-pair serving distances for a selection (used by metrics).
    pub fn serving_distances(&self, selected: &[usize]) -> Vec<u32> {
        let mut best = Vec::new();
        self.serving_distances_into(selected, &mut best);
        best
    }

    /// [`serving_distances`](Self::serving_distances) into a caller-owned
    /// buffer, so sweeps that probe many selections allocate nothing.
    pub fn serving_distances_into(&self, selected: &[usize], out: &mut Vec<u32>) {
        out.clear();
        out.extend_from_slice(&self.root_dist);
        for &u in selected {
            for &(q, d) in &self.cand_edges[u] {
                let b = &mut out[q as usize];
                if d < *b {
                    *b = d;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use osa_ontology::{Hierarchy, HierarchyBuilder, NodeId};

    /// r -> a -> c ; r -> b   (a tiny tree)
    fn tree() -> (Hierarchy, NodeId, NodeId, NodeId, NodeId) {
        let mut bl = HierarchyBuilder::new();
        let r = bl.add_node("r");
        let a = bl.add_node("a");
        let b = bl.add_node("b");
        let c = bl.add_node("c");
        bl.add_edge(r, a).unwrap();
        bl.add_edge(r, b).unwrap();
        bl.add_edge(a, c).unwrap();
        (bl.build().unwrap(), r, a, b, c)
    }

    #[test]
    fn pairs_graph_edges_match_definition() {
        let (h, _r, a, b, c) = tree();
        let pairs = vec![
            Pair::new(a, 0.5), // 0
            Pair::new(c, 0.4), // 1: covered by 0 (dist 1) and itself
            Pair::new(b, 0.9), // 2: only itself
        ];
        let g = CoverageGraph::for_pairs(&h, &pairs, 0.5);
        assert_eq!(g.num_candidates(), 3);
        assert_eq!(g.num_pairs(), 3);
        assert_eq!(g.covered_by(0), &[(0, 0), (1, 1)]);
        assert_eq!(g.covered_by(1), &[(1, 0)]);
        assert_eq!(g.covered_by(2), &[(2, 0)]);
        assert_eq!(g.root_dist(1), 2);
        assert_eq!(g.coverers_of(1), &[(0, 1), (1, 0)]);
    }

    #[test]
    fn eps_controls_density() {
        let (h, _r, a, _b, c) = tree();
        let pairs = vec![Pair::new(a, 0.9), Pair::new(c, 0.0)];
        let tight = CoverageGraph::for_pairs(&h, &pairs, 0.5);
        let loose = CoverageGraph::for_pairs(&h, &pairs, 1.0);
        // Self-edges always exist; the cross edge only at eps >= 0.9.
        assert_eq!(tight.num_edges(), 2);
        assert_eq!(loose.num_edges(), 3);
    }

    #[test]
    fn root_concept_pair_covers_everything() {
        let (h, r, a, _b, c) = tree();
        let pairs = vec![Pair::new(r, 0.0), Pair::new(a, 1.0), Pair::new(c, -1.0)];
        let g = CoverageGraph::for_pairs(&h, &pairs, 0.1);
        // Candidate 0 sits on the root: covers all three pairs despite the
        // sentiment gaps, at depth distances.
        assert_eq!(g.covered_by(0), &[(0, 0), (1, 1), (2, 2)]);
    }

    #[test]
    fn cost_of_empty_selection_is_root_cost() {
        let (h, _r, a, b, c) = tree();
        let pairs = vec![Pair::new(a, 0.0), Pair::new(b, 0.0), Pair::new(c, 0.0)];
        let g = CoverageGraph::for_pairs(&h, &pairs, 0.5);
        assert_eq!(g.root_cost(), 1 + 1 + 2);
        assert_eq!(g.cost_of(&[]), g.root_cost());
    }

    #[test]
    fn cost_decreases_monotonically() {
        let (h, _r, a, b, c) = tree();
        let pairs = vec![Pair::new(a, 0.0), Pair::new(b, 0.0), Pair::new(c, 0.1)];
        let g = CoverageGraph::for_pairs(&h, &pairs, 0.5);
        let c0 = g.cost_of(&[]);
        let c1 = g.cost_of(&[0]);
        let c2 = g.cost_of(&[0, 1]);
        assert!(c1 <= c0 && c2 <= c1);
        // Selecting pair on `a` serves itself (0) and c (1); b stays at root (1).
        assert_eq!(c1, 1 + 1);
    }

    #[test]
    fn group_candidates_take_min_over_members() {
        let (h, _r, a, b, c) = tree();
        let pairs = vec![
            Pair::new(a, 0.0), // 0
            Pair::new(b, 0.0), // 1
            Pair::new(c, 0.0), // 2
        ];
        // One "sentence" containing pairs on a and b.
        let groups = vec![vec![0, 1], vec![2]];
        let g = CoverageGraph::for_groups(&h, &pairs, &groups, 0.5, Granularity::Sentences);
        assert_eq!(g.granularity(), Granularity::Sentences);
        assert_eq!(g.num_candidates(), 2);
        // Sentence 0 covers pair 0 (d 0), pair 1 (d 0), pair 2 (d 1 via a).
        assert_eq!(g.covered_by(0), &[(0, 0), (1, 0), (2, 1)]);
        // Selecting just that sentence zeroes everything except c at 1.
        assert_eq!(g.cost_of(&[0]), 1);
    }

    #[test]
    fn duplicate_member_concepts_keep_min_distance() {
        let (h, _r, a, _b, c) = tree();
        let pairs = vec![Pair::new(a, 0.0), Pair::new(c, 0.0), Pair::new(c, 0.05)];
        // A review mentioning a and c: covers pair 2 at distance 0 (via its
        // own c member), not 1 (via a).
        let groups = vec![vec![0, 1]];
        let g = CoverageGraph::for_groups(&h, &pairs, &groups, 0.5, Granularity::Reviews);
        let edge = g.covered_by(0).iter().find(|&&(q, _)| q == 2).copied();
        assert_eq!(edge, Some((2, 0)));
    }

    #[test]
    fn serving_distances_match_cost() {
        let (h, _r, a, b, c) = tree();
        let pairs = vec![Pair::new(a, 0.2), Pair::new(b, -0.3), Pair::new(c, 0.2)];
        let g = CoverageGraph::for_pairs(&h, &pairs, 0.5);
        for sel in [vec![], vec![0], vec![1, 2], vec![0, 1, 2]] {
            let dists = g.serving_distances(&sel);
            let total: u64 = dists.iter().map(|&d| u64::from(d)).sum();
            assert_eq!(total, g.cost_of(&sel));
        }
    }

    /// A multi-parent DAG exercising the closure merge:
    /// r -> {a, b}, a -> m, b -> m, m -> l, b -> l.
    fn dag() -> (Hierarchy, Vec<NodeId>) {
        let mut bl = HierarchyBuilder::new();
        let r = bl.add_node("r");
        let a = bl.add_node("a");
        let b = bl.add_node("b");
        let m = bl.add_node("m");
        let l = bl.add_node("l");
        bl.add_edge(r, a).unwrap();
        bl.add_edge(r, b).unwrap();
        bl.add_edge(a, m).unwrap();
        bl.add_edge(b, m).unwrap();
        bl.add_edge(m, l).unwrap();
        bl.add_edge(b, l).unwrap();
        (bl.build().unwrap(), vec![r, a, b, m, l])
    }

    fn dag_pairs(ids: &[NodeId]) -> Vec<Pair> {
        // Boundary-heavy sentiments: exact ε hits, both zeros, extremes.
        let sentiments = [0.5, -0.5, 0.0, -0.0, 1.0, -1.0, 0.2, 0.7, -0.3, 0.5];
        sentiments
            .iter()
            .enumerate()
            .map(|(i, &s)| Pair::new(ids[i % ids.len()], s))
            .collect()
    }

    /// [`CoverageGraph::build`] under every `(GraphImpl, AncestorImpl)`
    /// combination, the naive oracle first.
    fn build_all(
        h: &Hierarchy,
        pairs: &[Pair],
        cands: Candidates<'_>,
        eps: f64,
    ) -> Vec<CoverageGraph> {
        let mut scratch = GraphBuildScratch::new();
        let mut out = vec![CoverageGraph::build(
            h,
            pairs,
            cands,
            eps,
            GraphImpl::Naive,
            AncestorImpl::Dense,
            &mut scratch,
        )];
        for ancestor in [AncestorImpl::Dense, AncestorImpl::Segmented] {
            out.push(CoverageGraph::build(
                h,
                pairs,
                cands,
                eps,
                GraphImpl::Indexed,
                ancestor,
                &mut scratch,
            ));
        }
        out
    }

    fn assert_all_equal(graphs: &[CoverageGraph], what: &str) {
        for (i, g) in graphs.iter().enumerate().skip(1) {
            assert_eq!(&graphs[0], g, "{what}: build #{i} differs from naive");
        }
    }

    #[test]
    fn indexed_matches_naive_for_pairs_on_dag() {
        let (h, ids) = dag();
        let pairs = dag_pairs(&ids);
        for eps in [0.0, 0.2, 0.5, 1.0, 2.0] {
            let graphs = build_all(&h, &pairs, Candidates::Pairs, eps);
            assert_all_equal(&graphs, &format!("eps={eps}"));
            assert_eq!(graphs[0], CoverageGraph::for_pairs(&h, &pairs, eps));
        }
    }

    #[test]
    fn indexed_matches_naive_for_weighted_pairs() {
        let (h, ids) = dag();
        let (unique, weights) = crate::compress_pairs(&dag_pairs(&ids));
        let graphs = build_all(&h, &unique, Candidates::WeightedPairs(&weights), 0.5);
        assert_all_equal(&graphs, "weighted");
        assert_eq!(
            graphs[0],
            CoverageGraph::for_weighted_pairs(&h, &unique, &weights, 0.5)
        );
    }

    #[test]
    fn indexed_matches_naive_for_groups() {
        let (h, ids) = dag();
        let pairs = dag_pairs(&ids);
        let groups = vec![vec![0, 1, 2], vec![3, 4], vec![5, 6, 7, 8, 9], vec![2, 2]];
        for gran in [Granularity::Sentences, Granularity::Reviews] {
            let graphs = build_all(&h, &pairs, Candidates::Groups(&groups, gran), 0.3);
            assert_all_equal(&graphs, &format!("{gran:?}"));
            assert_eq!(graphs[0].granularity(), gran);
            assert_eq!(
                graphs[0],
                CoverageGraph::for_groups(&h, &pairs, &groups, 0.3, gran)
            );
        }
    }

    #[test]
    #[should_panic(expected = "one weight per pair")]
    fn build_rejects_mismatched_weights() {
        let (h, ids) = dag();
        let pairs = dag_pairs(&ids);
        let _ = build_all(&h, &pairs, Candidates::WeightedPairs(&[1, 2]), 0.5);
    }

    /// Assemble the full graph through the incremental append path and
    /// through a fresh build, plus the warm-started gain keys, and demand
    /// byte-identity of both.
    fn assert_append_matches_fresh(
        h: &Hierarchy,
        base_pairs: &[Pair],
        pairs: &[Pair],
        base_groups: Option<&[Vec<usize>]>,
        groups: Option<&[Vec<usize>]>,
        eps: f64,
        granularity: Granularity,
    ) {
        use crate::LazyGreedySummarizer;
        let mut scratch = GraphBuildScratch::new();
        let plan0 = GraphBuildPlan::new(h, base_pairs, base_groups, eps, AncestorImpl::Dense);
        let shard0 = plan0.shard(h, base_pairs, 0..base_pairs.len(), &mut scratch);
        let g0 = CoverageGraph::assemble(&plan0, granularity, None, std::slice::from_ref(&shard0));
        let keys0 = LazyGreedySummarizer::initial_keys(&g0);

        let (plan1, delta) = plan0.append(h, pairs, groups);
        let (shard1, recomputed) = plan1.shard_append(h, pairs, &shard0, &delta, &mut scratch);
        let incremental =
            CoverageGraph::assemble(&plan1, granularity, None, std::slice::from_ref(&shard1));

        let fresh_plan = GraphBuildPlan::new(h, pairs, groups, eps, AncestorImpl::Dense);
        let fresh_shard = fresh_plan.shard(h, pairs, 0..pairs.len(), &mut scratch);
        let fresh = CoverageGraph::assemble(&fresh_plan, granularity, None, &[fresh_shard]);
        assert_eq!(incremental, fresh, "eps={eps} {granularity:?}");

        let keys1 = plan1.warm_keys(&keys0, &shard0, &shard1, &recomputed, &delta, None);
        assert_eq!(
            keys1,
            LazyGreedySummarizer::initial_keys(&fresh),
            "warm keys must match a cold recompute (eps={eps})"
        );
    }

    #[test]
    fn append_matches_fresh_build_for_pairs() {
        let (h, ids) = dag();
        let base = dag_pairs(&ids);
        let mut ext = base.clone();
        // New pairs hit existing buckets, a fresh bucket, and exact-ε
        // boundaries.
        ext.push(Pair::new(ids[3], 0.5));
        ext.push(Pair::new(ids[4], -0.2));
        ext.push(Pair::new(ids[1], 1.0));
        for eps in [0.0, 0.2, 0.5, 1.0] {
            assert_append_matches_fresh(&h, &base, &ext, None, None, eps, Granularity::Pairs);
        }
    }

    #[test]
    fn append_touching_the_root_bucket_recomputes_everything() {
        let (h, ids) = dag();
        let base = dag_pairs(&ids);
        let mut ext = base.clone();
        ext.push(Pair::new(ids[0], 0.1)); // ids[0] is the root
        assert_append_matches_fresh(&h, &base, &ext, None, None, 0.5, Granularity::Pairs);
    }

    #[test]
    fn append_matches_fresh_build_for_groups() {
        let (h, ids) = dag();
        let base_pairs = dag_pairs(&ids);
        let base_groups = vec![vec![0, 1, 2], vec![3, 4], vec![5, 6, 7, 8, 9]];
        let mut pairs = base_pairs.clone();
        pairs.push(Pair::new(ids[2], 0.3));
        pairs.push(Pair::new(ids[4], -0.5));
        pairs.push(Pair::new(ids[3], 0.8));
        let mut groups = base_groups.clone();
        groups.push(vec![10, 11]);
        groups.push(vec![12]);
        for gran in [Granularity::Sentences, Granularity::Reviews] {
            assert_append_matches_fresh(
                &h,
                &base_pairs,
                &pairs,
                Some(&base_groups),
                Some(&groups),
                0.3,
                gran,
            );
        }
    }

    #[test]
    fn chained_appends_match_fresh_builds() {
        // Grow pair-by-pair through the incremental path, checking the
        // invariant at every step — the serve ingest access pattern.
        let (h, ids) = dag();
        let mut pairs = dag_pairs(&ids);
        let mut scratch = GraphBuildScratch::new();
        let mut plan = GraphBuildPlan::new(&h, &pairs, None, 0.5, AncestorImpl::Dense);
        let mut shard = plan.shard(&h, &pairs, 0..pairs.len(), &mut scratch);
        let mut keys = crate::LazyGreedySummarizer::initial_keys(&CoverageGraph::assemble(
            &plan,
            Granularity::Pairs,
            None,
            &[shard.clone()],
        ));
        let additions = [
            Pair::new(ids[4], 0.5),
            Pair::new(ids[2], -0.9),
            Pair::new(ids[0], 0.0),
            Pair::new(ids[1], 0.5),
        ];
        for (step, &p) in additions.iter().enumerate() {
            pairs.push(p);
            let (next_plan, delta) = plan.append(&h, &pairs, None);
            let (next_shard, recomputed) =
                next_plan.shard_append(&h, &pairs, &shard, &delta, &mut scratch);
            let g = CoverageGraph::assemble(
                &next_plan,
                Granularity::Pairs,
                None,
                std::slice::from_ref(&next_shard),
            );
            let fresh = CoverageGraph::for_pairs(&h, &pairs, 0.5);
            assert_eq!(g, fresh, "step {step}");
            keys = next_plan.warm_keys(&keys, &shard, &next_shard, &recomputed, &delta, None);
            assert_eq!(
                keys,
                crate::LazyGreedySummarizer::initial_keys(&fresh),
                "step {step}"
            );
            plan = next_plan;
            shard = next_shard;
        }
    }

    #[test]
    fn shard_rows_expose_the_edge_runs() {
        let (h, ids) = dag();
        let pairs = dag_pairs(&ids);
        let plan = GraphBuildPlan::new(&h, &pairs, None, 0.5, AncestorImpl::Dense);
        let shard = plan.shard(&h, &pairs, 0..pairs.len(), &mut GraphBuildScratch::new());
        let g = CoverageGraph::assemble(
            &plan,
            Granularity::Pairs,
            None,
            std::slice::from_ref(&shard),
        );
        for q in 0..pairs.len() {
            assert_eq!(shard.row(q), g.coverers_of(q), "pair {q}");
        }
    }

    #[test]
    fn sharded_assembly_matches_single_shard() {
        let (h, ids) = dag();
        let pairs = dag_pairs(&ids);
        let plan = GraphBuildPlan::new(&h, &pairs, None, 0.5, AncestorImpl::Dense);
        let mut scratch = GraphBuildScratch::new();
        let whole = plan.shard(&h, &pairs, 0..pairs.len(), &mut scratch);
        let whole = CoverageGraph::assemble(&plan, Granularity::Pairs, None, &[whole]);
        // Every contiguous 2-way split, including empty edge shards.
        for cut in 0..=pairs.len() {
            let s1 = plan.shard(&h, &pairs, 0..cut, &mut scratch);
            let s2 = plan.shard(&h, &pairs, cut..pairs.len(), &mut scratch);
            let merged = CoverageGraph::assemble(&plan, Granularity::Pairs, None, &[s1, s2]);
            assert_eq!(whole, merged, "cut={cut}");
        }
    }

    #[test]
    #[should_panic(expected = "sanitized by Pair::new")]
    fn literal_nan_pair_is_rejected_in_release_too() {
        // `Pair.sentiment` is pub, so literal construction can bypass the
        // constructor's NaN sanitization; the build must fail loudly
        // (real assert, not debug_assert) instead of producing a graph
        // with corrupt sorted buckets.
        let (h, _r, a, _b, _c) = tree();
        let pairs = vec![
            Pair::new(a, 0.5),
            Pair {
                concept: a,
                sentiment: f64::NAN,
            },
        ];
        let _ = CoverageGraph::for_pairs(&h, &pairs, 0.5);
    }

    #[test]
    #[should_panic(expected = "tile the pair range in order")]
    fn assemble_rejects_out_of_order_shards() {
        let (h, ids) = dag();
        let pairs = dag_pairs(&ids);
        let plan = GraphBuildPlan::new(&h, &pairs, None, 0.5, AncestorImpl::Dense);
        let mut scratch = GraphBuildScratch::new();
        let s1 = plan.shard(&h, &pairs, 0..4, &mut scratch);
        let s2 = plan.shard(&h, &pairs, 4..pairs.len(), &mut scratch);
        let _ = CoverageGraph::assemble(&plan, Granularity::Pairs, None, &[s2, s1]);
    }

    #[test]
    fn scratch_survives_reuse_across_instances_and_epoch_wrap() {
        let (h, ids) = dag();
        let pairs = dag_pairs(&ids);
        let (h2, _r, a, b, c) = {
            let t = tree();
            (t.0, t.1, t.2, t.3, t.4)
        };
        let small = vec![Pair::new(a, 0.1), Pair::new(b, 0.2), Pair::new(c, 0.3)];
        let mut scratch = GraphBuildScratch::new();
        // Force the epoch counter through its wrap-around reset path.
        scratch.epoch = u32::MAX - 2;
        let indexed = |h: &Hierarchy, pairs: &[Pair], eps: f64, scratch: &mut GraphBuildScratch| {
            let (imp, anc) = (GraphImpl::Indexed, AncestorImpl::Dense);
            CoverageGraph::build(h, pairs, Candidates::Pairs, eps, imp, anc, scratch)
        };
        for _ in 0..8 {
            let big = indexed(&h, &pairs, 0.5, &mut scratch);
            assert_eq!(big, build_all(&h, &pairs, Candidates::Pairs, 0.5)[0]);
            let tiny = indexed(&h2, &small, 0.1, &mut scratch);
            assert_eq!(tiny, build_all(&h2, &small, Candidates::Pairs, 0.1)[0]);
        }
    }

    #[test]
    fn graph_impl_names_round_trip() {
        for imp in [GraphImpl::Indexed, GraphImpl::Naive] {
            assert_eq!(GraphImpl::from_name(imp.name()), Some(imp));
        }
        assert_eq!(GraphImpl::from_name("fast"), None);
        assert_eq!(GraphImpl::default(), GraphImpl::Indexed);
    }

    #[test]
    fn window_is_inclusive_at_exact_eps_boundary() {
        // a-candidate at 0.5, c-target at 0.0, eps exactly 0.5: the naive
        // abs-test accepts; the windowed builder must too.
        let (h, _r, a, _b, c) = tree();
        let pairs = vec![Pair::new(a, 0.5), Pair::new(c, 0.0)];
        let g = CoverageGraph::for_pairs(&h, &pairs, 0.5);
        assert_eq!(g.covered_by(0), &[(0, 0), (1, 1)]);
        assert_eq!(g, build_all(&h, &pairs, Candidates::Pairs, 0.5)[0]);
    }
}
