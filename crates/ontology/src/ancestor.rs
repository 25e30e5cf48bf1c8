//! Precomputed ancestor closures for the Section 4.1 hot path.
//!
//! [`Hierarchy::ancestors_with_dist`](crate::Hierarchy::ancestors_with_dist)
//! runs an upward BFS with a fresh `HashMap`, `VecDeque`, and output `Vec`
//! on every call. The coverage-graph builder in `osa-core` calls it once
//! per target pair, so at corpus scale the ancestor walk — not the
//! sentiment matching — dominates construction time. [`AncestorIndex`]
//! removes the walk entirely: one topological sweep computes every node's
//! ancestor closure into a CSR arena, after which "all ancestors of `n`
//! with shortest distances" is a slice borrow.
//!
//! For callers that need the allocation-free walk but cannot justify the
//! full closure (one-shot queries on huge hierarchies), [`AncestorScratch`]
//! backs the reusable-buffer variant
//! [`Hierarchy::ancestors_with_dist_into`](crate::Hierarchy::ancestors_with_dist_into).

use std::collections::VecDeque;

use crate::{Hierarchy, NodeId};

/// A CSR-layout ancestor closure: for every node, a flat slice of
/// `(ancestor, shortest downward distance)` entries sorted by ancestor id.
/// Every node appears in its own closure at distance 0, matching the
/// coverage semantics where a concept covers itself.
///
/// Built in a single topological sweep: a node's closure is the
/// min-distance merge of its parents' (already final) closures shifted by
/// one edge, so distances are exact shortest directed paths even in
/// multi-parent DAGs. Obtain one through
/// [`Hierarchy::ancestor_index`](crate::Hierarchy::ancestor_index), which
/// computes it lazily once per hierarchy.
#[derive(Debug, Clone, Default)]
pub struct AncestorIndex {
    /// Closure of node `i` lives at `entries[offsets[i]..offsets[i + 1]]`.
    offsets: Vec<u32>,
    /// `(ancestor, dist)` runs, ascending by ancestor id within each run.
    entries: Vec<(NodeId, u32)>,
}

impl AncestorIndex {
    /// Compute the full closure index for `h` in one topological sweep.
    pub fn build(h: &Hierarchy) -> Self {
        let n = h.node_count();
        let mut closures: Vec<Vec<(NodeId, u32)>> = vec![Vec::new(); n];
        // Dense min-dist merge scratch, reset via the touched list so the
        // sweep is O(total closure size), not O(nodes²).
        let mut dist = vec![u32::MAX; n];
        let mut touched: Vec<u32> = Vec::new();
        for v in h.topological_order() {
            touched.clear();
            dist[v.index()] = 0;
            touched.push(v.0);
            for &p in h.parents(v) {
                for &(a, d) in &closures[p.index()] {
                    let slot = &mut dist[a.index()];
                    if *slot == u32::MAX {
                        *slot = d + 1;
                        touched.push(a.0);
                    } else if d + 1 < *slot {
                        *slot = d + 1;
                    }
                }
            }
            touched.sort_unstable();
            closures[v.index()] = touched
                .iter()
                .map(|&a| {
                    let d = dist[a as usize];
                    dist[a as usize] = u32::MAX;
                    (NodeId(a), d)
                })
                .collect();
        }

        let total = closures.iter().map(Vec::len).sum();
        let mut offsets = Vec::with_capacity(n + 1);
        let mut entries = Vec::with_capacity(total);
        offsets.push(0);
        for c in &closures {
            entries.extend_from_slice(c);
            offsets.push(u32::try_from(entries.len()).expect("closure arena exceeds u32 range"));
        }
        AncestorIndex { offsets, entries }
    }

    /// All ancestors of `n` — including `n` itself at distance 0 — with
    /// the shortest directed path length from each ancestor down to `n`,
    /// sorted by ancestor id. Same *set* as
    /// [`Hierarchy::ancestors_with_dist`](crate::Hierarchy::ancestors_with_dist)
    /// (which returns BFS discovery order).
    #[inline]
    pub fn ancestors(&self, n: NodeId) -> &[(NodeId, u32)] {
        let lo = self.offsets[n.index()] as usize;
        let hi = self.offsets[n.index() + 1] as usize;
        &self.entries[lo..hi]
    }

    /// Number of nodes the index covers.
    pub fn node_count(&self) -> usize {
        self.offsets.len().saturating_sub(1)
    }

    /// Total closure entries across all nodes (the index's memory weight,
    /// published as the `graph.closure.entries` gauge by `osa-runtime`).
    pub fn entry_count(&self) -> usize {
        self.entries.len()
    }
}

/// Reusable buffers for
/// [`Hierarchy::ancestors_with_dist_into`](crate::Hierarchy::ancestors_with_dist_into):
/// a dense visited/distance table (reset through a touched list), the BFS
/// queue, and nothing else. One scratch amortizes all allocations across
/// any number of walks over hierarchies of any size.
#[derive(Debug, Clone, Default)]
pub struct AncestorScratch {
    pub(crate) dist: Vec<u32>,
    pub(crate) queue: VecDeque<u32>,
    pub(crate) touched: Vec<u32>,
}

impl AncestorScratch {
    /// Fresh scratch with empty buffers.
    pub fn new() -> Self {
        Self::default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::HierarchyBuilder;

    /// r -> {a, b}, {a, b} -> c, b -> d (the diamond from hierarchy.rs).
    fn diamond() -> Hierarchy {
        let mut b = HierarchyBuilder::new();
        let r = b.add_node("r");
        let a = b.add_node("a");
        let bb = b.add_node("b");
        let c = b.add_node("c");
        let d = b.add_node("d");
        b.add_edge(r, a).unwrap();
        b.add_edge(r, bb).unwrap();
        b.add_edge(a, c).unwrap();
        b.add_edge(bb, c).unwrap();
        b.add_edge(bb, d).unwrap();
        b.build().unwrap()
    }

    fn sorted_bfs(h: &Hierarchy, n: NodeId) -> Vec<(NodeId, u32)> {
        let mut v = h.ancestors_with_dist(n);
        v.sort_unstable();
        v
    }

    #[test]
    fn index_matches_bfs_on_diamond() {
        let h = diamond();
        let idx = h.ancestor_index();
        assert_eq!(idx.node_count(), h.node_count());
        for n in h.nodes() {
            assert_eq!(idx.ancestors(n), sorted_bfs(&h, n).as_slice(), "{n:?}");
        }
    }

    #[test]
    fn index_takes_shortest_path_in_multi_parent_dag() {
        // r -> a -> b -> c and r -> c directly: dist(r, c) must be 1.
        let mut bl = HierarchyBuilder::new();
        let r = bl.add_node("r");
        let a = bl.add_node("a");
        let b = bl.add_node("b");
        let c = bl.add_node("c");
        bl.add_edge(r, a).unwrap();
        bl.add_edge(a, b).unwrap();
        bl.add_edge(b, c).unwrap();
        bl.add_edge(r, c).unwrap();
        let h = bl.build().unwrap();
        let idx = h.ancestor_index();
        let anc = idx.ancestors(c);
        assert_eq!(anc, &[(r, 1), (a, 2), (b, 1), (c, 0)]);
    }

    #[test]
    fn index_is_cached_per_hierarchy() {
        let h = diamond();
        let first = h.ancestor_index() as *const AncestorIndex;
        let second = h.ancestor_index() as *const AncestorIndex;
        assert_eq!(first, second, "OnceLock must return the same index");
        // A clone recomputes independently (the cache state is cloned,
        // but mutating queries never leak across hierarchies).
        let h2 = h.clone();
        for n in h2.nodes() {
            assert_eq!(
                h2.ancestor_index().ancestors(n),
                h.ancestor_index().ancestors(n)
            );
        }
    }

    #[test]
    fn entry_count_sums_closures() {
        let h = diamond();
        let expect: usize = h.nodes().map(|n| h.ancestors_with_dist(n).len()).sum();
        assert_eq!(h.ancestor_index().entry_count(), expect);
    }

    #[test]
    fn into_variant_matches_allocating_walk_exactly() {
        let h = diamond();
        let mut scratch = AncestorScratch::new();
        let mut out = Vec::new();
        for n in h.nodes() {
            h.ancestors_with_dist_into(n, &mut scratch, &mut out);
            assert_eq!(out, h.ancestors_with_dist(n), "{n:?}");
        }
    }

    #[test]
    fn scratch_survives_hierarchies_of_different_sizes() {
        let big = diamond();
        let mut bl = HierarchyBuilder::new();
        let r = bl.add_node("r");
        let x = bl.add_node("x");
        bl.add_edge(r, x).unwrap();
        let small = bl.build().unwrap();

        let mut scratch = AncestorScratch::new();
        let mut out = Vec::new();
        for h in [&big, &small, &big] {
            for n in h.nodes() {
                h.ancestors_with_dist_into(n, &mut scratch, &mut out);
                assert_eq!(out, h.ancestors_with_dist(n));
            }
        }
    }
}
