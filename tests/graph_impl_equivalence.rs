//! Property tests: [`CoverageGraph::build`] with the indexed §4.1
//! builder (over either ancestor index) is *identical* — not just
//! cost-equivalent — to the naive oracle builder on random multi-parent
//! DAGs, and raw vs compressed-weighted instances agree on cost even
//! with signed-zero / NaN-sanitized sentiments.

use osars::core::{
    compress_pairs, Candidates, CoverageGraph, Granularity, GraphBuildScratch, GraphImpl, Pair,
};
use osars::ontology::{AncestorImpl, Hierarchy, HierarchyBuilder, NodeId};
use proptest::prelude::*;

/// The naive oracle build, then the indexed build over each ancestor
/// index, all through [`CoverageGraph::build`].
fn builds(h: &Hierarchy, pairs: &[Pair], cands: Candidates<'_>, eps: f64) -> Vec<CoverageGraph> {
    let mut scratch = GraphBuildScratch::new();
    [
        (GraphImpl::Naive, AncestorImpl::Dense),
        (GraphImpl::Indexed, AncestorImpl::Dense),
        (GraphImpl::Indexed, AncestorImpl::Segmented),
    ]
    .into_iter()
    .map(|(imp, anc)| CoverageGraph::build(h, pairs, cands, eps, imp, anc, &mut scratch))
    .collect()
}

/// Random rooted DAG: node i > 0 gets a parent among nodes 0..i, plus an
/// optional second parent (multi-parent closures are the hard case for
/// the topological closure merge).
fn arb_hierarchy(max_nodes: usize) -> impl Strategy<Value = Hierarchy> {
    (2..=max_nodes)
        .prop_flat_map(|n| {
            let parents = (1..n)
                .map(|i| (0..i, proptest::option::of(0..i)))
                .collect::<Vec<_>>();
            parents.prop_map(move |ps| {
                let mut b = HierarchyBuilder::new();
                for i in 0..n {
                    b.add_node(&format!("n{i}"));
                }
                for (i, (p1, p2)) in ps.into_iter().enumerate() {
                    let child = NodeId::from_index(i + 1);
                    b.add_edge(NodeId::from_index(p1), child).unwrap();
                    if let Some(p2) = p2 {
                        if p2 != p1 {
                            b.add_edge(NodeId::from_index(p2), child).unwrap();
                        }
                    }
                }
                b.build()
                    .expect("random construction is a valid rooted DAG")
            })
        })
        .no_shrink()
}

/// Pairs through `Pair::new` with boundary-rich sentiments: a 0.1 grid
/// plus `-0.0` (sentiment code 21) and NaN (code 22), both of which the
/// constructor sanitizes to `0.0`.
fn arb_pairs(h: &Hierarchy, max_pairs: usize) -> impl Strategy<Value = Vec<Pair>> {
    let n = h.node_count();
    proptest::collection::vec(
        (0..n, 0u8..=22).prop_map(|(c, code)| {
            let s = match code {
                21 => -0.0,
                22 => f64::NAN,
                lv => (f64::from(lv) - 10.0) / 10.0,
            };
            Pair::new(NodeId::from_index(c), s)
        }),
        1..=max_pairs,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn indexed_pairs_graphs_equal_naive(
        (h, pairs, eps) in arb_hierarchy(14).prop_flat_map(|h| {
            let pairs = arb_pairs(&h, 24);
            (Just(h), pairs, (0u8..=10).prop_map(|e| f64::from(e) / 10.0))
        })
    ) {
        let graphs = builds(&h, &pairs, Candidates::Pairs, eps);
        for g in &graphs[1..] {
            prop_assert_eq!(g, &graphs[0]);
        }
        prop_assert_eq!(&CoverageGraph::for_pairs(&h, &pairs, eps), &graphs[0]);
    }

    #[test]
    fn indexed_group_graphs_equal_naive(
        (h, pairs) in arb_hierarchy(12).prop_flat_map(|h| {
            let pairs = arb_pairs(&h, 18);
            (Just(h), pairs)
        })
    ) {
        let eps = 0.3;
        let groups: Vec<Vec<usize>> = (0..pairs.len())
            .collect::<Vec<_>>()
            .chunks(4)
            .map(<[usize]>::to_vec)
            .collect();
        for gran in [Granularity::Sentences, Granularity::Reviews] {
            let graphs = builds(&h, &pairs, Candidates::Groups(&groups, gran), eps);
            for g in &graphs[1..] {
                prop_assert_eq!(g, &graphs[0]);
            }
            prop_assert_eq!(
                &CoverageGraph::for_groups(&h, &pairs, &groups, eps, gran),
                &graphs[0]
            );
        }
    }

    #[test]
    fn weighted_builders_agree_and_match_raw_costs(
        (h, pairs) in arb_hierarchy(12).prop_flat_map(|h| {
            let pairs = arb_pairs(&h, 20);
            (Just(h), pairs)
        })
    ) {
        let eps = 0.5;
        let (unique, weights) = compress_pairs(&pairs);
        let graphs = builds(&h, &unique, Candidates::WeightedPairs(&weights), eps);
        for g in &graphs[1..] {
            prop_assert_eq!(g, &graphs[0]);
        }
        let naive = &graphs[0];
        prop_assert_eq!(
            &CoverageGraph::for_weighted_pairs(&h, &unique, &weights, eps),
            naive
        );

        // Raw-vs-weighted cost agreement: any selection of distinct pairs
        // costs the same as selecting all their duplicates in the raw
        // instance — incl. pairs whose sentiment was sanitized from -0.0
        // or NaN by `Pair::new` (equal bits → one compressed pair).
        let raw = CoverageGraph::for_pairs(&h, &pairs, eps);
        let to_raw: Vec<Vec<usize>> = unique
            .iter()
            .map(|u| {
                (0..pairs.len())
                    .filter(|&i| {
                        pairs[i].concept == u.concept
                            && pairs[i].sentiment.to_bits() == u.sentiment.to_bits()
                    })
                    .collect()
            })
            .collect();
        for sel_w in [vec![], vec![0], (0..unique.len()).collect::<Vec<_>>()] {
            let sel_raw: Vec<usize> =
                sel_w.iter().flat_map(|&u| to_raw[u].iter().copied()).collect();
            prop_assert_eq!(naive.cost_of(&sel_w), raw.cost_of(&sel_raw));
        }
    }
}
