//! The routing table is **prefix-closed**: `PathSet::shortest_paths`
//! routes every server along one BFS tree, so `P_ij` minus its last
//! link is exactly the path to that link's tail node. `vod-core`'s
//! penalty arena prices `D(i, j) = D(i, p) + π_l` on this (and asserts
//! it per instance); here it is pinned at the source, for every ordered
//! pair of every topology the workspace ships or generates.
#![allow(clippy::unwrap_used)]

use proptest::prelude::*;
use vod_net::{topologies, Network, PathSet};

fn assert_prefix_closed(net: &Network, what: &str) {
    let paths = PathSet::shortest_paths(net);
    for i in net.vho_ids() {
        for j in net.vho_ids() {
            let Some((&last, prefix)) = paths.path(i, j).split_last() else {
                assert_eq!(i, j, "{what}: empty path between distinct nodes");
                continue;
            };
            let link = net.link(last);
            assert_eq!(link.to, j, "{what}: path {i} -> {j} does not end at {j}");
            assert_eq!(
                paths.path(i, link.from),
                prefix,
                "{what}: path {i} -> {j} does not extend path {i} -> {}",
                link.from
            );
        }
    }
}

#[test]
fn named_topologies_are_prefix_closed() {
    assert_prefix_closed(&topologies::backbone55(), "backbone55");
    assert_prefix_closed(&topologies::tiscali(), "tiscali");
    assert_prefix_closed(&topologies::sprint(), "sprint");
    assert_prefix_closed(&topologies::ebone(), "ebone");
    let tree = topologies::spanning_tree_of(&topologies::backbone55());
    assert_prefix_closed(&tree, "spanning tree of backbone55");
    assert_prefix_closed(&topologies::full_mesh_of(&topologies::ebone()), "full mesh");
    // Shapes with many equal-length alternatives (even rings: two
    // routes to the antipode) and with none.
    for n in [3, 4, 8, 9] {
        assert_prefix_closed(&topologies::ring(n), &format!("ring({n})"));
    }
    assert_prefix_closed(&topologies::line(6), "line(6)");
    assert_prefix_closed(&topologies::star(7), "star(7)");
}

#[test]
fn ladder_meshes_are_prefix_closed() {
    for n in [8, 50, 100, 200] {
        assert_prefix_closed(&topologies::ladder_mesh(n), &format!("ladder_mesh({n})"));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn random_meshes_are_prefix_closed(
        n in 3usize..40,
        extra in 0usize..40,
        seed in 0u64..10_000,
    ) {
        let edges = (n + extra).min(n * (n - 1) / 2);
        let net = topologies::mesh_backbone(n, edges, seed);
        assert_prefix_closed(&net, &format!("mesh_backbone({n}, {edges}, {seed})"));
    }
}
