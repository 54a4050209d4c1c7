//! Fixed shortest-path routing between every ordered pair of VHOs.
//!
//! Section III: "we assume a predetermined path between the VHOs (e.g.,
//! based on shortest path routing)". The MIP only consumes the *set* of
//! links on each path (`P_ij ⊆ L`, Table I) and the hop count
//! `|P_ij|` that defines the transfer cost `c_ij = α|P_ij| + β`.
//!
//! Paths are computed by breadth-first search with deterministic
//! lowest-id tie-breaking, so two runs of any experiment route
//! identically.
#![deny(clippy::expect_used, clippy::panic, clippy::unreachable, clippy::todo)]

use crate::graph::Network;
use std::collections::VecDeque;
use vod_model::{LinkId, VhoId};

/// Precomputed routing paths for all ordered VHO pairs.
#[derive(Debug, Clone)]
pub struct PathSet {
    n: usize,
    /// `paths[i*n + j]` = ordered list of directed links on the route
    /// from server `i` to client `j`; empty for `i == j` (local service
    /// uses no links: `P_ii = ∅`).
    paths: Vec<Vec<LinkId>>,
}

impl PathSet {
    /// Compute shortest hop-count paths on `net` for every ordered pair.
    ///
    /// Panics if the network is not strongly connected (the placement
    /// model requires every VHO to be remotely reachable).
    pub fn shortest_paths(net: &Network) -> Self {
        assert!(
            net.is_strongly_connected(),
            "placement requires a strongly connected backbone"
        );
        let n = net.num_nodes();
        let mut paths = vec![Vec::new(); n * n];
        // BFS from each *server* i over outgoing links yields the
        // shortest i -> j path for every j.
        for i in net.vho_ids() {
            let mut parent: Vec<Option<(VhoId, LinkId)>> = vec![None; n];
            let mut dist = vec![usize::MAX; n];
            dist[i.index()] = 0;
            let mut queue = VecDeque::from([i]);
            while let Some(u) = queue.pop_front() {
                for &(w, l) in net.neighbors(u) {
                    if dist[w.index()] == usize::MAX {
                        dist[w.index()] = dist[u.index()] + 1;
                        parent[w.index()] = Some((u, l));
                        queue.push_back(w);
                    }
                }
            }
            for j in net.vho_ids() {
                if i == j {
                    continue;
                }
                let mut links = Vec::with_capacity(dist[j.index()]);
                let mut cur = j;
                while cur != i {
                    // Strong connectivity is asserted on entry, so the
                    // parent chain is complete; if that ever regresses,
                    // an empty path (treated as unreachable downstream)
                    // beats tearing the process down.
                    let Some((prev, l)) = parent[cur.index()] else {
                        links.clear();
                        break;
                    };
                    links.push(l);
                    cur = prev;
                }
                links.reverse();
                paths[i.index() * n + j.index()] = links;
            }
        }
        Self { n, paths }
    }

    #[inline]
    pub fn num_nodes(&self) -> usize {
        self.n
    }

    /// The ordered links on the path used by server `i` to serve
    /// requests at client `j` (`P_ij`); empty when `i == j`.
    #[inline]
    pub fn path(&self, server: VhoId, client: VhoId) -> &[LinkId] {
        &self.paths[server.index() * self.n + client.index()]
    }

    /// Hop count `|P_ij|`.
    #[inline]
    pub fn hops(&self, server: VhoId, client: VhoId) -> usize {
        self.path(server, client).len()
    }

    /// Transfer cost per gigabyte, `c_ij = α·|P_ij| + β` (eq. (1)).
    #[inline]
    pub fn cost(&self, server: VhoId, client: VhoId, alpha: f64, beta: f64) -> f64 {
        alpha * self.hops(server, client) as f64 + beta
    }

    /// Maximum hop count over all pairs (network diameter).
    pub fn diameter(&self) -> usize {
        self.paths.iter().map(Vec::len).max().unwrap_or(0)
    }

    /// Mean hop count over all ordered pairs `i != j`.
    pub fn mean_hops(&self) -> f64 {
        if self.n < 2 {
            return 0.0;
        }
        let total: usize = self.paths.iter().map(Vec::len).sum();
        total as f64 / (self.n * (self.n - 1)) as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::{make_nodes, Network};
    use vod_model::Mbps;

    fn line(n: usize) -> Network {
        let nodes = make_nodes(&vec![1.0; n]);
        let edges: Vec<_> = (0..n - 1)
            .map(|i| (VhoId::from_index(i), VhoId::from_index(i + 1)))
            .collect();
        Network::from_undirected_edges(nodes, &edges, Mbps::new(1000.0))
    }

    #[test]
    fn local_path_is_empty() {
        let ps = PathSet::shortest_paths(&line(3));
        assert!(ps.path(VhoId::new(1), VhoId::new(1)).is_empty());
        assert_eq!(ps.hops(VhoId::new(2), VhoId::new(2)), 0);
    }

    #[test]
    fn line_hop_counts() {
        let ps = PathSet::shortest_paths(&line(5));
        assert_eq!(ps.hops(VhoId::new(0), VhoId::new(4)), 4);
        assert_eq!(ps.hops(VhoId::new(4), VhoId::new(0)), 4);
        assert_eq!(ps.hops(VhoId::new(1), VhoId::new(3)), 2);
        assert_eq!(ps.diameter(), 4);
    }

    #[test]
    fn path_links_are_contiguous_and_directed() {
        let net = line(4);
        let ps = PathSet::shortest_paths(&net);
        let path = ps.path(VhoId::new(0), VhoId::new(3));
        assert_eq!(path.len(), 3);
        let mut cur = VhoId::new(0);
        for &lid in path {
            let l = net.link(lid);
            assert_eq!(l.from, cur, "links must chain from server to client");
            cur = l.to;
        }
        assert_eq!(cur, VhoId::new(3));
    }

    #[test]
    fn cost_formula() {
        let ps = PathSet::shortest_paths(&line(3));
        // c_ij = alpha*hops + beta
        assert_eq!(ps.cost(VhoId::new(0), VhoId::new(2), 1.0, 0.0), 2.0);
        assert_eq!(ps.cost(VhoId::new(0), VhoId::new(2), 2.0, 0.5), 4.5);
        assert_eq!(ps.cost(VhoId::new(1), VhoId::new(1), 1.0, 0.5), 0.5);
    }

    #[test]
    fn deterministic_tie_breaking() {
        // A 4-cycle has two equal-length routes between opposite
        // corners; BFS with sorted adjacency must pick the same one
        // every time.
        let nodes = make_nodes(&[1.0; 4]);
        let edges = [
            (VhoId::new(0), VhoId::new(1)),
            (VhoId::new(1), VhoId::new(2)),
            (VhoId::new(2), VhoId::new(3)),
            (VhoId::new(3), VhoId::new(0)),
        ];
        let net = Network::from_undirected_edges(nodes, &edges, Mbps::new(1.0));
        let a = PathSet::shortest_paths(&net);
        let b = PathSet::shortest_paths(&net);
        assert_eq!(
            a.path(VhoId::new(0), VhoId::new(2)),
            b.path(VhoId::new(0), VhoId::new(2))
        );
        assert_eq!(a.hops(VhoId::new(0), VhoId::new(2)), 2);
    }

    #[test]
    fn mean_hops_line() {
        let ps = PathSet::shortest_paths(&line(3));
        // pairs: (0,1)=1 (1,0)=1 (1,2)=1 (2,1)=1 (0,2)=2 (2,0)=2 → mean 8/6
        assert!((ps.mean_hops() - 8.0 / 6.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "strongly connected")]
    fn disconnected_rejected() {
        let net = Network::from_undirected_edges(
            make_nodes(&[1.0, 1.0, 1.0]),
            &[(VhoId::new(0), VhoId::new(1))],
            Mbps::new(1.0),
        );
        let _ = PathSet::shortest_paths(&net);
    }
}
