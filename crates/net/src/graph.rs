//! The backbone graph: VHO nodes and directed capacitated links.

use vod_json::{obj, Value};
use vod_model::{LinkId, Mbps, VhoId};

/// One VHO (vertex of the set `V`).
#[derive(Debug, Clone, PartialEq)]
pub struct Node {
    pub id: VhoId,
    /// Human-readable label (metro area name).
    pub name: String,
    /// Relative subscriber population of the metro area; drives both
    /// the per-VHO request volume in the trace generator and the
    /// nonuniform disk-size scenarios of Fig. 11.
    pub population: f64,
}

/// One directed link (element of the set `L`).
///
/// A bidirectional physical link is represented as two `Link`s with
/// opposite directions; each direction has its own capacity `B_l`,
/// matching constraint (6) of the MIP which is per directed link.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Link {
    pub id: LinkId,
    pub from: VhoId,
    pub to: VhoId,
    /// Capacity `B_l` in Mb/s.
    pub capacity: Mbps,
}

/// The backbone network: nodes, directed links, and adjacency.
#[derive(Debug, Clone)]
pub struct Network {
    nodes: Vec<Node>,
    links: Vec<Link>,
    /// For each node, outgoing `(neighbor, link)` pairs sorted by
    /// neighbor id — the sort makes shortest-path tie-breaking (and
    /// therefore every experiment) deterministic.
    adjacency: Vec<Vec<(VhoId, LinkId)>>,
}

impl Network {
    /// Build a network from nodes and an *undirected* edge list; every
    /// undirected edge `{a, b}` becomes two directed links `a→b`, `b→a`
    /// with the given uniform capacity.
    pub fn from_undirected_edges(
        nodes: Vec<Node>,
        edges: &[(VhoId, VhoId)],
        capacity: Mbps,
    ) -> Self {
        let mut links = Vec::with_capacity(edges.len() * 2);
        for &(a, b) in edges {
            assert!(a != b, "self-loop edge {a}->{b}");
            assert!(
                a.index() < nodes.len() && b.index() < nodes.len(),
                "edge endpoint out of range"
            );
            links.push(Link {
                id: LinkId::from_index(links.len()),
                from: a,
                to: b,
                capacity,
            });
            links.push(Link {
                id: LinkId::from_index(links.len()),
                from: b,
                to: a,
                capacity,
            });
        }
        Self::from_directed_links(nodes, links)
    }

    /// Build a network from an explicit directed link list.
    pub fn from_directed_links(nodes: Vec<Node>, links: Vec<Link>) -> Self {
        for (idx, n) in nodes.iter().enumerate() {
            assert_eq!(n.id.index(), idx, "nodes must be in id order");
        }
        for (idx, l) in links.iter().enumerate() {
            assert_eq!(l.id.index(), idx, "links must be in id order");
            assert!(l.from != l.to, "self-loop link {}", l.id);
        }
        let mut adjacency = vec![Vec::new(); nodes.len()];
        for l in &links {
            adjacency[l.from.index()].push((l.to, l.id));
        }
        for list in &mut adjacency {
            list.sort();
        }
        Self {
            nodes,
            links,
            adjacency,
        }
    }

    #[inline]
    pub fn num_nodes(&self) -> usize {
        self.nodes.len()
    }

    #[inline]
    pub fn num_links(&self) -> usize {
        self.links.len()
    }

    /// Number of undirected edges (directed links / 2 when the graph is
    /// symmetric, which all our generators produce).
    pub fn num_undirected_edges(&self) -> usize {
        self.links.len() / 2
    }

    #[inline]
    pub fn node(&self, id: VhoId) -> &Node {
        &self.nodes[id.index()]
    }

    #[inline]
    pub fn link(&self, id: LinkId) -> &Link {
        &self.links[id.index()]
    }

    #[inline]
    pub fn nodes(&self) -> &[Node] {
        &self.nodes
    }

    #[inline]
    pub fn links(&self) -> &[Link] {
        &self.links
    }

    pub fn vho_ids(&self) -> impl Iterator<Item = VhoId> + Clone {
        vod_model::ids::all_vhos(self.nodes.len())
    }

    /// Outgoing `(neighbor, link)` pairs of `v`, sorted by neighbor.
    #[inline]
    pub fn neighbors(&self, v: VhoId) -> &[(VhoId, LinkId)] {
        &self.adjacency[v.index()]
    }

    /// Set every link's capacity to the same value (the evaluation
    /// assumes equal link capacities and sweeps the value, Section
    /// VII-A).
    pub fn set_uniform_capacity(&mut self, capacity: Mbps) {
        for l in &mut self.links {
            l.capacity = capacity;
        }
    }

    /// Set one link's capacity (used by fault scenarios that degrade
    /// or cut individual links). Topology and adjacency are untouched.
    pub fn set_link_capacity(&mut self, id: LinkId, capacity: Mbps) {
        self.links[id.index()].capacity = capacity;
    }

    /// Total subscriber population across all metros.
    pub fn total_population(&self) -> f64 {
        self.nodes.iter().map(|n| n.population).sum()
    }

    /// Whether every node can reach every other node (required for the
    /// placement model: constraint (3) forces remote service to be
    /// possible).
    pub fn is_strongly_connected(&self) -> bool {
        if self.nodes.is_empty() {
            return true;
        }
        // For symmetric digraphs one BFS suffices; run it from node 0
        // and check full coverage, then verify symmetry cheaply.
        let mut seen = vec![false; self.nodes.len()];
        let mut queue = std::collections::VecDeque::from([VhoId::new(0)]);
        seen[0] = true;
        let mut count = 1;
        while let Some(u) = queue.pop_front() {
            for &(w, _) in self.neighbors(u) {
                if !seen[w.index()] {
                    seen[w.index()] = true;
                    count += 1;
                    queue.push_back(w);
                }
            }
        }
        count == self.nodes.len()
    }

    /// The canonical JSON text of the network: nodes and links in id
    /// order, without the derived adjacency index. The topology and
    /// delta tests compare networks by this text.
    pub fn to_json(&self) -> String {
        let nodes = Value::Arr(
            self.nodes
                .iter()
                .map(|n| {
                    obj(vec![
                        ("id", Value::Num(n.id.index() as f64)),
                        ("name", Value::Str(n.name.clone())),
                        ("population", Value::Num(n.population)),
                    ])
                })
                .collect(),
        );
        let links = Value::Arr(
            self.links
                .iter()
                .map(|l| {
                    obj(vec![
                        ("id", Value::Num(l.id.index() as f64)),
                        ("from", Value::Num(l.from.index() as f64)),
                        ("to", Value::Num(l.to.index() as f64)),
                        ("capacity", Value::Num(l.capacity.value())),
                    ])
                })
                .collect(),
        );
        obj(vec![("nodes", nodes), ("links", links)]).to_string_pretty()
    }
}

/// Build `n` nodes with the given populations and placeholder names.
pub fn make_nodes(populations: &[f64]) -> Vec<Node> {
    populations
        .iter()
        .enumerate()
        .map(|(i, &p)| Node {
            id: VhoId::from_index(i),
            name: format!("metro-{i}"),
            population: p,
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn triangle() -> Network {
        let nodes = make_nodes(&[1.0, 2.0, 3.0]);
        let edges = [
            (VhoId::new(0), VhoId::new(1)),
            (VhoId::new(1), VhoId::new(2)),
            (VhoId::new(2), VhoId::new(0)),
        ];
        Network::from_undirected_edges(nodes, &edges, Mbps::from_gbps(1.0))
    }

    #[test]
    fn undirected_edges_become_directed_pairs() {
        let net = triangle();
        assert_eq!(net.num_nodes(), 3);
        assert_eq!(net.num_links(), 6);
        assert_eq!(net.num_undirected_edges(), 3);
        let l0 = net.link(LinkId::new(0));
        let l1 = net.link(LinkId::new(1));
        assert_eq!((l0.from, l0.to), (l1.to, l1.from));
    }

    #[test]
    fn adjacency_sorted_and_complete() {
        let net = triangle();
        let nbrs = net.neighbors(VhoId::new(1));
        assert_eq!(nbrs.len(), 2);
        assert!(nbrs[0].0 < nbrs[1].0);
    }

    #[test]
    fn connectivity_detection() {
        let net = triangle();
        assert!(net.is_strongly_connected());
        let disconnected = Network::from_undirected_edges(
            make_nodes(&[1.0, 1.0, 1.0]),
            &[(VhoId::new(0), VhoId::new(1))],
            Mbps::new(100.0),
        );
        assert!(!disconnected.is_strongly_connected());
    }

    #[test]
    fn capacity_update() {
        let mut net = triangle();
        net.set_uniform_capacity(Mbps::from_gbps(0.5));
        assert!(net.links().iter().all(|l| l.capacity == Mbps::new(500.0)));
    }

    #[test]
    fn population_totals() {
        assert_eq!(triangle().total_population(), 6.0);
    }

    #[test]
    #[should_panic(expected = "self-loop")]
    fn self_loop_rejected() {
        let _ = Network::from_undirected_edges(
            make_nodes(&[1.0]),
            &[(VhoId::new(0), VhoId::new(0))],
            Mbps::new(1.0),
        );
    }
}
