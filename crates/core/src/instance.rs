//! The MIP instance: parameters of Table I plus derived per-video
//! block data used by the decomposition solver.
//!
//! An instance bundles the network (`V`, `L`, `P_ij`, `B_l`), the
//! catalog (`M`, `s^m`, `r^m`), the demand input (`a_j^m`, `T`,
//! `f_j^m(t)`), the per-VHO disk capacities `D_i`, the transfer-cost
//! coefficients `α`, `β` of eq. (1), and optionally the
//! placement-transfer cost term of eq. (11).

use vod_model::{Catalog, Gigabytes, VhoId, VideoId};
use vod_net::{Network, PathSet};
use vod_trace::DemandInput;

/// How disk is apportioned across VHOs (Section VII-A / Fig. 11).
#[derive(Debug, Clone)]
pub enum DiskConfig {
    /// Every VHO gets the same capacity; total = `ratio` × library size.
    UniformRatio { ratio: f64 },
    /// Three VHO tiers by subscriber population: `n_large` biggest
    /// metros get 4 shares, `n_medium` get 2, the rest 1 (a large VHO
    /// has twice the disk of a medium, which has twice a small —
    /// Fig. 11's nonuniform case). Total = `ratio` × library size.
    Tiered {
        ratio: f64,
        n_large: usize,
        n_medium: usize,
    },
    /// Explicit capacities, one per VHO.
    Explicit(Vec<Gigabytes>),
}

impl DiskConfig {
    /// Materialize per-VHO capacities.
    pub fn capacities(&self, net: &Network, library_size: Gigabytes) -> Vec<Gigabytes> {
        let n = net.num_nodes();
        match self {
            DiskConfig::UniformRatio { ratio } => {
                assert!(*ratio > 0.0, "disk ratio must be positive");
                let per = library_size * *ratio / n as f64;
                vec![per; n]
            }
            DiskConfig::Tiered {
                ratio,
                n_large,
                n_medium,
            } => {
                assert!(*ratio > 0.0, "disk ratio must be positive");
                assert!(n_large + n_medium <= n, "tier counts exceed VHO count");
                // Rank VHOs by population (desc, deterministic ties).
                let mut order: Vec<usize> = (0..n).collect();
                order.sort_by(|&a, &b| {
                    net.nodes()[b]
                        .population
                        .total_cmp(&net.nodes()[a].population)
                        .then(a.cmp(&b))
                });
                let mut shares = vec![1.0f64; n];
                for (rank, &v) in order.iter().enumerate() {
                    shares[v] = if rank < *n_large {
                        4.0
                    } else if rank < n_large + n_medium {
                        2.0
                    } else {
                        1.0
                    };
                }
                let total_shares: f64 = shares.iter().sum();
                let total = library_size * *ratio;
                shares
                    .into_iter()
                    .map(|s| total * (s / total_shares))
                    .collect()
            }
            DiskConfig::Explicit(caps) => {
                assert_eq!(caps.len(), n, "capacity list length mismatch");
                caps.clone()
            }
        }
    }
}

/// Optional placement-transfer cost of eq. (11): storing video `m` at
/// VHO `i` additionally costs `w · s^m · c(source→i)` where the source
/// is the nearest previous holder of `m` (for incremental updates) or
/// a fixed origin VHO (for initial population).
#[derive(Debug, Clone)]
pub struct PlacementCost {
    /// The weight `w` of eq. (11); 0 disables the term.
    pub weight: f64,
    /// Previous placement: per video, sorted list of holders. Videos
    /// absent (or with no holders) fall back to `origin`.
    pub previous: Option<Vec<Vec<VhoId>>>,
    /// The origin VHO `o` for videos with no previous copy.
    pub origin: VhoId,
}

/// Per-client data of one video's block: the client VHO `j`, its
/// objective weight `s^m · a_j^m`, and its active-stream counts
/// `f_j^m(t)` for every enforced window.
#[derive(Debug, Clone)]
pub struct BlockClient {
    pub j: VhoId,
    /// `s^m · a_j^m` — multiplied by `c_ij` in the objective.
    pub demand_gb: f64,
    /// `r^m · f_j^m(t)` per window (Mb/s drawn on every link of the
    /// serving path during window `t`).
    pub rate: Vec<f64>,
}

/// Precomputed block data for one video.
#[derive(Debug, Clone)]
pub struct VideoBlock {
    pub video: VideoId,
    pub size_gb: f64,
    /// Clients with nonzero demand (aggregate or active); the MIP's
    /// constraint (3) for zero-demand clients is satisfied implicitly
    /// by assigning them to any stored copy at zero cost.
    pub clients: Vec<BlockClient>,
    /// Extra objective cost of opening each facility (the eq. (11)
    /// term `w · s^m · c_{oi}`); empty when the term is disabled.
    pub facility_obj_cost: Vec<f64>,
}

/// A complete placement MIP instance.
#[derive(Debug)]
pub struct MipInstance {
    pub network: Network,
    pub catalog: Catalog,
    pub demand: DemandInput,
    pub disks: Vec<Gigabytes>,
    /// The routing and the transfer-cost coefficients of eq. (1),
    /// read-only outside the crate: `costs` is derived from them once.
    pub(crate) paths: PathSet,
    pub(crate) alpha: f64,
    pub(crate) beta: f64,
    /// `c_ij` client-major: `costs[j·n + i]`, so one client's costs
    /// over every server are one contiguous row.
    costs: Vec<f64>,
    blocks: Vec<VideoBlock>,
}

impl MipInstance {
    /// Build an instance. Validates capacities and precomputes block
    /// data.
    pub fn new(
        network: Network,
        catalog: Catalog,
        demand: DemandInput,
        disk: &DiskConfig,
        alpha: f64,
        beta: f64,
        placement_cost: Option<&PlacementCost>,
    ) -> Self {
        assert!(alpha > 0.0, "alpha must be positive (Proposition 5.1)");
        assert!(beta >= 0.0, "beta must be nonnegative");
        assert_eq!(
            demand.n_videos(),
            catalog.len(),
            "demand matrix and catalog disagree on |M|"
        );
        assert_eq!(
            demand.n_vhos(),
            network.num_nodes(),
            "demand matrix and network disagree on |V|"
        );
        for l in network.links() {
            assert!(
                l.capacity.value() > 0.0,
                "link {} has nonpositive capacity",
                l.id
            );
        }
        let paths = PathSet::shortest_paths(&network);
        let disks = disk.capacities(&network, catalog.total_size());
        assert!(disks.iter().all(|d| d.value() > 0.0), "zero disk at a VHO");
        let max_size = catalog
            .iter()
            .map(|v| v.size().value())
            .fold(0.0f64, f64::max);
        assert!(
            disks.iter().any(|d| d.value() >= max_size),
            "no VHO can store the largest video"
        );

        let n_windows = demand.windows.len();
        let mut blocks = Vec::with_capacity(catalog.len());
        for v in catalog.iter() {
            let size_gb = v.size().value();
            let rate_mbps = v.bitrate().value();
            // Union the client sets of the aggregate and active rows.
            let mut clients: std::collections::BTreeMap<VhoId, BlockClient> = Default::default();
            for &(j, a) in demand.aggregate.row(v.id) {
                clients.insert(
                    j,
                    BlockClient {
                        j,
                        demand_gb: size_gb * a,
                        rate: vec![0.0; n_windows],
                    },
                );
            }
            for (t, active) in demand.active.iter().enumerate() {
                for &(j, f) in active.row(v.id) {
                    let entry = clients.entry(j).or_insert_with(|| BlockClient {
                        j,
                        demand_gb: 0.0,
                        rate: vec![0.0; n_windows],
                    });
                    entry.rate[t] = rate_mbps * f;
                }
            }
            let facility_obj_cost = match placement_cost {
                Some(pc) if pc.weight > 0.0 => {
                    let n = network.num_nodes();
                    let holders: &[VhoId] = pc
                        .previous
                        .as_ref()
                        .and_then(|prev| prev.get(v.id.index()))
                        .map(Vec::as_slice)
                        .filter(|h| !h.is_empty())
                        .unwrap_or(std::slice::from_ref(&pc.origin));
                    (0..n)
                        .map(|i| {
                            #[expect(
                                clippy::disallowed_methods,
                                reason = "recovers the id from a dense 0..n_vhos vector index"
                            )]
                            let iv = VhoId::from_index(i);
                            let min_cost = holders
                                .iter()
                                .map(|&h| paths.cost(h, iv, alpha, beta))
                                .fold(f64::MAX, f64::min);
                            // A VHO already holding the video pays β
                            // (its own c_ii); charge only the marginal
                            // network part so "keep the copy" is free.
                            pc.weight * size_gb * (min_cost - beta).max(0.0)
                        })
                        .collect()
                }
                _ => Vec::new(),
            };
            blocks.push(VideoBlock {
                video: v.id,
                size_gb,
                clients: clients.into_values().collect(),
                facility_obj_cost,
            });
        }

        let costs = cost_table(&paths, alpha, beta);
        Self {
            network,
            catalog,
            demand,
            disks,
            paths,
            alpha,
            beta,
            costs,
            blocks,
        }
    }

    /// The same instance routed by `paths` instead, its cost table
    /// rebuilt: for tests that hand the solver a foreign routing.
    #[cfg(test)]
    pub(crate) fn with_paths(mut self, paths: PathSet) -> Self {
        self.costs = cost_table(&paths, self.alpha, self.beta);
        self.paths = paths;
        self
    }

    #[inline]
    pub fn n_videos(&self) -> usize {
        self.blocks.len()
    }

    #[inline]
    pub fn n_vhos(&self) -> usize {
        self.network.num_nodes()
    }

    #[inline]
    pub fn n_windows(&self) -> usize {
        self.demand.windows.len()
    }

    #[inline]
    pub fn blocks(&self) -> &[VideoBlock] {
        &self.blocks
    }

    #[inline]
    pub fn block(&self, m: VideoId) -> &VideoBlock {
        &self.blocks[m.index()]
    }

    /// The fixed routing `P_ij`.
    #[inline]
    pub fn paths(&self) -> &PathSet {
        &self.paths
    }

    /// Transfer-cost coefficient `α` of eq. (1).
    #[inline]
    pub fn alpha(&self) -> f64 {
        self.alpha
    }

    /// Transfer-cost coefficient `β` of eq. (1).
    #[inline]
    pub fn beta(&self) -> f64 {
        self.beta
    }

    /// Transfer cost `c_ij` of eq. (1).
    #[inline]
    pub fn cost(&self, server: VhoId, client: VhoId) -> f64 {
        self.costs[client.index() * self.n_vhos() + server.index()]
    }

    /// `c_ij` of client `j` for every server `i`, indexed by `i`.
    #[inline]
    pub fn cost_row(&self, client: VhoId) -> &[f64] {
        let n = self.n_vhos();
        &self.costs[client.index() * n..][..n]
    }

    /// Aggregate disk across all VHOs.
    pub fn total_disk(&self) -> Gigabytes {
        self.disks.iter().copied().sum()
    }

    /// Quick necessary feasibility conditions (Section VII-C): the
    /// aggregate disk must hold at least one copy of every video, and
    /// every video must fit somewhere. Returns a human-readable reason
    /// when violated.
    pub fn quick_feasibility_check(&self) -> Result<(), String> {
        let lib = self.catalog.total_size();
        let disk = self.total_disk();
        if disk.value() < lib.value() {
            return Err(format!("aggregate disk {disk} is below library size {lib}"));
        }
        Ok(())
    }
}

/// `c_ij = α·|P_ij| + β` for every pair, client-major, each entry
/// computed by [`PathSet::cost`] itself.
fn cost_table(paths: &PathSet, alpha: f64, beta: f64) -> Vec<f64> {
    let ids = vod_model::ids::all_vhos(paths.num_nodes());
    ids.clone()
        .flat_map(|j| ids.clone().map(move |i| paths.cost(i, j, alpha, beta)))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use vod_model::{Mbps, SimTime, TimeWindow};
    use vod_net::topologies;
    use vod_trace::{synthesize_library, DemandInput, LibraryConfig};

    fn tiny_instance(ratio: f64) -> MipInstance {
        let net = topologies::mesh_backbone(5, 7, 1);
        let catalog = synthesize_library(&LibraryConfig::default_for(60, 7, 1));
        let trace = vod_trace::generate_trace(
            &catalog,
            &net,
            &vod_trace::TraceConfig::default_for(500.0, 7, 1),
        );
        let windows = vod_trace::analysis::select_peak_windows(&trace, &catalog, 3600, 2);
        let demand = DemandInput::from_trace(&trace, &catalog, net.num_nodes(), windows);
        MipInstance::new(
            net,
            catalog,
            demand,
            &DiskConfig::UniformRatio { ratio },
            1.0,
            0.0,
            None,
        )
    }

    #[test]
    fn uniform_disks_sum_to_ratio() {
        let inst = tiny_instance(2.0);
        let lib = inst.catalog.total_size();
        assert!((inst.total_disk().value() - 2.0 * lib.value()).abs() < 1e-6);
        let d0 = inst.disks[0];
        assert!(inst
            .disks
            .iter()
            .all(|&d| (d.value() - d0.value()).abs() < 1e-12));
    }

    #[test]
    fn tiered_disks_follow_population() {
        let net = topologies::mesh_backbone(10, 15, 2);
        let lib = Gigabytes::new(100.0);
        let caps = DiskConfig::Tiered {
            ratio: 3.0,
            n_large: 2,
            n_medium: 3,
        }
        .capacities(&net, lib);
        assert!((caps.iter().map(|c| c.value()).sum::<f64>() - 300.0).abs() < 1e-9);
        // The largest-population VHO has 4x the disk of the smallest.
        let mut by_pop: Vec<usize> = (0..10).collect();
        by_pop.sort_by(|&a, &b| {
            net.nodes()[b]
                .population
                .total_cmp(&net.nodes()[a].population)
        });
        let big = caps[by_pop[0]].value();
        let small = caps[by_pop[9]].value();
        assert!((big / small - 4.0).abs() < 1e-9);
    }

    #[test]
    fn blocks_cover_demand() {
        let inst = tiny_instance(2.0);
        let mut total_gb = 0.0;
        for b in inst.blocks() {
            for c in &b.clients {
                total_gb += c.demand_gb;
                assert_eq!(c.rate.len(), inst.n_windows());
            }
        }
        // Σ s^m a_j^m = Σ over trace of sizes.
        let expect: f64 = inst
            .catalog
            .ids()
            .map(|m| inst.demand.aggregate.video_total(m) * inst.catalog.video(m).size().value())
            .sum();
        assert!((total_gb - expect).abs() < 1e-6);
    }

    /// An instance on `net` with no demand, priced at `alpha`, `beta`;
    /// every VHO's disk holds the whole library.
    fn demand_free(net: vod_net::Network, alpha: f64, beta: f64) -> MipInstance {
        let catalog = synthesize_library(&LibraryConfig::default_for(20, 7, 1));
        let (m, v) = (catalog.len(), net.num_nodes());
        let demand = DemandInput {
            aggregate: vod_trace::DemandMatrix::zeros(m, v),
            windows: vec![],
            active: vec![],
        };
        MipInstance::new(
            net,
            catalog,
            demand,
            &DiskConfig::UniformRatio { ratio: v as f64 },
            alpha,
            beta,
            None,
        )
    }

    #[test]
    fn cost_matches_paths() {
        let inst = tiny_instance(2.0);
        let i = VhoId::new(0);
        let j = VhoId::new(3);
        assert_eq!(
            inst.cost(i, j),
            inst.paths.hops(i, j) as f64 * inst.alpha + inst.beta
        );
        assert_eq!(inst.cost(j, j), inst.beta);

        // The cost table holds every pair's `PathSet::cost` bit for bit,
        // and a client's row is its costs indexed by server.
        for (net, alpha, beta) in [
            (topologies::tiscali(), 1.0, 0.0),
            (topologies::ladder_mesh(100), 1.0, 0.0),
            (topologies::backbone55(), 1.0, 0.0),
            (topologies::backbone55(), 0.3, 0.7),
        ] {
            let inst = demand_free(net, alpha, beta);
            for j in inst.network.vho_ids() {
                let row = inst.cost_row(j);
                assert_eq!(row.len(), inst.n_vhos());
                for i in inst.network.vho_ids() {
                    let want = inst.paths().cost(i, j, alpha, beta);
                    assert_eq!(inst.cost(i, j).to_bits(), want.to_bits(), "c({i}, {j})");
                    assert_eq!(row[i.index()].to_bits(), want.to_bits(), "row {j}[{i}]");
                }
            }
        }
    }

    #[test]
    fn quick_check_flags_insufficient_disk() {
        let inst = tiny_instance(0.5);
        assert!(inst.quick_feasibility_check().is_err());
        assert!(tiny_instance(1.5).quick_feasibility_check().is_ok());
    }

    #[test]
    fn placement_cost_term_built() {
        let net = topologies::mesh_backbone(5, 7, 1);
        let catalog = synthesize_library(&LibraryConfig::default_for(30, 7, 1));
        let n = catalog.len();
        let demand = DemandInput {
            aggregate: vod_trace::DemandMatrix::zeros(n, 5),
            windows: vec![TimeWindow::of_len(SimTime::ZERO, 3600)],
            active: vec![vod_trace::DemandMatrix::zeros(n, 5)],
        };
        let pc = PlacementCost {
            weight: 1.0,
            previous: None,
            origin: VhoId::new(0),
        };
        let inst = MipInstance::new(
            net,
            catalog,
            demand,
            &DiskConfig::UniformRatio { ratio: 2.0 },
            1.0,
            0.0,
            Some(&pc),
        );
        let b = &inst.blocks()[0];
        assert_eq!(b.facility_obj_cost.len(), 5);
        // Free to "place" at the origin itself; costly elsewhere.
        assert_eq!(b.facility_obj_cost[0], 0.0);
        assert!(b.facility_obj_cost[1..].iter().any(|&c| c > 0.0));
    }

    #[test]
    #[should_panic(expected = "nonpositive capacity")]
    fn zero_capacity_link_rejected() {
        let mut net = topologies::mesh_backbone(5, 7, 1);
        net.set_uniform_capacity(Mbps::new(0.0));
        let catalog = synthesize_library(&LibraryConfig::default_for(30, 7, 1));
        let n = catalog.len();
        let demand = DemandInput {
            aggregate: vod_trace::DemandMatrix::zeros(n, 5),
            windows: vec![],
            active: vec![],
        };
        let _ = MipInstance::new(
            net,
            catalog,
            demand,
            &DiskConfig::UniformRatio { ratio: 2.0 },
            1.0,
            0.0,
            None,
        );
    }
}
