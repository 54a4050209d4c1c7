//! Live world-reconfiguration deltas: the typed, validated mutations a
//! long-running deployment applies *between* placement cycles — VHO
//! decommission/recommission, link capacity rescale/cut, and catalog
//! growth (Section VII's moving world: demand drifts, links fail, VHOs
//! come and go).
//!
//! Design rules, mirrored by `vod_ops::Service`:
//!
//! - **Storage-dark, never removed.** Decommissioning a VHO collapses
//!   its *disk* budget to an epsilon but keeps the node in the graph:
//!   removing nodes would renumber every id axis (trace, demand,
//!   placement), destroying warm state for no modelling gain. A dark
//!   VHO stops holding copies (the repair pass re-homes or evicts
//!   them) but keeps originating demand.
//! - **Cut, never deleted.** A cut link keeps its id and endpoints but
//!   drops to [`CAPACITY_EPSILON`] so the MIP's bandwidth rows stay
//!   well-formed (`MipInstance` requires strictly positive
//!   capacities) while routing mass across it becomes prohibitively
//!   constrained.
//! - **Append-only catalog.** New videos are appended at the tail with
//!   ids continuing the existing dense range; existing ids never
//!   shift, so a deployed placement stays index-stable (it is simply
//!   *shorter* than the new catalog until the next deploy).
//! - **Seeded.** Appended-video metadata (length class, popularity
//!   weight) derives from the delta's `seed`, so two runs applying the
//!   same delta schedule build bitwise-identical worlds.
//!
//! A delta is validated against the concrete network before being
//! applied; [`WorldDelta::validate`] rejects dangling link/VHO
//! references, non-finite or non-positive scale factors, duplicate
//! VHO targets and zero-length appends with typed messages and never
//! panics. The empty delta is explicitly legal and applying it is
//! bitwise-identical to applying nothing.

use crate::graph::Network;
use vod_model::{Gigabytes, LinkId, Mbps, VhoId};

/// Floor used when a delta collapses a capacity (dark VHO disk, cut
/// link). Matches the solver-side `CAPACITY_FLOOR`: small enough to
/// deny any real allocation, large enough to keep every constraint row
/// strictly positive.
pub const CAPACITY_EPSILON: f64 = 1e-6;

/// One atomic mutation of the operational world.
#[derive(Debug, Clone, PartialEq)]
pub enum DeltaOp {
    /// Storage-dark a VHO: its placement disk collapses to an epsilon.
    /// The node stays in the graph and keeps originating demand.
    DecommissionVho { vho: VhoId },
    /// Bring a VHO (back) online with the given placement-disk budget.
    RecommissionVho { vho: VhoId, disk: Gigabytes },
    /// Multiply a link's capacity by `factor` (finite, strictly
    /// positive).
    ScaleLink { link: LinkId, factor: f64 },
    /// Cut a link: capacity collapses to [`CAPACITY_EPSILON`]; the
    /// link keeps its id and endpoints.
    CutLink { link: LinkId },
    /// Append `count` new videos at the catalog tail (ids continue the
    /// dense range; metadata derives from the delta seed).
    AppendVideos { count: usize },
}

impl DeltaOp {
    /// Whether this op only rescales capacities (link axis untouched,
    /// id axes untouched).
    #[must_use]
    pub fn is_capacity_only(&self) -> bool {
        matches!(self, DeltaOp::ScaleLink { .. } | DeltaOp::CutLink { .. })
    }

    /// Short operator-facing description for ledgers and logs.
    #[must_use]
    pub fn describe(&self) -> String {
        match self {
            DeltaOp::DecommissionVho { vho } => format!("decommission-vho {vho}"),
            DeltaOp::RecommissionVho { vho, disk } => {
                format!("recommission-vho {vho} disk {disk}")
            }
            DeltaOp::ScaleLink { link, factor } => format!("scale-link {link} x{factor}"),
            DeltaOp::CutLink { link } => format!("cut-link {link}"),
            DeltaOp::AppendVideos { count } => format!("append-videos {count}"),
        }
    }
}

/// A validated, seeded reconfiguration applied between service cycles.
#[derive(Debug, Clone, PartialEq)]
pub struct WorldDelta {
    /// The service cycle *before* whose first stage this delta
    /// applies: the world mutates, the deployed placement is repaired
    /// under the churn cap, and only then does the cycle's estimate
    /// run against the new world.
    pub cycle: usize,
    /// Seeds appended-video metadata; unused by pure topology ops but
    /// always present so a delta is self-contained.
    pub seed: u64,
    pub ops: Vec<DeltaOp>,
}

impl WorldDelta {
    /// The empty delta at a cycle: valid, and a no-op when applied.
    #[must_use]
    pub fn empty(cycle: usize) -> Self {
        Self {
            cycle,
            seed: 0,
            ops: Vec::new(),
        }
    }

    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }

    /// Capacity-only deltas touch nothing but capacities: every id axis
    /// (VHO, video, link) survives unchanged, so the deployed placement
    /// stays index-stable.
    #[must_use]
    pub fn is_capacity_only(&self) -> bool {
        self.ops.iter().all(DeltaOp::is_capacity_only)
    }

    /// Whether the delta appends videos (the one op that grows an id
    /// axis and therefore invalidates mid-solve artifacts).
    #[must_use]
    pub fn grows_catalog(&self) -> bool {
        self.ops
            .iter()
            .any(|op| matches!(op, DeltaOp::AppendVideos { .. }))
    }

    /// Total videos this delta appends.
    #[must_use]
    pub fn appended_videos(&self) -> usize {
        self.ops
            .iter()
            .map(|op| match op {
                DeltaOp::AppendVideos { count } => *count,
                _ => 0,
            })
            .sum()
    }

    /// Validate every op against the concrete network. Typed rejection
    /// of dangling link ids, dangling VHO ids, duplicate VHO targets,
    /// non-finite/non-positive scale factors and disks, and
    /// zero-length appends. Never panics on malformed input.
    pub fn validate(&self, net: &Network) -> Result<(), String> {
        let n_nodes = net.num_nodes();
        let n_links = net.num_links();
        let mut vho_targets: Vec<VhoId> = Vec::new();
        for (k, op) in self.ops.iter().enumerate() {
            match op {
                DeltaOp::DecommissionVho { vho } | DeltaOp::RecommissionVho { vho, .. } => {
                    if vho.index() >= n_nodes {
                        return Err(format!(
                            "op {k}: VHO {vho} dangling (network has {n_nodes} nodes)"
                        ));
                    }
                    if vho_targets.contains(vho) {
                        return Err(format!("op {k}: duplicate VHO target {vho}"));
                    }
                    vho_targets.push(*vho);
                    if let DeltaOp::RecommissionVho { disk, .. } = op {
                        if !disk.value().is_finite() || disk.value() <= 0.0 {
                            return Err(format!(
                                "op {k}: recommission disk must be finite and positive, got {}",
                                disk.value()
                            ));
                        }
                    }
                }
                DeltaOp::ScaleLink { link, factor } => {
                    if link.index() >= n_links {
                        return Err(format!(
                            "op {k}: link {link} dangling (network has {n_links} links)"
                        ));
                    }
                    if !factor.is_finite() || *factor <= 0.0 {
                        return Err(format!(
                            "op {k}: scale factor must be finite and positive, got {factor}"
                        ));
                    }
                }
                DeltaOp::CutLink { link } => {
                    if link.index() >= n_links {
                        return Err(format!(
                            "op {k}: link {link} dangling (network has {n_links} links)"
                        ));
                    }
                }
                DeltaOp::AppendVideos { count } => {
                    if *count == 0 {
                        return Err(format!("op {k}: append of zero videos is malformed"));
                    }
                }
            }
        }
        Ok(())
    }

    /// Comma-joined op descriptions for ledgers.
    #[must_use]
    pub fn describe_ops(&self) -> String {
        self.ops
            .iter()
            .map(DeltaOp::describe)
            .collect::<Vec<_>>()
            .join(", ")
    }

    /// Apply the link-capacity ops to a network. Disk and catalog ops
    /// are applied by the layer that owns disks and catalogs
    /// (`vod_ops`); this keeps the network mutation in the crate that
    /// owns the invariants. The delta must have been validated.
    pub fn apply_links(&self, net: &mut Network) {
        for op in &self.ops {
            match *op {
                DeltaOp::ScaleLink { link, factor } => {
                    let cap = net.link(link).capacity.value();
                    net.set_link_capacity(link, Mbps::new((cap * factor).max(CAPACITY_EPSILON)));
                }
                DeltaOp::CutLink { link } => {
                    net.set_link_capacity(link, Mbps::new(CAPACITY_EPSILON));
                }
                DeltaOp::DecommissionVho { .. }
                | DeltaOp::RecommissionVho { .. }
                | DeltaOp::AppendVideos { .. } => {}
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topologies;

    fn net() -> Network {
        topologies::mesh_backbone(5, 7, 9)
    }

    #[test]
    fn empty_delta_is_valid_and_a_noop() {
        let n = net();
        let d = WorldDelta::empty(3);
        assert!(d.is_empty());
        assert!(d.validate(&n).is_ok());
        let mut m = n.clone();
        d.apply_links(&mut m);
        assert_eq!(
            n.to_json(),
            m.to_json(),
            "empty delta must leave the network bitwise identical"
        );
    }

    #[test]
    fn capacity_ops_classify_and_apply() {
        let mut n = net();
        let before = n.link(LinkId::new(0)).capacity.value();
        let d = WorldDelta {
            cycle: 0,
            seed: 1,
            ops: vec![
                DeltaOp::ScaleLink {
                    link: LinkId::new(0),
                    factor: 0.5,
                },
                DeltaOp::CutLink {
                    link: LinkId::new(1),
                },
            ],
        };
        assert!(d.is_capacity_only());
        assert!(!d.grows_catalog());
        assert!(d.validate(&n).is_ok());
        d.apply_links(&mut n);
        assert!((n.link(LinkId::new(0)).capacity.value() - before * 0.5).abs() < 1e-12);
        assert_eq!(n.link(LinkId::new(1)).capacity.value(), CAPACITY_EPSILON);
    }

    #[test]
    fn malformed_deltas_are_typed_rejections() {
        let n = net();
        let cases = vec![
            (
                DeltaOp::ScaleLink {
                    link: LinkId::from_index(n.num_links()),
                    factor: 2.0,
                },
                "dangling",
            ),
            (
                DeltaOp::ScaleLink {
                    link: LinkId::new(0),
                    factor: -1.0,
                },
                "positive",
            ),
            (
                DeltaOp::ScaleLink {
                    link: LinkId::new(0),
                    factor: f64::NAN,
                },
                "finite",
            ),
            (
                DeltaOp::CutLink {
                    link: LinkId::new(99),
                },
                "dangling",
            ),
            (
                DeltaOp::DecommissionVho {
                    vho: VhoId::new(200),
                },
                "dangling",
            ),
            (
                DeltaOp::RecommissionVho {
                    vho: VhoId::new(0),
                    disk: Gigabytes::new(-3.0),
                },
                "positive",
            ),
            (DeltaOp::AppendVideos { count: 0 }, "malformed"),
        ];
        for (op, needle) in cases {
            let d = WorldDelta {
                cycle: 0,
                seed: 0,
                ops: vec![op.clone()],
            };
            let err = d.validate(&n).expect_err(&format!("{op:?} must fail"));
            assert!(err.contains(needle), "{op:?}: {err}");
        }
        // Duplicate VHO targets across ops.
        let dup = WorldDelta {
            cycle: 0,
            seed: 0,
            ops: vec![
                DeltaOp::DecommissionVho { vho: VhoId::new(1) },
                DeltaOp::RecommissionVho {
                    vho: VhoId::new(1),
                    disk: Gigabytes::new(10.0),
                },
            ],
        };
        let err = dup.validate(&n).expect_err("duplicate target must fail");
        assert!(err.contains("duplicate"), "{err}");
    }

    #[test]
    fn append_accounting() {
        let d = WorldDelta {
            cycle: 2,
            seed: 7,
            ops: vec![
                DeltaOp::AppendVideos { count: 3 },
                DeltaOp::CutLink {
                    link: LinkId::new(0),
                },
                DeltaOp::AppendVideos { count: 2 },
            ],
        };
        assert!(d.grows_catalog());
        assert!(!d.is_capacity_only());
        assert_eq!(d.appended_videos(), 5);
        assert!(d.describe_ops().contains("append-videos 3"));
    }
}
