//! Property coverage for [`vod_net::WorldDelta::validate`]: malformed
//! deltas (dangling link/VHO references, non-positive or non-finite
//! scale factors, duplicate VHO targets, zero-length appends) are
//! rejected with typed messages and never panic, well-formed deltas
//! validate, and the empty delta applies as a bitwise no-op.
use proptest::prelude::*;
use vod_model::{Gigabytes, LinkId, VhoId};
use vod_net::{topologies, DeltaOp, Network, WorldDelta};

fn net() -> Network {
    topologies::mesh_backbone(6, 9, 17)
}

/// Decode one generated op against a world with `n_nodes`/`n_links`.
/// `kind` selects the op; the `bad` flag (when the malformed branch is
/// chosen) injects exactly one malformation so we know what to expect.
fn build_op(
    kind: u8,
    bad: bool,
    idx: usize,
    factor: f64,
    n_nodes: usize,
    n_links: usize,
) -> (DeltaOp, bool) {
    match kind % 5 {
        0 => {
            let vho = if bad { n_nodes + idx } else { idx % n_nodes };
            (
                DeltaOp::DecommissionVho {
                    vho: VhoId::from_index(vho),
                },
                bad,
            )
        }
        1 => {
            let vho = idx % n_nodes;
            let disk = if bad {
                -factor.abs()
            } else {
                factor.abs() + 0.1
            };
            (
                DeltaOp::RecommissionVho {
                    vho: VhoId::from_index(vho),
                    disk: Gigabytes::new(disk),
                },
                bad,
            )
        }
        2 => {
            let link = if bad { n_links + idx } else { idx % n_links };
            (
                DeltaOp::ScaleLink {
                    link: LinkId::from_index(link),
                    factor: factor.abs() + 0.1,
                },
                bad,
            )
        }
        3 => {
            // Bad branch: keep the link in range but poison the factor.
            let f = if bad {
                -factor.abs()
            } else {
                factor.abs() + 0.1
            };
            (
                DeltaOp::ScaleLink {
                    link: LinkId::from_index(idx % n_links),
                    factor: f,
                },
                bad,
            )
        }
        _ => {
            let count = if bad { 0 } else { 1 + idx % 4 };
            (DeltaOp::AppendVideos { count }, bad)
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Any generated delta either validates or is rejected with a
    /// message — validation never panics — and a delta containing at
    /// least one injected malformation is always rejected.
    #[test]
    fn validate_rejects_malformed_without_panicking(
        spec in prop::collection::vec((0u8..5, any::<bool>(), 0usize..32, 0.25f64..4.0), 1..8),
        seed in 0u64..1000,
    ) {
        let n = net();
        let mut ops = Vec::new();
        let mut any_bad = false;
        for (slot, &(kind, bad, idx, factor)) in spec.iter().enumerate() {
            let (op, was_bad) =
                build_op(kind, bad, idx + slot, factor, n.num_nodes(), n.num_links());
            any_bad |= was_bad;
            ops.push(op);
        }
        let d = WorldDelta { cycle: 0, seed, ops };
        let res = d.validate(&n);
        if any_bad {
            let err = res.expect_err("a malformed op must be rejected");
            prop_assert!(!err.is_empty());
        }
    }

    /// Duplicate VHO targets are rejected even when each op is
    /// individually well-formed.
    #[test]
    fn duplicate_vho_targets_are_rejected(vho in 0usize..6, pair in any::<bool>()) {
        let n = net();
        let first = DeltaOp::DecommissionVho { vho: VhoId::from_index(vho) };
        let second = if pair {
            DeltaOp::RecommissionVho {
                vho: VhoId::from_index(vho),
                disk: Gigabytes::new(50.0),
            }
        } else {
            DeltaOp::DecommissionVho { vho: VhoId::from_index(vho) }
        };
        let d = WorldDelta { cycle: 1, seed: 2, ops: vec![first, second] };
        let err = d.validate(&n).expect_err("duplicate VHO target must fail");
        prop_assert!(err.contains("duplicate"), "{}", err);
    }

    /// The empty delta validates and applying it leaves the network
    /// bitwise identical to not applying anything.
    #[test]
    fn empty_delta_is_bitwise_noop(cycle in 0usize..64, seed in any::<u64>()) {
        let n = net();
        let d = WorldDelta { cycle, seed, ops: Vec::new() };
        prop_assert!(d.validate(&n).is_ok());
        prop_assert!(d.is_empty() && d.is_capacity_only() && !d.grows_catalog());
        let mut m = n.clone();
        d.apply_links(&mut m);
        prop_assert_eq!(n.to_json(), m.to_json());
    }

    /// Well-formed capacity deltas validate, classify as
    /// capacity-only, and keep every capacity finite and positive
    /// after application.
    #[test]
    fn well_formed_capacity_deltas_apply_cleanly(
        picks in prop::collection::vec((0usize..9, 0.25f64..4.0, any::<bool>()), 1..6),
    ) {
        let n = net();
        let ops: Vec<DeltaOp> = picks
            .iter()
            .map(|&(link, factor, cut)| {
                if cut {
                    DeltaOp::CutLink { link: LinkId::from_index(link) }
                } else {
                    DeltaOp::ScaleLink { link: LinkId::from_index(link), factor }
                }
            })
            .collect();
        let d = WorldDelta { cycle: 0, seed: 3, ops };
        prop_assert!(d.validate(&n).is_ok());
        prop_assert!(d.is_capacity_only());
        let mut m = n.clone();
        d.apply_links(&mut m);
        for l in m.links() {
            prop_assert!(l.capacity.value().is_finite() && l.capacity.value() > 0.0);
        }
    }
}
