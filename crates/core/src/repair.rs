//! Deterministic feasibility repair of a deployed placement after a
//! world delta.
//!
//! A reconfiguration can strand the *currently serving* placement in
//! two ways: copies pinned on a VHO that just went storage-dark
//! (decommission), and disk budgets that shrank below what is pinned
//! (recommission with a smaller disk). The repair pass produces a
//! typed [`RepairPlan`] — which copies were re-homed where, and which
//! were evicted — that the service feeds through the existing
//! churn-capped diff, so repair migrations never exceed the migration
//! budget.
//!
//! Determinism contract: pure function of `(deployed, catalog, dark,
//! disks)`; no RNG, no iteration over unordered containers. All ties
//! break toward the lowest id. Both chaos twins therefore compute
//! byte-identical plans.
//!
//! Rules, in order:
//!
//! 1. **Orphan eviction.** A video with copies on dark VHOs *and* at
//!    least one surviving holder simply drops the dark copies
//!    (eviction is free under the churn cap).
//! 2. **Sole-copy re-homing.** A video whose *only* copies sit on dark
//!    VHOs is re-homed to one live VHO: the one with the most free
//!    placement disk that fits the video (ties → lowest id), else the
//!    most free disk overall. Re-homing costs one churn-cap move; if
//!    the cap defers it, the video keeps its dark holders until the
//!    next cycle's solve re-homes it naturally (the placement stays
//!    structurally valid — dark VHOs remain in the id space).
//! 3. **Overflow eviction.** A live VHO pinned above its (possibly
//!    shrunken) budget evicts redundant copies — videos that keep at
//!    least one other copy — largest video first (ties → lowest id)
//!    until it fits. Sole copies are never evicted; a VHO that still
//!    overflows after shedding every redundant copy is left for the
//!    next solve to rebalance (best-effort, documented).
//! 4. **Routing renormalization.** Serving distributions pointing at
//!    holders that no longer hold the video are pruned and the
//!    remainder renormalized; a client left with no distribution falls
//!    back to nearest-copy service (the existing convention).

use crate::solution::Placement;
use vod_model::{Catalog, Gigabytes, VhoId, VideoId};

/// Slack when comparing pinned GB against a disk budget, to keep the
/// pass insensitive to accumulation order.
const DISK_TOL: f64 = 1e-9;

/// One re-homed sole copy: `video` moved from dark `from` to live `to`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RepairMove {
    pub video: VideoId,
    pub from: VhoId,
    pub to: VhoId,
}

/// The typed outcome of a repair pass.
#[derive(Debug, Clone)]
pub struct RepairPlan {
    /// The repaired placement (same video axis as the input).
    pub placement: Placement,
    /// Sole copies re-homed off dark VHOs (each costs one churn move).
    pub rehomed: Vec<RepairMove>,
    /// Copies dropped: orphans on dark VHOs with surviving holders,
    /// plus overflow evictions (free under the churn cap).
    pub evicted: Vec<(VideoId, VhoId)>,
}

impl RepairPlan {
    /// Whether the delta left the deployed placement untouched.
    #[must_use]
    pub fn is_noop(&self) -> bool {
        self.rehomed.is_empty() && self.evicted.is_empty()
    }

    /// FNV-1a of the canonical plan description — the drill compares
    /// these across twins.
    #[must_use]
    pub fn fingerprint(&self) -> u64 {
        let mut s = String::new();
        for m in &self.rehomed {
            s.push_str(&format!("r{}:{}>{};", m.video, m.from, m.to));
        }
        for (v, i) in &self.evicted {
            s.push_str(&format!("e{v}@{i};"));
        }
        vod_json::snapshot::fnv1a64(s.as_bytes())
    }
}

/// Repair `deployed` against the post-delta world: `dark[i]` marks
/// storage-dark VHOs, `disks[i]` is each VHO's placement-disk budget.
/// Both slices must cover the placement's VHO axis.
#[must_use]
pub fn repair_placement(
    deployed: &Placement,
    catalog: &Catalog,
    dark: &[bool],
    disks: &[Gigabytes],
) -> RepairPlan {
    let n_vhos = deployed.n_vhos();
    assert_eq!(dark.len(), n_vhos, "dark mask must cover the VHO axis");
    assert_eq!(disks.len(), n_vhos, "disk budgets must cover the VHO axis");

    let mut stores = deployed.holder_lists().to_vec();
    let mut rehomed = Vec::new();
    let mut evicted = Vec::new();

    let size_of = |mi: usize| catalog.video(VideoId::from_index(mi)).size().value();

    // Pinned GB per *live* VHO (dark holders never count toward disk).
    let mut used = vec![0.0f64; n_vhos];
    for (mi, holders) in stores.iter().enumerate() {
        for &h in holders {
            if !dark[h.index()] {
                used[h.index()] += size_of(mi);
            }
        }
    }
    let free = |used: &[f64], i: usize, disks: &[Gigabytes]| -> f64 { disks[i].value() - used[i] };

    // Passes 1 + 2: dark-VHO orphans and sole-copy re-homing.
    for (mi, holders) in stores.iter_mut().enumerate() {
        let has_dark = holders.iter().any(|h| dark[h.index()]);
        if !has_dark {
            continue;
        }
        let video = VideoId::from_index(mi);
        let alive: Vec<VhoId> = holders
            .iter()
            .copied()
            .filter(|h| !dark[h.index()])
            .collect();
        if !alive.is_empty() {
            for &h in holders.iter() {
                if dark[h.index()] {
                    evicted.push((video, h));
                }
            }
            *holders = alive;
            continue;
        }
        // Sole copies are all dark: re-home to the live VHO with the
        // most free disk that fits, else the most free disk overall.
        let sz = size_of(mi);
        let live: Vec<usize> = (0..n_vhos).filter(|&i| !dark[i]).collect();
        let pick = |cands: &[usize]| -> Option<usize> {
            cands.iter().copied().min_by(|&a, &b| {
                free(&used, b, disks)
                    .total_cmp(&free(&used, a, disks))
                    .then(a.cmp(&b))
            })
        };
        let fitting: Vec<usize> = live
            .iter()
            .copied()
            .filter(|&i| free(&used, i, disks) + DISK_TOL >= sz)
            .collect();
        let Some(t) = pick(&fitting).or_else(|| pick(&live)) else {
            // Every VHO is dark: nothing to re-home onto; leave the
            // placement as-is (structurally valid, served degraded).
            continue;
        };
        #[expect(
            clippy::disallowed_methods,
            reason = "t indexes the dense VHO axis of the store lists; the id round-trips losslessly"
        )]
        let to = VhoId::from_index(t);
        let from = holders[0];
        for &h in holders.iter() {
            evicted.push((video, h));
        }
        rehomed.push(RepairMove { video, from, to });
        used[t] += sz;
        *holders = vec![to];
    }

    // Pass 3: overflow eviction on live VHOs, lowest VHO id first.
    for i in 0..n_vhos {
        if dark[i] || used[i] <= disks[i].value() + DISK_TOL {
            continue;
        }
        loop {
            // Redundant copies pinned here: the video keeps >= 1 copy
            // elsewhere. Largest video first, ties toward lowest id.
            #[expect(
                clippy::disallowed_methods,
                reason = "i walks the dense VHO axis of `dark`/`disks`; the id round-trips losslessly"
            )]
            let vho = VhoId::from_index(i);
            let candidate = stores
                .iter()
                .enumerate()
                .filter(|(_, holders)| holders.len() >= 2 && holders.binary_search(&vho).is_ok())
                .map(|(mi, _)| mi)
                .min_by(|&a, &b| size_of(b).total_cmp(&size_of(a)).then(a.cmp(&b)));
            let Some(mi) = candidate else {
                break; // only sole copies remain: best-effort stop
            };
            if let Ok(k) = stores[mi].binary_search(&vho) {
                stores[mi].remove(k);
            }
            evicted.push((VideoId::from_index(mi), vho));
            used[i] -= size_of(mi);
            if used[i] <= disks[i].value() + DISK_TOL {
                break;
            }
        }
    }

    // Pass 4: prune and renormalize routing against the new holders.
    let mut routing = deployed.routings().to_vec();
    let mut dist = Vec::new();
    for (holders, r) in stores.iter().zip(&mut routing) {
        for c in 0..r.x.n_clients() {
            dist.clear();
            dist.extend_from_slice(r.x.dist(c));
            dist.retain(|(h, _)| holders.binary_search(h).is_ok());
            let total: f64 = dist.iter().map(|&(_, x)| x).sum();
            if total > 0.0 {
                for e in &mut dist {
                    e.1 /= total;
                }
            } else {
                dist.clear(); // fall back to nearest-copy service
            }
            r.x.set_dist(c, &dist);
        }
    }

    #[expect(
        clippy::expect_used,
        reason = "passes 1-4 only shrink or re-home sorted store lists and renormalize \
                  routing over surviving holders, so the parts are valid by construction"
    )]
    let placement = Placement::from_parts(n_vhos, stores, routing)
        .expect("repair must preserve structural validity");
    RepairPlan {
        placement,
        rehomed,
        evicted,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vod_model::{Video, VideoClass, VideoKind};

    fn catalog(classes: &[VideoClass]) -> Catalog {
        Catalog::new(
            classes
                .iter()
                .enumerate()
                .map(|(i, &class)| Video {
                    id: VideoId::from_index(i),
                    class,
                    kind: VideoKind::Catalog,
                    release_day: 0,
                    weight: 1.0,
                })
                .collect(),
        )
    }

    fn placement(n_vhos: usize, holders: Vec<Vec<u16>>) -> Placement {
        Placement::from_stores(
            n_vhos,
            holders
                .into_iter()
                .map(|hs| hs.into_iter().map(VhoId::new).collect())
                .collect(),
        )
    }

    fn gb(v: f64) -> Gigabytes {
        Gigabytes::new(v)
    }

    #[test]
    fn healthy_world_is_a_noop() {
        let cat = catalog(&[VideoClass::Movie, VideoClass::Show]);
        let p = placement(3, vec![vec![0, 1], vec![2]]);
        let plan = repair_placement(&p, &cat, &[false; 3], &[gb(10.0); 3]);
        assert!(plan.is_noop());
        assert_eq!(plan.placement.total_copies(), 3);
        assert_eq!(plan.fingerprint(), vod_json::snapshot::fnv1a64(b""));
    }

    #[test]
    fn orphans_with_survivors_are_evicted() {
        let cat = catalog(&[VideoClass::Movie]);
        let p = placement(3, vec![vec![0, 2]]);
        let dark = [false, false, true];
        let plan = repair_placement(&p, &cat, &dark, &[gb(10.0); 3]);
        assert_eq!(plan.rehomed, vec![]);
        assert_eq!(plan.evicted, vec![(VideoId::new(0), VhoId::new(2))]);
        assert_eq!(plan.placement.stores(VideoId::new(0)), &[VhoId::new(0)]);
    }

    #[test]
    fn sole_dark_copies_rehome_to_most_free_fitting_vho() {
        let cat = catalog(&[VideoClass::Movie, VideoClass::Movie]);
        // Video 0 only on VHO 2 (going dark); video 1 occupies VHO 0.
        let p = placement(3, vec![vec![2], vec![0]]);
        let dark = [false, false, true];
        // VHO 0 has 8 GB free after video 1's 2 GB, VHO 1 has 3 GB.
        let plan = repair_placement(&p, &cat, &dark, &[gb(10.0), gb(3.0), gb(10.0)]);
        assert_eq!(
            plan.rehomed,
            vec![RepairMove {
                video: VideoId::new(0),
                from: VhoId::new(2),
                to: VhoId::new(0),
            }]
        );
        assert_eq!(plan.placement.stores(VideoId::new(0)), &[VhoId::new(0)]);
        assert!(plan.evicted.contains(&(VideoId::new(0), VhoId::new(2))));
    }

    #[test]
    fn overflow_evicts_redundant_largest_first_never_sole_copies() {
        // VHO 0 budget shrinks to 1.2 GB; it pins a redundant 1 GB
        // Show (also on VHO 1) and a sole 2 GB Movie. Only the Show
        // may leave; the sole Movie stays (best-effort overflow).
        let cat = catalog(&[VideoClass::Show, VideoClass::Movie]);
        let p = placement(2, vec![vec![0, 1], vec![0]]);
        let plan = repair_placement(&p, &cat, &[false, false], &[gb(1.2), gb(10.0)]);
        assert_eq!(plan.evicted, vec![(VideoId::new(0), VhoId::new(0))]);
        assert_eq!(plan.placement.stores(VideoId::new(0)), &[VhoId::new(1)]);
        assert_eq!(plan.placement.stores(VideoId::new(1)), &[VhoId::new(0)]);
    }

    #[test]
    fn all_dark_world_leaves_placement_untouched() {
        let cat = catalog(&[VideoClass::Clip]);
        let p = placement(2, vec![vec![1]]);
        let plan = repair_placement(&p, &cat, &[true, true], &[gb(1.0); 2]);
        assert!(plan.is_noop());
        assert_eq!(plan.placement.stores(VideoId::new(0)), &[VhoId::new(1)]);
    }

    #[test]
    fn plans_are_deterministic_and_fingerprinted() {
        let cat = catalog(&[VideoClass::Movie, VideoClass::Show, VideoClass::Clip]);
        let p = placement(4, vec![vec![0, 3], vec![3], vec![1, 3]]);
        let dark = [false, false, false, true];
        let disks = [gb(5.0), gb(5.0), gb(5.0), gb(5.0)];
        let a = repair_placement(&p, &cat, &dark, &disks);
        let b = repair_placement(&p, &cat, &dark, &disks);
        assert_eq!(a.rehomed, b.rehomed);
        assert_eq!(a.evicted, b.evicted);
        assert_eq!(a.fingerprint(), b.fingerprint());
        assert!(!a.is_noop());
        // Video 1's sole dark copy re-homed to a live VHO.
        assert_eq!(a.rehomed.len(), 1);
        assert_eq!(a.rehomed[0].video, VideoId::new(1));
        assert!(!dark[a.rehomed[0].to.index()]);
    }

    /// The reconfig drill records plan fingerprints; one is pinned as a
    /// number.
    #[test]
    fn a_plan_fingerprint_keeps_its_value() {
        let cat = catalog(&[VideoClass::Movie, VideoClass::Show, VideoClass::Clip]);
        let p = placement(4, vec![vec![0, 3], vec![3], vec![1, 3]]);
        let plan = repair_placement(&p, &cat, &[false, false, false, true], &[gb(5.0); 4]);
        assert_eq!(plan.fingerprint(), 0xfcbe_5ae3_07ee_eef8);
    }
}
