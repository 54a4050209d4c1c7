//! Migration-cost-aware placement diffs with a per-cycle churn cap.
//!
//! Between service cycles the solver may want to move many copies at
//! once (a demand shift, a recovered VHO). Pushing them all in one
//! update window floods the distribution network — the cooperative-
//! caching literature bounds per-epoch churn for exactly this reason —
//! so the service deploys a *hybrid* placement instead: videos whose
//! target layout fits under the remaining cap adopt it wholesale
//! (stores and routing together, so per-video routing always matches
//! its holders); a video too large for what is left of the cap has as
//! many of its missing copies *staged* as the budget allows (added to
//! its store list while the previous layout keeps serving), and the
//! remainder is queued as a typed [`DeferredMigration`]. Deferred
//! videos are retried oldest-first every cycle, and staging guarantees
//! `min(cap, remaining)` copies of progress per cycle — the queue
//! provably drains; no video can starve behind a cap smaller than its
//! own transfer cost.
//!
//! Cost model matches [`Placement::migration_copies_from`]: a copy
//! *added* relative to the previous placement costs 1 (it must be
//! transferred); deletions and pure routing changes are free.
//!
//! The hybrid may transiently exceed a VHO's disk budget: a copy being
//! added elsewhere is not yet deleted here (migration-window double
//! occupancy). The strict serviceability gate applies to the *target*;
//! the hybrid only has to be structurally valid, which
//! [`Placement::from_parts`] enforces.

use vod_core::Placement;
use vod_json::reader::Reader;
use vod_json::wire::{Sink, Wire, WireError};
use vod_json::wire_record;
use vod_model::VideoId;

/// One postponed migration: `video` still needs `copies` transfers to
/// reach its target layout, queued since `since_cycle`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DeferredMigration {
    pub video: VideoId,
    pub copies: usize,
    pub since_cycle: usize,
}

wire_record!(DeferredMigration {
    video: with(video_enc, video_dec),
    copies,
    since_cycle,
});

// `VideoId` cannot implement `Wire` (see `vod_json::wire`): it travels
// as a `u32`-ranged `Num` through these adapters.

fn video_enc<S: Sink>(m: &VideoId, out: &mut S) {
    m.index().emit(out);
}

fn video_dec(r: &mut Reader<'_>) -> Result<VideoId, WireError> {
    u32::read(r).map(VideoId::new)
}

/// Result of applying the churn cap to one cycle's target placement.
#[derive(Debug, Clone)]
pub struct ChurnPlan {
    /// The deployable hybrid: adopted videos at their target layout,
    /// deferred videos at their previous one.
    pub placement: Placement,
    /// Copies actually moved (added) this cycle; `<= cap` always.
    pub moved: usize,
    /// The deferred queue after this cycle, oldest first.
    pub deferred: Vec<DeferredMigration>,
}

/// Diff `target` against the currently-deployed `prev` and adopt as
/// much of it as the churn `cap` allows. `cap = None` adopts
/// everything. `deferred_in` is the queue from the previous cycle:
/// its videos are retried first (oldest `since_cycle`, then video id),
/// so persistent cap pressure drains in arrival order; a deferred
/// video whose target no longer differs from `prev` simply leaves the
/// queue. Fresh differing videos follow in video-id order. A video
/// whose remaining transfer cost exceeds what is left of the cap is
/// *partially staged*: the affordable prefix of its missing copies is
/// added to its store list (the previous layout keeps serving), and a
/// [`DeferredMigration`] records the rest — deterministic, order-fixed
/// and starvation-free.
pub fn apply_churn_cap(
    prev: &Placement,
    target: &Placement,
    cap: Option<usize>,
    deferred_in: &[DeferredMigration],
    cycle: usize,
) -> Result<ChurnPlan, String> {
    // The VHO axis must match exactly; the video axis may *grow*
    // (append-only catalog deltas): `prev` is padded with virtual
    // empty entries for the appended tail. A `prev` longer than the
    // target is a genuine mismatch.
    if prev.n_vhos() != target.n_vhos() || prev.n_videos() > target.n_videos() {
        return Err(format!(
            "placement shape mismatch: prev {}v/{}m vs target {}v/{}m",
            prev.n_vhos(),
            prev.n_videos(),
            target.n_vhos(),
            target.n_videos()
        ));
    }
    let n_videos = target.n_videos();
    // A video appended since `prev` has no previous layout.
    let prev_routing = |m: VideoId| prev.routings().get(m.index());
    let prev_stores = |m: VideoId| prev_routing(m).map_or(&[][..], |_| prev.stores(m));
    // Queue position of each previously-deferred video.
    let mut order: Vec<(usize, VideoId)> = Vec::with_capacity(n_videos);
    let mut queued = vec![false; n_videos];
    let mut since = vec![usize::MAX; n_videos];
    for d in deferred_in {
        let i = d.video.index();
        if i < n_videos && !queued[i] {
            queued[i] = true;
            since[i] = d.since_cycle;
            order.push((d.since_cycle, d.video));
        }
    }
    order.sort(); // oldest deferral first, then video id
    for (m, &q) in queued.iter().enumerate() {
        if !q {
            order.push((cycle, VideoId::from_index(m)));
        }
    }

    let mut moved = 0usize;
    let mut deferred = Vec::new();
    let mut stores_out = prev.holder_lists().to_vec();
    stores_out.resize(n_videos, Vec::new());
    let mut routing_out = prev.routings().to_vec();
    routing_out.resize_with(n_videos, Default::default);
    for &(queued_since, m) in &order {
        let i = m.index();
        if prev_stores(m) == target.stores(m) && prev_routing(m) == target.routings().get(i) {
            continue; // identical layouts: nothing to do
        }
        // Transfer cost: target holders not already on prev. The
        // *first* copy of a brand-new (appended) video is free — it is
        // content ingest, not placement churn, and structural validity
        // requires every video to hold at least one copy.
        let missing: Vec<_> = target
            .stores(m)
            .iter()
            .filter(|v| prev_stores(m).binary_search(v).is_err())
            .copied()
            .collect();
        let free_copies = usize::from(i >= prev.n_videos());
        let cost = missing.len().saturating_sub(free_copies);
        // Saturating clamp: the cap may have been *lowered* between
        // cycles (even to 0) while repair pre-charges or a drain is in
        // flight; the budget must floor at 0, never wrap.
        let budget = cap.map_or(usize::MAX, |c| c.saturating_sub(moved));
        if cost <= budget {
            // Full adoption: target stores and routing together.
            stores_out[i] = target.stores(m).to_vec();
            routing_out[i] = target.routings()[i].clone();
            moved += cost;
        } else {
            let stage = budget + free_copies; // paid prefix + free first copy
            if stage > 0 {
                // Partial staging: transfer the affordable prefix of
                // the missing copies now; the previous layout (and its
                // routing) keeps serving until full adoption.
                stores_out[i].extend_from_slice(&missing[..stage.min(missing.len())]);
                stores_out[i].sort_unstable();
                moved += budget;
            }
            deferred.push(DeferredMigration {
                video: m,
                copies: missing.len() - stage.min(missing.len()),
                since_cycle: queued_since,
            });
        }
    }
    deferred.sort_by_key(|d| (d.since_cycle, d.video));

    let placement = Placement::from_parts(target.n_vhos(), stores_out, routing_out)
        .map_err(|e| format!("hybrid placement invalid: {e}"))?;
    Ok(ChurnPlan {
        placement,
        moved,
        deferred,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use vod_core::{Dists, VideoRouting};
    use vod_json::Value;
    use vod_model::VhoId;

    /// Tiny hand-built placements over `n` videos and 4 VHOs; video m
    /// is held by the VHOs listed, with one client routed to the first
    /// holder.
    fn placement(holders: Vec<Vec<u16>>) -> Placement {
        let stores: Vec<Vec<VhoId>> = holders
            .iter()
            .map(|hs| hs.iter().map(|&v| VhoId::new(v)).collect())
            .collect();
        let routing = holders
            .iter()
            .map(|hs| VideoRouting {
                clients: vec![VhoId::new(3)],
                x: Dists::from_lists([[(VhoId::new(hs[0]), 1.0)]]),
            })
            .collect();
        Placement::from_parts(4, stores, routing).unwrap()
    }

    #[test]
    fn uncapped_adopts_the_target_wholesale() {
        let prev = placement(vec![vec![0], vec![1], vec![2]]);
        let target = placement(vec![vec![1], vec![1, 2], vec![2]]);
        let plan = apply_churn_cap(&prev, &target, None, &[], 5).unwrap();
        assert_eq!(plan.moved, 2); // video 0: +v1, video 1: +v2
        assert!(plan.deferred.is_empty());
        assert_eq!(
            plan.placement.holder_lists(),
            target.holder_lists(),
            "uncapped hybrid must equal the target"
        );
        assert_eq!(plan.moved, target.migration_copies_from(&prev));
    }

    #[test]
    fn cap_defers_excess_and_the_queue_drains_oldest_first() {
        let prev = placement(vec![vec![0], vec![0], vec![0]]);
        let target = placement(vec![vec![1], vec![2], vec![3]]);
        // Cycle 0, cap 1: exactly one video moves, two defer.
        let p0 = apply_churn_cap(&prev, &target, Some(1), &[], 0).unwrap();
        assert_eq!(p0.moved, 1);
        assert_eq!(p0.deferred.len(), 2);
        assert!(p0.deferred.iter().all(|d| d.since_cycle == 0));
        // Cycle 1: deferred videos retry first and drain in order.
        let p1 = apply_churn_cap(&p0.placement, &target, Some(1), &p0.deferred, 1).unwrap();
        assert_eq!(p1.moved, 1);
        assert_eq!(p1.deferred.len(), 1);
        assert_eq!(p1.deferred[0].video, p0.deferred[1].video);
        assert_eq!(p1.deferred[0].since_cycle, 0, "re-deferral keeps age");
        // Cycle 2: fully drained, hybrid converges to the target.
        let p2 = apply_churn_cap(&p1.placement, &target, Some(1), &p1.deferred, 2).unwrap();
        assert_eq!(p2.moved, 1);
        assert!(p2.deferred.is_empty());
        assert_eq!(p2.placement.holder_lists(), target.holder_lists());
    }

    #[test]
    fn cap_is_never_exceeded_and_oversized_videos_stage_partially() {
        let prev = placement(vec![vec![0], vec![0], vec![0]]);
        // Video 0 needs 3 transfers, videos 1 and 2 need 1 each.
        let target = placement(vec![vec![1, 2, 3], vec![1], vec![2]]);
        let plan = apply_churn_cap(&prev, &target, Some(2), &[], 4).unwrap();
        assert_eq!(plan.moved, 2, "cap must be used in full, never exceeded");
        // The oversized first video absorbs the whole budget as staged
        // copies; its old layout keeps serving and the rest defers.
        assert_eq!(
            plan.placement.stores(VideoId::new(0)),
            &[VhoId::new(0), VhoId::new(1), VhoId::new(2)]
        );
        assert_eq!(
            plan.deferred,
            vec![
                DeferredMigration {
                    video: VideoId::new(0),
                    copies: 1,
                    since_cycle: 4
                },
                DeferredMigration {
                    video: VideoId::new(1),
                    copies: 1,
                    since_cycle: 4
                },
                DeferredMigration {
                    video: VideoId::new(2),
                    copies: 1,
                    since_cycle: 4
                },
            ]
        );
        // Videos past the budget keep their previous layout untouched.
        assert_eq!(
            plan.placement.stores(VideoId::new(1)),
            prev.stores(VideoId::new(1))
        );
    }

    #[test]
    fn a_video_larger_than_the_cap_cannot_starve() {
        // Regression: with whole-video adoption only, a 3-copy video
        // under cap 1 would be re-deferred forever. Partial staging
        // must land it in exactly ceil(3/1) rounds.
        let mut current = placement(vec![vec![0]]);
        let target = placement(vec![vec![1, 2, 3]]);
        let mut deferred = Vec::new();
        for round in 0..3 {
            let plan = apply_churn_cap(&current, &target, Some(1), &deferred, round).unwrap();
            assert_eq!(plan.moved, 1, "round {round} must make progress");
            current = plan.placement;
            deferred = plan.deferred;
        }
        assert!(deferred.is_empty());
        assert_eq!(current.holder_lists(), target.holder_lists());
    }

    #[test]
    fn cap_lowered_mid_drain_keeps_guaranteed_progress() {
        // Drain starts under cap 3, then the operator lowers the cap
        // to 1 mid-drain: every later cycle must still move exactly
        // min(cap, remaining) copies — never wrap, never stall.
        let prev = placement(vec![vec![0], vec![0], vec![0]]);
        let target = placement(vec![vec![1, 2, 3], vec![1], vec![2]]);
        let p0 = apply_churn_cap(&prev, &target, Some(3), &[], 0).unwrap();
        assert_eq!(p0.moved, 3);
        assert!(!p0.deferred.is_empty());
        let mut current = p0.placement;
        let mut deferred = p0.deferred;
        let mut cycle = 1;
        while !deferred.is_empty() {
            let p = apply_churn_cap(&current, &target, Some(1), &deferred, cycle).unwrap();
            assert_eq!(
                p.moved, 1,
                "cycle {cycle} must make progress under the lowered cap"
            );
            current = p.placement;
            deferred = p.deferred;
            cycle += 1;
            assert!(cycle < 10, "drain must terminate");
        }
        assert_eq!(current.holder_lists(), target.holder_lists());
    }

    #[test]
    fn cap_dropped_to_zero_freezes_the_queue_and_restoration_drains_it() {
        let prev = placement(vec![vec![0], vec![0]]);
        let target = placement(vec![vec![1], vec![2]]);
        let p0 = apply_churn_cap(&prev, &target, Some(1), &[], 0).unwrap();
        assert_eq!(p0.moved, 1);
        assert_eq!(p0.deferred.len(), 1);
        // Cap collapses to 0: no progress, no wrap, queue intact with
        // its original age.
        let frozen = apply_churn_cap(&p0.placement, &target, Some(0), &p0.deferred, 1).unwrap();
        assert_eq!(frozen.moved, 0);
        assert_eq!(
            frozen.deferred, p0.deferred,
            "queue must survive a zero cap"
        );
        assert_eq!(
            frozen.placement.holder_lists(),
            p0.placement.holder_lists(),
            "zero cap must not alter the deployment"
        );
        // Cap restored: the queue drains where it left off.
        let done =
            apply_churn_cap(&frozen.placement, &target, Some(2), &frozen.deferred, 2).unwrap();
        assert_eq!(done.moved, 1);
        assert!(done.deferred.is_empty());
        assert_eq!(done.placement.holder_lists(), target.holder_lists());
    }

    #[test]
    fn appended_videos_get_a_free_first_copy_and_pay_for_the_rest() {
        // prev covers 1 video; the target's appended video 1 wants two
        // copies. Its first copy is content ingest (free, lands even
        // at cap 0 so the hybrid stays structurally valid); the second
        // is churn and defers.
        let prev = placement(vec![vec![0]]);
        let target = placement(vec![vec![0], vec![1, 2]]);
        let p = apply_churn_cap(&prev, &target, Some(0), &[], 0).unwrap();
        assert_eq!(p.moved, 0);
        assert_eq!(p.placement.n_videos(), 2);
        assert_eq!(p.placement.stores(VideoId::new(1)), &[VhoId::new(1)]);
        assert_eq!(
            p.deferred,
            vec![DeferredMigration {
                video: VideoId::new(1),
                copies: 1,
                since_cycle: 0
            }]
        );
        // With budget the appended video adopts fully at cost 1.
        let done = apply_churn_cap(&p.placement, &target, Some(1), &p.deferred, 1).unwrap();
        assert_eq!(done.moved, 1);
        assert!(done.deferred.is_empty());
        assert_eq!(done.placement.holder_lists(), target.holder_lists());
        // A prev *longer* than the target stays a typed error.
        assert!(apply_churn_cap(&target, &prev, None, &[], 0).is_err());
    }

    #[test]
    fn removals_and_routing_changes_are_free() {
        let prev = placement(vec![vec![0, 1], vec![0]]);
        let target = placement(vec![vec![0], vec![0]]);
        // Shrinking video 0 and (trivially) re-routing costs nothing.
        let plan = apply_churn_cap(&prev, &target, Some(0), &[], 0).unwrap();
        assert_eq!(plan.moved, 0);
        assert!(plan.deferred.is_empty());
        assert_eq!(plan.placement.holder_lists(), target.holder_lists());
    }

    #[test]
    fn stale_deferred_entries_leave_the_queue() {
        let prev = placement(vec![vec![0], vec![1]]);
        let target = placement(vec![vec![0], vec![1]]); // no diff at all
        let stale = vec![DeferredMigration {
            video: VideoId::new(1),
            copies: 1,
            since_cycle: 0,
        }];
        let plan = apply_churn_cap(&prev, &target, Some(0), &stale, 3).unwrap();
        assert!(plan.deferred.is_empty());
        assert_eq!(plan.moved, 0);
    }

    #[test]
    fn shape_mismatch_is_a_typed_error() {
        let a = placement(vec![vec![0]]);
        let b = placement(vec![vec![0], vec![1]]);
        // prev longer than target: a shrunk video axis never happens
        // under append-only growth and is refused.
        assert!(apply_churn_cap(&b, &a, None, &[], 0).is_err());
        // prev shorter than target is the append path and is fine.
        assert!(apply_churn_cap(&a, &b, None, &[], 0).is_ok());
    }

    #[test]
    fn deferred_records_round_trip_through_json() {
        let d = DeferredMigration {
            video: VideoId::new(7),
            copies: 3,
            since_cycle: 11,
        };
        assert_eq!(DeferredMigration::dec(&d.enc()).unwrap(), d);
        assert!(DeferredMigration::dec(&Value::Null).is_err());
    }
}
