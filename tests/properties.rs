//! Property-based tests over the core data structures and invariants,
//! spanning crates.
#![expect(
    clippy::cast_possible_truncation,
    clippy::disallowed_methods,
    reason = "test code narrows small fixture sizes and builds raw VhoIds"
)]
use proptest::prelude::*;
use vodplace::prelude::*;

// ---------------------------------------------------------------------------
// Routing: BFS shortest paths match a Bellman-Ford oracle.
// ---------------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn shortest_paths_match_bellman_ford(n in 3usize..10, extra in 0usize..12, seed in 0u64..1000) {
        let max_extra = n * (n - 1) / 2 - (n - 1);
        let net = vodplace::net::topologies::mesh_backbone(
            n, n + extra.min(max_extra.saturating_sub(n)).min(max_extra), seed,
        );
        let paths = PathSet::shortest_paths(&net);
        // Bellman-Ford hop counts from every source.
        for src in net.vho_ids() {
            let mut dist = vec![usize::MAX; net.num_nodes()];
            dist[src.index()] = 0;
            for _ in 0..net.num_nodes() {
                for l in net.links() {
                    let du = dist[l.from.index()];
                    if du != usize::MAX && du + 1 < dist[l.to.index()] {
                        dist[l.to.index()] = du + 1;
                    }
                }
            }
            for dst in net.vho_ids() {
                prop_assert_eq!(paths.hops(src, dst), dist[dst.index()],
                    "hops {} -> {}", src, dst);
            }
        }
    }

    // -----------------------------------------------------------------------
    // Caches: capacity, pinning, and accounting invariants under random
    // operation sequences.
    // -----------------------------------------------------------------------

    #[test]
    fn cache_invariants_random_ops(
        ops in prop::collection::vec((0u8..4, 0u32..30, 1u32..4), 1..300),
        lru in any::<bool>(),
        cap in 3.0f64..20.0,
    ) {
        use vodplace::sim::{Cache, LfuCache, LruCache};
        let mut cache: Box<dyn Cache> = if lru {
            Box::new(LruCache::new(cap))
        } else {
            Box::new(LfuCache::new(cap))
        };
        let mut pins: std::collections::HashMap<u32, u32> = Default::default();
        let mut evicted = Vec::new();
        for (op, vid, size) in ops {
            let m = VideoId::new(vid);
            match op {
                0 => { let _ = cache.insert(m, size as f64, &mut evicted); }
                1 => cache.touch(m),
                2 => {
                    if cache.contains(m) {
                        cache.pin(m);
                        *pins.entry(vid).or_insert(0) += 1;
                    }
                }
                _ => {
                    if let Some(c) = pins.get_mut(&vid) {
                        if *c > 0 {
                            cache.unpin(m);
                            *c -= 1;
                        }
                    }
                }
            }
            // Invariant: never exceeds capacity.
            prop_assert!(cache.used_gb() <= cap + 1e-9);
            // Invariant: pinned entries are still present.
            for (&v, &c) in &pins {
                if c > 0 {
                    prop_assert!(cache.contains(VideoId::new(v)),
                        "pinned video {v} was evicted");
                }
            }
        }
    }

    // -----------------------------------------------------------------------
    // Simplex vs brute-force vertex enumeration on random bounded 2-var
    // LPs.
    // -----------------------------------------------------------------------

    #[test]
    fn simplex_matches_vertex_enumeration(
        c0 in -5.0f64..5.0, c1 in -5.0f64..5.0,
        rows in prop::collection::vec((-3.0f64..3.0, -3.0f64..3.0, 0.5f64..6.0), 1..5),
    ) {
        use vodplace::lp::{Cmp, LinearProgram};
        let mut lp = LinearProgram::new();
        let x = lp.add_var(c0, Some(10.0));
        let y = lp.add_var(c1, Some(10.0));
        for &(a, b, rhs) in &rows {
            lp.add_constraint(vec![(x, a), (y, b)], Cmp::Le, rhs);
        }
        // Brute force: candidate vertices are intersections of all
        // constraint pairs (incl. bounds/axes), filtered for
        // feasibility.
        let mut lines: Vec<(f64, f64, f64)> = rows.clone();
        lines.push((1.0, 0.0, 10.0));
        lines.push((0.0, 1.0, 10.0));
        lines.push((-1.0, 0.0, 0.0)); // x >= 0 as -x <= 0
        lines.push((0.0, -1.0, 0.0));
        let mut best: Option<f64> = None;
        let feasible = |px: f64, py: f64| {
            px >= -1e-9 && py >= -1e-9 && px <= 10.0 + 1e-9 && py <= 10.0 + 1e-9
                && rows.iter().all(|&(a, b, r)| a * px + b * py <= r + 1e-7)
        };
        for i in 0..lines.len() {
            for j in (i + 1)..lines.len() {
                let (a1, b1, r1) = lines[i];
                let (a2, b2, r2) = lines[j];
                let det = a1 * b2 - a2 * b1;
                if det.abs() < 1e-9 { continue; }
                let px = (r1 * b2 - r2 * b1) / det;
                let py = (a1 * r2 - a2 * r1) / det;
                if feasible(px, py) {
                    let v = c0 * px + c1 * py;
                    best = Some(best.map_or(v, |b: f64| b.min(v)));
                }
            }
        }
        match (vodplace::lp::solve_lp(&lp), best) {
            (Ok(sol), Some(b)) => {
                prop_assert!((sol.objective - b).abs() < 1e-5,
                    "simplex {} vs enumeration {}", sol.objective, b);
            }
            (Err(_), None) => {} // both infeasible
            (Ok(sol), None) => {
                // Enumeration found no vertex: the only way the LP is
                // feasible is if the origin region is degenerate —
                // accept only if the solution is (numerically) a
                // vertex we missed due to tolerance.
                prop_assert!(lp.max_violation(&sol.x) < 1e-6);
            }
            (Err(e), Some(b)) => {
                return Err(TestCaseError::fail(format!(
                    "simplex said {e} but enumeration found optimum {b}"
                )));
            }
        }
    }

    // -----------------------------------------------------------------------
    // Trace generation invariants.
    // -----------------------------------------------------------------------

    #[test]
    fn trace_generation_invariants(n_videos in 20usize..120, rpd in 50.0f64..800.0, seed in 0u64..500) {
        let net = vodplace::net::topologies::mesh_backbone(5, 7, seed);
        let catalog = synthesize_library(&LibraryConfig::default_for(n_videos, 14, seed));
        let trace = generate_trace(&catalog, &net, &TraceConfig::default_for(rpd, 14, seed));
        let mut last = SimTime::ZERO;
        for r in trace.requests() {
            prop_assert!(r.time < trace.horizon());
            prop_assert!(r.time >= last, "trace must be sorted");
            last = r.time;
            prop_assert!(r.video.index() < catalog.len());
            prop_assert!(r.vho.index() < net.num_nodes());
            prop_assert!(r.time.day() >= catalog.video(r.video).release_day);
        }
        // Demand aggregation is conservative.
        let demand = DemandInput::from_trace(&trace, &catalog, net.num_nodes(), vec![]);
        prop_assert_eq!(demand.aggregate.total() as usize, trace.len());
    }

    // -----------------------------------------------------------------------
    // Block solutions: convex steps preserve the block polytope.
    // -----------------------------------------------------------------------

    #[test]
    fn block_steps_stay_in_polytope(
        steps in prop::collection::vec((0u16..6, 0.0f64..1.0), 1..40),
    ) {
        use vodplace::core::{BlockSolution, Dists};
        let mut cur = BlockSolution {
            y: vec![(VhoId::new(0), 1.0)],
            x: Dists::from_lists([[(VhoId::new(0), 1.0)], [(VhoId::new(0), 1.0)]]),
        };
        for (target, tau) in steps {
            let t = VhoId::new(target);
            let hat = BlockSolution {
                y: vec![(t, 1.0)],
                x: Dists::from_lists([[(t, 1.0)], [(t, 1.0)]]),
            };
            cur.step_toward(&hat, tau);
            for dist in cur.x.iter() {
                let total: f64 = dist.iter().map(|&(_, v)| v).sum();
                prop_assert!((total - 1.0).abs() < 1e-9, "x sums to {total}");
                for &(i, v) in dist {
                    prop_assert!(v <= cur.y_at(i) + 1e-9, "x exceeds y");
                }
            }
            for &(_, yv) in &cur.y {
                prop_assert!(yv > 0.0 && yv <= 1.0 + 1e-9);
            }
        }
    }

    // -----------------------------------------------------------------------
    // UFL block solver: bound sandwich on random instances.
    // -----------------------------------------------------------------------

    #[test]
    fn ufl_bound_sandwich(
        fac in prop::collection::vec(0.0f64..5.0, 1..10),
        svc in prop::collection::vec(prop::collection::vec(0.0f64..10.0, 1..10), 0..8),
    ) {
        use vodplace::core::block::{UflProblem, UflScratch};
        let n = fac.len();
        let service: Vec<Vec<f64>> = svc.into_iter()
            .map(|row| (0..n).map(|i| row[i % row.len()]).collect())
            .collect();
        let p = UflProblem::from_rows(fac, service);
        let mut scratch = UflScratch::default();
        for &kernel in vodplace::core::Kernel::all() {
            let sol = p.solve_local_search_with_kernel(&mut scratch, kernel);
            let lb = p.dual_ascent_bound_with_kernel(&mut scratch, kernel);
            prop_assert!(lb <= p.cost(&sol) + 1e-9);
            prop_assert!(!sol.open.is_empty());
            for &a in &sol.assign {
                prop_assert!(sol.open.contains(&a));
            }
        }
    }

    // -----------------------------------------------------------------------
    // Simulator conservation: every request is served exactly once.
    // -----------------------------------------------------------------------

    #[test]
    fn simulator_conservation(seed in 0u64..200, n_videos in 20usize..80) {
        let net = vodplace::net::topologies::mesh_backbone(5, 7, seed);
        let paths = PathSet::shortest_paths(&net);
        let catalog = synthesize_library(&LibraryConfig::default_for(n_videos, 7, seed));
        let trace = generate_trace(&catalog, &net, &TraceConfig::default_for(300.0, 7, seed));
        let disks = vec![Gigabytes::new(catalog.total_size().value()); 5];
        let vhos = vodplace::sim::random_single_vho_configs(
            &catalog, &disks, CacheKind::Lru, seed,
        );
        let rep = vodplace::sim::simulate(
            &net, &paths, &catalog, &trace, &vhos,
            &PolicyKind::NearestReplica, &SimConfig { seed, ..Default::default() },
        );
        prop_assert_eq!(rep.total_requests as usize, trace.len());
        prop_assert_eq!(
            rep.served_local_pinned + rep.served_local_cached + rep.served_remote,
            rep.total_requests
        );
        // Load series sanity: nonnegative everywhere, and the reported
        // maximum is exactly the series maximum. (The final bucket may
        // legitimately be nonzero: streams started near the horizon
        // are still active at it.)
        let series_max = rep.peak_link_mbps.iter().cloned().fold(0.0, f64::max);
        prop_assert!(rep.peak_link_mbps.iter().all(|&v| v >= 0.0));
        prop_assert!((rep.max_link_mbps - series_max).abs() < 1e-9);
    }
}

use vod_model::Gigabytes;
