//! The operational pipeline of Section VI: every week, estimate the
//! coming week's demand from the last week's history (with the
//! TV-series and blockbuster substitutions for new releases), re-solve
//! the placement with a migration-cost term, and replay the real
//! requests against it.
//!
//! Run with: `cargo run --release --example weekly_pipeline`

use vodplace::prelude::*;
use vodplace::sim::mip_vho_configs;

fn main() {
    let seed = 11;
    let weeks = 4u64;
    let mut network = vodplace::net::topologies::mesh_backbone(10, 16, seed);
    network.set_uniform_capacity(Mbps::from_gbps(1.0));
    let library = synthesize_library(&LibraryConfig::default_for(500, weeks * 7, seed));
    let trace = generate_trace(
        &library,
        &network,
        &TraceConfig::default_for(4000.0, weeks * 7, seed),
    );
    let paths = PathSet::shortest_paths(&network);
    let disks = DiskConfig::UniformRatio { ratio: 2.0 }.capacities(&network, library.total_size());

    let est_cfg = EstimateConfig::default();
    let epf_cfg = EpfConfig {
        max_passes: 80,
        seed,
        ..Default::default()
    };
    let week_secs = 7 * 86_400;
    let mut prev: Option<Placement> = None;
    // Update transfers are anchored at the network's first VHO.
    let anchor = network.vho_ids().next().expect("the network has VHOs");

    for w in 1..weeks {
        let start = w * week_secs;
        let history = trace.restricted(TimeWindow::new(
            SimTime::new(start - week_secs),
            SimTime::new(start),
        ));
        let future = trace.restricted(TimeWindow::new(
            SimTime::new(start),
            SimTime::new(start + week_secs),
        ));
        // Estimate the coming week from history (+ new-release rules).
        let demand = estimate_demand(
            EstimatorKind::History,
            &library,
            network.num_nodes(),
            &history,
            &future,
            w * 7,
            7,
            &est_cfg,
        );
        // Re-solve, charging migration from the previous placement
        // (eq. (11) with w = 1).
        let placement_cost = prev.as_ref().map(|p| PlacementCost {
            weight: 1.0,
            previous: Some(p.holder_lists().to_vec()),
            origin: anchor,
        });
        let instance = MipInstance::new(
            network.clone(),
            library.clone(),
            demand,
            &DiskConfig::UniformRatio { ratio: 1.9 },
            1.0,
            0.0,
            placement_cost.as_ref(),
        );
        let out = vodplace::core::solve_placement(&instance, &epf_cfg)
            .expect("weekly instance is well-formed");

        let migrated = prev
            .as_ref()
            .map(|p| out.placement.migration_copies_from(p))
            .unwrap_or(out.placement.total_copies());
        // Replay the actual week against the new placement.
        let vhos = mip_vho_configs(&out.placement, &disks, 0.05, CacheKind::Lru);
        let rep = simulate(
            &network,
            &paths,
            &library,
            &future,
            &vhos,
            &PolicyKind::MipRouting(out.placement.clone()),
            &SimConfig {
                seed,
                ..Default::default()
            },
        );
        println!(
            "week {w}: solve {:>4} passes | migrate {migrated:>4} copies | peak {:>7.1} Mb/s | \
             transfer {:>9.1} GB·hop | local {:>5.1} %",
            out.epf.passes,
            rep.max_link_mbps,
            rep.total_gb_hops,
            rep.local_fraction() * 100.0,
        );
        prev = Some(out.placement);
    }
}
