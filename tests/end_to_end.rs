//! Cross-crate integration: the full paper pipeline — synthesize a
//! world, estimate demand, solve the placement MIP, replay the trace —
//! and the headline comparison against caching.
use vodplace::prelude::*;
use vodplace::sim::{mip_vho_configs, random_single_vho_configs};

fn world(seed: u64) -> (Network, PathSet, Catalog, Trace) {
    let mut net = vodplace::net::topologies::mesh_backbone(8, 13, seed);
    net.set_uniform_capacity(Mbps::from_gbps(1.0));
    let catalog = synthesize_library(&LibraryConfig::default_for(250, 14, seed));
    let trace = generate_trace(&catalog, &net, &TraceConfig::default_for(3000.0, 14, seed));
    let paths = PathSet::shortest_paths(&net);
    (net, paths, catalog, trace)
}

#[test]
fn placement_pipeline_respects_capacities() {
    let (net, _paths, catalog, trace) = world(101);
    let windows = vodplace::trace::analysis::select_peak_windows(&trace, &catalog, 3600, 2);
    let demand = DemandInput::from_trace(&trace, &catalog, net.num_nodes(), windows);
    let inst = MipInstance::new(
        net,
        catalog,
        demand,
        &DiskConfig::UniformRatio { ratio: 2.0 },
        1.0,
        0.0,
        None,
    );
    let out = vodplace::core::solve_placement(
        &inst,
        &EpfConfig {
            max_passes: 150,
            seed: 101,
            ..Default::default()
        },
    )
    .expect("instance is well-formed");
    // Every video stored; disks respected after repair.
    for m in inst.catalog.ids() {
        assert!(!out.placement.stores(m).is_empty());
    }
    let usage = out.placement.disk_usage(&inst.catalog);
    for (u, cap) in usage.iter().zip(&inst.disks) {
        assert!(u.value() <= cap.value() * 1.02 + 1e-9, "{u} > {cap}");
    }
    // Certified bound sanity: objective never below the valid LB.
    assert!(out.rounding.objective >= out.fractional.lower_bound - 1e-6);
}

#[test]
fn mip_beats_caching_on_peak_bandwidth() {
    let (net, paths, catalog, trace) = world(102);
    // Solve on week-0 history; evaluate week 1.
    let week0 = trace.restricted(TimeWindow::new(SimTime::ZERO, SimTime::new(7 * 86_400)));
    let windows = vodplace::trace::analysis::select_peak_windows(&week0, &catalog, 3600, 2);
    let demand = DemandInput::from_trace(&week0, &catalog, net.num_nodes(), windows);
    let inst = MipInstance::new(
        net.clone(),
        catalog.clone(),
        demand,
        &DiskConfig::UniformRatio { ratio: 1.9 },
        1.0,
        0.0,
        None,
    );
    let out = vodplace::core::solve_placement(
        &inst,
        &EpfConfig {
            max_passes: 150,
            seed: 102,
            ..Default::default()
        },
    )
    .expect("instance is well-formed");
    let disks = DiskConfig::UniformRatio { ratio: 2.0 }.capacities(&net, catalog.total_size());
    let cfg = SimConfig {
        measure_from: SimTime::new(7 * 86_400),
        seed: 102,
        ..Default::default()
    };
    let mip = vodplace::sim::simulate(
        &net,
        &paths,
        &catalog,
        &trace,
        &mip_vho_configs(&out.placement, &disks, 0.05, CacheKind::Lru),
        &PolicyKind::MipRouting(out.placement.clone()),
        &cfg,
    );
    let lru = vodplace::sim::simulate(
        &net,
        &paths,
        &catalog,
        &trace,
        &random_single_vho_configs(&catalog, &disks, CacheKind::Lru, 102),
        &PolicyKind::NearestReplica,
        &cfg,
    );
    assert_eq!(
        mip.total_requests, lru.total_requests,
        "both schemes must serve every request"
    );
    assert!(
        mip.max_link_mbps <= lru.max_link_mbps,
        "MIP peak {} must not exceed LRU peak {}",
        mip.max_link_mbps,
        lru.max_link_mbps
    );
    assert!(
        mip.total_gb_hops < lru.total_gb_hops,
        "MIP transfer {} must beat LRU {}",
        mip.total_gb_hops,
        lru.total_gb_hops
    );
}

#[test]
fn estimation_pipeline_improves_over_no_estimate() {
    let (net, paths, catalog, trace) = world(103);
    let week0 = trace.restricted(TimeWindow::new(SimTime::ZERO, SimTime::new(7 * 86_400)));
    let week1 = trace.restricted(TimeWindow::new(
        SimTime::new(7 * 86_400),
        SimTime::new(14 * 86_400),
    ));
    let run = |kind: EstimatorKind| {
        let demand = estimate_demand(
            kind,
            &catalog,
            net.num_nodes(),
            &week0,
            &week1,
            7,
            7,
            &EstimateConfig::default(),
        );
        let inst = MipInstance::new(
            net.clone(),
            catalog.clone(),
            demand,
            &DiskConfig::UniformRatio { ratio: 1.9 },
            1.0,
            0.0,
            None,
        );
        let out = vodplace::core::solve_placement(
            &inst,
            &EpfConfig {
                max_passes: 120,
                seed: 103,
                ..Default::default()
            },
        )
        .expect("instance is well-formed");
        let disks = DiskConfig::UniformRatio { ratio: 2.0 }.capacities(&net, catalog.total_size());
        vodplace::sim::simulate(
            &net,
            &paths,
            &catalog,
            &week1,
            &mip_vho_configs(&out.placement, &disks, 0.0, CacheKind::Lru),
            &PolicyKind::MipRouting(out.placement.clone()),
            &SimConfig {
                insert_on_miss: false,
                seed: 103,
                ..Default::default()
            },
        )
    };
    let history = run(EstimatorKind::History);
    let perfect = run(EstimatorKind::Perfect);
    // Perfect knowledge is the floor; history should be in its
    // neighbourhood (the paper: "comparable to perfect knowledge").
    assert!(history.total_gb_hops >= perfect.total_gb_hops * 0.95);
    assert!(
        history.total_gb_hops <= perfect.total_gb_hops * 1.6,
        "history estimate too far from perfect: {} vs {}",
        history.total_gb_hops,
        perfect.total_gb_hops
    );
}
