//! Failure-injection and degenerate-input coverage across crates.
#![expect(
    clippy::float_cmp,
    clippy::cast_possible_truncation,
    clippy::disallowed_methods,
    reason = "test code pins exact float bits, narrows small fixture sizes and builds raw VhoIds"
)]
use vodplace::prelude::*;

#[test]
#[should_panic(expected = "strongly connected")]
fn disconnected_network_rejected_by_routing() {
    use vodplace::net::graph::{make_nodes, Network};
    let net = Network::from_undirected_edges(
        make_nodes(&[1.0, 1.0, 1.0, 1.0]),
        &[
            (VhoId::new(0), VhoId::new(1)),
            (VhoId::new(2), VhoId::new(3)),
        ],
        Mbps::from_gbps(1.0),
    );
    let _ = PathSet::shortest_paths(&net);
}

#[test]
fn infeasible_disk_detected_fast() {
    let net = vodplace::net::topologies::mesh_backbone(5, 7, 9);
    let catalog = synthesize_library(&LibraryConfig::default_for(60, 7, 9));
    let trace = generate_trace(&catalog, &net, &TraceConfig::default_for(500.0, 7, 9));
    let demand = DemandInput::from_trace(&trace, &catalog, net.num_nodes(), vec![]);
    let inst = MipInstance::new(
        net,
        catalog,
        demand,
        &DiskConfig::UniformRatio { ratio: 0.4 }, // below one library copy
        1.0,
        0.0,
        None,
    );
    assert!(inst.quick_feasibility_check().is_err());
    assert!(!vodplace::core::feasibility::is_feasible(
        &inst,
        &EpfConfig {
            max_passes: 30,
            seed: 9,
            ..Default::default()
        }
    ));
}

#[test]
fn empty_trace_demand_still_places_everything() {
    let net = vodplace::net::topologies::mesh_backbone(5, 7, 9);
    let catalog = synthesize_library(&LibraryConfig::default_for(40, 7, 9));
    let empty = Trace::new(SimTime::new(86_400), vec![]);
    let demand = DemandInput::from_trace(&empty, &catalog, net.num_nodes(), vec![]);
    let inst = MipInstance::new(
        net,
        catalog,
        demand,
        &DiskConfig::UniformRatio { ratio: 1.5 },
        1.0,
        0.0,
        None,
    );
    let out = vodplace::core::solve_placement(
        &inst,
        &EpfConfig {
            max_passes: 20,
            seed: 9,
            ..Default::default()
        },
    )
    .expect("instance is well-formed");
    // Zero demand: every video still gets exactly one copy somewhere.
    for m in inst.catalog.ids() {
        assert!(!out.placement.stores(m).is_empty());
    }
    assert!(out.rounding.objective.abs() < 1e-9);
}

#[test]
fn single_vho_degenerate_world() {
    // One VHO, no links: everything is local; the simulator and the
    // analytics must handle it.
    use vodplace::net::graph::{make_nodes, Network};
    let net = Network::from_directed_links(make_nodes(&[1.0]), vec![]);
    assert!(net.is_strongly_connected());
    let paths = PathSet::shortest_paths(&net);
    assert_eq!(paths.diameter(), 0);
    let catalog = synthesize_library(&LibraryConfig::default_for(30, 7, 5));
    let trace = generate_trace(&catalog, &net, &TraceConfig::default_for(200.0, 7, 5));
    let vhos = vec![vodplace::sim::VhoConfig {
        pinned: catalog.ids().collect(),
        cache: None,
    }];
    let rep = vodplace::sim::simulate(
        &net,
        &paths,
        &catalog,
        &trace,
        &vhos,
        &PolicyKind::NearestReplica,
        &SimConfig::default(),
    );
    assert_eq!(rep.served_remote, 0);
    assert_eq!(rep.max_link_mbps, 0.0);
    assert_eq!(rep.total_requests as usize, trace.len());
}

#[test]
fn solver_handles_zero_window_instances() {
    // No link windows at all (disk-only MIP, pure data placement).
    let net = vodplace::net::topologies::mesh_backbone(6, 9, 4);
    let catalog = synthesize_library(&LibraryConfig::default_for(50, 7, 4));
    let trace = generate_trace(&catalog, &net, &TraceConfig::default_for(400.0, 7, 4));
    let demand = DemandInput::from_trace(&trace, &catalog, net.num_nodes(), vec![]);
    let inst = MipInstance::new(
        net,
        catalog,
        demand,
        &DiskConfig::UniformRatio { ratio: 2.0 },
        1.0,
        0.0,
        None,
    );
    assert_eq!(inst.n_windows(), 0);
    let out = vodplace::core::solve_placement(
        &inst,
        &EpfConfig {
            max_passes: 80,
            seed: 4,
            ..Default::default()
        },
    )
    .expect("instance is well-formed");
    assert!(out.rounding.max_violation < 0.05);
}
