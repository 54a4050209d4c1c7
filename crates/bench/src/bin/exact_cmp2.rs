//! Exact-LP validation on a trace-driven instance (like the unit-test
//! instances but sized for the dense simplex).
use vod_core::direct::build_direct_lp;
use vod_core::instance::{DiskConfig, MipInstance};
use vod_core::{solve_fractional, EpfConfig};
use vod_model::Mbps;
use vod_trace::{
    analysis, generate_trace, synthesize_library, DemandInput, LibraryConfig, TraceConfig,
};

fn main() {
    let seed = 5;
    let mut net = vod_net::topologies::mesh_backbone(6, 9, seed);
    net.set_uniform_capacity(Mbps::from_gbps(1.0));
    let catalog = synthesize_library(&LibraryConfig::default_for(40, 7, seed));
    let trace = generate_trace(&catalog, &net, &TraceConfig::default_for(500.0, 7, seed));
    let windows = analysis::select_peak_windows(&trace, &catalog, 3600, 2);
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
    let direct = build_direct_lp(&inst);
    eprintln!(
        "direct LP: {} vars {} rows",
        direct.lp.num_vars(),
        direct.lp.num_constraints()
    );
    let t0 = std::time::Instant::now();
    let exact = vod_lp::solve_lp(&direct.lp).expect("exact LP solve failed");
    eprintln!(
        "exact LP optimum {:.3} in {:?} ({} pivots)",
        exact.objective,
        t0.elapsed(),
        exact.iterations
    );
    {
        let passes = 600;
        let (frac, _) = solve_fractional(
            &inst,
            &EpfConfig {
                max_passes: passes,
                seed,
                ..Default::default()
            },
        );
        eprintln!(
            "EPF {passes}: obj {:.3} viol {:.4} lb {:.3} (obj {:+.2}% lb {:+.2}%)",
            frac.objective,
            frac.max_violation,
            frac.lower_bound,
            (frac.objective / exact.objective - 1.0) * 100.0,
            (frac.lower_bound / exact.objective - 1.0) * 100.0
        );
    }
}
