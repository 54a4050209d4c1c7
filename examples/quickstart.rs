//! Quickstart: build a backbone, synthesize a workload, solve the
//! placement MIP with the EPF decomposition, and inspect the result.
//!
//! Run with: `cargo run --release --example quickstart`

use vodplace::prelude::*;

fn main() {
    // 1. A 10-VHO backbone with 1 Gb/s links.
    let mut network = vodplace::net::topologies::mesh_backbone(10, 16, 42);
    network.set_uniform_capacity(Mbps::from_gbps(1.0));
    println!(
        "network: {} VHOs, {} directed links",
        network.num_nodes(),
        network.num_links()
    );

    // 2. A 500-video library and one week of requests (~20k).
    let library = synthesize_library(&LibraryConfig::default_for(500, 7, 42));
    let trace = generate_trace(&library, &network, &TraceConfig::default_for(3000.0, 7, 42));
    println!(
        "library: {} videos ({:.0} GB); trace: {} requests over {} days",
        library.len(),
        library.total_size().value(),
        trace.len(),
        trace.horizon().secs() / 86_400
    );

    // 3. Demand input: aggregate demand plus the two peak-hour windows
    //    at which link constraints are enforced (Section VI-B).
    let windows = vodplace::trace::analysis::select_peak_windows(&trace, &library, 3600, 2);
    println!("peak windows: {} and {}", windows[0], windows[1]);
    let demand = DemandInput::from_trace(&trace, &library, network.num_nodes(), windows);

    // 4. Solve: aggregate disk = 2× the library, spread uniformly.
    let instance = MipInstance::new(
        network,
        library,
        demand,
        &DiskConfig::UniformRatio { ratio: 2.0 },
        1.0,
        0.0,
        None,
    );
    let cfg = EpfConfig {
        max_passes: std::env::var("P")
            .ok()
            .and_then(|v| v.parse().ok())
            .unwrap_or(120),
        seed: 42,
        ..Default::default()
    };
    let out = solve_placement(&instance, &cfg).expect("quickstart instance is well-formed");

    println!(
        "\nEPF solve: {} passes, {} block steps",
        out.epf.passes, out.epf.block_steps
    );
    println!(
        "fractional: objective {:.1} GB·hop, lower bound {:.1}, max violation {:.2} %",
        out.fractional.objective,
        out.fractional.lower_bound,
        out.fractional.max_violation * 100.0
    );
    println!(
        "rounded:    objective {:.1} GB·hop, {} videos re-solved, violation {:.2} %, gap {:.2} %",
        out.rounding.objective,
        out.rounding.videos_rounded,
        out.rounding.max_violation * 100.0,
        out.rounding.optimality_gap.unwrap_or(f64::NAN) * 100.0
    );

    // 5. Inspect the placement: copy counts by popularity (Fig. 8's
    //    shape: popular videos replicated more, but not everywhere).
    let ranked = instance.demand.aggregate.rank_videos();
    let counts = out.placement.copy_counts(&ranked);
    println!(
        "\ncopies of the 5 most-requested videos: {:?}",
        &counts[..5]
    );
    println!(
        "copies of the 5 least-requested videos: {:?}",
        &counts[counts.len() - 5..]
    );
    println!(
        "total copies: {} ({:.2}× the library)",
        out.placement.total_copies(),
        out.placement.total_copies() as f64 / instance.n_videos() as f64
    );

    let usage = out.placement.disk_usage(&instance.catalog);
    for (i, (u, d)) in usage.iter().zip(&instance.disks).enumerate().take(3) {
        println!(
            "VHO {i}: {:.0} / {:.0} GB pinned ({:.0} %)",
            u.value(),
            d.value(),
            u.value() / d.value() * 100.0
        );
    }
}
