use rand::Rng;
use vod_core::direct::build_direct_lp;
use vod_core::instance::{DiskConfig, MipInstance};
use vod_core::{solve_fractional, EpfConfig};
use vod_model::{Catalog, Mbps, SimTime, TimeWindow, VhoId, Video, VideoClass, VideoId, VideoKind};
use vod_trace::{DemandInput, DemandMatrix};

fn main() {
    let mut rng = vod_model::rng::rng_from_seed(3);
    let mut net = vod_net::topologies::mesh_backbone(5, 7, 3);
    net.set_uniform_capacity(Mbps::new(500.0));
    let n_videos = 14u32;
    let videos: Vec<Video> = (0..n_videos)
        .map(|i| Video {
            id: VideoId::new(i),
            class: VideoClass::Show,
            kind: VideoKind::Catalog,
            release_day: 0,
            weight: 1.0,
        })
        .collect();
    let catalog = Catalog::new(videos);
    let rows: Vec<Vec<(VhoId, f64)>> = (0..n_videos)
        .map(|_| {
            (0..5)
                .filter_map(|j| {
                    let c = rng.gen_range(0..40u32) as f64;
                    // lint:allow(raw-index): builds demand rows from a dense per-VHO count vector
                    (c > 0.0).then_some((VhoId::new(j), c))
                })
                .collect()
        })
        .collect();
    let agg = DemandMatrix::from_rows(5, rows);
    let active = vec![agg.clone()];
    let demand = DemandInput {
        aggregate: agg,
        windows: vec![TimeWindow::of_len(SimTime::ZERO, 3600)],
        active,
    };
    let inst = MipInstance::new(
        net,
        catalog,
        demand,
        &DiskConfig::UniformRatio { ratio: 1.6 },
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
        let passes = 1500;
        let (frac, stats) = solve_fractional(
            &inst,
            &EpfConfig {
                max_passes: passes,
                seed: 3,
                ..Default::default()
            },
        );
        eprintln!("EPF {passes} passes: obj {:.3} viol {:.4} lb {:.3} (exact-relative obj {:+.2}% lb {:+.2}%)",
            frac.objective, frac.max_violation, frac.lower_bound,
            (frac.objective/exact.objective-1.0)*100.0, (frac.lower_bound/exact.objective-1.0)*100.0);
        let _ = stats;
    }
}
