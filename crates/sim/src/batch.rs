//! Parallel scenario runner: fan independent `simulate()` calls over
//! the `vod-core` worker surface.
//!
//! Every figure sweep downstream of a placement (Figs. 5–12, Tables
//! V–VI) replays the *same* trace under many configurations — cache
//! fractions, window sizes, update frequencies, baselines. Each replay
//! is independent, so the sweep parallelizes perfectly; and because
//! [`vod_core::map_ordered`] reassembles results in job order, a batch
//! at `threads = N` is byte-identical to the serial loop it replaces
//! (pinned by `crates/sim/tests/determinism.rs`).
#![deny(clippy::expect_used, clippy::panic, clippy::unreachable, clippy::todo)]

use crate::engine::{simulate, PolicyKind, SimConfig, SimReport, VhoConfig};
use vod_model::Catalog;
use vod_net::{Network, PathSet};
use vod_trace::Trace;

/// One `simulate()` invocation's borrowed inputs. Jobs in a batch may
/// share everything (fig. 12: same net/trace, different `vhos`) or
/// nothing (table V: per-row capacities).
#[derive(Debug, Clone)]
pub struct SimJob<'a> {
    pub net: &'a Network,
    pub paths: &'a PathSet,
    pub catalog: &'a Catalog,
    pub trace: &'a Trace,
    pub vhos: &'a [VhoConfig],
    pub policy: &'a PolicyKind,
    pub cfg: SimConfig,
}

/// Run every job and return the reports in job order. `threads <= 1`
/// degenerates to the serial loop.
pub fn simulate_batch(jobs: &[SimJob<'_>], threads: usize) -> Vec<SimReport> {
    vod_core::map_ordered(threads, jobs, |job| {
        simulate(
            job.net,
            job.paths,
            job.catalog,
            job.trace,
            job.vhos,
            job.policy,
            &job.cfg,
        )
    })
}

/// Thread count for batch sweeps: all available cores (the jobs are
/// compute-bound and order-independent).
pub fn default_threads() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::VhoConfig;
    use vod_model::{Catalog, SimTime, VhoId, Video, VideoClass, VideoId, VideoKind};
    use vod_net::topologies;
    use vod_trace::{Request, Trace};

    fn catalog(n: u32) -> Catalog {
        Catalog::new(
            (0..n)
                .map(|i| Video {
                    id: VideoId::new(i),
                    class: VideoClass::Show,
                    kind: VideoKind::Catalog,
                    release_day: 0,
                    weight: 1.0,
                })
                .collect(),
        )
    }

    #[test]
    fn batch_matches_serial_calls() {
        let net = topologies::line(3);
        let paths = PathSet::shortest_paths(&net);
        let cat = catalog(2);
        let trace = Trace::new(
            SimTime::new(30_000),
            vec![
                Request {
                    time: SimTime::new(0),
                    vho: VhoId::new(2),
                    video: VideoId::new(0),
                },
                Request {
                    time: SimTime::new(100),
                    vho: VhoId::new(1),
                    video: VideoId::new(1),
                },
            ],
        );
        let vhos: Vec<VhoConfig> = vec![
            VhoConfig {
                pinned: vec![VideoId::new(0), VideoId::new(1)],
                cache: None,
            },
            VhoConfig {
                pinned: vec![],
                cache: None,
            },
            VhoConfig {
                pinned: vec![],
                cache: None,
            },
        ];
        let policy = PolicyKind::NearestReplica;
        let jobs: Vec<SimJob> = (0..4u64)
            .map(|seed| SimJob {
                net: &net,
                paths: &paths,
                catalog: &cat,
                trace: &trace,
                vhos: &vhos,
                policy: &policy,
                cfg: SimConfig {
                    seed,
                    ..Default::default()
                },
            })
            .collect();
        let batched = simulate_batch(&jobs, 3);
        assert_eq!(batched.len(), 4);
        for (job, rep) in jobs.iter().zip(&batched) {
            let serial = simulate(
                job.net,
                job.paths,
                job.catalog,
                job.trace,
                job.vhos,
                job.policy,
                &job.cfg,
            );
            assert_eq!(rep.total_requests, serial.total_requests);
            assert_eq!(rep.total_gb_hops.to_bits(), serial.total_gb_hops.to_bits());
        }
    }
}
