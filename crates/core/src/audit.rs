//! Runtime invariant auditing of solver outputs.
//!
//! Validators that re-check solutions against the MIP's constraints
//! from first principles — independently of the incremental bookkeeping
//! the solver itself maintains:
//!
//! - **distribution mass** (constraint (3)): every client's serving
//!   distribution `x_{·j}^m` sums to 1,
//! - **dominance** (constraint (4)): no client draws more of a video
//!   from a VHO than the fraction stored there, `x_ij^m ≤ y_i^m`,
//! - **disk budgets** (constraint (5)) and **link capacities**
//!   (constraint (6)): aggregate usage stays within capacity up to a
//!   caller-supplied *relative* tolerance — the EPF solver is
//!   ε-feasible by design, so its outputs legitimately carry a small
//!   violation which they must themselves report correctly.
//!
//! The validators are always compiled and callable (tests and tools use
//! them directly); the `audit` cargo feature only switches on the
//! solver-internal assertions inside the EPF pass loop
//! ([`crate::epf`]) and after rounding ([`crate::rounding`]).

use crate::epf::{compute_state, layout_of};
use crate::instance::MipInstance;
use crate::solution::{BlockSolution, FractionalSolution, Placement, INT_TOL};
use std::fmt;

/// One invariant violation. VHOs, links and videos are reported as
/// dense indices (not id newtypes) — these are diagnostics, not handles
/// to route further work through.
#[derive(Debug, Clone, PartialEq)]
pub enum Violation {
    /// A block's `x` rows don't line up with the instance's clients.
    ClientCount {
        video: usize,
        got: usize,
        want: usize,
    },
    /// A stored fraction `y_i^m` outside `[0, 1]` (beyond tolerance).
    StoreRange { video: usize, vho: usize, y: f64 },
    /// A negative serving share `x_ij^m`.
    NegativeShare {
        video: usize,
        client: usize,
        vho: usize,
        x: f64,
    },
    /// A client's serving distribution does not sum to 1.
    DistributionMass {
        video: usize,
        client: usize,
        total: f64,
    },
    /// A client draws more from a VHO than is stored there (x > y).
    Dominance {
        video: usize,
        client: usize,
        vho: usize,
        x: f64,
        y: f64,
    },
    /// An integral solution stores no copy of a video at all.
    NoCopy { video: usize },
    /// A placement routes a client to a VHO that holds no copy.
    ForeignServer {
        video: usize,
        client: usize,
        vho: usize,
    },
    /// Disk usage at a VHO exceeds its capacity beyond tolerance.
    Disk {
        vho: usize,
        used_gb: f64,
        cap_gb: f64,
    },
    /// Link load in a window exceeds capacity beyond tolerance.
    Link {
        link: usize,
        window: usize,
        used_mbps: f64,
        cap_mbps: f64,
    },
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            Violation::ClientCount { video, got, want } => write!(
                f,
                "video {video}: {got} serving distributions for {want} clients"
            ),
            Violation::StoreRange { video, vho, y } => {
                write!(f, "video {video}: y at VHO {vho} out of range: {y}")
            }
            Violation::NegativeShare {
                video,
                client,
                vho,
                x,
            } => write!(
                f,
                "video {video} client {client}: negative share {x} from VHO {vho}"
            ),
            Violation::DistributionMass {
                video,
                client,
                total,
            } => write!(
                f,
                "video {video} client {client}: serving shares sum to {total}, not 1"
            ),
            Violation::Dominance {
                video,
                client,
                vho,
                x,
                y,
            } => write!(
                f,
                "video {video} client {client}: x={x} from VHO {vho} exceeds stored y={y}"
            ),
            Violation::NoCopy { video } => {
                write!(f, "video {video}: no stored copy anywhere")
            }
            Violation::ForeignServer { video, client, vho } => write!(
                f,
                "video {video} client {client}: routed to VHO {vho} which holds no copy"
            ),
            Violation::Disk {
                vho,
                used_gb,
                cap_gb,
            } => write!(
                f,
                "VHO {vho}: disk used {used_gb:.3} GB exceeds capacity {cap_gb:.3} GB"
            ),
            Violation::Link {
                link,
                window,
                used_mbps,
                cap_mbps,
            } => write!(
                f,
                "link {link} window {window}: load {used_mbps:.3} Mb/s exceeds \
                 capacity {cap_mbps:.3} Mb/s"
            ),
        }
    }
}

/// The outcome of an audit: empty means every checked invariant holds.
#[derive(Debug, Clone, Default)]
pub struct AuditReport {
    pub violations: Vec<Violation>,
}

impl AuditReport {
    pub fn is_ok(&self) -> bool {
        self.violations.is_empty()
    }

    pub fn merge(&mut self, other: AuditReport) {
        self.violations.extend(other.violations);
    }

    /// Panic with a readable listing when any violation was found.
    /// `context` names the checkpoint (e.g. `"EPF pass invariants"`).
    pub fn assert_ok(&self, context: &str) {
        assert!(self.is_ok(), "audit failed at {context}:\n{self}");
    }
}

impl fmt::Display for AuditReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        const SHOWN: usize = 12;
        for v in self.violations.iter().take(SHOWN) {
            writeln!(f, "  - {v}")?;
        }
        if self.violations.len() > SHOWN {
            writeln!(f, "  … and {} more", self.violations.len() - SHOWN)?;
        }
        Ok(())
    }
}

/// Check the block-local constraints (3)/(4) of every video: serving
/// distributions sum to 1, shares are nonnegative and dominated by the
/// stored fractions, stored fractions lie in `[0, 1]`. `tol` is an
/// absolute tolerance (use [`INT_TOL`] for solver outputs).
pub fn check_blocks(inst: &MipInstance, blocks: &[BlockSolution], tol: f64) -> AuditReport {
    let mut violations = Vec::new();
    for (b, data) in blocks.iter().zip(inst.blocks()) {
        let video = data.video.index();
        if b.x.n_clients() != data.clients.len() {
            violations.push(Violation::ClientCount {
                video,
                got: b.x.n_clients(),
                want: data.clients.len(),
            });
            continue;
        }
        for &(i, y) in &b.y {
            if !(-tol..=1.0 + tol).contains(&y) {
                violations.push(Violation::StoreRange {
                    video,
                    vho: i.index(),
                    y,
                });
            }
        }
        for (client, dist) in b.x.iter().enumerate() {
            let mut total = 0.0;
            for &(i, x) in dist {
                total += x;
                if x < -tol {
                    violations.push(Violation::NegativeShare {
                        video,
                        client,
                        vho: i.index(),
                        x,
                    });
                }
                let y = b.y_at(i);
                if x > y + tol {
                    violations.push(Violation::Dominance {
                        video,
                        client,
                        vho: i.index(),
                        x,
                        y,
                    });
                }
            }
            if (total - 1.0).abs() > tol {
                violations.push(Violation::DistributionMass {
                    video,
                    client,
                    total,
                });
            }
        }
    }
    AuditReport { violations }
}

/// Check the coupling constraints (5)/(6): recompute disk and link
/// usage from scratch and compare against capacity. A row passes when
/// `used ≤ cap · (1 + rel_tol) + 1e-9` — pass the solution's own
/// reported `max_violation` (plus [`INT_TOL`]) as `rel_tol` to verify
/// it is honest about its infeasibility.
pub fn check_coupling(inst: &MipInstance, blocks: &[BlockSolution], rel_tol: f64) -> AuditReport {
    let layout = layout_of(inst);
    let (usage, _obj) = compute_state(inst, &layout, blocks);
    let mut violations = Vec::new();
    for (i, (&used, cap)) in usage[..layout.n_vhos].iter().zip(&inst.disks).enumerate() {
        if used > cap.value() * (1.0 + rel_tol) + 1e-9 {
            violations.push(Violation::Disk {
                vho: i,
                used_gb: used,
                cap_gb: cap.value(),
            });
        }
    }
    for t in 0..layout.n_windows {
        for (l, link) in inst.network.links().iter().enumerate() {
            let used = usage[layout.n_vhos + t * layout.n_links + l];
            if used > link.capacity.value() * (1.0 + rel_tol) + 1e-9 {
                violations.push(Violation::Link {
                    link: l,
                    window: t,
                    used_mbps: used,
                    cap_mbps: link.capacity.value(),
                });
            }
        }
    }
    AuditReport { violations }
}

/// Full audit of a fractional solution: block-local constraints exactly
/// (within [`INT_TOL`]) plus coupling rows within `rel_tol`.
pub fn check_fractional(
    inst: &MipInstance,
    frac: &FractionalSolution,
    rel_tol: f64,
) -> AuditReport {
    let mut report = check_blocks(inst, &frac.blocks, INT_TOL);
    report.merge(check_coupling(inst, &frac.blocks, rel_tol));
    report
}

/// Full audit of an integral [`Placement`]: every video has a copy, the
/// stored routing only uses holders and sums to 1 per client, disk
/// usage and link loads (stored routing where present, nearest-copy
/// otherwise — the same service model as
/// [`Placement::objective_under`]) stay within `rel_tol`.
pub fn check_placement(inst: &MipInstance, placement: &Placement, rel_tol: f64) -> AuditReport {
    let mut violations = Vec::new();
    let layout = layout_of(inst);
    let mut link_load = vec![0.0f64; layout.n_links * layout.n_windows];
    for data in inst.blocks() {
        let m = data.video;
        let holders = placement.stores(m);
        if holders.is_empty() {
            violations.push(Violation::NoCopy { video: m.index() });
            continue;
        }
        for (client, c) in data.clients.iter().enumerate() {
            let dist = placement.serving_distribution(m, c.j);
            if let Some(dist) = dist {
                let mut total = 0.0;
                for &(i, x) in dist {
                    total += x;
                    if x < -INT_TOL {
                        violations.push(Violation::NegativeShare {
                            video: m.index(),
                            client,
                            vho: i.index(),
                            x,
                        });
                    }
                    if !placement.has_copy(m, i) {
                        violations.push(Violation::ForeignServer {
                            video: m.index(),
                            client,
                            vho: i.index(),
                        });
                    }
                    for (t, &rate) in c.rate.iter().enumerate() {
                        if rate != 0.0 {
                            for &l in inst.paths.path(i, c.j) {
                                link_load[t * layout.n_links + l.index()] += rate * x;
                            }
                        }
                    }
                }
                if (total - 1.0).abs() > INT_TOL {
                    violations.push(Violation::DistributionMass {
                        video: m.index(),
                        client,
                        total,
                    });
                }
            } else {
                // Nearest-copy service, as in `objective_under`.
                #[expect(
                    clippy::expect_used,
                    reason = "this branch is only taken when `holders` was checked non-empty"
                )]
                let near = holders
                    .iter()
                    .copied()
                    .min_by(|&a, &b| {
                        inst.cost(a, c.j)
                            .total_cmp(&inst.cost(b, c.j))
                            .then(a.cmp(&b))
                    })
                    .expect("holders is non-empty");
                for (t, &rate) in c.rate.iter().enumerate() {
                    if rate != 0.0 {
                        for &l in inst.paths.path(near, c.j) {
                            link_load[t * layout.n_links + l.index()] += rate;
                        }
                    }
                }
            }
        }
    }
    for (i, (used, cap)) in placement
        .disk_usage(&inst.catalog)
        .iter()
        .zip(&inst.disks)
        .enumerate()
    {
        if used.value() > cap.value() * (1.0 + rel_tol) + 1e-9 {
            violations.push(Violation::Disk {
                vho: i,
                used_gb: used.value(),
                cap_gb: cap.value(),
            });
        }
    }
    for t in 0..layout.n_windows {
        for (l, link) in inst.network.links().iter().enumerate() {
            let used = link_load[t * layout.n_links + l];
            if used > link.capacity.value() * (1.0 + rel_tol) + 1e-9 {
                violations.push(Violation::Link {
                    link: l,
                    window: t,
                    used_mbps: used,
                    cap_mbps: link.capacity.value(),
                });
            }
        }
    }
    AuditReport { violations }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::epf::tests::small_instance;
    use crate::epf::EpfConfig;
    use crate::rounding::round_solution;
    use crate::solver::solve_fractional;

    fn solved() -> (MipInstance, FractionalSolution, f64) {
        let inst = small_instance(50, 2.0, 1.0, 31);
        let cfg = EpfConfig {
            max_passes: 60,
            seed: 31,
            ..Default::default()
        };
        let (frac, _) = solve_fractional(&inst, &cfg);
        let gamma = cfg.gamma;
        (inst, frac, gamma)
    }

    #[test]
    fn solver_output_passes_audit() {
        let (inst, frac, gamma) = solved();
        let report = check_fractional(&inst, &frac, frac.max_violation + INT_TOL);
        assert!(report.is_ok(), "clean solve flagged:\n{report}");
        let (placement, stats) =
            round_solution(&inst, &frac, gamma, crate::kernel::Kernel::Chunked);
        let report = check_placement(&inst, &placement, stats.max_violation + INT_TOL);
        assert!(report.is_ok(), "clean placement flagged:\n{report}");
    }

    #[test]
    fn broken_distribution_mass_is_flagged() {
        let (inst, mut frac, _) = solved();
        let (b, c) = frac
            .blocks
            .iter()
            .enumerate()
            .find_map(|(m, b)| b.x.iter().position(|d| !d.is_empty()).map(|c| (m, c)))
            .expect("some client exists");
        let halved: Vec<_> = frac.blocks[b]
            .x
            .dist(c)
            .iter()
            .map(|&(i, x)| (i, x * 0.5))
            .collect();
        frac.blocks[b].x.set_dist(c, &halved);
        let report = check_blocks(&inst, &frac.blocks, INT_TOL);
        assert!(report
            .violations
            .iter()
            .any(|v| matches!(v, Violation::DistributionMass { .. })));
    }

    #[test]
    fn broken_dominance_is_flagged() {
        let (inst, mut frac, _) = solved();
        let b = &mut frac.blocks[0];
        let (i, _) = b.x.dist(0)[0];
        // Route everything through one VHO while capping its y below.
        b.x.set_dist(0, &[(i, 1.0)]);
        if let Ok(k) = b.y.binary_search_by_key(&i, |&(v, _)| v) {
            b.y[k].1 = 0.25;
        }
        let report = check_blocks(&inst, &frac.blocks, INT_TOL);
        assert!(report
            .violations
            .iter()
            .any(|v| matches!(v, Violation::Dominance { .. })));
    }

    #[test]
    fn disk_overflow_is_flagged() {
        let (inst, mut frac, _) = solved();
        // Full replication blows through a 2×-library disk budget.
        for b in &mut frac.blocks {
            b.y = inst.network.vho_ids().map(|i| (i, 1.0)).collect();
        }
        let report = check_coupling(&inst, &frac.blocks, 0.05);
        assert!(report
            .violations
            .iter()
            .any(|v| matches!(v, Violation::Disk { .. })));
    }

    #[test]
    fn lost_copy_is_flagged() {
        let (inst, frac, gamma) = solved();
        let (placement, _) = round_solution(&inst, &frac, gamma, crate::kernel::Kernel::Chunked);
        let mut stores = placement.holder_lists().to_vec();
        stores[0].clear();
        let broken = Placement::from_stores(inst.n_vhos(), stores);
        let report = check_placement(&inst, &broken, 1.0);
        assert!(report
            .violations
            .iter()
            .any(|v| matches!(v, Violation::NoCopy { video: 0 })));
    }

    #[test]
    fn report_display_is_readable() {
        let report = AuditReport {
            violations: vec![Violation::Disk {
                vho: 3,
                used_gb: 12.5,
                cap_gb: 10.0,
            }],
        };
        let text = format!("{report}");
        assert!(text.contains("VHO 3"), "{text}");
        assert!(!report.is_ok());
    }
}
