//! Feasibility-region searches (Fig. 11, Fig. 13, Tables IV and V).
//!
//! A (disk, link-capacity) operating point is *feasible* when the EPF
//! solver, run in pure feasibility mode, reaches `δ_c(z) ≤ ε` within
//! its pass budget. Binary searches over the disk multiplier or the
//! uniform link capacity trace out the paper's trade-off curves.

use crate::epf::{EpfConfig, Hooks, Start};
use crate::error::SolveError;
use crate::instance::{DiskConfig, MipInstance};
use crate::solver::solve;
use vod_model::{Gigabytes, LinkId, Mbps, VhoId};
use vod_net::Network;
use vod_trace::DemandInput;

/// Whether the given instance admits an ε-feasible fractional solution
/// within the solver's pass budget. An instance or config [`solve`]
/// rejects is not feasible.
pub fn is_feasible(inst: &MipInstance, cfg: &EpfConfig) -> bool {
    solve(inst, &cfg.feasibility(), Start::default(), Hooks::default())
        .is_ok_and(|s| s.stats.converged)
}

/// Everything needed to rebuild instances while sweeping one knob.
#[derive(Debug)]
pub struct Scenario<'a> {
    pub network: &'a Network,
    pub catalog: &'a vod_model::Catalog,
    pub demand: &'a DemandInput,
    pub alpha: f64,
    pub beta: f64,
}

/// Per-element capacity scales applied on top of a scenario's uniform
/// settings — the solver-side mirror of a fault schedule: a failed VHO
/// is `(vho, 0.0)` disk scale, a cut link `(link, 0.0)`, a brownout
/// `(link, 0.5)`. Scales must be finite and non-negative;
/// [`Scenario::instance_with`] rejects anything else with a typed
/// error instead of letting NaN capacities poison the potential.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct CapacityOverrides {
    /// `(link, scale)`: the link's capacity is multiplied by `scale`.
    pub link_scale: Vec<(LinkId, f64)>,
    /// `(vho, scale)`: the VHO's disk is multiplied by `scale`.
    pub disk_scale: Vec<(VhoId, f64)>,
}

impl CapacityOverrides {
    pub fn is_empty(&self) -> bool {
        self.link_scale.is_empty() && self.disk_scale.is_empty()
    }
}

/// A zero scale must still leave the potential's relative-violation
/// ratios finite, so scaled capacities are floored here: anything
/// placed on a "removed" resource shows up as an astronomical (but
/// finite) violation the solver then steers away from.
const CAPACITY_FLOOR: f64 = 1e-6;

impl Scenario<'_> {
    fn instance(&self, disk: &DiskConfig, capacity: Mbps) -> MipInstance {
        let mut net = self.network.clone();
        net.set_uniform_capacity(capacity);
        MipInstance::new(
            net,
            self.catalog.clone(),
            self.demand.clone(),
            disk,
            self.alpha,
            self.beta,
            None,
        )
    }

    /// Build an instance with validated per-link / per-VHO capacity
    /// overrides applied on top of the uniform settings — the entry
    /// point for fault-repair re-solves (a warm `solver::solve` after a
    /// VHO outage or link cut).
    pub fn instance_with(
        &self,
        disk: &DiskConfig,
        capacity: Mbps,
        overrides: &CapacityOverrides,
    ) -> Result<MipInstance, SolveError> {
        let bad = |what: String| Err(SolveError::InvalidOverride { what });
        if !capacity.value().is_finite() || capacity.value() <= 0.0 {
            return bad(format!(
                "uniform link capacity must be finite and > 0 (got {})",
                capacity.value()
            ));
        }
        let n_links = self.network.num_links();
        let n_vhos = self.network.num_nodes();
        for &(l, s) in &overrides.link_scale {
            if l.index() >= n_links {
                return bad(format!("link {l} out of range (n_links = {n_links})"));
            }
            if !s.is_finite() || s < 0.0 {
                return bad(format!("link {l} scale {s} must be finite and >= 0"));
            }
        }
        for &(v, s) in &overrides.disk_scale {
            if v.index() >= n_vhos {
                return bad(format!("VHO {v} out of range (n_vhos = {n_vhos})"));
            }
            if !s.is_finite() || s < 0.0 {
                return bad(format!("VHO {v} disk scale {s} must be finite and >= 0"));
            }
        }

        let mut net = self.network.clone();
        net.set_uniform_capacity(capacity);
        for &(l, s) in &overrides.link_scale {
            net.set_link_capacity(l, Mbps::new((capacity.value() * s).max(CAPACITY_FLOOR)));
        }
        let mut inst = MipInstance::new(
            net,
            self.catalog.clone(),
            self.demand.clone(),
            disk,
            self.alpha,
            self.beta,
            None,
        );
        for &(v, s) in &overrides.disk_scale {
            let scaled = (inst.disks[v.index()].value() * s).max(CAPACITY_FLOOR);
            inst.disks[v.index()] = Gigabytes::new(scaled);
        }
        Ok(inst)
    }
}

/// Fig. 11: the minimum aggregate-disk multiplier (relative to the
/// library size) at which all requests can be served under the given
/// uniform link capacity. Binary search to `tol` between `lo` and
/// `hi` multipliers; `None` if even `hi` is infeasible.
///
/// `shape` builds a [`DiskConfig`] from a multiplier (uniform or
/// tiered).
pub fn min_disk_ratio(
    scenario: &Scenario<'_>,
    capacity: Mbps,
    shape: impl Fn(f64) -> DiskConfig,
    lo: f64,
    hi: f64,
    tol: f64,
    cfg: &EpfConfig,
) -> Option<f64> {
    assert!(lo > 0.0 && hi > lo && tol > 0.0);
    if !is_feasible(&scenario.instance(&shape(hi), capacity), cfg) {
        return None;
    }
    let (mut lo, mut hi) = (lo, hi);
    if is_feasible(&scenario.instance(&shape(lo), capacity), cfg) {
        return Some(lo);
    }
    while hi - lo > tol {
        let mid = 0.5 * (lo + hi);
        if is_feasible(&scenario.instance(&shape(mid), capacity), cfg) {
            hi = mid;
        } else {
            lo = mid;
        }
    }
    Some(hi)
}

/// Tables IV/V, Fig. 13: the minimum uniform link capacity at which the
/// instance is feasible with the given disk configuration. Binary
/// search between `lo` and `hi` (Mb/s) to relative tolerance `rel_tol`;
/// `None` if even `hi` is infeasible.
pub fn min_link_capacity(
    scenario: &Scenario<'_>,
    disk: &DiskConfig,
    lo: Mbps,
    hi: Mbps,
    rel_tol: f64,
    cfg: &EpfConfig,
) -> Option<Mbps> {
    assert!(lo.value() > 0.0 && hi.value() > lo.value() && rel_tol > 0.0);
    if !is_feasible(&scenario.instance(disk, hi), cfg) {
        return None;
    }
    if is_feasible(&scenario.instance(disk, lo), cfg) {
        return Some(lo);
    }
    let (mut lo, mut hi) = (lo.value(), hi.value());
    while (hi - lo) / hi > rel_tol {
        let mid = 0.5 * (lo + hi);
        if is_feasible(&scenario.instance(disk, Mbps::new(mid)), cfg) {
            hi = mid;
        } else {
            lo = mid;
        }
    }
    Some(Mbps::new(hi))
}

#[cfg(test)]
mod tests {
    use super::*;
    use vod_net::topologies;
    use vod_trace::{analysis, generate_trace, synthesize_library, LibraryConfig, TraceConfig};

    struct World {
        net: Network,
        catalog: vod_model::Catalog,
        demand: DemandInput,
    }

    fn world(seed: u64) -> World {
        let net = topologies::mesh_backbone(6, 9, seed);
        let catalog = synthesize_library(&LibraryConfig::default_for(60, 7, seed));
        let trace = generate_trace(&catalog, &net, &TraceConfig::default_for(600.0, 7, seed));
        let windows = analysis::select_peak_windows(&trace, &catalog, 3600, 2);
        let demand = DemandInput::from_trace(&trace, &catalog, net.num_nodes(), windows);
        World {
            net,
            catalog,
            demand,
        }
    }

    fn cfg(seed: u64) -> EpfConfig {
        EpfConfig {
            max_passes: 60,
            seed,
            ..Default::default()
        }
    }

    #[test]
    fn disk_ratio_monotone_in_capacity() {
        let w = world(31);
        let scenario = Scenario {
            network: &w.net,
            catalog: &w.catalog,
            demand: &w.demand,
            alpha: 1.0,
            beta: 0.0,
        };
        let shape = |r: f64| DiskConfig::UniformRatio { ratio: r };
        let tight = min_disk_ratio(
            &scenario,
            Mbps::from_gbps(0.05),
            shape,
            1.05,
            12.0,
            0.25,
            &cfg(31),
        );
        let loose = min_disk_ratio(
            &scenario,
            Mbps::from_gbps(2.0),
            shape,
            1.05,
            12.0,
            0.25,
            &cfg(31),
        );
        let loose = loose.expect("ample capacity must be feasible");
        if let Some(tight) = tight {
            assert!(
                tight >= loose - 0.25,
                "smaller links cannot need less disk: tight {tight} loose {loose}"
            );
        }
        // With generous links, close to one copy each suffices.
        assert!(loose < 4.0, "loose-capacity disk need too large: {loose}");
    }

    #[test]
    fn capacity_search_finds_threshold() {
        let w = world(32);
        let scenario = Scenario {
            network: &w.net,
            catalog: &w.catalog,
            demand: &w.demand,
            alpha: 1.0,
            beta: 0.0,
        };
        let disk = DiskConfig::UniformRatio { ratio: 2.0 };
        let cap = min_link_capacity(
            &scenario,
            &disk,
            Mbps::new(1.0),
            Mbps::from_gbps(5.0),
            0.2,
            &cfg(32),
        )
        .expect("5 Gb/s must be enough");
        assert!(cap.value() >= 1.0 && cap.value() <= 5000.0);
        // Verify the found point really is feasible.
        let mut net = w.net.clone();
        net.set_uniform_capacity(cap);
        let inst = MipInstance::new(
            net,
            w.catalog.clone(),
            w.demand.clone(),
            &disk,
            1.0,
            0.0,
            None,
        );
        assert!(is_feasible(&inst, &cfg(32)));
    }

    #[test]
    fn overrides_validate_and_apply() {
        let w = world(34);
        let scenario = Scenario {
            network: &w.net,
            catalog: &w.catalog,
            demand: &w.demand,
            alpha: 1.0,
            beta: 0.0,
        };
        let disk = DiskConfig::UniformRatio { ratio: 2.0 };
        let cap = Mbps::from_gbps(1.0);

        // Empty overrides reproduce the plain instance exactly.
        let plain = scenario.instance(&disk, cap);
        let same = scenario
            .instance_with(&disk, cap, &CapacityOverrides::default())
            .expect("empty overrides are valid");
        assert_eq!(plain.disks, same.disks);
        assert_eq!(plain.network.links(), same.network.links());

        // A degraded link and a halved disk show up scaled.
        let ov = CapacityOverrides {
            link_scale: vec![(LinkId::new(0), 0.25)],
            disk_scale: vec![(VhoId::new(1), 0.5)],
        };
        let inst = scenario.instance_with(&disk, cap, &ov).expect("valid");
        assert!((inst.network.link(LinkId::new(0)).capacity.value() - 250.0).abs() < 1e-9);
        assert!((inst.disks[1].value() - 0.5 * plain.disks[1].value()).abs() < 1e-9);

        // A zero scale is floored, never zero (the potential divides
        // by capacities).
        let cut = CapacityOverrides {
            link_scale: vec![(LinkId::new(2), 0.0)],
            disk_scale: vec![(VhoId::new(0), 0.0)],
        };
        let inst = scenario.instance_with(&disk, cap, &cut).expect("valid");
        assert!(inst.network.link(LinkId::new(2)).capacity.value() > 0.0);
        assert!(inst.disks[0].value() > 0.0);
    }

    #[test]
    fn overrides_reject_bad_inputs() {
        let w = world(35);
        let scenario = Scenario {
            network: &w.net,
            catalog: &w.catalog,
            demand: &w.demand,
            alpha: 1.0,
            beta: 0.0,
        };
        let disk = DiskConfig::UniformRatio { ratio: 2.0 };
        let cap = Mbps::from_gbps(1.0);
        let is_invalid = |r: Result<MipInstance, SolveError>| {
            matches!(r, Err(SolveError::InvalidOverride { .. }))
        };
        let link = |l: usize, s: f64| CapacityOverrides {
            link_scale: vec![(LinkId::from_index(l), s)],
            disk_scale: vec![],
        };
        let vho = |v: usize, s: f64| CapacityOverrides {
            link_scale: vec![],
            disk_scale: vec![(VhoId::from_index(v), s)],
        };
        assert!(is_invalid(scenario.instance_with(
            &disk,
            cap,
            &link(0, -0.5)
        )));
        assert!(is_invalid(scenario.instance_with(
            &disk,
            cap,
            &link(0, f64::NAN)
        )));
        assert!(is_invalid(scenario.instance_with(
            &disk,
            cap,
            &link(w.net.num_links(), 1.0)
        )));
        assert!(is_invalid(scenario.instance_with(
            &disk,
            cap,
            &vho(0, -1.0)
        )));
        assert!(is_invalid(scenario.instance_with(
            &disk,
            cap,
            &vho(0, f64::INFINITY)
        )));
        assert!(is_invalid(scenario.instance_with(
            &disk,
            cap,
            &vho(w.net.num_nodes(), 1.0)
        )));
        assert!(is_invalid(scenario.instance_with(
            &disk,
            Mbps::new(0.0),
            &CapacityOverrides::default()
        )));
    }

    #[test]
    fn infeasible_when_hi_insufficient() {
        let w = world(33);
        let scenario = Scenario {
            network: &w.net,
            catalog: &w.catalog,
            demand: &w.demand,
            alpha: 1.0,
            beta: 0.0,
        };
        // Disk below one library copy can never work.
        assert_eq!(
            min_link_capacity(
                &scenario,
                &DiskConfig::UniformRatio { ratio: 0.5 },
                Mbps::new(1.0),
                Mbps::from_gbps(100.0),
                0.2,
                &cfg(33),
            ),
            None
        );
    }
}
