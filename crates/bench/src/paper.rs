//! The paper runner: every table and figure of the evaluation is one
//! plain function in [`EXPERIMENTS`], keyed by the `results/` stems it
//! writes.
//!
//! ```text
//! cargo run --release -p vod-bench --bin paper -- [--quick|--full] [name …]
//! ```
//!
//! A name is an output stem such as `fig05_peak_bandwidth`; with no
//! names every experiment runs, in index order, each under a
//! `===== name =====` header. Experiments run one at a time: each fills
//! the cores itself (`simulate_batch`, EPF `threads: 0`), and Table III
//! times its own solves.

mod experiments;

use crate::{Defaults, Named, Scale, Scenario};
use experiments::*;
use std::cell::OnceCell;
use vod_core::{MipInstance, Placement};

/// What the experiments share: the scale, and the operational scenario
/// and week-0 placement, each built on first use and at most once.
#[derive(Debug)]
pub struct Ctx {
    scale: Scale,
    scenario: OnceCell<Scenario>,
    week0: OnceCell<(MipInstance, Placement)>,
}

impl Ctx {
    /// The operational scenario at this scale, seed 2010.
    pub fn scenario(&self) -> &Scenario {
        self.scenario
            .get_or_init(|| Scenario::operational(self.scale, 2010))
    }

    /// The placement solved on week 0's demand, on the capacity-scaled
    /// backbone with 5 % of 2x disk left to the cache — the instance
    /// Figs. 7 and 8 analyse and Fig. 10 replays at 2x disk.
    pub fn week0(&self) -> &(MipInstance, Placement) {
        self.week0.get_or_init(|| {
            let s = self.scenario();
            let d = Defaults::for_scale(self.scale);
            s.place(&s.scaled_net(&d), s.demand_of_week(0, &d), &s.mip_disk(&d))
        })
    }
}

/// One experiment: the `results/` stems it writes, and the function
/// that computes, prints and writes them.
pub type Experiment = Named<fn(&Ctx)>;

/// Every experiment, in the paper's order (DESIGN.md §3).
pub const EXPERIMENTS: &[Experiment] = &[
    (&["fig02_working_set"], fig02),
    (&["fig03_cosine_similarity"], fig03),
    (&["fig04_series_episodes"], fig04),
    (
        &["fig05_peak_bandwidth", "fig06_aggregate_transfer"],
        fig05_06,
    ),
    (&["fig07_disk_usage"], fig07),
    (&["fig08_copy_counts"], fig08),
    (&["fig09_lru_behavior"], fig09),
    (&["fig10_origin_comparison"], fig10),
    (&["fig11_feasibility_region"], fig11),
    (&["fig12_cache_sweep"], fig12),
    (&["fig13_capacity_vs_library"], fig13),
    (&["table03_scalability"], table03),
    (&["table04_topology"], table04),
    (&["table05_window_size"], table05),
    (&["table06_update_frequency"], table06),
    (&["rounding_quality"], rounding_quality),
];

/// Run `selected` in order at `scale`, each under its header.
pub fn run(scale: Scale, selected: &[&Experiment]) {
    let ctx = Ctx {
        scale,
        scenario: OnceCell::new(),
        week0: OnceCell::new(),
    };
    for (stems, f) in selected {
        println!("===== {} =====", stems.join(" + "));
        f(&ctx);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    fn parse_args(a: &[&str]) -> Result<(Scale, Vec<&'static Experiment>), String> {
        let args: Vec<String> = a.iter().map(|s| s.to_string()).collect();
        crate::parse_args("paper", EXPERIMENTS, &args)
    }

    /// Every output stem, in index order.
    fn stems() -> impl Iterator<Item = &'static str> {
        EXPERIMENTS
            .iter()
            .flat_map(|(stems, _)| stems.iter().copied())
    }

    #[test]
    fn output_stems_are_unique() {
        let all: Vec<_> = stems().collect();
        let unique: BTreeSet<_> = all.iter().collect();
        assert_eq!(unique.len(), all.len(), "{all:?}");
    }

    #[test]
    fn stems_are_exactly_the_checked_in_results() {
        let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../results");
        let on_disk: BTreeSet<String> = std::fs::read_dir(dir)
            .expect("results dir")
            .map(|e| {
                e.expect("dir entry")
                    .file_name()
                    .into_string()
                    .expect("utf-8")
            })
            .filter_map(|f| f.strip_suffix(".json").map(str::to_string))
            .filter(|f| f.starts_with("fig") || f.starts_with("table") || f == "rounding_quality")
            .collect();
        let ours: BTreeSet<String> = stems().map(str::to_string).collect();
        assert_eq!(ours, on_disk);
    }

    #[test]
    fn no_arguments_select_everything_at_default_scale() {
        let (scale, selected) = parse_args(&[]).expect("valid");
        assert_eq!(scale, Scale::Default);
        assert_eq!(selected.len(), EXPERIMENTS.len());
    }

    #[test]
    fn names_select_entries_in_index_order() {
        let (scale, selected) =
            parse_args(&["table03_scalability", "--quick", "fig02_working_set"]).expect("valid");
        assert_eq!(scale, Scale::Quick);
        let picked: Vec<_> = selected.iter().map(|(s, _)| s[0]).collect();
        assert_eq!(picked, ["fig02_working_set", "table03_scalability"]);
    }

    #[test]
    fn fig06_alone_selects_the_shared_comparison() {
        let (_, selected) = parse_args(&["fig06_aggregate_transfer"]).expect("valid");
        assert_eq!(selected.len(), 1);
        assert_eq!(
            selected[0].0,
            ["fig05_peak_bandwidth", "fig06_aggregate_transfer"]
        );
        let (_, both) =
            parse_args(&["fig05_peak_bandwidth", "fig06_aggregate_transfer"]).expect("valid");
        assert_eq!(both.len(), 1, "the shared entry runs once");
    }

    #[test]
    fn bad_arguments_are_errors_listing_the_names() {
        for bad in [
            &["fig99_nothing"][..],
            &["--quik"],
            &["--quick", "--full"],
            &["--full", "fig02_working_set", "--quick"],
        ] {
            let err = parse_args(bad).expect_err("rejected");
            assert!(err.contains("rounding_quality"), "{bad:?}: {err}");
        }
        assert!(parse_args(&["--full", "--full"]).is_ok());
    }
}
