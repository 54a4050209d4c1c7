//! Warm-state remapping across compatible world deltas.
//!
//! A [`SolverCheckpoint`] (and the fractional snapshot the service
//! hands from its solve stage to its round stage) is fingerprinted
//! against the exact `(config, instance)` it was captured under, so
//! *any* world change — even one that leaves every id axis intact —
//! makes resume validation reject it and forces a cold solve. For the
//! live-reconfiguration story that is too conservative: a link
//! capacity rescale or cut changes only the *right-hand sides* of the
//! coupling rows, not a single index the checkpoint stores.
//!
//! This module implements the documented remap rules:
//!
//! - **Remap-eligible (capacity-only deltas).** Every id axis (video,
//!   VHO, constraint row) is unchanged. The primal iterate (block
//!   solutions, incumbent `z*`, visit order, pass counters, coupling
//!   scale) survives verbatim; the checkpoint's fingerprint is
//!   recomputed against the post-delta world and the state fully
//!   revalidated. The Lagrangian lower bound is **reset to the neutral
//!   0**: dual certificates price the *old* capacities and do not
//!   survive a right-hand-side change (a capacity increase can only
//!   lower the optimum, so a stale positive bound could over-claim).
//! - **Invalidating (axis-changing deltas).** Catalog growth changes
//!   the video axis; any change to the number of VHOs or constraint
//!   rows changes dense indexing. These return a typed
//!   [`RemapError::AxisChanged`] and the caller must cold-solve (still
//!   warm-*started* from the deployed placement where shapes permit).
//!
//! Remapping is deterministic and pure: both chaos twins remap the
//! same bytes to the same bytes, preserving the byte-identical
//! recovery contract.

use crate::checkpoint::{config_fingerprint, SolverCheckpoint};
use crate::epf::EpfConfig;
use crate::instance::MipInstance;
use crate::solution::FractionalSolution;
use std::fmt;

/// Why a piece of warm state could not be carried across a delta.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RemapError {
    /// An id axis changed size: the state's dense indexing no longer
    /// matches the world. Not recoverable by remapping.
    AxisChanged { what: String },
    /// Axes match but the remapped state failed revalidation against
    /// the post-delta world (corrupt or internally inconsistent).
    Invalid { reason: String },
}

impl fmt::Display for RemapError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RemapError::AxisChanged { what } => write!(f, "axis changed: {what}"),
            RemapError::Invalid { reason } => write!(f, "remapped state invalid: {reason}"),
        }
    }
}

impl std::error::Error for RemapError {}

/// Carry a mid-solve checkpoint across a capacity-only delta: keep the
/// primal iterate and control counters, re-fingerprint against the
/// post-delta `(inst, cfg)`, reset the dual lower bound, and revalidate
/// everything the solver would index with.
pub fn remap_checkpoint(
    mut ckpt: SolverCheckpoint,
    inst: &MipInstance,
    cfg: &EpfConfig,
) -> Result<SolverCheckpoint, RemapError> {
    if ckpt.blocks.len() != inst.n_videos() {
        return Err(RemapError::AxisChanged {
            what: format!(
                "video axis: checkpoint holds {}, instance has {}",
                ckpt.blocks.len(),
                inst.n_videos()
            ),
        });
    }
    let n_rows = crate::epf::layout_of(inst).n_rows();
    if ckpt.usage.len() != n_rows {
        return Err(RemapError::AxisChanged {
            what: format!(
                "constraint-row axis: checkpoint has {}, instance has {n_rows}",
                ckpt.usage.len()
            ),
        });
    }
    ckpt.fingerprint = config_fingerprint(cfg, inst);
    // Dual certificates price the old right-hand sides; the primal
    // iterate is kept, the bound restarts from neutral.
    ckpt.lb = 0.0;
    ckpt.validate_for(inst, cfg)
        .map_err(|reason| RemapError::Invalid { reason })?;
    Ok(ckpt)
}

/// Carry a fractional solution (the solve→round hand-off artifact)
/// across a capacity-only delta. Same rules as [`remap_checkpoint`]:
/// id axes must be unchanged, the solution is shape-revalidated, and
/// the stale Lagrangian bound is dropped to the neutral 0.
pub fn remap_fractional(
    mut frac: FractionalSolution,
    inst: &MipInstance,
) -> Result<FractionalSolution, RemapError> {
    if frac.blocks.len() != inst.n_videos() {
        return Err(RemapError::AxisChanged {
            what: format!(
                "video axis: fractional holds {}, instance has {}",
                frac.blocks.len(),
                inst.n_videos()
            ),
        });
    }
    let n_vhos = inst.n_vhos();
    for (m, (b, data)) in frac.blocks.iter().zip(inst.blocks()).enumerate() {
        if b.x.n_clients() != data.clients.len() {
            return Err(RemapError::AxisChanged {
                what: format!(
                    "client axis of video {m}: fractional has {}, instance block has {}",
                    b.x.n_clients(),
                    data.clients.len()
                ),
            });
        }
        let ok = |pairs: &[(vod_model::VhoId, f64)]| {
            pairs
                .iter()
                .all(|&(i, x)| i.index() < n_vhos && x.is_finite())
        };
        if b.y.is_empty() || !ok(&b.y) || b.x.iter().any(|d| !ok(d)) {
            return Err(RemapError::Invalid {
                reason: format!("video {m}: y/x out of range or non-finite"),
            });
        }
    }
    frac.lower_bound = 0.0;
    Ok(frac)
}
