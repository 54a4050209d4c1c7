//! Snapshottable solver state: [`SolverCheckpoint`] captures the EPF
//! loop's complete numeric and control state at a pass boundary, so an
//! interrupted solve can resume **bitwise-identically** to an
//! uninterrupted one.
//!
//! What must be captured (and why):
//!
//! - the per-video block solutions and the incumbent `z*` — shared
//!   with the solver, not copied: a checkpoint holds the `Arc`s of the
//!   solver's own iterate, and the solver mutates through
//!   `Arc::make_mut`, so emission is two reference bumps and a sink
//!   that drops its checkpoint before the next pass causes no copy,
//! - the coupling state: usage totals, objective value, target `B`,
//!   and the scale `δ` (whose update is monotone and therefore
//!   history-dependent),
//! - the smoothed duals (an exponential moving average — pure history),
//! - the visit `order` vector (shuffled **in place** each pass, so its
//!   current permutation is the accumulated product of all shuffles),
//! - the pass counters and the in-run control state (`RunState`).
//!
//! What need *not* be captured: the RNG — each pass derives its shuffle
//! stream from `(seed, global_pass)`, so the counter alone pins it; the
//! penalty arena and worker pool — rebuilt fresh on resume, which is
//! bitwise-equal to the incremental updates by the arena's own
//! invariant (see `crates/core/tests/penalty_props.rs`). The solver
//! reads no clock, so its one budget, `step_limit`, is the
//! checkpointed pass counter.
//!
//! Serialization is compact JSON through the field-list codec of
//! [`vod_json::wire`], which writes every `f64` and `u64` as its exact
//! bit pattern in hex — a decimal float round-trip would break
//! bit-identity. Decoding never panics: every malformed field is a
//! typed [`CheckpointError`] naming its path, and
//! [`SolverCheckpoint::validate_for`] cross-checks the state against
//! the instance and config before the solver will touch it.

use crate::epf::{EpfConfig, RunState};
use crate::instance::MipInstance;
use crate::solution::{BlockSolution, Dists, FractionalSolution, Placement, VideoRouting};
use std::fmt;
use std::sync::Arc;
use vod_json::reader::Reader;
use vod_json::wire::{dec_each, dec_pair, dec_seq, enc_pair, enc_seq, Sink, Wire, WireError};
use vod_json::{wire_fields, wire_record, Value};
use vod_model::VhoId;

/// Snapshot-container kind tag for solver checkpoints.
pub const CHECKPOINT_KIND: &str = "solver-checkpoint";
/// Payload format version.
pub const CHECKPOINT_VERSION: u32 = 1;

/// A malformed checkpoint payload. Always recoverable: callers fall
/// back to a cold solve (which, being deterministic, still reproduces
/// the uninterrupted result).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CheckpointError {
    pub what: String,
}

impl CheckpointError {
    fn new(what: impl Into<String>) -> Self {
        Self { what: what.into() }
    }
}

impl fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "malformed solver checkpoint: {}", self.what)
    }
}

impl std::error::Error for CheckpointError {}

impl From<WireError> for CheckpointError {
    fn from(e: WireError) -> Self {
        Self::new(e.to_string())
    }
}

/// Complete EPF solver state at a pass boundary.
#[derive(Debug, Clone)]
pub struct SolverCheckpoint {
    /// FNV of the solver config + instance shape this state belongs to;
    /// resuming under any other config/instance is rejected.
    pub(crate) fingerprint: u64,
    pub(crate) global_pass: u64,
    pub(crate) passes_done: usize,
    pub(crate) block_steps: u64,
    pub(crate) lb: f64,
    pub(crate) ub: f64,
    pub(crate) lo: f64,
    /// Coupling objective target `B` (`None` during phase 1).
    pub(crate) target: Option<f64>,
    /// Coupling scale `δ` (monotone — cannot be recomputed).
    pub(crate) delta: f64,
    pub(crate) usage: Vec<f64>,
    pub(crate) obj: f64,
    pub(crate) smoothed_rows: Vec<f64>,
    pub(crate) smoothed_obj: f64,
    pub(crate) order: Vec<usize>,
    pub(crate) run: RunState,
    /// The solver's own iterate and incumbent, shared: the solve moves
    /// to a copy of its own (`Arc::make_mut`) at its next pass only if
    /// the checkpoint is still alive then.
    pub(crate) blocks: Arc<Vec<BlockSolution>>,
    pub(crate) zstar: Arc<Vec<BlockSolution>>,
}

impl SolverCheckpoint {
    /// The global pass counter at capture time (the "step" of the
    /// step-based checkpoint cadence).
    #[must_use]
    pub fn pass(&self) -> u64 {
        self.global_pass
    }

    /// Whether the solve was in the phase-2 target bisection.
    #[must_use]
    pub fn in_phase2(&self) -> bool {
        self.target.is_some()
    }

    /// Serialize to the checkpoint payload, compact text (wrap in a
    /// `vod_json::snapshot` container for on-disk durability).
    #[must_use]
    pub fn to_bytes(&self) -> Vec<u8> {
        self.compact().into_bytes()
    }

    /// Deserialize a checkpoint payload, straight from its text.
    /// Structural problems come back as typed errors — never a panic.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, CheckpointError> {
        Ok(Self::from_text(bytes)?)
    }

    /// Cross-check this checkpoint against the instance and config it
    /// is about to drive. Everything the solver would otherwise index
    /// with is validated here, so a hostile payload cannot panic it.
    pub(crate) fn validate_for(&self, inst: &MipInstance, cfg: &EpfConfig) -> Result<(), String> {
        let expect = config_fingerprint(cfg, inst);
        if self.fingerprint != expect {
            return Err(format!(
                "config/instance fingerprint mismatch: checkpoint {:#018x}, current {expect:#018x}",
                self.fingerprint
            ));
        }
        let layout = crate::epf::layout_of(inst);
        let (n, n_rows, n_vhos) = (inst.n_videos(), layout.n_rows(), inst.n_vhos());
        if self.usage.len() != n_rows || self.smoothed_rows.len() != n_rows {
            return Err(format!(
                "row count mismatch: usage {}, smoothed {}, instance {n_rows}",
                self.usage.len(),
                self.smoothed_rows.len()
            ));
        }
        if !self.delta.is_finite() || self.delta <= 0.0 {
            return Err(format!(
                "scale delta must be finite and > 0, got {}",
                self.delta
            ));
        }
        if let Some(b) = self.target {
            if !b.is_finite() || b <= 0.0 {
                return Err(format!("target must be finite and > 0, got {b}"));
            }
        }
        if self.run.budget == 0 {
            return Err("run budget must be >= 1".to_string());
        }
        // `order` must be a permutation of 0..n: it indexes blocks.
        if self.order.len() != n {
            return Err(format!(
                "order covers {} videos, instance has {n}",
                self.order.len()
            ));
        }
        let mut seen = vec![false; n];
        for &m in &self.order {
            if m >= n || seen[m] {
                return Err(format!("order is not a permutation of 0..{n}"));
            }
            seen[m] = true;
        }
        validate_blocks(&self.blocks, "blocks", inst, n_vhos)?;
        if !self.zstar.is_empty() {
            validate_blocks(&self.zstar, "zstar", inst, n_vhos)?;
        }
        Ok(())
    }
}

/// Shape-check a block-solution vector against the instance so later
/// dense row indexing cannot go out of bounds.
fn validate_blocks(
    blocks: &[BlockSolution],
    what: &str,
    inst: &MipInstance,
    n_vhos: usize,
) -> Result<(), String> {
    if blocks.len() != inst.n_videos() {
        return Err(format!(
            "{what} holds {} videos, instance has {}",
            blocks.len(),
            inst.n_videos()
        ));
    }
    let sorted_in_range = |pairs: &[(VhoId, f64)]| -> bool {
        pairs.windows(2).all(|w| w[0].0 < w[1].0)
            && pairs
                .iter()
                .all(|&(i, x)| i.index() < n_vhos && x.is_finite())
    };
    for (m, (b, data)) in blocks.iter().zip(inst.blocks()).enumerate() {
        if b.y.is_empty() || !sorted_in_range(&b.y) {
            return Err(format!("{what}[{m}].y is empty, unsorted, or out of range"));
        }
        if b.x.n_clients() != data.clients.len() {
            return Err(format!(
                "{what}[{m}] has {} client rows, instance block has {}",
                b.x.n_clients(),
                data.clients.len()
            ));
        }
        if !b.x.iter().all(sorted_in_range) {
            return Err(format!("{what}[{m}].x is unsorted or out of range"));
        }
    }
    Ok(())
}

wire_record!(RunState {
    local_pass,
    budget,
    snap_delta,
    track_lb,
    lb_run
});

wire_record!(SolverCheckpoint {
    fingerprint,
    global_pass,
    passes_done,
    block_steps,
    lb,
    ub,
    lo,
    target,
    delta,
    usage,
    obj,
    smoothed_rows,
    smoothed_obj,
    order,
    run,
    blocks,
    zstar,
});

// `{"y": […], "x": [[…], …]}`: one list per client, the form every
// persisted checkpoint and fractional artifact holds, read straight
// into the block's flat buffers.
wire_record!(BlockSolution {
    y: with(dist_enc, dist_dec),
    x: with(dists_enc, dists_dec),
});

wire_record!(FractionalSolution {
    blocks,
    objective,
    max_violation,
    lower_bound
});

// `VhoId` cannot implement `Wire` (see `vod_json::wire`): it travels as
// a `u16`-ranged `Num` through these adapters.

fn vho_enc<S: Sink>(i: &VhoId, out: &mut S) {
    i.index().emit(out);
}

#[expect(
    clippy::disallowed_methods,
    reason = "a persisted id is a dense VHO index by format"
)]
fn vho_dec(r: &mut Reader<'_>) -> Result<VhoId, WireError> {
    u16::read(r).map(VhoId::new)
}

/// A sparse `(VHO, weight)` list as `[[id, bits], …]`.
fn dist_enc<S: Sink>(d: &[(VhoId, f64)], out: &mut S) {
    enc_seq(d, out, |(i, x), out| {
        enc_pair(out, |out| vho_enc(i, out), |out| x.emit(out));
    });
}

fn dist_dec(r: &mut Reader<'_>) -> Result<Vec<(VhoId, f64)>, WireError> {
    dec_seq(r, |r| dec_pair(r, vho_dec, f64::read))
}

/// Per client, a list of [`dist_enc`]'s form.
fn dists_enc<S: Sink>(x: &Dists, out: &mut S) {
    out.begin_arr();
    for d in x.iter() {
        dist_enc(d, out);
    }
    out.end_arr();
}

/// One client's list of [`dist_dec`]'s form, read onto the end of `x`.
fn push_dist_dec(r: &mut Reader<'_>, x: &mut Dists) -> Result<(), WireError> {
    dec_each(r, |r| {
        x.push_entry(dec_pair(r, vho_dec, f64::read)?);
        Ok(())
    })?;
    x.end_dist()
        .ok_or_else(|| WireError::new("more serving entries than a u32 counts"))
}

/// A list of [`dist_dec`]'s lists, one per client.
fn dists_dec(r: &mut Reader<'_>) -> Result<Dists, WireError> {
    let mut x = Dists::default();
    dec_each(r, |r| push_dist_dec(r, &mut x))?;
    x.shrink_to_fit();
    Ok(x)
}

/// One video's routing as `[[j, [[i, x], …]], …]`.
fn routing_dec(r: &mut Reader<'_>) -> Result<VideoRouting, WireError> {
    let mut routing = VideoRouting::default();
    dec_each(r, |r| {
        let (j, ()) = dec_pair(r, vho_dec, |r| push_dist_dec(r, &mut routing.x))?;
        routing.clients.push(j);
        Ok(())
    })?;
    Ok(routing)
}

/// Serialize a fractional solution — the solve→round stage boundary of
/// a supervised pipeline, persisted so a crash between the two stages
/// does not force a re-solve.
#[must_use]
pub fn fractional_to_value(f: &FractionalSolution) -> Value {
    f.enc()
}

/// Shape-check a decoded fractional solution against the instance it
/// is about to be rounded for.
pub fn validate_fractional(
    f: &FractionalSolution,
    inst: &MipInstance,
) -> Result<(), CheckpointError> {
    validate_blocks(&f.blocks, "blocks", inst, inst.n_vhos()).map_err(CheckpointError::new)
}

/// A (rounded, integral) placement including its serving routing, so a
/// restored placement drives the simulator identically. Every index is
/// validated against the declared shape on decode.
impl Wire for Placement {
    fn emit<S: Sink>(&self, out: &mut S) {
        out.begin_obj();
        out.key("n_vhos");
        self.n_vhos().emit(out);
        out.key("stores");
        enc_seq(self.holder_lists(), out, |h, out| enc_seq(h, out, vho_enc));
        out.key("routing");
        enc_seq(self.routings(), out, |routing, out| {
            out.begin_arr();
            for (j, dist) in routing.iter() {
                enc_pair(out, |out| vho_enc(&j, out), |out| dist_enc(dist, out));
            }
            out.end_arr();
        });
        out.end_obj();
    }

    fn read(r: &mut Reader<'_>) -> Result<Self, WireError> {
        wire_fields!(r,
            n_vhos: |r| match u16::read(r)? {
                0 => Err(WireError::new("expected at least one VHO")),
                n => Ok(usize::from(n)),
            },
            stores: |r| dec_seq(r, |r| dec_seq(r, vho_dec)),
            routing: |r| dec_seq(r, routing_dec)
            => Placement::from_parts(n_vhos, stores, routing).map_err(WireError::new)
        )
    }
}

/// [`Placement`]'s wire form; `placement_fingerprint` hashes its text.
#[must_use]
pub fn placement_to_value(p: &Placement) -> Value {
    p.enc()
}

/// Fingerprint of every config field and instance value that shapes a
/// solve, checked by checkpoint resume and by the service's fractional
/// artifact. `threads` is deliberately excluded (results are
/// thread-count-invariant by the pool's determinism contract);
/// `step_limit` IS included — resuming under a different budget would
/// diverge from the uninterrupted run the identity guarantee is stated
/// against.
#[must_use]
pub fn config_fingerprint(cfg: &EpfConfig, inst: &MipInstance) -> u64 {
    let layout = crate::epf::layout_of(inst);
    let mut buf = Vec::with_capacity(14 * 8);
    let mut push = |x: u64| buf.extend_from_slice(&x.to_le_bytes());
    push(cfg.epsilon.to_bits());
    push(cfg.gamma.to_bits());
    // ρ, the chunk size and the bound cadence (every pass) keep the
    // slots their former config fields had: stored fingerprints hold.
    push(crate::epf::RHO.to_bits());
    push(crate::epf::CHUNK_SIZE as u64);
    push(cfg.max_passes as u64);
    push(1);
    push(cfg.polish_iters as u64);
    push(cfg.seed);
    push(u64::from(cfg.feasibility_only));
    push(cfg.step_limit.map_or(u64::MAX, |s| s));
    // The kernel backend is bitwise-neutral by the kernel module's
    // contract, but a resume mixing backends would still be a run no
    // single-backend execution can reproduce pass-for-pass in its
    // BENCH provenance — refuse the mismatch.
    push(cfg.kernel.tag());
    // The certification knobs shape the final bound, so they are
    // trajectory-relevant outright.
    push(cfg.gap_limit.map_or(u64::MAX, f64::to_bits));
    push(cfg.exact_cert as u64);
    push(inst.n_videos() as u64);
    push(inst.n_vhos() as u64);
    push(layout.n_rows() as u64);
    // Instance *content*, not just shape: a supervised pipeline
    // re-solves the same-shaped instance every cycle with different
    // demand and capacities, and a stale checkpoint from cycle k must
    // not pass for cycle k+1.
    for m in 0..inst.n_videos() {
        push(
            inst.demand
                .aggregate
                .video_total(vod_model::VideoId::from_index(m))
                .to_bits(),
        );
    }
    for cap in crate::epf::caps_of(inst, &layout) {
        push(cap.to_bits());
    }
    vod_json::snapshot::fnv1a64(&buf)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> SolverCheckpoint {
        let block = |ids: &[u16]| BlockSolution {
            y: ids.iter().map(|&i| (VhoId::new(i), 0.75)).collect(),
            x: Dists::from_lists([ids
                .iter()
                .map(|&i| (VhoId::new(i), 0.5))
                .collect::<Vec<_>>()]),
        };
        SolverCheckpoint {
            fingerprint: 0xdead_beef_cafe_f00d,
            global_pass: 42,
            passes_done: 40,
            block_steps: 1234,
            lb: 17.25,
            ub: f64::INFINITY,
            lo: 1e-300,
            target: Some(19.5),
            delta: 0.125,
            usage: vec![0.1, f64::MAX, -0.0],
            obj: 21.0,
            smoothed_rows: vec![1.0, 2.0, 3.0],
            smoothed_obj: 0.5,
            order: vec![1, 0],
            run: RunState {
                local_pass: 3,
                budget: 50,
                snap_delta: f64::INFINITY,
                track_lb: true,
                lb_run: 17.25,
            },
            blocks: Arc::new(vec![block(&[0, 2]), block(&[1])]),
            zstar: Arc::new(vec![block(&[0]), block(&[3])]),
        }
    }

    #[test]
    fn round_trip_is_bit_exact() {
        let ck = sample();
        let back = SolverCheckpoint::from_bytes(&ck.to_bytes()).unwrap();
        assert_eq!(back.fingerprint, ck.fingerprint);
        assert_eq!(back.global_pass, ck.global_pass);
        assert_eq!(back.passes_done, ck.passes_done);
        assert_eq!(back.block_steps, ck.block_steps);
        assert_eq!(back.lb.to_bits(), ck.lb.to_bits());
        assert_eq!(back.ub.to_bits(), ck.ub.to_bits());
        assert_eq!(back.lo.to_bits(), ck.lo.to_bits());
        assert_eq!(back.target.map(f64::to_bits), ck.target.map(f64::to_bits));
        assert_eq!(back.delta.to_bits(), ck.delta.to_bits());
        let bits = |xs: &[f64]| xs.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&back.usage), bits(&ck.usage));
        assert_eq!(bits(&back.smoothed_rows), bits(&ck.smoothed_rows));
        assert_eq!(back.smoothed_obj.to_bits(), ck.smoothed_obj.to_bits());
        assert_eq!(back.order, ck.order);
        assert_eq!(back.run.local_pass, ck.run.local_pass);
        assert_eq!(back.run.budget, ck.run.budget);
        assert_eq!(back.run.snap_delta.to_bits(), ck.run.snap_delta.to_bits());
        assert_eq!(back.run.track_lb, ck.run.track_lb);
        assert_eq!(back.run.lb_run.to_bits(), ck.run.lb_run.to_bits());
        // Double round trip is byte-stable.
        assert_eq!(back.to_bytes(), ck.to_bytes());
    }

    #[test]
    fn none_target_round_trips() {
        let mut ck = sample();
        ck.target = None;
        ck.zstar = Arc::default();
        let back = SolverCheckpoint::from_bytes(&ck.to_bytes()).unwrap();
        assert!(back.target.is_none());
        assert!(back.zstar.is_empty());
    }

    #[test]
    fn malformed_payloads_are_typed_errors() {
        assert!(SolverCheckpoint::from_bytes(b"").is_err());
        assert!(SolverCheckpoint::from_bytes(b"not json").is_err());
        assert!(SolverCheckpoint::from_bytes(b"{}").is_err());
        assert!(SolverCheckpoint::from_bytes(&[0xFF, 0xFE]).is_err());
        // Valid JSON, wrong field type.
        let mut ck = sample().enc();
        if let Value::Obj(fields) = &mut ck {
            for (k, v) in fields.iter_mut() {
                if k == "delta" {
                    *v = Value::Num(1.0);
                }
            }
        }
        let err = SolverCheckpoint::dec(&ck).unwrap_err();
        assert!(err.to_string().contains("delta"), "{err}");
    }
}
