//! Snapshottable solver state: [`SolverCheckpoint`] captures the EPF
//! loop's complete numeric and control state at a pass boundary, so an
//! interrupted solve can resume **bitwise-identically** to an
//! uninterrupted one.
//!
//! What must be captured (and why):
//!
//! - the per-video block solutions and the incumbent `z*`,
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
//! invariant (see `crates/core/tests/penalty_props.rs`); and the
//! wall-clock — `wall_limit` budgets deliberately restart on resume
//! (only `step_limit` is part of the deterministic contract).
//!
//! Serialization is JSON through the field-list codec of
//! [`vod_json::wire`], which writes every `f64` and `u64` as its exact
//! bit pattern in hex — a decimal float round-trip would break
//! bit-identity. Decoding never panics: every malformed field is a
//! typed [`CheckpointError`] naming its path, and
//! [`SolverCheckpoint::validate_for`] cross-checks the state against
//! the instance and config before the solver will touch it.

use crate::epf::{EpfConfig, RunState};
use crate::instance::MipInstance;
use crate::solution::{BlockSolution, FractionalSolution, Placement};
use std::fmt;
use vod_json::wire::{dec_pair, dec_seq, enc_pair, enc_seq, field, Sink, Wire, WireError};
use vod_json::{wire_record, Value};
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
    pub(crate) blocks: Vec<BlockSolution>,
    pub(crate) zstar: Vec<BlockSolution>,
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

    /// Serialize to the checkpoint payload (wrap in a
    /// `vod_json::snapshot` container for on-disk durability).
    #[must_use]
    pub fn to_bytes(&self) -> Vec<u8> {
        self.text().into_bytes()
    }

    /// Deserialize a checkpoint payload. Structural problems come back
    /// as typed errors — never a panic.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, CheckpointError> {
        let text =
            std::str::from_utf8(bytes).map_err(|_| CheckpointError::new("payload is not UTF-8"))?;
        let value = Value::parse(text)
            .map_err(|e| CheckpointError::new(format!("payload is not valid JSON: {e}")))?;
        Ok(Self::dec(&value)?)
    }

    /// Public form of [`Self::validate_for`]: would this checkpoint
    /// drive a solve of `(inst, cfg)`? Supervisors use it to decide
    /// between resuming verbatim, remapping ([`crate::remap`]) and
    /// discarding, without paying for a rejected solve attempt.
    pub fn validate_against(&self, inst: &MipInstance, cfg: &EpfConfig) -> Result<(), String> {
        self.validate_for(inst, cfg)
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
        if b.x.len() != data.clients.len() {
            return Err(format!(
                "{what}[{m}] has {} client rows, instance block has {}",
                b.x.len(),
                data.clients.len()
            ));
        }
        for dist in &b.x {
            if !sorted_in_range(dist) {
                return Err(format!("{what}[{m}].x is unsorted or out of range"));
            }
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

fn vho_dec(v: &Value) -> Result<VhoId, WireError> {
    u16::dec(v).map(VhoId::new)
}

/// A sparse `(VHO, weight)` list as `[[id, bits], …]`.
fn dist_enc<S: Sink>(d: &[(VhoId, f64)], out: &mut S) {
    enc_seq(d, out, |(i, x), out| {
        enc_pair(out, |out| vho_enc(i, out), |out| x.emit(out));
    });
}

fn dist_dec(v: &Value) -> Result<Vec<(VhoId, f64)>, WireError> {
    dec_seq(v, |pair| dec_pair(pair, vho_dec, f64::dec))
}

fn dists_enc<S: Sink>(ds: &[Vec<(VhoId, f64)>], out: &mut S) {
    enc_seq(ds, out, |d, out| dist_enc(d, out));
}

fn dists_dec(v: &Value) -> Result<Vec<Vec<(VhoId, f64)>>, WireError> {
    dec_seq(v, dist_dec)
}

/// Serialize a fractional solution — the solve→round stage boundary of
/// a supervised pipeline, persisted so a crash between the two stages
/// does not force a re-solve.
#[must_use]
pub fn fractional_to_value(f: &FractionalSolution) -> Value {
    f.enc()
}

/// Decode a persisted fractional solution, shape-validated against the
/// instance it is about to be rounded for.
pub fn fractional_from_value(
    v: &Value,
    inst: &MipInstance,
) -> Result<FractionalSolution, CheckpointError> {
    let f = FractionalSolution::dec(v)?;
    validate_fractional(&f, inst)?;
    Ok(f)
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
        enc_seq(self.routing_lists(), out, |clients, out| {
            enc_seq(clients, out, |(j, dist), out| {
                enc_pair(out, |out| vho_enc(j, out), |out| dist_enc(dist, out));
            });
        });
        out.end_obj();
    }

    fn dec(v: &Value) -> Result<Self, WireError> {
        let n_vhos = field(v, "n_vhos", |n| match u16::dec(n)? {
            0 => Err(WireError::new("expected at least one VHO")),
            n => Ok(usize::from(n)),
        })?;
        let stores = field(v, "stores", |s| dec_seq(s, |h| dec_seq(h, vho_dec)))?;
        let routing = field(v, "routing", |r| {
            dec_seq(r, |clients| {
                dec_seq(clients, |entry| dec_pair(entry, vho_dec, dist_dec))
            })
        })?;
        Placement::from_parts(n_vhos, stores, routing).map_err(WireError::new)
    }
}

/// [`Placement`]'s wire form; `placement_fingerprint` hashes its text.
#[must_use]
pub fn placement_to_value(p: &Placement) -> Value {
    p.enc()
}

/// Decode a persisted placement; malformed payloads are typed errors.
pub fn placement_from_value(v: &Value) -> Result<Placement, CheckpointError> {
    Ok(Placement::dec(v)?)
}

/// Fingerprint of every config field and instance dimension that
/// shapes the solve trajectory. `threads` is deliberately excluded
/// (results are thread-count-invariant by the pool's determinism
/// contract) and so is `wall_limit` (a machine-local latency cap that
/// restarts on resume); `step_limit` IS included — resuming under a
/// different deterministic budget would diverge from the uninterrupted
/// run the identity guarantee is stated against.
pub(crate) fn config_fingerprint(cfg: &EpfConfig, inst: &MipInstance) -> u64 {
    let layout = crate::epf::layout_of(inst);
    let mut buf = Vec::with_capacity(14 * 8);
    let mut push = |x: u64| buf.extend_from_slice(&x.to_le_bytes());
    push(cfg.epsilon.to_bits());
    push(cfg.gamma.to_bits());
    push(cfg.rho.to_bits());
    push(cfg.chunk_size as u64);
    push(cfg.max_passes as u64);
    push(cfg.lb_every as u64);
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
            x: vec![ids.iter().map(|&i| (VhoId::new(i), 0.5)).collect()],
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
            blocks: vec![block(&[0, 2]), block(&[1])],
            zstar: vec![block(&[0]), block(&[3])],
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
        ck.zstar = Vec::new();
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
