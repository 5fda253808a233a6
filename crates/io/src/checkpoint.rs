//! Solver checkpoints: snapshot an in-flight Krylov solve, kill the
//! process, restore, and converge to the *same* residual.
//!
//! The invariant the format guarantees is bit-exactness of the restored
//! state: field iterates are stored at [`Precision::F64`] (lossless through
//! `peek`/`poke`), and recurrence scalars (`r2`, `b_norm2`, `rho`, the
//! residual history) are stored as raw IEEE-754 bit patterns, never through
//! a decimal round trip. A resumed Conjugate Gradient therefore produces
//! the identical iteration sequence the uninterrupted solve would have —
//! the resume-equivalence tests compare final residual *bits*.
//!
//! Three solvers checkpoint, with per-solver record sets:
//!
//! * CG ([`CgState`]): `cg.scalars` + fields `cg.x`, `cg.r`, `cg.p`.
//! * BiCGStab ([`BicgStabState`]): `bi.scalars` + fields `bi.x`, `bi.r`,
//!   `bi.r0`, `bi.p`.
//! * Mixed precision: `mx.scalars` + field `mx.x` — defect correction is
//!   self-correcting, so the double-precision iterate alone is a complete
//!   checkpoint.

use crate::container::{Container, Record};
use crate::error::{IoError, Result};
use crate::fields::{decode_field, encode_field, Cursor, FieldMeta, META_RECORD};
use grid::codec::Precision;
use grid::krylov::{After, Cg, Fused, IterSpans, Local};
use grid::prelude::{
    BicgStabState, BlockCgState, BlockSolveReport, BlockWorkspace, CgState, SolveReport,
    WilsonDirac,
};
use grid::solver::bicgstab_from_state;
use grid::{Complex, FermionBlock, FermionField, Grid};
use qcd_metrics::HealthMonitor;
use std::ops::ControlFlow;
use std::path::Path;
use std::sync::Arc;

/// Record holding the CG recurrence scalars.
pub const CG_SCALARS: &str = "cg.scalars";
/// Record holding the BiCGStab recurrence scalars.
pub const BI_SCALARS: &str = "bi.scalars";
/// Record holding the mixed-precision outer-loop counters.
pub const MX_SCALARS: &str = "mx.scalars";
/// Record holding the block-CG recurrence scalars (all right-hand sides).
pub const BLK_SCALARS: &str = "blk.scalars";

fn push_f64_bits(out: &mut Vec<u8>, x: f64) {
    out.extend_from_slice(&x.to_bits().to_le_bytes());
}

fn push_history(out: &mut Vec<u8>, history: &[f64]) {
    out.extend_from_slice(&(history.len() as u64).to_le_bytes());
    for &h in history {
        push_f64_bits(out, h);
    }
}

fn read_history(cur: &mut Cursor<'_>) -> Result<Vec<f64>> {
    let n = cur.u64("history length")? as usize;
    let mut history = Vec::with_capacity(n);
    for _ in 0..n {
        history.push(f64::from_bits(cur.u64("history entry")?));
    }
    Ok(history)
}

fn field_record(name: &str, f: &FermionField) -> Record {
    Record::new(name, encode_field(f, Precision::F64))
}

fn load_field(
    c: &Container,
    meta: &FieldMeta,
    name: &str,
    grid: &Arc<Grid<f64>>,
) -> Result<FermionField> {
    decode_field(meta, &c.expect(name)?.payload, grid, name)
}

/// Snapshot an in-flight CG solve to `path` (atomic write).
pub fn save_cg(state: &CgState, path: &Path) -> Result<u64> {
    let meta = FieldMeta::of(&state.x, Precision::F64);
    let mut scalars = Vec::new();
    scalars.extend_from_slice(&(state.iterations as u64).to_le_bytes());
    push_f64_bits(&mut scalars, state.r2);
    push_f64_bits(&mut scalars, state.b_norm2);
    push_history(&mut scalars, &state.history);
    let mut c = Container::new();
    c.push(Record::new(META_RECORD, meta.encode()));
    c.push(Record::new(CG_SCALARS, scalars));
    c.push(field_record("cg.x", &state.x));
    c.push(field_record("cg.r", &state.r));
    c.push(field_record("cg.p", &state.p));
    c.write_atomic(path)
}

/// Restore a CG snapshot written by [`save_cg`] onto `grid`.
pub fn load_cg(path: &Path, grid: &Arc<Grid<f64>>) -> Result<CgState> {
    let c = Container::open(path)?;
    let meta = FieldMeta::decode(&c.expect(META_RECORD)?.payload, META_RECORD)?;
    let scalars = &c.expect(CG_SCALARS)?.payload;
    let mut cur = Cursor::new(scalars, CG_SCALARS);
    let iterations = cur.u64("iteration count")? as usize;
    let r2 = f64::from_bits(cur.u64("r2")?);
    let b_norm2 = f64::from_bits(cur.u64("b_norm2")?);
    let history = read_history(&mut cur)?;
    cur.done()?;
    Ok(CgState {
        x: load_field(&c, &meta, "cg.x", grid)?,
        r: load_field(&c, &meta, "cg.r", grid)?,
        p: load_field(&c, &meta, "cg.p", grid)?,
        r2,
        b_norm2,
        iterations,
        history,
    })
}

/// Snapshot an in-flight BiCGStab solve to `path` (atomic write).
pub fn save_bicgstab(state: &BicgStabState, path: &Path) -> Result<u64> {
    let meta = FieldMeta::of(&state.x, Precision::F64);
    let mut scalars = Vec::new();
    scalars.extend_from_slice(&(state.iterations as u64).to_le_bytes());
    push_f64_bits(&mut scalars, state.rho.re);
    push_f64_bits(&mut scalars, state.rho.im);
    push_f64_bits(&mut scalars, state.b_norm2);
    push_history(&mut scalars, &state.history);
    let mut c = Container::new();
    c.push(Record::new(META_RECORD, meta.encode()));
    c.push(Record::new(BI_SCALARS, scalars));
    c.push(field_record("bi.x", &state.x));
    c.push(field_record("bi.r", &state.r));
    c.push(field_record("bi.r0", &state.r0));
    c.push(field_record("bi.p", &state.p));
    c.write_atomic(path)
}

/// Restore a BiCGStab snapshot written by [`save_bicgstab`] onto `grid`.
pub fn load_bicgstab(path: &Path, grid: &Arc<Grid<f64>>) -> Result<BicgStabState> {
    let c = Container::open(path)?;
    let meta = FieldMeta::decode(&c.expect(META_RECORD)?.payload, META_RECORD)?;
    let scalars = &c.expect(BI_SCALARS)?.payload;
    let mut cur = Cursor::new(scalars, BI_SCALARS);
    let iterations = cur.u64("iteration count")? as usize;
    let rho = Complex {
        re: f64::from_bits(cur.u64("rho.re")?),
        im: f64::from_bits(cur.u64("rho.im")?),
    };
    let b_norm2 = f64::from_bits(cur.u64("b_norm2")?);
    let history = read_history(&mut cur)?;
    cur.done()?;
    Ok(BicgStabState {
        x: load_field(&c, &meta, "bi.x", grid)?,
        r: load_field(&c, &meta, "bi.r", grid)?,
        r0: load_field(&c, &meta, "bi.r0", grid)?,
        p: load_field(&c, &meta, "bi.p", grid)?,
        rho,
        b_norm2,
        iterations,
        history,
    })
}

/// Checkpoint of a mixed-precision defect-correction solve: the current
/// double-precision iterate plus progress counters.
#[derive(Clone)]
pub struct MixedCheckpoint {
    /// The double-precision iterate — a complete restart point, because the
    /// outer loop recomputes the defect from scratch each round.
    pub x: FermionField,
    /// Outer correction rounds completed before the snapshot.
    pub outer_done: usize,
    /// Inner single-precision iterations spent before the snapshot.
    pub inner_done: usize,
}

/// Snapshot a mixed-precision solve to `path` (atomic write).
pub fn save_mixed(ck: &MixedCheckpoint, path: &Path) -> Result<u64> {
    let meta = FieldMeta::of(&ck.x, Precision::F64);
    let mut scalars = Vec::new();
    scalars.extend_from_slice(&(ck.outer_done as u64).to_le_bytes());
    scalars.extend_from_slice(&(ck.inner_done as u64).to_le_bytes());
    let mut c = Container::new();
    c.push(Record::new(META_RECORD, meta.encode()));
    c.push(Record::new(MX_SCALARS, scalars));
    c.push(field_record("mx.x", &ck.x));
    c.write_atomic(path)
}

/// Restore a mixed-precision snapshot written by [`save_mixed`].
pub fn load_mixed(path: &Path, grid: &Arc<Grid<f64>>) -> Result<MixedCheckpoint> {
    let c = Container::open(path)?;
    let meta = FieldMeta::decode(&c.expect(META_RECORD)?.payload, META_RECORD)?;
    let scalars = &c.expect(MX_SCALARS)?.payload;
    let mut cur = Cursor::new(scalars, MX_SCALARS);
    let outer_done = cur.u64("outer rounds")? as usize;
    let inner_done = cur.u64("inner iterations")? as usize;
    cur.done()?;
    Ok(MixedCheckpoint {
        x: load_field(&c, &meta, "mx.x", grid)?,
        outer_done,
        inner_done,
    })
}

/// Snapshot an in-flight block CG solve to `path` (atomic write). The
/// per-RHS recurrence scalars go to [`BLK_SCALARS`] as raw IEEE-754 bits;
/// the three block iterates are stored one field record per right-hand
/// side (`blk.x.<i>`, `blk.r.<i>`, `blk.p.<i>`), so the on-disk format
/// stays portable across vector lengths like every other field record.
pub fn save_block_cg(state: &BlockCgState, path: &Path) -> Result<u64> {
    let nrhs = state.nrhs();
    let meta = FieldMeta::of(&state.x.rhs_field(0), Precision::F64);
    let mut scalars = Vec::new();
    scalars.extend_from_slice(&(nrhs as u64).to_le_bytes());
    for j in 0..nrhs {
        scalars.extend_from_slice(&(state.iterations[j] as u64).to_le_bytes());
        push_f64_bits(&mut scalars, state.r2[j]);
        push_f64_bits(&mut scalars, state.b_norm2[j]);
        push_history(&mut scalars, &state.histories[j]);
    }
    let mut c = Container::new();
    c.push(Record::new(META_RECORD, meta.encode()));
    c.push(Record::new(BLK_SCALARS, scalars));
    for j in 0..nrhs {
        c.push(field_record(&format!("blk.x.{j}"), &state.x.rhs_field(j)));
        c.push(field_record(&format!("blk.r.{j}"), &state.r.rhs_field(j)));
        c.push(field_record(&format!("blk.p.{j}"), &state.p.rhs_field(j)));
    }
    c.write_atomic(path)
}

/// Restore a block CG snapshot written by [`save_block_cg`] onto `grid`.
pub fn load_block_cg(path: &Path, grid: &Arc<Grid<f64>>) -> Result<BlockCgState> {
    let c = Container::open(path)?;
    let meta = FieldMeta::decode(&c.expect(META_RECORD)?.payload, META_RECORD)?;
    let scalars = &c.expect(BLK_SCALARS)?.payload;
    let mut cur = Cursor::new(scalars, BLK_SCALARS);
    let nrhs = cur.u64("RHS count")? as usize;
    if nrhs == 0 {
        return Err(IoError::BadRecord {
            record: BLK_SCALARS.to_string(),
            msg: "a block checkpoint needs at least one right-hand side".to_string(),
        });
    }
    let mut iterations = Vec::with_capacity(nrhs);
    let mut r2 = Vec::with_capacity(nrhs);
    let mut b_norm2 = Vec::with_capacity(nrhs);
    let mut histories = Vec::with_capacity(nrhs);
    for _ in 0..nrhs {
        iterations.push(cur.u64("iteration count")? as usize);
        r2.push(f64::from_bits(cur.u64("r2")?));
        b_norm2.push(f64::from_bits(cur.u64("b_norm2")?));
        histories.push(read_history(&mut cur)?);
    }
    cur.done()?;
    let load_block = |stem: &str| -> Result<FermionBlock> {
        let fields = (0..nrhs)
            .map(|j| load_field(&c, &meta, &format!("{stem}.{j}"), grid))
            .collect::<Result<Vec<_>>>()?;
        Ok(FermionBlock::from_fields(&fields))
    };
    Ok(BlockCgState {
        x: load_block("blk.x")?,
        r: load_block("blk.r")?,
        p: load_block("blk.p")?,
        r2,
        b_norm2,
        iterations,
        histories,
    })
}

/// Step the block CG recurrence to convergence, writing an atomic snapshot
/// every `every` outer iterations. The restored run replays the identical
/// per-RHS iteration sequence the uninterrupted solve would have — the
/// active mask is *derived* from the checkpointed per-RHS scalars, so
/// convergence masking survives the round trip bit-exactly. Entry point
/// for both cold starts and resumes — pass either `BlockCgState::new(b)`
/// or a state from [`load_block_cg`].
pub fn block_cg_checkpointed_from(
    op: &WilsonDirac,
    b: &FermionBlock,
    state: BlockCgState,
    tol: f64,
    max_iter: usize,
    every: usize,
    path: &Path,
) -> Result<(FermionBlock, BlockSolveReport, usize)> {
    assert!(every > 0, "checkpoint interval must be positive");
    for (j, (&stored, recomputed)) in state.b_norm2.iter().zip(b.norms2()).enumerate() {
        if recomputed.to_bits() != stored.to_bits() {
            return Err(IoError::BadRecord {
                record: BLK_SCALARS.to_string(),
                msg: format!(
                    "right-hand side {j} does not match the checkpoint \
                     (|b|² {recomputed} vs stored {stored})"
                ),
            });
        }
    }
    let grid = b.grid().clone();
    let mut ws = BlockWorkspace::new(grid.clone(), b.nrhs());
    let mut snapshots = 0;
    let mut steps = 0usize;
    let mut failed = None;
    let save_every = After(|st: &BlockCgState, _: &[HealthMonitor]| {
        steps += 1;
        if steps.is_multiple_of(every) {
            if let Err(e) = save_block_cg(st, path) {
                failed = Some(e);
                return ControlFlow::Break(());
            }
            snapshots += 1;
        }
        ControlFlow::Continue(())
    });
    let span = qcd_trace::span!("solver.block_cg", grid.engine().ctx());
    let (x, report) = Cg::new("solver.block_cg", tol, max_iter)
        .with_hook(save_every)
        .solve(
            span,
            b,
            state,
            &mut ws,
            Fused,
            |p, ws: &mut BlockWorkspace| {
                let BlockWorkspace { tmp, ap, .. } = ws;
                op.mdag_m_block_into_dot(p, tmp, ap)
            },
        );
    match failed {
        Some(e) => Err(e),
        None => Ok((x, report, snapshots)),
    }
}

/// [`block_cg_checkpointed_from`] starting from the zero initial guess.
pub fn block_cg_checkpointed(
    op: &WilsonDirac,
    b: &FermionBlock,
    tol: f64,
    max_iter: usize,
    every: usize,
    path: &Path,
) -> Result<(FermionBlock, BlockSolveReport, usize)> {
    block_cg_checkpointed_from(op, b, BlockCgState::new(b), tol, max_iter, every, path)
}

/// Resume a block CG solve from the snapshot at `path` and run it to
/// convergence, continuing to checkpoint every `every` iterations.
pub fn resume_block_cg(
    op: &WilsonDirac,
    b: &FermionBlock,
    tol: f64,
    max_iter: usize,
    every: usize,
    path: &Path,
) -> Result<(FermionBlock, BlockSolveReport, usize)> {
    let state = load_block_cg(path, b.grid())?;
    block_cg_checkpointed_from(op, b, state, tol, max_iter, every, path)
}

/// Check that a resumed solve is continuing against the same right-hand
/// side it was checkpointed with: `|b|²` is recomputed deterministically,
/// so the bits must match exactly.
fn validate_rhs(stored_b_norm2: f64, b: &FermionField, record: &str) -> Result<()> {
    if b.norm2().to_bits() != stored_b_norm2.to_bits() {
        return Err(IoError::BadRecord {
            record: record.to_string(),
            msg: format!(
                "right-hand side does not match the checkpoint (|b|² {} vs stored {})",
                b.norm2(),
                stored_b_norm2
            ),
        });
    }
    Ok(())
}

/// Step the CG recurrence to convergence, writing an atomic snapshot every
/// `every` iterations. Returns the snapshot count alongside the usual
/// solve result. Entry point for both cold starts and resumes — pass
/// either `CgState::new(b)` or a state from [`load_cg`].
pub fn cg_checkpointed_from(
    apply: impl Fn(&FermionField) -> FermionField,
    b: &FermionField,
    state: CgState,
    tol: f64,
    max_iter: usize,
    every: usize,
    path: &Path,
) -> Result<(FermionField, SolveReport, usize)> {
    assert!(every > 0, "checkpoint interval must be positive");
    validate_rhs(state.b_norm2, b, CG_SCALARS)?;
    let grid = b.grid().clone();
    let ctx = grid.engine().ctx();
    let mut snapshots = 0;
    let mut failed = None;
    let save_every = After(|st: &CgState, _: &[HealthMonitor]| {
        if st.iterations.is_multiple_of(every) {
            if let Err(e) = save_cg(st, path) {
                failed = Some(e);
                return ControlFlow::Break(());
            }
            snapshots += 1;
        }
        ControlFlow::Continue(())
    });
    let span = qcd_trace::span!("solver.cg", ctx);
    let (x, report) = Cg::new("solver.cg", tol, max_iter)
        .with_hook(IterSpans(ctx, save_every))
        .solve(span, b, state, &mut None, Local, |p, ap: &mut Option<_>| {
            *ap = Some(apply(p))
        });
    match failed {
        Some(e) => Err(e),
        None => Ok((x, report, snapshots)),
    }
}

/// [`cg_checkpointed_from`] starting from the zero initial guess.
pub fn cg_checkpointed(
    apply: impl Fn(&FermionField) -> FermionField,
    b: &FermionField,
    tol: f64,
    max_iter: usize,
    every: usize,
    path: &Path,
) -> Result<(FermionField, SolveReport, usize)> {
    cg_checkpointed_from(&apply, b, CgState::new(b), tol, max_iter, every, path)
}

/// Resume a CG solve from the snapshot at `path` and run it to
/// convergence, continuing to checkpoint every `every` iterations.
pub fn resume_cg(
    apply: impl Fn(&FermionField) -> FermionField,
    b: &FermionField,
    tol: f64,
    max_iter: usize,
    every: usize,
    path: &Path,
) -> Result<(FermionField, SolveReport, usize)> {
    let state = load_cg(path, b.grid())?;
    cg_checkpointed_from(apply, b, state, tol, max_iter, every, path)
}

/// BiCGStab analogue of [`cg_checkpointed_from`].
pub fn bicgstab_checkpointed_from(
    op: &WilsonDirac,
    b: &FermionField,
    mut state: BicgStabState,
    tol: f64,
    max_iter: usize,
    every: usize,
    path: &Path,
) -> Result<(FermionField, SolveReport, usize)> {
    assert!(every > 0, "checkpoint interval must be positive");
    validate_rhs(state.b_norm2, b, BI_SCALARS)?;
    let mut snapshots = 0;
    while state.iterations < max_iter && !state.converged(tol) {
        state.step(|f| op.apply(f));
        if state.iterations.is_multiple_of(every) {
            save_bicgstab(&state, path)?;
            snapshots += 1;
        }
    }
    let (x, report) = bicgstab_from_state(op, b, state, tol, max_iter);
    Ok((x, report, snapshots))
}

/// Resume a BiCGStab solve from the snapshot at `path`.
pub fn resume_bicgstab(
    op: &WilsonDirac,
    b: &FermionField,
    tol: f64,
    max_iter: usize,
    every: usize,
    path: &Path,
) -> Result<(FermionField, SolveReport, usize)> {
    let state = load_bicgstab(path, b.grid())?;
    bicgstab_checkpointed_from(op, b, state, tol, max_iter, every, path)
}
