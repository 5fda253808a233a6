//! Iterative Krylov solvers.
//!
//! "A significant fraction of time-to-solution of LQCD applications is spent
//! in solving a linear set of equations, for which iterative solvers like
//! Conjugate Gradient are used" (paper, Section II-A). CG inverts the
//! hermitian positive-definite normal operator `M†M`; BiCGStab works on `M`
//! directly. Both are built purely from the vectorized field primitives
//! (`axpy`, inner products, norms), so every arithmetic instruction they
//! retire is visible to the SVE counters.
//!
//! # One recurrence, two faces
//!
//! Every CG entry point here is a thin constructor over the single
//! Hestenes–Stiefel loop of [`crate::krylov`], choosing by type how the
//! steering scalars are reduced:
//!
//! * layout-local, the fast path: the fused `|r|²` of the update sweep,
//!   with the curvature either fused into the operator ([`cg_ws`], [`cg`],
//!   the block solvers) or a separate inner product ([`cg_op`]);
//! * canonical ([`cg_canonical_ws`]): lexicographic scatters through the
//!   fixed chunk tree, bit-identical across vector lengths and thread
//!   counts;
//! * ring-allgather: the canonical sums across ranks (`crate::dist`).
//!
//! The closure entry points ([`cg_op`], [`CgState::step`]) allocate the
//! operator output each iteration — simple, and the shape the checkpoint
//! layer wraps. The workspace entry points ([`cg_ws`], [`CgState::step_ws`],
//! [`BicgStabState::step_ws`]) instead thread a preallocated
//! [`SolverWorkspace`] through every iteration: the operator writes into
//! workspace fields, the linear algebra runs through the fused sweeps of
//! [`crate::field`], and a steady-state iteration performs **zero** heap
//! allocations. The two faces are bit-identical — the fused kernels retire
//! the same engine ops per word in the same deterministic chunk-tree order
//! — so a checkpoint taken on either path resumes exactly on the other.
//! BiCGStab is a different recurrence and keeps its own loop.

use crate::dirac::WilsonDirac;
use crate::field::{FermionBlock, FermionField, FermionKind, Field};
use crate::krylov::{self, Canonical, Cg, Fused, IterSpans, Local};
use crate::layout::Grid;
use qcd_metrics::{HealthEvent, HealthMonitor};
use std::sync::Arc;
use sve::SveFloat;

/// Cap on the residual history surfaced in a [`SolveReport`]. Longer
/// histories are downsampled by [`qcd_metrics::bound_history`], keeping the
/// endpoints and every health-flagged entry. The history inside the solver
/// *state* (the checkpoint unit) is never capped, so resume stays
/// bit-identical.
pub const HISTORY_CAP: usize = 512;

/// Solver outcome.
#[derive(Clone, Debug)]
pub struct SolveReport {
    /// Iterations performed.
    pub iterations: usize,
    /// Final relative residual `|b - A x| / |b|`.
    pub residual: f64,
    /// Whether the target tolerance was reached.
    pub converged: bool,
    /// Relative true residual per iteration (preconditioned residual norm
    /// history), for convergence plots. Capped at [`HISTORY_CAP`] entries
    /// (first, last, and health-flagged iterations always survive).
    pub history: Vec<f64>,
    /// Typed health events the monitor raised while consuming the residual
    /// history (stall, divergence, NaN/Inf). Empty for a healthy solve.
    pub health: Vec<HealthEvent>,
    /// Profile of the solve: wall time, per-iteration child time, and the
    /// SVE instruction delta the solve retired (see [`qcd_trace`]).
    pub telemetry: qcd_trace::RegionSummary,
}

/// Preallocated scratch fields for the allocation-free solver paths: built
/// once per grid, reused across every iteration (and across the restarts of
/// the mixed-precision defect-correction loop).
///
/// Three fields cover every solver in the crate: CG on the normal equations
/// uses `tmp` for the `M p` intermediate and `ap` for `M†M p`; BiCGStab maps
/// `v`/`s`/`t` onto `ap`/`tmp`/`hop`; the even-odd Schur solve uses
/// `hop`/`tmp` for its nested hopping applications.
pub struct SolverWorkspace<E: SveFloat = f64> {
    /// `M p` intermediate (CG on the normal equations), `s` (BiCGStab).
    pub tmp: Field<FermionKind, E>,
    /// Operator output `A p` (CG), `v` (BiCGStab).
    pub ap: Field<FermionKind, E>,
    /// Extra scratch: `t` (BiCGStab), hopping intermediates (even-odd).
    pub hop: Field<FermionKind, E>,
}

impl<E: SveFloat> SolverWorkspace<E> {
    /// Allocate a workspace on `grid`.
    pub fn new(grid: Arc<Grid<E>>) -> Self {
        SolverWorkspace {
            tmp: Field::zero(grid.clone()),
            ap: Field::zero(grid.clone()),
            hop: Field::zero(grid),
        }
    }

    /// The lattice the workspace fields live on.
    pub fn grid(&self) -> &Arc<Grid<E>> {
        self.tmp.grid()
    }
}

/// The complete state of an in-flight Conjugate Gradient solve on one
/// fermion field — the [`krylov::Single`] recurrence state, and the unit of
/// checkpoint/restart: snapshot the fields (`x`, `r`, `p`) and scalars
/// mid-solve, kill the process, rebuild the state, and the solve continues
/// *bit-identically*. `qcd-io`'s `SolverCheckpoint` serializes exactly these
/// members.
pub type CgState<E = f64> = krylov::Single<Field<FermionKind, E>>;

impl<E: SveFloat> CgState<E> {
    /// One Hestenes–Stiefel iteration under a per-iteration telemetry span,
    /// the operator supplied as an allocating closure.
    pub fn step(&mut self, apply: impl Fn(&Field<FermionKind, E>) -> Field<FermionKind, E>) {
        let grid = self.x.grid().clone();
        let _iter_span = qcd_trace::span!("iter", grid.engine().ctx());
        let mut op = |p: &Field<FermionKind, E>, ap: &mut Option<_>| *ap = Some(apply(p));
        krylov::step(self, &mut None, &mut Local, &mut op, &[true]);
    }

    /// One Hestenes–Stiefel iteration through caller-provided storage.
    ///
    /// `apply_into` evaluates the operator at its first argument into
    /// `ws.ap` (using whatever other workspace fields it needs) and returns
    /// the curvature `Re ⟨p, A p⟩` — for the Wilson normal operator that
    /// dot comes fused out of the second hopping sweep
    /// ([`WilsonDirac::mdag_m_into_dot`]). No telemetry span is opened
    /// here: span entry allocates its path string, and this is the
    /// allocation-free path. The history push is amortized — the driving
    /// solve reserves capacity up front.
    pub fn step_ws(
        &mut self,
        ws: &mut SolverWorkspace<E>,
        apply_into: &mut impl FnMut(&Field<FermionKind, E>, &mut SolverWorkspace<E>) -> f64,
    ) {
        let mut op = |p: &Field<FermionKind, E>, ws: &mut SolverWorkspace<E>| [apply_into(p, ws)];
        krylov::step(self, ws, &mut Fused, &mut op, &[true]);
    }
}

/// Conjugate Gradient on an arbitrary hermitian positive-definite operator,
/// supplied as a closure (the shape Grid's `ConjugateGradient` template
/// takes). Standard Hestenes–Stiefel recurrence; `tol` is relative to `|b|`.
/// Every iteration runs under an `iter` span.
pub fn cg_op<E: SveFloat>(
    apply: impl Fn(&Field<FermionKind, E>) -> Field<FermionKind, E>,
    b: &Field<FermionKind, E>,
    tol: f64,
    max_iter: usize,
) -> (Field<FermionKind, E>, SolveReport) {
    let grid = b.grid().clone();
    let ctx = grid.engine().ctx();
    let span = qcd_trace::span!("solver.cg", ctx);
    Cg::new("solver.cg", tol, max_iter)
        .with_hook(IterSpans(ctx, ()))
        .solve(
            span,
            b,
            CgState::new(b),
            &mut None,
            Local,
            |p, ap: &mut Option<_>| *ap = Some(apply(p)),
        )
}

/// Conjugate Gradient on the Wilson normal equations through a reusable
/// workspace: `M†M x = b` with fused dslash+mass sweeps, the curvature dot
/// fused into the second hopping pass, and zero steady-state allocations.
pub fn cg_ws<E: SveFloat>(
    op: &WilsonDirac<E>,
    b: &Field<FermionKind, E>,
    ws: &mut SolverWorkspace<E>,
    tol: f64,
    max_iter: usize,
) -> (Field<FermionKind, E>, SolveReport) {
    let grid = b.grid().clone();
    let span = qcd_trace::span!("solver.cg", grid.engine().ctx());
    Cg::new("solver.cg", tol, max_iter).solve(
        span,
        b,
        CgState::new(b),
        ws,
        Fused,
        |p, ws: &mut SolverWorkspace<E>| {
            let SolverWorkspace { tmp, ap, .. } = ws;
            [op.mdag_m_into_dot(p, tmp, ap)]
        },
    )
}

/// Conjugate Gradient on the Wilson normal equations: solves `M†M x = b`
/// on the fused allocation-free path (the workspace is allocated once here;
/// bit-identical to the closure-based `cg_op(|p| op.mdag_m(p), ..)`).
pub fn cg<E: SveFloat>(
    op: &WilsonDirac<E>,
    b: &Field<FermionKind, E>,
    tol: f64,
    max_iter: usize,
) -> (Field<FermionKind, E>, SolveReport) {
    let mut ws = SolverWorkspace::new(b.grid().clone());
    cg_ws(op, b, &mut ws, tol, max_iter)
}

/// Conjugate Gradient on the Wilson normal equations with **canonical**
/// steering scalars ([`Canonical`]): every norm and curvature dot is a
/// lexicographic per-site scatter summed through the fixed chunk tree, so
/// the residual history, iteration count and solution are bit-identical
/// across vector lengths *and* thread counts — the invariance regime
/// `dist_cg` and the `qcd-deflate` stack already maintain. Slower per
/// iteration than [`cg_ws`], layout-invariant in exchange. `region` labels
/// the health monitor and the concluded metrics (e.g. `solver.ladder.f32`).
pub fn cg_canonical_ws<E: SveFloat>(
    op: &WilsonDirac<E>,
    b: &Field<FermionKind, E>,
    ws: &mut SolverWorkspace<E>,
    tol: f64,
    max_iter: usize,
    region: &str,
) -> (Field<FermionKind, E>, SolveReport) {
    let grid = b.grid().clone();
    let span = qcd_trace::span!("solver.cg_canonical", grid.engine().ctx());
    let mut reduce = Canonical::default();
    let state: CgState<E> = krylov::zero_start(b, &mut reduce, ws);
    Cg::new(region, tol, max_iter).solve(
        span,
        b,
        state,
        ws,
        reduce,
        |p, ws: &mut SolverWorkspace<E>| op.mdag_m_into(p, &mut ws.tmp, &mut ws.ap),
    )
}

/// Solve `M x = b` through the normal equations: CG on `M†M x = M†b`.
pub fn solve_wilson(
    op: &WilsonDirac,
    b: &FermionField,
    tol: f64,
    max_iter: usize,
) -> (FermionField, SolveReport) {
    let rhs = op.apply_dag(b);
    let (x, mut report) = cg(op, &rhs, tol, max_iter);
    // Report the residual of the original system; `M x` lands in a scratch
    // field and the subtract-and-norm runs as one fused sweep.
    let mut mx = FermionField::zero(b.grid().clone());
    op.apply_into(&x, &mut mx);
    let mut true_r = rhs; // reuse the spent right-hand side as scratch
    report.residual = (true_r.sub_norm2(b, &mx) / b.norm2()).sqrt();
    (x, report)
}

/// Outcome of a batched block-CG solve: the per-RHS counterparts of every
/// [`SolveReport`] member, plus the shared solve-level telemetry.
#[derive(Clone, Debug)]
pub struct BlockSolveReport {
    /// Iterations performed by the slowest RHS (the solve's wall-clock
    /// iteration count — the batch sweeps until the last RHS converges).
    pub iterations: usize,
    /// Iterations each RHS took before it converged (or hit the budget).
    pub per_rhs_iterations: Vec<usize>,
    /// Final relative true residual per RHS.
    pub residuals: Vec<f64>,
    /// Whether each RHS reached the target tolerance.
    pub converged: Vec<bool>,
    /// Relative residual history per RHS, entry 0 = before iteration 1.
    /// Capped at [`HISTORY_CAP`] entries per RHS like
    /// [`SolveReport::history`].
    pub histories: Vec<Vec<f64>>,
    /// Typed health events per RHS (stall, divergence, NaN/Inf).
    pub health: Vec<Vec<HealthEvent>>,
    /// Profile of the whole batched solve (see [`qcd_trace`]).
    pub telemetry: qcd_trace::RegionSummary,
}

/// Preallocated scratch blocks for the batched solver path — the
/// [`SolverWorkspace`] shape at batch width `N`.
pub struct BlockWorkspace<E: SveFloat = f64> {
    /// `M p` intermediate (CG on the normal equations).
    pub tmp: FermionBlock<E>,
    /// Operator output `A p`.
    pub ap: FermionBlock<E>,
    /// Extra scratch (hopping intermediates for the even-odd Schur solve).
    pub hop: FermionBlock<E>,
}

impl<E: SveFloat> BlockWorkspace<E> {
    /// Allocate a workspace of batch width `nrhs` on `grid`.
    pub fn new(grid: Arc<Grid<E>>, nrhs: usize) -> Self {
        BlockWorkspace {
            tmp: FermionBlock::zero(grid.clone(), nrhs),
            ap: FermionBlock::zero(grid.clone(), nrhs),
            hop: FermionBlock::zero(grid, nrhs),
        }
    }

    /// The lattice the workspace blocks live on.
    pub fn grid(&self) -> &Arc<Grid<E>> {
        self.tmp.grid()
    }

    /// The batch width.
    pub fn nrhs(&self) -> usize {
        self.tmp.nrhs()
    }
}

/// The complete state of an in-flight **block** Conjugate Gradient solve:
/// `N` independent Hestenes–Stiefel recurrences sharing every operator
/// sweep. There is no stored "active" mask — which RHS still iterate is
/// *derived* from `iterations` and `r2` exactly like the single-RHS loop
/// condition, so a state snapshot carries everything a resume needs.
///
/// Per RHS the recurrence is bit-identical to [`CgState`] driven alone:
/// converged RHS are frozen (their words are not even loaded by the masked
/// sweeps), and the shared reductions accumulate per RHS in the single-RHS
/// chunk order and tree.
#[derive(Clone)]
pub struct BlockCgState<E: SveFloat = f64> {
    /// Current solution estimates.
    pub x: FermionBlock<E>,
    /// Recurrence residuals `b_j − A x_j`.
    pub r: FermionBlock<E>,
    /// Search directions.
    pub p: FermionBlock<E>,
    /// Squared norm of each `r_j` (recurrence values, not recomputed).
    pub r2: Vec<f64>,
    /// Squared norm of each right-hand side.
    pub b_norm2: Vec<f64>,
    /// Iterations completed per RHS.
    pub iterations: Vec<usize>,
    /// Relative residual history per RHS.
    pub histories: Vec<Vec<f64>>,
}

impl<E: SveFloat> BlockCgState<E> {
    /// Fresh state for solving `A x_j = b_j` from zero initial guesses.
    pub fn new(b: &FermionBlock<E>) -> Self {
        krylov::local_start(b)
    }

    /// The batch width.
    pub fn nrhs(&self) -> usize {
        self.r2.len()
    }

    /// Whether RHS `j`'s recurrence residual is at or below `tol` relative
    /// to `|b_j|` — the per-RHS [`CgState::converged`].
    pub fn converged_rhs(&self, j: usize, tol: f64) -> bool {
        self.r2[j] <= tol * tol * self.b_norm2[j]
    }

    /// Which RHS still iterate: exactly the single-RHS loop condition
    /// `iterations < max_iter && !converged(tol)`, derived per RHS.
    pub fn active(&self, tol: f64, max_iter: usize) -> Vec<bool> {
        (0..self.nrhs())
            .map(|j| self.iterations[j] < max_iter && !self.converged_rhs(j, tol))
            .collect()
    }

    /// One batched Hestenes–Stiefel iteration over the active RHS.
    ///
    /// `apply_into` evaluates the operator at its first argument into
    /// `ws.ap` (over the whole batch — the sweep is uniform; frozen RHS
    /// carry converged data whose result is simply ignored) and returns the
    /// per-RHS curvatures `Re ⟨p_j, A p_j⟩`. Active RHS then run the exact
    /// single-RHS sequence through the masked fused sweeps; inactive RHS
    /// are untouched.
    pub fn step_ws(
        &mut self,
        ws: &mut BlockWorkspace<E>,
        apply_into: &mut impl FnMut(&FermionBlock<E>, &mut BlockWorkspace<E>) -> Vec<f64>,
        active: &[bool],
    ) {
        krylov::step(self, ws, &mut Fused, apply_into, active);
    }
}

/// Continue an allocation-free **block** Conjugate Gradient solve from an
/// arbitrary [`BlockCgState`] through a caller-provided [`BlockWorkspace`].
/// The loop sweeps all RHS together until every one has converged or
/// exhausted `max_iter`; per-RHS convergence masking freezes finished
/// recurrences without branching the shared operator sweeps.
///
/// RHS `j` of the solution, its history, and its reported residual are
/// bit-identical to an independent single-RHS [`cg_ws`] solve of `b_j`.
pub fn block_cg_ws_from_state<E: SveFloat>(
    apply_into: impl FnMut(&FermionBlock<E>, &mut BlockWorkspace<E>) -> Vec<f64>,
    b: &FermionBlock<E>,
    ws: &mut BlockWorkspace<E>,
    state: BlockCgState<E>,
    tol: f64,
    max_iter: usize,
) -> (FermionBlock<E>, BlockSolveReport) {
    let grid = b.grid().clone();
    let span = qcd_trace::span!("solver.block_cg", grid.engine().ctx());
    Cg::new("solver.block_cg", tol, max_iter).solve(span, b, state, ws, Fused, apply_into)
}

/// Block Conjugate Gradient on the Wilson normal equations through a
/// reusable workspace: `M†M x_j = b_j` for all RHS at once, each dslash
/// sweep loading every gauge link once per site for the whole batch.
pub fn block_cg_ws<E: SveFloat>(
    op: &WilsonDirac<E>,
    b: &FermionBlock<E>,
    ws: &mut BlockWorkspace<E>,
    tol: f64,
    max_iter: usize,
) -> (FermionBlock<E>, BlockSolveReport) {
    block_cg_ws_from_state(
        |p, ws| {
            let BlockWorkspace { tmp, ap, .. } = ws;
            op.mdag_m_block_into_dot(p, tmp, ap)
        },
        b,
        ws,
        BlockCgState::new(b),
        tol,
        max_iter,
    )
}

/// Block Conjugate Gradient on the Wilson normal equations (workspace
/// allocated here): solves `M†M x_j = b_j` for every RHS in `b`, with RHS
/// `j` bit-identical to a single-RHS [`cg`] solve of `b_j`.
pub fn block_cg<E: SveFloat>(
    op: &WilsonDirac<E>,
    b: &FermionBlock<E>,
    tol: f64,
    max_iter: usize,
) -> (FermionBlock<E>, BlockSolveReport) {
    let mut ws = BlockWorkspace::new(b.grid().clone(), b.nrhs());
    block_cg_ws(op, b, &mut ws, tol, max_iter)
}

/// The complete state of an in-flight BiCGStab solve — the checkpoint unit
/// for the non-hermitian solver, mirroring [`CgState`].
#[derive(Clone)]
pub struct BicgStabState {
    /// Current solution estimate.
    pub x: FermionField,
    /// Recurrence residual.
    pub r: FermionField,
    /// Shadow residual (fixed at the initial residual).
    pub r0: FermionField,
    /// Search direction.
    pub p: FermionField,
    /// Current `<r0, r>` recurrence scalar.
    pub rho: crate::complex::Complex,
    /// Squared norm of the right-hand side.
    pub b_norm2: f64,
    /// Iterations completed so far.
    pub iterations: usize,
    /// Relative residual history, entry 0 = before the first iteration.
    pub history: Vec<f64>,
}

impl BicgStabState {
    /// Fresh state for solving `M x = b` from the zero initial guess.
    pub fn new(b: &FermionField) -> Self {
        let grid = b.grid().clone();
        let b_norm2 = b.norm2();
        assert!(b_norm2 > 0.0, "BiCGStab needs a nonzero right-hand side");
        let x = FermionField::zero(grid);
        let r = b.clone();
        let r0 = r.clone(); // shadow residual
        let p = r.clone();
        let rho = r0.inner(&r);
        let history = vec![(r.norm2() / b_norm2).sqrt()];
        BicgStabState {
            x,
            r,
            r0,
            p,
            rho,
            b_norm2,
            iterations: 0,
            history,
        }
    }

    /// Whether the recurrence residual is at or below `tol` relative to
    /// `|b|`.
    pub fn converged(&self, tol: f64) -> bool {
        self.r.norm2() <= tol * tol * self.b_norm2
    }

    /// The stabilized step size `α = ρ / <r0, v>` (complex division via the
    /// conjugate), asserting against the `<r0, v> = 0` breakdown.
    fn alpha(&self, v: &FermionField) -> crate::complex::Complex {
        let d = self.r0.inner(v);
        let n2 = d.norm2();
        assert!(n2 > 0.0, "BiCGStab breakdown: <r0, v> = 0");
        self.rho * d.conj().scale(1.0 / n2)
    }

    /// The iteration tail shared by [`Self::step`] and [`Self::step_ws`]
    /// once `v = M p`, `s = r − α v` and `t = M s` are in hand: fused
    /// two-term sweeps for `x` and `r`, the fused three-op sweep for `p`.
    fn conclude(
        &mut self,
        alpha: crate::complex::Complex,
        v: &FermionField,
        s: &FermionField,
        t: &FermionField,
    ) {
        let t2 = t.norm2();
        assert!(t2 > 0.0, "BiCGStab breakdown: t = 0");
        let omega = t.inner(s).scale(1.0 / t2);
        // x += alpha p + omega s (one sweep).
        self.x.caxpy2(alpha, &self.p, omega, s);
        // r = s - omega t (one sweep).
        self.r.caxpy_from(-omega, t, s);
        let rho_new = self.r0.inner(&self.r);
        let beta = (rho_new * alpha) * {
            let d = self.rho * omega;
            let n2 = d.norm2();
            assert!(n2 > 0.0, "BiCGStab breakdown: rho*omega = 0");
            d.conj().scale(1.0 / n2)
        };
        // p = r + beta (p - omega v) (one sweep).
        self.p.bicg_p_update(beta, omega, v, &self.r);
        self.rho = rho_new;
        self.iterations += 1;
        self.history.push((self.r.norm2() / self.b_norm2).sqrt());
    }

    /// One BiCGStab iteration (two operator applications) under a
    /// per-iteration telemetry span.
    pub fn step(&mut self, apply: impl Fn(&FermionField) -> FermionField) {
        let grid = self.x.grid().clone();
        let _iter_span = qcd_trace::span!("iter", grid.engine().ctx());
        let v = apply(&self.p);
        let alpha = self.alpha(&v);
        // s = r - alpha v (caxpy_from never reads its destination, so a
        // zero field is as good as a clone of r).
        let mut s = FermionField::zero(grid.clone());
        s.caxpy_from(-alpha, &v, &self.r);
        let t = apply(&s);
        self.conclude(alpha, &v, &s, &t);
    }

    /// One BiCGStab iteration through caller-provided storage: `v`/`s`/`t`
    /// live in the workspace (`ap`/`tmp`/`hop`), `apply_into` writes
    /// `M · input` into its output argument, and a steady-state iteration
    /// allocates nothing. Bit-identical to [`Self::step`].
    pub fn step_ws(
        &mut self,
        ws: &mut SolverWorkspace,
        apply_into: &mut impl FnMut(&FermionField, &mut FermionField),
    ) {
        apply_into(&self.p, &mut ws.ap); // v = M p
        let alpha = self.alpha(&ws.ap);
        ws.tmp.caxpy_from(-alpha, &ws.ap, &self.r); // s = r - alpha v
        let SolverWorkspace { tmp, hop, .. } = ws;
        apply_into(tmp, hop); // t = M s
        self.conclude(alpha, &ws.ap, &ws.tmp, &ws.hop);
    }
}

/// BiCGStab on `M x = b` — the non-hermitian workhorse; roughly half the
/// operator applications of normal-equation CG per iteration pair.
pub fn bicgstab(
    op: &WilsonDirac,
    b: &FermionField,
    tol: f64,
    max_iter: usize,
) -> (FermionField, SolveReport) {
    bicgstab_from_state(op, b, BicgStabState::new(b), tol, max_iter)
}

/// Continue a BiCGStab solve from an arbitrary [`BicgStabState`] — freshly
/// built or restored from a checkpoint. `max_iter` counts total iterations
/// including those already inside `state`. Runs the allocation-free fused
/// path: one workspace for the whole solve, `M` applied through
/// [`WilsonDirac::apply_into`].
pub fn bicgstab_from_state(
    op: &WilsonDirac,
    b: &FermionField,
    mut state: BicgStabState,
    tol: f64,
    max_iter: usize,
) -> (FermionField, SolveReport) {
    let grid = b.grid().clone();
    let span = qcd_trace::span!("solver.bicgstab", grid.engine().ctx());
    let mut ws = SolverWorkspace::new(grid.clone());
    state
        .history
        .reserve((max_iter + 1).saturating_sub(state.history.len()));
    let mut apply_into = |f: &FermionField, out: &mut FermionField| op.apply_into(f, out);
    let mut monitor = HealthMonitor::new("solver.bicgstab");
    monitor.replay(&state.history);

    while state.iterations < max_iter && !state.converged(tol) {
        state.step_ws(&mut ws, &mut apply_into);
        monitor.observe(*state.history.last().unwrap());
    }

    op.apply_into(&state.x, &mut ws.ap);
    let residual = (ws.tmp.sub_norm2(b, &ws.ap) / state.b_norm2).sqrt();
    let (history, health) = qcd_metrics::conclude_solver_health(
        "solver.bicgstab",
        monitor,
        &state.history,
        state.iterations,
        HISTORY_CAP,
    );
    (
        state.x,
        SolveReport {
            iterations: state.iterations,
            residual,
            converged: residual <= tol * 10.0,
            history,
            health,
            telemetry: span.finish(),
        },
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layout::Grid;
    use crate::simd::SimdBackend;
    use crate::tensor::su3::random_gauge;
    use sve::VectorLength;

    fn setup(bits: usize, backend: SimdBackend) -> (WilsonDirac, FermionField) {
        let g = Grid::new([4, 4, 4, 4], VectorLength::of(bits), backend);
        let u = random_gauge(g.clone(), 21);
        let b = FermionField::random(g.clone(), 22);
        (WilsonDirac::new(u, 0.2), b)
    }

    #[test]
    fn cg_converges_on_the_normal_operator() {
        let (op, b) = setup(512, SimdBackend::Fcmla);
        let (x, report) = cg(&op, &b, 1e-8, 2000);
        assert!(report.converged, "CG failed: {report:?}");
        assert!(report.residual < 1e-7, "true residual {}", report.residual);
        // Verify by direct application.
        let ax = op.mdag_m(&x);
        let mut diff = FermionField::zero(b.grid().clone());
        diff.sub(&ax, &b);
        assert!(diff.norm2() / b.norm2() < 1e-13);
    }

    #[test]
    fn residual_history_is_monotone_enough() {
        let (op, b) = setup(256, SimdBackend::Fcmla);
        let (_, report) = cg(&op, &b, 1e-8, 2000);
        // CG residuals may wobble, but first and last tell the story.
        assert!(report.history.first().unwrap() > report.history.last().unwrap());
        assert_eq!(report.history.len(), report.iterations + 1);
    }

    #[test]
    fn solve_wilson_inverts_m() {
        let (op, b) = setup(512, SimdBackend::Fcmla);
        let (x, report) = solve_wilson(&op, &b, 1e-8, 2000);
        assert!(report.residual < 1e-6, "residual {}", report.residual);
        let mx = op.apply(&x);
        let mut diff = FermionField::zero(b.grid().clone());
        diff.sub(&mx, &b);
        assert!((diff.norm2() / b.norm2()).sqrt() < 1e-6);
    }

    #[test]
    fn bicgstab_inverts_m_directly() {
        let (op, b) = setup(256, SimdBackend::Fcmla);
        let (x, report) = bicgstab(&op, &b, 1e-8, 2000);
        assert!(report.residual < 1e-6, "residual {}", report.residual);
        let mx = op.apply(&x);
        let mut diff = FermionField::zero(b.grid().clone());
        diff.sub(&mx, &b);
        assert!((diff.norm2() / b.norm2()).sqrt() < 1e-6);
    }

    #[test]
    fn backends_converge_to_the_same_solution() {
        let mut solutions = Vec::new();
        for backend in SimdBackend::all() {
            let (op, b) = setup(512, backend);
            let (x, report) = cg(&op, &b, 1e-10, 2000);
            assert!(report.converged, "{backend:?}");
            solutions.push(x);
        }
        let norm = solutions[0].norm2().sqrt();
        for other in &solutions[1..] {
            // Fields live on per-backend grids: compare raw storage (layout
            // is identical — same dims, same vector length).
            let d = solutions[0]
                .data()
                .iter()
                .zip(other.data())
                .map(|(a, b)| (a - b).abs())
                .fold(0.0, f64::max);
            assert!(d < 1e-7 * norm.max(1.0), "solutions differ by {d}");
        }
    }

    #[test]
    fn convergence_is_vl_independent() {
        // Same physics at every vector length: iteration counts match and
        // solutions agree site by site (the V-D verification idea applied
        // to a full solve).
        let mut reports = Vec::new();
        let mut sols = Vec::new();
        for bits in [128usize, 1024] {
            let (op, b) = setup(bits, SimdBackend::Fcmla);
            let (x, report) = cg(&op, &b, 1e-8, 2000);
            reports.push(report);
            sols.push(x);
        }
        assert_eq!(reports[0].iterations, reports[1].iterations);
        let g0 = sols[0].grid().clone();
        for x in g0.coords().step_by(5) {
            for comp in 0..12 {
                let a = sols[0].peek(&x, comp);
                let b = sols[1].peek(&x, comp);
                assert!((a - b).abs() < 1e-8, "{x:?} {comp}");
            }
        }
    }

    #[test]
    fn fused_cg_is_bit_identical_to_the_closure_path() {
        // The tentpole contract: the allocation-free workspace solve and
        // the allocating closure solve retire the same engine ops per word
        // in the same order — solutions, histories, and the reported
        // residual must agree bit for bit.
        let (op, b) = setup(512, SimdBackend::Fcmla);
        let (x_ws, ws_report) = cg(&op, &b, 1e-8, 2000);
        let (x_cl, cl_report) = cg_op(|p| op.mdag_m(p), &b, 1e-8, 2000);
        assert_eq!(ws_report.iterations, cl_report.iterations);
        assert_eq!(ws_report.residual.to_bits(), cl_report.residual.to_bits());
        for (a, c) in ws_report.history.iter().zip(&cl_report.history) {
            assert_eq!(a.to_bits(), c.to_bits(), "history diverged");
        }
        for (a, c) in x_ws.data().iter().zip(x_cl.data()) {
            assert_eq!(a.to_bits(), c.to_bits(), "solution bits diverged");
        }
    }

    #[test]
    fn workspace_is_reusable_across_solves() {
        // A second solve through the same workspace must match a solve
        // through a fresh one bitwise (no state leaks between solves).
        let (op, b) = setup(256, SimdBackend::Fcmla);
        let b2 = FermionField::random(b.grid().clone(), 23);
        let mut ws = SolverWorkspace::new(b.grid().clone());
        let _ = cg_ws(&op, &b, &mut ws, 1e-8, 2000);
        let (x_reused, rep_reused) = cg_ws(&op, &b2, &mut ws, 1e-8, 2000);
        let mut fresh = SolverWorkspace::new(b.grid().clone());
        let (x_fresh, rep_fresh) = cg_ws(&op, &b2, &mut fresh, 1e-8, 2000);
        assert_eq!(rep_reused.iterations, rep_fresh.iterations);
        for (a, c) in x_reused.data().iter().zip(x_fresh.data()) {
            assert_eq!(a.to_bits(), c.to_bits());
        }
    }

    #[test]
    fn cg_resumed_from_mid_solve_state_is_bit_identical() {
        // The checkpoint/restart contract: interrupt CG at iteration k,
        // snapshot the state, continue from the snapshot — iteration count,
        // history, and the solution *bits* must match an uninterrupted run.
        let (op, b) = setup(256, SimdBackend::Fcmla);
        let apply = |p: &FermionField| op.mdag_m(p);
        let (x_full, full) = cg(&op, &b, 1e-8, 2000);

        let mut st = CgState::new(&b);
        for _ in 0..10 {
            st.step(apply);
        }
        let snapshot = st.clone(); // what qcd-io serializes
        drop(st); // the "killed" solve
        let grid = b.grid().clone();
        let ctx = grid.engine().ctx();
        let span = qcd_trace::span!("solver.cg", ctx);
        let (x_res, res) = Cg::new("solver.cg", 1e-8, 2000)
            .with_hook(IterSpans(ctx, ()))
            .solve(
                span,
                &b,
                snapshot,
                &mut None,
                Local,
                |p, ap: &mut Option<_>| *ap = Some(apply(p)),
            );

        assert_eq!(res.iterations, full.iterations);
        assert_eq!(res.history.len(), full.history.len());
        for (a, c) in full.history.iter().zip(&res.history) {
            assert_eq!(a.to_bits(), c.to_bits(), "history diverged");
        }
        for (a, c) in x_full.data().iter().zip(x_res.data()) {
            assert_eq!(a.to_bits(), c.to_bits(), "solution bits diverged");
        }
        assert_eq!(res.residual.to_bits(), full.residual.to_bits());
        // Health is replayed through the restored history, so the resumed
        // report carries the same typed events as the uninterrupted one.
        assert_eq!(res.health, full.health);
    }

    #[test]
    fn bicgstab_resumed_from_mid_solve_state_is_bit_identical() {
        let (op, b) = setup(256, SimdBackend::Fcmla);
        let (x_full, full) = bicgstab(&op, &b, 1e-8, 2000);

        let mut st = BicgStabState::new(&b);
        for _ in 0..7 {
            st.step(|f| op.apply(f));
        }
        let snapshot = st.clone();
        drop(st);
        let (x_res, res) = bicgstab_from_state(&op, &b, snapshot, 1e-8, 2000);

        assert_eq!(res.iterations, full.iterations);
        for (a, c) in x_full.data().iter().zip(x_res.data()) {
            assert_eq!(a.to_bits(), c.to_bits(), "solution bits diverged");
        }
    }

    #[test]
    #[should_panic(expected = "nonzero right-hand side")]
    fn cg_rejects_zero_rhs() {
        let (op, b) = setup(128, SimdBackend::Fcmla);
        let zero = FermionField::zero(b.grid().clone());
        let _ = cg(&op, &zero, 1e-8, 10);
    }

    #[test]
    fn block_cg_is_bit_identical_to_independent_solves() {
        // The batched solver's contract: RHS j of the block solve — solution
        // bits, iteration count, history, and reported residual — matches an
        // independent single-RHS cg() of that RHS exactly. Different seeds
        // give different convergence points, so the masking path (frozen
        // early converges while others iterate) is exercised for real.
        let (op, b0) = setup(512, SimdBackend::Fcmla);
        let g = b0.grid().clone();
        let rhss = vec![
            b0,
            FermionField::random(g.clone(), 31),
            FermionField::random(g.clone(), 32),
        ];
        let block = FermionBlock::from_fields(&rhss);
        let (bx, brep) = block_cg(&op, &block, 1e-8, 2000);
        let mut iteration_counts = Vec::new();
        for (j, rhs) in rhss.iter().enumerate() {
            let (x, rep) = cg(&op, rhs, 1e-8, 2000);
            assert!(rep.converged, "rhs {j} failed");
            assert_eq!(brep.per_rhs_iterations[j], rep.iterations, "rhs {j}");
            assert!(brep.converged[j], "rhs {j}");
            assert_eq!(
                brep.residuals[j].to_bits(),
                rep.residual.to_bits(),
                "rhs {j} residual"
            );
            assert_eq!(brep.histories[j].len(), rep.history.len(), "rhs {j}");
            for (a, c) in brep.histories[j].iter().zip(&rep.history) {
                assert_eq!(a.to_bits(), c.to_bits(), "rhs {j} history diverged");
            }
            let xb = bx.rhs_field(j);
            assert_eq!(xb.max_abs_diff(&x), 0.0, "rhs {j} solution diverged");
            iteration_counts.push(rep.iterations);
        }
        assert_eq!(
            brep.iterations,
            *iteration_counts.iter().max().unwrap(),
            "block iteration count must be the slowest RHS"
        );
    }

    #[test]
    fn block_cg_with_one_rhs_matches_cg_bitwise() {
        let (op, b) = setup(256, SimdBackend::Fcmla);
        let block = FermionBlock::from_fields(std::slice::from_ref(&b));
        let (bx, brep) = block_cg(&op, &block, 1e-8, 2000);
        let (x, rep) = cg(&op, &b, 1e-8, 2000);
        assert_eq!(brep.per_rhs_iterations[0], rep.iterations);
        assert_eq!(brep.residuals[0].to_bits(), rep.residual.to_bits());
        assert_eq!(bx.rhs_field(0).max_abs_diff(&x), 0.0);
    }

    #[test]
    #[should_panic(expected = "nonzero right-hand side (RHS 1)")]
    fn block_cg_rejects_zero_rhs_by_index() {
        let (op, b) = setup(128, SimdBackend::Fcmla);
        let zero = FermionField::zero(b.grid().clone());
        let block = FermionBlock::from_fields(&[b, zero]);
        let _ = block_cg(&op, &block, 1e-8, 10);
    }

    #[test]
    fn block_cg_state_snapshot_resumes_bit_identically() {
        // The checkpoint contract extends to the batch: snapshot the block
        // state mid-solve, continue from the clone — everything matches the
        // uninterrupted run bitwise.
        let (op, b0) = setup(256, SimdBackend::Fcmla);
        let g = b0.grid().clone();
        let rhss = vec![b0, FermionField::random(g.clone(), 33)];
        let block = FermionBlock::from_fields(&rhss);
        let (x_full, full) = block_cg(&op, &block, 1e-8, 2000);

        let mut ws = BlockWorkspace::new(g.clone(), 2);
        let mut apply = |p: &FermionBlock, ws: &mut BlockWorkspace| {
            let BlockWorkspace { tmp, ap, .. } = ws;
            op.mdag_m_block_into_dot(p, tmp, ap)
        };
        let mut st = BlockCgState::new(&block);
        for _ in 0..10 {
            let active = st.active(1e-8, 2000);
            st.step_ws(&mut ws, &mut apply, &active);
        }
        let snapshot = st.clone();
        drop(st);
        let (x_res, res) = block_cg_ws_from_state(apply, &block, &mut ws, snapshot, 1e-8, 2000);
        assert_eq!(res.per_rhs_iterations, full.per_rhs_iterations);
        assert_eq!(x_res.max_abs_diff(&x_full), 0.0);
        for j in 0..2 {
            assert_eq!(res.residuals[j].to_bits(), full.residuals[j].to_bits());
        }
        assert_eq!(res.health, full.health);
    }

    #[test]
    fn a_stalled_f32_solve_reports_stall_events_and_caps_history() {
        use qcd_metrics::HealthEventKind;
        // Ask the f32 path for a tolerance single precision cannot reach:
        // the recurrence residual floors near the f32 underflow region
        // (~1e-24 relative) and the monitor must flag the stall. The long
        // run also exercises the report-time history cap.
        let _guard = qcd_metrics::global_test_lock();
        qcd_metrics::flight_reset();
        let g = Grid::<f32>::new([4, 4, 4, 4], VectorLength::of(512), SimdBackend::Fcmla);
        let u = random_gauge(g.clone(), 21);
        let op = WilsonDirac::<f32>::new(u, 0.2);
        let b = Field::<FermionKind, f32>::random(g.clone(), 22);
        let mut ws = SolverWorkspace::<f32>::new(g.clone());
        let (_, report) = cg_ws(&op, &b, &mut ws, 1e-30, 700);

        assert!(!report.converged, "f32 cannot reach 1e-30");
        assert_eq!(report.iterations, 700, "must burn the whole budget");
        assert!(
            report
                .health
                .iter()
                .any(|e| e.kind == HealthEventKind::Stall),
            "no stall event in {:?}",
            report.health
        );
        assert!(
            report.history.len() <= HISTORY_CAP,
            "history not capped: {} entries",
            report.history.len()
        );
        // Endpoints survive the cap.
        assert_eq!(report.history[0].to_bits(), 1.0f64.to_bits());
        // Every health event also landed in the flight recorder, typed.
        let flight = qcd_metrics::flight_snapshot();
        let stalls: Vec<_> = flight
            .iter()
            .filter(|ev| ev.kind == "health" && ev.label == "solver.cg:stall")
            .collect();
        assert!(!stalls.is_empty(), "stall missing from flight ring");
        let dump = qcd_metrics::flight_dump_jsonl();
        assert!(dump.contains("\"label\":\"solver.cg:stall\""));
        qcd_metrics::validate_jsonl(&dump).expect("flight dump must validate");
    }

    #[test]
    fn a_healthy_solve_reports_no_events_and_full_history() {
        let (op, b) = setup(256, SimdBackend::Fcmla);
        let (_, report) = cg(&op, &b, 1e-8, 2000);
        assert!(report.health.is_empty(), "events: {:?}", report.health);
        // Short histories pass through the cap untouched.
        assert_eq!(report.history.len(), report.iterations + 1);
    }
}
