//! The one Conjugate Gradient recurrence.
//!
//! Every CG in the workspace is this Hestenes–Stiefel loop, monomorphised
//! over choices each call site makes by type:
//!
//! * the **space** ([`Space`]): a fermion field, a [`FermionBlock`] of `N`
//!   right-hand sides (per-RHS masking freezes converged recurrences), or
//!   a 5-D domain-wall field;
//! * the **reduction policy** ([`Reduction`]) behind the steering scalars
//!   `p·Ap` and `|r|²` — layout-local ([`Fused`]: curvature fused into the
//!   operator's last sweep, [`Local`]: a separate inner product; both take
//!   `|r|²` from the fused update sweep), canonical ([`Canonical`]:
//!   lexicographic scatters through the fixed chunk tree, bit-identical
//!   across vector lengths and thread counts; the binary16 tier has an
//!   f32-accumulating variant in [`crate::mixed`]), or ring-allgather (the
//!   canonical sums over the global volume, `DistWilson::canon_*` in
//!   [`crate::dist`]);
//! * an optional **preconditioner** `z = M⁻¹ r` ([`Cg::preconditioned`]);
//! * one per-iteration **hook** ([`Hook`]) that may stop the solve — the
//!   f16 tier's health abort and the every-k checkpoint saves.
//!
//! The operator is a closure writing `A p` into the workspace
//! ([`Workspace`]) and returning what the policy consumes (the fused
//! curvature for [`Fused`], nothing otherwise). [`Cg::solve`] wires the
//! rest once: history reserve, health-monitor replay and observation, the
//! true-residual check and [`qcd_metrics::conclude_solver_health`]. Each
//! path retires exactly the op sequence of the loop it replaced, so
//! histories, solutions and SVE instruction totals are unchanged.

use std::ops::ControlFlow;

use crate::dwf::Fermion5;
use crate::field::{block_cg_update_x_r, cg_update_x_r, FermionBlock, FermionKind, Field};
use crate::solver::{
    BlockCgState, BlockSolveReport, BlockWorkspace, SolveReport, SolverWorkspace, HISTORY_CAP,
};
use qcd_metrics::{HealthEvent, HealthMonitor};
use qcd_trace::{RegionSummary, SpanGuard};
use sve::{SveCtx, SveFloat};

/// A vector space the recurrence runs in. `a`, `on`: per-RHS coefficients
/// and activity flags; inactive RHS are left untouched.
pub trait Space: Clone {
    /// One `f64` per right-hand side.
    type Scalars: AsRef<[f64]> + AsMut<[f64]> + Clone;
    /// One flag per right-hand side.
    type Mask: AsRef<[bool]> + AsMut<[bool]>;
    /// Zeroed per-RHS scalars.
    fn scalars(&self) -> Self::Scalars;
    /// An all-`false` per-RHS mask.
    fn mask(&self) -> Self::Mask;
    /// A zero vector of the same shape.
    fn zero_like(&self) -> Self;
    /// `x += a p`, `r −= a Ap` in one sweep returning the layout-local
    /// `|r|²`. With `fused == false` a space that has them runs two plain
    /// axpys instead (the preconditioned recurrence takes no `|r|²` from
    /// the sweep) and the returned scalars are meaningless.
    fn update(
        x: &mut Self,
        r: &mut Self,
        p: &Self,
        ap: &Self,
        a: &[f64],
        on: &[bool],
        fused: bool,
    ) -> Self::Scalars;
    /// `p = z + a p`.
    fn aypx(p: &mut Self, a: &[f64], z: &Self, on: &[bool]);
    /// `self = b − y`.
    fn residual(&mut self, b: &Self, y: &Self);
    /// `self = b − y` returning the layout-local `|self|²` (one sweep where
    /// the space has a fused kernel).
    fn residual_norm2(&mut self, b: &Self, y: &Self) -> Self::Scalars {
        self.residual(b, y);
        self.local_norm2()
    }
    /// Layout-local `|self|²`.
    fn local_norm2(&self) -> Self::Scalars;
    /// Layout-local `Re ⟨self, other⟩`.
    fn local_inner_re(&self, other: &Self) -> Self::Scalars;
}

impl<E: SveFloat> Space for Field<FermionKind, E> {
    type Scalars = [f64; 1];
    type Mask = [bool; 1];
    fn scalars(&self) -> [f64; 1] {
        [0.0]
    }
    fn mask(&self) -> [bool; 1] {
        [false]
    }
    fn zero_like(&self) -> Self {
        Field::zero(self.grid().clone())
    }
    fn update(
        x: &mut Self,
        r: &mut Self,
        p: &Self,
        ap: &Self,
        a: &[f64],
        _: &[bool],
        fused: bool,
    ) -> [f64; 1] {
        if fused {
            return [cg_update_x_r(x, r, a[0], p, ap)];
        }
        x.axpy_inplace(a[0], p);
        r.axpy_inplace(-a[0], ap);
        [0.0]
    }
    fn aypx(p: &mut Self, a: &[f64], z: &Self, _: &[bool]) {
        p.aypx(a[0], z);
    }
    fn residual(&mut self, b: &Self, y: &Self) {
        self.sub(b, y);
    }
    fn residual_norm2(&mut self, b: &Self, y: &Self) -> [f64; 1] {
        [self.sub_norm2(b, y)]
    }
    fn local_norm2(&self) -> [f64; 1] {
        [self.norm2()]
    }
    fn local_inner_re(&self, other: &Self) -> [f64; 1] {
        [self.inner(other).re]
    }
}

/// The batch: masked block sweeps, always fused.
impl<E: SveFloat> Space for FermionBlock<E> {
    type Scalars = Vec<f64>;
    type Mask = Vec<bool>;
    fn scalars(&self) -> Vec<f64> {
        vec![0.0; self.nrhs()]
    }
    fn mask(&self) -> Vec<bool> {
        vec![false; self.nrhs()]
    }
    fn zero_like(&self) -> Self {
        FermionBlock::zero(self.grid().clone(), self.nrhs())
    }
    fn update(
        x: &mut Self,
        r: &mut Self,
        p: &Self,
        ap: &Self,
        a: &[f64],
        on: &[bool],
        _: bool,
    ) -> Vec<f64> {
        block_cg_update_x_r(x, r, a, p, ap, on)
    }
    fn aypx(p: &mut Self, a: &[f64], z: &Self, on: &[bool]) {
        p.aypx_masked(a, z, on);
    }
    /// `b + (−1)·y`: per RHS bit-identical to the single-field `sub`.
    fn residual(&mut self, b: &Self, y: &Self) {
        self.scale_axpy_from(-1.0, y, 1.0, b);
    }
    fn residual_norm2(&mut self, b: &Self, y: &Self) -> Vec<f64> {
        self.sub_norms2(b, y)
    }
    fn local_norm2(&self) -> Vec<f64> {
        self.norms2()
    }
    fn local_inner_re(&self, other: &Self) -> Vec<f64> {
        self.inners(other).iter().map(|z| z.re).collect()
    }
}

/// The 5-D field, one RHS: slice-wise sweeps, partial reductions summed in
/// slice order, always fused.
impl Space for Fermion5 {
    type Scalars = [f64; 1];
    type Mask = [bool; 1];
    fn scalars(&self) -> [f64; 1] {
        [0.0]
    }
    fn mask(&self) -> [bool; 1] {
        [false]
    }
    fn zero_like(&self) -> Self {
        Fermion5::zero(self.slices[0].grid().clone(), self.ls())
    }
    fn update(
        x: &mut Self,
        r: &mut Self,
        p: &Self,
        ap: &Self,
        a: &[f64],
        _: &[bool],
        _: bool,
    ) -> [f64; 1] {
        let xr = x.slices.iter_mut().zip(r.slices.iter_mut());
        let pap = p.slices.iter().zip(&ap.slices);
        [xr.zip(pap)
            .map(|((x, r), (p, ap))| cg_update_x_r(x, r, a[0], p, ap))
            .sum()]
    }
    fn aypx(p: &mut Self, a: &[f64], z: &Self, _: &[bool]) {
        p.aypx(a[0], z);
    }
    fn residual(&mut self, b: &Self, y: &Self) {
        self.sub(b, y);
    }
    fn local_norm2(&self) -> [f64; 1] {
        [self.norm2()]
    }
    fn local_inner_re(&self, other: &Self) -> [f64; 1] {
        [self.inner(other).re]
    }
}

/// Where the operator leaves `A p`.
pub trait Workspace<V> {
    /// The operator output of the latest application.
    fn ap(&self) -> &V;
}

impl<E: SveFloat> Workspace<Field<FermionKind, E>> for SolverWorkspace<E> {
    fn ap(&self) -> &Field<FermionKind, E> {
        &self.ap
    }
}

impl<E: SveFloat> Workspace<FermionBlock<E>> for BlockWorkspace<E> {
    fn ap(&self) -> &FermionBlock<E> {
        &self.ap
    }
}

/// The allocating closure path: each application's fresh output is parked
/// here until the next one.
impl<V> Workspace<V> for Option<V> {
    fn ap(&self) -> &V {
        self.as_ref()
            .expect("the operator has not been applied yet")
    }
}

/// How the recurrence reduces vectors to its steering scalars.
pub trait Reduction<V: Space, W: Workspace<V>> {
    /// What the operator closure returns besides writing `A p`.
    type Out;
    /// Whether `|r|²` is the fused update sweep's layout-local value (else
    /// the sweep's value is discarded and [`Self::norm2`] recomputes it).
    const FUSED_NORM: bool = false;
    /// Whether the true-residual check is the fused subtract-and-norm
    /// sweep (else `b − A x` is formed and reduced by [`Self::norm2`]).
    const FUSED_RESIDUAL: bool = false;
    /// Per-RHS curvature `Re ⟨p, A p⟩`, `A p` being `ws.ap()`.
    fn curvature(&mut self, out: Self::Out, p: &V, ws: &mut W) -> V::Scalars;
    /// Per-RHS `|v|²`.
    fn norm2(&mut self, v: &V, ws: &mut W) -> V::Scalars;
    /// Per-RHS `Re ⟨a, b⟩`.
    fn inner_re(&mut self, a: &V, b: &V, ws: &mut W) -> V::Scalars;
}

/// Layout-local reductions, the curvature fused into the operator's last
/// sweep (e.g. [`crate::dirac::WilsonDirac::mdag_m_into_dot`]), fused
/// true-residual check: the allocation-free workspace path.
pub struct Fused;

impl<V: Space, W: Workspace<V>> Reduction<V, W> for Fused {
    type Out = V::Scalars;
    const FUSED_NORM: bool = true;
    const FUSED_RESIDUAL: bool = true;
    fn curvature(&mut self, out: V::Scalars, _: &V, _: &mut W) -> V::Scalars {
        out
    }
    fn norm2(&mut self, v: &V, _: &mut W) -> V::Scalars {
        v.local_norm2()
    }
    fn inner_re(&mut self, a: &V, b: &V, _: &mut W) -> V::Scalars {
        a.local_inner_re(b)
    }
}

/// Layout-local reductions, the curvature a separate inner product after
/// the operator: the closure path and the domain-wall solve.
pub struct Local;

impl<V: Space, W: Workspace<V>> Reduction<V, W> for Local {
    type Out = ();
    const FUSED_NORM: bool = true;
    fn curvature(&mut self, _: (), p: &V, ws: &mut W) -> V::Scalars {
        p.local_inner_re(ws.ap())
    }
    fn norm2(&mut self, v: &V, _: &mut W) -> V::Scalars {
        v.local_norm2()
    }
    fn inner_re(&mut self, a: &V, b: &V, _: &mut W) -> V::Scalars {
        a.local_inner_re(b)
    }
}

/// Canonical reductions: every scalar is a lexicographic per-site scatter
/// summed through the fixed chunk tree, so the trajectory is bit-identical
/// across vector lengths and thread counts. The batch reuses one scatter
/// buffer; per RHS its sums are bit-identical to the extracted fields'.
#[derive(Default)]
pub struct Canonical {
    buf: Vec<f64>,
}

impl<E: SveFloat, W: Workspace<Field<FermionKind, E>>> Reduction<Field<FermionKind, E>, W>
    for Canonical
{
    type Out = ();
    fn curvature(&mut self, _: (), p: &Field<FermionKind, E>, ws: &mut W) -> [f64; 1] {
        [p.canonical_inner_re(ws.ap())]
    }
    fn norm2(&mut self, v: &Field<FermionKind, E>, _: &mut W) -> [f64; 1] {
        [v.canonical_norm2()]
    }
    fn inner_re(
        &mut self,
        a: &Field<FermionKind, E>,
        b: &Field<FermionKind, E>,
        _: &mut W,
    ) -> [f64; 1] {
        [a.canonical_inner_re(b)]
    }
}

impl<E: SveFloat, W: Workspace<FermionBlock<E>>> Reduction<FermionBlock<E>, W> for Canonical {
    type Out = ();
    fn curvature(&mut self, _: (), p: &FermionBlock<E>, ws: &mut W) -> Vec<f64> {
        p.canonical_inners_re(ws.ap(), &mut self.buf)
    }
    fn norm2(&mut self, v: &FermionBlock<E>, _: &mut W) -> Vec<f64> {
        v.canonical_norms2(&mut self.buf)
    }
    fn inner_re(&mut self, a: &FermionBlock<E>, b: &FermionBlock<E>, _: &mut W) -> Vec<f64> {
        a.canonical_inners_re(b, &mut self.buf)
    }
}

/// A preconditioner `z = M⁻¹ r`: any `FnMut(&V) -> V`, or none.
pub trait Preconditioner<V> {
    /// Whether the recurrence is preconditioned at all.
    const PRESENT: bool = true;
    /// `M⁻¹ r`.
    fn apply(&mut self, r: &V) -> V;
}

/// Plain (unpreconditioned) CG.
pub struct Unpreconditioned;

impl<V> Preconditioner<V> for Unpreconditioned {
    const PRESENT: bool = false;
    fn apply(&mut self, _: &V) -> V {
        unreachable!("an unpreconditioned recurrence never applies M⁻¹")
    }
}

impl<V, F: FnMut(&V) -> V> Preconditioner<V> for F {
    fn apply(&mut self, r: &V) -> V {
        self(r)
    }
}

/// The per-iteration hook of a solve; `()` does nothing.
pub trait Hook<S> {
    /// A span held open around each iteration.
    fn iteration_span(&self) -> Option<SpanGuard<'_>> {
        None
    }
    /// Runs after each iteration (history pushed, monitors updated);
    /// [`ControlFlow::Break`] stops the solve.
    fn after_iteration(&mut self, _state: &S, _monitors: &[HealthMonitor]) -> ControlFlow<()> {
        ControlFlow::Continue(())
    }
}

impl<S> Hook<S> for () {}

/// A closure run after every iteration.
pub struct After<F>(pub F);

impl<S, F: FnMut(&S, &[HealthMonitor]) -> ControlFlow<()>> Hook<S> for After<F> {
    fn after_iteration(&mut self, state: &S, monitors: &[HealthMonitor]) -> ControlFlow<()> {
        (self.0)(state, monitors)
    }
}

/// An `iter` span on the context around every iteration (the closure
/// path's per-iteration telemetry), then the inner hook.
pub struct IterSpans<'c, H = ()>(pub &'c SveCtx, pub H);

impl<S, H: Hook<S>> Hook<S> for IterSpans<'_, H> {
    fn iteration_span(&self) -> Option<SpanGuard<'_>> {
        Some(qcd_trace::span!("iter", self.0))
    }
    fn after_iteration(&mut self, state: &S, monitors: &[HealthMonitor]) -> ControlFlow<()> {
        self.1.after_iteration(state, monitors)
    }
}

/// Mutable views of a recurrence state's members, per RHS.
pub struct Parts<'s, V> {
    /// Solution estimate(s).
    pub x: &'s mut V,
    /// Recurrence residual(s) `b − A x`.
    pub r: &'s mut V,
    /// Search direction(s).
    pub p: &'s mut V,
    /// Recurrence `|r|²`.
    pub r2: &'s mut [f64],
    /// `|b|²`.
    pub b_norm2: &'s [f64],
    /// Iterations completed.
    pub iterations: &'s mut [usize],
    /// Relative-residual histories (uncapped: the checkpoint unit).
    pub histories: &'s mut [Vec<f64>],
}

impl<V> Parts<'_, V> {
    /// Whether RHS `j` is at or below `tol` relative to `|b_j|`.
    fn converged(&self, j: usize, tol: f64) -> bool {
        self.r2[j] <= tol * tol * self.b_norm2[j]
    }
}

/// What a finished solve hands its state type to build the report from.
pub struct Outcome {
    /// Relative true residual per RHS.
    pub residuals: Vec<f64>,
    /// Whether each RHS reached the tolerance.
    pub converged: Vec<bool>,
    /// Capped reported history per RHS.
    pub histories: Vec<Vec<f64>>,
    /// Health events per RHS.
    pub health: Vec<Vec<HealthEvent>>,
    /// Profile of the solve.
    pub telemetry: RegionSummary,
}

/// The state of an in-flight CG solve — the checkpoint unit.
pub trait State: Sized {
    /// The space the recurrence runs in.
    type V: Space;
    /// The report a finished solve produces.
    type Report;
    /// Whether the state is a batch (`region[j]` monitor labels, the RHS
    /// index in breakdown panics).
    const BATCH: bool;
    /// Views of every member.
    fn parts(&mut self) -> Parts<'_, Self::V>;
    /// A fresh state at iteration 0; panics on a zero right-hand side.
    fn assemble(x: Self::V, r: Self::V, p: Self::V, r2: Scalars<Self>, b2: Scalars<Self>) -> Self;
    /// The solution and the report.
    fn into_report(self, outcome: Outcome) -> (Self::V, Self::Report);
}

type Scalars<S> = <<S as State>::V as Space>::Scalars;

/// The state of one CG recurrence (one right-hand side) in space `V`:
/// every scalar and vector of the recurrence, so a snapshot taken
/// mid-solve resumes bit-identically.
#[derive(Clone)]
pub struct Single<V> {
    /// Current solution estimate.
    pub x: V,
    /// Recurrence residual `b − A x`.
    pub r: V,
    /// Search direction.
    pub p: V,
    /// Squared norm of `r` (recurrence value, not recomputed).
    pub r2: f64,
    /// Squared norm of the right-hand side (fixes the relative target).
    pub b_norm2: f64,
    /// Iterations completed so far.
    pub iterations: usize,
    /// Relative residual history, entry 0 = before the first iteration.
    pub history: Vec<f64>,
}

impl<V: Space> Single<V> {
    /// Fresh state for `A x = b` from the zero guess, layout-local norms.
    pub fn new(b: &V) -> Self {
        local_start(b)
    }

    /// Whether the recurrence residual is at or below `tol` relative to
    /// `|b|`.
    pub fn converged(&self, tol: f64) -> bool {
        self.r2 <= tol * tol * self.b_norm2
    }
}

impl<V: Space> State for Single<V> {
    type V = V;
    type Report = SolveReport;
    const BATCH: bool = false;

    fn parts(&mut self) -> Parts<'_, V> {
        Parts {
            x: &mut self.x,
            r: &mut self.r,
            p: &mut self.p,
            r2: std::slice::from_mut(&mut self.r2),
            b_norm2: std::slice::from_ref(&self.b_norm2),
            iterations: std::slice::from_mut(&mut self.iterations),
            histories: std::slice::from_mut(&mut self.history),
        }
    }

    fn assemble(x: V, r: V, p: V, r2: V::Scalars, b2: V::Scalars) -> Self {
        let (r2, b_norm2) = (r2.as_ref()[0], b2.as_ref()[0]);
        assert!(b_norm2 > 0.0, "CG needs a nonzero right-hand side");
        let (iterations, history) = (0, vec![(r2 / b_norm2).sqrt()]);
        Single {
            x,
            r,
            p,
            r2,
            b_norm2,
            iterations,
            history,
        }
    }

    fn into_report(self, mut o: Outcome) -> (V, SolveReport) {
        let report = SolveReport {
            iterations: self.iterations,
            residual: o.residuals[0],
            converged: o.converged[0],
            history: o.histories.remove(0),
            health: o.health.remove(0),
            telemetry: o.telemetry,
        };
        (self.x, report)
    }
}

impl<E: SveFloat> State for BlockCgState<E> {
    type V = FermionBlock<E>;
    type Report = BlockSolveReport;
    const BATCH: bool = true;

    fn parts(&mut self) -> Parts<'_, FermionBlock<E>> {
        Parts {
            x: &mut self.x,
            r: &mut self.r,
            p: &mut self.p,
            r2: &mut self.r2,
            b_norm2: &self.b_norm2,
            iterations: &mut self.iterations,
            histories: &mut self.histories,
        }
    }

    fn assemble(x: Self::V, r: Self::V, p: Self::V, r2: Vec<f64>, b_norm2: Vec<f64>) -> Self {
        for (j, &n) in b_norm2.iter().enumerate() {
            assert!(n > 0.0, "CG needs a nonzero right-hand side (RHS {j})");
        }
        let histories = r2
            .iter()
            .zip(&b_norm2)
            .map(|(r2, b2)| vec![(r2 / b2).sqrt()]);
        let (histories, iterations) = (histories.collect(), vec![0; r2.len()]);
        BlockCgState {
            x,
            r,
            p,
            r2,
            b_norm2,
            iterations,
            histories,
        }
    }

    fn into_report(self, o: Outcome) -> (FermionBlock<E>, BlockSolveReport) {
        let report = BlockSolveReport {
            iterations: self.iterations.iter().copied().max().unwrap_or(0),
            per_rhs_iterations: self.iterations,
            residuals: o.residuals,
            converged: o.converged,
            histories: o.histories,
            health: o.health,
            telemetry: o.telemetry,
        };
        (self.x, report)
    }
}

/// Zero initial guess (`r = p = b`) with layout-local norms.
pub(crate) fn local_start<S: State>(b: &S::V) -> S {
    S::assemble(
        b.zero_like(),
        b.clone(),
        b.clone(),
        b.local_norm2(),
        b.local_norm2(),
    )
}

/// Zero initial guess (`r = p = b`) with the policy's norms; `|r|²` is
/// `|b|²` (a copy has the same norm under any deterministic reduction).
pub fn zero_start<S: State, W, R>(b: &S::V, reduce: &mut R, ws: &mut W) -> S
where
    W: Workspace<S::V>,
    R: Reduction<S::V, W>,
{
    let b2 = reduce.norm2(b, ws);
    S::assemble(b.zero_like(), b.clone(), b.clone(), b2.clone(), b2)
}

/// Start from the initial guess `x0` (e.g. the Galerkin deflation guess):
/// `r = b − A x0`, `p = r`.
pub fn guess_start<S: State, W, R, O>(
    b: &S::V,
    x0: S::V,
    reduce: &mut R,
    ws: &mut W,
    op: &mut O,
) -> S
where
    W: Workspace<S::V>,
    R: Reduction<S::V, W>,
    O: FnMut(&S::V, &mut W) -> R::Out,
{
    let b2 = reduce.norm2(b, ws);
    op(&x0, ws);
    let mut r = b.zero_like();
    r.residual(b, ws.ap());
    let r2 = reduce.norm2(&r, ws);
    let p = r.clone();
    S::assemble(x0, r, p, r2, b2)
}

/// Why [`Cg::iterate`] returned.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Stop {
    /// Every RHS converged or exhausted its iteration budget.
    Done,
    /// The hook stopped the solve.
    Aborted,
    /// This RHS met a search direction without positive (or with NaN)
    /// curvature; that iteration changed nothing.
    Breakdown(usize),
}

fn breakdown<S: State>(rhs: usize) -> ! {
    let which = if S::BATCH {
        format!(" (RHS {rhs})")
    } else {
        String::new()
    };
    panic!("search direction has non-positive curvature: operator not HPD?{which}")
}

/// A CG solve: stopping rule, health region, preconditioner and hook.
pub struct Cg<'r, Pc = Unpreconditioned, H = ()> {
    region: &'r str,
    tol: f64,
    max_iter: usize,
    precond: Pc,
    hook: H,
}

impl<'r> Cg<'r> {
    /// Plain CG to relative tolerance `tol` within `max_iter` total
    /// iterations (those inside a restored state included); `region` labels
    /// the health monitors and the concluded metrics.
    pub fn new(region: &'r str, tol: f64, max_iter: usize) -> Self {
        let (precond, hook) = (Unpreconditioned, ());
        Cg {
            region,
            tol,
            max_iter,
            precond,
            hook,
        }
    }
}

impl<'r, Pc, H> Cg<'r, Pc, H> {
    /// Precondition with `z = precond(r)`. The recurrence starts by setting
    /// the search direction to `z`, so the state must be fresh.
    pub fn preconditioned<P>(self, precond: P) -> Cg<'r, P, H> {
        let Cg {
            region,
            tol,
            max_iter,
            hook,
            ..
        } = self;
        Cg {
            region,
            tol,
            max_iter,
            precond,
            hook,
        }
    }

    /// Run `hook` around and after every iteration.
    pub fn with_hook<H2>(self, hook: H2) -> Cg<'r, Pc, H2> {
        let Cg {
            region,
            tol,
            max_iter,
            precond,
            ..
        } = self;
        Cg {
            region,
            tol,
            max_iter,
            precond,
            hook,
        }
    }

    /// Drive the recurrence until every RHS is done, the hook stops it, or
    /// a curvature breakdown. `monitors` (one per RHS) observe every new
    /// history entry.
    pub fn iterate<S, W, R, O>(
        &mut self,
        st: &mut S,
        ws: &mut W,
        reduce: &mut R,
        op: &mut O,
        monitors: &mut [HealthMonitor],
    ) -> Stop
    where
        S: State,
        W: Workspace<S::V>,
        R: Reduction<S::V, W>,
        O: FnMut(&S::V, &mut W) -> R::Out,
        Pc: Preconditioner<S::V>,
        H: Hook<S>,
    {
        let it = st.parts();
        let (mut on, mut rz) = (it.p.mask(), it.p.scalars());
        if Pc::PRESENT {
            // z = M⁻¹ r, p = z, ρ = ⟨r, z⟩.
            let z = self.precond.apply(it.r);
            rz = reduce.inner_re(it.r, &z, ws);
            *it.p = z;
        }
        loop {
            let it = st.parts();
            for (j, a) in on.as_mut().iter_mut().enumerate() {
                *a = it.iterations[j] < self.max_iter && !it.converged(j, self.tol);
            }
            if !on.as_ref().contains(&true) {
                return Stop::Done;
            }
            let span = self.hook.iteration_span();
            let pc = &mut self.precond;
            let stepped = advance(it, ws, reduce, op, pc, &mut rz, on.as_ref(), self.tol);
            drop(span);
            if let Err(j) = stepped {
                return Stop::Breakdown(j);
            }
            let it = st.parts();
            for (j, m) in monitors
                .iter_mut()
                .enumerate()
                .filter(|(j, _)| on.as_ref()[*j])
            {
                m.observe(*it.histories[j].last().expect("history is never empty"));
            }
            if self.hook.after_iteration(st, monitors).is_break() {
                return Stop::Aborted;
            }
        }
    }

    /// The whole solve: reserve the history, replay it through fresh health
    /// monitors, iterate, check the true residual (`A x` into the
    /// workspace, `b − A x` into the spent search direction) and conclude
    /// the health metrics. `span`, opened by the caller over its setup,
    /// closes into the report.
    pub fn solve<S, W, R, O>(
        mut self,
        span: SpanGuard<'_>,
        b: &S::V,
        mut st: S,
        ws: &mut W,
        mut reduce: R,
        mut op: O,
    ) -> (S::V, S::Report)
    where
        S: State,
        W: Workspace<S::V>,
        R: Reduction<S::V, W>,
        O: FnMut(&S::V, &mut W) -> R::Out,
        Pc: Preconditioner<S::V>,
        H: Hook<S>,
    {
        let (region, want) = (self.region, self.max_iter.saturating_add(1));
        let mut monitors: Vec<HealthMonitor> = (st.parts().histories.iter_mut().enumerate())
            .map(|(j, h)| {
                h.reserve(want.saturating_sub(h.len()));
                let label = if S::BATCH {
                    format!("{region}[{j}]")
                } else {
                    region.to_string()
                };
                let mut m = HealthMonitor::new(&label);
                m.replay(h);
                m
            })
            .collect();
        if let Stop::Breakdown(j) = self.iterate(&mut st, ws, &mut reduce, &mut op, &mut monitors) {
            breakdown::<S>(j);
        }

        let it = st.parts();
        let n = it.r2.len();
        let converged = (0..n).map(|j| it.converged(j, self.tol)).collect();
        op(it.x, ws);
        let rn2 = if R::FUSED_RESIDUAL {
            it.p.residual_norm2(b, ws.ap())
        } else {
            it.p.residual(b, ws.ap());
            reduce.norm2(it.p, ws)
        };
        let residuals = (0..n)
            .map(|j| (rn2.as_ref()[j] / it.b_norm2[j]).sqrt())
            .collect();
        let (mut histories, mut health) = (Vec::with_capacity(n), Vec::with_capacity(n));
        for (j, m) in monitors.into_iter().enumerate() {
            let (h, e) = qcd_metrics::conclude_solver_health(
                region,
                m,
                &it.histories[j],
                it.iterations[j],
                HISTORY_CAP,
            );
            histories.push(h);
            health.push(e);
        }
        let telemetry = span.finish();
        st.into_report(Outcome {
            residuals,
            converged,
            histories,
            health,
            telemetry,
        })
    }
}

/// One iteration over the active RHS: `A p`, curvature, step length, the
/// iterate/residual update, the new `|r|²`, the search-direction update
/// (through `z = M⁻¹ r` when preconditioned) and the history entry.
/// `Err(j)`: RHS `j` has no positive curvature; nothing changed.
#[allow(clippy::too_many_arguments)]
fn advance<V: Space, W, R, O, Pc>(
    it: Parts<'_, V>,
    ws: &mut W,
    reduce: &mut R,
    op: &mut O,
    precond: &mut Pc,
    rz: &mut V::Scalars,
    on: &[bool],
    tol: f64,
) -> Result<(), usize>
where
    W: Workspace<V>,
    R: Reduction<V, W>,
    O: FnMut(&V, &mut W) -> R::Out,
    Pc: Preconditioner<V>,
{
    let out = op(it.p, ws);
    let p_ap = reduce.curvature(out, it.p, ws);
    let (mut alpha, mut beta) = (it.p.scalars(), it.p.scalars());
    let num = if Pc::PRESENT { rz.as_ref() } else { &*it.r2 };
    for (j, a) in alpha
        .as_mut()
        .iter_mut()
        .enumerate()
        .filter(|(j, _)| on[*j])
    {
        let c = p_ap.as_ref()[j];
        if c.is_nan() || c <= 0.0 {
            return Err(j);
        }
        *a = num[j] / c;
    }
    let fused = V::update(it.x, it.r, it.p, ws.ap(), alpha.as_ref(), on, !Pc::PRESENT);
    let r2_new = if R::FUSED_NORM && !Pc::PRESENT {
        fused
    } else {
        reduce.norm2(it.r, ws)
    };
    let (b, r2_new) = (beta.as_mut(), r2_new.as_ref());
    let active = || (0..on.len()).filter(|&j| on[j]);
    if !Pc::PRESENT {
        for j in active() {
            b[j] = r2_new[j] / it.r2[j];
        }
        V::aypx(it.p, b, it.r, on);
    }
    for j in active() {
        it.r2[j] = r2_new[j];
        it.iterations[j] += 1;
        it.histories[j].push((it.r2[j] / it.b_norm2[j]).sqrt());
    }
    if Pc::PRESENT {
        // Only RHS still short of the target move on to a new direction.
        let mut go = it.p.mask();
        for (j, g) in go.as_mut().iter_mut().enumerate() {
            *g = on[j] && !it.converged(j, tol);
        }
        if go.as_ref().contains(&true) {
            let z = precond.apply(it.r);
            let rz_new = reduce.inner_re(it.r, &z, ws);
            let (rz, rz_new) = (rz.as_mut(), rz_new.as_ref());
            for j in (0..rz.len()).filter(|&j| go.as_ref()[j]) {
                b[j] = rz_new[j] / rz[j];
                rz[j] = rz_new[j];
            }
            V::aypx(it.p, b, &z, go.as_ref());
        }
    }
    Ok(())
}

/// One iteration of every RHS flagged in `on`, outside any driving loop
/// (the single-step faces of [`Single`] and [`BlockCgState`]). Panics on
/// a curvature breakdown.
pub(crate) fn step<S: State, W, R, O>(
    st: &mut S,
    ws: &mut W,
    reduce: &mut R,
    op: &mut O,
    on: &[bool],
) where
    W: Workspace<S::V>,
    R: Reduction<S::V, W>,
    O: FnMut(&S::V, &mut W) -> R::Out,
{
    let it = st.parts();
    let mut rz = it.p.scalars();
    if let Err(j) = advance(it, ws, reduce, op, &mut Unpreconditioned, &mut rz, on, 0.0) {
        breakdown::<S>(j);
    }
}
