//! `propagator`: the twelve spin-colour columns of a point-source
//! propagator on one random gauge background, coalesced through
//! `solve_cg_requests` into one block CG — the headline user job.

use crate::probes::{
    self, derive, judge_residual, rel_residual, same_bits, secs, with_threads, MASS, THREADS,
};
use crate::report::{guarded, Class, Metric, Report, Tally};
use crate::trace::Tracer;
use grid::prelude::*;
use grid::{Coor, FermionBlock, FermionField};
use std::time::Instant;
use sve::Opcode;

/// Problem size of one campaign.
#[derive(Clone, Copy, Debug)]
pub struct Scale {
    /// Lattice extents.
    pub dims: Coor,
    /// Right-hand sides (spin-colour components of the point source).
    pub nrhs: usize,
    /// Target relative residual.
    pub tol: f64,
    /// CG iteration budget.
    pub max_iter: usize,
}

impl Scale {
    /// The benchmark workload.
    pub const PRODUCTION: Scale = Scale {
        dims: [4, 4, 4, 8],
        nrhs: 12,
        tol: 1e-10,
        max_iter: 10_000,
    };
}

/// Everything a campaign needs, built from the seed.
pub struct Setup {
    op: WilsonDirac,
    requests: Vec<SolveRequest>,
}

/// Build the gauge background, the operator, and the point sources.
pub fn setup(seed: u64, s: Scale) -> Setup {
    let g = Grid::new(s.dims, probes::vl(), probes::backend());
    let op = WilsonDirac::new(random_gauge(g.clone(), derive(seed, 1)), MASS);
    let h = derive(seed, 2);
    let site: Coor = std::array::from_fn(|d| ((h >> (8 * d)) as usize) % s.dims[d]);
    let requests = (0..s.nrhs)
        .map(|k| {
            let mut rhs = FermionField::zero(g.clone());
            rhs.poke(&site, k % 12, Complex::new(1.0, 0.0));
            SolveRequest { id: k as u64, rhs }
        })
        .collect();
    Setup { op, requests }
}

/// Check one solution against its source: recompute `M†M x` and the true
/// residual in f64, independently of what the solver reported.
fn check(
    op: &WilsonDirac,
    b: &FermionField,
    x: &FermionField,
    converged: bool,
    tol: f64,
) -> Result<(), String> {
    judge_residual(converged, rel_residual(b, &op.mdag_m(x)), tol)
}

/// One untraced campaign through the public farm entry point. Returns
/// its wall time and outcomes; every RHS is checked into `tally`.
pub fn campaign(st: &Setup, s: Scale, tally: &mut Tally) -> Option<(f64, Vec<SolveOutcome>)> {
    let t = Instant::now();
    let out = guarded(|| solve_cg_requests(&st.op, &st.requests, s.tol, s.max_iter));
    let wall = secs(t);
    match out {
        Ok(outs) => {
            for (req, o) in st.requests.iter().zip(&outs) {
                let v = guarded(|| check(&st.op, &req.rhs, &o.solution, o.report.converged, s.tol))
                    .and_then(|v| v);
                tally.record(&format!("rhs {}", req.id), v);
            }
            Some((wall, outs))
        }
        Err(e) => {
            tally.record_all_failed(s.nrhs, "rhs", &e);
            None
        }
    }
}

/// Untraced run: interleaved set-up, single-thread and two-thread
/// campaigns for `seconds`.
pub fn run(seed: u64, seconds: f64, s: Scale) -> Report {
    let mut r = Report::new("propagator", false);
    let tally = &mut r.tally;
    let m = probes::measure(
        seconds,
        THREADS,
        || setup(seed, s),
        |st, _| campaign(st, s, tally).map(|c| c.0),
    );
    probes::end_to_end(&mut r, &m);
    r
}

/// Traced run of the workload's own layers: one untraced campaign as the
/// reference, then the instrumented path — the public
/// `block_cg_ws_from_state` with a timed operator closure — which must
/// reproduce it bit for bit.
pub fn traced_core(seed: u64, s: Scale) -> Report {
    let mut r = Report::new("propagator", true);
    let st = setup(seed, s);
    with_threads(THREADS, || {
        let Some((untraced_wall, reference)) = campaign(&st, s, &mut r.tally) else {
            r.invalid.push("untraced reference campaign failed".into());
            return;
        };
        let counters = st.op.grid().engine().ctx().counters();
        let (insts0, fcmla0) = (counters.total(), counters.get(Opcode::Fcmla));
        let mut tr = Tracer::new();
        let root = tr.enter("campaign");
        let fields: Vec<FermionField> = st.requests.iter().map(|q| q.rhs.clone()).collect();
        let block = FermionBlock::from_fields(&fields);
        let mut ws = BlockWorkspace::new(block.grid().clone(), s.nrhs);
        let solve = tr.enter("solver.block_cg");
        let state = BlockCgState::new(&block);
        let (x, rep) = block_cg_ws_from_state(
            |p, ws| {
                let id = tr.enter("dirac.mdagm");
                let BlockWorkspace { tmp, ap, .. } = ws;
                let dots = st.op.mdag_m_block_into_dot(p, tmp, ap);
                tr.exit(id);
                dots
            },
            &block,
            &mut ws,
            state,
            s.tol,
            s.max_iter,
        );
        tr.exit(solve);
        tr.exit(root);
        let (insts, fcmla) = (
            counters.total() - insts0,
            counters.get(Opcode::Fcmla) - fcmla0,
        );

        for (j, req) in st.requests.iter().enumerate() {
            let xj = x.rhs_field(j);
            let v =
                guarded(|| check(&st.op, &req.rhs, &xj, rep.converged[j], s.tol)).and_then(|v| v);
            r.tally.record(&format!("traced rhs {j}"), v);
            let o = &reference[j];
            let same = rep.per_rhs_iterations[j] == o.report.iterations
                && same_bits(&rep.histories[j], &o.report.history)
                && rep.residuals[j].to_bits() == o.report.residual.to_bits()
                && same_bits(xj.data(), o.solution.data());
            if !same {
                r.invalid.push(format!(
                    "traced path diverged from solve_cg_requests on rhs {j}: the per-layer numbers do not describe the measured program"
                ));
            }
        }

        let campaign_s = tr.duration_ns(root) as f64 * 1e-9;
        let (calls, _, dirac_self) = tr.totals_s("dirac.mdagm");
        let (_, _, solver_self) = tr.totals_s("solver.block_cg");
        let nrhs = s.nrhs as f64;
        r.push(Metric::one(
            "sve.insts_per_unit",
            insts as f64 / nrhs,
            Class::Count,
        ));
        r.push(Metric::one(
            "sve.fcmla_per_unit",
            fcmla as f64 / nrhs,
            Class::Count,
        ));
        r.push(Metric::one("dirac.mdagm_calls", calls as f64, Class::Count));
        r.push(Metric::one(
            "dirac.mdagm_self_s",
            dirac_self,
            Class::Measured,
        ));
        r.push(Metric::one(
            "dirac.share",
            dirac_self / campaign_s,
            Class::Measured,
        ));
        let iters: usize = rep.per_rhs_iterations.iter().sum();
        r.push(Metric::one("solver.iters", iters as f64, Class::Count));
        r.push(Metric::one("solver.self_s", solver_self, Class::Measured));
        r.push(Metric::one(
            "solver.share",
            solver_self / campaign_s,
            Class::Measured,
        ));
        r.push(Metric::one(
            "trace.overhead",
            campaign_s / untraced_wall,
            Class::Measured,
        ));
    });
    r
}
