//! `ladder`: right-hand sides solved one at a time by the production
//! f64/f32/f16 reliable-update ladder — the per-call-overhead workload and
//! the measured side of the f16 decision.

use crate::probes::{
    self, derive, judge_residual, rel_residual, same_bits, secs, with_threads, MASS, THREADS,
};
use crate::report::{guarded, Class, Metric, Report, Tally};
use crate::trace::Tracer;
use grid::prelude::*;
use grid::{Coor, FermionField};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;
use sve::Opcode;

/// Problem size of one campaign.
#[derive(Clone, Copy, Debug)]
pub struct Scale {
    /// Lattice extents.
    pub dims: Coor,
    /// Right-hand sides, solved one after another.
    pub nrhs: usize,
    /// Target relative residual of the outer f64 system.
    pub tol: f64,
}

impl Scale {
    /// The benchmark workload.
    pub const PRODUCTION: Scale = Scale {
        dims: [4, 4, 4, 4],
        nrhs: 3,
        tol: 1e-10,
    };
    /// One right-hand side: the ladder layers' numbers for other workloads'
    /// traced runs.
    pub const ONE_UNIT: Scale = Scale {
        nrhs: 1,
        ..Scale::PRODUCTION
    };
}

/// Operator and sources built from the seed.
pub struct Setup {
    op: WilsonDirac,
    rhs: Vec<FermionField>,
}

/// Build the gauge background, the operator, and random sources.
pub fn setup(seed: u64, s: Scale) -> Setup {
    let g = Grid::new(s.dims, probes::vl(), probes::backend());
    let op = WilsonDirac::new(random_gauge(g.clone(), derive(seed, 11)), MASS);
    let rhs = (0..s.nrhs)
        .map(|j| FermionField::random(g.clone(), derive(seed, 100 + j as u64)))
        .collect();
    Setup { op, rhs }
}

/// Check a ladder solution of `M x = b` by recomputing the true residual.
fn check(
    op: &WilsonDirac,
    b: &FermionField,
    x: &FermionField,
    rep: &LadderReport,
    tol: f64,
) -> Result<(), String> {
    judge_residual(rep.converged, rel_residual(b, &op.apply(x)), tol)
}

type Solved = (FermionField, LadderReport);

/// Solve every RHS with `cfg`, timing each solve; checks run after the
/// clock stops. Returns per-RHS walls and results (`None` for a panic).
fn solve_all(
    st: &Setup,
    cfg: &LadderConfig,
    tally: &mut Tally,
    label: &str,
    mut wrap: impl FnMut(&mut dyn FnMut()),
) -> (Vec<f64>, Vec<Option<Solved>>) {
    let mut walls = Vec::new();
    let mut outs = Vec::new();
    for b in &st.rhs {
        let mut res = None;
        let t = Instant::now();
        wrap(&mut || res = Some(guarded(|| ladder_solve(&st.op, b, cfg))));
        walls.push(secs(t));
        outs.push(res.expect("solve ran").ok());
    }
    for (j, (b, o)) in st.rhs.iter().zip(&outs).enumerate() {
        let v = match o {
            Some((x, rep)) => guarded(|| check(&st.op, b, x, rep, cfg.tol)).and_then(|v| v),
            None => Err("ladder_solve panicked".into()),
        };
        tally.record(&format!("{label} rhs {j}"), v);
    }
    (walls, outs)
}

/// One untraced campaign with the production recipe.
pub fn campaign(st: &Setup, s: Scale, tally: &mut Tally) -> (f64, Vec<Option<Solved>>) {
    let (walls, outs) = solve_all(st, &LadderConfig::new(s.tol), tally, "ladder", |f| f());
    (walls.iter().sum(), outs)
}

/// Untraced run: interleaved set-up, single-thread and two-thread
/// campaigns for `seconds`.
pub fn run(seed: u64, seconds: f64, s: Scale) -> Report {
    let mut r = Report::new("ladder", false);
    let tally = &mut r.tally;
    let m = probes::measure(
        seconds,
        THREADS,
        || setup(seed, s),
        |st, _| {
            let (wall, outs) = campaign(st, s, tally);
            outs.iter().all(Option::is_some).then_some(wall)
        },
    );
    probes::end_to_end(&mut r, &m);
    r
}

/// A process-unique region name for one probed solve, remembered in
/// `names` so its bytes can be read back.
fn probe_name(names: &mut Vec<String>) -> &str {
    static NEXT: AtomicU64 = AtomicU64::new(0);
    names.push(format!(
        "perfbench.ladder.{}",
        NEXT.fetch_add(1, Ordering::Relaxed)
    ));
    names.last().expect("just pushed")
}

/// Inner-tier bytes per inner iteration the program's own byte accounting
/// credits to one ladder solve (the model behind the repo's 0.538 claim).
fn bytes_per_inner_iter(probe: &str, rep: &LadderReport) -> f64 {
    let prefix = format!("{probe}/");
    let bytes: u64 = qcd_trace::snapshot()
        .regions
        .iter()
        .filter(|(path, _)| {
            path.starts_with(&prefix)
                && (path.contains("solver.tier.f16") || path.contains("solver.tier.f32"))
        })
        .map(|(_, st)| st.bytes_read + st.bytes_written)
        .sum();
    bytes as f64 / (rep.f16_iterations + rep.f32_iterations).max(1) as f64
}

/// Traced run of the ladder's layers: an untraced reference campaign, the
/// same public calls under the benchmark's spans (bit-identical histories
/// required), and the f32-only recipe on the same sources.
pub fn traced_core(seed: u64, s: Scale) -> Report {
    let mut r = Report::new("ladder", true);
    let st = setup(seed, s);
    let (t16, t32) = probes::mdagm_call_s(s.dims, seed);
    with_threads(THREADS, || {
        let (untraced_wall, reference) = campaign(&st, s, &mut r.tally);
        let counters = st.op.grid().engine().ctx().counters();
        let fcmla0 = counters.get(Opcode::Fcmla);
        let mut tr = Tracer::new();
        let root = tr.enter("campaign");
        let mut probes16 = Vec::new();
        let (_, traced) = solve_all(
            &st,
            &LadderConfig::new(s.tol),
            &mut r.tally,
            "traced ladder",
            |f| {
                // The program's own byte accounting needs a uniquely named
                // region to read back; it does not change the arithmetic.
                let g = qcd_trace::SpanGuard::enter(probe_name(&mut probes16), None);
                tr.scope("mixed.ladder_solve", |_| f());
                drop(g.finish());
            },
        );
        tr.exit(root);
        let fcmla = counters.get(Opcode::Fcmla) - fcmla0;
        let mut probes32 = Vec::new();
        let (walls32, f32_only) = solve_all(
            &st,
            &LadderConfig::f32_only(s.tol),
            &mut r.tally,
            "f32-only ladder",
            |f| {
                let g = qcd_trace::SpanGuard::enter(probe_name(&mut probes32), None);
                f();
                drop(g.finish());
            },
        );

        let sum = |get: fn(&LadderReport) -> usize| -> f64 {
            traced
                .iter()
                .flatten()
                .map(|(_, rep)| get(rep))
                .sum::<usize>() as f64
        };
        let (outer, f16i, f32i) = (
            sum(|p| p.outer_iterations),
            sum(|p| p.f16_iterations),
            sum(|p| p.f32_iterations),
        );
        let (reliable, fallbacks) = (sum(|p| p.reliable_updates), sum(|p| p.tier_fallbacks));
        let insts: u64 = traced
            .iter()
            .flatten()
            .map(|(_, p)| p.f16_instructions + p.f32_instructions + p.f64_instructions)
            .sum();

        for (j, (a, b)) in reference.iter().zip(&traced).enumerate() {
            let same = match (a, b) {
                (Some((xa, ra)), Some((xb, rb))) => {
                    same_bits(&ra.outer_history, &rb.outer_history)
                        && same_bits(&ra.inner_history, &rb.inner_history)
                        && ra.f16_iterations == rb.f16_iterations
                        && ra.f32_iterations == rb.f32_iterations
                        && same_bits(xa.data(), xb.data())
                }
                _ => false,
            };
            if !same {
                r.invalid.push(format!(
                    "traced ladder solve of rhs {j} diverged from the untraced one"
                ));
            }
        }

        let campaign_s = tr.duration_ns(root) as f64 * 1e-9;
        let walls16 = tr.durations_s("mixed.ladder_solve");
        let (wall16, wall32) = (walls16.iter().sum::<f64>(), walls32.iter().sum::<f64>());
        // The ladder's CG loops are internal: M†M calls are the inner
        // iterations it reports, timed by a per-call probe.
        let dirac_s = f16i * t16 + f32i * t32;
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
        r.push(Metric::one("dirac.mdagm_calls", f16i + f32i, Class::Count));
        r.push(Metric::one("dirac.mdagm_self_s", dirac_s, Class::Estimated));
        r.push(Metric::one(
            "dirac.share",
            dirac_s / campaign_s,
            Class::Estimated,
        ));
        r.push(Metric::one("solver.iters", f16i + f32i, Class::Count));
        r.push(Metric::one(
            "solver.self_s",
            campaign_s - dirac_s,
            Class::Estimated,
        ));
        r.push(Metric::one(
            "solver.share",
            (campaign_s - dirac_s) / campaign_s,
            Class::Estimated,
        ));
        r.push(Metric::one("mixed.outer_iters", outer, Class::Count));
        r.push(Metric::one("mixed.f32_iters", f32i, Class::Count));
        r.push(Metric::one("mixed.f16_iters", f16i, Class::Count));
        r.push(Metric::one(
            "mixed.reliable_updates",
            reliable,
            Class::Count,
        ));
        r.push(Metric::one("mixed.tier_fallbacks", fallbacks, Class::Count));
        r.push(Metric::one(
            "mixed.f16_over_f32_wall",
            wall16 / wall32,
            Class::Measured,
        ));
        r.push(Metric::one(
            "trace.overhead",
            campaign_s / untraced_wall,
            Class::Measured,
        ));

        // Model beside measurement: the program's inner-byte model against
        // the measured wall, in total and per inner iteration.
        let pairs: Vec<(f64, f64)> = traced
            .iter()
            .zip(&f32_only)
            .enumerate()
            .filter_map(|(j, (a, b))| {
                let (ra, rb) = (&a.as_ref()?.1, &b.as_ref()?.1);
                Some((
                    bytes_per_inner_iter(&probes16[j], ra),
                    bytes_per_inner_iter(&probes32[j], rb),
                ))
            })
            .collect();
        let model = pairs.iter().map(|p| p.0).sum::<f64>() / pairs.iter().map(|p| p.1).sum::<f64>();
        r.push(Metric::one(
            "mixed.f16_byte_ratio_model",
            model,
            Class::Model,
        ));
        let f32_iters: usize = f32_only
            .iter()
            .flatten()
            .map(|(_, p)| p.f32_iterations)
            .sum();
        let per_iter = (wall16 / f16i.max(1.0)) / (wall32 / (f32_iters.max(1) as f64));
        r.findings.push(format!(
            "f16 inner tier: model (inner bytes/iteration, f16 over f32) = {model:.3}; measured wall, \
             f16 recipe over f32-only = {:.3} in total and {per_iter:.3} per inner iteration{}",
            wall16 / wall32,
            if per_iter > model { " — the model does not predict the wall" } else { "" }
        ));
    });
    r
}
