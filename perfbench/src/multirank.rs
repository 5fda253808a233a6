//! `multirank`: distributed CG on two thread-ranks split along t over the
//! modeled fabric, one rayon thread per rank — the only workload where the
//! comms and dist layers work, and the bypass for counter contention
//! (every rank owns its own SVE context).

use crate::probes::{
    self, derive, judge_residual, rel_residual, same_bits, scaled, time_each, with_threads, MASS,
};
use crate::report::{guarded, Class, Metric, Report, Tally};
use crate::stats::median;
use crate::trace::Tracer;
use grid::prelude::*;
use grid::{Coor, FermionBlock, FermionField, NCOLOR, NSPIN};
use sve::Opcode;

/// Modeled fabric latency: the comms bench's constant.
pub const NET_LATENCY_NS: u64 = 50_000;
/// Modeled fabric bandwidth: the comms bench's constant.
pub const NET_GBYTES_PER_S: f64 = 12.5;

/// Problem size of one campaign.
#[derive(Clone, Copy, Debug)]
pub struct Scale {
    /// Global lattice extents.
    pub dims: Coor,
    /// Right-hand sides.
    pub nrhs: usize,
    /// Ranks of the measured leg (split along t).
    pub ranks: usize,
    /// Target relative residual.
    pub tol: f64,
    /// CG iteration budget.
    pub max_iter: usize,
}

impl Scale {
    /// The benchmark workload.
    pub const PRODUCTION: Scale = Scale {
        dims: [4, 4, 4, 8],
        nrhs: 4,
        ranks: 2,
        tol: 1e-10,
        max_iter: 10_000,
    };
    /// One right-hand side: the comms and dist layers' numbers for other
    /// workloads' traced runs.
    pub const ONE_UNIT: Scale = Scale {
        nrhs: 1,
        ..Scale::PRODUCTION
    };
}

/// What one rank reports back from a campaign.
struct RankOut {
    wall: f64,
    /// Local solutions, or the panic message.
    solved: Result<(FermionBlock, Vec<SolveReport>), String>,
    /// Whether each local solution equals the R = 1 reference bit for bit.
    matches: Vec<bool>,
    sent: usize,
    modeled: usize,
    wait_ns: u64,
    flight_ns: u64,
    mdagm_calls: u64,
    insts: u64,
    fcmla: u64,
    /// Probe per-call times (traced runs): M†M and canonical norm, seconds.
    mdagm_s: Vec<f64>,
    norm_s: Vec<f64>,
}

fn net() -> NetworkModel {
    NetworkModel::custom(NET_LATENCY_NS, NET_GBYTES_PER_S)
}

/// Rank-local inputs: every rank builds the global fields from the seed
/// and keeps its block.
fn rank_inputs(ctx: &RankCtx, seed: u64, s: Scale) -> (GaugeField, FermionBlock) {
    let g = Grid::new(s.dims, probes::vl(), probes::backend());
    let u = restrict_field(ctx, &random_gauge(g.clone(), derive(seed, 21)));
    let fields: Vec<FermionField> = (0..s.nrhs)
        .map(|j| {
            restrict_field(
                ctx,
                &FermionField::random(g.clone(), derive(seed, 300 + j as u64)),
            )
        })
        .collect();
    (u, FermionBlock::from_fields(&fields))
}

/// Set-up as a user pays it: the fabric, the rank-local inputs, and the
/// operator with its ghost-link exchange (timed by the caller).
fn setup_once(seed: u64, s: Scale) {
    run_multinode_topo(
        s.dims,
        RankTopology::one_dim(s.ranks),
        probes::vl(),
        probes::backend(),
        net(),
        |ctx| {
            let (u, b) = rank_inputs(ctx, seed, s);
            let dw = DistWilson::new(ctx, u, MASS, GaugeWire::TwoRow, Compression::None);
            std::hint::black_box((dw.ghost_bytes(), b.nrhs()));
        },
    );
}

/// One campaign at `ranks` ranks: build (untimed), solve every RHS with
/// `dist_block_cg` (timed per rank), then compare against `reference` (the
/// R = 1 solutions, global) and run the probes if `probe` is set.
fn campaign(
    seed: u64,
    s: Scale,
    ranks: usize,
    reference: Option<&[FermionField]>,
    probe: bool,
) -> Vec<RankOut> {
    run_multinode_topo(
        s.dims,
        RankTopology::one_dim(ranks),
        probes::vl(),
        probes::backend(),
        net(),
        |ctx| {
            let (u, b) = rank_inputs(ctx, seed, s);
            let dw = DistWilson::new(ctx, u, MASS, GaugeWire::TwoRow, Compression::None);
            let counters = ctx.grid.engine().ctx().counters();
            let (insts0, fcmla0) = (counters.total(), counters.get(Opcode::Fcmla));
            let mut tr = Tracer::new();
            let id = tr.enter("solver.dist_block_cg");
            let solved = guarded(|| dist_block_cg(&dw, &b, s.tol, s.max_iter));
            tr.exit(id);
            let mut out = RankOut {
                wall: tr.duration_ns(id) as f64 * 1e-9,
                matches: Vec::new(),
                sent: ctx.sent_bytes.get(),
                modeled: dw.modeled_wire_bytes(),
                wait_ns: ctx.wait_ns(),
                flight_ns: ctx.flight_ns(),
                mdagm_calls: dw.dslash_count() / 2,
                insts: counters.total() - insts0,
                fcmla: counters.get(Opcode::Fcmla) - fcmla0,
                mdagm_s: Vec::new(),
                norm_s: Vec::new(),
                solved,
            };
            if let (Ok((x, _)), Some(refs)) = (&out.solved, reference) {
                out.matches = refs
                    .iter()
                    .enumerate()
                    .map(|(j, global)| {
                        let xj = x.rhs_field(j);
                        ctx.grid.coords().all(|local| {
                            let g = ctx.to_global(&local);
                            (0..NSPIN * NCOLOR).all(|c| {
                                let (a, b) = (xj.peek(&local, c), global.peek(&g, c));
                                a.re.to_bits() == b.re.to_bits() && a.im.to_bits() == b.im.to_bits()
                            })
                        })
                    })
                    .collect();
            }
            if probe {
                let mut ws = DistWorkspace::new(&dw);
                let psi = b.rhs_field(0);
                let mut ap = FermionField::zero(ctx.grid.clone());
                out.mdagm_s = time_each(5, || dw.mdag_m_into(&psi, &mut ws, &mut ap));
                out.norm_s = time_each(21, || {
                    std::hint::black_box(dw.canon_norm2(&psi, &mut ws));
                });
            }
            out
        },
    )
}

/// Check the R = 1 leg: recompute every RHS's true residual with the
/// single-process operator. Returns the global solutions as reference.
fn check_reference(
    seed: u64,
    s: Scale,
    legs: &[RankOut],
    tally: &mut Tally,
) -> Option<Vec<FermionField>> {
    let leg = &legs[0];
    let (x, reps) = match &leg.solved {
        Ok(v) => v,
        Err(e) => {
            tally.record_all_failed(s.nrhs, "R=1 rhs", e);
            return None;
        }
    };
    let g = x.grid().clone();
    let op = WilsonDirac::new_two_row(random_gauge(g.clone(), derive(seed, 21)), MASS);
    let wire = if leg.sent == leg.modeled {
        Ok(())
    } else {
        Err(format!("sent {} B, modeled {} B", leg.sent, leg.modeled))
    };
    let sols: Vec<FermionField> = (0..s.nrhs).map(|j| x.rhs_field(j)).collect();
    for (j, (xj, rep)) in sols.iter().zip(reps).enumerate() {
        let b = FermionField::random(g.clone(), derive(seed, 300 + j as u64));
        let v = guarded(|| judge_residual(rep.converged, rel_residual(&b, &op.mdag_m(xj)), s.tol))
            .and_then(|v| v)
            .and(wire.clone());
        tally.record(&format!("R=1 rhs {j}"), v);
    }
    Some(sols)
}

/// Check a multi-rank leg: every rank's solution bit-identical to R = 1
/// and measured wire bytes equal to the pinned model on every rank.
fn check_leg(s: Scale, legs: &[RankOut], label: &str, tally: &mut Tally) {
    for j in 0..s.nrhs {
        let v = legs.iter().enumerate().try_for_each(|(rank, l)| {
            if let Err(e) = &l.solved {
                return Err(format!("rank {rank}: {e}"));
            }
            if l.matches.get(j) != Some(&true) {
                return Err(format!("rank {rank}: solution differs from R=1"));
            }
            if l.sent != l.modeled {
                return Err(format!(
                    "rank {rank}: sent {} B, modeled {} B",
                    l.sent, l.modeled
                ));
            }
            Ok(())
        });
        tally.record(&format!("{label} rhs {j}"), v);
    }
}

fn slowest(legs: &[RankOut]) -> f64 {
    legs.iter().map(|l| l.wall).fold(0.0, f64::max)
}

/// The R = 1, one-thread leg: the baseline and the reference solutions.
fn baseline(
    seed: u64,
    s: Scale,
    tally: &mut Tally,
    probe: bool,
) -> (f64, Option<Vec<FermionField>>, Vec<RankOut>) {
    let legs = with_threads(1, || campaign(seed, s, 1, None, probe));
    let refs = check_reference(seed, s, &legs, tally);
    (slowest(&legs), refs, legs)
}

/// Untraced run: interleaved set-up (fabric, inputs, ghost exchange),
/// R = 1 single-thread legs and R-rank legs (one rayon thread per rank) for
/// `seconds`. Every R = 1 leg must reproduce the first one bit for bit,
/// and every R-rank leg the R = 1 solutions.
pub fn run(seed: u64, seconds: f64, s: Scale) -> Report {
    let mut r = Report::new("multirank", false);
    let tally = &mut r.tally;
    let mut refs: Option<Vec<FermionField>> = None;
    let m = probes::measure(
        seconds,
        s.ranks,
        || setup_once(seed, s),
        |_, threads| {
            if threads == 1 {
                let (wall, sols, legs) = baseline(seed, s, tally, false);
                match (&refs, sols) {
                    (None, Some(sols)) => refs = Some(sols),
                    (Some(first), Some(sols))
                        if !first
                            .iter()
                            .zip(&sols)
                            .all(|(a, b)| same_bits(a.data(), b.data())) =>
                    {
                        tally.record(
                            "R=1 repeat",
                            Err("R=1 solutions differ between repetitions".into()),
                        );
                    }
                    _ => {}
                }
                legs[0].solved.is_ok().then_some(wall)
            } else {
                let legs = with_threads(1, || campaign(seed, s, s.ranks, refs.as_deref(), false));
                check_leg(s, &legs, "R=2", tally);
                legs.iter()
                    .all(|l| l.solved.is_ok())
                    .then(|| slowest(&legs))
            }
        },
    );
    probes::end_to_end(&mut r, &m);
    r
}

/// Traced run of the comms and dist layers: the R = 1 baseline, an
/// untraced R-rank campaign as the reference, and a traced one with
/// per-rank spans and probes (bit-identical histories required).
pub fn traced_core(seed: u64, s: Scale) -> Report {
    let mut r = Report::new("multirank", true);
    let (base, refs, legs1) = baseline(seed, s, &mut r.tally, true);
    let untraced = with_threads(1, || campaign(seed, s, s.ranks, refs.as_deref(), false));
    check_leg(s, &untraced, "R=2", &mut r.tally);
    let traced = with_threads(1, || campaign(seed, s, s.ranks, refs.as_deref(), true));
    check_leg(s, &traced, "traced R=2", &mut r.tally);

    let histories = |legs: &[RankOut]| -> Option<Vec<Vec<f64>>> {
        let (_, reps) = legs[0].solved.as_ref().ok()?;
        Some(reps.iter().map(|p| p.history.clone()).collect())
    };
    let same = match (histories(&untraced), histories(&traced)) {
        (Some(a), Some(b)) => a.len() == b.len() && a.iter().zip(&b).all(|(x, y)| same_bits(x, y)),
        _ => false,
    };
    if !same {
        r.invalid
            .push("traced distributed solve diverged from the untraced one".into());
    }

    let wall = slowest(&traced);
    let untraced_wall = slowest(&untraced);
    let n = s.nrhs as f64;
    let calls = traced[0].mdagm_calls as f64;
    // The slowest rank sets the pace: take the rank with the largest median.
    let slowest_probe = |f: fn(&RankOut) -> &Vec<f64>| -> Vec<f64> {
        traced
            .iter()
            .map(f)
            .max_by(|a, b| median(a).total_cmp(&median(b)))
            .cloned()
            .unwrap_or_default()
    };
    let (mdagm_r2, norm_r2) = (slowest_probe(|l| &l.mdagm_s), slowest_probe(|l| &l.norm_s));
    let iters: usize = traced[0]
        .solved
        .as_ref()
        .map_or(0, |(_, reps)| reps.iter().map(|p| p.iterations).sum());
    let insts: u64 = traced.iter().map(|l| l.insts).sum();
    let fcmla: u64 = traced.iter().map(|l| l.fcmla).sum();
    let (wait, flight): (u64, u64) = traced
        .iter()
        .fold((0, 0), |a, l| (a.0 + l.wait_ns, a.1 + l.flight_ns));
    let overlap = if flight == 0 {
        1.0
    } else {
        flight.saturating_sub(wait) as f64 / flight as f64
    };
    // The distributed CG loop is internal: M†M calls are the program's
    // sweep counter, timed by a per-call probe on the slowest rank.
    let dirac_s = calls * median(&mdagm_r2);
    r.push(Metric::one(
        "sve.insts_per_unit",
        insts as f64 / n,
        Class::Count,
    ));
    r.push(Metric::one(
        "sve.fcmla_per_unit",
        fcmla as f64 / n,
        Class::Count,
    ));
    r.push(Metric::one("dirac.mdagm_calls", calls, Class::Count));
    r.push(Metric::one("dirac.mdagm_self_s", dirac_s, Class::Estimated));
    r.push(Metric::one("dirac.share", dirac_s / wall, Class::Estimated));
    r.push(Metric::one("solver.iters", iters as f64, Class::Count));
    r.push(Metric::one(
        "solver.self_s",
        wall - dirac_s,
        Class::Estimated,
    ));
    r.push(Metric::one(
        "solver.share",
        (wall - dirac_s) / wall,
        Class::Estimated,
    ));
    r.push(Metric::one(
        "comms.wire_bytes",
        traced.iter().map(|l| l.sent).sum::<usize>() as f64,
        Class::Count,
    ));
    r.push(scaled("dist.mdagm_us_r1", &legs1[0].mdagm_s, |t| t * 1e6));
    r.push(scaled("dist.mdagm_us_r2", &mdagm_r2, |t| t * 1e6));
    r.push(scaled("dist.allreduce_us", &norm_r2, |t| t * 1e6));
    r.push(Metric::one(
        "comms.strong_scaling_r2",
        base / untraced_wall,
        Class::Measured,
    ));
    r.push(Metric::one(
        "comms.wait_s_reported",
        wait as f64 * 1e-9,
        Class::Model,
    ));
    r.push(Metric::one(
        "comms.overlap_eff_reported",
        overlap,
        Class::Model,
    ));
    r.push(Metric::one(
        "trace.overhead",
        wall / untraced_wall,
        Class::Measured,
    ));
    // The reported model: the R = 1 work splits evenly over the ranks and
    // only the reported exposed wait adds to it.
    let ranks = s.ranks as f64;
    let predicted = base / (base / ranks + wait as f64 * 1e-9 / ranks);
    r.findings.push(format!(
        "comms overlap: model (reported overlap efficiency {overlap:.3}, exposed wait {:.4} s per rank) \
         predicts strong scaling {predicted:.2}x at R={}; measured R=1 (1 thread) over R={} (1 thread \
         per rank) = {:.3}x",
        wait as f64 * 1e-9 / ranks,
        s.ranks,
        s.ranks,
        base / untraced_wall
    ));
    r
}
