//! `hmc`: pure-gauge HMC from a cold start with a checkpoint after every
//! trajectory — force, staples, SU(3) algebra, shifts and I/O, with no
//! Dirac operator and no Krylov solver (the bypass workload for both).

use crate::probes::{self, derive, same_bits, scaled, secs, time_each, with_threads, THREADS};
use crate::report::{guarded, Class, Metric, Report, Tally};
use crate::trace::Tracer;
use grid::prelude::*;
use grid::Coor;
use qcd_hmc::{
    force, refresh_momenta, staple_field, update_links, HmcParams, IntegratorKind, MarkovChain,
};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;
use sve::Opcode;

/// Largest unitarity defect a trajectory may leave on any link.
pub const MAX_UNITARITY_DEVIATION: f64 = 1e-12;
/// Physical band of the average plaquette between the cold start (1) and
/// the β = 5.7 equilibrium (≈ 0.55).
pub const PLAQUETTE_BAND: (f64, f64) = (0.45, 1.0);

/// Problem size of one campaign.
#[derive(Clone, Copy, Debug)]
pub struct Scale {
    /// Lattice extents.
    pub dims: Coor,
    /// Trajectories per campaign.
    pub ntraj: usize,
}

impl Scale {
    /// The benchmark workload.
    pub const PRODUCTION: Scale = Scale {
        dims: [4, 4, 4, 4],
        ntraj: 3,
    };
    /// One trajectory: the hmc and io layers' numbers for other
    /// workloads' traced runs.
    pub const ONE_UNIT: Scale = Scale {
        ntraj: 1,
        ..Scale::PRODUCTION
    };
}

/// β = 5.7, Omelyan, 10 steps of ε = 0.1.
pub const PARAMS: HmcParams = HmcParams {
    beta: 5.7,
    n_steps: 10,
    step_size: 0.1,
    integrator: IntegratorKind::Omelyan,
};

/// The lattice, the chain seed, and where checkpoints go.
pub struct Setup {
    grid: Arc<Grid>,
    chain_seed: u64,
    checkpoint: PathBuf,
}

/// Build the lattice and a cold-start chain (kept for timing; every
/// campaign starts its own fresh chain from the same seed).
pub fn setup(seed: u64, s: Scale, dir: &Path) -> Setup {
    let grid = Grid::new(s.dims, probes::vl(), probes::backend());
    let chain_seed = derive(seed, 7);
    std::hint::black_box(MarkovChain::cold_start(grid.clone(), PARAMS, chain_seed));
    std::fs::create_dir_all(dir).expect("checkpoint directory inside the checkout");
    Setup {
        grid,
        chain_seed,
        checkpoint: dir.join("chain.qio"),
    }
}

/// What one trajectory left behind, for checking after the clock stops.
struct Traj {
    dh: f64,
    accepted: bool,
    plaquette_reported: f64,
    plaquette: f64,
    unitarity: f64,
    saved: Result<u64, String>,
}

/// One campaign: `ntraj` trajectories from the cold start, each followed
/// by `MarkovChain::save`. `span` wraps the step and the save (the traced
/// run opens the benchmark's spans there). Returns the timed wall and the
/// per-trajectory records, or the panic message.
fn campaign_with(
    st: &Setup,
    s: Scale,
    mut span: impl FnMut(&'static str, &mut dyn FnMut()),
) -> Result<(f64, Vec<Traj>, MarkovChain), String> {
    guarded(|| {
        let mut chain = MarkovChain::cold_start(st.grid.clone(), PARAMS, st.chain_seed);
        let mut wall = 0.0;
        let mut out = Vec::with_capacity(s.ntraj);
        for _ in 0..s.ntraj {
            let t = Instant::now();
            let mut rep = None;
            span("hmc.trajectory", &mut || rep = Some(chain.step()));
            let mut saved = None;
            span("io.save", &mut || saved = Some(chain.save(&st.checkpoint)));
            wall += secs(t);
            let rep = rep.expect("trajectory ran");
            out.push(Traj {
                dh: rep.dh,
                accepted: rep.accepted,
                plaquette_reported: rep.plaquette,
                plaquette: average_plaquette(chain.links()),
                unitarity: max_unitarity_deviation(chain.links()),
                saved: saved
                    .expect("save ran")
                    .map_err(|e| format!("save failed: {e}")),
            });
        }
        (wall, out, chain)
    })
}

/// Check every trajectory of a campaign into `tally`: finite ΔH,
/// unitarity, plaquette band, a successful save that loads back
/// bit-identically, and the accept sequence of the first campaign.
fn check(
    st: &Setup,
    trajs: &[Traj],
    chain: &MarkovChain,
    reference: &mut Option<Vec<bool>>,
    tally: &mut Tally,
) {
    let accepts: Vec<bool> = trajs.iter().map(|t| t.accepted).collect();
    let reference = reference.get_or_insert_with(|| accepts.clone());
    let reload = match MarkovChain::load(&st.checkpoint, &st.grid) {
        Ok((back, _))
            if back.trajectory() == chain.trajectory()
                && same_bits(back.links().data(), chain.links().data()) =>
        {
            Ok(())
        }
        Ok(_) => Err("reloaded checkpoint differs from the chain".to_string()),
        Err(e) => Err(format!("checkpoint does not load: {e}")),
    };
    for (k, t) in trajs.iter().enumerate() {
        let last = k + 1 == trajs.len();
        let v = if !t.dh.is_finite() {
            Err(format!("dH = {}", t.dh))
        } else if t.unitarity.is_nan() || t.unitarity > MAX_UNITARITY_DEVIATION {
            Err(format!("unitarity deviation {:.3e}", t.unitarity))
        } else if !(PLAQUETTE_BAND.0..=PLAQUETTE_BAND.1).contains(&t.plaquette) {
            Err(format!(
                "plaquette {} outside {:?}",
                t.plaquette, PLAQUETTE_BAND
            ))
        } else if (t.plaquette - t.plaquette_reported).abs() > 1e-10 {
            Err(format!(
                "reported plaquette {} vs recomputed {}",
                t.plaquette_reported, t.plaquette
            ))
        } else if reference.get(k) != Some(&t.accepted) {
            Err("accept sequence differs from the run's first campaign".into())
        } else if let Err(e) = &t.saved {
            Err(e.clone())
        } else if last {
            reload.clone()
        } else {
            Ok(())
        };
        tally.record(&format!("trajectory {}", k + 1), v);
    }
}

/// One untraced campaign, checked.
fn campaign(
    st: &Setup,
    s: Scale,
    reference: &mut Option<Vec<bool>>,
    tally: &mut Tally,
) -> Option<(f64, Vec<Traj>)> {
    match campaign_with(st, s, |_, f| f()) {
        Ok((wall, trajs, chain)) => {
            check(st, &trajs, &chain, reference, tally);
            Some((wall, trajs))
        }
        Err(e) => {
            tally.record_all_failed(s.ntraj, "trajectory", &e);
            None
        }
    }
}

/// Untraced run: interleaved set-up, single-thread and two-thread
/// campaigns for `seconds`. The accept sequence must be the same in every
/// campaign, whatever its thread count.
pub fn run(seed: u64, seconds: f64, s: Scale, dir: &Path) -> Report {
    let mut r = Report::new("hmc", false);
    let tally = &mut r.tally;
    let mut reference = None;
    let m = probes::measure(
        seconds,
        THREADS,
        || setup(seed, s, dir),
        |st, _| campaign(st, s, &mut reference, tally).map(|c| c.0),
    );
    probes::end_to_end(&mut r, &m);
    r
}

/// Traced run of the hmc and io layers: an untraced reference campaign,
/// the same calls under the benchmark's spans (bit-identical ΔH and accept
/// sequence required), and force / staple / link-update probes.
pub fn traced_core(seed: u64, s: Scale, dir: &Path) -> Report {
    let mut r = Report::new("hmc", true);
    let st = setup(seed, s, dir);
    with_threads(THREADS, || {
        let mut reference = None;
        let Some((untraced_wall, ref_trajs)) = campaign(&st, s, &mut reference, &mut r.tally)
        else {
            r.invalid.push("untraced reference campaign failed".into());
            return;
        };
        let counters = st.grid.engine().ctx().counters();
        let (insts0, fcmla0) = (counters.total(), counters.get(Opcode::Fcmla));
        let mut tr = Tracer::new();
        let root = tr.enter("campaign");
        let traced = campaign_with(&st, s, |name, f| tr.scope(name, |_| f()));
        tr.exit(root);
        let (insts, fcmla) = (
            counters.total() - insts0,
            counters.get(Opcode::Fcmla) - fcmla0,
        );
        let Ok((_, trajs, chain)) = traced else {
            r.tally
                .record_all_failed(s.ntraj, "traced trajectory", "panicked");
            r.invalid.push("traced campaign failed".into());
            return;
        };
        check(&st, &trajs, &chain, &mut reference, &mut r.tally);
        let dh = |ts: &[Traj]| ts.iter().map(|t| t.dh).collect::<Vec<_>>();
        let acc = |ts: &[Traj]| ts.iter().map(|t| t.accepted).collect::<Vec<_>>();
        if !same_bits(&dh(&trajs), &dh(&ref_trajs)) || acc(&trajs) != acc(&ref_trajs) {
            r.invalid
                .push("traced trajectories diverged from the untraced ones".into());
        }

        let campaign_s = tr.duration_ns(root) as f64 * 1e-9;
        let n = s.ntraj as f64;
        let saves = tr.durations_s("io.save");
        let bytes = trajs.last().and_then(|t| t.saved.clone().ok()).unwrap_or(0) as f64;
        let mb_s: Vec<f64> = saves.iter().map(|t| bytes / t / 1e6).collect();
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
        // No Dirac operator and no Krylov solver run here: the bypass.
        for name in ["dirac.mdagm_calls", "solver.iters"] {
            r.push(Metric::one(name, 0.0, Class::Count));
        }
        for name in [
            "dirac.mdagm_self_s",
            "dirac.share",
            "solver.self_s",
            "solver.share",
        ] {
            r.push(Metric::one(name, 0.0, Class::Measured));
        }
        r.push(Metric::median_of(
            "hmc.traj_s",
            &tr.durations_s("hmc.trajectory"),
            Class::Measured,
        ));
        let accepted = trajs.iter().filter(|t| t.accepted).count() as f64;
        r.push(Metric::one("hmc.acceptance", accepted / n, Class::Count));
        r.push(Metric::median_of("io.save_s", &saves, Class::Measured));
        r.push(Metric::one("io.bytes_per_save", bytes, Class::Count));
        r.push(Metric::median_of("io.mb_per_s", &mb_s, Class::Measured));
        r.push(Metric::one(
            "trace.overhead",
            campaign_s / untraced_wall,
            Class::Measured,
        ));

        let u = chain.links().clone();
        let p = refresh_momenta(st.grid.clone(), derive(seed, 8));
        let f_s = time_each(5, || {
            std::hint::black_box(force(&u, PARAMS.beta));
        });
        let s_s = time_each(5, || {
            std::hint::black_box(staple_field(&u));
        });
        let mut v = u.clone();
        let mut eps = 1e-3;
        let l_s = time_each(5, || {
            eps = -eps;
            update_links(&mut v, &p, eps);
        });
        r.push(scaled("hmc.force_us", &f_s, |t| t * 1e6));
        r.push(scaled("hmc.staple_us", &s_s, |t| t * 1e6));
        r.push(scaled("hmc.update_links_us", &l_s, |t| t * 1e6));
    });
    r
}
