//! Shared settings, timing helpers, and the layer probes every traced run
//! makes on its workload's lattice.

use crate::report::{Class, Metric, Report};
use grid::dirac::{FUSED_MASS_AXPY_FLOPS_PER_SITE, HOPPING_FLOPS_PER_SITE};
use grid::prelude::*;
use grid::{Coor, FermionField, NCOLOR, NSPIN};
use rayon::prelude::*;
use std::hint::black_box;
use std::time::Instant;
use sve::F16;

/// Vector length every workload runs at.
pub const VL_BITS: usize = 512;
/// Bare quark mass of every Wilson operator.
pub const MASS: f64 = 0.1;
/// Worker threads of the single-process workloads.
pub const THREADS: usize = 2;
/// A solve passes its check when the recomputed true residual is within
/// this factor of the requested tolerance (the recurrence residual drifts a
/// little from the true one).
pub const RESIDUAL_SLACK: f64 = 10.0;
/// Builds of a workload's inputs per measurement round (set-up is cheap
/// and noisy, so it is sampled many times across the whole run).
pub const SETUP_REPS: usize = 11;
/// Fewest rounds of the untraced measurement loop.
pub const MIN_ROUNDS: usize = 2;

/// The vector length as the library's type.
pub fn vl() -> VectorLength {
    VectorLength::of(VL_BITS)
}

/// Complex arithmetic backend of every workload.
pub fn backend() -> SimdBackend {
    SimdBackend::Fcmla
}

/// Derive an input seed from the workload seed and a per-input tag.
pub fn derive(seed: u64, tag: u64) -> u64 {
    let mut z = seed ^ tag.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Run `f` with the rayon shim fixed to `n` worker threads.
pub fn with_threads<T>(n: usize, f: impl FnOnce() -> T) -> T {
    let prev = rayon::current_num_threads();
    rayon::set_num_threads(n);
    let out = f();
    rayon::set_num_threads(prev);
    out
}

/// Seconds since `t`.
pub fn secs(t: Instant) -> f64 {
    t.elapsed().as_secs_f64()
}

/// Time `reps` calls of `f` individually, after one untimed warm-up call.
pub fn time_each(reps: usize, mut f: impl FnMut()) -> Vec<f64> {
    f();
    (0..reps)
        .map(|_| {
            let t = Instant::now();
            f();
            secs(t)
        })
        .collect()
}

/// Median of `reps` individually timed calls of `f`, in seconds.
pub fn median_time(reps: usize, f: impl FnMut()) -> f64 {
    crate::stats::median(&time_each(reps, f))
}

/// Set-up, campaign and single-thread baseline times of one untraced run.
#[derive(Default, Debug)]
pub struct Samples {
    /// Wall time of each build of the inputs.
    pub setup: Vec<f64>,
    /// Wall time of each campaign at the workload's thread count.
    pub campaign: Vec<f64>,
    /// Wall time of each single-thread campaign.
    pub baseline: Vec<f64>,
}

/// The untraced measurement loop shared by every workload: rounds of
/// `SETUP_REPS` builds, one single-thread campaign and one campaign at
/// `threads`, repeated for at least `MIN_ROUNDS` rounds and until
/// `seconds` have passed. Interleaving the legs lets host drift hit set-up,
/// baseline and campaign alike; each metric is the median of its samples.
/// `campaign` gets the built state and the thread count and returns the
/// wall time of a campaign whose units all ran (checks excluded).
pub fn measure<S>(
    seconds: f64,
    threads: usize,
    mut build: impl FnMut() -> S,
    mut campaign: impl FnMut(&S, usize) -> Option<f64>,
) -> Samples {
    let t = Instant::now();
    let mut out = Samples::default();
    let mut rounds = 0;
    while rounds < MIN_ROUNDS || secs(t) < seconds {
        let mut state = None;
        for _ in 0..SETUP_REPS {
            drop(state.take());
            let t0 = Instant::now();
            state = Some(black_box(build()));
            out.setup.push(secs(t0));
        }
        let state = state.expect("at least one set-up");
        out.baseline.extend(with_threads(1, || campaign(&state, 1)));
        out.campaign
            .extend(with_threads(threads, || campaign(&state, threads)));
        rounds += 1;
    }
    out
}

/// Memory high-water mark of this process in MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// Fill the end-to-end metrics of an untraced run. A leg with no
/// completed campaign reads NaN, which [`Report::seal`] flags invalid.
pub fn end_to_end(r: &mut Report, m: &Samples) {
    let median = |name, xs: &[f64]| {
        if xs.is_empty() {
            Metric::one(name, f64::NAN, Class::Measured)
        } else {
            Metric::median_of(name, xs, Class::Measured)
        }
    };
    r.push(median("campaign_s", &m.campaign));
    r.push(median("setup_s", &m.setup));
    r.push(Metric::one("peak_rss_mb", peak_rss_mb(), Class::Measured));
    r.push(median("baseline_1t_s", &m.baseline));
}

/// Relative residual `|b − a| / |b|`, summed in plain Rust over the raw
/// field words (independent of the library's reductions).
pub fn rel_residual(b: &FermionField, a: &FermionField) -> f64 {
    let (mut num, mut den) = (0.0f64, 0.0f64);
    for (&bi, &ai) in b.data().iter().zip(a.data()) {
        num += (bi - ai) * (bi - ai);
        den += bi * bi;
    }
    (num / den).sqrt()
}

/// Judge one solve: converged, and true residual within the slack.
pub fn judge_residual(converged: bool, residual: f64, tol: f64) -> Result<(), String> {
    if !converged {
        return Err(format!("did not converge (residual {residual:.3e})"));
    }
    if residual.is_nan() || residual > RESIDUAL_SLACK * tol {
        return Err(format!(
            "true residual {residual:.3e} above {RESIDUAL_SLACK} x tol {tol:.1e}"
        ));
    }
    Ok(())
}

/// Bitwise equality of two f64 sequences.
pub fn same_bits(a: &[f64], b: &[f64]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}

/// Words a D apply streams per site with full links and the fused mass
/// term: 8 links, 8 neighbour spinors, the site's own spinor and the
/// output spinor, in f64.
pub const DSLASH_BYTES_PER_SITE: f64 = ((8 * 18 + 8 * 24 + 24 + 24) * 8) as f64;

/// The layer probes every traced run makes on its workload's lattice:
/// thread dispatch, field BLAS, D apply at 1 and 2 threads and in f16,
/// the cost of opcode counting, and precision conversion.
pub fn layer_probes(r: &mut Report, dims: Coor, seed: u64) {
    let g = Grid::new(dims, vl(), backend());
    let volume = g.volume() as f64;
    let u = random_gauge(g.clone(), derive(seed, 901));
    let op = WilsonDirac::new(u.clone(), MASS);
    let psi = FermionField::random(g.clone(), derive(seed, 902));
    let mut out = FermionField::zero(g.clone());
    let mut tmp = FermionField::zero(g.clone());

    // rayon: an empty two-chunk parallel loop at two threads.
    let mut buf = [0u8; 2];
    let dispatch = with_threads(2, || {
        time_each(201, || {
            buf.par_chunks_mut(1).for_each(|c| {
                black_box(c);
            })
        })
    });
    r.push(scaled("rayon.dispatch_us", &dispatch, |t| t * 1e6));

    // field: reductions and a fused update on a workload-sized field.
    let n1 = with_threads(1, || {
        time_each(51, || {
            black_box(psi.norm2());
        })
    });
    let n2 = with_threads(2, || {
        time_each(51, || {
            black_box(psi.norm2());
        })
    });
    let mut y = psi.clone();
    let mut sign = 1e-3;
    let a2 = with_threads(2, || {
        time_each(51, || {
            sign = -sign;
            black_box(y.axpy_norm2(sign, &psi));
        })
    });
    let field_bytes = volume * (NSPIN * NCOLOR * 2 * 8) as f64;
    r.push(scaled("field.norm2_us_1t", &n1, |t| t * 1e6));
    r.push(scaled("field.norm2_us_2t", &n2, |t| t * 1e6));
    r.push(scaled("field.axpy_norm2_us_2t", &a2, |t| t * 1e6));
    let mut gbs = scaled("field.gbytes_per_s_computed", &n2, |t| {
        field_bytes / t / 1e9
    });
    gbs.class = Class::Computed;
    r.push(gbs);

    // dirac: D apply at 1 and 2 threads, and on the binary16 tier.
    let d1 = with_threads(1, || time_each(7, || op.apply_into(&psi, &mut out)));
    let d2 = with_threads(2, || time_each(9, || op.apply_into(&psi, &mut out)));
    let g16 = Grid::<F16>::new(dims, vl(), backend());
    let op16 = WilsonDirac::<F16>::new(to_precision(&u, &g16), MASS);
    let psi16 = to_precision(&psi, &g16);
    let mut out16 = grid::Field::zero(g16.clone());
    let d16 = with_threads(2, || time_each(9, || op16.apply_into(&psi16, &mut out16)));
    let flops = (HOPPING_FLOPS_PER_SITE + FUSED_MASS_AXPY_FLOPS_PER_SITE) as f64;
    r.push(scaled("dirac.sites_per_s_1t", &d1, |t| volume / t));
    r.push(scaled("dirac.sites_per_s_2t", &d2, |t| volume / t));
    r.push(scaled("dirac.f16.sites_per_s", &d16, |t| volume / t));
    let mut gf = scaled("dirac.gflops_computed", &d2, |t| volume / t * flops / 1e9);
    gf.class = Class::Computed;
    r.push(gf);
    r.push(Metric::one(
        "dirac.bytes_per_site_computed",
        DSLASH_BYTES_PER_SITE,
        Class::Computed,
    ));

    // sve: a fixed-count M†M probe with opcode counting on vs off,
    // alternating so host drift hits both legs alike.
    let counters = g.engine().ctx().counters();
    let (mut on, mut off) = (Vec::new(), Vec::new());
    with_threads(2, || {
        op.mdag_m_into(&psi, &mut tmp, &mut out);
        for _ in 0..7 {
            for enabled in [true, false] {
                counters.set_enabled(enabled);
                let t = Instant::now();
                for _ in 0..3 {
                    op.mdag_m_into(&psi, &mut tmp, &mut out);
                }
                (if enabled { &mut on } else { &mut off }).push(secs(t));
            }
        }
    });
    counters.set_enabled(true);
    let ratios: Vec<f64> = on.iter().zip(&off).map(|(a, b)| a / b).collect();
    r.push(Metric::median_of(
        "sve.count_overhead_2t",
        &ratios,
        Class::Measured,
    ));

    // mixed: f64 → binary16 conversion of a workload-sized fermion field.
    let mut conv = grid::Field::zero(g16);
    let c = with_threads(2, || time_each(51, || to_precision_into(&psi, &mut conv)));
    r.push(scaled("mixed.convert_us", &c, |t| t * 1e6));
}

/// A measured metric: the median of per-call times mapped through `f`
/// (a monotone map, so it commutes with the median).
pub fn scaled(name: &'static str, times: &[f64], f: impl Fn(f64) -> f64) -> Metric {
    let xs: Vec<f64> = times.iter().map(|&t| f(t)).collect();
    Metric::median_of(name, &xs, Class::Measured)
}

/// Per-call time of one M†M application in each ladder precision at two
/// threads, in seconds: `(f16, f32)`.
pub fn mdagm_call_s(dims: Coor, seed: u64) -> (f64, f64) {
    let g = Grid::new(dims, vl(), backend());
    let u = random_gauge(g.clone(), derive(seed, 903));
    let psi = FermionField::random(g.clone(), derive(seed, 904));
    fn time_tier<E: sve::SveFloat>(u: &grid::GaugeField, psi: &FermionField, dims: Coor) -> f64 {
        let g = Grid::<E>::new(dims, vl(), backend());
        let op = WilsonDirac::<E>::new(to_precision(u, &g), MASS);
        let p = to_precision(psi, &g);
        let mut tmp = grid::Field::zero(g.clone());
        let mut out = grid::Field::zero(g);
        with_threads(2, || {
            median_time(7, || op.mdag_m_into(&p, &mut tmp, &mut out))
        })
    }
    (
        time_tier::<F16>(&u, &psi, dims),
        time_tier::<f32>(&u, &psi, dims),
    )
}
