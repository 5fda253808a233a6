//! End-to-end and per-layer benchmark of the lqcd-sve stack.
//!
//! Four workloads (see `README.md` in this directory for why each exists
//! and which layer metric predicts which end-to-end change):
//! `propagator`, `ladder`, `hmc` and `multirank`. An untraced run reports
//! the end-to-end metrics; a traced run reports the per-layer metrics from
//! the benchmark's own spans around calls into each layer's public
//! functions, plus probes of single layers.

pub mod hmc;
pub mod ladder;
pub mod multirank;
pub mod probes;
pub mod propagator;
pub mod report;
pub mod stats;
pub mod trace;

use report::Report;
use std::path::Path;

/// Every workload, in the order `--workload all` runs them.
pub const WORKLOADS: &[&str] = &["propagator", "ladder", "hmc", "multirank"];

/// Problem sizes of every workload, and of the one-unit runs that give
/// idle layers their numbers in other workloads' traced runs.
#[derive(Clone, Copy, Debug)]
pub struct Scales {
    /// `propagator` campaign.
    pub propagator: propagator::Scale,
    /// `ladder` campaign.
    pub ladder: ladder::Scale,
    /// `hmc` campaign.
    pub hmc: hmc::Scale,
    /// `multirank` campaign.
    pub multirank: multirank::Scale,
    /// One ladder unit (mixed layer of other workloads).
    pub ladder_unit: ladder::Scale,
    /// One trajectory (hmc and io layers of other workloads).
    pub hmc_unit: hmc::Scale,
    /// One distributed RHS (comms and dist layers of other workloads).
    pub multirank_unit: multirank::Scale,
}

impl Scales {
    /// The benchmark as `BENCHMARK.json` runs it.
    pub const PRODUCTION: Scales = Scales {
        propagator: propagator::Scale::PRODUCTION,
        ladder: ladder::Scale::PRODUCTION,
        hmc: hmc::Scale::PRODUCTION,
        multirank: multirank::Scale::PRODUCTION,
        ladder_unit: ladder::Scale::ONE_UNIT,
        hmc_unit: hmc::Scale::ONE_UNIT,
        multirank_unit: multirank::Scale::ONE_UNIT,
    };
}

/// Run one workload at the given sizes. `scratch` is a directory inside
/// the checkout for checkpoint files. Returns `None` for an unknown name.
pub fn run_workload(
    name: &str,
    seed: u64,
    seconds: f64,
    traced: bool,
    scratch: &Path,
    sc: &Scales,
) -> Option<Report> {
    let (mut r, dims) = match (name, traced) {
        ("propagator", false) => (
            propagator::run(seed, seconds, sc.propagator),
            sc.propagator.dims,
        ),
        ("ladder", false) => (ladder::run(seed, seconds, sc.ladder), sc.ladder.dims),
        ("hmc", false) => (hmc::run(seed, seconds, sc.hmc, scratch), sc.hmc.dims),
        ("multirank", false) => (
            multirank::run(seed, seconds, sc.multirank),
            sc.multirank.dims,
        ),
        ("propagator", true) => (
            propagator::traced_core(seed, sc.propagator),
            sc.propagator.dims,
        ),
        ("ladder", true) => (ladder::traced_core(seed, sc.ladder), sc.ladder.dims),
        ("hmc", true) => (hmc::traced_core(seed, sc.hmc, scratch), sc.hmc.dims),
        ("multirank", true) => (
            multirank::traced_core(seed, sc.multirank),
            sc.multirank.dims,
        ),
        _ => return None,
    };
    if traced {
        probes::layer_probes(&mut r, dims, seed);
        fill_idle_layers(&mut r, seed, scratch, sc);
    }
    r.seal();
    Some(r)
}

/// Layers a workload leaves idle still get their numbers in its traced
/// run, from one unit of the workload that exercises them. Only the idle
/// layers' metrics are taken over; their units count as attempted.
fn fill_idle_layers(r: &mut Report, seed: u64, scratch: &Path, sc: &Scales) {
    let take = |r: &mut Report, other: Report, prefixes: &[&str]| {
        for m in other.metrics {
            if prefixes.iter().any(|p| m.name.starts_with(p)) && !r.has(m.name) {
                r.push(m);
            }
        }
        r.findings.extend(other.findings);
        r.invalid.extend(
            other
                .invalid
                .into_iter()
                .map(|e| format!("{}: {e}", other.workload)),
        );
        r.tally.merge(other.tally);
    };
    if !r.has("mixed.outer_iters") {
        take(r, ladder::traced_core(seed, sc.ladder_unit), &["mixed."]);
    }
    if !r.has("hmc.traj_s") {
        take(
            r,
            hmc::traced_core(seed, sc.hmc_unit, scratch),
            &["hmc.", "io."],
        );
    }
    if !r.has("comms.wire_bytes") {
        take(
            r,
            multirank::traced_core(seed, sc.multirank_unit),
            &["comms.", "dist."],
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use report::{END_TO_END, PER_LAYER};

    /// Toy sizes: the same code paths, small enough for a debug test run.
    const TINY: Scales = Scales {
        propagator: propagator::Scale {
            dims: [4, 4, 4, 4],
            nrhs: 2,
            tol: 1e-6,
            max_iter: 500,
        },
        ladder: ladder::Scale {
            dims: [4, 4, 4, 4],
            nrhs: 1,
            tol: 1e-6,
        },
        hmc: hmc::Scale {
            dims: [4, 4, 4, 4],
            ntraj: 1,
        },
        multirank: multirank::Scale {
            dims: [4, 4, 4, 4],
            nrhs: 1,
            ranks: 2,
            tol: 1e-6,
            max_iter: 500,
        },
        ladder_unit: ladder::Scale {
            dims: [4, 4, 4, 4],
            nrhs: 1,
            tol: 1e-6,
        },
        hmc_unit: hmc::Scale {
            dims: [4, 4, 4, 4],
            ntraj: 1,
        },
        multirank_unit: multirank::Scale {
            dims: [4, 4, 4, 4],
            nrhs: 1,
            ranks: 2,
            tol: 1e-6,
            max_iter: 500,
        },
    };

    fn scratch(tag: &str) -> std::path::PathBuf {
        std::env::temp_dir().join(format!("perfbench-test-{}-{tag}", std::process::id()))
    }

    fn names(r: &Report) -> Vec<&'static str> {
        r.metrics.iter().map(|m| m.name).collect()
    }

    #[test]
    fn every_workload_emits_exactly_the_declared_metrics_and_passes_its_checks() {
        for w in WORKLOADS {
            for traced in [false, true] {
                let dir = scratch(w);
                let r = run_workload(w, 3, 0.01, traced, &dir, &TINY).expect("known workload");
                let _ = std::fs::remove_dir_all(&dir);
                let declared: Vec<&str> = (if traced { PER_LAYER } else { END_TO_END })
                    .iter()
                    .map(|m| m.0)
                    .collect();
                assert_eq!(names(&r), declared, "{w} traced={traced}");
                assert!(
                    r.correct(),
                    "{w} traced={traced}: {:?} {:?}",
                    r.invalid,
                    r.tally.failures
                );
                assert!(r.metrics.iter().all(|m| m.value.is_finite()));
            }
        }
        assert!(run_workload("nope", 3, 0.01, false, &scratch("nope"), &TINY).is_none());
    }

    #[test]
    fn an_iteration_budget_of_one_counts_every_rhs_as_failed() {
        let s = propagator::Scale {
            max_iter: 1,
            ..TINY.propagator
        };
        let st = propagator::setup(5, s);
        let mut tally = report::Tally::default();
        assert!(propagator::campaign(&st, s, &mut tally).is_some());
        assert_eq!((tally.attempted, tally.failed), (2, 2));
        assert_eq!(tally.fail_rate(), 1.0);
        assert!(
            tally.failures[0].contains("did not converge"),
            "{:?}",
            tally.failures
        );
    }

    #[test]
    fn inputs_are_a_function_of_the_seed() {
        let mut a = report::Tally::default();
        let mut b = report::Tally::default();
        let s = TINY.propagator;
        let (_, xa) = propagator::campaign(&propagator::setup(9, s), s, &mut a).unwrap();
        let (_, xb) = propagator::campaign(&propagator::setup(9, s), s, &mut b).unwrap();
        let (_, xc) = propagator::campaign(&propagator::setup(10, s), s, &mut b).unwrap();
        assert!(probes::same_bits(
            xa[0].solution.data(),
            xb[0].solution.data()
        ));
        assert!(!probes::same_bits(
            xa[0].solution.data(),
            xc[0].solution.data()
        ));
    }
}
