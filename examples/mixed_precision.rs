//! Mixed-precision solving — the production payoff of SVE's vectorized
//! precision conversion (paper, Sections II-C and III-A).
//!
//! Single-precision vectors carry twice the complex lanes, so the f32
//! lattice has twice the virtual nodes per vector; binary16 doubles them
//! again. The reliable-update ladder (`ladder_solve`) keeps the answer at
//! full double precision while retiring the bulk of instructions at a
//! cheaper width. This example contrasts its two recipes on one problem:
//! `LadderConfig::f32_only` (f64 outer loop, f32 inner CG) and
//! `LadderConfig::new` (f64 outer loop, f32 middle tier, binary16 inner CG
//! cycles with reliable updates).
//!
//! ```text
//! cargo run --release --example mixed_precision
//! ```

use grid::prelude::*;

fn main() {
    let dims = [4, 4, 4, 8];
    let vl = VectorLength::of(512);
    let g = Grid::new(dims, vl, SimdBackend::Fcmla);
    println!(
        "Mixed-precision Wilson solve on {dims:?} at VL {vl}\n\
         virtual nodes/vector: f64 {}, f32 {}, f16 {}\n",
        g.lanes_c(),
        Grid::<f32>::new(dims, vl, SimdBackend::Fcmla).lanes_c(),
        Grid::<sve::F16>::new(dims, vl, SimdBackend::Fcmla).lanes_c()
    );

    let op = WilsonDirac::new(random_gauge(g.clone(), 5), 0.3);
    let b = FermionField::random(g.clone(), 6);

    // Reference: pure double precision.
    g.engine().ctx().counters().reset();
    let (x_ref, rep) = solve_wilson(&op, &b, 1e-10, 4000);
    let f64_only = g.engine().ctx().counters().total();
    println!(
        "pure f64 CG  : {} iterations, residual {:.2e}, {:.1}M instructions",
        rep.iterations,
        rep.residual,
        f64_only as f64 / 1e6
    );

    for (name, cfg) in [
        ("f32_only", LadderConfig::f32_only(1e-10)),
        ("new (f16)", LadderConfig::new(1e-10)),
    ] {
        let (x, lrep) = ladder_solve(&op, &b, &cfg);
        println!(
            "\n{name:<12} : {} outer rounds, {} f32 + {} f16 inner iterations, \
             {} reliable updates, residual {:.2e}",
            lrep.outer_iterations,
            lrep.f32_iterations,
            lrep.f16_iterations,
            lrep.reliable_updates,
            lrep.residual
        );
        let total = lrep.f64_instructions + lrep.f32_instructions + lrep.f16_instructions;
        println!(
            "               {:.1}M f64 + {:.1}M f32 + {:.1}M f16 instructions \
             ({:.0}% below double precision)",
            lrep.f64_instructions as f64 / 1e6,
            lrep.f32_instructions as f64 / 1e6,
            lrep.f16_instructions as f64 / 1e6,
            100.0 * (lrep.f32_instructions + lrep.f16_instructions) as f64 / total as f64
        );
        let diff = x.max_abs_diff(&x_ref);
        println!("               agrees with pure f64 to {diff:.2e}");
    }
    println!(
        "\nOn silicon, f32 vectors process 2x the lanes per instruction and\n\
         f16 vectors 4x, so moving the instruction stream to the narrow\n\
         tiers is arithmetic throughput — why Grid templates everything over\n\
         precision and why the port implements vectorized fcvt (paper,\n\
         Section II-C). In this functional model every f16 op round-trips\n\
         through f32 in software, so the f16 recipe is slower in wall time."
    );
}
