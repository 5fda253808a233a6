//! Golden-bits contract of every Conjugate Gradient entry point.
//!
//! Each case solves a fixed problem on a 4⁴ lattice and reduces the outcome
//! to a fingerprint: iteration counts, the bits of the residual history
//! (length and FNV-1a hash), the bits of the reported residual, a hash of
//! the solution words in global lexicographic order, the typed health
//! events, and the total number of SVE instructions the solve retired on
//! the operator's context. The expected fingerprints are recorded
//! constants: any change to a recurrence scalar, a reduction order, a
//! sweep's op sequence or the health wiring of any solver fails here.
//!
//! The file also pins one cross-path equality: distributed CG at one and
//! two ranks reproduces the single-process canonical CG bit for bit.

use std::path::PathBuf;
use std::sync::Arc;

use grid::layout::lex;
use grid::prelude::*;
use grid::Coor;
use qcd_deflate::{
    coarse_pcg, coarse_pcg_smoothed, defl_block_cg, defl_cg, lanczos, CoarseSpace, F16Smoother,
    LanczosParams, Subspace,
};
use qcd_metrics::HealthEvent;

const DIMS: Coor = [4, 4, 4, 4];
const VL: VectorLength = VectorLength::of(256);
const MASS: f64 = 0.3;
const TOL: f64 = 1e-10;

/// Recorded fingerprints, one per solve (block solves: one per RHS).
const GOLDEN: &[(&str, &str)] = &[
    (
        "cg",
        "it=43 hist=44/4626a16e8b75db51 res=3dd9d753d84d8d06 x=95e217d2eddbfdc2 health=[] insts=9443505",
    ),
    (
        "cg_op",
        "it=43 hist=44/4626a16e8b75db51 res=3dd9d753d84d8d06 x=95e217d2eddbfdc2 health=[] insts=9506449",
    ),
    (
        "cg_canonical_ws",
        "it=43 hist=44/5a989e03c3aa5d87 res=3dd9d753cdef7019 x=791c4c1c4b70cd0a health=[] insts=10561841",
    ),
    (
        "dist_cg[R=1]",
        "it=43 hist=44/5a989e03c3aa5d87 res=3dd9d753cdef7019 x=791c4c1c4b70cd0a health=[] insts=10561841",
    ),
    (
        "dist_cg[R=2]",
        "it=43 hist=44/5a989e03c3aa5d87 res=3dd9d753cdef7019 x=791c4c1c4b70cd0a health=[] insts=10900066",
    ),
    (
        "block_cg[0]",
        "it=43 conv=true hist=44/4626a16e8b75db51 res=3dd9d753d84d8d06 x=95e217d2eddbfdc2 health=[] insts=26524979",
    ),
    (
        "block_cg[1]",
        "it=43 conv=true hist=44/24ac156d50afc902 res=3dd9dbbf65e28a10 x=4d16022d5e845df4 health=[] insts=26524979",
    ),
    (
        "block_cg[2]",
        "it=39 conv=true hist=40/21b4800fea3c9195 res=3dd20949f36c18bd x=18e9248429e18197 health=[] insts=26524979",
    ),
    (
        "defl_cg",
        "it=43 hist=44/8cad3ebbce3f0151 res=3dd8474496e90302 x=620116687df4035c health=[] insts=9452481",
    ),
    (
        "defl_block_cg[0]",
        "it=43 conv=true hist=44/8cad3ebbce3f0151 res=3dd8474496e90302 x=620116687df4035c health=[] insts=18035410",
    ),
    (
        "defl_block_cg[1]",
        "it=43 conv=true hist=44/a66aea131268b0c1 res=3dd754d0126585e5 x=e2f729f049111879 health=[] insts=18035410",
    ),
    (
        "coarse_pcg",
        "it=84 hist=85/07f2ca3898e151df res=3dd54f0fbde0319f x=0c75667c3e66a7af health=[] insts=18091215",
    ),
    (
        "coarse_pcg_smoothed",
        "it=73 hist=74/9bbc693b030a8184 res=3dd7232d3fe26d5a x=96ca23722e785c78 health=[] insts=16643988",
    ),
    (
        "cg_dwf",
        "it=40 hist=41/1580512b4d6eeb64 res=3edfb24eb721ff65 x=88a4fc86b9f5fd6d health=[] insts=19731236",
    ),
    (
        "ladder_solve[new]",
        "outer=2 f16=44 f32=0 ru=4 fb=0 f16_exit=true conv=true res=3de38cda0a8fe700 outer_hist=3/6133ecab63528cb7 inner_hist=48/0b892bd181e22ba8 x=03334dcacbcfa712 health=[] insts=2620362/527264/316614",
    ),
    (
        "ladder_solve[f32_only]",
        "outer=2 f16=0 f32=35 ru=0 fb=0 f16_exit=false conv=true res=3e3a0ef477eb3340 outer_hist=3/9d68dad84e9034c9 inner_hist=37/f8a0951da41ad690 x=9a8a8d4e54892fa1 health=[] insts=0/4059909/316614",
    ),
    (
        "ladder_solve[fallback]",
        "outer=2 f16=55 f32=35 ru=0 fb=1 f16_exit=false conv=true res=3e3a0ef477eb3340 outer_hist=3/9d68dad84e9034c9 inner_hist=93/0ffa2ba679ba5b18 x=9a8a8d4e54892fa1 health=[stall@55:3ec4737a6b9491e1] insts=3059720/4161674/316614",
    ),
    (
        "cg_checkpointed[killed]",
        "it=12 hist=13/cc990d1dd078e7ff res=3f5a92260d6111da x=0000000000000000 health=[] insts=2807896 snapshots=2",
    ),
    (
        "cg_checkpointed[resumed]",
        "it=43 hist=44/4626a16e8b75db51 res=3dd9d753d84d8d06 x=95e217d2eddbfdc2 health=[] insts=7339531 snapshots=6",
    ),
];

fn golden(name: &str) -> &'static str {
    GOLDEN
        .iter()
        .find(|(n, _)| *n == name)
        .map(|(_, fp)| *fp)
        .unwrap_or_else(|| panic!("no golden fingerprint recorded for {name}"))
}

fn check(name: &str, got: &str) {
    assert_eq!(got, golden(name), "{name}: fingerprint moved");
}

/// FNV-1a over a word stream.
fn fnv(words: impl IntoIterator<Item = u64>) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for w in words {
        for byte in w.to_le_bytes() {
            h ^= byte as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

fn history_fp(history: &[f64]) -> String {
    format!(
        "{}/{:016x}",
        history.len(),
        fnv(history.iter().map(|h| h.to_bits()))
    )
}

fn health_fp(events: &[HealthEvent]) -> String {
    let parts: Vec<String> = events
        .iter()
        .map(|e| {
            format!(
                "{}@{}:{:016x}",
                e.kind.name(),
                e.iteration,
                e.rel_residual.to_bits()
            )
        })
        .collect();
    format!("[{}]", parts.join(","))
}

/// `(global lex site, comp, re bits, im bits)` of a field whose sites sit
/// at `to_global(local)` in the global lattice `dims`.
fn site_words(
    f: &FermionField,
    dims: &Coor,
    to_global: impl Fn(&Coor) -> Coor,
) -> Vec<(usize, usize, u64, u64)> {
    let mut out = Vec::new();
    for x in f.grid().coords() {
        let g = to_global(&x);
        for comp in 0..12 {
            let v = f.peek(&x, comp);
            out.push((lex(&g, dims), comp, v.re.to_bits(), v.im.to_bits()));
        }
    }
    out
}

fn words_hash(mut words: Vec<(usize, usize, u64, u64)>) -> u64 {
    words.sort_unstable();
    fnv(words.into_iter().flat_map(|(_, _, re, im)| [re, im]))
}

fn field_hash(f: &FermionField) -> u64 {
    words_hash(site_words(f, &f.grid().fdims(), |x| *x))
}

fn solve_fp(rep: &SolveReport, x_hash: u64, insts: u64) -> String {
    format!(
        "it={} hist={} res={:016x} x={:016x} health={} insts={}",
        rep.iterations,
        history_fp(&rep.history),
        rep.residual.to_bits(),
        x_hash,
        health_fp(&rep.health),
        insts
    )
}

fn block_fps(rep: &BlockSolveReport, x: &FermionBlock, insts: u64) -> Vec<String> {
    (0..x.nrhs())
        .map(|j| {
            format!(
                "it={} conv={} hist={} res={:016x} x={:016x} health={} insts={}",
                rep.per_rhs_iterations[j],
                rep.converged[j],
                history_fp(&rep.histories[j]),
                rep.residuals[j].to_bits(),
                field_hash(&x.rhs_field(j)),
                health_fp(&rep.health[j]),
                insts
            )
        })
        .collect()
}

struct Problem {
    grid: Arc<Grid>,
    u: GaugeField,
    b: FermionField,
}

/// A fresh grid (and with it a fresh instruction counter) per case.
fn problem() -> Problem {
    let grid = Grid::new(DIMS, VL, SimdBackend::Fcmla);
    let u = random_gauge(grid.clone(), 1);
    let b = FermionField::random(grid.clone(), 2);
    Problem { grid, u, b }
}

fn insts(grid: &Grid) -> u64 {
    grid.engine().ctx().counters().total()
}

fn canonical_two_row() -> (FermionField, SolveReport, u64) {
    let pb = problem();
    let op = WilsonDirac::new_two_row(pb.u, MASS);
    let mut ws = SolverWorkspace::new(pb.grid.clone());
    let before = insts(&pb.grid);
    let (x, rep) = cg_canonical_ws(&op, &pb.b, &mut ws, TOL, 500, "golden.canonical");
    (x, rep, insts(&pb.grid) - before)
}

#[test]
fn cg_and_closure_cg_are_pinned() {
    let pb = problem();
    let op = WilsonDirac::new(pb.u.clone(), MASS);
    let before = insts(&pb.grid);
    let (x, rep) = cg(&op, &pb.b, TOL, 500);
    check(
        "cg",
        &solve_fp(&rep, field_hash(&x), insts(&pb.grid) - before),
    );

    let pb = problem();
    let op = WilsonDirac::new(pb.u.clone(), MASS);
    let before = insts(&pb.grid);
    let (x, rep) = cg_op(|p| op.mdag_m(p), &pb.b, TOL, 500);
    check(
        "cg_op",
        &solve_fp(&rep, field_hash(&x), insts(&pb.grid) - before),
    );
}

#[test]
fn canonical_cg_is_pinned_and_equals_distributed_cg_at_one_and_two_ranks() {
    let (x_ref, rep_ref, insts_ref) = canonical_two_row();
    let ref_hash = field_hash(&x_ref);
    check("cg_canonical_ws", &solve_fp(&rep_ref, ref_hash, insts_ref));

    for nranks in [1usize, 2] {
        let mut rank_grid = [1; 4];
        rank_grid[3] = nranks;
        let per_rank = run_multinode_grid(DIMS, rank_grid, VL, SimdBackend::Fcmla, |ctx| {
            let pb = problem();
            let ul = restrict_field(ctx, &pb.u);
            let bl = restrict_field(ctx, &pb.b);
            let dw = DistWilson::new(ctx, ul, MASS, GaugeWire::TwoRow, Compression::None);
            let before = insts(&ctx.grid);
            let (x, rep) = dist_cg(&dw, &bl, TOL, 500);
            let spent = insts(&ctx.grid) - before;
            let words = site_words(&x, &DIMS, |l| ctx.to_global(l));
            (rep, words, spent)
        });
        let rep = &per_rank[0].0;
        let words: Vec<_> = per_rank.iter().flat_map(|r| r.1.clone()).collect();
        let spent: u64 = per_rank.iter().map(|r| r.2).sum();
        let x_hash = words_hash(words);
        for (r, other) in per_rank.iter().enumerate() {
            assert_eq!(other.0.iterations, rep.iterations, "rank {r} iterations");
            assert_eq!(
                other.0.residual.to_bits(),
                rep.residual.to_bits(),
                "rank {r}"
            );
        }
        check(
            &format!("dist_cg[R={nranks}]"),
            &solve_fp(rep, x_hash, spent),
        );

        // Cross-path equality with the single-process canonical solve.
        assert_eq!(rep.iterations, rep_ref.iterations, "R={nranks} iterations");
        assert_eq!(history_fp(&rep.history), history_fp(&rep_ref.history));
        assert_eq!(rep.residual.to_bits(), rep_ref.residual.to_bits());
        assert_eq!(x_hash, ref_hash, "R={nranks} solution bits");
    }
}

#[test]
fn block_cg_with_mixed_convergence_points_is_pinned() {
    let pb = problem();
    let op = WilsonDirac::new(pb.u.clone(), MASS);
    // A right-hand side weighted toward the top of the spectrum has less
    // low-mode content to resolve and converges earlier.
    let smooth_free = op.mdag_m(&op.mdag_m(&pb.b));
    let rhs = vec![
        pb.b.clone(),
        FermionField::random(pb.grid.clone(), 3),
        smooth_free,
    ];
    let block = FermionBlock::from_fields(&rhs);
    let before = insts(&pb.grid);
    let (x, rep) = block_cg(&op, &block, TOL, 500);
    let spent = insts(&pb.grid) - before;
    assert!(
        rep.per_rhs_iterations.iter().any(|&i| i != rep.iterations),
        "the RHS must converge at different iterations: {:?}",
        rep.per_rhs_iterations
    );
    for (j, fp) in block_fps(&rep, &x, spent).iter().enumerate() {
        check(&format!("block_cg[{j}]"), fp);
    }
}

fn subspace(op: &WilsonDirac) -> Subspace {
    let params = LanczosParams {
        nev: 4,
        m: 12,
        tol: 1e-6,
        max_restarts: 30,
    };
    lanczos(op, &params, 7).0
}

#[test]
fn deflated_and_coarse_preconditioned_cg_are_pinned() {
    let pb = problem();
    let op = WilsonDirac::new(pb.u.clone(), MASS);
    let sub = subspace(&op);

    let before = insts(&pb.grid);
    let (x, rep) = defl_cg(&op, &sub, &pb.b, TOL, 500);
    check(
        "defl_cg",
        &solve_fp(&rep, field_hash(&x), insts(&pb.grid) - before),
    );

    let rhs = vec![pb.b.clone(), FermionField::random(pb.grid.clone(), 3)];
    let block = FermionBlock::from_fields(&rhs);
    let before = insts(&pb.grid);
    let (bx, brep) = defl_block_cg(&op, &sub, &block, TOL, 500);
    let spent = insts(&pb.grid) - before;
    for (j, fp) in block_fps(&brep, &bx, spent).iter().enumerate() {
        check(&format!("defl_block_cg[{j}]"), fp);
    }

    let cs = CoarseSpace::build(&op, &sub.vectors, [2, 2, 2, 2]);
    let before = insts(&pb.grid);
    let (x, rep) = coarse_pcg(&op, &cs, &pb.b, TOL, 500);
    check(
        "coarse_pcg",
        &solve_fp(&rep, field_hash(&x), insts(&pb.grid) - before),
    );

    let mut sm = F16Smoother::with_defaults(&op);
    let before = insts(&pb.grid);
    let (x, rep) = coarse_pcg_smoothed(&op, &cs, &mut sm, &pb.b, TOL, 500);
    check(
        "coarse_pcg_smoothed",
        &solve_fp(&rep, field_hash(&x), insts(&pb.grid) - before),
    );
}

#[test]
fn domain_wall_cg_is_pinned() {
    let pb = problem();
    let op = DomainWall::new(pb.u.clone(), 2, 1.8, 0.5);
    let b = Fermion5::random(pb.grid.clone(), 2, 4);
    let before = insts(&pb.grid);
    let (x, rep) = cg_dwf(&op, &b, 1e-8, 40);
    let spent = insts(&pb.grid) - before;
    let x_hash = fnv(x.slices.iter().map(field_hash));
    check("cg_dwf", &solve_fp(&rep, x_hash, spent));
}

fn ladder_fp(rep: &LadderReport, x: &FermionField) -> String {
    format!(
        "outer={} f16={} f32={} ru={} fb={} f16_exit={} conv={} res={:016x} outer_hist={} \
         inner_hist={} x={:016x} health={} insts={}/{}/{}",
        rep.outer_iterations,
        rep.f16_iterations,
        rep.f32_iterations,
        rep.reliable_updates,
        rep.tier_fallbacks,
        rep.f16_active_at_exit,
        rep.converged,
        rep.residual.to_bits(),
        history_fp(&rep.outer_history),
        history_fp(&rep.inner_history),
        field_hash(x),
        health_fp(&rep.health),
        rep.f16_instructions,
        rep.f32_instructions,
        rep.f64_instructions
    )
}

#[test]
fn ladder_solves_are_pinned() {
    // A cycle target below the binary16 floor stalls the f16 recurrence:
    // the health abort demotes the ladder to f32 mid-solve.
    let mut fallback = LadderConfig::new(1e-8);
    fallback.f16_cycle_tol = 1e-7;
    for (name, cfg) in [
        ("ladder_solve[new]", LadderConfig::new(1e-8)),
        ("ladder_solve[f32_only]", LadderConfig::f32_only(1e-8)),
        ("ladder_solve[fallback]", fallback),
    ] {
        let pb = problem();
        let op = WilsonDirac::new(pb.u.clone(), MASS);
        let (x, rep) = ladder_solve(&op, &pb.b, &cfg);
        check(name, &ladder_fp(&rep, &x));
    }
}

#[test]
fn checkpointed_cg_killed_and_resumed_is_pinned() {
    let pb = problem();
    let op = WilsonDirac::new(pb.u.clone(), MASS);
    let apply = |p: &FermionField| op.mdag_m(p);
    let path: PathBuf =
        std::env::temp_dir().join(format!("krylov_golden_{}_cg.qio", std::process::id()));

    // The "killed" run: twelve iterations, a snapshot every five.
    let before = insts(&pb.grid);
    let (_, partial, snapshots) =
        qcd_io::cg_checkpointed(apply, &pb.b, TOL, 12, 5, &path).expect("checkpointed run");
    let spent = insts(&pb.grid) - before;
    assert_eq!(snapshots, 2);
    check(
        "cg_checkpointed[killed]",
        &format!("{} snapshots={snapshots}", solve_fp(&partial, 0, spent)),
    );

    // The restart from disk runs to convergence.
    let before = insts(&pb.grid);
    let (x, resumed, more) =
        qcd_io::resume_cg(apply, &pb.b, TOL, 500, 5, &path).expect("resumed run");
    let spent = insts(&pb.grid) - before;
    let _ = std::fs::remove_file(&path);
    check(
        "cg_checkpointed[resumed]",
        &format!(
            "{} snapshots={more}",
            solve_fp(&resumed, field_hash(&x), spent)
        ),
    );

    // And it retraces the uninterrupted closure-path solve.
    let (x_full, full) = cg_op(apply, &pb.b, TOL, 500);
    assert_eq!(resumed.iterations, full.iterations);
    assert_eq!(history_fp(&resumed.history), history_fp(&full.history));
    assert_eq!(resumed.residual.to_bits(), full.residual.to_bits());
    assert_eq!(field_hash(&x), field_hash(&x_full));
}

#[test]
fn the_golden_table_has_no_stale_entries() {
    let expected = [
        "cg",
        "cg_op",
        "cg_canonical_ws",
        "dist_cg[R=1]",
        "dist_cg[R=2]",
        "block_cg[0]",
        "block_cg[1]",
        "block_cg[2]",
        "defl_cg",
        "defl_block_cg[0]",
        "defl_block_cg[1]",
        "coarse_pcg",
        "coarse_pcg_smoothed",
        "cg_dwf",
        "ladder_solve[new]",
        "ladder_solve[f32_only]",
        "ladder_solve[fallback]",
        "cg_checkpointed[killed]",
        "cg_checkpointed[resumed]",
    ];
    let names: Vec<&str> = GOLDEN.iter().map(|(n, _)| *n).collect();
    assert_eq!(names, expected);
}
