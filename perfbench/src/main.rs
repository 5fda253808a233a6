//! `perfbench --workload <name|all> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Runs one workload (or every workload, each in its own process), checks
//! every unit of work, prints a table of every metric with its unit, class
//! and sample count, and ends with a one-line JSON result.

use lqcd_perfbench::{run_workload, Scales, WORKLOADS};
use std::path::PathBuf;
use std::process::{Command, ExitCode, Stdio};

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

const USAGE: &str = "usage: perfbench --workload <propagator|ladder|hmc|multirank|all> \
                     --seed <u64> --seconds <s> --trace <0|1>";

fn parse() -> Result<Args, String> {
    let mut a = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let val = it.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => a.workload = val,
            "--seed" => a.seed = val.parse().map_err(|_| format!("bad seed {val}"))?,
            "--seconds" => {
                a.seconds = val.parse().map_err(|_| format!("bad seconds {val}"))?;
                if !(a.seconds > 0.0 && a.seconds.is_finite()) {
                    return Err(format!("bad seconds {val}"));
                }
            }
            "--trace" => {
                a.trace = match val.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad trace {val}")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if a.workload != "all" && !WORKLOADS.contains(&a.workload.as_str()) {
        return Err(format!("unknown workload '{}'", a.workload));
    }
    Ok(a)
}

/// Every workload in its own child process, so a crash or a failed check
/// in one does not stop the others. Metrics are prefixed with the workload.
fn run_all(a: &Args) -> ExitCode {
    let exe = std::env::current_exe().expect("own executable path");
    let (mut correct, mut attempted, mut failed, mut metrics) = (true, 0u64, 0u64, Vec::new());
    for w in WORKLOADS {
        let out = Command::new(&exe)
            .args(["--workload", w, "--seed", &a.seed.to_string()])
            .args([
                "--seconds",
                &a.seconds.to_string(),
                "--trace",
                if a.trace { "1" } else { "0" },
            ])
            .stderr(Stdio::inherit())
            .output();
        let stdout = out
            .as_ref()
            .map(|o| String::from_utf8_lossy(&o.stdout).into_owned())
            .unwrap_or_default();
        print!("{stdout}");
        let last = stdout.lines().last().unwrap_or("");
        match qcd_trace::Json::parse(last) {
            Ok(doc) if out.as_ref().is_ok_and(|o| o.status.success()) => {
                correct &= doc
                    .get("correct")
                    .is_some_and(|c| matches!(c, qcd_trace::Json::Bool(true)));
                attempted += doc.get("attempted").and_then(|v| v.as_u64()).unwrap_or(0);
                failed += doc.get("failed").and_then(|v| v.as_u64()).unwrap_or(0);
                for (name, m) in doc.get("metrics").and_then(|m| m.as_obj()).unwrap_or(&[]) {
                    metrics.push(format!("\"{w}.{name}\": {}", m.render()));
                }
            }
            _ => {
                println!("# workload {w} produced no result");
                correct = false;
                attempted += 1;
                failed += 1;
            }
        }
    }
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        attempted.max(1),
        metrics.join(", ")
    );
    ExitCode::SUCCESS
}

fn main() -> ExitCode {
    let a = match parse() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if a.workload == "all" {
        return run_all(&a);
    }
    // Checkpoints go under the working directory (the checkout) and are
    // removed afterwards.
    let scratch = PathBuf::from(".perfbench_tmp").join(std::process::id().to_string());
    let report = run_workload(
        &a.workload,
        a.seed,
        a.seconds,
        a.trace,
        &scratch,
        &Scales::PRODUCTION,
    )
    .expect("workload validated");
    let _ = std::fs::remove_dir_all(&scratch);
    let _ = std::fs::remove_dir(".perfbench_tmp");
    print!("{}", report.render_table());
    println!("{}", report.render_json());
    ExitCode::SUCCESS
}
