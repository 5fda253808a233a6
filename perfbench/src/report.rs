//! Metric records, unit accounting, and the two output forms: a table of
//! every metric with its unit, class and sample count, and the one-line
//! JSON result the benchmark ends with.

use std::panic::{catch_unwind, AssertUnwindSafe};

/// Every end-to-end metric, with its unit. Emitted by every untraced run.
pub const END_TO_END: &[(&str, &str)] = &[
    ("campaign_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("baseline_1t_s", "s"),
];

/// Every per-layer metric, with its unit. Emitted by every traced run.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("sve.insts_per_unit", "count"),
    ("sve.fcmla_per_unit", "count"),
    ("sve.count_overhead_2t", "ratio"),
    ("rayon.dispatch_us", "us"),
    ("dirac.mdagm_calls", "count"),
    ("dirac.mdagm_self_s", "s"),
    ("dirac.share", "ratio"),
    ("dirac.sites_per_s_1t", "1/s"),
    ("dirac.sites_per_s_2t", "1/s"),
    ("dirac.f16.sites_per_s", "1/s"),
    ("dirac.gflops_computed", "GFLOP/s"),
    ("dirac.bytes_per_site_computed", "B"),
    ("field.norm2_us_1t", "us"),
    ("field.norm2_us_2t", "us"),
    ("field.axpy_norm2_us_2t", "us"),
    ("field.gbytes_per_s_computed", "GB/s"),
    ("solver.iters", "count"),
    ("solver.self_s", "s"),
    ("solver.share", "ratio"),
    ("mixed.outer_iters", "count"),
    ("mixed.f32_iters", "count"),
    ("mixed.f16_iters", "count"),
    ("mixed.reliable_updates", "count"),
    ("mixed.tier_fallbacks", "count"),
    ("mixed.f16_over_f32_wall", "ratio"),
    ("mixed.f16_byte_ratio_model", "ratio"),
    ("mixed.convert_us", "us"),
    ("comms.wire_bytes", "B"),
    ("dist.mdagm_us_r1", "us"),
    ("dist.mdagm_us_r2", "us"),
    ("dist.allreduce_us", "us"),
    ("comms.strong_scaling_r2", "ratio"),
    ("comms.wait_s_reported", "s"),
    ("comms.overlap_eff_reported", "ratio"),
    ("hmc.traj_s", "s"),
    ("hmc.force_us", "us"),
    ("hmc.staple_us", "us"),
    ("hmc.update_links_us", "us"),
    ("hmc.acceptance", "ratio"),
    ("io.save_s", "s"),
    ("io.bytes_per_save", "B"),
    ("io.mb_per_s", "MB/s"),
    ("trace.overhead", "ratio"),
];

/// Where a number comes from.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Class {
    /// Wall-clock time (or a rate or ratio of wall-clock times) measured
    /// by the benchmark.
    Measured,
    /// An exact count read from the program or the benchmark's spans.
    Count,
    /// Derived from array sizes or operation counts, not measured.
    Computed,
    /// A per-call time measured by a probe, multiplied by a call count.
    Estimated,
    /// A model-derived figure the program itself reports.
    Model,
}

impl Class {
    fn label(self) -> &'static str {
        match self {
            Class::Measured => "measured",
            Class::Count => "count",
            Class::Computed => "computed",
            Class::Estimated => "estimated",
            Class::Model => "model",
        }
    }
}

/// One named value.
#[derive(Clone, Debug)]
pub struct Metric {
    /// Metric name (`[A-Za-z0-9_.-]+`).
    pub name: &'static str,
    /// The value: a median for repeated timings.
    pub value: f64,
    /// How many samples the value summarizes.
    pub samples: usize,
    /// Where it comes from.
    pub class: Class,
    /// First and third quartile, when there were repeated samples.
    pub quartiles: Option<(f64, f64)>,
}

impl Metric {
    /// A single-valued metric.
    pub fn one(name: &'static str, value: f64, class: Class) -> Self {
        Metric {
            name,
            value,
            samples: 1,
            class,
            quartiles: None,
        }
    }

    /// The median of repeated samples, with their quartiles.
    pub fn median_of(name: &'static str, xs: &[f64], class: Class) -> Self {
        Metric {
            name,
            value: crate::stats::median(xs),
            samples: xs.len(),
            class,
            quartiles: Some(crate::stats::quartiles(xs)),
        }
    }
}

/// Whether `name` is a legal metric name.
pub fn valid_name(name: &str) -> bool {
    !name.is_empty()
        && name
            .bytes()
            .all(|b| b.is_ascii_alphanumeric() || b == b'_' || b == b'.' || b == b'-')
}

/// The declared unit of a metric.
pub fn unit_of(name: &str) -> Option<&'static str> {
    END_TO_END
        .iter()
        .chain(PER_LAYER)
        .find(|(n, _)| *n == name)
        .map(|&(_, u)| u)
}

/// Attempted and failed units of work (one RHS or one trajectory each).
#[derive(Default, Debug)]
pub struct Tally {
    /// Units attempted.
    pub attempted: u64,
    /// Units that did not converge, failed a check, or panicked.
    pub failed: u64,
    /// One line per failed unit.
    pub failures: Vec<String>,
}

impl Tally {
    /// Count one unit with its verdict.
    pub fn record(&mut self, unit: &str, verdict: Result<(), String>) {
        self.attempted += 1;
        if let Err(why) = verdict {
            self.failed += 1;
            self.failures.push(format!("{unit}: {why}"));
        }
    }

    /// Count `n` units that all failed for one reason (e.g. a panic that
    /// took the whole campaign down).
    pub fn record_all_failed(&mut self, n: usize, unit: &str, why: &str) {
        for k in 0..n {
            self.record(&format!("{unit}[{k}]"), Err(why.to_string()));
        }
    }

    /// Fold another tally into this one.
    pub fn merge(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.failures.extend(other.failures);
    }

    /// Failed over attempted units.
    pub fn fail_rate(&self) -> f64 {
        if self.attempted == 0 {
            1.0
        } else {
            self.failed as f64 / self.attempted as f64
        }
    }
}

/// Run `f`, turning a panic into an error message.
pub fn guarded<T>(f: impl FnOnce() -> T) -> Result<T, String> {
    catch_unwind(AssertUnwindSafe(f)).map_err(|e| {
        let msg = e
            .downcast_ref::<&str>()
            .map(|s| s.to_string())
            .or_else(|| e.downcast_ref::<String>().cloned())
            .unwrap_or_else(|| "non-string panic payload".into());
        format!("panicked: {msg}")
    })
}

/// The result of one benchmark run.
#[derive(Debug)]
pub struct Report {
    /// Workload name.
    pub workload: &'static str,
    /// Whether this was the traced run.
    pub traced: bool,
    /// Unit accounting.
    pub tally: Tally,
    /// Metrics, in emission order.
    pub metrics: Vec<Metric>,
    /// Model-beside-measurement lines and other findings.
    pub findings: Vec<String>,
    /// Reasons the run as a whole is not valid (e.g. the traced path
    /// diverged from the untraced one).
    pub invalid: Vec<String>,
}

impl Report {
    /// An empty report.
    pub fn new(workload: &'static str, traced: bool) -> Self {
        Report {
            workload,
            traced,
            tally: Tally::default(),
            metrics: Vec::new(),
            findings: Vec::new(),
            invalid: Vec::new(),
        }
    }

    /// Add a metric, replacing an earlier one of the same name.
    pub fn push(&mut self, m: Metric) {
        self.metrics.retain(|x| x.name != m.name);
        self.metrics.push(m);
    }

    /// Whether a metric is already present.
    pub fn has(&self, name: &str) -> bool {
        self.metrics.iter().any(|m| m.name == name)
    }

    /// The metric names this run must emit.
    pub fn declared(&self) -> &'static [(&'static str, &'static str)] {
        if self.traced {
            PER_LAYER
        } else {
            END_TO_END
        }
    }

    /// Put the metrics in declaration order and check that exactly the
    /// declared set is present and every value is finite. A mismatch is a
    /// defect in the benchmark, so it is recorded as an invalid run.
    pub fn seal(&mut self) {
        let declared = self.declared();
        for m in &self.metrics {
            if !declared.iter().any(|(n, _)| *n == m.name) {
                self.invalid.push(format!("undeclared metric {}", m.name));
            }
            if !m.value.is_finite() {
                self.invalid
                    .push(format!("metric {} is not finite", m.name));
            }
        }
        let mut ordered = Vec::with_capacity(declared.len());
        for (name, _) in declared {
            match self.metrics.iter().find(|m| m.name == *name) {
                Some(m) => ordered.push(m.clone()),
                None => self.invalid.push(format!("metric {name} was not emitted")),
            }
        }
        self.metrics = ordered;
    }

    /// Whether every unit passed and the run is valid.
    pub fn correct(&self) -> bool {
        self.tally.failed == 0 && self.tally.attempted > 0 && self.invalid.is_empty()
    }

    /// Human-readable table: one line per metric with value, unit, sample
    /// count and class, then the findings and failures.
    pub fn render_table(&self) -> String {
        let mut s = format!(
            "# workload {} ({} run)\n",
            self.workload,
            if self.traced { "traced" } else { "untraced" }
        );
        for m in &self.metrics {
            let unit = unit_of(m.name).unwrap_or("?");
            s += &format!(
                "{:<32} {:>16} {:<8} n={:<4} [{}]",
                m.name,
                fmt_value(m.value),
                unit,
                m.samples,
                m.class.label()
            );
            if let Some((q1, q3)) = m.quartiles {
                s += &format!("  q1={} q3={}", fmt_value(q1), fmt_value(q3));
            }
            s.push('\n');
        }
        s += &format!(
            "{:<32} {:>16} {:<8} n={:<4} [count]  ({} of {} units failed)\n",
            "fail_rate",
            fmt_value(self.tally.fail_rate()),
            "ratio",
            self.tally.attempted,
            self.tally.failed,
            self.tally.attempted
        );
        for f in &self.findings {
            s += &format!("finding: {f}\n");
        }
        for f in &self.tally.failures {
            s += &format!("failed unit: {f}\n");
        }
        for f in &self.invalid {
            s += &format!("invalid: {f}\n");
        }
        s
    }

    /// The one-line JSON result.
    pub fn render_json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    m.name,
                    json_number(m.value),
                    unit_of(m.name).unwrap_or("?")
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.tally.attempted.max(1),
            if self.tally.attempted == 0 {
                1
            } else {
                self.tally.failed
            },
            metrics.join(", ")
        )
    }
}

fn fmt_value(v: f64) -> String {
    if v != 0.0 && (v.abs() >= 1e6 || v.abs() < 1e-3) {
        format!("{v:.6e}")
    } else {
        format!("{v:.6}")
    }
}

/// A finite number in JSON syntax with every digit Rust's shortest
/// round-trip formatting gives; non-finite values (already flagged invalid
/// by [`Report::seal`]) become -1.
fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "-1.0".into()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qcd_trace::Json;
    use std::collections::BTreeSet;

    #[test]
    fn every_metric_name_is_legal_and_unique() {
        let mut seen = BTreeSet::new();
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER) {
            assert!(valid_name(name), "{name}");
            assert!(name.len() <= 64, "{name}");
            assert!(seen.insert(*name), "duplicate metric {name}");
            assert!(!unit.is_empty() && unit.len() <= 16, "{name}: unit {unit}");
            assert!(
                unit.bytes()
                    .all(|b| b.is_ascii_alphanumeric() || b"_/%.-".contains(&b)),
                "{name}: unit {unit}"
            );
        }
        assert!(valid_name("dirac.f16.sites_per_s"));
        assert!(!valid_name("dirac share"));
        assert!(!valid_name(""));
        assert!(!valid_name("comms/wire"));
    }

    fn declared_in_benchmark_json(section: &str) -> Vec<(String, String)> {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        let doc = Json::parse(&text).expect("BENCHMARK.json parses");
        doc.get(section)
            .and_then(Json::as_arr)
            .expect("metric section")
            .iter()
            .map(|m| {
                (
                    m.get("name").and_then(Json::as_str).unwrap().to_string(),
                    m.get("unit").and_then(Json::as_str).unwrap().to_string(),
                )
            })
            .collect()
    }

    #[test]
    fn benchmark_json_declares_exactly_the_emitted_metrics() {
        let as_owned = |xs: &[(&str, &str)]| -> Vec<(String, String)> {
            xs.iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect()
        };
        assert_eq!(
            declared_in_benchmark_json("end_to_end"),
            as_owned(END_TO_END)
        );
        assert_eq!(declared_in_benchmark_json("per_layer"), as_owned(PER_LAYER));
    }

    #[test]
    fn seal_flags_missing_and_undeclared_metrics() {
        let mut r = Report::new("t", false);
        r.tally.record("u", Ok(()));
        for (name, _) in END_TO_END {
            r.push(Metric::one(name, 1.0, Class::Measured));
        }
        r.seal();
        assert!(r.correct(), "{:?}", r.invalid);

        let mut r = Report::new("t", false);
        r.tally.record("u", Ok(()));
        r.push(Metric::one("campaign_s", 1.0, Class::Measured));
        r.push(Metric::one("hmc.traj_s", 1.0, Class::Measured));
        r.seal();
        assert!(!r.correct());
        assert!(r
            .invalid
            .iter()
            .any(|m| m.contains("undeclared metric hmc.traj_s")));
        assert!(r
            .invalid
            .iter()
            .any(|m| m.contains("setup_s was not emitted")));
    }

    #[test]
    fn fail_rate_counts_failed_over_attempted() {
        let mut t = Tally::default();
        t.record("a", Ok(()));
        t.record("b", Err("no convergence".into()));
        t.record("c", guarded(|| panic!("boom")).map(|_: ()| ()));
        t.record("d", Ok(()));
        assert_eq!((t.attempted, t.failed), (4, 2));
        assert_eq!(t.fail_rate(), 0.5);
        assert!(t.failures[1].contains("panicked: boom"));
    }

    #[test]
    fn json_line_has_exactly_the_contract_keys() {
        let mut r = Report::new("t", false);
        r.tally.record("u", Ok(()));
        for (name, _) in END_TO_END {
            r.push(Metric::one(name, 0.125, Class::Measured));
        }
        r.seal();
        let doc = Json::parse(&r.render_json()).unwrap();
        let keys: Vec<&str> = doc
            .as_obj()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        let m = doc.get("metrics").unwrap().get("setup_s").unwrap();
        assert_eq!(m.get("value").unwrap().as_f64(), Some(0.125));
        assert_eq!(m.get("unit").unwrap().as_str(), Some("s"));
    }
}
