//! Results: the metrics a run reports, the checks it made, and their
//! rendering (a readable table, a result file, and the final JSON line).

use crate::host::Fingerprint;
use crate::stats::{median, quantile, rate, Timed};
use std::fmt::Write as _;

/// The end-to-end metrics every workload reports, each measured on that
/// workload's own traffic (see `README.md` for what an item is per
/// workload).
pub const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("throughput_per_s", "1/s"),
    ("latency_ms_p50", "ms"),
    ("latency_ms_p90", "ms"),
];

/// The per-layer metrics of a traced run. Every workload reports all of
/// them; a layer the workload leaves idle reads 0.
pub const PER_LAYER: [(&str, &str); 49] = [
    ("parse.busy_ms", "ms"),
    ("parse.bytes", "bytes"),
    ("expand.busy_ms", "ms"),
    ("expand.instances", "count"),
    ("check.busy_ms", "ms"),
    ("check.components", "count"),
    ("lower.busy_ms", "ms"),
    ("lower.cells", "count"),
    ("opt.busy_ms", "ms"),
    ("opt.cells_before", "count"),
    ("opt.cells_after", "count"),
    ("opt.rewrites", "count"),
    ("verilog.busy_ms", "ms"),
    ("verilog.bytes", "bytes"),
    ("driver.busy_ms", "ms"),
    ("driver.self_ms", "ms"),
    ("driver.units", "count"),
    ("driver.cache_hit_ratio", "ratio"),
    ("driver.cache_stores", "count"),
    ("elaborate.busy_ms", "ms"),
    ("elaborate.cells", "count"),
    ("netcache.hit_ratio", "ratio"),
    ("wire.encode_ms", "ms"),
    ("wire.decode_ms", "ms"),
    ("wire.reply_bytes", "bytes"),
    ("serve.ping_ms_p50", "ms"),
    ("serve.server_ms", "ms"),
    ("serve.memo_hit_ratio", "ratio"),
    ("serve.builds_run", "count"),
    ("sim.new_ms", "ms"),
    ("sim.new_calls", "count"),
    ("settle.busy_ms", "ms"),
    ("settle.calls", "count"),
    ("tick.busy_ms", "ms"),
    ("tick.calls", "count"),
    ("harness.busy_ms", "ms"),
    ("harness.self_ms", "ms"),
    ("harness.txns", "count"),
    ("harness.cycles", "count"),
    ("prog.parse_ms", "ms"),
    ("prog.expand_ms", "ms"),
    ("prog.check_ms", "ms"),
    ("prog.lower_ms", "ms"),
    ("prog.opt_ms", "ms"),
    ("trace.wall_ms", "ms"),
    ("trace.layer_sum_ms", "ms"),
    ("trace.unattributed_ms", "ms"),
    ("trace.overhead_ms", "ms"),
    ("trace.overhead_pct", "%"),
];

/// How far the layer spans' summed self times may stray from the traced
/// wall time, as a share of it. Time inside a pass that no layer span
/// covers (left in the grouping spans, or between them) counts against it.
/// 5%, as the repository's roadmap asks of its own layer ledger; the
/// tracer's own bookkeeping between back-to-back spans lands here too.
pub const LAYER_SUM_BOUND: f64 = 0.05;

/// One named number.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Metric name.
    pub name: String,
    /// Unit.
    pub unit: String,
    /// Value as measured.
    pub value: f64,
    /// How many samples the value summarizes (0 for counts).
    pub samples: u64,
}

/// Correctness bookkeeping: every check is an attempt; a failed check is
/// counted and its first few messages kept.
#[derive(Debug, Default)]
pub struct Checks {
    /// Checks made.
    pub attempted: u64,
    /// Checks that failed.
    pub failed: u64,
    /// The first failure messages.
    pub messages: Vec<String>,
}

impl Checks {
    /// Records one check.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.messages.len() < 8 {
                self.messages.push(what());
            }
        }
    }
}

/// Everything one run produced.
#[derive(Debug, Default)]
pub struct Report {
    /// End-to-end metrics (untraced measurements).
    pub end_to_end: Vec<Metric>,
    /// The workload's own named metrics (the end-to-end metrics are
    /// derived from these), with sample counts.
    pub detail: Vec<Metric>,
    /// Per-layer metrics (traced runs only).
    pub layers: Vec<Metric>,
    /// The rendered self-time table (traced runs only).
    pub layer_table: String,
    /// Output checks.
    pub checks: Checks,
}

impl Report {
    /// Adds an end-to-end metric.
    pub fn e2e(&mut self, name: &str, value: f64, samples: u64) {
        let unit = END_TO_END
            .iter()
            .find(|(n, _)| *n == name)
            .map(|(_, u)| *u)
            .expect("a declared end-to-end metric");
        self.end_to_end.push(metric(name, unit, value, samples));
    }

    /// Adds the timing metrics — `throughput_per_s`, `latency_ms_p50` and
    /// `latency_ms_p90` — over the items at their `best` times (see
    /// [`crate::stats::best_times`]), the same three over the items' own
    /// times as `all_items.*` detail metrics, and `setup_s` as the median
    /// of `setup_s`.
    pub fn timing(&mut self, items: &[Timed], best: &[Timed], setup_s: &[f64]) {
        self.e2e("setup_s", median(setup_s), setup_s.len() as u64);
        for (prefix, set) in [("", best), ("all_items.", items)] {
            let ms: Vec<f64> = set.iter().map(|t| t.secs * 1e3).collect();
            let n = ms.len() as u64;
            let values = [
                ("throughput_per_s", "1/s", rate(set)),
                ("latency_ms_p50", "ms", quantile(&ms, 0.5)),
                ("latency_ms_p90", "ms", quantile(&ms, 0.9)),
            ];
            for (name, unit, v) in values {
                if prefix.is_empty() {
                    self.e2e(name, v, n);
                } else {
                    self.detail(&format!("{prefix}{name}"), unit, v, n);
                }
            }
        }
    }

    /// Adds the end-to-end metric `from` again as the workload's own
    /// named metric `name`.
    pub fn alias(&mut self, name: &str, from: &str) {
        let m = self.end_to_end.iter().find(|m| m.name == from);
        let m = m.expect("an end-to-end metric already reported").clone();
        self.detail.push(Metric {
            name: name.into(),
            ..m
        });
    }

    /// Adds a workload-specific named metric.
    pub fn detail(&mut self, name: &str, unit: &str, value: f64, samples: u64) {
        self.detail.push(metric(name, unit, value, samples));
    }

    /// Sets the per-layer metrics from `values` (name → value); layers
    /// missing from `values` read 0.
    pub fn set_layers(&mut self, values: &std::collections::BTreeMap<&'static str, f64>) {
        for name in values.keys() {
            assert!(
                PER_LAYER.iter().any(|(n, _)| n == name),
                "undeclared per-layer metric {name}"
            );
        }
        self.layers = PER_LAYER
            .iter()
            .map(|(n, u)| metric(n, u, values.get(n).copied().unwrap_or(0.0), 0))
            .collect();
    }

    /// The readable summary printed before the result line.
    pub fn render(&self, fp: &Fingerprint) -> String {
        let mut out = String::new();
        writeln!(out, "host: {}", fp.describe()).unwrap();
        let mut table = |title: &str, ms: &[Metric]| {
            if ms.is_empty() {
                return;
            }
            writeln!(out, "{title}").unwrap();
            for m in ms {
                let n = if m.samples > 0 {
                    format!("n={}", m.samples)
                } else {
                    String::new()
                };
                writeln!(out, "  {:<26} {:>14.4} {:<6} {n}", m.name, m.value, m.unit).unwrap();
            }
        };
        table("end-to-end (untraced):", &self.end_to_end);
        table("workload metrics:", &self.detail);
        table("per-layer (traced):", &self.layers);
        out.push_str(&self.layer_table);
        writeln!(
            out,
            "checks: {} attempted, {} failed",
            self.checks.attempted, self.checks.failed
        )
        .unwrap();
        for m in &self.checks.messages {
            writeln!(out, "  FAILED: {m}").unwrap();
        }
        out
    }

    /// The result file: fingerprint, run identity, and every metric with
    /// its unit and sample count.
    pub fn to_json(&self, fp: &Fingerprint, run: &RunId) -> String {
        let mut out = String::new();
        writeln!(out, "{{").unwrap();
        writeln!(
            out,
            "  \"fingerprint\": {{\"nproc\": {}, \"cpu_model\": {}, \"rustc\": {}, \"profile\": {}}},",
            fp.nproc,
            quote(&fp.cpu_model),
            quote(&fp.rustc),
            quote(fp.profile)
        )
        .unwrap();
        writeln!(
            out,
            "  \"run\": {{\"workload\": {}, \"seed\": {}, \"seconds\": {}, \"trace\": {}}},",
            quote(&run.workload),
            run.seed,
            run.seconds,
            u8::from(run.trace)
        )
        .unwrap();
        writeln!(
            out,
            "  \"attempted\": {}, \"failed\": {},",
            self.checks.attempted, self.checks.failed
        )
        .unwrap();
        let section = |ms: &[Metric]| {
            let body: Vec<String> = ms
                .iter()
                .map(|m| {
                    format!(
                        "    {}: {{\"value\": {}, \"unit\": {}, \"samples\": {}}}",
                        quote(&m.name),
                        num(m.value),
                        quote(&m.unit),
                        m.samples
                    )
                })
                .collect();
            format!("{{\n{}\n  }}", body.join(",\n"))
        };
        writeln!(out, "  \"end_to_end\": {},", section(&self.end_to_end)).unwrap();
        writeln!(out, "  \"detail\": {},", section(&self.detail)).unwrap();
        writeln!(out, "  \"per_layer\": {}", section(&self.layers)).unwrap();
        writeln!(out, "}}").unwrap();
        out
    }

    /// The final stdout line: end-to-end metrics untraced, per-layer
    /// metrics traced.
    pub fn result_line(&self, trace: bool) -> String {
        let ms = if trace {
            &self.layers
        } else {
            &self.end_to_end
        };
        let body: Vec<String> = ms
            .iter()
            .map(|m| {
                format!(
                    "{}: {{\"value\": {}, \"unit\": {}}}",
                    quote(&m.name),
                    num(m.value),
                    quote(&m.unit)
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.checks.failed == 0 && self.checks.attempted > 0,
            self.checks.attempted.max(1),
            self.checks.failed,
            body.join(", ")
        )
    }
}

/// Which run a report belongs to.
#[derive(Debug, Clone)]
pub struct RunId {
    /// Workload name.
    pub workload: String,
    /// Traffic seed.
    pub seed: u64,
    /// Run length in seconds.
    pub seconds: u32,
    /// Whether the run was traced.
    pub trace: bool,
}

fn metric(name: &str, unit: &str, value: f64, samples: u64) -> Metric {
    Metric {
        name: name.into(),
        unit: unit.into(),
        value,
        samples,
    }
}

fn quote(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => write!(out, "\\u{:04x}", c as u32).unwrap(),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// A finite JSON number with all its digits.
fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".into()
    }
}
