//! A benchmark for the three paths users run through Filament: `.fil`
//! source → netlist → checked transactions (`verify_narrow`,
//! `verify_wide`, `verify_batch`), source → Verilog (`compile_cold`), and
//! a `filament serve` round trip (`daemon_edit`).
//!
//! Each workload's traffic is a pure function of the seed and the run
//! length ([`traffic`]). An untraced pass gives the end-to-end metrics; a
//! traced run (`--trace 1`) repeats the same work with spans around each
//! layer's public calls ([`trace`]) and reports per-layer metrics, the
//! self-time table and the tracing overhead.

pub mod compile;
pub mod daemon;
pub mod host;
pub mod report;
pub mod rng;
pub mod stats;
pub mod trace;
pub mod traffic;
pub mod verify;

use report::{Report, LAYER_SUM_BOUND};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::PathBuf;
use trace::{LayerTime, Tracer};
use traffic::{Shape, VerifyClass};

/// The workloads, in the order `BENCHMARK.json` lists them.
pub const WORKLOADS: [&str; 5] = [
    "verify_narrow",
    "verify_wide",
    "verify_batch",
    "compile_cold",
    "daemon_edit",
];

/// How often set-up runs per run; `setup_s` is the median.
pub const SETUP_REPEATS: usize = 9;

/// How many set-ups run after round `round` of `rounds`. The first set-up
/// serves the measured pass; the other `SETUP_REPEATS - 1` are spread
/// evenly between its rounds, so that `setup_s` samples the host's speed
/// across the run (which changes for seconds at a time) rather than in one
/// burst.
pub fn setups_after(round: u32, rounds: u32) -> usize {
    let n = SETUP_REPEATS as u64 - 1;
    let (r, total) = (u64::from(round), u64::from(rounds.max(1)));
    ((r + 1) * n / total - r * n / total) as usize
}

/// A callback run after each round of a pass; set-ups run there.
pub type Between<'a> = &'a mut dyn FnMut(u32) -> Result<(), String>;

/// One run's parameters.
#[derive(Debug, Clone)]
pub struct Ctx {
    /// Traffic seed.
    pub seed: u64,
    /// Rounds of traffic, each a little under a second of work.
    pub rounds: u32,
    /// Work per round.
    pub shape: Shape,
    /// Whether to add the traced pass.
    pub trace: bool,
    /// Scratch directory for sockets, caches and span files (inside the
    /// working directory).
    pub scratch: PathBuf,
}

/// Runs `workload`.
///
/// # Errors
///
/// Unknown workload names, and set-up failures (a design that does not
/// compile, a daemon that cannot bind).
pub fn run(workload: &str, ctx: &Ctx) -> Result<Report, String> {
    match workload {
        "verify_narrow" => verify::run(ctx, VerifyClass::Narrow),
        "verify_wide" => verify::run(ctx, VerifyClass::Wide),
        "verify_batch" => verify::run(ctx, VerifyClass::Batch),
        "compile_cold" => compile::run(ctx),
        "daemon_edit" => daemon::run(ctx),
        other => Err(format!(
            "unknown workload {other:?} (expected one of {WORKLOADS:?})"
        )),
    }
}

/// Nanoseconds to milliseconds.
pub fn ms(ns: u64) -> f64 {
    ns as f64 / 1e6
}

/// Per-layer values gathered during a traced pass.
pub type Layers = BTreeMap<&'static str, f64>;

/// Adds `v` to layer metric `name`.
pub fn bump(layers: &mut Layers, name: &'static str, v: f64) {
    *layers.entry(name).or_insert(0.0) += v;
}

/// Records the counts a build reports about itself (`BuildStats`) next
/// to the benchmark's own spans.
pub fn bump_build_stats(layers: &mut Layers, s: &fil_build::BuildStats) {
    bump(layers, "driver.units", s.units as f64);
    bump(layers, "driver.cache_loads", s.cache_loads as f64);
    bump(layers, "driver.cache_stores", s.cache_stores as f64);
    bump(layers, "prog.parse_ms", s.phase.parse_us as f64 / 1e3);
    bump(layers, "prog.expand_ms", s.phase.expand_us as f64 / 1e3);
    bump(layers, "prog.check_ms", s.phase.check_us as f64 / 1e3);
    bump(layers, "prog.lower_ms", s.phase.lower_us as f64 / 1e3);
    bump(layers, "prog.opt_ms", s.phase.opt_us as f64 / 1e3);
}

/// Whether span `name` only groups layer calls (a set-up, a round, an
/// item, a replay) rather than timing a layer. The workloads name such
/// spans after themselves: `verify.*`, `compile.*`, `daemon.*`.
pub fn is_grouping(name: &str) -> bool {
    ["verify.", "compile.", "daemon."]
        .iter()
        .any(|p| name.starts_with(p))
}

/// How well the layer spans account for a traced pass's wall time.
#[derive(Debug, Clone, Copy)]
pub struct LayerSum {
    /// Summed self time of the layer spans (every span but the grouping
    /// ones), ns.
    pub layer_ns: u64,
    /// Summed self time of the grouping spans: time inside the pass that
    /// no layer span covers, ns.
    pub unattributed_ns: u64,
    /// `|wall - layer_ns| / wall`.
    pub err: f64,
}

impl LayerSum {
    /// Sums `times` against a traced wall time of `wall_ns`.
    pub fn new(times: &BTreeMap<&'static str, LayerTime>, wall_ns: u64) -> Self {
        let (mut layer_ns, mut unattributed_ns) = (0, 0);
        for (name, t) in times {
            if is_grouping(name) {
                unattributed_ns += t.self_ns;
            } else {
                layer_ns += t.self_ns;
            }
        }
        let err = (layer_ns as f64 - wall_ns as f64).abs() / wall_ns.max(1) as f64;
        LayerSum {
            layer_ns,
            unattributed_ns,
            err,
        }
    }

    /// Whether the layers account for the wall time within
    /// [`LAYER_SUM_BOUND`].
    pub fn holds(&self) -> bool {
        self.err <= LAYER_SUM_BOUND
    }
}

/// Closes a traced pass: checks that the layer spans' self times sum to
/// the traced wall time within [`LAYER_SUM_BOUND`] (time left in grouping
/// spans counts against it), records the tracing overhead (traced minus
/// untraced time of the same calls, `primary`), renders the self-time
/// table, and writes the spans to `<scratch>/../spans-<name>.json`.
pub fn finish_trace(
    name: &str,
    ctx: &Ctx,
    tr: &Tracer,
    wall_ns: u64,
    primary: (&[&str], u64),
    layers: &mut Layers,
    report: &mut Report,
) {
    let times = tr.layer_times();
    let sum = LayerSum::new(&times, wall_ns);
    let (names, untraced_ns) = primary;
    let traced_ns: u64 = names
        .iter()
        .map(|n| times.get(n).map_or(0, |t| t.total_ns))
        .sum();
    let overhead = traced_ns as f64 - untraced_ns as f64;
    if let Some(loads) = layers.remove("driver.cache_loads") {
        let units = layers.get("driver.units").copied().unwrap_or(0.0);
        layers.insert("driver.cache_hit_ratio", loads / units.max(1.0));
    }
    layers.insert("trace.wall_ms", ms(wall_ns));
    layers.insert("trace.layer_sum_ms", ms(sum.layer_ns));
    layers.insert("trace.unattributed_ms", ms(sum.unattributed_ns));
    layers.insert("trace.overhead_ms", overhead / 1e6);
    layers.insert(
        "trace.overhead_pct",
        100.0 * overhead / (untraced_ns.max(1) as f64),
    );
    report.checks.check(sum.holds(), || {
        format!(
            "layer self times sum to {:.3} ms, traced wall {:.3} ms ({:.2}% apart, {:.3} ms unattributed, bound {:.0}%)",
            ms(sum.layer_ns),
            ms(wall_ns),
            100.0 * sum.err,
            ms(sum.unattributed_ns),
            100.0 * LAYER_SUM_BOUND
        )
    });
    let mut table = String::new();
    writeln!(
        table,
        "self time by layer (traced wall {:.1} ms, layer sum {:.1} ms, {:.3}% apart, bound {:.0}%):",
        ms(wall_ns),
        ms(sum.layer_ns),
        100.0 * sum.err,
        100.0 * LAYER_SUM_BOUND
    )
    .unwrap();
    let mut rows: Vec<_> = times.iter().filter(|(n, _)| !is_grouping(n)).collect();
    rows.sort_by_key(|r| std::cmp::Reverse(r.1.self_ns));
    let pct = |ns: u64| 100.0 * ns as f64 / wall_ns.max(1) as f64;
    for (n, t) in rows {
        writeln!(
            table,
            "  {n:<24} self {:>10.2} ms {:>5.1}%  total {:>10.2} ms  spans {}",
            ms(t.self_ns),
            pct(t.self_ns),
            ms(t.total_ns),
            t.count
        )
        .unwrap();
    }
    writeln!(
        table,
        "  {:<24} self {:>10.2} ms {:>5.1}%  (grouping spans' own time)",
        "(unattributed)",
        ms(sum.unattributed_ns),
        pct(sum.unattributed_ns)
    )
    .unwrap();
    writeln!(
        table,
        "tracing overhead: {:.2} ms ({:+.2}%) over the untraced {:.1} ms of {}",
        overhead / 1e6,
        100.0 * overhead / untraced_ns.max(1) as f64,
        ms(untraced_ns),
        names.join(" + ")
    )
    .unwrap();
    report.layer_table = table;
    let path = ctx
        .scratch
        .parent()
        .unwrap_or(&ctx.scratch)
        .join(format!("spans-{name}.json"));
    if let Err(e) = std::fs::write(&path, tr.to_json()) {
        eprintln!("perfbench: cannot write {}: {e}", path.display());
    }
}
