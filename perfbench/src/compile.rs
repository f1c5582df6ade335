//! The `compile_cold` workload: source → Verilog with no artifact cache
//! and one driver thread.
//!
//! Every item — corpus designs, parametric variants and generated
//! programs, each at a seeded opt level — is built once per round through
//! `fil_stdlib::build(...verilog())`, and every round builds the same
//! items. Parse, expand, check, lower, opt and Verilog emission do the
//! work; the simulator does none, and with no cache directory there is no
//! disk I/O.

use crate::report::{Checks, Report};
use crate::stats::{best_times, Timed};
use crate::trace::Tracer;
use crate::traffic::{compile_rounds, corpus, digest, Class, CompileItem};
use crate::{bump, bump_build_stats, finish_trace, ms, setups_after, Between, Ctx, Layers};
use filament_core::ast::Command;
use std::collections::HashMap;
use std::sync::Arc;
use std::time::Instant;

/// One in this many sources built only once is rebuilt to check that its
/// Verilog repeats byte for byte.
const REBUILD_EVERY: usize = 4;

fn request(item: &CompileItem) -> fil_build::BuildRequest {
    fil_build::BuildRequest::new(&*item.source)
        .expanded(false)
        .verilog()
        .jobs(1)
        .opt_level(item.level)
}

/// Set-up: a fixed piece of program work, independent of the seed and
/// the run length — parse the standard library's source, then build every
/// corpus design once at `-O0`, as a first golden-corpus pass does (the
/// first call also fills the library's process-wide state).
fn setup(corpus: &[(String, Arc<str>, String)]) -> Result<(), String> {
    filament_core::parse_program(fil_stdlib::STDLIB_SOURCE).map_err(|e| e.to_string())?;
    for (name, source, _) in corpus {
        let req = fil_build::BuildRequest::new(&**source)
            .expanded(false)
            .verilog()
            .jobs(1);
        fil_stdlib::build(&req).map_err(|e| format!("{name}: {e}"))?;
    }
    Ok(())
}

/// The staged chain behind one build, each stage in its own span:
/// parse → expand → check → lower → opt → emit.
fn chain(item: &CompileItem, tr: &mut Tracer, layers: &mut Layers) -> Result<String, String> {
    tr.begin("core.parse");
    let parsed = filament_core::parse_program(&item.source).map(|user| {
        let mut p = fil_stdlib::std_program();
        p.extend(user);
        p
    });
    tr.end();
    let program = parsed.map_err(|e| e.to_string())?;
    tr.begin("core.expand");
    let expanded = filament_core::mono::expand_with_stats(&program);
    tr.end();
    let (expanded, _) = expanded.map_err(|e| e.to_string())?;
    tr.begin("core.check");
    let checked = filament_core::check_program(&expanded);
    tr.end();
    checked.map_err(|e| format!("{e:?}"))?;
    tr.begin("core.lower");
    let lowered = filament_core::lower_program(&expanded, &item.top, &fil_stdlib::StdRegistry);
    tr.end();
    let mut lowered = lowered.map_err(|e| e.to_string())?;
    let cells: usize = lowered.components().iter().map(|c| c.cells.len()).sum();
    tr.begin("opt");
    let rep = fil_opt::optimize_program(&mut lowered, &fil_opt::OptConfig::level(item.level));
    tr.end();
    tr.begin("calyx.verilog");
    let verilog = calyx_lite::emit_program(&lowered);
    tr.end();
    // Counting, and dropping the stages' programs, is the benchmark's own
    // work.
    tr.begin("bench.counts");
    let instances = expanded
        .components
        .iter()
        .flat_map(|c| &c.body)
        .filter(|c| matches!(c, Command::Instance { .. }))
        .count();
    bump(layers, "parse.bytes", item.source.len() as f64);
    bump(layers, "expand.instances", instances as f64);
    bump(layers, "check.components", expanded.components.len() as f64);
    bump(layers, "lower.cells", cells as f64);
    bump(layers, "opt.cells_before", rep.cells_before as f64);
    bump(layers, "opt.cells_after", rep.cells_after as f64);
    bump(layers, "opt.rewrites", rep.rewrites() as f64);
    bump(layers, "verilog.bytes", verilog.len() as f64);
    drop((program, expanded, lowered));
    tr.end();
    Ok(verilog)
}

/// One timed build.
struct Built {
    class: Class,
    /// The source and opt level.
    key: (u64, u8),
    level: u8,
    t: Timed,
}

/// What one pass measured.
#[derive(Default)]
struct Pass {
    /// Every build.
    builds: Vec<Built>,
    /// Summed build time, ns.
    primary_ns: u64,
    /// Every source's Verilog, as it was first built.
    seen: Seen,
}

/// (source digest, level) → (Verilog digest, Verilog length, builds).
type Seen = HashMap<(u64, u8), (u64, usize, u32)>;

fn pass(
    rounds: &[Vec<CompileItem>],
    tr: &mut Tracer,
    checks: &mut Checks,
    layers: &mut Layers,
    between: Between,
) -> Result<Pass, String> {
    let mut p = Pass::default();
    for (round, items) in (0u32..).zip(rounds) {
        for item in items {
            tr.begin("bench.request");
            let req = request(item);
            tr.end();
            tr.begin("compile.item");
            tr.begin("build.driver");
            let start = Instant::now();
            let out = fil_stdlib::build(&req);
            let dt = start.elapsed();
            // The span also covers dropping the rest of the output.
            let out = out.map(|o| (o.verilog.unwrap_or_default(), o.stats));
            tr.end();
            let verilog = match out {
                Ok((verilog, stats)) => {
                    if tr.enabled() {
                        bump_build_stats(layers, &stats);
                    }
                    verilog
                }
                Err(e) => {
                    checks.check(false, || format!("{}: {e}", item.name));
                    String::new()
                }
            };
            if tr.enabled() {
                tr.begin("compile.chain");
                let staged = chain(item, tr, layers);
                tr.end();
                checks.check(staged.as_deref() == Ok(verilog.as_str()), || {
                    format!("{}: staged chain Verilog differs from build's", item.name)
                });
            }
            tr.end();
            tr.begin("bench.digest");
            p.primary_ns += dt.as_nanos() as u64;
            p.builds.push(Built {
                class: item.class,
                key: (digest(&*item.source), item.level),
                level: item.level,
                t: Timed {
                    work: 1.0,
                    secs: dt.as_secs_f64(),
                },
            });
            let key = (digest(&*item.source), item.level);
            let now = (digest(&verilog), verilog.len());
            let entry = p.seen.entry(key).or_insert((now.0, now.1, 0));
            entry.2 += 1;
            checks.check(!verilog.is_empty() && (entry.0, entry.1) == now, || {
                format!(
                    "{} at -O{}: Verilog differs between builds",
                    item.name, item.level
                )
            });
            drop((req, verilog));
            tr.end();
        }
        between(round)?;
    }
    Ok(p)
}

/// Sources that recur were compared as they were built. Of those built
/// only once, every [`REBUILD_EVERY`]-th is built a second time, untimed.
fn check_rebuilds(rounds: &[Vec<CompileItem>], seen: &Seen, checks: &mut Checks) {
    let key = |item: &CompileItem| (digest(&*item.source), item.level);
    let once = rounds
        .iter()
        .flatten()
        .filter(|item| seen[&key(item)].2 == 1);
    for item in once.step_by(REBUILD_EVERY) {
        let again = fil_stdlib::build(&request(item))
            .ok()
            .and_then(|o| o.verilog)
            .unwrap_or_default();
        let (hash, len, _) = seen[&key(item)];
        checks.check((digest(&again), again.len()) == (hash, len), || {
            format!(
                "{} at -O{}: Verilog differs between builds",
                item.name, item.level
            )
        });
    }
}

/// Runs the workload.
pub fn run(ctx: &Ctx) -> Result<Report, String> {
    let mut report = Report::default();
    let corpus = corpus();
    let rounds = compile_rounds(ctx.seed, ctx.rounds, &ctx.shape, &corpus);
    let mut setup_s = Vec::new();
    let mut timed_setup = || -> Result<(), String> {
        let start = Instant::now();
        setup(&corpus)?;
        setup_s.push(start.elapsed().as_secs_f64());
        Ok(())
    };
    timed_setup()?;
    let p = pass(
        &rounds,
        &mut Tracer::new(false),
        &mut report.checks,
        &mut Layers::new(),
        &mut |round| {
            for _ in 0..setups_after(round, ctx.rounds) {
                timed_setup()?;
            }
            Ok(())
        },
    )?;
    let peak_rss = crate::host::peak_rss_mb();
    check_rebuilds(&rounds, &p.seen, &mut report.checks);
    let timed: Vec<Timed> = p.builds.iter().map(|b| b.t).collect();
    // Builds of the same source at the same opt level are the same work.
    let shapes: Vec<u64> = p.builds.iter().map(|b| digest(&b.key)).collect();
    report.timing(&timed, &best_times(&timed, &shapes), &setup_s);
    report.e2e("peak_rss_mb", peak_rss, 1);
    report.alias("designs_per_s", "throughput_per_s");
    report.alias("compile_ms_p50", "latency_ms_p50");
    report.alias("compile_ms_p90", "latency_ms_p90");
    // The mix the run produced: each class's and each opt level's share
    // of the builds and of the build time, over every round.
    let n = timed.len() as u64;
    let total_s: f64 = timed.iter().map(|t| t.secs).sum();
    let mut share = |name: String, keep: &dyn Fn(&Built) -> bool| {
        let (count, secs) = p
            .builds
            .iter()
            .filter(|b| keep(b))
            .fold((0.0, 0.0), |(c, t), b| (c + 1.0, t + b.t.secs));
        report.detail(
            &format!("{name}.build_share"),
            "%",
            100.0 * count / n as f64,
            n,
        );
        report.detail(
            &format!("{name}.time_share"),
            "%",
            100.0 * secs / total_s,
            n,
        );
    };
    for class in [Class::Corpus, Class::Variant, Class::Fuzz] {
        share(format!("{class:?}").to_lowercase(), &|b| b.class == class);
    }
    for level in 0..3u8 {
        share(format!("O{level}"), &|b| b.level == level);
    }
    if ctx.trace {
        let mut tr = Tracer::new(true);
        let mut layers = Layers::new();
        let wall = Instant::now();
        tr.begin("compile.run");
        pass(
            &rounds,
            &mut tr,
            &mut report.checks,
            &mut layers,
            &mut |_| Ok(()),
        )?;
        tr.end();
        let wall_ns = wall.elapsed().as_nanos() as u64;
        let times = tr.layer_times();
        let t = |n: &str| times.get(n).map_or(0, |t| t.total_ns);
        let chain_ns: u64 = [
            "core.parse",
            "core.expand",
            "core.check",
            "core.lower",
            "opt",
            "calyx.verilog",
        ]
        .iter()
        .map(|n| t(n))
        .sum();
        layers.insert("parse.busy_ms", ms(t("core.parse")));
        layers.insert("expand.busy_ms", ms(t("core.expand")));
        layers.insert("check.busy_ms", ms(t("core.check")));
        layers.insert("lower.busy_ms", ms(t("core.lower")));
        layers.insert("opt.busy_ms", ms(t("opt")));
        layers.insert("verilog.busy_ms", ms(t("calyx.verilog")));
        layers.insert("driver.busy_ms", ms(t("build.driver")));
        layers.insert("driver.self_ms", ms(t("build.driver")) - ms(chain_ns));
        finish_trace(
            "compile_cold",
            ctx,
            &tr,
            wall_ns,
            (&["build.driver"], p.primary_ns),
            &mut layers,
            &mut report,
        );
        report.set_layers(&layers);
    }
    Ok(report)
}
