//! The `verify_*` workloads: `.fil` → netlist → checked transactions.
//!
//! Set-up compiles the class's designs at `-O1`; the timed phase then
//! drives one class of seeded traffic:
//!
//! - `verify_narrow`: long `fil_harness::run_pipelined` streams on the
//!   narrow ALU, `Alu16` and `DivPipe` netlists, where harness driving
//!   dominates;
//! - `verify_wide`: shorter `run_pipelined` streams on the wide AES-10 and
//!   `Systolic[8,32]` netlists, where settle dominates;
//! - `verify_batch`: lane-batched `rtl_sim::BatchSim` runs over the same
//!   wide netlists.
//!
//! Compile layers run only during set-up.

use crate::report::{Checks, Report};
use crate::stats::{best_times, rate, Timed};
use crate::trace::Tracer;
use crate::traffic::{digest, verify_round, Batch, Design, Stream, VerifyClass};
use crate::{bump, bump_build_stats, finish_trace, ms, setups_after, Between, Ctx, Layers};
use fil_bits::Value;
use fil_harness::InterfaceSpec;
use rtl_sim::{BatchSim, Netlist, SignalId, Sim, SimError};
use std::time::Instant;

/// Lanes of each batch that are also run through the scalar harness
/// (untimed) and must match it.
const SCALAR_LANES: usize = 1;

/// A netlist's ports, in interface order.
struct Ports {
    ins: Vec<SignalId>,
    outs: Vec<SignalId>,
    go: Option<SignalId>,
}

/// Looks up the interface's input, output and `go` ports in `net`.
fn resolve_ports(net: &Netlist, spec: &InterfaceSpec) -> Result<Ports, String> {
    let find = |n: &str| net.signal_by_name(n).ok_or_else(|| format!("no port {n}"));
    Ok(Ports {
        ins: spec
            .inputs
            .iter()
            .map(|p| find(&p.name))
            .collect::<Result<_, _>>()?,
        outs: spec
            .outputs
            .iter()
            .map(|p| find(&p.name))
            .collect::<Result<_, _>>()?,
        go: spec.go.as_deref().map(find).transpose()?,
    })
}

/// One compiled design.
struct Compiled {
    design: Design,
    netlist: Netlist,
    spec: InterfaceSpec,
    ports: Ports,
}

/// The harness's view of `design`'s top component: its interface, checked
/// against the inputs the traffic drives, and its ports.
fn interface(
    design: Design,
    top: &str,
    built: &fil_build::BuildOutput,
    netlist: &Netlist,
) -> Result<(InterfaceSpec, Ports), String> {
    let expanded = built.expanded.as_ref().expect("expanded is on by default");
    let sig = expanded.sig(top).ok_or_else(|| format!("no {top}"))?;
    let spec = InterfaceSpec::from_signature(sig).map_err(|e| format!("{top}: {e}"))?;
    let want = design.inputs();
    let got: Vec<(String, u32)> = spec
        .inputs
        .iter()
        .map(|p| (p.name.clone(), p.width))
        .collect();
    if got != want {
        return Err(format!("{top}: inputs {got:?}, traffic expects {want:?}"));
    }
    let ports = resolve_ports(netlist, &spec).map_err(|e| format!("{top}: {e}"))?;
    Ok((spec, ports))
}

/// Compiles the class's designs at `-O1` and elaborates them; the spec
/// comes from the expanded signature.
fn setup(
    class: VerifyClass,
    tr: &mut Tracer,
    layers: &mut Layers,
) -> Result<Vec<Compiled>, String> {
    let mut out = Vec::new();
    for &design in class.designs() {
        tr.begin("bench.request");
        let top = design.top();
        let req = fil_build::BuildRequest::new(design.source())
            .lowered()
            .opt_level(1)
            .jobs(1);
        tr.end();
        tr.begin("build.driver");
        let built = fil_stdlib::build(&req);
        tr.end();
        let mut built = built.map_err(|e| format!("{top}: {e}"))?;
        let lowered = built.lowered.take().expect("lowered was requested");
        tr.begin("calyx.elaborate");
        let netlist = lowered.elaborate(&top);
        tr.end();
        let netlist = netlist.map_err(|e| format!("{top}: {e}"))?;
        tr.begin("harness.spec");
        let interface = interface(design, &top, &built, &netlist);
        tr.end();
        let (spec, ports) = interface?;
        if tr.enabled() {
            let opt = &built.stats.opt;
            bump(layers, "opt.cells_before", opt.cells_before as f64);
            bump(layers, "opt.cells_after", opt.cells_after as f64);
            bump(layers, "opt.rewrites", opt.rewrites() as f64);
            bump(layers, "elaborate.cells", netlist.cells().len() as f64);
            bump_build_stats(layers, &built.stats);
        }
        tr.begin("bench.request");
        drop((req, built, lowered));
        tr.end();
        out.push(Compiled {
            design,
            netlist,
            spec,
            ports,
        });
    }
    Ok(out)
}

fn values(c: &Compiled, s: &Stream) -> Vec<Vec<Value>> {
    s.txns
        .iter()
        .map(|t| {
            t.iter()
                .zip(&c.spec.inputs)
                .map(|(&v, p)| Value::from_u64(p.width, v))
                .collect()
        })
        .collect()
}

/// The golden outputs of every transaction of `s`, from the designs'
/// independent software models.
fn golden(s: &Stream) -> Vec<Vec<u64>> {
    use fil_designs::{alu, divider, systolic};
    match s.design {
        Design::Alu => s
            .txns
            .iter()
            .map(|t| vec![u64::from(alu::golden(t[0], t[1] as u32, t[2] as u32))])
            .collect(),
        Design::Alu16 => s
            .txns
            .iter()
            .map(|t| vec![alu::golden_w(t[0], t[1], t[2], 16)])
            .collect(),
        Design::DivPipe => s
            .txns
            .iter()
            .map(|t| vec![u64::from(divider::golden(t[0] as u8, t[1] as u16))])
            .collect(),
        Design::Aes10 => s
            .txns
            .iter()
            .map(|t| {
                let st: [u8; 16] = std::array::from_fn(|b| t[b] as u8);
                let rks: [[u8; 16]; 10] =
                    std::array::from_fn(|r| std::array::from_fn(|b| t[16 + 16 * r + b] as u8));
                pipelinec::aes::aes_golden(st, &rks)
                    .iter()
                    .map(|&b| u64::from(b))
                    .collect()
            })
            .collect(),
        Design::Sys8 => {
            let lane = |i: usize| -> Vec<u32> { s.txns.iter().map(|t| t[i] as u32).collect() };
            let left: Vec<Vec<u32>> = (0..8).map(lane).collect();
            let top: Vec<Vec<u32>> = (8..16).map(lane).collect();
            let mut out = systolic_prefix(8, &left, &top);
            if let Some(last) = out.last_mut() {
                *last = systolic::golden_n(8, &left, &top, s.txns.len())
                    .into_iter()
                    .map(u64::from)
                    .collect();
            }
            out
        }
    }
}

/// `systolic::golden_n(n, left, top, k + 1)` for every `k` of the stream
/// in one pass, with the same recurrence. (Calling `golden_n` per
/// transaction costs time quadratic in the stream length.) The last
/// transaction is checked against `golden_n` itself.
fn systolic_prefix(n: usize, left: &[Vec<u32>], top: &[Vec<u32>]) -> Vec<Vec<u64>> {
    let get = |s: &[u32], k: usize, lag: usize| k.checked_sub(lag).map_or(0, |k| s[k]);
    let mut acc = vec![0u32; n * n];
    (0..left[0].len())
        .map(|k| {
            for i in 0..n {
                for j in 0..n {
                    let prod = get(&left[i], k, j).wrapping_mul(get(&top[j], k, i));
                    acc[i * n + j] = acc[i * n + j].wrapping_add(prod);
                }
            }
            acc.iter().map(|&v| u64::from(v)).collect()
        })
        .collect()
}

fn as_u64(outs: &[Vec<Value>]) -> Vec<Vec<u64>> {
    outs.iter()
        .map(|t| t.iter().map(Value::to_u64).collect())
        .collect()
}

fn check_stream(checks: &mut Checks, what: &str, got: &[Vec<u64>], want: &[Vec<u64>]) {
    for (k, (g, w)) in got.iter().zip(want).enumerate() {
        checks.check(g == w, || format!("{what}: txn {k}: got {g:?}, want {w:?}"));
    }
    checks.check(got.len() == want.len(), || {
        format!("{what}: {} results for {} txns", got.len(), want.len())
    });
}

fn sim_err(e: SimError) -> String {
    e.to_string()
}

/// The harness's poison for undriven input cycles, replicated so the
/// traced replay drives exactly what `run_pipelined` drives.
fn poison(width: u32, port: usize, cycle: u64) -> Value {
    let x = cycle.wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ (port as u64) ^ 0xa5a5_a5a5_a5a5_a5a5;
    Value::from_u64(64, x).resize(width)
}

/// Replays one `run_pipelined` call with explicit `Sim::new`/`poke`/
/// `settle`/`peek`/`tick` calls, each layer call in its own span, and
/// returns the outputs sampled on the first cycle of each window and the
/// cycles run.
fn replay(
    c: &Compiled,
    inputs: &[Vec<Value>],
    tr: &mut Tracer,
) -> Result<(Vec<Vec<u64>>, u64), String> {
    let (spec, ports) = (&c.spec, &c.ports);
    let period = spec.delay.max(1);
    let n = inputs.len() as u64;
    let total = n.saturating_sub(1) * period + spec.horizon() + 1;
    tr.begin("bench.replay_plan");
    let mut plan: Vec<Vec<Option<&Value>>> = vec![vec![None; spec.inputs.len()]; total as usize];
    for (k, txn) in inputs.iter().enumerate() {
        let t0 = k as u64 * period;
        for (i, port) in spec.inputs.iter().enumerate() {
            for t in (t0 + port.start)..(t0 + port.end) {
                plan[t as usize][i] = Some(&txn[i]);
            }
        }
    }
    let mut got = vec![vec![0u64; ports.outs.len()]; inputs.len()];
    tr.end();
    tr.begin("rtl_sim.new");
    let sim = Sim::new(&c.netlist);
    tr.end();
    let mut sim = sim.map_err(sim_err)?;
    for t in 0..total {
        tr.begin("rtl_sim.poke");
        for (i, port) in spec.inputs.iter().enumerate() {
            let v = match plan[t as usize][i] {
                Some(v) => v.clone(),
                None => poison(port.width, i, t),
            };
            sim.poke(ports.ins[i], v);
        }
        if let Some(go) = ports.go {
            sim.poke(go, Value::from_bool(t % period == 0 && t / period < n));
        }
        tr.end();
        tr.begin("rtl_sim.settle");
        let settled = sim.settle();
        tr.end();
        settled.map_err(sim_err)?;
        tr.begin("rtl_sim.peek");
        for (j, port) in spec.outputs.iter().enumerate() {
            if t >= port.start && (t - port.start) % period == 0 && (t - port.start) / period < n {
                got[((t - port.start) / period) as usize][j] = sim.peek(ports.outs[j]).to_u64();
            }
        }
        tr.end();
        tr.begin("rtl_sim.tick");
        let ticked = sim.tick();
        tr.end();
        ticked.map_err(sim_err)?;
    }
    tr.begin("rtl_sim.drop");
    drop(sim);
    tr.end();
    tr.begin("bench.replay_plan");
    drop(plan);
    tr.end();
    Ok((got, total))
}

/// Runs one lane-batched stream set: every lane drives its stream (`lanes`,
/// already converted to values) one transaction per cycle; outputs are
/// sampled on the first cycle of each window. Returns
/// `got[lane][txn][output]`.
fn run_batch(
    c: &Compiled,
    lanes: &[Vec<Vec<Value>>],
    tr: &mut Tracer,
) -> Result<Vec<Vec<Vec<u64>>>, String> {
    let (spec, ports) = (&c.spec, &c.ports);
    let len = lanes.first().map_or(0, Vec::len) as u64;
    let last = spec.outputs.iter().map(|p| p.start).max().unwrap_or(0);
    tr.begin("rtl_sim.new");
    let sim = BatchSim::new(&c.netlist, lanes.len() as u32);
    tr.end();
    let mut sim = sim.map_err(sim_err)?;
    let mut got = vec![vec![vec![0u64; ports.outs.len()]; len as usize]; lanes.len()];
    for t in 0..len + last {
        tr.begin("rtl_sim.poke");
        if t < len {
            for (l, lane) in lanes.iter().enumerate() {
                for (i, v) in lane[t as usize].iter().enumerate() {
                    sim.poke(ports.ins[i], l as u32, v.clone());
                }
            }
        }
        if let Some(go) = ports.go {
            sim.poke_all(go, Value::from_bool(t < len));
        }
        tr.end();
        tr.begin("rtl_sim.settle");
        let settled = sim.settle();
        tr.end();
        settled.map_err(sim_err)?;
        tr.begin("rtl_sim.peek");
        for (j, port) in spec.outputs.iter().enumerate() {
            if t >= port.start && t - port.start < len {
                let k = (t - port.start) as usize;
                for (l, lane) in got.iter_mut().enumerate() {
                    lane[k][j] = sim.peek(ports.outs[j], l as u32).to_u64();
                }
            }
        }
        tr.end();
        tr.begin("rtl_sim.tick");
        let ticked = sim.tick();
        tr.end();
        ticked.map_err(sim_err)?;
    }
    tr.begin("rtl_sim.drop");
    drop(sim);
    tr.end();
    Ok(got)
}

/// One timed item (a stream or a batch) and its design; the work is
/// transactions, or traces for a batch.
struct Item {
    design: Design,
    /// What makes two items the same work: design, lanes and length.
    shape: u64,
    t: Timed,
}

/// What one pass over the traffic measured.
#[derive(Default)]
struct Pass {
    /// Every item.
    items: Vec<Item>,
    /// Summed time inside `run_pipelined` and batch runs, ns.
    primary_ns: u64,
    /// Wall time of the rounds (items and their checks), ns.
    wall_ns: u64,
}

/// Checks one scalar stream's results against the golden model.
fn check_scalar(checks: &mut Checks, s: &Stream, res: &Result<Vec<Vec<Value>>, String>) {
    let what = format!("{:?} harness", s.design);
    match res {
        Ok(outs) => check_stream(checks, &what, &as_u64(outs), &golden(s)),
        Err(e) => checks.check(false, || format!("{what}: {e}")),
    }
}

/// Checks one batch: every lane against the golden model, and the first
/// [`SCALAR_LANES`] lanes against an untimed scalar `run_pipelined` of
/// the same stimulus.
fn check_batch(
    checks: &mut Checks,
    c: &Compiled,
    b: &Batch,
    res: &Result<Vec<Vec<Vec<u64>>>, String>,
) {
    let got = match res {
        Ok(g) => g,
        Err(e) => return checks.check(false, || format!("{:?} batch: {e}", b.design)),
    };
    for (l, lane) in b.lanes.iter().enumerate() {
        let what = format!("{:?} batch lane {l}", b.design);
        check_stream(checks, &what, &got[l], &golden(lane));
        if l < SCALAR_LANES {
            let scalar = fil_harness::run_pipelined(&c.netlist, &c.spec, &values(c, lane));
            checks.check(scalar.map(|o| as_u64(&o)).as_ref() == Ok(&got[l]), || {
                format!("{what}: differs from the scalar run of the same stimulus")
            });
        }
    }
}

fn by_design(compiled: &[Compiled], d: Design) -> &Compiled {
    compiled
        .iter()
        .find(|c| c.design == d)
        .expect("the class's designs are compiled")
}

fn pass(
    ctx: &Ctx,
    class: VerifyClass,
    compiled: &[Compiled],
    tr: &mut Tracer,
    checks: &mut Checks,
    layers: &mut Layers,
    between: Between,
) -> Result<Pass, String> {
    let mut p = Pass::default();
    for round in 0..ctx.rounds {
        let traffic = verify_round(ctx.seed, round, &ctx.shape, class);
        let wall = Instant::now();
        tr.begin("verify.round");
        for s in &traffic.streams {
            let c = by_design(compiled, s.design);
            tr.begin("verify.stream");
            // Inputs are converted before the item's clock starts.
            tr.begin("bench.values");
            let inputs = values(c, s);
            tr.end();
            tr.begin("harness.run_pipelined");
            let start = Instant::now();
            let res = fil_harness::run_pipelined(&c.netlist, &c.spec, &inputs);
            let dt = start.elapsed();
            tr.end();
            if tr.enabled() {
                tr.begin("verify.replay");
                let replayed = replay(c, &inputs, tr);
                tr.end();
                match (replayed, &res) {
                    (Ok((outs, cycles)), Ok(got)) => {
                        checks.check(outs == as_u64(got), || {
                            format!("{:?}: replay differs from run_pipelined", s.design)
                        });
                        bump(layers, "harness.cycles", cycles as f64);
                    }
                    (Err(e), _) => checks.check(false, || format!("{:?} replay: {e}", s.design)),
                    (Ok(_), Err(_)) => {}
                }
                bump(layers, "harness.txns", s.txns.len() as f64);
            }
            tr.begin("bench.values");
            drop(inputs);
            tr.end();
            tr.end();
            p.primary_ns += dt.as_nanos() as u64;
            p.items.push(Item {
                design: s.design,
                shape: digest(&(s.design, 1, s.txns.len())),
                t: Timed {
                    work: s.txns.len() as f64,
                    secs: dt.as_secs_f64(),
                },
            });
            // Checks run after each item, outside its timing.
            tr.begin("bench.check");
            check_scalar(checks, s, &res.map_err(|e| e.to_string()));
            tr.end();
        }
        for b in &traffic.batches {
            let c = by_design(compiled, b.design);
            tr.begin("bench.values");
            let lanes: Vec<_> = b.lanes.iter().map(|l| values(c, l)).collect();
            tr.end();
            tr.begin("verify.batch");
            let start = Instant::now();
            let res = run_batch(c, &lanes, tr);
            let dt = start.elapsed();
            tr.end();
            tr.begin("bench.values");
            drop(lanes);
            tr.end();
            p.primary_ns += dt.as_nanos() as u64;
            p.items.push(Item {
                design: b.design,
                shape: digest(&(b.design, b.lanes.len(), b.lanes[0].txns.len())),
                t: Timed {
                    work: b.lanes.len() as f64,
                    secs: dt.as_secs_f64(),
                },
            });
            tr.begin("bench.check");
            check_batch(checks, c, b, &res);
            drop(res);
            tr.end();
        }
        tr.end();
        p.wall_ns += wall.elapsed().as_nanos() as u64;
        between(round)?;
    }
    Ok(p)
}

/// Runs the `class` workload.
pub fn run(ctx: &Ctx, class: VerifyClass) -> Result<Report, String> {
    let mut report = Report::default();
    let mut off = Tracer::new(false);
    let mut scratch = Layers::new();
    let mut setup_s = Vec::new();
    let mut timed_setup = || -> Result<Vec<Compiled>, String> {
        let start = Instant::now();
        let compiled = setup(class, &mut Tracer::new(false), &mut Layers::new())?;
        setup_s.push(start.elapsed().as_secs_f64());
        Ok(compiled)
    };
    let compiled = timed_setup()?;
    let p = pass(
        ctx,
        class,
        &compiled,
        &mut off,
        &mut report.checks,
        &mut scratch,
        &mut |round| {
            for _ in 0..setups_after(round, ctx.rounds) {
                timed_setup()?;
            }
            Ok(())
        },
    )?;
    let peak_rss = crate::host::peak_rss_mb();
    let timed: Vec<Timed> = p.items.iter().map(|i| i.t).collect();
    let shapes: Vec<u64> = p.items.iter().map(|i| i.shape).collect();
    let best = best_times(&timed, &shapes);
    report.timing(&timed, &best, &setup_s);
    report.e2e("peak_rss_mb", peak_rss, 1);
    let named = match class {
        VerifyClass::Narrow => "narrow_txns_per_s",
        VerifyClass::Wide => "wide_txns_per_s",
        VerifyClass::Batch => "wide_traces_per_s",
    };
    report.alias(named, "throughput_per_s");
    // Each design's own rate at the best times and its share of all the
    // timed work, so a change that moves one design can be weighed
    // against the class's metric.
    let total_s: f64 = timed.iter().map(|t| t.secs).sum();
    let per = if class == VerifyClass::Batch {
        "traces_per_s"
    } else {
        "txns_per_s"
    };
    for &d in class.designs() {
        let name = format!("{d:?}").to_lowercase();
        let mine = p.items.iter().zip(&best).filter(|(i, _)| i.design == d);
        let n = mine.clone().count() as u64;
        report.detail(
            &format!("{name}.{per}"),
            "1/s",
            rate(mine.clone().map(|(_, b)| b)),
            n,
        );
        let secs: f64 = mine.map(|(i, _)| i.t.secs).sum();
        report.detail(
            &format!("{name}.time_share"),
            "%",
            100.0 * secs / total_s,
            n,
        );
    }
    if ctx.trace {
        let mut tr = Tracer::new(true);
        let mut layers = Layers::new();
        let wall = Instant::now();
        tr.begin("verify.setup");
        let compiled = setup(class, &mut tr, &mut layers)?;
        tr.end();
        let setup_ns = wall.elapsed().as_nanos() as u64;
        let tp = pass(
            ctx,
            class,
            &compiled,
            &mut tr,
            &mut report.checks,
            &mut layers,
            &mut |_| Ok(()),
        )?;
        let wall_ns = setup_ns + tp.wall_ns;
        let times = tr.layer_times();
        let t = |n: &str| times.get(n).copied().unwrap_or_default();
        let harness = t("harness.run_pipelined");
        let new = t("rtl_sim.new");
        let settle = t("rtl_sim.settle");
        let tick = t("rtl_sim.tick");
        layers.insert("harness.busy_ms", ms(harness.total_ns));
        layers.insert(
            "harness.self_ms",
            ms(harness.total_ns) - ms(t("verify.replay").total_ns),
        );
        layers.insert("sim.new_ms", ms(new.total_ns));
        layers.insert("sim.new_calls", new.count as f64);
        layers.insert("settle.busy_ms", ms(settle.total_ns));
        layers.insert("settle.calls", settle.count as f64);
        layers.insert("tick.busy_ms", ms(tick.total_ns));
        layers.insert("tick.calls", tick.count as f64);
        layers.insert("elaborate.busy_ms", ms(t("calyx.elaborate").total_ns));
        layers.insert("driver.busy_ms", ms(t("build.driver").total_ns));
        finish_trace(
            &format!("verify_{}", format!("{class:?}").to_lowercase()),
            ctx,
            &tr,
            wall_ns,
            (&["harness.run_pipelined", "verify.batch"], p.primary_ns),
            &mut layers,
            &mut report,
        );
        report.set_layers(&layers);
    }
    Ok(report)
}
