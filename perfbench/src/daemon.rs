//! The `daemon_edit` workload: one client's edit session against an
//! in-process `filament serve` daemon (`fil_stdlib::serve::Server`, one
//! driver thread) whose artifact cache was warmed during set-up.
//!
//! Requests split among reply-memo hits, warm builds that read artifacts,
//! fresh edits that rebuild one unit and write its artifact, and
//! `.netlist(top)` requests that go through the netlist cache. Framing,
//! the memo, the caches and the wire codec carry the load; the compile
//! layers only see edited units.

use crate::report::{Checks, Report};
use crate::stats::{best_times, median, quantile, Timed};
use crate::trace::Tracer;
use crate::traffic::{daemon_traffic, digest, DaemonTraffic};
use crate::{bump, bump_build_stats, finish_trace, ms, setups_after, Between, Ctx, Layers};
use fil_build::{BuildOutput, Served};
use fil_stdlib::serve::{self, ServeOptions, Server};
use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::thread::JoinHandle;
use std::time::Instant;

/// A running in-process daemon.
struct Daemon {
    socket: PathBuf,
    thread: JoinHandle<std::io::Result<()>>,
}

impl Daemon {
    /// Binds a daemon with a fresh artifact cache under `dir` and serves
    /// it on its own thread.
    fn start(dir: &Path, tag: &str) -> Result<Daemon, String> {
        let socket = dir.join(format!("{tag}.sock"));
        let cache = dir.join(format!("{tag}-cache"));
        std::fs::create_dir_all(&cache).map_err(|e| format!("{}: {e}", cache.display()))?;
        let server = Server::bind(ServeOptions {
            socket: socket.clone(),
            jobs: 1,
            cache_dir: Some(cache),
            cache_limit: None,
            idle_timeout: None,
        })
        .map_err(|e| format!("bind {}: {e}", socket.display()))?;
        let thread = std::thread::spawn(move || server.run());
        Ok(Daemon { socket, thread })
    }

    /// Stops the daemon and waits for its accept loop to end.
    fn stop(self) -> Result<(), String> {
        serve::stop(&self.socket).map_err(|e| format!("stop: {e}"))?;
        match self.thread.join() {
            Ok(r) => r.map_err(|e| format!("daemon: {e}")),
            Err(_) => Err("daemon thread panicked".into()),
        }
    }
}

/// The bytes of a reply that must match a local build: Verilog and the
/// encoded netlist (build statistics legitimately differ).
fn payload(out: &BuildOutput) -> (u64, usize) {
    let mut bytes = out.verilog.clone().unwrap_or_default().into_bytes();
    if let Some(n) = &out.netlist {
        calyx_lite::serial::encode_netlist(n, &mut bytes);
    }
    (digest(&bytes), bytes.len())
}

/// Starts a daemon and warms its artifact cache and memo with the
/// session's initial working set.
fn setup(ctx: &Ctx, traffic: &DaemonTraffic, tag: &str) -> Result<Daemon, String> {
    let d = Daemon::start(&ctx.scratch, tag)?;
    for &id in &traffic.warm {
        if let Err(e) = serve::request_build(&d.socket, &traffic.request(id)) {
            let _ = d.stop();
            return Err(format!("warming request {id}: {e}"));
        }
    }
    Ok(d)
}

/// How the daemon answered a request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    /// From the reply memo.
    Memo,
    /// A build of a request seen before, reading the warm artifact cache.
    Warm,
    /// The first build of a fresh edit, which rebuilds the edited unit.
    Edit,
}

/// One timed round trip and its request's class.
struct Req {
    t: Timed,
    kind: Kind,
    family: usize,
    netlist: bool,
    level: u8,
}

/// What one pass measured.
#[derive(Default)]
struct Pass {
    reqs: Vec<Req>,
    ping_ms: Vec<f64>,
    /// Reply payload digest per request identity.
    replies: HashMap<u32, (u64, usize)>,
    primary_ns: u64,
}

fn pass(
    traffic: &DaemonTraffic,
    d: &Daemon,
    tr: &mut Tracer,
    checks: &mut Checks,
    layers: &mut Layers,
    between: Between,
) -> Result<Pass, String> {
    let mut p = Pass::default();
    let mut requested = vec![false; traffic.idents.len()];
    for &id in &traffic.warm {
        requested[id as usize] = true;
    }
    let (mut net, mut net_cached) = (0u64, 0u64);
    for (round, ids) in (0u32..).zip(&traffic.rounds) {
        for &id in ids {
            let ident = &traffic.idents[id as usize];
            tr.begin("bench.request");
            let req = traffic.request(id);
            tr.end();
            let fresh = !std::mem::replace(&mut requested[id as usize], true);
            tr.begin("daemon.item");
            tr.begin("serve.request_build");
            let start = Instant::now();
            let res = serve::request_build(&d.socket, &req);
            let dt = start.elapsed();
            tr.end();
            let reply = match res {
                Ok(r) => r,
                Err(e) => {
                    tr.end();
                    checks.check(false, || format!("request {id}: {e}"));
                    continue;
                }
            };
            if tr.enabled() {
                tr.begin("serve.ping");
                let t = Instant::now();
                let pong = serve::ping(&d.socket);
                p.ping_ms.push(t.elapsed().as_secs_f64() * 1e3);
                tr.end();
                checks.check(pong.is_ok(), || format!("ping: {pong:?}"));
                let mut bytes = Vec::new();
                tr.begin("wire.encode");
                fil_build::request::encode_request(&req, &mut bytes);
                tr.end();
                tr.begin("bench.reencode");
                bytes.clear();
                fil_build::request::encode_output(&reply.output, &mut bytes);
                tr.end();
                tr.begin("wire.decode");
                let decoded = fil_build::request::decode_output(&bytes);
                tr.end();
                checks.check(decoded.is_ok(), || {
                    format!("request {id}: reply does not decode")
                });
                bump(layers, "wire.reply_bytes", bytes.len() as f64);
                if reply.served != Served::Memo {
                    tr.begin("core.parse");
                    let parsed = filament_core::parse_program(&req.source);
                    tr.end();
                    bump(layers, "parse.bytes", req.source.len() as f64);
                    checks.check(parsed.is_ok(), || format!("request {id}: does not parse"));
                    bump_build_stats(layers, &reply.output.stats);
                }
            }
            tr.end();
            tr.begin("bench.digest");
            let kind = if reply.served == Served::Memo {
                Kind::Memo
            } else if fresh && ident.edit.is_some() {
                Kind::Edit
            } else {
                Kind::Warm
            };
            if ident.netlist && kind != Kind::Memo {
                net += 1;
                net_cached += u64::from(reply.output.netlist_from_cache);
            }
            p.reqs.push(Req {
                t: Timed {
                    work: 1.0,
                    secs: dt.as_secs_f64(),
                },
                kind,
                family: ident.family,
                netlist: ident.netlist,
                level: ident.level,
            });
            p.primary_ns += dt.as_nanos() as u64;
            let got = payload(&reply.output);
            let first = *p.replies.entry(id).or_insert(got);
            checks.check(first == got && got.1 > 0, || {
                format!("request {id}: reply differs from an earlier reply to it")
            });
            drop((req, reply));
            tr.end();
        }
        between(round)?;
    }
    if tr.enabled() {
        let memo = p.reqs.iter().filter(|r| r.kind == Kind::Memo).count() as f64;
        let total = p.reqs.len().max(1) as f64;
        layers.insert("serve.memo_hit_ratio", memo / total);
        layers.insert("netcache.hit_ratio", net_cached as f64 / net.max(1) as f64);
    }
    Ok(p)
}

/// Compares every distinct reply with a local `fil_stdlib::build` of the
/// same request; netlists are elaborated locally, past the process-wide
/// netlist cache the daemon shares.
fn check_local(
    traffic: &DaemonTraffic,
    replies: &HashMap<u32, (u64, usize)>,
    tr: &mut Tracer,
    checks: &mut Checks,
    layers: &mut Layers,
) {
    let mut ids: Vec<u32> = replies.keys().copied().collect();
    ids.sort_unstable();
    for id in ids {
        let ident = &traffic.idents[id as usize];
        tr.begin("bench.local_build");
        let mut req = traffic.request(id);
        let local = if ident.netlist {
            req.want_netlist = None;
            fil_stdlib::build(&req.lowered())
        } else {
            fil_stdlib::build(&req)
        };
        tr.end();
        let local = local.map_err(|e| e.to_string()).and_then(|mut out| {
            if ident.netlist {
                let lowered = out.lowered.take().expect("lowered was requested");
                let top = &traffic.families[ident.family].top;
                tr.begin("calyx.elaborate");
                let n = lowered.elaborate(top);
                tr.end();
                let n = n.map_err(|e| e.to_string())?;
                bump(layers, "elaborate.cells", n.cells().len() as f64);
                out.netlist = Some(std::sync::Arc::new(n));
            }
            Ok(out)
        });
        tr.begin("bench.digest");
        match local {
            Ok(out) => checks.check(payload(&out) == replies[&id], || {
                format!("request {id}: daemon reply differs from a local build")
            }),
            Err(e) => checks.check(false, || format!("request {id}: local build: {e}")),
        }
        tr.end();
    }
}

/// Runs the workload.
pub fn run(ctx: &Ctx) -> Result<Report, String> {
    let mut report = Report::default();
    let traffic = daemon_traffic(ctx.seed, ctx.rounds, &ctx.shape);
    // The first set-up's daemon serves the measured pass; the later ones
    // each bind a daemon of their own and stop it.
    let mut setup_s = Vec::new();
    let mut timed_setup = || -> Result<Daemon, String> {
        let start = Instant::now();
        let d = setup(ctx, &traffic, &format!("setup{}", setup_s.len()))?;
        setup_s.push(start.elapsed().as_secs_f64());
        Ok(d)
    };
    let d = timed_setup()?;
    let mut off = Tracer::new(false);
    let mut scratch = Layers::new();
    let p = pass(
        &traffic,
        &d,
        &mut off,
        &mut report.checks,
        &mut scratch,
        &mut |round| {
            for _ in 0..setups_after(round, ctx.rounds) {
                timed_setup()?.stop()?;
            }
            Ok(())
        },
    );
    let peak_rss = crate::host::peak_rss_mb();
    let stats = serve::server_stats(&d.socket).map_err(|e| e.to_string());
    d.stop()?;
    let p = p?;
    check_local(
        &traffic,
        &p.replies,
        &mut off,
        &mut report.checks,
        &mut scratch,
    );
    report
        .checks
        .check(stats.is_ok(), || format!("server stats: {stats:?}"));
    let timed: Vec<Timed> = p.reqs.iter().map(|r| r.t).collect();
    // Like requests — the same answer kind, family, output and opt level —
    // are the same work.
    let shapes: Vec<u64> = p
        .reqs
        .iter()
        .map(|r| digest(&(r.kind as u8, r.family, r.netlist, r.level)))
        .collect();
    let best = best_times(&timed, &shapes);
    report.timing(&timed, &best, &setup_s);
    report.e2e("peak_rss_mb", peak_rss, 1);
    report.alias("requests_per_s", "throughput_per_s");
    // Round trips per request class, at the best times.
    let mut rtt = |name: &str, q: f64, keep: &dyn Fn(&Req) -> bool| {
        let ms: Vec<f64> = p
            .reqs
            .iter()
            .zip(&best)
            .filter(|(r, _)| keep(r))
            .map(|(_, b)| b.secs * 1e3)
            .collect();
        report.detail(name, "ms", quantile(&ms, q), ms.len() as u64);
    };
    rtt("memo_rtt_ms_p50", 0.5, &|r| r.kind == Kind::Memo);
    rtt("warm_rtt_ms_p50", 0.5, &|r| r.kind == Kind::Warm);
    rtt("edit_rtt_ms_p50", 0.5, &|r| r.kind == Kind::Edit);
    rtt("edit_rtt_ms_p90", 0.9, &|r| r.kind == Kind::Edit);
    rtt("netlist_rtt_ms_p50", 0.5, &|r| r.netlist);
    // The mix the run produced: each request class's share of all the
    // requests. Memo hits, warm builds and edits partition them;
    // netlists and opt levels cut across.
    let n = p.reqs.len() as u64;
    let mut share = |name: &str, keep: &dyn Fn(&Req) -> bool| {
        let count = p.reqs.iter().filter(|r| keep(r)).count();
        report.detail(name, "%", 100.0 * count as f64 / n as f64, n);
    };
    share("memo.request_share", &|r| r.kind == Kind::Memo);
    share("warm.request_share", &|r| r.kind == Kind::Warm);
    share("edit.request_share", &|r| r.kind == Kind::Edit);
    share("netlist.request_share", &|r| r.netlist);
    for level in 0..3u8 {
        share(&format!("O{level}.request_share"), &|r| r.level == level);
    }
    if ctx.trace {
        let mut tr = Tracer::new(true);
        let mut layers = Layers::new();
        // A fresh daemon, so fresh edits rebuild again.
        let d = setup(ctx, &traffic, "traced")?;
        let wall = Instant::now();
        tr.begin("daemon.run");
        let tp = pass(
            &traffic,
            &d,
            &mut tr,
            &mut report.checks,
            &mut layers,
            &mut |_| Ok(()),
        );
        let tp = match tp {
            Ok(tp) => tp,
            Err(e) => {
                d.stop()?;
                return Err(e);
            }
        };
        tr.end();
        let mut wall_ns = wall.elapsed().as_nanos() as u64;
        let stats = serve::server_stats(&d.socket).map_err(|e| e.to_string())?;
        d.stop()?;
        let wall = Instant::now();
        tr.begin("daemon.check");
        check_local(
            &traffic,
            &tp.replies,
            &mut tr,
            &mut report.checks,
            &mut layers,
        );
        tr.end();
        wall_ns += wall.elapsed().as_nanos() as u64;
        let times = tr.layer_times();
        let t = |n: &str| times.get(n).map_or(0, |t| t.total_ns);
        let rtt = t("serve.request_build");
        let server = rtt as f64 - (t("serve.ping") + t("wire.encode") + t("wire.decode")) as f64;
        layers.insert("serve.ping_ms_p50", median(&tp.ping_ms));
        layers.insert("serve.server_ms", server / 1e6);
        layers.insert("wire.encode_ms", ms(t("wire.encode")));
        layers.insert("wire.decode_ms", ms(t("wire.decode")));
        layers.insert("parse.busy_ms", ms(t("core.parse")));
        layers.insert("elaborate.busy_ms", ms(t("calyx.elaborate")));
        let builds = stats
            .iter()
            .find(|(k, _)| k == "builds_run")
            .map_or(0, |(_, v)| *v);
        layers.insert("serve.builds_run", builds as f64);
        finish_trace(
            "daemon_edit",
            ctx,
            &tr,
            wall_ns,
            (&["serve.request_build"], p.primary_ns),
            &mut layers,
            &mut report,
        );
        report.set_layers(&layers);
    }
    Ok(report)
}
