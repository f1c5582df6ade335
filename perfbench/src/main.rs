//! The benchmark's one command.
//!
//! ```text
//! perfbench --workload <verify_narrow|verify_wide|verify_batch|compile_cold|daemon_edit> \
//!           --seed <n> --seconds <s> --trace <0|1>
//! perfbench --compare <result-a.json> <result-b.json>
//! ```
//!
//! A run prints a readable summary (host fingerprint, every metric with
//! its unit and sample count, checks, and for traced runs the self-time
//! table), writes the same as `.perfbench/result-<workload>-s<seed>-t<trace>.json`
//! (traced runs also write `.perfbench/spans-<workload>.json`), and ends
//! with one JSON line: `{"correct", "attempted", "failed", "metrics"}` —
//! the end-to-end metrics untraced, the per-layer metrics traced.

use fil_build::fil_trace::json::{self, Json};
use perfbench::host::Fingerprint;
use perfbench::report::RunId;
use perfbench::traffic::Shape;
use perfbench::Ctx;
use std::path::PathBuf;
use std::process::ExitCode;

const USAGE: &str = "usage: perfbench --workload \
                     <verify_narrow|verify_wide|verify_batch|compile_cold|daemon_edit> \
                     --seed <n> --seconds <s> --trace <0|1>\n       \
                     perfbench --compare <result-a.json> <result-b.json>";

fn main() -> ExitCode {
    one_malloc_arena();
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = if args.first().map(String::as_str) == Some("--compare") {
        compare(&args[1..])
    } else {
        bench(&args)
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

fn bench(args: &[String]) -> Result<(), String> {
    let mut workload = None;
    let (mut seed, mut seconds, mut trace) = (1u64, 10u32, false);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .ok_or_else(|| format!("{flag} needs a value\n{USAGE}"))
        };
        match flag.as_str() {
            "--workload" => workload = Some(value()?.clone()),
            "--seed" => seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?,
            "--trace" => trace = value()? == "1",
            other => return Err(format!("unknown argument {other}\n{USAGE}")),
        }
    }
    let workload = workload.ok_or_else(|| format!("--workload is required\n{USAGE}"))?;
    let out_dir = PathBuf::from(".perfbench");
    let scratch = out_dir.join(format!("tmp-{}", std::process::id()));
    std::fs::create_dir_all(&scratch).map_err(|e| format!("{}: {e}", scratch.display()))?;
    // A traced run makes an untraced and a traced pass, the traced one
    // two to three times slower, so it runs a third of the rounds.
    let rounds = if trace { seconds / 3 } else { seconds };
    let ctx = Ctx {
        seed,
        rounds: rounds.max(1),
        shape: Shape::FULL,
        trace,
        scratch: scratch.clone(),
    };
    let result = perfbench::run(&workload, &ctx);
    let _ = std::fs::remove_dir_all(&scratch);
    let report = result?;
    let fp = Fingerprint::current();
    let run = RunId {
        workload: workload.clone(),
        seed,
        seconds,
        trace,
    };
    print!("{}", report.render(&fp));
    let path = out_dir.join(format!(
        "result-{workload}-s{seed}-t{}.json",
        u8::from(trace)
    ));
    if let Err(e) = std::fs::write(&path, report.to_json(&fp, &run)) {
        eprintln!("perfbench: cannot write {}: {e}", path.display());
    }
    println!("{}", report.result_line(trace));
    Ok(())
}

/// Compares two result files metric by metric, flagging results from
/// different host fingerprints as not comparable.
fn compare(args: &[String]) -> Result<(), String> {
    let [a, b] = args else {
        return Err(USAGE.into());
    };
    let load = |p: &String| -> Result<Json, String> {
        let text = std::fs::read_to_string(p).map_err(|e| format!("{p}: {e}"))?;
        json::parse(&text).map_err(|e| format!("{p}: {e}"))
    };
    let (ja, jb) = (load(a)?, load(b)?);
    let fp = |j: &Json| {
        let f = j.get("fingerprint");
        ["nproc", "cpu_model", "rustc", "profile"].map(|k| {
            f.and_then(|f| f.get(k))
                .and_then(|v| {
                    v.as_str()
                        .map(str::to_owned)
                        .or(v.as_f64().map(|n| n.to_string()))
                })
                .unwrap_or_default()
        })
    };
    let (fa, fb) = (fp(&ja), fp(&jb));
    if fa != fb {
        println!("WARNING: different host fingerprints; these results are not comparable");
        println!("  a: {fa:?}\n  b: {fb:?}");
    }
    for section in ["end_to_end", "detail", "per_layer"] {
        let (Some(Json::Obj(ma)), Some(Json::Obj(mb))) = (ja.get(section), jb.get(section)) else {
            continue;
        };
        println!("{section}:");
        for (name, va) in ma {
            let Some(vb) = mb.iter().find(|(n, _)| n == name).map(|(_, v)| v) else {
                continue;
            };
            let val = |v: &Json| v.get("value").and_then(Json::as_f64).unwrap_or(0.0);
            let (x, y) = (val(va), val(vb));
            let ratio = if x != 0.0 { y / x } else { f64::NAN };
            println!("  {name:<26} {x:>14.4} {y:>14.4}  b/a {ratio:.4}");
        }
    }
    if fa != fb {
        return Err("fingerprints differ".into());
    }
    Ok(())
}

/// Puts every thread on glibc's one main malloc arena. The daemon serves
/// each connection on a fresh thread; with per-thread arenas, how many
/// arenas a run creates depends on thread timing, and the peak resident
/// size of identical `daemon_edit` runs moved by about a fifth.
#[cfg(all(target_os = "linux", target_env = "gnu"))]
fn one_malloc_arena() {
    extern "C" {
        fn mallopt(param: std::ffi::c_int, value: std::ffi::c_int) -> std::ffi::c_int;
    }
    const M_ARENA_MAX: std::ffi::c_int = -8;
    // SAFETY: `mallopt` only sets an allocator parameter; it is called
    // before the benchmark starts any thread.
    unsafe {
        mallopt(M_ARENA_MAX, 1);
    }
}

#[cfg(not(all(target_os = "linux", target_env = "gnu")))]
fn one_malloc_arena() {}
