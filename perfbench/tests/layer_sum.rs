//! A short traced run of every workload: all outputs check, every
//! per-layer metric is reported, and the layer spans' self times sum to
//! the traced wall time within the stated bound, with the time no layer
//! span covers reported on its own.

use perfbench::report::{LAYER_SUM_BOUND, PER_LAYER};
use perfbench::traffic::Shape;
use perfbench::{Ctx, WORKLOADS};

fn short_traced_run(workload: &str) {
    let dir = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join(format!("ls-{workload}"));
    let scratch = dir.join("tmp");
    std::fs::create_dir_all(&scratch).unwrap();
    let ctx = Ctx {
        seed: 1,
        rounds: 1,
        shape: Shape::SMALL,
        trace: true,
        scratch,
    };
    let report = perfbench::run(workload, &ctx).unwrap();
    assert_eq!(
        report.checks.failed, 0,
        "{workload}: {:?}",
        report.checks.messages
    );
    assert!(report.checks.attempted > 0);
    let names: Vec<&str> = report.layers.iter().map(|m| m.name.as_str()).collect();
    let declared: Vec<&str> = PER_LAYER.iter().map(|(n, _)| *n).collect();
    assert_eq!(names, declared, "{workload} reports every per-layer metric");
    let get = |n: &str| report.layers.iter().find(|m| m.name == n).unwrap().value;
    let (wall, sum) = (get("trace.wall_ms"), get("trace.layer_sum_ms"));
    let unattributed = get("trace.unattributed_ms");
    assert!(wall > 0.0);
    assert!(
        (wall - sum).abs() <= LAYER_SUM_BOUND * wall,
        "{workload}: layer sum {sum} ms vs wall {wall} ms"
    );
    assert!(
        sum + unattributed <= wall * (1.0 + 1e-9),
        "{workload}: layer and unattributed time {} ms exceed the wall {wall} ms",
        sum + unattributed
    );
    assert!(dir.join(format!("spans-{workload}.json")).exists());
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn layer_sum_holds_on_a_short_run() {
    for w in WORKLOADS {
        short_traced_run(w);
    }
}
