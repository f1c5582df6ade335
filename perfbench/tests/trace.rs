//! Self times (a span's duration minus the part its children cover), the
//! layer-sum check, and the best times of like items.

use perfbench::report::LAYER_SUM_BOUND;
use perfbench::stats::{best_times, quantile, rate, Timed};
use perfbench::trace::{Tracer, NO_PARENT};
use perfbench::{setups_after, LayerSum, SETUP_REPEATS};
use std::time::{Duration, Instant};

#[test]
fn self_times_sum_to_the_roots() {
    let mut tr = Tracer::new(true);
    tr.begin("root");
    tr.begin("a");
    tr.begin("b");
    std::thread::sleep(std::time::Duration::from_millis(2));
    tr.end();
    tr.end();
    tr.begin("c");
    std::thread::sleep(std::time::Duration::from_millis(1));
    tr.end();
    tr.end();
    let times = tr.layer_times();
    let self_sum: u64 = times.values().map(|t| t.self_ns).sum();
    let root = tr.spans()[0];
    assert_eq!(self_sum, root.end - root.start);
    assert_eq!(
        times["a"].total_ns,
        times["a"].self_ns + times["b"].total_ns
    );
    let spans = tr.spans();
    assert_eq!(spans[0].parent, NO_PARENT);
    assert_eq!(spans[1].parent, 0);
    assert_eq!(spans[2].parent, 1);
    assert!(tr
        .to_json()
        .starts_with("{\"names\": [\"root\", \"a\", \"b\", \"c\"]"));
}

#[test]
fn disabled_tracer_records_nothing() {
    let mut tr = Tracer::new(false);
    tr.begin("x");
    assert_eq!(tr.end(), 0);
    assert!(tr.spans().is_empty());
}

#[test]
fn quantiles_interpolate() {
    let v = [4.0, 1.0, 3.0, 2.0];
    assert_eq!(quantile(&v, 0.0), 1.0);
    assert_eq!(quantile(&v, 1.0), 4.0);
    assert_eq!(quantile(&v, 0.5), 2.5);
    assert_eq!(quantile(&[], 0.5), 0.0);
}

/// Runs a traced "pass": one grouping root whose time is spent `inside`
/// ms in a layer span and `outside` ms in no layer span; returns the
/// layer-sum result against the pass's wall time.
fn pass(inside: u64, outside: u64) -> LayerSum {
    let mut tr = Tracer::new(true);
    let wall = Instant::now();
    tr.begin("verify.round");
    tr.begin("rtl_sim.settle");
    std::thread::sleep(Duration::from_millis(inside));
    tr.end();
    std::thread::sleep(Duration::from_millis(outside));
    tr.end();
    let wall_ns = wall.elapsed().as_nanos() as u64;
    LayerSum::new(&tr.layer_times(), wall_ns)
}

#[test]
fn layer_sum_holds_when_layers_cover_the_pass() {
    let sum = pass(40, 0);
    assert!(sum.holds(), "{sum:?}");
}

#[test]
fn layer_sum_fails_on_time_outside_the_layers() {
    // A fifth of the pass in no layer span: well past the bound.
    const { assert!(LAYER_SUM_BOUND < 0.2) };
    let sum = pass(40, 10);
    assert!(!sum.holds(), "{sum:?}");
    assert!(sum.unattributed_ns >= 10_000_000, "{sum:?}");
}

fn timed(work: f64, secs: f64) -> Timed {
    Timed { work, secs }
}

#[test]
fn best_times_take_the_fastest_of_each_shape() {
    // Two shapes: shape 1 is ten times the work of shape 0, and each ran
    // through a slow stretch.
    let secs = [1.2, 1.1, 3.0, 1.0, 3.1];
    let mut items = Vec::new();
    let mut shapes = Vec::new();
    for (shape, scale) in [(0u64, 1.0), (1, 10.0)] {
        for s in secs {
            items.push(timed(scale, s * scale));
            shapes.push(shape);
        }
    }
    let best = best_times(&items, &shapes);
    // Every item stays, with its own work, at its shape's fastest time.
    assert_eq!(best.len(), items.len());
    for (b, (t, &shape)) in best.iter().zip(items.iter().zip(&shapes)) {
        assert_eq!(b.work, t.work);
        assert_eq!(b.secs, if shape == 0 { 1.0 } else { 10.0 });
    }
    assert_eq!(rate(&best), 1.0);
}

#[test]
fn later_setups_are_spread_over_the_rounds() {
    for rounds in [1, 3, 8, 20, 21] {
        let per: Vec<usize> = (0..rounds).map(|r| setups_after(r, rounds)).collect();
        assert_eq!(
            per.iter().sum::<usize>(),
            SETUP_REPEATS - 1,
            "{rounds}: {per:?}"
        );
        if rounds >= 8 {
            assert!(per.iter().all(|&n| n <= 1), "{rounds}: {per:?}");
        }
    }
}
