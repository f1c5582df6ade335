//! Acceptance tests for the simulator profiler (`Sim::enable_profile` /
//! `BatchSim::enable_profile`): counts must account for every settle,
//! tick and cell eval, cell-kind by cell-kind, and batch profiles must
//! report lane occupancy.

use fil_bits::Value;
use rtl_sim::{BatchSim, Netlist, ProfileReport, Sim};

fn build(source: &str, top: &str) -> std::sync::Arc<Netlist> {
    fil_designs::build(source, top).unwrap().0
}

/// Deterministic per-(cycle, input) stimulus (splitmix64 hash).
fn stim(t: u64, i: u64, width: u32) -> Value {
    let mut x = t.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ i.wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    Value::from_u64(64.min(width), x ^ (x >> 31)).resize(width)
}

fn run_profiled(netlist: &Netlist, cycles: u64, force_full: bool) -> ProfileReport {
    let mut sim = Sim::new(netlist).unwrap();
    sim.set_force_full_settle(force_full);
    sim.enable_profile();
    let inputs: Vec<_> = netlist.inputs().collect();
    for t in 0..cycles {
        for (i, &sig) in inputs.iter().enumerate() {
            sim.poke(sig, stim(t, i as u64, netlist.signal(sig).width));
        }
        sim.settle().unwrap();
        sim.tick().unwrap();
    }
    sim.profile().expect("profiling was enabled")
}

/// Cells of each kind in the netlist, as `ProfileReport::kind_evals` labels
/// them.
fn cells_of_kind(netlist: &Netlist, kind: &str) -> u64 {
    netlist
        .cells()
        .iter()
        .filter(|c| c.kind.label() == kind)
        .count() as u64
}

/// Systolic[8, 32]: every settle and tick is counted, the per-kind counts
/// add up to the total, and under force-full settles every cell is
/// evaluated exactly once per settle, kind by kind.
#[test]
fn systolic8_totals_add_up() {
    let n = build(&fil_designs::systolic::source(8, 32), "Sys8");
    let cycles = 24;
    let reference = run_profiled(&n, cycles, false);
    assert_eq!(reference.settles, cycles);
    assert_eq!(reference.ticks, cycles);
    assert!(reference.total_evals > 0);
    assert_eq!(
        reference.kind_evals.iter().map(|(_, e)| e).sum::<u64>(),
        reference.total_evals
    );
    let ff_reference = run_profiled(&n, cycles, true);
    assert_eq!(
        ff_reference.total_evals,
        n.cells().len() as u64 * cycles,
        "force-full: every cell, every settle"
    );
    for (kind, evals) in &ff_reference.kind_evals {
        assert_eq!(
            *evals,
            cells_of_kind(&n, kind) * cycles,
            "force-full: {kind} evals"
        );
    }
    // Change propagation only ever skips work.
    for (kind, evals) in &reference.kind_evals {
        assert!(
            *evals <= cells_of_kind(&n, kind) * cycles,
            "{kind} over-counted"
        );
    }
}

/// Force-full settles evaluate every cell once per settle, so the totals
/// are exactly `cells × settles`.
#[test]
fn force_full_totals_are_exact() {
    let n = build(&fil_designs::systolic::source(4, 32), "Sys4");
    let cycles = 8;
    let report = run_profiled(&n, cycles, true);
    assert_eq!(report.settles, cycles);
    assert_eq!(report.total_evals, n.cells().len() as u64 * cycles);
}

/// A never-profiled sim exposes no report; enabling mid-run starts
/// counting from that point.
#[test]
fn profile_is_opt_in() {
    let n = build(&fil_designs::systolic::source(4, 32), "Sys4");
    let mut sim = Sim::new(&n).unwrap();
    assert!(sim.profile().is_none());
    sim.settle().unwrap();
    sim.tick().unwrap();
    sim.enable_profile();
    sim.settle().unwrap();
    sim.tick().unwrap();
    let report = sim.profile().unwrap();
    assert_eq!(report.ticks, 1, "counting starts at enable_profile()");
    assert_eq!(report.lanes, 1);
    assert_eq!(report.lanes_poked, 1);
}

/// Batch profiles report lane occupancy: only poked lanes count, and
/// `poke_all` marks every lane.
#[test]
fn batch_profile_reports_lane_occupancy() {
    let n = build(&fil_designs::systolic::source(4, 32), "Sys4");
    let mut sim = BatchSim::new(&n, 67).unwrap();
    sim.enable_profile();
    let inputs: Vec<_> = n.inputs().collect();
    for t in 0..4u64 {
        for (i, &sig) in inputs.iter().enumerate() {
            let w = n.signal(sig).width;
            // Drive three scattered lanes, leaving the rest idle.
            for lane in [0u32, 13, 66] {
                sim.poke(sig, lane, stim(t, i as u64, w));
            }
        }
        sim.settle().unwrap();
        sim.tick().unwrap();
    }
    let report = sim.profile().unwrap();
    assert_eq!(report.lanes, 67);
    assert_eq!(report.lanes_poked, 3);
    assert_eq!(report.settles, 4);
    assert_eq!(report.ticks, 4);
    assert!(report.total_evals > 0);
    let json = report.to_json();
    assert!(json.contains("\"lanes\": 67"), "{json}");
    assert!(json.contains("\"lanes_poked\": 3"), "{json}");

    // poke_all floods the occupancy mask.
    let mut sim = BatchSim::new(&n, 67).unwrap();
    sim.enable_profile();
    let sig = n.inputs().next().unwrap();
    sim.poke_all(
        sig,
        Value::from_u64(n.signal(sig).width, 1).resize(n.signal(sig).width),
    );
    assert_eq!(sim.profile().unwrap().lanes_poked, 67);
}
