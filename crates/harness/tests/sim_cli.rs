//! `filament sim` end to end: the real CLI over a golden-corpus design.

/// `filament sim ... -j 2 --profile` on `Systolic[8, 32]`: `--jobs` only
/// reaches the build, the cell counts say which netlist they count, and
/// the profile covers exactly one settle and one tick per cycle.
#[test]
fn filament_sim_profile_cli() {
    let output = std::process::Command::new(env!("CARGO_BIN_EXE_filament"))
        .args([
            "sim",
            "tests/golden/systolic-8.expanded.fil",
            "Sys8",
            "--cycles",
            "50",
            "-j",
            "2",
            "--profile",
        ])
        .output()
        .expect("failed to spawn filament");
    let stderr = String::from_utf8_lossy(&output.stderr);
    let stdout = String::from_utf8_lossy(&output.stdout);
    assert!(output.status.success(), "filament sim failed: {stderr}");

    let cells = stderr
        .lines()
        .find(|l| l.starts_with("netlist: "))
        .unwrap_or_else(|| panic!("no netlist line: {stderr}"));
    assert!(
        cells.contains(" elaborated cells at -O1 (optimizer, per component: "),
        "{cells}"
    );

    assert!(
        stdout.contains("sim profile: 50 settles, 50 ticks, "),
        "{stdout}"
    );
    assert!(stdout.contains("evals by cell kind:"), "{stdout}");
    for text in ["shard", "rounds/settle"] {
        assert!(
            !stdout.contains(text) && !stderr.contains(text),
            "unexpected {text:?}: {stdout}{stderr}"
        );
    }
}
