//! Acceptance: `bench_check` prints an attribution table on regression.
//!
//! Injects a cycles regression into a current-trajectory file, runs the
//! real binary against a matching baseline, and asserts the failure comes
//! with the ranked field-delta table — a tripped gate must name what
//! moved, not just the ratio.

use cello_obs::json::Json;
use std::process::Command;

fn record(name: &str, cycles: u64, traffic: u64) -> Json {
    Json::Obj(vec![
        ("name".into(), Json::Str(name.into())),
        ("nodes".into(), Json::int(1)),
        ("base_cycles".into(), Json::int(500_000)),
        ("tuned_cycles".into(), Json::int(cycles)),
        ("tuned_traffic_bytes".into(), Json::int(traffic)),
        ("candidates_seen".into(), Json::int(49_153)),
        ("candidates_per_sec".into(), Json::Num(100_000.0)),
    ])
}

fn doc(records: Vec<Json>) -> Json {
    Json::Obj(vec![("workloads".into(), Json::Arr(records))])
}

#[test]
fn injected_regression_produces_attribution_table() {
    let dir = std::env::temp_dir().join("cello_bench_check_attr_test");
    std::fs::create_dir_all(&dir).unwrap();
    let baseline_path = dir.join("baseline.json");
    let current_path = dir.join("current.json");
    std::fs::write(
        &baseline_path,
        doc(vec![record("cg/test", 288_696, 491_632_668)]).render(),
    )
    .unwrap();
    // Inject: cycles blow past the 1.10x gate; traffic moves a little too.
    std::fs::write(
        &current_path,
        doc(vec![record("cg/test", 400_000, 500_000_000)]).render(),
    )
    .unwrap();

    let output = Command::new(env!("CARGO_BIN_EXE_bench_check"))
        .arg(&current_path)
        .arg(&baseline_path)
        .output()
        .expect("bench_check runs");
    let stdout = String::from_utf8_lossy(&output.stdout);
    let stderr = String::from_utf8_lossy(&output.stderr);

    assert!(!output.status.success(), "injected regression must fail");
    assert!(
        stderr.contains("tuned_cycles regressed"),
        "gate names the symptom: {stderr}"
    );
    // The attribution table names the cause, ranked: cycles moved ~39%,
    // traffic ~1.7%, so tuned_cycles leads.
    assert!(stdout.contains("[explain] cg/test@1n"), "{stdout}");
    let cycles_pos = stdout.find("tuned_cycles").expect("cycles row present");
    let traffic_pos = stdout
        .find("tuned_traffic_bytes")
        .expect("traffic row present");
    assert!(
        cycles_pos < traffic_pos,
        "largest relative change ranks first:\n{stdout}"
    );

    // Control: an unchanged current file passes without the table.
    std::fs::write(
        &current_path,
        doc(vec![record("cg/test", 288_696, 491_632_668)]).render(),
    )
    .unwrap();
    let ok = Command::new(env!("CARGO_BIN_EXE_bench_check"))
        .arg(&current_path)
        .arg(&baseline_path)
        .output()
        .expect("bench_check runs");
    assert!(ok.status.success(), "clean run passes");
    assert!(
        !String::from_utf8_lossy(&ok.stdout).contains("[explain]"),
        "green runs stay terse"
    );
}
