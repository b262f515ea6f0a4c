//! End-to-end tests driving the `rtm-sim` binary.

use std::process::Command;

fn rtm_sim() -> Command {
    Command::new(env!("CARGO_BIN_EXE_rtm-sim"))
}

#[test]
fn list_workloads_names_the_suite() {
    let out = rtm_sim().arg("--list-workloads").output().expect("run");
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    for name in [
        "fir",
        "im2col",
        "matmul",
        "kmeans",
        "bitonic",
        "transpose",
        "aes",
        "spmv",
        "stencil2d",
    ] {
        assert!(text.contains(name), "missing {name} in {text}");
    }
}

#[test]
fn help_prints_usage() {
    let out = rtm_sim().arg("--help").output().expect("run");
    assert!(out.status.success());
    assert!(String::from_utf8_lossy(&out.stdout).contains("USAGE"));
}

#[test]
fn unknown_workload_fails_with_usage() {
    let out = rtm_sim()
        .args(["--workload", "nope"])
        .output()
        .expect("run");
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown workload"));
}

#[test]
fn dump_config_round_trips_through_config_flag() {
    let out = rtm_sim().arg("--dump-config").output().expect("run");
    assert!(out.status.success());
    let json = String::from_utf8_lossy(&out.stdout);
    // Valid JSON with the expected knobs.
    let v: serde_json::Value = serde_json::from_str(&json).expect("valid JSON");
    assert!(v["gpu"]["cus_per_chiplet"].is_u64());

    let dir = std::env::temp_dir().join(format!("rtm-sim-test-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("mkdir");
    let path = dir.join("machine.json");
    std::fs::write(&path, json.as_bytes()).expect("write config");
    let out = rtm_sim()
        .args([
            "--config",
            path.to_str().unwrap(),
            "--workload",
            "transpose",
            "--cus",
            "2",
            "--no-monitor",
        ])
        .output()
        .expect("run");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(out.status.success(), "stdout: {stdout}");
    assert!(stdout.contains("workload completed"));
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn fir_runs_with_monitor_and_reports_progress() {
    let out = rtm_sim()
        .args(["--workload", "fir", "--cus", "2"])
        .output()
        .expect("run");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(out.status.success(), "stdout: {stdout}");
    assert!(stdout.contains("AkitaRTM listening on http://"));
    assert!(stdout.contains("workload completed"));
    assert!(stdout.contains("kernel fir"));
}

#[test]
fn injected_deadlock_reports_a_hang_and_nonzero_exit() {
    let out = rtm_sim()
        .args([
            "--workload",
            "fir",
            "--cus",
            "2",
            "--inject-deadlock",
            "--no-monitor",
        ])
        .output()
        .expect("run");
    assert_eq!(out.status.code(), Some(3), "hang must exit nonzero");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("DID NOT complete"));
}

#[test]
fn attaching_the_monitor_does_not_change_the_simulated_machine() {
    // Monitoring observes; it must never steer. The same workload with no
    // monitor and under the monitor plus stall watchdog must report the
    // same event total and virtual end time.
    let run = |monitor: &str| {
        let out = rtm_sim()
            .args([
                "run",
                "--workload",
                "transpose",
                "--chiplets",
                "2",
                "--cus",
                "2",
                monitor,
            ])
            .output()
            .expect("run");
        let stdout = String::from_utf8_lossy(&out.stdout).into_owned();
        assert!(out.status.success(), "stdout: {stdout}");
        assert!(stdout.contains("workload completed"), "stdout: {stdout}");
        stdout
            .lines()
            .find(|l| l.starts_with("done:"))
            .expect("done line")
            .to_owned()
    };
    let bare = run("--no-monitor");
    let watched = run("--watchdog");
    // "done: N events, T of virtual time, ..." — compare the deterministic
    // prefix (event count + virtual time), not the wall-clock tail.
    let prefix = |s: &str| {
        let mut it = s.split(", ");
        format!("{}, {}", it.next().unwrap(), it.next().unwrap())
    };
    assert_eq!(prefix(&bare), prefix(&watched), "{bare}\nvs\n{watched}");
}
