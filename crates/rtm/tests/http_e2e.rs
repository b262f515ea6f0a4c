//! End-to-end tests: a real GPU simulation, a real HTTP server on a real
//! socket, and the blocking client driving every endpoint — the full
//! AkitaRTM loop, including post-mortem inspection of the Case Study 2
//! deadlock over HTTP.

use std::net::SocketAddr;
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

use akita_gpu::{GpuConfig, Platform, PlatformConfig};
use akita_mem::L2Config;
use akita_rtm::{client, Monitor, RtmServer};
use akita_workloads::{Fir, Workload};

struct Rig {
    addr: SocketAddr,
    server: RtmServer,
    sim_thread: thread::JoinHandle<akita::RunSummary>,
}

/// Builds a monitored FIR simulation *on the simulation thread* (the
/// platform is deliberately `!Send`), starts the HTTP server there, hands
/// the server handle back, and runs the simulation interactively.
fn launch(samples: u64, l2: Option<L2Config>) -> Rig {
    let mut cfg = PlatformConfig {
        gpu: GpuConfig::scaled(4),
        ..PlatformConfig::default()
    };
    if let Some(l2) = l2 {
        cfg.gpu.l2 = l2;
    }
    let (tx, rx) = std::sync::mpsc::channel();
    let sim_thread = thread::spawn(move || {
        let mut platform = Platform::build(cfg);
        let fir = Fir {
            num_samples: samples,
            ..Fir::default()
        };
        fir.enqueue(&mut platform.driver.borrow_mut());
        platform.start();
        let monitor = Arc::new(Monitor::attach(
            &platform.sim,
            platform.progress.clone(),
            Duration::from_millis(10),
        ));
        let server = RtmServer::start_local(monitor).expect("bind server");
        tx.send(server).expect("hand server to test thread");
        platform.sim.run_interactive()
    });
    let server = rx.recv().expect("server handle");
    Rig {
        addr: server.addr(),
        server,
        sim_thread,
    }
}

fn wait_for_state(addr: SocketAddr, state: &str, timeout: Duration) -> bool {
    let start = Instant::now();
    while start.elapsed() < timeout {
        if let Ok(r) = client::get(addr, "/api/now") {
            if r.json().is_ok_and(|j| j["state"] == state) {
                return true;
            }
        }
        thread::sleep(Duration::from_millis(5));
    }
    false
}

fn terminate(rig: Rig) -> akita::RunSummary {
    let _ = client::post(rig.addr, "/api/terminate", None);
    let summary = rig.sim_thread.join().expect("sim thread");
    rig.server.stop();
    summary
}

#[test]
fn dashboard_and_core_endpoints_serve_a_live_simulation() {
    let rig = launch(200_000, None);

    // Frontend.
    let index = client::get(rig.addr, "/").expect("GET /");
    assert!(index.is_ok());
    assert!(index.body.contains("AkitaRTM"));

    // Heartbeat.
    let now = client::get(rig.addr, "/api/now")
        .expect("now")
        .json()
        .unwrap();
    assert!(now["now_ps"].is_u64());

    // Engine status.
    let status = client::get(rig.addr, "/api/status").expect("status");
    assert!(status.is_ok(), "status: {}", status.body);
    let status = status.json().unwrap();
    assert!(status["components"].as_u64().unwrap() > 10);

    // Component list and hierarchy names.
    let comps = client::get(rig.addr, "/api/components")
        .expect("components")
        .json()
        .unwrap();
    let names: Vec<String> = comps
        .as_array()
        .unwrap()
        .iter()
        .map(|c| c["name"].as_str().unwrap().to_owned())
        .collect();
    assert!(names.iter().any(|n| n == "Driver"));
    assert!(names.iter().any(|n| n.contains("L1VROB")));
    assert!(names.iter().any(|n| n.contains("L1VCache")));

    // One component's state (fine-grained serialization).
    let rob = names.iter().find(|n| n.contains("L1VROB")).unwrap();
    let detail = client::get(rig.addr, &format!("/api/component?name={}", urlencode(rob)))
        .expect("component");
    assert!(detail.is_ok(), "component: {}", detail.body);
    let detail = detail.json().unwrap();
    assert_eq!(detail["kind"], "ReorderBuffer");
    assert!(detail["state"]["fields"]
        .as_array()
        .unwrap()
        .iter()
        .any(|f| f["name"] == "transactions"));

    // Unknown component → 404.
    let missing = client::get(rig.addr, "/api/component?name=Nope").expect("404");
    assert_eq!(missing.status, 404);

    // Buffer analyzer.
    let buffers = client::get(rig.addr, "/api/buffers?sort=percent&top=10")
        .expect("buffers")
        .json()
        .unwrap();
    let rows = buffers.as_array().unwrap();
    assert!(!rows.is_empty());
    assert!(rows.len() <= 10);
    // Sorted by percent, descending.
    let percents: Vec<f64> = rows
        .iter()
        .map(|r| r["percent"].as_f64().unwrap())
        .collect();
    assert!(percents.windows(2).all(|w| w[0] >= w[1]));

    // Progress bars (memcpy + kernel).
    let progress = client::get(rig.addr, "/api/progress")
        .expect("progress")
        .json()
        .unwrap();
    assert!(!progress.as_array().unwrap().is_empty());

    // Resources.
    let res = client::get(rig.addr, "/api/resources")
        .expect("resources")
        .json()
        .unwrap();
    assert!(res["supported"].is_boolean());

    // Static analysis: the healthy machine has no error-level findings
    // and is not deadlocked.
    let analysis = client::get(rig.addr, "/api/analysis").expect("analysis");
    assert!(analysis.is_ok(), "analysis: {}", analysis.body);
    let analysis = analysis.json().unwrap();
    assert!(analysis["components"].as_u64().unwrap() > 10);
    assert!(analysis["findings"].is_array());
    assert!(!analysis["findings"]
        .as_array()
        .unwrap()
        .iter()
        .any(|f| f["severity"] == "error"));
    assert_eq!(analysis["deadlock"]["quiesced"], false);

    let summary = terminate(rig);
    assert!(summary.events > 0);
}

#[test]
fn pause_and_continue_over_http() {
    let rig = launch(500_000, None);
    client::post(rig.addr, "/api/pause", None).expect("pause");
    assert!(
        wait_for_state(rig.addr, "Paused", Duration::from_secs(5)),
        "engine never paused"
    );
    // Paused: virtual time frozen, queries still served.
    let t1 = client::get(rig.addr, "/api/now").unwrap().json().unwrap()["now_ps"]
        .as_u64()
        .unwrap();
    thread::sleep(Duration::from_millis(30));
    let t2 = client::get(rig.addr, "/api/now").unwrap().json().unwrap()["now_ps"]
        .as_u64()
        .unwrap();
    assert_eq!(t1, t2, "virtual time advanced while paused");
    assert!(client::get(rig.addr, "/api/status").unwrap().is_ok());
    client::post(rig.addr, "/api/continue", None).expect("continue");
    assert!(
        wait_for_state(rig.addr, "Running", Duration::from_secs(5))
            || wait_for_state(rig.addr, "Idle", Duration::from_secs(5)),
        "engine never resumed"
    );
    terminate(rig);
}

#[test]
fn paused_status_and_heartbeat_report_the_same_exact_event_count() {
    let rig = launch(500_000, None);
    // Let the engine actually dispatch work before freezing it — an
    // immediate pause can win the race against the very first event.
    let start = Instant::now();
    loop {
        let events = client::get(rig.addr, "/api/now").unwrap().json().unwrap()["events"]
            .as_u64()
            .unwrap();
        if events > 0 {
            break;
        }
        assert!(
            start.elapsed() < Duration::from_secs(5),
            "simulation never dispatched events"
        );
        thread::sleep(Duration::from_millis(2));
    }
    client::post(rig.addr, "/api/pause", None).expect("pause");
    assert!(
        wait_for_state(rig.addr, "Paused", Duration::from_secs(5)),
        "engine never paused"
    );

    // Flush-on-query makes the batched publishes exact: the round-trip
    // status count and the lock-free heartbeat count must be the same
    // number while the engine is frozen.
    let status = client::get(rig.addr, "/api/status")
        .unwrap()
        .json()
        .unwrap();
    let now = client::get(rig.addr, "/api/now").unwrap().json().unwrap();
    assert_eq!(status["state"], "Paused");
    let exact = status["events"].as_u64().unwrap();
    assert!(exact > 0);
    assert_eq!(now["events"].as_u64().unwrap(), exact);

    // Paused means frozen: a later status reports the identical count.
    let again = client::get(rig.addr, "/api/status")
        .unwrap()
        .json()
        .unwrap();
    assert_eq!(again["events"].as_u64().unwrap(), exact);

    // Both payloads expose the live throughput estimate as a number.
    assert!(status["events_per_sec"].as_f64().is_some());
    assert!(now["events_per_sec"].as_f64().is_some());

    client::post(rig.addr, "/api/continue", None).expect("continue");
    terminate(rig);
}

#[test]
fn watches_collect_time_series_over_http() {
    let rig = launch(400_000, None);
    // Find an L1 cache to watch.
    let comps = client::get(rig.addr, "/api/components")
        .unwrap()
        .json()
        .unwrap();
    let l1 = comps
        .as_array()
        .unwrap()
        .iter()
        .map(|c| c["name"].as_str().unwrap())
        .find(|n| n.contains("L1VCache"))
        .unwrap()
        .to_owned();
    let body = format!(r#"{{"component":"{l1}","field":"transactions"}}"#);
    let created = client::post(rig.addr, "/api/watch", Some(&body)).expect("watch");
    assert!(created.is_ok(), "watch: {}", created.body);
    let id = created.json().unwrap()["id"].as_u64().unwrap();

    // Let the 10 ms sampler collect some points.
    thread::sleep(Duration::from_millis(200));
    let series = client::get(rig.addr, &format!("/api/watch/{id}"))
        .expect("series")
        .json()
        .unwrap();
    assert_eq!(series["component"], l1.as_str());
    let points = series["points"].as_array().unwrap();
    assert!(
        points.len() >= 3,
        "sampler should have collected points, got {}",
        points.len()
    );

    // All watches listing includes it; deletion works; double delete 404s.
    let all = client::get(rig.addr, "/api/watches")
        .unwrap()
        .json()
        .unwrap();
    assert_eq!(all.as_array().unwrap().len(), 1);
    assert!(client::delete(rig.addr, &format!("/api/watch/{id}"))
        .unwrap()
        .is_ok());
    assert_eq!(
        client::delete(rig.addr, &format!("/api/watch/{id}"))
            .unwrap()
            .status,
        404
    );
    terminate(rig);
}

#[test]
fn profiling_toggles_and_reports_over_http() {
    let rig = launch(300_000, None);
    client::post(rig.addr, "/api/profile/enable", Some(r#"{"enabled":true}"#))
        .expect("enable profiling");
    thread::sleep(Duration::from_millis(150));
    let report = client::get(rig.addr, "/api/profile?top=10").expect("profile");
    assert!(report.is_ok(), "profile: {}", report.body);
    let report = report.json().unwrap();
    let nodes = report["nodes"].as_array().unwrap();
    assert!(!nodes.is_empty(), "profiler collected nothing");
    assert!(nodes.len() <= 10);
    client::post(
        rig.addr,
        "/api/profile/enable",
        Some(r#"{"enabled":false}"#),
    )
    .expect("disable profiling");
    terminate(rig);
    akita::profile::set_enabled(false);
}

#[test]
fn hang_is_observable_and_probeable_over_http_like_case_study_2() {
    // Inject the write-buffer deadlock with a tiny L2.
    let l2 = L2Config {
        size_bytes: 2048,
        ways: 2,
        write_buffer_cap: 1,
        inject_writeback_deadlock: true,
        ..L2Config::default()
    };
    let rig = launch(50_000, Some(l2));

    // The hang manifests exactly as the paper describes: progress stops and
    // the engine goes Idle with work still in flight.
    assert!(
        wait_for_state(rig.addr, "Idle", Duration::from_secs(60)),
        "deadlock never quiesced the engine"
    );

    // Progress bar is stuck short of completion.
    let progress = client::get(rig.addr, "/api/progress")
        .unwrap()
        .json()
        .unwrap();
    let kernel_bar = progress
        .as_array()
        .unwrap()
        .iter()
        .find(|b| b["name"].as_str().unwrap().contains("kernel"))
        .expect("kernel bar");
    assert!(
        kernel_bar["finished"].as_u64().unwrap() < kernel_bar["total"].as_u64().unwrap(),
        "kernel should be stuck, bar: {kernel_bar}"
    );

    // Buffer analyzer shows non-empty buffers ("if there is any content in
    // a buffer, we know the buffer owner cannot proceed").
    let buffers = client::get(rig.addr, "/api/buffers?sort=size&top=10")
        .unwrap()
        .json()
        .unwrap();
    let top_size = buffers.as_array().unwrap()[0]["size"].as_u64().unwrap();
    assert!(top_size > 0, "a hung sim must hold buffered work");

    // The wedged L2 confesses through its component state.
    let l2_state = client::get(rig.addr, "/api/component?name=GPU%5B0%5D.L2%5B0%5D")
        .unwrap()
        .json()
        .unwrap();
    let wedged_bank0 = l2_state["state"]["fields"]
        .as_array()
        .unwrap()
        .iter()
        .any(|f| f["name"] == "wedged" && f["value"]["v"] == true);
    let l2_state1 = client::get(rig.addr, "/api/component?name=GPU%5B0%5D.L2%5B1%5D")
        .unwrap()
        .json()
        .unwrap();
    let wedged_bank1 = l2_state1["state"]["fields"]
        .as_array()
        .unwrap()
        .iter()
        .any(|f| f["name"] == "wedged" && f["value"]["v"] == true);
    assert!(
        wedged_bank0 || wedged_bank1,
        "at least one L2 bank must be wedged: {l2_state} {l2_state1}"
    );

    // The analyzer names the deadlock over HTTP: quiesced with work in
    // flight, a blocked cycle involving the L2, and the wedged suspect.
    let analysis = client::get(rig.addr, "/api/analysis")
        .unwrap()
        .json()
        .unwrap();
    let deadlock = &analysis["deadlock"];
    assert_eq!(deadlock["quiesced"], true, "analysis: {analysis}");
    assert!(deadlock["in_flight"].as_u64().unwrap() > 0);
    assert!(deadlock["cycles"]
        .as_array()
        .unwrap()
        .iter()
        .any(|cycle| cycle
            .as_array()
            .unwrap()
            .iter()
            .any(|m| m.as_str().unwrap().contains("L2["))));
    assert!(deadlock["suspects"]
        .as_array()
        .unwrap()
        .iter()
        .any(|s| s["reason"].as_str().unwrap().contains("wedged")));

    // Tick a hung component and kick-start everything: the sim re-runs its
    // ticks and quiesces again (a code bug cannot be ticked away).
    let tick = client::post(rig.addr, "/api/tick?name=GPU%5B0%5D.L2%5B0%5D", None).unwrap();
    assert!(tick.is_ok(), "tick: {}", tick.body);
    let kick = client::post(rig.addr, "/api/kickstart", None).unwrap();
    assert!(kick.json().unwrap()["woken"].as_u64().unwrap() > 10);
    assert!(
        wait_for_state(rig.addr, "Idle", Duration::from_secs(30)),
        "sim should quiesce again after kick start"
    );
    terminate(rig);
}

fn urlencode(s: &str) -> String {
    s.replace('[', "%5B").replace(']', "%5D")
}

#[test]
fn topology_and_schedule_endpoints() {
    let rig = launch(100_000, None);
    // Topology: every CU-chain connection appears with its attached ports.
    let topo = client::get(rig.addr, "/api/topology").expect("topology");
    assert!(topo.is_ok(), "topology: {}", topo.body);
    let edges = topo.json().unwrap();
    let edges = edges.as_array().unwrap();
    assert!(edges.len() > 10);
    assert!(edges
        .iter()
        .any(|e| e["connection"] == "DriverConn" && e["component"] == "Driver"));
    assert!(edges
        .iter()
        .any(|e| e["port"].as_str().unwrap().contains("L1VROB")));

    // Schedule: a custom event reaches a component (the default handler
    // ignores it, but the endpoint must resolve names).
    let ok = client::post(rig.addr, "/api/schedule?name=Driver&code=7", None).unwrap();
    assert!(ok.is_ok(), "schedule: {}", ok.body);
    let missing = client::post(rig.addr, "/api/schedule?name=Nope&code=7", None).unwrap();
    assert_eq!(missing.status, 404);
    terminate(rig);
}

#[test]
fn parallel_route_reports_the_serial_engine() {
    // Dashboards poll `/api/parallel` unconditionally; the engine is
    // serial, and the route must say so with a 200, not an error.
    let rig = launch(100_000, None);
    let r = client::get(rig.addr, "/api/parallel").expect("parallel");
    assert_eq!(r.status, 200, "parallel: {}", r.body);
    assert_eq!(r.json().unwrap()["parallel"], false, "{}", r.body);
    terminate(rig);
}

#[test]
fn trace_ring_collects_recent_events_over_http() {
    let rig = launch(400_000, None);
    // Disabled by default: empty.
    let empty = client::get(rig.addr, "/api/trace?n=50").unwrap();
    assert!(empty.is_ok());
    assert_eq!(empty.json().unwrap().as_array().unwrap().len(), 0);

    client::post(rig.addr, "/api/trace/enable", Some(r#"{"enabled":true}"#)).expect("enable");
    thread::sleep(Duration::from_millis(100));
    let trace = client::get(rig.addr, "/api/trace?n=50")
        .unwrap()
        .json()
        .unwrap();
    let records = trace.as_array().unwrap();
    assert!(!records.is_empty(), "tracing must capture events");
    assert!(records.len() <= 50);
    // Records carry time + component + kind, and times are monotonic.
    let times: Vec<u64> = records
        .iter()
        .map(|r| r["time"].as_u64().unwrap())
        .collect();
    assert!(times.windows(2).all(|w| w[0] <= w[1]));
    assert!(records[0]["component"].is_string());
    client::post(rig.addr, "/api/trace/enable", Some(r#"{"enabled":false}"#)).expect("disable");
    let cleared = client::get(rig.addr, "/api/trace?n=50")
        .unwrap()
        .json()
        .unwrap();
    assert_eq!(
        cleared.as_array().unwrap().len(),
        0,
        "disable clears the ring"
    );
    terminate(rig);
}

#[test]
fn alert_auto_pauses_a_problematic_simulation() {
    // The paper's "fail early, fail fast", automated: pause the moment an
    // L1's in-flight transactions ever reach its MSHR capacity.
    let rig = launch(600_000, None);
    let comps = client::get(rig.addr, "/api/components")
        .unwrap()
        .json()
        .unwrap();
    let l1 = comps
        .as_array()
        .unwrap()
        .iter()
        .map(|c| c["name"].as_str().unwrap())
        .find(|n| n.contains("L1VCache"))
        .unwrap()
        .to_owned();
    let body = format!(
        r#"{{"component":"{l1}","field":"transactions","op":"above","threshold":0.5,"consecutive":1,"pause":true}}"#
    );
    let created = client::post(rig.addr, "/api/alert", Some(&body)).expect("alert");
    assert!(created.is_ok(), "alert: {}", created.body);
    let id = created.json().unwrap()["id"].as_u64().unwrap();

    // The 10 ms sampler should observe in-flight transactions and pause.
    assert!(
        wait_for_state(rig.addr, "Paused", Duration::from_secs(30)),
        "alert must pause the simulation"
    );
    let alerts = client::get(rig.addr, "/api/alerts")
        .unwrap()
        .json()
        .unwrap();
    let status = &alerts.as_array().unwrap()[0];
    assert_eq!(status["id"].as_u64().unwrap(), id);
    let fired = &status["fired"];
    assert!(fired.is_object(), "alert recorded: {alerts}");
    assert_eq!(fired["paused"], true);
    assert!(fired["value"].as_f64().unwrap() >= 1.0);

    // The architect inspects the frozen crime scene, then resumes.
    assert!(client::get(rig.addr, "/api/buffers?top=5").unwrap().is_ok());
    client::post(rig.addr, "/api/continue", None).expect("continue");
    assert!(client::delete(rig.addr, &format!("/api/alert/{id}"))
        .unwrap()
        .is_ok());
    assert_eq!(
        client::delete(rig.addr, &format!("/api/alert/{id}"))
            .unwrap()
            .status,
        404
    );
    terminate(rig);
}
