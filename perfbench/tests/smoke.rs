//! Tiny-size runs of every workload in both modes, checked against the
//! metric lists of `BENCHMARK.json`, plus the machine-shape guard and the
//! stored references. Run with `cargo test --release`.

use std::sync::Mutex;

use perfbench::bench::{self, Config, Outcome, Workload};
use perfbench::runner::{self, Layers, Size};

/// Tracing and profiling switches are process-global, so the runs of one
/// test must not overlap another's.
static SERIAL: Mutex<()> = Mutex::new(());

fn listed_metrics(section: &str) -> Vec<String> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json sits beside the benchmark");
    let doc: serde_json::Value = serde_json::from_str(&text).expect("BENCHMARK.json parses");
    doc[section]
        .as_array()
        .expect("a metric list")
        .iter()
        .map(|m| m["name"].as_str().expect("a metric name").to_owned())
        .collect()
}

fn tiny(workload: Workload, trace: bool) -> Outcome {
    bench::run(&Config {
        workload,
        seed: 7,
        seconds: 0.01,
        trace,
        size: Size::Tiny,
    })
}

fn assert_reports(out: &Outcome, names: &[String], workload: Workload) {
    assert!(out.correct, "{}: {:?}", workload.name(), out.failures);
    assert_eq!(out.failed, 0, "{}", workload.name());
    assert!(out.attempted > 0);
    let reported: Vec<&str> = out.metrics.iter().map(|m| m.name.as_str()).collect();
    let wanted: Vec<&str> = names.iter().map(String::as_str).collect();
    assert_eq!(reported, wanted, "{}", workload.name());
    for m in &out.metrics {
        assert!(
            m.value.is_finite(),
            "{}: {} = {}",
            workload.name(),
            m.name,
            m.value
        );
    }
}

#[test]
fn every_workload_reports_every_end_to_end_metric() {
    let _serial = SERIAL
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner);
    let names = listed_metrics("end_to_end");
    for workload in Workload::ALL {
        let out = tiny(workload, false);
        assert_reports(&out, &names, workload);
        for m in &out.metrics {
            assert!(
                m.value > 0.0,
                "{}: {} is not positive",
                workload.name(),
                m.name
            );
        }
    }
}

#[test]
fn every_workload_reports_every_per_layer_metric() {
    let _serial = SERIAL
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner);
    let names = listed_metrics("per_layer");
    for workload in Workload::ALL {
        let out = tiny(workload, true);
        assert_reports(&out, &names, workload);
        assert!(out.get("akita.engine.events").is_some_and(|n| n > 0.0));
        assert!(out.get("akita.trace.spans").is_some_and(|n| n > 0.0));
    }
}

/// The machine-shape guard: every workload runs on the 4-chiplet MCM-GPU,
/// never on a 1-chiplet GPU labelled as one.
#[test]
fn the_machine_is_the_four_chiplet_mcm_gpu() {
    let _serial = SERIAL
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner);
    let cfg = runner::machine();
    assert_eq!((cfg.chiplets, cfg.gpu.cus_per_chiplet), (4, 8));
    let out = tiny(Workload::Im2colMcm, false);
    let shape = out.shape.expect("a repetition ran");
    assert_eq!((shape.chiplets, shape.cus_per_chiplet), (4, 8));
    assert!(shape.components > 4 * 8 * 4, "{shape:?}");
}

/// At this commit the full-size kernel reproduces the reference recorded
/// in `reference/`, bare, monitored and traced.
#[test]
fn full_size_runs_reproduce_the_stored_references() {
    let _serial = SERIAL
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner);
    for layers in [Layers::default(), Layers::live(), Layers::traced()] {
        let (rep, _) = runner::run_rep(Size::Full, layers, 3, &bench::trace_path());
        assert_eq!(
            runner::check(&rep, &runner::full_reference()),
            None,
            "{layers:?}"
        );
    }
}

/// A run whose answer differs is reported with the first differing field
/// and counted as failed.
#[test]
fn a_wrong_answer_names_the_first_differing_field() {
    let _serial = SERIAL
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner);
    let (rep, _) = runner::run_rep(Size::Tiny, Layers::default(), 0, &bench::trace_path());
    let mut reference = bench::reference(Size::Tiny);
    assert_eq!(runner::check(&rep, &reference), None);
    let i = reference
        .lines
        .iter()
        .position(|l| l.component == "GPU[2].DRAM" && l.field == "reads")
        .expect("the DRAM of chiplet 2 reports reads");
    reference.lines[i].value = "UInt(999999)".into();
    reference = perfbench::digest::Reference::from_run(reference.sim_ns, reference.lines);
    let why = runner::check(&rep, &reference).expect("the answer differs");
    assert!(why.starts_with("`GPU[2].DRAM.reads` is UInt("), "{why}");
}
