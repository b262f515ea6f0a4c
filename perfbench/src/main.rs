//! `perfbench` — the repository's benchmark.
//!
//! ```text
//! cargo run --release --offline --locked --quiet --manifest-path perfbench/Cargo.toml -- \
//!     --workload im2col_mcm --seed 1 --seconds 50 --trace 0
//! ```
//!
//! The last line of standard output is one JSON object:
//! `{"correct", "attempted", "failed", "metrics"}`. `--trace 0` reports
//! the end-to-end metrics, `--trace 1` the per-layer ones. The line
//! before it, starting `detail `, records the provenance, the machine and
//! any failures. `--write-reference` records the reference final state
//! into `reference/im2col.txt`.

use std::process::ExitCode;

use serde_json::{json, Value};

use perfbench::bench::{self, Config, Outcome, Workload};
use perfbench::digest::Reference;
use perfbench::host::Provenance;
use perfbench::queries::{http_rate, DASHBOARDS, DIRECT_RATE};
use perfbench::runner::{self, Layers, Size};
use perfbench::stats::iqr_share;

const USAGE: &str = "usage: perfbench --workload <im2col_mcm|im2col_live> \
--seed <n> --seconds <n> --trace <0|1>\n       perfbench --write-reference";

fn parse(args: &[String]) -> Result<Config, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                workload = Some(
                    Workload::parse(name).ok_or_else(|| format!("unknown workload `{name}`"))?,
                );
            }
            "--seed" => {
                seed = Some(
                    value()?
                        .parse::<u64>()
                        .map_err(|e| format!("--seed: {e}"))?,
                );
            }
            "--seconds" => {
                let s: f64 = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s.is_finite() && s > 0.0) {
                    return Err("--seconds must be positive".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace must be 0 or 1, not `{other}`")),
                });
            }
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(Config {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        size: Size::Full,
    })
}

/// Records the reference final state of the kernel from a bare run.
fn write_reference() -> ExitCode {
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join(runner::REFERENCE_FILE);
    let (rep, _) = runner::run_rep(Size::Full, Layers::default(), 0, &bench::trace_path());
    if let Some(why) = &rep.failure {
        eprintln!("error: the reference run failed: {why}");
        return ExitCode::FAILURE;
    }
    let reference = Reference::from_run(rep.sim_ns, rep.state);
    if let Err(e) = std::fs::write(&path, reference.render()) {
        eprintln!("error: cannot write {}: {e}", path.display());
        return ExitCode::FAILURE;
    }
    println!(
        "sim_ns {} digest {:016x} -> {}",
        reference.sim_ns,
        reference.digest,
        path.display()
    );
    ExitCode::SUCCESS
}

fn detail(cfg: &Config, out: &Outcome, prov: &Provenance) -> Value {
    let shape = out.shape.map_or(Value::Null, |s| {
        json!({
            "chiplets": (s.chiplets),
            "cus_per_chiplet": (s.cus_per_chiplet),
            "components": (s.components),
        })
    });
    let reps: Vec<Value> = out
        .reps
        .iter()
        .map(|(label, n)| json!({ "label": (label.clone()), "count": (*n) }))
        .collect();
    json!({
        "workload": (cfg.workload.name()),
        "seed": (cfg.seed),
        "seconds": (cfg.seconds),
        "trace": (cfg.trace),
        "machine": shape,
        "dashboards": (DASHBOARDS),
        "query_rate_per_s": (http_rate()),
        "direct_query_rate_per_s": (DIRECT_RATE),
        "repetitions": (Value::Array(reps)),
        "failures": (out.failures.clone()),
        "rep_run_s": (out.rep_run_s.clone()),
        "rep_run_s_iqr_share": (iqr_share(&out.rep_run_s)),
        "commit": (prov.commit),
        "source_digest": (prov.source_digest),
        "build_profile": (prov.profile),
        "host_cpus": (prov.host_cpus),
    })
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let prov = Provenance::current();
    if prov.is_debug() {
        eprintln!("error: refusing to benchmark a debug build; build with --release");
        return ExitCode::from(2);
    }
    if args == ["--write-reference"] {
        return write_reference();
    }
    let cfg = match parse(&args) {
        Ok(cfg) => cfg,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };

    let out = bench::run(&cfg);

    for m in &out.metrics {
        println!("{:<34} {:>16.6} {}", m.name, m.value, m.unit);
    }
    for f in &out.failures {
        println!("FAILED {f}");
    }
    println!(
        "detail {}",
        serde_json::to_string(&detail(&cfg, &out, &prov)).expect("serializes")
    );
    let metrics = Value::Object(
        out.metrics
            .iter()
            .map(|m| {
                (
                    m.name.clone(),
                    json!({ "value": (m.value), "unit": (m.unit) }),
                )
            })
            .collect(),
    );
    let result = json!({
        "correct": (out.correct),
        "attempted": (out.attempted),
        "failed": (out.failed),
        "metrics": metrics,
    });
    println!("{}", serde_json::to_string(&result).expect("serializes"));
    ExitCode::SUCCESS
}
