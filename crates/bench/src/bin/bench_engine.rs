//! Engine throughput: before/after evidence for the hot-path rework.
//!
//! Runs two workloads — the Fig 4 pipeline chain (message-passing,
//! backpressured) and a stock MCM-GPU platform running FIR — under the
//! seed engine configuration ([`EngineTuning::seed`]: binary heap only,
//! hashed tick dedup, unconditional query polling, per-event atomic
//! publishes) and under the fast hot path ([`EngineTuning::fast`], the
//! default). Reports events/sec for each and writes
//! `results/BENCH_engine.json`.
//!
//! ```text
//! bench_engine [--smoke] [--out PATH]
//! ```
//!
//! `--smoke` runs a reduced problem size, writes no file, and exits
//! nonzero if the fast configuration cannot sustain a modest absolute
//! floor — a CI sanity gate, deliberately far below real throughput so it
//! never flakes on a loaded machine.
//!
//! Both modes additionally measure the task-tracing overhead: the same
//! fast configuration with [`akita::trace`] enabled. The tracing-disabled
//! numbers are the headline ones (the disabled check is one relaxed
//! atomic load); the enabled run quantifies what turning the Latency tab
//! on costs. In `--smoke` mode the traced run must clear the same floor.
//!
//! A third section measures the stall watchdog: the Fig 4 chain with an
//! attached monitor, run once without and once with the watchdog heartbeat
//! (plus per-component activity stamps) enabled. The delta is the price of
//! leaving hang detection armed on every run.
//!
//! The JSON records `host_cpus` so readers can judge the numbers against
//! the machine they ran on.

use std::sync::Arc;
use std::time::{Duration, Instant};

use akita::{EngineTuning, ProgressRegistry, Simulation};
use akita_gpu::{GpuConfig, Platform, PlatformConfig};
use akita_rtm::{Monitor, WatchdogConfig};
use akita_workloads::{Fir, Workload};
use rtm_bench::chain::build_chain_sim;
use rtm_bench::textfig::print_table;
use serde_json::json;

/// Absolute events/sec the fast engine must sustain in `--smoke` mode.
const SMOKE_FLOOR_EPS: f64 = 100_000.0;

#[derive(Clone, Copy)]
struct Measurement {
    events: u64,
    secs: f64,
    eps: f64,
}

fn measure(sim: &mut Simulation, tuning: EngineTuning) -> Measurement {
    sim.set_tuning(tuning);
    let start = Instant::now();
    let summary = sim.run();
    let secs = start.elapsed().as_secs_f64().max(1e-9);
    Measurement {
        events: summary.events,
        secs,
        eps: summary.events as f64 / secs,
    }
}

/// Best-of-`reps` (events/sec is noise-sensitive downward only: the
/// fastest run is the one least disturbed by the machine).
fn best(reps: u32, mut run: impl FnMut() -> Measurement) -> Measurement {
    let mut best = run();
    for _ in 1..reps {
        let m = run();
        if m.eps > best.eps {
            best = m;
        }
    }
    best
}

fn run_chain(tasks: u64, tuning: EngineTuning, reps: u32) -> Measurement {
    best(reps, || {
        let mut sim = build_chain_sim(tasks);
        measure(&mut sim, tuning)
    })
}

/// Runs `inner` with task tracing enabled, resetting the shards so each
/// repetition starts from empty rings.
fn traced(inner: impl FnOnce() -> Measurement) -> Measurement {
    akita::trace::set_enabled(true);
    akita::trace::reset();
    let m = inner();
    akita::trace::set_enabled(false);
    akita::trace::reset();
    m
}

/// The Fig 4 chain with a live monitor attached; `watchdog` additionally
/// arms the stall heartbeat (no auto-pause — a bench run must not freeze)
/// and turns per-component activity stamps on, the configuration a user
/// gets from `rtm-sim run --watchdog`.
fn run_chain_monitored(tasks: u64, tuning: EngineTuning, reps: u32, watchdog: bool) -> Measurement {
    best(reps, || {
        let mut sim = build_chain_sim(tasks);
        let monitor = Arc::new(Monitor::attach(
            &sim,
            ProgressRegistry::new(),
            Duration::from_millis(10),
        ));
        if watchdog {
            monitor.enable_watchdog(WatchdogConfig {
                interval: Duration::from_millis(25),
                stall_checks: 5,
                auto_pause: false,
                stop_on_stall: false,
            });
            sim.set_activity_stamps(true);
        }
        measure(&mut sim, tuning)
    })
}

fn run_gpu(samples: u64, tuning: EngineTuning, reps: u32) -> Measurement {
    best(reps, || {
        let mut platform = Platform::build(PlatformConfig {
            gpu: GpuConfig::scaled(4),
            ..PlatformConfig::default()
        });
        let fir = Fir {
            num_samples: samples,
            ..Fir::default()
        };
        fir.enqueue(&mut platform.driver.borrow_mut());
        platform.start();
        measure(&mut platform.sim, tuning)
    })
}

fn fmt_eps(eps: f64) -> String {
    if eps >= 1e6 {
        format!("{:.2} M", eps / 1e6)
    } else {
        format!("{:.0} k", eps / 1e3)
    }
}

fn workload_json(name: &str, size: u64, seed: Measurement, fast: Measurement) -> serde_json::Value {
    json!({
        "name": name,
        "size": size,
        "seed": {
            "events": (seed.events),
            "secs": (seed.secs),
            "events_per_sec": (seed.eps),
        },
        "fast": {
            "events": (fast.events),
            "secs": (fast.secs),
            "events_per_sec": (fast.eps),
        },
        "speedup": (fast.eps / seed.eps),
    })
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let smoke = args.iter().any(|a| a == "--smoke");
    let out_path = args
        .iter()
        .position(|a| a == "--out")
        .and_then(|i| args.get(i + 1))
        .cloned()
        .unwrap_or_else(|| "results/BENCH_engine.json".to_owned());

    let (chain_tasks, gpu_samples, reps) = if smoke {
        (20_000, 4 * 1024, 1)
    } else {
        (200_000, 16 * 1024, 3)
    };

    let host_cpus = std::thread::available_parallelism().map_or(1, std::num::NonZero::get);
    println!(
        "=== engine throughput: seed configuration vs fast hot path ({host_cpus} host CPU(s)) ===\n"
    );

    let chain_seed = run_chain(chain_tasks, EngineTuning::seed(), reps);
    let chain_fast = run_chain(chain_tasks, EngineTuning::fast(), reps);
    let gpu_seed = run_gpu(gpu_samples, EngineTuning::seed(), reps);
    let gpu_fast = run_gpu(gpu_samples, EngineTuning::fast(), reps);
    let chain_traced = traced(|| run_chain(chain_tasks, EngineTuning::fast(), reps));
    let gpu_traced = traced(|| run_gpu(gpu_samples, EngineTuning::fast(), reps));
    let chain_mon = run_chain_monitored(chain_tasks, EngineTuning::fast(), reps, false);
    let chain_wd = run_chain_monitored(chain_tasks, EngineTuning::fast(), reps, true);

    let row = |name: &str, seed: Measurement, fast: Measurement| {
        vec![
            name.to_owned(),
            format!("{}", seed.events),
            format!("{}/s", fmt_eps(seed.eps)),
            format!("{}/s", fmt_eps(fast.eps)),
            format!("{:.2}x", fast.eps / seed.eps),
        ]
    };
    print_table(
        &["workload", "events", "seed", "fast", "speedup"],
        &[
            row("fig4_chain", chain_seed, chain_fast),
            row("mcm_gpu_fir", gpu_seed, gpu_fast),
        ],
    );

    let overhead = |off: Measurement, on: Measurement| (off.eps / on.eps - 1.0) * 100.0;
    println!("\n=== task-tracing overhead (fast engine, tracing off vs on) ===\n");
    print_table(
        &["workload", "tracing off", "tracing on", "overhead"],
        &[
            vec![
                "fig4_chain".to_owned(),
                format!("{}/s", fmt_eps(chain_fast.eps)),
                format!("{}/s", fmt_eps(chain_traced.eps)),
                format!("{:+.1}%", overhead(chain_fast, chain_traced)),
            ],
            vec![
                "mcm_gpu_fir".to_owned(),
                format!("{}/s", fmt_eps(gpu_fast.eps)),
                format!("{}/s", fmt_eps(gpu_traced.eps)),
                format!("{:+.1}%", overhead(gpu_fast, gpu_traced)),
            ],
        ],
    );

    println!("\n=== stall-watchdog overhead (fast engine + monitor, watchdog off vs on) ===\n");
    print_table(
        &["workload", "watchdog off", "watchdog on", "overhead"],
        &[vec![
            "fig4_chain".to_owned(),
            format!("{}/s", fmt_eps(chain_mon.eps)),
            format!("{}/s", fmt_eps(chain_wd.eps)),
            format!("{:+.1}%", overhead(chain_mon, chain_wd)),
        ]],
    );

    if smoke {
        println!("\nsmoke mode: floor {}/s", fmt_eps(SMOKE_FLOOR_EPS));
        if chain_fast.eps < SMOKE_FLOOR_EPS || gpu_fast.eps < SMOKE_FLOOR_EPS {
            eprintln!(
                "FAIL: fast engine below smoke floor (chain {}/s, gpu {}/s)",
                fmt_eps(chain_fast.eps),
                fmt_eps(gpu_fast.eps)
            );
            std::process::exit(1);
        }
        if chain_traced.eps < SMOKE_FLOOR_EPS || gpu_traced.eps < SMOKE_FLOOR_EPS {
            eprintln!(
                "FAIL: tracing-enabled engine below smoke floor (chain {}/s, gpu {}/s)",
                fmt_eps(chain_traced.eps),
                fmt_eps(gpu_traced.eps)
            );
            std::process::exit(1);
        }
        if chain_wd.eps < SMOKE_FLOOR_EPS {
            eprintln!(
                "FAIL: watchdog-armed engine below smoke floor ({}/s)",
                fmt_eps(chain_wd.eps)
            );
            std::process::exit(1);
        }
        println!("OK: fast engine clears the smoke floor with tracing and watchdog on");
        return;
    }

    let tracing_json = |name: &str, off: Measurement, on: Measurement| {
        json!({
            "name": name,
            "tracing_off_eps": (off.eps),
            "tracing_on_eps": (on.eps),
            "overhead_percent": (overhead(off, on)),
        })
    };
    let doc = json!({
        "bench": "engine_throughput",
        "workloads": [
            (workload_json("fig4_chain", chain_tasks, chain_seed, chain_fast)),
            (workload_json("mcm_gpu_fir", gpu_samples, gpu_seed, gpu_fast)),
        ],
        "tracing_overhead": [
            (tracing_json("fig4_chain", chain_fast, chain_traced)),
            (tracing_json("mcm_gpu_fir", gpu_fast, gpu_traced)),
        ],
        "host_cpus": host_cpus,
        "watchdog_overhead": [
            (json!({
                "name": "fig4_chain",
                "watchdog_off_eps": (chain_mon.eps),
                "watchdog_on_eps": (chain_wd.eps),
                "overhead_percent": (overhead(chain_mon, chain_wd)),
            })),
        ],
    });
    if let Some(dir) = std::path::Path::new(&out_path).parent() {
        std::fs::create_dir_all(dir).expect("create results dir");
    }
    let text = serde_json::to_string_pretty(&doc).expect("serialize");
    std::fs::write(&out_path, text + "\n").expect("write results");
    println!("\nwrote {out_path}");
}
