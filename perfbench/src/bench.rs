//! The four workloads, the end-to-end run and the traced run, and the
//! metrics each reports.

use std::path::PathBuf;
use std::time::Instant;

use crate::digest::Reference;
use crate::host::peak_rss_mb;
use crate::queries::{endpoints, Sample, DIRECT};
use crate::runner::{self, Layers, Rep, Shape, Size};
use crate::stats::{median, percentile};

/// A benchmark workload: the im2col kernel on the 4-chiplet machine under
/// a set of layers. The names W1 and W3 follow the benchmark's design,
/// whose W2 (`bitonic_mcm`) and W4 (`im2col_traced`) were dropped so that
/// each run can measure longer: on a shared host their run-to-run spread
/// went past the bound. Task tracing is still measured by the traced
/// run's ladder.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// W1: im2col, no monitor. The miss, DRAM, RDMA and memcpy paths.
    Im2colMcm,
    /// W3: W1's kernel under the full monitoring stack and a live
    /// dashboard stream. W3 / W1 is the Fig 7 overhead.
    Im2colLive,
}

impl Workload {
    /// Every workload, in order.
    pub const ALL: [Workload; 2] = [Workload::Im2colMcm, Workload::Im2colLive];

    /// The name on the command line.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Im2colMcm => "im2col_mcm",
            Workload::Im2colLive => "im2col_live",
        }
    }

    /// Looks a workload up by name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The layers it runs under.
    pub fn layers(self) -> Layers {
        match self {
            Workload::Im2colMcm => Layers::default(),
            Workload::Im2colLive => Layers::live(),
        }
    }
}

/// One benchmark invocation.
#[derive(Debug, Clone)]
pub struct Config {
    /// What to run.
    pub workload: Workload,
    /// Seeds the dashboard query stream, the only random input.
    pub seed: u64,
    /// How long the end-to-end repetitions run.
    pub seconds: f64,
    /// Run the traced (per-layer) variant.
    pub trace: bool,
    /// Problem size.
    pub size: Size,
}

/// A named measurement with its unit.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name.
    pub name: String,
    /// Measured value.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
}

/// What an invocation reports.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Every repetition reproduced its reference and finished.
    pub correct: bool,
    /// Repetitions plus queries sent.
    pub attempted: u64,
    /// Failed repetitions plus failed queries.
    pub failed: u64,
    /// The metrics, in report order.
    pub metrics: Vec<Metric>,
    /// One line per failed repetition.
    pub failures: Vec<String>,
    /// Repetitions run, by label.
    pub reps: Vec<(String, usize)>,
    /// The simulated machine.
    pub shape: Option<Shape>,
    /// Per-repetition `run_s`, in run order.
    pub rep_run_s: Vec<f64>,
    /// Peak resident memory once the first repetition ended: the peak of
    /// one simulation. The process peak over the whole run would grow with
    /// the number of repetitions, because each built platform leaks about
    /// 0.45 MiB of heap after it is dropped.
    pub peak_rss_mb: Option<f64>,
}

impl Outcome {
    fn push(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.metrics.push(Metric {
            name: name.into(),
            value,
            unit,
        });
    }

    /// The value of metric `name`.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|m| m.name == name)
            .map(|m| m.value)
    }

    /// Counts and checks a repetition.
    fn record(&mut self, label: &str, rep: &Rep, reference: &Reference) {
        self.attempted += 1;
        if let Some(why) = runner::check(rep, reference) {
            self.failed += 1;
            self.failures.push(format!("{label}: {why}"));
        }
        if self.shape.is_none() {
            self.shape = Some(rep.shape);
        }
    }

    fn record_queries(&mut self, samples: &[Sample]) {
        self.attempted += samples.len() as u64;
        self.failed += samples.iter().filter(|s| !s.ok).count() as u64;
    }
}

/// HTTP requests the held-simulation stream sends, and the least the live
/// stream must collect: the p95 then has 40 samples beyond it, and the
/// rarest endpoint (`parallel`, 2% of the mix) about 16. At the tiny size
/// the chance that an endpoint gets no sample at all is below 1 in 2000.
fn min_queries(size: Size) -> usize {
    match size {
        Size::Full => 800,
        Size::Tiny => 400,
    }
}

/// Fewest repetitions behind a median.
const MIN_REPS: usize = 3;

/// A run stops starting repetitions after this long, to end well within
/// the three minutes a run is allowed.
const HARD_STOP_S: f64 = 120.0;

/// The reference a run at `size` must reproduce. The full size uses the
/// file recorded in the tree; the tiny size, used by the tests, runs the
/// bare kernel once.
pub fn reference(size: Size) -> Reference {
    match size {
        Size::Full => runner::full_reference(),
        Size::Tiny => {
            let (rep, _) = runner::run_rep(size, Layers::default(), 0, &trace_path());
            Reference::from_run(rep.sim_ns, rep.state)
        }
    }
}

/// Where the Chrome trace of traced repetitions is written.
pub fn trace_path() -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out");
    std::fs::create_dir_all(&dir).expect("create the benchmark's output directory");
    dir.join(format!("trace-{}.json", std::process::id()))
}

fn med(values: impl IntoIterator<Item = f64>) -> f64 {
    let v: Vec<f64> = values.into_iter().collect();
    median(&v).unwrap_or(f64::NAN)
}

fn http_latencies(samples: &[Sample]) -> Vec<f64> {
    samples
        .iter()
        .filter(|s| s.endpoint != DIRECT)
        .map(|s| s.latency_ms)
        .collect()
}

/// Mixes the invocation seed with a repetition index.
fn rep_seed(seed: u64, i: usize) -> u64 {
    seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ (i as u64)
}

/// Runs repetitions of the workload until `budget_s` has passed, there
/// are at least [`MIN_REPS`], and a live stream has collected its queries.
/// With `profile_odd`, every second repetition also runs the profiler and
/// the event-count hook. Returns the repetitions and the platform of the
/// last one. Each repetition's platform is dropped before the next one is
/// built, so only one machine is resident at a time.
fn repeat(
    cfg: &Config,
    budget_s: f64,
    profile_odd: bool,
    out: &mut Outcome,
) -> (Vec<Rep>, Option<akita_gpu::Platform>) {
    let layers = cfg.workload.layers();
    let reference = reference(cfg.size);
    let start = Instant::now();
    let mut reps: Vec<Rep> = Vec::new();
    let mut last = None;
    loop {
        let elapsed = start.elapsed().as_secs_f64();
        let queries: usize = reps.iter().map(|r| http_latencies(&r.queries).len()).sum();
        let enough_queries = !layers.queries || queries >= min_queries(cfg.size);
        if elapsed >= HARD_STOP_S
            || (elapsed >= budget_s && reps.len() >= MIN_REPS && enough_queries)
        {
            break;
        }
        let profiled = profile_odd && reps.len() % 2 == 1;
        let rep_layers = Layers {
            hook: layers.hook || profiled,
            profile: profiled,
            ..layers
        };
        let seed = rep_seed(cfg.seed, reps.len());
        drop(last.take());
        let (rep, platform) = runner::run_rep(cfg.size, rep_layers, seed, &trace_path());
        out.record(cfg.workload.name(), &rep, &reference);
        out.record_queries(&rep.queries);
        reps.push(rep);
        if out.peak_rss_mb.is_none() {
            out.peak_rss_mb = peak_rss_mb();
        }
        last = Some(platform);
    }
    out.reps.push((cfg.workload.name().to_owned(), reps.len()));
    out.rep_run_s = reps.iter().map(|r| r.run_s).collect();
    (reps, last)
}

/// The dashboard stream of a workload: live samples for W3; for the
/// others, the stream against the last repetition's finished simulation,
/// held for inspection.
fn dashboard_samples(
    cfg: &Config,
    reps: &[Rep],
    last: Option<akita_gpu::Platform>,
    out: &mut Outcome,
) -> Vec<Sample> {
    if cfg.workload.layers().queries {
        return reps
            .iter()
            .flat_map(|r| r.queries.iter().cloned())
            .collect();
    }
    let platform = last.expect("at least one repetition ran");
    let samples = runner::hold_and_query(
        platform,
        rep_seed(cfg.seed, usize::MAX),
        min_queries(cfg.size),
    );
    out.record_queries(&samples);
    samples
}

/// The end-to-end run: every `end_to_end` metric of `BENCHMARK.json`.
pub fn end_to_end(cfg: &Config) -> Outcome {
    let mut out = Outcome::default();
    let (reps, _) = repeat(cfg, cfg.seconds, false, &mut out);
    out.push("run_s", med(out.rep_run_s.iter().copied()), "s");
    out.push("run_cpu_s", med(reps.iter().map(|r| r.run_cpu_s)), "s");
    out.push("setup_s", med(reps.iter().map(|r| r.setup_s)), "s");
    out.push("peak_rss_mb", out.peak_rss_mb.unwrap_or(f64::NAN), "MiB");
    out.correct = out.failures.is_empty();
    out
}

/// Metric prefix and component kind of every component layer.
pub const KINDS: [(&str, &str); 10] = [
    ("akita.conn", "DirectConnection"),
    ("mem.at", "AddressTranslator"),
    ("mem.rob", "ReorderBuffer"),
    ("mem.cache", "L1Cache"),
    ("mem.l2", "L2Cache"),
    ("mem.dram", "DRAM"),
    ("gpu.cu", "ComputeUnit"),
    ("gpu.rdma", "RdmaEngine"),
    ("gpu.driver", "Driver"),
    ("gpu.dispatcher", "Dispatcher"),
];

/// The instrumentation ladder of the traced run: each rung switches one
/// layer on W1's kernel and is compared with the rung named third.
fn ladder() -> [(&'static str, Layers, &'static str); 8] {
    let none = Layers::default();
    let monitor = Layers {
        monitor: true,
        ..none
    };
    [
        ("base", none, "base"),
        ("hook", Layers { hook: true, ..none }, "base"),
        ("monitor", monitor, "base"),
        (
            "watchdog",
            Layers {
                watchdog: true,
                ..monitor
            },
            "monitor",
        ),
        (
            "activity",
            Layers {
                activity: true,
                ..none
            },
            "base",
        ),
        ("tasktrace", Layers::traced(), "base"),
        (
            "faults",
            Layers {
                faults: true,
                ..none
            },
            "base",
        ),
        (
            "profile",
            Layers {
                profile: true,
                ..none
            },
            "base",
        ),
    ]
}

/// Self time of a kind's scopes as a share of `busy_ns`.
fn kind_share(profile: &akita::ProfileReport, kind: &str, busy_ns: f64) -> f64 {
    let tick = format!("{kind}::tick");
    let self_ns: u64 = profile
        .nodes
        .iter()
        .filter(|n| n.name == kind || n.name == tick)
        .map(|n| n.self_ns)
        .sum();
    self_ns as f64 / busy_ns
}

/// The share of `busy_ns` outside every component scope: queue pops,
/// dispatch and, on a live run, query serving.
fn engine_share(profile: &akita::ProfileReport, busy_ns: f64) -> f64 {
    let in_components: u64 = profile
        .nodes
        .iter()
        .filter(|n| KINDS.iter().any(|(_, k)| n.name == *k))
        .map(|n| n.total_ns)
        .sum();
    (busy_ns - in_components as f64) / busy_ns
}

/// The traced run: every `per_layer` metric of `BENCHMARK.json`.
pub fn traced(cfg: &Config) -> Outcome {
    let mut out = Outcome::default();

    // Part 1: the workload itself, alternating plain and profiled
    // repetitions (the profiled ones also count events per kind).
    let (reps, last) = repeat(cfg, cfg.seconds / 2.0, true, &mut out);
    let samples = dashboard_samples(cfg, &reps, last, &mut out);
    let plain: Vec<&Rep> = reps.iter().filter(|r| r.profile.is_none()).collect();
    let prof: Vec<(&Rep, &akita::ProfileReport)> = reps
        .iter()
        .filter_map(|r| r.profile.as_ref().map(|p| (r, p)))
        .collect();
    let first = &reps[0];

    if let Some(shape) = out.shape {
        out.push("machine.chiplets", shape.chiplets as f64, "count");
        out.push(
            "machine.cus_per_chiplet",
            shape.cus_per_chiplet as f64,
            "count",
        );
        out.push("machine.components", shape.components as f64, "count");
    }
    out.push("gpu.build_s", med(reps.iter().map(|r| r.build_s)), "s");
    out.push(
        "workloads.enqueue_s",
        med(reps.iter().map(|r| r.enqueue_s)),
        "s",
    );
    out.push("akita.engine.events", first.events as f64, "count");
    out.push(
        "akita.engine.ns_per_event",
        med(plain.iter().map(|r| r.busy_s * 1e9 / r.events as f64)),
        "ns",
    );
    out.push(
        "akita.engine.self_share",
        med(prof.iter().map(|(r, p)| engine_share(p, r.busy_s * 1e9))),
        "share",
    );
    let counts = prof
        .first()
        .and_then(|(r, _)| r.counts.clone())
        .unwrap_or_default();
    for (prefix, kind) in KINDS {
        let n = counts
            .iter()
            .find(|(k, _)| k == kind)
            .map_or(0, |(_, n)| *n);
        out.push(format!("{prefix}.events"), n as f64, "count");
        out.push(
            format!("{prefix}.self_share"),
            med(prof
                .iter()
                .map(|(r, p)| kind_share(p, kind, r.busy_s * 1e9))),
            "share",
        );
    }

    // Modelled counters: these repeat exactly.
    let c = &first.counters;
    out.push("sim_ns", first.sim_ns as f64, "sim-ns");
    out.push(
        "mem.cache.hit_ratio",
        c.ratio("L1Cache", "hits", "misses"),
        "ratio",
    );
    out.push(
        "mem.l2.hit_ratio",
        c.ratio("L2Cache", "hits", "misses"),
        "ratio",
    );
    out.push(
        "mem.dram.accesses",
        c.sum("DRAM", "reads") + c.sum("DRAM", "writes"),
        "count",
    );
    out.push(
        "mem.dram.row_hit_ratio",
        c.ratio("DRAM", "row_hits", "row_misses"),
        "ratio",
    );
    out.push(
        "mem.at.tlb_hit_ratio",
        c.ratio("AddressTranslator", "tlb_hits", "tlb_misses"),
        "ratio",
    );
    out.push(
        "gpu.rdma.forwarded",
        c.sum("RdmaEngine", "forwarded_out"),
        "count",
    );
    out.push(
        "gpu.cu.insts",
        c.sum("ComputeUnit", "insts_executed"),
        "count",
    );

    // The dashboard stream, whole and per endpoint.
    let http = http_latencies(&samples);
    let pct = |v: &[f64], p: f64| percentile(v, p).unwrap_or(f64::NAN);
    out.push("rtm.query_p50_ms", pct(&http, 50.0), "ms");
    out.push("rtm.query_p95_ms", pct(&http, 95.0), "ms");
    for (endpoint, _, _) in endpoints() {
        let lat: Vec<f64> = samples
            .iter()
            .filter(|s| s.endpoint == endpoint)
            .map(|s| s.latency_ms)
            .collect();
        out.push(format!("rtm.http.{endpoint}.p50_ms"), pct(&lat, 50.0), "ms");
    }
    let direct: Vec<f64> = samples
        .iter()
        .filter(|s| s.endpoint == DIRECT)
        .map(|s| s.latency_ms)
        .collect();
    out.push("rtm.query_direct_p50_ms", pct(&direct, 50.0), "ms");
    let late: Vec<f64> = samples.iter().map(|s| s.late_ms).collect();
    out.push("rtm.generator_late_ms", pct(&late, 95.0), "ms");

    // Part 2: the instrumentation ladder, rungs interleaved and their
    // order reversed every cycle.
    let reference = reference(cfg.size);
    let ladder = ladder();
    let mut rungs: Vec<Vec<Rep>> = ladder.iter().map(|_| Vec::new()).collect();
    let start = Instant::now();
    let mut cycle = 0;
    while cycle == 0 || start.elapsed().as_secs_f64() < cfg.seconds.min(HARD_STOP_S) {
        let order: Vec<usize> = if cycle % 2 == 0 {
            (0..ladder.len()).collect()
        } else {
            (0..ladder.len()).rev().collect()
        };
        for i in order {
            let (label, rung, _) = ladder[i];
            let (rep, _) =
                runner::run_rep(cfg.size, rung, rep_seed(cfg.seed, cycle), &trace_path());
            out.record(&format!("ladder.{label}"), &rep, &reference);
            rungs[i].push(rep);
        }
        cycle += 1;
    }
    out.reps.push(("ladder cycles".to_owned(), cycle));
    let rung = |label: &str| {
        let i = ladder
            .iter()
            .position(|r| r.0 == label)
            .expect("a ladder rung");
        &rungs[i]
    };
    let cpu = |label: &str| med(rung(label).iter().map(|r| r.run_cpu_s));

    let monitored = rung("monitor").iter().chain(rung("watchdog"));
    out.push("rtm.attach_s", med(monitored.map(|r| r.attach_s)), "s");
    out.push(
        "rtm.watchdog.stop_lag_s",
        med(rung("watchdog").iter().filter_map(|r| r.stop_lag_s)),
        "s",
    );
    let traced = rung("tasktrace");
    let (spans, dropped) = traced[0].spans.unwrap_or_default();
    out.push("akita.trace.spans", spans as f64, "count");
    out.push("akita.trace.spans_dropped", dropped as f64, "count");
    out.push(
        "akita.trace.export_s",
        med(traced.iter().filter_map(|r| r.export_s)),
        "s",
    );
    for (label, _, base) in ladder.iter().skip(1) {
        out.push(
            format!("obs.{label}_ratio"),
            cpu(label) / cpu(base),
            "ratio",
        );
    }
    out.correct = out.failures.is_empty();
    out
}

/// Runs the invocation `cfg` describes.
pub fn run(cfg: &Config) -> Outcome {
    let out = if cfg.trace {
        traced(cfg)
    } else {
        end_to_end(cfg)
    };
    let _ = std::fs::remove_file(trace_path());
    out
}
