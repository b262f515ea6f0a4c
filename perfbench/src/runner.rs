//! One repetition: build the machine, run the kernel under a chosen set
//! of layers, time it, and check its answer.

use std::collections::BTreeMap;
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use akita::faults::{FaultKind, FaultPlan, FaultRule};
use akita::{ComponentId, EngineTuning, EventCountHook, ProfileReport, Simulation};
use akita_gpu::{GpuConfig, Platform, PlatformConfig};
use akita_rtm::{Monitor, RtmServer, StallKind, WatchdogConfig};
use akita_workloads::{Im2col, Workload};

use crate::digest::{self, Reference, StateLine};
use crate::host::thread_cpu_s;
use crate::queries::{self, Plan, Sample, Stream, Until};

/// The paper's Case Study 1 machine: 4 chiplets x 8 CUs, as
/// `rtm-sim run --chiplets 4` builds it.
pub fn machine() -> PlatformConfig {
    PlatformConfig::mcm(GpuConfig::default())
}

/// Problem sizes: the measured one and a tiny one for smoke tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Size {
    /// The benchmark's size.
    Full,
    /// A few milliseconds of simulation, for tests.
    Tiny,
}

/// The kernel every workload runs: Case Study 1's im2col with the batch
/// scaled up, so that it streams a working set larger than the caches.
pub fn kernel(size: Size) -> Box<dyn Workload> {
    let batch = match size {
        Size::Full => 32,
        Size::Tiny => 4,
    };
    Box::new(Im2col {
        batch,
        ..Im2col::default()
    })
}

/// Where the recorded reference of the full-size kernel is kept.
pub const REFERENCE_FILE: &str = "reference/im2col.txt";

/// The recorded reference of the full-size kernel.
pub fn full_reference() -> Reference {
    Reference::parse(include_str!("../reference/im2col.txt"))
        .expect("the reference file in the tree is well-formed")
}

/// Which layers a repetition switches on. The default is the bare
/// serial engine.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Layers {
    /// `EventCountHook` on the dispatch path.
    pub hook: bool,
    /// A `Monitor` (100 ms sampling) and its `RtmServer`.
    pub monitor: bool,
    /// The stall watchdog with stop-on-stall (needs `monitor`).
    pub watchdog: bool,
    /// The open-loop dashboard stream against the live run (needs
    /// `watchdog`, which ends the run).
    pub queries: bool,
    /// Per-component activity stamps.
    pub activity: bool,
    /// `akita::trace` task tracing, exported as a Chrome trace at the end.
    pub tasktrace: bool,
    /// A fault plan whose probabilities are all zero.
    pub faults: bool,
    /// The `akita::profile` scope profiler.
    pub profile: bool,
}

impl Layers {
    /// The full monitoring stack of `rtm-sim run --watchdog`.
    pub fn live() -> Layers {
        Layers {
            hook: true,
            monitor: true,
            watchdog: true,
            queries: true,
            ..Layers::default()
        }
    }

    /// `rtm-sim trace`.
    pub fn traced() -> Layers {
        Layers {
            tasktrace: true,
            ..Layers::default()
        }
    }
}

/// The shape of the simulated machine, recorded with every result.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Shape {
    /// GPU chiplets.
    pub chiplets: usize,
    /// Compute units per chiplet.
    pub cus_per_chiplet: usize,
    /// Registered components.
    pub components: usize,
}

/// What one repetition measured.
#[derive(Debug)]
pub struct Rep {
    /// `Platform::build`.
    pub build_s: f64,
    /// `Workload::enqueue`.
    pub enqueue_s: f64,
    /// Hook, monitor attach, server bind and watchdog arming.
    pub attach_s: f64,
    /// Build, enqueue, start and attach.
    pub setup_s: f64,
    /// From the first simulated event until the result is in hand.
    pub run_s: f64,
    /// CPU seconds of the simulation thread over `run_s`.
    pub run_cpu_s: f64,
    /// From the start of the run until the engine was seen idle (live
    /// runs), else `run_s`.
    pub busy_s: f64,
    /// From the engine going idle until the run returned (watchdog runs).
    pub stop_lag_s: Option<f64>,
    /// Events dispatched.
    pub events: u64,
    /// Simulated end time, nanoseconds.
    pub sim_ns: u64,
    /// Final state of every component.
    pub state: Vec<StateLine>,
    /// Modelled counters summed over the components of each kind.
    pub counters: Counters,
    /// Why the run failed, if it did.
    pub failure: Option<String>,
    /// Per-kind event counts, when the hook was on.
    pub counts: Option<Vec<(String, u64)>>,
    /// The profile, when the profiler was on.
    pub profile: Option<ProfileReport>,
    /// Live queries, when the stream ran.
    pub queries: Vec<Sample>,
    /// Completed task spans and spans dropped, when tracing was on.
    pub spans: Option<(u64, u64)>,
    /// Snapshot and Chrome-trace export, when tracing was on.
    pub export_s: Option<f64>,
    /// The machine.
    pub shape: Shape,
}

/// Modelled counters, summed over every component of a kind, keyed
/// `(kind, field)`.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Counters(BTreeMap<(String, String), f64>);

impl Counters {
    /// Sums every numeric state field of every component of `sim` by kind.
    pub fn read(sim: &Simulation) -> Counters {
        let mut sums = BTreeMap::new();
        for i in 0..sim.component_count() {
            let comp = sim.component(ComponentId::from_index(i));
            let comp = comp.borrow();
            for field in comp.state().fields {
                if let Some(v) = field.value.as_f64() {
                    *sums
                        .entry((comp.kind().to_owned(), field.name))
                        .or_insert(0.0) += v;
                }
            }
        }
        Counters(sums)
    }

    /// The sum of `field` over components of `kind`.
    pub fn sum(&self, kind: &str, field: &str) -> f64 {
        self.0
            .get(&(kind.to_owned(), field.to_owned()))
            .copied()
            .unwrap_or(0.0)
    }

    /// `hits / (hits + misses)` over components of `kind`; 0 when idle.
    pub fn ratio(&self, kind: &str, hits: &str, misses: &str) -> f64 {
        let (h, m) = (self.sum(kind, hits), self.sum(kind, misses));
        if h + m == 0.0 {
            0.0
        } else {
            h / (h + m)
        }
    }
}

/// A fault plan that can never fire: one zero-probability rule of each
/// message kind at every L2 bank's top port.
fn zero_fault_plan(chiplets: usize, banks: usize) -> FaultPlan {
    let mut rules = Vec::new();
    for c in 0..chiplets {
        for b in 0..banks {
            let site = format!("GPU[{c}].L2[{b}].TopPort");
            for kind in [
                FaultKind::Drop { prob: 0.0 },
                FaultKind::Delay {
                    prob: 0.0,
                    delay_ps: 1000,
                },
                FaultKind::Duplicate { prob: 0.0 },
            ] {
                rules.push(FaultRule {
                    site: site.clone(),
                    kind,
                });
            }
        }
    }
    FaultPlan { seed: 1, rules }
}

/// Runs one repetition of the kernel at `size` under `layers`. `seed` draws
/// the query stream; `trace_out` receives the exported Chrome trace.
/// Returns the platform too, so a caller can hold the finished
/// simulation for inspection.
pub fn run_rep(size: Size, layers: Layers, seed: u64, trace_out: &Path) -> (Rep, Platform) {
    assert!(
        (!layers.watchdog || layers.monitor) && (!layers.queries || layers.watchdog),
        "the watchdog needs the monitor, and the live query stream runs beside the watchdog"
    );
    let cfg = machine();
    let (chiplets, banks) = (cfg.chiplets, cfg.gpu.num_l2_banks);
    let workload = kernel(size);

    let t0 = Instant::now();
    let mut platform = Platform::build(cfg);
    let build_s = t0.elapsed().as_secs_f64();
    platform.sim.set_tuning(EngineTuning::fast());
    let t1 = Instant::now();
    workload.enqueue(&mut platform.driver.borrow_mut());
    let enqueue_s = t1.elapsed().as_secs_f64();
    platform.start();

    let t2 = Instant::now();
    let counts = layers
        .hook
        .then(|| platform.sim.add_hook(EventCountHook::default()));
    let mut monitored = None;
    if layers.monitor {
        let monitor = Arc::new(Monitor::attach(
            &platform.sim,
            platform.progress.clone(),
            Duration::from_millis(100),
        ));
        if let Some(counts) = &counts {
            monitor.set_event_counts(counts.borrow().shared());
        }
        let server = RtmServer::start_local(Arc::clone(&monitor)).expect("bind the monitor server");
        if layers.watchdog {
            monitor.enable_watchdog(WatchdogConfig {
                auto_pause: false,
                stop_on_stall: true,
                ..WatchdogConfig::default()
            });
        }
        monitored = Some((monitor, server));
    }
    let attach_s = t2.elapsed().as_secs_f64();
    if layers.activity {
        platform.sim.set_activity_stamps(true);
    }
    if layers.faults {
        platform
            .sim
            .install_faults(&zero_fault_plan(chiplets, banks));
    }
    let setup_s = t0.elapsed().as_secs_f64();

    // A watchdog run ends only when the watchdog stops it, so a watcher
    // thread always runs beside it: it sends the live queries, notes when
    // the engine went idle, and ends a run that fails to return.
    let run_done = Arc::new(AtomicBool::new(false));
    let watcher = layers.watchdog.then(|| {
        let (monitor, server) = monitored.as_ref().expect("checked above");
        let stream = Stream {
            plan: layers.queries.then(|| Plan::new(seed)),
            addr: server.addr(),
            monitor: Arc::clone(monitor),
            control: platform.sim.control(),
            run_done: Arc::clone(&run_done),
            until: Until::EngineLeavesRunning,
        };
        std::thread::spawn(move || queries::run(&stream))
    });

    if layers.profile {
        akita::profile::reset();
        akita::profile::set_enabled(true);
    }
    if layers.tasktrace {
        akita::trace::reset();
        akita::trace::set_enabled(true);
    }
    let w0 = Instant::now();
    let c0 = thread_cpu_s();
    let summary = if layers.watchdog {
        platform.sim.run_caught(true)
    } else {
        platform.sim.run()
    };
    let returned = Instant::now();
    let (mut spans, mut export_s) = (None, None);
    if layers.tasktrace {
        akita::trace::set_enabled(false);
        let e0 = Instant::now();
        let report = akita::trace::snapshot(akita::trace::SPAN_RING_CAP, 0);
        let doc = serde_json::to_string(&report.to_chrome_trace()).expect("trace serializes");
        std::fs::write(trace_out, doc).expect("write the Chrome trace");
        export_s = Some(e0.elapsed().as_secs_f64());
        spans = Some((report.spans.len() as u64, report.spans_dropped));
    }
    let run_s = w0.elapsed().as_secs_f64();
    let run_cpu_s = thread_cpu_s() - c0;
    let profile = layers.profile.then(|| {
        akita::profile::set_enabled(false);
        akita::profile::snapshot()
    });
    run_done.store(true, Ordering::SeqCst);
    let stream = watcher.map(|h| h.join().expect("the query generator does not panic"));

    let mut failure = None;
    if !platform.driver.borrow().finished() {
        failure = Some("the driver did not finish".to_owned());
    }
    if let Some((monitor, _)) = &monitored {
        if let Some(stall) = monitor.watchdog_stall() {
            if matches!(stall.kind, StallKind::Livelock | StallKind::Backpressure) {
                failure = Some(format!("watchdog: {}", stall.detail));
            }
        }
    }
    if stream.as_ref().is_some_and(|s| s.hung) {
        failure = Some("the run did not return after the engine went idle".to_owned());
    }
    let idle_seen = stream.as_ref().and_then(|s| s.idle_seen);
    let rep = Rep {
        build_s,
        enqueue_s,
        attach_s,
        setup_s,
        run_s,
        run_cpu_s,
        busy_s: idle_seen.map_or(run_s, |t| t.saturating_duration_since(w0).as_secs_f64()),
        stop_lag_s: idle_seen.map(|t| returned.saturating_duration_since(t).as_secs_f64()),
        events: summary.events,
        sim_ns: platform.sim.now().ps() / 1000,
        state: digest::capture(&platform.sim),
        counters: Counters::read(&platform.sim),
        failure,
        counts: counts.map(|c| c.borrow().all()),
        profile,
        queries: stream.map(|s| s.samples).unwrap_or_default(),
        spans,
        export_s,
        shape: Shape {
            chiplets: platform.chiplets.len(),
            cus_per_chiplet: platform.chiplets.first().map_or(0, |c| c.cus.len()),
            components: platform.sim.component_count(),
        },
    };
    drop(monitored);
    (rep, platform)
}

/// Holds a finished simulation for inspection, as `rtm-sim --hold` does,
/// and runs `count` HTTP requests of the dashboard stream against it.
pub fn hold_and_query(mut platform: Platform, seed: u64, count: usize) -> Vec<Sample> {
    let monitor = Arc::new(Monitor::attach(
        &platform.sim,
        platform.progress.clone(),
        Duration::from_millis(100),
    ));
    let server = RtmServer::start_local(Arc::clone(&monitor)).expect("bind the monitor server");
    let stream = Stream {
        plan: Some(Plan::new(seed)),
        addr: server.addr(),
        monitor: Arc::clone(&monitor),
        control: platform.sim.control(),
        run_done: Arc::new(AtomicBool::new(false)),
        until: Until::HttpCount(count),
    };
    let generator = std::thread::spawn(move || queries::run(&stream));
    platform.sim.run_interactive();
    generator
        .join()
        .expect("the query generator does not panic")
        .samples
}

/// The failure, if any, of `rep` against `reference`.
pub fn check(rep: &Rep, reference: &Reference) -> Option<String> {
    rep.failure
        .clone()
        .or_else(|| reference.check(rep.sim_ns, &rep.state))
}
