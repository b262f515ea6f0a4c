//! The open-loop dashboard query stream.
//!
//! Independent dashboards poll on timers whatever the server's latency,
//! so the stream is open-loop: request times follow exponential gaps drawn
//! from the seed, not the answers, and each request is timed from when it
//! was due, so a stall also charges the requests queued behind it. One generator thread
//! sends the requests over one connection at a time, as
//! `akita_rtm::client::get` does.

use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use akita::{RunState, SimControl};
use akita_rtm::{client, Monitor};

/// A refresh timer of the dashboard (`crates/rtm/static/index.html`, the
/// `setInterval` calls of the refresh loops): metric name, request path,
/// and the timer's period in milliseconds.
pub type Timer = (&'static str, &'static str, f64);

/// The timers that poll whichever right-hand tab is visible. `component`
/// polls once a component is selected, which every modelled user has done.
const ALWAYS: [Timer; 5] = [
    ("now", "/api/now", 500.0),
    ("resources", "/api/resources", 1000.0),
    ("progress", "/api/progress", 700.0),
    ("watches", "/api/watches", 1000.0),
    ("component", "/api/component?name=", 2000.0),
];

/// The right-hand tabs the modelled dashboards show, one per dashboard in
/// turn, with the GETs each polls while it is visible. `profile` is the
/// tab a dashboard opens on, and with profiling off it polls nothing. The
/// health tab's one timer sends three GETs. The trace and latency tabs are
/// left out: they poll only after the user enables tracing or task
/// tracing, which would make the monitored run a traced one.
const TABS: [(&str, &[Timer]); 4] = [
    ("profile", &[]),
    (
        "buffers",
        &[("buffers", "/api/buffers?sort=size&top=25", 1500.0)],
    ),
    (
        "health",
        &[
            ("watchdog", "/api/watchdog", 1500.0),
            ("faults", "/api/faults", 1500.0),
            ("status", "/api/status", 1500.0),
        ],
    ),
    ("workers", &[("parallel", "/api/parallel", 1500.0)]),
];

/// Open dashboards the HTTP stream stands for: about 100 GETs per second.
pub const DASHBOARDS: usize = 15;

/// Every endpoint the dashboards poll, with its metric name, path and
/// summed rate in requests per second, in first-polled order.
pub fn endpoints() -> Vec<(&'static str, &'static str, f64)> {
    let mut out: Vec<(&'static str, &'static str, f64)> = Vec::new();
    for dashboard in 0..DASHBOARDS {
        let tab = TABS[dashboard % TABS.len()].1;
        for &(name, path, period_ms) in ALWAYS.iter().chain(tab) {
            match out.iter_mut().find(|e| e.0 == name) {
                Some(e) => e.2 += 1000.0 / period_ms,
                None => out.push((name, path, 1000.0 / period_ms)),
            }
        }
    }
    out
}

/// HTTP requests per second of all the dashboards together.
pub fn http_rate() -> f64 {
    endpoints().iter().map(|e| e.2).sum()
}

/// Components a dashboard user selects for the detail view (the
/// `component` endpoint), and that the in-process direct queries read.
const SELECTED: [&str; 4] = ["GPU[0].L2[0]", "GPU[1].RDMA", "GPU[2].DRAM", "GPU[3].L2[1]"];

/// Name of the pseudo-endpoint for in-process `Monitor::component_state`
/// calls, which time the engine's query round trip without HTTP.
pub const DIRECT: &str = "direct";

/// In-process direct queries per second, merged into the same stream.
pub const DIRECT_RATE: f64 = 10.0;

/// How often the generator looks at the engine state while it waits.
const STATE_POLL: Duration = Duration::from_millis(2);

/// How long after the engine went idle the run may take to return
/// before the generator ends it and the run counts as failed.
const RETURN_TIMEOUT: Duration = Duration::from_secs(15);

/// SplitMix64: a small seeded generator, so the stream depends only on
/// the seed.
#[derive(Debug, Clone)]
struct Rng(u64);

impl Rng {
    /// A generator seeded with `seed`.
    fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    /// The next 64 random bits.
    fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// An exponential gap with the given rate, in seconds.
    fn exp_gap(&mut self, rate: f64) -> f64 {
        -(1.0 - self.unit()).ln() / rate
    }
}

/// One planned request.
#[derive(Debug, Clone, PartialEq)]
pub struct Planned {
    /// Seconds after the stream starts.
    pub due_s: f64,
    /// Metric name of the endpoint, or [`DIRECT`].
    pub endpoint: &'static str,
    /// HTTP path, or the component name for a direct query.
    pub target: String,
}

/// The merged, endless schedule of HTTP and direct queries drawn from a
/// seed, in due order. It is generated as the stream goes, so a long
/// stream costs no memory.
#[derive(Debug, Clone)]
pub struct Plan {
    rng: Rng,
    endpoints: Vec<(&'static str, &'static str, f64)>,
    http_rate: f64,
    http_t: f64,
    direct_t: f64,
}

impl Plan {
    /// The schedule for `seed`.
    pub fn new(seed: u64) -> Plan {
        let mut rng = Rng::new(seed);
        let endpoints = endpoints();
        let http_rate: f64 = endpoints.iter().map(|e| e.2).sum();
        let (http_t, direct_t) = (rng.exp_gap(http_rate), rng.exp_gap(DIRECT_RATE));
        Plan {
            rng,
            endpoints,
            http_rate,
            http_t,
            direct_t,
        }
    }
}

impl Iterator for Plan {
    type Item = Planned;

    fn next(&mut self) -> Option<Planned> {
        let rng = &mut self.rng;
        let selected = SELECTED[(rng.next_u64() % SELECTED.len() as u64) as usize];
        if self.direct_t < self.http_t {
            let due_s = self.direct_t;
            self.direct_t += rng.exp_gap(DIRECT_RATE);
            return Some(Planned {
                due_s,
                endpoint: DIRECT,
                target: selected.to_owned(),
            });
        }
        let mut pick = rng.unit() * self.http_rate;
        let &(endpoint, path, _) = self
            .endpoints
            .iter()
            .find(|e| {
                pick -= e.2;
                pick < 0.0
            })
            .unwrap_or(&self.endpoints[self.endpoints.len() - 1]);
        let target = if endpoint == "component" {
            format!("{path}{}", selected.replace('[', "%5B").replace(']', "%5D"))
        } else {
            path.to_owned()
        };
        let due_s = self.http_t;
        self.http_t += rng.exp_gap(self.http_rate);
        Some(Planned {
            due_s,
            endpoint,
            target,
        })
    }
}

/// One completed query.
#[derive(Debug, Clone)]
pub struct Sample {
    /// Metric name of the endpoint, or [`DIRECT`].
    pub endpoint: &'static str,
    /// From when the query was due until its answer arrived.
    pub latency_ms: f64,
    /// How late the generator sent it.
    pub late_ms: f64,
    /// A 2xx answer (HTTP) or an answered query (direct).
    pub ok: bool,
}

/// When the stream stops.
#[derive(Debug, Clone, Copy)]
pub enum Until {
    /// Against a live run: start when the engine first reports Running
    /// and stop issuing as soon as it reports anything else (Idle), which
    /// is before the watchdog ends the run, so no query can be in flight
    /// when `Simulation::run` returns.
    EngineLeavesRunning,
    /// Against a finished simulation held for inspection: send this many
    /// HTTP requests, then end the hold.
    HttpCount(usize),
}

/// What the generator saw.
#[derive(Debug, Default)]
pub struct StreamResult {
    /// Every query sent.
    pub samples: Vec<Sample>,
    /// When the engine was first seen to leave Running.
    pub idle_seen: Option<Instant>,
    /// The run did not return within [`RETURN_TIMEOUT`] of going idle,
    /// and the generator stopped it.
    pub hung: bool,
}

/// The generator's inputs, moved into its thread.
#[derive(Debug)]
pub struct Stream {
    /// The schedule; `None` only watches the engine state.
    pub plan: Option<Plan>,
    /// The monitor's HTTP address.
    pub addr: SocketAddr,
    /// The monitor, for direct queries.
    pub monitor: Arc<Monitor>,
    /// The engine's lock-free control block.
    pub control: Arc<SimControl>,
    /// Set by the simulation thread once its run returned.
    pub run_done: Arc<AtomicBool>,
    /// When to stop.
    pub until: Until,
}

fn live(control: &SimControl) -> bool {
    control.state() == RunState::Running
}

/// Sleeps until `due`, or until the engine leaves Running when that ends
/// the stream. Returns `false` when the stream should stop.
fn wait_until(due: Instant, s: &Stream, result: &mut StreamResult) -> bool {
    loop {
        if matches!(s.until, Until::EngineLeavesRunning) && !live(&s.control) {
            result.idle_seen.get_or_insert_with(Instant::now);
            return false;
        }
        let now = Instant::now();
        if now >= due {
            return true;
        }
        std::thread::sleep((due - now).min(STATE_POLL));
    }
}

/// Runs the stream to completion on the calling thread.
pub fn run(s: &Stream) -> StreamResult {
    let mut result = StreamResult::default();
    if matches!(s.until, Until::EngineLeavesRunning) {
        while !live(&s.control) && !s.run_done.load(Ordering::SeqCst) {
            std::thread::sleep(Duration::from_micros(200));
        }
    }
    let origin = Instant::now();
    let mut http_sent = 0;
    for q in s.plan.clone().into_iter().flatten() {
        if let Until::HttpCount(n) = s.until {
            if http_sent >= n {
                break;
            }
        }
        let due = origin + Duration::from_secs_f64(q.due_s);
        if !wait_until(due, s, &mut result) {
            break;
        }
        let sent = Instant::now();
        let ok = if q.endpoint == DIRECT {
            matches!(s.monitor.component_state(&q.target), Ok(Some(_)))
        } else {
            http_sent += 1;
            client::get(s.addr, &q.target).is_ok_and(|r| r.is_ok())
        };
        let done = Instant::now();
        result.samples.push(Sample {
            endpoint: q.endpoint,
            latency_ms: (done - due).as_secs_f64() * 1e3,
            late_ms: (sent - due).as_secs_f64() * 1e3,
            ok,
        });
    }
    match s.until {
        Until::HttpCount(_) => s.control.request_stop(),
        Until::EngineLeavesRunning => {
            // Without a plan, only watch for the engine going idle.
            wait_until(Instant::now() + Duration::from_secs(3600), s, &mut result);
            let idle = result.idle_seen.unwrap_or_else(Instant::now);
            while !s.run_done.load(Ordering::SeqCst) {
                if idle.elapsed() > RETURN_TIMEOUT {
                    result.hung = true;
                    s.control.request_stop();
                    break;
                }
                std::thread::sleep(STATE_POLL);
            }
        }
    }
    result
}

#[cfg(test)]
mod tests {
    use super::*;

    fn plan(seed: u64, horizon_s: f64) -> Vec<Planned> {
        Plan::new(seed)
            .take_while(|q| q.due_s < horizon_s)
            .collect()
    }

    #[test]
    fn plan_depends_only_on_the_seed() {
        assert_eq!(plan(7, 5.0), plan(7, 5.0));
        assert_ne!(plan(7, 5.0), plan(8, 5.0));
    }

    #[test]
    fn dashboards_follow_the_tab_guards() {
        let rate = |name: &str| {
            endpoints()
                .iter()
                .find(|e| e.0 == name)
                .map_or(0.0, |e| e.2)
        };
        let n = DASHBOARDS as f64;
        // Every dashboard polls these whatever tab it shows.
        assert!((rate("now") - 2.0 * n).abs() < 1e-9);
        assert!((rate("progress") - n / 0.7).abs() < 1e-9);
        assert!((rate("component") - 0.5 * n).abs() < 1e-9);
        // Fifteen dashboards over four tabs: 4 profile, 4 buffers,
        // 4 health and 3 workers.
        assert!((rate("buffers") - 4.0 / 1.5).abs() < 1e-9);
        assert!((rate("watchdog") - 4.0 / 1.5).abs() < 1e-9);
        assert!((rate("faults") - rate("watchdog")).abs() < 1e-9);
        assert!((rate("status") - rate("watchdog")).abs() < 1e-9);
        assert!((rate("parallel") - 3.0 / 1.5).abs() < 1e-9);
        // Features the monitored run leaves off are not polled.
        for off in ["profile", "trace", "tasktrace"] {
            assert_eq!(rate(off), 0.0, "{off}");
        }
        assert!((http_rate() - 101.6).abs() < 0.1, "{}", http_rate());
    }

    #[test]
    fn every_endpoint_is_one_the_dashboard_polls() {
        let html = include_str!("../../crates/rtm/static/index.html");
        for (name, path, _) in endpoints() {
            let route = path.split('?').next().unwrap_or(path);
            let quoted = ["\"", "`"].map(|q| format!("{q}{route}"));
            assert!(quoted.iter().any(|q| html.contains(q)), "{name}: {route}");
        }
        for (_, _, period_ms) in ALWAYS.iter().chain(TABS.iter().flat_map(|t| t.1.iter())) {
            assert!(html.contains(&format!(", {period_ms});")), "{period_ms}");
        }
    }

    #[test]
    fn plan_has_the_requested_rates_and_mix() {
        let p = plan(1, 200.0);
        let http = p.iter().filter(|q| q.endpoint != DIRECT).count() as f64;
        let direct = p.iter().filter(|q| q.endpoint == DIRECT).count() as f64;
        assert!((http / 200.0 - http_rate()).abs() < 3.0, "{http}");
        assert!((direct / 200.0 - DIRECT_RATE).abs() < 1.0, "{direct}");
        let now = p.iter().filter(|q| q.endpoint == "now").count() as f64;
        let now_share = 2.0 * DASHBOARDS as f64 / http_rate();
        assert!((now / http - now_share).abs() < 0.02, "{now}");
        assert!(p.windows(2).all(|w| w[0].due_s <= w[1].due_s));
        assert!(p
            .iter()
            .filter(|q| q.endpoint == "component")
            .all(|q| q.target.starts_with("/api/component?name=GPU%5B")));
    }

    #[test]
    fn gaps_are_exponential() {
        let mut rng = Rng::new(3);
        let gaps: Vec<f64> = (0..20_000).map(|_| rng.exp_gap(100.0)).collect();
        let mean = gaps.iter().sum::<f64>() / gaps.len() as f64;
        assert!((mean - 0.01).abs() < 0.0005, "{mean}");
        // For an exponential, P(gap > mean) = 1/e.
        let above = gaps.iter().filter(|&&g| g > 0.01).count() as f64 / gaps.len() as f64;
        assert!((above - (-1.0f64).exp()).abs() < 0.02, "{above}");
    }
}
