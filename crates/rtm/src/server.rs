//! The web backend: turns any simulation into a web server (paper §IV-A).
//!
//! "Upon initiating an MGPUSim program, AkitaRTM activates a server thread
//! (backend) … effectively transforming any MGPUSim simulation into a web
//! server." [`RtmServer::start`] binds a listener (ephemeral port by
//! default), prints nothing itself — callers display [`RtmServer::url`] —
//! and serves the static frontend plus the JSON API. All handlers go
//! through the shared [`Monitor`], which talks to the engine over its
//! query channel; the simulation thread is never blocked by HTTP traffic.
//!
//! The HTTP plumbing itself lives in [`crate::httpd`]; this module is the
//! route table.

use std::net::SocketAddr;
use std::sync::Arc;

use serde::{Deserialize, Serialize};
use serde_json::json;

use akita::{FaultPlan, QueryError, RunState};

use crate::alerts::{AlertId, AlertRule};
use crate::httpd::{HttpServer, Request, Response};
use crate::metrics;
use crate::monitor::{BufferSort, Monitor};
use crate::timeseries::WatchId;
use crate::watchdog::WatchdogParams;

/// The embedded single-page dashboard.
pub const INDEX_HTML: &str = include_str!("../static/index.html");

fn query_error(e: &QueryError) -> Response {
    Response::json(503, &json!({ "error": (e.to_string()) }))
}

fn not_found(msg: &str) -> Response {
    Response::json(404, &json!({ "error": msg }))
}

fn bad_request(msg: &str) -> Response {
    Response::json(400, &json!({ "error": msg }))
}

fn ok_json(value: &impl Serialize) -> Response {
    Response::json(200, value)
}

/// `Result<T, QueryError>` to a 200/503 response.
fn respond<T: Serialize>(r: Result<T, QueryError>) -> Response {
    match r {
        Ok(v) => ok_json(&v),
        Err(e) => query_error(&e),
    }
}

/// Lock-free heartbeat: virtual time, run state, events — the fields the
/// passive-browser view refreshes continuously (Fig 2 C).
fn api_now(m: &Monitor) -> Response {
    let now = m.now();
    ok_json(&json!({
        "now_ps": (now.ps()),
        "now_sec": (now.as_sec()),
        "state": (m.run_state()),
        "events": (m.client().events_handled()),
        "events_per_sec": (m.events_per_sec()),
    }))
}

/// Engine status plus the monitor-side throughput estimate.
///
/// Crash-resilient: when the simulation thread died in a component panic
/// (and is not serving post-mortem queries), the status query fails — but
/// the lock-free control block still knows the state is `Crashed` and
/// holds the [`akita::CrashInfo`], so this answers 200 with a post-mortem
/// payload instead of a misleading 503.
fn api_status(m: &Monitor) -> Response {
    match m.status() {
        Ok(status) => match serde_json::to_value(status) {
            Ok(mut v) => {
                if let serde_json::Value::Object(fields) = &mut v {
                    fields.push(("events_per_sec".into(), json!((m.events_per_sec()))));
                    if let Some(crash) = m.crash_info() {
                        fields.push(("crash".into(), json!(crash)));
                    }
                }
                ok_json(&v)
            }
            Err(e) => Response::json(500, &json!({ "error": (e.to_string()) })),
        },
        Err(e) => {
            if m.run_state() == RunState::Crashed || m.crash_info().is_some() {
                ok_json(&json!({
                    "now_ps": (m.now().ps()),
                    "state": (RunState::Crashed),
                    "events": (m.client().events_handled()),
                    "events_per_sec": 0.0,
                    "crash": (m.crash_info()),
                }))
            } else {
                query_error(&e)
            }
        }
    }
}

/// Watchdog status, or `{"enabled": false}` when none is installed.
fn api_watchdog(m: &Monitor) -> Response {
    match m.watchdog_status() {
        Some(status) => match serde_json::to_value(&status) {
            Ok(mut v) => {
                if let serde_json::Value::Object(fields) = &mut v {
                    fields.push(("enabled".into(), json!(true)));
                }
                ok_json(&v)
            }
            Err(e) => Response::json(500, &json!({ "error": (e.to_string()) })),
        },
        None => ok_json(&json!({ "enabled": false })),
    }
}

/// One row of the buffer analyzer table (Fig 3).
#[derive(Debug, Serialize)]
struct BufferRow {
    name: String,
    size: usize,
    capacity: usize,
    percent: f64,
}

fn api_buffers(m: &Monitor, req: &Request) -> Response {
    let sort = match req.query_param("sort") {
        Some("percent") => BufferSort::Percent,
        _ => BufferSort::Size,
    };
    let top = req.query_param("top").and_then(|t| t.parse().ok());
    match m.buffers(sort, top) {
        Ok(buffers) => {
            let rows: Vec<BufferRow> = buffers
                .into_iter()
                .map(|b| BufferRow {
                    percent: b.percent(),
                    name: b.name,
                    size: b.size,
                    capacity: b.capacity,
                })
                .collect();
            ok_json(&rows)
        }
        Err(e) => query_error(&e),
    }
}

fn api_progress(m: &Monitor) -> Response {
    let bars: Vec<serde_json::Value> = m
        .progress()
        .into_iter()
        .map(|b| {
            json!({
                "id": (b.id),
                "name": (b.name),
                "total": (b.total),
                "finished": (b.finished),
                "in_progress": (b.in_progress),
                "not_started": (b.not_started()),
                "fraction": (b.fraction()),
            })
        })
        .collect();
    ok_json(&bars)
}

#[derive(Debug, Deserialize)]
struct EnableBody {
    enabled: bool,
}

#[derive(Debug, Deserialize)]
struct WatchRequest {
    component: String,
    field: String,
}

fn with_name<F>(req: &Request, f: F) -> Response
where
    F: FnOnce(&str) -> Response,
{
    match req.query_param("name") {
        Some(name) => f(name),
        None => bad_request("missing `name` query parameter"),
    }
}

/// The methods a known path accepts, for `405 Method Not Allowed`
/// responses (with an `Allow` header) instead of a misleading 404.
fn allowed_methods(path: &str) -> Option<&'static str> {
    let exact = match path {
        "/" | "/api/now" | "/api/status" | "/api/components" | "/api/component"
        | "/api/buffers" | "/api/progress" | "/api/resources" | "/api/analysis"
        | "/api/topology" | "/api/trace" | "/api/trace/export" | "/api/alerts" | "/api/watches"
        | "/api/metrics" | "/api/tasktrace" | "/api/faults" | "/api/activity" | "/api/parallel" => {
            Some("GET")
        }
        "/api/profile" => Some("GET"),
        "/api/watchdog" => Some("GET, DELETE"),
        "/api/watchdog/enable" | "/api/faults/inject" | "/api/activity/enable" => Some("POST"),
        "/api/profile/enable"
        | "/api/pause"
        | "/api/continue"
        | "/api/kickstart"
        | "/api/terminate"
        | "/api/tick"
        | "/api/trace/enable"
        | "/api/tasktrace/enable"
        | "/api/schedule"
        | "/api/alert"
        | "/api/watch" => Some("POST"),
        _ => None,
    };
    if exact.is_some() {
        return exact;
    }
    if path
        .strip_prefix("/api/alert/")
        .is_some_and(|r| !r.is_empty())
    {
        return Some("DELETE");
    }
    if path
        .strip_prefix("/api/watch/")
        .is_some_and(|r| !r.is_empty())
    {
        return Some("GET, DELETE");
    }
    None
}

fn api_task_trace(m: &Monitor, req: &Request) -> Response {
    let max_spans = req
        .query_param("spans")
        .and_then(|t| t.parse().ok())
        .unwrap_or(1000);
    let max_open = req
        .query_param("open")
        .and_then(|t| t.parse().ok())
        .unwrap_or(50);
    ok_json(&m.task_trace(max_spans, max_open))
}

fn api_trace_export(m: &Monitor, req: &Request) -> Response {
    match req.query_param("format").unwrap_or("chrome") {
        "chrome" => {
            let max_spans = req
                .query_param("spans")
                .and_then(|t| t.parse().ok())
                .unwrap_or(akita::trace::SPAN_RING_CAP);
            ok_json(&m.task_trace(max_spans, 0).to_chrome_trace())
        }
        other => bad_request(&format!("unsupported trace format `{other}`")),
    }
}

/// Routes one request. Exposed for in-process testing.
#[must_use]
pub fn route(m: &Monitor, req: &Request) -> Response {
    match (req.method.as_str(), req.path.as_str()) {
        ("GET", "/") => Response::html(INDEX_HTML),
        ("GET", "/api/now") => api_now(m),
        ("GET", "/api/status") => api_status(m),
        ("GET", "/api/components") => respond(m.components()),
        ("GET", "/api/component") => with_name(req, |name| match m.component_state(name) {
            Ok(Some(dto)) => ok_json(&dto),
            Ok(None) => not_found(&format!("no component named {name}")),
            Err(e) => query_error(&e),
        }),
        ("GET", "/api/buffers") => api_buffers(m, req),
        ("GET", "/api/progress") => api_progress(m),
        ("GET", "/api/resources") => ok_json(&m.resources()),
        ("GET", "/api/analysis") => respond(m.analysis()),
        // The engine is always serial. The route stays so dashboards that
        // poll it keep getting a 200.
        ("GET", "/api/parallel") => ok_json(&serde_json::json!({ "parallel": false })),
        ("GET", "/api/profile") => {
            let top = req
                .query_param("top")
                .and_then(|t| t.parse().ok())
                .unwrap_or(15);
            respond(m.profile(top))
        }
        ("POST", "/api/profile/enable") => match req.json_body::<EnableBody>() {
            Ok(body) => match m.set_profiling(body.enabled) {
                Ok(()) => ok_json(&json!({ "ok": true, "enabled": (body.enabled) })),
                Err(e) => query_error(&e),
            },
            Err(e) => bad_request(&e),
        },
        ("POST", "/api/pause") => {
            m.pause();
            ok_json(&json!({ "ok": true }))
        }
        ("POST", "/api/continue") => {
            m.resume();
            ok_json(&json!({ "ok": true }))
        }
        ("POST", "/api/kickstart") => match m.kick_start() {
            Ok(woken) => ok_json(&json!({ "ok": true, "woken": woken })),
            Err(e) => query_error(&e),
        },
        ("POST", "/api/terminate") => match m.terminate() {
            Ok(()) => ok_json(&json!({ "ok": true })),
            Err(e) => query_error(&e),
        },
        ("POST", "/api/tick") => with_name(req, |name| match m.tick_component(name) {
            Ok(true) => ok_json(&json!({ "ok": true })),
            Ok(false) => not_found(&format!("no component named {name}")),
            Err(e) => query_error(&e),
        }),
        ("GET", "/api/topology") => respond(m.topology()),
        ("GET", "/api/trace") => {
            let n = req
                .query_param("n")
                .and_then(|t| t.parse().ok())
                .unwrap_or(200);
            respond(m.trace(n))
        }
        ("POST", "/api/trace/enable") => match req.json_body::<EnableBody>() {
            Ok(body) => match m.set_tracing(body.enabled) {
                Ok(()) => ok_json(&json!({ "ok": true, "enabled": (body.enabled) })),
                Err(e) => query_error(&e),
            },
            Err(e) => bad_request(&e),
        },
        ("GET", "/api/watchdog") => api_watchdog(m),
        ("POST", "/api/watchdog/enable") => match req.json_body::<WatchdogParams>() {
            Ok(params) => {
                let config = m.enable_watchdog(params.into());
                ok_json(&json!({
                    "ok": true,
                    "interval_ms": (config.interval.as_millis() as u64),
                    "stall_checks": (config.stall_checks),
                    "auto_pause": (config.auto_pause),
                    "stop_on_stall": (config.stop_on_stall),
                }))
            }
            Err(e) => bad_request(&e),
        },
        ("DELETE", "/api/watchdog") => ok_json(&json!({ "ok": (m.disable_watchdog()) })),
        ("GET", "/api/faults") => respond(m.faults()),
        ("POST", "/api/faults/inject") => match req.json_body::<FaultPlan>() {
            Ok(plan) => respond(m.install_faults(plan)),
            Err(e) => bad_request(&e),
        },
        ("GET", "/api/activity") => respond(m.activity()),
        ("POST", "/api/activity/enable") => match req.json_body::<EnableBody>() {
            Ok(body) => match m.set_activity_stamps(body.enabled) {
                Ok(()) => ok_json(&json!({ "ok": true, "enabled": (body.enabled) })),
                Err(e) => query_error(&e),
            },
            Err(e) => bad_request(&e),
        },
        ("GET", "/api/metrics") => Response::text(200, &metrics::render(m)),
        ("GET", "/api/tasktrace") => api_task_trace(m, req),
        ("GET", "/api/trace/export") => api_trace_export(m, req),
        ("POST", "/api/tasktrace/enable") => match req.json_body::<EnableBody>() {
            Ok(body) => {
                m.set_task_tracing(body.enabled);
                ok_json(&json!({ "ok": true, "enabled": (body.enabled) }))
            }
            Err(e) => bad_request(&e),
        },
        ("POST", "/api/schedule") => with_name(req, |name| {
            let Some(code) = req.query_param("code").and_then(|c| c.parse().ok()) else {
                return bad_request("missing or invalid `code` query parameter");
            };
            match m.schedule_custom(name, code) {
                Ok(true) => ok_json(&json!({ "ok": true })),
                Ok(false) => not_found(&format!("no component named {name}")),
                Err(e) => query_error(&e),
            }
        }),
        ("POST", "/api/alert") => match req.json_body::<AlertRule>() {
            Ok(rule) => ok_json(&json!({ "id": (m.add_alert(rule)) })),
            Err(e) => bad_request(&e),
        },
        ("GET", "/api/alerts") => ok_json(&m.alerts()),
        ("POST", "/api/watch") => match req.json_body::<WatchRequest>() {
            Ok(body) => ok_json(&json!({ "id": (m.watch(&body.component, &body.field)) })),
            Err(e) => bad_request(&e),
        },
        ("GET", "/api/watches") => ok_json(&m.all_series()),
        ("DELETE", path) if path.starts_with("/api/alert/") => {
            match path["/api/alert/".len()..].parse::<u64>() {
                Ok(id) if m.remove_alert(AlertId(id)) => ok_json(&json!({ "ok": true })),
                Ok(id) => not_found(&format!("no alert {id}")),
                Err(_) => bad_request("alert id must be an integer"),
            }
        }
        ("GET", path) if path.starts_with("/api/watch/") => {
            match path["/api/watch/".len()..].parse::<u64>() {
                Ok(id) => match m.series(WatchId(id)) {
                    Some(series) => ok_json(&series),
                    None => not_found(&format!("no watch {id}")),
                },
                Err(_) => bad_request("watch id must be an integer"),
            }
        }
        ("DELETE", path) if path.starts_with("/api/watch/") => {
            match path["/api/watch/".len()..].parse::<u64>() {
                Ok(id) if m.unwatch(WatchId(id)) => ok_json(&json!({ "ok": true })),
                Ok(id) => not_found(&format!("no watch {id}")),
                Err(_) => bad_request("watch id must be an integer"),
            }
        }
        (method, path) => match allowed_methods(path) {
            // A known path with the wrong verb is a 405 with `Allow`, not
            // a 404 — the path exists, the method is the problem.
            Some(allow) => Response::json(
                405,
                &json!({ "error": (format!("{method} not allowed for {path}")) }),
            )
            .with_header("Allow", allow),
            None => not_found(&format!("no route for {path}")),
        },
    }
}

/// A running monitoring web server.
///
/// Dropping (or calling [`RtmServer::stop`]) shuts the server down
/// gracefully.
#[derive(Debug)]
pub struct RtmServer {
    inner: HttpServer,
}

impl RtmServer {
    /// Starts the backend on `addr` (use port 0 for an ephemeral port) on
    /// its own acceptor thread.
    ///
    /// # Errors
    ///
    /// Returns the bind error when the address is unavailable.
    pub fn start(monitor: Arc<Monitor>, addr: SocketAddr) -> std::io::Result<RtmServer> {
        let inner = HttpServer::serve(addr, move |req| route(&monitor, req))?;
        Ok(RtmServer { inner })
    }

    /// Starts on `127.0.0.1` with an ephemeral port.
    ///
    /// # Errors
    ///
    /// Returns the bind error when no port is available.
    pub fn start_local(monitor: Arc<Monitor>) -> std::io::Result<RtmServer> {
        RtmServer::start(monitor, "127.0.0.1:0".parse().expect("valid literal"))
    }

    /// The bound address.
    pub fn addr(&self) -> SocketAddr {
        self.inner.addr()
    }

    /// The URL to show the user ("a URL is displayed on the terminal,
    /// enabling users to easily access the server").
    pub fn url(&self) -> String {
        format!("http://{}/", self.inner.addr())
    }

    /// Shuts the server down and waits for the acceptor to exit.
    pub fn stop(mut self) {
        self.inner.stop();
    }
}

impl Drop for RtmServer {
    fn drop(&mut self) {
        self.inner.stop();
    }
}
