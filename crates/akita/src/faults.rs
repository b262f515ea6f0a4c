//! Deterministic fault injection for the port/connection/buffer substrate.
//!
//! The paper's debugging story (Case Study 2) is diagnosing a *hung*
//! simulation; this module makes such hangs — and subtler misbehavior —
//! reproducible on demand. A [`FaultPlan`] names injection *sites* (port
//! names for message faults, buffer names for stuck-full windows, component
//! names for freeze/slow) and attaches a [`FaultKind`] to each. Every
//! probabilistic rule draws from its own counter-based stream derived from
//! `splitmix64(seed ^ fnv1a(site) ^ kind ^ rule-index)`, so the n-th message
//! through a site sees the same verdict in every run: same seed + same plan
//! ⇒ a bit-identical fault schedule, independent of wall-clock and of other
//! rules firing.
//!
//! The hub is per-simulation (carried by [`crate::BufferRegistry`], which is
//! already threaded through every port and buffer constructor), not
//! process-global, so parallel tests cannot contaminate each other. When no
//! plan is installed the only cost on hot paths is a single relaxed atomic
//! load behind an `Arc`; rule state sits behind a `Mutex` that only the
//! engine thread takes, so it is never contended.

use std::collections::BTreeMap;
use std::fmt;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, PoisonError};

use serde::{Deserialize, Serialize};

/// What a fault does at its injection site.
///
/// `prob` fields are per-message probabilities in `[0, 1]`; `*_ps` fields
/// are windows in virtual picoseconds (`for_ps == 0` means "forever").
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
#[serde(rename_all = "lowercase")]
pub enum FaultKind {
    /// Silently consume a message before it enters the link.
    Drop {
        /// Per-message probability of dropping.
        prob: f64,
    },
    /// Add `delay_ps` of extra transport latency to a message.
    Delay {
        /// Per-message probability of delaying.
        prob: f64,
        /// Extra latency, in picoseconds.
        delay_ps: u64,
    },
    /// Deliver a message twice (requires the message type to opt into
    /// [`crate::Msg::clone_msg`]; messages that cannot clone pass through).
    Duplicate {
        /// Per-message probability of duplicating.
        prob: f64,
    },
    /// Swap a message ahead of the previously queued one on its link.
    Reorder {
        /// Per-message probability of reordering.
        prob: f64,
    },
    /// Make a buffer report full during a virtual-time window, stalling
    /// deliveries into it (backpressure on demand).
    StuckFull {
        /// Window start, picoseconds.
        from_ps: u64,
        /// Window length, picoseconds; `0` = forever.
        for_ps: u64,
    },
    /// Swallow every event for a component during a virtual-time window;
    /// ticks resume at the window's end.
    Freeze {
        /// Window start, picoseconds.
        from_ps: u64,
        /// Window length, picoseconds; `0` = forever.
        for_ps: u64,
    },
    /// Stretch a component's tick period by an integer factor.
    Slow {
        /// Period multiplier (≥ 2 to have an effect).
        factor: u64,
    },
}

impl FaultKind {
    /// Stable per-variant tag, folded into the decision stream so two
    /// different kinds on one site draw independent schedules.
    fn tag(self) -> u64 {
        match self {
            FaultKind::Drop { .. } => 1,
            FaultKind::Delay { .. } => 2,
            FaultKind::Duplicate { .. } => 3,
            FaultKind::Reorder { .. } => 4,
            FaultKind::StuckFull { .. } => 5,
            FaultKind::Freeze { .. } => 6,
            FaultKind::Slow { .. } => 7,
        }
    }

    /// Whether this kind applies per-message at a port site.
    fn is_msg_fault(self) -> bool {
        matches!(
            self,
            FaultKind::Drop { .. }
                | FaultKind::Delay { .. }
                | FaultKind::Duplicate { .. }
                | FaultKind::Reorder { .. }
        )
    }

    /// Whether this kind applies to a whole component.
    fn is_comp_fault(self) -> bool {
        matches!(self, FaultKind::Freeze { .. } | FaultKind::Slow { .. })
    }
}

/// One site + kind pair in a plan.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FaultRule {
    /// Injection site: a port name (message faults), a buffer name
    /// (stuck-full), or a component name (freeze / slow).
    pub site: String,
    /// The fault to inject there.
    pub kind: FaultKind,
}

/// A complete, seedable fault schedule.
///
/// # Examples
///
/// ```
/// use akita::faults::{FaultKind, FaultPlan, FaultRule};
///
/// let plan = FaultPlan {
///     seed: 7,
///     rules: vec![FaultRule {
///         site: "C.In".into(),
///         kind: FaultKind::Drop { prob: 0.25 },
///     }],
/// };
/// let round_trip = FaultPlan::from_json(&plan.to_json()).unwrap();
/// assert_eq!(round_trip, plan);
/// ```
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct FaultPlan {
    /// Root of every rule's decision stream.
    #[serde(default)]
    pub seed: u64,
    /// The rules to install.
    pub rules: Vec<FaultRule>,
}

impl FaultPlan {
    /// Parses a plan from JSON text.
    ///
    /// # Errors
    ///
    /// Returns the parse error as a display string suitable for a 400 or a
    /// CLI diagnostic.
    pub fn from_json(text: &str) -> Result<FaultPlan, String> {
        serde_json::from_str(text).map_err(|e| e.to_string())
    }

    /// Serializes the plan to JSON text.
    #[must_use]
    pub fn to_json(&self) -> String {
        serde_json::to_string(self).unwrap_or_else(|_| "{}".into())
    }
}

/// Result of installing a plan: how many rules bound to known sites.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct FaultInstallSummary {
    /// Rules accepted from the plan.
    pub rules_installed: usize,
    /// Rules whose site was already registered (or is a known component).
    pub sites_matched: usize,
    /// Sites named by the plan that nothing has registered yet. Rules on
    /// them still arm and will bind if a matching site appears later.
    pub sites_unknown: Vec<String>,
}

/// Live status of one installed rule.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct FaultRuleStatus {
    /// The rule's injection site.
    pub site: String,
    /// The installed kind.
    pub kind: FaultKind,
    /// Decisions drawn so far (messages that consulted the rule).
    pub decisions: u64,
    /// Faults actually injected so far.
    pub injected: u64,
    /// For windowed kinds: whether the window is active at current
    /// virtual time.
    pub active: bool,
}

/// Snapshot of the whole fault subsystem, served at `GET /api/faults`.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct FaultReport {
    /// Whether any rules are armed.
    pub enabled: bool,
    /// Seed of the most recently installed plan.
    pub seed: u64,
    /// Per-rule status, sites in deterministic order.
    pub rules: Vec<FaultRuleStatus>,
}

/// What the connection should do with one message (drawn per message from
/// the destination site's rules; first firing rule wins).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum MsgVerdict {
    /// No rule fired.
    Pass,
    /// Consume the message silently.
    Drop,
    /// Add this many picoseconds of transport latency.
    Delay(u64),
    /// Deliver the message twice.
    Duplicate,
    /// Swap the message ahead of the previously queued one.
    Reorder,
}

// SplitMix64 finalizer: a cheap, statistically solid 64-bit mixer. Used
// both to derive per-rule streams and to turn (stream, counter) into a
// decision — no mutable RNG state, so the schedule is position-addressable.
fn mix(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

fn fnv1a(s: &str) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for b in s.bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

fn stream_for(seed: u64, site: &str, kind_tag: u64, rule_idx: u64) -> u64 {
    mix(seed ^ fnv1a(site) ^ kind_tag.rotate_left(17) ^ rule_idx.rotate_left(43))
}

/// Decision `n` of a stream as a uniform value in `[0, 1)`.
fn unit(stream: u64, n: u64) -> f64 {
    let r = mix(stream ^ n.wrapping_mul(0xD1B5_4A32_D192_ED03));
    (r >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
}

fn window_active(now: u64, from_ps: u64, for_ps: u64) -> bool {
    now >= from_ps && (for_ps == 0 || now < from_ps.saturating_add(for_ps))
}

struct ActiveRule {
    kind: FaultKind,
    stream: u64,
    decisions: u64,
    injected: u64,
}

impl ActiveRule {
    fn new(seed: u64, site: &str, kind: FaultKind, rule_idx: u64) -> ActiveRule {
        ActiveRule {
            kind,
            stream: stream_for(seed, site, kind.tag(), rule_idx),
            decisions: 0,
            injected: 0,
        }
    }
}

#[derive(Default)]
struct SiteRules {
    /// Message faults, consulted per message in plan order.
    msg: Vec<ActiveRule>,
    /// Stuck-full windows.
    stuck: Vec<ActiveRule>,
}

#[derive(Default)]
struct HubInner {
    seed: u64,
    /// Site index → name. Sites register lazily (ports and buffers at
    /// construction, plan sites at install) and are never removed.
    sites: Vec<String>,
    index: BTreeMap<String, usize>,
    rules: Vec<SiteRules>,
    /// Freeze/slow rules, keyed by component name. The engine resolves
    /// names to component ids when a plan is installed.
    comp: BTreeMap<String, Vec<ActiveRule>>,
}

impl HubInner {
    fn ensure_site(&mut self, name: &str) -> usize {
        if let Some(&idx) = self.index.get(name) {
            return idx;
        }
        let idx = self.sites.len();
        self.sites.push(name.to_string());
        self.index.insert(name.to_string(), idx);
        self.rules.push(SiteRules::default());
        idx
    }

    fn any_site_rules(&self) -> bool {
        self.rules
            .iter()
            .any(|r| !r.msg.is_empty() || !r.stuck.is_empty())
    }
}

#[derive(Default)]
struct HubShared {
    /// True when any message/buffer rule is armed — the only flag hot
    /// paths look at when no faults are in play.
    enabled: AtomicBool,
    /// Current virtual time, published by the engine per event while
    /// faults are armed, so buffer-level windows can be evaluated without
    /// access to a `Ctx`.
    now_ps: AtomicU64,
    inner: Mutex<HubInner>,
}

impl HubShared {
    fn inner(&self) -> std::sync::MutexGuard<'_, HubInner> {
        self.inner.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

/// A per-simulation registry of injection sites and armed fault rules.
///
/// Cloning clones a handle to the same hub. Obtained from
/// [`crate::BufferRegistry::faults`] or [`crate::Simulation`] APIs.
#[derive(Clone, Default)]
pub struct FaultHub {
    shared: Arc<HubShared>,
}

/// One injection site's handle into the hub: an index, resolved once at
/// registration, so per-message checks do no string hashing.
#[derive(Clone)]
pub(crate) struct FaultSite {
    shared: Arc<HubShared>,
    idx: usize,
}

impl FaultSite {
    /// Whether any rule anywhere is armed — the hot-path gate.
    #[inline]
    pub(crate) fn armed(&self) -> bool {
        self.shared.enabled.load(Ordering::Relaxed)
    }

    /// Draws this message's verdict from the site's rules (first firing
    /// rule wins). Advances the deciding rule counters.
    pub(crate) fn msg_verdict(&self) -> MsgVerdict {
        let mut inner = self.shared.inner();
        let site = &mut inner.rules[self.idx];
        for rule in &mut site.msg {
            let n = rule.decisions;
            rule.decisions += 1;
            let hit = match rule.kind {
                FaultKind::Drop { prob }
                | FaultKind::Delay { prob, .. }
                | FaultKind::Duplicate { prob }
                | FaultKind::Reorder { prob } => unit(rule.stream, n) < prob,
                _ => false,
            };
            if hit {
                rule.injected += 1;
                return match rule.kind {
                    FaultKind::Drop { .. } => MsgVerdict::Drop,
                    FaultKind::Delay { delay_ps, .. } => MsgVerdict::Delay(delay_ps),
                    FaultKind::Duplicate { .. } => MsgVerdict::Duplicate,
                    FaultKind::Reorder { .. } => MsgVerdict::Reorder,
                    _ => MsgVerdict::Pass,
                };
            }
        }
        MsgVerdict::Pass
    }

    /// Whether a stuck-full window currently forces this buffer to report
    /// full.
    pub(crate) fn forced_full(&self) -> bool {
        let now = self.shared.now_ps.load(Ordering::Relaxed);
        let mut inner = self.shared.inner();
        let site = &mut inner.rules[self.idx];
        for rule in &mut site.stuck {
            if let FaultKind::StuckFull { from_ps, for_ps } = rule.kind {
                if window_active(now, from_ps, for_ps) {
                    rule.injected = rule.injected.saturating_add(1);
                    return true;
                }
            }
        }
        false
    }
}

/// A resolved freeze/slow spec for one component, pulled by the engine at
/// install time.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct CompFaultSpec {
    /// Freeze window `[from, until)` in picoseconds; `until == u64::MAX`
    /// means frozen forever.
    pub freeze: Option<(u64, u64)>,
    /// Tick period multiplier.
    pub slow_factor: Option<u64>,
}

impl CompFaultSpec {
    pub(crate) fn is_some(&self) -> bool {
        self.freeze.is_some() || self.slow_factor.is_some()
    }
}

impl FaultHub {
    /// Creates an empty hub with no rules armed.
    #[must_use]
    pub fn new() -> FaultHub {
        FaultHub::default()
    }

    /// Registers (or looks up) an injection site by name.
    pub(crate) fn site(&self, name: &str) -> FaultSite {
        let idx = self.shared.inner().ensure_site(name);
        FaultSite {
            shared: Arc::clone(&self.shared),
            idx,
        }
    }

    /// Whether any message/buffer rule is armed.
    #[must_use]
    pub fn is_enabled(&self) -> bool {
        self.shared.enabled.load(Ordering::Relaxed)
    }

    /// Publishes current virtual time for window evaluation.
    pub(crate) fn set_now_ps(&self, ps: u64) {
        self.shared.now_ps.store(ps, Ordering::Relaxed);
    }

    /// Installs `plan`, appending to any rules already armed.
    ///
    /// `known_components` lets the summary distinguish component-level
    /// rules (freeze/slow) that name real components from typos; the hub
    /// itself only registers port/buffer sites.
    pub fn install(&self, plan: &FaultPlan, known_components: &[&str]) -> FaultInstallSummary {
        let mut summary = FaultInstallSummary::default();
        let mut inner = self.shared.inner();
        inner.seed = plan.seed;
        for (i, rule) in plan.rules.iter().enumerate() {
            summary.rules_installed += 1;
            let known = inner.index.contains_key(&rule.site)
                || known_components.iter().any(|c| *c == rule.site);
            if known {
                summary.sites_matched += 1;
            } else if !summary.sites_unknown.contains(&rule.site) {
                summary.sites_unknown.push(rule.site.clone());
            }
            let active = ActiveRule::new(plan.seed, &rule.site, rule.kind, i as u64);
            if rule.kind.is_comp_fault() {
                inner
                    .comp
                    .entry(rule.site.clone())
                    .or_default()
                    .push(active);
            } else {
                let idx = inner.ensure_site(&rule.site);
                if rule.kind.is_msg_fault() {
                    inner.rules[idx].msg.push(active);
                } else {
                    inner.rules[idx].stuck.push(active);
                }
            }
        }
        self.shared
            .enabled
            .store(inner.any_site_rules(), Ordering::Relaxed);
        summary
    }

    /// Disarms and removes every rule. Registered sites persist.
    pub fn clear(&self) {
        let mut inner = self.shared.inner();
        for site in &mut inner.rules {
            site.msg.clear();
            site.stuck.clear();
        }
        inner.comp.clear();
        self.shared.enabled.store(false, Ordering::Relaxed);
    }

    /// The freeze/slow spec for each component named by installed rules,
    /// with windows already folded (`for_ps == 0` → `u64::MAX`).
    pub(crate) fn component_specs(&self) -> Vec<(String, CompFaultSpec)> {
        let inner = self.shared.inner();
        inner
            .comp
            .iter()
            .map(|(name, rules)| {
                let mut spec = CompFaultSpec::default();
                for rule in rules {
                    match rule.kind {
                        FaultKind::Freeze { from_ps, for_ps } => {
                            let until = if for_ps == 0 {
                                u64::MAX
                            } else {
                                from_ps.saturating_add(for_ps)
                            };
                            spec.freeze = Some((from_ps, until));
                        }
                        FaultKind::Slow { factor } => spec.slow_factor = Some(factor.max(1)),
                        _ => {}
                    }
                }
                (name.clone(), spec)
            })
            .collect()
    }

    /// Sites whose stuck-full window is active at current virtual time,
    /// for the deadlock analyzer to name as injected suspects.
    #[must_use]
    pub fn active_stuck_sites(&self) -> Vec<String> {
        let now = self.shared.now_ps.load(Ordering::Relaxed);
        let inner = self.shared.inner();
        let mut out = Vec::new();
        for (idx, site) in inner.rules.iter().enumerate() {
            for rule in &site.stuck {
                if let FaultKind::StuckFull { from_ps, for_ps } = rule.kind {
                    if window_active(now, from_ps, for_ps) {
                        out.push(inner.sites[idx].clone());
                        break;
                    }
                }
            }
        }
        out
    }

    /// Live status of every installed rule (site rules first, then
    /// component rules, both in deterministic site order).
    #[must_use]
    pub fn report(&self) -> FaultReport {
        let now = self.shared.now_ps.load(Ordering::Relaxed);
        let inner = self.shared.inner();
        let mut rules = Vec::new();
        for (&idx, name) in inner.index.iter().map(|(n, i)| (i, n)) {
            let site = &inner.rules[idx];
            for rule in site.msg.iter().chain(site.stuck.iter()) {
                let active = match rule.kind {
                    FaultKind::StuckFull { from_ps, for_ps } => window_active(now, from_ps, for_ps),
                    _ => rule.decisions > 0 || rule.injected > 0,
                };
                rules.push(FaultRuleStatus {
                    site: name.clone(),
                    kind: rule.kind,
                    decisions: rule.decisions,
                    injected: rule.injected,
                    active,
                });
            }
        }
        for (name, comp_rules) in &inner.comp {
            for rule in comp_rules {
                let active = match rule.kind {
                    FaultKind::Freeze { from_ps, for_ps } => window_active(now, from_ps, for_ps),
                    FaultKind::Slow { .. } => true,
                    _ => false,
                };
                rules.push(FaultRuleStatus {
                    site: name.clone(),
                    kind: rule.kind,
                    decisions: rule.decisions,
                    injected: rule.injected,
                    active,
                });
            }
        }
        FaultReport {
            enabled: self.shared.enabled.load(Ordering::Relaxed) || !inner.comp.is_empty(),
            seed: inner.seed,
            rules,
        }
    }

    /// Adds `count` injections to a component rule's tally (the engine
    /// counts swallowed/stretched events locally and reports them here).
    pub(crate) fn note_comp_injections(&self, name: &str, kind_tag_freeze: bool, count: u64) {
        if count == 0 {
            return;
        }
        let mut inner = self.shared.inner();
        if let Some(rules) = inner.comp.get_mut(name) {
            for rule in rules {
                let matches = match rule.kind {
                    FaultKind::Freeze { .. } => kind_tag_freeze,
                    FaultKind::Slow { .. } => !kind_tag_freeze,
                    _ => false,
                };
                if matches {
                    rule.decisions = rule.decisions.saturating_add(count);
                    rule.injected = rule.injected.saturating_add(count);
                }
            }
        }
    }
}

impl fmt::Debug for FaultHub {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let inner = self.shared.inner();
        write!(
            f,
            "FaultHub({} sites, enabled={})",
            inner.sites.len(),
            self.shared.enabled.load(Ordering::Relaxed)
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn drop_plan(seed: u64, prob: f64) -> FaultPlan {
        FaultPlan {
            seed,
            rules: vec![FaultRule {
                site: "X.In".into(),
                kind: FaultKind::Drop { prob },
            }],
        }
    }

    fn verdicts(hub: &FaultHub, n: usize) -> Vec<MsgVerdict> {
        let site = hub.site("X.In");
        (0..n).map(|_| site.msg_verdict()).collect()
    }

    #[test]
    fn same_seed_same_schedule() {
        let a = FaultHub::new();
        let b = FaultHub::new();
        a.install(&drop_plan(42, 0.3), &[]);
        b.install(&drop_plan(42, 0.3), &[]);
        assert_eq!(verdicts(&a, 500), verdicts(&b, 500));
    }

    #[test]
    fn different_seed_different_schedule() {
        let a = FaultHub::new();
        let b = FaultHub::new();
        a.install(&drop_plan(1, 0.5), &[]);
        b.install(&drop_plan(2, 0.5), &[]);
        assert_ne!(verdicts(&a, 500), verdicts(&b, 500));
    }

    #[test]
    fn drop_rate_tracks_probability() {
        let hub = FaultHub::new();
        hub.install(&drop_plan(9, 0.25), &[]);
        let hits = verdicts(&hub, 10_000)
            .iter()
            .filter(|v| **v == MsgVerdict::Drop)
            .count();
        let rate = hits as f64 / 10_000.0;
        assert!((rate - 0.25).abs() < 0.03, "observed rate {rate}");
    }

    #[test]
    fn disabled_hub_passes_everything() {
        let hub = FaultHub::new();
        let site = hub.site("X.In");
        assert!(!site.armed());
        assert_eq!(site.msg_verdict(), MsgVerdict::Pass);
        assert!(!site.forced_full());
    }

    #[test]
    fn stuck_window_obeys_bounds() {
        let hub = FaultHub::new();
        hub.install(
            &FaultPlan {
                seed: 0,
                rules: vec![FaultRule {
                    site: "B.Buf".into(),
                    kind: FaultKind::StuckFull {
                        from_ps: 100,
                        for_ps: 50,
                    },
                }],
            },
            &[],
        );
        let site = hub.site("B.Buf");
        hub.set_now_ps(99);
        assert!(!site.forced_full());
        hub.set_now_ps(100);
        assert!(site.forced_full());
        assert_eq!(hub.active_stuck_sites(), vec!["B.Buf".to_string()]);
        hub.set_now_ps(149);
        assert!(site.forced_full());
        hub.set_now_ps(150);
        assert!(!site.forced_full());
        assert!(hub.active_stuck_sites().is_empty());
    }

    #[test]
    fn forever_window_never_ends() {
        let hub = FaultHub::new();
        hub.install(
            &FaultPlan {
                seed: 0,
                rules: vec![FaultRule {
                    site: "B.Buf".into(),
                    kind: FaultKind::StuckFull {
                        from_ps: 0,
                        for_ps: 0,
                    },
                }],
            },
            &[],
        );
        let site = hub.site("B.Buf");
        hub.set_now_ps(u64::MAX);
        assert!(site.forced_full());
    }

    #[test]
    fn component_specs_fold_windows() {
        let hub = FaultHub::new();
        hub.install(
            &FaultPlan {
                seed: 0,
                rules: vec![
                    FaultRule {
                        site: "CU".into(),
                        kind: FaultKind::Freeze {
                            from_ps: 10,
                            for_ps: 0,
                        },
                    },
                    FaultRule {
                        site: "CU".into(),
                        kind: FaultKind::Slow { factor: 4 },
                    },
                ],
            },
            &["CU"],
        );
        let specs = hub.component_specs();
        assert_eq!(specs.len(), 1);
        assert_eq!(specs[0].0, "CU");
        assert_eq!(specs[0].1.freeze, Some((10, u64::MAX)));
        assert_eq!(specs[0].1.slow_factor, Some(4));
        // Component-only plans do not arm the message/buffer hot paths.
        assert!(!hub.is_enabled());
        assert!(hub.report().enabled);
    }

    #[test]
    fn install_summary_tracks_unknown_sites() {
        let hub = FaultHub::new();
        let _known = hub.site("A.In");
        let plan = FaultPlan {
            seed: 3,
            rules: vec![
                FaultRule {
                    site: "A.In".into(),
                    kind: FaultKind::Drop { prob: 1.0 },
                },
                FaultRule {
                    site: "Comp".into(),
                    kind: FaultKind::Slow { factor: 2 },
                },
                FaultRule {
                    site: "Typo.In".into(),
                    kind: FaultKind::Drop { prob: 1.0 },
                },
            ],
        };
        let summary = hub.install(&plan, &["Comp"]);
        assert_eq!(summary.rules_installed, 3);
        assert_eq!(summary.sites_matched, 2);
        assert_eq!(summary.sites_unknown, vec!["Typo.In".to_string()]);
    }

    #[test]
    fn plan_json_round_trip() {
        let plan = FaultPlan {
            seed: 11,
            rules: vec![
                FaultRule {
                    site: "L2.TopPort".into(),
                    kind: FaultKind::Delay {
                        prob: 0.5,
                        delay_ps: 2000,
                    },
                },
                FaultRule {
                    site: "L2.TopPort.Buf".into(),
                    kind: FaultKind::StuckFull {
                        from_ps: 0,
                        for_ps: 0,
                    },
                },
                FaultRule {
                    site: "GPU[0].L2[0]".into(),
                    kind: FaultKind::Freeze {
                        from_ps: 5,
                        for_ps: 10,
                    },
                },
            ],
        };
        let text = plan.to_json();
        let back = FaultPlan::from_json(&text).expect("parse");
        assert_eq!(back, plan);
    }

    #[test]
    fn report_lists_rules_with_counts() {
        let hub = FaultHub::new();
        hub.install(&drop_plan(5, 1.0), &[]);
        let site = hub.site("X.In");
        for _ in 0..3 {
            assert_eq!(site.msg_verdict(), MsgVerdict::Drop);
        }
        let report = hub.report();
        assert!(report.enabled);
        assert_eq!(report.seed, 5);
        assert_eq!(report.rules.len(), 1);
        assert_eq!(report.rules[0].decisions, 3);
        assert_eq!(report.rules[0].injected, 3);
    }

    #[test]
    fn clear_disarms() {
        let hub = FaultHub::new();
        hub.install(&drop_plan(5, 1.0), &[]);
        assert!(hub.is_enabled());
        hub.clear();
        assert!(!hub.is_enabled());
        assert!(hub.report().rules.is_empty());
    }
}
