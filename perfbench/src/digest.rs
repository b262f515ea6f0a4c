//! The correctness gate: the simulated end time and a digest of every
//! component's final [`akita::Component::state`], compared with a
//! reference recorded from an unmonitored, untraced run.
//!
//! A reference file holds `sim_ns <n>`, `digest <hex>` and then one
//! `component<TAB>field<TAB>value` line per state field, in component
//! registration order, so a mismatch can name the first field that
//! differs.

use std::fmt::Write as _;

use akita::{ComponentId, Simulation};

/// One field of one component's final state.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StateLine {
    /// Component name, e.g. `GPU[0].L2[1]`.
    pub component: String,
    /// Field name, e.g. `hits`.
    pub field: String,
    /// The value, rendered with `Debug`.
    pub value: String,
}

/// The final state of every component of `sim`, in registration order.
pub fn capture(sim: &Simulation) -> Vec<StateLine> {
    let mut lines = Vec::new();
    for i in 0..sim.component_count() {
        let comp = sim.component(ComponentId::from_index(i));
        let comp = comp.borrow();
        for field in comp.state().fields {
            lines.push(StateLine {
                component: comp.name().to_owned(),
                field: field.name,
                value: format!("{:?}", field.value),
            });
        }
    }
    lines
}

/// FNV-1a over the canonical text of `lines`.
pub fn digest(lines: &[StateLine]) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for line in lines {
        for part in [&line.component, &line.field, &line.value] {
            for b in part.bytes().chain([b'\t']) {
                hash ^= u64::from(b);
                hash = hash.wrapping_mul(0x0100_0000_01b3);
            }
        }
    }
    hash
}

/// What a run must reproduce.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Reference {
    /// Simulated (virtual) end time, nanoseconds.
    pub sim_ns: u64,
    /// [`digest`] of `lines`.
    pub digest: u64,
    /// The full final state, for first-difference reports.
    pub lines: Vec<StateLine>,
}

impl Reference {
    /// The reference a run ending at `sim_ns` with final state `lines`
    /// would record.
    pub fn from_run(sim_ns: u64, lines: Vec<StateLine>) -> Reference {
        Reference {
            sim_ns,
            digest: digest(&lines),
            lines,
        }
    }

    /// Parses the file format described in the module docs.
    ///
    /// # Errors
    ///
    /// Describes the first malformed line, or a digest that does not match
    /// the listed state.
    pub fn parse(text: &str) -> Result<Reference, String> {
        let mut it = text.lines();
        let mut header = |key: &str| -> Result<String, String> {
            let line = it.next().ok_or_else(|| format!("missing `{key}` line"))?;
            line.strip_prefix(key)
                .and_then(|rest| rest.strip_prefix(' '))
                .map(str::to_owned)
                .ok_or_else(|| format!("expected `{key} <value>`, got `{line}`"))
        };
        let sim_ns = header("sim_ns")?
            .parse()
            .map_err(|e| format!("bad sim_ns: {e}"))?;
        let digest_hex = header("digest")?;
        let stated =
            u64::from_str_radix(&digest_hex, 16).map_err(|e| format!("bad digest: {e}"))?;
        let mut lines = Vec::new();
        for (n, line) in it.enumerate() {
            let mut parts = line.splitn(3, '\t');
            match (parts.next(), parts.next(), parts.next()) {
                (Some(component), Some(field), Some(value)) => lines.push(StateLine {
                    component: component.to_owned(),
                    field: field.to_owned(),
                    value: value.to_owned(),
                }),
                _ => {
                    return Err(format!(
                        "state line {} is not `component\\tfield\\tvalue`",
                        n + 3
                    ))
                }
            }
        }
        let reference = Reference::from_run(sim_ns, lines);
        if reference.digest != stated {
            return Err(format!(
                "stated digest {stated:016x} does not match the listed state ({:016x})",
                reference.digest
            ));
        }
        Ok(reference)
    }

    /// Renders the file format described in the module docs.
    pub fn render(&self) -> String {
        let mut out = format!("sim_ns {}\ndigest {:016x}\n", self.sim_ns, self.digest);
        for l in &self.lines {
            let _ = writeln!(out, "{}\t{}\t{}", l.component, l.field, l.value);
        }
        out
    }

    /// `None` when a run ending at `sim_ns` with final state `lines`
    /// reproduces this reference; otherwise what differs first.
    pub fn check(&self, sim_ns: u64, lines: &[StateLine]) -> Option<String> {
        if sim_ns != self.sim_ns {
            let state = first_difference(&self.lines, lines)
                .map(|d| format!("; first state difference: {d}"))
                .unwrap_or_default();
            return Some(format!(
                "sim_ns {sim_ns} differs from the reference {}{state}",
                self.sim_ns
            ));
        }
        if digest(lines) == self.digest {
            return None;
        }
        Some(
            first_difference(&self.lines, lines)
                .unwrap_or_else(|| "state digest differs, but no field does".into()),
        )
    }
}

/// The first component and field at which `actual` departs from
/// `expected`, or `None` when they are equal.
pub fn first_difference(expected: &[StateLine], actual: &[StateLine]) -> Option<String> {
    for (i, (e, a)) in expected.iter().zip(actual).enumerate() {
        if e == a {
            continue;
        }
        if e.component != a.component || e.field != a.field {
            return Some(format!(
                "state line {i}: expected field `{}.{}`, found `{}.{}`",
                e.component, e.field, a.component, a.field
            ));
        }
        return Some(format!(
            "`{}.{}` is {}, reference {}",
            a.component, a.field, a.value, e.value
        ));
    }
    match expected.len().cmp(&actual.len()) {
        std::cmp::Ordering::Equal => None,
        std::cmp::Ordering::Greater => {
            let e = &expected[actual.len()];
            Some(format!("missing `{}.{}`", e.component, e.field))
        }
        std::cmp::Ordering::Less => {
            let a = &actual[expected.len()];
            Some(format!(
                "unexpected extra field `{}.{}`",
                a.component, a.field
            ))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn line(c: &str, f: &str, v: &str) -> StateLine {
        StateLine {
            component: c.into(),
            field: f.into(),
            value: v.into(),
        }
    }

    fn sample() -> Vec<StateLine> {
        vec![
            line("GPU[0].L2[0]", "hits", "UInt(10)"),
            line("GPU[0].L2[0]", "misses", "UInt(3)"),
            line("GPU[0].DRAM", "reads", "UInt(3)"),
        ]
    }

    #[test]
    fn equal_runs_pass() {
        let r = Reference::from_run(850, sample());
        assert_eq!(r.check(850, &sample()), None);
    }

    #[test]
    fn names_the_first_differing_component_and_field() {
        let r = Reference::from_run(850, sample());
        let mut run = sample();
        run[1].value = "UInt(4)".into();
        run[2].value = "UInt(4)".into();
        let diff = r.check(850, &run).expect("differs");
        assert_eq!(diff, "`GPU[0].L2[0].misses` is UInt(4), reference UInt(3)");
    }

    #[test]
    fn sim_time_mismatch_is_reported_with_the_state_difference() {
        let r = Reference::from_run(850, sample());
        let mut run = sample();
        run[0].value = "UInt(11)".into();
        let diff = r.check(851, &run).expect("differs");
        assert!(
            diff.starts_with("sim_ns 851 differs from the reference 850"),
            "{diff}"
        );
        assert!(diff.contains("`GPU[0].L2[0].hits` is UInt(11)"), "{diff}");
    }

    #[test]
    fn missing_and_extra_fields_are_named() {
        let short = &sample()[..2];
        assert_eq!(
            first_difference(&sample(), short).as_deref(),
            Some("missing `GPU[0].DRAM.reads`")
        );
        assert_eq!(
            first_difference(short, &sample()).as_deref(),
            Some("unexpected extra field `GPU[0].DRAM.reads`")
        );
    }

    #[test]
    fn reference_round_trips_and_rejects_a_stale_digest() {
        let r = Reference::from_run(850, sample());
        assert_eq!(Reference::parse(&r.render()), Ok(r.clone()));
        let tampered = r.render().replace("UInt(10)", "UInt(12)");
        assert!(Reference::parse(&tampered)
            .unwrap_err()
            .contains("does not match"));
    }

    #[test]
    fn digest_depends_on_every_part() {
        let base = digest(&sample());
        let mut moved = sample();
        moved[0].field = "hit".into();
        moved[0].value = "sUInt(10)".into();
        assert_ne!(digest(&moved), base);
    }
}
