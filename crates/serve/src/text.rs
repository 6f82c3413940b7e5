//! Prometheus text exposition (format version 0.0.4) for counter batches.
//!
//! Counter names are mangled deterministically: the wildcard-free *type
//! path* becomes the metric family (`/threads/time/cumulative` →
//! `rpx_threads_time_cumulative`), the instance and parameter text become
//! `instance`/`params` labels with Prometheus escaping (`\\`, `\"`,
//! `\n`). Two different canonical counter names can never collide into
//! the same (family, labels) pair because the mangling is injective on
//! `(type path, instance, params)` and those three reconstruct the
//! canonical name.

use std::collections::BTreeMap;
use std::fmt::Write;
use std::sync::Arc;

use rpx_counters::name::{self, CanonicalParts};
use rpx_counters::value::CounterKind;

use crate::engine::{ExportEntry, Sample};

/// Append the family name of the type path `head` + `tail`.
fn push_family(out: &mut String, head: &str, tail: &str) {
    out.push_str("rpx");
    for c in head.chars().chain(tail.chars()) {
        out.push(if c.is_ascii_alphanumeric() { c } else { '_' });
    }
}

/// Append `value` with backslash and newline escaped, and double quotes
/// too when `quotes` (label values; HELP text may hold bare quotes).
fn push_escaped(out: &mut String, value: &str, quotes: bool) {
    let mut rest = value;
    while let Some(at) = rest.find(|c| c == '\\' || c == '\n' || (quotes && c == '"')) {
        out.push_str(&rest[..at]);
        out.push_str(match rest.as_bytes()[at] {
            b'\\' => "\\\\",
            b'"' => "\\\"",
            _ => "\\n",
        });
        rest = &rest[at + 1..];
    }
    out.push_str(rest);
}

/// Append the label set of `parts`, inside braces when `braced`; nothing
/// for a bare type-path counter.
fn push_labels(out: &mut String, parts: CanonicalParts<'_>, braced: bool) {
    if parts.instance.is_empty() && parts.parameters.is_empty() {
        return;
    }
    if braced {
        out.push('{');
    }
    if !parts.instance.is_empty() {
        out.push_str("instance=\"");
        push_escaped(out, parts.instance, true);
        out.push('"');
    }
    if !parts.parameters.is_empty() {
        if !parts.instance.is_empty() {
            out.push(',');
        }
        out.push_str("params=\"");
        push_escaped(out, parts.parameters, true);
        out.push('"');
    }
    if braced {
        out.push('}');
    }
}

fn prom_type(kind: CounterKind) -> &'static str {
    match kind {
        CounterKind::MonotonicallyIncreasing | CounterKind::ElapsedTime => "counter",
        _ => "gauge",
    }
}

/// One metric family of a payload: the batch index whose metadata heads
/// it, and the batch indices of its sample lines.
struct Family {
    first: usize,
    samples: Vec<usize>,
}

/// Render a scrape batch as one exposition payload. Samples are grouped
/// by metric family (HELP/TYPE emitted once per family); entries whose
/// evaluation failed are omitted from the payload — Prometheus has no
/// "unavailable" value — but still counted in the family's sample lines
/// absence, which scrapers detect as a disappearing series.
///
/// Each line is written straight into one pre-sized buffer.
pub fn render(batch: &[(Arc<ExportEntry>, Sample)]) -> String {
    // family name -> index into `families`, sorted for a stable payload.
    let mut index: BTreeMap<String, usize> = BTreeMap::new();
    let mut families: Vec<Family> = Vec::new();
    let mut family = String::new();
    let mut size = 0;
    for (i, (entry, sample)) in batch.iter().enumerate() {
        let parts = name::split_canonical(&entry.canonical);
        family.clear();
        push_family(&mut family, parts.head, parts.tail);
        let f = match index.get(family.as_str()) {
            Some(&f) => f,
            None => {
                size += 2 * family.len() + entry.info.help.len() + 32;
                index.insert(family.clone(), families.len());
                families.push(Family {
                    first: i,
                    samples: Vec::new(),
                });
                families.len() - 1
            }
        };
        if sample.ok {
            // Family + labels + value: the canonical name plus the label
            // syntax and a value of up to 24 bytes.
            size += entry.canonical.len() + 56;
            families[f].samples.push(i);
        }
    }
    let mut out = String::with_capacity(size);
    for (family, &f) in &index {
        let Family { first, samples } = &families[f];
        let info = &batch[*first].0.info;
        out.push_str("# HELP ");
        out.push_str(family);
        out.push(' ');
        push_escaped(&mut out, &info.help, false);
        out.push_str("\n# TYPE ");
        out.push_str(family);
        out.push(' ');
        out.push_str(prom_type(info.kind));
        out.push('\n');
        for &i in samples {
            let (entry, sample) = &batch[i];
            out.push_str(family);
            push_labels(&mut out, name::split_canonical(&entry.canonical), true);
            out.push(' ');
            push_value(&mut out, sample.value);
            out.push('\n');
        }
    }
    out
}

/// Prometheus floats: integral values render without a fraction so text
/// diffs and tests stay exact.
fn push_value(out: &mut String, v: f64) {
    // Writing to a `String` cannot fail.
    let _ = if v.fract() == 0.0 && v.abs() < 1e15 {
        write!(out, "{}", v as i64)
    } else {
        write!(out, "{v}")
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn split_canonical_extracts_all_parts() {
        let p = name::split_canonical("/threads{locality#0/worker-thread#1}/time/cumulative@w,5");
        assert_eq!(
            (p.head, p.instance, p.tail, p.parameters),
            (
                "/threads",
                "locality#0/worker-thread#1",
                "/time/cumulative",
                "w,5"
            )
        );
        let p = name::split_canonical("/app/requests");
        assert_eq!(
            (p.head, p.instance, p.tail, p.parameters),
            ("/app/requests", "", "", "")
        );
    }

    fn family_of(type_path: &str) -> String {
        let mut out = String::new();
        push_family(&mut out, type_path, "");
        out
    }

    #[test]
    fn metric_names_are_mangled_deterministically() {
        assert_eq!(
            family_of("/threads/time/cumulative"),
            "rpx_threads_time_cumulative"
        );
        assert_eq!(family_of("/app/idle-rate"), "rpx_app_idle_rate");
    }

    #[test]
    fn label_values_are_escaped() {
        let mut out = String::new();
        push_escaped(&mut out, "a\"b\\c\nd", true);
        assert_eq!(out, "a\\\"b\\\\c\\nd");
        out.clear();
        push_escaped(&mut out, "a\"b\\c\nd", false);
        assert_eq!(out, "a\"b\\\\c\\nd");
    }
}
