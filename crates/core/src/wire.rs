//! Serde-free JSON encoding of estimation results for the wire.
//!
//! `swact-serve` speaks HTTP/JSON over a vendored, offline workspace, so
//! this module hand-encodes the result types instead of pulling in serde.
//! Two properties the encoders guarantee:
//!
//! 1. **Round-trip exactness for floats.** Every `f64` is written with
//!    Rust's shortest-round-trip formatting (`{:?}`), so a client parsing
//!    the JSON number back with `str::parse::<f64>` recovers the *bit
//!    pattern* the engine produced — the server's bit-identity contract
//!    extends through the wire format. Non-finite values (which no
//!    estimate produces) encode as `null`.
//! 2. **Deterministic field order.** Objects are emitted in a fixed key
//!    order, so identical results yield byte-identical JSON.

use crate::budget::DegradationReport;
use crate::report::{Estimate, ReuseStats};
use swact_circuit::Circuit;

/// Escapes `s` for inclusion inside a JSON string literal (quotes not
/// included).
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out
}

/// A JSON number for `x`: shortest representation that parses back to the
/// identical bit pattern. Non-finite values become `null` (JSON has no
/// NaN/Infinity).
pub fn number(x: f64) -> String {
    if x.is_finite() {
        format!("{x:?}")
    } else {
        "null".to_string()
    }
}

/// `[a, b, ...]` over already-encoded element strings.
fn array(elems: impl IntoIterator<Item = String>) -> String {
    let mut out = String::from("[");
    for (i, e) in elems.into_iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&e);
    }
    out.push(']');
    out
}

/// Encodes [`ReuseStats`] as `{"segments_skipped":N}`.
pub fn reuse_stats_json(reuse: &ReuseStats) -> String {
    format!("{{\"segments_skipped\":{}}}", reuse.segments_skipped)
}

/// Encodes a [`DegradationReport`] with its structured cause/fallback plus
/// the human-readable rendering under `"detail"`.
pub fn degradation_json(report: &DegradationReport) -> String {
    use crate::budget::{DegradationCause, Fallback};
    let cause = match report.cause {
        DegradationCause::StateBudget { estimated, budget } => format!(
            "{{\"kind\":\"state_budget\",\"estimated\":{},\"budget\":{}}}",
            number(estimated),
            number(budget)
        ),
        DegradationCause::FactorBytes { bytes, budget } => {
            format!("{{\"kind\":\"factor_bytes\",\"bytes\":{bytes},\"budget\":{budget}}}")
        }
    };
    let fallback = match report.fallback {
        Fallback::Replanned { subsegments } => {
            format!("{{\"kind\":\"replanned\",\"subsegments\":{subsegments}}}")
        }
        Fallback::TwoState => "{\"kind\":\"twostate\"}".to_string(),
        Fallback::Sampling => "{\"kind\":\"sampling\"}".to_string(),
    };
    format!(
        "{{\"segment\":{},\"cause\":{},\"fallback\":{},\"detail\":\"{}\"}}",
        report.segment,
        cause,
        fallback,
        escape(&report.to_string())
    )
}

/// Encodes the per-rung fallback counts of an estimate's degradation
/// reports as `{"replanned":N,"twostate":N,"sampling":N}` — a quick
/// summary clients can read without walking the full report list.
pub fn degradation_counts_json(reports: &[DegradationReport]) -> String {
    use crate::budget::Fallback;
    let mut replanned = 0usize;
    let mut twostate = 0usize;
    let mut sampling = 0usize;
    for report in reports {
        match report.fallback {
            Fallback::Replanned { .. } => replanned += 1,
            Fallback::TwoState => twostate += 1,
            Fallback::Sampling => sampling += 1,
        }
    }
    format!("{{\"replanned\":{replanned},\"twostate\":{twostate},\"sampling\":{sampling}}}")
}

/// Encodes an estimate's [`AccuracyReport`](crate::AccuracyReport) as
/// `{"half_width":..,"z":..,"samples":N,"converged":bool}`, or `null`
/// when every segment ran an exact backend.
pub fn accuracy_json(estimate: &Estimate) -> String {
    match estimate.accuracy() {
        Some(a) => format!(
            "{{\"half_width\":{},\"z\":{},\"samples\":{},\"converged\":{}}}",
            number(a.half_width),
            number(a.z),
            a.samples,
            a.converged
        ),
        None => "null".to_string(),
    }
}

/// Encodes an [`Estimate`] against the circuit it was computed for.
///
/// Layout (fixed key order):
///
/// ```json
/// {
///   "circuit": "c17",
///   "segments": 1,
///   "mean_switching": 0.37,
///   "accuracy": {"half_width":..,"z":..,"samples":N,"converged":true} | null,
///   "lines": [{"name":"G1","dist":[..4 floats..],"switching":..,"p1":..}, ...],
///   "degradations": [...],
///   "degradation_counts": {"replanned":N,"twostate":N,"sampling":N},
///   "reuse": {...}
/// }
/// ```
///
/// # Panics
///
/// Panics if `circuit` is not the circuit the estimate was computed for
/// (same contract as [`Estimate::to_csv`]).
pub fn estimate_json(estimate: &Estimate, circuit: &Circuit) -> String {
    let lines = array(circuit.line_ids().map(|line| {
        let d = estimate.distribution(line);
        let arr = d.as_array();
        format!(
            "{{\"name\":\"{}\",\"dist\":{},\"switching\":{},\"p1\":{}}}",
            escape(circuit.line_name(line)),
            array(arr.iter().map(|&p| number(p))),
            number(d.switching()),
            number(d.p_one_next())
        )
    }));
    format!(
        "{{\"circuit\":\"{}\",\"segments\":{},\"mean_switching\":{},\"accuracy\":{},\"lines\":{},\"degradations\":{},\"degradation_counts\":{},\"reuse\":{}}}",
        escape(circuit.name()),
        estimate.num_segments(),
        number(estimate.mean_switching()),
        accuracy_json(estimate),
        lines,
        array(estimate.degradations().iter().map(degradation_json)),
        degradation_counts_json(estimate.degradations()),
        reuse_stats_json(&estimate.reuse_stats())
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::budget::{DegradationCause, Fallback};
    use crate::{estimate, InputSpec, Options};

    #[test]
    fn escape_covers_controls_and_quotes() {
        assert_eq!(escape("plain"), "plain");
        assert_eq!(escape("a\"b\\c"), "a\\\"b\\\\c");
        assert_eq!(escape("x\n\t\r"), "x\\n\\t\\r");
        assert_eq!(escape("\u{1}"), "\\u0001");
    }

    #[test]
    fn numbers_round_trip_bit_exactly() {
        for x in [0.0, 0.1, 1.0 / 3.0, 1e-300, 123456.789, f64::MIN_POSITIVE] {
            let parsed: f64 = number(x).parse().expect("parseable");
            assert_eq!(parsed.to_bits(), x.to_bits());
        }
        assert_eq!(number(f64::NAN), "null");
        assert_eq!(number(f64::INFINITY), "null");
    }

    #[test]
    fn reuse_and_degradation_encodings() {
        let r = ReuseStats {
            segments_skipped: 1,
            ..ReuseStats::default()
        };
        assert_eq!(reuse_stats_json(&r), "{\"segments_skipped\":1}");
        let d = DegradationReport {
            segment: 2,
            cause: DegradationCause::StateBudget {
                estimated: 1e8,
                budget: 1e4,
            },
            fallback: Fallback::TwoState,
        };
        let json = degradation_json(&d);
        assert!(json.contains("\"segment\":2"));
        assert!(json.contains("state_budget"));
        assert!(json.contains("twostate"));
        let s = DegradationReport {
            fallback: Fallback::Sampling,
            ..d
        };
        assert!(degradation_json(&s).contains("{\"kind\":\"sampling\"}"));
        assert_eq!(
            degradation_counts_json(&[d, s]),
            "{\"replanned\":0,\"twostate\":1,\"sampling\":1}"
        );
    }

    #[test]
    fn accuracy_encodes_null_for_exact_and_object_for_sampled() {
        let c17 = swact_circuit::catalog::c17();
        let exact = estimate(&c17, &InputSpec::uniform(5), &Options::default()).expect("estimate");
        assert_eq!(accuracy_json(&exact), "null");
        let sampled = estimate(
            &c17,
            &InputSpec::uniform(5),
            &Options {
                backend: crate::Backend::Sampling,
                ..Options::default()
            },
        )
        .expect("sampled estimate");
        let json = accuracy_json(&sampled);
        assert!(json.starts_with("{\"half_width\":"), "got {json}");
        assert!(json.contains("\"samples\":"));
        assert!(json.contains("\"converged\":"));
        let full = estimate_json(&sampled, &c17);
        assert!(full.contains("\"accuracy\":{\"half_width\":"));
        assert!(full.contains("\"degradation_counts\":{\"replanned\":0"));
    }

    #[test]
    fn estimate_json_has_one_entry_per_line() {
        let c17 = swact_circuit::catalog::c17();
        let est = estimate(&c17, &InputSpec::uniform(5), &Options::default()).expect("estimate");
        let json = estimate_json(&est, &c17);
        assert!(json.starts_with("{\"circuit\":\"c17\""));
        assert_eq!(json.matches("\"name\":").count(), c17.num_lines());
        assert!(json.contains("\"degradations\":[]"));
        // Every emitted switching value parses back bit-exactly.
        let expected = est.switching_all();
        let mut got = Vec::new();
        for chunk in json.split("\"switching\":").skip(1) {
            let end = chunk.find(['}', ',']).expect("delimiter");
            got.push(chunk[..end].parse::<f64>().expect("float"));
        }
        assert_eq!(got.len(), expected.len());
        for (g, e) in got.iter().zip(&expected) {
            assert_eq!(g.to_bits(), e.to_bits());
        }
    }
}
