//! `--compare OLD.json NEW.json`: per-workload, per-metric deltas between
//! two `--all` result files, judged against `BENCHMARK.json`'s bounds.

use std::collections::BTreeMap;

use swact_serve::json::Value;

use crate::stats::{median, spread};

/// How one metric moved.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Verdict {
    /// Within the bound.
    Ok,
    /// Worse by more than the bound (which the old runs' spread is
    /// within, or the verdict would be `Unresolved`).
    Regression,
    /// The old runs' spread is wider than the bound: no call is possible.
    Unresolved,
    /// A metric without a bound; the delta is informational.
    Unbounded,
}

/// Judges `new` against `old`. Returns the change as a share of the old
/// median, signed so that positive is worse, and the verdict.
pub fn judge(
    old: &[f64],
    new: &[f64],
    lower_is_better: bool,
    bound: Option<f64>,
) -> (f64, Verdict) {
    let (o, n) = (median(old), median(new));
    let worse = if o == 0.0 {
        0.0
    } else if lower_is_better {
        (n - o) / o.abs()
    } else {
        (o - n) / o.abs()
    };
    let noise = spread(old);
    let verdict = match bound {
        None => Verdict::Unbounded,
        Some(b) if noise > b => Verdict::Unresolved,
        Some(b) if worse > b => Verdict::Regression,
        Some(_) => Verdict::Ok,
    };
    (worse, verdict)
}

/// `(direction, bound)` per metric name from `BENCHMARK.json`.
fn bounds(benchmark: &Value) -> BTreeMap<String, (bool, Option<f64>)> {
    let mut map = BTreeMap::new();
    for section in ["end_to_end", "per_layer"] {
        for m in benchmark
            .get(section)
            .and_then(Value::as_array)
            .unwrap_or(&[])
        {
            if let Some(name) = m.get("name").and_then(Value::as_str) {
                let lower = m.get("better").and_then(Value::as_str) != Some("higher");
                map.insert(
                    name.to_string(),
                    (lower, m.get("bound").and_then(Value::as_f64)),
                );
            }
        }
    }
    map
}

type Samples = BTreeMap<(String, String), Vec<f64>>;

/// Metric values per (workload, metric), and fingerprints per
/// (workload, seed).
fn collect(doc: &Value) -> (Samples, BTreeMap<(String, u64), String>) {
    let mut samples = Samples::new();
    let mut fnvs = BTreeMap::new();
    for run in doc.get("runs").and_then(Value::as_array).unwrap_or(&[]) {
        let workload = run.get("workload").and_then(Value::as_str).unwrap_or("?");
        if let (Some(seed), Some(fnv)) = (
            run.get("seed").and_then(Value::as_usize),
            run.get("output_fnv").and_then(Value::as_str),
        ) {
            fnvs.insert((workload.to_string(), seed as u64), fnv.to_string());
        }
        if let Some(Value::Object(metrics)) = run.get("metrics") {
            for (name, m) in metrics {
                if let Some(v) = m.get("value").and_then(Value::as_f64) {
                    samples
                        .entry((workload.to_string(), name.clone()))
                        .or_default()
                        .push(v);
                }
            }
        }
    }
    (samples, fnvs)
}

/// Renders the comparison. Returns the report and whether it passes: no
/// regression and every shared (workload, seed) fingerprint identical.
pub fn compare(old: &Value, new: &Value, benchmark: &Value) -> (String, bool) {
    let bounds = bounds(benchmark);
    let (old_samples, old_fnv) = collect(old);
    let (new_samples, new_fnv) = collect(new);
    let mut report =
        String::from("workload metric old_median new_median worse_by old_spread bound verdict\n");
    let mut regressions = 0;
    for ((workload, name), old_values) in &old_samples {
        let Some(new_values) = new_samples.get(&(workload.clone(), name.clone())) else {
            continue;
        };
        let (lower, bound) = bounds.get(name).copied().unwrap_or((true, None));
        let (worse, verdict) = judge(old_values, new_values, lower, bound);
        if verdict == Verdict::Regression {
            regressions += 1;
        }
        report.push_str(&format!(
            "{workload} {name} {} {} {:+.2}% {:.2}% {} {}\n",
            median(old_values),
            median(new_values),
            worse * 100.0,
            spread(old_values) * 100.0,
            bound.map_or("-".to_string(), |b| format!("{:.0}%", b * 100.0)),
            match verdict {
                Verdict::Ok => "ok",
                Verdict::Regression => "REGRESSION",
                Verdict::Unresolved => "unresolved",
                Verdict::Unbounded => "-",
            }
        ));
    }
    let shared: Vec<_> = old_fnv
        .keys()
        .filter(|k| new_fnv.contains_key(*k))
        .collect();
    let mismatched: Vec<_> = shared
        .iter()
        .filter(|k| old_fnv[**k] != new_fnv[**k])
        .map(|(w, s)| format!("{w}@{s}"))
        .collect();
    report.push_str(&format!(
        "output_fnv: {} of {} shared (workload, seed) runs identical{}\n",
        shared.len() - mismatched.len(),
        shared.len(),
        if mismatched.is_empty() {
            String::new()
        } else {
            format!("; differ: {}", mismatched.join(" "))
        }
    ));
    report.push_str(&format!("regressions: {regressions}\n"));
    (report, regressions == 0 && mismatched.is_empty())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flags_only_changes_beyond_bound_and_noise() {
        let old = [100.0, 101.0, 99.0, 100.0, 100.5];
        // 5% slower, bound 10%: fine.
        assert_eq!(judge(&old, &[105.0; 5], true, Some(0.1)).1, Verdict::Ok);
        // 20% slower: a regression.
        let (worse, v) = judge(&old, &[120.0; 5], true, Some(0.1));
        assert_eq!(v, Verdict::Regression);
        assert!((worse - 0.2).abs() < 1e-9);
        // Higher is better: a 20% drop is a regression, a rise is not.
        assert_eq!(
            judge(&old, &[80.0; 5], false, Some(0.1)).1,
            Verdict::Regression
        );
        assert_eq!(judge(&old, &[130.0; 5], false, Some(0.1)).1, Verdict::Ok);
    }

    #[test]
    fn noisy_baselines_are_unresolved() {
        let noisy = [50.0, 100.0, 150.0, 80.0, 120.0];
        assert_eq!(
            judge(&noisy, &[200.0; 5], true, Some(0.1)).1,
            Verdict::Unresolved
        );
        // A spread within the bound still allows a call.
        let wobbly = [90.0, 100.0, 110.0, 95.0, 105.0];
        assert!((spread(&wobbly) - 0.15).abs() < 1e-12);
        assert_eq!(judge(&wobbly, &[108.0; 5], true, Some(0.2)).1, Verdict::Ok);
        assert_eq!(
            judge(&wobbly, &[130.0; 5], true, Some(0.2)).1,
            Verdict::Regression
        );
        assert_eq!(
            judge(&wobbly, &[500.0; 5], true, None).1,
            Verdict::Unbounded
        );
    }

    #[test]
    fn compares_result_files() {
        let bench = swact_serve::json::parse(
            r#"{"end_to_end":[{"name":"op_median_ms","unit":"ms","better":"lower","bound":0.1}]}"#,
        )
        .unwrap();
        let run = |ms: f64, fnv: &str| {
            format!(
                r#"{{"workload":"update","seed":1,"output_fnv":"{fnv}","metrics":{{"op_median_ms":{{"value":{ms},"unit":"ms"}}}}}}"#
            )
        };
        let doc = |ms: f64, fnv: &str| {
            swact_serve::json::parse(&format!(r#"{{"runs":[{}]}}"#, run(ms, fnv))).unwrap()
        };
        let (report, ok) = compare(&doc(10.0, "ab"), &doc(10.5, "ab"), &bench);
        assert!(ok, "{report}");
        assert!(report.contains("update op_median_ms 10 10.5 +5.00%"));
        assert!(report.contains("1 of 1 shared"));
        let (report, ok) = compare(&doc(10.0, "ab"), &doc(13.0, "ab"), &bench);
        assert!(!ok && report.contains("REGRESSION"));
        let (report, ok) = compare(&doc(10.0, "ab"), &doc(10.0, "cd"), &bench);
        assert!(!ok && report.contains("differ: update@1"));
    }
}
