//! Metric names and units, and the result of one workload run.

use std::collections::BTreeMap;

use crate::stats::Sample;

/// End-to-end metrics, reported by every workload with tracing off.
pub const END_TO_END: [(&str, &str); 3] = [
    ("setup_s", "s"),
    ("op_median_ms", "ms"),
    ("peak_rss_mb", "MiB"),
];

/// Printed with every run but not bounded: on a shared 2-core host their
/// run-to-run spread exceeds any bound the benchmark may set (the tail
/// 12-40%; the closed-loop rate of `serve` up to 66%, and the block rate
/// of `update` 26% in one set of ten runs).
pub const UNBOUNDED: [(&str, &str); 2] = [("gates_per_s", "gates/s"), ("op_tail_ms", "ms")];

/// Per-layer metrics, reported by every workload's traced run. A layer the
/// workload never enters reads 0.
pub const PER_LAYER: [(&str, &str); 34] = [
    ("plan.s_per_compile", "s"),
    ("plan.share", "fraction"),
    ("plan.segments_per_compile", "count"),
    ("model.s_per_compile", "s"),
    ("junction.s_per_compile", "s"),
    ("junction.total_states", "count"),
    ("junction.max_clique_states", "count"),
    ("junction.kernel_cost", "count"),
    ("propagate.first_ms", "ms"),
    ("propagate.ms_per_op", "ms"),
    ("forward.ms_per_op", "ms"),
    ("estimate.other_ms_per_op", "ms"),
    ("propagate.calibrate_ns_per_cost", "ns"),
    ("propagate.cost_fit_r2", "fraction"),
    ("propagate.calibrate_ms_per_op", "ms"),
    ("propagate.readout_ms_per_op", "ms"),
    ("propagate.computed_mb_per_op", "MB"),
    ("reuse.message_ratio", "fraction"),
    ("reuse.messages_recomputed_per_op", "count"),
    ("reuse.segment_skip_ratio", "fraction"),
    ("engine.queue_wait_ms_per_op", "ms"),
    ("engine.compile_misses", "count"),
    ("engine.max_queue_depth", "count"),
    ("serve.server_ms_per_req", "ms"),
    ("serve.handler_ms_per_req", "ms"),
    ("serve.response_kb_per_req", "KiB"),
    ("client.outside_server_ms_per_req", "ms"),
    ("client.connect_ms_p50", "ms"),
    ("client.ttfb_ms_p50", "ms"),
    ("client.late_ms_p50", "ms"),
    ("client.late_ms_max", "ms"),
    ("accuracy.mean_abs_err", "probability"),
    ("trace.overhead", "fraction"),
    ("trace.coverage", "fraction"),
];

pub fn unit(name: &str) -> &'static str {
    END_TO_END
        .iter()
        .chain(PER_LAYER.iter())
        .chain(UNBOUNDED.iter())
        .find(|(n, _)| *n == name)
        .map_or("", |&(_, u)| u)
}

/// What one workload run measured and checked.
#[derive(Debug, Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// FNV-1a over the bits of every output the run produced.
    pub fnv: u64,
    pub values: BTreeMap<&'static str, f64>,
    /// Extra text printed after a value, such as a percentile and its N.
    pub notes: BTreeMap<&'static str, String>,
    /// Spans of a traced run, written out once the run ends.
    pub spans: Option<crate::trace::Tracer>,
}

impl Outcome {
    pub fn set(&mut self, name: &'static str, value: f64) {
        debug_assert!(!unit(name).is_empty(), "unknown metric {name}");
        self.values.insert(name, value);
    }

    /// Sets `op_median_ms` from per-op samples and `op_tail_ms` from the
    /// latencies of all ops.
    pub fn latencies(&mut self, samples: &[Sample]) {
        let ms: Vec<f64> = samples.iter().map(|s| s.1).collect();
        let kinds: std::collections::BTreeSet<usize> = samples.iter().map(|s| s.0).collect();
        self.set("op_median_ms", crate::stats::mix_median(samples));
        self.notes.insert(
            "op_median_ms",
            format!("N={} kinds={}", ms.len(), kinds.len()),
        );
        if let Some((p, v)) = crate::stats::tail(&ms) {
            self.set("op_tail_ms", v);
            self.notes
                .insert("op_tail_ms", format!("p{p} N={}", ms.len()));
        }
    }

    /// Sets `trace.overhead` from interleaved traced and untraced samples,
    /// compared as `op_median_ms` is taken. (A plain median would not do:
    /// the first, costly point of every sweep is an even, untraced op.)
    pub fn overhead(&mut self, traced: &[Sample], untraced: &[Sample]) {
        let (t, u) = (
            crate::stats::mix_median(traced),
            crate::stats::mix_median(untraced),
        );
        self.set("trace.overhead", if u > 0.0 { t / u - 1.0 } else { 0.0 });
    }
}

/// Peak resident set (`VmHWM`) of a process, MiB.
pub fn peak_rss_mb(pid: Option<u32>) -> f64 {
    let path = match pid {
        Some(pid) => format!("/proc/{pid}/status"),
        None => "/proc/self/status".to_string(),
    };
    std::fs::read_to_string(path)
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}
