//! Lock-free observability counters for the engine.

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::time::Duration;

/// Internal counters, updated with relaxed atomics on the hot path and
/// read out as a coherent-enough [`MetricsSnapshot`]. Monotonic except for
/// `queue_depth`, which is a gauge.
#[derive(Debug, Default)]
pub(crate) struct EngineMetrics {
    pub(crate) compile_hits: AtomicU64,
    pub(crate) compile_misses: AtomicU64,
    pub(crate) evictions: AtomicU64,
    pub(crate) artifacts_loaded: AtomicU64,
    pub(crate) artifacts_persisted: AtomicU64,
    pub(crate) artifacts_rejected: AtomicU64,
    pub(crate) requests_completed: AtomicU64,
    pub(crate) requests_failed: AtomicU64,
    pub(crate) queue_depth: AtomicUsize,
    pub(crate) max_queue_depth: AtomicUsize,
    pub(crate) compile_nanos: AtomicU64,
    pub(crate) plan_nanos: AtomicU64,
    pub(crate) model_nanos: AtomicU64,
    pub(crate) propagate_nanos: AtomicU64,
    pub(crate) forward_nanos: AtomicU64,
    pub(crate) queue_wait_nanos: AtomicU64,
    pub(crate) compiled_nnz: AtomicU64,
    pub(crate) compiled_states: AtomicU64,
    pub(crate) jobs_panicked: AtomicU64,
    pub(crate) jobs_cancelled: AtomicU64,
    pub(crate) retries: AtomicU64,
    pub(crate) degraded_segments: AtomicU64,
    pub(crate) messages_reused: AtomicU64,
    pub(crate) messages_recomputed: AtomicU64,
    pub(crate) segments_skipped: AtomicU64,
    pub(crate) compiled_max_clique_states: AtomicU64,
    pub(crate) sampled_segments: AtomicU64,
    pub(crate) samples_drawn: AtomicU64,
    pub(crate) sampling_converged: AtomicU64,
    pub(crate) sampling_timed_out: AtomicU64,
}

impl EngineMetrics {
    pub(crate) fn enqueue(&self) {
        let depth = self.queue_depth.fetch_add(1, Ordering::Relaxed) + 1;
        self.max_queue_depth.fetch_max(depth, Ordering::Relaxed);
    }

    pub(crate) fn dequeue(&self) {
        self.queue_depth.fetch_sub(1, Ordering::Relaxed);
    }

    pub(crate) fn add_nanos(target: &AtomicU64, elapsed: Duration) {
        target.fetch_add(elapsed.as_nanos() as u64, Ordering::Relaxed);
    }

    pub(crate) fn snapshot(&self) -> MetricsSnapshot {
        MetricsSnapshot {
            compile_hits: self.compile_hits.load(Ordering::Relaxed),
            compile_misses: self.compile_misses.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            artifacts_loaded: self.artifacts_loaded.load(Ordering::Relaxed),
            artifacts_persisted: self.artifacts_persisted.load(Ordering::Relaxed),
            artifacts_rejected: self.artifacts_rejected.load(Ordering::Relaxed),
            requests_completed: self.requests_completed.load(Ordering::Relaxed),
            requests_failed: self.requests_failed.load(Ordering::Relaxed),
            queue_depth: self.queue_depth.load(Ordering::Relaxed),
            max_queue_depth: self.max_queue_depth.load(Ordering::Relaxed),
            compile_time: Duration::from_nanos(self.compile_nanos.load(Ordering::Relaxed)),
            plan_time: Duration::from_nanos(self.plan_nanos.load(Ordering::Relaxed)),
            model_time: Duration::from_nanos(self.model_nanos.load(Ordering::Relaxed)),
            propagate_time: Duration::from_nanos(self.propagate_nanos.load(Ordering::Relaxed)),
            forward_time: Duration::from_nanos(self.forward_nanos.load(Ordering::Relaxed)),
            queue_wait: Duration::from_nanos(self.queue_wait_nanos.load(Ordering::Relaxed)),
            compiled_nnz: self.compiled_nnz.load(Ordering::Relaxed),
            compiled_states: self.compiled_states.load(Ordering::Relaxed),
            jobs_panicked: self.jobs_panicked.load(Ordering::Relaxed),
            jobs_cancelled: self.jobs_cancelled.load(Ordering::Relaxed),
            retries: self.retries.load(Ordering::Relaxed),
            degraded_segments: self.degraded_segments.load(Ordering::Relaxed),
            messages_reused: self.messages_reused.load(Ordering::Relaxed),
            messages_recomputed: self.messages_recomputed.load(Ordering::Relaxed),
            segments_skipped: self.segments_skipped.load(Ordering::Relaxed),
            compiled_max_clique_states: self.compiled_max_clique_states.load(Ordering::Relaxed),
            sampled_segments: self.sampled_segments.load(Ordering::Relaxed),
            samples_drawn: self.samples_drawn.load(Ordering::Relaxed),
            sampling_converged: self.sampling_converged.load(Ordering::Relaxed),
            sampling_timed_out: self.sampling_timed_out.load(Ordering::Relaxed),
        }
    }
}

/// A point-in-time copy of the engine's counters.
///
/// `propagate_time` and `queue_wait` are *sums over requests*, so with `N`
/// workers busy the propagate total grows up to `N`× faster than the wall
/// clock — compare against `wall_time × jobs` for utilization.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MetricsSnapshot {
    /// Batches served from the compiled-model cache.
    pub compile_hits: u64,
    /// Batches that had to compile their model.
    pub compile_misses: u64,
    /// Compiled models evicted to respect the cache budget.
    pub evictions: u64,
    /// Compiled models loaded from the on-disk artifact cache (warm
    /// starts) instead of being compiled.
    pub artifacts_loaded: u64,
    /// Compiled models persisted to the on-disk artifact cache after a
    /// compile.
    pub artifacts_persisted: u64,
    /// On-disk artifacts rejected (corrupt, stale version, foreign key, or
    /// unreadable) and recompiled from scratch.
    pub artifacts_rejected: u64,
    /// Scenario requests finished (successfully or not).
    pub requests_completed: u64,
    /// Scenario requests that returned an error.
    pub requests_failed: u64,
    /// Jobs currently waiting in the queue.
    pub queue_depth: usize,
    /// High-water mark of the queue depth.
    pub max_queue_depth: usize,
    /// Total time spent compiling models (cache misses only). This is the
    /// whole compile pass; `plan_time` and `model_time` break out its
    /// planning and BN-construction stages.
    pub compile_time: Duration,
    /// Time spent in the planning stage (fan-in decomposition +
    /// segmentation) of cache-miss compiles.
    pub plan_time: Duration,
    /// Time spent building per-segment Bayesian networks during cache-miss
    /// compiles.
    pub model_time: Duration,
    /// Total propagation time summed over requests.
    pub propagate_time: Duration,
    /// Time spent forwarding boundary distributions between segments,
    /// summed over requests (part of each request's run time).
    pub forward_time: Duration,
    /// Total time requests waited in the queue before a worker picked
    /// them up.
    pub queue_wait: Duration,
    /// Nonzero clique-potential entries summed over compiled models
    /// (cache misses only) — the propagation work actually performed.
    pub compiled_nnz: u64,
    /// Full clique state-space entries summed over compiled models (cache
    /// misses only); `compiled_nnz / compiled_states` under 1.0 means
    /// zero-compression is paying off.
    pub compiled_states: u64,
    /// Worker panics caught at the job boundary and converted to
    /// per-scenario [`Panicked`](swact::EstimateError::Panicked) errors.
    pub jobs_panicked: u64,
    /// Queued scenarios evicted by a cancelling engine shutdown and
    /// resolved as per-scenario
    /// [`Cancelled`](swact::EstimateError::Cancelled) errors.
    pub jobs_cancelled: u64,
    /// Scenario attempts re-executed after a retryable error
    /// (panic/deadline).
    pub retries: u64,
    /// Segments degraded by the compile-time budget ladder, summed over
    /// cache-miss compiles.
    pub degraded_segments: u64,
    /// Collect messages served verbatim from per-edge message caches,
    /// summed over requests.
    pub messages_reused: u64,
    /// Collect messages recomputed (dirty subtree or cold cache), summed
    /// over requests.
    pub messages_recomputed: u64,
    /// Segments served whole from the boundary-marginal posterior memo,
    /// summed over requests.
    pub segments_skipped: u64,
    /// High-water mark of a compiled model's largest clique state count
    /// (cache misses only), rounded to the nearest integer — the memory
    /// hot spot segmentation exists to bound.
    pub compiled_max_clique_states: u64,
    /// Segments compiled for the anytime sampling backend (primary or via
    /// the degradation ladder), summed over cache-miss compiles.
    pub sampled_segments: u64,
    /// Likelihood-weighting samples drawn across all sampled requests.
    pub samples_drawn: u64,
    /// Requests whose sampled estimate met its confidence-interval target.
    pub sampling_converged: u64,
    /// Requests whose sampler stopped on the deadline or batch cap before
    /// reaching the confidence-interval target.
    pub sampling_timed_out: u64,
}

impl MetricsSnapshot {
    /// Fraction of compiled clique-potential entries that were structural
    /// zeros; `0.0` before any model has been compiled.
    pub fn zero_fraction(&self) -> f64 {
        if self.compiled_states == 0 {
            return 0.0;
        }
        1.0 - self.compiled_nnz as f64 / self.compiled_states as f64
    }

    /// Fraction of collect messages served from cache
    /// (`reused / (reused + recomputed)`); `0.0` before any propagation.
    pub fn message_reuse_ratio(&self) -> f64 {
        let total = self.messages_reused + self.messages_recomputed;
        if total == 0 {
            0.0
        } else {
            self.messages_reused as f64 / total as f64
        }
    }

    /// Every counter as a `(name, value)` pair in a stable order, with
    /// durations converted to seconds (`*_seconds` names) — the flat view
    /// scrape endpoints and log sinks consume without matching struct
    /// fields one by one. Names are valid Prometheus metric-name suffixes.
    pub fn fields(&self) -> Vec<(&'static str, f64)> {
        vec![
            ("compile_hits", self.compile_hits as f64),
            ("compile_misses", self.compile_misses as f64),
            ("evictions", self.evictions as f64),
            ("artifacts_loaded", self.artifacts_loaded as f64),
            ("artifacts_persisted", self.artifacts_persisted as f64),
            ("artifacts_rejected", self.artifacts_rejected as f64),
            ("requests_completed", self.requests_completed as f64),
            ("requests_failed", self.requests_failed as f64),
            ("queue_depth", self.queue_depth as f64),
            ("max_queue_depth", self.max_queue_depth as f64),
            ("compile_seconds", self.compile_time.as_secs_f64()),
            ("plan_seconds", self.plan_time.as_secs_f64()),
            ("model_seconds", self.model_time.as_secs_f64()),
            ("propagate_seconds", self.propagate_time.as_secs_f64()),
            ("forward_seconds", self.forward_time.as_secs_f64()),
            ("queue_wait_seconds", self.queue_wait.as_secs_f64()),
            ("compiled_nnz", self.compiled_nnz as f64),
            ("compiled_states", self.compiled_states as f64),
            ("jobs_panicked", self.jobs_panicked as f64),
            ("jobs_cancelled", self.jobs_cancelled as f64),
            ("retries", self.retries as f64),
            ("degraded_segments", self.degraded_segments as f64),
            ("messages_reused", self.messages_reused as f64),
            ("messages_recomputed", self.messages_recomputed as f64),
            ("segments_skipped", self.segments_skipped as f64),
            (
                "compiled_max_clique_states",
                self.compiled_max_clique_states as f64,
            ),
            ("sampled_segments", self.sampled_segments as f64),
            ("samples_drawn", self.samples_drawn as f64),
            ("sampling_converged", self.sampling_converged as f64),
            ("sampling_timed_out", self.sampling_timed_out as f64),
        ]
    }
}
