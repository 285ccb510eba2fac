//! swact-engine: concurrent batch-inference engine over shared compiled
//! junction trees.
//!
//! The paper's central economics (Table 1) are *compile once, propagate
//! many*: junction-tree compilation dominates total runtime while each
//! evidence update runs in milliseconds. This crate turns that asymmetry
//! into a service-shaped API — an [`Engine`] owns
//!
//! 1. a **compiled-model cache** keyed by (circuit structure, [`Options`],
//!    input-spec signature), LRU-evicted by the models' nonzero
//!    clique-potential entries (nnz — what a model actually costs once
//!    zero-compressed cliques drop their structural zeros), so repeated
//!    batches over the same circuit never recompile;
//! 2. a **fixed worker pool** of plain `std::thread`s sharing each
//!    `Arc<CompiledEstimator>` — the `&self` propagation API introduced
//!    alongside this crate lets one compiled model serve all workers
//!    concurrently, each borrowing pooled `PropagationState` scratch; and
//! 3. **observability counters** ([`MetricsSnapshot`]): cache hits/misses,
//!    evictions, per-stage compile/propagate/queue-wait timings, and queue
//!    depth.
//!
//! Results are returned in *submission order* regardless of worker count:
//! [`Engine::estimate_batch`] with `jobs = 1` and `jobs = N` produce
//! bit-identical estimates.
//!
//! # Example
//!
//! ```
//! use swact::{InputSpec, Options};
//! use swact_circuit::catalog;
//! use swact_engine::Engine;
//!
//! let engine = Engine::with_jobs(2);
//! let circuit = catalog::c17();
//! let specs: Vec<InputSpec> = (1..=4)
//!     .map(|i| {
//!         InputSpec::independent(vec![0.1 * i as f64; circuit.num_inputs()])
//!     })
//!     .collect();
//!
//! let report = engine
//!     .estimate_batch(&circuit, &specs, &Options::default())
//!     .unwrap();
//! assert_eq!(report.items.len(), 4);
//! assert!(!report.cache_hit); // first batch compiles ...
//!
//! let again = engine
//!     .estimate_batch(&circuit, &specs, &Options::default())
//!     .unwrap();
//! assert!(again.cache_hit); // ... later batches reuse the junction trees
//! ```

// A panic reaching `.unwrap()` in engine code takes a worker (and its
// batch) down; failures must flow through `EstimateError` instead.
// Invariant-protected `.expect()`s remain allowed, each documented.
#![deny(clippy::unwrap_used)]

mod cache;
mod metrics;
mod pool;

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::sync::atomic::AtomicBool;
use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::time::{Duration, Instant};

use swact::artifact;
use swact::{CompiledEstimator, Estimate, EstimateError, InputSpec, Options, StageTimings};
use swact_circuit::Circuit;

use cache::{model_key, ModelCache};
use metrics::EngineMetrics;
pub use metrics::MetricsSnapshot;
pub use pool::ShutdownMode;
use pool::WorkerPool;

/// Default cache budget: total junction-tree states the cache may hold
/// (2²⁴ ≈ 16.7M states ≈ 134 MB of f64 potentials).
pub const DEFAULT_CACHE_BUDGET_STATES: f64 = (1u64 << 24) as f64;

/// Result of one scenario in a batch, tagged with its submission index.
#[derive(Debug, Clone)]
pub struct BatchItem {
    /// Position of the scenario in the submitted spec slice.
    pub index: usize,
    /// The estimate, or the per-scenario error (other scenarios still run).
    pub result: Result<Estimate, EstimateError>,
    /// Time the scenario sat in the queue before a worker picked it up.
    pub queue_wait: Duration,
    /// Time the worker spent propagating this scenario.
    pub run_time: Duration,
}

/// Outcome of [`Engine::estimate_batch`]: per-scenario results in
/// submission order plus batch-level accounting.
#[derive(Debug, Clone)]
pub struct BatchReport {
    /// One entry per submitted spec, sorted by `index` (submission order).
    pub items: Vec<BatchItem>,
    /// Whether the compiled model came from the cache.
    pub cache_hit: bool,
    /// Time spent compiling for this batch (zero on a cache hit).
    pub compile_time: Duration,
    /// Wall-clock time of the whole batch, compile included.
    pub wall_time: Duration,
    /// Worker threads used.
    pub jobs: usize,
    /// Per-stage breakdown: `plan`/`model`/`compile` cover this batch's
    /// compile pass (zero on a cache hit), while `propagate`/`forward` sum
    /// over the batch's successful scenarios — so with multiple workers
    /// they can exceed `wall_time`.
    pub stages: StageTimings,
}

impl BatchReport {
    /// Successful estimates in submission order.
    pub fn estimates(&self) -> impl Iterator<Item = &Estimate> {
        self.items
            .iter()
            .filter_map(|item| item.result.as_ref().ok())
    }

    /// Whether every scenario succeeded.
    pub fn all_ok(&self) -> bool {
        self.items.iter().all(|item| item.result.is_ok())
    }

    /// Number of successful scenarios whose estimate carries
    /// budget-degradation reports (see
    /// [`Estimate::degradations`](swact::Estimate::degradations)).
    pub fn degraded_scenarios(&self) -> usize {
        self.estimates().filter(|e| e.is_degraded()).count()
    }

    /// Scenario throughput: scenarios per wall-clock second.
    pub fn scenarios_per_sec(&self) -> f64 {
        if self.wall_time.is_zero() {
            return 0.0;
        }
        self.items.len() as f64 / self.wall_time.as_secs_f64()
    }
}

/// Concurrent batch-inference engine over shared compiled junction trees.
///
/// Cheap to keep around: workers sleep on a condvar between batches, and
/// the cache holds `Arc`s that batches in flight also share. Dropping the
/// engine drains queued jobs and joins the workers.
pub struct Engine {
    pool: WorkerPool,
    cache: Mutex<ModelCache>,
    /// Disk tier of the model cache: memory misses consult this directory
    /// before compiling, and fresh compiles are persisted back. `None`
    /// keeps the cache memory-only.
    cache_dir: Option<PathBuf>,
    metrics: Arc<EngineMetrics>,
    /// Set by [`shutdown`](Engine::shutdown); batches submitted afterwards
    /// fail fast with [`EstimateError::Cancelled`].
    closed: AtomicBool,
}

impl Default for Engine {
    fn default() -> Engine {
        Engine::new()
    }
}

impl Engine {
    /// Engine with one worker per available CPU and the default cache
    /// budget ([`DEFAULT_CACHE_BUDGET_STATES`]).
    pub fn new() -> Engine {
        let jobs = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1);
        Engine::with_jobs(jobs)
    }

    /// Engine with an explicit worker count (`0` means one worker),
    /// clamped to the host's available parallelism: the workers are plain
    /// compute-bound threads, so oversubscribing CPUs only adds
    /// context-switch overhead (measured as a 0.43× throughput *loss* at
    /// `jobs = 8` on one CPU). Use
    /// [`with_jobs_forced`](Engine::with_jobs_forced) to bypass the clamp.
    pub fn with_jobs(jobs: usize) -> Engine {
        Engine::with_jobs_and_cache(jobs, DEFAULT_CACHE_BUDGET_STATES)
    }

    /// Engine with exactly `jobs` workers (`0` means one worker), without
    /// the available-parallelism clamp — for benchmarking scheduler
    /// behavior or when the host reports its CPU count wrong.
    pub fn with_jobs_forced(jobs: usize) -> Engine {
        Engine::with_jobs_forced_and_cache(jobs, DEFAULT_CACHE_BUDGET_STATES)
    }

    /// Engine with explicit worker count (clamped to available
    /// parallelism) and cache budget (total junction-tree states the
    /// compiled-model cache may retain).
    pub fn with_jobs_and_cache(jobs: usize, cache_budget_states: f64) -> Engine {
        Engine::with_jobs_forced_and_cache(Engine::clamp_jobs(jobs), cache_budget_states)
    }

    /// Engine with exactly `jobs` workers (no clamp) and an explicit cache
    /// budget.
    pub fn with_jobs_forced_and_cache(jobs: usize, cache_budget_states: f64) -> Engine {
        Engine {
            pool: WorkerPool::new(jobs),
            cache: Mutex::new(ModelCache::new(cache_budget_states)),
            cache_dir: None,
            metrics: Arc::new(EngineMetrics::default()),
            closed: AtomicBool::new(false),
        }
    }

    /// Adds a disk tier to the compiled-model cache: memory misses consult
    /// `dir` for a persisted artifact before compiling, and every fresh
    /// compile is written back (atomically) for other — and future —
    /// processes. Corrupt, stale-version, or foreign artifacts are counted
    /// in [`MetricsSnapshot::artifacts_rejected`] and fall through to a
    /// clean compile; they are never an error.
    pub fn with_cache_dir(mut self, dir: impl Into<PathBuf>) -> Engine {
        self.cache_dir = Some(dir.into());
        self
    }

    /// The disk tier's directory, when one is configured.
    pub fn cache_dir(&self) -> Option<&Path> {
        self.cache_dir.as_deref()
    }

    /// Loads every readable artifact in the cache directory into the
    /// in-memory tier, so the first request for a known model is a memory
    /// hit instead of a disk read. Returns the number of models loaded;
    /// unreadable or invalid artifacts count as
    /// [`MetricsSnapshot::artifacts_rejected`] and are skipped. A no-op
    /// without a cache directory (returns 0).
    pub fn prewarm(&self) -> usize {
        use std::sync::atomic::Ordering;

        let Some(dir) = self.cache_dir.as_deref() else {
            return 0;
        };
        let Ok(entries) = std::fs::read_dir(dir) else {
            return 0;
        };
        let mut loaded = 0;
        for entry in entries.flatten() {
            let name = entry.file_name();
            let Some(key) = name.to_str().and_then(artifact::parse_artifact_file_name) else {
                continue;
            };
            match artifact::read_artifact(&entry.path(), Some(key)) {
                Ok((_, model)) => {
                    self.metrics
                        .artifacts_loaded
                        .fetch_add(1, Ordering::Relaxed);
                    let evicted = self
                        .cache
                        .lock()
                        .unwrap_or_else(PoisonError::into_inner)
                        .insert(key, Arc::new(model));
                    if evicted > 0 {
                        self.metrics.evictions.fetch_add(evicted, Ordering::Relaxed);
                    }
                    loaded += 1;
                }
                Err(_) => {
                    self.metrics
                        .artifacts_rejected
                        .fetch_add(1, Ordering::Relaxed);
                }
            }
        }
        loaded
    }

    /// Shuts the engine down deterministically and blocks until workers
    /// are quiescent.
    ///
    /// * [`ShutdownMode::Drain`] — every queued scenario still runs;
    ///   in-flight batches complete normally.
    /// * [`ShutdownMode::CancelQueued`] — scenarios still in the queue are
    ///   resolved as [`EstimateError::Cancelled`] items (their batch
    ///   returns instead of hanging); scenarios already on a worker
    ///   finish.
    ///
    /// After shutdown, [`estimate_batch`](Engine::estimate_batch) fails
    /// fast with [`EstimateError::Cancelled`]. Idempotent and callable
    /// from any thread (e.g. while another thread is blocked inside
    /// `estimate_batch`). `Drop` performs a draining shutdown, so merely
    /// dropping an engine with a full queue neither hangs nor loses the
    /// deterministic drain.
    pub fn shutdown(&self, mode: ShutdownMode) {
        self.closed.store(true, std::sync::atomic::Ordering::SeqCst);
        self.pool.shutdown(mode);
    }

    /// Whether [`shutdown`](Engine::shutdown) has been called.
    pub fn is_shut_down(&self) -> bool {
        self.closed.load(std::sync::atomic::Ordering::SeqCst) || self.pool.is_shut_down()
    }

    /// Requested worker count clamped to `[1, available_parallelism]`.
    fn clamp_jobs(jobs: usize) -> usize {
        let cpus = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1);
        jobs.clamp(1, cpus)
    }

    /// Number of worker threads.
    pub fn jobs(&self) -> usize {
        self.pool.jobs()
    }

    /// A point-in-time copy of the engine's counters.
    pub fn metrics(&self) -> MetricsSnapshot {
        self.metrics.snapshot()
    }

    /// Number of compiled models currently cached.
    pub fn cached_models(&self) -> usize {
        // Cache-lock poison recovery: every critical section in
        // `compiled_model` is a lookup or insert on an LRU map that keeps
        // its invariants on panic, so the data is safe to keep using.
        self.cache
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .len()
    }

    /// Estimates every spec in `specs` against `circuit`, reusing one
    /// compiled model across all of them and across calls.
    ///
    /// All specs in a batch must share the same group/pairwise *signature*
    /// (the same sets of correlated inputs — probabilities are free to
    /// differ), because the signature is compiled into the model: the
    /// model is compiled for `specs[0]`, and scenarios whose signature
    /// differs fail individually with
    /// [`EstimateError::GroupStructureMismatch`] in their [`BatchItem`].
    ///
    /// # Errors
    ///
    /// Returns an error only if *compilation* fails (e.g.
    /// [`EstimateError::TooLarge`] in single-BN mode). Per-scenario
    /// propagation errors are reported in the items, not here.
    pub fn estimate_batch(
        &self,
        circuit: &Circuit,
        specs: &[InputSpec],
        options: &Options,
    ) -> Result<BatchReport, EstimateError> {
        let wall_start = Instant::now();
        if self.is_shut_down() {
            return Err(EstimateError::Cancelled);
        }
        if specs.is_empty() {
            return Ok(BatchReport {
                items: Vec::new(),
                cache_hit: true,
                compile_time: Duration::ZERO,
                wall_time: wall_start.elapsed(),
                jobs: self.pool.jobs(),
                stages: StageTimings::default(),
            });
        }

        let (model, cache_hit, compile_time) = self.compiled_model(circuit, &specs[0], options)?;
        let mut stages = if cache_hit {
            StageTimings::default()
        } else {
            model.stage_timings()
        };

        // One slot per scenario, filled by workers in arbitrary order and
        // read back by index — submission order survives any scheduling.
        let slots: Arc<Vec<Mutex<Option<BatchItem>>>> =
            Arc::new((0..specs.len()).map(|_| Mutex::new(None)).collect());
        let done = Arc::new((Mutex::new(0usize), Condvar::new()));

        for (index, spec) in specs.iter().enumerate() {
            let model = Arc::clone(&model);
            let spec = spec.clone();
            let slots = Arc::clone(&slots);
            let done = Arc::clone(&done);
            let metrics = Arc::clone(&self.metrics);
            let opts = *options;
            let enqueued_at = Instant::now();
            self.metrics.enqueue();
            // A cancelling shutdown runs this instead of the job: the slot
            // still fills and the done count still bumps, so this batch's
            // wait loop below terminates with a typed per-scenario error
            // rather than hanging on a job that will never run.
            let cancel = {
                let slots = Arc::clone(&slots);
                let done = Arc::clone(&done);
                let metrics = Arc::clone(&self.metrics);
                Box::new(move || {
                    use std::sync::atomic::Ordering;
                    metrics.dequeue();
                    metrics.jobs_cancelled.fetch_add(1, Ordering::Relaxed);
                    metrics.requests_completed.fetch_add(1, Ordering::Relaxed);
                    metrics.requests_failed.fetch_add(1, Ordering::Relaxed);
                    *slots[index].lock().unwrap_or_else(PoisonError::into_inner) =
                        Some(BatchItem {
                            index,
                            result: Err(EstimateError::Cancelled),
                            queue_wait: enqueued_at.elapsed(),
                            run_time: Duration::ZERO,
                        });
                    let (count, signal) = &*done;
                    *count.lock().unwrap_or_else(PoisonError::into_inner) += 1;
                    signal.notify_all();
                })
            };
            self.pool.submit_cancellable(
                Box::new(move || {
                    let queue_wait = enqueued_at.elapsed();
                    metrics.dequeue();

                    let run_start = Instant::now();
                    let result = run_scenario(&model, &spec, index, &opts, queue_wait, &metrics);
                    let run_time = run_start.elapsed();

                    EngineMetrics::add_nanos(&metrics.queue_wait_nanos, queue_wait);
                    EngineMetrics::add_nanos(&metrics.propagate_nanos, run_time);
                    if let Ok(estimate) = &result {
                        EngineMetrics::add_nanos(
                            &metrics.forward_nanos,
                            estimate.stage_timings().forward,
                        );
                        let reuse = estimate.reuse_stats();
                        metrics
                            .messages_reused
                            .fetch_add(reuse.messages_reused, std::sync::atomic::Ordering::Relaxed);
                        metrics.messages_recomputed.fetch_add(
                            reuse.messages_recomputed,
                            std::sync::atomic::Ordering::Relaxed,
                        );
                        metrics.segments_skipped.fetch_add(
                            reuse.segments_skipped,
                            std::sync::atomic::Ordering::Relaxed,
                        );
                        if let Some(accuracy) = estimate.accuracy() {
                            metrics
                                .samples_drawn
                                .fetch_add(accuracy.samples, std::sync::atomic::Ordering::Relaxed);
                            let outcome = if accuracy.converged {
                                &metrics.sampling_converged
                            } else {
                                &metrics.sampling_timed_out
                            };
                            outcome.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                        }
                    }
                    metrics
                        .requests_completed
                        .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                    if result.is_err() {
                        metrics
                            .requests_failed
                            .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                    }

                    // Slot/done-lock poison recovery: each critical section is
                    // a single assignment, so poisoned state is still valid —
                    // and refusing to fill the slot would hang `wait` forever.
                    *slots[index].lock().unwrap_or_else(PoisonError::into_inner) =
                        Some(BatchItem {
                            index,
                            result,
                            queue_wait,
                            run_time,
                        });
                    let (count, signal) = &*done;
                    *count.lock().unwrap_or_else(PoisonError::into_inner) += 1;
                    signal.notify_all();
                }),
                cancel,
            );
        }

        let (count, signal) = &*done;
        let mut finished = count.lock().unwrap_or_else(PoisonError::into_inner);
        while *finished < specs.len() {
            finished = signal
                .wait(finished)
                .unwrap_or_else(PoisonError::into_inner);
        }
        drop(finished);

        let items: Vec<BatchItem> = slots
            .iter()
            .map(|slot| {
                slot.lock()
                    .unwrap_or_else(PoisonError::into_inner)
                    .take()
                    // Invariant: the wait loop above returned only after
                    // every job bumped the done count, and each job fills
                    // its slot before doing so.
                    .expect("every slot filled before the batch returns")
            })
            .collect();

        for item in &items {
            if let Ok(estimate) = &item.result {
                let run = estimate.stage_timings();
                stages.propagate += run.propagate;
                stages.forward += run.forward;
            }
        }

        Ok(BatchReport {
            items,
            cache_hit,
            compile_time,
            wall_time: wall_start.elapsed(),
            jobs: self.pool.jobs(),
            stages,
        })
    }

    /// Looks the model up in the cache, compiling (and inserting) on miss.
    ///
    /// Compilation happens *outside* the cache lock so a slow compile for
    /// one circuit never blocks cache hits for others; if two threads race
    /// to compile the same key, the loser discards its copy and both count
    /// as misses (they both did the work).
    fn compiled_model(
        &self,
        circuit: &Circuit,
        spec: &InputSpec,
        options: &Options,
    ) -> Result<(Arc<CompiledEstimator>, bool, Duration), EstimateError> {
        use std::sync::atomic::Ordering;

        let key = model_key(circuit, spec, options);
        if let Some(model) = self
            .cache
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .get(key)
        {
            self.metrics.compile_hits.fetch_add(1, Ordering::Relaxed);
            return Ok((model, true, Duration::ZERO));
        }

        // Disk tier: a sibling (or earlier) process may have persisted this
        // exact model. Any rejection — missing, corrupt, stale version,
        // foreign key — falls through to a clean compile.
        if let Some(dir) = self.cache_dir.as_deref() {
            let path = dir.join(artifact::artifact_file_name(key));
            match artifact::read_artifact(&path, Some(key)) {
                Ok((_, model)) => {
                    self.metrics
                        .artifacts_loaded
                        .fetch_add(1, Ordering::Relaxed);
                    self.metrics.compile_hits.fetch_add(1, Ordering::Relaxed);
                    let model = Arc::new(model);
                    let mut cache = self.cache.lock().unwrap_or_else(PoisonError::into_inner);
                    let model = match cache.get(key) {
                        Some(existing) => existing,
                        None => {
                            let evicted = cache.insert(key, Arc::clone(&model));
                            if evicted > 0 {
                                self.metrics.evictions.fetch_add(evicted, Ordering::Relaxed);
                            }
                            model
                        }
                    };
                    return Ok((model, true, Duration::ZERO));
                }
                Err(artifact::ArtifactError::Io(e)) if e.kind() == std::io::ErrorKind::NotFound => {
                }
                Err(_) => {
                    self.metrics
                        .artifacts_rejected
                        .fetch_add(1, Ordering::Relaxed);
                }
            }
        }

        let compile_start = Instant::now();
        let model = Arc::new(CompiledEstimator::compile_for(circuit, spec, options)?);
        let compile_time = compile_start.elapsed();
        self.metrics.compile_misses.fetch_add(1, Ordering::Relaxed);
        EngineMetrics::add_nanos(&self.metrics.compile_nanos, compile_time);
        let stages = model.stage_timings();
        EngineMetrics::add_nanos(&self.metrics.plan_nanos, stages.plan);
        EngineMetrics::add_nanos(&self.metrics.model_nanos, stages.model);
        self.metrics
            .compiled_nnz
            .fetch_add(model.nnz() as u64, Ordering::Relaxed);
        self.metrics
            .compiled_states
            .fetch_add(model.total_states() as u64, Ordering::Relaxed);
        self.metrics
            .degraded_segments
            .fetch_add(model.degradations().len() as u64, Ordering::Relaxed);
        self.metrics
            .sampled_segments
            .fetch_add(model.sampled_segments() as u64, Ordering::Relaxed);
        self.metrics
            .compiled_max_clique_states
            .fetch_max(model.max_clique_states() as u64, Ordering::Relaxed);

        // Write-back to the disk tier (outside the cache lock — disk i/o
        // must not block memory hits). A failed write is not an error for
        // this batch; the model simply is not shared.
        if let Some(dir) = self.cache_dir.as_deref() {
            if artifact::write_artifact(dir, key, &model).is_ok() {
                self.metrics
                    .artifacts_persisted
                    .fetch_add(1, Ordering::Relaxed);
            }
        }

        let mut cache = self.cache.lock().unwrap_or_else(PoisonError::into_inner);
        let model = match cache.get(key) {
            // Lost a compile race — reuse the winner's model so the whole
            // engine shares one set of junction trees per key.
            Some(existing) => existing,
            None => {
                let evicted = cache.insert(key, Arc::clone(&model));
                if evicted > 0 {
                    self.metrics.evictions.fetch_add(evicted, Ordering::Relaxed);
                }
                model
            }
        };
        Ok((model, false, compile_time))
    }
}

/// Bounded number of re-executions of a scenario after a retryable error.
const MAX_RETRIES: u32 = 2;

/// Runs one scenario with the engine's fault envelope: a per-job queue
/// deadline, panic containment at the job boundary, and bounded
/// retry-with-backoff for errors classified retryable
/// ([`EstimateError::retryable`]).
fn run_scenario(
    model: &CompiledEstimator,
    spec: &InputSpec,
    index: usize,
    options: &Options,
    queue_wait: Duration,
    metrics: &EngineMetrics,
) -> Result<Estimate, EstimateError> {
    use std::sync::atomic::Ordering;

    // A scenario that already overshot its deadline in the queue is shed
    // immediately instead of occupying a worker.
    if let Some(deadline) = options.budget.deadline {
        if queue_wait > deadline {
            return Err(EstimateError::DeadlineExceeded {
                stage: "queue",
                deadline,
            });
        }
    }
    let attempt = || {
        catch_unwind(AssertUnwindSafe(|| {
            swact::faults::hit("engine:job", Some(index));
            model.estimate(spec)
        }))
        .unwrap_or_else(|payload| {
            metrics.jobs_panicked.fetch_add(1, Ordering::Relaxed);
            Err(EstimateError::from_panic(payload.as_ref()))
        })
    };
    let mut result = attempt();
    let mut retries = 0u32;
    while retries < MAX_RETRIES && result.as_ref().err().is_some_and(EstimateError::retryable) {
        retries += 1;
        metrics.retries.fetch_add(1, Ordering::Relaxed);
        // Deterministic bounded backoff; transient faults (another
        // tenant's memory spike, a caught panic) often clear immediately.
        std::thread::sleep(Duration::from_millis(1 << retries));
        result = attempt();
    }
    result
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use swact_circuit::catalog;

    /// Serializes a job-running test with the fault-injection tests. An
    /// armed `engine:job` fault is process-wide and fires once, so a batch
    /// running in a parallel test could consume it; holding the fault
    /// harness's lock (an empty plan) rules that out. A no-op without the
    /// `fault-inject` feature.
    fn serial() -> impl Sized {
        #[cfg(feature = "fault-inject")]
        {
            swact::faults::arm(swact::faults::FaultPlan::new())
        }
    }

    /// Spins until `engine` reports `depth` queued scenarios, failing with
    /// a message instead of hanging if that never happens.
    #[cfg(feature = "fault-inject")]
    fn wait_for_queue_depth(engine: &Engine, depth: usize) {
        let deadline = Instant::now() + Duration::from_secs(10);
        loop {
            let seen = engine.metrics().queue_depth;
            if seen == depth {
                return;
            }
            assert!(
                Instant::now() < deadline,
                "queue depth stuck at {seen}, expected {depth}"
            );
            std::thread::sleep(Duration::from_millis(1));
        }
    }

    fn specs_for(circuit: &Circuit, n: usize) -> Vec<InputSpec> {
        (0..n)
            .map(|i| {
                let p = 0.05 + 0.9 * (i as f64) / (n.max(2) - 1) as f64;
                InputSpec::independent(vec![p; circuit.num_inputs()])
            })
            .collect()
    }

    #[test]
    fn batch_results_keep_submission_order_and_match_direct_estimation() {
        let _serial = serial();
        let circuit = catalog::c17();
        let options = Options::default();
        let specs = specs_for(&circuit, 6);
        let engine = Engine::with_jobs_forced(3);

        let report = engine.estimate_batch(&circuit, &specs, &options).unwrap();
        assert!(report.all_ok());
        assert_eq!(report.jobs, 3);
        assert_eq!(
            report.items.iter().map(|i| i.index).collect::<Vec<_>>(),
            (0..specs.len()).collect::<Vec<_>>()
        );

        let direct = CompiledEstimator::compile_for(&circuit, &specs[0], &options).unwrap();
        for (item, spec) in report.items.iter().zip(&specs) {
            let expected = direct.estimate(spec).unwrap();
            let got = item.result.as_ref().unwrap();
            assert_eq!(got.switching_all(), expected.switching_all());
        }
    }

    #[test]
    fn single_and_multi_worker_batches_are_bit_identical() {
        let _serial = serial();
        let circuit = catalog::c17();
        let options = Options::default();
        let specs = specs_for(&circuit, 8);

        let serial = Engine::with_jobs(1)
            .estimate_batch(&circuit, &specs, &options)
            .unwrap();
        let parallel = Engine::with_jobs_forced(4)
            .estimate_batch(&circuit, &specs, &options)
            .unwrap();

        for (a, b) in serial.items.iter().zip(&parallel.items) {
            assert_eq!(a.index, b.index);
            let (a, b) = (a.result.as_ref().unwrap(), b.result.as_ref().unwrap());
            // Bit-identical, not approximately equal.
            for (x, y) in a.switching_all().iter().zip(b.switching_all().iter()) {
                assert_eq!(x.to_bits(), y.to_bits());
            }
        }
    }

    /// The sampling backend's seeded streams must make it exactly as
    /// deterministic as the exact backends: same seed ⇒ bit-identical
    /// results whether one worker or four ran the batch. (No deadline is
    /// set, so every stop is convergence- or cap-driven — timing never
    /// influences the sample count.)
    #[test]
    fn sampling_batches_are_bit_identical_across_job_counts() {
        let _serial = serial();
        let circuit = catalog::c17();
        let options = Options {
            backend: swact::Backend::Sampling,
            seed: 42,
            ..Options::default()
        };
        let specs = specs_for(&circuit, 6);

        let serial = Engine::with_jobs(1)
            .estimate_batch(&circuit, &specs, &options)
            .unwrap();
        let parallel = Engine::with_jobs_forced(4)
            .estimate_batch(&circuit, &specs, &options)
            .unwrap();

        for (a, b) in serial.items.iter().zip(&parallel.items) {
            assert_eq!(a.index, b.index);
            let (a, b) = (a.result.as_ref().unwrap(), b.result.as_ref().unwrap());
            assert!(a.accuracy().is_some(), "sampled estimates carry accuracy");
            assert_eq!(a.accuracy(), b.accuracy());
            for (x, y) in a.switching_all().iter().zip(b.switching_all().iter()) {
                assert_eq!(x.to_bits(), y.to_bits());
            }
        }
    }

    #[test]
    fn sampling_metrics_count_segments_samples_and_outcomes() {
        let _serial = serial();
        let circuit = catalog::c17();
        let options = Options {
            backend: swact::Backend::Sampling,
            seed: 1,
            ..Options::default()
        };
        let engine = Engine::with_jobs(1);
        let report = engine
            .estimate_batch(&circuit, &specs_for(&circuit, 2), &options)
            .unwrap();
        assert!(report.all_ok());
        let metrics = engine.metrics();
        assert!(metrics.sampled_segments > 0);
        assert!(metrics.samples_drawn > 0);
        assert_eq!(metrics.sampling_converged + metrics.sampling_timed_out, 2);
    }

    fn temp_cache_dir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("swact-engine-cache-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn disk_tier_warm_starts_a_fresh_engine_bit_identically() {
        let _serial = serial();
        let dir = temp_cache_dir("warm");
        let circuit = catalog::c17();
        let options = Options::default();
        let specs = specs_for(&circuit, 3);

        // First engine compiles and persists.
        let cold = Engine::with_jobs(1).with_cache_dir(&dir);
        let first = cold.estimate_batch(&circuit, &specs, &options).unwrap();
        assert!(!first.cache_hit);
        let cold_metrics = cold.metrics();
        assert_eq!(cold_metrics.artifacts_persisted, 1);
        assert_eq!(cold_metrics.artifacts_loaded, 0);
        drop(cold);

        // A fresh engine (new process stand-in: empty memory tier) loads
        // the artifact instead of compiling.
        let warm = Engine::with_jobs(1).with_cache_dir(&dir);
        let second = warm.estimate_batch(&circuit, &specs, &options).unwrap();
        assert!(second.cache_hit, "disk hit must skip the compile");
        let warm_metrics = warm.metrics();
        assert_eq!(warm_metrics.artifacts_loaded, 1);
        assert_eq!(
            warm_metrics.compile_misses, 0,
            "zero compiles on warm start"
        );

        for (a, b) in first.items.iter().zip(&second.items) {
            let (a, b) = (a.result.as_ref().unwrap(), b.result.as_ref().unwrap());
            for (x, y) in a.switching_all().iter().zip(b.switching_all().iter()) {
                assert_eq!(x.to_bits(), y.to_bits());
            }
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// The sampling stream seed is computed at compile time and travels
    /// inside the persisted artifact, so a warm-started engine must draw
    /// the exact same samples a cold compile would.
    #[test]
    fn sampling_warm_start_is_bit_identical_to_cold_compile() {
        let _serial = serial();
        let dir = temp_cache_dir("warm-sampling");
        let circuit = catalog::c17();
        let options = Options {
            backend: swact::Backend::Sampling,
            seed: 9,
            ..Options::default()
        };
        let specs = specs_for(&circuit, 3);

        let cold = Engine::with_jobs(1).with_cache_dir(&dir);
        let first = cold.estimate_batch(&circuit, &specs, &options).unwrap();
        assert!(!first.cache_hit);
        drop(cold);

        let warm = Engine::with_jobs(1).with_cache_dir(&dir);
        let second = warm.estimate_batch(&circuit, &specs, &options).unwrap();
        assert!(second.cache_hit, "disk hit must skip the compile");

        for (a, b) in first.items.iter().zip(&second.items) {
            let (a, b) = (a.result.as_ref().unwrap(), b.result.as_ref().unwrap());
            assert_eq!(a.accuracy(), b.accuracy());
            for (x, y) in a.switching_all().iter().zip(b.switching_all().iter()) {
                assert_eq!(x.to_bits(), y.to_bits());
            }
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn corrupt_artifacts_are_rejected_and_recompiled() {
        let _serial = serial();
        let dir = temp_cache_dir("corrupt");
        let circuit = catalog::c17();
        let options = Options::default();
        let specs = specs_for(&circuit, 2);

        let writer = Engine::with_jobs(1).with_cache_dir(&dir);
        writer.estimate_batch(&circuit, &specs, &options).unwrap();
        drop(writer);

        // Truncate the artifact in place.
        let artifact_path = std::fs::read_dir(&dir)
            .unwrap()
            .flatten()
            .map(|e| e.path())
            .find(|p| p.extension().is_some_and(|e| e == "swact"))
            .expect("one artifact persisted");
        let bytes = std::fs::read(&artifact_path).unwrap();
        std::fs::write(&artifact_path, &bytes[..bytes.len() / 2]).unwrap();

        let reader = Engine::with_jobs(1).with_cache_dir(&dir);
        let report = reader.estimate_batch(&circuit, &specs, &options).unwrap();
        assert!(report.all_ok());
        assert!(!report.cache_hit, "rejected artifact must recompile");
        let metrics = reader.metrics();
        assert_eq!(metrics.artifacts_rejected, 1);
        assert_eq!(metrics.artifacts_loaded, 0);
        assert_eq!(metrics.compile_misses, 1);
        // The recompile overwrote the corrupt file with a good one.
        assert_eq!(metrics.artifacts_persisted, 1);
        assert!(swact::artifact::verify_artifact(&artifact_path).is_ok());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn prewarm_fills_the_memory_tier() {
        let _serial = serial();
        let dir = temp_cache_dir("prewarm");
        let circuit = catalog::c17();
        let options = Options::default();
        let specs = specs_for(&circuit, 2);

        let writer = Engine::with_jobs(1).with_cache_dir(&dir);
        writer.estimate_batch(&circuit, &specs, &options).unwrap();
        drop(writer);
        // A stray non-artifact file is ignored, a corrupt artifact is
        // rejected without failing the scan.
        std::fs::write(dir.join("notes.txt"), b"not an artifact").unwrap();
        std::fs::write(
            dir.join(swact::artifact::artifact_file_name(99)),
            b"garbage",
        )
        .unwrap();

        let engine = Engine::with_jobs(1).with_cache_dir(&dir);
        assert_eq!(engine.prewarm(), 1);
        assert_eq!(engine.cached_models(), 1);
        let report = engine.estimate_batch(&circuit, &specs, &options).unwrap();
        assert!(report.cache_hit, "prewarmed model must be a memory hit");
        let metrics = engine.metrics();
        assert_eq!(metrics.artifacts_loaded, 1);
        assert_eq!(metrics.artifacts_rejected, 1);
        assert_eq!(metrics.compile_misses, 0);

        // Without a cache dir prewarm is a no-op.
        assert_eq!(Engine::with_jobs(1).prewarm(), 0);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn cache_hits_skip_recompilation() {
        let _serial = serial();
        let circuit = catalog::c17();
        let options = Options::default();
        let specs = specs_for(&circuit, 3);
        let engine = Engine::with_jobs(2);

        let first = engine.estimate_batch(&circuit, &specs, &options).unwrap();
        assert!(!first.cache_hit);
        let second = engine.estimate_batch(&circuit, &specs, &options).unwrap();
        assert!(second.cache_hit);
        assert_eq!(second.compile_time, Duration::ZERO);

        let metrics = engine.metrics();
        assert_eq!(metrics.compile_misses, 1);
        assert_eq!(metrics.compile_hits, 1);
        assert_eq!(metrics.requests_completed, 2 * specs.len() as u64);
        assert_eq!(metrics.requests_failed, 0);
        assert_eq!(metrics.queue_depth, 0);
        assert_eq!(engine.cached_models(), 1);
        // c17 is all NAND gates, so its deterministic CPTs zero out a large
        // share of the clique tables; one compile must have recorded that.
        assert!(metrics.compiled_nnz > 0);
        assert!(metrics.compiled_nnz < metrics.compiled_states);
        assert!(metrics.zero_fraction() > 0.0);
    }

    #[test]
    fn distinct_options_get_distinct_cache_entries() {
        let _serial = serial();
        let circuit = catalog::c17();
        let specs = specs_for(&circuit, 2);
        let engine = Engine::with_jobs(2);

        engine
            .estimate_batch(&circuit, &specs, &Options::default())
            .unwrap();
        engine
            .estimate_batch(&circuit, &specs, &Options::with_budget(1 << 10))
            .unwrap();

        assert_eq!(engine.cached_models(), 2);
        assert_eq!(engine.metrics().compile_misses, 2);
    }

    #[test]
    fn segmentation_strategies_never_share_a_cache_entry() {
        let _serial = serial();
        let circuit = catalog::c17();
        let specs = specs_for(&circuit, 2);
        let engine = Engine::with_jobs(2);

        engine
            .estimate_batch(&circuit, &specs, &Options::default())
            .unwrap();
        engine
            .estimate_batch(
                &circuit,
                &specs,
                &Options::with_segmentation(swact::SegmentationStrategy::BalancedCut),
            )
            .unwrap();

        // The balanced-cut request must compile its own model, never be
        // served the topo-cover artifact from the cache.
        assert_eq!(engine.cached_models(), 2);
        assert_eq!(engine.metrics().compile_misses, 2);
        assert_eq!(engine.metrics().compile_hits, 0);
    }

    #[test]
    fn tiny_cache_budget_evicts_older_models() {
        let _serial = serial();
        let circuit = catalog::c17();
        let other = catalog::paper_example();
        let specs = specs_for(&circuit, 1);
        let other_specs = specs_for(&other, 1);
        // Budget below one model's state space: each new circuit evicts
        // the previous one.
        let engine = Engine::with_jobs_and_cache(1, 1.0);

        engine
            .estimate_batch(&circuit, &specs, &Options::default())
            .unwrap();
        engine
            .estimate_batch(&other, &other_specs, &Options::default())
            .unwrap();

        assert_eq!(engine.cached_models(), 1);
        assert_eq!(engine.metrics().evictions, 1);

        // The evicted circuit recompiles on return.
        let third = engine
            .estimate_batch(&circuit, &specs, &Options::default())
            .unwrap();
        assert!(!third.cache_hit);
    }

    #[test]
    fn per_scenario_errors_do_not_poison_the_batch() {
        let _serial = serial();
        let circuit = catalog::c17();
        let options = Options::default();
        let mut specs = specs_for(&circuit, 3);
        // Wrong input count for the middle scenario only.
        specs[1] = InputSpec::uniform(circuit.num_inputs() + 1);
        let engine = Engine::with_jobs(2);

        let report = engine.estimate_batch(&circuit, &specs, &options).unwrap();
        assert!(report.items[0].result.is_ok());
        assert!(report.items[1].result.is_err());
        assert!(report.items[2].result.is_ok());
        assert_eq!(engine.metrics().requests_failed, 1);
        assert_eq!(engine.metrics().requests_completed, 3);
    }

    #[test]
    fn stage_breakdown_reported_per_batch_and_in_metrics() {
        let _serial = serial();
        let circuit = catalog::c17();
        let options = Options::default();
        let specs = specs_for(&circuit, 4);
        let engine = Engine::with_jobs(2);

        let miss = engine.estimate_batch(&circuit, &specs, &options).unwrap();
        assert!(!miss.cache_hit);
        assert!(miss.stages.model > Duration::ZERO);
        assert!(miss.stages.compile > Duration::ZERO);
        assert!(miss.stages.propagate > Duration::ZERO);

        let hit = engine.estimate_batch(&circuit, &specs, &options).unwrap();
        assert!(hit.cache_hit);
        // Cache hits do no compile-side work; propagation still happens.
        assert_eq!(hit.stages.plan, Duration::ZERO);
        assert_eq!(hit.stages.model, Duration::ZERO);
        assert_eq!(hit.stages.compile, Duration::ZERO);
        assert!(hit.stages.propagate > Duration::ZERO);

        let metrics = engine.metrics();
        assert!(metrics.model_time > Duration::ZERO);
        assert!(metrics.model_time <= metrics.compile_time);
        assert!(metrics.plan_time <= metrics.compile_time);
    }

    #[test]
    fn backends_get_distinct_cache_entries_and_both_run() {
        let _serial = serial();
        let circuit = catalog::c17();
        let specs = specs_for(&circuit, 2);
        let engine = Engine::with_jobs(2);

        let jtree = engine
            .estimate_batch(&circuit, &specs, &Options::default())
            .unwrap();
        let bdd = engine
            .estimate_batch(
                &circuit,
                &specs,
                &Options::with_backend(swact::Backend::Bdd),
            )
            .unwrap();
        assert!(jtree.all_ok() && bdd.all_ok());
        assert!(!bdd.cache_hit, "bdd batch must not reuse the jtree model");
        assert_eq!(engine.cached_models(), 2);

        // Both exact backends agree on the estimates themselves.
        for (a, b) in jtree.estimates().zip(bdd.estimates()) {
            for (x, y) in a.switching_all().iter().zip(b.switching_all().iter()) {
                assert!((x - y).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn with_jobs_clamps_to_available_parallelism() {
        let cpus = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1);
        assert_eq!(Engine::with_jobs(cpus * 8).jobs(), cpus);
        assert_eq!(Engine::with_jobs(0).jobs(), 1);
        assert_eq!(Engine::with_jobs_forced(cpus * 8).jobs(), cpus * 8);
        assert_eq!(Engine::new().jobs(), cpus);
    }

    #[test]
    fn repeated_scenarios_hit_the_posterior_memo() {
        let _serial = serial();
        let circuit = catalog::c17();
        let options = Options::default();
        // One distinct spec followed by identical repeats: the repeats'
        // root signatures match the memoized posterior, so their segments
        // are skipped outright.
        let spec = InputSpec::independent(vec![0.3; circuit.num_inputs()]);
        let specs = vec![spec; 4];
        let engine = Engine::with_jobs(1);

        let report = engine.estimate_batch(&circuit, &specs, &options).unwrap();
        assert!(report.all_ok());
        let metrics = engine.metrics();
        assert!(
            metrics.segments_skipped > 0,
            "identical scenarios must be served from the memo"
        );
        // All items are bit-identical regardless of which were memo-served.
        let first = report.items[0].result.as_ref().unwrap().switching_all();
        for item in &report.items[1..] {
            let got = item.result.as_ref().unwrap().switching_all();
            for (x, y) in first.iter().zip(&got) {
                assert_eq!(x.to_bits(), y.to_bits());
            }
        }
    }

    #[test]
    fn incremental_off_never_reuses_work() {
        let _serial = serial();
        let circuit = catalog::c17();
        let options = Options {
            incremental: false,
            ..Options::default()
        };
        let spec = InputSpec::independent(vec![0.3; circuit.num_inputs()]);
        let specs = vec![spec; 3];
        let engine = Engine::with_jobs(1);
        let report = engine.estimate_batch(&circuit, &specs, &options).unwrap();
        assert!(report.all_ok());
        let metrics = engine.metrics();
        assert_eq!(metrics.segments_skipped, 0);
        assert_eq!(metrics.messages_reused, 0);
        // c17 sits below the message cache's break-even point, so the
        // segment bypasses the cache entirely: nothing is recomputed
        // *through the cache* either — both counters pin at zero.
        assert_eq!(metrics.messages_recomputed, 0);
        assert_eq!(metrics.message_reuse_ratio(), 0.0);
    }

    /// Regression for the batch-throughput finding that oversubscribing
    /// workers (jobs=8 on 1 CPU) *lost* 0.43× throughput: with the clamp,
    /// `with_jobs(8)` must be no slower than serial (1.1× tolerance plus
    /// an absolute grace for timer noise on tiny batches).
    #[test]
    fn oversubscribed_jobs_are_no_slower_than_serial() {
        let _serial = serial();
        let circuit = catalog::c17();
        let options = Options::default();
        let specs = specs_for(&circuit, 64);
        let serial = Engine::with_jobs(1);
        let over = Engine::with_jobs(8);
        let min_wall = |engine: &Engine| {
            // Min-of-3 after a cache-warming run: measures steady-state
            // propagation, robust to one-off scheduler hiccups.
            let mut best = Duration::MAX;
            for _ in 0..3 {
                let report = engine.estimate_batch(&circuit, &specs, &options).unwrap();
                assert!(report.all_ok());
                best = best.min(report.wall_time);
            }
            best
        };
        serial.estimate_batch(&circuit, &specs, &options).unwrap();
        over.estimate_batch(&circuit, &specs, &options).unwrap();
        let t_serial = min_wall(&serial);
        let t_over = min_wall(&over);
        assert!(
            t_over <= t_serial.mul_f64(1.1) + Duration::from_millis(20),
            "jobs=8 ({t_over:?}) must not be slower than jobs=1 ({t_serial:?})"
        );
    }

    #[test]
    fn empty_batch_returns_immediately() {
        let _serial = serial();
        let circuit = catalog::c17();
        let engine = Engine::with_jobs(1);
        let report = engine
            .estimate_batch(&circuit, &[], &Options::default())
            .unwrap();
        assert!(report.items.is_empty());
        assert_eq!(engine.metrics().requests_completed, 0);
    }

    #[test]
    fn estimate_batch_after_shutdown_fails_fast() {
        let _serial = serial();
        let circuit = catalog::c17();
        let engine = Engine::with_jobs(1);
        engine.shutdown(ShutdownMode::Drain);
        assert!(engine.is_shut_down());
        // Idempotent: a second shutdown (any mode) is a no-op.
        engine.shutdown(ShutdownMode::CancelQueued);
        let err = engine
            .estimate_batch(&circuit, &specs_for(&circuit, 2), &Options::default())
            .unwrap_err();
        assert!(matches!(err, EstimateError::Cancelled));
        assert_eq!(engine.metrics().requests_completed, 0);
    }

    /// A draining shutdown lets every already-queued scenario run to
    /// completion — only batches *submitted* afterwards are refused.
    #[cfg(feature = "fault-inject")]
    #[test]
    fn draining_shutdown_finishes_in_flight_batch() {
        use swact::faults::{arm, FaultAction, FaultPlan};

        let circuit = catalog::c17();
        let options = Options::default();
        let engine = Arc::new(Engine::with_jobs_forced(1));
        let specs = specs_for(&circuit, 8);

        // Pin the worker inside scenario 0 so the batch thread finishes
        // submitting all scenarios before the drain lands (a drain that
        // races the submit loop cancels the still-unsubmitted tail — see
        // `submit_after_shutdown_cancels_immediately` in the pool tests).
        let _guard = arm(FaultPlan::new().fault_at(
            "engine:job",
            0,
            FaultAction::Delay(Duration::from_millis(300)),
        ));

        let batch = {
            let engine = Arc::clone(&engine);
            let circuit = circuit.clone();
            let specs = specs.clone();
            std::thread::spawn(move || engine.estimate_batch(&circuit, &specs, &options))
        };
        wait_for_queue_depth(&engine, specs.len() - 1);
        engine.shutdown(ShutdownMode::Drain);
        let report = batch.join().unwrap().unwrap();
        assert!(report.all_ok());
        assert_eq!(report.items.len(), specs.len());
        assert_eq!(engine.metrics().jobs_cancelled, 0);
    }

    /// Satellite regression: shutting down (and then dropping) an engine
    /// whose queue is full neither hangs the in-flight batch nor panics —
    /// every queued scenario resolves as [`EstimateError::Cancelled`].
    #[cfg(feature = "fault-inject")]
    #[test]
    fn cancelling_shutdown_resolves_queued_scenarios_and_drop_is_clean() {
        use swact::faults::{arm, FaultAction, FaultPlan};

        let circuit = catalog::c17();
        let options = Options::default();
        let engine = Arc::new(Engine::with_jobs_forced(1));
        let specs = specs_for(&circuit, 8);

        // Pin the single worker inside scenario 0 for long enough that the
        // other seven scenarios are deterministically still queued when the
        // cancelling shutdown lands.
        let _guard = arm(FaultPlan::new().fault_at(
            "engine:job",
            0,
            FaultAction::Delay(Duration::from_millis(500)),
        ));

        let batch = {
            let engine = Arc::clone(&engine);
            let circuit = circuit.clone();
            let specs = specs.clone();
            std::thread::spawn(move || engine.estimate_batch(&circuit, &specs, &options))
        };
        // Scenario 0 dequeues on pickup, so depth 7 means: worker stalled
        // in scenario 0, scenarios 1..8 all queued.
        wait_for_queue_depth(&engine, specs.len() - 1);
        engine.shutdown(ShutdownMode::CancelQueued);

        let report = batch.join().unwrap().unwrap();
        assert_eq!(report.items.len(), specs.len());
        assert!(
            report.items[0].result.is_ok(),
            "in-flight scenario finishes"
        );
        for item in &report.items[1..] {
            assert!(matches!(item.result, Err(EstimateError::Cancelled)));
        }
        let metrics = engine.metrics();
        assert_eq!(metrics.jobs_cancelled, specs.len() as u64 - 1);
        assert_eq!(metrics.queue_depth, 0);
        assert_eq!(metrics.requests_completed, specs.len() as u64);

        let engine = Arc::into_inner(engine).expect("batch thread joined");
        drop(engine); // must not hang in the pool's Drop drain
    }
}
