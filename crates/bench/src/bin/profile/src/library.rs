//! Workloads that call the estimator library directly: `cold`, `update`
//! and `sweep`, plus the layer probes the traced runs of every workload
//! share.

use std::time::{Duration, Instant};

use swact::{CompiledEstimator, Estimate, EstimateError, InputSpec, Options};
use swact_circuit::Circuit;

use crate::inputs::{self, Rng, COLD_SHAPES, CORPUS_SHAPES};
use crate::metrics::{peak_rss_mb, Outcome};
use crate::stats::{block_rate, Fnv, Sample};
use crate::trace::{SpanId, Tracer};

/// What one run is asked to do.
#[derive(Debug, Clone, Copy)]
pub struct Plan {
    pub seed: u64,
    /// Nominal length of the timed phase; op counts are sized from it.
    /// Zero is the smoke run: minimal op counts and small shapes.
    pub seconds: f64,
    pub trace: bool,
}

impl Plan {
    pub fn smoke(&self) -> bool {
        self.seconds == 0.0
    }

    /// `rate · seconds` ops, at least `min`. The rates are measured on a
    /// shared 2-core x86-64 host while its neighbours slowed it most, so a
    /// run times about `seconds` there and less in quiet spells; the count
    /// is fixed by the arguments so every run has the same op mix and the
    /// same tail percentile.
    pub fn ops(&self, rate: f64, min: usize) -> usize {
        ((self.seconds * rate).round() as usize).max(min)
    }

    /// Set-up repetitions, `full` outside smoke runs: `setup_s` is their
    /// median. Cheap set-ups repeat more often, since short timings catch
    /// more of the host's bursts.
    pub fn setup_reps(&self, full: usize) -> usize {
        if self.smoke() {
            2
        } else {
            full
        }
    }
}

pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Public counters of one compile and its first estimate.
#[derive(Debug, Clone, Default)]
pub struct CompileStats {
    pub gates: usize,
    pub plan_s: f64,
    pub model_s: f64,
    pub junction_s: f64,
    pub segments: usize,
    pub total_states: f64,
    pub max_clique_states: f64,
    pub kernel_cost: usize,
    pub first_propagate_ms: f64,
    pub first_forward_ms: f64,
    /// Switching of every line at uniform inputs, for the accuracy probe.
    pub uniform: Vec<f64>,
}

impl CompileStats {
    pub fn of(circuit: &Circuit, compiled: &CompiledEstimator, first: &Estimate) -> CompileStats {
        let stages = compiled.stage_timings();
        CompileStats {
            gates: circuit.num_gates(),
            plan_s: stages.plan.as_secs_f64(),
            model_s: stages.model.as_secs_f64(),
            junction_s: stages.compile.as_secs_f64(),
            segments: compiled.num_segments(),
            total_states: compiled.total_states(),
            max_clique_states: compiled.max_clique_states(),
            kernel_cost: compiled.kernel_cost(),
            first_propagate_ms: ms(first.stage_timings().propagate),
            first_forward_ms: ms(first.stage_timings().forward),
            uniform: first.switching_all(),
        }
    }
}

/// Sets the compile-side layers from `stats`; an op touches
/// `circuits_per_op` of the compiled circuits.
pub fn set_compile_layers(out: &mut Outcome, stats: &[CompileStats], circuits_per_op: f64) {
    let n = stats.len().max(1) as f64;
    let mean = |f: &dyn Fn(&CompileStats) -> f64| stats.iter().map(f).sum::<f64>() / n;
    let (plan, model, junction) = (
        mean(&|s| s.plan_s),
        mean(&|s| s.model_s),
        mean(&|s| s.junction_s),
    );
    out.set("plan.s_per_compile", plan);
    out.set("model.s_per_compile", model);
    out.set("junction.s_per_compile", junction);
    let compile = plan + model + junction;
    out.set(
        "plan.share",
        if compile > 0.0 { plan / compile } else { 0.0 },
    );
    out.set("plan.segments_per_compile", mean(&|s| s.segments as f64));
    out.set(
        "junction.total_states",
        mean(&|s| s.total_states) * circuits_per_op,
    );
    out.set(
        "junction.max_clique_states",
        stats
            .iter()
            .map(|s| s.max_clique_states)
            .fold(0.0, f64::max),
    );
    let cost = mean(&|s| s.kernel_cost as f64) * circuits_per_op;
    out.set("junction.kernel_cost", cost);
    // One f64 table load per unit of kernel cost: computed, not measured.
    out.set("propagate.computed_mb_per_op", cost * 8.0 / 1e6);
    out.set("propagate.first_ms", mean(&|s| s.first_propagate_ms));
    // The input size `gates_per_s` is stated at.
    let gates = mean(&|s| s.gates as f64) * circuits_per_op;
    out.notes
        .insert("gates_per_s", format!("gates_per_op={gates:.0}"));
}

/// Estimate-side counters summed over ops.
#[derive(Debug, Default)]
pub struct EstimateSums {
    pub ops: usize,
    pub op_ms: f64,
    pub propagate_ms: f64,
    pub forward_ms: f64,
    pub reused: u64,
    pub recomputed: u64,
    pub skipped: u64,
    pub segments: u64,
}

impl EstimateSums {
    pub fn add(&mut self, est: &Estimate) {
        let stages = est.stage_timings();
        self.propagate_ms += ms(stages.propagate);
        self.forward_ms += ms(stages.forward);
        let reuse = est.reuse_stats();
        self.reused += reuse.messages_reused;
        self.recomputed += reuse.messages_recomputed;
        self.skipped += reuse.segments_skipped;
        self.segments += est.num_segments() as u64;
    }

    /// Sets the propagate-side layers. `estimate.other_ms_per_op` is what
    /// is left of `op_ms` after propagate and forward, so `op_ms` must
    /// already exclude any other layer the workload reports (compile time
    /// on `cold`).
    pub fn set_layers(&self, out: &mut Outcome) {
        let n = self.ops.max(1) as f64;
        let (propagate, forward) = (self.propagate_ms / n, self.forward_ms / n);
        out.set("propagate.ms_per_op", propagate);
        out.set("forward.ms_per_op", forward);
        out.set(
            "estimate.other_ms_per_op",
            self.op_ms / n - propagate - forward,
        );
        let messages = self.reused + self.recomputed;
        out.set(
            "reuse.message_ratio",
            if messages > 0 {
                self.reused as f64 / messages as f64
            } else {
                0.0
            },
        );
        out.set(
            "reuse.messages_recomputed_per_op",
            self.recomputed as f64 / n,
        );
        out.set(
            "reuse.segment_skip_ratio",
            if self.segments > 0 {
                self.skipped as f64 / self.segments as f64
            } else {
                0.0
            },
        );
    }
}

/// Layers of the serving path, which the library workloads never enter.
pub fn set_no_serving_layers(out: &mut Outcome) {
    for name in [
        "engine.queue_wait_ms_per_op",
        "engine.compile_misses",
        "engine.max_queue_depth",
        "serve.server_ms_per_req",
        "serve.handler_ms_per_req",
        "serve.response_kb_per_req",
        "client.outside_server_ms_per_req",
        "client.connect_ms_p50",
        "client.ttfb_ms_p50",
        "client.late_ms_p50",
        "client.late_ms_max",
    ] {
        out.set(name, 0.0);
    }
}

/// Mean per-node |error| at uniform inputs against bit-parallel
/// simulation of 2¹⁶ vector pairs (the Table 1 ground truth).
pub fn accuracy(circuits: &[Circuit], stats: &[CompileStats]) -> f64 {
    let errors: Vec<f64> = circuits
        .iter()
        .zip(stats)
        .map(|(c, s)| {
            swact::ErrorStats::between(&s.uniform, &swact_bench::ground_truth(c, 1 << 16))
                .mean_abs_error
        })
        .collect();
    errors.iter().sum::<f64>() / errors.len().max(1) as f64
}

/// What the kernel probe measured, summed over every segment of the
/// probed circuits.
#[derive(Debug, Default)]
pub struct KernelProbe {
    /// Least-squares slope of calibrate time on `kernel_cost`, ns.
    pub ns_per_cost: f64,
    /// R² of that fit.
    pub r2: f64,
    /// One `calibrate` of every segment, ms.
    pub calibrate_ms: f64,
    /// One marginal read of every variable of every segment, ms.
    pub readout_ms: f64,
}

/// Median of timed repetitions of `f`: at least 5, then until 5 ms pass
/// (at most 200), ns.
fn time_reps(mut f: impl FnMut()) -> f64 {
    f(); // warm-up
    let mut reps = Vec::new();
    let start = Instant::now();
    while reps.len() < 5 || (start.elapsed() < Duration::from_millis(5) && reps.len() < 200) {
        let t = Instant::now();
        f();
        reps.push(t.elapsed().as_secs_f64() * 1e9);
    }
    crate::stats::median(&reps)
}

/// Kernel probe: rebuilds every segment's `CompiledTree` the way the
/// estimator compiles it, times `calibrate` per segment and fits it
/// against `kernel_cost`, then times reading every variable's marginal —
/// two parts of the propagate stage `StageTimings` reports as one.
pub fn kernel_probe(circuits: &[Circuit]) -> KernelProbe {
    use swact::pipeline::{PlannedCircuit, SegmentModel};
    use swact_bayesnet::{initial_potentials, CompiledTree, JunctionTree, KernelMode, VarId};

    let options = Options::default();
    let mut points: Vec<(f64, f64)> = Vec::new();
    let mut probe = KernelProbe::default();
    for circuit in circuits {
        let planned = PlannedCircuit::new(circuit, &options).expect("workload circuits plan");
        for i in 0..planned.num_segments() {
            let model = SegmentModel::build(&planned, i, 0).expect("segment model");
            let tree =
                JunctionTree::compile_with(model.net(), options.heuristic).expect("segment tree");
            let vars = tree.num_vars();
            let potentials = initial_potentials(&tree, model.net());
            let compiled = CompiledTree::from_parts_with_kernel(
                tree,
                potentials,
                options.sparse,
                KernelMode::Scalar,
            );
            let mut state = compiled.new_state();
            let calibrate = time_reps(|| compiled.calibrate(std::hint::black_box(&mut state)));
            let readout = time_reps(|| {
                for v in 0..vars {
                    std::hint::black_box(compiled.marginal(&state, VarId::from_index(v)));
                }
            });
            points.push((compiled.kernel_cost() as f64, calibrate));
            probe.calibrate_ms += calibrate / 1e6;
            probe.readout_ms += readout / 1e6;
        }
    }
    (probe.ns_per_cost, probe.r2) = least_squares(&points);
    probe
}

/// Slope and R² of the least-squares line through `points`.
pub fn least_squares(points: &[(f64, f64)]) -> (f64, f64) {
    let n = points.len() as f64;
    if points.len() < 2 {
        return (0.0, 0.0);
    }
    let (mx, my) = (
        points.iter().map(|p| p.0).sum::<f64>() / n,
        points.iter().map(|p| p.1).sum::<f64>() / n,
    );
    let sxy: f64 = points.iter().map(|p| (p.0 - mx) * (p.1 - my)).sum();
    let sxx: f64 = points.iter().map(|p| (p.0 - mx).powi(2)).sum();
    let syy: f64 = points.iter().map(|p| (p.1 - my).powi(2)).sum();
    if sxx == 0.0 || syy == 0.0 {
        return (0.0, 0.0);
    }
    (sxy / sxx, sxy * sxy / (sxx * syy))
}

/// Records an estimate's public counters on its span.
fn estimate_attrs(tracer: &mut Tracer, span: SpanId, est: &Estimate) {
    let stages = est.stage_timings();
    let reuse = est.reuse_stats();
    tracer.attr(span, "propagate_ms", ms(stages.propagate));
    tracer.attr(span, "forward_ms", ms(stages.forward));
    tracer.attr(span, "messages_reused", reuse.messages_reused as f64);
    tracer.attr(
        span,
        "messages_recomputed",
        reuse.messages_recomputed as f64,
    );
    tracer.attr(span, "segments_skipped", reuse.segments_skipped as f64);
}

/// Compiles `circuit` and estimates it at uniform inputs: one `cold` op.
fn compile_and_estimate(
    tracer: &mut Tracer,
    op: SpanId,
    index: u64,
    circuit: &Circuit,
) -> Result<CompileStats, EstimateError> {
    let compile = tracer.begin("compile", index, op);
    let compiled = CompiledEstimator::compile(circuit, &Options::default())?;
    tracer.end(compile);
    let estimate = tracer.begin("estimate", index, op);
    let first = compiled.estimate(&InputSpec::uniform(circuit.num_inputs()))?;
    tracer.end(estimate);
    let stats = CompileStats::of(circuit, &compiled, &first);
    for (key, value) in [
        ("plan_s", stats.plan_s),
        ("model_s", stats.model_s),
        ("junction_s", stats.junction_s),
        ("segments", stats.segments as f64),
        ("total_states", stats.total_states),
        ("kernel_cost", stats.kernel_cost as f64),
    ] {
        tracer.attr(compile, key, value);
    }
    estimate_attrs(tracer, estimate, &first);
    Ok(stats)
}

/// `cold`: compile and first-estimate a fresh circuit per op, cycling
/// through [`COLD_SHAPES`]. Set-up is generating the circuits.
pub fn cold(plan: &Plan) -> Result<Outcome, String> {
    let passes = plan.ops(3.0, 7);
    let mut setup = Vec::new();
    let mut circuits = Vec::new();
    for _ in 0..plan.setup_reps(7) {
        let start = Instant::now();
        circuits = (0..passes as u64)
            .flat_map(|pass| {
                COLD_SHAPES
                    .iter()
                    .map(move |shape| inputs::circuit(shape, plan.seed, pass))
            })
            .collect();
        setup.push(start.elapsed().as_secs_f64());
    }

    let mut out = Outcome::default();
    let mut tracer = Tracer::new(Instant::now());
    let mut fnv = Fnv::default();
    let (mut latencies, mut traced, mut untraced) = (Vec::new(), Vec::new(), Vec::new());
    let mut stats = Vec::new();
    let mut done = Vec::new();
    let wall = Instant::now();
    for (i, circuit) in circuits.iter().enumerate() {
        let on = plan.trace && i % 2 == 1;
        tracer.set_enabled(on);
        let start = Instant::now();
        let op = tracer.begin("op", i as u64, None);
        let result = compile_and_estimate(&mut tracer, op, i as u64, circuit);
        tracer.end(op);
        // An op's kind is its shape.
        let sample = (i % COLD_SHAPES.len(), ms(start.elapsed()));
        out.attempted += 1;
        match result {
            Ok(s) => {
                // Correctness: every switching value is a probability.
                if !s.uniform.iter().all(|x| (0.0..=1.0).contains(x)) {
                    eprintln!("cold op {i}: switching outside [0, 1]");
                    out.failed += 1;
                }
                fnv.values(&s.uniform);
                done.push((wall.elapsed().as_secs_f64(), s.gates as f64));
                latencies.push(sample);
                stats.push(s);
            }
            Err(e) => {
                eprintln!("cold op {i}: {e}");
                out.failed += 1;
            }
        }
        if on { &mut traced } else { &mut untraced }.push(sample);
    }
    out.set("peak_rss_mb", peak_rss_mb(None));
    out.set("setup_s", crate::stats::median(&setup));
    out.set("gates_per_s", block_rate(&done, COLD_SHAPES.len()));
    out.latencies(&latencies);
    out.fnv = fnv.finish();

    set_compile_layers(&mut out, &stats, 1.0);
    let sums = EstimateSums {
        ops: stats.len(),
        // Compile time is its own layer here, not part of "other".
        op_ms: latencies.iter().map(|l| l.1).sum::<f64>()
            - stats
                .iter()
                .map(|s| (s.plan_s + s.model_s + s.junction_s) * 1e3)
                .sum::<f64>(),
        propagate_ms: stats.iter().map(|s| s.first_propagate_ms).sum(),
        forward_ms: stats.iter().map(|s| s.first_forward_ms).sum(),
        ..EstimateSums::default()
    };
    sums.set_layers(&mut out);
    set_no_serving_layers(&mut out);
    finish_trace(plan, &mut out, tracer, (&traced, &untraced), 1.0, || {
        let first = &circuits[..COLD_SHAPES.len().min(circuits.len())];
        (
            first.to_vec(),
            stats[..first.len().min(stats.len())].to_vec(),
        )
    });
    Ok(out)
}

/// Trace-run extras: overhead, coverage, accuracy and the kernel probe
/// (the last two after timing, on the circuits `probe_set` returns, of
/// which one op touches `circuits_per_op`).
pub fn finish_trace(
    plan: &Plan,
    out: &mut Outcome,
    tracer: Tracer,
    (traced, untraced): (&[Sample], &[Sample]),
    circuits_per_op: f64,
    probe_set: impl FnOnce() -> (Vec<Circuit>, Vec<CompileStats>),
) {
    if !plan.trace {
        return;
    }
    out.overhead(traced, untraced);
    out.set("trace.coverage", tracer.coverage("op"));
    let (circuits, stats) = probe_set();
    out.set("accuracy.mean_abs_err", accuracy(&circuits, &stats));
    let probe = kernel_probe(&circuits);
    let per_op = circuits_per_op / circuits.len().max(1) as f64;
    out.set("propagate.calibrate_ns_per_cost", probe.ns_per_cost);
    out.set("propagate.cost_fit_r2", probe.r2);
    out.set("propagate.calibrate_ms_per_op", probe.calibrate_ms * per_op);
    out.set("propagate.readout_ms_per_op", probe.readout_ms * per_op);
    out.spans = Some(tracer);
}

/// Circuits compiled once in set-up and re-estimated by every op.
struct Corpus {
    circuits: Vec<Circuit>,
    timed: Vec<CompiledEstimator>,
    /// Compiled with `incremental: false`: the reference ops are replayed
    /// on after timing.
    reference: Vec<CompiledEstimator>,
    stats: Vec<CompileStats>,
    setup_s: f64,
}

impl Corpus {
    /// Compiles every circuit and runs one warm-up estimate, three times.
    /// The first repetition builds the reference estimators; the last
    /// one's estimators are timed.
    fn compile(plan: &Plan) -> Result<Corpus, String> {
        let shapes: &[&str] = if plan.smoke() {
            &COLD_SHAPES
        } else {
            &CORPUS_SHAPES
        };
        let circuits: Vec<Circuit> = shapes
            .iter()
            .map(|shape| inputs::circuit(shape, plan.seed, 0))
            .collect();
        let mut times = Vec::new();
        let (mut reference, mut timed, mut stats) = (Vec::new(), Vec::new(), Vec::new());
        for rep in 0..plan.setup_reps(3) {
            let options = Options {
                incremental: rep > 0,
                ..Options::default()
            };
            // Release the previous repetition's estimators first, so at
            // most the reference set and one timed set are ever alive.
            timed.clear();
            let start = Instant::now();
            let mut compiled = Vec::new();
            stats.clear();
            for c in &circuits {
                let ce = CompiledEstimator::compile(c, &options)
                    .map_err(|e| format!("compile {}: {e}", c.name()))?;
                let first = ce
                    .estimate(&InputSpec::uniform(c.num_inputs()))
                    .map_err(|e| format!("estimate {}: {e}", c.name()))?;
                stats.push(CompileStats::of(c, &ce, &first));
                compiled.push(ce);
            }
            times.push(start.elapsed().as_secs_f64());
            if rep == 0 {
                reference = compiled;
            } else {
                timed = compiled;
            }
        }
        Ok(Corpus {
            circuits,
            timed,
            reference,
            stats,
            setup_s: crate::stats::median(&times),
        })
    }
}

/// `update`: each op redraws every input's p1 and estimates each corpus
/// circuit under it.
pub fn update(plan: &Plan) -> Result<Outcome, String> {
    let corpus = Corpus::compile(plan)?;
    let n = plan.ops(6.0, 20);
    let ops: Vec<Vec<InputSpec>> = (0..n as u64)
        .map(|i| {
            corpus
                .circuits
                .iter()
                .enumerate()
                .map(|(k, c)| {
                    let mut rng = Rng::derive(plan.seed, "update", i * 8 + k as u64);
                    inputs::spec(&inputs::random_p1s(&mut rng, c.num_inputs()))
                })
                .collect()
        })
        .collect();
    // Every op costs the same: one kind.
    run_ops(plan, &corpus, &ops, 1, |_| 0)
}

/// Points per sweep. Short sweeps mean many swept inputs per run: the cost
/// of a point depends on which input moves, and with 32-point sweeps the
/// median op moved 19% between seeds.
const SWEEP_POINTS: usize = 8;

/// `sweep`: op `k` of a sweep moves one input's p1 to point `k` of an
/// 8-point ramp on every corpus circuit; all other inputs keep their
/// seeded p1 for the whole run, so consecutive ops share most evidence.
pub fn sweep(plan: &Plan) -> Result<Outcome, String> {
    let corpus = Corpus::compile(plan)?;
    let sweeps = plan.ops(12.0 / SWEEP_POINTS as f64, 1);
    let per_circuit: Vec<(Vec<f64>, Vec<usize>)> = corpus
        .circuits
        .iter()
        .enumerate()
        .map(|(k, c)| {
            let base = inputs::random_p1s(
                &mut Rng::derive(plan.seed, "sweep-base", k as u64),
                c.num_inputs(),
            );
            let swept = inputs::swept_inputs(
                c,
                sweeps,
                &mut Rng::derive(plan.seed, "sweep-inputs", k as u64),
            );
            (base, swept)
        })
        .collect();
    let mut ops = Vec::new();
    for j in 0..sweeps {
        let ramps: Vec<(f64, f64)> = (0..per_circuit.len())
            .map(|k| {
                let mut rng = Rng::derive(plan.seed, "sweep-ramp", (j * 8 + k) as u64);
                (inputs::p1(&mut rng), inputs::p1(&mut rng))
            })
            .collect();
        for point in 0..SWEEP_POINTS {
            let t = point as f64 / (SWEEP_POINTS - 1) as f64;
            ops.push(
                per_circuit
                    .iter()
                    .zip(&ramps)
                    .map(|((base, swept), &(from, to))| {
                        let mut p1s = base.clone();
                        p1s[swept[j]] = from + (to - from) * t;
                        inputs::spec(&p1s)
                    })
                    .collect(),
            );
        }
    }
    // A point's cost depends on which input its sweep moves (from 17 to
    // 110 ms on the 2-core host), so each sweep is a kind of its own.
    run_ops(plan, &corpus, &ops, SWEEP_POINTS, |i| i / SWEEP_POINTS)
}

/// Ops whose outputs are replayed on the reference estimators.
const REPLAYED: usize = 16;

/// Times `ops` over the corpus, then replays a seeded sample of them on
/// the `incremental: false` estimators and requires bit-identical output.
/// Ops come in cycles of `cycle` (one sweep), which throughput blocks keep
/// whole; `kind` names the cost class of op `i` for `op_median_ms`.
fn run_ops(
    plan: &Plan,
    corpus: &Corpus,
    ops: &[Vec<InputSpec>],
    cycle: usize,
    kind: impl Fn(usize) -> usize,
) -> Result<Outcome, String> {
    let mut pick = Rng::derive(plan.seed, "replay", 0);
    let mut replay: Vec<usize> = (0..ops.len()).collect();
    for i in (1..replay.len()).rev() {
        replay.swap(i, pick.below(i + 1));
    }
    replay.truncate(REPLAYED);

    let mut out = Outcome::default();
    let mut tracer = Tracer::new(Instant::now());
    let mut fnv = Fnv::default();
    let (mut latencies, mut traced, mut untraced) = (Vec::new(), Vec::new(), Vec::new());
    let mut sums = EstimateSums::default();
    let mut kept: Vec<(usize, Vec<Vec<f64>>)> = Vec::new();
    let gates_per_op: usize = corpus.circuits.iter().map(Circuit::num_gates).sum();
    let mut done = Vec::new();
    let wall = Instant::now();
    for (i, specs) in ops.iter().enumerate() {
        let on = plan.trace && i % 2 == 1;
        tracer.set_enabled(on);
        let start = Instant::now();
        let op = tracer.begin("op", i as u64, None);
        let mut results = Vec::with_capacity(specs.len());
        let mut spans = Vec::with_capacity(specs.len());
        for (compiled, spec) in corpus.timed.iter().zip(specs) {
            let span = tracer.begin("estimate", i as u64, op);
            results.push(compiled.estimate(spec));
            tracer.end(span);
            spans.push(span);
        }
        tracer.end(op);
        let elapsed = ms(start.elapsed());
        out.attempted += 1;
        if let Some(e) = results.iter().find_map(|r| r.as_ref().err()) {
            eprintln!("op {i}: {e}");
            out.failed += 1;
            continue;
        }
        let mut outputs = Vec::with_capacity(results.len());
        for (est, &span) in results.iter().flatten().zip(&spans) {
            estimate_attrs(&mut tracer, span, est);
            sums.add(est);
            let switching = est.switching_all();
            fnv.values(&switching);
            outputs.push(switching);
        }
        sums.ops += 1;
        sums.op_ms += elapsed;
        done.push((wall.elapsed().as_secs_f64(), gates_per_op as f64));
        latencies.push((kind(i), elapsed));
        if on { &mut traced } else { &mut untraced }.push((kind(i), elapsed));
        if replay.contains(&i) {
            kept.push((i, outputs));
        }
    }
    out.set("peak_rss_mb", peak_rss_mb(None));

    // Correctness: the incremental path must match cold propagation bit
    // for bit.
    for (i, outputs) in &kept {
        for ((reference, spec), got) in corpus.reference.iter().zip(&ops[*i]).zip(outputs) {
            let expect = reference
                .estimate(spec)
                .map_err(|e| format!("replay {i}: {e}"))?
                .switching_all();
            if expect
                .iter()
                .map(|x| x.to_bits())
                .ne(got.iter().map(|x| x.to_bits()))
            {
                eprintln!("op {i}: incremental output differs from the reference");
                out.failed += 1;
            }
        }
    }

    out.set("setup_s", corpus.setup_s);
    out.set("gates_per_s", block_rate(&done, cycle));
    out.latencies(&latencies);
    out.fnv = fnv.finish();
    set_compile_layers(&mut out, &corpus.stats, corpus.circuits.len() as f64);
    sums.set_layers(&mut out);
    set_no_serving_layers(&mut out);
    let per_op = corpus.circuits.len() as f64;
    finish_trace(plan, &mut out, tracer, (&traced, &untraced), per_op, || {
        (corpus.circuits.clone(), corpus.stats.clone())
    });
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn least_squares_recovers_a_line() {
        let points: Vec<(f64, f64)> = (0..10)
            .map(|i| (f64::from(i), 3.0 * f64::from(i) + 1.0))
            .collect();
        let (slope, r2) = least_squares(&points);
        assert!((slope - 3.0).abs() < 1e-12);
        assert!((r2 - 1.0).abs() < 1e-12);
        assert_eq!(least_squares(&[(1.0, 1.0)]), (0.0, 0.0));
    }
}
