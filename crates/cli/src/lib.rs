//! Implementation of the `swact` command-line tool.
//!
//! The binary front-end (`src/main.rs`) is a thin wrapper over [`run`],
//! which takes the argument list and returns the rendered output — making
//! every command path unit-testable without spawning processes.
//!
//! ```text
//! swact estimate <netlist.bench> [model options] [--p1 P] [--activity A]
//!                [--power] [--sequential] [--csv] [--cache-dir DIR]
//! swact plan     <netlist.bench> [model options]
//! swact batch    <netlist.bench> [model options] [--jobs N] [--sweep N] [--spec FILE]
//! swact compare  <netlist.bench> [--pairs N]
//! swact bench    <name>
//! swact dot      <netlist.bench>
//! swact list
//! ```
//!
//! `estimate`, `plan` and `batch` share one parser for the model options
//! (the flags that shape [`Options`]), and `estimate` and `batch` share one
//! execution path: an [`Engine`] batch, of one scenario for `estimate`.

use std::fmt::Write as _;
use std::time::Duration;

use swact::pipeline::PlannedCircuit;
use swact::sequential::{estimate_sequential, SequentialOptions};
use swact::{estimate, Backend, EstimateError, InputModel, InputSpec, Options, PowerModel};
use swact_baselines::{Independence, PairwiseCorrelation, SwitchingEstimator, TransitionDensity};
use swact_circuit::sequential::parse_bench_sequential;
use swact_circuit::{catalog, parse::parse_bench, write, Circuit};
use swact_engine::Engine;
use swact_sim::{measure_activity, StreamModel};

/// A user-facing CLI failure: message plus suggested exit code.
#[derive(Debug)]
pub struct CliError {
    /// Human-readable message.
    pub message: String,
    /// Process exit code (2 = usage, 1 = runtime).
    pub exit_code: i32,
}

impl std::fmt::Display for CliError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.message)
    }
}

impl std::error::Error for CliError {}

fn usage_error(message: impl Into<String>) -> CliError {
    CliError {
        message: format!("{}\n\n{}", message.into(), USAGE),
        exit_code: 2,
    }
}

fn runtime_error(message: impl std::fmt::Display) -> CliError {
    CliError {
        message: message.to_string(),
        exit_code: 1,
    }
}

/// The tool's usage text.
pub const USAGE: &str = "\
swact — switching-activity and power estimation (Bhanja & Ranganathan, DAC 2001)

USAGE:
  swact estimate <netlist.bench> [options]   estimate per-line switching
  swact plan     <netlist.bench> [options]   show the segmentation plan without compiling
  swact batch    <netlist.bench> [options]   estimate many input scenarios at once
  swact compare  <netlist.bench> [--pairs N] compare against baselines & simulation
  swact bench    <name>                      print a built-in benchmark as .bench
  swact dot      <netlist.bench>             print the circuit as Graphviz DOT
  swact verilog  <netlist.bench>             print the circuit as structural Verilog
  swact serve    [options]                   run the HTTP/JSON inference service
  swact cache    <ls|verify|rm> <DIR>        inspect or prune a compiled-artifact cache
  swact list                                 list built-in benchmarks

MODEL OPTIONS (estimate, plan and batch; each parses identically on all three):
  --budget <N>     junction-tree state budget per segment (default 131072)
  --budget-states <N>  hard cap (> 0) on estimated junction-tree states per
                   segment; over-budget segments are replanned tighter or
                   fall back down the degradation ladder (reported as degraded)
  --deadline-ms <MS>   per-stage wall-clock deadline (compile/propagate),
                   checked cooperatively at segment/wave boundaries; also
                   sheds scenarios whose queue wait exceeds it
  --no-fallback    fail with a typed error instead of degrading when a
                   segment exceeds --budget-states
  --single-bn      force one exact Bayesian network (may be infeasible)
  --sparse <MODE>  zero-compress clique potentials: auto, on, or off
                   (default auto; results are bit-identical across modes)
  --backend <B>    inference backend: jtree (exact junction trees, default),
                   sampling (anytime likelihood weighting with a
                   confidence interval), or twostate (2p(1−p) proxy)
  --seed <N>       RNG seed for the sampling backend (default 0); a fixed
                   seed gives bit-identical results across job counts and
                   warm/cold caches
  --ci-half-width <W>  sampling stops once the mean-switching confidence
                   half-width is ≤ W (> 0; default 0.01)
  --ci-z <Z>       z-score (> 0) for the sampling confidence interval
                   (default 1.96 ≈ 95%)
  --no-incremental disable cross-scenario reuse (the segment posterior
                   memo); results are bit-identical with or without it —
                   this only measures the cold baseline

ESTIMATE OPTIONS (besides the model options):
  --p1 <P>         signal probability for every input (default 0.5)
  --activity <A>   switching activity for every input (default 2·P·(1−P))
  --cache-dir <DIR>  two-tier compiled-model cache: misses consult DIR
                   before compiling, compiles persist back for the next
                   process (warm start); results are bit-identical
  --power          also print the dynamic-power report
  --sequential     treat DFFs via fixed-point iteration (default: reject DFFs)
  --csv            emit per-line results as CSV instead of a table

PLAN OPTIONS:
  only the model options; prints the segmentation the estimator would
  compile: per-segment gates, roots, boundary roots, and the planner's
  estimated junction-tree states — no model is compiled;
  with --budget-states it also predicts the degradation-ladder rung
  each segment would land on (primary backend, sampling, twostate, or
  error under --no-fallback)

BATCH OPTIONS (besides the model options):
  --jobs <N>       worker threads (default: all CPUs, never more than the
                   host offers); results are identical for every N — the
                   circuit compiles once and all scenarios propagate over
                   the shared junction trees
  --jobs-force <N> exact worker count, bypassing the available-CPU clamp
                   (benchmarking aid; oversubscription only slows batches)
  --sweep <N>      estimate N scenarios with p1 swept over [0.05, 0.95]
                   (default 8; ignored when --spec is given)
  --spec <FILE>    read scenarios from FILE: one scenario per line, either a
                   single p1 for all inputs or one p1 per input
                   (whitespace/comma separated; `#` starts a comment)
  --cache-dir <DIR>  as for estimate
  --csv            emit per-scenario, per-line switching as CSV
  --stats          also print timing/cache metrics and the per-stage
                   plan/model/compile/propagate/forward breakdown
                   (not byte-stable)

SERVE OPTIONS:
  --addr <A>       bind address (default 127.0.0.1:7878; use :0 for an
                   ephemeral port)
  --jobs <N>       engine worker threads (default: all CPUs)
  --handlers <N>   connection-handler threads (default 4)
  --clients-config <FILE>  JSON admission policies: per-token in-flight
                   quotas and resource budgets (see swact-serve docs)
  --addr-file <FILE>  write the bound address to FILE once listening
                   (for scripts that bind an ephemeral port)
  --drain-ms <MS>  graceful-shutdown drain deadline (default 10000)
  --cache-dir <DIR>  compiled-artifact cache: pre-warmed into memory at
                   boot (GET /healthz answers 503 `warming` until done);
                   compiles persist back for the next boot

  The server runs until SIGINT/SIGTERM or POST /admin/shutdown, then
  drains in-flight requests and exits.

CACHE SUBCOMMANDS:
  swact cache ls <DIR>       list artifacts: model key, version, size
  swact cache verify <DIR>   fully validate every artifact (header,
                             checksum, structural decode); exits nonzero
                             if any artifact is corrupt or stale
  swact cache rm <DIR>       delete every artifact in DIR (only files
                             named like artifacts are touched)
  swact cache rm <DIR> --key <HEX>  delete one artifact by model key";

/// Parses arguments and runs the requested command, returning the output
/// text.
///
/// # Errors
///
/// Returns [`CliError`] with a usage message for malformed invocations and
/// a plain message for runtime failures (missing files, estimator errors).
pub fn run(args: &[String]) -> Result<String, CliError> {
    let mut it = args.iter();
    let command = it.next().ok_or_else(|| usage_error("missing command"))?;
    let rest: Vec<&String> = it.collect();
    match command.as_str() {
        "estimate" => cmd_estimate(&rest),
        "plan" => cmd_plan(&rest),
        "batch" => cmd_batch(&rest),
        "compare" => cmd_compare(&rest),
        "bench" => cmd_bench(&rest),
        "dot" => cmd_dot(&rest),
        "verilog" => cmd_verilog(&rest),
        "serve" => cmd_serve(&rest),
        "cache" => cmd_cache(&rest),
        "list" => Ok(cmd_list()),
        "help" | "--help" | "-h" => Ok(USAGE.to_string()),
        other => Err(usage_error(format!("unknown command `{other}`"))),
    }
}

/// Where a flag's value comes from: the next argument, or a usage error
/// when there is none.
type FlagValue<'v, 'a> = &'v mut dyn FnMut() -> Result<&'a str, CliError>;

/// Parses the command line of `estimate`, `plan` or `batch` into the
/// netlist path and the [`Options`] its model flags build; the defaults are
/// [`Options::default`]. Every other flag goes to `own_flag`, which applies
/// the command's own flags and returns `false` for a flag the command does
/// not take.
fn parse_command_line<'a>(
    rest: &[&'a String],
    mut own_flag: impl FnMut(&str, FlagValue<'_, 'a>) -> Result<bool, CliError>,
) -> Result<(String, Options), CliError> {
    let mut options = Options::default();
    let mut path = None;
    let mut args = rest.iter().copied().map(String::as_str);
    while let Some(arg) = args.next() {
        let mut value = || {
            args.next()
                .ok_or_else(|| usage_error(format!("{arg} needs a value")))
        };
        if model_flag(&mut options, arg, &mut value)? || own_flag(arg, &mut value)? {
            continue;
        }
        if arg.starts_with("--") {
            return Err(usage_error(format!("unknown option `{arg}`")));
        }
        if path.replace(arg).is_some() {
            return Err(usage_error("more than one netlist given"));
        }
    }
    let path = path.ok_or_else(|| usage_error("missing netlist path"))?;
    Ok((path.to_string(), options))
}

/// Applies `flag` to `options` when it is a model flag, taking its value
/// from `value`; returns `false` for any other flag. One arm per flag: this
/// is the only place a model flag is defined.
fn model_flag(
    options: &mut Options,
    flag: &str,
    value: FlagValue<'_, '_>,
) -> Result<bool, CliError> {
    match flag {
        "--budget" => options.segment_budget = parse_value(flag, value()?)?,
        "--budget-states" => options.budget.max_states = Some(positive(flag, value()?)?),
        "--deadline-ms" => {
            options.budget.deadline = Some(Duration::from_millis(parse_value(flag, value()?)?));
        }
        "--no-fallback" => options.no_fallback = true,
        "--single-bn" => options.single_bn = true,
        "--sparse" => options.sparse = parse_value(flag, value()?)?,
        "--backend" => options.backend = parse_value(flag, value()?)?,
        "--seed" => options.seed = parse_value(flag, value()?)?,
        "--ci-half-width" => options.ci_half_width = positive(flag, value()?)?,
        "--ci-z" => options.ci_z = positive(flag, value()?)?,
        "--no-incremental" => options.incremental = false,
        _ => return Ok(false),
    }
    Ok(true)
}

/// Parses a flag's value; a value that does not parse is a usage error.
fn parse_value<T>(flag: &str, value: &str) -> Result<T, CliError>
where
    T: std::str::FromStr,
    T::Err: std::fmt::Display,
{
    value
        .parse()
        .map_err(|e| usage_error(format!("bad {flag} value `{value}`: {e}")))
}

/// Parses a flag's value that must be a finite number greater than zero.
fn positive(flag: &str, value: &str) -> Result<f64, CliError> {
    let x: f64 = parse_value(flag, value)?;
    if x.is_finite() && x > 0.0 {
        Ok(x)
    } else {
        Err(usage_error(format!(
            "bad {flag} value `{value}`: expected a finite number > 0"
        )))
    }
}

fn load_circuit(path: &str) -> Result<Circuit, CliError> {
    // Built-in benchmark names double as paths for convenience.
    if let Some(circuit) = catalog::benchmark(path) {
        return Ok(circuit);
    }
    let source = std::fs::read_to_string(path)
        .map_err(|e| runtime_error(format!("cannot read `{path}`: {e}")))?;
    if is_blif(path, &source) {
        return swact_circuit::blif::parse_blif_combinational(path, &source).map_err(runtime_error);
    }
    parse_bench(path, &source).map_err(runtime_error)
}

/// BLIF detection: by extension or by a leading dot-directive.
fn is_blif(path: &str, source: &str) -> bool {
    path.ends_with(".blif")
        || source
            .lines()
            .map(str::trim)
            .find(|l| !l.is_empty() && !l.starts_with('#'))
            .is_some_and(|l| l.starts_with('.'))
}

/// One input's model; the activity defaults to the temporally independent
/// `2·p1·(1−p1)`. Out-of-range values are an error, never a panic.
fn input_model(p1: f64, activity: Option<f64>) -> Result<InputModel, EstimateError> {
    InputModel::new(p1, activity.unwrap_or(2.0 * p1 * (1.0 - p1)))
}

/// `estimate`'s own flags; its model flags parse into [`Options`].
struct EstimateArgs {
    p1: f64,
    activity: Option<f64>,
    cache_dir: Option<String>,
    power: bool,
    sequential: bool,
    csv: bool,
}

fn spec_for(args: &EstimateArgs, num_inputs: usize) -> Result<InputSpec, CliError> {
    let model = input_model(args.p1, args.activity).map_err(runtime_error)?;
    Ok(InputSpec::from_models(vec![model; num_inputs]))
}

fn cmd_estimate(rest: &[&String]) -> Result<String, CliError> {
    let mut args = EstimateArgs {
        p1: 0.5,
        activity: None,
        cache_dir: None,
        power: false,
        sequential: false,
        csv: false,
    };
    let (path, options) = parse_command_line(rest, |flag, value| {
        match flag {
            "--p1" => args.p1 = parse_value(flag, value()?)?,
            "--activity" => args.activity = Some(parse_value(flag, value()?)?),
            "--cache-dir" => args.cache_dir = Some(value()?.to_string()),
            "--power" => args.power = true,
            "--sequential" => args.sequential = true,
            "--csv" => args.csv = true,
            _ => return Ok(false),
        }
        Ok(true)
    })?;
    let mut out = String::new();
    if args.sequential {
        if args.cache_dir.is_some() {
            return Err(usage_error(
                "--cache-dir does not apply to --sequential (the fixed-point \
                 loop recompiles the feedback model every iteration)",
            ));
        }
        let source = std::fs::read_to_string(&path)
            .map_err(|e| runtime_error(format!("cannot read `{path}`: {e}")))?;
        let seq = if is_blif(&path, &source) {
            swact_circuit::blif::parse_blif(&path, &source).map_err(runtime_error)?
        } else {
            parse_bench_sequential(&path, &source).map_err(runtime_error)?
        };
        let spec = spec_for(&args, seq.num_primary_inputs())?;
        let result = estimate_sequential(
            &seq,
            &spec,
            &SequentialOptions {
                options,
                ..SequentialOptions::default()
            },
        )
        .map_err(runtime_error)?;
        let _ = writeln!(
            out,
            "{}: {} primary inputs, {} registers, {} gates; fixed point in {} iterations{}",
            seq.core().name(),
            seq.num_primary_inputs(),
            seq.registers().len(),
            seq.core().num_gates(),
            result.iterations,
            if result.converged {
                ""
            } else {
                " (NOT converged)"
            }
        );
        let _ = writeln!(out, "{:<20} {:>10} {:>10}", "line", "P(switch)", "P(1)");
        for line in seq.core().line_ids() {
            let _ = writeln!(
                out,
                "{:<20} {:>10.4} {:>10.4}",
                seq.core().line_name(line),
                result.estimate.switching(line),
                result.estimate.signal_probability(line)
            );
        }
        if args.power {
            let report = PowerModel::default().power(seq.core(), &result.estimate);
            let _ = writeln!(out, "\ndynamic power: {:.3} µW", report.total_watts * 1e6);
        }
        return Ok(out);
    }
    let circuit = load_circuit(&path)?;
    let spec = spec_for(&args, circuit.num_inputs())?;
    // One scenario through the batch engine: the same compile, cache and
    // disk-tier path as `batch`, on one worker.
    let engine = with_cache_dir(Engine::with_jobs(1), args.cache_dir.as_deref());
    let mut report = engine
        .estimate_batch(&circuit, std::slice::from_ref(&spec), &options)
        .map_err(runtime_error)?;
    let est = report.items.swap_remove(0).result.map_err(runtime_error)?;
    if args.csv {
        return Ok(est.to_csv(&circuit));
    }
    let _ = writeln!(
        out,
        "{}: {} inputs, {} gates; {} Bayesian network(s); compile {:?}, propagate {:?}",
        circuit.name(),
        circuit.num_inputs(),
        circuit.num_gates(),
        est.num_segments(),
        est.compile_time(),
        est.propagate_time()
    );
    // Degraded results must announce themselves: absent any degradation
    // these lines are absent too, keeping the common output unchanged.
    for report in est.degradations() {
        let _ = writeln!(out, "degraded: {report}");
    }
    // Sampled estimates carry their confidence interval; exact estimates
    // print nothing here.
    if let Some(a) = est.accuracy() {
        let _ = writeln!(
            out,
            "sampled: ±{:.4} at z={} over {} samples ({})",
            a.half_width,
            a.z,
            a.samples,
            if a.converged {
                "converged"
            } else {
                "budget exhausted"
            }
        );
    }
    let _ = writeln!(out, "{:<20} {:>10} {:>10}", "line", "P(switch)", "P(1)");
    for line in circuit.line_ids() {
        let _ = writeln!(
            out,
            "{:<20} {:>10.4} {:>10.4}",
            circuit.line_name(line),
            est.switching(line),
            est.signal_probability(line)
        );
    }
    let _ = writeln!(
        out,
        "\nmean switching activity: {:.4}",
        est.mean_switching()
    );
    if args.power {
        let report = PowerModel::default().power(&circuit, &est);
        let _ = writeln!(out, "dynamic power: {:.3} µW", report.total_watts * 1e6);
        let _ = writeln!(out, "hottest lines:");
        for (line, watts) in report.hottest(5) {
            let _ = writeln!(
                out,
                "  {:<18} {:>8.3} µW",
                circuit.line_name(line),
                watts * 1e6
            );
        }
    }
    Ok(out)
}

/// Adds the `--cache-dir` disk tier, when given, to an engine.
fn with_cache_dir(engine: Engine, cache_dir: Option<&str>) -> Engine {
    match cache_dir {
        Some(dir) => engine.with_cache_dir(dir),
        None => engine,
    }
}

/// `swact plan`: run only the planning stage (fan-in decomposition +
/// segmentation) and print what the estimator would compile, without
/// paying for a compile.
fn cmd_plan(rest: &[&String]) -> Result<String, CliError> {
    let (path, options) = parse_command_line(rest, |_, _| Ok(false))?;
    let circuit = load_circuit(&path)?;
    let planned = PlannedCircuit::new(&circuit, &options).map_err(runtime_error)?;
    let (working, plan) = (planned.working(), planned.plan());
    let costs = plan.estimated_costs(working, 4, options.heuristic);
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{}: {} inputs, {} gates ({} after fan-in decomposition); budget {}",
        circuit.name(),
        circuit.num_inputs(),
        circuit.num_gates(),
        working.num_gates(),
        options.segment_budget,
    );
    let _ = writeln!(
        out,
        "{} segment(s), {} boundary root(s), {} budget check(s)",
        plan.segments().len(),
        plan.boundary_roots(),
        plan.budget_checks()
    );
    // With a --budget-states cap the plan also predicts which rung of the
    // degradation ladder each segment would land on: segments within
    // budget run the primary backend; over-budget segments degrade to the
    // anytime sampling rung (twostate when that *is* the primary backend),
    // unless --no-fallback turns the trip into a hard error. A replan may
    // still split an over-budget segment back under the cap at compile
    // time, so the prediction is the rung's worst case.
    let predicted_rung = |cost: f64| -> &'static str {
        match options.budget.max_states {
            Some(budget) if cost > budget => {
                if options.no_fallback {
                    "error"
                } else if options.backend == Backend::TwoState {
                    "twostate"
                } else {
                    "sampling"
                }
            }
            _ => options.backend.name(),
        }
    };
    if options.budget.max_states.is_some() {
        let _ = writeln!(
            out,
            "{:>4} {:>7} {:>7} {:>9} {:>14} {:>10}",
            "seg", "gates", "roots", "boundary", "est. states", "rung"
        );
    } else {
        let _ = writeln!(
            out,
            "{:>4} {:>7} {:>7} {:>9} {:>14}",
            "seg", "gates", "roots", "boundary", "est. states"
        );
    }
    for (i, (seg, cost)) in plan.segments().iter().zip(&costs).enumerate() {
        let boundary = seg
            .roots
            .iter()
            .filter(|(_, src)| *src == swact::RootSource::Boundary)
            .count();
        if options.budget.max_states.is_some() {
            let _ = writeln!(
                out,
                "{i:>4} {:>7} {:>7} {boundary:>9} {cost:>14.0} {:>10}",
                seg.gates.len(),
                seg.roots.len(),
                predicted_rung(*cost),
            );
        } else {
            let _ = writeln!(
                out,
                "{i:>4} {:>7} {:>7} {boundary:>9} {cost:>14.0}",
                seg.gates.len(),
                seg.roots.len(),
            );
        }
    }
    Ok(out)
}

/// `batch`'s own flags; its model flags parse into [`Options`].
struct BatchArgs {
    jobs: Option<usize>,
    jobs_force: Option<usize>,
    sweep: usize,
    spec_file: Option<String>,
    cache_dir: Option<String>,
    csv: bool,
    stats: bool,
}

/// Parses a scenario file: one scenario per line, blank lines and `#`
/// comments skipped; each line is either one p1 (all inputs) or exactly
/// `num_inputs` p1 values, separated by whitespace and/or commas.
fn parse_spec_file(source: &str, num_inputs: usize) -> Result<Vec<InputSpec>, CliError> {
    let mut specs = Vec::new();
    for (lineno, line) in source.lines().enumerate() {
        let line = line.split('#').next().unwrap_or("").trim();
        if line.is_empty() {
            continue;
        }
        let models: Vec<InputModel> = line
            .split(|c: char| c.is_whitespace() || c == ',')
            .filter(|t| !t.is_empty())
            .map(|t| {
                let p1 = t.parse().map_err(|_| {
                    runtime_error(format!("spec line {}: bad p1 value `{t}`", lineno + 1))
                })?;
                input_model(p1, None)
                    .map_err(|e| runtime_error(format!("spec line {}: {e}", lineno + 1)))
            })
            .collect::<Result<_, _>>()?;
        let models = match models.len() {
            1 => vec![models[0]; num_inputs],
            n if n == num_inputs => models,
            n => {
                return Err(runtime_error(format!(
                    "spec line {}: expected 1 or {num_inputs} values, got {n}",
                    lineno + 1
                )))
            }
        };
        specs.push(InputSpec::from_models(models));
    }
    if specs.is_empty() {
        return Err(runtime_error("spec file contains no scenarios"));
    }
    Ok(specs)
}

/// Sweep scenarios: `n` specs with every input's p1 linearly spaced over
/// [0.05, 0.95].
fn sweep_specs(n: usize, num_inputs: usize) -> Vec<InputSpec> {
    (0..n)
        .map(|i| {
            let t = if n > 1 {
                i as f64 / (n - 1) as f64
            } else {
                0.5
            };
            InputSpec::independent(vec![0.05 + 0.9 * t; num_inputs])
        })
        .collect()
}

fn cmd_batch(rest: &[&String]) -> Result<String, CliError> {
    let mut args = BatchArgs {
        jobs: None,
        jobs_force: None,
        sweep: 8,
        spec_file: None,
        cache_dir: None,
        csv: false,
        stats: false,
    };
    let (path, options) = parse_command_line(rest, |flag, value| {
        match flag {
            "--jobs" => args.jobs = Some(parse_value(flag, value()?)?),
            "--jobs-force" => args.jobs_force = Some(parse_value(flag, value()?)?),
            "--sweep" => args.sweep = parse_value(flag, value()?)?,
            "--spec" => args.spec_file = Some(value()?.to_string()),
            "--cache-dir" => args.cache_dir = Some(value()?.to_string()),
            "--csv" => args.csv = true,
            "--stats" => args.stats = true,
            _ => return Ok(false),
        }
        Ok(true)
    })?;
    if args.sweep == 0 {
        return Err(usage_error("--sweep must be at least 1"));
    }
    let circuit = load_circuit(&path)?;
    let specs = match &args.spec_file {
        Some(path) => {
            let source = std::fs::read_to_string(path)
                .map_err(|e| runtime_error(format!("cannot read `{path}`: {e}")))?;
            parse_spec_file(&source, circuit.num_inputs())?
        }
        None => sweep_specs(args.sweep, circuit.num_inputs()),
    };
    let engine = match (args.jobs_force, args.jobs) {
        (Some(jobs), _) => Engine::with_jobs_forced(jobs),
        (None, Some(jobs)) => Engine::with_jobs(jobs),
        (None, None) => Engine::new(),
    };
    let engine = with_cache_dir(engine, args.cache_dir.as_deref());
    let report = engine
        .estimate_batch(&circuit, &specs, &options)
        .map_err(runtime_error)?;

    let mut out = String::new();
    if args.csv {
        let _ = write!(out, "scenario,p1_mean,mean_switching");
        for line in circuit.line_ids() {
            let _ = write!(out, ",{}", circuit.line_name(line));
        }
        out.push('\n');
        for (item, spec) in report.items.iter().zip(&specs) {
            let p1_mean: f64 =
                spec.models().iter().map(InputModel::p1).sum::<f64>() / spec.len() as f64;
            match &item.result {
                Ok(est) => {
                    let _ = write!(
                        out,
                        "{},{:.6},{:.6}",
                        item.index,
                        p1_mean,
                        est.mean_switching()
                    );
                    for sw in est.switching_all() {
                        let _ = write!(out, ",{sw:.6}");
                    }
                    out.push('\n');
                }
                Err(e) => {
                    let _ = writeln!(out, "{},{:.6},error: {e}", item.index, p1_mean);
                }
            }
        }
    } else {
        let _ = writeln!(
            out,
            "{}: {} inputs, {} gates; {} scenario(s) over {} Bayesian network(s)",
            circuit.name(),
            circuit.num_inputs(),
            circuit.num_gates(),
            specs.len(),
            report
                .estimates()
                .next()
                .map_or(0, swact::Estimate::num_segments),
        );
        let _ = writeln!(
            out,
            "{:<10} {:>10} {:>16}",
            "scenario", "p1(mean)", "mean P(switch)"
        );
        for (item, spec) in report.items.iter().zip(&specs) {
            let p1_mean: f64 =
                spec.models().iter().map(InputModel::p1).sum::<f64>() / spec.len() as f64;
            match &item.result {
                Ok(est) => {
                    let _ = writeln!(
                        out,
                        "{:<10} {:>10.4} {:>16.4}",
                        item.index,
                        p1_mean,
                        est.mean_switching()
                    );
                }
                Err(e) => {
                    let _ = writeln!(out, "{:<10} {:>10.4} error: {e}", item.index, p1_mean);
                }
            }
        }
    }
    if args.stats {
        // Timing lines are intentionally separate from the deterministic
        // body above: `batch --jobs 1` and `--jobs N` agree byte-for-byte
        // without --stats.
        let metrics = engine.metrics();
        let _ = writeln!(
            out,
            "\njobs {}; cache {}; compile {:?}; wall {:?}; {:.1} scenarios/s",
            report.jobs,
            if report.cache_hit { "hit" } else { "miss" },
            report.compile_time,
            report.wall_time,
            report.scenarios_per_sec()
        );
        let _ = writeln!(
            out,
            "requests {} ({} failed); queue depth max {}; propagate total {:?}; queue wait total {:?}",
            metrics.requests_completed,
            metrics.requests_failed,
            metrics.max_queue_depth,
            metrics.propagate_time,
            metrics.queue_wait
        );
        let _ = writeln!(
            out,
            "robustness: {} degraded scenario(s); {} degraded segment(s); {} panic(s); {} retrie(s)",
            report.degraded_scenarios(),
            metrics.degraded_segments,
            metrics.jobs_panicked,
            metrics.retries
        );
        // Per-rung fallback counts over all scenarios' degradation
        // reports, plus the sampling rung's anytime counters.
        let (mut replanned, mut twostate, mut sampling) = (0u64, 0u64, 0u64);
        for est in report.estimates() {
            for d in est.degradations() {
                match d.fallback {
                    swact::Fallback::Replanned { .. } => replanned += 1,
                    swact::Fallback::TwoState => twostate += 1,
                    swact::Fallback::Sampling => sampling += 1,
                    _ => {}
                }
            }
        }
        let _ = writeln!(
            out,
            "rungs: {replanned} replanned; {sampling} sampling; {twostate} twostate"
        );
        if metrics.sampled_segments > 0 || metrics.samples_drawn > 0 {
            let _ = writeln!(
                out,
                "sampling: {} segment(s); {} sample(s) drawn; {} converged / {} timed out",
                metrics.sampled_segments,
                metrics.samples_drawn,
                metrics.sampling_converged,
                metrics.sampling_timed_out
            );
        }
        if args.cache_dir.is_some() {
            let _ = writeln!(
                out,
                "artifacts: {} loaded from disk; {} persisted; {} rejected",
                metrics.artifacts_loaded, metrics.artifacts_persisted, metrics.artifacts_rejected
            );
        }
        let _ = writeln!(
            out,
            "reuse: {} segment(s) memo-skipped",
            metrics.segments_skipped
        );
        let stages = report.stages;
        let _ = writeln!(
            out,
            "stages: plan {:?}; model {:?}; compile {:?}; propagate {:?}; forward {:?}",
            stages.plan, stages.model, stages.compile, stages.propagate, stages.forward
        );
        // The propagate stage split, summed over every segment of every
        // successful scenario.
        let (mut calibrate, mut readout, mut export) =
            (Duration::ZERO, Duration::ZERO, Duration::ZERO);
        let (mut walks, mut entries) = (0usize, 0usize);
        for timing in report.estimates().flat_map(|e| e.segment_timings()) {
            calibrate += timing.calibrate;
            readout += timing.readout;
            export += timing.export;
            walks += timing.export_walks;
            entries += timing.export_entries;
        }
        let _ = writeln!(
            out,
            "propagate split: calibrate {calibrate:?}; readout {readout:?}; \
             export {export:?} ({walks} walk(s), {entries} entries)"
        );
    }
    Ok(out)
}

fn cmd_compare(rest: &[&String]) -> Result<String, CliError> {
    let mut path = String::new();
    let mut pairs = 1usize << 18;
    let mut i = 0;
    while i < rest.len() {
        match rest[i].as_str() {
            "--pairs" => {
                pairs = parse_value("--pairs", take_value(rest, &mut i, "--pairs")?)?;
                i += 1;
            }
            flag if flag.starts_with("--") => {
                return Err(usage_error(format!("unknown option `{flag}`")));
            }
            p => {
                path = p.to_string();
                i += 1;
            }
        }
    }
    if path.is_empty() {
        return Err(usage_error("missing netlist path"));
    }
    if pairs == 0 {
        return Err(usage_error("--pairs must be at least 1"));
    }
    let circuit = load_circuit(&path)?;
    let spec = InputSpec::uniform(circuit.num_inputs());
    let truth = measure_activity(
        &circuit,
        &StreamModel::uniform(circuit.num_inputs()),
        pairs,
        0x5eed,
    );
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{}: {} gates; ground truth = {} simulated vector pairs",
        circuit.name(),
        circuit.num_gates(),
        truth.pairs
    );
    let _ = writeln!(
        out,
        "{:<24} {:>9} {:>9} {:>9}",
        "method", "µErr", "σErr", "%Err"
    );
    let bn = estimate(&circuit, &spec, &Options::default()).map_err(runtime_error)?;
    let stats = bn.compare(&truth.switching);
    let _ = writeln!(
        out,
        "{:<24} {:>9.4} {:>9.4} {:>8.3}%",
        "bayesian-network", stats.mean_abs_error, stats.std_error, stats.percent_error
    );
    let baselines: Vec<Box<dyn SwitchingEstimator>> = vec![
        Box::new(PairwiseCorrelation::default()),
        Box::new(Independence),
        Box::new(TransitionDensity),
    ];
    for baseline in baselines {
        match baseline.estimate(&circuit, &spec) {
            Ok(sw) => {
                let stats = swact::ErrorStats::between(&sw, &truth.switching);
                let _ = writeln!(
                    out,
                    "{:<24} {:>9.4} {:>9.4} {:>8.3}%",
                    baseline.name(),
                    stats.mean_abs_error,
                    stats.std_error,
                    stats.percent_error
                );
            }
            Err(e) => {
                let _ = writeln!(out, "{:<24} failed: {e}", baseline.name());
            }
        }
    }
    Ok(out)
}

fn cmd_bench(rest: &[&String]) -> Result<String, CliError> {
    let name = rest
        .first()
        .ok_or_else(|| usage_error("missing benchmark name"))?;
    let circuit = catalog::benchmark(name)
        .ok_or_else(|| runtime_error(format!("unknown benchmark `{name}` (try `swact list`)")))?;
    Ok(write::to_bench(&circuit))
}

fn cmd_dot(rest: &[&String]) -> Result<String, CliError> {
    let path = rest
        .first()
        .ok_or_else(|| usage_error("missing netlist path"))?;
    let circuit = load_circuit(path)?;
    Ok(write::to_dot(&circuit))
}

fn cmd_verilog(rest: &[&String]) -> Result<String, CliError> {
    let path = rest
        .first()
        .ok_or_else(|| usage_error("missing netlist path"))?;
    let circuit = load_circuit(path)?;
    Ok(write::to_verilog(&circuit))
}

fn cmd_serve(rest: &[&String]) -> Result<String, CliError> {
    let mut config = swact_serve::ServerConfig::default();
    let mut addr_file: Option<String> = None;
    let mut i = 0;
    while i < rest.len() {
        match rest[i].as_str() {
            "--addr" => {
                config.addr = take_value(rest, &mut i, "--addr")?.to_string();
            }
            "--jobs" => {
                config.jobs = parse_value("--jobs", take_value(rest, &mut i, "--jobs")?)?;
            }
            "--handlers" => {
                config.handlers =
                    parse_value("--handlers", take_value(rest, &mut i, "--handlers")?)?;
            }
            "--clients-config" => {
                let path = take_value(rest, &mut i, "--clients-config")?;
                let source = std::fs::read_to_string(path)
                    .map_err(|e| runtime_error(format!("cannot read `{path}`: {e}")))?;
                config.clients = swact_serve::admission::ClientTable::from_json(&source)
                    .map_err(|e| runtime_error(format!("bad clients config `{path}`: {e}")))?;
            }
            "--addr-file" => {
                addr_file = Some(take_value(rest, &mut i, "--addr-file")?.to_string());
            }
            "--drain-ms" => {
                let ms = parse_value("--drain-ms", take_value(rest, &mut i, "--drain-ms")?)?;
                config.drain = Duration::from_millis(ms);
            }
            "--cache-dir" => {
                config.cache_dir = Some(std::path::PathBuf::from(take_value(
                    rest,
                    &mut i,
                    "--cache-dir",
                )?));
            }
            other => return Err(usage_error(format!("unknown serve option `{other}`"))),
        }
        i += 1;
    }

    swact_serve::install_signal_handler();
    let server = swact_serve::Server::start(config)
        .map_err(|e| runtime_error(format!("cannot bind: {e}")))?;
    let addr = server.local_addr();
    if let Some(path) = addr_file {
        std::fs::write(&path, addr.to_string())
            .map_err(|e| runtime_error(format!("cannot write `{path}`: {e}")))?;
    }
    eprintln!("swact-serve listening on http://{addr} (POST /admin/shutdown or SIGTERM to stop)");
    let handle = server.handle();
    server.wait();
    Ok(format!(
        "swact-serve on {addr}: shut down cleanly ({} scenarios served)\n",
        handle.engine_metrics().requests_completed
    ))
}

/// Artifact files under `dir`, sorted by model key. Files not named like
/// artifacts (`<32-hex-digit-key>.swact`) are ignored, so `rm` can never
/// delete anything the cache did not write.
fn cache_entries(dir: &str) -> Result<Vec<(u128, std::path::PathBuf)>, CliError> {
    let mut entries = Vec::new();
    let read_dir = std::fs::read_dir(dir)
        .map_err(|e| runtime_error(format!("cannot read cache dir `{dir}`: {e}")))?;
    for entry in read_dir {
        let entry =
            entry.map_err(|e| runtime_error(format!("cannot read cache dir `{dir}`: {e}")))?;
        if let Some(key) = entry
            .file_name()
            .to_str()
            .and_then(swact::artifact::parse_artifact_file_name)
        {
            entries.push((key, entry.path()));
        }
    }
    entries.sort();
    Ok(entries)
}

fn cmd_cache(rest: &[&String]) -> Result<String, CliError> {
    use swact::artifact;
    let sub = rest
        .first()
        .ok_or_else(|| usage_error("cache needs a subcommand: ls, verify, or rm"))?;
    if !matches!(sub.as_str(), "ls" | "verify" | "rm") {
        return Err(usage_error(format!(
            "unknown cache subcommand `{sub}` (expected ls, verify, or rm)"
        )));
    }
    let dir = rest
        .get(1)
        .ok_or_else(|| usage_error(format!("cache {sub} needs a cache directory")))?
        .as_str();
    let mut key_filter: Option<u128> = None;
    let mut i = 2;
    while i < rest.len() {
        match rest[i].as_str() {
            "--key" => {
                let value = take_value(rest, &mut i, "--key")?;
                key_filter = Some(u128::from_str_radix(value, 16).map_err(|_| {
                    usage_error(format!("bad --key value `{value}` (expected hex)"))
                })?);
            }
            other => return Err(usage_error(format!("unknown cache option `{other}`"))),
        }
        i += 1;
    }
    if key_filter.is_some() && sub.as_str() != "rm" {
        return Err(usage_error("--key only applies to `cache rm`"));
    }
    let mut entries = cache_entries(dir)?;
    if let Some(key) = key_filter {
        entries.retain(|(k, _)| *k == key);
        if entries.is_empty() {
            return Err(runtime_error(format!(
                "no artifact with key {key:032x} in `{dir}`"
            )));
        }
    }
    let mut out = String::new();
    match sub.as_str() {
        "ls" => {
            let _ = writeln!(out, "{dir}: {} artifact(s)", entries.len());
            for (key, path) in &entries {
                match artifact::read_header(path) {
                    Ok(header) => {
                        let _ = writeln!(
                            out,
                            "  {key:032x}  workspace {}  format {}  payload {} bytes",
                            header.workspace_version, header.format_version, header.payload_len
                        );
                    }
                    Err(e) => {
                        let _ = writeln!(out, "  {key:032x}  unreadable: {e}");
                    }
                }
            }
        }
        "verify" => {
            let mut failed = 0usize;
            for (key, path) in &entries {
                match artifact::verify_artifact(path) {
                    Ok(_) => {
                        let _ = writeln!(out, "  {key:032x}  ok");
                    }
                    Err(e) => {
                        failed += 1;
                        let _ = writeln!(out, "  {key:032x}  FAIL: {e}");
                    }
                }
            }
            let _ = writeln!(
                out,
                "{dir}: {} artifact(s) verified, {failed} failed",
                entries.len()
            );
            if failed > 0 {
                return Err(runtime_error(out.trim_end()));
            }
        }
        "rm" => {
            for (_, path) in &entries {
                std::fs::remove_file(path).map_err(|e| {
                    runtime_error(format!("cannot remove `{}`: {e}", path.display()))
                })?;
            }
            let _ = writeln!(out, "{dir}: removed {} artifact(s)", entries.len());
        }
        _ => unreachable!("subcommand validated above"),
    }
    Ok(out)
}

fn take_value<'a>(rest: &[&'a String], i: &mut usize, flag: &str) -> Result<&'a str, CliError> {
    *i += 1;
    rest.get(*i)
        .map(|s| s.as_str())
        .ok_or_else(|| usage_error(format!("{flag} needs a value")))
}

fn cmd_list() -> String {
    let mut out = String::from("built-in benchmarks (synthetic stand-ins except c17):\n");
    for info in catalog::BENCHMARKS {
        let _ = writeln!(
            out,
            "  {:<10} {:>4} inputs {:>4} outputs {:>5} gates  {}",
            info.name,
            info.inputs,
            info.outputs,
            info.gates,
            if info.authentic { "(authentic)" } else { "" }
        );
    }
    out.push_str("  paper_example (the five-gate running example of the paper)\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run_strs(args: &[&str]) -> Result<String, CliError> {
        let owned: Vec<String> = args.iter().map(|s| s.to_string()).collect();
        run(&owned)
    }

    #[test]
    fn help_and_unknown_commands() {
        assert!(run_strs(&["help"]).unwrap().contains("USAGE"));
        let err = run_strs(&["frobnicate"]).unwrap_err();
        assert_eq!(err.exit_code, 2);
        assert!(err.message.contains("unknown command"));
        assert!(run_strs(&[]).is_err());
    }

    #[test]
    fn list_names_all_benchmarks() {
        let out = run_strs(&["list"]).unwrap();
        for info in catalog::BENCHMARKS {
            assert!(out.contains(info.name));
        }
    }

    #[test]
    fn bench_prints_parseable_netlist() {
        let out = run_strs(&["bench", "c17"]).unwrap();
        let back = parse_bench("c17", &out).unwrap();
        assert_eq!(back.num_gates(), 6);
        assert!(run_strs(&["bench", "nonexistent"]).is_err());
    }

    #[test]
    fn estimate_builtin_benchmark() {
        let out = run_strs(&["estimate", "c17", "--power"]).unwrap();
        assert!(out.contains("mean switching activity"));
        assert!(out.contains("dynamic power"));
        assert!(out.contains("hottest lines"));
    }

    #[test]
    fn estimate_with_statistics_flags() {
        let quiet = run_strs(&["estimate", "c17", "--p1", "0.5", "--activity", "0.05"]).unwrap();
        let busy = run_strs(&["estimate", "c17"]).unwrap();
        let mean = |s: &str| -> f64 {
            s.lines()
                .find(|l| l.contains("mean switching"))
                .and_then(|l| l.rsplit(' ').next())
                .and_then(|v| v.parse().ok())
                .expect("mean line present")
        };
        assert!(mean(&quiet) < mean(&busy));
    }

    #[test]
    fn sparse_modes_produce_identical_output() {
        let auto = run_strs(&["estimate", "c17"]).unwrap();
        let on = run_strs(&["estimate", "c17", "--sparse", "on"]).unwrap();
        let off = run_strs(&["estimate", "c17", "--sparse", "OFF"]).unwrap();
        // Compile/propagate timings differ; the result tables must not.
        let table = |s: &str| s.lines().skip(1).collect::<Vec<_>>().join("\n");
        assert_eq!(table(&auto), table(&on));
        assert_eq!(table(&auto), table(&off));

        let batch_on = run_strs(&["batch", "c17", "--sweep", "4", "--sparse", "on"]).unwrap();
        let batch_off = run_strs(&["batch", "c17", "--sweep", "4", "--sparse", "off"]).unwrap();
        assert_eq!(batch_on, batch_off);
    }

    #[test]
    fn sparse_rejects_bad_mode() {
        for cmd in ["estimate", "batch"] {
            let err = run_strs(&[cmd, "c17", "--sparse", "sometimes"]).unwrap_err();
            assert_eq!(err.exit_code, 2);
            assert!(err.message.contains("bad --sparse value"));
            let err = run_strs(&[cmd, "c17", "--sparse"]).unwrap_err();
            assert_eq!(err.exit_code, 2);
            assert!(err.message.contains("--sparse needs a value"));
        }
    }

    #[test]
    fn backend_flag_selects_inference_engine() {
        let jtree = run_strs(&["estimate", "c17", "--backend", "jtree"]).unwrap();
        assert!(jtree.contains("mean switching activity"));

        // Under pure signal probabilities the two-state proxy still runs;
        // with default temporally independent inputs it matches on c17's
        // fanout-free input cones but is a valid command either way.
        let two = run_strs(&["estimate", "c17", "--backend", "twostate"]).unwrap();
        assert!(two.contains("mean switching activity"));

        let batch = run_strs(&["batch", "c17", "--sweep", "3", "--backend", "twostate"]).unwrap();
        assert!(batch.contains("scenario"));
        assert!(!batch.contains("error:"));
    }

    #[test]
    fn sampling_backend_runs_and_reports_its_interval() {
        let out = run_strs(&["estimate", "c17", "--backend", "sampling", "--seed", "3"]).unwrap();
        assert!(out.contains("sampled: ±"), "got: {out}");
        assert!(out.contains("samples"));
        assert!(out.contains("mean switching activity"));
        // Exact backends never print the sampled line.
        let exact = run_strs(&["estimate", "c17"]).unwrap();
        assert!(!exact.contains("sampled:"));

        // Same seed ⇒ byte-identical table; different seed ⇒ a different
        // random stream (the estimates differ in the low bits).
        let table = |s: &str| s.lines().skip(1).collect::<Vec<_>>().join("\n");
        let again = run_strs(&["estimate", "c17", "--backend", "sampling", "--seed", "3"]).unwrap();
        assert_eq!(table(&out), table(&again));
        let other = run_strs(&["estimate", "c17", "--backend", "sampling", "--seed", "4"]).unwrap();
        assert_ne!(table(&out), table(&other));

        for (flag, bad) in [
            ("--seed", "entropy"),
            ("--ci-half-width", "narrow"),
            ("--ci-z", "wide"),
        ] {
            let err = run_strs(&["estimate", "c17", flag, bad]).unwrap_err();
            assert_eq!(err.exit_code, 2);
            assert!(err.message.contains(&format!("bad {flag} value")));
        }
    }

    #[test]
    fn sampling_batch_is_identical_across_job_counts() {
        fn args(jobs: &str) -> [&str; 11] {
            [
                "batch",
                "c17",
                "--jobs",
                jobs,
                "--sweep",
                "4",
                "--backend",
                "sampling",
                "--seed",
                "11",
                "--csv",
            ]
        }
        let serial = run_strs(&args("1")).unwrap();
        let parallel = run_strs(&args("4")).unwrap();
        assert_eq!(serial, parallel);
        assert_eq!(serial.lines().count(), 5); // header + 4 scenarios
    }

    #[test]
    fn backend_flag_rejects_unknown_names() {
        for cmd in ["estimate", "batch"] {
            let err = run_strs(&[cmd, "c17", "--backend", "quantum"]).unwrap_err();
            assert_eq!(err.exit_code, 2);
            assert!(err.message.contains("unknown backend"));
            let err = run_strs(&[cmd, "c17", "--backend"]).unwrap_err();
            assert_eq!(err.exit_code, 2);
            assert!(err.message.contains("--backend needs a value"));
        }
    }

    #[test]
    fn segmentation_flag_and_removed_mode_flags() {
        // FORCE orderings, the kernel-mode choice and the balanced-cut
        // segmentation search are gone: their flags are unknown options.
        let removed: [&[&str]; 3] = [
            &["--ordering", "force"],
            &["--kernel", "scalar"],
            &["--seg-search"],
        ];
        for flag_args in removed {
            let flag = flag_args[0];
            for cmd in ["estimate", "batch", "plan"] {
                let mut args = vec![cmd, "c17"];
                args.extend(flag_args);
                let err = run_strs(&args).unwrap_err();
                assert_eq!(err.exit_code, 2, "{cmd} {flag}");
                assert!(err.message.contains(&format!("unknown option `{flag}`")));
            }
        }
    }

    #[test]
    fn plan_subcommand_prints_segmentation() {
        let plan = run_strs(&["plan", "c432"]).unwrap();
        assert!(plan.contains("budget 131072"));
        assert!(plan.contains("segment(s)"));
        assert!(plan.contains("boundary root(s)"));
        assert!(plan.contains("budget check(s)"));
        assert!(run_strs(&["plan"]).is_err());
    }

    #[test]
    fn plan_predicts_degradation_rungs_under_a_budget() {
        // Without --budget-states there is no rung column.
        let plain = run_strs(&["plan", "c432"]).unwrap();
        assert!(!plain.contains("rung"));
        // A tripping budget predicts the sampling rung for over-budget
        // segments while within-budget segments keep the primary backend.
        let tight = run_strs(&["plan", "c432", "--budget-states", "256"]).unwrap();
        assert!(tight.contains("rung"));
        assert!(tight.contains("sampling"), "got: {tight}");
        // An enormous budget keeps every segment on the primary backend.
        let loose = run_strs(&["plan", "c432", "--budget-states", "1e18"]).unwrap();
        assert!(loose.contains("rung"));
        assert!(!loose.contains("sampling"));
        assert!(loose.contains("jtree"));
        // --no-fallback turns the trip into a predicted hard error.
        let strict =
            run_strs(&["plan", "c432", "--budget-states", "256", "--no-fallback"]).unwrap();
        assert!(strict.contains("error"));
    }

    #[test]
    fn estimate_rejects_bad_flags() {
        assert_eq!(run_strs(&["estimate"]).unwrap_err().exit_code, 2);
        assert_eq!(
            run_strs(&["estimate", "c17", "--p1"])
                .unwrap_err()
                .exit_code,
            2
        );
        assert_eq!(
            run_strs(&["estimate", "c17", "--p1", "zebra"])
                .unwrap_err()
                .exit_code,
            2
        );
        assert_eq!(
            run_strs(&["estimate", "c17", "--wat"])
                .unwrap_err()
                .exit_code,
            2
        );
        assert_eq!(
            run_strs(&["estimate", "c17", "extra_path"])
                .unwrap_err()
                .exit_code,
            2
        );
    }

    /// Runs `args` and reduces the outcome to what must agree across
    /// commands: success, or the exit code and first message line.
    fn outcome(args: &[&str]) -> Result<(), (i32, String)> {
        run_strs(args).map(|_| ()).map_err(|e| {
            let first = e.message.lines().next().unwrap_or("").to_string();
            (e.exit_code, first)
        })
    }

    #[test]
    fn model_flags_parse_identically_on_estimate_plan_and_batch() {
        // Every model flag with values that must be accepted and values that
        // must be rejected; switches take no value.
        let table: &[(&str, &[&str], &[&str])] = &[
            ("--budget", &["1024"], &["-1", "lots"]),
            (
                "--budget-states",
                &["1e18", "4096"],
                &["0", "-5", "NaN", "inf", "lots"],
            ),
            ("--deadline-ms", &["60000"], &["-1", "soon"]),
            ("--no-fallback", &[], &[]),
            ("--single-bn", &[], &[]),
            ("--sparse", &["on", "OFF"], &["sometimes"]),
            ("--backend", &["twostate", "sampling"], &["bdd", "quantum"]),
            ("--seed", &["7"], &["-1", "entropy"]),
            (
                "--ci-half-width",
                &["0.05"],
                &["0", "-1", "NaN", "inf", "narrow"],
            ),
            ("--ci-z", &["2.5"], &["0", "-1", "NaN", "-inf", "wide"]),
            ("--no-incremental", &[], &[]),
        ];
        let per_command = |flag_args: &[&str]| -> Result<(), (i32, String)> {
            let mut outcomes = ["estimate", "plan", "batch"].into_iter().map(|cmd| {
                let mut args = vec![cmd, "c17"];
                if cmd == "batch" {
                    args.extend(["--sweep", "2"]);
                }
                args.extend(flag_args);
                outcome(&args)
            });
            let first = outcomes.next().unwrap();
            for other in outcomes {
                assert_eq!(first, other, "commands disagree on {flag_args:?}");
            }
            first
        };
        for &(flag, valid, invalid) in table {
            if valid.is_empty() {
                assert_eq!(per_command(&[flag]), Ok(()), "{flag}");
                continue;
            }
            for value in valid {
                assert_eq!(per_command(&[flag, value]), Ok(()), "{flag} {value}");
            }
            for value in invalid {
                let (code, message) = per_command(&[flag, value]).unwrap_err();
                assert_eq!(code, 2, "{flag} {value}");
                assert!(
                    message.starts_with(&format!("bad {flag} value `{value}`")),
                    "{flag} {value}: {message}"
                );
            }
            let (code, message) = per_command(&[flag]).unwrap_err();
            assert_eq!(code, 2);
            assert_eq!(message, format!("{flag} needs a value"));
        }

        // `plan` takes only model flags: the per-run flags of `estimate`
        // and `batch` are unknown options there, not silently ignored.
        for own in [
            &["--p1", "0.3"][..],
            &["--activity", "0.1"],
            &["--power"],
            &["--sequential"],
            &["--csv"],
            &["--cache-dir", "somewhere"],
            &["--jobs", "2"],
            &["--jobs-force", "2"],
            &["--sweep", "2"],
            &["--spec", "file.spec"],
            &["--stats"],
        ] {
            let mut args = vec!["plan", "c17"];
            args.extend(own);
            let (code, message) = outcome(&args).unwrap_err();
            assert_eq!(code, 2);
            assert_eq!(message, format!("unknown option `{}`", own[0]));
        }
    }

    #[test]
    fn out_of_range_p1_is_an_error_not_a_panic() {
        for p1 in ["1.5", "-0.1", "NaN", "inf"] {
            let err = run_strs(&["estimate", "c17", "--p1", p1]).unwrap_err();
            assert_eq!(err.exit_code, 1, "--p1 {p1}");
            assert!(err.message.contains("out of range"), "got: {}", err.message);
        }

        let dir = std::env::temp_dir().join("swact_cli_test");
        std::fs::create_dir_all(&dir).unwrap();
        let seq = dir.join("p1_shift.bench");
        std::fs::write(&seq, "INPUT(a)\nOUTPUT(q)\nq = DFF(d)\nd = BUF(a)\n").unwrap();
        let seq = seq.to_string_lossy().to_string();
        let err = run_strs(&["estimate", &seq, "--sequential", "--p1", "1.5"]).unwrap_err();
        assert_eq!(err.exit_code, 1);

        for (name, line) in [
            ("broadcast", "1.5"),
            ("nan", "NaN"),
            ("per_input", "0.1 0.2 2 0.4 0.5"),
        ] {
            let path = dir.join(format!("bad_p1_{name}.spec"));
            std::fs::write(&path, format!("0.5\n{line}\n")).unwrap();
            let path = path.to_string_lossy().to_string();
            let err = run_strs(&["batch", "c17", "--spec", &path]).unwrap_err();
            assert_eq!(err.exit_code, 1, "{line}");
            assert!(
                err.message.starts_with("spec line 2:"),
                "got: {}",
                err.message
            );
            assert!(err.message.contains("out of range"), "got: {}", err.message);
        }
    }

    #[test]
    fn compare_rejects_zero_pairs() {
        let err = run_strs(&["compare", "c17", "--pairs", "0"]).unwrap_err();
        assert_eq!(err.exit_code, 2);
        assert!(err.message.starts_with("--pairs must be at least 1"));
    }

    #[test]
    fn estimate_from_file_and_dot() {
        let dir = std::env::temp_dir().join("swact_cli_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("tiny.bench");
        std::fs::write(&path, "INPUT(a)\nINPUT(b)\nOUTPUT(y)\ny = NAND(a, b)\n").unwrap();
        let path = path.to_string_lossy().to_string();
        let out = run_strs(&["estimate", &path]).unwrap();
        assert!(out.contains('y'));
        let dot = run_strs(&["dot", &path]).unwrap();
        assert!(dot.starts_with("digraph"));
        let verilog = run_strs(&["verilog", &path]).unwrap();
        assert!(verilog.contains("module"));
        assert!(verilog.contains("nand"));
        assert!(run_strs(&["estimate", "/definitely/not/here.bench"]).is_err());
    }

    #[test]
    fn sequential_estimation_via_flag() {
        let dir = std::env::temp_dir().join("swact_cli_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("shift.bench");
        std::fs::write(&path, "INPUT(a)\nOUTPUT(q)\nq = DFF(d)\nd = BUF(a)\n").unwrap();
        let path = path.to_string_lossy().to_string();
        let out = run_strs(&["estimate", &path, "--sequential"]).unwrap();
        assert!(out.contains("registers"));
        assert!(out.contains("fixed point"));
    }

    #[test]
    fn blif_files_are_autodetected() {
        let dir = std::env::temp_dir().join("swact_cli_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("mux.blif");
        std::fs::write(
            &path,
            ".model mux\n.inputs s a b\n.outputs y\n.names s a b y\n01- 1\n1-1 1\n.end\n",
        )
        .unwrap();
        let path = path.to_string_lossy().to_string();
        let out = run_strs(&["estimate", &path]).unwrap();
        assert!(out.contains("mean switching"));
        // Sequential BLIF through the flag.
        let seq_path = dir.join("reg.blif");
        std::fs::write(
            &seq_path,
            ".model reg\n.inputs a\n.outputs q\n.latch d q 0\n.names a d\n1 1\n.end\n",
        )
        .unwrap();
        let seq_path = seq_path.to_string_lossy().to_string();
        let out = run_strs(&["estimate", &seq_path, "--sequential"]).unwrap();
        assert!(out.contains("1 registers"));
    }

    #[test]
    fn csv_output_is_machine_readable() {
        let out = run_strs(&["estimate", "c17", "--csv"]).unwrap();
        let mut lines = out.lines();
        assert!(lines.next().unwrap().starts_with("line,"));
        assert_eq!(lines.count(), 11); // 5 inputs + 6 gates
    }

    #[test]
    fn batch_sweep_is_identical_across_job_counts() {
        let serial = run_strs(&["batch", "c17", "--jobs", "1", "--sweep", "6"]).unwrap();
        let parallel = run_strs(&["batch", "c17", "--jobs", "4", "--sweep", "6"]).unwrap();
        assert_eq!(serial, parallel);
        assert!(serial.contains("6 scenario(s)"));
        let csv_serial =
            run_strs(&["batch", "c17", "--jobs", "1", "--sweep", "5", "--csv"]).unwrap();
        let csv_parallel =
            run_strs(&["batch", "c17", "--jobs", "4", "--sweep", "5", "--csv"]).unwrap();
        assert_eq!(csv_serial, csv_parallel);
        assert!(csv_serial.starts_with("scenario,p1_mean,mean_switching,"));
        assert_eq!(csv_serial.lines().count(), 6); // header + 5 scenarios
    }

    #[test]
    fn batch_reads_scenarios_from_spec_file() {
        let dir = std::env::temp_dir().join("swact_cli_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("scenarios.spec");
        // c17 has 5 inputs: one broadcast line, one per-input line, comments.
        std::fs::write(
            &path,
            "# quiet then busy\n0.1\n0.2, 0.3 0.4,0.5 0.6   # per-input\n\n",
        )
        .unwrap();
        let path = path.to_string_lossy().to_string();
        let out = run_strs(&["batch", "c17", "--spec", &path, "--jobs", "2"]).unwrap();
        assert!(out.contains("2 scenario(s)"));

        let bad = dir.join("bad.spec");
        std::fs::write(&bad, "0.1 0.2\n").unwrap(); // 2 values for 5 inputs
        let bad = bad.to_string_lossy().to_string();
        let err = run_strs(&["batch", "c17", "--spec", &bad]).unwrap_err();
        assert_eq!(err.exit_code, 1);
        assert!(err.message.contains("expected 1 or 5 values"));
    }

    #[test]
    fn batch_stats_flag_reports_cache_and_timings() {
        let out = run_strs(&["batch", "c17", "--sweep", "3", "--stats"]).unwrap();
        assert!(out.contains("cache miss"));
        assert!(out.contains("scenarios/s"));
        assert!(out.contains("requests 3 (0 failed)"));
        assert!(out.contains("stages: plan"));
        assert!(out.contains("forward"));
        assert!(out.contains("propagate split: calibrate"));
        // c17 is one segment: nothing to export.
        assert!(out.contains("(0 walk(s), 0 entries)"));
        assert!(out.contains("reuse:"));
        assert!(out.contains("memo-skipped"));
        // c432's boundaries export pairwise joints: the export figure
        // carries the walks run and the lane-entries they touched.
        let out = run_strs(&["batch", "c432", "--sweep", "2", "--stats"]).unwrap();
        let split = out
            .lines()
            .find(|l| l.starts_with("propagate split:"))
            .unwrap();
        let counts = split.rsplit_once(" (").unwrap().1;
        let (walks, entries) = counts.split_once(" walk(s), ").unwrap();
        let entries = entries.strip_suffix(" entries)").unwrap();
        assert!(walks.parse::<usize>().unwrap() > 0, "{split}");
        assert!(entries.parse::<usize>().unwrap() > 0, "{split}");
    }

    #[test]
    fn batch_jobs_force_and_no_incremental_flags() {
        // Forced oversubscription still produces the same deterministic
        // body as the default engine.
        let forced = run_strs(&["batch", "c17", "--jobs-force", "3", "--sweep", "4"]).unwrap();
        let plain = run_strs(&["batch", "c17", "--sweep", "4"]).unwrap();
        assert_eq!(forced, plain);

        // Cold (non-incremental) runs are bit-identical to warm ones.
        let cold =
            run_strs(&["batch", "c17", "--sweep", "4", "--no-incremental", "--csv"]).unwrap();
        let warm = run_strs(&["batch", "c17", "--sweep", "4", "--csv"]).unwrap();
        assert_eq!(cold, warm);

        // A cold run reports no reuse.
        let stats = run_strs(&[
            "batch",
            "c17",
            "--sweep",
            "3",
            "--no-incremental",
            "--stats",
        ])
        .unwrap();
        assert!(stats.contains("reuse: 0 segment(s) memo-skipped"));

        let err = run_strs(&["batch", "c17", "--jobs-force", "many"]).unwrap_err();
        assert_eq!(err.exit_code, 2);
        assert!(err.message.contains("bad --jobs-force value"));
    }

    #[test]
    fn batch_rejects_bad_flags() {
        assert_eq!(run_strs(&["batch"]).unwrap_err().exit_code, 2);
        assert_eq!(
            run_strs(&["batch", "c17", "--jobs"]).unwrap_err().exit_code,
            2
        );
        assert_eq!(
            run_strs(&["batch", "c17", "--jobs", "many"])
                .unwrap_err()
                .exit_code,
            2
        );
        assert_eq!(
            run_strs(&["batch", "c17", "--sweep", "0"])
                .unwrap_err()
                .exit_code,
            2
        );
    }

    #[test]
    fn budget_flags_degrade_and_report() {
        // A 256-state cap forces the ladder on c432; the report announces
        // itself in the header.
        let out = run_strs(&["estimate", "c432", "--budget-states", "256"]).unwrap();
        assert!(out.contains("degraded: segment"));
        assert!(out.contains("mean switching activity"));

        // Without a cap the degraded lines are absent.
        let plain = run_strs(&["estimate", "c432"]).unwrap();
        assert!(!plain.contains("degraded:"));

        // --no-fallback turns the same cap into a runtime error.
        let err = run_strs(&[
            "estimate",
            "c432",
            "--budget-states",
            "256",
            "--no-fallback",
        ])
        .unwrap_err();
        assert_eq!(err.exit_code, 1);
        assert!(err.message.contains("budget"), "message = {}", err.message);
    }

    #[test]
    fn batch_stats_reports_degradations() {
        let out = run_strs(&[
            "batch",
            "c432",
            "--sweep",
            "3",
            "--budget-states",
            "256",
            "--stats",
        ])
        .unwrap();
        assert!(out.contains("3 degraded scenario(s)"));
        assert!(!out.contains("error:"));
        // The per-rung summary names each ladder rung with its count.
        assert!(out.contains("rungs:"), "got: {out}");
        assert!(out.contains("replanned"));
        assert!(out.contains("sampling"));
        assert!(out.contains("twostate"));
        // Non-stats output stays free of robustness lines.
        let quiet = run_strs(&["batch", "c432", "--sweep", "3", "--budget-states", "256"]).unwrap();
        assert!(!quiet.contains("robustness:"));
        assert!(!quiet.contains("rungs:"));
    }

    #[test]
    fn deadline_flag_parses_and_passes_through() {
        // A generous deadline changes nothing about the result table.
        let plain = run_strs(&["estimate", "c17"]).unwrap();
        let deadlined = run_strs(&["estimate", "c17", "--deadline-ms", "60000"]).unwrap();
        let table = |s: &str| s.lines().skip(1).collect::<Vec<_>>().join("\n");
        assert_eq!(table(&plain), table(&deadlined));

        for cmd in ["estimate", "batch"] {
            let err = run_strs(&[cmd, "c17", "--deadline-ms", "soon"]).unwrap_err();
            assert_eq!(err.exit_code, 2);
            assert!(err.message.contains("bad --deadline-ms value"));
            let err = run_strs(&[cmd, "c17", "--budget-states", "lots"]).unwrap_err();
            assert_eq!(err.exit_code, 2);
            assert!(err.message.contains("bad --budget-states value"));
        }
    }

    #[test]
    fn compare_runs_all_methods() {
        let out = run_strs(&["compare", "c17", "--pairs", "65536"]).unwrap();
        assert!(out.contains("bayesian-network"));
        assert!(out.contains("pairwise-correlation"));
        assert!(out.contains("independence"));
        assert!(out.contains("transition-density"));
    }

    #[test]
    fn serve_rejects_bad_flags_without_binding() {
        let err = run_strs(&["serve", "--port", "80"]).unwrap_err();
        assert_eq!(err.exit_code, 2);
        assert!(err.message.contains("unknown serve option"));
        let err = run_strs(&["serve", "--jobs"]).unwrap_err();
        assert!(err.message.contains("--jobs needs a value"));
        let err = run_strs(&["serve", "--clients-config", "/no/such/file"]).unwrap_err();
        assert_eq!(err.exit_code, 1);
        assert!(err.message.contains("cannot read"));
    }

    #[test]
    fn serve_full_cycle_over_an_ephemeral_port() {
        use std::io::{Read as _, Write as _};

        let dir = std::env::temp_dir();
        let tag = std::process::id();
        let addr_file = dir.join(format!("swact-serve-test-{tag}.addr"));
        let config_file = dir.join(format!("swact-serve-test-{tag}.json"));
        std::fs::write(
            &config_file,
            r#"{"clients": {"blocked": {"max_in_flight": 0}}}"#,
        )
        .unwrap();

        let args: Vec<String> = [
            "serve",
            "--addr",
            "127.0.0.1:0",
            "--jobs",
            "1",
            "--handlers",
            "2",
            "--drain-ms",
            "3000",
            "--addr-file",
            addr_file.to_str().unwrap(),
            "--clients-config",
            config_file.to_str().unwrap(),
        ]
        .iter()
        .map(|s| s.to_string())
        .collect();
        let serve = std::thread::spawn(move || run(&args));

        // The server writes its bound address once listening.
        let addr = {
            let mut tries = 0;
            loop {
                if let Ok(text) = std::fs::read_to_string(&addr_file) {
                    if !text.is_empty() {
                        break text;
                    }
                }
                tries += 1;
                assert!(tries < 500, "server never wrote its address file");
                std::thread::sleep(std::time::Duration::from_millis(10));
            }
        };

        let exchange = |request: String| -> String {
            let mut stream = std::net::TcpStream::connect(&addr).expect("connect");
            stream.write_all(request.as_bytes()).expect("send");
            let mut raw = String::new();
            stream.read_to_string(&mut raw).expect("read");
            raw
        };

        let estimate = exchange(format!(
            "POST /v1/estimate HTTP/1.1\r\nHost: t\r\nContent-Length: {}\r\n\r\n{}",
            r#"{"circuit":"c17"}"#.len(),
            r#"{"circuit":"c17"}"#
        ));
        assert!(estimate.starts_with("HTTP/1.1 200"), "got: {estimate}");
        assert!(estimate.contains("\"circuit\":\"c17\""));

        let blocked = exchange(format!(
            "POST /v1/estimate HTTP/1.1\r\nHost: t\r\nX-Swact-Client: blocked\r\nContent-Length: {}\r\n\r\n{}",
            r#"{"circuit":"c17"}"#.len(),
            r#"{"circuit":"c17"}"#
        ));
        assert!(blocked.starts_with("HTTP/1.1 429"), "got: {blocked}");

        let stop = exchange(
            "POST /admin/shutdown HTTP/1.1\r\nHost: t\r\nContent-Length: 0\r\n\r\n".to_string(),
        );
        assert!(stop.starts_with("HTTP/1.1 202"), "got: {stop}");

        let out = serve.join().expect("serve thread").expect("clean exit");
        assert!(out.contains("shut down cleanly"), "got: {out}");
        assert!(out.contains("1 scenarios served"), "got: {out}");

        std::fs::remove_file(&addr_file).ok();
        std::fs::remove_file(&config_file).ok();
    }

    fn temp_cache_dir(tag: &str) -> std::path::PathBuf {
        let dir =
            std::env::temp_dir().join(format!("swact-cli-cache-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn swact_files(dir: &std::path::Path) -> Vec<std::path::PathBuf> {
        let mut files: Vec<_> = std::fs::read_dir(dir)
            .unwrap()
            .map(|e| e.unwrap().path())
            .filter(|p| p.extension().is_some_and(|ext| ext == "swact"))
            .collect();
        files.sort();
        files
    }

    #[test]
    fn estimate_cache_dir_warm_starts_bit_identically() {
        let dir = temp_cache_dir("estimate");
        let dir_str = dir.to_str().unwrap();

        let cold = run_strs(&["estimate", "c17", "--cache-dir", dir_str, "--csv"]).unwrap();
        assert_eq!(swact_files(&dir).len(), 1, "one artifact persisted");

        let warm = run_strs(&["estimate", "c17", "--cache-dir", dir_str, "--csv"]).unwrap();
        assert_eq!(cold, warm, "warm start must be bit-identical");
        assert_eq!(swact_files(&dir).len(), 1, "warm start writes nothing new");

        // A different model (other backend) gets its own artifact.
        run_strs(&[
            "estimate",
            "c17",
            "--cache-dir",
            dir_str,
            "--csv",
            "--backend",
            "twostate",
        ])
        .unwrap();
        assert_eq!(swact_files(&dir).len(), 2, "distinct model key per backend");

        // A different sweep point reuses the same artifact: probabilities
        // are not part of the model key.
        run_strs(&[
            "estimate",
            "c17",
            "--cache-dir",
            dir_str,
            "--csv",
            "--p1",
            "0.3",
        ])
        .unwrap();
        assert_eq!(swact_files(&dir).len(), 2);

        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn estimate_cache_dir_recovers_from_corruption() {
        let dir = temp_cache_dir("corrupt");
        let dir_str = dir.to_str().unwrap();

        let cold = run_strs(&["estimate", "c17", "--cache-dir", dir_str, "--csv"]).unwrap();
        let artifact = swact_files(&dir).pop().unwrap();
        let bytes = std::fs::read(&artifact).unwrap();
        std::fs::write(&artifact, &bytes[..bytes.len() / 2]).unwrap();

        // The truncated artifact is rejected, recompiled, and re-persisted.
        let recovered = run_strs(&["estimate", "c17", "--cache-dir", dir_str, "--csv"]).unwrap();
        assert_eq!(cold, recovered);
        assert!(swact::artifact::verify_artifact(&artifact).is_ok());

        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn batch_cache_dir_warm_starts_bit_identically() {
        let dir = temp_cache_dir("batch");
        let dir_str = dir.to_str().unwrap();

        let cold = run_strs(&[
            "batch",
            "c17",
            "--cache-dir",
            dir_str,
            "--csv",
            "--sweep",
            "3",
        ])
        .unwrap();
        assert_eq!(swact_files(&dir).len(), 1);
        let warm = run_strs(&[
            "batch",
            "c17",
            "--cache-dir",
            dir_str,
            "--csv",
            "--sweep",
            "3",
        ])
        .unwrap();
        assert_eq!(cold, warm, "warm batch must be bit-identical");

        let stats = run_strs(&[
            "batch",
            "c17",
            "--cache-dir",
            dir_str,
            "--sweep",
            "3",
            "--stats",
        ])
        .unwrap();
        assert!(
            stats.contains("artifacts: 1 loaded from disk; 0 persisted; 0 rejected"),
            "got: {stats}"
        );

        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn cache_subcommand_lists_verifies_and_removes() {
        let dir = temp_cache_dir("subcommand");
        let dir_str = dir.to_str().unwrap();
        run_strs(&["estimate", "c17", "--cache-dir", dir_str, "--csv"]).unwrap();
        run_strs(&[
            "estimate",
            "c17",
            "--cache-dir",
            dir_str,
            "--csv",
            "--backend",
            "twostate",
        ])
        .unwrap();

        let ls = run_strs(&["cache", "ls", dir_str]).unwrap();
        assert!(ls.contains("2 artifact(s)"), "got: {ls}");
        assert!(ls.contains(&format!("workspace {}", env!("CARGO_PKG_VERSION"))));

        let verify = run_strs(&["cache", "verify", dir_str]).unwrap();
        assert!(
            verify.contains("2 artifact(s) verified, 0 failed"),
            "got: {verify}"
        );

        // Corrupt one artifact: verify fails with exit code 1 and names it.
        let victim = swact_files(&dir).remove(0);
        let key = swact::artifact::parse_artifact_file_name(
            victim.file_name().unwrap().to_str().unwrap(),
        )
        .unwrap();
        let bytes = std::fs::read(&victim).unwrap();
        std::fs::write(&victim, &bytes[..bytes.len() - 1]).unwrap();
        let err = run_strs(&["cache", "verify", dir_str]).unwrap_err();
        assert_eq!(err.exit_code, 1);
        assert!(err.message.contains("FAIL"), "got: {}", err.message);

        // Remove just the corrupt one by key, then everything.
        let rm_one = run_strs(&["cache", "rm", dir_str, "--key", &format!("{key:032x}")]).unwrap();
        assert!(rm_one.contains("removed 1 artifact(s)"), "got: {rm_one}");
        assert_eq!(swact_files(&dir).len(), 1);
        let rm_all = run_strs(&["cache", "rm", dir_str]).unwrap();
        assert!(rm_all.contains("removed 1 artifact(s)"), "got: {rm_all}");
        assert!(swact_files(&dir).is_empty());

        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn cache_subcommand_rejects_bad_usage() {
        let dir = temp_cache_dir("usage");
        assert_eq!(run_strs(&["cache"]).unwrap_err().exit_code, 2);
        assert_eq!(run_strs(&["cache", "ls"]).unwrap_err().exit_code, 2);
        assert_eq!(
            run_strs(&["cache", "frobnicate", "somewhere"])
                .unwrap_err()
                .exit_code,
            2
        );
        let dir_str = dir.to_str().unwrap();
        std::fs::create_dir_all(&dir).unwrap();
        assert_eq!(
            run_strs(&["cache", "ls", dir_str, "--key", "ff"])
                .unwrap_err()
                .exit_code,
            2,
            "--key only applies to rm"
        );
        assert_eq!(
            run_strs(&["cache", "rm", dir_str, "--key", "zz"])
                .unwrap_err()
                .exit_code,
            2,
            "non-hex key is a usage error"
        );
        let err = run_strs(&["cache", "rm", dir_str, "--key", "ff"]).unwrap_err();
        assert_eq!(err.exit_code, 1, "absent key is a runtime error");
        assert!(err.message.contains("no artifact"));
        // A nonexistent directory is a runtime error, not a panic.
        let missing = dir.join("missing").to_str().unwrap().to_string();
        assert_eq!(
            run_strs(&["cache", "ls", &missing]).unwrap_err().exit_code,
            1
        );

        assert_eq!(
            run_strs(&["estimate", "c17", "--sequential", "--cache-dir", dir_str])
                .unwrap_err()
                .exit_code,
            2,
            "--cache-dir and --sequential are incompatible"
        );
        std::fs::remove_dir_all(&dir).ok();
    }
}
