//! `profile`: one seeded benchmark of the swact estimator, end to end and
//! layer by layer. See README.md beside this crate for the workloads,
//! the metrics and how to run it.
//!
//! ```text
//! profile --workload <cold|update|sweep|serve> [--seed N] [--seconds S] [--trace 0|1]
//!         [--smoke] [--server-bin PATH] [--spans PATH]
//! profile --all [--runs N] [--out PATH] [same options]
//! profile --compare OLD.json NEW.json [--benchmark BENCHMARK.json]
//! ```

mod compare;
mod inputs;
mod library;
mod metrics;
mod serve;
mod stats;
mod trace;

use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};

use swact_serve::json::{self, Value};

use library::Plan;
use metrics::{Outcome, END_TO_END, PER_LAYER, UNBOUNDED};

const WORKLOADS: [&str; 4] = ["cold", "update", "sweep", "serve"];

const USAGE: &str = "\
usage: profile --workload <cold|update|sweep|serve> [--seed N] [--seconds S] [--trace 0|1]
               [--smoke] [--server-bin PATH] [--spans PATH]
       profile --all [--runs N] [--out PATH] [same options as above]
       profile --compare OLD.json NEW.json [--benchmark BENCHMARK.json]";

#[derive(Debug)]
struct Args {
    workload: Option<String>,
    all: bool,
    runs: u64,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
    server_bin: Option<PathBuf>,
    spans: Option<PathBuf>,
    out: Option<PathBuf>,
    compare: Option<(PathBuf, PathBuf)>,
    benchmark: PathBuf,
}

fn parse_args(raw: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        all: false,
        runs: 1,
        seed: 1,
        seconds: 12.0,
        trace: false,
        smoke: false,
        server_bin: None,
        spans: None,
        out: None,
        compare: None,
        benchmark: PathBuf::from("BENCHMARK.json"),
    };
    let mut it = raw.iter().peekable();
    let value = |it: &mut std::iter::Peekable<std::slice::Iter<String>>, flag: &str| {
        it.next()
            .cloned()
            .ok_or_else(|| format!("{flag} needs a value"))
    };
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--workload" => args.workload = Some(value(&mut it, flag)?),
            "--all" => args.all = true,
            "--smoke" => args.smoke = true,
            "--runs" => {
                args.runs = value(&mut it, flag)?
                    .parse()
                    .map_err(|_| "bad --runs".to_string())?;
            }
            "--seed" => {
                args.seed = value(&mut it, flag)?
                    .parse()
                    .map_err(|_| "bad --seed".to_string())?;
            }
            "--seconds" => {
                args.seconds = value(&mut it, flag)?
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s > 0.0)
                    .ok_or("bad --seconds")?;
            }
            // `--trace` alone means on; `--trace 0|1` is explicit.
            "--trace" => {
                args.trace = match it.peek().map(|s| s.as_str()) {
                    Some("0") => {
                        it.next();
                        false
                    }
                    Some("1") => {
                        it.next();
                        true
                    }
                    _ => true,
                };
            }
            "--server-bin" => args.server_bin = Some(value(&mut it, flag)?.into()),
            "--spans" => args.spans = Some(value(&mut it, flag)?.into()),
            "--out" => args.out = Some(value(&mut it, flag)?.into()),
            "--benchmark" => args.benchmark = value(&mut it, flag)?.into(),
            "--compare" => {
                let old = value(&mut it, flag)?;
                let new = value(&mut it, flag)?;
                args.compare = Some((old.into(), new.into()));
            }
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    if let Some(w) = &args.workload {
        if !WORKLOADS.contains(&w.as_str()) {
            return Err(format!("unknown workload `{w}`"));
        }
    }
    let modes = [args.workload.is_some(), args.all, args.compare.is_some()];
    if modes.iter().filter(|&&m| m).count() != 1 {
        return Err("give exactly one of --workload, --all and --compare".to_string());
    }
    Ok(args)
}

/// Where build outputs live: `$CARGO_TARGET_DIR`, else `target`.
fn target_dir() -> PathBuf {
    std::env::var_os("CARGO_TARGET_DIR").map_or_else(|| PathBuf::from("target"), PathBuf::from)
}

fn main() -> ExitCode {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    if raw.iter().any(|a| a == "--help" || a == "-h") {
        println!("{USAGE}");
        return ExitCode::SUCCESS;
    }
    let args = match parse_args(&raw) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("profile: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let result = if let Some((old, new)) = &args.compare {
        run_compare(old, new, &args.benchmark)
    } else if args.all {
        run_all(&args)
    } else {
        run_workload(&args)
    };
    match result {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("profile: {e}");
            ExitCode::from(1)
        }
    }
}

fn measure(workload: &str, plan: &Plan, server_bin: &Path) -> Result<Outcome, String> {
    match workload {
        "cold" => library::cold(plan),
        "update" => library::update(plan),
        "sweep" => library::sweep(plan),
        "serve" => serve::serve(plan, server_bin),
        other => Err(format!("unknown workload `{other}`")),
    }
}

/// Runs one workload and prints `workload metric value unit` lines, then
/// the result object as the last line.
fn run_workload(args: &Args) -> Result<bool, String> {
    let workload = args.workload.as_deref().expect("checked by parse_args");
    let plan = Plan {
        seed: args.seed,
        seconds: if args.smoke { 0.0 } else { args.seconds },
        trace: args.trace,
    };
    let server_bin = match &args.server_bin {
        Some(path) => path.clone(),
        None => std::env::current_exe()
            .map_err(|e| format!("cannot locate this program: {e}"))?
            .with_file_name("swact"),
    };
    let out = measure(workload, &plan, &server_bin)?;

    let table: &[(&str, &str)] = if plan.trace { &PER_LAYER } else { &END_TO_END };
    let mut metrics = Vec::new();
    for &(name, unit) in table {
        let value = *out
            .values
            .get(name)
            .ok_or_else(|| format!("{workload} did not measure {name}"))?;
        if !value.is_finite() {
            return Err(format!("{workload} measured a non-finite {name}"));
        }
        let note = out
            .notes
            .get(name)
            .map_or(String::new(), |n| format!(" {n}"));
        println!("{workload} {name} {value} {unit}{note}");
        metrics.push((
            name.to_string(),
            Value::Object(vec![
                ("value".to_string(), Value::Number(value)),
                ("unit".to_string(), Value::String(unit.to_string())),
            ]),
        ));
    }
    for (name, unit) in UNBOUNDED {
        if let Some(v) = out.values.get(name) {
            let note = out
                .notes
                .get(name)
                .map_or(String::new(), |n| format!(" {n}"));
            println!("{workload} {name} {v} {unit}{note}");
        }
    }
    let error_rate = out.failed as f64 / out.attempted.max(1) as f64;
    println!(
        "{workload} error_rate {error_rate} fraction failed={} attempted={}",
        out.failed, out.attempted
    );
    println!("{workload} output_fnv {:016x}", out.fnv);
    if let Some(spans) = &out.spans {
        let path = args.spans.clone().unwrap_or_else(|| {
            target_dir()
                .join("profile")
                .join(format!("spans-{workload}-{}.tsv", plan.seed))
        });
        spans
            .write_tsv(&path)
            .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
        eprintln!("spans written to {}", path.display());
    }
    let correct = out.failed == 0 && out.attempted > 0;
    // Counts are printed by hand: `Value` writes every number as a float.
    println!(
        "{{\"correct\":{correct},\"attempted\":{},\"failed\":{},\"metrics\":{}}}",
        out.attempted,
        out.failed,
        Value::Object(metrics)
    );
    Ok(correct)
}

/// Runs every workload, each in a child process of its own, `runs` times
/// with seeds `seed, seed+1, …`, and writes all results to `--out`.
fn run_all(args: &Args) -> Result<bool, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot locate this program: {e}"))?;
    let mut runs = Vec::new();
    let mut all_ok = true;
    for r in 0..args.runs {
        let seed = args.seed + r;
        for workload in WORKLOADS {
            let mut cmd = Command::new(&exe);
            cmd.args(["--workload", workload, "--seed", &seed.to_string()])
                .args(["--seconds", &args.seconds.to_string()])
                .args(["--trace", if args.trace { "1" } else { "0" }])
                .stderr(Stdio::inherit());
            if args.smoke {
                cmd.arg("--smoke");
            }
            if let Some(bin) = &args.server_bin {
                cmd.arg("--server-bin").arg(bin);
            }
            let output = cmd
                .output()
                .map_err(|e| format!("cannot run {workload}: {e}"))?;
            let stdout = String::from_utf8_lossy(&output.stdout);
            let mut lines: Vec<&str> = stdout.lines().collect();
            let last = lines.pop().unwrap_or_default();
            for line in &lines {
                println!("{line}");
            }
            let result = json::parse(last)
                .map_err(|e| format!("{workload} seed {seed}: no result ({e})"))?;
            let fnv = lines
                .iter()
                .find_map(|l| l.strip_prefix(&format!("{workload} output_fnv ")))
                .unwrap_or_default();
            all_ok &= output.status.success();
            let mut run = vec![
                ("workload".to_string(), Value::String(workload.to_string())),
                ("seed".to_string(), Value::Number(seed as f64)),
                ("output_fnv".to_string(), Value::String(fnv.to_string())),
            ];
            if let Value::Object(members) = result {
                run.extend(members);
            }
            runs.push(Value::Object(run));
        }
    }
    let doc = Value::Object(vec![
        ("seconds".to_string(), Value::Number(args.seconds)),
        ("smoke".to_string(), Value::Bool(args.smoke)),
        ("trace".to_string(), Value::Bool(args.trace)),
        (
            "host_cpus".to_string(),
            Value::Number(std::thread::available_parallelism().map_or(1, |n| n.get()) as f64),
        ),
        ("runs".to_string(), Value::Array(runs)),
    ]);
    let out = args
        .out
        .clone()
        .unwrap_or_else(|| target_dir().join("profile").join("profile.json"));
    if let Some(dir) = out.parent() {
        std::fs::create_dir_all(dir)
            .map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
    }
    std::fs::write(&out, format!("{doc}\n"))
        .map_err(|e| format!("cannot write {}: {e}", out.display()))?;
    println!("wrote {}", out.display());
    Ok(all_ok)
}

fn read_json(path: &Path) -> Result<Value, String> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
}

fn run_compare(old: &Path, new: &Path, benchmark: &Path) -> Result<bool, String> {
    let (report, ok) = compare::compare(&read_json(old)?, &read_json(new)?, &read_json(benchmark)?);
    print!("{report}");
    Ok(ok)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Result<Args, String> {
        parse_args(&s.split_whitespace().map(String::from).collect::<Vec<_>>())
    }

    #[test]
    fn arguments_follow_the_documented_interface() {
        let a = args("--workload sweep --seed 7 --seconds 12 --trace 1").unwrap();
        assert_eq!(a.workload.as_deref(), Some("sweep"));
        assert_eq!((a.seed, a.seconds, a.trace), (7, 12.0, true));
        assert!(!args("--workload cold --trace 0").unwrap().trace);
        assert!(args("--all --trace").unwrap().trace);
        assert!(args("--workload nope").is_err());
        assert!(args("--workload cold --all").is_err());
        assert!(args("--seed 3").is_err());
        assert!(args("--workload cold --seconds 0").is_err());
    }

    /// Every metric `BENCHMARK.json` names is measured by a smoke run of
    /// each library workload, under a name of letters, digits, `_`, `.` and `-`.
    #[test]
    fn smoke_runs_emit_every_benchmark_metric() {
        let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../../../..");
        let benchmark = read_json(&root.join("BENCHMARK.json")).unwrap();
        let mut names = Vec::new();
        for section in ["end_to_end", "per_layer"] {
            for m in benchmark.get(section).and_then(Value::as_array).unwrap() {
                let name = m.get("name").and_then(Value::as_str).unwrap().to_string();
                let unit = m.get("unit").and_then(Value::as_str).unwrap();
                assert!(
                    name.chars()
                        .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)),
                    "bad metric name {name}"
                );
                assert_eq!(metrics::unit(&name), unit, "unit of {name}");
                names.push(name);
            }
        }
        assert_eq!(names.len(), END_TO_END.len() + PER_LAYER.len());
        let plan = Plan {
            seed: 5,
            seconds: 0.0,
            trace: true,
        };
        for workload in ["cold", "update", "sweep"] {
            let out = measure(workload, &plan, Path::new("unused")).unwrap();
            assert_eq!(out.failed, 0, "{workload} failed ops");
            for name in &names {
                let v = out.values.get(name.as_str());
                assert!(v.is_some_and(|v| v.is_finite()), "{workload} lacks {name}");
            }
        }
    }
}
