//! The benchmark's command line.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! `--trace 0` repeats the workload through the experiment registry at
//! `jobs = nproc` for `--seconds`, each run in a fresh process so its peak
//! RSS is its own, with the set-up timed in another fresh process before
//! it, and reports the median of every end-to-end metric. `--trace 1` makes
//! the traced run: for every workload, one untraced registry run at
//! `jobs = nproc`, then the traced replica at `jobs = 1`; both must share
//! one result digest before the per-layer metrics are reported. The last
//! line of standard output is the result as one JSON object.

use std::collections::HashMap;
use std::fmt::Write as _;
use std::path::Path;
use std::process::{Command, ExitCode, Stdio};
use std::time::Instant;

use dtl_perfbench::{
    git_rev, median, replica, run_registry, rustc_version, setup, sys, valid_metric_name, Metric,
    Scale, Workload, END_TO_END,
};
use dtl_sim::exec::available_jobs;

/// Each measured run times at least this many set-ups...
const MIN_SETUPS: usize = 10;
/// ...and keeps going until they add up to this many seconds, so that
/// millisecond set-ups get a steady median too. `setup_s` is the median of
/// every set-up of every run.
const SETUP_SECONDS: f64 = 1.0;
/// Fewest measured runs a median is taken over, whatever `--seconds` says.
const MIN_RUNS: usize = 3;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut kv: HashMap<&str, &str> = HashMap::new();
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" | "--seed" | "--seconds" | "--trace" => {
                kv.insert(flag.as_str(), value.as_str());
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    let need = |k: &str| kv.get(k).copied().ok_or_else(|| format!("{k} is required"));
    let workload = Workload::parse(need("--workload")?).ok_or_else(|| {
        let names: Vec<_> = Workload::ALL.iter().map(|w| w.name()).collect();
        format!("--workload must be one of {}", names.join(", "))
    })?;
    let seed = need("--seed")?.parse().map_err(|_| "--seed must be an unsigned integer")?;
    let seconds: f64 = kv
        .get("--seconds")
        .map_or(Ok(10.0), |s| s.parse())
        .map_err(|_| "--seconds must be a number")?;
    if !(seconds.is_finite() && seconds > 0.0) {
        return Err("--seconds must be positive".into());
    }
    let trace = match kv.get("--trace").copied().unwrap_or("0") {
        "0" => false,
        "1" => true,
        _ => return Err("--trace must be 0 or 1".into()),
    };
    Ok(Args { workload, seed, seconds, trace })
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    match argv.first().map(String::as_str) {
        Some("run-once") => return child(&argv[1..], run_once),
        Some("setup-once") => return child(&argv[1..], setup_once),
        _ => {}
    }
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let result = if args.trace { traced(&args) } else { untraced(&args) };
    match result {
        Ok(code) => code,
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

fn manifest(w: Workload, seed: u64, jobs: usize, inputs: &str) -> String {
    format!(
        "{{\"nproc\": {}, \"jobs\": {jobs}, \"seed\": {seed}, \"git_rev\": \"{}\", \"rustc\": \"{}\", \"workload\": \"{}\", \"inputs\": \"{inputs}\"}}",
        available_jobs(),
        git_rev(),
        rustc_version(),
        w.name(),
    )
}

/// The final result line.
fn result_json(correct: bool, attempted: usize, failed: usize, metrics: &[Metric]) -> String {
    let mut s = format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
    );
    for (i, m) in metrics.iter().enumerate() {
        assert!(valid_metric_name(&m.name), "malformed metric name {}", m.name);
        assert!(m.value.is_finite(), "{} is not finite", m.name);
        let sep = if i == 0 { "" } else { ", " };
        let _ =
            write!(s, "{sep}\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}", m.name, m.value, m.unit);
    }
    s.push_str("}}");
    s
}

/// What a measurement in a child process reports: `(key, value)` fields.
type Fields = Result<Vec<(&'static str, String)>, String>;

/// Runs one measurement in this process, which the parent started for it,
/// and prints its fields as `key value` lines for the parent to read.
fn child(argv: &[String], measure: fn(&Args) -> Fields) -> ExitCode {
    let fields = parse_args(argv).and_then(|args| measure(&args));
    match fields {
        Ok(fields) => {
            for (k, v) in fields {
                println!("{k} {v}");
            }
            ExitCode::SUCCESS
        }
        Err(e) => {
            println!("error {e}");
            ExitCode::FAILURE
        }
    }
}

/// One registry run. Alone in its process, so the process's peak RSS is
/// the run's.
fn run_once(args: &Args) -> Fields {
    let run = run_registry(args.workload, args.seed, Scale::Bench, available_jobs())?;
    let o = run.outcome;
    let mut fields = vec![
        ("wall_s", run.wall_s.to_string()),
        ("cpu_s", run.cpu_s.to_string()),
        ("peak_rss_mib", sys::peak_rss_mib().to_string()),
        ("work", o.work.to_string()),
        ("digest", o.digest),
        ("headline", o.headline),
    ];
    if let Some(f) = o.failure {
        fields.push(("failure", f));
    }
    Ok(fields)
}

/// Repeated set-ups in a fresh process, as a real run starts; reports
/// every set-up's seconds, comma-separated.
fn setup_once(args: &Args) -> Fields {
    let mut setups = Vec::new();
    let mut inputs = String::new();
    while setups.len() < MIN_SETUPS || setups.iter().sum::<f64>() < SETUP_SECONDS {
        let t0 = Instant::now();
        inputs = setup(args.workload, args.seed, Scale::Bench).map_err(|e| e.to_string())?;
        setups.push(t0.elapsed().as_secs_f64());
    }
    let setups: Vec<String> = setups.iter().map(f64::to_string).collect();
    Ok(vec![("setups_s", setups.join(",")), ("inputs", inputs)])
}

/// Starts `exe <sub>` for `args` and reads back its fields; `None` when it
/// failed, after saying why.
fn spawn(exe: &Path, sub: &str, args: &Args) -> Result<Option<HashMap<String, String>>, String> {
    let out = Command::new(exe)
        .args([sub, "--workload", args.workload.name()])
        .args(["--seed", &args.seed.to_string()])
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("cannot start a measured run: {e}"))?;
    let fields: HashMap<String, String> = String::from_utf8_lossy(&out.stdout)
        .lines()
        .filter_map(|l| l.split_once(' '))
        .map(|(k, v)| (k.to_string(), v.to_string()))
        .collect();
    if out.status.success() && !fields.contains_key("failure") {
        return Ok(Some(fields));
    }
    let why = fields.get("error").or(fields.get("failure")).cloned();
    println!("{sub} FAILED ({})", why.unwrap_or_else(|| out.status.to_string()));
    Ok(None)
}

/// The end-to-end runs: repeat in fresh processes for `--seconds`.
fn untraced(args: &Args) -> Result<ExitCode, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot locate own binary: {e}"))?;
    let start = Instant::now();
    let mut runs: Vec<HashMap<String, String>> = Vec::new();
    let mut setups: Vec<f64> = Vec::new();
    let mut failed = 0;
    let mut attempted = 0;
    loop {
        let t0 = Instant::now();
        attempted += 1;
        let setup = spawn(&exe, "setup-once", args)?;
        let run = spawn(&exe, "run-once", args)?;
        let took = t0.elapsed().as_secs_f64();
        if let (Some(mut fields), Some(run)) = (setup, run) {
            let these: Vec<f64> = fields["setups_s"]
                .split(',')
                .map(|s| s.parse().expect("set-up runs print numbers"))
                .collect();
            fields.extend(run);
            println!(
                "run {attempted}: wall {} s, cpu {} s, peak RSS {} MiB, set-up median {} s of {}, digest {}",
                fields["wall_s"],
                fields["cpu_s"],
                fields["peak_rss_mib"],
                median(&these),
                these.len(),
                fields["digest"]
            );
            setups.extend(these);
            runs.push(fields);
        } else {
            failed += 1;
            println!("run {attempted}: FAILED");
        }
        let elapsed = start.elapsed().as_secs_f64();
        if attempted >= MIN_RUNS && elapsed + took > args.seconds {
            break;
        }
    }
    let Some(first) = runs.first().cloned() else {
        return Err(format!("all {attempted} runs failed"));
    };
    let mismatched = runs.iter().filter(|r| r["digest"] != first["digest"]).count();
    failed += mismatched;
    if mismatched > 0 {
        println!("{mismatched} runs disagree with the first run's digest {}", first["digest"]);
    }
    let num = |r: &HashMap<String, String>, k: &str| -> f64 {
        r[k].parse().expect("measured runs print numbers")
    };
    let med = |k: &str| median(&runs.iter().map(|r| num(r, k)).collect::<Vec<_>>());
    let per_s: Vec<f64> = runs.iter().map(|r| num(r, "work") / num(r, "wall_s")).collect();
    let jobs = available_jobs();
    println!("manifest {}", manifest(args.workload, args.seed, jobs, &first["inputs"]));
    println!("digest {}", first["digest"]);
    println!("simulated: {}", first["headline"]);
    println!("work_per_s: {} per wall second", args.workload.work_unit());
    let metrics: Vec<Metric> = END_TO_END
        .iter()
        .map(|&(name, unit)| {
            let value = match name {
                "setup_s" => median(&setups),
                "work_per_s" => median(&per_s),
                _ => med(name),
            };
            Metric::new(name, unit, value)
        })
        .collect();
    for m in &metrics {
        println!("{} = {} {}", m.name, m.value, m.unit);
    }
    println!("{}", result_json(failed == 0, attempted, failed, &metrics));
    Ok(ExitCode::SUCCESS)
}

/// The traced run over every workload, gated on replica fidelity.
fn traced(args: &Args) -> Result<ExitCode, String> {
    let nproc = available_jobs();
    let mut metrics = Vec::new();
    let mut attempted = 0;
    let mut invalid = Vec::new();
    let out_dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
    for w in Workload::ALL {
        attempted += 2;
        let (par, rep) = match (
            run_registry(w, args.seed, Scale::Bench, nproc),
            replica(w, args.seed, Scale::Bench),
        ) {
            (Ok(p), Ok(r)) => (p, r),
            (p, r) => {
                for e in [p.err(), r.err()].into_iter().flatten() {
                    println!("{}: {e}", w.name());
                }
                invalid.push(w.name());
                continue;
            }
        };
        let manifest = manifest(w, args.seed, nproc, &rep.inputs);
        println!("manifest {manifest}");
        println!(
            "{}: digest jobs {nproc} {}, traced replica at jobs 1 {}",
            w.name(),
            par.outcome.digest,
            rep.outcome.digest
        );
        println!("{}: simulated: {}", w.name(), par.outcome.headline);
        let agree = rep.outcome == par.outcome;
        if !agree {
            for ((k, a), (_, b)) in par.outcome.fidelity.iter().zip(&rep.outcome.fidelity) {
                let mark = if a == b { "" } else { "  <-- differs" };
                println!("{}: fidelity {k}: harness {a}, replica {b}{mark}", w.name());
            }
        }
        if let Some(f) = &par.outcome.failure {
            println!("{}: acceptance check failed: {f}", w.name());
        }
        let valid = agree && par.outcome.failure.is_none();
        let mut layer = rep.metrics;
        // The untraced run's CPU seconds are its single-core cost, the
        // fair baseline for a replica that runs on one core.
        let overhead = rep.wall_s - par.cpu_s;
        layer.push(Metric::new(format!("{}.trace_overhead_s", w.name()), "s", overhead));
        let tag = if valid { "" } else { "INVALID " };
        for m in &layer {
            println!("{tag}{} = {} {}", m.name, m.value, m.unit);
        }
        let path = out_dir.join(format!("spans-{}-seed{}.json", w.name(), args.seed));
        let spans = format!("{{\"manifest\": {manifest}, \"trace\": {}}}\n", rep.spans_json);
        match std::fs::create_dir_all(&out_dir).and_then(|()| std::fs::write(&path, spans)) {
            Ok(()) => println!("{}: spans written to {}", w.name(), path.display()),
            Err(e) => println!("{}: spans not written: {e}", w.name()),
        }
        if valid {
            metrics.extend(layer);
        } else {
            invalid.push(w.name());
        }
    }
    if !invalid.is_empty() {
        eprintln!("perfbench: traced run INVALID for {}", invalid.join(", "));
        return Ok(ExitCode::FAILURE);
    }
    println!("{}", result_json(true, attempted, 0, &metrics));
    Ok(ExitCode::SUCCESS)
}
