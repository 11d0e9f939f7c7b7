//! # dtl-perfbench — the host-time benchmark of the DTL simulator
//!
//! Three workloads, each one registry experiment at a fixed scale:
//!
//! * `fleet_churn` — the `vm_campaign` fleet replay with the windowed time
//!   series on: VM churn on the event spine, no per-access translation;
//! * `access_replay` — the Figure 14 sweep: the per-access translation
//!   path, no event spine and no allocation churn after set-up;
//! * `pool_failover` — device-retirement campaigns on the tiny pool: the
//!   pool epoch loop, faults, evacuations and reachability sweeps.
//!
//! Untraced runs ([`run_registry`]) go through the registry's public entry
//! point and are what the end-to-end metrics time. The traced run
//! ([`replica`]) drives a copy of each harness loop from this crate, wrapping
//! every call into a simulator layer in a span; it must reproduce the
//! harness's result exactly (the fidelity gate) before its per-layer
//! numbers are reported.

#![warn(missing_docs)]

mod access;
mod failover;
mod fleet;
mod span;
pub mod sys;

use std::time::Instant;

use dtl_core::DtlError;
use dtl_sim::exec::available_jobs;
use dtl_sim::experiments::{find, RunContext, RunOutput};

/// A benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Fleet VM churn on the event spine (`vm_campaign`).
    FleetChurn,
    /// Per-access translation replay (`fig14`).
    AccessReplay,
    /// Pool device-retirement campaigns (`pool_failover`).
    PoolFailover,
}

impl Workload {
    /// Every workload, in reporting order.
    pub const ALL: [Workload; 3] =
        [Workload::FleetChurn, Workload::AccessReplay, Workload::PoolFailover];

    /// The workload's benchmark name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::FleetChurn => "fleet_churn",
            Workload::AccessReplay => "access_replay",
            Workload::PoolFailover => "pool_failover",
        }
    }

    /// Resolves a benchmark name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The registry experiment the workload runs.
    pub fn experiment(self) -> &'static str {
        match self {
            Workload::FleetChurn => "vm_campaign",
            Workload::AccessReplay => "fig14",
            Workload::PoolFailover => "pool_failover",
        }
    }

    /// What one unit of the workload's `work_per_s` throughput counts.
    pub fn work_unit(self) -> &'static str {
        match self {
            Workload::FleetChurn => "event-spine events",
            Workload::AccessReplay => "translated device accesses",
            Workload::PoolFailover => "injected faults (each followed by a pool invariant check)",
        }
    }
}

/// The end-to-end metrics, `(name, unit)`, every untraced run reports.
pub const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("cpu_s", "s"),
    ("peak_rss_mib", "MiB"),
    ("work_per_s", "1/s"),
];

/// How big a workload runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// The benchmark's scale.
    Bench,
    /// A seconds-long scale for the self-tests.
    Tiny,
}

/// One named metric value.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name, `[A-Za-z0-9_.-]+`.
    pub name: String,
    /// Unit: `s`, `MiB`, `1/s`, `count` or `ratio`.
    pub unit: &'static str,
    /// The measured value.
    pub value: f64,
}

impl Metric {
    /// Builds a metric.
    pub fn new(name: impl Into<String>, unit: &'static str, value: f64) -> Self {
        Metric { name: name.into(), unit, value }
    }
}

/// The simulated result of one run, reduced to what runs are compared by.
#[derive(Debug, Clone, PartialEq)]
pub struct Outcome {
    /// FNV-1a digest of the result JSON (and, for `fleet_churn`, the
    /// time-series CSV).
    pub digest: String,
    /// The experiment's own acceptance failure, if any.
    pub failure: Option<String>,
    /// The simulated headline, e.g. the fleet background saving.
    pub headline: String,
    /// The fields the fidelity gate names: events processed, VMs placed,
    /// energy, swaps, lost AUs — whichever the result carries.
    pub fidelity: Vec<(String, String)>,
    /// Work items done, the numerator of `work_per_s`.
    pub work: f64,
}

/// One untraced registry run.
#[derive(Debug, Clone)]
pub struct HarnessRun {
    /// What it simulated.
    pub outcome: Outcome,
    /// Wall seconds of the registry call.
    pub wall_s: f64,
    /// CPU seconds (user + system, all threads) of the registry call.
    pub cpu_s: f64,
}

/// 64-bit FNV-1a over `parts`, as 16 hex digits.
pub fn digest(parts: &[&str]) -> String {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for part in parts {
        for b in part.bytes().chain(std::iter::once(0xff)) {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    format!("{h:016x}")
}

/// The registry context a workload runs under.
fn context(w: Workload, seed: u64, scale: Scale, jobs: usize) -> RunContext {
    let mut ctx = RunContext::plain(false);
    ctx.seed = Some(seed);
    ctx.jobs = jobs;
    match w {
        Workload::FleetChurn => fleet::configure(&mut ctx, scale),
        Workload::AccessReplay => access::configure(&mut ctx, scale),
        Workload::PoolFailover => failover::configure(&mut ctx, scale),
    }
    ctx
}

/// Reduces a registry output to its [`Outcome`].
///
/// # Errors
///
/// When the output carries no result JSON or the JSON does not parse.
fn outcome(w: Workload, ctx: &RunContext, out: &RunOutput) -> Result<Outcome, String> {
    let json = out.json.as_deref().ok_or("the experiment produced no result JSON")?;
    let mut outcome = match w {
        Workload::FleetChurn => fleet::outcome(ctx, json, out.timeseries.as_ref()),
        Workload::AccessReplay => access::outcome(ctx, json),
        Workload::PoolFailover => failover::outcome(ctx, json),
    }?;
    outcome.failure = out.failure.clone();
    Ok(outcome)
}

/// Runs `w` once through the experiment registry at `jobs` workers,
/// timing the call.
///
/// # Errors
///
/// When the harness returns an error or its output cannot be read.
pub fn run_registry(
    w: Workload,
    seed: u64,
    scale: Scale,
    jobs: usize,
) -> Result<HarnessRun, String> {
    let ctx = context(w, seed, scale, jobs);
    let experiment = find(w.experiment()).ok_or("experiment missing from the registry")?;
    let cpu0 = sys::cpu_seconds();
    let t0 = Instant::now();
    let out = experiment.run(&ctx).map_err(|e| format!("harness error: {e}"))?;
    let wall_s = t0.elapsed().as_secs_f64();
    let cpu_s = sys::cpu_seconds() - cpu0;
    Ok(HarnessRun { outcome: outcome(w, &ctx, &out)?, wall_s, cpu_s })
}

/// Builds every input and simulated system `w` needs before its first
/// simulated event — schedules, trace mixers, fragmented devices, pools,
/// fault plans — through the same code as [`replica`], then drops them.
/// Returns the input sizes for the run manifest.
///
/// # Errors
///
/// Propagates construction errors.
pub fn setup(w: Workload, seed: u64, scale: Scale) -> Result<String, DtlError> {
    let ctx = context(w, seed, scale, 1);
    match w {
        Workload::FleetChurn => fleet::setup(&ctx),
        Workload::AccessReplay => access::setup(&ctx),
        Workload::PoolFailover => failover::setup(&ctx),
    }
}

/// What a traced replica produced.
#[derive(Debug, Clone)]
pub struct Replica {
    /// The simulated result, comparable with the harness's.
    pub outcome: Outcome,
    /// The per-layer metrics, names prefixed with the workload's.
    pub metrics: Vec<Metric>,
    /// The replica's spans as JSON.
    pub spans_json: String,
    /// Traced wall seconds, offline measurements excluded.
    pub wall_s: f64,
    /// The input sizes, for the run manifest.
    pub inputs: String,
}

/// Runs the traced replica of `w`'s harness loop at `jobs = 1`.
///
/// # Errors
///
/// Propagates simulator errors.
pub fn replica(w: Workload, seed: u64, scale: Scale) -> Result<Replica, String> {
    let ctx = context(w, seed, scale, 1);
    let (result, profile) = span::trace(|| match w {
        Workload::FleetChurn => fleet::replica(&ctx),
        Workload::AccessReplay => access::replica(&ctx),
        Workload::PoolFailover => failover::replica(&ctx),
    });
    let run = result.map_err(|e| format!("replica error: {e}"))?;
    let out = RunOutput {
        text: String::new(),
        json: Some(run.json),
        horizon_ps: None,
        failure: run.failure,
        slo: None,
        timeseries: run.series,
    };
    let outcome = outcome(w, &ctx, &out)?;
    let mut metrics = layer_metrics(&profile, &run.layers, available_jobs());
    for &(op, name, with_calls) in &run.ops {
        if with_calls {
            metrics.push(Metric::new(format!("{name}.calls"), "count", profile.calls(op) as f64));
        }
        metrics.push(Metric::new(format!("{name}_s"), "s", profile.self_s(op)));
    }
    metrics.extend(run.counts);
    for m in &mut metrics {
        m.name = format!("{}.{}", w.name(), m.name);
    }
    Ok(Replica {
        outcome,
        metrics,
        spans_json: profile.to_json(),
        wall_s: profile.wall_s(),
        inputs: run.inputs,
    })
}

/// What a workload's replica hands back besides its spans.
#[derive(Debug)]
pub(crate) struct ReplicaRun {
    /// The result JSON, as `dtl_sim::to_json` renders it.
    pub json: String,
    /// The windowed time series, where the harness produces one.
    pub series: Option<dtl_telemetry::TimeSeries>,
    /// The experiment's acceptance failure, decided as the registry does.
    pub failure: Option<String>,
    /// The layers the workload calls into.
    pub layers: Vec<span::Layer>,
    /// Ops reported on their own: `(op, metric name, whether to report
    /// its call count)`; the self time is always reported.
    pub ops: Vec<(span::Op, &'static str, bool)>,
    /// Workload-specific counts, times and ratios.
    pub counts: Vec<Metric>,
    /// The input sizes, as [`setup`] reports them.
    pub inputs: String,
}

/// The metrics every traced workload reports: each layer's calls and self
/// time, the exec unit spread and the worker idle time at `jobs`, the
/// unattributed remainder and the traced wall.
fn layer_metrics(p: &span::Profile, layers: &[span::Layer], jobs: usize) -> Vec<Metric> {
    use span::Op;
    let mut out = Vec::new();
    for &l in layers {
        out.push(Metric::new(format!("{}.calls", l.name()), "count", p.layer_calls(l) as f64));
        out.push(Metric::new(format!("{}.self_s", l.name()), "s", p.layer_self_s(l)));
    }
    let mut units: Vec<f64> = p.records(Op::Unit).map(span::SpanRecord::secs).collect();
    let idle_s = fifo_idle_s(&units, jobs);
    units.sort_by(f64::total_cmp);
    out.push(Metric::new("exec.units", "count", units.len() as f64));
    out.push(Metric::new("exec.unit_s_median", "s", median(&units)));
    out.push(Metric::new("exec.unit_s_max", "s", units.last().copied().unwrap_or(0.0)));
    out.push(Metric::new("exec.idle_s", "s", idle_s));
    out.push(Metric::new("unattributed_s", "s", p.unattributed_s()));
    out.push(Metric::new("traced_wall_s", "s", p.wall_s()));
    out
}

/// Worker idle seconds had units of these durations, in index order, run
/// at `jobs` workers: `exec::run_units` hands each unit from a FIFO queue
/// to the first worker free, so this replays that greedy assignment and
/// returns `jobs × makespan − Σ unit busy`.
pub fn fifo_idle_s(units: &[f64], jobs: usize) -> f64 {
    let mut free = vec![0.0_f64; jobs.clamp(1, units.len().max(1))];
    for &u in units {
        let first = free.iter_mut().min_by(|a, b| a.total_cmp(b)).expect("at least one worker");
        *first += u;
    }
    let makespan = free.iter().copied().fold(0.0, f64::max);
    free.len() as f64 * makespan - units.iter().sum::<f64>()
}

/// Median of `values` (the mean of the middle two for an even count).
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// `num / den`, or 0 when nothing was attempted.
pub fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// Whether `name` is a well-formed metric name.
pub fn valid_metric_name(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name.chars().all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// The checkout's git revision, read from `.git` in the working directory
/// without searching parent directories; `unknown` outside a git checkout.
pub fn git_rev() -> String {
    let read = |p: &str| std::fs::read_to_string(p).ok().map(|s| s.trim().to_string());
    let Some(head) = read(".git/HEAD") else {
        return "unknown".to_string();
    };
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head;
    };
    if let Some(rev) = read(&format!(".git/{reference}")) {
        return rev;
    }
    read(".git/packed-refs")
        .and_then(|refs| {
            refs.lines()
                .find(|l| l.ends_with(reference))
                .and_then(|l| l.split_whitespace().next())
                .map(str::to_string)
        })
        .unwrap_or_else(|| "unknown".to_string())
}

/// The compiler the benchmark was built with.
pub fn rustc_version() -> &'static str {
    env!("PERFBENCH_RUSTC_VERSION")
}
