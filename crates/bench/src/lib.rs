//! # dtl-bench — the uniform experiment driver and its binaries
//!
//! Every `src/bin/<name>.rs` binary is one line: `dtl_bench::drive("<name>")`.
//! The driver resolves the experiment in the
//! [`dtl_sim::experiments::registry`], parses the shared CLI surface, runs
//! it, prints the rendered tables, and drops machine-readable JSON under
//! `results/`.
//!
//! Shared flags (every binary):
//!
//! * `--tiny` (alias `--quick`) — reduced scale instead of paper scale;
//! * `--seed N` — override the experiment's historical default seed;
//! * `--jobs N` — worker count for the deterministic [`dtl_sim::exec`]
//!   engine; output is bit-identical for every value (default: all cores);
//! * `--out PATH` — JSON destination (default `results/<name>.json`);
//! * `--trace-out PATH` — Chrome `trace_event` JSON (open in Perfetto or
//!   `chrome://tracing`; one track per rank showing power-state residency
//!   spans) plus the raw event stream as JSONL next to it (`PATH` with a
//!   `.jsonl` extension);
//! * `--metrics-out PATH` — the plain-text metrics dump;
//! * `--timeseries-out PATH` — the windowed time series folded from the
//!   event stream (CSV, or JSONL when `PATH` ends in `.jsonl`), for the
//!   campaign-scale experiments that produce one;
//! * `--timeseries-width-s N` — time-series window width in sim seconds
//!   (default 300);
//! * `--heartbeat` — campaign experiments print a wall-clock-throttled
//!   progress line per completed work unit to stderr.
//!
//! Experiment-specific flags (e.g. `diff_fuzz --replay`) pass through via
//! [`RunContext::args`].

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub use dtl_sim::render;

use std::fs;
use std::path::{Path, PathBuf};
use std::sync::Arc;

use dtl_core::DtlError;
use dtl_sim::experiments::{parse_flag, Experiment, RunContext};
use dtl_telemetry::{chrome_trace, jsonl, MetricsRegistry, PowerTimeline, RingSink, Telemetry};

/// Ring capacity: a fig10/fig12-class run emits well under a million
/// events; overflow is reported, not silently truncated mid-run.
const RING_CAPACITY: usize = 1 << 20;

/// The CLI surface shared by every experiment binary. Parse once with
/// [`ExperimentCli::from_args`], hand [`ExperimentCli::context`] to the
/// experiment, then [`ExperimentCli::finish`] the telemetry outputs.
#[derive(Debug)]
pub struct ExperimentCli {
    /// `--tiny` / `--quick`: reduced scale.
    pub tiny: bool,
    /// `--seed N` override.
    pub seed: Option<u64>,
    /// `--jobs N` worker count (defaults to all cores; output is
    /// bit-identical for every value).
    pub jobs: usize,
    /// `--out PATH` JSON destination override.
    pub out: Option<PathBuf>,
    trace_out: Option<PathBuf>,
    metrics_out: Option<PathBuf>,
    timeseries_out: Option<PathBuf>,
    series_width: Option<u64>,
    sink: Option<Arc<RingSink>>,
    registry: Arc<MetricsRegistry>,
    telemetry: Telemetry,
    args: Vec<String>,
}

impl ExperimentCli {
    /// Parses the process arguments.
    ///
    /// # Errors
    ///
    /// [`DtlError::InvalidConfig`] when a shared flag's value is missing
    /// or malformed.
    pub fn from_args() -> Result<Self, DtlError> {
        Self::parse(std::env::args().skip(1).collect())
    }

    fn parse(args: Vec<String>) -> Result<Self, DtlError> {
        let path_of = |flag: &str| -> Result<Option<PathBuf>, DtlError> {
            Ok(parse_flag::<String>(&args, flag)?.map(PathBuf::from))
        };
        let tiny = args.iter().any(|a| a == "--tiny" || a == "--quick");
        let seed = parse_flag(&args, "--seed")?;
        let jobs = parse_flag::<usize>(&args, "--jobs")?
            .map_or_else(dtl_sim::exec::available_jobs, |n| n.max(1));
        let out = path_of("--out")?;
        let trace_out = path_of("--trace-out")?;
        let metrics_out = path_of("--metrics-out")?;
        let timeseries_out = path_of("--timeseries-out")?;
        let width_s = parse_flag::<u64>(&args, "--timeseries-width-s")?.unwrap_or(300);
        let width_ps =
            width_s.checked_mul(1_000_000_000_000).filter(|&w| w > 0).ok_or_else(|| {
                DtlError::InvalidConfig {
                    reason: format!(
                        "--timeseries-width-s expects a positive window, got {width_s}"
                    ),
                }
            })?;
        let series_width = timeseries_out.as_ref().map(|_| width_ps);
        let registry = Arc::new(MetricsRegistry::new());
        let (sink, telemetry) = if trace_out.is_some() || metrics_out.is_some() {
            let sink = Arc::new(RingSink::with_capacity(RING_CAPACITY));
            let telemetry = Telemetry::new(sink.clone() as Arc<dyn dtl_telemetry::TelemetrySink>)
                .with_metrics(registry.clone());
            (Some(sink), telemetry)
        } else {
            (None, Telemetry::disabled())
        };
        Ok(ExperimentCli {
            tiny,
            seed,
            jobs,
            out,
            trace_out,
            metrics_out,
            timeseries_out,
            series_width,
            sink,
            registry,
            telemetry,
            args,
        })
    }

    /// The [`RunContext`] this invocation describes.
    pub fn context(&self) -> RunContext {
        RunContext {
            tiny: self.tiny,
            seed: self.seed,
            jobs: self.jobs,
            telemetry: self.telemetry.clone(),
            args: self.args.clone(),
            series_width: self.series_width,
        }
    }

    /// The metrics registry behind the context's telemetry handle.
    pub fn registry(&self) -> &Arc<MetricsRegistry> {
        &self.registry
    }

    /// Whether any telemetry output was requested.
    pub fn telemetry_enabled(&self) -> bool {
        self.trace_out.is_some() || self.metrics_out.is_some()
    }

    /// The JSON destination for experiment `name`.
    fn json_path(&self, name: &str) -> PathBuf {
        self.out.clone().unwrap_or_else(|| Path::new("results").join(format!("{name}.json")))
    }

    /// Drains the sink and writes the requested telemetry outputs, closing
    /// every rank's open power-state span at `horizon_ps` when given (the
    /// replay horizon) or at the last recorded event otherwise.
    ///
    /// # Errors
    ///
    /// The message to report when an output path cannot be written.
    pub fn finish(&self, horizon_ps: Option<u64>) -> Result<(), String> {
        if let Some(sink) = &self.sink {
            // Surfaced in both places a consumer might look: the metrics
            // dump (as a counter) and stderr (loudly) — a truncated stream
            // silently passing for a complete one is how bad conclusions
            // get drawn.
            let dropped = sink.dropped();
            self.registry.counter("telemetry.dropped_events").set(dropped);
            if dropped > 0 {
                eprintln!(
                    "WARNING: telemetry ring dropped {dropped} events; \
                     the trace and every stream-derived output are incomplete"
                );
            }
        }
        if let (Some(path), Some(sink)) = (&self.trace_out, &self.sink) {
            let events = sink.drain();
            let last = events.iter().map(|e| e.at_ps).max().unwrap_or(0);
            let end_ps = horizon_ps.unwrap_or(last).max(last);
            let timeline = PowerTimeline::from_events(&events, end_ps);
            write(path, chrome_trace(&timeline, &events))?;
            eprintln!("[trace saved {} — open in Perfetto or chrome://tracing]", path.display());
            let raw = path.with_extension("jsonl");
            write(&raw, jsonl(&events))?;
            eprintln!("[events saved {}]", raw.display());
        }
        if let Some(path) = &self.metrics_out {
            write(path, self.registry.render_text())?;
            eprintln!("[metrics saved {}]", path.display());
        }
        Ok(())
    }
}

/// Writes `body` to `path`, or returns the message to report.
fn write(path: &Path, body: impl AsRef<[u8]>) -> Result<(), String> {
    fs::write(path, body).map_err(|e| format!("write {}: {e}", path.display()))
}

/// Runs the registered experiment `name` under the process arguments —
/// the entire body of every experiment binary. Exits nonzero with the
/// message on a malformed flag, a device error, an unwritable output, or an
/// acceptance failure.
///
/// # Panics
///
/// Panics if `name` is not in the registry.
pub fn drive(name: &str) {
    let exp = dtl_sim::experiments::find(name)
        .unwrap_or_else(|| panic!("{name} is not in the experiment registry"));
    let outcome = ExperimentCli::from_args()
        .map_err(|e| format!("{name}: {e}"))
        .and_then(|cli| drive_experiment(exp, &cli));
    if let Err(msg) = outcome {
        eprintln!("{msg}");
        std::process::exit(1);
    }
}

/// Runs one registry entry under an already-parsed CLI: build the context,
/// run, print the tables, write `results/<name>.json`, flush telemetry.
/// The `Err` carries the message to report before exiting nonzero.
///
/// # Errors
///
/// Device and configuration errors, unwritable outputs, and
/// [`RunOutput::failure`](dtl_sim::experiments::RunOutput) acceptance
/// failures.
pub fn drive_experiment(exp: &dyn Experiment, cli: &ExperimentCli) -> Result<(), String> {
    let ctx = cli.context();
    let out = exp.run(&ctx).map_err(|e| format!("{}: {e}", exp.name()))?;
    if !out.text.is_empty() {
        println!("{}", out.text);
    }
    if let Some(json) = &out.json {
        let path = cli.json_path(exp.name());
        if let Some(dir) = path.parent() {
            fs::create_dir_all(dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
        }
        write(&path, json)?;
        eprintln!("[saved {}]", path.display());
    }
    if let Some(path) = &cli.timeseries_out {
        match &out.timeseries {
            Some(series) => {
                let body = if path.extension().is_some_and(|e| e == "jsonl") {
                    series.to_jsonl()
                } else {
                    series.to_csv()
                };
                write(path, body)?;
                eprintln!(
                    "[time series saved {} — {} windows of {}s]",
                    path.display(),
                    series.windows().len(),
                    series.width_ps() / 1_000_000_000_000
                );
            }
            None => eprintln!(
                "[--timeseries-out: {} does not produce a windowed series; nothing written]",
                exp.name()
            ),
        }
    }
    cli.finish(out.horizon_ps)?;
    match out.failure {
        Some(msg) => Err(msg),
        None => Ok(()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cli(args: &[&str]) -> ExperimentCli {
        ExperimentCli::parse(args.iter().map(|s| (*s).to_string()).collect()).unwrap()
    }

    #[test]
    fn parses_the_shared_surface() {
        let c = cli(&["--tiny", "--seed", "9", "--jobs", "3", "--out", "x.json"]);
        assert!(c.tiny);
        assert_eq!(c.seed, Some(9));
        assert_eq!(c.jobs, 3);
        assert_eq!(c.out.as_deref(), Some(Path::new("x.json")));
        assert!(!c.telemetry_enabled());
        assert!(!c.context().telemetry.enabled());
    }

    #[test]
    fn quick_is_a_tiny_alias_and_jobs_defaults_to_cores() {
        let c = cli(&["--quick"]);
        assert!(c.tiny);
        assert_eq!(c.jobs, dtl_sim::exec::available_jobs());
        assert_eq!(c.json_path("fig02"), Path::new("results").join("fig02.json"));
    }

    #[test]
    fn telemetry_flags_enable_the_ring_sink() {
        let c = cli(&["--trace-out", "/tmp/t.json"]);
        assert!(c.telemetry_enabled());
        assert!(c.context().telemetry.enabled());
        assert!(c.context().telemetry.metrics().is_some());
    }

    #[test]
    fn jobs_zero_is_clamped_to_one() {
        assert_eq!(cli(&["--jobs", "0"]).jobs, 1);
    }

    #[test]
    fn finish_publishes_the_dropped_event_counter() {
        let dir = std::env::temp_dir().join("dtl_bench_dropped_test");
        fs::create_dir_all(&dir).unwrap();
        let metrics = dir.join("m.txt");
        let c = cli(&["--metrics-out", metrics.to_str().unwrap()]);
        c.finish(None).unwrap();
        let dump = fs::read_to_string(&metrics).unwrap();
        assert!(
            dump.contains("telemetry.dropped_events"),
            "the drop counter must land in the metrics dump: {dump}"
        );
    }

    #[test]
    fn malformed_shared_flags_are_typed_errors() {
        for (args, flag) in [
            (&["--seed", "abc"][..], "--seed"),
            (&["--jobs", "-1"], "--jobs"),
            (&["--timeseries-width-s", "1.5"], "--timeseries-width-s"),
            (&["--timeseries-width-s", "0"], "--timeseries-width-s"),
            (&["--tiny", "--seed"], "--seed"),
        ] {
            let parsed = ExperimentCli::parse(args.iter().map(|s| (*s).to_string()).collect());
            let Err(DtlError::InvalidConfig { reason }) = parsed else {
                panic!("{args:?} must be rejected");
            };
            assert!(reason.starts_with(flag), "{args:?}: {reason}");
        }
    }

    #[test]
    fn malformed_experiment_flags_fail_the_drive() {
        let exp = dtl_sim::experiments::find("pool_failover").unwrap();
        let msg = drive_experiment(exp, &cli(&["--tiny", "--campaigns", "abc"])).unwrap_err();
        assert!(msg.contains("--campaigns expects a u64"), "{msg}");
    }

    #[test]
    fn timeseries_flags_set_the_window_width() {
        let c = cli(&["--timeseries-out", "/tmp/s.csv"]);
        assert_eq!(c.series_width, Some(300 * 1_000_000_000_000));
        assert_eq!(c.context().series_width, c.series_width);
        // The series does not need the ring sink.
        assert!(!c.telemetry_enabled());
        let c = cli(&["--timeseries-out", "/tmp/s.csv", "--timeseries-width-s", "60"]);
        assert_eq!(c.series_width, Some(60 * 1_000_000_000_000));
        // Width without a destination stays off.
        assert_eq!(cli(&["--timeseries-width-s", "60"]).series_width, None);
    }

    #[test]
    fn timeseries_run_writes_windowed_csv() {
        let dir = std::env::temp_dir().join("dtl_bench_series_test");
        fs::create_dir_all(&dir).unwrap();
        let csv = dir.join("vm_campaign.csv");
        let json = dir.join("vm_campaign.json");
        let c = cli(&[
            "--tiny",
            "--jobs",
            "2",
            "--hosts",
            "2",
            "--out",
            json.to_str().unwrap(),
            "--timeseries-out",
            csv.to_str().unwrap(),
            "--timeseries-width-s",
            "3600",
        ]);
        let exp = dtl_sim::experiments::find("vm_campaign").unwrap();
        drive_experiment(exp, &c).unwrap();
        let body = fs::read_to_string(&csv).unwrap();
        assert!(body.starts_with(dtl_telemetry::TIMESERIES_CSV_HEADER));
        assert!(body.lines().count() > 1, "a day of windows follows the header");
    }
}
