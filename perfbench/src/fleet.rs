//! `fleet_churn`: the `vm_campaign` fleet replay with the 300 s windowed
//! time series on, and its traced replica.
//!
//! The replica mirrors `dtl_sim::run_campaign_observed`: every host is an
//! exec unit that synthesizes its VM schedule, builds its device and
//! replays the schedule on its own event spine, re-arming the device's
//! next deadline after every event. The devices stream telemetry into a
//! [`TimeSeriesSink`] behind [`FoldSink`], which times each fold.

use std::collections::{HashMap, HashSet};
use std::sync::Arc;

use dtl_core::{AnalyticBackend, DtlDevice, DtlError, HostId, VmHandle};
use dtl_dram::{Picos, PowerParams};
use dtl_event::{EventHandler, EventId, QueueStats, Sched, Simulation};
use dtl_sim::exec::{derive_seed, run_units};
use dtl_sim::experiments::RunContext;
use dtl_sim::{to_json, HostOutcome, VmCampaignConfig, VmCampaignResult};
use dtl_telemetry::{Event, Telemetry, TelemetrySink, TimeSeries, TimeSeriesSink};
use dtl_trace::{VmEvent, VmEventKind, VmId, VmSchedule};

use crate::span::{span, Layer, Op};
use crate::{digest, ratio, Metric, Outcome, ReplicaRun, Scale};

/// The time-series window campaign users run with.
const SERIES_WIDTH_S: u64 = 300;

/// Sets the registry arguments: 20 hosts over two weeks, or 2 hosts over
/// a day for the self-tests.
pub fn configure(ctx: &mut RunContext, scale: Scale) {
    let (hosts, minutes) = match scale {
        Scale::Bench => (20, 14 * 24 * 60),
        Scale::Tiny => (2, 24 * 60),
    };
    ctx.tiny = true;
    ctx.args = vec!["--hosts".into(), hosts.to_string(), "--minutes".into(), minutes.to_string()];
    ctx.series_width = Some(Picos::from_secs(SERIES_WIDTH_S).as_ps());
}

/// The campaign configuration the registry derives from `ctx`.
fn campaign(ctx: &RunContext) -> VmCampaignConfig {
    let seed = ctx.seed_or(1);
    let mut cfg =
        if ctx.tiny { VmCampaignConfig::tiny(seed) } else { VmCampaignConfig::paper(seed) };
    if let Some(n) = ctx.value("--hosts").and_then(|v| v.parse().ok()) {
        cfg.hosts = n;
    }
    if let Some(n) = ctx.value("--minutes").and_then(|v| v.parse().ok()) {
        cfg.duration_min = n;
    }
    cfg
}

/// Reduces the campaign result and its series to an [`Outcome`].
///
/// # Errors
///
/// When the JSON is not a campaign result or the series is missing.
pub fn outcome(
    ctx: &RunContext,
    json: &str,
    series: Option<&TimeSeries>,
) -> Result<Outcome, String> {
    let r: VmCampaignResult = serde_json::from_str(json).map_err(|e| e.to_string())?;
    let csv = series.ok_or("the campaign produced no time series")?.to_csv();
    let cfg = campaign(ctx);
    if r.hosts != cfg.hosts || r.events_processed == 0 || r.vms_placed == 0 {
        return Err(format!(
            "implausible campaign result: {} hosts, {} events",
            r.hosts, r.events_processed
        ));
    }
    Ok(Outcome {
        digest: digest(&[json, &csv]),
        failure: None,
        headline: format!("fleet background saving {:.4}%", r.savings_fraction * 100.0),
        fidelity: vec![
            ("events_processed".into(), r.events_processed.to_string()),
            ("vms_placed".into(), r.vms_placed.to_string()),
            ("total_energy_mj".into(), r.total_energy_mj.to_string()),
        ],
        work: r.events_processed as f64,
    })
}

/// A host ready for its first simulated event.
struct Host {
    seed: u64,
    schedule: VmSchedule,
    dev: DtlDevice<AnalyticBackend>,
    series: Arc<TimeSeriesSink>,
}

/// Wraps the time-series sink so each fold is a span.
#[derive(Debug)]
struct FoldSink(Arc<TimeSeriesSink>);

impl TelemetrySink for FoldSink {
    fn record(&self, event: Event) {
        span(Op::Fold, || self.0.fold(&event));
    }
}

fn build_host(cfg: &VmCampaignConfig, index: u64, width_ps: u64) -> Result<Host, DtlError> {
    let seed = derive_seed(cfg.seed, index);
    let schedule = span(Op::VmSynth, || VmSchedule::synthesize(seed, cfg.node, cfg.duration_min));
    let mut dev = span(Op::DevNew, || {
        let backend = AnalyticBackend::new(
            cfg.geometry(),
            cfg.dtl_config().segment_bytes,
            PowerParams::ddr4_128gb_dimm(),
        );
        let mut dev = DtlDevice::new(cfg.dtl_config(), backend);
        dev.set_hotness_enabled(false);
        dev.register_host(HostId(0)).map(|()| dev)
    })?;
    let series = Arc::new(TimeSeriesSink::new(width_ps));
    let geo = cfg.geometry();
    for c in 0..geo.channels {
        for r in 0..geo.ranks_per_channel {
            series.ensure_rank(c, r);
        }
    }
    dev.set_telemetry(Telemetry::new(Arc::new(FoldSink(series.clone()))));
    Ok(Host { seed, schedule, dev, series })
}

/// Builds every host of the campaign and drops them.
///
/// # Errors
///
/// Propagates device construction errors.
pub fn setup(ctx: &RunContext) -> Result<String, DtlError> {
    let cfg = campaign(ctx);
    let width = ctx.series_width.expect("configured with a series width");
    let mut vm_events = 0;
    for i in 0..cfg.hosts {
        vm_events += build_host(&cfg, u64::from(i), width)?.schedule.events().len() as u64;
    }
    Ok(inputs(&cfg, vm_events))
}

/// The manifest's input sizes.
fn inputs(cfg: &VmCampaignConfig, vm_events: u64) -> String {
    format!(
        "{} hosts x {} min, {vm_events} VM schedule events, {SERIES_WIDTH_S} s series windows",
        cfg.hosts, cfg.duration_min
    )
}

enum HostEv {
    Schedule,
    Device,
}

struct Runner<'a> {
    dev: &'a mut DtlDevice<AnalyticBackend>,
    events: &'a [VmEvent],
    cursor: usize,
    handles: HashMap<VmId, VmHandle>,
    rejected: HashSet<VmId>,
    vms_placed: u64,
    vms_rejected: u64,
    device_ev: Option<(Picos, EventId)>,
}

fn at(ev: &VmEvent) -> Picos {
    Picos::from_secs(u64::from(ev.at_min) * 60)
}

impl Runner<'_> {
    fn apply_due_schedule(&mut self, now: Picos) -> Result<(), DtlError> {
        while let Some(ev) = self.events.get(self.cursor) {
            if at(ev) > now {
                break;
            }
            self.cursor += 1;
            match ev.kind {
                VmEventKind::Alloc(vm) => {
                    match span(Op::Alloc, || self.dev.alloc_vm(HostId(0), vm.mem_bytes, now)) {
                        Ok(alloc) => {
                            self.vms_placed += 1;
                            self.handles.insert(vm.id, alloc.handle);
                        }
                        Err(DtlError::OutOfCapacity { .. }) => {
                            self.vms_rejected += 1;
                            self.rejected.insert(vm.id);
                        }
                        Err(e) => return Err(e),
                    }
                }
                VmEventKind::Dealloc(id) => {
                    if let Some(h) = self.handles.remove(&id) {
                        span(Op::Dealloc, || self.dev.dealloc_vm(h, now))?;
                    } else {
                        self.rejected.remove(&id);
                    }
                }
            }
        }
        Ok(())
    }

    fn rearm_device(&mut self, now: Picos, sched: &mut Sched<'_, HostEv>) {
        let want = span(Op::NextActivity, || self.dev.next_activity_at()).map(|t| t.max(now));
        if want == self.device_ev.map(|(t, _)| t) {
            return;
        }
        if let Some((_, id)) = self.device_ev.take() {
            span(Op::Cancel, || sched.cancel(id));
        }
        if let Some(t) = want {
            let id = span(Op::Post, || sched.post(t, HostEv::Device));
            self.device_ev = Some((t, id));
        }
    }
}

impl EventHandler<HostEv> for Runner<'_> {
    type Error = DtlError;

    fn on_event(
        &mut self,
        now: Picos,
        event: HostEv,
        sched: &mut Sched<'_, HostEv>,
    ) -> Result<(), DtlError> {
        span(Op::Handler, || {
            match event {
                HostEv::Schedule => {
                    self.apply_due_schedule(now)?;
                    if let Some(ev) = self.events.get(self.cursor) {
                        span(Op::Post, || sched.post(at(ev), HostEv::Schedule));
                    }
                }
                HostEv::Device => {
                    self.device_ev = None;
                    span(Op::Tick, || self.dev.tick(now))?;
                }
            }
            self.rearm_device(now, sched);
            Ok(())
        })
    }
}

/// Per-host counts the result does not carry.
#[derive(Default)]
struct HostCounts {
    schedule_events: u64,
    queue: QueueStats,
    migrations_completed: u64,
    migration_aborts: u64,
    backlog_high_water: u64,
}

fn run_host(
    cfg: &VmCampaignConfig,
    index: u64,
    width_ps: u64,
) -> Result<(HostOutcome, TimeSeries, HostCounts), DtlError> {
    let Host { seed, schedule, mut dev, series } = build_host(cfg, index, width_ps)?;
    let mut sim = Simulation::new(Picos::ZERO);
    let horizon = cfg.horizon();
    let (vms_placed, vms_rejected) = {
        let mut runner = Runner {
            dev: &mut dev,
            events: schedule.events(),
            cursor: 0,
            handles: HashMap::new(),
            rejected: HashSet::new(),
            vms_placed: 0,
            vms_rejected: 0,
            device_ev: None,
        };
        if let Some(ev) = runner.events.first() {
            span(Op::Post, || sim.post(at(ev), HostEv::Schedule));
        }
        // `Simulation::step_until`, one traced step at a time.
        while sim.next_at().is_some_and(|t| t <= horizon) {
            span(Op::Step, || sim.step(&mut runner))?;
        }
        (runner.vms_placed, runner.vms_rejected)
    };
    let report = span(Op::Report, || {
        let _ = dev.drain_commands();
        dev.power_report(horizon)
    });
    span(Op::Check, || dev.check_invariants())?;
    let pd = dev.powerdown_stats();
    let outcome = HostOutcome {
        seed,
        vms_placed,
        vms_rejected,
        groups_powered_down: pd.groups_powered_down,
        groups_woken: pd.groups_woken,
        segments_drained: pd.segments_drained,
        events_processed: sim.events_processed(),
        energy_mj: report.total.total_mj(),
        background_mj: report.total.background_mj,
    };
    let counts = HostCounts {
        schedule_events: schedule.events().len() as u64,
        queue: sim.queue_stats(),
        migrations_completed: dev.migration_stats().completed,
        migration_aborts: dev.migration_stats().aborts,
        backlog_high_water: dev.migration_backlog_high_water(),
    };
    Ok((outcome, series.finish(horizon.as_ps()), counts))
}

/// The traced replica of the campaign at `jobs = 1`.
///
/// # Errors
///
/// Propagates device errors.
pub fn replica(ctx: &RunContext) -> Result<ReplicaRun, DtlError> {
    const SAMPLE_HOSTS: usize = 8;
    let cfg = campaign(ctx);
    let width = ctx.series_width.expect("configured with a series width");
    let units: Vec<u32> = (0..cfg.hosts).collect();
    let outcomes = span(Op::RunUnits, || {
        run_units(1, units, |i, _| span(Op::Unit, || run_host(&cfg, i as u64, width)))
    });
    let baseline_host = span(Op::Report, || {
        let mut dev: DtlDevice<AnalyticBackend> = DtlDevice::new(
            cfg.dtl_config(),
            AnalyticBackend::new(
                cfg.geometry(),
                cfg.dtl_config().segment_bytes,
                PowerParams::ddr4_128gb_dimm(),
            ),
        );
        dev.power_report(cfg.horizon()).total.total_mj()
    });
    let mut out = VmCampaignResult {
        hosts: cfg.hosts,
        duration_min: cfg.duration_min,
        vms_placed: 0,
        vms_rejected: 0,
        groups_powered_down: 0,
        groups_woken: 0,
        segments_drained: 0,
        events_processed: 0,
        total_energy_mj: 0.0,
        baseline_energy_mj: baseline_host * f64::from(cfg.hosts),
        savings_fraction: 0.0,
        sample: Vec::new(),
    };
    let mut series = TimeSeries::new(width);
    let mut totals = HostCounts::default();
    for outcome in outcomes {
        let (h, host_series, counts) = outcome?;
        out.vms_placed += h.vms_placed;
        out.vms_rejected += h.vms_rejected;
        out.groups_powered_down += h.groups_powered_down;
        out.groups_woken += h.groups_woken;
        out.segments_drained += h.segments_drained;
        out.events_processed += h.events_processed;
        out.total_energy_mj += h.energy_mj;
        if out.sample.len() < SAMPLE_HOSTS {
            out.sample.push(h);
        }
        series.merge_from(&host_series);
        totals.schedule_events += counts.schedule_events;
        totals.queue.merge_from(&counts.queue);
        totals.migrations_completed += counts.migrations_completed;
        totals.migration_aborts += counts.migration_aborts;
        totals.backlog_high_water = totals.backlog_high_water.max(counts.backlog_high_water);
    }
    if out.baseline_energy_mj > 0.0 {
        out.savings_fraction = 1.0 - out.total_energy_mj / out.baseline_energy_mj;
    }
    let q = totals.queue;
    let counts = vec![
        Metric::new("trace.records", "count", totals.schedule_events as f64),
        Metric::new("event.posts", "count", q.posted as f64),
        Metric::new("event.pops", "count", q.popped as f64),
        Metric::new("event.cancels", "count", q.cancelled as f64),
        Metric::new("event.cancel_ratio", "ratio", ratio(q.cancelled, q.posted)),
        Metric::new("core.alloc.rejected", "count", out.vms_rejected as f64),
        Metric::new("migrate.completed", "count", totals.migrations_completed as f64),
        Metric::new("migrate.aborted", "count", totals.migration_aborts as f64),
        Metric::new(
            "migrate.useful_ratio",
            "ratio",
            ratio(
                totals.migrations_completed,
                totals.migrations_completed + totals.migration_aborts,
            ),
        ),
        Metric::new("migrate.backlog_high_water", "count", totals.backlog_high_water as f64),
        Metric::new("powerdown.groups_down", "count", out.groups_powered_down as f64),
        Metric::new("powerdown.groups_woken", "count", out.groups_woken as f64),
    ];
    Ok(ReplicaRun {
        json: to_json(&out),
        series: Some(series),
        failure: None,
        layers: vec![Layer::Trace, Layer::Event, Layer::Exec, Layer::Core, Layer::Telemetry],
        ops: vec![
            (Op::VmSynth, "trace.vm_synth", false),
            (Op::Alloc, "core.alloc", true),
            (Op::Dealloc, "core.dealloc", true),
            (Op::Tick, "core.tick", true),
            (Op::Fold, "telemetry.fold", false),
        ],
        counts,
        inputs: inputs(&cfg, totals.schedule_events),
    })
}
