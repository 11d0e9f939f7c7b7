//! `pool_failover`: seeded device-retirement campaigns on the tiny
//! four-device pool, alternating one and two retirements, and their traced
//! replica.
//!
//! The replica mirrors `dtl_sim::run_pool_faulted`: five-minute epochs of
//! schedule events, bulk foreground traffic and an access trickle, each
//! driven through a 10 s tick grid on the event spine with the fault plan
//! on a side lane at exact instants. Every fault is followed by a pool
//! invariant check, every retirement and the end of the run by a
//! reachability sweep. The pool charges its links through [`TracedLink`],
//! a point-to-point interconnect that times each call.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use dtl_core::{AnalyticBackend, DtlDevice, DtlError, HostId, MemoryBackend};
use dtl_cxl::{LinkDelivery, LinkRetryStats};
use dtl_dram::{AccessKind, Picos};
use dtl_event::{EventHandler, QueueStats, Sched, Simulation};
use dtl_fabric::{FabricReport, Interconnect, PointToPoint, Route};
use dtl_fault::{FaultKind, PoolFaultInjector, PoolFaultKind};
use dtl_pool::{AnalyticMemoryPool, DeviceId, MemoryPool, PoolError, PoolVmId};
use dtl_sim::exec::{derive_seed, run_units};
use dtl_sim::experiments::pool_failover::{FailoverCampaign, PoolFailoverResult};
use dtl_sim::experiments::RunContext;
use dtl_sim::{to_json, PoolFaultRunConfig, PoolFaultRunResult, PoolRunConfig};
use dtl_telemetry::{LatencySummary, Telemetry};
use dtl_trace::{VmEvent, VmEventKind, VmId, VmSchedule};

use crate::span::{span, Layer, Op};
use crate::{digest, ratio, Metric, Outcome, ReplicaRun, Scale};

/// Sets the registry arguments: the tiny pool with four campaigns,
/// alternating single and double retirements, or two for the self-tests.
/// Four campaigns balance over two workers and average out how much
/// each seed's fault plan asks of the pool.
pub fn configure(ctx: &mut RunContext, scale: Scale) {
    let campaigns = match scale {
        Scale::Bench => 4,
        Scale::Tiny => 2,
    };
    ctx.tiny = true;
    ctx.args = vec!["--campaigns".into(), campaigns.to_string()];
}

/// The base pool replay and campaign count, as the registry derives them.
fn plan(ctx: &RunContext) -> (PoolRunConfig, u64) {
    let seed = ctx.seed_or(1);
    let cfg = if ctx.tiny { PoolRunConfig::tiny(seed) } else { PoolRunConfig::paper(seed) };
    let default = if ctx.tiny { 6 } else { 24 };
    let campaigns = ctx.value("--campaigns").and_then(|v| v.parse().ok()).unwrap_or(default);
    (cfg, campaigns)
}

/// Reduces the batch result to an [`Outcome`].
///
/// # Errors
///
/// When the JSON is not a failover batch of the configured size.
pub fn outcome(ctx: &RunContext, json: &str) -> Result<Outcome, String> {
    let r: PoolFailoverResult = serde_json::from_str(json).map_err(|e| e.to_string())?;
    let (_, campaigns) = plan(ctx);
    if r.campaigns.len() as u64 != campaigns {
        return Err(format!("{} campaigns ran, {campaigns} configured", r.campaigns.len()));
    }
    let mut fidelity = vec![("total_lost_aus".to_string(), r.total_lost_aus.to_string())];
    for (i, c) in r.campaigns.iter().enumerate() {
        fidelity.push((format!("campaign{i}.vms_allocated"), c.result.vms_allocated.to_string()));
        fidelity
            .push((format!("campaign{i}.total_energy_mj"), c.result.total_energy_mj.to_string()));
        fidelity.push((
            format!("campaign{i}.segments_evacuated"),
            c.result.segments_evacuated.to_string(),
        ));
    }
    let faults: u64 = r.campaigns.iter().map(|c| c.result.faults_injected).sum();
    Ok(Outcome {
        digest: digest(&[json]),
        failure: None,
        headline: format!(
            "lost AUs {} across {} campaigns, {} devices retired, {} segments evacuated",
            r.total_lost_aus, campaigns, r.total_devices_retired, r.total_segments_evacuated
        ),
        fidelity,
        work: faults as f64,
    })
}

/// The point-to-point interconnect the pool builds by default, with every
/// call that charges the links timed as a `cxl` span.
#[derive(Debug)]
struct TracedLink {
    inner: PointToPoint,
    transfers: Arc<AtomicU64>,
}

impl Interconnect for TracedLink {
    fn devices(&self) -> u16 {
        self.inner.devices()
    }

    fn route(&self, host: HostId, device: u16) -> Option<Route> {
        self.inner.route(host, device)
    }

    fn round_trip(&self, host: HostId, device: u16) -> Picos {
        span(Op::LinkOther, || self.inner.round_trip(host, device))
    }

    fn submit_at(&mut self, host: HostId, device: u16, bytes: u64, now: Picos) -> LinkDelivery {
        self.transfers.fetch_add(1, Ordering::Relaxed);
        span(Op::LinkSubmit, || self.inner.submit_at(host, device, bytes, now))
    }

    fn charge_bulk(&mut self, host: HostId, device: u16, bytes: u64, now: Picos) -> Picos {
        self.transfers.fetch_add(1, Ordering::Relaxed);
        span(Op::LinkBulk, || self.inner.charge_bulk(host, device, bytes, now))
    }

    fn advance_to(&mut self, now: Picos) {
        span(Op::LinkOther, || self.inner.advance_to(now));
    }

    fn next_activity_at(&self) -> Option<Picos> {
        self.inner.next_activity_at()
    }

    fn inject_crc_burst(&mut self, device: u16, burst: u32) -> bool {
        span(Op::LinkOther, || self.inner.inject_crc_burst(device, burst))
    }

    fn device_stats(&self, device: u16) -> LinkRetryStats {
        self.inner.device_stats(device)
    }

    fn set_device_telemetry(&mut self, device: u16, telemetry: Telemetry) {
        self.inner.set_device_telemetry(device, telemetry);
    }

    fn queue_latency(&self) -> Option<LatencySummary> {
        self.inner.queue_latency()
    }

    fn fabric_report(&self, end: Picos) -> Option<FabricReport> {
        self.inner.fabric_report(end)
    }

    fn stats(&self) -> LinkRetryStats {
        self.inner.stats()
    }
}

/// One campaign ready for its first simulated event.
struct Campaign {
    cfg: PoolFaultRunConfig,
    retirements: u16,
    pool: AnalyticMemoryPool,
    schedule: VmSchedule,
    injector: PoolFaultInjector,
    transfers: Arc<AtomicU64>,
}

fn build_campaign(base: &PoolRunConfig, i: u64) -> Result<Campaign, DtlError> {
    let seed = derive_seed(base.seed, i);
    let retirements = 1 + (i % 2) as u16;
    let cfg =
        PoolFaultRunConfig::retirement_campaign(seed, PoolRunConfig { seed, ..*base }, retirements);
    let injector = span(Op::FaultPlan, || cfg.faults.generate().injector());
    let transfers = Arc::new(AtomicU64::new(0));
    let pc = cfg.run.pool_config();
    let link = TracedLink {
        inner: PointToPoint::new(pc.link, pc.retry, pc.devices),
        transfers: transfers.clone(),
    };
    let mut pool = span(Op::PoolNew, || {
        MemoryPool::with_devices_and_interconnect(pc, Box::new(link), |_, c| {
            span(Op::DevNew, || {
                DtlDevice::with_analytic_geometry(
                    c.dtl,
                    c.channels,
                    c.ranks_per_channel,
                    c.segs_per_rank,
                )
            })
        })
    })
    .map_err(DtlError::from)?;
    span(Op::PoolNew, || -> Result<(), DtlError> {
        pool.set_telemetry(Telemetry::disabled());
        for d in 0..cfg.run.devices {
            let dev = pool.device_mut(DeviceId(d)).expect("configured device");
            dev.set_hotness_enabled(false);
            dev.set_powerdown_enabled(true);
        }
        for h in 0..cfg.run.hosts.max(1) {
            pool.register_host(HostId(h))?;
        }
        Ok(())
    })?;
    let schedule = span(Op::VmSynth, || {
        VmSchedule::synthesize(cfg.run.seed, cfg.run.node, cfg.run.duration_min)
    });
    Ok(Campaign { cfg, retirements, pool, schedule, injector, transfers })
}

/// Builds every campaign's pool, schedule and fault plan and drops them.
///
/// # Errors
///
/// Propagates pool construction errors.
pub fn setup(ctx: &RunContext) -> Result<String, DtlError> {
    let (base, campaigns) = plan(ctx);
    let mut faults = 0;
    for i in 0..campaigns {
        faults += build_campaign(&base, i)?.injector.remaining() as u64;
    }
    Ok(inputs(&base, campaigns, faults))
}

/// The manifest's input sizes.
fn inputs(base: &PoolRunConfig, campaigns: u64, planned_faults: u64) -> String {
    format!(
        "{campaigns} campaigns x {} devices x {} min, {planned_faults} planned faults",
        base.devices, base.duration_min
    )
}

enum GridEv {
    Tick,
    Side,
}

/// One epoch's grid client: ticks advance the pool, the side lane fires
/// due faults.
struct Shim<'x> {
    pool: &'x mut AnalyticMemoryPool,
    injector: &'x mut PoolFaultInjector,
    faults_injected: &'x mut u64,
    lost_aus: &'x mut u64,
    step: Picos,
    end: Picos,
}

impl Shim<'_> {
    fn side_deadline(&mut self) -> Option<Picos> {
        span(Op::FaultPop, || self.injector.peek_next_at())
    }

    fn side_fire(&mut self, now: Picos) -> Result<(), DtlError> {
        let due = span(Op::FaultPop, || self.injector.pop_due(now));
        for fault in due {
            apply_fault(self.pool, fault.kind, now, self.lost_aus)?;
            *self.faults_injected += 1;
            span(Op::PoolCheck, || self.pool.check_invariants()).map_err(DtlError::from)?;
        }
        Ok(())
    }
}

impl EventHandler<GridEv> for Shim<'_> {
    type Error = DtlError;

    fn on_event(
        &mut self,
        now: Picos,
        event: GridEv,
        sched: &mut Sched<'_, GridEv>,
    ) -> Result<(), DtlError> {
        span(Op::Handler, || {
            match event {
                GridEv::Tick => {
                    span(Op::PoolTick, || self.pool.tick(now)).map_err(DtlError::from)?;
                    if now < self.end {
                        span(Op::Post, || sched.post(now + self.step, GridEv::Tick));
                    }
                }
                GridEv::Side => {
                    self.side_fire(now)?;
                    if let Some(at) = self.side_deadline() {
                        if at <= self.end {
                            span(Op::Post, || sched.post(at, GridEv::Side));
                        }
                    }
                }
            }
            Ok(())
        })
    }
}

fn device(
    pool: &mut AnalyticMemoryPool,
    device: u16,
) -> Result<&mut DtlDevice<AnalyticBackend>, DtlError> {
    pool.device_mut(DeviceId(device))
        .ok_or(DtlError::Internal { reason: format!("no device {device}") })
}

fn apply_fault(
    pool: &mut AnalyticMemoryPool,
    kind: PoolFaultKind,
    now: Picos,
    lost_aus: &mut u64,
) -> Result<(), DtlError> {
    match kind {
        PoolFaultKind::Device { device: d, kind } => span(Op::FaultInject, || match kind {
            FaultKind::CorrectableEcc { channel, rank } => {
                device(pool, d)?.inject_correctable_error(channel, rank, now).map(|_| ())
            }
            FaultKind::UncorrectableEcc { channel, rank } => {
                device(pool, d)?.inject_uncorrectable_error(channel, rank, now).map(|_| ())
            }
            FaultKind::LinkCrc { burst } => {
                pool.inject_crc_burst(DeviceId(d), burst).map_err(DtlError::from)
            }
            FaultKind::MigrationInterrupt { channel } => {
                device(pool, d)?.inject_migration_interrupt(channel, now).map(|_| ())
            }
        })?,
        PoolFaultKind::RetireDevice { device } => {
            span(Op::PoolRetire, || pool.retire_device(DeviceId(device), now))
                .map_err(DtlError::from)?;
            *lost_aus += sweep(pool, now);
        }
    }
    Ok(())
}

/// Counts allocation units no access can reach.
fn sweep(pool: &mut AnalyticMemoryPool, now: Picos) -> u64 {
    span(Op::PoolSweep, || {
        let au = pool.config().dtl.au_bytes;
        let mut lost = 0u64;
        for vm in pool.vm_ids() {
            let bytes = pool.vm_bytes(vm).expect("listed VM is live");
            for i in 0..(bytes / au) {
                if pool.access(vm, i * au, AccessKind::Read, now).is_err() {
                    lost += 1;
                }
            }
        }
        lost
    })
}

/// The replay state of one campaign.
struct Driver {
    run: PoolRunConfig,
    pool: AnalyticMemoryPool,
    schedule_events: std::vec::IntoIter<VmEvent>,
    pending: Option<VmEvent>,
    handles: HashMap<VmId, (PoolVmId, u32)>,
    vcpus_active: u32,
    t_min: u32,
    sim: Simulation<GridEv>,
    injector: PoolFaultInjector,
    faults_injected: u64,
    lost_aus: u64,
}

impl Driver {
    fn next_event(&mut self) -> Option<VmEvent> {
        if self.pending.is_none() {
            self.pending = self.schedule_events.next();
        }
        match &self.pending {
            Some(ev) if ev.at_min <= self.t_min => self.pending.take(),
            _ => None,
        }
    }

    fn epoch(&mut self) -> Result<(), DtlError> {
        let t_start = Picos::from_secs(u64::from(self.t_min) * 60);
        while let Some(ev) = self.next_event() {
            match ev.kind {
                VmEventKind::Alloc(vm) => {
                    let host = HostId((vm.id.0 % u32::from(self.run.hosts.max(1))) as u16);
                    match span(Op::PoolAlloc, || self.pool.alloc_vm(host, vm.mem_bytes, t_start)) {
                        Ok(id) => {
                            self.vcpus_active += vm.vcpus;
                            self.handles.insert(vm.id, (id, vm.vcpus));
                        }
                        Err(PoolError::NoCapacity { .. }) => {}
                        Err(e) => return Err(e.into()),
                    }
                }
                VmEventKind::Dealloc(id) => {
                    if let Some((vm, vcpus)) = self.handles.remove(&id) {
                        span(Op::PoolDealloc, || self.pool.dealloc_vm(vm, t_start))
                            .map_err(DtlError::from)?;
                        self.vcpus_active -= vcpus;
                    }
                }
            }
        }
        span(Op::Traffic, || self.record_epoch_traffic(t_start));
        self.access_trickle(t_start)?;
        let t_end = t_start + Picos::from_secs(300);
        self.drive_epoch(t_start, t_end, Picos::from_secs(10))?;
        span(Op::PoolReport, || {
            self.pool.pool_energy(t_end);
            std::hint::black_box(self.pool.snapshot());
        });
        self.t_min += 5;
        Ok(())
    }

    /// Bulk foreground energy for the epoch, split over every
    /// data-retaining rank of the pool.
    fn record_epoch_traffic(&mut self, now: Picos) {
        let bytes = f64::from(self.vcpus_active) * self.run.per_vcpu_bw * 300.0;
        let lines = (bytes / 64.0) as u64;
        let reads = (lines as f64 * self.run.read_fraction) as u64;
        let writes = lines - reads;
        let mut active: Vec<(u16, u32, u32)> = Vec::new();
        for i in 0..self.run.devices {
            let dev = self.pool.device(DeviceId(i)).expect("configured device");
            for c in 0..self.run.channels {
                for r in 0..self.run.ranks_per_channel {
                    if dev.backend().rank_state(c, r).retains_data() {
                        active.push((i, c, r));
                    }
                }
            }
        }
        if active.is_empty() {
            return;
        }
        let per = active.len() as u64;
        for (i, c, r) in active {
            let dev = self.pool.device_mut(DeviceId(i)).expect("configured device");
            dev.backend_mut().record_foreground_bulk(c, r, reads / per, writes / per);
            dev.note_rank_traffic(c, r, now);
        }
    }

    fn access_trickle(&mut self, t_start: Picos) -> Result<(), DtlError> {
        let au = self.pool.config().dtl.au_bytes;
        let round = u64::from(self.t_min) / 5;
        let burst = self.run.trickle_burst.max(1);
        for vm in self.pool.vm_ids() {
            let bytes = self.pool.vm_bytes(vm).expect("listed VM is live");
            let base = (round % (bytes / au).max(1)) * au;
            for k in 0..burst {
                let offset = base + (k * 64) % au;
                span(Op::PoolAccess, || self.pool.access(vm, offset, AccessKind::Read, t_start))
                    .map_err(DtlError::from)?;
            }
        }
        Ok(())
    }

    /// The registry's tick-grid shim: ticks at `start + k·step` through
    /// `end`, faults on the side lane at their exact instants.
    fn drive_epoch(&mut self, start: Picos, end: Picos, step: Picos) -> Result<(), DtlError> {
        if start >= end {
            return Ok(());
        }
        let sim = &mut self.sim;
        let mut shim = Shim {
            pool: &mut self.pool,
            injector: &mut self.injector,
            faults_injected: &mut self.faults_injected,
            lost_aus: &mut self.lost_aus,
            step,
            end,
        };
        span(Op::Post, || sim.post(start + step, GridEv::Tick));
        if let Some(at) = shim.side_deadline() {
            if at <= end {
                span(Op::Post, || sim.post(at, GridEv::Side));
            }
        }
        while span(Op::Step, || sim.step(&mut shim))? {}
        Ok(())
    }
}

/// Per-campaign counts the result does not carry.
#[derive(Default)]
struct CampaignCounts {
    schedule_events: u64,
    planned_faults: u64,
    queue: QueueStats,
    transfers: u64,
    link: LinkRetryStats,
}

fn run_campaign(
    base: &PoolRunConfig,
    i: u64,
) -> Result<(FailoverCampaign, CampaignCounts), DtlError> {
    let Campaign { cfg, retirements, pool, schedule, injector, transfers } =
        build_campaign(base, i)?;
    let schedule_events = schedule.events().len() as u64;
    let planned_faults = injector.remaining() as u64;
    let mut d = Driver {
        run: cfg.run,
        pool,
        schedule_events: schedule.events().to_vec().into_iter(),
        pending: None,
        handles: HashMap::new(),
        vcpus_active: 0,
        t_min: 0,
        sim: Simulation::new(Picos::ZERO),
        injector,
        faults_injected: 0,
        lost_aus: 0,
    };
    while d.t_min < cfg.run.duration_min {
        d.epoch()?;
    }
    let final_t = Picos::from_secs(u64::from(cfg.run.duration_min) * 60);
    d.lost_aus += sweep(&mut d.pool, final_t);
    let energy = span(Op::PoolReport, || d.pool.pool_energy(final_t));
    span(Op::PoolCheck, || d.pool.check_invariants()).map_err(DtlError::from)?;
    let snap = span(Op::PoolReport, || d.pool.snapshot());
    let result = PoolFaultRunResult {
        total_energy_mj: energy.total_mj(),
        vms_allocated: snap.stats.admitted_vms,
        faults_injected: d.faults_injected,
        devices_retired: snap.stats.devices_retired,
        failovers: snap.stats.failovers,
        evacuations_completed: snap.stats.evacuations_completed,
        segments_evacuated: snap.stats.segments_evacuated,
        lost_aus: d.lost_aus,
        errors: snap.errors,
        link: snap.link,
        stats: snap.stats,
    };
    let counts = CampaignCounts {
        schedule_events,
        planned_faults,
        queue: d.sim.queue_stats(),
        transfers: transfers.load(Ordering::Relaxed),
        link: d.pool.interconnect().stats(),
    };
    Ok((FailoverCampaign { seed: cfg.run.seed, retirements, result }, counts))
}

/// The traced replica of the campaign batch at `jobs = 1`.
///
/// # Errors
///
/// Propagates pool and device errors.
pub fn replica(ctx: &RunContext) -> Result<ReplicaRun, DtlError> {
    let (base, campaigns) = plan(ctx);
    let units: Vec<u64> = (0..campaigns).collect();
    let outcomes = span(Op::RunUnits, || {
        run_units(1, units, |_, i| span(Op::Unit, || run_campaign(&base, i)))
    });
    let mut out = PoolFailoverResult {
        campaigns: Vec::with_capacity(campaigns as usize),
        total_lost_aus: 0,
        total_devices_retired: 0,
        total_failovers: 0,
        total_evacuations: 0,
        total_segments_evacuated: 0,
    };
    let mut totals = CampaignCounts::default();
    let mut faults = 0;
    for outcome in outcomes {
        let (c, counts) = outcome?;
        out.total_lost_aus += c.result.lost_aus;
        out.total_devices_retired += c.result.devices_retired;
        out.total_failovers += c.result.failovers;
        out.total_evacuations += c.result.evacuations_completed;
        out.total_segments_evacuated += c.result.segments_evacuated;
        faults += c.result.faults_injected;
        out.campaigns.push(c);
        totals.schedule_events += counts.schedule_events;
        totals.planned_faults += counts.planned_faults;
        totals.queue.merge_from(&counts.queue);
        totals.transfers += counts.transfers;
        totals.link.merge_from(&counts.link);
    }
    let failure = (out.total_lost_aus > 0).then(|| {
        format!(
            "{} allocation units lost across {} campaigns — failover must be lossless",
            out.total_lost_aus, campaigns
        )
    });
    let q = totals.queue;
    Ok(ReplicaRun {
        json: to_json(&out),
        series: None,
        failure,
        layers: vec![
            Layer::Trace,
            Layer::Event,
            Layer::Exec,
            Layer::Core,
            Layer::Pool,
            Layer::Cxl,
            Layer::Fault,
        ],
        ops: vec![
            (Op::VmSynth, "trace.vm_synth", false),
            (Op::PoolAccess, "pool.access", true),
            (Op::PoolTick, "pool.tick", false),
            (Op::PoolCheck, "pool.check_invariants", true),
            (Op::PoolSweep, "pool.sweep", false),
            (Op::PoolRetire, "pool.retire", false),
            (Op::FaultInject, "fault.inject", false),
        ],
        counts: vec![
            Metric::new("trace.records", "count", totals.schedule_events as f64),
            Metric::new("event.posts", "count", q.posted as f64),
            Metric::new("event.pops", "count", q.popped as f64),
            Metric::new("event.cancels", "count", q.cancelled as f64),
            Metric::new("event.cancel_ratio", "ratio", ratio(q.cancelled, q.posted)),
            Metric::new("pool.evacuations", "count", out.total_evacuations as f64),
            Metric::new("pool.segments_evacuated", "count", out.total_segments_evacuated as f64),
            Metric::new("cxl.transfers", "count", totals.transfers as f64),
            Metric::new("cxl.crc_errors", "count", totals.link.crc_errors as f64),
            Metric::new("cxl.retries", "count", totals.link.retries as f64),
            Metric::new("cxl.retry_ratio", "ratio", ratio(totals.link.retries, totals.transfers)),
            Metric::new("fault.injected", "count", faults as f64),
        ],
        inputs: inputs(&base, campaigns, totals.planned_faults),
    })
}
