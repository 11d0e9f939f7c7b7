//! `access_replay`: the Figure 14 sweep — four allocation points, each
//! replayed with hotness-aware self-refresh off and on — and its traced
//! replica.
//!
//! The replica mirrors `dtl_sim::run_hotness`: build a device whose live
//! and free AUs are fragmented across every rank, then replay the mixed
//! trace one access at a time with a tick every 256 accesses. It also
//! records each run's HSN stream and, offline, replays it through a fresh
//! [`Translator`] over [`MappingTables`] rebuilt from the device's final
//! mappings: that is the `core.translate_s` figure.

use std::collections::BTreeMap;
use std::time::Instant;

use dtl_core::{
    AnalyticBackend, DtlConfig, DtlDevice, DtlError, HostId, HostPhysAddr, MappingTables,
    SegmentGeometry, SmcStats, Translator,
};
use dtl_dram::{AccessKind, Picos, PowerParams};
use dtl_sim::exec::run_units;
use dtl_sim::experiments::fig14::{self, Fig14Result, Fig14Row};
use dtl_sim::experiments::RunContext;
use dtl_sim::{to_json, HotnessRunConfig};
use dtl_telemetry::Telemetry;
use dtl_trace::{Mixer, WorkloadKind, WorkloadSpec};

use crate::span::{offline, span, Layer, Op};
use crate::{digest, ratio, Metric, Outcome, ReplicaRun, Scale};

/// Selects the paper-scaled sweep (6 M accesses per run at 1/128 scale),
/// or the registry's tiny one (1 M at 1/256) for the self-tests.
pub fn configure(ctx: &mut RunContext, scale: Scale) {
    ctx.tiny = scale == Scale::Tiny;
}

/// The sweep's base configuration, as the registry derives it.
fn base(ctx: &RunContext) -> HotnessRunConfig {
    let mut base = HotnessRunConfig::paper_scaled(ctx.seed_or(1), 6, 208.0 / 288.0);
    if ctx.tiny {
        base.accesses = 1_000_000;
        base.scale = 256;
    }
    base
}

/// The configuration of every replay of the sweep: each point off, then on.
fn runs(ctx: &RunContext) -> Vec<HotnessRunConfig> {
    let base = base(ctx);
    fig14::PAPER_POINTS
        .iter()
        .flat_map(|&(_, ranks, frac)| {
            [false, true].map(|hotness| HotnessRunConfig {
                active_ranks: ranks,
                allocated_fraction: frac,
                hotness,
                ..base
            })
        })
        .collect()
}

/// Reduces the sweep result to an [`Outcome`].
///
/// # Errors
///
/// When the JSON is not a Figure 14 result or its rows are implausible.
pub fn outcome(ctx: &RunContext, json: &str) -> Result<Outcome, String> {
    let r: Fig14Result = serde_json::from_str(json).map_err(|e| e.to_string())?;
    if r.rows.len() != fig14::PAPER_POINTS.len()
        || r.rows.iter().any(|row| !row.additional_saving.is_finite())
    {
        return Err(format!("implausible Figure 14 result: {} rows", r.rows.len()));
    }
    let savings: Vec<String> = r
        .rows
        .iter()
        .map(|row| format!("{} {:.4}%", row.label, row.additional_saving * 100.0))
        .collect();
    let mut fidelity = Vec::new();
    for row in &r.rows {
        fidelity
            .push((format!("{}.additional_saving", row.label), row.additional_saving.to_string()));
        fidelity.push((format!("{}.sr_exits", row.label), row.sr_exits.to_string()));
    }
    let runs = runs(ctx);
    Ok(Outcome {
        digest: digest(&[json]),
        failure: None,
        headline: format!("Fig. 14 extra saving {}", savings.join(", ")),
        fidelity,
        work: runs.iter().map(|c| c.accesses as f64).sum(),
    })
}

/// A device fragmented as the harness leaves it, ready to replay.
struct Replay {
    dtl: DtlConfig,
    geo: SegmentGeometry,
    dev: DtlDevice<AnalyticBackend>,
    mix: Mixer,
    app_au_bases: Vec<Vec<HostPhysAddr>>,
}

fn build(cfg: &HotnessRunConfig) -> Result<Replay, DtlError> {
    let mut dtl = DtlConfig::paper();
    dtl.au_bytes = (2 << 30) / cfg.scale;
    dtl.profile_window = Picos::from_ps(Picos::from_us(500).as_ps() / cfg.scale);
    dtl.profile_threshold = Picos::from_ps(Picos::from_ms(50).as_ps() / cfg.scale);
    // A paper rank is 12 GiB of 2 MiB segments.
    let geo = SegmentGeometry {
        channels: cfg.channels,
        ranks_per_channel: cfg.active_ranks,
        segs_per_rank: 6144 / cfg.scale,
    };
    let mut dev = span(Op::DevNew, || {
        let mut backend =
            AnalyticBackend::new(geo, dtl.segment_bytes, PowerParams::ddr4_128gb_dimm());
        backend.migration_bw_bytes_per_sec *= cfg.scale as f64;
        let mut dev = DtlDevice::new(dtl, backend);
        dev.set_telemetry(Telemetry::disabled());
        dev.set_powerdown_enabled(false);
        dev.set_hotness_enabled(cfg.hotness);
        dev.register_host(HostId(0)).map(|()| dev)
    })?;
    let capacity = geo.total_segments() * dtl.segment_bytes;
    let allocated = (capacity as f64 * cfg.allocated_fraction) as u64;
    let per_app = (allocated / cfg.n_apps as u64 / dtl.au_bytes).max(1) * dtl.au_bytes;
    let specs: Vec<WorkloadSpec> = WorkloadKind::TRACED
        .iter()
        .cycle()
        .take(cfg.n_apps)
        .map(|k| WorkloadSpec { working_set_bytes: per_app, ..k.spec() })
        .collect();
    let mix = span(Op::MixNew, || Mixer::new(&specs, cfg.seed));
    // Live and free AUs interleaved over every rank, as after churn.
    let per_app_aus = per_app / dtl.au_bytes;
    let total_aus = capacity / dtl.au_bytes;
    let filler_aus = total_aus - per_app_aus * cfg.n_apps as u64;
    let mut app_au_bases: Vec<Vec<HostPhysAddr>> = vec![Vec::new(); cfg.n_apps];
    let mut fillers = Vec::new();
    let mut filler_credit = 0.0f64;
    let filler_per_slot = filler_aus as f64 / (per_app_aus * cfg.n_apps as u64).max(1) as f64;
    for _ in 0..per_app_aus {
        for bases in app_au_bases.iter_mut() {
            let vm = span(Op::Alloc, || dev.alloc_vm(HostId(0), dtl.au_bytes, Picos::ZERO))?;
            bases.push(vm.hpa_base(0, dtl.au_bytes));
            filler_credit += filler_per_slot;
            while filler_credit >= 1.0 {
                filler_credit -= 1.0;
                let f = span(Op::Alloc, || dev.alloc_vm(HostId(0), dtl.au_bytes, Picos::ZERO))?;
                fillers.push(f.handle);
            }
        }
    }
    for f in fillers {
        span(Op::Dealloc, || dev.dealloc_vm(f, Picos::ZERO))?;
    }
    Ok(Replay { dtl, geo, dev, mix, app_au_bases })
}

/// Builds every fragmented device of the sweep and drops them.
///
/// # Errors
///
/// Propagates device errors.
pub fn setup(ctx: &RunContext) -> Result<String, DtlError> {
    for cfg in &runs(ctx) {
        build(cfg)?;
    }
    Ok(inputs(ctx))
}

/// The manifest's input sizes.
fn inputs(ctx: &RunContext) -> String {
    let base = base(ctx);
    format!(
        "{} allocation points x hotness off/on, {} accesses per run, 1/{} scale",
        runs(ctx).len() / 2,
        base.accesses,
        base.scale
    )
}

/// What one replay reports beyond the Figure 14 row.
#[derive(Debug, Default, Clone, Copy)]
struct Counts {
    smc: SmcStats,
    migrations_completed: u64,
    migration_aborts: u64,
    backlog_high_water: u64,
    swaps_planned: u64,
    sr_entries: u64,
    sr_exits: u64,
    translate_s: f64,
}

impl Counts {
    fn add(&mut self, o: &Counts) {
        self.smc.l1_hits += o.smc.l1_hits;
        self.smc.l1_misses += o.smc.l1_misses;
        self.smc.l2_hits += o.smc.l2_hits;
        self.smc.l2_misses += o.smc.l2_misses;
        self.migrations_completed += o.migrations_completed;
        self.migration_aborts += o.migration_aborts;
        self.backlog_high_water = self.backlog_high_water.max(o.backlog_high_water);
        self.swaps_planned += o.swaps_planned;
        self.sr_entries += o.sr_entries;
        self.sr_exits += o.sr_exits;
        self.translate_s += o.translate_s;
    }
}

/// The fields of `HotnessRunResult` Figure 14 reads.
struct Run {
    stable_power_mw: f64,
    sr_residency: f64,
    first_sr_entry: Option<Picos>,
    sr_exits: u64,
    counts: Counts,
}

fn run_hotness(cfg: &HotnessRunConfig) -> Result<Run, DtlError> {
    let Replay { dtl, geo, mut dev, mut mix, app_au_bases } = build(cfg)?;
    let dt = Picos::from_ps((64.0 / cfg.target_bw * 1e12) as u64);
    let mut now = Picos::from_ns(1);
    let mut first_sr_entry = None;
    let stable_from = cfg.accesses * 6 / 10;
    let mut stable_start: Option<(Picos, f64)> = None;
    let mut segments: Vec<u32> = Vec::with_capacity(cfg.accesses as usize);
    for i in 0..cfg.accesses {
        let r = span(Op::NextRecord, || mix.next_record());
        let local = r.addr - mix.base_of(r.instance);
        let au_idx = (local / dtl.au_bytes) as usize;
        let hpa = app_au_bases[r.instance as usize][au_idx].offset_by(local % dtl.au_bytes);
        let kind = if r.is_write { AccessKind::Write } else { AccessKind::Read };
        segments.push(
            u32::try_from(hpa.as_u64() / dtl.segment_bytes).expect("a host's segments fit u32"),
        );
        span(Op::Access, || dev.access(HostId(0), hpa, kind, now))?;
        now += dt;
        if i % 256 == 0 {
            span(Op::Tick, || dev.tick(now))?;
            if first_sr_entry.is_none() && dev.hotness_stats().sr_entries > 0 {
                first_sr_entry = Some(now);
            }
        }
        if i == stable_from {
            let rep = span(Op::Report, || dev.power_report(now));
            stable_start = Some((now, rep.total.total_mj()));
        }
    }
    span(Op::Tick, || dev.tick(now))?;
    span(Op::Check, || dev.check_invariants())?;
    let report = span(Op::Report, || dev.power_report(now));
    let sr_ps: u128 = report
        .residency
        .iter()
        .flat_map(|ch| ch.iter())
        .map(|rank_res| u128::from(rank_res[3].as_ps())) // PowerState::ALL[3] = SelfRefresh
        .sum();
    let total_ps = u128::from(now.as_ps()) * u128::from(geo.channels * geo.ranks_per_channel);
    let (t0, e0) = stable_start.expect("stable point sampled");
    let translated = offline(|| translate_replay(&dev, &dtl, &segments));
    let hs = dev.hotness_stats();
    Ok(Run {
        stable_power_mw: (report.total.total_mj() - e0) / (now - t0).as_secs_f64(),
        sr_residency: sr_ps as f64 / total_ps as f64,
        first_sr_entry,
        sr_exits: hs.sr_exits,
        counts: Counts {
            smc: dev.smc_stats(),
            migrations_completed: dev.migration_stats().completed,
            migration_aborts: dev.migration_stats().aborts,
            backlog_high_water: dev.migration_backlog_high_water(),
            swaps_planned: hs.swaps_planned,
            sr_entries: hs.sr_entries,
            sr_exits: hs.sr_exits,
            translate_s: translated?,
        },
    })
}

/// Replays the recorded segment stream through a fresh translator over
/// tables rebuilt from the device's final mappings; returns the seconds
/// the replay took, table rebuild excluded.
fn translate_replay(
    dev: &DtlDevice<AnalyticBackend>,
    dtl: &DtlConfig,
    segments: &[u32],
) -> Result<f64, DtlError> {
    let mut aus: BTreeMap<(HostId, dtl_core::AuId), Vec<(u32, dtl_core::Dsn)>> = BTreeMap::new();
    for (dsn, hsn) in dev.mapped_entries() {
        aus.entry((hsn.host, hsn.au)).or_default().push((hsn.au_offset, dsn));
    }
    let mut tables = MappingTables::new(dtl.segments_per_au());
    tables.register_host(HostId(0));
    for ((host, au), mut slots) in aus {
        slots.sort_unstable();
        tables.create_au(host, au, slots.into_iter().map(|(_, dsn)| dsn).collect())?;
    }
    let mut translator = Translator::new(dtl);
    let dram = Picos::from_ns(50);
    let start = Instant::now();
    for &seg in segments {
        let hpa = HostPhysAddr::new(u64::from(seg) * dtl.segment_bytes);
        std::hint::black_box(translator.translate(HostId(0), hpa, &tables, dram)?);
    }
    Ok(start.elapsed().as_secs_f64())
}

/// The traced replica of the sweep at `jobs = 1`.
///
/// # Errors
///
/// Propagates device errors.
pub fn replica(ctx: &RunContext) -> Result<ReplicaRun, DtlError> {
    let base = base(ctx);
    let points = fig14::PAPER_POINTS.to_vec();
    let outcomes = span(Op::RunUnits, || {
        run_units(1, points, |_, (label, ranks, frac)| {
            span(Op::Unit, || {
                let cfg =
                    HotnessRunConfig { active_ranks: ranks, allocated_fraction: frac, ..base };
                let off = run_hotness(&HotnessRunConfig { hotness: false, ..cfg })?;
                let on = run_hotness(&HotnessRunConfig { hotness: true, ..cfg })?;
                let row = Fig14Row {
                    label: label.to_string(),
                    active_ranks: cfg.active_ranks,
                    allocated_fraction: cfg.allocated_fraction,
                    additional_saving: 1.0 - on.stable_power_mw / off.stable_power_mw,
                    sr_residency: on.sr_residency,
                    warmup_s: on.first_sr_entry.map(|t| t.as_secs_f64()),
                    sr_exits: on.sr_exits,
                };
                let mut counts = off.counts;
                counts.add(&on.counts);
                Ok::<_, DtlError>((row, counts))
            })
        })
    });
    let mut rows = Vec::new();
    let mut c = Counts::default();
    for outcome in outcomes {
        let (row, counts) = outcome?;
        rows.push(row);
        c.add(&counts);
    }
    let result = Fig14Result { rows, scale: base.scale };
    let records = runs(ctx).iter().map(|r| r.accesses).sum::<u64>();
    Ok(ReplicaRun {
        json: to_json(&result),
        series: None,
        failure: None,
        layers: vec![Layer::Trace, Layer::Exec, Layer::Core],
        ops: vec![
            (Op::NextRecord, "trace.next_record", false),
            (Op::Alloc, "core.alloc", true),
            (Op::Dealloc, "core.dealloc", true),
            (Op::Access, "core.access", true),
            (Op::Tick, "core.tick", true),
        ],
        counts: vec![
            Metric::new("trace.records", "count", records as f64),
            Metric::new("core.translate_s", "s", c.translate_s),
            Metric::new("smc.l1_miss_ratio", "ratio", c.smc.l1_miss_ratio()),
            Metric::new("smc.l2_miss_ratio", "ratio", c.smc.l2_miss_ratio()),
            Metric::new("smc.walks", "count", c.smc.l2_misses as f64),
            Metric::new("migrate.completed", "count", c.migrations_completed as f64),
            Metric::new("migrate.aborted", "count", c.migration_aborts as f64),
            Metric::new(
                "migrate.useful_ratio",
                "ratio",
                ratio(c.migrations_completed, c.migrations_completed + c.migration_aborts),
            ),
            Metric::new("migrate.backlog_high_water", "count", c.backlog_high_water as f64),
            Metric::new("hotness.swaps", "count", c.swaps_planned as f64),
            Metric::new("hotness.sr_entries", "count", c.sr_entries as f64),
            Metric::new("hotness.sr_exits", "count", c.sr_exits as f64),
        ],
        inputs: inputs(ctx),
    })
}
