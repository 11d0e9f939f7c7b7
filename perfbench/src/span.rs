//! The span tracer behind the traced replicas.
//!
//! Every call the benchmark makes into a simulator layer is wrapped in
//! [`span`], which records the call's name, start, end and parent. A
//! layer's **self time** is its spans' durations minus the part covered by
//! child spans, so a pool access that charges the CXL link is split
//! between `pool` and `cxl`.
//!
//! A traced replica makes up to ~10^8 calls, far too many to keep one by
//! one, so spans are kept in two forms, both in memory until the run ends:
//! coarse spans ([`Op::is_recorded`]: the replica and each exec unit) as individual records, and every span as an aggregate per
//! `(parent, op)` edge of the call tree. [`Profile::to_json`] writes both.
//!
//! The tracer is thread-local; the replicas run their exec units at
//! `jobs = 1`, which keeps every span on the calling thread. Outside
//! [`trace`], [`span`] only calls its closure.

use std::cell::RefCell;
use std::fmt::Write as _;
use std::time::Instant;

/// A simulator layer, named after this workspace's modules.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layer {
    /// `dtl-trace`: VM schedules and access-trace generation.
    Trace,
    /// `dtl-event`: the discrete-event spine.
    Event,
    /// `dtl-sim::exec`: the unit scheduler.
    Exec,
    /// `dtl-core`: the DTL device (allocation, access, tick, migration).
    Core,
    /// `dtl-pool`: the memory-pool orchestrator.
    Pool,
    /// `dtl-cxl` links behind the `dtl-fabric` point-to-point interconnect.
    Cxl,
    /// `dtl-fault`: fault plans and their injection.
    Fault,
    /// `dtl-telemetry`: the windowed time-series fold.
    Telemetry,
}

impl Layer {
    /// Every layer, in reporting order.
    pub const ALL: [Layer; 8] = [
        Layer::Trace,
        Layer::Event,
        Layer::Exec,
        Layer::Core,
        Layer::Pool,
        Layer::Cxl,
        Layer::Fault,
        Layer::Telemetry,
    ];

    /// The metric-name prefix of the layer.
    pub fn name(self) -> &'static str {
        match self {
            Layer::Trace => "trace",
            Layer::Event => "event",
            Layer::Exec => "exec",
            Layer::Core => "core",
            Layer::Pool => "pool",
            Layer::Cxl => "cxl",
            Layer::Fault => "fault",
            Layer::Telemetry => "telemetry",
        }
    }
}

macro_rules! ops {
    ($($op:ident => $name:literal, $layer:expr;)*) => {
        /// One kind of traced call.
        #[derive(Debug, Clone, Copy, PartialEq, Eq)]
        pub enum Op {
            $(
                #[doc = $name]
                $op,
            )*
        }

        impl Op {
            /// Every op, indexed by `op as usize`.
            pub const ALL: &'static [Op] = &[$(Op::$op),*];

            /// The span name.
            pub fn name(self) -> &'static str {
                match self {
                    $(Op::$op => $name,)*
                }
            }

            /// The layer the call belongs to; `None` for the benchmark's
            /// own glue, whose self time counts as unattributed.
            pub fn layer(self) -> Option<Layer> {
                match self {
                    $(Op::$op => $layer,)*
                }
            }
        }
    };
}

ops! {
    Replica => "replica", None;
    Unit => "exec.unit", None;
    Handler => "handler", None;
    VmSynth => "trace.vm_synth", Some(Layer::Trace);
    MixNew => "trace.mixer_new", Some(Layer::Trace);
    NextRecord => "trace.next_record", Some(Layer::Trace);
    Step => "event.step", Some(Layer::Event);
    Post => "event.post", Some(Layer::Event);
    Cancel => "event.cancel", Some(Layer::Event);
    RunUnits => "exec.run_units", Some(Layer::Exec);
    DevNew => "core.new", Some(Layer::Core);
    Alloc => "core.alloc", Some(Layer::Core);
    Dealloc => "core.dealloc", Some(Layer::Core);
    Access => "core.access", Some(Layer::Core);
    Tick => "core.tick", Some(Layer::Core);
    NextActivity => "core.next_activity_at", Some(Layer::Core);
    Traffic => "core.note_traffic", Some(Layer::Core);
    Report => "core.report", Some(Layer::Core);
    Check => "core.check_invariants", Some(Layer::Core);
    PoolNew => "pool.new", Some(Layer::Pool);
    PoolAlloc => "pool.alloc", Some(Layer::Pool);
    PoolDealloc => "pool.dealloc", Some(Layer::Pool);
    PoolAccess => "pool.access", Some(Layer::Pool);
    PoolTick => "pool.tick", Some(Layer::Pool);
    PoolCheck => "pool.check_invariants", Some(Layer::Pool);
    PoolSweep => "pool.sweep", Some(Layer::Pool);
    PoolRetire => "pool.retire", Some(Layer::Pool);
    PoolReport => "pool.report", Some(Layer::Pool);
    LinkSubmit => "cxl.submit", Some(Layer::Cxl);
    LinkBulk => "cxl.bulk", Some(Layer::Cxl);
    LinkOther => "cxl.other", Some(Layer::Cxl);
    FaultPlan => "fault.plan", Some(Layer::Fault);
    FaultPop => "fault.pop", Some(Layer::Fault);
    FaultInject => "fault.inject", Some(Layer::Fault);
    Fold => "telemetry.fold", Some(Layer::Telemetry);
}

impl Op {
    /// Whether spans of this op are kept one by one (the coarse ones).
    pub fn is_recorded(self) -> bool {
        matches!(self, Op::Replica | Op::Unit)
    }
}

const N: usize = Op::ALL.len();

/// One individually kept span.
#[derive(Debug, Clone, Copy)]
pub struct SpanRecord {
    /// What was called.
    pub op: Op,
    /// Index of the enclosing recorded span, if any.
    pub parent: Option<usize>,
    /// Start, nanoseconds since the trace began.
    pub start_ns: u64,
    /// Duration less any offline time inside the span, nanoseconds.
    pub dur_ns: u64,
}

impl SpanRecord {
    /// The span's duration in seconds.
    pub fn secs(&self) -> f64 {
        self.dur_ns as f64 * 1e-9
    }
}

#[derive(Debug, Clone, Copy, Default)]
struct Agg {
    calls: u64,
    total_ns: u64,
    self_ns: u64,
}

struct Frame {
    op: Op,
    start_ns: u64,
    child_ns: u64,
    offline_ns: u64,
    record: Option<usize>,
}

struct Tracer {
    origin: Instant,
    stack: Vec<Frame>,
    ops: [Agg; N],
    /// `edges[parent * N + child]`; spans with no parent use row `N`.
    edges: Vec<Agg>,
    records: Vec<SpanRecord>,
}

thread_local! {
    static TRACER: RefCell<Option<Tracer>> = const { RefCell::new(None) };
}

impl Tracer {
    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    fn enter(&mut self, op: Op) {
        let start_ns = self.now_ns();
        let record = op.is_recorded().then(|| {
            let parent = self.stack.iter().rev().find_map(|f| f.record);
            self.records.push(SpanRecord { op, parent, start_ns, dur_ns: 0 });
            self.records.len() - 1
        });
        self.stack.push(Frame { op, start_ns, child_ns: 0, offline_ns: 0, record });
    }

    fn exit(&mut self) {
        let end_ns = self.now_ns();
        let frame = self.stack.pop().expect("span exit without a matching enter");
        let total = (end_ns - frame.start_ns).saturating_sub(frame.offline_ns);
        let own = total.saturating_sub(frame.child_ns);
        let i = frame.op as usize;
        let agg = &mut self.ops[i];
        agg.calls += 1;
        agg.total_ns += total;
        agg.self_ns += own;
        let parent_row = match self.stack.last_mut() {
            Some(parent) => {
                parent.child_ns += total;
                parent.op as usize
            }
            None => N,
        };
        let edge = &mut self.edges[parent_row * N + i];
        edge.calls += 1;
        edge.total_ns += total;
        edge.self_ns += own;
        if let Some(r) = frame.record {
            self.records[r].dur_ns = total;
        }
    }
}

/// Runs `f` inside a span of `op` when a trace is active on this thread.
#[inline]
pub fn span<R>(op: Op, f: impl FnOnce() -> R) -> R {
    let active = TRACER.with(|t| match t.borrow_mut().as_mut() {
        Some(tracer) => {
            tracer.enter(op);
            true
        }
        None => false,
    });
    let out = f();
    if active {
        TRACER.with(|t| t.borrow_mut().as_mut().expect("trace still active").exit());
    }
    out
}

/// Runs `f` outside the traced program: its time is charged to no span and
/// is taken out of the duration of every open span. Used for measurements
/// the harness does not make, such as the translation replay.
pub fn offline<R>(f: impl FnOnce() -> R) -> R {
    let start = Instant::now();
    let out = f();
    let ns = start.elapsed().as_nanos() as u64;
    TRACER.with(|t| {
        if let Some(tracer) = t.borrow_mut().as_mut() {
            for frame in &mut tracer.stack {
                frame.offline_ns += ns;
            }
        }
    });
    out
}

/// Runs `f` as one traced replica: everything it calls through [`span`]
/// is recorded under a root [`Op::Replica`] span.
///
/// # Panics
///
/// Panics when a trace is already active on this thread.
pub fn trace<R>(f: impl FnOnce() -> R) -> (R, Profile) {
    TRACER.with(|t| {
        let mut slot = t.borrow_mut();
        assert!(slot.is_none(), "traces do not nest");
        *slot = Some(Tracer {
            origin: Instant::now(),
            stack: Vec::new(),
            ops: [Agg::default(); N],
            edges: vec![Agg::default(); (N + 1) * N],
            records: Vec::new(),
        });
    });
    let out = span(Op::Replica, f);
    let tracer = TRACER.with(|t| t.borrow_mut().take()).expect("trace still active");
    assert!(tracer.stack.is_empty(), "every span closed");
    (out, Profile { ops: tracer.ops, edges: tracer.edges, records: tracer.records })
}

/// What one traced replica recorded.
#[derive(Debug, Clone)]
pub struct Profile {
    ops: [Agg; N],
    edges: Vec<Agg>,
    records: Vec<SpanRecord>,
}

impl Profile {
    /// Calls of `op`.
    pub fn calls(&self, op: Op) -> u64 {
        self.ops[op as usize].calls
    }

    /// Self time of `op`, seconds.
    pub fn self_s(&self, op: Op) -> f64 {
        self.ops[op as usize].self_ns as f64 * 1e-9
    }

    /// Calls into `layer`.
    pub fn layer_calls(&self, layer: Layer) -> u64 {
        Op::ALL.iter().filter(|op| op.layer() == Some(layer)).map(|&op| self.calls(op)).sum()
    }

    /// Self time of every op of `layer`, seconds.
    pub fn layer_self_s(&self, layer: Layer) -> f64 {
        Op::ALL.iter().filter(|op| op.layer() == Some(layer)).map(|&op| self.self_s(op)).sum()
    }

    /// Wall time of the replica, less its offline measurements, seconds.
    pub fn wall_s(&self) -> f64 {
        self.ops[Op::Replica as usize].total_ns as f64 * 1e-9
    }

    /// Replica wall time that no layer's self time covers: the
    /// benchmark's glue (handlers, bookkeeping) and the tracer itself.
    pub fn unattributed_s(&self) -> f64 {
        self.wall_s() - Layer::ALL.iter().map(|&l| self.layer_self_s(l)).sum::<f64>()
    }

    /// The individually kept spans of `op`.
    pub fn records(&self, op: Op) -> impl Iterator<Item = &SpanRecord> {
        self.records.iter().filter(move |r| r.op == op)
    }

    /// The recorded spans and the per-edge call-tree aggregates as JSON.
    pub fn to_json(&self) -> String {
        let mut s = String::from("{\"spans\": [");
        for (i, r) in self.records.iter().enumerate() {
            let sep = if i == 0 { "" } else { "," };
            let parent = r.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = write!(
                s,
                "{sep}\n  {{\"id\": {i}, \"name\": \"{}\", \"parent\": {parent}, \"start_ns\": {}, \"dur_ns\": {}}}",
                r.op.name(),
                r.start_ns,
                r.dur_ns
            );
        }
        s.push_str("\n], \"edges\": [");
        let mut first = true;
        for (k, e) in self.edges.iter().enumerate() {
            if e.calls == 0 {
                continue;
            }
            let parent = if k / N == N {
                "null".to_string()
            } else {
                format!("\"{}\"", Op::ALL[k / N].name())
            };
            let sep = if first { "" } else { "," };
            first = false;
            let _ = write!(
                s,
                "{sep}\n  {{\"parent\": {parent}, \"name\": \"{}\", \"calls\": {}, \"total_ns\": {}, \"self_ns\": {}}}",
                Op::ALL[k % N].name(),
                e.calls,
                e.total_ns,
                e.self_ns
            );
        }
        s.push_str("\n]}\n");
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn busy(ns: u64) {
        let t = Instant::now();
        while (t.elapsed().as_nanos() as u64) < ns {}
    }

    #[test]
    fn self_time_excludes_children_and_offline_time() {
        let mut fold_real = 0.0;
        let start = Instant::now();
        let ((), p) = trace(|| {
            span(Op::Unit, || {
                span(Op::Alloc, || {
                    busy(2_000_000);
                    let t = Instant::now();
                    span(Op::Fold, || busy(1_000_000));
                    fold_real = t.elapsed().as_secs_f64();
                });
                offline(|| busy(3_000_000));
            })
        });
        let real = start.elapsed().as_secs_f64();
        assert_eq!(p.calls(Op::Alloc), 1);
        assert!(p.self_s(Op::Fold) >= 0.001 && p.self_s(Op::Fold) <= fold_real);
        assert!(p.self_s(Op::Alloc) >= 0.002);
        // Self times partition the traced wall exactly, so no child's time
        // is also counted in its parent.
        let all_self: f64 = Op::ALL.iter().map(|&op| p.self_s(op)).sum();
        assert!((all_self - p.wall_s()).abs() < 1e-9, "{all_self} vs {}", p.wall_s());
        assert!(p.wall_s() >= 0.003);
        assert!(p.wall_s() <= real - 0.003, "offline time is not in the traced wall");
        assert!(units_secs(&p) <= p.wall_s(), "nor in the enclosing span's duration");
        let units: Vec<_> = p.records(Op::Unit).collect();
        assert_eq!(units.len(), 1);
        assert_eq!(units[0].parent, Some(0), "the replica span is the unit's parent");
        assert!(p.unattributed_s() >= 0.0);
        assert!(p.to_json().contains("\"name\": \"telemetry.fold\""));
    }

    fn units_secs(p: &Profile) -> f64 {
        p.records(Op::Unit).map(SpanRecord::secs).sum()
    }

    #[test]
    fn spans_outside_a_trace_only_run_the_closure() {
        assert_eq!(span(Op::Access, || 7), 7);
    }
}
