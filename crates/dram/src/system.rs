//! The whole DRAM device: all channels behind one mapper, with routing,
//! power reporting, and rank power-state control.

use dtl_telemetry::{EventKind, Telemetry};
use serde::{Deserialize, Serialize};

use crate::addr::PhysAddr;
use crate::channel::{Channel, PowerEvent, PowerEventCause};
use crate::command::{CommandSink, NullSink};
use crate::config::DramConfig;
use crate::error::DramError;
use crate::mapping::{AddressMapper, AddressMapping};
use crate::power::{PowerState, RankEnergy};
use crate::rank::RankCounters;
use crate::request::{AccessKind, Completion, LatencyStats, MemRequest, Priority};
use crate::time::Picos;

/// Identifies one rank within the device.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct RankId {
    /// Channel index.
    pub channel: u32,
    /// Rank index within the channel.
    pub rank: u32,
}

/// Energy and residency report for the whole device.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct PowerReport {
    /// Report timestamp (energy integrated up to here).
    pub at: Picos,
    /// Energy per rank, indexed `[channel][rank]`.
    pub per_rank: Vec<Vec<RankEnergy>>,
    /// Sum over all ranks.
    pub total: RankEnergy,
    /// Residency per rank and state, picoseconds, indexed
    /// `[channel][rank]` then by [`PowerState::ALL`] order.
    pub residency: Vec<Vec<[Picos; 5]>>,
}

impl PowerReport {
    /// Average total power in milliwatts over `[0, at]`.
    pub fn average_power_mw(&self) -> f64 {
        if self.at == Picos::ZERO {
            return 0.0;
        }
        self.total.total_mj() / (self.at.as_secs_f64() * 1_000.0) * 1_000.0
    }
}

/// A full simulated DRAM device: channels, ranks, scheduler, and power
/// accounting, addressed by device physical address.
///
/// # Examples
///
/// ```
/// use dtl_dram::{AccessKind, AddressMapping, DramConfig, DramSystem, PhysAddr, Picos, Priority};
///
/// let mut sys = DramSystem::new(DramConfig::tiny(), AddressMapping::RankInterleaved)?;
/// sys.submit(PhysAddr::new(0), AccessKind::Read, Priority::Foreground, Picos::ZERO)?;
/// sys.advance_to(Picos::from_us(1));
/// let done = sys.drain_completions();
/// assert_eq!(done.len(), 1);
/// # Ok::<(), dtl_dram::DramError>(())
/// ```
#[derive(Debug)]
pub struct DramSystem {
    config: DramConfig,
    mapper: AddressMapper,
    channels: Vec<Channel>,
    next_id: u64,
    now: Picos,
    telemetry: Telemetry,
}

impl DramSystem {
    /// Builds a device from a validated configuration and mapping policy.
    ///
    /// # Errors
    ///
    /// Returns [`DramError::InvalidConfig`] if the configuration or mapping
    /// is inconsistent.
    pub fn new(config: DramConfig, mapping: AddressMapping) -> Result<Self, DramError> {
        config.validate()?;
        let mapper = AddressMapper::new(config.geometry, mapping)?;
        let channels = (0..config.geometry.channels)
            .map(|i| {
                Channel::with_policy(
                    i,
                    &config.geometry,
                    config.timing,
                    config.power,
                    config.page_policy,
                )
            })
            .collect();
        Ok(DramSystem {
            config,
            mapper,
            channels,
            next_id: 0,
            now: Picos::ZERO,
            telemetry: Telemetry::disabled(),
        })
    }

    /// Installs a telemetry handle. Rank power transitions are emitted when
    /// the power-event queue is drained (so the cycle backend and standalone
    /// use agree on a single emission point), preserving event timestamps.
    pub fn set_telemetry(&mut self, telemetry: Telemetry) {
        self.telemetry = telemetry;
    }

    /// The device configuration.
    pub fn config(&self) -> &DramConfig {
        &self.config
    }

    /// The address mapper in effect.
    pub fn mapper(&self) -> &AddressMapper {
        &self.mapper
    }

    /// Current simulation time (the furthest `advance_to` target so far).
    pub fn now(&self) -> Picos {
        self.now
    }

    /// Submits a 64 B request; returns its id for matching the completion.
    ///
    /// # Errors
    ///
    /// Returns [`DramError::AddressOutOfRange`] for addresses beyond the
    /// device capacity.
    pub fn submit(
        &mut self,
        addr: PhysAddr,
        kind: AccessKind,
        priority: Priority,
        arrival: Picos,
    ) -> Result<u64, DramError> {
        let dec = self.mapper.decode(addr)?;
        let id = self.next_id;
        self.next_id += 1;
        let req = MemRequest { id, addr, kind, arrival, priority };
        self.channels[dec.channel as usize].enqueue(req, dec);
        Ok(id)
    }

    /// Advances all channels to `t` with the default (no-op) command sink.
    pub fn advance_to(&mut self, t: Picos) {
        self.advance_to_with_sink(t, &mut NullSink);
    }

    /// Advances all channels to `t`, reporting every issued command to
    /// `sink`.
    pub fn advance_to_with_sink<S: CommandSink>(&mut self, t: Picos, sink: &mut S) {
        for ch in &mut self.channels {
            ch.advance_to(t, sink);
        }
        self.now = self.now.max(t);
    }

    /// Runs until every queue drains; returns the time the last channel
    /// went idle. Steps in `chunk`-sized increments.
    pub fn run_until_idle(&mut self, chunk: Picos) -> Picos {
        let chunk = if chunk == Picos::ZERO { Picos::from_us(10) } else { chunk };
        let mut t = self.now;
        while self.pending() > 0 {
            t += chunk;
            self.advance_to(t);
        }
        t
    }

    /// Outstanding request count over all channels.
    pub fn pending(&self) -> usize {
        self.channels.iter().map(Channel::pending).sum()
    }

    /// Outstanding migration-class request count.
    pub fn pending_migration(&self) -> usize {
        self.channels.iter().map(Channel::pending_migration).sum()
    }

    /// Drains completions from all channels (unordered across channels).
    pub fn drain_completions(&mut self) -> Vec<Completion> {
        let mut v = Vec::new();
        for ch in &mut self.channels {
            v.append(&mut ch.drain_completions());
        }
        v
    }

    /// Drains rank power events (auto-exits and explicit transitions).
    pub fn drain_power_events(&mut self) -> Vec<PowerEvent> {
        let mut v = Vec::new();
        for ch in &mut self.channels {
            v.append(&mut ch.drain_events());
        }
        if self.telemetry.enabled() {
            for ev in &v {
                self.telemetry.emit(
                    ev.at.as_ps(),
                    EventKind::RankPowerTransition {
                        channel: ev.channel,
                        rank: ev.rank,
                        from: ev.from.telemetry_id(),
                        to: ev.to.telemetry_id(),
                        auto_exit: ev.cause == PowerEventCause::AutoExit,
                    },
                );
            }
        }
        v
    }

    /// Commands a rank power-state transition at `now` (clamped to the
    /// channel clock). Returns the completion time of the transition.
    ///
    /// # Errors
    ///
    /// Propagates [`DramError::IllegalPowerTransition`] from the rank (e.g.
    /// entering self-refresh with open banks, or low-power to low-power).
    pub fn set_rank_state(
        &mut self,
        id: RankId,
        state: PowerState,
        now: Picos,
    ) -> Result<Picos, DramError> {
        let ch = &mut self.channels[id.channel as usize];
        let t = now.max(ch.clock());
        let timing = self.config.timing;
        let from = ch.rank(id.rank).state();
        let at = ch.rank_mut(id.rank).transition(t, state, &timing)?;
        if from != state {
            ch.push_event(PowerEvent {
                at,
                channel: id.channel,
                rank: id.rank,
                from,
                to: state,
                cause: PowerEventCause::Explicit,
            });
        }
        Ok(at)
    }

    /// Current power state of a rank.
    pub fn rank_state(&self, id: RankId) -> PowerState {
        self.channels[id.channel as usize].rank(id.rank).state()
    }

    /// Activity counters of a rank.
    pub fn rank_counters(&self, id: RankId) -> RankCounters {
        *self.channels[id.channel as usize].rank(id.rank).counters()
    }

    /// Cumulative per-state residency of one rank projected to `at`, in
    /// [`PowerState::ALL`] order, without mutating the energy account.
    /// Derived from the same [`EnergyAccount`] the power report integrates,
    /// so a report at `at` and this projection can never disagree.
    ///
    /// [`EnergyAccount`]: crate::EnergyAccount
    pub fn rank_residency(&self, id: RankId, at: Picos) -> [Picos; 5] {
        self.channels[id.channel as usize].rank(id.rank).energy().residency_to(at)
    }

    /// Every rank's current power state in `(channel, rank)` order — the
    /// bulk query external checkers snapshot to cross-validate a power
    /// ledger replayed from [`PowerEvent`]s.
    ///
    /// [`PowerEvent`]: crate::PowerEvent
    pub fn power_states(&self) -> Vec<(RankId, PowerState)> {
        self.rank_ids().map(|id| (id, self.rank_state(id))).collect()
    }

    /// All rank ids in `(channel, rank)` order.
    pub fn rank_ids(&self) -> impl Iterator<Item = RankId> + '_ {
        let ranks = self.config.geometry.ranks_per_channel;
        (0..self.config.geometry.channels)
            .flat_map(move |c| (0..ranks).map(move |r| RankId { channel: c, rank: r }))
    }

    /// Aggregated foreground latency statistics over all channels.
    pub fn foreground_stats(&self) -> LatencyStats {
        let mut s = LatencyStats::new();
        for ch in &self.channels {
            s.merge(ch.foreground_stats());
        }
        s
    }

    /// Aggregated migration latency statistics over all channels.
    pub fn migration_stats(&self) -> LatencyStats {
        let mut s = LatencyStats::new();
        for ch in &self.channels {
            s.merge(ch.migration_stats());
        }
        s
    }

    /// Total bytes transferred on all data buses.
    pub fn bytes_transferred(&self) -> u64 {
        self.channels.iter().map(Channel::bytes_transferred).sum()
    }

    /// Integrates energy up to `now` and returns the device power report.
    pub fn power_report(&mut self, now: Picos) -> PowerReport {
        let mut per_rank = Vec::with_capacity(self.channels.len());
        let mut residency = Vec::with_capacity(self.channels.len());
        let mut total = RankEnergy::default();
        for ch in &mut self.channels {
            let mut col = Vec::with_capacity(ch.rank_count() as usize);
            let mut res_col = Vec::with_capacity(ch.rank_count() as usize);
            for r in 0..ch.rank_count() {
                let rank = ch.rank_mut(r);
                rank.integrate_energy_to(now);
                let e = rank.energy().energy();
                total.accumulate(&e);
                col.push(e);
                let mut res = [Picos::ZERO; 5];
                for (i, s) in PowerState::ALL.iter().enumerate() {
                    res[i] = rank.energy().residency(*s);
                }
                res_col.push(res);
            }
            per_rank.push(col);
            residency.push(res_col);
        }
        self.now = self.now.max(now);
        PowerReport { at: now, per_rank, total, residency }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sys() -> DramSystem {
        DramSystem::new(DramConfig::tiny(), AddressMapping::RankInterleaved).unwrap()
    }

    #[test]
    fn submit_and_complete_round_trip() {
        let mut s = sys();
        let id0 = s
            .submit(PhysAddr::new(0), AccessKind::Read, Priority::Foreground, Picos::ZERO)
            .unwrap();
        let id1 = s
            .submit(PhysAddr::new(64), AccessKind::Write, Priority::Foreground, Picos::ZERO)
            .unwrap();
        assert_ne!(id0, id1);
        s.advance_to(Picos::from_us(1));
        let mut done = s.drain_completions();
        done.sort_by_key(|c| c.id);
        assert_eq!(done.iter().map(|c| c.id).collect::<Vec<_>>(), vec![id0, id1]);
    }

    #[test]
    fn out_of_range_rejected() {
        let mut s = sys();
        let cap = s.config().geometry.capacity_bytes();
        assert!(s
            .submit(PhysAddr::new(cap), AccessKind::Read, Priority::Foreground, Picos::ZERO)
            .is_err());
    }

    #[test]
    fn run_until_idle_drains_everything() {
        let mut s = sys();
        for i in 0..100 {
            s.submit(PhysAddr::new(i * 64), AccessKind::Read, Priority::Foreground, Picos::ZERO)
                .unwrap();
        }
        s.run_until_idle(Picos::from_us(1));
        assert_eq!(s.pending(), 0);
        assert_eq!(s.drain_completions().len(), 100);
        assert_eq!(s.bytes_transferred(), 6400);
    }

    #[test]
    fn power_report_background_scales_with_low_power_states() {
        let horizon = Picos::from_ms(10);
        // All ranks standby.
        let mut s1 = sys();
        s1.advance_to(horizon);
        let r1 = s1.power_report(horizon);
        // Half the ranks in MPSM from t=0.
        let mut s2 = sys();
        let ids: Vec<RankId> = s2.rank_ids().filter(|r| r.rank >= 2).collect();
        for id in ids {
            s2.set_rank_state(id, PowerState::Mpsm, Picos::ZERO).unwrap();
        }
        s2.advance_to(horizon);
        let r2 = s2.power_report(horizon);
        let ratio = r2.total.background_mj / r1.total.background_mj;
        // Expected: (0.5 + 0.5 * 0.068) = 0.534.
        assert!((ratio - 0.534).abs() < 0.01, "ratio {ratio}");
        assert!(r2.average_power_mw() < r1.average_power_mw());
    }

    #[test]
    fn explicit_transition_emits_event() {
        let mut s = sys();
        let id = RankId { channel: 0, rank: 1 };
        s.set_rank_state(id, PowerState::SelfRefresh, Picos::from_us(5)).unwrap();
        let evs = s.drain_power_events();
        assert_eq!(evs.len(), 1);
        assert_eq!(evs[0].cause, PowerEventCause::Explicit);
        assert_eq!(evs[0].to, PowerState::SelfRefresh);
        assert_eq!(s.rank_state(id), PowerState::SelfRefresh);
    }

    #[test]
    fn rank_ids_enumerates_geometry() {
        let s = sys();
        let ids: Vec<RankId> = s.rank_ids().collect();
        assert_eq!(ids.len(), 8); // tiny: 2 channels x 4 ranks
        assert_eq!(ids[0], RankId { channel: 0, rank: 0 });
        assert_eq!(ids[7], RankId { channel: 1, rank: 3 });
    }

    #[test]
    fn residency_sums_to_elapsed_time() {
        let mut s = sys();
        let horizon = Picos::from_ms(1);
        s.set_rank_state(RankId { channel: 0, rank: 0 }, PowerState::SelfRefresh, Picos::ZERO)
            .unwrap();
        s.advance_to(horizon);
        let rep = s.power_report(horizon);
        for ch in &rep.residency {
            for rank_res in ch {
                let total: Picos = rank_res.iter().copied().sum();
                assert_eq!(total, horizon);
            }
        }
    }

    #[test]
    fn telemetry_timeline_matches_power_report_residency() {
        use dtl_telemetry::{PowerTimeline, RingSink};
        use std::sync::Arc;

        let mut s = sys();
        let ring = Arc::new(RingSink::with_capacity(1024));
        s.set_telemetry(Telemetry::new(ring.clone()));
        let horizon = Picos::from_ms(1);
        s.set_rank_state(
            RankId { channel: 0, rank: 0 },
            PowerState::SelfRefresh,
            Picos::from_us(100),
        )
        .unwrap();
        s.set_rank_state(RankId { channel: 1, rank: 2 }, PowerState::Mpsm, Picos::from_us(300))
            .unwrap();
        s.advance_to(horizon);
        let raw = s.drain_power_events();
        assert_eq!(raw.len(), 2);
        let ids: Vec<RankId> = s.rank_ids().collect();
        let rep = s.power_report(horizon);

        let events = ring.drain();
        assert_eq!(events.len(), 2, "telemetry mirrors each drained power event");
        let mut tl = PowerTimeline::new();
        for ev in &events {
            tl.push_event(ev);
        }
        for id in &ids {
            tl.ensure_rank(id.channel, id.rank);
        }
        tl.finish(horizon.as_ps());

        for id in ids {
            let (c, r) = (id.channel, id.rank);
            let reported = rep.residency[c as usize][r as usize];
            let from_events = tl.residency_ps(c, r);
            let direct = s.rank_residency(id, s.now());
            for i in 0..5 {
                assert_eq!(from_events[i], reported[i].as_ps(), "rank {c}/{r} state {i}");
                assert_eq!(direct[i], reported[i], "rank {c}/{r} state {i}");
            }
        }
    }

    #[test]
    fn migration_traffic_counted_separately() {
        let mut s = sys();
        s.submit(PhysAddr::new(0), AccessKind::Read, Priority::Migration, Picos::ZERO).unwrap();
        s.submit(PhysAddr::new(64), AccessKind::Read, Priority::Foreground, Picos::ZERO).unwrap();
        s.run_until_idle(Picos::from_us(1));
        assert_eq!(s.foreground_stats().count, 1);
        assert_eq!(s.migration_stats().count, 1);
    }
}
