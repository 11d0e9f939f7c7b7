//! **VM campaign** (fleet scale, paper §7 outlook) — a thousand
//! independent paper nodes replaying a multi-week VM schedule, driven
//! purely by posted events on the `dtl-event` spine (no tick grid; see
//! `vm_campaign_run`). The headline is the fleet-wide background energy
//! saved by rank consolidation against an always-standby baseline, and
//! the run itself doubles as the event-spine throughput benchmark: the
//! result carries the fleet's processed-event count so BENCH.md can quote
//! events/sec against an externally measured wall clock.

pub use crate::vm_campaign_run::{
    run_campaign as run, CampaignObservations, HostOutcome, VmCampaignConfig, VmCampaignResult,
};

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::RunContext;

    #[test]
    fn experiment_alias_reaches_the_harness() {
        let mut cfg = VmCampaignConfig::tiny(5);
        cfg.hosts = 2;
        let (r, _) = run(&cfg, &RunContext::plain(true)).unwrap();
        assert_eq!(r.hosts, 2);
        assert_eq!(r.sample.len(), 2);
    }
}
