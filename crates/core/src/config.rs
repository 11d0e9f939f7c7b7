//! DTL configuration and defaults.

use dtl_dram::{DramConfig, Picos, PowerPolicyKind};
use serde::{Deserialize, Serialize};

use crate::error::DtlError;

/// Configuration of the DRAM Translation Layer.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct DtlConfig {
    /// Translation granularity (paper default: 2 MiB).
    pub segment_bytes: u64,
    /// Allocation unit: minimum memory granted to a VM (paper: 2 GiB).
    pub au_bytes: u64,
    /// Hosts the device can serve (paper sizing study: 16).
    pub max_hosts: u16,
    /// L1 segment mapping cache entries (fully associative; paper: 64).
    pub smc_l1_entries: usize,
    /// L2 segment mapping cache total entries (paper: 1024).
    pub smc_l2_entries: usize,
    /// L2 SMC associativity (paper: 4).
    pub smc_l2_ways: usize,
    /// Hotness profiling window for victim-rank selection (paper: 0.5 ms).
    pub profile_window: Picos,
    /// Idle threshold of the hypothetical victim rank before migration
    /// starts (paper: 50 ms).
    pub profile_threshold: Picos,
    /// CLOCK target-segment-pointer search timeout (paper: 40 ns).
    pub tsp_timeout: Picos,
    /// Migration abort retries before the job is re-queued (paper: 3).
    pub migration_retry_limit: u32,
    /// Controller clock in GHz (paper: 1.5 GHz).
    pub controller_ghz: f64,
    /// Rank power-management policy (default: the paper's fixed-threshold
    /// scheme, bit-compatible with the pre-policy engine).
    pub power_policy: PowerPolicyKind,
}

impl Default for DtlConfig {
    fn default() -> Self {
        DtlConfig {
            segment_bytes: 2 << 20,
            au_bytes: 2 << 30,
            max_hosts: 16,
            smc_l1_entries: 64,
            smc_l2_entries: 1024,
            smc_l2_ways: 4,
            profile_window: Picos::from_us(500),
            profile_threshold: Picos::from_ms(50),
            tsp_timeout: Picos::from_ns(40),
            migration_retry_limit: 3,
            controller_ghz: 1.5,
            power_policy: PowerPolicyKind::FixedThreshold,
        }
    }
}

impl DtlConfig {
    /// The paper's configuration (all defaults).
    pub fn paper() -> Self {
        Self::default()
    }

    /// A scaled configuration for fast tests: 256 KiB segments, 8 MiB AUs,
    /// and microsecond-scale hotness thresholds.
    pub fn tiny() -> Self {
        DtlConfig {
            segment_bytes: 256 << 10,
            au_bytes: 8 << 20,
            max_hosts: 4,
            smc_l1_entries: 8,
            smc_l2_entries: 64,
            smc_l2_ways: 4,
            profile_window: Picos::from_us(50),
            profile_threshold: Picos::from_us(500),
            tsp_timeout: Picos::from_ns(40),
            migration_retry_limit: 3,
            controller_ghz: 1.5,
            power_policy: PowerPolicyKind::FixedThreshold,
        }
    }

    /// Segments per allocation unit.
    pub fn segments_per_au(&self) -> u64 {
        self.au_bytes / self.segment_bytes
    }

    /// One controller clock period.
    pub fn controller_cycle(&self) -> Picos {
        Picos::from_ns_f64(1.0 / self.controller_ghz)
    }

    /// Validates the configuration on its own and against a DRAM
    /// configuration.
    ///
    /// # Errors
    ///
    /// Returns [`DtlError::InvalidConfig`] when sizes are zero, not powers
    /// of two, or inconsistent (AU not a multiple of segment, AU not a
    /// multiple of `channels * segment` so allocations cannot balance, a
    /// rank that is not a whole number of segments, an L2 SMC set count
    /// that is not a power of two, or an AU of more than `1 << 20`
    /// segments, whose offsets would overflow the HSN key).
    pub fn validate(&self, dram: &DramConfig) -> Result<(), DtlError> {
        if !self.segment_bytes.is_power_of_two() || self.segment_bytes == 0 {
            return Err(DtlError::InvalidConfig {
                reason: format!("segment_bytes {} must be a power of two", self.segment_bytes),
            });
        }
        if !self.au_bytes.is_power_of_two() || self.au_bytes < self.segment_bytes {
            return Err(DtlError::InvalidConfig {
                reason: "au_bytes must be a power of two and at least one segment".into(),
            });
        }
        let channels = u64::from(dram.geometry.channels);
        if !self.segments_per_au().is_multiple_of(channels) {
            return Err(DtlError::InvalidConfig {
                reason: format!(
                    "an AU of {} segments cannot balance over {channels} channels",
                    self.segments_per_au()
                ),
            });
        }
        if !dram.geometry.rank_bytes().is_multiple_of(self.segment_bytes) {
            return Err(DtlError::InvalidConfig {
                reason: "rank size must be a whole number of segments".into(),
            });
        }
        if self.smc_l1_entries == 0 || self.smc_l2_entries == 0 || self.smc_l2_ways == 0 {
            return Err(DtlError::InvalidConfig { reason: "SMC sizes must be non-zero".into() });
        }
        if !self.smc_l2_entries.is_multiple_of(self.smc_l2_ways) {
            return Err(DtlError::InvalidConfig {
                reason: "L2 SMC entries must divide evenly into ways".into(),
            });
        }
        let l2_sets = self.smc_l2_entries / self.smc_l2_ways;
        if !l2_sets.is_power_of_two() {
            return Err(DtlError::InvalidConfig {
                reason: format!("L2 SMC set count {l2_sets} must be a power of two"),
            });
        }
        if self.segments_per_au() > 1 << 20 {
            return Err(DtlError::InvalidConfig {
                reason: format!(
                    "an AU of {} segments exceeds the 1 << 20 offsets an HSN key holds",
                    self.segments_per_au()
                ),
            });
        }
        if self.profile_window == Picos::ZERO || self.profile_threshold == Picos::ZERO {
            return Err(DtlError::InvalidConfig {
                reason: "hotness windows must be non-zero".into(),
            });
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_defaults_match_paper() {
        let c = DtlConfig::paper();
        assert_eq!(c.segment_bytes, 2 << 20);
        assert_eq!(c.au_bytes, 2 << 30);
        assert_eq!(c.segments_per_au(), 1024);
        assert_eq!(c.smc_l1_entries, 64);
        assert_eq!(c.smc_l2_entries, 1024);
        assert_eq!(c.profile_threshold, Picos::from_ms(50));
        assert_eq!(c.tsp_timeout, Picos::from_ns(40));
        c.validate(&DramConfig::cxl_1tb_ddr4_2933()).unwrap();
    }

    #[test]
    fn tiny_validates_against_tiny_dram() {
        DtlConfig::tiny().validate(&DramConfig::tiny()).unwrap();
    }

    #[test]
    fn bad_configs_rejected() {
        let dram = DramConfig::cxl_1tb_ddr4_2933();
        let mut c = DtlConfig::paper();
        c.segment_bytes = 3 << 20;
        assert!(c.validate(&dram).is_err());

        let mut c = DtlConfig::paper();
        c.au_bytes = 1 << 20; // smaller than a segment
        assert!(c.validate(&dram).is_err());

        let mut c = DtlConfig::paper();
        c.smc_l2_ways = 3; // 1024 % 3 != 0
        assert!(c.validate(&dram).is_err());

        let mut c = DtlConfig::paper();
        c.profile_window = Picos::ZERO;
        assert!(c.validate(&dram).is_err());
    }

    #[test]
    fn non_power_of_two_l2_set_count_rejected() {
        let mut c = DtlConfig::tiny();
        c.smc_l2_entries = 96; // 24 sets of 4 ways
        let err = c.validate(&DramConfig::tiny()).unwrap_err();
        assert!(err.to_string().contains("set count 24"), "{err}");
    }

    #[test]
    fn au_wider_than_the_hsn_offset_field_rejected() {
        let dram = DramConfig::cxl_1tb_ddr4_2933();
        let mut c = DtlConfig::paper();
        c.au_bytes = c.segment_bytes << 20;
        c.validate(&dram).unwrap();
        c.au_bytes = c.segment_bytes << 21;
        let err = c.validate(&dram).unwrap_err();
        assert!(err.to_string().contains("1 << 20 offsets"), "{err}");
    }

    #[test]
    fn controller_cycle_is_two_thirds_ns() {
        let c = DtlConfig::paper();
        assert!((c.controller_cycle().as_ns_f64() - 0.667).abs() < 0.01);
    }
}
