//! The two-level segment mapping cache (SMC) — the paper's TLB-like
//! structure that keeps HSN→DSN translations close to the datapath
//! (§3.2, Table 3): a 64-entry fully-associative L1 and a 1024-entry
//! 4-way set-associative L2, both LRU.

use serde::{Deserialize, Serialize};

use crate::addr::{Dsn, Hsn};
use crate::error::DtlError;

/// Where a lookup was satisfied.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum SmcOutcome {
    /// Hit in the L1 SMC (1 controller cycle).
    L1Hit,
    /// Hit in the L2 SMC (7 controller cycles).
    L2Hit,
    /// Missed both levels; the three-level table walk is needed.
    Miss,
}

/// Hit/miss counters of both levels.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct SmcStats {
    /// Lookups that hit L1.
    pub l1_hits: u64,
    /// Lookups that missed L1.
    pub l1_misses: u64,
    /// L1 misses that hit L2.
    pub l2_hits: u64,
    /// L1 misses that also missed L2.
    pub l2_misses: u64,
}

impl SmcStats {
    /// L1 miss ratio over all lookups (the paper measures 14.7 %).
    pub fn l1_miss_ratio(&self) -> f64 {
        let total = self.l1_hits + self.l1_misses;
        if total == 0 {
            0.0
        } else {
            self.l1_misses as f64 / total as f64
        }
    }

    /// L2 miss ratio over L1 misses (the paper measures 15.4 %).
    pub fn l2_miss_ratio(&self) -> f64 {
        let total = self.l2_hits + self.l2_misses;
        if total == 0 {
            0.0
        } else {
            self.l2_misses as f64 / total as f64
        }
    }
}

#[derive(Debug, Clone, Copy)]
struct Entry {
    key: u64,
    dsn: Dsn,
    lru: u64,
    valid: bool,
}

const INVALID: Entry = Entry { key: 0, dsn: Dsn(0), lru: 0, valid: false };

/// The two-level segment mapping cache.
///
/// # Examples
///
/// ```
/// use dtl_core::{Dsn, Hsn, HostId, AuId, SegmentMappingCache, SmcOutcome};
///
/// let mut smc = SegmentMappingCache::new(4, 16, 4);
/// let hsn = Hsn { host: HostId(0), au: AuId(0), au_offset: 7 };
/// assert_eq!(smc.lookup(hsn), (SmcOutcome::Miss, None));
/// smc.fill(hsn, Dsn(42));
/// assert_eq!(smc.lookup(hsn), (SmcOutcome::L1Hit, Some(Dsn(42))));
/// ```
#[derive(Debug, Clone)]
pub struct SegmentMappingCache {
    l1: Vec<Entry>,
    l2: Vec<Entry>,
    l2_sets: usize,
    l2_ways: usize,
    tick: u64,
    stats: SmcStats,
}

impl SegmentMappingCache {
    /// Builds an empty SMC.
    ///
    /// # Panics
    ///
    /// Panics if any size is zero, `l2_entries` is not divisible by
    /// `l2_ways`, or the L2 set count is not a power of two.
    pub fn new(l1_entries: usize, l2_entries: usize, l2_ways: usize) -> Self {
        assert!(l1_entries > 0 && l2_entries > 0 && l2_ways > 0, "SMC sizes must be non-zero");
        assert_eq!(l2_entries % l2_ways, 0, "L2 entries must divide into ways");
        let l2_sets = l2_entries / l2_ways;
        assert!(l2_sets.is_power_of_two(), "L2 set count must be a power of two");
        SegmentMappingCache {
            l1: vec![INVALID; l1_entries],
            l2: vec![INVALID; l2_entries],
            l2_sets,
            l2_ways,
            tick: 0,
            stats: SmcStats::default(),
        }
    }

    /// Builds the paper's SMC: 64-entry L1, 1024-entry 4-way L2.
    pub fn paper() -> Self {
        SegmentMappingCache::new(64, 1024, 4)
    }

    /// Statistics so far.
    pub fn stats(&self) -> SmcStats {
        self.stats
    }

    fn l2_set_range(&self, key: u64) -> std::ops::Range<usize> {
        let set = (key as usize) & (self.l2_sets - 1);
        let start = set * self.l2_ways;
        start..start + self.l2_ways
    }

    /// Looks up `hsn`; on an L2 hit the entry is promoted into L1.
    pub fn lookup(&mut self, hsn: Hsn) -> (SmcOutcome, Option<Dsn>) {
        let key = hsn.pack();
        self.tick += 1;
        let tick = self.tick;
        // L1: fully associative scan.
        if let Some(e) = self.l1.iter_mut().find(|e| e.valid && e.key == key) {
            e.lru = tick;
            self.stats.l1_hits += 1;
            return (SmcOutcome::L1Hit, Some(e.dsn));
        }
        self.stats.l1_misses += 1;
        // L2.
        let range = self.l2_set_range(key);
        let mut found: Option<Dsn> = None;
        for e in &mut self.l2[range] {
            if e.valid && e.key == key {
                e.lru = tick;
                found = Some(e.dsn);
                break;
            }
        }
        if let Some(dsn) = found {
            self.stats.l2_hits += 1;
            self.insert_l1(key, dsn);
            (SmcOutcome::L2Hit, Some(dsn))
        } else {
            self.stats.l2_misses += 1;
            (SmcOutcome::Miss, None)
        }
    }

    /// Installs a translation after a table walk (fills both levels).
    pub fn fill(&mut self, hsn: Hsn, dsn: Dsn) {
        let key = hsn.pack();
        self.tick += 1;
        self.insert_l1(key, dsn);
        self.insert_l2(key, dsn);
    }

    /// Invalidates an HSN in both levels (called on remap); returns whether
    /// any entry was present. Like the hardware, this probes L1 and the
    /// key's own L2 set only: `insert_l2` places every L2 entry in
    /// `l2_set_range(key)`, and [`SegmentMappingCache::check_consistency`]
    /// verifies that placement.
    pub fn invalidate(&mut self, hsn: Hsn) -> bool {
        let key = hsn.pack();
        let range = self.l2_set_range(key);
        let mut any = false;
        for e in self.l1.iter_mut().chain(self.l2[range].iter_mut()) {
            if e.valid && e.key == key {
                e.valid = false;
                any = true;
            }
        }
        any
    }

    /// Checks that the cache is well formed and coherent with the mapping
    /// tables, whose walk is `walk`: every valid L2 entry sits in its key's
    /// set, no key appears twice in L1 or twice within one set, and every
    /// valid entry's DSN equals the walk's.
    ///
    /// # Errors
    ///
    /// [`DtlError::Internal`] naming the first offending entry.
    pub fn check_consistency(&self, walk: impl Fn(Hsn) -> Option<Dsn>) -> Result<(), DtlError> {
        let fail = |reason: String| Err(DtlError::Internal { reason });
        for (i, e) in self.l1.iter().enumerate() {
            if e.valid && self.l1[..i].iter().any(|o| o.valid && o.key == e.key) {
                return fail(format!("SMC L1 holds {} twice", Hsn::unpack(e.key)));
            }
        }
        for (i, set) in self.l2.chunks(self.l2_ways).enumerate() {
            for (w, e) in set.iter().enumerate() {
                if !e.valid {
                    continue;
                }
                if self.l2_set_range(e.key).start != i * self.l2_ways {
                    return fail(format!("SMC L2 set {i} holds {}", Hsn::unpack(e.key)));
                }
                if set[..w].iter().any(|o| o.valid && o.key == e.key) {
                    return fail(format!("SMC L2 set {i} holds {} twice", Hsn::unpack(e.key)));
                }
            }
        }
        for e in self.l1.iter().chain(&self.l2).filter(|e| e.valid) {
            let hsn = Hsn::unpack(e.key);
            let walked = walk(hsn);
            if walked != Some(e.dsn) {
                return fail(format!(
                    "SMC caches {hsn} -> {} but the tables give {walked:?}",
                    e.dsn
                ));
            }
        }
        Ok(())
    }

    /// Plants `hsn → dsn` in way 0 of L2 set `set`, bypassing placement
    /// and coherence — a mutation hook for the consistency check's tests.
    #[cfg(test)]
    pub(crate) fn plant_l2_entry_for_test(&mut self, set: usize, hsn: Hsn, dsn: Dsn) {
        self.tick += 1;
        let start = (set % self.l2_sets) * self.l2_ways;
        self.l2[start] = Entry { key: hsn.pack(), dsn, lru: self.tick, valid: true };
    }

    fn insert_l1(&mut self, key: u64, dsn: Dsn) {
        let tick = self.tick;
        if let Some(e) = self.l1.iter_mut().find(|e| e.valid && e.key == key) {
            e.dsn = dsn;
            e.lru = tick;
            return;
        }
        let victim = self
            .l1
            .iter_mut()
            .min_by_key(|e| if e.valid { e.lru + 1 } else { 0 })
            .expect("l1 non-empty");
        *victim = Entry { key, dsn, lru: tick, valid: true };
    }

    fn insert_l2(&mut self, key: u64, dsn: Dsn) {
        let tick = self.tick;
        let range = self.l2_set_range(key);
        let set = &mut self.l2[range];
        if let Some(e) = set.iter_mut().find(|e| e.valid && e.key == key) {
            e.dsn = dsn;
            e.lru = tick;
            return;
        }
        let victim = set
            .iter_mut()
            .min_by_key(|e| if e.valid { e.lru + 1 } else { 0 })
            .expect("set non-empty");
        *victim = Entry { key, dsn, lru: tick, valid: true };
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::addr::{AuId, HostId};

    fn hsn(off: u32) -> Hsn {
        Hsn { host: HostId(0), au: AuId(0), au_offset: off }
    }

    #[test]
    fn miss_fill_hit_cycle() {
        let mut smc = SegmentMappingCache::new(2, 8, 2);
        assert_eq!(smc.lookup(hsn(1)), (SmcOutcome::Miss, None));
        smc.fill(hsn(1), Dsn(10));
        assert_eq!(smc.lookup(hsn(1)), (SmcOutcome::L1Hit, Some(Dsn(10))));
    }

    #[test]
    fn l1_eviction_falls_back_to_l2() {
        let mut smc = SegmentMappingCache::new(2, 64, 4);
        for i in 0..8 {
            smc.fill(hsn(i), Dsn(u64::from(i)));
        }
        // hsn(0) long evicted from the 2-entry L1, still in L2.
        let (outcome, dsn) = smc.lookup(hsn(0));
        assert_eq!(outcome, SmcOutcome::L2Hit);
        assert_eq!(dsn, Some(Dsn(0)));
        // And the L2 hit promoted it to L1.
        assert_eq!(smc.lookup(hsn(0)).0, SmcOutcome::L1Hit);
    }

    #[test]
    fn invalidate_removes_from_both_levels() {
        let mut smc = SegmentMappingCache::new(2, 8, 2);
        smc.fill(hsn(1), Dsn(10));
        assert!(smc.invalidate(hsn(1)));
        assert_eq!(smc.lookup(hsn(1)), (SmcOutcome::Miss, None));
        assert!(!smc.invalidate(hsn(1)), "second invalidate finds nothing");
    }

    #[test]
    fn refill_updates_translation() {
        let mut smc = SegmentMappingCache::new(4, 8, 2);
        smc.fill(hsn(1), Dsn(10));
        smc.fill(hsn(1), Dsn(20)); // remap
        assert_eq!(smc.lookup(hsn(1)).1, Some(Dsn(20)));
    }

    #[test]
    fn stats_track_ratios() {
        let mut smc = SegmentMappingCache::new(2, 8, 2);
        smc.lookup(hsn(1)); // miss
        smc.fill(hsn(1), Dsn(1));
        smc.lookup(hsn(1)); // L1 hit
        let s = smc.stats();
        assert_eq!(s.l1_hits, 1);
        assert_eq!(s.l1_misses, 1);
        assert_eq!(s.l2_misses, 1);
        assert!((s.l1_miss_ratio() - 0.5).abs() < 1e-12);
        assert!((s.l2_miss_ratio() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn distinct_hosts_do_not_collide() {
        let mut smc = SegmentMappingCache::paper();
        let a = Hsn { host: HostId(1), au: AuId(0), au_offset: 0 };
        let b = Hsn { host: HostId(2), au: AuId(0), au_offset: 0 };
        smc.fill(a, Dsn(1));
        smc.fill(b, Dsn(2));
        assert_eq!(smc.lookup(a).1, Some(Dsn(1)));
        assert_eq!(smc.lookup(b).1, Some(Dsn(2)));
    }

    #[test]
    fn lru_prefers_invalid_ways() {
        let mut smc = SegmentMappingCache::new(1, 4, 4);
        // All four L2 entries map to the single set.
        for i in 0..4 {
            smc.fill(hsn(i), Dsn(u64::from(i)));
        }
        // All four must be resident (invalid ways were used first).
        for i in 0..4 {
            assert_ne!(smc.lookup(hsn(i)).0, SmcOutcome::Miss, "offset {i}");
        }
    }

    #[test]
    fn invalidate_reaches_a_key_evicted_from_l1() {
        let mut smc = SegmentMappingCache::new(2, 16, 4);
        for i in 0..4 {
            smc.fill(hsn(i), Dsn(u64::from(i)));
        }
        // hsn(0) left the 2-entry L1 but still sits in L2 set 0.
        assert!(smc.l1.iter().all(|e| !e.valid || e.key != hsn(0).pack()));
        assert!(smc.invalidate(hsn(0)));
        assert_eq!(smc.lookup(hsn(0)), (SmcOutcome::Miss, None));
        smc.check_consistency(|h| Some(Dsn(u64::from(h.au_offset)))).unwrap();
    }

    #[test]
    fn invalidating_an_absent_key_spares_its_full_set() {
        let mut smc = SegmentMappingCache::new(1, 16, 4);
        // Offsets 1, 5, 9 and 13 fill set 1 of the 4-set L2.
        let resident: Vec<Hsn> = (0..4).map(|k| hsn(1 + 4 * k)).collect();
        for h in &resident {
            smc.fill(*h, Dsn(u64::from(h.au_offset)));
        }
        // hsn(17) maps to the same set but was never filled.
        assert!(!smc.invalidate(hsn(17)));
        for h in &resident {
            assert_eq!(smc.lookup(*h).1, Some(Dsn(u64::from(h.au_offset))), "{h}");
        }
    }

    #[test]
    fn hosts_sharing_a_set_do_not_interfere() {
        let mut smc = SegmentMappingCache::new(1, 16, 4);
        let a = Hsn { host: HostId(1), au: AuId(0), au_offset: 2 };
        let b = Hsn { host: HostId(2), au: AuId(0), au_offset: 2 };
        assert_eq!(smc.l2_set_range(a.pack()), smc.l2_set_range(b.pack()));
        smc.fill(a, Dsn(10));
        smc.fill(b, Dsn(20));
        assert!(smc.invalidate(a));
        assert_eq!(smc.lookup(a).1, None);
        assert_eq!(smc.lookup(b).1, Some(Dsn(20)));
        assert!(smc.invalidate(b));
        assert_eq!(smc.lookup(b).1, None);
    }

    #[test]
    fn consistency_check_rejects_a_stale_translation() {
        let mut smc = SegmentMappingCache::new(4, 16, 4);
        smc.fill(hsn(3), Dsn(30));
        // The tables remapped hsn(3) to DSN 31 without an invalidation.
        let err = smc.check_consistency(|_| Some(Dsn(31))).unwrap_err();
        assert!(err.to_string().contains("host0/au0/3"), "{err}");
        // An unmapped HSN still cached is stale too.
        assert!(smc.check_consistency(|_| None).is_err());
    }

    #[test]
    fn consistency_check_rejects_duplicates() {
        let walk = |h: Hsn| Some(Dsn(u64::from(h.au_offset)));
        let mut smc = SegmentMappingCache::new(4, 16, 4);
        // hsn(5) takes way 0 of set 1 and hsn(1) way 1; the plant
        // overwrites way 0 with a second copy of hsn(1).
        smc.fill(hsn(5), Dsn(5));
        smc.fill(hsn(1), Dsn(1));
        smc.plant_l2_entry_for_test(1, hsn(1), Dsn(1));
        let err = smc.check_consistency(walk).unwrap_err();
        assert!(err.to_string().contains("twice"), "{err}");

        let mut smc = SegmentMappingCache::new(2, 16, 4);
        smc.fill(hsn(1), Dsn(1));
        smc.l1[1] = smc.l1[0];
        let err = smc.check_consistency(walk).unwrap_err();
        assert!(err.to_string().contains("L1 holds host0/au0/1 twice"), "{err}");
    }

    #[test]
    #[should_panic(expected = "must divide")]
    fn bad_ways_panics() {
        let _ = SegmentMappingCache::new(4, 10, 4);
    }
}
