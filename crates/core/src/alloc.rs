//! Segment allocation (paper §4.3 "Balancing Segment Allocation").
//!
//! Every allocation unit takes an equal number of segments from each
//! channel, so a VM always sees the full channel-level parallelism of the
//! device. Within a channel, the *most utilized* active rank's free queue
//! has priority, which packs data into few ranks and keeps the rest
//! drainable for power-down.

use std::collections::VecDeque;

use serde::{Deserialize, Serialize};

use crate::addr::{Dsn, SegmentGeometry, SegmentLocation};
use crate::error::DtlError;

/// The allocated within-rank slots of one rank: a bit set indexed by slot,
/// grown on demand, with its population kept beside it.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
struct SlotSet {
    words: Vec<u64>,
    len: u64,
}

impl SlotSet {
    fn len(&self) -> u64 {
        self.len
    }

    fn clear(&mut self) {
        self.words.fill(0);
        self.len = 0;
    }

    /// One past the highest slot in the set (0 when empty).
    fn end(&self) -> u64 {
        self.words
            .iter()
            .rposition(|w| *w != 0)
            .map_or(0, |i| (i as u64 + 1) * 64 - u64::from(self.words[i].leading_zeros()))
    }

    fn contains(&self, slot: u64) -> bool {
        self.words.get((slot / 64) as usize).is_some_and(|w| w & (1 << (slot % 64)) != 0)
    }

    /// Adds `slot`; returns whether it was absent. A slot past the rank
    /// size is stored too, so that [`SegmentAllocator::check_consistency`]
    /// reports it.
    fn insert(&mut self, slot: u64) -> bool {
        let i = (slot / 64) as usize;
        if self.words.len() <= i {
            self.words.resize(i + 1, 0);
        }
        let bit = 1 << (slot % 64);
        let absent = self.words[i] & bit == 0;
        self.words[i] |= bit;
        self.len += u64::from(absent);
        absent
    }

    /// Removes `slot`; returns whether it was present.
    fn remove(&mut self, slot: u64) -> bool {
        let Some(w) = self.words.get_mut((slot / 64) as usize) else {
            return false;
        };
        let bit = 1 << (slot % 64);
        let present = *w & bit != 0;
        *w &= !bit;
        self.len -= u64::from(present);
        present
    }

    /// The slots in ascending order.
    fn iter(&self) -> impl Iterator<Item = u64> + '_ {
        self.words.iter().enumerate().flat_map(|(i, &word)| {
            let mut rest = word;
            std::iter::from_fn(move || {
                let bit = rest.trailing_zeros();
                (rest != 0).then(|| {
                    rest &= rest - 1;
                    i as u64 * 64 + u64::from(bit)
                })
            })
        })
    }
}

/// Free/allocated segment bookkeeping per (channel, rank).
///
/// # Examples
///
/// ```
/// use dtl_core::{SegmentAllocator, SegmentGeometry};
///
/// let geo = SegmentGeometry { channels: 2, ranks_per_channel: 4, segs_per_rank: 16 };
/// let mut alloc = SegmentAllocator::new(geo);
/// let au = alloc.allocate_au(8)?;           // 4 segments per channel
/// assert_eq!(au.len(), 8);
/// assert_eq!(alloc.free_active_total(), 120);
/// alloc.free_segments(&au)?;
/// # Ok::<(), dtl_core::DtlError>(())
/// ```
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SegmentAllocator {
    geo: SegmentGeometry,
    /// Free within-rank slots, per `[channel][rank]`.
    free: Vec<Vec<VecDeque<u64>>>,
    /// Allocated within-rank slots, per `[channel][rank]`.
    allocated: Vec<Vec<SlotSet>>,
    /// Rank availability for allocation: `false` while powered down.
    active: Vec<Vec<bool>>,
}

impl SegmentAllocator {
    /// A fully free allocator with all ranks active.
    pub fn new(geo: SegmentGeometry) -> Self {
        let mut free = Vec::with_capacity(geo.channels as usize);
        let mut allocated = Vec::with_capacity(geo.channels as usize);
        let mut active = Vec::with_capacity(geo.channels as usize);
        for _ in 0..geo.channels {
            let mut fr = Vec::with_capacity(geo.ranks_per_channel as usize);
            let mut al = Vec::with_capacity(geo.ranks_per_channel as usize);
            let mut ac = Vec::with_capacity(geo.ranks_per_channel as usize);
            for _ in 0..geo.ranks_per_channel {
                fr.push((0..geo.segs_per_rank).collect::<VecDeque<u64>>());
                al.push(SlotSet::default());
                ac.push(true);
            }
            free.push(fr);
            allocated.push(al);
            active.push(ac);
        }
        SegmentAllocator { geo, free, allocated, active }
    }

    /// The segment geometry.
    pub fn geometry(&self) -> SegmentGeometry {
        self.geo
    }

    /// Marks a rank available/unavailable for allocation (power-down state).
    pub fn set_rank_active(&mut self, channel: u32, rank: u32, active: bool) {
        self.active[channel as usize][rank as usize] = active;
    }

    /// Whether a rank is available for allocation.
    pub fn is_rank_active(&self, channel: u32, rank: u32) -> bool {
        self.active[channel as usize][rank as usize]
    }

    /// Allocated segment count in a rank.
    pub fn allocated_in_rank(&self, channel: u32, rank: u32) -> u64 {
        self.allocated[channel as usize][rank as usize].len()
    }

    /// Free segment count in a rank.
    pub fn free_in_rank(&self, channel: u32, rank: u32) -> u64 {
        self.free[channel as usize][rank as usize].len() as u64
    }

    /// Free segments in the *active* ranks of a channel.
    pub fn free_in_channel_active(&self, channel: u32) -> u64 {
        (0..self.geo.ranks_per_channel)
            .filter(|r| self.is_rank_active(channel, *r))
            .map(|r| self.free_in_rank(channel, r))
            .sum()
    }

    /// Total free segments over all active ranks.
    pub fn free_active_total(&self) -> u64 {
        (0..self.geo.channels).map(|c| self.free_in_channel_active(c)).sum()
    }

    /// Iterates the allocated within-rank slots of a rank (ascending).
    pub fn allocated_slots(&self, channel: u32, rank: u32) -> impl Iterator<Item = u64> + '_ {
        self.allocated[channel as usize][rank as usize].iter()
    }

    /// The active rank with the fewest allocated segments in a channel
    /// (the power-down victim choice of §3.3), optionally excluding ranks.
    pub fn least_allocated_active_rank(&self, channel: u32, exclude: &[u32]) -> Option<u32> {
        (0..self.geo.ranks_per_channel)
            .filter(|r| self.is_rank_active(channel, *r) && !exclude.contains(r))
            .min_by_key(|r| (self.allocated_in_rank(channel, *r), *r))
    }

    /// Allocates one AU of `segments_per_au` segments: equal share per
    /// channel, preferring the most-utilized active rank with free space.
    /// Returned DSNs are ordered so consecutive AU offsets rotate channels.
    ///
    /// # Errors
    ///
    /// [`DtlError::OutOfCapacity`] if any channel's active ranks cannot
    /// supply its share (the caller should wake a rank group and retry).
    pub fn allocate_au(&mut self, segments_per_au: u64) -> Result<Vec<Dsn>, DtlError> {
        let channels = u64::from(self.geo.channels);
        debug_assert_eq!(segments_per_au % channels, 0, "validated by DtlConfig");
        let per_channel = segments_per_au / channels;
        // Feasibility check before mutating anything.
        for c in 0..self.geo.channels {
            if self.free_in_channel_active(c) < per_channel {
                return Err(DtlError::OutOfCapacity {
                    requested: segments_per_au, // in segments
                    free: self.free_active_total(),
                });
            }
        }
        let mut per_channel_slots: Vec<Vec<SegmentLocation>> =
            Vec::with_capacity(self.geo.channels as usize);
        for c in 0..self.geo.channels {
            let mut slots = Vec::with_capacity(per_channel as usize);
            while (slots.len() as u64) < per_channel {
                let rank =
                    self.most_utilized_active_rank_with_free(c).expect("feasibility checked above");
                let within = self.free[c as usize][rank as usize]
                    .pop_front()
                    .expect("rank selected with free space");
                self.allocated[c as usize][rank as usize].insert(within);
                slots.push(SegmentLocation { channel: c, rank, within });
            }
            per_channel_slots.push(slots);
        }
        // Interleave: AU offset k lives on channel k % C.
        let mut dsns = Vec::with_capacity(segments_per_au as usize);
        for k in 0..segments_per_au {
            let c = (k % channels) as usize;
            let slot = per_channel_slots[c][(k / channels) as usize];
            dsns.push(self.geo.dsn(slot));
        }
        Ok(dsns)
    }

    fn most_utilized_active_rank_with_free(&self, channel: u32) -> Option<u32> {
        (0..self.geo.ranks_per_channel)
            .filter(|r| self.is_rank_active(channel, *r) && self.free_in_rank(channel, *r) > 0)
            .max_by_key(|r| (self.allocated_in_rank(channel, *r), u32::MAX - *r))
    }

    /// Returns segments to the free pool.
    ///
    /// # Errors
    ///
    /// [`DtlError::Internal`] if a segment was not allocated.
    pub fn free_segments(&mut self, dsns: &[Dsn]) -> Result<(), DtlError> {
        for d in dsns {
            let loc = self.geo.location(*d);
            let set = &mut self.allocated[loc.channel as usize][loc.rank as usize];
            if !set.remove(loc.within) {
                return Err(DtlError::Internal {
                    reason: format!("freeing unallocated segment {d}"),
                });
            }
            self.free[loc.channel as usize][loc.rank as usize].push_back(loc.within);
        }
        Ok(())
    }

    /// Reserves one *specific* free slot (hotness-copy destinations must
    /// be claimed at planning time or a concurrent drain could take them).
    /// Returns `false` if the slot is not currently free.
    pub fn reserve_slot(&mut self, loc: SegmentLocation) -> bool {
        let fq = &mut self.free[loc.channel as usize][loc.rank as usize];
        let Some(pos) = fq.iter().position(|w| *w == loc.within) else {
            return false;
        };
        fq.remove(pos);
        self.allocated[loc.channel as usize][loc.rank as usize].insert(loc.within);
        true
    }

    /// Takes one free slot from a specific rank (migration destination
    /// search). Returns `None` when the rank is full.
    pub fn take_free_in_rank(&mut self, channel: u32, rank: u32) -> Option<SegmentLocation> {
        let within = self.free[channel as usize][rank as usize].pop_front()?;
        self.allocated[channel as usize][rank as usize].insert(within);
        Some(SegmentLocation { channel, rank, within })
    }

    /// Records that a live segment moved from `src` to `dst` (dst must have
    /// been taken via [`SegmentAllocator::take_free_in_rank`]); `src`
    /// becomes free.
    ///
    /// # Errors
    ///
    /// [`DtlError::Internal`] if `src` was not allocated.
    pub fn complete_move(&mut self, src: SegmentLocation) -> Result<(), DtlError> {
        let set = &mut self.allocated[src.channel as usize][src.rank as usize];
        if !set.remove(src.within) {
            return Err(DtlError::Internal {
                reason: format!("move source {src:?} not allocated"),
            });
        }
        self.free[src.channel as usize][src.rank as usize].push_back(src.within);
        Ok(())
    }

    /// Records a hotness swap between two slots where exactly one side may
    /// be free: allocation status is exchanged.
    pub fn swap_status(&mut self, a: SegmentLocation, b: SegmentLocation) {
        let a_alloc = self.allocated[a.channel as usize][a.rank as usize].contains(a.within);
        let b_alloc = self.allocated[b.channel as usize][b.rank as usize].contains(b.within);
        if a_alloc == b_alloc {
            return; // both live or both free: status unchanged
        }
        let (live, free) = if a_alloc { (a, b) } else { (b, a) };
        self.allocated[live.channel as usize][live.rank as usize].remove(live.within);
        self.free[live.channel as usize][live.rank as usize].push_back(live.within);
        let fq = &mut self.free[free.channel as usize][free.rank as usize];
        if let Some(pos) = fq.iter().position(|w| *w == free.within) {
            fq.remove(pos);
        }
        self.allocated[free.channel as usize][free.rank as usize].insert(free.within);
    }

    /// Whether a slot is currently allocated.
    pub fn is_allocated(&self, loc: SegmentLocation) -> bool {
        self.allocated[loc.channel as usize][loc.rank as usize].contains(loc.within)
    }

    /// Verifies that free + allocated exactly tile every rank: the counts
    /// add up to the rank size, every slot is in range, and no slot is both
    /// free and allocated or free twice.
    ///
    /// # Errors
    ///
    /// [`DtlError::Internal`] describing the first inconsistency.
    pub fn check_consistency(&self) -> Result<(), DtlError> {
        let segs = self.geo.segs_per_rank;
        let mut seen = SlotSet::default();
        for c in 0..self.geo.channels as usize {
            for r in 0..self.geo.ranks_per_channel as usize {
                let (free, allocated) = (&self.free[c][r], &self.allocated[c][r]);
                let f = free.len() as u64;
                let a = allocated.len();
                if f + a != segs {
                    return Err(DtlError::Internal {
                        reason: format!("ch{c}/rk{r}: {f} free + {a} allocated != rank size"),
                    });
                }
                let held = allocated.words.iter().map(|w| u64::from(w.count_ones())).sum::<u64>();
                if held != a {
                    return Err(DtlError::Internal {
                        reason: format!("ch{c}/rk{r}: allocated set holds {held} slots, books {a}"),
                    });
                }
                if allocated.end() > segs {
                    return Err(DtlError::Internal {
                        reason: format!(
                            "ch{c}/rk{r}: allocated slot {} out of range",
                            allocated.end() - 1
                        ),
                    });
                }
                seen.clear();
                for &w in free {
                    if w >= segs {
                        return Err(DtlError::Internal {
                            reason: format!("ch{c}/rk{r}: free slot {w} out of range"),
                        });
                    }
                    if allocated.contains(w) {
                        return Err(DtlError::Internal {
                            reason: format!("ch{c}/rk{r}: slot {w} in both free and allocated"),
                        });
                    }
                    if !seen.insert(w) {
                        return Err(DtlError::Internal {
                            reason: format!("ch{c}/rk{r}: slot {w} free twice"),
                        });
                    }
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn geo() -> SegmentGeometry {
        // 2 channels, 4 ranks, 16 segments per rank = 128 segments.
        SegmentGeometry { channels: 2, ranks_per_channel: 4, segs_per_rank: 16 }
    }

    #[test]
    fn fresh_allocator_is_all_free() {
        let a = SegmentAllocator::new(geo());
        assert_eq!(a.free_active_total(), 128);
        assert_eq!(a.allocated_in_rank(0, 0), 0);
        a.check_consistency().unwrap();
    }

    #[test]
    fn au_allocation_balances_channels_and_packs_ranks() {
        let mut a = SegmentAllocator::new(geo());
        let dsns = a.allocate_au(8).unwrap();
        assert_eq!(dsns.len(), 8);
        // Equal share per channel.
        let g = geo();
        let per_ch = dsns.iter().map(|d| g.location(*d).channel).fold([0u32; 2], |mut acc, c| {
            acc[c as usize] += 1;
            acc
        });
        assert_eq!(per_ch, [4, 4]);
        // Consecutive offsets rotate channels (DTL channel interleaving).
        for (k, d) in dsns.iter().enumerate() {
            assert_eq!(g.location(*d).channel, (k % 2) as u32);
        }
        // Packing: everything in one rank per channel.
        for d in &dsns {
            assert_eq!(g.location(*d).rank, g.location(dsns[0]).rank);
        }
        a.check_consistency().unwrap();
    }

    #[test]
    fn allocation_prefers_most_utilized_rank() {
        let mut a = SegmentAllocator::new(geo());
        let first = a.allocate_au(8).unwrap();
        let second = a.allocate_au(8).unwrap();
        let g = geo();
        // Both AUs should land in the same (most utilized) rank per channel.
        assert_eq!(g.location(first[0]).rank, g.location(second[0]).rank);
    }

    #[test]
    fn allocation_spills_to_next_rank_when_full() {
        let mut a = SegmentAllocator::new(geo());
        // Each rank holds 16; fill the first rank pair (2ch x 16 = 32 segs
        // = 4 AUs of 8).
        let mut all = Vec::new();
        for _ in 0..4 {
            all.extend(a.allocate_au(8).unwrap());
        }
        let g = geo();
        let first_rank = g.location(all[0]).rank;
        let next = a.allocate_au(8).unwrap();
        assert_ne!(g.location(next[0]).rank, first_rank, "must spill to a new rank");
        a.check_consistency().unwrap();
    }

    #[test]
    fn inactive_ranks_are_skipped() {
        let mut a = SegmentAllocator::new(geo());
        let g = geo();
        let probe = a.allocate_au(8).unwrap();
        let preferred = g.location(probe[0]).rank;
        a.free_segments(&probe).unwrap();
        for c in 0..2 {
            a.set_rank_active(c, preferred, false);
        }
        let dsns = a.allocate_au(8).unwrap();
        for d in &dsns {
            assert_ne!(g.location(*d).rank, preferred);
        }
    }

    #[test]
    fn out_of_capacity_when_active_ranks_full() {
        let mut a = SegmentAllocator::new(geo());
        // Deactivate all but rank 0 in both channels: capacity = 32 segs.
        for c in 0..2 {
            for r in 1..4 {
                a.set_rank_active(c, r, false);
            }
        }
        for _ in 0..4 {
            a.allocate_au(8).unwrap();
        }
        let err = a.allocate_au(8);
        assert!(matches!(err, Err(DtlError::OutOfCapacity { .. })));
        a.check_consistency().unwrap();
    }

    #[test]
    fn free_and_reallocate() {
        let mut a = SegmentAllocator::new(geo());
        let dsns = a.allocate_au(8).unwrap();
        a.free_segments(&dsns).unwrap();
        assert_eq!(a.free_active_total(), 128);
        assert!(a.free_segments(&dsns).is_err(), "double free rejected");
        a.check_consistency().unwrap();
    }

    #[test]
    fn take_free_and_complete_move() {
        let mut a = SegmentAllocator::new(geo());
        let dsns = a.allocate_au(8).unwrap();
        let g = geo();
        let src = g.location(dsns[0]);
        let dst = a.take_free_in_rank(src.channel, (src.rank + 1) % 4).unwrap();
        assert!(a.is_allocated(dst));
        a.complete_move(src).unwrap();
        assert!(!a.is_allocated(src));
        a.check_consistency().unwrap();
    }

    #[test]
    fn swap_status_exchanges_one_live_one_free() {
        let mut a = SegmentAllocator::new(geo());
        let dsns = a.allocate_au(8).unwrap();
        let g = geo();
        let live = g.location(dsns[0]);
        let free = SegmentLocation { channel: live.channel, rank: 3, within: 5 };
        assert!(!a.is_allocated(free));
        a.swap_status(live, free);
        assert!(!a.is_allocated(live));
        assert!(a.is_allocated(free));
        a.check_consistency().unwrap();
    }

    #[test]
    fn swap_status_noop_when_both_live() {
        let mut a = SegmentAllocator::new(geo());
        let dsns = a.allocate_au(8).unwrap();
        let g = geo();
        let x = g.location(dsns[0]);
        let y = g.location(dsns[2]);
        a.swap_status(x, y);
        assert!(a.is_allocated(x) && a.is_allocated(y));
        a.check_consistency().unwrap();
    }

    #[test]
    fn free_list_exhaustion_and_recovery() {
        let mut a = SegmentAllocator::new(geo());
        // 128 segments total = 16 AUs of 8; drain the free lists completely.
        let mut aus = Vec::new();
        for _ in 0..16 {
            aus.push(a.allocate_au(8).unwrap());
        }
        assert_eq!(a.free_active_total(), 0);
        a.check_consistency().unwrap();
        // The 17th must fail without mutating anything, reporting the
        // requested size and the (zero) free pool.
        match a.allocate_au(8) {
            Err(DtlError::OutOfCapacity { requested, free }) => {
                assert_eq!(requested, 8);
                assert_eq!(free, 0);
            }
            other => panic!("expected OutOfCapacity, got {other:?}"),
        }
        a.check_consistency().unwrap();
        // take_free_in_rank is the other allocation path; it must also
        // report exhaustion (None) on every rank.
        for c in 0..2 {
            for r in 0..4 {
                assert!(a.take_free_in_rank(c, r).is_none());
            }
        }
        // Freeing one AU restores exactly its capacity and allocation works
        // again — exhaustion must not corrupt the free lists.
        a.free_segments(&aus.pop().unwrap()).unwrap();
        assert_eq!(a.free_active_total(), 8);
        let again = a.allocate_au(8).unwrap();
        assert_eq!(again.len(), 8);
        assert_eq!(a.free_active_total(), 0);
        a.check_consistency().unwrap();
    }

    #[test]
    fn partial_channel_exhaustion_fails_whole_au() {
        let mut a = SegmentAllocator::new(geo());
        // Deactivate every rank of channel 1 except one, then fill it:
        // channel 0 still has plenty, but AU allocation takes an equal share
        // per channel, so the AU must fail as a unit with nothing mutated.
        for r in 1..4 {
            a.set_rank_active(1, r, false);
        }
        for _ in 0..4 {
            a.allocate_au(8).unwrap(); // 4 segs/channel each: ch1 rank full
        }
        assert_eq!(a.free_in_channel_active(1), 0);
        let before_ch0 = a.free_in_channel_active(0);
        assert!(matches!(a.allocate_au(8), Err(DtlError::OutOfCapacity { .. })));
        assert_eq!(a.free_in_channel_active(0), before_ch0, "failed alloc must not leak");
        a.check_consistency().unwrap();
    }

    #[test]
    fn slot_set_iterates_ascending_across_words() {
        let mut set = SlotSet::default();
        for slot in [130, 0, 63, 64, 199, 5] {
            assert!(set.insert(slot));
        }
        assert!(!set.insert(64), "double insert");
        assert_eq!(set.iter().collect::<Vec<_>>(), vec![0, 5, 63, 64, 130, 199]);
        assert_eq!((set.len(), set.end()), (6, 200));
        assert!(set.remove(199) && !set.remove(199));
        assert!(!set.remove(1000), "out-of-range remove is a miss");
        assert_eq!((set.len(), set.end()), (5, 131));
    }

    #[test]
    fn check_rejects_slot_both_free_and_allocated() {
        let mut a = SegmentAllocator::new(geo());
        let dsns = a.allocate_au(8).unwrap();
        let loc = geo().location(dsns[0]);
        // Swap a free slot for the allocated one: counts still add up.
        let fq = &mut a.free[loc.channel as usize][loc.rank as usize];
        *fq.back_mut().unwrap() = loc.within;
        let err = a.check_consistency().unwrap_err();
        assert!(err.to_string().contains("in both free and allocated"), "{err}");
    }

    #[test]
    fn check_rejects_out_of_range_slot() {
        let mut a = SegmentAllocator::new(geo());
        // Slot 40 of a 16-slot rank stands in for a missing slot 7: counts
        // add up and nothing is listed twice.
        let fq = &mut a.free[0][0];
        let pos = fq.iter().position(|w| *w == 7).unwrap();
        fq[pos] = 40;
        let err = a.check_consistency().unwrap_err();
        assert!(err.to_string().contains("slot 40 out of range"), "{err}");
    }

    #[test]
    fn check_rejects_count_mismatch() {
        let mut a = SegmentAllocator::new(geo());
        a.allocate_au(8).unwrap();
        a.free[1][2].pop_front();
        let err = a.check_consistency().unwrap_err();
        assert!(err.to_string().contains("!= rank size"), "{err}");
    }

    #[test]
    fn least_allocated_victim_selection() {
        let mut a = SegmentAllocator::new(geo());
        let _ = a.allocate_au(8).unwrap();
        let g = geo();
        // The preferred rank now has 4 allocated per channel; victim must be
        // a different (empty) rank.
        let packed = g.location(a.allocate_au(8).unwrap()[0]).rank;
        let victim = a.least_allocated_active_rank(0, &[]).unwrap();
        assert_ne!(victim, packed);
        assert_eq!(a.allocated_in_rank(0, victim), 0);
        // Excluding it picks another.
        let v2 = a.least_allocated_active_rank(0, &[victim]).unwrap();
        assert_ne!(v2, victim);
    }
}
