//! Property tests on the DTL's individual structures: the segment mapping
//! cache against a reference model and against a full-sweep reference
//! cache, the allocator's partition invariant and
//! its allocated-slot sets against a set model, and the mapping tables
//! against a plain HSN → DSN map under random churn.

use std::collections::{BTreeSet, HashMap};

use dtl_core::{
    AuId, Dsn, HostId, Hsn, MappingTables, SegmentAllocator, SegmentGeometry, SegmentLocation,
    SegmentMappingCache, SmcOutcome, SmcStats,
};

/// Segments per AU in the mapping-table model tests.
const SEGS_PER_AU: u64 = 4;
/// DSNs the mapping-table model draws from.
const DSN_SPACE: u64 = 64;
/// Hosts and AU ids the mapping-table model exercises.
const HOSTS: u16 = 2;
const AUS: u32 = 5;

/// Asserts every read-side view of `t` agrees with `model`.
fn assert_tables_match(t: &MappingTables, model: &HashMap<Hsn, Dsn>) -> Result<(), TestCaseError> {
    for host in 0..HOSTS {
        let host = HostId(host);
        let live: BTreeSet<AuId> = model.keys().filter(|h| h.host == host).map(|h| h.au).collect();
        prop_assert_eq!(t.au_count(host), live.len());
        for au in 0..AUS {
            for off in 0..SEGS_PER_AU as u32 {
                let hsn = Hsn { host, au: AuId(au), au_offset: off };
                prop_assert_eq!(t.translate(hsn), model.get(&hsn).copied());
            }
        }
    }
    let mut inverse: Vec<(Dsn, Hsn)> = model.iter().map(|(h, d)| (*d, *h)).collect();
    inverse.sort();
    for d in 0..DSN_SPACE {
        let want = inverse.iter().find(|(dsn, _)| dsn.0 == d).map(|(_, h)| *h);
        prop_assert_eq!(t.reverse(Dsn(d)), want);
    }
    prop_assert_eq!(t.mapped_segments(), model.len() as u64);
    let mapped: Vec<(Dsn, Hsn)> = t.iter_mapped().collect();
    prop_assert!(mapped.windows(2).all(|w| w[0].0 < w[1].0), "iter_mapped not ascending");
    prop_assert_eq!(mapped, inverse);
    prop_assert_eq!(t.check_consistency().ok(), Some(model.len() as u64));
    Ok(())
}

/// Asserts every rank's allocated slots match the model, in ascending
/// order.
fn assert_slots_match(
    alloc: &SegmentAllocator,
    model: &BTreeSet<(u32, u32, u64)>,
) -> Result<(), TestCaseError> {
    let geo = alloc.geometry();
    for c in 0..geo.channels {
        for r in 0..geo.ranks_per_channel {
            let slots: Vec<u64> = alloc.allocated_slots(c, r).collect();
            let want: Vec<u64> =
                model.range((c, r, 0)..=(c, r, u64::MAX)).map(|(_, _, w)| *w).collect();
            prop_assert!(slots.windows(2).all(|w| w[0] < w[1]), "allocated_slots not ascending");
            prop_assert_eq!(alloc.allocated_in_rank(c, r), want.len() as u64);
            prop_assert_eq!(slots, want);
        }
    }
    prop_assert!(alloc.check_consistency().is_ok());
    Ok(())
}
/// One reference-cache line: key, DSN and last-use tick.
type Line = Option<(u64, Dsn, u64)>;

/// A naive SMC with `SegmentMappingCache`'s geometry, LRU and fill policy,
/// whose invalidation sweeps every entry of both levels.
struct SweepSmc {
    l1: Vec<Line>,
    l2: Vec<Line>,
    ways: usize,
    tick: u64,
    stats: SmcStats,
}

impl SweepSmc {
    fn new(l1: usize, sets: usize, ways: usize) -> Self {
        SweepSmc {
            l1: vec![None; l1],
            l2: vec![None; sets * ways],
            ways,
            tick: 0,
            stats: SmcStats::default(),
        }
    }

    fn set(&mut self, key: u64) -> &mut [Line] {
        let sets = self.l2.len() / self.ways;
        let start = (key as usize % sets) * self.ways;
        &mut self.l2[start..start + self.ways]
    }

    /// Updates `key` in `lines`, or replaces the first least recently used
    /// line (empty lines first).
    fn insert(lines: &mut [Line], key: u64, dsn: Dsn, tick: u64) {
        if let Some(line) = lines.iter_mut().find(|l| matches!(l, Some((k, ..)) if *k == key)) {
            *line = Some((key, dsn, tick));
            return;
        }
        let victim = lines.iter_mut().min_by_key(|l| l.map_or(0, |(.., lru)| lru + 1)).unwrap();
        *victim = Some((key, dsn, tick));
    }

    fn lookup(&mut self, hsn: Hsn) -> (SmcOutcome, Option<Dsn>) {
        let key = hsn.pack();
        self.tick += 1;
        let tick = self.tick;
        for (k, dsn, lru) in self.l1.iter_mut().flatten() {
            if *k == key {
                *lru = tick;
                self.stats.l1_hits += 1;
                return (SmcOutcome::L1Hit, Some(*dsn));
            }
        }
        self.stats.l1_misses += 1;
        let mut found = None;
        for (k, dsn, lru) in self.set(key).iter_mut().flatten() {
            if *k == key {
                *lru = tick;
                found = Some(*dsn);
                break;
            }
        }
        match found {
            Some(dsn) => {
                self.stats.l2_hits += 1;
                Self::insert(&mut self.l1, key, dsn, tick);
                (SmcOutcome::L2Hit, Some(dsn))
            }
            None => {
                self.stats.l2_misses += 1;
                (SmcOutcome::Miss, None)
            }
        }
    }

    fn fill(&mut self, hsn: Hsn, dsn: Dsn) {
        let key = hsn.pack();
        self.tick += 1;
        let tick = self.tick;
        Self::insert(&mut self.l1, key, dsn, tick);
        Self::insert(self.set(key), key, dsn, tick);
    }

    fn invalidate(&mut self, hsn: Hsn) -> bool {
        let key = hsn.pack();
        let mut any = false;
        for line in self.l1.iter_mut().chain(self.l2.iter_mut()) {
            if matches!(line, Some((k, ..)) if *k == key) {
                *line = None;
                any = true;
            }
        }
        any
    }
}

use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// The SMC always returns the most recently filled translation, or a
    /// miss — never a stale or wrong DSN.
    #[test]
    fn smc_agrees_with_reference(ops in prop::collection::vec(
        (0u32..64, 0u64..1024, any::<bool>()), 1..300
    )) {
        let mut smc = SegmentMappingCache::new(4, 32, 4);
        let mut reference: HashMap<u32, u64> = HashMap::new();
        for (off, dsn, is_fill) in ops {
            let hsn = Hsn { host: HostId(0), au: AuId(0), au_offset: off };
            if is_fill {
                smc.fill(hsn, Dsn(dsn));
                reference.insert(off, dsn);
            } else {
                let (_, got) = smc.lookup(hsn);
                if let Some(d) = got {
                    prop_assert_eq!(
                        Some(&d.0),
                        reference.get(&off),
                        "SMC returned a translation never filled or stale"
                    );
                }
            }
        }
    }

    /// Invalidation removes exactly the requested key.
    #[test]
    fn smc_invalidate_is_precise(keys in prop::collection::vec(0u32..32, 2..40)) {
        let mut smc = SegmentMappingCache::new(8, 32, 4);
        for k in &keys {
            smc.fill(Hsn { host: HostId(0), au: AuId(0), au_offset: *k }, Dsn(u64::from(*k)));
        }
        let victim = keys[0];
        smc.invalidate(Hsn { host: HostId(0), au: AuId(0), au_offset: victim });
        let (_, got) = smc.lookup(Hsn { host: HostId(0), au: AuId(0), au_offset: victim });
        prop_assert_eq!(got, None);
        // Any other key still present must map to its own value.
        for k in &keys[1..] {
            if *k == victim { continue; }
            let (_, got) = smc.lookup(Hsn { host: HostId(0), au: AuId(0), au_offset: *k });
            if let Some(d) = got {
                prop_assert_eq!(d, Dsn(u64::from(*k)));
            }
        }
    }

    /// The set-local invalidation clears exactly what a sweep of every
    /// entry clears: on small geometries and random lookup / fill /
    /// invalidate sequences over three hosts, outcomes, DSNs, `invalidate`
    /// results and statistics match the full-sweep reference, and the
    /// cache stays coherent with the latest fills.
    #[test]
    fn smc_matches_full_sweep_reference(
        l1 in 1usize..=8,
        set_bits in 0u32..=4,
        ways in 1usize..=4,
        ops in prop::collection::vec((0u8..3, 0u16..3, 0u32..2, 0u32..24, 0u64..1024), 1..300),
    ) {
        let sets = 1usize << set_bits;
        let mut smc = SegmentMappingCache::new(l1, sets * ways, ways);
        let mut reference = SweepSmc::new(l1, sets, ways);
        let mut filled: HashMap<Hsn, Dsn> = HashMap::new();
        for (kind, host, au, off, dsn) in ops {
            let hsn = Hsn { host: HostId(host), au: AuId(au), au_offset: off };
            match kind {
                0 => prop_assert_eq!(smc.lookup(hsn), reference.lookup(hsn)),
                1 => {
                    smc.fill(hsn, Dsn(dsn));
                    reference.fill(hsn, Dsn(dsn));
                    filled.insert(hsn, Dsn(dsn));
                }
                _ => prop_assert_eq!(smc.invalidate(hsn), reference.invalidate(hsn)),
            }
            prop_assert_eq!(smc.stats(), reference.stats);
        }
        prop_assert!(smc.check_consistency(|h| filled.get(&h).copied()).is_ok());
    }

    /// Allocator: free + allocated always tile every rank, across random
    /// allocate / free cycles.
    #[test]
    fn allocator_partition_invariant(ops in prop::collection::vec(any::<bool>(), 1..120)) {
        let geo = SegmentGeometry { channels: 2, ranks_per_channel: 4, segs_per_rank: 16 };
        let mut alloc = SegmentAllocator::new(geo);
        let mut live: Vec<Vec<Dsn>> = Vec::new();
        for do_alloc in ops {
            if do_alloc {
                if let Ok(dsns) = alloc.allocate_au(8) {
                    live.push(dsns);
                }
            } else if let Some(dsns) = live.pop() {
                alloc.free_segments(&dsns).unwrap();
            }
            alloc.check_consistency().unwrap();
            // Channel balance: every live AU has 4 segments per channel.
            for au in &live {
                let mut per = [0u32; 2];
                for d in au {
                    per[geo.location(*d).channel as usize] += 1;
                }
                prop_assert_eq!(per[0], per[1]);
            }
        }
    }

    /// Allocator slot sets track a `BTreeSet` model through AU churn,
    /// single-slot takes, moves and swaps, always iterating ascending.
    #[test]
    fn allocator_slots_match_set_model(ops in prop::collection::vec(
        (0u8..5, any::<u16>(), any::<u16>()), 1..200
    )) {
        // 100 slots per rank: the sets span two 64-bit words.
        let geo = SegmentGeometry { channels: 2, ranks_per_channel: 3, segs_per_rank: 100 };
        let mut alloc = SegmentAllocator::new(geo);
        // (channel, rank, within) of every allocated slot.
        let mut model: BTreeSet<(u32, u32, u64)> = BTreeSet::new();
        let key = |l: SegmentLocation| (l.channel, l.rank, l.within);
        let mut aus: Vec<Vec<Dsn>> = Vec::new();
        for (kind, x, y) in ops {
            let (c, r) = (u32::from(x) % geo.channels, u32::from(y) % geo.ranks_per_channel);
            match kind {
                0 => {
                    if let Ok(dsns) = alloc.allocate_au(16) {
                        for d in &dsns {
                            prop_assert!(model.insert(key(geo.location(*d))));
                        }
                        aus.push(dsns);
                    }
                }
                1 => {
                    if !aus.is_empty() {
                        let dsns = aus.swap_remove(usize::from(x) % aus.len());
                        alloc.free_segments(&dsns).unwrap();
                        for d in &dsns {
                            prop_assert!(model.remove(&key(geo.location(*d))));
                        }
                    }
                }
                2 => {
                    // Move one live AU segment to a free slot of rank r.
                    if let Some(dsns) = aus.first_mut() {
                        let k = usize::from(y) % dsns.len();
                        let src = geo.location(dsns[k]);
                        if let Some(dst) = alloc.take_free_in_rank(src.channel, r) {
                            alloc.complete_move(src).unwrap();
                            model.remove(&key(src));
                            model.insert(key(dst));
                            dsns[k] = geo.dsn(dst);
                        }
                    }
                }
                3 => {
                    // Exchange a live AU segment with an arbitrary slot.
                    if let Some(dsns) = aus.last_mut() {
                        let k = usize::from(x) % dsns.len();
                        let live = geo.location(dsns[k]);
                        let other = SegmentLocation { channel: live.channel, rank: r, within: u64::from(y) % 100 };
                        if !alloc.is_allocated(other) {
                            alloc.swap_status(live, other);
                            model.remove(&key(live));
                            model.insert(key(other));
                            dsns[k] = geo.dsn(other);
                        }
                    }
                }
                _ => {
                    // Reserve a specific slot; succeeds iff it is free.
                    let loc = SegmentLocation { channel: c, rank: r, within: u64::from(x) % 100 };
                    let was_free = !model.contains(&key(loc));
                    prop_assert_eq!(alloc.reserve_slot(loc), was_free);
                    if was_free {
                        model.insert(key(loc));
                        alloc.free_segments(&[geo.dsn(loc)]).unwrap();
                        model.remove(&key(loc));
                    }
                }
            }
            assert_slots_match(&alloc, &model)?;
        }
    }

    /// Mapping tables agree with a plain HSN → DSN map across two hosts
    /// under create / remove / remap / swap churn, including removing an AU
    /// and re-creating the same `AuId`.
    #[test]
    fn tables_match_map_model(ops in prop::collection::vec(
        (0u8..5, 0u16..HOSTS, 0u32..AUS, 0u64..DSN_SPACE, 0u64..DSN_SPACE), 1..250
    )) {
        let mut t = MappingTables::new(SEGS_PER_AU);
        for h in 0..HOSTS {
            t.register_host(HostId(h));
        }
        let mut model: HashMap<Hsn, Dsn> = HashMap::new();
        let live_au = |m: &HashMap<Hsn, Dsn>, host: HostId, au: AuId| {
            m.keys().any(|h| h.host == host && h.au == au)
        };
        for (kind, host, au, x, y) in ops {
            let (host, au) = (HostId(host), AuId(au));
            let free: Vec<Dsn> = {
                let used: BTreeSet<Dsn> = model.values().copied().collect();
                (0..DSN_SPACE).map(Dsn).filter(|d| !used.contains(d)).collect()
            };
            match kind {
                0 => {
                    // Four free DSNs starting at a random point in the free list.
                    let dsns: Vec<Dsn> =
                        (0..SEGS_PER_AU as usize).map(|i| free[(x as usize + i) % free.len()]).collect();
                    let res = t.create_au(host, au, dsns.clone());
                    if live_au(&model, host, au) {
                        prop_assert!(res.is_err(), "duplicate AU accepted");
                    } else {
                        res.unwrap();
                        for (off, d) in dsns.into_iter().enumerate() {
                            model.insert(Hsn { host, au, au_offset: off as u32 }, d);
                        }
                    }
                }
                1 => {
                    let res = t.remove_au(host, au);
                    if live_au(&model, host, au) {
                        let want: Vec<Dsn> = (0..SEGS_PER_AU as u32)
                            .map(|off| model.remove(&Hsn { host, au, au_offset: off }).unwrap())
                            .collect();
                        prop_assert_eq!(res.unwrap(), want);
                    } else {
                        prop_assert!(res.is_err(), "removed an absent AU");
                    }
                }
                2 | 3 => {
                    // Remap to a free DSN (kind 2) or to any DSN (kind 3),
                    // which must fail when another HSN owns it.
                    let hsn = Hsn { host, au, au_offset: (y % SEGS_PER_AU) as u32 };
                    let target = if kind == 2 { free[x as usize % free.len()] } else { Dsn(x) };
                    let owner = model.iter().find(|(_, d)| **d == target).map(|(h, _)| *h);
                    let res = t.remap(hsn, target);
                    match model.get(&hsn).copied() {
                        Some(old) if owner.is_none_or(|o| o == hsn) => {
                            prop_assert_eq!(res.unwrap(), old);
                            model.insert(hsn, target);
                        }
                        _ => prop_assert!(res.is_err(), "bad remap accepted"),
                    }
                }
                _ => {
                    let (a, b) = (Dsn(x), Dsn(y));
                    let owner = |d: Dsn| model.iter().find(|(_, v)| **v == d).map(|(h, _)| *h);
                    let (ha, hb) = (owner(a), owner(b));
                    prop_assert_eq!(t.swap(a, b).unwrap(), (ha, hb));
                    if a != b {
                        if let Some(h) = ha {
                            model.insert(h, b);
                        }
                        if let Some(h) = hb {
                            model.insert(h, a);
                        }
                    }
                }
            }
            assert_tables_match(&t, &model)?;
        }
    }

    /// Mapping tables stay forward/reverse consistent under random
    /// create / remove / remap / swap churn.
    #[test]
    fn tables_consistency_under_churn(ops in prop::collection::vec(
        (0u8..4, 0u64..64, 0u64..64), 1..200
    )) {
        let mut t = MappingTables::new(4);
        t.register_host(HostId(0));
        let mut next_au = 0u32;
        let mut live_aus: Vec<AuId> = Vec::new();
        let mut free_dsn = 0u64;
        for (kind, x, y) in ops {
            match kind {
                0 => {
                    // Create an AU over four fresh DSNs.
                    let au = AuId(next_au);
                    next_au += 1;
                    let dsns: Vec<Dsn> = (0..4).map(|i| Dsn(1000 + free_dsn + i)).collect();
                    free_dsn += 4;
                    t.create_au(HostId(0), au, dsns).unwrap();
                    live_aus.push(au);
                }
                1 => {
                    if let Some(au) = live_aus.pop() {
                        t.remove_au(HostId(0), au).unwrap();
                    }
                }
                2 => {
                    // Remap a random live HSN to a fresh DSN.
                    if let Some(au) = live_aus.first() {
                        let hsn = Hsn { host: HostId(0), au: *au, au_offset: (x % 4) as u32 };
                        let fresh = Dsn(1000 + free_dsn);
                        free_dsn += 1;
                        t.remap(hsn, fresh).unwrap();
                    }
                }
                _ => {
                    // Swap two arbitrary DSNs in the used range.
                    let a = Dsn(1000 + (x % free_dsn.max(1)));
                    let b = Dsn(1000 + (y % free_dsn.max(1)));
                    t.swap(a, b).unwrap();
                }
            }
            t.check_consistency().unwrap();
        }
    }
}
