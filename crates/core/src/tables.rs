//! The DTL's mapping metadata (paper §3.2, §4.2): host base address table,
//! per-host AU tables, the segment mapping table (HSN→DSN) and the reverse
//! mapping table (DSN→HSN).
//!
//! In hardware the first two levels live in on-chip SRAM and the segment
//! mapping table in reserved DRAM; the functional simulator keeps them all
//! in memory and the latency model charges the appropriate access costs.
//! Like the hardware, every level is a direct-indexed array: the forward
//! table by host id, then AU id, then AU offset, and the reverse table by
//! DSN. Host ids are small (the device caps them at `max_hosts`) and the
//! device hands AU ids out densely, reusing freed ones first.

use serde::{Deserialize, Serialize};

use crate::addr::{AuId, Dsn, HostId, Hsn};
use crate::error::DtlError;

/// One host's AU table: AU id → that AU's segment mapping (AU offset →
/// DSN), `None` for an id with no AU behind it.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
struct AuTable {
    aus: Vec<Option<Vec<Dsn>>>,
    /// Number of `Some` entries in `aus`.
    live: usize,
}

/// All mapping state of the device.
///
/// # Examples
///
/// ```
/// use dtl_core::{AuId, Dsn, HostId, Hsn, MappingTables};
///
/// let mut t = MappingTables::new(4);
/// t.register_host(HostId(0));
/// t.create_au(HostId(0), AuId(0), vec![Dsn(0), Dsn(1), Dsn(2), Dsn(3)])?;
/// let hsn = Hsn { host: HostId(0), au: AuId(0), au_offset: 2 };
/// assert_eq!(t.translate(hsn), Some(Dsn(2)));
/// assert_eq!(t.reverse(Dsn(2)), Some(hsn));
/// # Ok::<(), dtl_core::DtlError>(())
/// ```
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct MappingTables {
    segments_per_au: u64,
    /// Forward table indexed by host id; `None` for an unregistered host.
    hosts: Vec<Option<AuTable>>,
    /// Reverse table indexed by DSN, grown on demand to the highest DSN
    /// ever mapped; `None` for an unallocated segment.
    reverse: Vec<Option<Hsn>>,
    /// Number of `Some` entries in `reverse`.
    mapped: u64,
}

impl MappingTables {
    /// Builds empty tables for AUs of `segments_per_au` segments.
    ///
    /// # Panics
    ///
    /// Panics if `segments_per_au` is zero.
    pub fn new(segments_per_au: u64) -> Self {
        assert!(segments_per_au > 0, "an AU must hold at least one segment");
        MappingTables { segments_per_au, hosts: Vec::new(), reverse: Vec::new(), mapped: 0 }
    }

    /// Registers a host (idempotent).
    pub fn register_host(&mut self, host: HostId) {
        let i = usize::from(host.0);
        if self.hosts.len() <= i {
            self.hosts.resize_with(i + 1, || None);
        }
        self.hosts[i].get_or_insert_with(AuTable::default);
    }

    fn host(&self, host: HostId) -> Option<&AuTable> {
        self.hosts.get(usize::from(host.0))?.as_ref()
    }

    fn host_mut(&mut self, host: HostId) -> Option<&mut AuTable> {
        self.hosts.get_mut(usize::from(host.0))?.as_mut()
    }

    /// Sets the reverse entry of `dsn`, keeping `mapped` in step.
    fn set_reverse(&mut self, dsn: Dsn, hsn: Hsn) {
        let i = dsn.0 as usize;
        if self.reverse.len() <= i {
            self.reverse.resize(i + 1, None);
        }
        if self.reverse[i].replace(hsn).is_none() {
            self.mapped += 1;
        }
    }

    /// Clears the reverse entry of `dsn`, keeping `mapped` in step.
    fn clear_reverse(&mut self, dsn: Dsn) {
        if let Some(entry) = self.reverse.get_mut(dsn.0 as usize) {
            if entry.take().is_some() {
                self.mapped -= 1;
            }
        }
    }

    /// Whether a host is registered.
    pub fn has_host(&self, host: HostId) -> bool {
        self.host(host).is_some()
    }

    /// Number of AUs currently mapped for `host` (0 if unknown).
    pub fn au_count(&self, host: HostId) -> usize {
        self.host(host).map_or(0, |h| h.live)
    }

    /// Installs a new AU for `host` backed by exactly `segments_per_au`
    /// DSNs.
    ///
    /// # Errors
    ///
    /// * [`DtlError::UnknownHost`] if the host is unregistered;
    /// * [`DtlError::Internal`] if the DSN count is wrong, the AU already
    ///   exists, or a DSN is already mapped.
    pub fn create_au(&mut self, host: HostId, au: AuId, dsns: Vec<Dsn>) -> Result<(), DtlError> {
        if dsns.len() as u64 != self.segments_per_au {
            return Err(DtlError::Internal {
                reason: format!("AU needs {} segments, got {}", self.segments_per_au, dsns.len()),
            });
        }
        for (off, d) in dsns.iter().enumerate() {
            if self.reverse(*d).is_some() {
                return Err(DtlError::Internal {
                    reason: format!("DSN {d} already mapped (offset {off})"),
                });
            }
        }
        let table = self.host_mut(host).ok_or(DtlError::UnknownHost(host))?;
        let i = au.0 as usize;
        if table.aus.len() <= i {
            table.aus.resize_with(i + 1, || None);
        }
        if table.aus[i].is_some() {
            return Err(DtlError::Internal { reason: format!("{host} already has {au}") });
        }
        for (off, d) in dsns.iter().enumerate() {
            self.set_reverse(*d, Hsn { host, au, au_offset: off as u32 });
        }
        let table = self.host_mut(host).expect("checked above");
        table.aus[i] = Some(dsns);
        table.live += 1;
        Ok(())
    }

    /// Removes an AU, returning the DSNs it occupied.
    ///
    /// # Errors
    ///
    /// [`DtlError::UnknownHost`] / [`DtlError::UnknownAu`] when absent.
    pub fn remove_au(&mut self, host: HostId, au: AuId) -> Result<Vec<Dsn>, DtlError> {
        let table = self.host_mut(host).ok_or(DtlError::UnknownHost(host))?;
        let map = table
            .aus
            .get_mut(au.0 as usize)
            .and_then(Option::take)
            .ok_or(DtlError::UnknownAu { host, au })?;
        table.live -= 1;
        for d in &map {
            self.clear_reverse(*d);
        }
        Ok(map)
    }

    /// The full three-level walk: HSN → DSN.
    pub fn translate(&self, hsn: Hsn) -> Option<Dsn> {
        self.host(hsn.host)?
            .aus
            .get(hsn.au.0 as usize)?
            .as_ref()?
            .get(hsn.au_offset as usize)
            .copied()
    }

    /// The reverse walk: DSN → HSN (None for unallocated segments).
    pub fn reverse(&self, dsn: Dsn) -> Option<Hsn> {
        self.reverse.get(dsn.0 as usize).copied().flatten()
    }

    /// Points `hsn` at a new DSN (after migration). Returns the old DSN.
    ///
    /// # Errors
    ///
    /// * [`DtlError::UnknownHost`] / [`DtlError::UnknownAu`] /
    ///   [`DtlError::Internal`] when the HSN is not currently mapped or the
    ///   destination is occupied by another HSN.
    pub fn remap(&mut self, hsn: Hsn, new_dsn: Dsn) -> Result<Dsn, DtlError> {
        if let Some(owner) = self.reverse(new_dsn) {
            if owner != hsn {
                return Err(DtlError::Internal {
                    reason: format!("remap target {new_dsn} already owned by {owner}"),
                });
            }
        }
        let table = self.host_mut(hsn.host).ok_or(DtlError::UnknownHost(hsn.host))?;
        let map = table
            .aus
            .get_mut(hsn.au.0 as usize)
            .and_then(Option::as_mut)
            .ok_or(DtlError::UnknownAu { host: hsn.host, au: hsn.au })?;
        let slot = map.get_mut(hsn.au_offset as usize).ok_or_else(|| DtlError::Internal {
            reason: format!("AU offset {} out of range", hsn.au_offset),
        })?;
        let old = std::mem::replace(slot, new_dsn);
        self.clear_reverse(old);
        self.set_reverse(new_dsn, hsn);
        Ok(old)
    }

    /// Swaps the contents of two device segments in the mapping: whatever
    /// HSNs pointed at `a` and `b` now point at the other. Either side may
    /// be unallocated. Returns the HSNs that were affected.
    ///
    /// # Errors
    ///
    /// [`DtlError::Internal`] if a mapped HSN's forward entry is
    /// inconsistent with the reverse table (indicates a bug).
    pub fn swap(&mut self, a: Dsn, b: Dsn) -> Result<(Option<Hsn>, Option<Hsn>), DtlError> {
        if a == b {
            let owner = self.reverse(a);
            return Ok((owner, owner));
        }
        let ha = self.reverse(a);
        let hb = self.reverse(b);
        if let Some(h) = ha {
            self.point(h, b)?;
        }
        if let Some(h) = hb {
            self.point(h, a)?;
        }
        // Rebuild the reverse entries explicitly (point() fixed forward).
        self.clear_reverse(a);
        self.clear_reverse(b);
        if let Some(h) = ha {
            self.set_reverse(b, h);
        }
        if let Some(h) = hb {
            self.set_reverse(a, h);
        }
        Ok((ha, hb))
    }

    /// Updates only the forward table (internal helper for `swap`).
    fn point(&mut self, hsn: Hsn, dsn: Dsn) -> Result<(), DtlError> {
        let map = self
            .host_mut(hsn.host)
            .and_then(|table| table.aus.get_mut(hsn.au.0 as usize)?.as_mut())
            .ok_or_else(|| DtlError::Internal {
                reason: format!("dangling reverse entry {hsn}"),
            })?;
        let slot = map.get_mut(hsn.au_offset as usize).ok_or_else(|| DtlError::Internal {
            reason: format!("AU offset {} out of range", hsn.au_offset),
        })?;
        *slot = dsn;
        Ok(())
    }

    /// Deliberately points the lowest-DSN mapped entry's forward slot at a
    /// different DSN **without updating the reverse table** — the exact
    /// shape of a missed-invalidation mapping bug. A mutation hook for
    /// checker self-tests; never called by production code. Returns the
    /// corrupted HSN, or `None` when nothing is mapped.
    #[doc(hidden)]
    pub fn corrupt_first_forward_slot(&mut self) -> Option<Hsn> {
        let (dsn, hsn) = self.iter_mapped().next()?;
        self.point(hsn, Dsn(dsn.0 ^ 1)).ok()?;
        Some(hsn)
    }

    /// Iterates over all mapped (DSN, HSN) pairs in ascending DSN order.
    pub fn iter_mapped(&self) -> impl Iterator<Item = (Dsn, Hsn)> + '_ {
        self.reverse.iter().enumerate().filter_map(|(d, h)| h.map(|h| (Dsn(d as u64), h)))
    }

    /// Number of mapped segments.
    pub fn mapped_segments(&self) -> u64 {
        self.mapped
    }

    /// Verifies forward/reverse consistency; returns the number of mapped
    /// segments.
    ///
    /// # Errors
    ///
    /// [`DtlError::Internal`] describing the first inconsistency found.
    pub fn check_consistency(&self) -> Result<u64, DtlError> {
        let mut reverse_count = 0u64;
        for (dsn, hsn) in self.iter_mapped() {
            match self.translate(hsn) {
                Some(d) if d == dsn => {}
                other => {
                    return Err(DtlError::Internal {
                        reason: format!("reverse {dsn}->{hsn} but forward says {other:?}"),
                    })
                }
            }
            reverse_count += 1;
        }
        if reverse_count != self.mapped {
            return Err(DtlError::Internal {
                reason: format!("reverse holds {reverse_count} entries but books {}", self.mapped),
            });
        }
        let mut forward_count = 0u64;
        for (host, table) in self.hosts.iter().enumerate() {
            let Some(table) = table else { continue };
            let live = table.aus.iter().flatten().count();
            if live != table.live {
                return Err(DtlError::Internal {
                    reason: format!("host{host} holds {live} AUs but books {}", table.live),
                });
            }
            forward_count += table.aus.iter().flatten().map(|map| map.len() as u64).sum::<u64>();
        }
        if forward_count != reverse_count {
            return Err(DtlError::Internal {
                reason: format!("forward maps {forward_count} segments, reverse {reverse_count}"),
            });
        }
        Ok(forward_count)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tables() -> MappingTables {
        let mut t = MappingTables::new(4);
        t.register_host(HostId(0));
        t.register_host(HostId(1));
        t.create_au(HostId(0), AuId(0), vec![Dsn(0), Dsn(1), Dsn(2), Dsn(3)]).unwrap();
        t.create_au(HostId(1), AuId(0), vec![Dsn(10), Dsn(11), Dsn(12), Dsn(13)]).unwrap();
        t
    }

    fn hsn(host: u16, au: u32, off: u32) -> Hsn {
        Hsn { host: HostId(host), au: AuId(au), au_offset: off }
    }

    #[test]
    fn translate_and_reverse_agree() {
        let t = tables();
        assert_eq!(t.translate(hsn(0, 0, 2)), Some(Dsn(2)));
        assert_eq!(t.reverse(Dsn(2)), Some(hsn(0, 0, 2)));
        assert_eq!(t.translate(hsn(0, 1, 0)), None);
        assert_eq!(t.reverse(Dsn(99)), None);
        t.check_consistency().unwrap();
        assert_eq!(t.mapped_segments(), 8);
    }

    #[test]
    fn create_au_validations() {
        let mut t = tables();
        // Wrong segment count.
        assert!(t.create_au(HostId(0), AuId(1), vec![Dsn(20)]).is_err());
        // Duplicate AU.
        assert!(t.create_au(HostId(0), AuId(0), vec![Dsn(20), Dsn(21), Dsn(22), Dsn(23)]).is_err());
        // DSN already mapped.
        assert!(t.create_au(HostId(0), AuId(1), vec![Dsn(10), Dsn(21), Dsn(22), Dsn(23)]).is_err());
        // Unknown host.
        assert!(t.create_au(HostId(9), AuId(0), vec![Dsn(20), Dsn(21), Dsn(22), Dsn(23)]).is_err());
    }

    #[test]
    fn remove_au_returns_segments() {
        let mut t = tables();
        let dsns = t.remove_au(HostId(0), AuId(0)).unwrap();
        assert_eq!(dsns, vec![Dsn(0), Dsn(1), Dsn(2), Dsn(3)]);
        assert_eq!(t.translate(hsn(0, 0, 0)), None);
        assert_eq!(t.reverse(Dsn(0)), None);
        assert!(t.remove_au(HostId(0), AuId(0)).is_err(), "double remove");
        t.check_consistency().unwrap();
    }

    #[test]
    fn remap_moves_a_segment() {
        let mut t = tables();
        let old = t.remap(hsn(0, 0, 1), Dsn(50)).unwrap();
        assert_eq!(old, Dsn(1));
        assert_eq!(t.translate(hsn(0, 0, 1)), Some(Dsn(50)));
        assert_eq!(t.reverse(Dsn(50)), Some(hsn(0, 0, 1)));
        assert_eq!(t.reverse(Dsn(1)), None);
        t.check_consistency().unwrap();
    }

    #[test]
    fn remap_to_occupied_target_rejected() {
        let mut t = tables();
        assert!(t.remap(hsn(0, 0, 1), Dsn(10)).is_err(), "owned by host 1");
    }

    #[test]
    fn swap_two_live_segments() {
        let mut t = tables();
        let (a, b) = t.swap(Dsn(0), Dsn(10)).unwrap();
        assert_eq!(a, Some(hsn(0, 0, 0)));
        assert_eq!(b, Some(hsn(1, 0, 0)));
        assert_eq!(t.translate(hsn(0, 0, 0)), Some(Dsn(10)));
        assert_eq!(t.translate(hsn(1, 0, 0)), Some(Dsn(0)));
        t.check_consistency().unwrap();
    }

    #[test]
    fn swap_live_with_free() {
        let mut t = tables();
        let (a, b) = t.swap(Dsn(0), Dsn(77)).unwrap();
        assert_eq!(a, Some(hsn(0, 0, 0)));
        assert_eq!(b, None);
        assert_eq!(t.translate(hsn(0, 0, 0)), Some(Dsn(77)));
        assert_eq!(t.reverse(Dsn(0)), None);
        t.check_consistency().unwrap();
    }

    #[test]
    fn swap_with_self_is_identity() {
        let mut t = tables();
        t.swap(Dsn(0), Dsn(0)).unwrap();
        assert_eq!(t.translate(hsn(0, 0, 0)), Some(Dsn(0)));
        t.check_consistency().unwrap();
    }

    #[test]
    fn check_rejects_booked_count_drift() {
        let mut t = tables();
        t.mapped += 1;
        assert!(t.check_consistency().unwrap_err().to_string().contains("books 9"));
        let mut t = tables();
        t.hosts[1].as_mut().unwrap().live = 2;
        assert!(t.check_consistency().unwrap_err().to_string().contains("host1 holds 1 AUs"));
        let mut t = tables();
        t.corrupt_first_forward_slot().unwrap();
        assert!(t.check_consistency().unwrap_err().to_string().contains("reverse dsn"));
    }

    #[test]
    fn swap_two_free_segments_is_noop() {
        let mut t = tables();
        let (a, b) = t.swap(Dsn(70), Dsn(71)).unwrap();
        assert_eq!((a, b), (None, None));
        t.check_consistency().unwrap();
    }
}
