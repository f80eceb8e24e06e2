//! Simulated 64-bit virtual address spaces with soft-dirty page tracking.
//!
//! Each simulated process owns an [`AddressSpace`]: a set of non-overlapping
//! [`MemoryRegion`]s (static data, heap, stacks, memory mappings, shared
//! libraries). Every region tracks per-page *soft-dirty* state exactly like
//! the Linux `/proc/pid/pagemap` facility used by the paper: the state is
//! cleared once (after program startup) and the first write into a page
//! afterwards marks it dirty. Mutable tracing later uses the dirty state to
//! restrict state transfer to objects modified after startup.
//!
//! # Access traps (the post-copy fault barrier)
//!
//! Post-copy state transfer commits the new program version *before* its
//! state has arrived and pulls stale objects in on demand. The mechanism
//! here mirrors `userfaultfd`-style page protection: the update runtime arms
//! per-page protection stamps over the not-yet-transferred ranges
//! ([`AddressSpace::protect_range`]), and a store that hits a protected page
//! does not land — it is parked in a pending-trap buffer
//! ([`AddressSpace::take_pending_traps`]) exactly as a faulting thread would
//! block on the missing page. The fault handler (the drainer in
//! `mcr-core`) transfers the object, removes the protection
//! ([`AddressSpace::unprotect_range`]) and replays the parked store, so the
//! final bytes are written in the same order as a stop-the-world transfer:
//! quiesce-time content first, post-commit stores second. Loads are not
//! intercepted (the simulator's workloads are store-driven); the
//! [`AddressSpace::access_trap`] query lets callers check a range before a
//! read if they need the read barrier too.
//!
//! # Write epochs (the pre-copy write barrier)
//!
//! Instead of a boolean per page, each page stores the address space's
//! *write epoch* at the time of its last store (`0` = clean since the last
//! [`AddressSpace::clear_soft_dirty`]). The iterative pre-copy phase of a
//! live update bumps the epoch once per copy round
//! ([`AddressSpace::advance_write_epoch`]) and then asks only for the pages
//! written since a previous round ([`AddressSpace::drain_dirty_since`],
//! [`AddressSpace::range_dirty_epoch`]), which is what lets it re-copy only
//! the working set dirtied while the old version kept serving. The classic
//! "dirty since startup" queries are the `since == 0` special case, so the
//! stop-the-world paths are unchanged.
//!
//! # Copy-on-write pages
//!
//! A region's bytes live in one slot per [`PAGE_SIZE`] page, each an
//! `Option<Arc<page>>`, exactly like a kernel's page table over shared
//! physical frames:
//!
//! * `None` is a page that was never written. It reads as zeros and holds
//!   no memory, so mapping a 16 MB heap costs one pointer-sized slot per
//!   page, not 16 MB.
//! * A store fills a `None` slot with a fresh page, or un-shares a shared
//!   page with [`Arc::make_mut`] before writing it (the copy-on-write
//!   fault).
//! * Cloning an address space — `fork`, a kernel snapshot — copies the
//!   slot vector only: parent and child share every page until one of them
//!   stores into it. A fork therefore costs O(pages) pointer copies plus
//!   the pages later touched, not O(bytes) mapped.
//!
//! The layout is private to this module: every byte access goes through
//! the accessors below, and [`MemoryRegion::pages`] is the read-only view
//! for whole-region scans. Dirty-epoch stamps, protection stamps and the
//! simulated resident size ([`AddressSpace::mapped_bytes`]) are per mapped
//! page, independent of whether the page is materialised or shared, so CoW
//! changes host cost only — never what the simulation reports.

use std::collections::BTreeMap;
use std::fmt;
use std::sync::Arc;

use crate::error::{SimError, SimResult};

/// Size of a simulated memory page in bytes (matches Linux x86).
pub const PAGE_SIZE: u64 = 4096;

const PAGE_BYTES: usize = PAGE_SIZE as usize;

/// One materialised page frame, shared between address spaces until a store
/// un-shares it.
type Page = [u8; PAGE_BYTES];

/// A simulated virtual address.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Addr(pub u64);

impl Addr {
    /// The null address.
    pub const NULL: Addr = Addr(0);

    /// Returns the address advanced by `off` bytes.
    #[must_use]
    pub fn offset(self, off: u64) -> Addr {
        Addr(self.0 + off)
    }

    /// Returns the address of the page containing this address.
    #[must_use]
    pub fn page_base(self) -> Addr {
        Addr(self.0 & !(PAGE_SIZE - 1))
    }

    /// True if this address is aligned to `align` bytes.
    pub fn is_aligned(self, align: u64) -> bool {
        align != 0 && self.0.is_multiple_of(align)
    }

    /// True if this is the null address.
    pub fn is_null(self) -> bool {
        self.0 == 0
    }
}

impl fmt::Display for Addr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "0x{:x}", self.0)
    }
}

impl From<u64> for Addr {
    fn from(v: u64) -> Self {
        Addr(v)
    }
}

/// The kind of a memory region; mutable tracing treats the kinds differently
/// (static objects are matched by symbol, heap objects by allocation site,
/// library regions are not traced by default).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RegionKind {
    /// Global/static program data (`.data`/`.bss`); one region per program.
    Static,
    /// The program heap managed by a simulated allocator.
    Heap,
    /// A thread stack.
    Stack,
    /// An anonymous or file-backed memory mapping (`mmap`).
    Mmap,
    /// A (possibly uninstrumented) shared library's data segment.
    Lib,
}

impl RegionKind {
    /// Short label used in reports and tracing statistics.
    pub fn label(self) -> &'static str {
        match self {
            RegionKind::Static => "static",
            RegionKind::Heap => "heap",
            RegionKind::Stack => "stack",
            RegionKind::Mmap => "mmap",
            RegionKind::Lib => "lib",
        }
    }
}

impl fmt::Display for RegionKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// A contiguous mapped range of the simulated address space.
#[derive(Debug, Clone)]
pub struct MemoryRegion {
    base: Addr,
    size: u64,
    kind: RegionKind,
    name: String,
    writable: bool,
    /// One slot per page: `None` reads as zeros (never written), `Some`
    /// is a frame possibly shared with forked or cloned address spaces.
    pages: Vec<Option<Arc<Page>>>,
    /// Per-page dirty stamp: the address space's write epoch at the page's
    /// last store, `0` when the page is clean since the last
    /// `clear_soft_dirty`.
    dirty_epoch: Vec<u64>,
    /// Per-page post-copy protection stamp: `true` while the page's content
    /// has not been transferred yet and any store must trap.
    protected: Vec<bool>,
    /// Total number of write syscalls/stores into the region (instrumentation
    /// statistics, not part of the paper's kernel interface).
    write_count: u64,
}

impl MemoryRegion {
    fn new(
        base: Addr,
        size: u64,
        kind: RegionKind,
        name: impl Into<String>,
        writable: bool,
        epoch: u64,
    ) -> Self {
        let pages = size.div_ceil(PAGE_SIZE) as usize;
        MemoryRegion {
            base,
            size,
            kind,
            name: name.into(),
            writable,
            pages: vec![None; pages],
            // Freshly mapped pages are dirty: they were just created.
            dirty_epoch: vec![epoch; pages],
            protected: vec![false; pages],
            write_count: 0,
        }
    }

    /// Base address of the region.
    pub fn base(&self) -> Addr {
        self.base
    }

    /// Size of the region in bytes.
    pub fn size(&self) -> u64 {
        self.size
    }

    /// End address (exclusive).
    pub fn end(&self) -> Addr {
        Addr(self.base.0 + self.size)
    }

    /// Kind of the region.
    pub fn kind(&self) -> RegionKind {
        self.kind
    }

    /// Human-readable name (e.g. `"heap"`, `"lib:libssl"`).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Whether writes are permitted.
    pub fn is_writable(&self) -> bool {
        self.writable
    }

    /// Whether the address lies inside the region.
    pub fn contains(&self, addr: Addr) -> bool {
        addr.0 >= self.base.0 && addr.0 < self.base.0 + self.size
    }

    /// Number of pages spanned by the region.
    pub fn page_count(&self) -> usize {
        self.dirty_epoch.len()
    }

    /// Whether the page containing `addr` is soft-dirty (written since the
    /// last `clear_soft_dirty`).
    pub fn page_is_dirty(&self, addr: Addr) -> bool {
        self.page_dirty_epoch(addr) != 0
    }

    /// The dirty stamp of the page containing `addr` (`0` when clean).
    pub fn page_dirty_epoch(&self, addr: Addr) -> u64 {
        let idx = ((addr.0 - self.base.0) / PAGE_SIZE) as usize;
        self.dirty_epoch.get(idx).copied().unwrap_or(0)
    }

    /// Number of dirty pages in the region.
    pub fn dirty_page_count(&self) -> usize {
        self.dirty_page_count_since(0)
    }

    /// Number of pages whose dirty stamp exceeds `since`.
    pub fn dirty_page_count_since(&self, since: u64) -> usize {
        self.dirty_epoch.iter().filter(|&&e| e > since).count()
    }

    /// Total stores observed in this region.
    pub fn write_count(&self) -> u64 {
        self.write_count
    }

    /// Whether the page containing `addr` is post-copy protected.
    pub fn page_is_protected(&self, addr: Addr) -> bool {
        let idx = ((addr.0 - self.base.0) / PAGE_SIZE) as usize;
        self.protected.get(idx).copied().unwrap_or(false)
    }

    /// Number of protected pages in the region.
    pub fn protected_page_count(&self) -> usize {
        self.protected.iter().filter(|&&p| p).count()
    }

    fn page_span(&self, addr: Addr, len: u64) -> std::ops::RangeInclusive<usize> {
        let start = ((addr.0 - self.base.0) / PAGE_SIZE) as usize;
        let end = ((addr.0 - self.base.0 + len.max(1) - 1) / PAGE_SIZE) as usize;
        start..=end.min(self.protected.len().saturating_sub(1))
    }

    fn set_protected(&mut self, addr: Addr, len: u64, value: bool) -> isize {
        let mut delta = 0isize;
        for page in self.page_span(addr, len) {
            if self.protected[page] != value {
                delta += if value { 1 } else { -1 };
                self.protected[page] = value;
            }
        }
        delta
    }

    fn span_is_protected(&self, addr: Addr, len: u64) -> bool {
        self.page_span(addr, len).any(|page| self.protected[page])
    }

    fn mark_dirty(&mut self, addr: Addr, len: usize, epoch: u64) {
        let start = ((addr.0 - self.base.0) / PAGE_SIZE) as usize;
        let end = ((addr.0 - self.base.0 + len.max(1) as u64 - 1) / PAGE_SIZE) as usize;
        for page in start..=end.min(self.dirty_epoch.len().saturating_sub(1)) {
            self.dirty_epoch[page] = epoch;
        }
    }

    fn clear_soft_dirty(&mut self) {
        for stamp in &mut self.dirty_epoch {
            *stamp = 0;
        }
    }

    /// Read-only view of the region's contents, one item per page in
    /// address order: `None` for a never-written page (all zeros), else the
    /// page's bytes. Every page spans [`PAGE_SIZE`] bytes except the last,
    /// which is truncated to the region size (its `Some` slice is, too).
    pub fn pages(&self) -> impl Iterator<Item = Option<&[u8]>> + '_ {
        let size = self.size as usize;
        self.pages
            .iter()
            .enumerate()
            .map(move |(i, page)| page.as_deref().map(|p| &p[..(size - i * PAGE_BYTES).min(PAGE_BYTES)]))
    }

    /// Region offset of `[addr, addr + len)`, which must fit in the region;
    /// `addr` must lie inside it. The end is computed with `checked_add`,
    /// so a huge `len` is `OutOfBounds`, never an overflow.
    fn offset_of(&self, addr: Addr, len: usize) -> SimResult<usize> {
        let off = addr.0 - self.base.0;
        match off.checked_add(len as u64) {
            Some(end) if end <= self.size => Ok(off as usize),
            _ => Err(SimError::OutOfBounds { addr, len }),
        }
    }

    /// The page at `idx`, materialised (if never written) and un-shared (if
    /// another address space holds it too) so it can be stored into.
    fn page_mut(&mut self, idx: usize) -> &mut Page {
        Arc::make_mut(self.pages[idx].get_or_insert_with(|| Arc::new([0; PAGE_BYTES])))
    }

    /// Copies the bytes at region offset `off` into `buf`. With `zeroed`
    /// the caller guarantees `buf` is all zeros, so never-written pages are
    /// skipped instead of zero-filled.
    fn read_at(&self, off: usize, buf: &mut [u8], zeroed: bool) {
        let read_page = |idx: usize, at: usize, dst: &mut [u8]| match &self.pages[idx] {
            Some(page) => dst.copy_from_slice(&page[at..at + dst.len()]),
            None if !zeroed => dst.fill(0),
            None => {}
        };
        let (idx, at) = (off / PAGE_BYTES, off % PAGE_BYTES);
        if at + buf.len() <= PAGE_BYTES {
            // Single-page fast path: every word-sized load.
            return read_page(idx, at, buf);
        }
        let mut done = 0;
        while done < buf.len() {
            let (idx, at) = ((off + done) / PAGE_BYTES, (off + done) % PAGE_BYTES);
            let n = (PAGE_BYTES - at).min(buf.len() - done);
            read_page(idx, at, &mut buf[done..done + n]);
            done += n;
        }
    }

    /// Stores `bytes` at region offset `off`, materialising or un-sharing
    /// exactly the touched pages.
    fn write_at(&mut self, off: usize, bytes: &[u8]) {
        if bytes.is_empty() {
            return;
        }
        let (idx, at) = (off / PAGE_BYTES, off % PAGE_BYTES);
        if at + bytes.len() <= PAGE_BYTES {
            // Single-page fast path: every word-sized store.
            self.page_mut(idx)[at..at + bytes.len()].copy_from_slice(bytes);
            return;
        }
        let mut done = 0;
        while done < bytes.len() {
            let (idx, at) = ((off + done) / PAGE_BYTES, (off + done) % PAGE_BYTES);
            let n = (PAGE_BYTES - at).min(bytes.len() - done);
            self.page_mut(idx)[at..at + n].copy_from_slice(&bytes[done..done + n]);
            done += n;
        }
    }

    /// Copies `len` bytes from `src` at `src_off` to region offset `off`,
    /// page to page with no intermediate buffer. A never-written source
    /// page only zeroes destination pages that hold data.
    fn copy_from(&mut self, off: usize, src: &MemoryRegion, src_off: usize, len: usize) {
        let mut done = 0;
        while done < len {
            let (idx, at) = ((off + done) / PAGE_BYTES, (off + done) % PAGE_BYTES);
            let (src_idx, src_at) = ((src_off + done) / PAGE_BYTES, (src_off + done) % PAGE_BYTES);
            let n = (PAGE_BYTES - at).min(PAGE_BYTES - src_at).min(len - done);
            match &src.pages[src_idx] {
                Some(page) => self.page_mut(idx)[at..at + n].copy_from_slice(&page[src_at..src_at + n]),
                None if self.pages[idx].is_some() => self.page_mut(idx)[at..at + n].fill(0),
                None => {}
            }
            done += n;
        }
    }
}

/// A report of the dirty pages of one region, as collected at update time.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DirtyRange {
    /// Base address of the dirty page run.
    pub base: Addr,
    /// Length of the run in bytes.
    pub len: u64,
    /// Kind of the containing region.
    pub kind: RegionKind,
}

/// A store that hit a post-copy protected page and is parked until the
/// fault handler transfers the page's content and replays it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PendingTrap {
    /// Destination address of the parked store.
    pub addr: Addr,
    /// The bytes the store would have written.
    pub bytes: Vec<u8>,
}

/// A full simulated virtual address space.
#[derive(Debug, Clone)]
pub struct AddressSpace {
    regions: BTreeMap<u64, MemoryRegion>,
    /// The stamp given to pages written from now on; bumped once per
    /// pre-copy round by [`AddressSpace::advance_write_epoch`].
    write_epoch: u64,
    /// Total protected pages across all regions (fast-path guard so the
    /// store barrier costs nothing while post-copy is not in progress).
    protected_pages: usize,
    /// Stores parked by the access-trap barrier, in program order.
    pending_traps: Vec<PendingTrap>,
    /// Total stores ever parked (instrumentation).
    traps_taken: u64,
}

impl Default for AddressSpace {
    fn default() -> Self {
        AddressSpace {
            regions: BTreeMap::new(),
            write_epoch: 1,
            protected_pages: 0,
            pending_traps: Vec::new(),
            traps_taken: 0,
        }
    }
}

impl AddressSpace {
    /// Creates an empty address space.
    pub fn new() -> Self {
        Self::default()
    }

    /// Maps a new region at `base`.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::MappingOverlap`] if the range overlaps an existing
    /// region and [`SimError::InvalidArgument`] for a zero-sized mapping.
    pub fn map_region(
        &mut self,
        base: Addr,
        size: u64,
        kind: RegionKind,
        name: impl Into<String>,
    ) -> SimResult<()> {
        self.map_region_with_perms(base, size, kind, name, true)
    }

    /// Maps a new region with explicit writability.
    pub fn map_region_with_perms(
        &mut self,
        base: Addr,
        size: u64,
        kind: RegionKind,
        name: impl Into<String>,
        writable: bool,
    ) -> SimResult<()> {
        if size == 0 {
            return Err(SimError::InvalidArgument("zero-sized mapping".into()));
        }
        if base.0.checked_add(size).is_none() {
            return Err(SimError::InvalidArgument("mapping wraps the address space".into()));
        }
        if self.overlaps(base, size) {
            return Err(SimError::MappingOverlap { base, size });
        }
        self.regions.insert(base.0, MemoryRegion::new(base, size, kind, name, writable, self.write_epoch));
        Ok(())
    }

    /// Unmaps the region starting exactly at `base`.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::UnmappedAddress`] if no region starts at `base`.
    pub fn unmap_region(&mut self, base: Addr) -> SimResult<MemoryRegion> {
        self.regions.remove(&base.0).ok_or(SimError::UnmappedAddress(base))
    }

    fn overlaps(&self, base: Addr, size: u64) -> bool {
        let end = base.0 + size;
        self.regions.values().any(|r| base.0 < r.end().0 && r.base().0 < end)
    }

    /// Finds the region containing `addr`.
    pub fn region_containing(&self, addr: Addr) -> Option<&MemoryRegion> {
        self.regions.range(..=addr.0).next_back().map(|(_, r)| r).filter(|r| r.contains(addr))
    }

    fn region_containing_mut(&mut self, addr: Addr) -> Option<&mut MemoryRegion> {
        self.regions.range_mut(..=addr.0).next_back().map(|(_, r)| r).filter(|r| r.contains(addr))
    }

    /// Iterates over all mapped regions in address order.
    pub fn regions(&self) -> impl Iterator<Item = &MemoryRegion> {
        self.regions.values()
    }

    /// Returns the region of the given kind with the given name, if any.
    pub fn find_region(&self, kind: RegionKind, name: &str) -> Option<&MemoryRegion> {
        self.regions.values().find(|r| r.kind() == kind && r.name() == name)
    }

    /// Total mapped bytes (a proxy for the resident set size of the process).
    pub fn mapped_bytes(&self) -> u64 {
        self.regions.values().map(|r| r.size()).sum()
    }

    /// True if an address is mapped.
    pub fn is_mapped(&self, addr: Addr) -> bool {
        self.region_containing(addr).is_some()
    }

    /// True if `addr` is mapped and points at least `len` bytes inside a
    /// single region (the validity test used by conservative pointer
    /// scanning).
    pub fn is_valid_range(&self, addr: Addr, len: usize) -> bool {
        match self.region_containing(addr) {
            Some(r) => addr.0.checked_add(len as u64).is_some_and(|end| end <= r.end().0),
            None => false,
        }
    }

    // ------------------------------------------------------------------
    // Raw byte accessors
    // ------------------------------------------------------------------

    /// Reads `len` bytes starting at `addr`.
    ///
    /// # Errors
    ///
    /// Fails if the range is unmapped or crosses the end of its region.
    pub fn read_bytes(&self, addr: Addr, len: usize) -> SimResult<Vec<u8>> {
        let region = self.region_containing(addr).ok_or(SimError::UnmappedAddress(addr))?;
        let off = region.offset_of(addr, len)?;
        let mut out = vec![0; len];
        region.read_at(off, &mut out, true);
        Ok(out)
    }

    /// Reads `buf.len()` bytes starting at `addr` into a caller-provided
    /// buffer — the allocation-free sibling of [`AddressSpace::read_bytes`].
    /// The transfer engine's snapshot pass uses this with a reusable
    /// per-worker scratch buffer so tracing a big heap does not allocate one
    /// `Vec` per object.
    ///
    /// # Errors
    ///
    /// Fails if the range is unmapped or crosses the end of its region.
    pub fn read_into(&self, addr: Addr, buf: &mut [u8]) -> SimResult<()> {
        let region = self.region_containing(addr).ok_or(SimError::UnmappedAddress(addr))?;
        let off = region.offset_of(addr, buf.len())?;
        region.read_at(off, buf, false);
        Ok(())
    }

    /// Copies `len` bytes from `src` (at `src_addr`) directly into this
    /// address space at `dst`: one region-to-region `memcpy` that stamps
    /// write-epochs once per touched page instead of routing every object
    /// through an intermediate `Vec`. This is the range-copy fast path the
    /// transfer engine uses for verbatim (untyped / non-updatable) objects.
    ///
    /// Like [`AddressSpace::write_bytes_through`], this is a transfer-engine
    /// store path and bypasses post-copy access traps.
    ///
    /// # Errors
    ///
    /// Fails if the source range is unmapped or out of bounds, or if the
    /// destination range is unmapped, read-only, or out of bounds.
    pub fn copy_range(&mut self, dst: Addr, src: &AddressSpace, src_addr: Addr, len: usize) -> SimResult<()> {
        let src_region = src.region_containing(src_addr).ok_or(SimError::UnmappedAddress(src_addr))?;
        let src_off = src_region.offset_of(src_addr, len)?;
        let epoch = self.write_epoch;
        let region = self.region_containing_mut(dst).ok_or(SimError::UnmappedAddress(dst))?;
        if !region.is_writable() {
            return Err(SimError::ReadOnlyRegion(dst));
        }
        let off = region.offset_of(dst, len)?;
        region.copy_from(off, src_region, src_off, len);
        region.mark_dirty(dst, len, epoch);
        region.write_count += 1;
        Ok(())
    }

    /// Writes `bytes` starting at `addr`, marking touched pages soft-dirty.
    ///
    /// If any touched page is post-copy protected, the store does not land:
    /// it is parked as a [`PendingTrap`] (the simulated thread "faults" on
    /// the missing page) and `Ok` is returned. The fault handler retrieves
    /// parked stores with [`AddressSpace::take_pending_traps`], transfers
    /// the page content, unprotects, and replays them.
    ///
    /// # Errors
    ///
    /// Fails if the range is unmapped, read-only, or out of bounds.
    pub fn write_bytes(&mut self, addr: Addr, bytes: &[u8]) -> SimResult<()> {
        if self.protected_pages > 0 {
            let region = self.region_containing(addr).ok_or(SimError::UnmappedAddress(addr))?;
            if !region.is_writable() {
                return Err(SimError::ReadOnlyRegion(addr));
            }
            region.offset_of(addr, bytes.len())?;
            if region.span_is_protected(addr, bytes.len().max(1) as u64) {
                self.pending_traps.push(PendingTrap { addr, bytes: bytes.to_vec() });
                self.traps_taken += 1;
                return Ok(());
            }
        }
        self.write_bytes_through(addr, bytes)
    }

    /// Writes `bytes` starting at `addr`, bypassing the post-copy access
    /// traps — the store path of the fault handler itself, which must land
    /// quiesce-time content on still-protected pages before replaying the
    /// parked program stores.
    ///
    /// # Errors
    ///
    /// Fails if the range is unmapped, read-only, or out of bounds.
    pub fn write_bytes_through(&mut self, addr: Addr, bytes: &[u8]) -> SimResult<()> {
        let epoch = self.write_epoch;
        let region = self.region_containing_mut(addr).ok_or(SimError::UnmappedAddress(addr))?;
        if !region.is_writable() {
            return Err(SimError::ReadOnlyRegion(addr));
        }
        let off = region.offset_of(addr, bytes.len())?;
        region.write_at(off, bytes);
        region.mark_dirty(addr, bytes.len(), epoch);
        region.write_count += 1;
        Ok(())
    }

    /// Fills `len` bytes at `addr` with `value`.
    pub fn fill(&mut self, addr: Addr, len: usize, value: u8) -> SimResult<()> {
        self.write_bytes(addr, &vec![value; len])
    }

    // ------------------------------------------------------------------
    // Word accessors (little-endian, as on x86)
    // ------------------------------------------------------------------

    /// Reads a 64-bit little-endian word (also used for pointers).
    pub fn read_u64(&self, addr: Addr) -> SimResult<u64> {
        let mut b = [0; 8];
        self.read_into(addr, &mut b)?;
        Ok(u64::from_le_bytes(b))
    }

    /// Writes a 64-bit little-endian word.
    pub fn write_u64(&mut self, addr: Addr, value: u64) -> SimResult<()> {
        self.write_bytes(addr, &value.to_le_bytes())
    }

    /// Reads a pointer-sized value as an address.
    pub fn read_ptr(&self, addr: Addr) -> SimResult<Addr> {
        Ok(Addr(self.read_u64(addr)?))
    }

    /// Writes an address as a pointer-sized value.
    pub fn write_ptr(&mut self, addr: Addr, value: Addr) -> SimResult<()> {
        self.write_u64(addr, value.0)
    }

    /// Reads a 32-bit little-endian word.
    pub fn read_u32(&self, addr: Addr) -> SimResult<u32> {
        let mut b = [0; 4];
        self.read_into(addr, &mut b)?;
        Ok(u32::from_le_bytes(b))
    }

    /// Writes a 32-bit little-endian word.
    pub fn write_u32(&mut self, addr: Addr, value: u32) -> SimResult<()> {
        self.write_bytes(addr, &value.to_le_bytes())
    }

    /// Reads a single byte.
    pub fn read_u8(&self, addr: Addr) -> SimResult<u8> {
        let mut b = [0; 1];
        self.read_into(addr, &mut b)?;
        Ok(b[0])
    }

    /// Writes a single byte.
    pub fn write_u8(&mut self, addr: Addr, value: u8) -> SimResult<()> {
        self.write_bytes(addr, &[value])
    }

    /// Reads a NUL-terminated C string of at most `max` bytes.
    pub fn read_cstring(&self, addr: Addr, max: usize) -> SimResult<String> {
        let mut out = Vec::new();
        for i in 0..max {
            let b = self.read_u8(addr.offset(i as u64))?;
            if b == 0 {
                break;
            }
            out.push(b);
        }
        Ok(String::from_utf8_lossy(&out).into_owned())
    }

    /// Writes a NUL-terminated C string.
    pub fn write_cstring(&mut self, addr: Addr, s: &str) -> SimResult<()> {
        let mut bytes = s.as_bytes().to_vec();
        bytes.push(0);
        self.write_bytes(addr, &bytes)
    }

    // ------------------------------------------------------------------
    // Soft-dirty tracking (the /proc/pid/pagemap analogue) and the
    // epoch-based pre-copy write barrier built on top of it
    // ------------------------------------------------------------------

    /// Clears every soft-dirty stamp in the address space.
    ///
    /// MCR invokes this once at the end of program startup, so that only
    /// pages written afterwards are reported dirty at update time.
    pub fn clear_soft_dirty(&mut self) {
        for region in self.regions.values_mut() {
            region.clear_soft_dirty();
        }
    }

    /// The current write epoch (the stamp pages written from now on get).
    pub fn write_epoch(&self) -> u64 {
        self.write_epoch
    }

    /// Forces the space's write epoch (checkpoint restore: the restored
    /// space must resume counting where the checkpointed one left off).
    pub fn set_write_epoch(&mut self, epoch: u64) {
        self.write_epoch = epoch.max(1);
    }

    /// Rewrites the per-page dirty stamps of the region starting at `base`:
    /// every stamp is cleared, then the given `(page_index, epoch)` pairs
    /// are applied. Checkpoint restore uses this to reproduce the exact
    /// soft-dirty state after its reconcile writes transiently stamped
    /// pages the checkpointed instance never dirtied.
    pub fn restore_page_epochs(&mut self, base: Addr, stamps: &[(u32, u64)]) -> SimResult<()> {
        let region = self.regions.get_mut(&base.0).ok_or(SimError::UnmappedAddress(base))?;
        for e in region.dirty_epoch.iter_mut() {
            *e = 0;
        }
        for &(idx, epoch) in stamps {
            let slot = region.dirty_epoch.get_mut(idx as usize).ok_or_else(|| {
                SimError::InvalidArgument(format!("page index {idx} outside region at {base:?}"))
            })?;
            *slot = epoch;
        }
        Ok(())
    }

    /// Starts a new write epoch and returns the previous one — the highest
    /// stamp any already-written page can carry. A pre-copy round calls this
    /// before copying, so the *next* round can ask for exactly the pages
    /// written in between via [`AddressSpace::drain_dirty_since`].
    pub fn advance_write_epoch(&mut self) -> u64 {
        let prev = self.write_epoch;
        self.write_epoch += 1;
        prev
    }

    /// Collects all dirty page runs, coalescing adjacent dirty pages.
    pub fn dirty_ranges(&self) -> Vec<DirtyRange> {
        self.drain_dirty_since(0)
    }

    /// Collects the page runs whose dirty stamp exceeds `since`, coalescing
    /// adjacent matching pages. `since == 0` reports everything written
    /// since the last [`AddressSpace::clear_soft_dirty`]; a pre-copy round
    /// passes the epoch returned by its previous
    /// [`AddressSpace::advance_write_epoch`] to see only the delta.
    pub fn drain_dirty_since(&self, since: u64) -> Vec<DirtyRange> {
        let mut out = Vec::new();
        for region in self.regions.values() {
            let mut run_start: Option<u64> = None;
            for page in 0..region.page_count() as u64 {
                let dirty = region.dirty_epoch[page as usize] > since;
                match (dirty, run_start) {
                    (true, None) => run_start = Some(page),
                    (false, Some(start)) => {
                        out.push(DirtyRange {
                            base: region.base().offset(start * PAGE_SIZE),
                            len: (page - start) * PAGE_SIZE,
                            kind: region.kind(),
                        });
                        run_start = None;
                    }
                    _ => {}
                }
            }
            if let Some(start) = run_start {
                out.push(DirtyRange {
                    base: region.base().offset(start * PAGE_SIZE),
                    len: (region.page_count() as u64 - start) * PAGE_SIZE,
                    kind: region.kind(),
                });
            }
        }
        out
    }

    /// Whether the page containing `addr` is soft-dirty.
    pub fn is_dirty(&self, addr: Addr) -> bool {
        self.region_containing(addr).map(|r| r.page_is_dirty(addr)).unwrap_or(false)
    }

    /// The highest dirty stamp of the pages covering `[base, base + len)`
    /// (`0` when every covering page is clean). This is the per-object dirty
    /// epoch mutable tracing records on each traced object.
    pub fn range_dirty_epoch(&self, base: Addr, len: u64) -> u64 {
        let mut epoch = 0u64;
        let mut page = base.page_base();
        let end = base.0 + len.max(1);
        while page.0 < end {
            if let Some(r) = self.region_containing(page) {
                epoch = epoch.max(r.page_dirty_epoch(page));
            }
            page = page.offset(PAGE_SIZE);
        }
        epoch
    }

    /// Total number of dirty pages across all regions.
    pub fn dirty_page_count(&self) -> usize {
        self.regions.values().map(|r| r.dirty_page_count()).sum()
    }

    /// Number of pages (across all regions) whose dirty stamp exceeds
    /// `since` — the pre-copy convergence measure.
    pub fn dirty_page_count_since(&self, since: u64) -> usize {
        self.regions.values().map(|r| r.dirty_page_count_since(since)).sum()
    }

    /// Total number of mapped pages across all regions.
    pub fn total_page_count(&self) -> usize {
        self.regions.values().map(|r| r.page_count()).sum()
    }

    // ------------------------------------------------------------------
    // Post-copy access traps (the userfaultfd analogue)
    // ------------------------------------------------------------------

    /// Arms post-copy protection over the pages covering `[base, base+len)`:
    /// until [`AddressSpace::unprotect_range`] removes it, any
    /// [`AddressSpace::write_bytes`] store touching these pages is parked as
    /// a [`PendingTrap`] instead of landing.
    ///
    /// # Errors
    ///
    /// Fails if the range is unmapped or crosses the end of its region.
    pub fn protect_range(&mut self, base: Addr, len: u64) -> SimResult<()> {
        self.set_protection(base, len, true)
    }

    /// Removes post-copy protection from the pages covering
    /// `[base, base+len)` — called by the fault handler once the pages'
    /// content has been transferred.
    ///
    /// # Errors
    ///
    /// Fails if the range is unmapped or crosses the end of its region.
    pub fn unprotect_range(&mut self, base: Addr, len: u64) -> SimResult<()> {
        self.set_protection(base, len, false)
    }

    fn set_protection(&mut self, base: Addr, len: u64, value: bool) -> SimResult<()> {
        let region = self
            .regions
            .range_mut(..=base.0)
            .next_back()
            .map(|(_, r)| r)
            .filter(|r| r.contains(base))
            .ok_or(SimError::UnmappedAddress(base))?;
        if base.0.checked_add(len).is_none_or(|end| end > region.end().0) {
            return Err(SimError::OutOfBounds { addr: base, len: len as usize });
        }
        let delta = region.set_protected(base, len, value);
        self.protected_pages = (self.protected_pages as isize + delta) as usize;
        Ok(())
    }

    /// Drops every protection stamp in the address space (post-copy drain
    /// finished, or the update rolled back).
    pub fn clear_protection(&mut self) {
        for region in self.regions.values_mut() {
            for page in &mut region.protected {
                *page = false;
            }
        }
        self.protected_pages = 0;
    }

    /// Whether the page containing `addr` is post-copy protected.
    pub fn is_protected(&self, addr: Addr) -> bool {
        self.protected_pages > 0
            && self.region_containing(addr).map(|r| r.page_is_protected(addr)).unwrap_or(false)
    }

    /// The base address of the first protected page covering
    /// `[addr, addr+len)`, if any — the read-barrier query for callers that
    /// need to check a load against the trap state.
    pub fn access_trap(&self, addr: Addr, len: u64) -> Option<Addr> {
        if self.protected_pages == 0 {
            return None;
        }
        let mut page = addr.page_base();
        let end = addr.0 + len.max(1);
        while page.0 < end {
            if let Some(r) = self.region_containing(page) {
                if r.page_is_protected(page) {
                    return Some(page);
                }
            }
            page = page.offset(PAGE_SIZE);
        }
        None
    }

    /// Total number of protected pages across all regions.
    pub fn protected_page_count(&self) -> usize {
        self.protected_pages
    }

    /// Number of parked stores awaiting fault-in service.
    pub fn pending_trap_count(&self) -> usize {
        self.pending_traps.len()
    }

    /// Takes the parked stores, in program order, leaving the buffer empty.
    /// The fault handler transfers the touched objects, unprotects their
    /// pages, and replays these stores in order.
    pub fn take_pending_traps(&mut self) -> Vec<PendingTrap> {
        std::mem::take(&mut self.pending_traps)
    }

    /// Total number of stores ever parked by the trap barrier.
    pub fn traps_taken(&self) -> u64 {
        self.traps_taken
    }
}

/// Test-only views of the private page slots, so the CoW tests here and in
/// `process.rs`/`kernel.rs` can check what a fork or a clone materialised.
#[cfg(test)]
impl AddressSpace {
    /// Number of materialised page frames across all regions.
    pub(crate) fn materialised_pages(&self) -> usize {
        self.regions.values().map(|r| r.pages.iter().flatten().count()).sum()
    }

    /// Number of frames `self` shares with `other`: the same frame in the
    /// same slot of the same region.
    pub(crate) fn shared_pages_with(&self, other: &AddressSpace) -> usize {
        self.regions
            .iter()
            .filter_map(|(base, r)| other.regions.get(base).map(|o| (r, o)))
            .flat_map(|(r, o)| r.pages.iter().zip(&o.pages))
            .filter(|(a, b)| matches!((a, b), (Some(a), Some(b)) if Arc::ptr_eq(a, b)))
            .count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn space_with_region() -> AddressSpace {
        let mut space = AddressSpace::new();
        space.map_region(Addr(0x10000), 8 * PAGE_SIZE, RegionKind::Heap, "heap").unwrap();
        space
    }

    #[test]
    fn map_and_query_region() {
        let space = space_with_region();
        let r = space.region_containing(Addr(0x10000 + 100)).unwrap();
        assert_eq!(r.base(), Addr(0x10000));
        assert_eq!(r.kind(), RegionKind::Heap);
        assert!(space.is_mapped(Addr(0x10000)));
        assert!(!space.is_mapped(Addr(0x10000 + 8 * PAGE_SIZE)));
        assert_eq!(space.mapped_bytes(), 8 * PAGE_SIZE);
    }

    #[test]
    fn overlapping_map_rejected() {
        let mut space = space_with_region();
        let err = space.map_region(Addr(0x10000 + PAGE_SIZE), PAGE_SIZE, RegionKind::Mmap, "x").unwrap_err();
        assert!(matches!(err, SimError::MappingOverlap { .. }));
        // Adjacent (non-overlapping) map is fine.
        space.map_region(Addr(0x10000 + 8 * PAGE_SIZE), PAGE_SIZE, RegionKind::Mmap, "y").unwrap();
    }

    #[test]
    fn zero_sized_map_rejected() {
        let mut space = AddressSpace::new();
        assert!(space.map_region(Addr(0x1000), 0, RegionKind::Mmap, "z").is_err());
    }

    #[test]
    fn read_write_words() {
        let mut space = space_with_region();
        space.write_u64(Addr(0x10008), 0xdead_beef_cafe_f00d).unwrap();
        assert_eq!(space.read_u64(Addr(0x10008)).unwrap(), 0xdead_beef_cafe_f00d);
        space.write_u32(Addr(0x10020), 77).unwrap();
        assert_eq!(space.read_u32(Addr(0x10020)).unwrap(), 77);
        space.write_u8(Addr(0x10030), 9).unwrap();
        assert_eq!(space.read_u8(Addr(0x10030)).unwrap(), 9);
    }

    #[test]
    fn cstring_roundtrip() {
        let mut space = space_with_region();
        space.write_cstring(Addr(0x10100), "hello mcr").unwrap();
        assert_eq!(space.read_cstring(Addr(0x10100), 64).unwrap(), "hello mcr");
    }

    #[test]
    fn unmapped_and_out_of_bounds_access() {
        let mut space = space_with_region();
        assert!(matches!(space.read_u64(Addr(0x1)).unwrap_err(), SimError::UnmappedAddress(_)));
        let end = Addr(0x10000 + 8 * PAGE_SIZE - 4);
        assert!(matches!(space.write_u64(end, 1).unwrap_err(), SimError::OutOfBounds { .. }));
    }

    #[test]
    fn read_only_region_rejects_writes() {
        let mut space = AddressSpace::new();
        space.map_region_with_perms(Addr(0x5000), PAGE_SIZE, RegionKind::Lib, "ro", false).unwrap();
        assert!(matches!(space.write_u8(Addr(0x5000), 1).unwrap_err(), SimError::ReadOnlyRegion(_)));
        assert_eq!(space.read_u8(Addr(0x5000)).unwrap(), 0);
    }

    #[test]
    fn soft_dirty_lifecycle() {
        let mut space = space_with_region();
        // Freshly mapped pages are dirty (they were just created).
        assert_eq!(space.dirty_page_count(), 8);
        space.clear_soft_dirty();
        assert_eq!(space.dirty_page_count(), 0);
        // A single write dirties exactly the touched page(s).
        space.write_u64(Addr(0x10000 + PAGE_SIZE + 8), 1).unwrap();
        assert_eq!(space.dirty_page_count(), 1);
        assert!(space.is_dirty(Addr(0x10000 + PAGE_SIZE)));
        assert!(!space.is_dirty(Addr(0x10000)));
        // A write spanning a page boundary dirties both pages.
        space.write_bytes(Addr(0x10000 + 3 * PAGE_SIZE - 4), &[1u8; 8]).unwrap();
        assert!(space.is_dirty(Addr(0x10000 + 2 * PAGE_SIZE)));
        assert!(space.is_dirty(Addr(0x10000 + 3 * PAGE_SIZE)));
    }

    #[test]
    fn dirty_ranges_coalesce() {
        let mut space = space_with_region();
        space.clear_soft_dirty();
        space.write_u8(Addr(0x10000), 1).unwrap();
        space.write_u8(Addr(0x10000 + PAGE_SIZE), 1).unwrap();
        space.write_u8(Addr(0x10000 + 4 * PAGE_SIZE), 1).unwrap();
        let ranges = space.dirty_ranges();
        assert_eq!(ranges.len(), 2);
        assert_eq!(ranges[0].base, Addr(0x10000));
        assert_eq!(ranges[0].len, 2 * PAGE_SIZE);
        assert_eq!(ranges[1].base, Addr(0x10000 + 4 * PAGE_SIZE));
        assert_eq!(ranges[1].len, PAGE_SIZE);
    }

    #[test]
    fn write_epochs_expose_per_round_deltas() {
        let mut space = space_with_region();
        space.clear_soft_dirty();
        // Round 0 writes carry the initial epoch.
        space.write_u64(Addr(0x10000), 1).unwrap();
        let e0 = space.advance_write_epoch();
        assert_eq!(space.write_epoch(), e0 + 1);
        // Nothing written after the bump yet.
        assert!(space.drain_dirty_since(e0).is_empty());
        assert_eq!(space.dirty_page_count_since(e0), 0);
        // A new write lands in the new epoch and only it shows up in the
        // delta; the full dirty set still contains both pages.
        space.write_u64(Addr(0x10000 + 2 * PAGE_SIZE), 2).unwrap();
        let delta = space.drain_dirty_since(e0);
        assert_eq!(delta.len(), 1);
        assert_eq!(delta[0].base, Addr(0x10000 + 2 * PAGE_SIZE));
        assert_eq!(space.dirty_page_count(), 2);
        assert_eq!(space.range_dirty_epoch(Addr(0x10000), 8), e0);
        assert_eq!(space.range_dirty_epoch(Addr(0x10000 + 2 * PAGE_SIZE), 8), e0 + 1);
        assert_eq!(space.range_dirty_epoch(Addr(0x10000 + PAGE_SIZE), 8), 0);
        // Re-writing an old page moves it into the current epoch.
        let e1 = space.advance_write_epoch();
        space.write_u64(Addr(0x10000), 3).unwrap();
        assert_eq!(space.dirty_page_count_since(e1), 1);
        // clear_soft_dirty resets stamps but not the epoch counter.
        space.clear_soft_dirty();
        assert_eq!(space.dirty_page_count(), 0);
        assert_eq!(space.write_epoch(), e1 + 1);
    }

    #[test]
    fn access_traps_park_and_replay_stores() {
        let mut space = space_with_region();
        space.clear_soft_dirty();
        space.write_u64(Addr(0x10000), 0x1111).unwrap();
        // Arm protection over the second page.
        space.protect_range(Addr(0x10000 + PAGE_SIZE), PAGE_SIZE).unwrap();
        assert_eq!(space.protected_page_count(), 1);
        assert!(space.is_protected(Addr(0x10000 + PAGE_SIZE + 8)));
        assert!(!space.is_protected(Addr(0x10000)));
        assert_eq!(space.access_trap(Addr(0x10000), 2 * PAGE_SIZE), Some(Addr(0x10000 + PAGE_SIZE)));
        assert_eq!(space.access_trap(Addr(0x10000), 8), None);
        // A store to an unprotected page lands as usual.
        space.write_u64(Addr(0x10008), 0x2222).unwrap();
        assert_eq!(space.read_u64(Addr(0x10008)).unwrap(), 0x2222);
        // A store to the protected page parks instead of landing.
        space.write_u64(Addr(0x10000 + PAGE_SIZE), 0x3333).unwrap();
        assert_eq!(space.read_u64(Addr(0x10000 + PAGE_SIZE)).unwrap(), 0);
        assert_eq!(space.pending_trap_count(), 1);
        assert_eq!(space.traps_taken(), 1);
        // The fault handler lands content through the barrier, unprotects,
        // and replays the parked store — final bytes as if transfer had
        // happened before the program store.
        space.write_bytes_through(Addr(0x10000 + PAGE_SIZE), &[9u8; 16]).unwrap();
        space.unprotect_range(Addr(0x10000 + PAGE_SIZE), PAGE_SIZE).unwrap();
        assert_eq!(space.protected_page_count(), 0);
        for trap in space.take_pending_traps() {
            space.write_bytes(trap.addr, &trap.bytes).unwrap();
        }
        assert_eq!(space.pending_trap_count(), 0);
        assert_eq!(space.read_u64(Addr(0x10000 + PAGE_SIZE)).unwrap(), 0x3333);
        assert_eq!(space.read_u64(Addr(0x10000 + PAGE_SIZE + 8)).unwrap(), 0x0909_0909_0909_0909);
        // Error paths and idempotent re-protection.
        assert!(space.protect_range(Addr(0x1), 8).is_err());
        space.protect_range(Addr(0x10000), PAGE_SIZE).unwrap();
        space.protect_range(Addr(0x10000), PAGE_SIZE).unwrap();
        assert_eq!(space.protected_page_count(), 1);
        space.clear_protection();
        assert_eq!(space.protected_page_count(), 0);
    }

    #[test]
    fn read_into_matches_read_bytes() {
        let mut space = space_with_region();
        space.write_bytes(Addr(0x10010), &[1, 2, 3, 4, 5, 6, 7, 8]).unwrap();
        let mut buf = [0u8; 8];
        space.read_into(Addr(0x10010), &mut buf).unwrap();
        assert_eq!(buf.to_vec(), space.read_bytes(Addr(0x10010), 8).unwrap());
        // Errors mirror read_bytes.
        assert!(space.read_into(Addr(0x1), &mut buf).is_err());
        let end = Addr(0x10000 + 8 * PAGE_SIZE - 4);
        assert!(space.read_into(end, &mut buf).is_err());
    }

    #[test]
    fn copy_range_copies_and_stamps_pages() {
        let mut src = space_with_region();
        src.write_bytes(Addr(0x10000), &[9u8; 64]).unwrap();
        let mut dst = AddressSpace::new();
        dst.map_region(Addr(0x40000), 4 * PAGE_SIZE, RegionKind::Heap, "dst").unwrap();
        dst.clear_soft_dirty();
        dst.copy_range(Addr(0x40008), &src, Addr(0x10000), 64).unwrap();
        assert_eq!(dst.read_bytes(Addr(0x40008), 64).unwrap(), vec![9u8; 64]);
        assert!(dst.is_dirty(Addr(0x40008)), "copy stamps the touched page");
        assert_eq!(dst.dirty_page_count(), 1);
        // A copy spanning a page boundary stamps both pages.
        dst.copy_range(Addr(0x40000 + PAGE_SIZE - 4), &src, Addr(0x10000), 8).unwrap();
        assert!(dst.is_dirty(Addr(0x40000)) && dst.is_dirty(Addr(0x40000 + PAGE_SIZE)));
        // Error paths: unmapped source, unmapped destination, read-only
        // destination.
        assert!(dst.copy_range(Addr(0x40000), &src, Addr(0x1), 8).is_err());
        assert!(dst.copy_range(Addr(0x1), &src, Addr(0x10000), 8).is_err());
        let mut ro = AddressSpace::new();
        ro.map_region_with_perms(Addr(0x5000), PAGE_SIZE, RegionKind::Lib, "ro", false).unwrap();
        assert!(ro.copy_range(Addr(0x5000), &src, Addr(0x10000), 8).is_err());
    }

    #[test]
    fn overflowing_read_and_copy_lengths_are_out_of_bounds() {
        let mut space = space_with_region();
        let addr = Addr(0x10008);
        assert!(matches!(space.read_bytes(addr, usize::MAX).unwrap_err(), SimError::OutOfBounds { .. }));
        let src = space_with_region();
        assert!(matches!(
            space.copy_range(addr, &src, Addr(0x10000), usize::MAX).unwrap_err(),
            SimError::OutOfBounds { .. }
        ));
        assert!(!space.is_valid_range(addr, usize::MAX));
        assert!(space
            .map_region(Addr(u64::MAX - PAGE_SIZE), 2 * PAGE_SIZE, RegionKind::Mmap, "wrap")
            .is_err());
    }

    #[test]
    fn overflowing_protection_lengths_are_out_of_bounds() {
        let mut space = space_with_region();
        let addr = Addr(0x10008);
        // The wrapped end of `addr + u64::MAX` must not pass the bounds check.
        assert!(matches!(space.protect_range(addr, u64::MAX).unwrap_err(), SimError::OutOfBounds { .. }));
        assert!(matches!(space.unprotect_range(addr, u64::MAX).unwrap_err(), SimError::OutOfBounds { .. }));
        assert_eq!(space.protected_page_count(), 0);
    }

    #[test]
    fn never_written_pages_read_zero_and_materialise_nothing() {
        let space = space_with_region();
        assert_eq!(space.read_u64(Addr(0x10000 + 3 * PAGE_SIZE)).unwrap(), 0);
        assert_eq!(
            space.read_bytes(Addr(0x10000), (8 * PAGE_SIZE) as usize).unwrap(),
            vec![0; 8 * PAGE_BYTES]
        );
        let mut buf = [0xFFu8; 32];
        space.read_into(Addr(0x10000 + PAGE_SIZE - 16), &mut buf).unwrap();
        assert_eq!(buf, [0; 32], "read_into zero-fills a dirty caller buffer");
        assert_eq!(space.read_cstring(Addr(0x10000), 16).unwrap(), "");
        assert_eq!(space.materialised_pages(), 0);
        let region = space.region_containing(Addr(0x10000)).unwrap();
        assert!(region.pages().all(|p| p.is_none()));
        // Soft-dirty and resident accounting do not depend on materialisation.
        assert_eq!(space.dirty_page_count(), 8);
        assert_eq!(space.mapped_bytes(), 8 * PAGE_SIZE);
    }

    #[test]
    fn page_view_truncates_the_last_page() {
        let mut space = AddressSpace::new();
        let size = 2 * PAGE_SIZE + 100;
        space.map_region(Addr(0x20000), size, RegionKind::Mmap, "odd").unwrap();
        space.write_bytes(Addr(0x20000 + size - 4), &[7; 4]).unwrap();
        let region = space.region_containing(Addr(0x20000)).unwrap();
        let pages: Vec<_> = region.pages().collect();
        assert_eq!(pages.len(), 3);
        assert!(pages[0].is_none() && pages[1].is_none());
        let last = pages[2].unwrap();
        assert_eq!(last.len(), 100);
        assert_eq!(&last[96..], &[7; 4]);
        // Stores past the region end are rejected even inside the last frame.
        assert!(space.write_u8(Addr(0x20000 + size), 1).is_err());
    }

    #[test]
    fn a_store_into_a_clone_leaves_the_original_unchanged_and_back() {
        let mut parent = space_with_region();
        parent.write_u64(Addr(0x10000), 1).unwrap();
        parent.write_u64(Addr(0x10000 + 2 * PAGE_SIZE), 2).unwrap();
        let mut child = parent.clone();
        // The clone materialises no page: both frames are shared.
        assert_eq!(parent.materialised_pages(), 2);
        assert_eq!(child.shared_pages_with(&parent), 2);
        child.write_u64(Addr(0x10000), 11).unwrap();
        assert_eq!(parent.read_u64(Addr(0x10000)).unwrap(), 1);
        assert_eq!(child.read_u64(Addr(0x10000)).unwrap(), 11);
        assert_eq!(child.shared_pages_with(&parent), 1, "only the stored-into page is un-shared");
        parent.write_u64(Addr(0x10000 + 2 * PAGE_SIZE + 8), 3).unwrap();
        assert_eq!(child.read_u64(Addr(0x10000 + 2 * PAGE_SIZE + 8)).unwrap(), 0);
        assert_eq!(child.read_u64(Addr(0x10000 + 2 * PAGE_SIZE)).unwrap(), 2, "un-sharing copies the frame");
        assert_eq!(child.shared_pages_with(&parent), 0);
        // A page neither side had written materialises only in the writer.
        child.write_u8(Addr(0x10000 + 5 * PAGE_SIZE), 9).unwrap();
        assert_eq!(parent.read_u8(Addr(0x10000 + 5 * PAGE_SIZE)).unwrap(), 0);
        assert_eq!((parent.materialised_pages(), child.materialised_pages()), (2, 3));
    }

    #[test]
    fn cloned_dirty_epochs_and_protection_are_independent() {
        let mut parent = space_with_region();
        parent.clear_soft_dirty();
        parent.write_u64(Addr(0x10000), 1).unwrap();
        let mut child = parent.clone();
        assert_eq!(child.shared_pages_with(&parent), 1);
        child.clear_soft_dirty();
        let e = child.advance_write_epoch();
        child.protect_range(Addr(0x10000 + PAGE_SIZE), PAGE_SIZE).unwrap();
        assert_eq!(parent.dirty_page_count(), 1);
        assert_eq!(parent.write_epoch(), e);
        assert_eq!(parent.protected_page_count(), 0);
        // A parent store to the page the child protected lands in the
        // parent, and the child's trap barrier parks its own store.
        parent.write_u64(Addr(0x10000 + PAGE_SIZE), 5).unwrap();
        child.write_u64(Addr(0x10000 + PAGE_SIZE), 6).unwrap();
        assert_eq!(parent.read_u64(Addr(0x10000 + PAGE_SIZE)).unwrap(), 5);
        assert_eq!(child.read_u64(Addr(0x10000 + PAGE_SIZE)).unwrap(), 0);
        assert_eq!((parent.pending_trap_count(), child.pending_trap_count()), (0, 1));
        assert_eq!(parent.dirty_page_count(), 2);
        assert_eq!(child.dirty_page_count(), 0, "a parked store stamps nothing");
        // Stamps move with stores, not with frame sharing.
        child.write_u64(Addr(0x10000 + 8), 7).unwrap();
        assert_eq!(child.range_dirty_epoch(Addr(0x10000), 8), e + 1);
        assert_eq!(parent.range_dirty_epoch(Addr(0x10000), 8), e);
    }

    #[test]
    fn cross_page_accesses_over_zero_and_shared_pages() {
        let boundary = Addr(0x10000 + PAGE_SIZE);
        let mut space = space_with_region();
        // A store straddling a boundary materialises both pages.
        space.write_bytes(Addr(boundary.0 - 3), &[1, 2, 3, 4, 5, 6]).unwrap();
        assert_eq!(space.materialised_pages(), 2);
        assert_eq!(space.read_bytes(Addr(boundary.0 - 4), 8).unwrap(), [0, 1, 2, 3, 4, 5, 6, 0]);
        // A read straddling a written page and a never-written one.
        space.write_u64(Addr(0x10000 + 3 * PAGE_SIZE - 8), u64::MAX).unwrap();
        let mut buf = [0xEEu8; 16];
        space.read_into(Addr(0x10000 + 3 * PAGE_SIZE - 8), &mut buf).unwrap();
        assert_eq!(buf, [0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0, 0, 0, 0, 0, 0, 0, 0]);
        // A straddling store into a clone un-shares both pages, no others.
        let mut clone = space.clone();
        clone.write_bytes(Addr(boundary.0 - 2), &[9; 4]).unwrap();
        assert_eq!(clone.shared_pages_with(&space), 1);
        assert_eq!(space.read_bytes(Addr(boundary.0 - 2), 4).unwrap(), [2, 3, 4, 5]);
        assert_eq!(clone.read_bytes(Addr(boundary.0 - 3), 6).unwrap(), [1, 9, 9, 9, 9, 6]);
        // copy_range across a boundary, from shared and zero source pages,
        // into zero and written destination pages.
        let mut dst = AddressSpace::new();
        dst.map_region(Addr(0x40000), 8 * PAGE_SIZE, RegionKind::Heap, "dst").unwrap();
        dst.write_bytes(Addr(0x40000 + 4 * PAGE_SIZE), &[0xAA; 64]).unwrap();
        dst.copy_range(Addr(0x40000 + 4 * PAGE_SIZE - 5), &clone, Addr(boundary.0 - 3), 60).unwrap();
        let expected = clone.read_bytes(Addr(boundary.0 - 3), 60).unwrap();
        assert_eq!(dst.read_bytes(Addr(0x40000 + 4 * PAGE_SIZE - 5), 60).unwrap(), expected);
        assert_eq!(
            dst.read_u8(Addr(0x40000 + 4 * PAGE_SIZE + 55)).unwrap(),
            0xAA,
            "bytes past the copy stay"
        );
        // A zero source range zeroes written destination bytes.
        dst.copy_range(Addr(0x40000 + 4 * PAGE_SIZE + 55), &clone, Addr(0x10000 + 6 * PAGE_SIZE), 4).unwrap();
        assert_eq!(dst.read_bytes(Addr(0x40000 + 4 * PAGE_SIZE + 55), 5).unwrap(), [0, 0, 0, 0, 0xAA]);
    }

    #[test]
    fn paged_store_matches_a_flat_byte_model() {
        // Random stores, copies and clones against a plain byte vector.
        let size = 6 * PAGE_BYTES + 40;
        let base = Addr(0x10000);
        let mut space = AddressSpace::new();
        space.map_region(base, size as u64, RegionKind::Heap, "heap").unwrap();
        let mut model = vec![0u8; size];
        let mut snapshot: Option<(AddressSpace, Vec<u8>)> = None;
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        let mut next = |bound: usize| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            (x % bound as u64) as usize
        };
        for step in 0..400 {
            let off = next(size);
            let len = next(2 * PAGE_BYTES).min(size - off);
            match next(4) {
                0 | 1 => {
                    let bytes: Vec<u8> = (0..len).map(|i| (step + i) as u8 | 1).collect();
                    space.write_bytes(base.offset(off as u64), &bytes).unwrap();
                    model[off..off + len].copy_from_slice(&bytes);
                }
                2 => {
                    let src_off = next(size - len + 1);
                    let src = space.clone();
                    space
                        .copy_range(base.offset(off as u64), &src, base.offset(src_off as u64), len)
                        .unwrap();
                    model.copy_within(src_off..src_off + len, off);
                }
                _ => snapshot = Some((space.clone(), model.clone())),
            }
            let mut buf = vec![0xEE; len];
            space.read_into(base.offset(off as u64), &mut buf).unwrap();
            assert_eq!(buf, model[off..off + len], "step {step}");
        }
        assert_eq!(space.read_bytes(base, size).unwrap(), model);
        let (old, old_model) = snapshot.expect("a snapshot was taken");
        assert_eq!(old.read_bytes(base, size).unwrap(), old_model, "snapshots never see later stores");
    }

    #[test]
    fn unmap_region_works() {
        let mut space = space_with_region();
        space.unmap_region(Addr(0x10000)).unwrap();
        assert!(!space.is_mapped(Addr(0x10000)));
        assert!(space.unmap_region(Addr(0x10000)).is_err());
    }

    #[test]
    fn valid_range_checks() {
        let space = space_with_region();
        assert!(space.is_valid_range(Addr(0x10000), 8));
        assert!(space.is_valid_range(Addr(0x10000 + 8 * PAGE_SIZE - 8), 8));
        assert!(!space.is_valid_range(Addr(0x10000 + 8 * PAGE_SIZE - 4), 8));
        assert!(!space.is_valid_range(Addr(0x1), 1));
    }

    #[test]
    fn addr_helpers() {
        assert_eq!(Addr(0x1234).page_base(), Addr(0x1000));
        assert!(Addr(0x1000).is_aligned(8));
        assert!(!Addr(0x1001).is_aligned(8));
        assert!(Addr::NULL.is_null());
        assert_eq!(Addr(4).offset(4), Addr(8));
    }
}
