//! Simulated memory allocators with in-band MCR metadata.
//!
//! Three allocator families are modelled, matching the programs evaluated in
//! the paper:
//!
//! * [`PtMalloc`] — a ptmalloc-style general-purpose heap allocator (glibc
//!   `malloc`). When *instrumented*, every chunk header carries an allocation
//!   site identifier and a data-type tag in in-band metadata, exactly the
//!   information MCR's precise tracing consumes. Instrumentation performs real
//!   extra work per allocation, so its cost is observable in the overhead
//!   benchmarks (Table 3). Host cost per operation, for n chunks: placed
//!   [`PtMalloc::malloc_at`] O(log n + k) for k swallowed free entries,
//!   [`PtMalloc::free`] O(log n), first-fit [`PtMalloc::malloc`] O(free
//!   chunks) for its free-list scan.
//! * [`RegionAllocator`] — a region/pool allocator (nginx pools, Apache httpd
//!   nested pools). Objects carved out of a region are *not* individually
//!   visible to the heap allocator; without dedicated instrumentation they are
//!   opaque to precise tracing and must be scanned conservatively.
//! * [`SlabAllocator`] — a slab of fixed-size slots (nginx slabs).
//!
//! All allocators operate on a heap region of a simulated [`AddressSpace`];
//! every header they maintain is stored *inside* simulated memory so that
//! conservative scanning and state transfer observe the same bytes a real
//! process would contain.

use std::collections::BTreeMap;

use crate::error::{SimError, SimResult};
use crate::memory::{Addr, AddressSpace};

/// Identifier of a static allocation call site (assigned by the
/// instrumentation layer; `0` means "unknown / uninstrumented").
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct AllocSite(pub u64);

/// Opaque data-type tag identifier (resolved by the `mcr-typemeta` crate;
/// `0` means "untyped").
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct TypeTag(pub u64);

/// Header flag bits stored in-band in front of every chunk payload.
mod flags {
    pub const IN_USE: u64 = 1 << 0;
    pub const STARTUP: u64 = 1 << 1;
    pub const INSTRUMENTED: u64 = 1 << 2;
}

/// Alignment guaranteed for every payload.
pub const CHUNK_ALIGN: u64 = 16;
/// Header size without instrumentation (size + flags).
pub const HEADER_BASE: u64 = 16;
/// Header size with MCR instrumentation (adds site + type tag words).
pub const HEADER_INSTR: u64 = 32;

/// Description of a live or freed chunk as read back from in-band metadata.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChunkInfo {
    /// Address of the first payload byte.
    pub payload: Addr,
    /// Payload size in bytes.
    pub size: u64,
    /// Allocation site recorded by instrumentation (0 if uninstrumented).
    pub site: AllocSite,
    /// Data-type tag recorded by instrumentation (0 if uninstrumented).
    pub type_tag: TypeTag,
    /// Whether the chunk was allocated during program startup.
    pub startup: bool,
    /// Whether the chunk is currently allocated.
    pub in_use: bool,
}

/// Running statistics maintained by an allocator instance.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AllocStats {
    /// Number of successful allocations.
    pub allocs: u64,
    /// Number of frees (including deferred ones once flushed).
    pub frees: u64,
    /// Bytes currently allocated (payload only).
    pub live_bytes: u64,
    /// Peak of `live_bytes`.
    pub peak_bytes: u64,
    /// Bytes of in-band metadata currently resident.
    pub metadata_bytes: u64,
    /// Extra word writes performed purely for instrumentation.
    pub instr_writes: u64,
}

/// A ptmalloc-style heap allocator bound to one heap region.
#[derive(Debug, Clone)]
pub struct PtMalloc {
    heap_base: Addr,
    heap_size: u64,
    /// Next never-used offset (bump frontier).
    frontier: u64,
    /// Free chunks by header offset -> total chunk size (header + payload).
    free_chunks: BTreeMap<u64, u64>,
    /// Live chunks by payload address.
    live: BTreeMap<u64, u64>,
    instrumented: bool,
    startup_phase: bool,
    defer_free: bool,
    deferred: Vec<Addr>,
    stats: AllocStats,
}

impl PtMalloc {
    /// Creates an allocator managing `[heap_base, heap_base + heap_size)`.
    ///
    /// The heap region must already be mapped in the address space used with
    /// the allocator's methods.
    pub fn new(heap_base: Addr, heap_size: u64, instrumented: bool) -> Self {
        PtMalloc {
            heap_base,
            heap_size,
            frontier: 0,
            free_chunks: BTreeMap::new(),
            live: BTreeMap::new(),
            instrumented,
            startup_phase: true,
            defer_free: false,
            deferred: Vec::new(),
            stats: AllocStats::default(),
        }
    }

    /// Base address of the managed heap.
    pub fn heap_base(&self) -> Addr {
        self.heap_base
    }

    /// Size in bytes of the managed heap.
    pub fn heap_size(&self) -> u64 {
        self.heap_size
    }

    /// Whether in-band MCR tags are maintained.
    pub fn is_instrumented(&self) -> bool {
        self.instrumented
    }

    /// Current allocation statistics.
    pub fn stats(&self) -> AllocStats {
        self.stats
    }

    /// Ends the startup phase: subsequent allocations are no longer flagged
    /// as startup-time objects and deferred frees are no longer collected.
    pub fn end_startup(&mut self) {
        self.startup_phase = false;
    }

    /// Whether the allocator is still in the startup phase.
    pub fn in_startup(&self) -> bool {
        self.startup_phase
    }

    /// Enables or disables deferral of `free` operations.
    ///
    /// Mutable reinitialization defers all frees until the end of startup so
    /// that no startup-time address is ever reused (*global separability*).
    pub fn set_defer_free(&mut self, defer: bool) {
        self.defer_free = defer;
    }

    /// Flushes deferred frees, actually releasing the chunks.
    pub fn flush_deferred(&mut self, space: &mut AddressSpace) -> SimResult<usize> {
        let pending = std::mem::take(&mut self.deferred);
        let n = pending.len();
        for addr in pending {
            self.release(space, addr)?;
        }
        Ok(n)
    }

    fn header_size(&self) -> u64 {
        if self.instrumented {
            HEADER_INSTR
        } else {
            HEADER_BASE
        }
    }

    fn round_up(v: u64, align: u64) -> u64 {
        v.div_ceil(align) * align
    }

    /// Allocates `size` bytes, recording `site`/`type_tag` when instrumented.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::OutOfMemory`] when neither the free list nor the
    /// bump frontier can satisfy the request.
    pub fn malloc(
        &mut self,
        space: &mut AddressSpace,
        size: u64,
        site: AllocSite,
        type_tag: TypeTag,
    ) -> SimResult<Addr> {
        let payload_size = Self::round_up(size.max(1), CHUNK_ALIGN);
        let total = self.header_size() + payload_size;

        // First-fit search in the free list.
        let reuse = self.free_chunks.iter().find(|(_, &sz)| sz >= total).map(|(&off, &sz)| (off, sz));

        let chunk_off = if let Some((off, sz)) = reuse {
            self.free_chunks.remove(&off);
            // Return the tail to the free list when the leftover is large
            // enough to hold another minimal chunk.
            let leftover = sz - total;
            if leftover >= self.header_size() + CHUNK_ALIGN {
                self.free_chunks.insert(off + total, leftover);
            }
            off
        } else {
            let off = Self::round_up(self.frontier, CHUNK_ALIGN);
            if off + total > self.heap_size {
                return Err(SimError::OutOfMemory { requested: size });
            }
            self.frontier = off + total;
            off
        };

        let header = self.heap_base.offset(chunk_off);
        let payload = header.offset(self.header_size());
        let mut fl = flags::IN_USE;
        if self.startup_phase {
            fl |= flags::STARTUP;
        }
        if self.instrumented {
            fl |= flags::INSTRUMENTED;
        }
        space.write_u64(header, payload_size)?;
        space.write_u64(header.offset(8), fl)?;
        if self.instrumented {
            // The two extra metadata stores are the per-allocation cost of
            // MCR's static/dynamic allocator instrumentation.
            space.write_u64(header.offset(16), site.0)?;
            space.write_u64(header.offset(24), type_tag.0)?;
            self.stats.instr_writes += 2;
        }
        // Zero the payload (calloc-like semantics keep tracing deterministic).
        space.fill(payload, payload_size as usize, 0)?;

        self.live.insert(payload.0, total);
        self.stats.allocs += 1;
        self.stats.live_bytes += payload_size;
        self.stats.peak_bytes = self.stats.peak_bytes.max(self.stats.live_bytes);
        self.stats.metadata_bytes += self.header_size();
        Ok(payload)
    }

    /// Frees the chunk whose payload starts at `payload`.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidFree`] if `payload` is not a live chunk.
    pub fn free(&mut self, space: &mut AddressSpace, payload: Addr) -> SimResult<()> {
        if !self.live.contains_key(&payload.0) {
            return Err(SimError::InvalidFree(payload));
        }
        if self.defer_free && self.startup_phase {
            self.deferred.push(payload);
            return Ok(());
        }
        self.release(space, payload)
    }

    fn release(&mut self, space: &mut AddressSpace, payload: Addr) -> SimResult<()> {
        let total = self.live.remove(&payload.0).ok_or(SimError::InvalidFree(payload))?;
        let header = payload.0 - self.header_size();
        let fl = space.read_u64(Addr(header + 8))?;
        space.write_u64(Addr(header + 8), fl & !flags::IN_USE)?;
        let payload_size = space.read_u64(Addr(header))?;
        // Like real ptmalloc, freeing writes free-list metadata into the
        // first payload word (the bin's next pointer). Besides fidelity,
        // this stamps the freed object's page with the current write epoch,
        // so an incremental pre-copy retrace re-resolves the object and
        // drops it exactly like a fresh trace of the same memory would.
        space.write_u64(payload, 0)?;
        self.free_chunks.insert(header - self.heap_base.0, total);
        self.stats.frees += 1;
        self.stats.live_bytes = self.stats.live_bytes.saturating_sub(payload_size);
        self.stats.metadata_bytes = self.stats.metadata_bytes.saturating_sub(self.header_size());
        Ok(())
    }

    /// Allocates a chunk so that its payload lands exactly at `payload`.
    ///
    /// This is the *global reallocation* primitive of mutable
    /// reinitialization: immutable dynamic memory objects inherited from the
    /// old version must reappear at the same virtual address in the new
    /// version's fresh heap.
    ///
    /// Costs O(log n + k) for n chunks and k swallowed free entries. Both
    /// maps hold *disjoint* intervals: live chunks never overlap each other
    /// (every placement checks this), free entries never overlap each other
    /// or a live chunk (they are released chunks or split tails, and a
    /// placement replaces every entry it touches by the parts it leaves
    /// uncovered). Ordered by start, disjoint intervals are also ordered by
    /// end, so the only live chunk that can overlap the placement is the
    /// last one starting before its end, and the swallowed free entries are
    /// a contiguous run ending at the last entry starting before its end.
    ///
    /// Only the first swallowed entry can start before the placement and
    /// only the last can end after it. Those uncovered head and tail parts
    /// stay free entries when they can hold a header plus one
    /// `CHUNK_ALIGN` payload (the same threshold `malloc` splits by);
    /// smaller slivers are dropped. Memory is not touched for either.
    ///
    /// # Errors
    ///
    /// Fails if the requested placement is outside the heap, overlaps a live
    /// chunk, or lies behind the bump frontier in already-recycled space that
    /// cannot be carved.
    pub fn malloc_at(
        &mut self,
        space: &mut AddressSpace,
        payload: Addr,
        size: u64,
        site: AllocSite,
        type_tag: TypeTag,
    ) -> SimResult<Addr> {
        let payload_size = Self::round_up(size.max(1), CHUNK_ALIGN);
        let header_off = payload
            .0
            .checked_sub(self.header_size())
            .and_then(|h| h.checked_sub(self.heap_base.0))
            .ok_or(SimError::InvalidArgument("placement below heap base".into()))?;
        let total = self.header_size() + payload_size;
        if header_off + total > self.heap_size {
            return Err(SimError::OutOfMemory { requested: size });
        }
        // The placement must not overlap any live chunk. `live` is keyed by
        // payload, so "header starts before `end`" is "payload < end + header".
        let start = self.heap_base.0 + header_off;
        let end = start + total;
        if let Some((&live_payload, &live_total)) = self.live.range(..end + self.header_size()).next_back() {
            if live_payload - self.header_size() + live_total > start {
                return Err(SimError::MappingOverlap { base: Addr(start), size: total });
            }
        }
        // Replace the free-list entries that the placement swallows by the
        // parts of them it leaves uncovered.
        let swallowed: Vec<(u64, u64)> = self
            .free_chunks
            .range(..header_off + total)
            .rev()
            .take_while(|(&off, &sz)| off + sz > header_off)
            .map(|(&off, &sz)| (off, sz))
            .collect();
        let min_entry = self.header_size() + CHUNK_ALIGN;
        for (off, sz) in swallowed {
            self.free_chunks.remove(&off);
            if header_off >= off + min_entry {
                self.free_chunks.insert(off, header_off - off);
            }
            if off + sz >= header_off + total + min_entry {
                self.free_chunks.insert(header_off + total, off + sz - header_off - total);
            }
        }
        if header_off + total > self.frontier {
            self.frontier = header_off + total;
        }

        let header = self.heap_base.offset(header_off);
        let mut fl = flags::IN_USE;
        if self.startup_phase {
            fl |= flags::STARTUP;
        }
        if self.instrumented {
            fl |= flags::INSTRUMENTED;
        }
        space.write_u64(header, payload_size)?;
        space.write_u64(header.offset(8), fl)?;
        if self.instrumented {
            space.write_u64(header.offset(16), site.0)?;
            space.write_u64(header.offset(24), type_tag.0)?;
            self.stats.instr_writes += 2;
        }
        self.live.insert(payload.0, total);
        self.stats.allocs += 1;
        self.stats.live_bytes += payload_size;
        self.stats.peak_bytes = self.stats.peak_bytes.max(self.stats.live_bytes);
        self.stats.metadata_bytes += self.header_size();
        Ok(payload)
    }

    /// Looks up the live chunk containing `addr` (interior pointers allowed).
    pub fn chunk_containing(&self, space: &AddressSpace, addr: Addr) -> Option<ChunkInfo> {
        let (&payload, _) = self.live.range(..=addr.0).next_back()?;
        let info = self.chunk_info(space, Addr(payload)).ok()?;
        if addr.0 < payload + info.size {
            Some(info)
        } else {
            None
        }
    }

    /// Reads back the in-band metadata of the chunk whose payload is `payload`.
    pub fn chunk_info(&self, space: &AddressSpace, payload: Addr) -> SimResult<ChunkInfo> {
        let header = Addr(payload.0 - self.header_size());
        let size = space.read_u64(header)?;
        let fl = space.read_u64(header.offset(8))?;
        let (site, type_tag) = if fl & flags::INSTRUMENTED != 0 {
            (AllocSite(space.read_u64(header.offset(16))?), TypeTag(space.read_u64(header.offset(24))?))
        } else {
            (AllocSite(0), TypeTag(0))
        };
        Ok(ChunkInfo {
            payload,
            size,
            site,
            type_tag,
            startup: fl & flags::STARTUP != 0,
            in_use: fl & flags::IN_USE != 0,
        })
    }

    /// Iterates over all live chunks in address order.
    pub fn live_chunks<'a>(&'a self, space: &'a AddressSpace) -> impl Iterator<Item = ChunkInfo> + 'a {
        self.live.keys().filter_map(move |&p| self.chunk_info(space, Addr(p)).ok())
    }

    /// Number of live chunks.
    pub fn live_count(&self) -> usize {
        self.live.len()
    }

    /// True if `payload` is the start of a live chunk.
    pub fn is_live(&self, payload: Addr) -> bool {
        self.live.contains_key(&payload.0)
    }
}

// ---------------------------------------------------------------------------
// Region (pool) allocator
// ---------------------------------------------------------------------------

/// Handle to a region/pool created by a [`RegionAllocator`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct PoolId(pub u64);

#[derive(Debug, Clone)]
struct Pool {
    storage: Addr,
    size: u64,
    used: u64,
    parent: Option<PoolId>,
    /// Objects carved from this pool (payload address, size, site, tag);
    /// populated only when the region allocator is instrumented.
    objects: Vec<(Addr, u64, AllocSite, TypeTag)>,
}

/// A region ("pool") allocator in the style of nginx pools / APR pools.
///
/// Pools obtain their backing storage from the process heap via [`PtMalloc`]
/// and then bump-allocate objects inside it. Without instrumentation the heap
/// allocator only sees one big opaque chunk per pool, which is exactly the
/// situation that forces MCR's conservative tracing. With instrumentation
/// (the `nginxreg` configuration of the paper) every carved object is
/// registered with its allocation site and type tag, at a measurable cost.
#[derive(Debug, Clone)]
pub struct RegionAllocator {
    pools: BTreeMap<u64, Pool>,
    next_pool: u64,
    instrumented: bool,
    stats: AllocStats,
}

impl RegionAllocator {
    /// Creates an empty region allocator.
    pub fn new(instrumented: bool) -> Self {
        RegionAllocator { pools: BTreeMap::new(), next_pool: 1, instrumented, stats: AllocStats::default() }
    }

    /// Whether per-object instrumentation is enabled.
    pub fn is_instrumented(&self) -> bool {
        self.instrumented
    }

    /// Current allocation statistics.
    pub fn stats(&self) -> AllocStats {
        self.stats
    }

    /// Creates a pool of `size` bytes, optionally as a child of `parent`
    /// (child pools model Apache httpd's nested APR pools).
    pub fn create_pool(
        &mut self,
        space: &mut AddressSpace,
        heap: &mut PtMalloc,
        size: u64,
        parent: Option<PoolId>,
    ) -> SimResult<PoolId> {
        let storage = heap.malloc(space, size, AllocSite(0), TypeTag(0))?;
        let id = PoolId(self.next_pool);
        self.next_pool += 1;
        self.pools.insert(id.0, Pool { storage, size, used: 0, parent, objects: Vec::new() });
        Ok(id)
    }

    /// Bump-allocates `size` bytes from `pool`.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::OutOfMemory`] when the pool is exhausted and
    /// [`SimError::InvalidArgument`] for an unknown pool.
    pub fn palloc(
        &mut self,
        space: &mut AddressSpace,
        pool: PoolId,
        size: u64,
        site: AllocSite,
        type_tag: TypeTag,
    ) -> SimResult<Addr> {
        let instrumented = self.instrumented;
        let p =
            self.pools.get_mut(&pool.0).ok_or(SimError::InvalidArgument(format!("unknown pool {pool:?}")))?;
        let aligned = size.max(1).div_ceil(8) * 8;
        let extra = if instrumented { 16 } else { 0 };
        if p.used + aligned + extra > p.size {
            return Err(SimError::OutOfMemory { requested: size });
        }
        let mut obj = p.storage.offset(p.used);
        if instrumented {
            // In-band per-object record maintained by the instrumented
            // allocator wrappers: [site, type_tag] immediately before the
            // object.
            space.write_u64(obj, site.0)?;
            space.write_u64(obj.offset(8), type_tag.0)?;
            obj = obj.offset(16);
            self.stats.instr_writes += 2;
            self.stats.metadata_bytes += 16;
        }
        p.used += aligned + extra;
        if instrumented {
            p.objects.push((obj, aligned, site, type_tag));
        }
        self.stats.allocs += 1;
        self.stats.live_bytes += aligned;
        self.stats.peak_bytes = self.stats.peak_bytes.max(self.stats.live_bytes);
        Ok(obj)
    }

    /// Destroys a pool and (recursively) its child pools, releasing the
    /// backing storage to the heap allocator.
    pub fn destroy_pool(
        &mut self,
        space: &mut AddressSpace,
        heap: &mut PtMalloc,
        pool: PoolId,
    ) -> SimResult<()> {
        let children: Vec<PoolId> =
            self.pools.iter().filter(|(_, p)| p.parent == Some(pool)).map(|(&id, _)| PoolId(id)).collect();
        for child in children {
            self.destroy_pool(space, heap, child)?;
        }
        let p =
            self.pools.remove(&pool.0).ok_or(SimError::InvalidArgument(format!("unknown pool {pool:?}")))?;
        let carved: u64 = p.objects.iter().map(|(_, sz, _, _)| *sz).sum();
        self.stats.live_bytes =
            self.stats.live_bytes.saturating_sub(if self.instrumented { carved } else { p.used });
        self.stats.frees += 1;
        heap.free(space, p.storage)?;
        Ok(())
    }

    /// Returns the pool whose storage contains `addr`, if any.
    pub fn pool_containing(&self, addr: Addr) -> Option<PoolId> {
        self.pools
            .iter()
            .find(|(_, p)| addr.0 >= p.storage.0 && addr.0 < p.storage.0 + p.size)
            .map(|(&id, _)| PoolId(id))
    }

    /// Looks up the instrumented object record containing `addr`.
    pub fn object_containing(&self, addr: Addr) -> Option<(Addr, u64, AllocSite, TypeTag)> {
        if !self.instrumented {
            return None;
        }
        for p in self.pools.values() {
            for &(obj, size, site, tag) in &p.objects {
                if addr.0 >= obj.0 && addr.0 < obj.0 + size {
                    return Some((obj, size, site, tag));
                }
            }
        }
        None
    }

    /// Iterates over instrumented objects across all pools.
    pub fn objects(&self) -> impl Iterator<Item = (Addr, u64, AllocSite, TypeTag)> + '_ {
        self.pools.values().flat_map(|p| p.objects.iter().copied())
    }

    /// Number of live pools.
    pub fn pool_count(&self) -> usize {
        self.pools.len()
    }

    /// Base storage address and size of a pool.
    pub fn pool_extent(&self, pool: PoolId) -> Option<(Addr, u64)> {
        self.pools.get(&pool.0).map(|p| (p.storage, p.size))
    }
}

// ---------------------------------------------------------------------------
// Slab allocator
// ---------------------------------------------------------------------------

/// A slab allocator handing out fixed-size slots from one backing chunk.
#[derive(Debug, Clone)]
pub struct SlabAllocator {
    storage: Addr,
    slot_size: u64,
    slots: usize,
    used: Vec<bool>,
    stats: AllocStats,
}

impl SlabAllocator {
    /// Creates a slab of `slots` slots of `slot_size` bytes each, backed by a
    /// fresh heap chunk.
    pub fn new(
        space: &mut AddressSpace,
        heap: &mut PtMalloc,
        slot_size: u64,
        slots: usize,
    ) -> SimResult<Self> {
        let slot_size = slot_size.max(8).div_ceil(8) * 8;
        let storage = heap.malloc(space, slot_size * slots as u64, AllocSite(0), TypeTag(0))?;
        Ok(SlabAllocator {
            storage,
            slot_size,
            slots,
            used: vec![false; slots],
            stats: AllocStats::default(),
        })
    }

    /// Allocates one slot.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::OutOfMemory`] when every slot is in use.
    pub fn alloc(&mut self) -> SimResult<Addr> {
        for (i, used) in self.used.iter_mut().enumerate() {
            if !*used {
                *used = true;
                self.stats.allocs += 1;
                self.stats.live_bytes += self.slot_size;
                self.stats.peak_bytes = self.stats.peak_bytes.max(self.stats.live_bytes);
                return Ok(self.storage.offset(i as u64 * self.slot_size));
            }
        }
        Err(SimError::OutOfMemory { requested: self.slot_size })
    }

    /// Frees a slot previously returned by [`SlabAllocator::alloc`].
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidFree`] for an address that is not a slot
    /// base or whose slot is already free.
    pub fn free(&mut self, addr: Addr) -> SimResult<()> {
        let off = addr.0.checked_sub(self.storage.0).ok_or(SimError::InvalidFree(addr))?;
        if off % self.slot_size != 0 {
            return Err(SimError::InvalidFree(addr));
        }
        let idx = (off / self.slot_size) as usize;
        if idx >= self.slots || !self.used[idx] {
            return Err(SimError::InvalidFree(addr));
        }
        self.used[idx] = false;
        self.stats.frees += 1;
        self.stats.live_bytes = self.stats.live_bytes.saturating_sub(self.slot_size);
        Ok(())
    }

    /// Base address of the slab storage.
    pub fn storage(&self) -> Addr {
        self.storage
    }

    /// Size of each slot in bytes.
    pub fn slot_size(&self) -> u64 {
        self.slot_size
    }

    /// Number of slots currently in use.
    pub fn used_count(&self) -> usize {
        self.used.iter().filter(|u| **u).count()
    }

    /// Current allocation statistics.
    pub fn stats(&self) -> AllocStats {
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::memory::{RegionKind, PAGE_SIZE};

    const HEAP_BASE: u64 = 0x0900_0000;
    const HEAP_SIZE: u64 = 256 * PAGE_SIZE;

    fn setup(instrumented: bool) -> (AddressSpace, PtMalloc) {
        let mut space = AddressSpace::new();
        space.map_region(Addr(HEAP_BASE), HEAP_SIZE, RegionKind::Heap, "heap").unwrap();
        (space, PtMalloc::new(Addr(HEAP_BASE), HEAP_SIZE, instrumented))
    }

    #[test]
    fn malloc_returns_aligned_nonoverlapping_chunks() {
        let (mut space, mut heap) = setup(false);
        let a = heap.malloc(&mut space, 24, AllocSite(1), TypeTag(1)).unwrap();
        let b = heap.malloc(&mut space, 100, AllocSite(2), TypeTag(2)).unwrap();
        assert!(a.is_aligned(CHUNK_ALIGN));
        assert!(b.is_aligned(CHUNK_ALIGN));
        assert!(b.0 >= a.0 + 24);
        assert_eq!(heap.live_count(), 2);
    }

    #[test]
    fn instrumented_header_carries_tags() {
        let (mut space, mut heap) = setup(true);
        let a = heap.malloc(&mut space, 64, AllocSite(7), TypeTag(42)).unwrap();
        let info = heap.chunk_info(&space, a).unwrap();
        assert_eq!(info.site, AllocSite(7));
        assert_eq!(info.type_tag, TypeTag(42));
        assert!(info.startup);
        assert!(info.in_use);
        assert!(heap.stats().instr_writes >= 2);
    }

    #[test]
    fn uninstrumented_header_has_no_tags() {
        let (mut space, mut heap) = setup(false);
        let a = heap.malloc(&mut space, 64, AllocSite(7), TypeTag(42)).unwrap();
        let info = heap.chunk_info(&space, a).unwrap();
        assert_eq!(info.site, AllocSite(0));
        assert_eq!(info.type_tag, TypeTag(0));
    }

    #[test]
    fn free_and_reuse() {
        let (mut space, mut heap) = setup(false);
        heap.end_startup();
        let a = heap.malloc(&mut space, 64, AllocSite(1), TypeTag(0)).unwrap();
        heap.free(&mut space, a).unwrap();
        assert!(!heap.is_live(a));
        let b = heap.malloc(&mut space, 64, AllocSite(2), TypeTag(0)).unwrap();
        assert_eq!(a, b, "freed chunk should be reused first-fit");
        assert!(matches!(heap.free(&mut space, Addr(0x1)), Err(SimError::InvalidFree(_))));
    }

    #[test]
    fn deferred_free_prevents_startup_reuse() {
        let (mut space, mut heap) = setup(false);
        heap.set_defer_free(true);
        let a = heap.malloc(&mut space, 64, AllocSite(1), TypeTag(0)).unwrap();
        heap.free(&mut space, a).unwrap();
        // Still live: the free was deferred.
        assert!(heap.is_live(a));
        let b = heap.malloc(&mut space, 64, AllocSite(2), TypeTag(0)).unwrap();
        assert_ne!(a, b, "deferred free must prevent startup-time address reuse");
        heap.end_startup();
        let n = heap.flush_deferred(&mut space).unwrap();
        assert_eq!(n, 1);
        assert!(!heap.is_live(a));
    }

    #[test]
    fn startup_flag_follows_phase() {
        let (mut space, mut heap) = setup(true);
        let a = heap.malloc(&mut space, 8, AllocSite(1), TypeTag(1)).unwrap();
        heap.end_startup();
        let b = heap.malloc(&mut space, 8, AllocSite(1), TypeTag(1)).unwrap();
        assert!(heap.chunk_info(&space, a).unwrap().startup);
        assert!(!heap.chunk_info(&space, b).unwrap().startup);
    }

    #[test]
    fn malloc_at_places_chunk_exactly() {
        let (mut space, mut heap) = setup(true);
        let target = Addr(HEAP_BASE + 0x4000 + HEADER_INSTR);
        let got = heap.malloc_at(&mut space, target, 128, AllocSite(3), TypeTag(9)).unwrap();
        assert_eq!(got, target);
        let info = heap.chunk_info(&space, got).unwrap();
        assert_eq!(info.type_tag, TypeTag(9));
        // Subsequent bump allocations skip past the placed chunk.
        let next = heap.malloc(&mut space, 64, AllocSite(4), TypeTag(0)).unwrap();
        assert!(next.0 > target.0);
        // Overlapping placement is rejected.
        assert!(heap.malloc_at(&mut space, target.offset(16), 64, AllocSite(5), TypeTag(0)).is_err());
    }

    /// What `malloc_at` must return for a placement, and the free list it
    /// must leave, computed by scanning every live chunk and free entry: each
    /// touched entry is replaced by its uncovered parts that can still hold
    /// a header plus one `CHUNK_ALIGN` payload.
    fn linear_scan_reference(
        heap: &PtMalloc,
        payload: Addr,
        size: u64,
    ) -> (SimResult<Addr>, BTreeMap<u64, u64>) {
        let hdr = heap.header_size();
        let mut free = heap.free_chunks.clone();
        let Some(header_off) = payload.0.checked_sub(hdr).and_then(|h| h.checked_sub(heap.heap_base.0))
        else {
            return (Err(SimError::InvalidArgument("placement below heap base".into())), free);
        };
        let total = hdr + PtMalloc::round_up(size.max(1), CHUNK_ALIGN);
        if header_off + total > heap.heap_size {
            return (Err(SimError::OutOfMemory { requested: size }), free);
        }
        let start = heap.heap_base.0 + header_off;
        let end = start + total;
        if heap.live.iter().any(|(&p, &t)| start < p - hdr + t && p - hdr < end) {
            return (Err(SimError::MappingOverlap { base: Addr(start), size: total }), free);
        }
        let end_off = header_off + total;
        let min_entry = hdr + CHUNK_ALIGN;
        for (off, sz) in heap.free_chunks.iter().map(|(&o, &s)| (o, s)) {
            if off < end_off && header_off < off + sz {
                free.remove(&off);
                if off < header_off && header_off - off >= min_entry {
                    free.insert(off, header_off - off);
                }
                if off + sz > end_off && off + sz - end_off >= min_entry {
                    free.insert(end_off, off + sz - end_off);
                }
            }
        }
        (Ok(payload), free)
    }

    #[test]
    fn malloc_at_matches_the_linear_scan_reference() {
        let (mut placed, mut overlaps, mut multi_swallows) = (0, 0, 0);
        for seed in 1..=200u64 {
            let (mut space, mut heap) = setup(seed % 2 == 0);
            heap.end_startup();
            let mut x = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
            let mut next = |bound: u64| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                x % bound
            };
            let mut live: Vec<Addr> = Vec::new();
            for op in 0..300 {
                match next(8) {
                    0..=2 => {
                        if let Ok(p) = heap.malloc(&mut space, 1 + next(512), AllocSite(1), TypeTag(1)) {
                            live.push(p);
                        }
                    }
                    3 | 4 if !live.is_empty() => {
                        let p = live.swap_remove(next(live.len() as u64) as usize);
                        heap.free(&mut space, p).unwrap();
                    }
                    _ => {
                        // Mostly near the used part of the heap; sometimes
                        // anywhere, including past its end.
                        let reach = if next(16) == 0 { HEAP_SIZE + 1024 } else { heap.frontier + 4096 };
                        let payload = Addr(HEAP_BASE + next(reach / CHUNK_ALIGN) * CHUNK_ALIGN);
                        let size = 1 + next(768);
                        let (want, want_free) = linear_scan_reference(&heap, payload, size);
                        let free_before = heap.free_chunks.len();
                        let got = heap.malloc_at(&mut space, payload, size, AllocSite(2), TypeTag(2));
                        assert_eq!(got, want, "seed {seed} op {op}: placement {payload:?} size {size}");
                        assert_eq!(heap.free_chunks, want_free, "seed {seed} op {op}: free list");
                        match got {
                            Ok(p) => {
                                live.push(p);
                                placed += 1;
                                if free_before >= heap.free_chunks.len() + 2 {
                                    multi_swallows += 1;
                                }
                            }
                            Err(SimError::MappingOverlap { .. }) => overlaps += 1,
                            Err(_) => {}
                        }
                    }
                }
            }
        }
        assert!(placed > 0 && overlaps > 0 && multi_swallows > 0, "{placed}/{overlaps}/{multi_swallows}");
    }

    #[test]
    fn malloc_at_accepts_adjacent_and_rejects_one_byte_overlaps() {
        for instrumented in [false, true] {
            let (mut space, mut heap) = setup(instrumented);
            let hdr = heap.header_size();
            // A chunk whose header spans [start, start + total).
            let start = HEAP_BASE + 0x2000;
            let total = hdr + 64;
            heap.malloc_at(&mut space, Addr(start + hdr), 64, AllocSite(1), TypeTag(0)).unwrap();
            let overlap = |base: u64| Err(SimError::MappingOverlap { base: Addr(base), size: hdr + 32 });
            // Ending one byte inside the chunk, then starting one byte before its end.
            let before = start + 1 - (hdr + 32);
            assert_eq!(
                heap.malloc_at(&mut space, Addr(before + hdr), 32, AllocSite(2), TypeTag(0)),
                overlap(before)
            );
            let after = start + total - 1;
            assert_eq!(
                heap.malloc_at(&mut space, Addr(after + hdr), 32, AllocSite(2), TypeTag(0)),
                overlap(after)
            );
            // Ending exactly at its header, then starting exactly at its end.
            let before = start - (hdr + 32);
            heap.malloc_at(&mut space, Addr(before + hdr), 32, AllocSite(2), TypeTag(0)).unwrap();
            let after = start + total;
            heap.malloc_at(&mut space, Addr(after + hdr), 32, AllocSite(2), TypeTag(0)).unwrap();
            assert_eq!(heap.live_count(), 3);
        }
    }

    #[test]
    fn malloc_at_keeps_the_uncovered_parts_of_free_entries() {
        for instrumented in [false, true] {
            let (mut space, mut heap) = setup(instrumented);
            heap.end_startup();
            let hdr = heap.header_size();
            let chunks: Vec<Addr> =
                (0..6).map(|_| heap.malloc(&mut space, 48, AllocSite(1), TypeTag(0)).unwrap()).collect();
            let total = hdr + 48;
            // Free entries at chunks 0..5; chunk 5 stays live behind them.
            for &p in &chunks[..5] {
                heap.free(&mut space, p).unwrap();
            }
            let entries =
                |heap: &PtMalloc| heap.free_chunks.iter().map(|(&o, &s)| (o, s)).collect::<Vec<_>>();
            let first = chunks[0].0 - hdr - HEAP_BASE;
            let entry = |i: u64| (first + i * total, total);
            assert_eq!(entries(&heap), (0..5).map(entry).collect::<Vec<_>>());
            // Exactly entries 0 and 1: the placement ends at entry 2's start.
            heap.malloc_at(&mut space, chunks[0], 2 * total - hdr, AllocSite(2), TypeTag(0)).unwrap();
            assert_eq!(entries(&heap), (2..5).map(entry).collect::<Vec<_>>());
            // From inside entry 2 to inside entry 4, leaving a smallest
            // reusable entry (header + one CHUNK_ALIGN payload) at each end:
            // entry 3 goes, the head of 2 and the tail of 4 stay free.
            let min_entry = hdr + CHUNK_ALIGN;
            let start = entry(2).0 + min_entry;
            let end = entry(5).0 - min_entry;
            let placed = Addr(HEAP_BASE + start + hdr);
            heap.malloc_at(&mut space, placed, end - start - hdr, AllocSite(3), TypeTag(0)).unwrap();
            assert_eq!(entries(&heap), vec![(entry(2).0, min_entry), (end, min_entry)]);
            // Both remainders are reused, first fit, before the frontier grows.
            let head = heap.malloc(&mut space, CHUNK_ALIGN, AllocSite(4), TypeTag(0)).unwrap();
            let tail = heap.malloc(&mut space, CHUNK_ALIGN, AllocSite(4), TypeTag(0)).unwrap();
            assert_eq!((head, tail), (Addr(HEAP_BASE + entry(2).0 + hdr), Addr(HEAP_BASE + end + hdr)));
            assert!(heap.free_chunks.is_empty());
            // Slivers too small for a chunk are dropped: a placement 16 bytes
            // into chunk 5's freed entry leaves 16 bytes on either side.
            heap.free(&mut space, chunks[5]).unwrap();
            let sliver = Addr(HEAP_BASE + entry(5).0 + 16 + hdr);
            heap.malloc_at(&mut space, sliver, total - 32 - hdr, AllocSite(5), TypeTag(0)).unwrap();
            assert!(heap.free_chunks.is_empty());
            assert_eq!(heap.live_count(), 5);
        }
    }

    #[test]
    fn chunk_containing_handles_interior_pointers() {
        let (mut space, mut heap) = setup(true);
        let a = heap.malloc(&mut space, 256, AllocSite(1), TypeTag(5)).unwrap();
        let inner = heap.chunk_containing(&space, a.offset(100)).unwrap();
        assert_eq!(inner.payload, a);
        assert!(heap.chunk_containing(&space, a.offset(4096)).is_none());
    }

    #[test]
    fn out_of_memory_reported() {
        let mut space = AddressSpace::new();
        space.map_region(Addr(HEAP_BASE), PAGE_SIZE, RegionKind::Heap, "heap").unwrap();
        let mut heap = PtMalloc::new(Addr(HEAP_BASE), PAGE_SIZE, false);
        assert!(heap.malloc(&mut space, 2 * PAGE_SIZE, AllocSite(0), TypeTag(0)).is_err());
    }

    #[test]
    fn region_allocator_basic() {
        let (mut space, mut heap) = setup(false);
        let mut regions = RegionAllocator::new(false);
        let pool = regions.create_pool(&mut space, &mut heap, 4096, None).unwrap();
        let a = regions.palloc(&mut space, pool, 100, AllocSite(1), TypeTag(1)).unwrap();
        let b = regions.palloc(&mut space, pool, 100, AllocSite(1), TypeTag(1)).unwrap();
        assert_ne!(a, b);
        assert_eq!(regions.pool_containing(a), Some(pool));
        assert!(regions.object_containing(a).is_none(), "uninstrumented pools are opaque");
        regions.destroy_pool(&mut space, &mut heap, pool).unwrap();
        assert_eq!(regions.pool_count(), 0);
    }

    #[test]
    fn instrumented_region_allocator_tracks_objects() {
        let (mut space, mut heap) = setup(true);
        let mut regions = RegionAllocator::new(true);
        let pool = regions.create_pool(&mut space, &mut heap, 4096, None).unwrap();
        let a = regions.palloc(&mut space, pool, 48, AllocSite(11), TypeTag(4)).unwrap();
        let (obj, size, site, tag) = regions.object_containing(a.offset(8)).unwrap();
        assert_eq!(obj, a);
        assert_eq!(size, 48);
        assert_eq!(site, AllocSite(11));
        assert_eq!(tag, TypeTag(4));
        assert!(regions.stats().instr_writes >= 2);
    }

    #[test]
    fn nested_pools_destroyed_recursively() {
        let (mut space, mut heap) = setup(false);
        let mut regions = RegionAllocator::new(false);
        let parent = regions.create_pool(&mut space, &mut heap, 2048, None).unwrap();
        let _child = regions.create_pool(&mut space, &mut heap, 1024, Some(parent)).unwrap();
        assert_eq!(regions.pool_count(), 2);
        regions.destroy_pool(&mut space, &mut heap, parent).unwrap();
        assert_eq!(regions.pool_count(), 0);
    }

    #[test]
    fn pool_exhaustion() {
        let (mut space, mut heap) = setup(false);
        let mut regions = RegionAllocator::new(false);
        let pool = regions.create_pool(&mut space, &mut heap, 64, None).unwrap();
        assert!(regions.palloc(&mut space, pool, 128, AllocSite(0), TypeTag(0)).is_err());
    }

    #[test]
    fn slab_allocator_roundtrip() {
        let (mut space, mut heap) = setup(false);
        let mut slab = SlabAllocator::new(&mut space, &mut heap, 32, 4).unwrap();
        let a = slab.alloc().unwrap();
        let b = slab.alloc().unwrap();
        assert_ne!(a, b);
        assert_eq!(slab.used_count(), 2);
        slab.free(a).unwrap();
        assert_eq!(slab.used_count(), 1);
        let c = slab.alloc().unwrap();
        assert_eq!(a, c, "freed slot is reused");
        assert!(slab.free(Addr(1)).is_err());
        assert!(slab.free(b.offset(1)).is_err());
    }

    #[test]
    fn slab_exhaustion() {
        let (mut space, mut heap) = setup(false);
        let mut slab = SlabAllocator::new(&mut space, &mut heap, 16, 2).unwrap();
        slab.alloc().unwrap();
        slab.alloc().unwrap();
        assert!(slab.alloc().is_err());
    }
}
