//! The heap facade: local heaps, the global heap, and the object-level
//! mechanism the collector is built from.
//!
//! [`Heap`] owns every memory region of the simulated runtime. It provides
//! *mechanism* only — allocate an object, read or write a field, evacuate an
//! object to another space, acquire a global-heap chunk. The collection
//! *policy* (when to collect, the Cheney loops, the per-node chunk lists of
//! the global collection) lives in the `mgc-core` crate.

use crate::addr::{Addr, Word, WORD_BYTES};
use crate::chunk::{ChunkId, ChunkState};
use crate::descriptor::{Descriptor, DescriptorId, DescriptorTable};
use crate::error::HeapError;
use crate::global::GlobalHeap;
use crate::header::{Header, HeaderSlot, ObjectKind};
use crate::local::{LocalHeap, LocalRegion};
use crate::space::{AddressSpace, RegionOwner};
use mgc_numa::{AllocPolicy, NodeId, PageMap, PagePlacer, PlacementPolicy};

/// Configuration of the heap geometry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HeapConfig {
    /// Size of a global-heap chunk in bytes. The paper uses large chunks on
    /// a 128 GB machine; the default here is scaled down to match the scaled
    /// workloads.
    pub chunk_size_bytes: usize,
    /// Size of each vproc's local heap in bytes. The paper sizes local heaps
    /// to fit the node's L3 cache (§3.1).
    pub local_heap_bytes: usize,
    /// Bytes of global-heap address band reserved per NUMA node in the
    /// threaded backend (a power of two). The default,
    /// [`NODE_SPAN_BYTES`](crate::NODE_SPAN_BYTES), is 256 GiB of *virtual*
    /// span; host-scale runs may derive it from probed node memory instead.
    pub node_span_bytes: u64,
    /// Physical placement policy for local heaps and global chunks (§4.3).
    pub policy: AllocPolicy,
}

impl Default for HeapConfig {
    fn default() -> Self {
        HeapConfig {
            chunk_size_bytes: 256 * 1024,
            local_heap_bytes: 512 * 1024,
            node_span_bytes: crate::shared::NODE_SPAN_BYTES,
            policy: AllocPolicy::Local,
        }
    }
}

impl HeapConfig {
    /// A small configuration convenient for unit tests: 4 KiB chunks and
    /// 16 KiB local heaps.
    pub fn small_for_tests() -> Self {
        HeapConfig {
            chunk_size_bytes: 4 * 1024,
            local_heap_bytes: 16 * 1024,
            node_span_bytes: crate::shared::NODE_SPAN_BYTES,
            policy: AllocPolicy::Local,
        }
    }

    /// The validated geometry view of this configuration.
    pub fn geometry(&self) -> HeapGeometry {
        HeapGeometry {
            chunk_size_bytes: self.chunk_size_bytes,
            local_heap_bytes: self.local_heap_bytes,
            node_span_bytes: self.node_span_bytes,
        }
    }
}

/// Smallest accepted global-heap chunk, in bytes.
pub const MIN_CHUNK_BYTES: usize = 1024;
/// Smallest accepted per-vproc local heap, in bytes.
pub const MIN_LOCAL_HEAP_BYTES: usize = 4096;

/// The geometry knobs of a heap, validated as a unit.
///
/// Construct via [`HeapConfig::geometry`] and call
/// [`HeapGeometry::validate`] before building heaps from untrusted knobs
/// (CLI flags, environment overrides, probed host memory) — the heap
/// constructors `assert!` the same bounds, but this path reports a typed
/// violation instead of panicking mid-run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HeapGeometry {
    /// Size of a global-heap chunk in bytes.
    pub chunk_size_bytes: usize,
    /// Size of each vproc's local heap in bytes.
    pub local_heap_bytes: usize,
    /// Bytes of global-heap address band per NUMA node.
    pub node_span_bytes: u64,
}

/// One violated heap-geometry bound (see [`HeapGeometry::validate`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GeometryViolation {
    /// A knob is below its minimum.
    BelowMinimum {
        /// The violating [`HeapConfig`] field.
        field: &'static str,
        /// The rejected value.
        bytes: u64,
        /// The smallest accepted value.
        min: u64,
    },
    /// The node span is not a power of two (the `addr → node` shift
    /// arithmetic requires one).
    NotPowerOfTwo {
        /// The violating [`HeapConfig`] field.
        field: &'static str,
        /// The rejected value.
        bytes: u64,
    },
    /// The node span exceeds the largest supported band.
    AboveMaximum {
        /// The violating [`HeapConfig`] field.
        field: &'static str,
        /// The rejected value.
        bytes: u64,
        /// The largest accepted value.
        max: u64,
    },
}

impl HeapGeometry {
    /// Checks every geometry bound, reporting the first violation.
    ///
    /// # Errors
    ///
    /// Returns the violated bound: chunk and local-heap minimums, and for
    /// the node span — power-of-two shape, room for at least one chunk, and
    /// the [`MAX_NODE_SPAN_SHIFT`](crate::MAX_NODE_SPAN_SHIFT) ceiling that
    /// keeps band arithmetic inside `u64`.
    pub fn validate(&self) -> Result<(), GeometryViolation> {
        if self.chunk_size_bytes < MIN_CHUNK_BYTES {
            return Err(GeometryViolation::BelowMinimum {
                field: "chunk_size_bytes",
                bytes: self.chunk_size_bytes as u64,
                min: MIN_CHUNK_BYTES as u64,
            });
        }
        if self.local_heap_bytes < MIN_LOCAL_HEAP_BYTES {
            return Err(GeometryViolation::BelowMinimum {
                field: "local_heap_bytes",
                bytes: self.local_heap_bytes as u64,
                min: MIN_LOCAL_HEAP_BYTES as u64,
            });
        }
        if !self.node_span_bytes.is_power_of_two() {
            return Err(GeometryViolation::NotPowerOfTwo {
                field: "node_span_bytes",
                bytes: self.node_span_bytes,
            });
        }
        if self.node_span_bytes > 1 << crate::shared::MAX_NODE_SPAN_SHIFT {
            return Err(GeometryViolation::AboveMaximum {
                field: "node_span_bytes",
                bytes: self.node_span_bytes,
                max: 1 << crate::shared::MAX_NODE_SPAN_SHIFT,
            });
        }
        if self.node_span_bytes < self.chunk_size_bytes as u64 {
            return Err(GeometryViolation::BelowMinimum {
                field: "node_span_bytes",
                bytes: self.node_span_bytes,
                min: (self.chunk_size_bytes as u64).next_power_of_two(),
            });
        }
        Ok(())
    }
}

/// Which heap space an address belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Space {
    /// The nursery of a vproc's local heap.
    LocalNursery {
        /// Owning vproc.
        vproc: usize,
    },
    /// The young-data area of a vproc's local heap.
    LocalYoung {
        /// Owning vproc.
        vproc: usize,
    },
    /// The old-data area of a vproc's local heap.
    LocalOld {
        /// Owning vproc.
        vproc: usize,
    },
    /// Free space inside a vproc's local heap (no live object should be
    /// here; reported for diagnostics).
    LocalFree {
        /// Owning vproc.
        vproc: usize,
    },
    /// A global-heap chunk.
    Global {
        /// The chunk.
        chunk: ChunkId,
    },
    /// Outside every mapped region.
    Unmapped,
}

impl Space {
    /// True for any of the local-heap spaces.
    pub fn is_local(self) -> bool {
        matches!(
            self,
            Space::LocalNursery { .. }
                | Space::LocalYoung { .. }
                | Space::LocalOld { .. }
                | Space::LocalFree { .. }
        )
    }

    /// True for the global heap.
    pub fn is_global(self) -> bool {
        matches!(self, Space::Global { .. })
    }

    /// The owning vproc, for local spaces.
    pub fn vproc(self) -> Option<usize> {
        match self {
            Space::LocalNursery { vproc }
            | Space::LocalYoung { vproc }
            | Space::LocalOld { vproc }
            | Space::LocalFree { vproc } => Some(vproc),
            _ => None,
        }
    }
}

/// Target space for an object evacuation performed by the collector.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EvacTarget {
    /// Copy to the end of the vproc's old-data area (minor collection).
    OldArea {
        /// The vproc whose local heap receives the copy.
        vproc: usize,
    },
    /// Copy to the vproc's current global-heap chunk (major collection and
    /// promotion).
    GlobalCurrent {
        /// The vproc whose current chunk receives the copy.
        vproc: usize,
    },
    /// Copy into a specific chunk (global collection to-space).
    Chunk(ChunkId),
}

/// Heap-wide counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct HeapStats {
    /// Number of global-chunk acquisitions (each is a synchronisation point
    /// in the real runtime, §3.3).
    pub chunk_acquisitions: u64,
    /// Words copied by evacuations.
    pub evacuated_words: u64,
}

/// The complete simulated heap.
#[derive(Debug)]
pub struct Heap {
    config: HeapConfig,
    num_nodes: usize,
    vproc_nodes: Vec<NodeId>,
    placer: PagePlacer,
    page_map: PageMap,
    descriptors: DescriptorTable,
    space: AddressSpace,
    locals: Vec<LocalHeap>,
    global: GlobalHeap,
    current_chunk: Vec<Option<ChunkId>>,
    /// Which node's free list promotion chunks are preferred from (the
    /// threaded backend's [`PlacementPolicy`], mirrored here so the
    /// simulated backend covers the same scenario axis).
    placement: PlacementPolicy,
    /// Round-robin cursor for [`PlacementPolicy::Interleave`].
    interleave_cursor: usize,
    /// Per-vproc promotion target: the node the consumer of the vproc's
    /// next promotion lives on. Defaults to the vproc's home node; the
    /// runtime retargets it at the thief's node around a steal handoff.
    promotion_target: Vec<NodeId>,
    /// Per-vproc *effective* static policy under
    /// [`PlacementPolicy::Adaptive`]: the runtime's controller resolves the
    /// adaptive mode to `NodeLocal` or `Interleave` before each promotion.
    /// Ignored for static heap-wide policies.
    effective_placement: Vec<PlacementPolicy>,
    stats: HeapStats,
}

impl Heap {
    /// Creates a heap for `vproc_nodes.len()` vprocs. `vproc_nodes[i]` is the
    /// NUMA node of the core that vproc `i` is pinned to; the placement
    /// policy decides where the backing pages actually land.
    ///
    /// # Panics
    ///
    /// Panics if `vproc_nodes` is empty, `num_nodes` is zero, or any home
    /// node is out of range.
    pub fn new(config: HeapConfig, vproc_nodes: &[NodeId], num_nodes: usize) -> Self {
        assert!(!vproc_nodes.is_empty(), "at least one vproc is required");
        assert!(num_nodes > 0, "at least one NUMA node is required");
        for node in vproc_nodes {
            assert!(
                node.index() < num_nodes,
                "vproc home node {node} out of range (machine has {num_nodes} nodes)"
            );
        }
        let chunk_words = (config.chunk_size_bytes / WORD_BYTES).max(64);
        let local_words_raw = (config.local_heap_bytes / WORD_BYTES).max(64);
        // Local heaps are mapped in whole blocks of the address space.
        let local_blocks = local_words_raw.div_ceil(chunk_words);
        let local_words = local_blocks * chunk_words;

        let placer = PagePlacer::new(config.policy, num_nodes);
        let mut page_map = PageMap::new();
        let mut space = AddressSpace::new(chunk_words);
        let mut locals = Vec::with_capacity(vproc_nodes.len());
        for (vproc, &home) in vproc_nodes.iter().enumerate() {
            let node = placer.place(home);
            let base = space.map(RegionOwner::Local { vproc }, local_blocks);
            page_map.place(base.raw(), local_words * WORD_BYTES, node);
            locals.push(LocalHeap::new(vproc, node, base, local_words));
        }
        let global = GlobalHeap::new(chunk_words, num_nodes);

        Heap {
            config,
            num_nodes,
            vproc_nodes: vproc_nodes.to_vec(),
            placer,
            page_map,
            descriptors: DescriptorTable::new(),
            space,
            locals,
            global,
            current_chunk: vec![None; vproc_nodes.len()],
            placement: PlacementPolicy::NodeLocal,
            interleave_cursor: 0,
            promotion_target: vproc_nodes.to_vec(),
            // Adaptive controllers cold-start in node-local mode.
            effective_placement: vec![PlacementPolicy::NodeLocal; vproc_nodes.len()],
            stats: HeapStats::default(),
        }
    }

    /// Sets the promotion-chunk placement policy (see [`PlacementPolicy`]).
    pub fn set_placement(&mut self, placement: PlacementPolicy) {
        self.placement = placement;
    }

    /// The promotion-chunk placement policy.
    pub fn placement(&self) -> PlacementPolicy {
        self.placement
    }

    /// Points `vproc`'s subsequent promotions at `node` (used around a steal
    /// handoff so the stolen graph lands on the thief's node under
    /// [`PlacementPolicy::NodeLocal`]).
    pub fn set_promotion_target(&mut self, vproc: usize, node: NodeId) {
        self.promotion_target[vproc] = node;
    }

    /// Restores `vproc`'s promotion target to its home node.
    pub fn reset_promotion_target(&mut self, vproc: usize) {
        self.promotion_target[vproc] = self.vproc_nodes[vproc];
    }

    /// The node `vproc`'s next promotion targets.
    pub fn promotion_target(&self, vproc: usize) -> NodeId {
        self.promotion_target[vproc]
    }

    /// The static policy `vproc`'s chunk acquisitions currently follow:
    /// the heap-wide policy, except under [`PlacementPolicy::Adaptive`],
    /// where it is the controller-resolved per-vproc mode.
    pub fn effective_placement(&self, vproc: usize) -> PlacementPolicy {
        match self.placement {
            PlacementPolicy::Adaptive => self.effective_placement[vproc],
            fixed => fixed,
        }
    }

    /// Resolves `vproc`'s effective policy under
    /// [`PlacementPolicy::Adaptive`] (no effect on static heap-wide
    /// policies). The runtime's adaptive controller calls this before each
    /// promotion.
    ///
    /// # Panics
    ///
    /// Panics (debug) if `effective` is itself `Adaptive`.
    pub fn set_effective_placement(&mut self, vproc: usize, effective: PlacementPolicy) {
        debug_assert!(
            effective != PlacementPolicy::Adaptive,
            "the adaptive controller resolves to a concrete static policy"
        );
        self.effective_placement[vproc] = effective;
    }

    /// The heap configuration.
    pub fn config(&self) -> &HeapConfig {
        &self.config
    }

    /// Number of vprocs this heap serves.
    pub fn num_vprocs(&self) -> usize {
        self.locals.len()
    }

    /// Number of NUMA nodes in the machine.
    pub fn num_nodes(&self) -> usize {
        self.num_nodes
    }

    /// The home node (core location) of a vproc.
    pub fn vproc_home_node(&self, vproc: usize) -> NodeId {
        self.vproc_nodes[vproc]
    }

    /// Heap-wide counters.
    pub fn stats(&self) -> HeapStats {
        self.stats
    }

    /// The page map recording where every region physically lives.
    pub fn page_map(&self) -> &PageMap {
        &self.page_map
    }

    /// The descriptor table for mixed-type objects.
    pub fn descriptors(&self) -> &DescriptorTable {
        &self.descriptors
    }

    /// Registers a mixed-object descriptor and returns its ID.
    pub fn register_descriptor(&mut self, descriptor: Descriptor) -> DescriptorId {
        self.descriptors.register(descriptor)
    }

    /// Borrow a vproc's local heap.
    pub fn local(&self, vproc: usize) -> &LocalHeap {
        &self.locals[vproc]
    }

    /// Mutably borrow a vproc's local heap.
    pub fn local_mut(&mut self, vproc: usize) -> &mut LocalHeap {
        &mut self.locals[vproc]
    }

    /// Borrow the global heap.
    pub fn global(&self) -> &GlobalHeap {
        &self.global
    }

    /// Mutably borrow the global heap.
    pub fn global_mut(&mut self) -> &mut GlobalHeap {
        &mut self.global
    }

    /// The vproc's current global-heap chunk, if it has one.
    pub fn current_chunk(&self, vproc: usize) -> Option<ChunkId> {
        self.current_chunk[vproc]
    }

    // ------------------------------------------------------------------
    // Address resolution
    // ------------------------------------------------------------------

    /// Which space `addr` belongs to.
    pub fn space_of(&self, addr: Addr) -> Space {
        match self.space.owner_of(addr) {
            RegionOwner::Unmapped => Space::Unmapped,
            RegionOwner::Global { chunk } => Space::Global { chunk },
            RegionOwner::Local { vproc } => {
                let local = &self.locals[vproc];
                match local.region_of(addr) {
                    LocalRegion::Old => Space::LocalOld { vproc },
                    LocalRegion::Young => Space::LocalYoung { vproc },
                    LocalRegion::Nursery => Space::LocalNursery { vproc },
                    LocalRegion::Reserve | LocalRegion::NurseryFree => Space::LocalFree { vproc },
                }
            }
        }
    }

    /// True if `addr` lies in any local heap.
    pub fn is_local(&self, addr: Addr) -> bool {
        matches!(self.space.owner_of(addr), RegionOwner::Local { .. })
    }

    /// True if `addr` lies in the global heap.
    pub fn is_global(&self, addr: Addr) -> bool {
        matches!(self.space.owner_of(addr), RegionOwner::Global { .. })
    }

    /// The NUMA node whose memory backs `addr`.
    ///
    /// # Panics
    ///
    /// Panics if `addr` is unmapped.
    pub fn node_of(&self, addr: Addr) -> NodeId {
        match self.space.owner_of(addr) {
            RegionOwner::Local { vproc } => self.locals[vproc].node(),
            RegionOwner::Global { chunk } => self.global.chunk(chunk).node(),
            RegionOwner::Unmapped => panic!("{addr:?} is not mapped to any heap region"),
        }
    }

    // ------------------------------------------------------------------
    // Word and object access
    // ------------------------------------------------------------------

    /// Reads the word at `addr`.
    ///
    /// # Panics
    ///
    /// Panics if `addr` is unmapped.
    pub fn read_word(&self, addr: Addr) -> Word {
        match self.space.owner_of(addr) {
            RegionOwner::Local { vproc } => {
                let local = &self.locals[vproc];
                local.read(local.offset_of(addr))
            }
            RegionOwner::Global { chunk } => {
                let chunk = self.global.chunk(chunk);
                chunk.read(chunk.offset_of(addr))
            }
            RegionOwner::Unmapped => panic!("read from unmapped address {addr:?}"),
        }
    }

    /// Writes the word at `addr`.
    ///
    /// # Panics
    ///
    /// Panics if `addr` is unmapped.
    pub fn write_word(&mut self, addr: Addr, value: Word) {
        match self.space.owner_of(addr) {
            RegionOwner::Local { vproc } => {
                let local = &mut self.locals[vproc];
                let off = local.offset_of(addr);
                local.write(off, value);
            }
            RegionOwner::Global { chunk } => {
                let chunk = self.global.chunk_mut(chunk);
                let off = chunk.offset_of(addr);
                chunk.write(off, value);
            }
            RegionOwner::Unmapped => panic!("write to unmapped address {addr:?}"),
        }
    }

    /// Reads the header slot of the object at `obj` (the word below the
    /// payload): either a header or a forwarding pointer.
    pub fn header_slot(&self, obj: Addr) -> HeaderSlot {
        HeaderSlot::decode(self.read_word(obj.sub_words(1)))
    }

    /// Reads the header of the object at `obj`.
    ///
    /// # Panics
    ///
    /// Panics if the object has been forwarded; use [`Heap::forwarded_to`]
    /// first when that is possible.
    pub fn header_of(&self, obj: Addr) -> Header {
        self.header_slot(obj).expect_header()
    }

    /// If the object at `obj` has been moved, returns its new address.
    pub fn forwarded_to(&self, obj: Addr) -> Option<Addr> {
        self.header_slot(obj).forwarded_to()
    }

    /// Overwrites the object's header with a forwarding pointer to `target`.
    pub fn set_forward(&mut self, obj: Addr, target: Addr) {
        debug_assert!(!target.is_null());
        self.write_word(obj.sub_words(1), target.raw());
    }

    /// Reads payload field `index` of the object at `obj`.
    pub fn read_field(&self, obj: Addr, index: usize) -> Word {
        self.read_word(obj.add_words(index))
    }

    /// Writes payload field `index` of the object at `obj`.
    ///
    /// The mutator never calls this (the language is mutation-free); it is
    /// used by the collector to redirect pointer fields and by the runtime to
    /// initialise objects it builds by hand (channel buffers, proxies).
    pub fn write_field(&mut self, obj: Addr, index: usize, value: Word) {
        self.write_word(obj.add_words(index), value);
    }

    /// Reads the whole payload of the object at `obj`.
    pub fn payload(&self, obj: Addr) -> Vec<Word> {
        let header = self.header_of(obj);
        (0..header.len_words as usize)
            .map(|i| self.read_field(obj, i))
            .collect()
    }

    /// The payload indices of the pointer fields of an object with header
    /// `header`.
    ///
    /// # Errors
    ///
    /// Returns [`HeapError::UnknownDescriptor`] if a mixed object's ID has no
    /// registered descriptor.
    pub fn pointer_field_indices(&self, header: Header) -> Result<Vec<usize>, HeapError> {
        match header.kind {
            ObjectKind::Raw => Ok(Vec::new()),
            ObjectKind::Vector => Ok((0..header.len_words as usize).collect()),
            ObjectKind::Mixed(id) => {
                let descriptor = self
                    .descriptors
                    .get(id)
                    .ok_or(HeapError::UnknownDescriptor { id })?;
                Ok(descriptor.pointer_offsets().collect())
            }
        }
    }

    /// The total size in bytes of the object at `obj`, including its header.
    pub fn object_bytes(&self, obj: Addr) -> usize {
        self.header_of(obj).total_bytes()
    }

    // ------------------------------------------------------------------
    // Mutator allocation (into the nursery)
    // ------------------------------------------------------------------

    /// Allocates a raw-data object in `vproc`'s nursery.
    ///
    /// # Errors
    ///
    /// Returns [`HeapError::NurseryFull`] when a minor collection is needed.
    pub fn alloc_raw(&mut self, vproc: usize, payload: &[Word]) -> Result<Addr, HeapError> {
        let header = Header::new(ObjectKind::Raw, payload.len() as u64).encode();
        self.locals[vproc].alloc(header, payload)
    }

    /// Allocates a pointer-vector object in `vproc`'s nursery. Every element
    /// must be a valid object address or the null word.
    ///
    /// # Errors
    ///
    /// Returns [`HeapError::NurseryFull`] when a minor collection is needed.
    pub fn alloc_vector(&mut self, vproc: usize, elements: &[Word]) -> Result<Addr, HeapError> {
        let header = Header::new(ObjectKind::Vector, elements.len() as u64).encode();
        self.locals[vproc].alloc(header, elements)
    }

    /// Allocates a mixed-type object in `vproc`'s nursery.
    ///
    /// # Errors
    ///
    /// Returns [`HeapError::UnknownDescriptor`] for an unregistered
    /// descriptor, [`HeapError::PayloadSizeMismatch`] if the payload does not
    /// match the descriptor's declared size, and [`HeapError::NurseryFull`]
    /// when a minor collection is needed.
    pub fn alloc_mixed(
        &mut self,
        vproc: usize,
        descriptor: DescriptorId,
        payload: &[Word],
    ) -> Result<Addr, HeapError> {
        let desc = self
            .descriptors
            .get(descriptor.id())
            .ok_or(HeapError::UnknownDescriptor {
                id: descriptor.id(),
            })?;
        if desc.size_words as usize != payload.len() {
            return Err(HeapError::PayloadSizeMismatch {
                expected: desc.size_words as usize,
                supplied: payload.len(),
            });
        }
        let header = Header::new(ObjectKind::Mixed(descriptor.id()), payload.len() as u64).encode();
        self.locals[vproc].alloc(header, payload)
    }

    // ------------------------------------------------------------------
    // Collector allocation (old area, global chunks)
    // ------------------------------------------------------------------

    /// Acquires a fresh current chunk for `vproc`, retiring the previous one
    /// (if any) to the [`ChunkState::Filled`] state. Returns the new chunk.
    ///
    /// This corresponds to the synchronisation point of §3.3: in the real
    /// runtime this takes a node-local or global lock; here we count it in
    /// [`HeapStats::chunk_acquisitions`] so the scheduler can charge for it.
    pub fn fresh_current_chunk(&mut self, vproc: usize) -> ChunkId {
        if let Some(old) = self.current_chunk[vproc] {
            self.global.chunk_mut(old).set_state(ChunkState::Filled);
        }
        // The placement policy picks the target node (consumer node under
        // `NodeLocal`, home node under `FirstTouch`, round-robin under
        // `Interleave`, whichever of those the controller resolved under
        // `Adaptive`); the page placer then resolves it exactly as it does
        // for any other region.
        let target = match self.effective_placement(vproc) {
            PlacementPolicy::NodeLocal | PlacementPolicy::Adaptive => self.promotion_target[vproc],
            PlacementPolicy::FirstTouch => self.vproc_nodes[vproc],
            PlacementPolicy::Interleave => {
                let node = NodeId::new((self.interleave_cursor % self.num_nodes) as u16);
                self.interleave_cursor += 1;
                node
            }
        };
        let preferred = self.placer.place(target);
        let id = self.global.acquire_chunk(preferred, &mut self.space);
        let base = self.global.chunk_base(id);
        let bytes = self.global.chunk_size_bytes();
        let node = self.global.chunk(id).node();
        self.page_map.place(base.raw(), bytes, node);
        self.global
            .chunk_mut(id)
            .set_state(ChunkState::Current { vproc });
        self.current_chunk[vproc] = Some(id);
        self.stats.chunk_acquisitions += 1;
        id
    }

    /// The node the next chunk acquisition is *bound* to, when the
    /// combination of placement policy and page policy pins one
    /// deterministically (`None` under `Interleave` placement, an
    /// interleaved page policy, or the affinity-off ablation — retiring
    /// chunks would only churn there).
    fn bound_chunk_node(&self, vproc: usize) -> Option<NodeId> {
        if !self.global.node_affinity() {
            return None;
        }
        let target = match self.effective_placement(vproc) {
            PlacementPolicy::NodeLocal | PlacementPolicy::Adaptive => self.promotion_target[vproc],
            PlacementPolicy::FirstTouch => self.vproc_nodes[vproc],
            PlacementPolicy::Interleave => return None,
        };
        match self.placer.policy() {
            AllocPolicy::Local | AllocPolicy::FirstTouch => Some(target),
            AllocPolicy::SocketZero => Some(NodeId::new(0)),
            AllocPolicy::Interleaved => None,
        }
    }

    /// Ensures `vproc` has a current chunk on the node the placement policy
    /// binds it to, acquiring (or replacing a wrong-node chunk with) a fresh
    /// one if necessary — the same retarget-on-mismatch rule the threaded
    /// `WorkerHeap` applies, so the backends' placement behaviour agrees.
    pub fn ensure_current_chunk(&mut self, vproc: usize) -> ChunkId {
        match self.current_chunk[vproc] {
            Some(id) => match self.bound_chunk_node(vproc) {
                Some(want) if self.global.chunk(id).node() != want => {
                    self.fresh_current_chunk(vproc)
                }
                _ => id,
            },
            None => self.fresh_current_chunk(vproc),
        }
    }

    /// Drops `vproc`'s claim on its current chunk, marking it filled.
    pub fn retire_current_chunk(&mut self, vproc: usize) {
        if let Some(id) = self.current_chunk[vproc].take() {
            self.global.chunk_mut(id).set_state(ChunkState::Filled);
        }
    }

    /// Allocates an object with an explicit header into `vproc`'s current
    /// global chunk, acquiring a fresh chunk transparently when the current
    /// one fills up.
    ///
    /// # Errors
    ///
    /// Returns [`HeapError::ObjectTooLarge`] if the object cannot fit in any
    /// chunk.
    pub fn alloc_in_global(
        &mut self,
        vproc: usize,
        header: Word,
        payload: &[Word],
    ) -> Result<Addr, HeapError> {
        let total = payload.len() + 1;
        if total > self.global.chunk_size_words() {
            return Err(HeapError::ObjectTooLarge {
                requested_words: total,
                max_words: self.global.chunk_size_words(),
            });
        }
        let chunk = self.ensure_current_chunk(vproc);
        match self.global.chunk_mut(chunk).alloc(header, payload) {
            Ok(addr) => Ok(addr),
            Err(HeapError::ChunkFull { .. }) => {
                let fresh = self.fresh_current_chunk(vproc);
                self.global.chunk_mut(fresh).alloc(header, payload)
            }
            Err(e) => Err(e),
        }
    }

    /// Allocates an object into a specific chunk (used by the global
    /// collection when filling to-space chunks).
    ///
    /// # Errors
    ///
    /// Returns [`HeapError::ChunkFull`] if the chunk has no room.
    pub fn alloc_in_chunk(
        &mut self,
        chunk: ChunkId,
        header: Word,
        payload: &[Word],
    ) -> Result<Addr, HeapError> {
        self.global.chunk_mut(chunk).alloc(header, payload)
    }

    // ------------------------------------------------------------------
    // Evacuation (the copying mechanism shared by all collections)
    // ------------------------------------------------------------------

    /// Copies the object at `obj` into `target`, installs a forwarding
    /// pointer in the original header slot, and returns the new address plus
    /// the number of bytes copied (header included).
    ///
    /// # Errors
    ///
    /// Propagates allocation errors from the target space.
    ///
    /// # Panics
    ///
    /// Panics if the object has already been forwarded.
    pub fn evacuate(&mut self, obj: Addr, target: EvacTarget) -> Result<(Addr, usize), HeapError> {
        let header = self.header_of(obj);
        let payload = self.payload(obj);
        let encoded = header.encode();
        let new_addr = match target {
            EvacTarget::OldArea { vproc } => self.locals[vproc].alloc_in_old(encoded, &payload)?,
            EvacTarget::GlobalCurrent { vproc } => {
                self.alloc_in_global(vproc, encoded, &payload)?
            }
            EvacTarget::Chunk(chunk) => self.alloc_in_chunk(chunk, encoded, &payload)?,
        };
        self.set_forward(obj, new_addr);
        // Preserve the original header in the first payload word of the dead
        // copy so linear heap walks can still compute the object's footprint
        // and skip over it (the payload itself is dead — every reader must
        // follow the forwarding pointer).
        if header.len_words >= 1 {
            self.write_field(obj, 0, encoded);
        }
        self.stats.evacuated_words += header.total_words() as u64;
        Ok((new_addr, header.total_bytes()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::object::i64_to_word;

    fn two_vproc_heap() -> Heap {
        Heap::new(
            HeapConfig::small_for_tests(),
            &[NodeId::new(0), NodeId::new(1)],
            2,
        )
    }

    #[test]
    fn construction_places_local_heaps_on_home_nodes() {
        let heap = two_vproc_heap();
        assert_eq!(heap.num_vprocs(), 2);
        assert_eq!(heap.local(0).node(), NodeId::new(0));
        assert_eq!(heap.local(1).node(), NodeId::new(1));
        assert_eq!(heap.vproc_home_node(1), NodeId::new(1));
        assert!(heap.page_map().mapped_pages() > 0);
    }

    #[test]
    fn geometry_validates_spans_and_minimums() {
        // The defaults and the test config are valid.
        assert_eq!(HeapConfig::default().geometry().validate(), Ok(()));
        assert_eq!(HeapConfig::small_for_tests().geometry().validate(), Ok(()));
        // Chunk and local-heap minimums are the classic bounds.
        let tiny_chunk = HeapConfig {
            chunk_size_bytes: 64,
            ..HeapConfig::small_for_tests()
        };
        assert_eq!(
            tiny_chunk.geometry().validate(),
            Err(GeometryViolation::BelowMinimum {
                field: "chunk_size_bytes",
                bytes: 64,
                min: MIN_CHUNK_BYTES as u64,
            })
        );
        // A non-power-of-two span breaks the addr→node shift.
        let crooked = HeapConfig {
            node_span_bytes: (1 << 30) + 512,
            ..HeapConfig::small_for_tests()
        };
        assert_eq!(
            crooked.geometry().validate(),
            Err(GeometryViolation::NotPowerOfTwo {
                field: "node_span_bytes",
                bytes: (1 << 30) + 512,
            })
        );
        // A span smaller than one chunk can never map anything.
        let sliver = HeapConfig {
            node_span_bytes: 1024,
            ..HeapConfig::small_for_tests()
        };
        assert_eq!(
            sliver.geometry().validate(),
            Err(GeometryViolation::BelowMinimum {
                field: "node_span_bytes",
                bytes: 1024,
                min: 4096,
            })
        );
        // The ceiling keeps band arithmetic inside u64 for any NodeId.
        let vast = HeapConfig {
            node_span_bytes: 1 << 50,
            ..HeapConfig::small_for_tests()
        };
        assert_eq!(
            vast.geometry().validate(),
            Err(GeometryViolation::AboveMaximum {
                field: "node_span_bytes",
                bytes: 1 << 50,
                max: 1 << crate::shared::MAX_NODE_SPAN_SHIFT,
            })
        );
    }

    #[test]
    fn socket_zero_policy_places_everything_on_node_zero() {
        let config = HeapConfig {
            policy: AllocPolicy::SocketZero,
            ..HeapConfig::small_for_tests()
        };
        let mut heap = Heap::new(config, &[NodeId::new(0), NodeId::new(1)], 2);
        assert_eq!(heap.local(1).node(), NodeId::new(0));
        let chunk = heap.fresh_current_chunk(1);
        assert_eq!(heap.global().chunk(chunk).node(), NodeId::new(0));
    }

    #[test]
    fn alloc_and_read_back_raw_object() {
        let mut heap = two_vproc_heap();
        let obj = heap.alloc_raw(0, &[1, 2, 3]).unwrap();
        assert_eq!(heap.space_of(obj), Space::LocalNursery { vproc: 0 });
        assert_eq!(heap.header_of(obj).len_words, 3);
        assert_eq!(heap.payload(obj), vec![1, 2, 3]);
        assert_eq!(heap.read_field(obj, 2), 3);
        assert_eq!(heap.object_bytes(obj), 32);
        assert_eq!(heap.node_of(obj), NodeId::new(0));
    }

    #[test]
    fn vector_fields_are_all_pointers() {
        let mut heap = two_vproc_heap();
        let a = heap.alloc_raw(0, &[i64_to_word(42)]).unwrap();
        let v = heap.alloc_vector(0, &[a.raw(), 0]).unwrap();
        let header = heap.header_of(v);
        assert_eq!(heap.pointer_field_indices(header).unwrap(), vec![0, 1]);
    }

    #[test]
    fn mixed_objects_respect_descriptors() {
        let mut heap = two_vproc_heap();
        let desc = heap.register_descriptor(Descriptor::new("pair", 2, 0b10));
        let a = heap.alloc_raw(0, &[7]).unwrap();
        let obj = heap.alloc_mixed(0, desc, &[5, a.raw()]).unwrap();
        let header = heap.header_of(obj);
        assert_eq!(heap.pointer_field_indices(header).unwrap(), vec![1]);
        // Wrong payload size is rejected.
        assert!(matches!(
            heap.alloc_mixed(0, desc, &[1]),
            Err(HeapError::PayloadSizeMismatch { .. })
        ));
    }

    #[test]
    fn evacuate_to_old_area_installs_forward() {
        let mut heap = two_vproc_heap();
        let obj = heap.alloc_raw(0, &[9, 8]).unwrap();
        heap.local_mut(0).begin_minor();
        let (copy, bytes) = heap
            .evacuate(obj, EvacTarget::OldArea { vproc: 0 })
            .unwrap();
        assert_eq!(bytes, 24);
        assert_eq!(heap.forwarded_to(obj), Some(copy));
        assert_eq!(heap.payload(copy), vec![9, 8]);
        assert_eq!(heap.space_of(copy), Space::LocalYoung { vproc: 0 });
        assert_eq!(heap.stats().evacuated_words, 3);
    }

    #[test]
    fn evacuate_to_global_uses_current_chunk() {
        let mut heap = two_vproc_heap();
        let obj = heap.alloc_raw(1, &[4]).unwrap();
        let (copy, _) = heap
            .evacuate(obj, EvacTarget::GlobalCurrent { vproc: 1 })
            .unwrap();
        assert!(heap.is_global(copy));
        assert_eq!(heap.node_of(copy), NodeId::new(1));
        assert_eq!(heap.payload(copy), vec![4]);
        assert_eq!(heap.stats().chunk_acquisitions, 1);
    }

    #[test]
    fn global_allocation_rolls_over_to_fresh_chunk() {
        let mut heap = two_vproc_heap();
        let chunk_words = heap.global().chunk_size_words();
        // Fill most of the first chunk.
        let big = vec![0u64; chunk_words - 2];
        let header = Header::new(ObjectKind::Raw, big.len() as u64).encode();
        heap.alloc_in_global(0, header, &big).unwrap();
        let first = heap.current_chunk(0).unwrap();
        // This one does not fit; a fresh chunk is acquired transparently.
        let header2 = Header::new(ObjectKind::Raw, 4).encode();
        let obj = heap.alloc_in_global(0, header2, &[1, 2, 3, 4]).unwrap();
        let second = heap.current_chunk(0).unwrap();
        assert_ne!(first, second);
        assert_eq!(heap.space_of(obj), Space::Global { chunk: second });
        assert_eq!(heap.global().chunk(first).state(), ChunkState::Filled);
    }

    #[test]
    fn oversized_global_objects_are_rejected() {
        let mut heap = two_vproc_heap();
        let too_big = vec![0u64; heap.global().chunk_size_words() + 1];
        let header = Header::new(ObjectKind::Raw, too_big.len() as u64).encode();
        assert!(matches!(
            heap.alloc_in_global(0, header, &too_big),
            Err(HeapError::ObjectTooLarge { .. })
        ));
    }

    #[test]
    fn space_resolution_distinguishes_regions() {
        let mut heap = two_vproc_heap();
        let nursery_obj = heap.alloc_raw(0, &[1]).unwrap();
        assert!(heap.space_of(nursery_obj).is_local());
        assert_eq!(heap.space_of(nursery_obj).vproc(), Some(0));
        let chunk = heap.fresh_current_chunk(0);
        let base = heap.global().chunk_base(chunk);
        assert_eq!(heap.space_of(base), Space::Global { chunk });
        assert!(heap.space_of(base).is_global());
        assert_eq!(heap.space_of(Addr::new(8)), Space::Unmapped);
    }

    #[test]
    #[should_panic(expected = "unmapped")]
    fn reading_unmapped_address_panics() {
        let heap = two_vproc_heap();
        let _ = heap.read_word(Addr::new(8));
    }

    #[test]
    fn retire_current_chunk_clears_ownership() {
        let mut heap = two_vproc_heap();
        let chunk = heap.fresh_current_chunk(0);
        heap.retire_current_chunk(0);
        assert_eq!(heap.current_chunk(0), None);
        assert_eq!(heap.global().chunk(chunk).state(), ChunkState::Filled);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn bad_home_node_rejected() {
        let _ = Heap::new(HeapConfig::small_for_tests(), &[NodeId::new(9)], 2);
    }
}
