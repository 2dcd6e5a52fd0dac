//! The chunked global heap (paper §3.1, §3.3, §3.4).
//!
//! The global heap is a collection of fixed-size [`Chunk`]s. Chunks carry
//! the NUMA node they were physically allocated on; when a chunk is freed
//! (after a global collection) it goes onto its node's free list and is
//! preferentially reused by vprocs on that node, preserving node affinity.

use crate::addr::Addr;
use crate::chunk::{Chunk, ChunkId, ChunkState};
use crate::space::{AddressSpace, RegionOwner};
use mgc_numa::NodeId;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::OnceLock;

/// Counters describing global-heap activity.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct GlobalHeapStats {
    /// Chunks created from fresh address space.
    pub chunks_created: u64,
    /// Chunk acquisitions satisfied from a node-local free list.
    pub chunks_reused_local: u64,
    /// Chunk acquisitions satisfied from another node's free list (only when
    /// affinity is disabled or the local list is empty and stealing is
    /// allowed).
    pub chunks_reused_remote: u64,
}

/// The global heap: all chunks plus the per-node free lists.
#[derive(Debug, Clone)]
pub struct GlobalHeap {
    chunk_size_words: usize,
    chunks: Vec<Chunk>,
    free_by_node: Vec<Vec<ChunkId>>,
    /// Whether chunk reuse honours node affinity (the paper's design). The
    /// ablation benchmark disables this.
    node_affinity: bool,
    stats: GlobalHeapStats,
}

impl GlobalHeap {
    /// Creates an empty global heap for a machine with `num_nodes` nodes and
    /// the given chunk size.
    ///
    /// # Panics
    ///
    /// Panics if `chunk_size_words` or `num_nodes` is zero.
    pub fn new(chunk_size_words: usize, num_nodes: usize) -> Self {
        assert!(chunk_size_words > 0, "chunks must be non-empty");
        assert!(num_nodes > 0, "a machine must have at least one node");
        GlobalHeap {
            chunk_size_words,
            chunks: Vec::new(),
            free_by_node: vec![Vec::new(); num_nodes],
            node_affinity: true,
            stats: GlobalHeapStats::default(),
        }
    }

    /// Enables or disables node-affine chunk reuse (enabled by default).
    pub fn set_node_affinity(&mut self, enabled: bool) {
        self.node_affinity = enabled;
    }

    /// Whether node-affine chunk reuse is enabled.
    pub fn node_affinity(&self) -> bool {
        self.node_affinity
    }

    /// Chunk size in words.
    pub fn chunk_size_words(&self) -> usize {
        self.chunk_size_words
    }

    /// Chunk size in bytes.
    pub fn chunk_size_bytes(&self) -> usize {
        self.chunk_size_words * crate::addr::WORD_BYTES
    }

    /// Activity counters.
    pub fn stats(&self) -> GlobalHeapStats {
        self.stats
    }

    /// Total number of chunks ever created.
    pub fn num_chunks(&self) -> usize {
        self.chunks.len()
    }

    /// Number of chunks currently in use (not on a free list).
    pub fn chunks_in_use(&self) -> usize {
        self.chunks
            .iter()
            .filter(|c| c.state() != ChunkState::Free)
            .count()
    }

    /// Bytes of chunk space currently in use; this is the quantity the
    /// global-collection trigger compares against its threshold (§3.4).
    pub fn bytes_in_use(&self) -> usize {
        self.chunks_in_use() * self.chunk_size_bytes()
    }

    /// Bytes actually occupied by objects in in-use chunks.
    pub fn live_bytes_upper_bound(&self) -> usize {
        self.chunks
            .iter()
            .filter(|c| c.state() != ChunkState::Free)
            .map(Chunk::used_bytes)
            .sum()
    }

    /// Borrow a chunk.
    ///
    /// # Panics
    ///
    /// Panics if `id` does not exist.
    pub fn chunk(&self, id: ChunkId) -> &Chunk {
        &self.chunks[id.index()]
    }

    /// Mutably borrow a chunk.
    ///
    /// # Panics
    ///
    /// Panics if `id` does not exist.
    pub fn chunk_mut(&mut self, id: ChunkId) -> &mut Chunk {
        &mut self.chunks[id.index()]
    }

    /// All chunk ids currently in a given state.
    pub fn chunks_in_state(&self, state: ChunkState) -> Vec<ChunkId> {
        self.chunks
            .iter()
            .filter(|c| c.state() == state)
            .map(Chunk::id)
            .collect()
    }

    /// Iterates over all chunks.
    pub fn iter(&self) -> impl Iterator<Item = &Chunk> + '_ {
        self.chunks.iter()
    }

    /// Acquires a chunk for use by a vproc whose preferred node is `node`
    /// (already resolved through the placement policy). Reuses a free chunk
    /// with node affinity when possible, otherwise maps a fresh chunk.
    ///
    /// The returned chunk is empty and in the [`ChunkState::Free`] state; the
    /// caller decides its new state.
    pub fn acquire_chunk(&mut self, node: NodeId, space: &mut AddressSpace) -> ChunkId {
        // Node-affine reuse first.
        if let Some(id) = self.free_by_node[node.index()].pop() {
            self.stats.chunks_reused_local += 1;
            return id;
        }
        if !self.node_affinity {
            // Affinity disabled: take any free chunk and pretend it now lives
            // on the requested node (modelling a page migration / ignoring
            // placement, as the ablation does).
            for list in self.free_by_node.iter_mut() {
                if let Some(id) = list.pop() {
                    self.stats.chunks_reused_remote += 1;
                    self.chunks[id.index()].set_node(node);
                    return id;
                }
            }
        }
        // Map a brand new chunk.
        let id = ChunkId(self.chunks.len() as u32);
        let blocks = 1; // the address space block size equals the chunk size
        let base = space.map(RegionOwner::Global { chunk: id }, blocks);
        let chunk = Chunk::new(id, base, node, self.chunk_size_words);
        self.chunks.push(chunk);
        self.stats.chunks_created += 1;
        id
    }

    /// Returns a chunk to its node's free list, clearing its contents.
    ///
    /// # Panics
    ///
    /// Panics if the chunk is already free.
    pub fn release_chunk(&mut self, id: ChunkId) {
        let chunk = &mut self.chunks[id.index()];
        assert!(
            chunk.state() != ChunkState::Free,
            "{id:?} released while already free"
        );
        chunk.reset();
        let node = chunk.node();
        self.free_by_node[node.index()].push(id);
    }

    /// Number of free chunks currently available on `node`.
    pub fn free_chunks_on(&self, node: NodeId) -> usize {
        self.free_by_node[node.index()].len()
    }

    /// The base address of a chunk.
    pub fn chunk_base(&self, id: ChunkId) -> Addr {
        self.chunks[id.index()].base()
    }
}

/// Entries per link-table segment (a power of two so indexing is a shift
/// and a mask).
const POOL_SEG_SHIFT: usize = 10;
const POOL_SEG_SIZE: usize = 1 << POOL_SEG_SHIFT;
/// Maximum number of segments, bounding the pool at ~one million chunk ids.
const POOL_MAX_SEGS: usize = 1024;

/// The `next` links of the Treiber stacks, indexed by chunk id. Segments are
/// initialised on first touch (via [`OnceLock`]), so growth never blocks a
/// concurrent pop and steady-state access is a load through a shared
/// reference.
#[derive(Debug)]
struct LinkTable {
    segments: Vec<OnceLock<Box<[AtomicU64]>>>,
}

impl LinkTable {
    fn new() -> Self {
        LinkTable {
            segments: (0..POOL_MAX_SEGS).map(|_| OnceLock::new()).collect(),
        }
    }

    /// The link slot of chunk `id`. Slots hold the successor's id + 1
    /// (0 terminates the list).
    ///
    /// # Panics
    ///
    /// Panics if `id` exceeds the pool's fixed capacity.
    fn slot(&self, id: usize) -> &AtomicU64 {
        let segment = id >> POOL_SEG_SHIFT;
        assert!(
            segment < POOL_MAX_SEGS,
            "chunk id {id} exceeds the pool's {} link slots",
            POOL_MAX_SEGS * POOL_SEG_SIZE
        );
        let segment = self.segments[segment]
            .get_or_init(|| (0..POOL_SEG_SIZE).map(|_| AtomicU64::new(0)).collect());
        &segment[id & (POOL_SEG_SIZE - 1)]
    }
}

/// The lock-free chunk free-list used by the real-threads backend.
///
/// This is the concurrent counterpart of [`GlobalHeap`]'s per-node free
/// lists. Acquiring or releasing a chunk is the only synchronisation point
/// of the promotion path (§3.3), so it must not serialise workers: each
/// node's free list is a **Treiber stack** whose head packs a 32-bit chunk
/// index with a 32-bit ABA tag into one [`AtomicU64`] (the tag advances on
/// every successful push and pop, so a pop that raced with a
/// pop-then-repush of the same chunk cannot CAS a stale head back in). The
/// `next` links live in a segmented table indexed by chunk id; the common
/// case of both `push` and `pop` is a handful of atomic operations and no
/// lock.
#[derive(Debug)]
pub struct SharedChunkPool {
    /// Per-node stack heads: `(tag << 32) | (chunk id + 1)`, 0 = empty.
    heads: Vec<AtomicU64>,
    links: LinkTable,
    /// Per-node free-chunk counts (maintained separately so sizing queries
    /// never walk a concurrently mutating list).
    free_counts: Vec<AtomicUsize>,
    node_affinity: AtomicBool,
    chunks_reused_local: AtomicU64,
    chunks_reused_remote: AtomicU64,
}

impl SharedChunkPool {
    /// Creates an empty pool for a machine with `num_nodes` NUMA nodes.
    ///
    /// # Panics
    ///
    /// Panics if `num_nodes` is zero.
    pub fn new(num_nodes: usize) -> Self {
        assert!(num_nodes > 0, "a machine must have at least one node");
        SharedChunkPool {
            heads: (0..num_nodes).map(|_| AtomicU64::new(0)).collect(),
            links: LinkTable::new(),
            free_counts: (0..num_nodes).map(|_| AtomicUsize::new(0)).collect(),
            node_affinity: AtomicBool::new(true),
            chunks_reused_local: AtomicU64::new(0),
            chunks_reused_remote: AtomicU64::new(0),
        }
    }

    /// Enables or disables node-affine chunk reuse (enabled by default).
    pub fn set_node_affinity(&self, enabled: bool) {
        self.node_affinity.store(enabled, Ordering::Release);
    }

    /// Whether node-affine chunk reuse is enabled.
    pub fn node_affinity(&self) -> bool {
        self.node_affinity.load(Ordering::Acquire)
    }

    /// Pops the top chunk of `node`'s Treiber stack.
    fn pop_from(&self, node: usize) -> Option<ChunkId> {
        let head = &self.heads[node];
        let mut current = head.load(Ordering::Acquire);
        loop {
            let index = (current & u64::from(u32::MAX)) as u32;
            if index == 0 {
                return None;
            }
            let id = index - 1;
            let next = self.links.slot(id as usize).load(Ordering::Acquire);
            let tag = (current >> 32).wrapping_add(1);
            let replacement = (tag << 32) | next;
            match head.compare_exchange_weak(
                current,
                replacement,
                Ordering::AcqRel,
                Ordering::Acquire,
            ) {
                Ok(_) => {
                    self.free_counts[node].fetch_sub(1, Ordering::AcqRel);
                    return Some(ChunkId(id));
                }
                Err(observed) => current = observed,
            }
        }
    }

    /// Pops a free chunk for a vproc whose preferred node is `node`,
    /// honouring node affinity exactly as [`GlobalHeap::acquire_chunk`]
    /// does. Returns `None` when the caller must map a fresh chunk. The
    /// second tuple element says whether the reuse crossed nodes.
    pub fn pop(&self, node: NodeId) -> Option<(ChunkId, bool)> {
        if let Some(id) = self.pop_from(node.index()) {
            self.chunks_reused_local.fetch_add(1, Ordering::Relaxed);
            return Some((id, false));
        }
        if !self.node_affinity.load(Ordering::Acquire) {
            for other in 0..self.heads.len() {
                if other == node.index() {
                    // Already probed above; a chunk pushed here since then
                    // would be a node-local reuse, not a remote one.
                    continue;
                }
                if let Some(id) = self.pop_from(other) {
                    self.chunks_reused_remote.fetch_add(1, Ordering::Relaxed);
                    return Some((id, true));
                }
            }
        }
        None
    }

    /// Returns a chunk to `node`'s free list.
    pub fn push(&self, node: NodeId, id: ChunkId) {
        let link = self.links.slot(id.index());
        let head = &self.heads[node.index()];
        let mut current = head.load(Ordering::Acquire);
        loop {
            link.store(current & u64::from(u32::MAX), Ordering::Release);
            let tag = (current >> 32).wrapping_add(1);
            let replacement = (tag << 32) | u64::from(id.0 + 1);
            match head.compare_exchange_weak(
                current,
                replacement,
                Ordering::AcqRel,
                Ordering::Acquire,
            ) {
                Ok(_) => {
                    self.free_counts[node.index()].fetch_add(1, Ordering::AcqRel);
                    return;
                }
                Err(observed) => current = observed,
            }
        }
    }

    /// Number of free chunks currently parked on `node`.
    pub fn free_chunks_on(&self, node: NodeId) -> usize {
        self.free_counts[node.index()].load(Ordering::Acquire)
    }

    /// Chunk acquisitions satisfied from a node-local free list.
    pub fn reused_local(&self) -> u64 {
        self.chunks_reused_local.load(Ordering::Relaxed)
    }

    /// Chunk acquisitions that had to cross nodes (affinity disabled).
    pub fn reused_remote(&self) -> u64 {
        self.chunks_reused_remote.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::header::{Header, ObjectKind};

    fn setup() -> (GlobalHeap, AddressSpace) {
        let heap = GlobalHeap::new(256, 4);
        let space = AddressSpace::new(256);
        (heap, space)
    }

    #[test]
    fn acquire_creates_then_reuses_with_affinity() {
        let (mut heap, mut space) = setup();
        let a = heap.acquire_chunk(NodeId::new(2), &mut space);
        heap.chunk_mut(a).set_state(ChunkState::Filled);
        assert_eq!(heap.stats().chunks_created, 1);
        assert_eq!(heap.chunk(a).node(), NodeId::new(2));

        heap.release_chunk(a);
        assert_eq!(heap.free_chunks_on(NodeId::new(2)), 1);

        // A vproc on node 2 gets the same chunk back.
        let b = heap.acquire_chunk(NodeId::new(2), &mut space);
        assert_eq!(a, b);
        assert_eq!(heap.stats().chunks_reused_local, 1);

        // A vproc on node 0 does NOT reuse node 2's chunk: affinity.
        heap.chunk_mut(b).set_state(ChunkState::Filled);
        heap.release_chunk(b);
        let c = heap.acquire_chunk(NodeId::new(0), &mut space);
        assert_ne!(c, b);
        assert_eq!(heap.chunk(c).node(), NodeId::new(0));
        assert_eq!(heap.stats().chunks_created, 2);
    }

    #[test]
    fn affinity_disabled_steals_any_free_chunk() {
        let (mut heap, mut space) = setup();
        heap.set_node_affinity(false);
        let a = heap.acquire_chunk(NodeId::new(3), &mut space);
        heap.chunk_mut(a).set_state(ChunkState::Filled);
        heap.release_chunk(a);
        let b = heap.acquire_chunk(NodeId::new(1), &mut space);
        assert_eq!(a, b);
        assert_eq!(heap.chunk(b).node(), NodeId::new(1));
        assert_eq!(heap.stats().chunks_reused_remote, 1);
    }

    #[test]
    fn usage_accounting() {
        let (mut heap, mut space) = setup();
        let a = heap.acquire_chunk(NodeId::new(0), &mut space);
        heap.chunk_mut(a)
            .set_state(ChunkState::Current { vproc: 0 });
        let b = heap.acquire_chunk(NodeId::new(1), &mut space);
        heap.chunk_mut(b).set_state(ChunkState::Filled);
        assert_eq!(heap.chunks_in_use(), 2);
        assert_eq!(heap.bytes_in_use(), 2 * 256 * 8);
        heap.chunk_mut(a)
            .alloc(Header::new(ObjectKind::Raw, 3).encode(), &[1, 2, 3])
            .unwrap();
        assert_eq!(heap.live_bytes_upper_bound(), 4 * 8);
        heap.release_chunk(b);
        assert_eq!(heap.chunks_in_use(), 1);
    }

    #[test]
    #[should_panic(expected = "already free")]
    fn double_release_panics() {
        let (mut heap, mut space) = setup();
        let a = heap.acquire_chunk(NodeId::new(0), &mut space);
        heap.chunk_mut(a).set_state(ChunkState::Filled);
        heap.release_chunk(a);
        heap.release_chunk(a);
    }

    #[test]
    fn chunks_in_state_filters() {
        let (mut heap, mut space) = setup();
        let a = heap.acquire_chunk(NodeId::new(0), &mut space);
        let b = heap.acquire_chunk(NodeId::new(0), &mut space);
        heap.chunk_mut(a).set_state(ChunkState::FromSpace);
        heap.chunk_mut(b).set_state(ChunkState::ToSpace);
        assert_eq!(heap.chunks_in_state(ChunkState::FromSpace), vec![a]);
        assert_eq!(heap.chunks_in_state(ChunkState::ToSpace), vec![b]);
        assert_eq!(heap.num_chunks(), 2);
        assert_eq!(heap.iter().count(), 2);
    }

    #[test]
    fn chunk_addresses_come_from_address_space() {
        let (mut heap, mut space) = setup();
        let a = heap.acquire_chunk(NodeId::new(0), &mut space);
        let base = heap.chunk_base(a);
        assert_eq!(space.owner_of(base), RegionOwner::Global { chunk: a });
    }

    #[test]
    fn shared_pool_prefers_node_affinity() {
        let pool = SharedChunkPool::new(2);
        assert_eq!(pool.pop(NodeId::new(0)), None);
        pool.push(NodeId::new(1), ChunkId(9));
        // Affinity on: node 0 does not take node 1's chunk.
        assert_eq!(pool.pop(NodeId::new(0)), None);
        assert_eq!(pool.free_chunks_on(NodeId::new(1)), 1);
        assert_eq!(pool.pop(NodeId::new(1)), Some((ChunkId(9), false)));
        assert_eq!(pool.reused_local(), 1);
    }

    #[test]
    fn shared_pool_without_affinity_steals_any_chunk() {
        let pool = SharedChunkPool::new(2);
        pool.set_node_affinity(false);
        pool.push(NodeId::new(1), ChunkId(4));
        assert_eq!(pool.pop(NodeId::new(0)), Some((ChunkId(4), true)));
        assert_eq!(pool.reused_remote(), 1);
    }

    #[test]
    fn shared_pool_treiber_stack_is_lifo() {
        let pool = SharedChunkPool::new(1);
        let node = NodeId::new(0);
        pool.push(node, ChunkId(1));
        pool.push(node, ChunkId(2));
        pool.push(node, ChunkId(3));
        assert_eq!(pool.free_chunks_on(node), 3);
        assert_eq!(pool.pop(node), Some((ChunkId(3), false)));
        assert_eq!(pool.pop(node), Some((ChunkId(2), false)));
        pool.push(node, ChunkId(7));
        assert_eq!(pool.pop(node), Some((ChunkId(7), false)));
        assert_eq!(pool.pop(node), Some((ChunkId(1), false)));
        assert_eq!(pool.pop(node), None);
        assert_eq!(pool.free_chunks_on(node), 0);
    }

    #[test]
    fn shared_pool_concurrent_push_pop_neither_loses_nor_duplicates_chunks() {
        use std::sync::Arc;

        const CHUNKS: u32 = 64;
        let pool = Arc::new(SharedChunkPool::new(1));
        let node = NodeId::new(0);
        for id in 0..CHUNKS {
            pool.push(node, ChunkId(id));
        }

        // Four threads hammer the same node's stack with pop/push cycles —
        // the pop-then-repush of the same id is exactly the ABA pattern the
        // tagged head must survive.
        let held: Vec<Vec<ChunkId>> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..4)
                .map(|_| {
                    let pool = Arc::clone(&pool);
                    scope.spawn(move || {
                        let mut held = Vec::new();
                        for round in 0..2000usize {
                            if let Some((id, _)) = pool.pop(node) {
                                if round % 3 == 0 {
                                    pool.push(node, id);
                                } else {
                                    held.push(id);
                                }
                            }
                            if held.len() > 8 {
                                pool.push(node, held.pop().unwrap());
                            }
                        }
                        held
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("pool worker panicked"))
                .collect()
        });

        let mut seen: Vec<u32> = held.into_iter().flatten().map(|id| id.0).collect();
        while let Some((id, _)) = pool.pop(node) {
            seen.push(id.0);
        }
        seen.sort_unstable();
        assert_eq!(
            seen,
            (0..CHUNKS).collect::<Vec<_>>(),
            "every chunk must come back exactly once"
        );
    }
}
