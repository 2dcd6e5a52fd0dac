//! Global-heap chunks (paper §3.1, §3.4).
//!
//! The global heap is organised as a collection of fixed-size chunks. Each
//! vproc owns a *current* chunk that it bump-allocates promotions and major
//! collection survivors into. The memory system tracks the NUMA node every
//! chunk was placed on and preserves that node affinity when chunks are
//! reused, which is the heart of the paper's NUMA story.

use crate::addr::{Addr, Word, WORD_BYTES};
use crate::error::HeapError;
use mgc_numa::NodeId;
use std::fmt;

/// Identifier of a global-heap chunk.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ChunkId(pub u32);

impl ChunkId {
    /// The raw index of this chunk.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Debug for ChunkId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "chunk{}", self.0)
    }
}

impl fmt::Display for ChunkId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "chunk{}", self.0)
    }
}

/// Lifecycle state of a chunk.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChunkState {
    /// On a per-node free list, available for reuse.
    Free,
    /// Owned by a vproc as its current allocation chunk.
    Current {
        /// The owning vproc index.
        vproc: usize,
    },
    /// Filled (no longer anyone's current chunk), holding live global data.
    Filled,
    /// Part of from-space during a global collection.
    FromSpace,
    /// Part of to-space during a global collection (newly filled).
    ToSpace,
}

/// One fixed-size chunk of the global heap.
#[derive(Debug, Clone)]
pub struct Chunk {
    id: ChunkId,
    base: Addr,
    node: NodeId,
    state: ChunkState,
    data: Vec<Word>,
    /// Next free word offset (bump pointer).
    top: usize,
    /// Cheney scan pointer, in word offset, used during global collection.
    scan: usize,
}

impl Chunk {
    /// Creates a fresh, empty chunk of `size_words` words based at `base` and
    /// physically located on `node`.
    pub fn new(id: ChunkId, base: Addr, node: NodeId, size_words: usize) -> Self {
        Chunk {
            id,
            base,
            node,
            state: ChunkState::Free,
            data: vec![0; size_words],
            top: 0,
            scan: 0,
        }
    }

    /// This chunk's identifier.
    pub fn id(&self) -> ChunkId {
        self.id
    }

    /// The base address of the chunk.
    pub fn base(&self) -> Addr {
        self.base
    }

    /// The NUMA node whose memory backs this chunk.
    pub fn node(&self) -> NodeId {
        self.node
    }

    /// Re-places the chunk on a different node (used when a free chunk is
    /// recycled under a placement policy that ignores affinity — the ablation
    /// case).
    pub fn set_node(&mut self, node: NodeId) {
        self.node = node;
    }

    /// The chunk's lifecycle state.
    pub fn state(&self) -> ChunkState {
        self.state
    }

    /// Sets the lifecycle state.
    pub fn set_state(&mut self, state: ChunkState) {
        self.state = state;
    }

    /// Capacity in words.
    pub fn size_words(&self) -> usize {
        self.data.len()
    }

    /// Capacity in bytes.
    pub fn size_bytes(&self) -> usize {
        self.data.len() * WORD_BYTES
    }

    /// Words currently allocated.
    pub fn used_words(&self) -> usize {
        self.top
    }

    /// Bytes currently allocated.
    pub fn used_bytes(&self) -> usize {
        self.top * WORD_BYTES
    }

    /// Words still free.
    pub fn free_words(&self) -> usize {
        self.data.len() - self.top
    }

    /// True if `addr` falls inside this chunk's address range.
    pub fn contains(&self, addr: Addr) -> bool {
        addr >= self.base && addr < self.base.add_words(self.data.len())
    }

    /// The word offset of `addr` within this chunk.
    ///
    /// # Panics
    ///
    /// Panics if `addr` is not inside this chunk.
    pub fn offset_of(&self, addr: Addr) -> usize {
        assert!(self.contains(addr), "{addr:?} is not inside {:?}", self.id);
        addr.words_from(self.base)
    }

    /// Reads the word at word offset `offset`.
    ///
    /// # Panics
    ///
    /// Panics if `offset` is out of bounds.
    pub fn read(&self, offset: usize) -> Word {
        self.data[offset]
    }

    /// Writes the word at word offset `offset`.
    ///
    /// # Panics
    ///
    /// Panics if `offset` is out of bounds.
    pub fn write(&mut self, offset: usize, value: Word) {
        self.data[offset] = value;
    }

    /// Bump-allocates an object with the given encoded header and payload.
    /// Returns the address of the first payload word.
    ///
    /// # Errors
    ///
    /// Returns [`HeapError::ChunkFull`] if there is not enough room.
    pub fn alloc(&mut self, header: Word, payload: &[Word]) -> Result<Addr, HeapError> {
        assert!(
            !payload.is_empty(),
            "empty objects are not supported; allocate a one-word raw object instead"
        );
        let total = payload.len() + 1;
        if self.free_words() < total {
            return Err(HeapError::ChunkFull {
                requested_words: total,
            });
        }
        let header_offset = self.top;
        self.data[header_offset] = header;
        self.data[header_offset + 1..header_offset + 1 + payload.len()].copy_from_slice(payload);
        self.top += total;
        Ok(self.base.add_words(header_offset + 1))
    }

    /// Resets the chunk to empty (used when a chunk returns to the free
    /// pool after a global collection). The node affinity is preserved.
    pub fn reset(&mut self) {
        self.top = 0;
        self.scan = 0;
        self.state = ChunkState::Free;
        // Zeroing is not strictly required, but it makes stale-pointer bugs
        // fail fast in tests.
        self.data.fill(0);
    }

    /// The Cheney scan pointer (word offset of the next unscanned header).
    pub fn scan(&self) -> usize {
        self.scan
    }

    /// Sets the Cheney scan pointer.
    pub fn set_scan(&mut self, scan: usize) {
        self.scan = scan;
    }

    /// True if every allocated object in this chunk has been scanned.
    pub fn fully_scanned(&self) -> bool {
        self.scan >= self.top
    }

    /// Iterates over the addresses of all objects allocated in this chunk, in
    /// allocation order. Each item is the object (payload) address.
    pub fn objects(&self) -> ChunkObjects<'_> {
        ChunkObjects {
            chunk: self,
            offset: 0,
        }
    }
}

/// Iterator over the objects of a chunk; see [`Chunk::objects`].
#[derive(Debug)]
pub struct ChunkObjects<'a> {
    chunk: &'a Chunk,
    offset: usize,
}

impl Iterator for ChunkObjects<'_> {
    type Item = Addr;

    fn next(&mut self) -> Option<Addr> {
        while self.offset < self.chunk.top {
            let header_word = self.chunk.data[self.offset];
            if let Some(header) = crate::header::Header::decode(header_word) {
                let addr = self.chunk.base.add_words(self.offset + 1);
                self.offset += header.total_words();
                return Some(addr);
            }
            // Forwarded (dead) object: skip over it using the header saved in
            // the first payload word by the evacuation.
            let saved = crate::header::Header::decode(self.chunk.data[self.offset + 1])
                .expect("forwarded object is missing its saved header");
            self.offset += saved.total_words();
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::header::{Header, ObjectKind};

    fn chunk() -> Chunk {
        Chunk::new(ChunkId(0), Addr::new(1 << 20), NodeId::new(2), 128)
    }

    #[test]
    fn alloc_lays_out_header_then_payload() {
        let mut c = chunk();
        let h = Header::new(ObjectKind::Raw, 3).encode();
        let addr = c.alloc(h, &[10, 20, 30]).unwrap();
        assert_eq!(addr, Addr::new((1 << 20) + 8));
        assert_eq!(c.read(0), h);
        assert_eq!(c.read(1), 10);
        assert_eq!(c.read(3), 30);
        assert_eq!(c.used_words(), 4);
        assert_eq!(c.free_words(), 124);
    }

    #[test]
    fn alloc_rejects_overflow() {
        let mut c = chunk();
        let h = Header::new(ObjectKind::Raw, 200).encode();
        let payload = vec![0u64; 200];
        assert_eq!(
            c.alloc(h, &payload),
            Err(HeapError::ChunkFull {
                requested_words: 201
            })
        );
    }

    #[test]
    fn contains_and_offset() {
        let c = chunk();
        assert!(c.contains(Addr::new(1 << 20)));
        assert!(c.contains(Addr::new((1 << 20) + 8 * 127)));
        assert!(!c.contains(Addr::new((1 << 20) + 8 * 128)));
        assert_eq!(c.offset_of(Addr::new((1 << 20) + 16)), 2);
    }

    #[test]
    #[should_panic(expected = "not inside")]
    fn offset_of_outside_panics() {
        chunk().offset_of(Addr::new(8));
    }

    #[test]
    fn reset_clears_allocation_but_keeps_node() {
        let mut c = chunk();
        c.alloc(Header::new(ObjectKind::Raw, 1).encode(), &[7])
            .unwrap();
        c.set_state(ChunkState::Filled);
        c.reset();
        assert_eq!(c.used_words(), 0);
        assert_eq!(c.state(), ChunkState::Free);
        assert_eq!(c.node(), NodeId::new(2));
        assert_eq!(c.read(0), 0);
    }

    #[test]
    fn object_iteration_in_allocation_order() {
        let mut c = chunk();
        let a = c
            .alloc(Header::new(ObjectKind::Raw, 2).encode(), &[1, 2])
            .unwrap();
        let b = c
            .alloc(Header::new(ObjectKind::Vector, 1).encode(), &[0])
            .unwrap();
        let objs: Vec<_> = c.objects().collect();
        assert_eq!(objs, vec![a, b]);
    }

    #[test]
    fn scan_pointer_tracks_progress() {
        let mut c = chunk();
        c.alloc(Header::new(ObjectKind::Raw, 2).encode(), &[1, 2])
            .unwrap();
        assert!(!c.fully_scanned());
        c.set_scan(3);
        assert!(c.fully_scanned());
    }

    #[test]
    fn state_transitions() {
        let mut c = chunk();
        assert_eq!(c.state(), ChunkState::Free);
        c.set_state(ChunkState::Current { vproc: 4 });
        assert_eq!(c.state(), ChunkState::Current { vproc: 4 });
        c.set_state(ChunkState::FromSpace);
        assert_eq!(c.state(), ChunkState::FromSpace);
    }

    #[test]
    fn ids_display() {
        assert_eq!(ChunkId(7).to_string(), "chunk7");
        assert_eq!(format!("{:?}", ChunkId(7)), "chunk7");
        assert_eq!(ChunkId(7).index(), 7);
    }
}
