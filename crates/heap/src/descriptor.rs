//! The object-descriptor table for mixed-type objects (paper §3.2).
//!
//! In Manticore, the compiler generates, for every mixed-type object layout,
//! an entry in an object-descriptor table containing specialised scanning and
//! forwarding functions, so the collector never has to interpret a layout at
//! runtime. This reproduction keeps the table but builds it at runtime:
//! each [`Descriptor`] records which payload words hold pointers, and the
//! [`DescriptorTable`] hands out the 15-bit IDs that go into object headers.

use crate::header::{ObjectKind, FIRST_MIXED_ID, MAX_ID};

/// Layout description of one mixed-type object shape.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Descriptor {
    /// Human-readable name, for diagnostics (e.g. `"bh-tree-node"`).
    pub name: String,
    /// Bitmask over payload words: bit `i` set means payload word `i` holds a
    /// pointer. Mixed objects are therefore limited to 64 words, which is
    /// ample for the workloads (larger structures use vectors).
    pub pointer_mask: u64,
    /// Number of payload words this shape occupies. Objects allocated with
    /// this descriptor must have exactly this many payload words.
    pub size_words: u32,
}

impl Descriptor {
    /// Creates a descriptor.
    ///
    /// # Panics
    ///
    /// Panics if `size_words` exceeds 64 or if the pointer mask mentions
    /// words beyond `size_words`.
    pub fn new(name: impl Into<String>, size_words: u32, pointer_mask: u64) -> Self {
        assert!(size_words <= 64, "mixed objects are limited to 64 words");
        if size_words < 64 {
            assert!(
                pointer_mask >> size_words == 0,
                "pointer mask mentions words beyond the object size"
            );
        }
        Descriptor {
            name: name.into(),
            pointer_mask,
            size_words,
        }
    }

    /// Indices of the payload words that hold pointers.
    pub fn pointer_offsets(&self) -> impl Iterator<Item = usize> + '_ {
        (0..self.size_words as usize).filter(|i| self.pointer_mask & (1 << i) != 0)
    }

    /// True if payload word `index` holds a pointer.
    pub fn is_pointer(&self, index: usize) -> bool {
        index < self.size_words as usize && self.pointer_mask & (1 << index) != 0
    }

    /// Number of pointer fields.
    pub fn pointer_count(&self) -> usize {
        self.pointer_mask.count_ones() as usize
    }
}

/// Identifier of a registered mixed-object descriptor; this is the value
/// stored in the header ID field.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct DescriptorId(u16);

impl DescriptorId {
    /// The raw 15-bit ID.
    pub fn id(self) -> u16 {
        self.0
    }

    /// The object kind corresponding to this descriptor.
    pub fn kind(self) -> ObjectKind {
        ObjectKind::Mixed(self.0)
    }
}

/// The table of registered mixed-object descriptors.
///
/// # Examples
///
/// ```
/// # use mgc_heap::{DescriptorTable, Descriptor};
/// let mut table = DescriptorTable::new();
/// // A cons cell: word 0 is the head (a pointer), word 1 the tail (a pointer).
/// let cons = table.register(Descriptor::new("cons", 2, 0b11));
/// assert_eq!(table.get(cons.id()).unwrap().pointer_count(), 2);
/// ```
#[derive(Debug, Clone, Default)]
pub struct DescriptorTable {
    descriptors: Vec<Descriptor>,
}

impl DescriptorTable {
    /// Creates an empty table.
    pub fn new() -> Self {
        DescriptorTable {
            descriptors: Vec::new(),
        }
    }

    /// Registers a descriptor and returns its ID.
    ///
    /// # Panics
    ///
    /// Panics if the 15-bit ID space is exhausted.
    pub fn register(&mut self, descriptor: Descriptor) -> DescriptorId {
        let id = FIRST_MIXED_ID as usize + self.descriptors.len();
        assert!(id <= MAX_ID as usize, "descriptor table is full");
        self.descriptors.push(descriptor);
        DescriptorId(id as u16)
    }

    /// Looks up the descriptor for header ID `id`.
    ///
    /// Returns `None` for the reserved raw/vector IDs and unknown IDs.
    pub fn get(&self, id: u16) -> Option<&Descriptor> {
        if id < FIRST_MIXED_ID {
            return None;
        }
        self.descriptors.get((id - FIRST_MIXED_ID) as usize)
    }

    /// Number of registered descriptors.
    pub fn len(&self) -> usize {
        self.descriptors.len()
    }

    /// True if no descriptors have been registered.
    pub fn is_empty(&self) -> bool {
        self.descriptors.is_empty()
    }

    /// Iterates over `(header_id, descriptor)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (u16, &Descriptor)> + '_ {
        self.descriptors
            .iter()
            .enumerate()
            .map(|(i, d)| ((i + FIRST_MIXED_ID as usize) as u16, d))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn register_and_lookup() {
        let mut t = DescriptorTable::new();
        let a = t.register(Descriptor::new("pair", 2, 0b01));
        let b = t.register(Descriptor::new("triple", 3, 0b110));
        assert_eq!(a.id(), FIRST_MIXED_ID);
        assert_eq!(b.id(), FIRST_MIXED_ID + 1);
        assert_eq!(t.get(a.id()).unwrap().name, "pair");
        assert_eq!(t.get(b.id()).unwrap().name, "triple");
        assert_eq!(t.len(), 2);
        assert!(!t.is_empty());
    }

    #[test]
    fn reserved_ids_have_no_descriptor() {
        let mut t = DescriptorTable::new();
        t.register(Descriptor::new("x", 1, 0));
        assert!(t.get(crate::header::RAW_ID).is_none());
        assert!(t.get(crate::header::VECTOR_ID).is_none());
        assert!(t.get(999).is_none());
    }

    #[test]
    fn pointer_offsets_match_mask() {
        let d = Descriptor::new("node", 4, 0b1010);
        assert_eq!(d.pointer_offsets().collect::<Vec<_>>(), vec![1, 3]);
        assert!(d.is_pointer(1));
        assert!(!d.is_pointer(0));
        assert!(!d.is_pointer(10));
        assert_eq!(d.pointer_count(), 2);
    }

    #[test]
    fn descriptor_kind_round_trip() {
        let mut t = DescriptorTable::new();
        let id = t.register(Descriptor::new("leaf", 1, 0));
        assert_eq!(id.kind(), ObjectKind::Mixed(id.id()));
    }

    #[test]
    #[should_panic(expected = "64 words")]
    fn oversized_descriptor_rejected() {
        let _ = Descriptor::new("huge", 65, 0);
    }

    #[test]
    #[should_panic(expected = "beyond the object size")]
    fn mask_beyond_size_rejected() {
        let _ = Descriptor::new("bad", 2, 0b100);
    }

    #[test]
    fn iter_yields_header_ids() {
        let mut t = DescriptorTable::new();
        t.register(Descriptor::new("a", 1, 0));
        t.register(Descriptor::new("b", 2, 0b01));
        let ids: Vec<u16> = t.iter().map(|(id, _)| id).collect();
        assert_eq!(ids, vec![FIRST_MIXED_ID, FIRST_MIXED_ID + 1]);
    }

    #[test]
    fn full_word_descriptor_allowed() {
        let d = Descriptor::new("wide", 64, u64::MAX);
        assert_eq!(d.pointer_count(), 64);
    }
}
