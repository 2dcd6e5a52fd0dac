//! Simulated heap addresses and machine words.
//!
//! The heap lives in a flat, word-aligned simulated address space. An
//! [`Addr`] is a byte address in that space; address `0` is the null
//! reference. Object references always point at the first payload word of an
//! object; the object's header word sits immediately below the referenced
//! address (at `addr - 8`), as in the Manticore runtime.

use std::fmt;

/// A 64-bit machine word: either a header, a pointer, or raw data.
pub type Word = u64;

/// Number of bytes in a [`Word`].
pub const WORD_BYTES: usize = 8;

/// A byte address in the simulated heap address space.
///
/// Addresses are always word-aligned. `Addr::NULL` (zero) is the null
/// reference.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Addr(u64);

impl Addr {
    /// The null reference.
    pub const NULL: Addr = Addr(0);

    /// Creates an address from a raw byte offset.
    ///
    /// # Panics
    ///
    /// Panics if `raw` is not word-aligned.
    pub fn new(raw: u64) -> Self {
        assert!(
            raw.is_multiple_of(WORD_BYTES as u64),
            "heap addresses must be word-aligned, got {raw:#x}"
        );
        Addr(raw)
    }

    /// The raw byte value of the address.
    pub const fn raw(self) -> u64 {
        self.0
    }

    /// True if this is the null reference.
    pub const fn is_null(self) -> bool {
        self.0 == 0
    }

    /// The address `count` words above this one.
    pub fn add_words(self, count: usize) -> Addr {
        Addr(self.0 + (count * WORD_BYTES) as u64)
    }

    /// The address `count` words below this one.
    ///
    /// # Panics
    ///
    /// Panics if the result would underflow.
    pub fn sub_words(self, count: usize) -> Addr {
        Addr(
            self.0
                .checked_sub((count * WORD_BYTES) as u64)
                .expect("address underflow"),
        )
    }

    /// Distance in words from `base` to this address.
    ///
    /// # Panics
    ///
    /// Panics if `self < base`.
    pub fn words_from(self, base: Addr) -> usize {
        assert!(self.0 >= base.0, "address {self:?} is below base {base:?}");
        ((self.0 - base.0) / WORD_BYTES as u64) as usize
    }
}

impl fmt::Debug for Addr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_null() {
            write!(f, "Addr(null)")
        } else {
            write!(f, "Addr({:#x})", self.0)
        }
    }
}

impl fmt::Display for Addr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:#x}", self.0)
    }
}

impl From<Addr> for Word {
    fn from(value: Addr) -> Word {
        value.0
    }
}

/// Interprets a word as a possible heap pointer.
///
/// Returns `None` for the null word; otherwise the word must be a
/// word-aligned address.
///
/// # Examples
///
/// ```
/// # use mgc_heap::{word_as_pointer, Addr};
/// assert_eq!(word_as_pointer(0), None);
/// assert_eq!(word_as_pointer(64), Some(Addr::new(64)));
/// ```
pub fn word_as_pointer(word: Word) -> Option<Addr> {
    if word == 0 {
        None
    } else {
        Some(Addr::new(word))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn null_and_alignment() {
        assert!(Addr::NULL.is_null());
        assert!(!Addr::new(8).is_null());
        assert_eq!(Addr::new(16).raw(), 16);
    }

    #[test]
    #[should_panic(expected = "word-aligned")]
    fn unaligned_address_rejected() {
        let _ = Addr::new(13);
    }

    #[test]
    fn word_arithmetic() {
        let a = Addr::new(64);
        assert_eq!(a.add_words(2), Addr::new(80));
        assert_eq!(a.sub_words(1), Addr::new(56));
        assert_eq!(a.add_words(3).words_from(a), 3);
    }

    #[test]
    #[should_panic(expected = "underflow")]
    fn sub_words_underflow_panics() {
        let _ = Addr::new(8).sub_words(2);
    }

    #[test]
    #[should_panic(expected = "below base")]
    fn words_from_below_base_panics() {
        let _ = Addr::new(8).words_from(Addr::new(64));
    }

    #[test]
    fn pointer_interpretation() {
        assert_eq!(word_as_pointer(0), None);
        assert_eq!(word_as_pointer(4096), Some(Addr::new(4096)));
    }

    #[test]
    fn debug_formats() {
        assert_eq!(format!("{:?}", Addr::NULL), "Addr(null)");
        assert_eq!(format!("{:?}", Addr::new(256)), "Addr(0x100)");
        assert_eq!(Addr::new(256).to_string(), "0x100");
    }

    #[test]
    fn ordering_follows_raw_value() {
        assert!(Addr::new(8) < Addr::new(16));
        assert_eq!(Word::from(Addr::new(24)), 24);
    }
}
