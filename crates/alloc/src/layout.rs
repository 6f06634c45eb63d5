//! Pool layout and allocation size classes.
//!
//! The pool is laid out as:
//!
//! ```text
//! [0,   64)   pool header: magic, capacity
//! [64,  576)  64 persistent root slots (8 bytes each)
//! [576, 1024) reserved (bytes 576..976 held the redo log of the
//!             unrelated-commit protocol removed in 0.3)
//! [1024, ..)  heap blocks: 16-byte header + payload, 16-byte aligned
//! ```
//!
//! Size classes mirror nvm_malloc's segregated bins: small classes grow
//! roughly geometrically, large requests round up to 4 KiB multiples.

/// Pool magic number ("MODPOOL1").
pub const POOL_MAGIC: u64 = 0x4D4F_4450_4F4F_4C31;

/// Number of persistent root slots.
pub const N_ROOTS: usize = 64;

/// Byte offset of root slot `i`.
#[inline]
pub fn root_slot_offset(i: usize) -> u64 {
    assert!(i < N_ROOTS, "root slot {i} out of range (max {N_ROOTS})");
    64 + (i as u64) * 8
}

/// First byte of the heap region.
pub const HEAP_BASE: u64 = 1024;

/// Bytes of block header preceding each payload.
pub const HEADER_BYTES: u64 = 16;

/// Magic mixed into block headers for integrity checking.
pub const BLOCK_MAGIC: u64 = 0x4D4F_445F_424C_4B00;

/// Segregated size classes (payload bytes). Requests above the last class
/// round up to 4 KiB multiples.
pub const SIZE_CLASSES: [u64; 17] = [
    16, 32, 48, 64, 96, 128, 192, 256, 384, 512, 768, 1024, 1536, 2048, 3072, 4096, 8192,
];

/// Smallest granule for recovered free-space regions (header + minimum
/// payload).
pub const MIN_BLOCK: u64 = HEADER_BYTES + SIZE_CLASSES[0];

/// The payload size actually allocated for a request of `len` bytes.
///
/// # Panics
///
/// Panics if `len == 0` (zero-sized persistent allocations are a logic
/// error — they would produce aliased block addresses).
pub fn class_size(len: u64) -> u64 {
    assert!(len > 0, "zero-sized persistent allocation");
    for &c in &SIZE_CLASSES {
        if len <= c {
            return c;
        }
    }
    len.div_ceil(4096) * 4096
}

/// Index into the free-list table for an exact class size, if it is one of
/// the segregated classes.
pub fn class_index(class: u64) -> Option<usize> {
    SIZE_CLASSES.iter().position(|&c| c == class)
}

/// The payload size allocated for a *volatile node-cache* request of
/// `len` bytes: header + payload rounded up to whole 64-byte cachelines
/// (classes 48, 112, 176, …). Heap blocks are only 16-byte aligned, so a
/// cacheline can straddle two blocks; a volatile block must own its
/// lines exclusively or marking them volatile would swallow a
/// neighboring persistent block's stores.
///
/// # Panics
///
/// Panics if `len == 0`.
pub fn volatile_class_size(len: u64) -> u64 {
    assert!(len > 0, "zero-sized volatile allocation");
    (HEADER_BYTES + len).div_ceil(64) * 64 - HEADER_BYTES
}

/// Whether a block at header address `hdr` with payload class `class`
/// has the exclusive-cacheline footprint of a volatile node-cache block
/// (see [`volatile_class_size`]). Shape is geometry, not state: freed
/// volatile blocks keep their shape and are recycled for the next
/// volatile allocation.
#[inline]
pub fn is_volatile_shape(hdr: u64, class: u64) -> bool {
    hdr % 64 == 0 && (HEADER_BYTES + class) % 64 == 0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn classes_round_up() {
        assert_eq!(class_size(1), 16);
        assert_eq!(class_size(16), 16);
        assert_eq!(class_size(17), 32);
        assert_eq!(class_size(100), 128);
        assert_eq!(class_size(4096), 4096);
        assert_eq!(class_size(8192), 8192);
        assert_eq!(class_size(8193), 12288);
    }

    #[test]
    #[should_panic(expected = "zero-sized")]
    fn zero_alloc_panics() {
        class_size(0);
    }

    #[test]
    fn class_index_roundtrip() {
        for (i, &c) in SIZE_CLASSES.iter().enumerate() {
            assert_eq!(class_index(c), Some(i));
        }
        assert_eq!(class_index(20), None);
    }

    #[test]
    fn root_slots_fit_below_heap() {
        assert!(root_slot_offset(N_ROOTS - 1) + 8 <= HEAP_BASE);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn root_slot_bounds_checked() {
        root_slot_offset(N_ROOTS);
    }

    #[test]
    fn volatile_classes_cover_whole_lines() {
        for len in [1u64, 16, 47, 48, 49, 100, 1000, 4096] {
            let c = volatile_class_size(len);
            assert!(c >= len);
            assert_eq!((HEADER_BYTES + c) % 64, 0, "len {len} -> class {c}");
            assert!(is_volatile_shape(64, c));
            assert!(
                !is_volatile_shape(16, c),
                "unaligned start is not the shape"
            );
        }
        assert_eq!(volatile_class_size(1), 48);
        assert_eq!(volatile_class_size(48), 48);
        assert_eq!(volatile_class_size(49), 112);
    }

    #[test]
    fn classes_are_16_aligned_and_increasing() {
        let mut prev = 0;
        for &c in &SIZE_CLASSES {
            assert_eq!(c % 16, 0);
            assert!(c > prev);
            prev = c;
        }
    }
}
