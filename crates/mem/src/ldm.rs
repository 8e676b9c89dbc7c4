//! The 64 KB local device memory (LDM) of one CPE.
//!
//! The LDM is the middle level of the paper's blocking hierarchy: every
//! thread-level block of A, B and C lives here, and the constraint
//! `pM·pN + pN·pK + pK·pM < 8192` doubles (§III-C.2) — doubled buffers
//! included when double buffering is on (§IV-B) — is exactly the
//! capacity check [`Ldm::alloc`] enforces.
//!
//! Allocation is a bump allocator with 128 B alignment (the DMA
//! transaction granularity), plus a `reset` for reuse between CG blocks.
//! There is no free-list: kernels on the real machine lay buffers out
//! statically, and a bump allocator models that while still catching
//! overflow.

use crate::MemError;
use sw_arch::consts::{DMA_TRANSACTION_DOUBLES, LDM_DOUBLES};

/// A buffer inside one CPE's LDM: an offset/length pair in doubles.
/// The default is the empty buffer at offset 0.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct LdmBuf {
    off: usize,
    len: usize,
}

impl LdmBuf {
    /// Offset in doubles from the start of the LDM.
    #[inline]
    pub fn offset(&self) -> usize {
        self.off
    }

    /// Length in doubles.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when the buffer holds no elements.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// One past the last double of the buffer (`offset + len`).
    #[inline]
    pub fn end(&self) -> usize {
        self.off + self.len
    }

    /// A sub-buffer at `off..off + len` (relative to this buffer).
    ///
    /// # Panics
    /// If the range escapes the buffer.
    #[inline]
    pub fn sub(&self, off: usize, len: usize) -> LdmBuf {
        assert!(
            off + len <= self.len,
            "sub-buffer escapes parent ({off}+{len} > {})",
            self.len
        );
        LdmBuf {
            off: self.off + off,
            len,
        }
    }
}

/// One CPE's scratch pad: 8192 doubles with a checked bump allocator.
#[derive(Debug)]
pub struct Ldm {
    data: Vec<f64>,
    watermark: usize,
    /// Doubles from offset 0 that may have been written since the LDM
    /// was zero: what [`Ldm::clear`] has to zero again.
    dirty: usize,
}

impl Default for Ldm {
    fn default() -> Self {
        Self::new()
    }
}

impl Ldm {
    /// A fresh, zeroed 64 KB LDM.
    pub fn new() -> Self {
        Ldm {
            data: vec![0.0; LDM_DOUBLES],
            watermark: 0,
            dirty: 0,
        }
    }

    /// Allocates `len` doubles, 128 B-aligned, erroring if the scratch
    /// pad would overflow.
    pub fn alloc(&mut self, len: usize) -> Result<LdmBuf, MemError> {
        let off = self.watermark.next_multiple_of(DMA_TRANSACTION_DOUBLES);
        if off + len > LDM_DOUBLES {
            return Err(MemError::LdmOverflow {
                requested: len,
                available: LDM_DOUBLES.saturating_sub(off),
            });
        }
        self.watermark = off + len;
        Ok(LdmBuf { off, len })
    }

    /// Doubles still allocatable (ignoring the final alignment pad).
    pub fn free_doubles(&self) -> usize {
        LDM_DOUBLES
            - self
                .watermark
                .next_multiple_of(DMA_TRANSACTION_DOUBLES)
                .min(LDM_DOUBLES)
    }

    /// Releases all allocations (buffers handed out earlier must no
    /// longer be used; in debug builds the data is poisoned to surface
    /// use-after-reset bugs).
    pub fn reset(&mut self) {
        self.watermark = 0;
        if cfg!(debug_assertions) {
            self.data.fill(f64::NAN);
            self.dirty = LDM_DOUBLES;
        }
    }

    /// Returns the LDM to the state [`Ldm::new`] gives it — all zeros,
    /// nothing allocated — without reallocating. Zeroes only the prefix
    /// written since the LDM was last zero.
    pub fn clear(&mut self) {
        self.watermark = 0;
        self.data[..self.dirty].fill(0.0);
        self.dirty = 0;
    }

    /// Read access to a buffer's contents.
    #[inline]
    pub fn slice(&self, buf: LdmBuf) -> &[f64] {
        &self.data[buf.off..buf.off + buf.len]
    }

    /// Write access to a buffer's contents.
    #[inline]
    pub fn slice_mut(&mut self, buf: LdmBuf) -> &mut [f64] {
        self.dirty = self.dirty.max(buf.end());
        &mut self.data[buf.off..buf.off + buf.len]
    }

    /// Raw read access by absolute LDM offset (used by the ISA executor,
    /// whose address arithmetic works in absolute doubles).
    #[inline]
    pub fn raw(&self) -> &[f64] {
        &self.data
    }

    /// Raw write access by absolute LDM offset.
    #[inline]
    pub fn raw_mut(&mut self) -> &mut [f64] {
        self.dirty = LDM_DOUBLES;
        &mut self.data
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alloc_is_aligned_and_checked() {
        let mut ldm = Ldm::new();
        let a = ldm.alloc(10).unwrap();
        assert_eq!(a.offset(), 0);
        let b = ldm.alloc(10).unwrap();
        // 10 rounds up to the next 16-double (128 B) boundary.
        assert_eq!(b.offset(), 16);
        assert_eq!(ldm.free_doubles(), LDM_DOUBLES - 32);
    }

    #[test]
    fn overflow_is_an_error() {
        let mut ldm = Ldm::new();
        ldm.alloc(LDM_DOUBLES - 16).unwrap();
        let err = ldm.alloc(32).unwrap_err();
        assert!(matches!(err, MemError::LdmOverflow { .. }));
    }

    #[test]
    fn paper_production_blocking_fits_exactly_once() {
        // §IV-B: with double buffering, pM=16, pN=32, pK=96 must fit:
        // 2·(pM·pN) + 2·(pM·pK) + pN·pK + 2·(pK·pN)? The paper's DB
        // scheme double-buffers A and C; B is resident. Check the raw
        // capacity arithmetic here: 2·16·32 + 2·16·96 + 96·32 = 7168 ≤ 8192.
        let need = 2 * 16 * 32 + 2 * 16 * 96 + 96 * 32;
        assert!(need <= LDM_DOUBLES);
        let mut ldm = Ldm::new();
        for sz in [16 * 32, 16 * 32, 16 * 96, 16 * 96, 96 * 32] {
            ldm.alloc(sz).unwrap();
        }
        // And the *pre-DB* blocking pN=48 does NOT fit doubled:
        let need_48 = 2 * 16 * 48 + 2 * 16 * 96 + 96 * 48;
        assert!(need_48 > LDM_DOUBLES);
    }

    #[test]
    fn reset_allows_reuse() {
        let mut ldm = Ldm::new();
        let a = ldm.alloc(100).unwrap();
        ldm.slice_mut(a)[0] = 3.0;
        ldm.reset();
        let b = ldm.alloc(100).unwrap();
        assert_eq!(b.offset(), 0);
    }

    #[test]
    fn clear_restores_a_fresh_ldm() {
        let fresh = Ldm::new();
        let mut ldm = Ldm::new();
        let _ = ldm.alloc(40).unwrap();
        let a = ldm.alloc(100).unwrap();
        ldm.slice_mut(a).fill(7.0);
        ldm.clear();
        assert_eq!(ldm.raw(), fresh.raw());
        assert_eq!(ldm.free_doubles(), fresh.free_doubles());
        // Raw writes may land anywhere.
        ldm.raw_mut()[LDM_DOUBLES - 1] = -1.0;
        ldm.clear();
        assert_eq!(ldm.raw(), fresh.raw());
    }

    #[test]
    fn sub_buffer() {
        let mut ldm = Ldm::new();
        let a = ldm.alloc(64).unwrap();
        let s = a.sub(16, 8);
        assert_eq!(s.offset(), 16);
        assert_eq!(s.len(), 8);
    }

    #[test]
    #[should_panic]
    fn sub_buffer_escape_panics() {
        let mut ldm = Ldm::new();
        let a = ldm.alloc(8).unwrap();
        let _ = a.sub(4, 8);
    }
}
