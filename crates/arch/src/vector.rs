//! The 256-bit vector word.
//!
//! Both the CPE floating-point pipeline (4-lane double-precision SIMD
//! with FMA) and the register-communication mesh move data in 256-bit
//! units. [`V256`] is that unit: four `f64` lanes.

/// A 256-bit vector of four `f64` lanes.
///
/// `fma` mirrors the SW26010 `vmad` instruction: one rounding per lane
/// (`f64::mul_add`), which is what makes the simulator's DGEMM results
/// reproducible against a host reference that uses the same accumulation
/// order.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct V256(pub [f64; 4]);

impl V256 {
    /// All-zero vector.
    pub const ZERO: V256 = V256([0.0; 4]);

    /// Builds a vector from four lanes.
    #[inline]
    pub fn new(lanes: [f64; 4]) -> Self {
        V256(lanes)
    }

    /// Replicates one scalar into all four lanes (what `lddec` does when
    /// loading a B element for column broadcast).
    #[inline]
    pub fn splat(x: f64) -> Self {
        V256([x; 4])
    }

    /// Loads four consecutive elements from a slice (what `vldr`/`vldd`
    /// do from 256-bit-aligned LDM).
    #[inline]
    pub fn load(src: &[f64]) -> Self {
        V256([src[0], src[1], src[2], src[3]])
    }

    /// Stores the four lanes into a slice.
    #[inline]
    pub fn store(self, dst: &mut [f64]) {
        dst[..4].copy_from_slice(&self.0);
    }

    /// Lane-wise fused multiply-add: `self * b + c`, one rounding per
    /// lane, exactly like the hardware `vmad`.
    #[inline]
    pub fn fma(self, b: V256, c: V256) -> V256 {
        V256([
            self.0[0].mul_add(b.0[0], c.0[0]),
            self.0[1].mul_add(b.0[1], c.0[1]),
            self.0[2].mul_add(b.0[2], c.0[2]),
            self.0[3].mul_add(b.0[3], c.0[3]),
        ])
    }

    /// Lane-wise multiplication.
    ///
    /// Named like the hardware `vmul`; not the `std::ops` trait (SIMD
    /// lane semantics, no operator sugar wanted).
    #[allow(clippy::should_implement_trait)]
    #[inline]
    pub fn mul(self, b: V256) -> V256 {
        V256([
            self.0[0] * b.0[0],
            self.0[1] * b.0[1],
            self.0[2] * b.0[2],
            self.0[3] * b.0[3],
        ])
    }

    /// Lane-wise addition (hardware `vadd`).
    #[allow(clippy::should_implement_trait)]
    #[inline]
    pub fn add(self, b: V256) -> V256 {
        V256([
            self.0[0] + b.0[0],
            self.0[1] + b.0[1],
            self.0[2] + b.0[2],
            self.0[3] + b.0[3],
        ])
    }

    /// Horizontal sum of the four lanes.
    #[inline]
    pub fn hsum(self) -> f64 {
        (self.0[0] + self.0[1]) + (self.0[2] + self.0[3])
    }
}

impl From<[f64; 4]> for V256 {
    fn from(lanes: [f64; 4]) -> Self {
        V256(lanes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fma_is_fused() {
        // Choose operands where fused and unfused rounding differ.
        let a = 1.0 + f64::EPSILON;
        let v = V256::splat(a).fma(V256::splat(a), V256::splat(-1.0 - 2.0 * f64::EPSILON));
        let fused = a.mul_add(a, -1.0 - 2.0 * f64::EPSILON);
        let unfused = a * a + (-1.0 - 2.0 * f64::EPSILON);
        assert_eq!(v.0[0], fused);
        assert_ne!(fused, unfused, "operands chosen to expose fusion");
    }

    #[test]
    fn load_store_roundtrip() {
        let src = [1.0, 2.0, 3.0, 4.0, 5.0];
        let v = V256::load(&src);
        let mut dst = [0.0; 4];
        v.store(&mut dst);
        assert_eq!(dst, [1.0, 2.0, 3.0, 4.0]);
    }

    #[test]
    fn splat_and_hsum() {
        assert_eq!(V256::splat(2.5).hsum(), 10.0);
    }
}
