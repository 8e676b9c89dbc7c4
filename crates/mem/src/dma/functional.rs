//! Functional execution of DMA descriptors.
//!
//! Each function is called *by a CPE* with its own LDM; collective
//! modes (`Row`, `Brow`, `Rank`) are expressed per-participant: every CPE
//! involved issues the same region and receives exactly its share, which
//! is equivalent to the hardware's single collective transaction and
//! keeps the functional runtime free of cross-CPE rendezvous (the row
//! synchronization the hardware requires is modelled by the caller with
//! a row barrier, see `sw-sim`).

use super::descriptor::{DmaMode, MatRegion, Receipt};
use crate::ldm::{Ldm, LdmBuf};
use crate::main_memory::MainMemory;
use crate::MemError;
use sw_arch::consts::{DMA_TRANSACTION_DOUBLES, ROW_MODE_SLICE_DOUBLES};
use sw_arch::coord::{MESH_COLS, N_CPES};

/// Checks that the LDM buffer length matches what the mode will deliver.
fn check_buf(expected: usize, buf: LdmBuf, mode: DmaMode) -> Result<(), MemError> {
    if buf.len() != expected {
        return Err(MemError::BadDescriptor {
            what: format!(
                "{} transfer delivers {expected} doubles but LDM buffer holds {}",
                mode.name(),
                buf.len()
            ),
        });
    }
    Ok(())
}

/// Iterates the contiguous runs of participant `who`'s share of the
/// region's element stream when the stream is dealt out in `sd`-double
/// slices round-robin over `parts` participants: calls
/// `f(mem_start, local_start, len)` for each run, where `mem_start`
/// indexes the backing matrix, `local_start` the participant's packed
/// LDM image, and `len` never crosses a column boundary — so both
/// sides of every run are contiguous and can move with one
/// `copy_from_slice` instead of per-element loads.
fn for_owned_slices(
    region: &MatRegion,
    lda: usize,
    sd: usize,
    parts: usize,
    who: usize,
    mut f: impl FnMut(usize, usize, usize),
) {
    let total = region.len();
    let rows = region.rows;
    let mut slice_idx = who;
    let mut local = 0;
    while slice_idx * sd < total {
        let s0 = slice_idx * sd;
        let s1 = (s0 + sd).min(total);
        let mut s = s0;
        while s < s1 {
            // Stream position s is element (s % rows, s / rows) of the
            // column-major region.
            let c = s / rows;
            let r = s % rows;
            let run = (rows - r).min(s1 - s);
            f(
                (region.col0 + c) * lda + region.row0 + r,
                local + (s - s0),
                run,
            );
            s += run;
        }
        local += s1 - s0;
        slice_idx += parts;
    }
}

/// `PE_MODE` get: the whole region into this CPE's `buf`.
pub fn pe_get(
    mem: &MainMemory,
    region: MatRegion,
    ldm: &mut Ldm,
    buf: LdmBuf,
) -> Result<Receipt, MemError> {
    region.validate(mem)?;
    check_buf(region.len(), buf, DmaMode::Pe)?;
    let b = mem.buffer(region.mat)?;
    let lda = b.rows;
    let data = b.data.borrow();
    let dst = ldm.slice_mut(buf);
    for c in 0..region.cols {
        let base = (region.col0 + c) * lda + region.row0;
        dst[c * region.rows..(c + 1) * region.rows]
            .copy_from_slice(&data[base..base + region.rows]);
    }
    Ok(Receipt {
        bytes_cpe: region.bytes(),
        bytes_total: region.bytes(),
        mode: DmaMode::Pe,
    })
}

/// `PE_MODE` put: this CPE's `buf` into the region.
pub fn pe_put(
    mem: &MainMemory,
    region: MatRegion,
    ldm: &Ldm,
    buf: LdmBuf,
) -> Result<Receipt, MemError> {
    region.validate(mem)?;
    check_buf(region.len(), buf, DmaMode::Pe)?;
    let b = mem.buffer(region.mat)?;
    let lda = b.rows;
    let src = ldm.slice(buf);
    let mut data = b.data.borrow_mut();
    for c in 0..region.cols {
        let base = (region.col0 + c) * lda + region.row0;
        data[base..base + region.rows]
            .copy_from_slice(&src[c * region.rows..(c + 1) * region.rows]);
    }
    Ok(Receipt {
        bytes_cpe: region.bytes(),
        bytes_total: region.bytes(),
        mode: DmaMode::Pe,
    })
}

/// `BCAST_MODE` get: the whole region into this CPE's `buf`; all 64 CPEs
/// call this with the same region and each receives a full copy.
pub fn bcast_get(
    mem: &MainMemory,
    region: MatRegion,
    ldm: &mut Ldm,
    buf: LdmBuf,
) -> Result<Receipt, MemError> {
    let r = pe_get(mem, region, ldm, buf)?;
    Ok(Receipt {
        mode: DmaMode::Bcast,
        ..r
    })
}

/// `BROW_MODE` get: like [`bcast_get`] but the copy goes to the 8 CPEs
/// of one mesh row; the caller is one of them.
pub fn brow_get(
    mem: &MainMemory,
    region: MatRegion,
    ldm: &mut Ldm,
    buf: LdmBuf,
) -> Result<Receipt, MemError> {
    let r = pe_get(mem, region, ldm, buf)?;
    Ok(Receipt {
        mode: DmaMode::Brow,
        ..r
    })
}

/// `ROW_MODE` get: the region's element stream is dealt out in 2-double
/// (16 B) slices, round-robin over the 8 CPEs of a mesh row; the caller
/// at mesh column `mesh_col` receives slices `mesh_col, mesh_col+8, …`
/// packed contiguously into `buf`.
///
/// The stream must be a whole number of 128 B transactions, i.e. its
/// length a multiple of 16 doubles, so every CPE receives the same
/// amount (the hardware requires this and the row synchronization).
pub fn row_get(
    mem: &MainMemory,
    region: MatRegion,
    mesh_col: usize,
    ldm: &mut Ldm,
    buf: LdmBuf,
) -> Result<Receipt, MemError> {
    region.validate(mem)?;
    validate_row_collective(&region, mesh_col)?;
    check_buf(region.len() / MESH_COLS, buf, DmaMode::Row)?;
    let b = mem.buffer(region.mat)?;
    let lda = b.rows;
    let data = b.data.borrow();
    let dst = ldm.slice_mut(buf);
    for_owned_slices(
        &region,
        lda,
        ROW_MODE_SLICE_DOUBLES,
        MESH_COLS,
        mesh_col,
        |m, l, n| dst[l..l + n].copy_from_slice(&data[m..m + n]),
    );
    Ok(Receipt {
        bytes_cpe: region.bytes() / MESH_COLS,
        bytes_total: region.bytes(),
        mode: DmaMode::Row,
    })
}

/// `ROW_MODE` put: inverse of [`row_get`] — this CPE's `buf` is
/// scattered back into its interleaved share of the region.
pub fn row_put(
    mem: &MainMemory,
    region: MatRegion,
    mesh_col: usize,
    ldm: &Ldm,
    buf: LdmBuf,
) -> Result<Receipt, MemError> {
    region.validate(mem)?;
    validate_row_collective(&region, mesh_col)?;
    check_buf(region.len() / MESH_COLS, buf, DmaMode::Row)?;
    let b = mem.buffer(region.mat)?;
    let lda = b.rows;
    let src = ldm.slice(buf);
    let mut data = b.data.borrow_mut();
    for_owned_slices(
        &region,
        lda,
        ROW_MODE_SLICE_DOUBLES,
        MESH_COLS,
        mesh_col,
        |m, l, n| data[m..m + n].copy_from_slice(&src[l..l + n]),
    );
    Ok(Receipt {
        bytes_cpe: region.bytes() / MESH_COLS,
        bytes_total: region.bytes(),
        mode: DmaMode::Row,
    })
}

/// `RANK_MODE` get: the stream is dealt out in whole 128 B transactions
/// (16 doubles) round-robin over all 64 CPEs in id order; the caller
/// with linear id `cpe_id` receives transactions `cpe_id, cpe_id+64, …`.
pub fn rank_get(
    mem: &MainMemory,
    region: MatRegion,
    cpe_id: usize,
    ldm: &mut Ldm,
    buf: LdmBuf,
) -> Result<Receipt, MemError> {
    region.validate(mem)?;
    if cpe_id >= N_CPES {
        return Err(MemError::BadDescriptor {
            what: format!("cpe id {cpe_id} out of range"),
        });
    }
    let td = DMA_TRANSACTION_DOUBLES;
    let txns = region.len() / td;
    if !region.len().is_multiple_of(td) || !txns.is_multiple_of(N_CPES) {
        return Err(MemError::DmaAlignment {
            what: format!(
                "RANK_MODE stream of {} doubles is not a multiple of 64 transactions",
                region.len()
            ),
        });
    }
    check_buf(region.len() / N_CPES, buf, DmaMode::Rank)?;
    let b = mem.buffer(region.mat)?;
    let lda = b.rows;
    let data = b.data.borrow();
    let dst = ldm.slice_mut(buf);
    for_owned_slices(&region, lda, td, N_CPES, cpe_id, |m, l, n| {
        dst[l..l + n].copy_from_slice(&data[m..m + n])
    });
    Ok(Receipt {
        bytes_cpe: region.bytes() / N_CPES,
        bytes_total: region.bytes(),
        mode: DmaMode::Rank,
    })
}

fn validate_row_collective(region: &MatRegion, mesh_col: usize) -> Result<(), MemError> {
    if mesh_col >= MESH_COLS {
        return Err(MemError::BadDescriptor {
            what: format!("mesh column {mesh_col} out of range"),
        });
    }
    if !region.len().is_multiple_of(DMA_TRANSACTION_DOUBLES) {
        return Err(MemError::DmaAlignment {
            what: format!(
                "ROW_MODE stream of {} doubles is not a whole number of 128 B transactions",
                region.len()
            ),
        });
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{HostMatrix, MainMemory};

    /// A 128×8 matrix whose element (r, c) is `1000c + r`.
    fn setup() -> (MainMemory, crate::MatId) {
        let mut mem = MainMemory::new();
        let m = HostMatrix::from_fn(128, 8, |r, c| (1000 * c + r) as f64);
        let id = mem.install(m).unwrap();
        (mem, id)
    }

    #[test]
    fn pe_get_copies_region_column_major() {
        let (mem, id) = setup();
        let mut ldm = Ldm::new();
        let buf = ldm.alloc(32 * 2).unwrap();
        let r = pe_get(&mem, MatRegion::new(id, 16, 2, 32, 2), &mut ldm, buf).unwrap();
        assert_eq!(r.bytes_cpe, 32 * 2 * 8);
        let s = ldm.slice(buf);
        assert_eq!(s[0], 2016.0); // (16, 2)
        assert_eq!(s[31], 2047.0); // (47, 2)
        assert_eq!(s[32], 3016.0); // (16, 3)
    }

    #[test]
    fn pe_put_roundtrip() {
        let (mem, id) = setup();
        let mut ldm = Ldm::new();
        let buf = ldm.alloc(16).unwrap();
        for (i, x) in ldm.slice_mut(buf).iter_mut().enumerate() {
            *x = -(i as f64);
        }
        pe_put(&mem, MatRegion::new(id, 32, 5, 16, 1), &ldm, buf).unwrap();
        let back = mem.extract(id).unwrap();
        assert_eq!(back.get(32, 5), 0.0);
        assert_eq!(back.get(40, 5), -8.0);
        // Neighbours untouched.
        assert_eq!(back.get(31, 5), 5031.0);
        assert_eq!(back.get(48, 5), 5048.0);
    }

    #[test]
    fn row_get_deals_two_double_slices() {
        let (mem, id) = setup();
        // One full column of 128 doubles over the 8 CPEs of a row:
        // CPE c gets rows {2c, 2c+1, 2c+16, 2c+17, ...}.
        for mesh_col in 0..8 {
            let mut ldm = Ldm::new();
            let buf = ldm.alloc(16).unwrap();
            let r = row_get(
                &mem,
                MatRegion::new(id, 0, 0, 128, 1),
                mesh_col,
                &mut ldm,
                buf,
            )
            .unwrap();
            assert_eq!(r.bytes_cpe, 16 * 8);
            assert_eq!(r.bytes_total, 128 * 8);
            let s = ldm.slice(buf);
            for t in 0..8 {
                assert_eq!(s[2 * t] as usize, 16 * t + 2 * mesh_col);
                assert_eq!(s[2 * t + 1] as usize, 16 * t + 2 * mesh_col + 1);
            }
        }
    }

    #[test]
    fn row_get_covers_whole_region_disjointly() {
        let (mem, id) = setup();
        let region = MatRegion::new(id, 0, 0, 128, 4);
        let mut seen = vec![0u32; 128 * 4];
        for mesh_col in 0..8 {
            let mut ldm = Ldm::new();
            let buf = ldm.alloc(region.len() / 8).unwrap();
            row_get(&mem, region, mesh_col, &mut ldm, buf).unwrap();
            for &v in ldm.slice(buf) {
                let c = v as usize / 1000;
                let r = v as usize % 1000;
                seen[c * 128 + r] += 1;
            }
        }
        assert!(
            seen.iter().all(|&n| n == 1),
            "every element delivered exactly once"
        );
    }

    #[test]
    fn row_put_is_inverse_of_row_get() {
        let (mem, id) = setup();
        let mut mem2 = MainMemory::new();
        let id2 = mem2.install(HostMatrix::zeros(128, 8)).unwrap();
        let region = MatRegion::new(id, 0, 2, 128, 3);
        let region2 = MatRegion::new(id2, 0, 2, 128, 3);
        for mesh_col in 0..8 {
            let mut ldm = Ldm::new();
            let buf = ldm.alloc(region.len() / 8).unwrap();
            row_get(&mem, region, mesh_col, &mut ldm, buf).unwrap();
            row_put(&mem2, region2, mesh_col, &ldm, buf).unwrap();
        }
        let a = mem.extract(id).unwrap();
        let b = mem2.extract(id2).unwrap();
        for c in 2..5 {
            for r in 0..128 {
                assert_eq!(a.get(r, c), b.get(r, c));
            }
        }
    }

    #[test]
    fn rank_get_deals_transactions() {
        let mut mem = MainMemory::new();
        // 1024 doubles = 64 transactions: one per CPE.
        let m = HostMatrix::from_fn(1024, 1, |r, _| r as f64);
        let id = mem.install(m).unwrap();
        let region = MatRegion::new(id, 0, 0, 1024, 1);
        for cpe in [0usize, 1, 63] {
            let mut ldm = Ldm::new();
            let buf = ldm.alloc(16).unwrap();
            rank_get(&mem, region, cpe, &mut ldm, buf).unwrap();
            let s = ldm.slice(buf);
            assert_eq!(s[0] as usize, cpe * 16);
            assert_eq!(s[15] as usize, cpe * 16 + 15);
        }
    }

    #[test]
    fn bcast_get_full_copy() {
        let (mem, id) = setup();
        let mut ldm = Ldm::new();
        let buf = ldm.alloc(128).unwrap();
        let r = bcast_get(&mem, MatRegion::new(id, 0, 1, 128, 1), &mut ldm, buf).unwrap();
        assert_eq!(r.mode, DmaMode::Bcast);
        assert_eq!(ldm.slice(buf)[127], 1127.0);
    }

    #[test]
    fn buffer_size_mismatch_rejected() {
        let (mem, id) = setup();
        let mut ldm = Ldm::new();
        let buf = ldm.alloc(10).unwrap();
        let err = pe_get(&mem, MatRegion::new(id, 0, 0, 16, 1), &mut ldm, buf).unwrap_err();
        assert!(matches!(err, MemError::BadDescriptor { .. }));
    }

    #[test]
    fn rank_requires_64_transactions() {
        let (mem, id) = setup();
        let mut ldm = Ldm::new();
        let buf = ldm.alloc(2).unwrap();
        let err = rank_get(&mem, MatRegion::new(id, 0, 0, 128, 1), 0, &mut ldm, buf).unwrap_err();
        assert!(matches!(err, MemError::DmaAlignment { .. }));
    }
}
