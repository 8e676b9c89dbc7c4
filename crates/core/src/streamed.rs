//! Functional strip-step execution at mesh-word granularity.
//!
//! [`strip_step`] is the plain-Rust twin of the ISA micro-kernel
//! (`sw_isa::kernels`): the same tile order (16×4 register tiles over
//! the thread block), the same traffic (4 A words + 4 splatted B
//! scalars per tile-iteration, re-broadcast per tile exactly as
//! Algorithm 3 does), and the same FMA accumulation order — so its
//! results are bitwise-identical to the ISA kernel and to
//! [`crate::reference::dgemm_chunked_fma`].
//!
//! Each register tile moves its operands in one mesh episode per
//! operand: the A panel (4·pK words) and then the B words (4·pK
//! splatted words, k-major), in the order the per-k stream would send
//! them. The mesh charges time and makes fault decisions per word, so
//! the simulated statistics are those of the per-k stream; only the
//! host pays for fewer episodes. Received operands are held in host
//! scratch for one tile and never staged in LDM, respecting the LDM
//! budget of §III-C.2 (which counts only the thread's own blocks).

// Register arrays are index-coupled to the instruction encoding; indexed
// loops are clearer than iterator chains here.
#![allow(clippy::needless_range_loop)]

use crate::sharing::StepRole;
use sw_arch::V256;
use sw_isa::{Net, Operand};
use sw_mem::LdmBuf;
use sw_sim::CpeCtx;

/// Rows of the thread block the collective scheme streams per CPE: one
/// 16-row register tile. The functional shared-variant path runs only
/// blockings with this `pm`.
pub const STRIP_PM: usize = 16;

/// Executes one strip multiplication step on this CPE:
/// `C_local (pm×pn) += α · A_step (pm×pk) · B_step (pk×pn)`.
///
/// `a_own`/`b_own` are this thread's resident blocks (used and
/// broadcast when the role says so; `a_own` must be the panel for this
/// step, i.e. the thread's own A block). `c` is the LDM-resident C
/// block being accumulated.
///
/// Requires `pm == STRIP_PM` (one register tile of rows), as the
/// collective scheme does.
#[allow(clippy::too_many_arguments)] // the kernel ABI: role + three panels + shape + alpha
pub fn strip_step(
    ctx: &mut CpeCtx,
    role: StepRole,
    a_own: LdmBuf,
    b_own: LdmBuf,
    c: LdmBuf,
    pm: usize,
    pn: usize,
    pk: usize,
    alpha: f64,
) {
    assert_eq!(
        pm, STRIP_PM,
        "the collective scheme streams one 16-row register tile"
    );
    debug_assert_eq!(a_own.len(), pm * pk);
    debug_assert_eq!(b_own.len(), pk * pn);
    debug_assert_eq!(c.len(), pm * pn);

    // One tile's received operands: the A panel, 16 rows by pk
    // k-columns, and the B words, 4 per k.
    let mut a_recv = vec![0.0f64; pm * pk];
    let mut b_words = vec![V256::ZERO; 4 * pk];
    for j0 in (0..pn).step_by(4) {
        // --- A panel of the tile (4·pK mesh words, one episode). ---
        if let Operand::Recv(net) = role.a {
            recv_panel(ctx, net, &mut a_recv);
        } else if let Operand::LdmBcast(net) = role.a {
            bcast_panel(ctx, net, ctx.ldm.slice(a_own));
        }
        // --- B scalars of the tile (4·pK splatted words, k-major). ---
        match role.b {
            Operand::Ldm | Operand::LdmBcast(_) => {
                let b = ctx.ldm.slice(b_own);
                for (k, words) in b_words.chunks_exact_mut(4).enumerate() {
                    for (j, w) in words.iter_mut().enumerate() {
                        *w = V256::splat(b[(j0 + j) * pk + k]);
                    }
                }
                if let Operand::LdmBcast(net) = role.b {
                    bcast_words(ctx, net, &b_words);
                }
            }
            Operand::Recv(net) => recv_words(ctx, net, &mut b_words),
        }
        let a = match role.a {
            Operand::Recv(_) => &a_recv[..],
            Operand::Ldm | Operand::LdmBcast(_) => ctx.ldm.slice(a_own),
        };
        // Accumulators of the 16×4 register tile.
        let mut acc = [[0.0f64; 4]; 16];
        for k in 0..pk {
            let acol = &a[k * pm..k * pm + 16];
            let bvals: [f64; 4] = std::array::from_fn(|j| b_words[4 * k + j].0[0]);
            // --- 16 lane-groups of FMA, the vmad order's net effect. ---
            for (r, acc_r) in acc.iter_mut().enumerate() {
                for (j, acc_rj) in acc_r.iter_mut().enumerate() {
                    *acc_rj = acol[r].mul_add(bvals[j], *acc_rj);
                }
            }
        }
        // Tile epilogue: C += α·acc, one FMA per element.
        let cs = ctx.ldm.slice_mut(c);
        for j in 0..4 {
            for r in 0..16 {
                let idx = (j0 + j) * pm + r;
                cs[idx] = acc[r][j].mul_add(alpha, cs[idx]);
            }
        }
    }
}

fn bcast_panel(ctx: &CpeCtx, net: Net, panel: &[f64]) {
    match net {
        Net::Row => ctx.mesh_row_bcast_panel(panel),
        Net::Col => ctx.mesh_col_bcast_panel(panel),
    }
}

fn recv_panel(ctx: &CpeCtx, net: Net, out: &mut [f64]) {
    ctx.mesh_get_panel(net == Net::Col, out);
}

fn bcast_words(ctx: &CpeCtx, net: Net, words: &[V256]) {
    match net {
        Net::Row => ctx.mesh_row_bcast_words(words),
        Net::Col => ctx.mesh_col_bcast_words(words),
    }
}

fn recv_words(ctx: &CpeCtx, net: Net, out: &mut [V256]) {
    match net {
        Net::Row => ctx.mesh_getr_words(out),
        Net::Col => ctx.mesh_getc_words(out),
    }
}
