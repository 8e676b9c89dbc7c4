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
//! host pays for fewer episodes. A received operand is computed on
//! straight out of the mesh: the tile holds its A and B receive windows
//! (on different networks) across the 16×4 FMA and then releases both,
//! as a `getr`/`getc` word feeds `vmad` from a register on the
//! hardware. Nothing received is staged in LDM, respecting the LDM
//! budget of §III-C.2 (which counts only the thread's own blocks).

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
/// block being accumulated. The step allocates nothing: received
/// operands are read where they sit in the mesh, and the splatted B
/// words a broadcaster sends are written straight into it.
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

    for j0 in (0..pn).step_by(4) {
        // --- A panel of the tile (4·pK mesh words, one episode). ---
        let a_recv = match role.a {
            Operand::Recv(net) => Some(ctx.mesh_recv_window(net == Net::Col, 4 * pk)),
            Operand::LdmBcast(net) => {
                bcast_panel(ctx, net, ctx.ldm.slice(a_own));
                None
            }
            Operand::Ldm => None,
        };
        // --- B scalars of the tile (4·pK splatted words, k-major). ---
        // This CPE's own B columns of the tile, each pK long.
        let cols = &ctx.ldm.slice(b_own)[j0 * pk..(j0 + 4) * pk];
        let own_b: [&[f64]; 4] = std::array::from_fn(|j| &cols[j * pk..(j + 1) * pk]);
        let b_recv = match role.b {
            Operand::Recv(net) => Some(ctx.mesh_recv_window(net == Net::Col, 4 * pk)),
            Operand::LdmBcast(net) => {
                ctx.mesh_bcast(net == Net::Col, 4 * pk, |w| {
                    V256::splat(own_b[w % 4][w / 4])
                });
                None
            }
            Operand::Ldm => None,
        };
        let a = match &a_recv {
            Some(window) => V256::as_lanes(window),
            None => ctx.ldm.slice(a_own),
        };
        let acc = match &b_recv {
            Some(window) => tile_product(
                a,
                window
                    .chunks_exact(4)
                    .map(|w| std::array::from_fn(|j| w[j].0[0])),
            ),
            None => tile_product(a, (0..pk).map(|k| own_b.map(|col| col[k]))),
        };
        // The tile's operands are consumed: let go of the mesh words.
        drop((a_recv, b_recv));
        // Tile epilogue: C += α·acc, one FMA per element.
        let cs = &mut ctx.ldm.slice_mut(c)[j0 * pm..(j0 + 4) * pm];
        for (cj, acc_j) in cs.chunks_exact_mut(pm).zip(&acc) {
            for (cr, acc_rj) in cj.iter_mut().zip(acc_j) {
                *cr = acc_rj.mul_add(alpha, *cr);
            }
        }
    }
}

/// The 16×4 register tile `A_panel · B`, column-major like C: `a`
/// holds 16 rows per k, and `b` yields the tile's 4 B scalars per k.
/// Each accumulator's FMA chain runs over k in order — the vmad order's
/// net effect. The rows go in two halves, so that one half's 8×4
/// accumulators stay in vector registers.
fn tile_product(a: &[f64], b: impl Iterator<Item = [f64; 4]> + Clone) -> [[f64; STRIP_PM]; 4] {
    let mut acc = [[0.0f64; STRIP_PM]; 4];
    for half in [0..8, 8..16] {
        let mut h = [[0.0f64; 8]; 4];
        for (acol, bk) in a.chunks_exact(STRIP_PM).zip(b.clone()) {
            let acol: &[f64; 8] = acol[half.clone()].try_into().expect("a half is 8 rows");
            for (h_j, bkj) in h.iter_mut().zip(bk) {
                for (x, &ar) in h_j.iter_mut().zip(acol) {
                    *x = ar.mul_add(bkj, *x);
                }
            }
        }
        for (acc_j, h_j) in acc.iter_mut().zip(&h) {
            acc_j[half.clone()].copy_from_slice(h_j);
        }
    }
    acc
}

fn bcast_panel(ctx: &CpeCtx, net: Net, panel: &[f64]) {
    match net {
        Net::Row => ctx.mesh_row_bcast_panel(panel),
        Net::Col => ctx.mesh_col_bcast_panel(panel),
    }
}
