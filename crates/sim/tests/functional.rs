//! Integration tests of the 64-thread functional runtime: DMA, mesh and
//! ISA-kernel execution composed exactly the way the DGEMM variants use
//! them.

use sw_arch::Coord;
use sw_isa::kernels::{gen_block_kernel, BlockKernelCfg, KernelStyle, Operand};
use sw_isa::Net;
use sw_mem::dma::MatRegion;
use sw_mem::HostMatrix;
use sw_sim::CoreGroup;

#[test]
fn every_cpe_writes_its_own_region() {
    let mut cg = CoreGroup::new();
    let mat = cg.mem.install(HostMatrix::zeros(16 * 64, 4)).unwrap();
    let stats = cg.run(|ctx| {
        let buf = ctx.ldm.alloc(16 * 4).unwrap();
        let id = ctx.coord.id();
        for (i, x) in ctx.ldm.slice_mut(buf).iter_mut().enumerate() {
            *x = (id * 1000 + i) as f64;
        }
        ctx.dma_pe_put(MatRegion::new(mat, id * 16, 0, 16, 4), buf)
            .unwrap();
    });
    let m = cg.mem.extract(mat).unwrap();
    for id in 0..64 {
        for c in 0..4 {
            for r in 0..16 {
                assert_eq!(m.get(id * 16 + r, c), (id * 1000 + c * 16 + r) as f64);
            }
        }
    }
    assert_eq!(stats.dma.pe_bytes, 64 * 16 * 4 * 8);
    assert_eq!(stats.dma.descriptors, 64);
}

#[test]
fn row_collective_roundtrip_all_threads() {
    // Every mesh row collectively reads a different column strip and
    // writes it back to a second matrix; the copy must be exact.
    let mut cg = CoreGroup::new();
    let src = HostMatrix::from_fn(128, 16, |r, c| (c * 1000 + r) as f64);
    let a = cg.mem.install(src.clone()).unwrap();
    let b = cg.mem.install(HostMatrix::zeros(128, 16)).unwrap();
    cg.run(|ctx| {
        let cols = 2usize; // each row of CPEs owns 2 columns
        let region_in = MatRegion::new(a, 0, ctx.coord.row as usize * cols, 128, cols);
        let region_out = MatRegion::new(b, 0, ctx.coord.row as usize * cols, 128, cols);
        let buf = ctx.ldm.alloc(128 * cols / 8).unwrap();
        ctx.dma_row_get(region_in, buf).unwrap();
        ctx.dma_row_put(region_out, buf).unwrap();
    });
    assert_eq!(cg.mem.extract(b).unwrap(), src);
}

#[test]
fn diagonal_broadcast_step_at_panel_granularity() {
    // One step of the collective data sharing scheme (§III-B), step
    // i = 3: thread (3,3) broadcasts its A panel along the row and its
    // B panel along the column; row-3 threads rebroadcast B; column-3
    // threads rebroadcast A... here we test the simplest slice: the
    // diagonal thread broadcasts, everyone in its row/column receives.
    let step = 3usize;
    let panel: Vec<f64> = (0..64).map(|i| (i * i) as f64).collect();
    let mut cg = CoreGroup::new();
    let panel_ref = &panel;
    cg.run(move |ctx| {
        let me = ctx.coord;
        if me == Coord::new(step, step) {
            ctx.mesh().row_bcast_panel(panel_ref).unwrap();
            ctx.mesh().col_bcast_panel(panel_ref).unwrap();
        } else if me.row as usize == step {
            let mut got = vec![0.0; 64];
            ctx.mesh().recv_row_panel(&mut got).unwrap();
            assert_eq!(&got, panel_ref);
        } else if me.col as usize == step {
            let mut got = vec![0.0; 64];
            ctx.mesh().recv_col_panel(&mut got).unwrap();
            assert_eq!(&got, panel_ref);
        }
    });
}

#[test]
fn isa_kernel_with_live_mesh_broadcast() {
    // Row 0 runs the register-blocked kernel with A broadcast over the
    // row network: CPE (0,0) is the broadcaster (vldr), CPEs (0,1..7)
    // receive (getr). B is local to each CPE (same contents). All eight
    // must produce the identical C block, equal to the host reference.
    let pm = 16;
    let pn = 8;
    let pk = 16;
    let a_base = 0usize;
    let b_base = 1024usize;
    let c_base = 2048usize;
    let alpha_addr = 4096usize;
    let alpha = 1.25f64;

    let apanel: Vec<f64> = (0..pm * pk).map(|i| ((i * 7 % 23) as f64) - 11.0).collect();
    let bpanel: Vec<f64> = (0..pk * pn)
        .map(|i| ((i * 5 % 17) as f64) * 0.5 - 4.0)
        .collect();

    // Host reference with the same FMA order.
    let mut c_ref = vec![0.0f64; pm * pn];
    for j in 0..pn {
        for r in 0..pm {
            let mut acc = 0.0f64;
            for k in 0..pk {
                acc = apanel[k * pm + r].mul_add(bpanel[j * pk + k], acc);
            }
            c_ref[j * pm + r] = acc.mul_add(alpha, 0.0);
        }
    }

    let results = std::sync::Mutex::new(vec![Vec::new(); 8]);
    let mut cg = CoreGroup::new();
    let (ap, bp) = (&apanel, &bpanel);
    let results_ref = &results;
    cg.run(move |ctx| {
        if ctx.coord.row != 0 {
            return;
        }
        let col = ctx.coord.col as usize;
        // Lay out panels at fixed offsets.
        ctx.ldm.raw_mut()[b_base..b_base + bp.len()].copy_from_slice(bp);
        ctx.ldm.raw_mut()[alpha_addr] = alpha;
        let a_src = if col == 0 {
            ctx.ldm.raw_mut()[a_base..a_base + ap.len()].copy_from_slice(ap);
            Operand::LdmBcast(Net::Row)
        } else {
            Operand::Recv(Net::Row)
        };
        let cfg = BlockKernelCfg {
            pm,
            pn,
            pk,
            a_src,
            b_src: Operand::Ldm,
            a_base,
            b_base,
            c_base,
            alpha_addr,
        };
        let prog = gen_block_kernel(&cfg, KernelStyle::Scheduled);
        let report = ctx.run_kernel(&prog);
        assert!(report.vmads as usize >= pm * pn * pk / 4);
        results_ref.lock().unwrap()[col] = ctx.ldm.raw()[c_base..c_base + pm * pn].to_vec();
    });
    for col in 0..8 {
        assert_eq!(
            results.lock().unwrap()[col],
            c_ref,
            "CPE (0,{col}) result mismatch"
        );
    }
}

#[test]
fn sync_all_orders_phases() {
    // Phase 1: everyone writes its id; sync; phase 2: everyone reads a
    // neighbour's slot. Without the barrier this would race.
    use std::sync::atomic::{AtomicU64, Ordering};
    let slots: Vec<AtomicU64> = (0..64).map(|_| AtomicU64::new(u64::MAX)).collect();
    let slots_ref = &slots;
    let mut cg = CoreGroup::new();
    cg.run(move |ctx| {
        let id = ctx.coord.id();
        slots_ref[id].store(id as u64, Ordering::SeqCst);
        ctx.sync_all();
        let neighbour = (id + 1) % 64;
        assert_eq!(
            slots_ref[neighbour].load(Ordering::SeqCst),
            neighbour as u64
        );
    });
}

#[test]
fn mismatched_communication_scheme_is_diagnosed() {
    // Failure injection: thread (0,0) broadcasts along its row but one
    // receiver never drains — the bounded send buffer fills and the
    // mesh diagnoses the deadlock instead of hanging. The failure
    // surfaces as a structured RunError out of CoreGroup::try_run, and
    // the same CoreGroup stays usable for a subsequent clean run.
    let mut cg = CoreGroup::with_mesh_timeout(std::time::Duration::from_millis(200));
    let err = cg
        .try_run(|ctx| {
            if ctx.coord == Coord::new(0, 0) {
                // Way beyond the buffer capacity of any single receiver.
                for i in 0..1024 {
                    ctx.mesh_bcast(false, 1, |_| sw_arch::V256::splat(i as f64));
                }
            } else if ctx.coord.row == 0 && ctx.coord.col != 7 {
                // These drain correctly...
                let mut word = [0.0; 4];
                for _ in 0..1024 {
                    ctx.mesh_get_panel(false, &mut word);
                }
            }
            // ...but (0,7) never receives: the sender must block and
            // eventually trip the deadlock diagnostic. Give the mesh a
            // short fuse by exiting everyone else promptly.
        })
        .expect_err("the wedged broadcast must surface as a RunError");
    let primary = err.primary();
    assert!(
        matches!(primary.error, sw_sim::CpeError::Mesh(_)),
        "primary failure must be the mesh deadlock, got {:?}",
        primary
    );
    assert_eq!(primary.coord, Coord::new(0, 0));
    assert!(!err.stats.panicked_cpes.is_empty());
    // The runtime survives: a clean follow-up run succeeds.
    let stats = cg.run(|ctx| {
        ctx.sync_all();
    });
    assert!(stats.panicked_cpes.is_empty());
}

#[test]
fn dma_errors_surface_with_context() {
    // A misaligned region must fail loudly inside the CPE thread.
    let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        let mut cg = CoreGroup::new();
        let mat = cg.mem.install(HostMatrix::zeros(128, 8)).unwrap();
        cg.run(|ctx| {
            let buf = ctx.ldm.alloc(8).unwrap();
            // 8-row run: not a whole 128 B transaction.
            ctx.dma_pe_get(MatRegion::new(mat, 0, 0, 8, 1), buf)
                .expect("A DMA");
        });
    }));
    assert!(result.is_err());
}

#[test]
fn brow_and_rank_modes_through_the_runtime() {
    let mut cg = CoreGroup::new();
    let mat = cg
        .mem
        .install(HostMatrix::from_fn(1024, 1, |r, _| r as f64))
        .unwrap();
    let stats = cg.run(|ctx| {
        // BROW: every row broadcasts the same 16-double head into all
        // 8 of its CPEs.
        let b = ctx.ldm.alloc(16).unwrap();
        ctx.dma_brow_get(MatRegion::new(mat, 0, 0, 16, 1), b)
            .unwrap();
        assert_eq!(ctx.ldm.slice(b)[15], 15.0);
        // RANK: the 64 transactions deal out one per CPE.
        let r = ctx.ldm.alloc(16).unwrap();
        ctx.dma_rank_get(MatRegion::new(mat, 0, 0, 1024, 1), r)
            .unwrap();
        assert_eq!(ctx.ldm.slice(r)[0], (ctx.coord.id() * 16) as f64);
    });
    assert_eq!(stats.dma.brow_bytes, 64 * 16 * 8);
    assert_eq!(stats.dma.rank_bytes, 64 * 16 * 8);
}

#[test]
fn traced_run_produces_valid_chrome_trace() {
    use sw_probe::trace::{from_flight, validate_chrome_trace};
    use sw_sim::TraceData;

    let mut cg = CoreGroup::new();
    let mat = cg.mem.install(HostMatrix::zeros(16 * 64, 4)).unwrap();
    cg.run(|ctx| {
        let buf = ctx.ldm.alloc(16 * 4).unwrap();
        let id = ctx.coord.id();
        ctx.dma_pe_get(MatRegion::new(mat, id * 16, 0, 16, 4), buf)
            .unwrap();
        ctx.dma_pe_put(MatRegion::new(mat, id * 16, 0, 16, 4), buf)
            .unwrap();
    });
    let mut data = TraceData::default();
    let overwritten = from_flight(cg.flight(), &mut data);
    assert!(overwritten.iter().all(|&n| n == 0));
    // 64 CPE tracks plus the MPE's.
    let cpe_tracks = data.tracks.iter().filter(|t| t.process == "cpe").count();
    assert_eq!(cpe_tracks, 64);
    // Two DMA spans per CPE, each with a modelled nonzero duration,
    // back to back on that CPE's private timeline (the trace walks the
    // rings in CPE order).
    let dma_spans: Vec<_> = data.spans.iter().filter(|s| s.cat == "dma").collect();
    assert_eq!(dma_spans.len(), 2 * 64);
    for pair in dma_spans.chunks(2) {
        assert_eq!(
            pair[0].track, pair[1].track,
            "two spans on each CPE's track"
        );
        assert_eq!((pair[0].name, pair[1].name), ("pe.get", "pe.put"));
        assert_eq!(pair[0].end, pair[1].start, "back to back");
    }
    for s in &dma_spans {
        assert!(
            s.end > s.start,
            "{} span must have modelled duration",
            s.name
        );
        assert_eq!(s.args, vec![("bytes", 16 * 4 * 8)]);
    }
    let json = data.to_chrome_json();
    let summary = validate_chrome_trace(&json).expect("functional trace must validate");
    assert_eq!(summary.pairs, 2 * 64);
}

#[test]
fn untraced_run_collects_nothing_and_still_counts() {
    let mut cg = CoreGroup::new();
    let mat = cg.mem.install(HostMatrix::zeros(16 * 64, 1)).unwrap();
    let stats = cg.run(|ctx| {
        let buf = ctx.ldm.alloc(16).unwrap();
        ctx.dma_pe_get(MatRegion::new(mat, ctx.coord.id() * 16, 0, 16, 1), buf)
            .unwrap();
    });
    assert_eq!(stats.dma.descriptors, 64);
}
