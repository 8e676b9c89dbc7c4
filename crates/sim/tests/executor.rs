//! The CPE executor behind `CoreGroup::try_run`: 64 fibers on the
//! calling thread. Failure attribution, backtraces, moving a core group
//! between threads, LDM state across runs, and re-entry.

use std::panic::{catch_unwind, AssertUnwindSafe};
use sw_arch::Coord;
use sw_isa::kernels::{gen_block_kernel, BlockKernelCfg, KernelStyle, Operand};
use sw_isa::Net;
use sw_mem::{Ldm, MemError};
use sw_sim::{CoreGroup, CpeError};

fn panic_text(p: &(dyn std::any::Any + Send)) -> String {
    p.downcast_ref::<String>()
        .cloned()
        .or_else(|| p.downcast_ref::<&str>().map(|s| s.to_string()))
        .unwrap_or_default()
}

#[test]
fn several_aborts_are_attributed_in_cpe_order() {
    // CPEs abort in the reverse of their index order (an earlier CPE
    // first yields for more executor passes), yet the failures come
    // back sorted by CPE id, each with its own error.
    let mut cg = CoreGroup::new();
    let failing = [5usize, 17, 40];
    let err = cg
        .try_run(|ctx| {
            let id = ctx.coord.id();
            if let Some(n) = failing.iter().position(|&f| f == id) {
                for _ in 0..(failing.len() - n) {
                    sw_check::fiber::note_progress();
                    sw_check::thread::yield_now();
                }
                ctx.abort(CpeError::Mem(MemError::Transient {
                    what: format!("cpe {id}"),
                }));
            }
            ctx.sync_all();
        })
        .expect_err("three CPEs abort");
    let ids: Vec<usize> = err.failures.iter().map(|f| f.coord.id()).collect();
    assert_eq!(ids, (0..64).collect::<Vec<_>>(), "every CPE is a failure");
    for f in &err.failures {
        let id = f.coord.id();
        match &f.error {
            CpeError::Mem(MemError::Transient { what }) => {
                assert!(failing.contains(&id));
                assert_eq!(what, &format!("cpe {id}"));
            }
            CpeError::Cancelled => assert!(!failing.contains(&id)),
            other => panic!("CPE {id}: unexpected {other:?}"),
        }
    }
    assert_eq!(err.primary().coord.id(), 5);
    assert_eq!(err.stats.panicked_cpes, (0..64).collect::<Vec<_>>());
}

#[test]
fn an_unknown_panic_is_re_raised_after_attribution() {
    let mut cg = CoreGroup::new();
    let r = catch_unwind(AssertUnwindSafe(|| {
        cg.try_run(|ctx| match ctx.coord.id() {
            3 => ctx.abort(CpeError::Cancelled),
            9 => panic!("boom from CPE 9"),
            _ => {}
        })
        .is_ok()
    }));
    let payload = r.expect_err("a non-CpeAbort panic escapes try_run");
    assert_eq!(panic_text(&*payload), "boom from CPE 9");
    // The group runs cleanly afterwards.
    assert!(cg.try_run(|ctx| ctx.sync_all()).is_ok());
}

#[test]
fn backtraces_work_inside_a_cpe_body() {
    let mut cg = CoreGroup::new();
    let trace = std::cell::RefCell::new(String::new());
    cg.run(|ctx| {
        if ctx.coord.id() == 42 {
            let bt = std::backtrace::Backtrace::force_capture();
            assert_eq!(bt.status(), std::backtrace::BacktraceStatus::Captured);
            *trace.borrow_mut() = bt.to_string();
        }
    });
    let trace = trace.into_inner();
    assert!(
        trace.contains("backtraces_work_inside_a_cpe_body"),
        "the capture shows the CPE body:\n{trace}"
    );
    assert!(
        trace.contains("fiber_main"),
        "the capture ends at the fiber base:\n{trace}"
    );
}

#[test]
fn a_core_group_moved_to_another_thread_still_runs() {
    let mut cg = CoreGroup::new();
    cg.run(|ctx| ctx.sync_all());
    let cg = std::thread::spawn(move || {
        let stats = cg.run(|ctx| {
            let v = sw_arch::V256::splat(ctx.coord.row as f64);
            if ctx.coord.col == 0 {
                ctx.mesh_bcast(false, 1, |_| v);
            } else {
                assert_eq!(*ctx.mesh_recv_window(false, 1), [v]);
            }
            ctx.sync_all();
        });
        assert_eq!(stats.mesh.row_words_received, 56);
        cg
    })
    .join()
    .expect("the run on the second thread succeeds");
    let mut cg = cg;
    cg.run(|ctx| ctx.sync_all());
}

#[test]
fn every_run_starts_with_fresh_ldms() {
    // Run 1 dirties every LDM: row 0 through an ISA kernel that streams
    // A over the row network (so the kernel blocks in `getr` mid-run),
    // the other rows through host writes and allocations.
    let (pm, pn, pk) = (16, 8, 16);
    let (b_base, c_base, alpha_addr) = (1024, 2048, 4096);
    let mut cg = CoreGroup::new();
    cg.run(|ctx| {
        if ctx.coord.row != 0 {
            let buf = ctx.ldm.alloc(4096).unwrap();
            ctx.ldm.slice_mut(buf).fill(ctx.coord.id() as f64 + 0.5);
            return;
        }
        let raw = ctx.ldm.raw_mut();
        raw[b_base..b_base + pk * pn].fill(0.25);
        raw[alpha_addr] = 2.0;
        let a_src = if ctx.coord == Coord::new(0, 0) {
            raw[..pm * pk].fill(3.0);
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
            a_base: 0,
            b_base,
            c_base,
            alpha_addr,
        };
        ctx.run_kernel(&gen_block_kernel(&cfg, KernelStyle::Scheduled));
        assert_eq!(ctx.ldm.raw()[c_base], 2.0 * 0.75 * pk as f64);
    });
    // Run 2: every LDM equals a fresh one, contents and allocator.
    let fresh = Ldm::new();
    let dirty = std::cell::Cell::new(0);
    cg.run(|ctx| {
        if ctx.ldm.raw() != fresh.raw() || ctx.ldm.free_doubles() != fresh.free_doubles() {
            dirty.set(dirty.get() + 1);
        }
    });
    assert_eq!(dirty.get(), 0, "LDMs carried state across runs");
}

#[test]
fn try_run_from_a_cpe_body_is_refused() {
    let mut cg = CoreGroup::new();
    let r = catch_unwind(AssertUnwindSafe(|| {
        cg.try_run(|ctx| {
            if ctx.coord.id() == 0 {
                CoreGroup::new().run(|_| {});
            }
        })
        .is_ok()
    }));
    let payload = r.expect_err("a nested run must panic");
    let text = panic_text(&*payload);
    assert!(
        text.contains("called from a CPE body") && text.contains("cannot start another"),
        "unclear message: {text}"
    );
}
