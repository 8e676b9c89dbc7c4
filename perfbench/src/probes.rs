//! Layer micro-probes of the traced run. Each probe calls one public
//! function of one layer directly, on fixed inputs, and reports the
//! median of several repetitions. They run in every workload's traced
//! run, so these per-layer numbers have one definition everywhere.

use std::time::Instant;

use sw_dgemm::abft::verify_block;
use sw_dgemm::gen::random_matrix;
use sw_dgemm::reference::dgemm_naive;
use sw_dgemm::timing::measure_kernel_uncached;
use sw_dgemm::tunecache::{CachedTune, TuneCache};
use sw_dgemm::variants::shared::GemmIo;
use sw_dgemm::{tuner, BlockingParams, DgemmRunner, EngineBackend, GemmPlan, TunePolicy, Variant};
use sw_isa::kernels::{BlockKernelCfg, KernelStyle, Operand};
use sw_isa::looped::gen_block_kernel_looped;
use sw_mem::dma::MatRegion;
use sw_mem::{HostMatrix, MainMemory};
use sw_sim::{CoreGroup, MeshTransport};

use crate::measure::median;
use crate::Metrics;

/// Median milliseconds of `reps` calls of `f`.
fn time_ms(reps: usize, mut f: impl FnMut()) -> f64 {
    let samples: Vec<f64> = (0..reps)
        .map(|_| {
            let t = Instant::now();
            f();
            t.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    median(&samples)
}

/// Runs every probe, adding its metrics to `out`. `Err` when a layer
/// returned a wrong answer.
pub fn run(out: &mut Metrics) -> Result<(), String> {
    isa_and_lint(out);
    tunecache(out)?;
    let mut cg = CoreGroup::new();
    cpe_runtime(&mut cg, out)?;
    abft(out)?;
    flight_overhead(&mut cg, out)?;
    Ok(())
}

/// The SCHED kernel at the paper's blocking: executed on the pipeline
/// model, scored by the stall prover, and the shared plan linted.
fn isa_and_lint(out: &mut Metrics) {
    let p = BlockingParams::paper_double();
    let style = KernelStyle::Scheduled;
    let mut instructions = 0;
    let kernel_ms = time_ms(5, || {
        instructions = measure_kernel_uncached(p.pm, p.pn, p.pk, style).instructions;
    });
    out.set("isa.kernel_ms", kernel_ms);
    out.set("isa.minstr_per_s", instructions as f64 / kernel_ms / 1e3);

    let b_base = p.pm * p.pk;
    let c_base = b_base + p.pk * p.pn;
    let cfg = BlockKernelCfg {
        pm: p.pm,
        pn: p.pn,
        pk: p.pk,
        a_src: Operand::Ldm,
        b_src: Operand::Ldm,
        a_base: 0,
        b_base,
        c_base,
        alpha_addr: c_base + p.pm * p.pn,
    };
    let prog = gen_block_kernel_looped(&cfg, style, 4);
    let stall_ms = time_ms(20, || {
        std::hint::black_box(sw_lint::score_stalls(&prog));
    });
    out.set("lint.stall_score_us", stall_ms * 1e3);
    let v = Variant::Sched;
    let lint_ms = time_ms(3, || {
        std::hint::black_box(sw_dgemm::lint::lint_shared(
            &p,
            v.mapping(),
            style,
            v.double_buffered(),
        ));
    });
    out.set("lint.lint_shared_ms", lint_ms);
}

/// A warm tune-cache hit, as `sw-serve` resolves every unpinned request.
fn tunecache(out: &mut Metrics) -> Result<(), String> {
    let cache = TuneCache::ephemeral();
    let (v, m, n, k) = (Variant::Sched, 256, 128, 256);
    let (transport, backend) = (MeshTransport::default(), EngineBackend::default());
    let params = BlockingParams::test_small();
    let key = TuneCache::key(v, transport, backend, m, n, k);
    cache.put(
        &key,
        CachedTune {
            params,
            gflops: 1.0,
        },
    );
    let calls = 1000;
    let mut hit = None;
    let ms = time_ms(5, || {
        for _ in 0..calls {
            hit = tuner::resolve_in(
                &cache,
                TunePolicy::CacheOnly,
                v,
                m,
                n,
                k,
                transport,
                backend,
            );
        }
    });
    if hit != Some(params) {
        return Err(format!("tune cache returned {hit:?}, stored {params:?}"));
    }
    out.set("core.tunecache.hit_us", ms * 1e3 / calls as f64);
    Ok(())
}

/// Median host wall of `reps` `try_run`s of `f` on all 64 CPEs, with
/// the bytes of DMA the last one moved.
fn try_run_ms<F>(cg: &mut CoreGroup, reps: usize, f: F) -> Result<(f64, u64), String>
where
    F: Fn(&mut sw_sim::CpeCtx) + Sync,
{
    let mut walls = Vec::new();
    let mut bytes = 0;
    for _ in 0..reps {
        let stats = cg.try_run(&f).map_err(|e| format!("probe run: {e}"))?;
        walls.push(stats.wall.as_secs_f64() * 1e3);
        bytes = stats.dma.total_bytes();
    }
    Ok((median(&walls), bytes))
}

/// Pool wake, barrier, mesh and DMA, each timed inside
/// `CoreGroup::try_run` net of an empty run.
fn cpe_runtime(cg: &mut CoreGroup, out: &mut Metrics) -> Result<(), String> {
    try_run_ms(cg, 3, |_| {})?;
    let (empty_ms, _) = try_run_ms(cg, 51, |_| {})?;
    out.set("sim.pool_wake_us", empty_ms * 1e3);

    const BARRIERS: usize = 200;
    let (ms, _) = try_run_ms(cg, 9, |ctx| {
        for _ in 0..BARRIERS {
            ctx.sync_all();
        }
    })?;
    out.set(
        "sim.barrier_us",
        (ms - empty_ms).max(0.0) * 1e3 / BARRIERS as f64,
    );

    // Column 0 of each mesh row broadcasts a 16-word panel on the row
    // network; the other seven receive it.
    const PANELS: usize = 200;
    const PANEL: usize = 64;
    let (ms, _) = try_run_ms(cg, 9, |ctx| {
        let mut buf = [0.0f64; PANEL];
        for i in 0..PANELS {
            if ctx.coord.col == 0 {
                buf[0] = i as f64;
                ctx.mesh_row_bcast_panel(&buf);
            } else {
                ctx.mesh_get_panel(false, &mut buf);
            }
        }
    })?;
    let words = (8 * PANELS * PANEL / 4) as f64;
    out.set("mesh.word_ns", (ms - empty_ms).max(0.0) * 1e6 / words);

    // PE_MODE gets of a private 128×16 region, then ROW_MODE gets of a
    // 128×128 region shared by the eight CPEs of a row.
    let src = cg
        .mem
        .install(random_matrix(1024, 512, 7))
        .map_err(|e| format!("install: {e}"))?;
    const ROUNDS: usize = 8;
    let (ms, bytes) = try_run_ms(cg, 9, |ctx| {
        let (row, col) = (ctx.coord.row as usize, ctx.coord.col as usize);
        let buf = ctx.ldm.alloc(128 * 16).expect("16 KiB fits in LDM");
        for r in 0..ROUNDS {
            let pe = MatRegion {
                mat: src,
                row0: col * 128,
                col0: (r % 4) * 128 + row * 16,
                rows: 128,
                cols: 16,
            };
            ctx.dma_pe_get(pe, buf).expect("in-bounds PE_MODE get");
            let shared = MatRegion {
                mat: src,
                row0: (r % 8) * 128,
                col0: row * 48,
                rows: 128,
                cols: 128,
            };
            ctx.dma_row_get(shared, buf)
                .expect("in-bounds ROW_MODE get");
        }
    })?;
    cg.mem.remove(src).map_err(|e| format!("remove: {e}"))?;
    out.set(
        "mem.dma_gbps",
        bytes as f64 / ((ms - empty_ms).max(1e-6) * 1e6),
    );
    Ok(())
}

/// One CG block's ABFT row and column checksums against a correct
/// result.
fn abft(out: &mut Metrics) -> Result<(), String> {
    let p = BlockingParams::test_small();
    let (m, n, k) = (p.bm(), p.bn(), p.bk());
    let plan = GemmPlan::new(m, n, k, p, true).map_err(|e| format!("plan: {e}"))?;
    let (a, b, c0) = (
        random_matrix(m, k, 11),
        random_matrix(k, n, 12),
        random_matrix(m, n, 13),
    );
    let (alpha, beta) = (1.25, -0.5);
    let mut c1 = c0.clone();
    dgemm_naive(alpha, &a, &b, beta, &mut c1);
    let mut mem = MainMemory::new();
    let mut install = |x: HostMatrix| mem.install(x).map_err(|e| format!("install: {e}"));
    let io = GemmIo {
        a: install(a)?,
        b: install(b)?,
        c: install(c1)?,
    };
    let mut verdict = Ok(None);
    let ms = time_ms(21, || {
        verdict = verify_block(&mem, &plan, io, 0, 0, 0, alpha, beta, c0.as_slice());
    });
    match verdict {
        Ok(None) => {
            out.set("core.abft.verify_ms", ms);
            Ok(())
        }
        other => Err(format!("ABFT flags a correct block: {other:?}")),
    }
}

/// One small op with the flight recorder on and off, in interleaved
/// pairs.
fn flight_overhead(cg: &mut CoreGroup, out: &mut Metrics) -> Result<(), String> {
    let p = BlockingParams::test_small();
    let (a, b, c0) = (
        random_matrix(256, 128, 21),
        random_matrix(128, 64, 22),
        random_matrix(256, 64, 23),
    );
    let runner = DgemmRunner::new(Variant::Sched).params(p);
    let op = |cg: &mut CoreGroup| -> Result<f64, String> {
        let mut c = c0.clone();
        let t = Instant::now();
        runner
            .run_on(cg, 1.0, &a, &b, 1.0, &mut c)
            .map_err(|e| format!("flight probe op: {e}"))?;
        Ok(t.elapsed().as_secs_f64() * 1e3)
    };
    op(cg)?;
    let (mut on, mut off) = (Vec::new(), Vec::new());
    for pair in 0..8 {
        for enabled in [pair % 2 == 0, pair % 2 != 0] {
            cg.flight().set_enabled(enabled);
            let ms = op(cg)?;
            if enabled { &mut on } else { &mut off }.push(ms);
        }
    }
    cg.flight().set_enabled(true);
    out.set(
        "probe.flight_overhead_pct",
        100.0 * (median(&on) / median(&off) - 1.0),
    );
    Ok(())
}
