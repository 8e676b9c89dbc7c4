//! Unified performance report over the observability stack:
//!
//! 1. **Per-pipe stall attribution** of every variant's thread-level
//!    kernel (the Figure 6 ladder RAW→PE→ROW→DB→SCHED as a
//!    stall-breakdown table) — where the cycles of one kernel
//!    invocation go, per issue pipe, classified as issue / RAW stall /
//!    load-use stall / pipe conflict / loop overhead.
//! 2. **Achieved vs. model DMA bandwidth** per mode (the Figure 4
//!    micro-benchmark against the wire-model ceiling).
//! 3. A **Chrome-trace export** of the variant's timing DAG (one track
//!    per DAG resource) merged with a functional run read back from a
//!    flight recorder sized to hold the whole run (one track per CPE,
//!    DMA, mesh, barrier and kernel time as the flight ledger charged
//!    it) — loadable in Perfetto / chrome://tracing. The report fails
//!    if any ring overwrote events.
//! 4. A **metrics snapshot** footer (DMA traffic, mesh words, kernel
//!    cache, model calibration) from the global registry.
//!
//! ```text
//! cargo run -p sw-bench --release --bin perf_report \
//!     [-- --variant sched] [--size 256] [--trace perf_trace.json]
//! ```

use sw_bench::Table;
use sw_dgemm::timing::build_shared_dag;
use sw_dgemm::variants::raw::RawParams;
use sw_dgemm::{BlockingParams, DgemmRunner, Variant};
use sw_isa::kernels::{gen_block_kernel, BlockKernelCfg, KernelStyle, Operand};
use sw_isa::{Machine, NullComm, StallKind, StallReport};
use sw_mem::dma::{BandwidthModel, DmaMode};
use sw_mem::microbench::{sustained_bandwidth_gbs, MicrobenchConfig};
use sw_probe::flight::N_RINGS;
use sw_probe::trace::{from_flight, validate_chrome_trace};
use sw_sim::{CoreGroup, TraceData};

fn arg_after(flag: &str) -> Option<String> {
    std::env::args().skip_while(|a| a != flag).nth(1)
}

fn parse_variant(s: &str) -> Variant {
    match s {
        "raw" => Variant::Raw,
        "pe" => Variant::Pe,
        "row" => Variant::Row,
        "db" => Variant::Db,
        _ => Variant::Sched,
    }
}

/// The (pm, pn, pk, style) of a variant's thread-level kernel at the
/// paper's production blocking.
fn kernel_shape(v: Variant) -> (usize, usize, usize, KernelStyle) {
    match v {
        Variant::Raw => {
            let r = RawParams::paper();
            (r.pm, r.pn, r.kc, KernelStyle::Naive)
        }
        _ => {
            let p = v.paper_params();
            (p.pm, p.pn, p.pk, v.kernel_style())
        }
    }
}

/// Runs the variant's kernel on the probed interpreter (operands in a
/// tightly packed synthetic LDM image, as `timing::measure_kernel`
/// lays them out).
fn probe_kernel(v: Variant) -> (sw_isa::ExecReport, StallReport) {
    let (pm, pn, pk, style) = kernel_shape(v);
    let a_base = 0;
    let b_base = (a_base + pm * pk).next_multiple_of(4);
    let c_base = (b_base + pk * pn).next_multiple_of(4);
    let alpha_addr = c_base + pm * pn;
    let cfg = BlockKernelCfg {
        pm,
        pn,
        pk,
        a_src: Operand::Ldm,
        b_src: Operand::Ldm,
        a_base,
        b_base,
        c_base,
        alpha_addr,
    };
    let prog = gen_block_kernel(&cfg, style);
    let mut ldm = vec![0.0f64; alpha_addr + 1];
    ldm[alpha_addr] = 1.0;
    let mut comm = NullComm;
    Machine::new(&mut ldm, &mut comm).run_probed(&prog)
}

fn stall_table() -> Table {
    let mut table = Table::new([
        "variant",
        "cycles",
        "instrs",
        "issue",
        "raw",
        "load-use",
        "pipe-conf",
        "loop-ovh",
        "stall%",
    ]);
    let mut stalls_by_variant = Vec::new();
    for v in Variant::ALL {
        let (report, stall) = probe_kernel(v);
        stall
            .check()
            .unwrap_or_else(|e| panic!("{v} attribution broken: {e}"));
        assert_eq!(
            stall.issue_cycles(),
            report.instructions,
            "{v}: issue slots must equal instruction count"
        );
        table.row([
            v.name().to_string(),
            report.cycles.to_string(),
            report.instructions.to_string(),
            stall.issue_cycles().to_string(),
            stall.kind_cycles(StallKind::Raw).to_string(),
            stall.kind_cycles(StallKind::LoadUse).to_string(),
            stall.kind_cycles(StallKind::PipeConflict).to_string(),
            stall.kind_cycles(StallKind::LoopOverhead).to_string(),
            format!(
                "{:.1}",
                100.0 * stall.stall_cycles() as f64 / (2 * report.cycles) as f64
            ),
        ]);
        stalls_by_variant.push((v, stall.stall_cycles()));
    }
    // The §IV-C claim, as a hard gate: instruction scheduling must
    // remove stall cycles relative to the DB kernel.
    let db = stalls_by_variant[3].1;
    let sched = stalls_by_variant[4].1;
    assert!(
        sched < db,
        "SCHED kernel must stall strictly less than DB ({sched} vs {db})"
    );
    table
}

fn fig4_table(model: &BandwidthModel) -> Table {
    let cfg = MicrobenchConfig::default();
    let mut table = Table::new([
        "m=k",
        "PE achieved",
        "PE wire model",
        "ROW achieved",
        "ROW wire model",
    ]);
    for mk in [1536usize, 4608, 9216, 15360] {
        let fp = mk * mk * 8;
        let pe = sustained_bandwidth_gbs(model, DmaMode::Pe, mk, mk, &cfg);
        let row = sustained_bandwidth_gbs(model, DmaMode::Row, mk, mk, &cfg);
        let pe_wire = model.sustained_gbs(DmaMode::Pe, cfg.pm * 8, fp);
        let row_wire = model.sustained_gbs(DmaMode::Row, cfg.bm * 8, fp);
        assert!(
            pe <= pe_wire && row <= row_wire,
            "startup cannot add bandwidth"
        );
        table.row([
            mk.to_string(),
            format!("{pe:.1}"),
            format!("{pe_wire:.1}"),
            format!("{row:.1}"),
            format!("{row_wire:.1}"),
        ]);
    }
    table
}

fn main() {
    let variant = parse_variant(&arg_after("--variant").unwrap_or_default());
    let size: usize = arg_after("--size")
        .and_then(|s| s.parse().ok())
        .unwrap_or(256);
    let trace_path = arg_after("--trace").unwrap_or_else(|| "perf_trace.json".into());
    let model = BandwidthModel::calibrated();

    // Size the traced run's flight recorder: a first run of the same
    // problem counts the events each ring records, then the metrics it
    // published are cleared so the sizing run stays out of the footer.
    let a = sw_dgemm::gen::random_matrix(size, size, 1);
    let b = sw_dgemm::gen::random_matrix(size, size, 2);
    let c0 = sw_dgemm::gen::random_matrix(size, size, 3);
    let runner = DgemmRunner::new(variant);
    let mut cg = CoreGroup::new();
    runner
        .run_on(&mut cg, 1.0, &a, &b, 0.0, &mut c0.clone())
        .expect("sizing run");
    let events = (0..N_RINGS)
        .map(|r| cg.flight().total(r))
        .max()
        .unwrap_or(0);
    cg.set_flight_capacity(events.max(1) as usize);
    sw_probe::metrics::global().reset();

    println!("== kernel stall attribution (one thread-level kernel invocation, both pipes) ==\n");
    println!("{}", stall_table().render());
    println!("stall% = non-issue slots over 2 pipes x cycles; SCHED < DB is asserted.\n");

    println!("== Figure 4: achieved vs wire-model DMA bandwidth (GB/s) ==\n");
    println!("{}", fig4_table(&model).render());
    println!(
        "achieved = micro-benchmark with per-descriptor startup; wire model = streaming ceiling.\n"
    );

    // The variant's timing DAG (DMA engine / CPE cluster tracks) plus
    // the functional run read back from the flight rings (per-CPE
    // tracks), in one trace.
    let mut data = TraceData::default();
    if variant != Variant::Raw {
        let params = BlockingParams::test_small();
        let (dag, _) = build_shared_dag(variant, size, size, size, params, &model)
            .expect("timing DAG at the traced size");
        dag.emit_trace(&mut data);
    }
    model.publish(sw_probe::metrics::global());
    let report = runner
        .run_on(&mut cg, 1.0, &a, &b, 0.0, &mut c0.clone())
        .expect("traced functional run");
    let overwritten: u64 = from_flight(cg.flight(), &mut data).iter().sum();
    assert_eq!(
        overwritten, 0,
        "flight rings of {events} events overwrote {overwritten}: the trace misses part of the run"
    );
    let json = data.to_chrome_json();
    let summary = validate_chrome_trace(&json).expect("trace must be Perfetto-valid");
    assert!(summary.pairs > 0, "traced run must produce span pairs");
    std::fs::write(&trace_path, &json).expect("write trace JSON");
    println!("== trace export ==\n");
    println!(
        "{variant} functional run at {size}^3: {} bytes DMA, {} mesh words sent",
        report.stats.dma.total_bytes(),
        report.stats.mesh.row_words_sent + report.stats.mesh.col_words_sent,
    );
    println!(
        "wrote {trace_path}: {} tracks, {} events ({} B/E pairs), whole run \
         ({events} flight events per ring at most) — load in https://ui.perfetto.dev",
        data.tracks.len(),
        summary.events,
        summary.pairs
    );

    // A short self-healing run so the fault/recovery footer reflects
    // live machinery, not zeros: one guaranteed DMA bit-flip per CG
    // block, healed by ABFT recompute (tallies also land in the
    // metrics snapshot below as `faults.*`).
    if variant != Variant::Raw {
        let p = BlockingParams::test_small();
        let fa = sw_dgemm::gen::random_matrix(2 * p.bm(), p.bk(), 4);
        let fb = sw_dgemm::gen::random_matrix(p.bk(), p.bn(), 5);
        let mut fc = sw_dgemm::gen::random_matrix(2 * p.bm(), p.bn(), 6);
        let spec = sw_dgemm::FaultSpec {
            bitflip_every_epoch: true,
            ..sw_dgemm::FaultSpec::seeded(1)
        };
        let fr = DgemmRunner::new(variant)
            .params(p)
            .faults(spec)
            .abft(sw_dgemm::AbftPolicy::Correct)
            .run(1.0, &fa, &fb, 0.0, &mut fc)
            .expect("self-healing demo run");
        let f = fr.faults.expect("fault plan installed");
        println!("\n== fault injection & recovery (seeded demo plan, ABFT=Correct) ==\n");
        println!(
            "injected: {} dma bit-flips | detected: {} checksum misses | \
             healed: {} recomputed blocks",
            f.injected_dma_bitflip, f.detected_abft, f.recovered_abft_blocks
        );
        assert_eq!(
            f.recovered_abft_blocks, f.detected_abft,
            "every detected fault must be healed in the demo plan"
        );
    }

    // Causal critical path of the fig6-size schedule: the longest
    // dependency chain through the timing DAG, aggregated by task
    // label — where a production-size run's makespan actually goes,
    // and what an optimization would have to shorten.
    if variant != Variant::Raw {
        let p = variant.paper_params();
        let (dag, _) =
            build_shared_dag(variant, 1536, 1536, 1536, p, &model).expect("fig6-size timing DAG");
        let cp = dag.critical_path();
        println!("\n== critical path ({variant} at the fig6 size, 1536^3) ==\n");
        println!(
            "makespan: {} cycles; top segments of the binding chain:",
            cp.makespan_cycles
        );
        for (label, resource, cycles, count) in cp.top_segments(3) {
            println!(
                "  {label:<24} {:<5} {cycles:>12} cycles  {:>6.2}%  ({count} segments)",
                format!("{resource:?}"),
                100.0 * cycles as f64 / cp.makespan_cycles as f64
            );
        }
    }

    println!("\n== metrics snapshot ==\n");
    print!("{}", sw_probe::metrics::global().snapshot().render());
}
