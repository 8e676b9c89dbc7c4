//! Renders the double-buffering overlap as a text Gantt chart — the
//! mechanism behind the DB gain of Figure 6 and the small-m penalty of
//! Figure 7, visible task by task.
//!
//! The chart is the probe crate's Gantt exporter fed by the same event
//! stream the Chrome-trace export uses ([`sw_sim::Dag::emit_trace`]):
//! one span per DAG task, laned by category.
//!
//! ```text
//! cargo run -p sw-bench --release --bin trace_overlap [-- --variant row]
//! ```

use sw_dgemm::timing::build_shared_dag;
use sw_dgemm::Variant;
use sw_mem::dma::BandwidthModel;
use sw_probe::gantt;
use sw_sim::TraceData;

fn main() {
    let variant = if std::env::args().any(|a| a == "--variant") {
        let v = std::env::args()
            .skip_while(|a| a != "--variant")
            .nth(1)
            .unwrap_or_default();
        match v.as_str() {
            "pe" => Variant::Pe,
            "row" => Variant::Row,
            "db" => Variant::Db,
            _ => Variant::Sched,
        }
    } else {
        Variant::Sched
    };
    // One (j, l) iteration's worth: a single column of CG blocks.
    let p = variant.paper_params();
    let (m, n, k) = (6 * p.bm(), p.bn(), p.bk());
    let model = BandwidthModel::calibrated();
    let (dag, kernel) = build_shared_dag(variant, m, n, k, p, &model).expect("dag");
    let mut trace = TraceData::default();
    let (result, _) = dag.emit_trace(&mut trace);
    let rows = gantt::from_trace(&trace);

    println!(
        "{variant} schedule for one (j,l) iteration: M = {} CG blocks, kernel {} cycles/step\n",
        m / p.bm(),
        kernel.cycles
    );
    let span = result.makespan_cycles as f64;
    print!("{}", gantt::render(&rows, result.makespan_cycles, 72));
    println!("\nlanes: D = DMA channel, C = CPE cluster.");
    println!(
        "compute utilization {:.1}%; DMA busy {:.1}% of the makespan — {}",
        100.0 * result.compute_utilization(),
        100.0 * result.dma_busy_cycles as f64 / span,
        if variant.double_buffered() {
            "prefetches hide under the previous block's compute (Algorithm 2)"
        } else {
            "loads and compute strictly alternate (Algorithm 1)"
        }
    );
}
