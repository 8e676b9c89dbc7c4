//! Golden-file pin of the Chrome-trace exporter.
//!
//! A tiny DB-variant timing DAG is traced and exported; the JSON must
//! match `tests/golden/trace_db_small.json` byte for byte AND pass the
//! structural Perfetto-schema validator. Everything feeding the bytes
//! is deterministic — the calibrated DMA model, the measured kernel
//! cycle counts, the DAG schedule, and the exporter's sort — so any
//! diff here is a real behavior change. Re-bless with:
//!
//! ```text
//! BLESS_GOLDEN=1 cargo test --test trace_golden
//! ```

use sw_dgemm::timing::build_shared_dag;
use sw_dgemm::{BlockingParams, Variant};
use sw_mem::dma::BandwidthModel;
use sw_probe::trace::validate_chrome_trace;
use sw_sim::TraceData;

const GOLDEN_PATH: &str = "tests/golden/trace_db_small.json";

/// The smallest DB run with real double-buffering: two CG blocks along
/// M, so the second block's loads prefetch under the first's compute.
fn tiny_db_trace_json() -> String {
    let p = BlockingParams::test_small();
    let model = BandwidthModel::calibrated();
    let (dag, _) = build_shared_dag(Variant::Db, 2 * p.bm(), p.bn(), p.bk(), p, &model)
        .expect("tiny DB plan must validate");
    let mut trace = TraceData::default();
    dag.emit_trace(&mut trace);
    trace.to_chrome_json()
}

#[test]
fn tiny_db_trace_matches_golden_bytes() {
    let json = tiny_db_trace_json();
    if std::env::var("BLESS_GOLDEN").is_ok() {
        std::fs::create_dir_all("tests/golden").unwrap();
        std::fs::write(GOLDEN_PATH, &json).unwrap();
        return;
    }
    let golden = std::fs::read_to_string(GOLDEN_PATH)
        .expect("golden file missing — run with BLESS_GOLDEN=1 to create it");
    assert_eq!(
        json, golden,
        "Chrome-trace export drifted from {GOLDEN_PATH}; \
         if intentional, re-bless with BLESS_GOLDEN=1"
    );
}

#[test]
fn tiny_db_trace_is_schema_valid() {
    let json = tiny_db_trace_json();
    let summary = validate_chrome_trace(&json).expect("exporter must emit Perfetto-valid JSON");
    assert!(summary.events > 0);
    assert!(summary.pairs > 0, "a DB schedule has non-trivial spans");
}

#[test]
fn exporter_is_deterministic_across_runs() {
    assert_eq!(tiny_db_trace_json(), tiny_db_trace_json());
}
