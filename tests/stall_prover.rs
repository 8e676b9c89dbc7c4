//! The static stall prover against the engine on the tuner's own
//! candidates. Stage 2 of `tuner::search` ranks every feasible blocking
//! by `sw_lint::score_stalls` on its looped kernel stream; for each of
//! those streams, of all four shared variants, the proof must be exact
//! and equal `Machine::run_probed` field for field: the stall report
//! and the dynamic instruction count.

use sw_arch::consts::LDM_DOUBLES;
use sw_dgemm::lint::candidate_kernel;
use sw_dgemm::tuner::{search, TuneRequest};
use sw_dgemm::Variant;
use sw_isa::{Machine, SinkComm};
use sw_lint::{prove_stalls, Bound};
use sw_mem::dma::BandwidthModel;

#[test]
fn proofs_equal_the_engine_on_every_tuner_candidate() {
    let bw = BandwidthModel::calibrated();
    let mut ldm = vec![0.0f64; LDM_DOUBLES];
    // PE and ROW generate the same streams; each distinct one runs once.
    let mut proven = Vec::new();
    for variant in [Variant::Pe, Variant::Row, Variant::Db, Variant::Sched] {
        let req = TuneRequest {
            top_k: 1,
            eval_cap_blocks: Some(1),
            ..TuneRequest::square(variant, 1024)
        };
        let outcome = search(&req, &bw).expect("the shared variants have feasible blockings");
        assert_eq!(outcome.candidates.len(), outcome.stats.feasible);
        assert!(!outcome.candidates.is_empty(), "{variant}");
        for c in &outcome.candidates {
            let p = c.params;
            let key = (p, variant.kernel_style(), variant.double_buffered());
            if proven.contains(&key) {
                continue;
            }
            proven.push(key);
            let (_, prog) = candidate_kernel(&p, variant.kernel_style(), variant.double_buffered());
            let proof = prove_stalls(&prog);
            let (exec, stalls) = Machine::new(&mut ldm, &mut SinkComm).run_probed(&prog);
            let what = format!("{variant} {p:?}");
            assert_eq!(proof.bound, Bound::Exact, "{what}");
            assert_eq!(proof.report, stalls, "{what}: stall report");
            assert_eq!(
                proof.instructions, exec.instructions,
                "{what}: instructions"
            );
        }
    }
}
