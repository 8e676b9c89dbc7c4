//! The CG-level schedule, step by step: its explicit step lists for
//! Algorithms 1 and 2, and the two executors that walk it — a
//! functional run's DMA issues and barriers on one CPE, and the timing
//! model's tasks — each matched to the steps in order.

use sw_dgemm::gen::random_matrix;
use sw_dgemm::schedule::{Block, Schedule, Step};
use sw_dgemm::timing::build_shared_dag;
use sw_dgemm::{BlockingParams, DgemmRunner, GemmPlan, Variant};
use sw_mem::dma::BandwidthModel;
use sw_probe::flight::{dma_op_code, EventKind, MPE_RING};
use sw_sim::{CoreGroup, Resource};

/// Test-size blocking (128×64×128 CG blocks).
fn p() -> BlockingParams {
    BlockingParams::test_small()
}

/// A `grid_m × grid_n × grid_k` plan at test size.
fn plan(grid: (usize, usize, usize), double_buffered: bool) -> GemmPlan {
    let p = p();
    let (gm, gn, gk) = grid;
    GemmPlan::new(gm * p.bm(), gn * p.bn(), gk * p.bk(), p, double_buffered).unwrap()
}

/// The steps of `schedule`, in program order.
fn steps(schedule: Schedule) -> Vec<Step> {
    let mut steps = Vec::new();
    schedule.for_each(|step| steps.push(step));
    steps
}

fn load_b(j: usize, l: usize) -> Step {
    Step::LoadB { j, l }
}

fn load_ac(i: usize, l: usize, slot: usize, prefetch: bool) -> Step {
    Step::LoadAc {
        block: Block { i, j: 0, l },
        slot,
        prefetch,
    }
}

fn compute(i: usize, l: usize, slot: usize) -> Step {
    Step::Compute {
        block: Block { i, j: 0, l },
        slot,
    }
}

#[test]
fn algorithm_1_is_serial_per_block() {
    let steps = steps(Schedule::new(&plan((2, 1, 2), false)));
    let mut want = Vec::new();
    for l in 0..2 {
        want.push(load_b(0, l));
        for i in 0..2 {
            want.push(load_ac(i, l, 0, false));
            want.push(compute(i, l, 0));
        }
    }
    assert_eq!(steps, want);
}

#[test]
fn algorithm_2_prefetches_into_the_other_slot_after_a_prologue() {
    let got = steps(Schedule::new(&plan((2, 1, 2), true)));
    let mut want = Vec::new();
    for l in 0..2 {
        want.extend([
            load_b(0, l),
            load_ac(0, l, 0, false), // prologue
            load_ac(1, l, 1, true),  // prefetch of block 1 ...
            compute(0, l, 0),        // ... while block 0 computes
            compute(1, l, 1),
        ]);
    }
    assert_eq!(got, want);

    // Three blocks per (j, l): block 2 reuses slot 0.
    assert_eq!(
        steps(Schedule::new(&plan((3, 1, 1), true))),
        [
            load_b(0, 0),
            load_ac(0, 0, 0, false),
            load_ac(1, 0, 1, true),
            compute(0, 0, 0),
            load_ac(2, 0, 0, true),
            compute(1, 0, 1),
            compute(2, 0, 0),
        ]
    );
}

#[test]
fn a_single_block_row_has_nothing_to_prefetch() {
    for db in [false, true] {
        let got = steps(Schedule::new(&plan((1, 1, 2), db)));
        let mut want = Vec::new();
        for l in 0..2 {
            want.extend([load_b(0, l), load_ac(0, l, 0, false), compute(0, l, 0)]);
        }
        assert_eq!(got, want, "double_buffered = {db}");
    }
}

#[test]
fn blocks_are_numbered_in_schedule_order() {
    let (gm, gn, gk) = (3, 2, 2);
    for db in [false, true] {
        let mut blocks = Vec::new();
        let all = Schedule::new(&plan((gm, gn, gk), db));
        let Ok(()) = all.try_for_each_block(|index, b| {
            blocks.push(b);
            assert_eq!(index as usize, (b.j * gk + b.l) * gm + b.i, "{b:?}");
            Ok::<(), std::convert::Infallible>(())
        });
        assert_eq!(blocks.len(), gm * gn * gk);
        // A block run alone loads its own B and computes out of slot 0.
        let b = blocks[4];
        assert_eq!(
            steps(Schedule::block(b)),
            [
                Step::LoadB { j: b.j, l: b.l },
                Step::LoadAc {
                    block: b,
                    slot: 0,
                    prefetch: false
                },
                Step::Compute { block: b, slot: 0 },
            ]
        );
    }
}

/// The DMA issues (`Some(op)`) and barrier arrivals (`None`) CPE 0
/// makes for `step`. A `ROW_MODE` transfer synchronizes its mesh row
/// first; that barrier is the row scope, not `sync_all`.
fn cpe_events(step: Step, variant: Variant) -> Vec<(EventKind, u32)> {
    let row = variant.mapping() == sw_dgemm::mapping::Mapping::Row;
    let dma = |op: &str| (EventKind::DmaIssue, dma_op_code(op));
    let sync_all = (EventKind::BarrierArrive, 0);
    let sync_row = (EventKind::BarrierArrive, 1);
    let ac = |pe: &str, row_op: &str| {
        if row {
            vec![sync_row, dma(row_op)]
        } else {
            vec![dma(pe)]
        }
    };
    match step {
        Step::LoadB { .. } => vec![dma("pe.get"), sync_all],
        Step::LoadAc { prefetch, .. } => {
            let mut v = ac("pe.get", "row.get");
            v.extend(ac("pe.get", "row.get"));
            if !prefetch {
                v.push(sync_all);
            }
            v
        }
        Step::Compute { .. } => {
            let mut v = ac("pe.put", "row.put");
            v.push(sync_all);
            v
        }
    }
}

#[test]
fn a_functional_run_performs_the_schedule() {
    let p = p();
    let grid = (2, 1, 2);
    let (m, n, k) = (grid.0 * p.bm(), grid.1 * p.bn(), grid.2 * p.bk());
    let a = random_matrix(m, k, 21);
    let b = random_matrix(k, n, 22);
    for v in [Variant::Pe, Variant::Row, Variant::Db, Variant::Sched] {
        let mut c = random_matrix(m, n, 23);
        let mut cg = CoreGroup::new();
        cg.set_flight_capacity(1 << 14);
        DgemmRunner::new(v)
            .params(p)
            .run_on(&mut cg, 1.5, &a, &b, 0.5, &mut c)
            .unwrap();
        let rec = cg.flight();
        for ring in 0..MPE_RING {
            assert!(
                rec.total(ring) as usize <= rec.capacity(),
                "{v}: ring {ring} wrapped"
            );
        }
        let got: Vec<(EventKind, u32)> = rec
            .tail(0)
            .into_iter()
            .filter(|e| matches!(e.kind, EventKind::DmaIssue | EventKind::BarrierArrive))
            .map(|e| (e.kind, e.code))
            .collect();
        let want: Vec<(EventKind, u32)> = steps(Schedule::new(&plan(grid, v.double_buffered())))
            .into_iter()
            .flat_map(|step| cpe_events(step, v))
            .collect();
        assert_eq!(got, want, "{v}");
    }
}

/// The timing model's tasks for `step`, as (resource, label).
fn dag_tasks(step: Step, double_buffered: bool) -> Vec<(Resource, &'static str)> {
    match step {
        Step::LoadB { .. } => vec![(Resource::Dma, "load B")],
        Step::LoadAc { prefetch, .. } => {
            let (a, c) = match (double_buffered, prefetch) {
                (false, _) => ("load A", "load C"),
                (true, false) => ("load A0", "load C0"),
                (true, true) => ("prefetch A", "prefetch C"),
            };
            vec![(Resource::Dma, a), (Resource::Dma, c)]
        }
        Step::Compute { .. } => vec![
            (Resource::Cpes, "block multiply"),
            (Resource::Dma, "store C"),
        ],
    }
}

#[test]
fn the_timing_dag_prices_the_schedule() {
    let p = p();
    let model = BandwidthModel::calibrated();
    for grid in [(2, 1, 2), (3, 2, 2), (1, 1, 2)] {
        let (m, n, k) = (grid.0 * p.bm(), grid.1 * p.bn(), grid.2 * p.bk());
        for v in [Variant::Pe, Variant::Row, Variant::Db, Variant::Sched] {
            let db = v.double_buffered();
            let (dag, _) = build_shared_dag(v, m, n, k, p, &model).unwrap();
            let got: Vec<(Resource, &str)> = dag
                .trace()
                .1
                .into_iter()
                .map(|t| (t.resource, t.label))
                .collect();
            let want: Vec<(Resource, &str)> = steps(Schedule::new(&plan(grid, db)))
                .into_iter()
                .flat_map(|step| dag_tasks(step, db))
                .collect();
            assert_eq!(got, want, "{v} over {grid:?}");
        }
    }
}
