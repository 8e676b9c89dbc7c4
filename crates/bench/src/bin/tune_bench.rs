//! `tune_bench` — sweep and gate harness for the staged block-size
//! autotuner, writing `BENCH_tune.json`.
//!
//! Sweeps the paper's square shape plus Fig. 7-style skinny shapes,
//! tall-skinny shapes the hand-picked blocking over-rounds, and a
//! small-batch shape. For each, the staged search runs end to end
//! (enumerate → lint → analytic/stall-prover rank → timed top-k with
//! the paper baseline seeded), and three properties gate:
//!
//! 1. **tuned ≥ paper** on every non-paper shape, *strictly* better on
//!    at least one tall-skinny shape (the paper's bN = 256 CG block
//!    rounds n = 96 up 2.7× — a tuner that cannot beat that is not
//!    tuning);
//! 2. **cheap pruning**: on every shape, the analytic + stall-prover
//!    ranking discards ≥ 80% of feasible candidates before any timed
//!    run;
//! 3. **warm cache ≈ free**: resolving a shape already in the tune
//!    cache performs no search (the `tune.searches` counter does not
//!    move) and costs at most 1% of the cold search, and the cache
//!    file round-trips across a fresh instance (a new process);
//! 4. **ranking unchanged**: every shape tunes to the blocking, and
//!    counts the feasible candidates, that the committed
//!    `BENCH_tune.json` records for the same profile. The search is
//!    deterministic, so a change to the stall prover, the lint or the
//!    model that moves the ranking fails here until the record is
//!    regenerated on purpose.
//!
//! ```text
//! tune-bench [--short] [--assert]
//! ```
//!
//! `--short` runs the CI profile (smaller shapes) and writes
//! `BENCH_tune_short.json`, leaving the committed full-profile numbers
//! untouched. `--assert` makes every gate fatal (exit 1).

use std::time::Instant;
use sw_bench::json_number;
use sw_dgemm::tunecache::TuneCache;
use sw_dgemm::tuner::{resolve_in, search, TunePolicy, TuneRequest};
use sw_dgemm::Variant;
use sw_mem::dma::BandwidthModel;
use sw_probe::metrics;

struct Cli {
    short: bool,
    assert_gate: bool,
}

fn parse_cli() -> Cli {
    let mut cli = Cli {
        short: false,
        assert_gate: false,
    };
    for a in std::env::args().skip(1) {
        match a.as_str() {
            "--short" => cli.short = true,
            "--assert" => cli.assert_gate = true,
            other => {
                eprintln!("unknown flag {other}; usage: tune-bench [--short] [--assert]");
                std::process::exit(2);
            }
        }
    }
    cli
}

#[derive(Clone, Copy, PartialEq)]
enum Kind {
    Paper,
    Fig7,
    TallSkinny,
    Small,
}

impl Kind {
    fn name(self) -> &'static str {
        match self {
            Kind::Paper => "paper",
            Kind::Fig7 => "fig7",
            Kind::TallSkinny => "tall_skinny",
            Kind::Small => "small",
        }
    }
}

struct Shape {
    name: &'static str,
    m: usize,
    n: usize,
    k: usize,
    kind: Kind,
}

fn shapes(short: bool) -> Vec<Shape> {
    let s = |name, m, n, k, kind| Shape {
        name,
        m,
        n,
        k,
        kind,
    };
    if short {
        vec![
            s("paper_square", 1536, 1536, 1536, Kind::Paper),
            s("fig7_small_m", 384, 1536, 1536, Kind::Fig7),
            s("tall_skinny_n96", 1536, 96, 1536, Kind::TallSkinny),
            s("small_batch", 768, 384, 768, Kind::Small),
        ]
    } else {
        vec![
            s("paper_square", 9216, 9216, 9216, Kind::Paper),
            s("fig7_small_m", 1536, 9216, 9216, Kind::Fig7),
            s("fig7_small_k", 9216, 9216, 1536, Kind::Fig7),
            s("tall_skinny_n96", 4608, 96, 4608, Kind::TallSkinny),
            s("tall_skinny_n256", 9216, 256, 4608, Kind::TallSkinny),
            s("small_batch", 768, 384, 768, Kind::Small),
        ]
    }
}

struct Row {
    shape: &'static str,
    kind: Kind,
    dims: (usize, usize, usize),
    tuned: sw_dgemm::BlockingParams,
    tuned_gflops: f64,
    paper_gflops: f64,
    ratio: f64,
    enumerated: usize,
    feasible: usize,
    timed: usize,
    pruned_pct: f64,
    search_ms: f64,
}

/// Cache-phase measurements backing gate 3.
struct CacheProbe {
    search_ms: f64,
    hit_us: f64,
    searches_during_hit: u64,
    hit_resolved: bool,
    persisted_across_instances: bool,
    consistent: bool,
}

fn probe_cache(top_k: usize) -> CacheProbe {
    // An isolated cache file so the bench never clobbers a user's
    // tune_cache.json.
    let path = std::env::temp_dir().join(format!("tune_bench_cache_{}.json", std::process::id()));
    let _ = std::fs::remove_file(&path);
    let (m, n, k) = (256, 128, 256);
    let (t, be) = (Default::default(), Default::default());
    let cache = TuneCache::at(&path);

    let t0 = Instant::now();
    let cold = resolve_in(
        &cache,
        TunePolicy::Search { top_k },
        Variant::Sched,
        m,
        n,
        k,
        t,
        be,
    );
    let search_ms = t0.elapsed().as_secs_f64() * 1e3;

    let searches = metrics::global().counter("tune.searches");
    let before = searches.get();
    let t1 = Instant::now();
    let warm = resolve_in(
        &cache,
        TunePolicy::CacheOnly,
        Variant::Sched,
        m,
        n,
        k,
        t,
        be,
    );
    let hit_us = t1.elapsed().as_secs_f64() * 1e6;
    let searches_during_hit = searches.get() - before;

    // A fresh instance over the same file models the next process.
    let reloaded = TuneCache::at(&path);
    let across = resolve_in(
        &reloaded,
        TunePolicy::CacheOnly,
        Variant::Sched,
        m,
        n,
        k,
        t,
        be,
    );
    let _ = std::fs::remove_file(&path);
    CacheProbe {
        search_ms,
        hit_us,
        searches_during_hit,
        hit_resolved: warm.is_some(),
        persisted_across_instances: across.is_some() && across == cold,
        consistent: warm == cold && cold.is_some(),
    }
}

fn main() {
    let cli = parse_cli();
    let label = if cli.short { "short" } else { "full" };
    let top_k = if cli.short { 6 } else { 8 };
    println!("== tune_bench ({label}): staged autotuner sweep, top_k = {top_k} ==");
    let bw = BandwidthModel::calibrated();
    // The committed record this profile's ranking must reproduce.
    let record = std::fs::read_to_string("BENCH_tune.json")
        .ok()
        .filter(|t| t.contains(&format!("\"profile\": \"{label}\"")));
    let mut gate_misses: Vec<String> = Vec::new();
    let mut rows: Vec<Row> = Vec::new();

    for sh in shapes(cli.short) {
        let req = TuneRequest {
            top_k,
            ..TuneRequest::shaped(Variant::Sched, sh.m, sh.n, sh.k)
        };
        let t0 = Instant::now();
        let outcome = match search(&req, &bw) {
            Ok(o) => o,
            Err(e) => {
                gate_misses.push(format!("{}: search failed: {e}", sh.name));
                continue;
            }
        };
        let search_ms = t0.elapsed().as_secs_f64() * 1e3;
        let best = *outcome.best();
        let paper = outcome
            .timed_for(&Variant::Sched.paper_params())
            .copied()
            .unwrap_or_else(|| {
                gate_misses.push(format!("{}: paper baseline was not timed", sh.name));
                best
            });
        let ratio = best.gflops / paper.gflops;
        let s = outcome.stats;
        println!(
            "{:<16} {:>5}x{:<5}x{:<5} tuned (pM={},pN={},pK={}) {:>6.1} Gflops eff \
             vs paper {:>6.1} ({:.3}x); {} enumerated -> {} feasible -> {} timed \
             ({:.1}% pruned, {:.0} ms)",
            sh.name,
            sh.m,
            sh.n,
            sh.k,
            best.params.pm,
            best.params.pn,
            best.params.pk,
            best.gflops,
            paper.gflops,
            ratio,
            s.enumerated,
            s.feasible,
            s.timed,
            s.pruned_pct(),
            search_ms
        );
        // Gate 1: tuned never loses to the hand-picked blocking off
        // the paper's own shape.
        if sh.kind != Kind::Paper && best.gflops < paper.gflops {
            gate_misses.push(format!(
                "{}: tuned {:.1} Gflops lost to the paper blocking's {:.1}",
                sh.name, best.gflops, paper.gflops
            ));
        }
        // Gate 2 (per shape): the cheap stages, not the timed stage,
        // must do the pruning.
        if s.pruned_pct() < 80.0 {
            gate_misses.push(format!(
                "{}: only {:.1}% of feasible candidates pruned before timing",
                sh.name,
                s.pruned_pct()
            ));
        }
        rows.push(Row {
            shape: sh.name,
            kind: sh.kind,
            dims: (sh.m, sh.n, sh.k),
            tuned: best.params,
            tuned_gflops: best.gflops,
            paper_gflops: paper.gflops,
            ratio,
            enumerated: s.enumerated,
            feasible: s.feasible,
            timed: s.timed,
            pruned_pct: s.pruned_pct(),
            search_ms,
        });
    }

    // Gate 4: each shape's ranking matches the committed record.
    match &record {
        Some(text) => {
            for r in &rows {
                let Some(line) = text
                    .lines()
                    .find(|l| l.contains(&format!("\"shape\": \"{}\"", r.shape)))
                else {
                    gate_misses.push(format!("{}: no committed ranking to compare", r.shape));
                    continue;
                };
                let got = [
                    r.dims.0, r.dims.1, r.dims.2, r.tuned.pm, r.tuned.pn, r.tuned.pk, r.feasible,
                ];
                let keys = [
                    "m", "n", "k", "tuned_pm", "tuned_pn", "tuned_pk", "feasible",
                ];
                let want = keys.map(|k| json_number(line, k).map_or(-1, |x| x as i64));
                if got.map(|x| x as i64) != want {
                    gate_misses.push(format!(
                        "{}: ranking moved: (m, n, k, pM, pN, pK, feasible) = {got:?}, \
                         committed {want:?}; regenerate BENCH_tune.json if deliberate",
                        r.shape
                    ));
                }
            }
            println!(
                "ranking  : {} shapes checked against BENCH_tune.json",
                rows.len()
            );
        }
        None => println!("ranking  : no committed {label}-profile record; not checked"),
    }

    // Gate 1b: strictly better somewhere tall-skinny.
    let strict = rows
        .iter()
        .filter(|r| r.kind == Kind::TallSkinny)
        .max_by(|a, b| a.ratio.total_cmp(&b.ratio));
    match strict {
        Some(r) if r.ratio > 1.02 => {
            println!(
                "strict   : {} beats the paper blocking {:.2}x on a tall-skinny shape",
                r.shape, r.ratio
            );
        }
        Some(r) => gate_misses.push(format!(
            "no strict tall-skinny win: best ratio {:.3} ({})",
            r.ratio, r.shape
        )),
        None => gate_misses.push("sweep has no tall-skinny shape".into()),
    }

    // Gate 3: warm cache hits are free.
    let cache = probe_cache(top_k.min(4));
    println!(
        "cache    : cold search {:.1} ms; warm hit {:.1} us ({} searches during hit); \
         round-trips across instances: {}",
        cache.search_ms, cache.hit_us, cache.searches_during_hit, cache.persisted_across_instances
    );
    if !cache.hit_resolved || !cache.consistent {
        gate_misses.push("warm cache hit failed to resolve the cold search's winner".into());
    }
    if cache.searches_during_hit != 0 {
        gate_misses.push(format!(
            "warm cache hit ran {} search(es); hits must be search-free",
            cache.searches_during_hit
        ));
    }
    let hit_budget_us = (cache.search_ms * 1e3 / 100.0).max(1000.0);
    if cache.hit_us > hit_budget_us {
        gate_misses.push(format!(
            "warm cache hit cost {:.0} us, over the {:.0} us budget (1% of search, floor 1 ms)",
            cache.hit_us, hit_budget_us
        ));
    }
    if !cache.persisted_across_instances {
        gate_misses.push("tune cache did not round-trip across instances".into());
    }

    let prune_min = rows
        .iter()
        .map(|r| r.pruned_pct)
        .fold(f64::INFINITY, f64::min);
    let pass = gate_misses.is_empty();
    println!();
    if pass {
        println!("gates: PASS (tuned >= paper off-shape, strict tall-skinny win, >=80% pruned, free warm hits)");
    } else {
        for miss in &gate_misses {
            eprintln!("GATE MISS: {miss}");
        }
    }

    let path = if cli.short {
        "BENCH_tune_short.json"
    } else {
        "BENCH_tune.json"
    };
    let shape_rows = rows
        .iter()
        .map(|r| {
            format!(
                "    {{\"shape\": \"{}\", \"kind\": \"{}\", \"m\": {}, \"n\": {}, \"k\": {}, \
                 \"tuned_pm\": {}, \"tuned_pn\": {}, \"tuned_pk\": {}, \
                 \"tuned_gflops\": {:.2}, \"paper_gflops\": {:.2}, \"ratio\": {:.4}, \
                 \"enumerated\": {}, \"feasible\": {}, \"timed\": {}, \
                 \"pruned_pct\": {:.1}, \"search_ms\": {:.1}}}",
                r.shape,
                r.kind.name(),
                r.dims.0,
                r.dims.1,
                r.dims.2,
                r.tuned.pm,
                r.tuned.pn,
                r.tuned.pk,
                r.tuned_gflops,
                r.paper_gflops,
                r.ratio,
                r.enumerated,
                r.feasible,
                r.timed,
                r.pruned_pct,
                r.search_ms
            )
        })
        .collect::<Vec<_>>()
        .join(",\n");
    let json = format!(
        concat!(
            "{{\n",
            "  \"schema\": 1,\n",
            "  \"profile\": \"{}\",\n",
            "  \"variant\": \"SCHED\",\n",
            "  \"top_k\": {},\n",
            "  \"shapes\": [\n{}\n  ],\n",
            "  \"prune_min_pct\": {:.1},\n",
            "  \"strict_tall_skinny_ratio\": {:.4},\n",
            "  \"cache_search_ms\": {:.2},\n",
            "  \"cache_hit_us\": {:.1},\n",
            "  \"cache_hit_searches\": {},\n",
            "  \"pass\": {}\n",
            "}}\n"
        ),
        label,
        top_k,
        shape_rows,
        prune_min,
        strict.map_or(0.0, |r| r.ratio),
        cache.search_ms,
        cache.hit_us,
        cache.searches_during_hit,
        pass
    );
    std::fs::write(path, &json).unwrap_or_else(|e| panic!("failed to write {path}: {e}"));
    println!("wrote {path}");

    if !pass && cli.assert_gate {
        std::process::exit(1);
    }
    if !pass {
        eprintln!("(advisory run: rerun with --assert to make the gates fatal)");
    }
}
