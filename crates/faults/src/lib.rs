//! Deterministic, seeded fault injection for the core-group simulator.
//!
//! A [`FaultSpec`] describes *what* can go wrong (rates and targeted
//! scenarios); a [`FaultInjector`] built from it answers, at each
//! injection site, *whether* something goes wrong — as a pure function
//! of the spec's seed, the site, the current epoch (CG-block index),
//! the recovery attempt, the asking CPE, and that CPE's per-run
//! operation index. Thread interleaving never enters the decision, so
//! the same seed and plan reproduce the same faults on every run — the
//! property the retry/ABFT determinism tests pin down.
//!
//! Injection sites (consulted by `sw-sim` and `sw-mesh`):
//!
//! * **DMA** — transient failures ([`DmaFault::Transient`], retried
//!   with bounded deterministic backoff), payload bit-flips
//!   ([`DmaFault::BitFlip`]) and truncation ([`DmaFault::Truncate`])
//!   applied to the received LDM image;
//! * **LDM** — soft-error bit-flips in a CPE's scratch pad after a
//!   transfer lands;
//! * **mesh** — dropped broadcast words and an artificial *wedge* (a
//!   CPE that silently stops sending), both of which surface as the
//!   structured mesh-deadlock error downstream;
//! * **stuck CPE** — a CPE whose every DMA fails from a given epoch
//!   onward, exhausting the retry budget and triggering graceful
//!   degradation.
//!
//! Every injected fault and every recovery action is counted; a
//! [`FaultStats`] snapshot travels in the DGEMM report and can be
//! published into the `sw-probe` metrics registry under `faults.*`.
//! When no injector is installed nothing is consulted and nothing is
//! published — the disabled path adds zero counters.

use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::Arc;
use sw_probe::metrics::{Counter, Registry};

/// Rates are expressed per-myriad: a rate of `n` means the site fires
/// with probability `n / 10_000` per decision.
pub const MYRIAD: u64 = 10_000;

/// An artificial mesh wedge: from epoch `epoch` onward, CPE `cpe`
/// silently stops broadcasting — its group peers starve and the mesh
/// deadlock fuse trips.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WedgeSpec {
    /// CPE id (0..64) that stops sending.
    pub cpe: usize,
    /// First epoch (CG-block index) at which the wedge is active.
    pub epoch: u64,
}

/// A stuck CPE: from epoch `epoch` onward, every DMA issued by `cpe`
/// fails transiently, exhausting the retry budget.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StuckSpec {
    /// CPE id (0..64) that stops responding.
    pub cpe: usize,
    /// First epoch at which the CPE is stuck.
    pub epoch: u64,
}

/// A reproducible fault plan: one seed plus rates and targeted
/// scenarios. `FaultSpec::seeded(s)` is the all-zero plan with seed
/// `s`; set the fields you want.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultSpec {
    /// Root of all injection decisions.
    pub seed: u64,
    /// Per-myriad rate of transient DMA failures (retryable).
    pub dma_transient_per_myriad: u64,
    /// Transients at a site stop recurring once the in-flight retry
    /// attempt reaches this count, so a bounded retry budget always
    /// converges (a stuck CPE ignores this).
    pub dma_transient_max_retry: u32,
    /// Per-myriad rate of single-bit flips in DMA-received data.
    pub dma_bitflip_per_myriad: u64,
    /// Per-myriad rate of truncated DMA transfers (the tail of the
    /// received image is lost).
    pub dma_truncate_per_myriad: u64,
    /// Per-myriad rate of LDM soft-error bit flips after a transfer.
    pub ldm_bitflip_per_myriad: u64,
    /// Per-myriad rate of dropped mesh broadcast words.
    pub mesh_drop_per_myriad: u64,
    /// Guarantees at least one DMA bit-flip per epoch: the epoch's
    /// designated CPE flips one bit in its first DMA of attempt 0.
    /// Recomputed attempts are clean, so ABFT correction converges.
    pub bitflip_every_epoch: bool,
    /// Artificial mesh wedge, if any.
    pub wedge: Option<WedgeSpec>,
    /// Stuck CPE, if any.
    pub stuck: Option<StuckSpec>,
}

impl FaultSpec {
    /// The empty plan (no faults) with the given seed.
    pub fn seeded(seed: u64) -> Self {
        FaultSpec {
            seed,
            dma_transient_per_myriad: 0,
            dma_transient_max_retry: 2,
            dma_bitflip_per_myriad: 0,
            dma_truncate_per_myriad: 0,
            ldm_bitflip_per_myriad: 0,
            mesh_drop_per_myriad: 0,
            bitflip_every_epoch: false,
            wedge: None,
            stuck: None,
        }
    }
}

/// What the injector decided for one DMA operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DmaFault {
    /// The transfer fails transiently; the caller should back off and
    /// retry.
    Transient,
    /// One bit of the received image flips: doubled-word index is
    /// `word % len`, bit index in `32..64` (high mantissa / exponent /
    /// sign, so corruption is observable above rounding noise).
    BitFlip {
        /// Pseudorandom word selector (caller reduces mod buffer len).
        word: u64,
        /// Bit to flip, in `32..64`.
        bit: u32,
    },
    /// The transfer is cut short: elements from `keep_from(len)` on
    /// never arrive (the caller models the lost tail).
    Truncate {
        /// Pseudorandom cut selector (caller reduces to `1..len`).
        cut: u64,
    },
}

/// Injection-site tags, hashed into every decision.
mod site {
    pub const DMA_TRANSIENT: u64 = 0x01;
    pub const DMA_BITFLIP: u64 = 0x02;
    pub const DMA_TRUNCATE: u64 = 0x03;
    pub const LDM_BITFLIP: u64 = 0x04;
    pub const MESH_DROP: u64 = 0x05;
    pub const EPOCH_FLIP_CPE: u64 = 0x06;
    pub const FLIP_SHAPE: u64 = 0x07;
}

/// SplitMix64 finalizer: a high-quality 64-bit mixing function, used
/// here as a keyed hash so decisions are order-independent.
fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Counts in one [`FaultStats`] group.
macro_rules! stats_counters {
    ($($(#[$doc:meta])* $name:ident),* $(,)?) => {
        /// Injection and recovery tallies of one run. Built by
        /// [`FaultInjector::stats`]; every field is a monotonic count.
        #[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
        pub struct FaultStats {
            $($(#[$doc])* pub $name: u64,)*
        }

        #[derive(Debug, Default)]
        struct LiveCounters {
            $($name: Counter,)*
        }

        impl LiveCounters {
            fn snapshot(&self) -> FaultStats {
                FaultStats { $($name: self.$name.get(),)* }
            }
        }

        impl FaultStats {
            /// Accumulates this snapshot into `reg` under `faults.*`
            /// (dots for the group separator, e.g.
            /// `faults.injected.dma_bitflip`).
            pub fn publish(&self, reg: &Registry) {
                $(reg
                    .counter(concat!("faults.", stringify!($name))
                        .replacen("_", ".", 1)
                        .as_str())
                    .add(self.$name);)*
            }

            /// Sum of all injected-fault counts.
            pub fn total_injected(&self) -> u64 {
                self.injected_dma_transient
                    + self.injected_dma_bitflip
                    + self.injected_dma_truncate
                    + self.injected_ldm_bitflip
                    + self.injected_mesh_drop
                    + self.injected_mesh_wedge
                    + self.injected_stuck_dma
            }
        }
    };
}

stats_counters! {
    /// Transient DMA failures injected.
    injected_dma_transient,
    /// DMA payload bit-flips injected.
    injected_dma_bitflip,
    /// DMA truncations injected.
    injected_dma_truncate,
    /// LDM soft-error bit-flips injected.
    injected_ldm_bitflip,
    /// Mesh broadcast words dropped.
    injected_mesh_drop,
    /// Mesh broadcasts suppressed by the wedge scenario.
    injected_mesh_wedge,
    /// DMA failures injected by the stuck-CPE scenario.
    injected_stuck_dma,
    /// ABFT checksum mismatches detected.
    detected_abft,
    /// Mesh deadlocks surfaced as structured errors.
    detected_mesh_deadlock,
    /// DMA retry budgets exhausted (surfaced as structured errors).
    detected_retry_exhausted,
    /// DMA operations that succeeded after at least one retry.
    recovered_dma_retry,
    /// CG blocks recomputed after an ABFT mismatch, then verified.
    recovered_abft_blocks,
    /// CPEs marked failed and remapped away from.
    recovered_failed_cpes,
    /// CG blocks executed in degraded mode on the surviving grid.
    recovered_degraded_blocks,
}

/// The run-time oracle built from a [`FaultSpec`]. Shared (`Arc`)
/// between the MPE-side runner, the 64 CPE threads, and the mesh
/// ports. All methods are lock-free.
#[derive(Debug)]
pub struct FaultInjector {
    spec: FaultSpec,
    epoch: AtomicU64,
    attempt: AtomicU32,
    counters: LiveCounters,
}

impl FaultInjector {
    /// Builds the shared injector for one run.
    pub fn new(spec: FaultSpec) -> Arc<Self> {
        Arc::new(FaultInjector {
            spec,
            epoch: AtomicU64::new(0),
            attempt: AtomicU32::new(0),
            counters: LiveCounters::default(),
        })
    }

    /// The plan this injector executes.
    pub fn spec(&self) -> &FaultSpec {
        &self.spec
    }

    /// Positions the injector at a CG block (`epoch`) and recovery
    /// `attempt`. Called by the MPE-side runner between block runs —
    /// never concurrently with CPE-side decisions.
    pub fn set_epoch(&self, epoch: u64, attempt: u32) {
        self.epoch.store(epoch, Ordering::Relaxed);
        self.attempt.store(attempt, Ordering::Relaxed);
    }

    /// Current `(epoch, attempt)`.
    pub fn position(&self) -> (u64, u32) {
        (
            self.epoch.load(Ordering::Relaxed),
            self.attempt.load(Ordering::Relaxed),
        )
    }

    /// Rate decisions fold in the recovery `attempt` so a recomputed
    /// block draws fresh faults — a rate that re-fired identically on
    /// every attempt would make ABFT correction non-convergent.
    fn decide(&self, tag: u64, cpe: usize, op: u64, extra: u64, rate: u64) -> bool {
        if rate == 0 {
            return false;
        }
        let (epoch, attempt) = self.position();
        let pos = epoch.wrapping_mul(64).wrapping_add(attempt as u64);
        let h = mix(self
            .spec
            .seed
            .wrapping_add(mix(tag))
            .wrapping_add(mix(pos << 8 | cpe as u64))
            .wrapping_add(mix(op ^ extra.rotate_left(17))));
        h % MYRIAD < rate
    }

    fn draw(&self, tag: u64, cpe: usize, op: u64) -> u64 {
        let (epoch, attempt) = self.position();
        mix(self
            .spec
            .seed
            .wrapping_add(mix(tag ^ 0xD1CE))
            .wrapping_add(mix(epoch.wrapping_mul(64 + attempt as u64)))
            .wrapping_add(mix((cpe as u64) << 32 | op)))
    }

    /// Is `cpe` stuck at the current epoch?
    pub fn cpe_stuck(&self, cpe: usize) -> bool {
        match self.spec.stuck {
            Some(s) => s.cpe == cpe && self.position().0 >= s.epoch,
            None => false,
        }
    }

    /// Is `cpe` the wedged sender at the current epoch?
    pub fn cpe_wedged(&self, cpe: usize) -> bool {
        match self.spec.wedge {
            Some(w) => w.cpe == cpe && self.position().0 >= w.epoch,
            None => false,
        }
    }

    /// Consulted once per DMA execution attempt: `op` is the CPE's
    /// per-run operation index, `retry` the in-flight retry count.
    /// Returns the fault to apply, if any, and counts it.
    pub fn dma_fault(&self, cpe: usize, op: u64, retry: u32) -> Option<DmaFault> {
        if self.cpe_stuck(cpe) {
            self.counters.injected_stuck_dma.inc();
            return Some(DmaFault::Transient);
        }
        if retry < self.spec.dma_transient_max_retry
            && self.decide(
                site::DMA_TRANSIENT,
                cpe,
                op,
                retry as u64,
                self.spec.dma_transient_per_myriad,
            )
        {
            self.counters.injected_dma_transient.inc();
            return Some(DmaFault::Transient);
        }
        // Payload corruption applies to the attempt that completes;
        // the guaranteed per-epoch flip targets attempt 0 only, so a
        // recomputed block is clean and correction converges.
        let (epoch, attempt) = self.position();
        let epoch_flip = self.spec.bitflip_every_epoch
            && attempt == 0
            && cpe as u64 == mix(self.spec.seed ^ mix(site::EPOCH_FLIP_CPE ^ epoch)) % 64
            && op == 0;
        if epoch_flip
            || self.decide(
                site::DMA_BITFLIP,
                cpe,
                op,
                0,
                self.spec.dma_bitflip_per_myriad,
            )
        {
            self.counters.injected_dma_bitflip.inc();
            let shape = self.draw(site::FLIP_SHAPE, cpe, op);
            return Some(DmaFault::BitFlip {
                word: shape >> 8,
                bit: 32 + (shape & 0x1F) as u32,
            });
        }
        if self.decide(
            site::DMA_TRUNCATE,
            cpe,
            op,
            1,
            self.spec.dma_truncate_per_myriad,
        ) {
            self.counters.injected_dma_truncate.inc();
            return Some(DmaFault::Truncate {
                cut: self.draw(site::DMA_TRUNCATE, cpe, op),
            });
        }
        None
    }

    /// Consulted after a transfer lands: should an LDM soft error flip
    /// a bit of the received image? Returns `(word, bit)` selectors.
    pub fn ldm_fault(&self, cpe: usize, op: u64) -> Option<(u64, u32)> {
        if self.decide(
            site::LDM_BITFLIP,
            cpe,
            op,
            2,
            self.spec.ldm_bitflip_per_myriad,
        ) {
            self.counters.injected_ldm_bitflip.inc();
            let shape = self.draw(site::LDM_BITFLIP, cpe, op);
            Some((shape >> 8, 32 + (shape & 0x1F) as u32))
        } else {
            None
        }
    }

    /// Consulted per broadcast: should this CPE's `send`-th broadcast
    /// word be dropped (not delivered to one mate)?
    pub fn mesh_drop(&self, cpe: usize, send: u64) -> bool {
        let hit = self.decide(
            site::MESH_DROP,
            cpe,
            send,
            3,
            self.spec.mesh_drop_per_myriad,
        );
        if hit {
            self.counters.injected_mesh_drop.inc();
        }
        hit
    }

    /// Counts `n` broadcast words suppressed by the wedge scenario: one
    /// per word, however many words an episode carries.
    pub fn note_wedge_suppressions(&self, n: u64) {
        self.counters.injected_mesh_wedge.add(n);
    }

    /// Counts an ABFT checksum mismatch detection.
    pub fn note_abft_detected(&self) {
        self.counters.detected_abft.inc();
    }

    /// Counts a mesh deadlock surfaced as a structured error.
    pub fn note_mesh_deadlock(&self) {
        self.counters.detected_mesh_deadlock.inc();
    }

    /// Counts a DMA retry budget exhaustion.
    pub fn note_retry_exhausted(&self) {
        self.counters.detected_retry_exhausted.inc();
    }

    /// Counts a DMA operation that succeeded after `retries` > 0.
    pub fn note_dma_recovered(&self, retries: u32) {
        if retries > 0 {
            self.counters.recovered_dma_retry.inc();
        }
    }

    /// Counts a CG block recomputed after an ABFT mismatch.
    pub fn note_abft_corrected(&self) {
        self.counters.recovered_abft_blocks.inc();
    }

    /// Counts a CPE marked failed.
    pub fn note_cpe_failed(&self) {
        self.counters.recovered_failed_cpes.inc();
    }

    /// Counts a CG block executed on the surviving grid.
    pub fn note_degraded_block(&self) {
        self.counters.recovered_degraded_blocks.inc();
    }

    /// Snapshot of all injection/recovery tallies.
    pub fn stats(&self) -> FaultStats {
        self.counters.snapshot()
    }
}

/// Applies a [`DmaFault`] payload effect to a received LDM image.
/// `Transient` is the caller's business (retry); `BitFlip` flips one
/// bit of one double; `Truncate` zeroes the lost tail (the transfer
/// engine clears its landing zone before a cut transfer, so the tail
/// reads as zeros rather than stale data).
pub fn apply_payload_fault(fault: DmaFault, data: &mut [f64]) {
    if data.is_empty() {
        return;
    }
    match fault {
        DmaFault::Transient => {}
        DmaFault::BitFlip { word, bit } => {
            let i = (word % data.len() as u64) as usize;
            data[i] = f64::from_bits(data[i].to_bits() ^ (1u64 << bit));
        }
        DmaFault::Truncate { cut } => {
            let keep = (1 + (cut % (data.len() as u64)) as usize).min(data.len());
            for x in &mut data[keep..] {
                *x = 0.0;
            }
        }
    }
}

/// Flips bit `bit` of double `word % len` in `data` (the LDM
/// soft-error effect).
pub fn apply_ldm_flip(word: u64, bit: u32, data: &mut [f64]) {
    if data.is_empty() {
        return;
    }
    let i = (word % data.len() as u64) as usize;
    data[i] = f64::from_bits(data[i].to_bits() ^ (1u64 << bit));
}

#[cfg(test)]
mod tests {
    use super::*;

    fn busy_spec(seed: u64) -> FaultSpec {
        FaultSpec {
            dma_transient_per_myriad: 500,
            dma_bitflip_per_myriad: 300,
            dma_truncate_per_myriad: 100,
            ldm_bitflip_per_myriad: 200,
            mesh_drop_per_myriad: 50,
            ..FaultSpec::seeded(seed)
        }
    }

    #[test]
    fn decisions_are_deterministic_and_order_independent() {
        let a = FaultInjector::new(busy_spec(42));
        let b = FaultInjector::new(busy_spec(42));
        a.set_epoch(3, 1);
        b.set_epoch(3, 1);
        // Query b in reverse order: pure functions of the coordinates.
        let fwd: Vec<_> = (0..200).map(|op| a.dma_fault(7, op, 0)).collect();
        let rev: Vec<_> = (0..200)
            .rev()
            .map(|op| b.dma_fault(7, op, 0))
            .collect::<Vec<_>>()
            .into_iter()
            .rev()
            .collect();
        assert_eq!(fwd, rev);
        assert_eq!(a.stats(), b.stats());
        assert!(a.stats().total_injected() > 0, "rates high enough to fire");
    }

    #[test]
    fn seeds_differ() {
        let a = FaultInjector::new(busy_spec(1));
        let b = FaultInjector::new(busy_spec(2));
        let fa: Vec<_> = (0..400).map(|op| a.dma_fault(0, op, 0)).collect();
        let fb: Vec<_> = (0..400).map(|op| b.dma_fault(0, op, 0)).collect();
        assert_ne!(fa, fb);
    }

    #[test]
    fn empty_plan_injects_nothing() {
        let inj = FaultInjector::new(FaultSpec::seeded(9));
        for cpe in 0..64 {
            for op in 0..50 {
                assert_eq!(inj.dma_fault(cpe, op, 0), None);
                assert_eq!(inj.ldm_fault(cpe, op), None);
                assert!(!inj.mesh_drop(cpe, op));
            }
        }
        assert_eq!(inj.stats(), FaultStats::default());
        assert_eq!(inj.stats().total_injected(), 0);
    }

    #[test]
    fn epoch_flip_fires_once_per_epoch_on_attempt_zero_only() {
        let spec = FaultSpec {
            bitflip_every_epoch: true,
            ..FaultSpec::seeded(7)
        };
        let inj = FaultInjector::new(spec);
        for epoch in 0..16u64 {
            inj.set_epoch(epoch, 0);
            let hits: Vec<_> = (0..64)
                .filter(|&cpe| matches!(inj.dma_fault(cpe, 0, 0), Some(DmaFault::BitFlip { .. })))
                .collect();
            assert_eq!(hits.len(), 1, "epoch {epoch}: exactly one designated CPE");
            // The recomputation attempt is clean.
            inj.set_epoch(epoch, 1);
            assert!((0..64).all(|cpe| inj.dma_fault(cpe, 0, 0).is_none()));
        }
    }

    #[test]
    fn transients_respect_retry_ceiling() {
        let spec = FaultSpec {
            dma_transient_per_myriad: MYRIAD, // always
            dma_transient_max_retry: 2,
            ..FaultSpec::seeded(3)
        };
        let inj = FaultInjector::new(spec);
        assert_eq!(inj.dma_fault(5, 0, 0), Some(DmaFault::Transient));
        assert_eq!(inj.dma_fault(5, 0, 1), Some(DmaFault::Transient));
        assert_eq!(inj.dma_fault(5, 0, 2), None, "retry 2 clears the ceiling");
    }

    #[test]
    fn recovery_attempts_redraw_rate_faults() {
        // A rate-based decision must not re-fire identically on every
        // recompute attempt, or correction could never converge.
        let inj = FaultInjector::new(busy_spec(12));
        let per_attempt: Vec<Vec<Option<DmaFault>>> = (0..4u32)
            .map(|attempt| {
                inj.set_epoch(5, attempt);
                (0..64).map(|cpe| inj.dma_fault(cpe, 0, 0)).collect()
            })
            .collect();
        assert!(
            per_attempt.windows(2).any(|w| w[0] != w[1]),
            "attempts must draw independently"
        );
    }

    #[test]
    fn stuck_cpe_never_clears() {
        let spec = FaultSpec {
            stuck: Some(StuckSpec { cpe: 11, epoch: 2 }),
            ..FaultSpec::seeded(4)
        };
        let inj = FaultInjector::new(spec);
        inj.set_epoch(1, 0);
        assert_eq!(inj.dma_fault(11, 0, 9), None, "not yet stuck");
        inj.set_epoch(2, 0);
        for retry in 0..10 {
            assert_eq!(inj.dma_fault(11, 0, retry), Some(DmaFault::Transient));
        }
        assert_eq!(inj.dma_fault(12, 0, 0), None, "other CPEs unaffected");
        assert!(inj.cpe_stuck(11));
    }

    #[test]
    fn wedge_targets_one_cpe_from_its_epoch() {
        let spec = FaultSpec {
            wedge: Some(WedgeSpec { cpe: 20, epoch: 1 }),
            ..FaultSpec::seeded(5)
        };
        let inj = FaultInjector::new(spec);
        inj.set_epoch(0, 0);
        assert!(!inj.cpe_wedged(20));
        inj.set_epoch(1, 0);
        assert!(inj.cpe_wedged(20));
        assert!(!inj.cpe_wedged(21));
    }

    #[test]
    fn payload_faults_apply_deterministically() {
        let mut a = vec![1.0f64; 8];
        apply_payload_fault(DmaFault::BitFlip { word: 10, bit: 63 }, &mut a);
        assert_eq!(a[2], -1.0, "sign flip of word 10 % 8");
        let mut b = vec![2.0f64; 8];
        apply_payload_fault(DmaFault::Truncate { cut: 11 }, &mut b);
        assert_eq!(&b[..4], &[2.0; 4]);
        assert_eq!(&b[4..], &[0.0; 4], "tail beyond the cut is lost");
        let mut c = vec![1.5f64; 4];
        apply_ldm_flip(1, 51, &mut c);
        assert_ne!(c[1], 1.5);
    }

    #[test]
    fn stats_publish_under_faults_namespace() {
        let inj = FaultInjector::new(busy_spec(6));
        for op in 0..100 {
            let _ = inj.dma_fault(3, op, 0);
        }
        inj.note_abft_detected();
        inj.note_abft_corrected();
        let reg = Registry::new();
        inj.stats().publish(&reg);
        let snap = reg.snapshot();
        assert_eq!(snap.counter("faults.detected.abft"), Some(1));
        assert_eq!(snap.counter("faults.recovered.abft_blocks"), Some(1));
        assert!(snap.counter("faults.injected.dma_transient").is_some());
    }
}
