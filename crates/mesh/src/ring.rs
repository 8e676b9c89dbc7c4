//! Lock-free bounded broadcast rings and the backoff they wait with.
//!
//! The mesh's fast path gives every mesh row and every mesh column one
//! [`BroadcastRing`]: a power-of-two circular buffer of words shared by
//! the line's eight CPEs. A broadcast writes each word once, and every
//! other member reads it through its own consumer cursor — the host
//! analogue of one hardware put reaching all seven mates. Each slot
//! carries a skip mask of the members that must step over the word:
//! always the sender itself, plus any mate the fault injector dropped
//! the word for.
//!
//! One producer at a time: a sender claims the ring for a whole episode
//! ([`BroadcastRing::try_claim`], an acquire test-and-set on a flag that
//! the returned [`Episode`] releases on drop). The collective schedule
//! never has two senders on one line in one strip step — `sw-lint`
//! proves that statically — and the port layer's per-line turn
//! (`turn.rs`) orders the steps' senders, which the ring itself knows
//! nothing about. The claim means a schedule that breaks either rule is
//! serialized per episode instead of racing on the slots, so memory
//! safety rests on neither.
//!
//! The producer may not lap the slowest member that still needs a
//! slot. A sender with no unread words on the line when it claims the
//! ring is *caught up*: its own cursor guards nothing, so fullness is
//! judged on the other members only, and the episode steps the
//! sender's cursor to the tail when it ends. The producer caches the
//! limit this implies and reloads the cursors only when it reaches it.
//!
//! Blocking is layered on top with [`Backoff`]: a full ring, a ring
//! held by another sender, or an empty ring on the receive side is
//! waited out by yielding between retries — to the next CPE fiber on
//! the functional runtime (see [`sw_check::fiber`]), to the OS
//! scheduler elsewhere. A wait gives up with
//! [`crate::MeshError::Deadlock`] once the fiber executor finds the run
//! deadlocked, or once the wall-clock fuse trips; the fuse deadline is
//! armed lazily on the first failed retry, so the uncontended path
//! never reads the clock.

// Concurrency vocabulary comes from the sw-check facade: plain `std`
// re-exports in a normal build (zero-cost, the hot path is unchanged),
// checker-instrumented types under `--cfg sw_check` so this exact
// source is model-checked by `check_models`.
use std::mem::MaybeUninit;
use sw_arch::V256;
use sw_check::cell::UnsafeCell;
use sw_check::fiber;
use sw_check::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use sw_check::time::{Duration, Instant};

/// Pads (and aligns) a value to its own 128-byte region so atomics
/// written by different threads — a ring's producer and consumer
/// cursors, a line's strip-step turn — never share a cache line (128
/// covers the 64 B line size plus adjacent-line prefetching).
#[repr(align(128))]
pub(crate) struct CachePadded<T>(pub T);

/// Most members one ring serves: the skip mask has one bit per member.
const MAX_MEMBERS: usize = 8;

/// One published word and the members that must not read it.
#[derive(Clone, Copy)]
struct Slot {
    word: V256,
    /// Bit `m` set: member `m` steps over this word.
    skip: u8,
}

/// The producer's side of a ring, touched only by the claim holder
/// (plus the claim flag itself, which would-be senders test).
struct Producer {
    /// Set while a sender holds the ring for an episode.
    claimed: AtomicBool,
    /// First cursor value the tail may not reach: the slowest guarding
    /// member's cursor plus the capacity. A cache, written back by each
    /// episode; stale values are only ever too low (cursors never move
    /// backwards), which costs a reload, never a lapped reader.
    limit: AtomicUsize,
}

/// A bounded single-producer-at-a-time, multi-consumer ring of mesh
/// words shared by the members of one mesh row or column.
///
/// Capacity must be a power of two (cursors are free-running and
/// wrapped with a mask). Slots hold [`MaybeUninit`] so the buffer
/// costs no initialization; `Slot` is `Copy`, so overwritten slots need
/// no drops.
pub(crate) struct BroadcastRing {
    /// Producer cursor: next slot to fill. Written only by the claim
    /// holder; every member reads it.
    tail: CachePadded<AtomicUsize>,
    producer: CachePadded<Producer>,
    /// Per-member consumer cursors: next slot that member reads.
    /// Written only by that member's thread.
    heads: Box<[CachePadded<AtomicUsize>]>,
    slots: Box<[UnsafeCell<MaybeUninit<Slot>>]>,
    mask: usize,
}

// The slot array is raced only in the disciplined pattern: the claim
// holder writes a slot strictly before publishing it with a release
// tail store, and only once every member that still needs the slot's
// previous word has released its cursor past it (acquire loads in
// `Episode::reload`); a member reads slots strictly after an acquire
// tail load. The claim makes the producer unique, and each cursor has
// one reader thread because the mesh hands each member position to
// exactly one `!Sync` port.
unsafe impl Send for BroadcastRing {}
unsafe impl Sync for BroadcastRing {}

/// Which producer [`Episode::push`] compiles: the sound one, or one of
/// the seeded defects the `cfg(sw_check)` block below exposes to the
/// model-check suite. Production builds only instantiate [`SOUND`].
const SOUND: u8 = 0;
const RELAXED_TAIL: u8 = 1;
const SLOT_AFTER_PUBLISH: u8 = 2;
const IGNORE_LAST_CURSOR: u8 = 3;
const UNCLAIMED: u8 = 4;

impl BroadcastRing {
    pub fn new(members: usize, capacity: usize) -> Self {
        assert!(
            capacity.is_power_of_two(),
            "ring capacity must be a power of two"
        );
        assert!(
            (1..=MAX_MEMBERS).contains(&members),
            "a ring serves 1..={MAX_MEMBERS} members"
        );
        BroadcastRing {
            tail: CachePadded(AtomicUsize::new(0)),
            producer: CachePadded(Producer {
                claimed: AtomicBool::new(false),
                limit: AtomicUsize::new(capacity),
            }),
            heads: (0..members)
                .map(|_| CachePadded(AtomicUsize::new(0)))
                .collect(),
            slots: (0..capacity)
                .map(|_| UnsafeCell::new(MaybeUninit::uninit()))
                .collect(),
            mask: capacity - 1,
        }
    }

    /// Copies out slot `idx` (a free-running cursor value).
    ///
    /// Callers guarantee the slot is published to them and not being
    /// rewritten: see the `Sync` impl.
    #[inline]
    fn read(&self, idx: usize) -> Slot {
        // SAFETY: per the caller contract, the slot was initialized by
        // a publish ordered before this read, and no producer writes it
        // until this reader's cursor has passed it.
        self.slots[idx & self.mask].with(|p| unsafe { (*p).assume_init_read() })
    }

    /// Claims the ring for one sending episode as member `pos`, or
    /// `None` while another member holds it.
    #[inline]
    pub fn try_claim(&self, pos: usize) -> Option<Episode<'_>> {
        self.claim::<SOUND>(pos)
    }

    fn claim<const DEFECT: u8>(&self, pos: usize) -> Option<Episode<'_>> {
        // Test before test-and-set: a waiting sender only reads the
        // flag, so it neither bounces the holder's cache line nor looks
        // like progress to the model checker. The acquire swap pairs
        // with the previous holder's release in `Episode::drop`: its
        // tail, slots and cached limit are ours.
        let claimed = &self.producer.0.claimed;
        if DEFECT != UNCLAIMED
            && (claimed.load(Ordering::Relaxed) || claimed.swap(true, Ordering::Acquire))
        {
            return None;
        }
        // Relaxed: the claim above ordered the last tail store before
        // us, and nobody else writes the tail while we hold the claim.
        let tail = self.tail.0.load(Ordering::Relaxed);
        // Step over published words masked off for us (our own earlier
        // words, or words dropped on our link) so that a sender whose
        // only backlog is such words still counts as caught up. Safe to
        // read: the slots are published and we are the only producer.
        let bit = 1u8 << pos;
        let head = self.heads[pos].0.load(Ordering::Relaxed);
        let mut h = head;
        while h != tail && self.read(h).skip & bit != 0 {
            h = h.wrapping_add(1);
        }
        if h != head {
            self.heads[pos].0.store(h, Ordering::Release);
        }
        let caught_up = h == tail;
        // A cached limit was computed by some sender with its own
        // cursor left out, which is sound for every later caught-up
        // sender (that sender's cursor was then stepped to the tail).
        // A sender with unread words must also guard its own cursor,
        // so it reloads before its first push.
        let limit = if caught_up {
            self.producer.0.limit.load(Ordering::Relaxed)
        } else {
            tail
        };
        Some(Episode {
            ring: self,
            pos,
            tail,
            limit,
            caught_up,
        })
    }

    /// Member `pos` dequeues up to `limit` of its unread words, oldest
    /// first, handing each to `sink`, and returns how many it took.
    /// Words masked off for the member are stepped over. One acquire
    /// load of the tail and at most one release store of the member's
    /// cursor per call, however many words move.
    #[inline]
    pub fn pop_into(&self, pos: usize, limit: usize, mut sink: impl FnMut(V256)) -> usize {
        let bit = 1u8 << pos;
        // Relaxed: only this member writes its own cursor. The acquire
        // on `tail` pairs with the producer's release publish; both
        // pairings are model-checked by `check_models` and the mutants.
        let start = self.heads[pos].0.load(Ordering::Relaxed);
        let tail = self.tail.0.load(Ordering::Acquire);
        let mut head = start;
        let mut got = 0;
        while head != tail && got < limit {
            let slot = self.read(head);
            head = head.wrapping_add(1);
            if slot.skip & bit == 0 {
                sink(slot.word);
                got += 1;
            }
        }
        if head != start {
            self.heads[pos].0.store(head, Ordering::Release);
        }
        got
    }

    /// Member `pos` dequeues its oldest unread word, if any: a
    /// [`BroadcastRing::pop_into`] of at most one word.
    #[inline]
    pub fn try_pop(&self, pos: usize) -> Option<V256> {
        let mut out = None;
        self.pop_into(pos, 1, |v| out = Some(v));
        out
    }
}

/// One sender's hold on a [`BroadcastRing`]; dropping it ends the
/// episode and releases the claim.
pub(crate) struct Episode<'a> {
    ring: &'a BroadcastRing,
    pos: usize,
    /// The ring's tail as this episode has advanced it.
    tail: usize,
    /// Cached fullness bound (see [`Producer::limit`]).
    limit: usize,
    /// The sender had no unread words when it claimed the ring, so its
    /// own cursor guards no slot.
    caught_up: bool,
}

impl Episode<'_> {
    /// Publishes `word` to every member whose bit in `skip` is clear
    /// (the sender's own bit is added here), unless the ring is full.
    #[inline]
    pub fn try_push(&mut self, word: V256, skip: u8) -> bool {
        self.push::<SOUND>(word, skip)
    }

    /// The producer, generic over [`SOUND`] or one seeded defect; the
    /// defect branches are constant-folded away.
    #[inline]
    fn push<const DEFECT: u8>(&mut self, word: V256, skip: u8) -> bool {
        if self.tail == self.limit && !self.reload::<DEFECT>() {
            return false; // full
        }
        let ring = self.ring;
        let tail = self.tail;
        let slot = Slot {
            word,
            skip: skip | 1 << self.pos,
        };
        let publish = if DEFECT == RELAXED_TAIL {
            Ordering::Relaxed // MUTANT: was Ordering::Release.
        } else {
            Ordering::Release
        };
        if DEFECT == SLOT_AFTER_PUBLISH {
            // MUTANT: the publish belongs below the slot write.
            ring.tail.0.store(tail.wrapping_add(1), publish);
        }
        // SAFETY: the claim makes us the only producer, and `limit`
        // proves every guarding member's cursor is past this slot's
        // previous word; the slot stays invisible until the publish.
        ring.slots[tail & ring.mask].with_mut(|p| unsafe { (*p).write(slot) });
        if DEFECT != SLOT_AFTER_PUBLISH {
            ring.tail.0.store(tail.wrapping_add(1), publish);
        }
        self.tail = tail.wrapping_add(1);
        true
    }

    /// Reloads the guarding cursors and recomputes [`Self::limit`].
    /// Returns whether there is room for one more word.
    fn reload<const DEFECT: u8>(&mut self) -> bool {
        let last = self.ring.heads.len() - 1;
        let mut lag = 0;
        for (m, head) in self.ring.heads.iter().enumerate() {
            if m == self.pos && self.caught_up {
                continue;
            }
            if DEFECT == IGNORE_LAST_CURSOR && m == last {
                continue; // MUTANT: every guarding cursor counts.
            }
            // Acquire pairs with the member's release in `try_pop`:
            // its reads of the slots it passed happen before our
            // overwrite.
            lag = lag.max(self.tail.wrapping_sub(head.0.load(Ordering::Acquire)));
        }
        self.limit = self.tail.wrapping_sub(lag).wrapping_add(self.ring.mask + 1);
        self.tail != self.limit
    }
}

impl Drop for Episode<'_> {
    fn drop(&mut self) {
        // The checker tears an explored execution down by unwinding its
        // threads; announcing more ops then would panic inside a panic.
        #[cfg(sw_check)]
        if std::thread::panicking() {
            return;
        }
        let ring = self.ring;
        if self.caught_up {
            // The sender never reads its own words: step past them.
            ring.heads[self.pos].0.store(self.tail, Ordering::Release);
        }
        ring.producer.0.limit.store(self.limit, Ordering::Relaxed);
        ring.producer.0.claimed.store(false, Ordering::Release);
    }
}

/// Seeded defects for the model-check suite ([`crate::check_models`]):
/// the producer above compiled with one deliberate fault each, only
/// under the checker cfg so production builds never contain them.
/// Every mutant must be *caught* by `sw-check` — a mutant that passes
/// means the suite lost its teeth.
#[cfg(sw_check)]
impl BroadcastRing {
    /// `try_claim` that never takes the claim: two senders can then
    /// write the same slot at once.
    pub(crate) fn try_claim_mutant_unclaimed(&self, pos: usize) -> Option<Episode<'_>> {
        self.claim::<UNCLAIMED>(pos)
    }
}

#[cfg(sw_check)]
impl Episode<'_> {
    /// `try_push` with the publishing store weakened to `Relaxed`: a
    /// reader's slot read is no longer ordered after the slot write,
    /// which the checker reports as a data race.
    pub(crate) fn try_push_mutant_relaxed_tail(&mut self, word: V256, skip: u8) -> bool {
        self.push::<RELAXED_TAIL>(word, skip)
    }

    /// `try_push` with the slot write sunk below the publish: a reader
    /// can observe the new tail before the slot holds data.
    pub(crate) fn try_push_mutant_slot_after_publish(&mut self, word: V256, skip: u8) -> bool {
        self.push::<SLOT_AFTER_PUBLISH>(word, skip)
    }

    /// `try_push` whose fullness check ignores the last member's
    /// cursor: the producer can overwrite a slot that member has not
    /// read yet.
    pub(crate) fn try_push_mutant_ignore_cursor(&mut self, word: V256, skip: u8) -> bool {
        self.push::<IGNORE_LAST_CURSOR>(word, skip)
    }
}

/// Under the model checker, virtual time passes only through timed
/// sleeps, so a waiter off a fiber sleeps this quantum where it would
/// yield; that lets the fuse model trip the fuse in bounded virtual
/// time.
#[cfg(sw_check)]
const CHECK_QUANTUM: Duration = Duration::from_micros(50);

/// Yield-and-retry waiter with a lazily armed wall-clock fuse.
///
/// Each [`Backoff::snooze`] yields once: to the next CPE fiber when
/// the caller runs on one, to the OS scheduler otherwise. The fuse
/// deadline is read from the clock on the first snooze, so a wait that
/// resolves at its first attempt never reads the clock.
pub(crate) struct Backoff {
    timeout: Duration,
    deadline: Option<Instant>,
}

impl Backoff {
    pub fn new(timeout: Duration) -> Self {
        Backoff {
            timeout,
            deadline: None,
        }
    }

    /// Waits one round. Returns `false` once the fiber executor has
    /// found the run deadlocked or the fuse has tripped.
    #[inline]
    pub fn snooze(&mut self) -> bool {
        if fiber::deadlocked() {
            return false;
        }
        let now = Instant::now();
        if now >= *self.deadline.get_or_insert(now + self.timeout) {
            return false;
        }
        Self::pause();
        true
    }

    #[inline]
    fn pause() {
        #[cfg(not(sw_check))]
        sw_check::thread::yield_now();
        #[cfg(sw_check)]
        if !fiber::suspend() {
            sw_check::thread::sleep(CHECK_QUANTUM);
        }
    }
}

/// Seeded defect for the model-check suite: see the producer mutant
/// block above.
#[cfg(sw_check)]
impl Backoff {
    /// `snooze` with the deadline check skipped: the fuse never trips,
    /// so a peer that never drains keeps this thread waiting forever —
    /// which the checker reports as a livelock.
    pub(crate) fn snooze_mutant_fuse_skip(&mut self) -> bool {
        // MUTANT: the deadline arm + check belong here.
        Self::pause();
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Barrier;

    fn w(i: usize) -> V256 {
        V256::splat(i as f64)
    }

    /// Pushes `words` as one episode of member `pos`; panics if full.
    fn send(r: &BroadcastRing, pos: usize, words: impl IntoIterator<Item = V256>) {
        let mut ep = r.try_claim(pos).expect("ring is free");
        for v in words {
            assert!(ep.try_push(v, 0), "ring unexpectedly full");
        }
    }

    #[test]
    fn fifo_per_receiver_with_two_consumers() {
        let r = BroadcastRing::new(3, 8);
        send(&r, 0, (0..5).map(w));
        // The consumers drain at different paces; each sees every word
        // in order.
        assert_eq!(r.try_pop(1), Some(w(0)));
        assert_eq!(r.try_pop(1), Some(w(1)));
        for i in 0..5 {
            assert_eq!(r.try_pop(2), Some(w(i)));
        }
        assert_eq!(r.try_pop(2), None);
        for i in 2..5 {
            assert_eq!(r.try_pop(1), Some(w(i)));
        }
        assert_eq!(r.try_pop(1), None);
    }

    #[test]
    fn sender_never_reads_its_own_word() {
        let r = BroadcastRing::new(3, 8);
        send(&r, 1, [w(7)]);
        assert_eq!(r.try_pop(1), None, "the sender skips its own word");
        assert_eq!(r.try_pop(0), Some(w(7)));
        assert_eq!(r.try_pop(2), Some(w(7)));
        // Member 1 had unread words when member 0 sent, so its own word
        // stays masked off for it while the others read it.
        send(&r, 0, [w(8)]);
        send(&r, 1, [w(9)]);
        assert_eq!(r.try_pop(1), Some(w(8)));
        assert_eq!(r.try_pop(1), None);
        assert_eq!(r.try_pop(0), Some(w(9)));
        assert_eq!(r.try_pop(0), None);
    }

    #[test]
    fn drop_mask_hides_a_word_from_exactly_one_receiver() {
        let r = BroadcastRing::new(4, 8);
        let mut ep = r.try_claim(0).unwrap();
        assert!(ep.try_push(w(1), 0));
        assert!(ep.try_push(w(2), 1 << 2)); // lost on member 2's link
        assert!(ep.try_push(w(3), 0));
        drop(ep);
        for m in [1, 3] {
            let got: Vec<_> = std::iter::from_fn(|| r.try_pop(m)).collect();
            assert_eq!(got, vec![w(1), w(2), w(3)], "member {m}");
        }
        let got: Vec<_> = std::iter::from_fn(|| r.try_pop(2)).collect();
        assert_eq!(got, vec![w(1), w(3)], "member 2 never sees word 2");
    }

    #[test]
    fn wraps_around_many_times() {
        let r = BroadcastRing::new(2, 4);
        for i in 0..1000 {
            send(&r, 0, [w(i)]);
            assert_eq!(r.try_pop(1), Some(w(i)));
        }
    }

    #[test]
    fn sender_blocks_at_full_depth_until_the_slowest_receiver_drains() {
        let r = BroadcastRing::new(3, 4);
        let mut ep = r.try_claim(0).unwrap();
        for i in 0..4 {
            assert!(ep.try_push(w(i), 0));
        }
        assert!(!ep.try_push(w(4), 0), "fifth push must report full");
        // The fast receiver drains everything; the slow one still pins
        // the oldest slot, so the ring stays full.
        for i in 0..4 {
            assert_eq!(r.try_pop(1), Some(w(i)));
        }
        assert!(!ep.try_push(w(4), 0), "slowest receiver decides");
        assert_eq!(r.try_pop(2), Some(w(0)));
        assert!(ep.try_push(w(4), 0), "one slot freed");
        assert!(!ep.try_push(w(5), 0));

        // Threaded: the sender waits out a receiver that starts late.
        drop(ep);
        let r = BroadcastRing::new(3, 4);
        let n = 64;
        std::thread::scope(|s| {
            s.spawn(|| {
                let mut ep = r.try_claim(0).unwrap();
                let mut b = Backoff::new(Duration::from_secs(10));
                for i in 0..n {
                    while !ep.try_push(w(i), 0) {
                        assert!(b.snooze(), "producer timed out");
                    }
                }
            });
            for m in [1, 2] {
                let r = &r;
                s.spawn(move || {
                    if m == 2 {
                        std::thread::sleep(std::time::Duration::from_millis(20));
                    }
                    let mut b = Backoff::new(Duration::from_secs(10));
                    for i in 0..n {
                        let v = loop {
                            match r.try_pop(m) {
                                Some(v) => break v,
                                None => assert!(b.snooze(), "consumer timed out"),
                            }
                        };
                        assert_eq!(v, w(i));
                    }
                });
            }
        });
    }

    /// Blocking receive of `n` words as member `pos`.
    fn recv_n(r: &BroadcastRing, pos: usize, n: usize) -> Vec<V256> {
        let mut b = Backoff::new(Duration::from_secs(10));
        let mut got = Vec::with_capacity(n);
        while got.len() < n {
            match r.try_pop(pos) {
                Some(v) => got.push(v),
                None => assert!(b.snooze(), "member {pos} timed out"),
            }
        }
        got
    }

    /// Blocking send of `words` as one episode of member `pos`.
    fn send_blocking(r: &BroadcastRing, pos: usize, words: impl IntoIterator<Item = V256>) {
        let mut b = Backoff::new(Duration::from_secs(10));
        let mut ep = loop {
            match r.try_claim(pos) {
                Some(ep) => break ep,
                None => assert!(b.snooze(), "member {pos} never got the claim"),
            }
        };
        for v in words {
            while !ep.try_push(v, 0) {
                assert!(b.snooze(), "member {pos} timed out sending");
            }
        }
    }

    #[test]
    fn claim_hands_off_between_two_senders_across_a_barrier() {
        // Two strip steps on one line: member 0 broadcasts, a barrier,
        // then member 1 broadcasts. Each step streams far more words
        // than the ring holds, so the hand-off also crosses the wrap.
        let r = BroadcastRing::new(3, 8);
        let barrier = Barrier::new(3);
        let n = 200;
        let first: Vec<_> = (0..n).map(w).collect();
        let second: Vec<_> = (1000..1000 + n).map(w).collect();
        std::thread::scope(|s| {
            s.spawn(|| {
                send_blocking(&r, 0, first.clone());
                barrier.wait();
                assert_eq!(recv_n(&r, 0, n), second);
            });
            s.spawn(|| {
                assert_eq!(recv_n(&r, 1, n), first);
                barrier.wait();
                send_blocking(&r, 1, second.clone());
            });
            assert_eq!(recv_n(&r, 2, n), first);
            barrier.wait();
            assert_eq!(recv_n(&r, 2, n), second);
        });
        for m in 0..3 {
            assert_eq!(r.try_pop(m), None, "member {m} drained");
        }
    }

    #[test]
    fn a_held_claim_excludes_other_senders() {
        let r = BroadcastRing::new(2, 8);
        let ep = r.try_claim(0).unwrap();
        assert!(r.try_claim(1).is_none());
        drop(ep);
        assert!(r.try_claim(1).is_some());
    }

    #[test]
    fn backoff_fuse_trips() {
        let mut b = Backoff::new(Duration::from_millis(20));
        let start = Instant::now();
        let mut rounds = 0u64;
        while b.snooze() {
            rounds += 1;
            assert!(rounds < 1_000_000, "fuse never tripped");
        }
        assert!(start.elapsed() >= Duration::from_millis(20));
    }

    #[test]
    fn cursors_do_not_false_share() {
        // The padded producer cursor and each consumer cursor must live
        // ≥128 B apart (the alignment contract the type encodes).
        let r = BroadcastRing::new(8, 8);
        let tail = &r.tail as *const _ as usize;
        let heads: Vec<usize> = r.heads.iter().map(|h| h as *const _ as usize).collect();
        for (i, &h) in heads.iter().enumerate() {
            assert!(h.abs_diff(tail) >= 128);
            for &g in &heads[i + 1..] {
                assert!(h.abs_diff(g) >= 128);
            }
        }
    }
}
