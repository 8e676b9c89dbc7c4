//! Bounded broadcast rings and the backoff they wait with.
//!
//! The mesh gives every mesh row and every mesh column one
//! [`BroadcastRing`]: a circular buffer of words shared by the line's
//! eight CPEs. A broadcast writes each word once, and every other
//! member reads it through its own cursor — the host analogue of one
//! hardware put reaching all seven mates. Each slot carries a skip mask
//! of the members that must step over the word: always the sender
//! itself, plus any mate the fault injector dropped the word for.
//!
//! All CPEs of a run are fibers on one thread (see [`sw_check::fiber`]),
//! so a ring is plain single-thread memory: its cursors are `Cell`s and
//! the type is neither `Send` nor `Sync`. The slots are stored as
//! struct-of-arrays, a word array and a skip-mask array.
//!
//! *Depth and slots.* A sender may run at most `depth` words ahead of
//! the slowest member that still needs a word; that is the ring's
//! back-pressure ([`Episode::room`]). The ring has twice as many slots
//! as its depth, so a member's last `depth` consumed words stay intact
//! until it consumes more: a receiver consumes words as they arrive,
//! exactly as a copying receive would, and can still borrow them in
//! place afterwards ([`BroadcastRing::window`]). The word array also
//! repeats the first `depth` slots after the last one, so any run of at
//! most `depth` slots is one contiguous slice whatever its start. A
//! sender publishes a run of words with slice copies and one tail
//! update ([`Episode::publish`]); a receiver consumes its words as runs
//! of slots ([`BroadcastRing::pop_runs`]).
//!
//! One producer at a time: a sender claims the ring for a whole episode
//! ([`BroadcastRing::try_claim`] sets a flag that the returned
//! [`Episode`] clears on drop). The collective schedule never has two
//! senders on one line in one strip step — `sw-lint` proves that
//! statically — and the port layer's per-line turn (`turn.rs`) orders
//! the steps' senders. The claim keeps a schedule that breaks either
//! rule from interleaving two senders' words within an episode.
//!
//! A sender with no unread words on the line when it claims the ring is
//! *caught up*: its own cursor guards nothing, so fullness is judged on
//! the other members only, and the episode steps the sender's cursor to
//! the tail when it ends.
//!
//! Blocking is layered on top with [`Backoff`]: a full ring, a ring
//! held by another sender, or missing words on the receive side are
//! waited out by yielding between retries — to the next CPE fiber on
//! the functional runtime, to the OS scheduler elsewhere. A wait gives
//! up with [`crate::MeshError::Deadlock`] once the fiber executor finds
//! the run deadlocked, or once the wall-clock fuse trips; the fuse
//! deadline is armed lazily on the first failed retry, so the
//! uncontended path never reads the clock.

use std::cell::{Cell, UnsafeCell};
use std::mem::MaybeUninit;
use std::time::{Duration, Instant};
use sw_arch::V256;
use sw_check::fiber;

/// Most members one ring serves: the skip mask has one bit per member.
const MAX_MEMBERS: usize = 8;

/// A ring slot's word before the sender writes it.
type Uninit = MaybeUninit<V256>;

/// The words a sender publishes: a slice, or words made on the fly.
/// Either way the ring writes every slot it publishes.
pub(crate) enum Source<'a, F> {
    Slice(&'a [V256]),
    Made(F),
}

impl<'a> Source<'a, fn(usize) -> V256> {
    pub fn slice(words: &'a [V256]) -> Self {
        Source::Slice(words)
    }
}

impl<F: Fn(usize) -> V256> Source<'_, F> {
    /// Writes source words `i..i + dst.len()` into all of `dst` (a
    /// slice too short panics before writing).
    fn fill(&self, i: usize, dst: &mut [Uninit]) {
        match self {
            Source::Slice(src) => {
                let src = &src[i..i + dst.len()];
                for (d, s) in dst.iter_mut().zip(src) {
                    d.write(*s);
                }
            }
            Source::Made(word) => {
                for (k, d) in dst.iter_mut().enumerate() {
                    d.write(word(i + k));
                }
            }
        }
    }
}

/// A bounded single-producer-at-a-time, multi-consumer ring of mesh
/// words shared by the members of one mesh row or column.
///
/// Cursors are free-running and wrapped with a mask, so the depth must
/// be a power of two. Words are [`MaybeUninit`], so the buffer costs no
/// initialization; only published slots are ever read.
pub(crate) struct BroadcastRing {
    /// Producer cursor: next slot to fill.
    tail: Cell<usize>,
    /// Set while a sender holds the ring for an episode.
    claimed: Cell<bool>,
    /// Per-member cursors: next slot that member reads.
    heads: Box<[Cell<usize>]>,
    /// Slot `s` at position `s`, and slots below `depth` once more at
    /// `2 · depth + s`.
    words: Box<[UnsafeCell<Uninit>]>,
    /// Per-slot skip masks: bit `m` set, member `m` steps over the word.
    skip: Box<[Cell<u8>]>,
    /// How far the sender may run ahead of a guarding member.
    depth: usize,
    /// Slot mask: the ring has `2 · depth` slots.
    mask: usize,
}

impl BroadcastRing {
    pub fn new(members: usize, depth: usize) -> Self {
        assert!(depth.is_power_of_two(), "ring depth must be a power of two");
        assert!(
            (1..=MAX_MEMBERS).contains(&members),
            "a ring serves 1..={MAX_MEMBERS} members"
        );
        BroadcastRing {
            tail: Cell::new(0),
            claimed: Cell::new(false),
            heads: (0..members).map(|_| Cell::new(0)).collect(),
            words: (0..3 * depth)
                .map(|_| UnsafeCell::new(MaybeUninit::uninit()))
                .collect(),
            skip: (0..2 * depth).map(|_| Cell::new(0)).collect(),
            depth,
            mask: 2 * depth - 1,
        }
    }

    /// Slots in the ring.
    fn slots(&self) -> usize {
        self.mask + 1
    }

    /// The skip mask of slot `idx` (a free-running cursor value).
    #[inline]
    fn skip_at(&self, idx: usize) -> u8 {
        self.skip[idx & self.mask].get()
    }

    /// Pointer to position `at` of the word array.
    #[inline]
    fn word_ptr(&self, at: usize) -> *mut V256 {
        UnsafeCell::raw_get(self.words[at..].as_ptr()).cast()
    }

    /// Writes source words `i..i + len` into slots `slot..` (`slot +
    /// len` at most the slot count), then repeats those below `depth`.
    fn put<F: Fn(usize) -> V256>(&self, slot: usize, src: &Source<F>, i: usize, len: usize) {
        let at = self.word_ptr(slot);
        // SAFETY: both ranges lie inside the word array, and the
        // producer writes only slots no member still needs (see
        // `Episode::publish`), so no other reference to them is live.
        // `fill` initializes all `len` words before the repeat copies
        // them.
        unsafe {
            src.fill(i, std::slice::from_raw_parts_mut(at.cast(), len));
            let repeat = len.min(self.depth.saturating_sub(slot));
            if repeat > 0 {
                let copy = self.word_ptr(self.slots() + slot);
                std::ptr::copy_nonoverlapping(at, copy, repeat);
            }
        }
    }

    /// Steps member `pos`'s cursor over published slots masked off for
    /// it and returns the cursor.
    fn skip_masked(&self, pos: usize) -> usize {
        let bit = 1u8 << pos;
        let tail = self.tail.get();
        let mut head = self.heads[pos].get();
        while head != tail && self.skip_at(head) & bit != 0 {
            head = head.wrapping_add(1);
        }
        self.heads[pos].set(head);
        head
    }

    /// Claims the ring for one sending episode as member `pos`, or
    /// `None` while another member holds it.
    pub fn try_claim(&self, pos: usize) -> Option<Episode<'_>> {
        if self.claimed.replace(true) {
            return None;
        }
        // Step over published words masked off for us (our own earlier
        // words, or words dropped on our link) so that a sender whose
        // only backlog is such words still counts as caught up.
        let caught_up = self.skip_masked(pos) == self.tail.get();
        Some(Episode {
            ring: self,
            pos,
            caught_up,
        })
    }

    /// The union of the skip masks of the `n` slots from cursor value
    /// `from` (`n` at most the slot count).
    fn skip_union(&self, from: usize, n: usize) -> u8 {
        let at = from & self.mask;
        let wrap = (at + n).saturating_sub(self.slots());
        // A branch-free fold: it vectorizes, unlike a search that stops
        // at the first hit.
        let union = |s: &[Cell<u8>]| s.iter().fold(0, |m, c| m | c.get());
        union(&self.skip[at..at + n - wrap]) | union(&self.skip[..wrap])
    }

    /// The words of the `n` published slots from cursor value `start`
    /// (`n` at most `depth`). They stay intact while every member that
    /// guards the producer is within `depth` slots of `start`: a
    /// receiver that borrows the words it consumed last must not
    /// consume more while it holds them.
    pub fn window(&self, start: usize, n: usize) -> &[V256] {
        let behind = self.tail.get().wrapping_sub(start);
        assert!(
            n <= self.depth && (n..=self.slots()).contains(&behind),
            "a window is at most `depth` published slots not yet rewritten"
        );
        // SAFETY: the slots are published and not yet rewritten (the
        // producer rewrites a slot a whole slot count after writing
        // it), so their words are initialized at both copies, and
        // positions `at..at + n` lie inside the word array (`at` is
        // below the slot count, `n` at most `depth`). While the caller
        // keeps the guarding cursors within `depth` of `start`, the
        // producer stays within `2 · depth` of it (`Episode::room`) and
        // rewrites none of them.
        unsafe { std::slice::from_raw_parts(self.word_ptr(start & self.mask), n) }
    }

    /// Member `pos`'s cursor.
    #[cfg(test)]
    pub fn head(&self, pos: usize) -> usize {
        self.heads[pos].get()
    }

    /// Member `pos` consumes up to `limit` of its unread words, oldest
    /// first, stepping over words masked off for it, and returns how
    /// many it consumed. The consumed slots are handed to `run` as
    /// unbroken runs `(start, len)` of cursor values, each at most
    /// `depth` long and consumed before `run` sees it: borrow their
    /// words with [`Self::window`].
    pub fn pop_runs(&self, pos: usize, limit: usize, mut run: impl FnMut(usize, usize)) -> usize {
        let bit = 1u8 << pos;
        let tail = self.tail.get();
        let mut head = self.heads[pos].get();
        let mut got = 0;
        while head != tail && got < limit {
            let k = tail.wrapping_sub(head).min(limit - got).min(self.depth);
            // The whole stretch at once when nothing in it is masked
            // off for us, else up to the first masked slot.
            let mut len = k;
            if self.skip_union(head, k) & bit != 0 {
                len = (0..k)
                    .position(|i| self.skip_at(head.wrapping_add(i)) & bit != 0)
                    .unwrap_or(k);
            }
            let start = head;
            head = head.wrapping_add(len.max(1));
            self.heads[pos].set(head);
            if len > 0 {
                run(start, len);
                got += len;
            }
        }
        got
    }

    /// Member `pos` dequeues its oldest unread word, if any.
    pub fn try_pop(&self, pos: usize) -> Option<V256> {
        let mut at = None;
        self.pop_runs(pos, 1, |start, _| at = Some(start));
        at.map(|start| self.window(start, 1)[0])
    }
}

/// One sender's hold on a [`BroadcastRing`]; dropping it ends the
/// episode and releases the claim.
pub(crate) struct Episode<'a> {
    ring: &'a BroadcastRing,
    pos: usize,
    /// The sender had no unread words when it claimed the ring, so its
    /// own cursor guards no slot.
    caught_up: bool,
}

impl Episode<'_> {
    /// Words the ring can take now: the sender may run at most `depth`
    /// words ahead of any guarding member.
    pub fn room(&self) -> usize {
        let ring = self.ring;
        let tail = ring.tail.get();
        let lag = (ring.heads.iter().enumerate())
            .filter(|&(m, _)| m != self.pos || !self.caught_up)
            .map(|(_, head)| tail.wrapping_sub(head.get()))
            .max()
            .unwrap_or(0);
        ring.depth - lag
    }

    /// Publishes source words `from..from + n` (`n` at most
    /// [`Self::room`]): the `i`-th reaches every member whose bit in
    /// `skip(i)` is clear (the sender's own bit is added here).
    pub fn publish<F: Fn(usize) -> V256>(
        &self,
        src: &Source<F>,
        from: usize,
        n: usize,
        mut skip: impl FnMut(usize) -> u8,
    ) {
        assert!(n <= self.room(), "publish beyond the ring's room");
        let ring = self.ring;
        let tail = ring.tail.get();
        let own = 1u8 << self.pos;
        for i in 0..n {
            ring.skip[tail.wrapping_add(i) & ring.mask].set(skip(i) | own);
        }
        // Every member that reads or holds a slot is within `depth` of
        // the tail, and these slots are a whole slot count past theirs.
        let at = tail & ring.mask;
        let first = n.min(ring.slots() - at);
        ring.put(at, src, from, first);
        ring.put(0, src, from + first, n - first);
        ring.tail.set(tail.wrapping_add(n));
    }
}

impl Drop for Episode<'_> {
    fn drop(&mut self) {
        let ring = self.ring;
        if self.caught_up {
            // The sender never reads its own words: step past them.
            ring.heads[self.pos].set(ring.tail.get());
        }
        ring.claimed.set(false);
    }
}

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
    pub fn snooze(&mut self) -> bool {
        if fiber::deadlocked() {
            return false;
        }
        let now = Instant::now();
        if now >= *self.deadline.get_or_insert(now + self.timeout) {
            return false;
        }
        if !fiber::suspend() {
            std::thread::yield_now();
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::on_fibers;

    fn w(i: usize) -> V256 {
        V256::splat(i as f64)
    }

    fn ws(range: std::ops::Range<usize>) -> Vec<V256> {
        range.map(w).collect()
    }

    /// Publishes `words` as one episode of member `pos`; panics if
    /// they do not fit.
    fn send(r: &BroadcastRing, pos: usize, words: &[V256]) {
        let ep = r.try_claim(pos).expect("ring is free");
        assert!(ep.room() >= words.len(), "ring unexpectedly full");
        ep.publish(&Source::slice(words), 0, words.len(), |_| 0);
    }

    /// Member `pos` consumes up to `limit` words; returns them and the
    /// runs they came in.
    fn take(r: &BroadcastRing, pos: usize, limit: usize) -> (Vec<V256>, Vec<(usize, usize)>) {
        let (mut got, mut runs) = (Vec::new(), Vec::new());
        r.pop_runs(pos, limit, |start, len| {
            got.extend_from_slice(r.window(start, len));
            runs.push((start, len));
        });
        (got, runs)
    }

    fn drain(r: &BroadcastRing, pos: usize) -> Vec<V256> {
        take(r, pos, usize::MAX).0
    }

    #[test]
    fn fifo_per_receiver_with_two_consumers() {
        let r = BroadcastRing::new(3, 8);
        send(&r, 0, &ws(0..5));
        // The consumers drain at different paces; each sees every word
        // in order.
        assert_eq!(r.try_pop(1), Some(w(0)));
        assert_eq!(r.try_pop(1), Some(w(1)));
        assert_eq!(drain(&r, 2), ws(0..5));
        assert_eq!(drain(&r, 1), ws(2..5));
    }

    #[test]
    fn sender_never_reads_its_own_word() {
        let r = BroadcastRing::new(3, 8);
        send(&r, 1, &[w(7)]);
        assert_eq!(r.try_pop(1), None, "the sender skips its own word");
        assert_eq!(r.try_pop(0), Some(w(7)));
        assert_eq!(r.try_pop(2), Some(w(7)));
        // Member 1 had unread words when member 0 sent, so its own word
        // stays masked off for it while the others read it.
        send(&r, 0, &[w(8)]);
        send(&r, 1, &[w(9)]);
        assert_eq!(drain(&r, 1), [w(8)]);
        assert_eq!(drain(&r, 0), [w(9)]);
    }

    #[test]
    fn drop_mask_hides_a_word_from_exactly_one_receiver() {
        let r = BroadcastRing::new(4, 8);
        let ep = r.try_claim(0).unwrap();
        // Word 2 is lost on member 2's link.
        ep.publish(&Source::Made(|i| w(i + 1)), 0, 3, |i| {
            if i == 1 {
                1 << 2
            } else {
                0
            }
        });
        drop(ep);
        for m in [1, 3] {
            assert_eq!(take(&r, m, 9), (ws(1..4), vec![(0, 3)]), "member {m}");
        }
        let (got, runs) = take(&r, 2, 9);
        assert_eq!(got, [w(1), w(3)], "member 2 never sees word 2");
        assert_eq!(runs, [(0, 1), (2, 1)], "the drop breaks the run");
    }

    #[test]
    fn wraps_around_many_times() {
        let r = BroadcastRing::new(2, 4);
        for i in 0..1000 {
            send(&r, 0, &[w(i)]);
            assert_eq!(r.try_pop(1), Some(w(i)));
        }
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
    fn sender_is_held_at_full_depth_by_the_slowest_receiver() {
        let r = BroadcastRing::new(3, 4);
        let ep = r.try_claim(0).unwrap();
        assert_eq!(ep.room(), 4);
        ep.publish(&Source::Made(w), 0, 4, |_| 0);
        assert_eq!(ep.room(), 0, "a fifth word must not fit");
        // The fast receiver drains everything; the slow one still pins
        // the oldest word, so the ring stays full.
        assert_eq!(drain(&r, 1).len(), 4);
        assert_eq!(ep.room(), 0, "slowest receiver decides");
        assert_eq!(r.try_pop(2), Some(w(0)));
        assert_eq!(ep.room(), 1, "one slot freed");
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
    fn claim_hands_off_between_two_senders_on_fibers() {
        // Two strip steps on one line: member 0 broadcasts, then member
        // 1. Each step streams far more words than the ring holds, so
        // both senders wait on the ring and the hand-off crosses the
        // wrap; every member reads one FIFO in episode order.
        let r = BroadcastRing::new(3, 8);
        let n = 200;
        let (first, second) = (ws(0..n), ws(1000..1000 + n));
        let first_done = Cell::new(false);
        let wait_a_pass = |who: usize| {
            assert!(!fiber::deadlocked(), "member {who} is stuck");
            assert!(fiber::suspend());
        };
        let blocking_send = |pos: usize, words: &[V256]| {
            let ep = loop {
                match r.try_claim(pos) {
                    Some(ep) => break ep,
                    None => wait_a_pass(pos),
                }
            };
            let mut sent = 0;
            while sent < words.len() {
                let run = ep.room().min(words.len() - sent);
                if run == 0 {
                    wait_a_pass(pos);
                    continue;
                }
                ep.publish(&Source::slice(words), sent, run, |_| 0);
                fiber::note_progress();
                sent += run;
            }
        };
        let recv = |pos: usize, want: usize| {
            let mut got = Vec::new();
            while got.len() < want {
                let (words, _) = take(&r, pos, want - got.len());
                if words.is_empty() {
                    wait_a_pass(pos);
                } else {
                    fiber::note_progress();
                    got.extend(words);
                }
            }
            got
        };
        on_fibers(3, |pos| match pos {
            0 => {
                blocking_send(0, &first);
                first_done.set(true);
                assert_eq!(recv(0, n), second);
            }
            1 => {
                assert_eq!(recv(1, n), first);
                while !first_done.get() {
                    wait_a_pass(1);
                }
                blocking_send(1, &second);
            }
            _ => {
                assert_eq!(recv(2, n), first);
                assert_eq!(recv(2, n), second);
            }
        });
        for m in 0..3 {
            assert_eq!(r.try_pop(m), None, "member {m} drained");
        }
    }

    // The `window_*` tests exercise the raw-slice code (the word array
    // with its repeated slots, borrowed windows, the publish copies) on
    // one plain thread, so they run under Miri.

    #[test]
    fn window_borrows_one_run_in_place_at_every_wrap_offset() {
        let depth = 8;
        for offset in 0..2 * depth {
            for n in 1..=depth {
                let r = BroadcastRing::new(2, depth);
                // Move both cursors to `offset`, a depth at a time.
                for from in (0..offset).step_by(depth) {
                    send(&r, 0, &ws(from..offset.min(from + depth)));
                    drain(&r, 1);
                }
                let words = ws(100..100 + n);
                send(&r, 0, &words);
                let (got, runs) = take(&r, 1, n);
                assert_eq!(runs, [(offset, n)], "offset {offset}, n {n}");
                assert_eq!(got, words, "offset {offset}, n {n}");
            }
        }
    }

    #[test]
    fn window_steps_over_leading_masked_words() {
        let r = BroadcastRing::new(3, 8);
        send(&r, 1, &[w(1)]); // member 1's own word
        send(&r, 0, &[w(2), w(3)]);
        assert_eq!(take(&r, 1, 2), (vec![w(2), w(3)], vec![(1, 2)]));
    }

    #[test]
    fn window_stays_intact_while_the_sender_runs_a_depth_ahead() {
        let r = BroadcastRing::new(2, 4);
        send(&r, 0, &ws(0..3));
        let (_, runs) = take(&r, 1, 3);
        let held = r.window(runs[0].0, 3);
        // Member 1 holds its last three words and consumes nothing
        // more; the sender fills the ring to a depth past its cursor,
        // across the end of the slots.
        for round in 0..2 {
            let ep = r.try_claim(0).unwrap();
            assert_eq!(ep.room(), 4 - 2 * round);
            ep.publish(&Source::Made(|i| w(10 + round + i)), 0, 2, |_| 0);
        }
        assert_eq!(held, ws(0..3), "the borrowed words are intact");
        assert_eq!(take(&r, 1, 4).0, [w(10), w(11), w(11), w(12)]);
    }
}
