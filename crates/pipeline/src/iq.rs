//! Issue queue in hot/cold SoA form with per-state bitmap words.
//!
//! Slots are stable for the lifetime of an entry because the security
//! dependence matrix (in the `condspec` crate) is indexed by IQ position,
//! exactly like the paper's Figure 2.
//!
//! The entry storage is a flat [`IqHot`] record array (`Copy`, no
//! `Option` wrapping — validity lives in the `occupied` bitmap), mirroring
//! `rob.rs`. Scheduling state is kept in four per-slot bit masks
//! maintained incrementally — `occupied`, `unissued`, `ops_ready` and
//! `blocked` — so candidate collection is a word-wise
//! `unissued & ops_ready` and the idle fast-forward's blocked-entry scan
//! is a masked-word walk instead of a full-capacity entry loop. The
//! `ops_ready` bits are driven by the register file's per-register
//! consumer wakeup lists (see `regfile.rs`): a writeback wakes exactly its
//! subscribers.
//!
//! A dense, insertion-ordered snapshot of the occupied entries backs the
//! per-dispatch [`IqEntryView`] slices, so the security-matrix snapshot no
//! longer rebuilds from a full-capacity scan on every dispatch.

use crate::bits;
use crate::policy::{InstClass, IqEntryView};
use crate::regfile::PhysReg;

/// The hot (per-cycle) record of one issue-queue entry.
///
/// Scheduler-visible state (`issued`, `blocked`) is private and mutated
/// only through [`IssueQueue::mark_issued`] and [`IssueQueue::bounce`],
/// which keep the bitmap words coherent with the records; freshly
/// constructed entries are not-issued and not-blocked.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IqHot {
    /// Global sequence number.
    pub seq: u64,
    /// Classification for the security matrix.
    pub class: InstClass,
    /// Source physical registers that must be ready before issue.
    pub srcs: [Option<PhysReg>; 2],
    /// Whether this is a memory instruction (consumes a cache port).
    pub is_mem: bool,
    /// Whether this is a fence.
    pub is_fence: bool,
    issued: bool,
    blocked: bool,
}

impl IqHot {
    /// A fresh, not-yet-issued entry.
    pub fn new(
        seq: u64,
        class: InstClass,
        srcs: [Option<PhysReg>; 2],
        is_mem: bool,
        is_fence: bool,
    ) -> Self {
        IqHot {
            seq,
            class,
            srcs,
            is_mem,
            is_fence,
            issued: false,
            blocked: false,
        }
    }

    /// Whether the entry has issued (and not been bounced back).
    pub fn issued(&self) -> bool {
        self.issued
    }

    /// Whether a hazard filter blocked the entry; it re-issues only once
    /// its security dependences clear.
    pub fn blocked(&self) -> bool {
        self.blocked
    }
}

/// Why an IQ entry bounced back to the not-issued state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum BlockReason {
    /// A hazard filter blocked it; wait for security dependences to clear.
    Security,
    /// An older store's address is unknown and store bypass is disabled.
    StoreAddr,
    /// An older overlapping store's data is not yet available.
    StoreData {
        /// The load's virtual address.
        vaddr: u64,
        /// The load's size in bytes.
        size: u64,
    },
}

/// Sentinel in `view_pos` for unoccupied slots.
const NO_VIEW: usize = usize::MAX;

/// A fixed-capacity issue queue with stable slots, a free list, SoA hot
/// records and an incrementally maintained bitmap scoreboard.
///
/// Entry state that the scheduler depends on (`issued`, `blocked`,
/// operand readiness) is mutated only through
/// [`IssueQueue::mark_issued`], [`IssueQueue::bounce`] and
/// [`IssueQueue::set_ops_ready`], which keep the bit masks and the dense
/// view list coherent with the records; [`IssueQueue::check_bitmaps`]
/// re-derives every word from the records to verify that.
///
/// # Examples
///
/// ```
/// use condspec_pipeline::iq::{IssueQueue, IqHot};
/// use condspec_pipeline::policy::InstClass;
///
/// let mut iq = IssueQueue::new(4);
/// let entry = IqHot::new(0, InstClass::Other, [None, None], false, false);
/// let slot = iq.allocate(entry).unwrap();
/// iq.set_ops_ready(slot);
/// let mut ready = Vec::new();
/// iq.collect_ready(&mut ready);
/// assert_eq!(ready, vec![(0, slot)]);
/// iq.free_slot(slot);
/// assert!(iq.get(slot).is_none());
/// ```
#[derive(Debug, Clone)]
pub struct IssueQueue {
    /// Flat hot records; `hot[slot]` is meaningful only when the
    /// `occupied` bit for `slot` is set (stale otherwise).
    hot: Vec<IqHot>,
    free: Vec<usize>,
    /// One bit per occupied slot.
    occupied: Vec<u64>,
    /// One bit per occupied slot that has not (or not successfully)
    /// issued — the complement of `issued` over occupied slots.
    unissued: Vec<u64>,
    /// One bit per occupied slot whose source operands are all ready.
    /// Operand readiness is monotone for a resident entry (results are
    /// delivered through next-cycle completion events, and a squash frees
    /// the consumer before its sources can be re-renamed), so this bit is
    /// set once — at allocation or by a wakeup — and cleared only when
    /// the slot is freed.
    ops_ready: Vec<u64>,
    /// One bit per occupied slot a hazard filter bounced (secure-blocked);
    /// the idle fast-forward walks exactly these bits.
    blocked: Vec<u64>,
    /// Dense snapshot of the occupied entries, insertion-ordered (holes
    /// closed by swap-remove), kept in sync by the mutation methods.
    views: Vec<IqEntryView>,
    /// Position of each occupied slot in `views` (`NO_VIEW` when free).
    view_pos: Vec<usize>,
    /// Scratch for the rare [`IssueQueue::views_excluding`] fallback where
    /// the excluded slot is not the most recently allocated one.
    views_scratch: Vec<IqEntryView>,
    /// Why each blocked slot bounced; `None` for every slot that is free,
    /// issued, or bounced without a recorded reason.
    block_reason: Vec<Option<BlockReason>>,
    /// Earliest re-issue cycle of each blocked slot (the replay penalty).
    replay_at: Vec<u64>,
}

impl IssueQueue {
    /// Creates an empty issue queue with `capacity` slots.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "IQ capacity must be nonzero");
        let words = capacity.div_ceil(64);
        IssueQueue {
            hot: vec![IqHot::new(0, InstClass::Other, [None, None], false, false); capacity],
            free: (0..capacity).rev().collect(),
            occupied: vec![0; words],
            unissued: vec![0; words],
            ops_ready: vec![0; words],
            blocked: vec![0; words],
            views: Vec::with_capacity(capacity),
            view_pos: vec![NO_VIEW; capacity],
            views_scratch: Vec::with_capacity(capacity),
            block_reason: vec![None; capacity],
            replay_at: vec![0; capacity],
        }
    }

    /// Empties the queue, returning every slot to the free list. Keeps
    /// allocated storage so a reloaded core stays allocation-free.
    pub fn reset(&mut self) {
        self.free.clear();
        self.free.extend((0..self.hot.len()).rev());
        self.occupied.iter_mut().for_each(|w| *w = 0);
        self.unissued.iter_mut().for_each(|w| *w = 0);
        self.ops_ready.iter_mut().for_each(|w| *w = 0);
        self.blocked.iter_mut().for_each(|w| *w = 0);
        self.views.clear();
        self.view_pos.iter_mut().for_each(|p| *p = NO_VIEW);
        self.block_reason.iter_mut().for_each(|r| *r = None);
        self.replay_at.iter_mut().for_each(|c| *c = 0);
    }

    /// Number of slots.
    pub fn capacity(&self) -> usize {
        self.hot.len()
    }

    /// Number of occupied slots.
    pub fn occupancy(&self) -> usize {
        self.views.len()
    }

    /// Whether no slot is free.
    pub fn is_full(&self) -> bool {
        self.free.is_empty()
    }

    /// Inserts an entry, returning its slot, or `None` when full.
    pub fn allocate(&mut self, entry: IqHot) -> Option<usize> {
        let slot = self.free.pop()?;
        debug_assert!(!bits::test_bit(&self.occupied, slot));
        debug_assert!(
            !bits::test_bit(&self.ops_ready, slot),
            "stale ready bit on a free slot"
        );
        debug_assert!(!entry.issued && !entry.blocked);
        bits::set_bit(&mut self.occupied, slot);
        bits::set_bit(&mut self.unissued, slot);
        self.view_pos[slot] = self.views.len();
        self.views.push(IqEntryView {
            slot,
            seq: entry.seq,
            class: entry.class,
            issued: false,
        });
        self.hot[slot] = entry;
        Some(slot)
    }

    /// Releases a slot.
    ///
    /// # Panics
    ///
    /// Panics if the slot is already free.
    pub fn free_slot(&mut self, slot: usize) {
        assert!(
            bits::test_bit(&self.occupied, slot),
            "freeing an already-free IQ slot {slot}"
        );
        bits::clear_bit(&mut self.occupied, slot);
        bits::clear_bit(&mut self.unissued, slot);
        bits::clear_bit(&mut self.ops_ready, slot);
        bits::clear_bit(&mut self.blocked, slot);
        self.block_reason[slot] = None;
        self.replay_at[slot] = 0;
        let pos = self.view_pos[slot];
        self.view_pos[slot] = NO_VIEW;
        self.views.swap_remove(pos);
        if let Some(moved) = self.views.get(pos) {
            self.view_pos[moved.slot] = pos;
        }
        self.free.push(slot);
    }

    /// The entry in `slot`, if occupied.
    pub fn get(&self, slot: usize) -> Option<&IqHot> {
        if slot < self.hot.len() && bits::test_bit(&self.occupied, slot) {
            Some(&self.hot[slot])
        } else {
            None
        }
    }

    /// Marks the entry as issued (clearing any blocked state).
    ///
    /// # Panics
    ///
    /// Panics if the slot is free.
    pub fn mark_issued(&mut self, slot: usize) {
        assert!(
            bits::test_bit(&self.occupied, slot),
            "mark_issued on free slot"
        );
        let entry = &mut self.hot[slot];
        entry.issued = true;
        entry.blocked = false;
        bits::clear_bit(&mut self.unissued, slot);
        bits::clear_bit(&mut self.blocked, slot);
        self.block_reason[slot] = None;
        self.views[self.view_pos[slot]].issued = true;
    }

    /// Returns an issued entry to the not-issued, blocked state (a hazard
    /// filter cancelled it, or it must wait on an older store).
    ///
    /// # Panics
    ///
    /// Panics if the slot is free.
    pub fn bounce(&mut self, slot: usize) {
        assert!(bits::test_bit(&self.occupied, slot), "bounce on free slot");
        let entry = &mut self.hot[slot];
        entry.issued = false;
        entry.blocked = true;
        bits::set_bit(&mut self.unissued, slot);
        bits::set_bit(&mut self.blocked, slot);
        self.views[self.view_pos[slot]].issued = false;
    }

    /// [`IssueQueue::bounce`]s `slot` for `reason`; it may re-issue no
    /// earlier than cycle `replay_at`, and only once `reason` clears.
    pub(crate) fn block(&mut self, slot: usize, reason: BlockReason, replay_at: u64) {
        self.bounce(slot);
        self.block_reason[slot] = Some(reason);
        self.replay_at[slot] = replay_at;
    }

    /// Why the entry in `slot` last bounced and the cycle it may re-issue.
    pub(crate) fn block_state(&self, slot: usize) -> (Option<BlockReason>, u64) {
        (self.block_reason[slot], self.replay_at[slot])
    }

    /// The earliest replay cycle at or after `cycle` among blocked
    /// entries — a masked walk of the `blocked` word.
    pub(crate) fn next_replay(&self, cycle: u64) -> Option<u64> {
        let mut next = None;
        self.for_each_blocked(|slot| {
            let at = self.replay_at[slot];
            if at >= cycle && next.is_none_or(|n| at < n) {
                next = Some(at);
            }
        });
        next
    }

    /// Records that every source operand of the entry in `slot` is ready.
    /// Idempotent; called at allocation (all-ready dispatch) or when a
    /// wakeup observes the last outstanding operand becoming ready.
    pub fn set_ops_ready(&mut self, slot: usize) {
        debug_assert!(
            bits::test_bit(&self.occupied, slot),
            "ready bit for a free slot"
        );
        bits::set_bit(&mut self.ops_ready, slot);
    }

    /// Whether the operands-ready bit is set for `slot`.
    pub fn ops_ready(&self, slot: usize) -> bool {
        bits::test_bit(&self.ops_ready, slot)
    }

    /// Iterates over `(slot, entry)` for occupied slots, ascending.
    pub fn iter(&self) -> impl Iterator<Item = (usize, &IqHot)> {
        self.occupied
            .iter()
            .enumerate()
            .flat_map(move |(w, &word)| {
                let mut mask = word;
                std::iter::from_fn(move || {
                    if mask == 0 {
                        return None;
                    }
                    let slot = w * 64 + mask.trailing_zeros() as usize;
                    mask &= mask - 1;
                    Some(slot)
                })
            })
            .map(move |slot| (slot, &self.hot[slot]))
    }

    /// Calls `f(slot)` for every secure-blocked entry — a masked walk of
    /// the `blocked` word, so the idle fast-forward touches only bounced
    /// entries instead of scanning the whole queue.
    #[inline]
    pub fn for_each_blocked(&self, mut f: impl FnMut(usize)) {
        for (w, &word) in self.blocked.iter().enumerate() {
            let mut mask = word;
            while mask != 0 {
                f(w * 64 + mask.trailing_zeros() as usize);
                mask &= mask - 1;
            }
        }
    }

    /// Appends every not-issued entry whose operands are ready to `out`
    /// as `(seq, slot)` — the issue-select candidate set, straight from
    /// the scoreboard masks.
    pub fn collect_ready(&self, out: &mut Vec<(u64, usize)>) {
        for (w, (unissued, ready)) in self.unissued.iter().zip(&self.ops_ready).enumerate() {
            let mut mask = unissued & ready;
            while mask != 0 {
                let slot = w * 64 + mask.trailing_zeros() as usize;
                mask &= mask - 1;
                debug_assert!(bits::test_bit(&self.occupied, slot));
                out.push((self.hot[slot].seq, slot));
            }
        }
    }

    /// Views of every occupied slot, for the security matrix's
    /// initialization formula. Insertion-ordered (with swap-remove hole
    /// filling), *not* slot-ordered; the matrix consumes the set, not the
    /// order.
    pub fn views(&self) -> &[IqEntryView] {
        &self.views
    }

    /// Like [`IssueQueue::views`], but omits `skip` — used at dispatch to
    /// snapshot the queue as it was before the newest entry was allocated.
    /// O(1) when `skip` is the most recently allocated entry (the
    /// dispatch pattern); the returned slice borrows internal storage and
    /// is valid until the next mutation.
    pub fn views_excluding(&mut self, skip: usize) -> &[IqEntryView] {
        if skip >= self.hot.len() || !bits::test_bit(&self.occupied, skip) {
            return &self.views;
        }
        let pos = self.view_pos[skip];
        if pos + 1 == self.views.len() {
            return &self.views[..pos];
        }
        self.views_scratch.clear();
        self.views_scratch
            .extend(self.views.iter().filter(|v| v.slot != skip));
        &self.views_scratch
    }

    /// Removes all entries with `seq > target`; clears `out` and fills it
    /// with their slots so callers can reuse one buffer across squashes.
    pub fn squash_after_into(&mut self, target: u64, out: &mut Vec<usize>) {
        out.clear();
        for w in 0..self.occupied.len() {
            let mut mask = self.occupied[w];
            while mask != 0 {
                let slot = w * 64 + mask.trailing_zeros() as usize;
                mask &= mask - 1;
                if self.hot[slot].seq > target {
                    self.free_slot(slot);
                    out.push(slot);
                }
            }
        }
    }

    /// Re-derives every bitmap word, the dense view list and the free
    /// list from the hot records and verifies they agree with the
    /// incrementally maintained state. Diagnostic; run from
    /// `Core::check_invariants` and the differential scheduler tests,
    /// mirroring `Rob::check_bitmaps`.
    pub fn check_bitmaps(&self) -> Result<(), String> {
        let mut free_seen = vec![false; self.hot.len()];
        for &slot in &self.free {
            if free_seen[slot] {
                return Err(format!("slot {slot} appears twice in the IQ free list"));
            }
            free_seen[slot] = true;
        }
        for (slot, &free) in free_seen.iter().enumerate() {
            let occ = bits::test_bit(&self.occupied, slot);
            if occ == free {
                return Err(format!(
                    "occupied bit and free list disagree for slot {slot}"
                ));
            }
            if occ {
                let entry = &self.hot[slot];
                if bits::test_bit(&self.unissued, slot) == entry.issued {
                    return Err(format!("unissued bit stale for slot {slot}"));
                }
                if bits::test_bit(&self.blocked, slot) != entry.blocked {
                    return Err(format!("blocked bit stale for slot {slot}"));
                }
                if entry.issued && entry.blocked {
                    return Err(format!("slot {slot} both issued and blocked"));
                }
                let pos = self.view_pos[slot];
                let Some(view) = self.views.get(pos) else {
                    return Err(format!("view position out of range for slot {slot}"));
                };
                if view.slot != slot
                    || view.seq != entry.seq
                    || view.class != entry.class
                    || view.issued != entry.issued
                {
                    return Err(format!("dense view stale for slot {slot}: {view:?}"));
                }
            } else {
                if bits::test_bit(&self.unissued, slot)
                    || bits::test_bit(&self.ops_ready, slot)
                    || bits::test_bit(&self.blocked, slot)
                {
                    return Err(format!("scoreboard bit set for free slot {slot}"));
                }
                if self.view_pos[slot] != NO_VIEW {
                    return Err(format!("free slot {slot} still has a view position"));
                }
                if self.block_reason[slot].is_some() {
                    return Err(format!("free IQ slot {slot} has a stale block reason"));
                }
            }
        }
        if self.views.len() != self.hot.len() - self.free.len() {
            return Err(format!(
                "dense view count {} != occupancy {}",
                self.views.len(),
                self.hot.len() - self.free.len()
            ));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entry(seq: u64) -> IqHot {
        IqHot::new(seq, InstClass::Other, [None, None], false, false)
    }

    fn ready_set(iq: &IssueQueue) -> Vec<(u64, usize)> {
        let mut out = Vec::new();
        iq.collect_ready(&mut out);
        out.sort_unstable();
        out
    }

    fn blocked_set(iq: &IssueQueue) -> Vec<usize> {
        let mut out = Vec::new();
        iq.for_each_blocked(|s| out.push(s));
        out
    }

    #[test]
    fn allocate_until_full() {
        let mut iq = IssueQueue::new(2);
        assert!(iq.allocate(entry(0)).is_some());
        assert!(iq.allocate(entry(1)).is_some());
        assert!(iq.is_full());
        assert!(iq.allocate(entry(2)).is_none());
        assert_eq!(iq.occupancy(), 2);
        iq.check_bitmaps().unwrap();
    }

    #[test]
    fn slots_are_stable_and_reusable() {
        let mut iq = IssueQueue::new(4);
        let s0 = iq.allocate(entry(0)).unwrap();
        let s1 = iq.allocate(entry(1)).unwrap();
        assert_ne!(s0, s1);
        iq.free_slot(s0);
        assert_eq!(iq.get(s1).unwrap().seq, 1, "other slots untouched");
        let s2 = iq.allocate(entry(2)).unwrap();
        assert_eq!(s2, s0, "freed slot is reused");
        iq.check_bitmaps().unwrap();
    }

    #[test]
    fn views_reflect_state() {
        let mut iq = IssueQueue::new(4);
        let s0 = iq.allocate(entry(7)).unwrap();
        iq.mark_issued(s0);
        let views = iq.views();
        assert_eq!(views.len(), 1);
        assert_eq!(views[0].seq, 7);
        assert!(views[0].issued);
        assert_eq!(views[0].slot, s0);
        iq.bounce(s0);
        assert!(!iq.views()[0].issued, "bounce un-issues the view");
        assert!(iq.get(s0).unwrap().blocked());
        iq.check_bitmaps().unwrap();
    }

    #[test]
    fn blocked_bitmap_tracks_bounce_and_reissue() {
        let mut iq = IssueQueue::new(130); // spans three words
        let a = iq.allocate(entry(1)).unwrap();
        let b = iq.allocate(entry(2)).unwrap();
        assert!(blocked_set(&iq).is_empty());
        iq.mark_issued(a);
        iq.bounce(a);
        iq.mark_issued(b);
        iq.bounce(b);
        assert_eq!(blocked_set(&iq), vec![a, b]);
        iq.mark_issued(a);
        assert_eq!(blocked_set(&iq), vec![b], "re-issue clears the bit");
        iq.free_slot(b);
        assert!(blocked_set(&iq).is_empty(), "free clears the bit");
        iq.check_bitmaps().unwrap();
    }

    #[test]
    fn views_excluding_omits_one_slot() {
        let mut iq = IssueQueue::new(4);
        let s0 = iq.allocate(entry(3)).unwrap();
        let s1 = iq.allocate(entry(4)).unwrap();
        let views: Vec<IqEntryView> = iq.views_excluding(s1).to_vec();
        assert_eq!(views.len(), 1);
        assert_eq!(views[0].slot, s0);
        // The non-last exclusion takes the scratch fallback.
        let views: Vec<IqEntryView> = iq.views_excluding(s0).to_vec();
        assert_eq!(views.len(), 1);
        assert_eq!(views[0].slot, s1);
        assert_eq!(iq.views().len(), 2, "plain views sees every entry");
        // Excluding a free slot changes nothing.
        iq.free_slot(s0);
        assert_eq!(iq.views_excluding(s0).len(), 1);
    }

    #[test]
    fn dense_views_survive_interior_free() {
        let mut iq = IssueQueue::new(8);
        let slots: Vec<usize> = (0..5).map(|s| iq.allocate(entry(s)).unwrap()).collect();
        iq.free_slot(slots[1]);
        iq.free_slot(slots[3]);
        let mut seqs: Vec<u64> = iq.views().iter().map(|v| v.seq).collect();
        seqs.sort_unstable();
        assert_eq!(seqs, vec![0, 2, 4]);
        iq.check_bitmaps().unwrap();
    }

    #[test]
    fn reset_frees_every_slot() {
        let mut iq = IssueQueue::new(3);
        let s = iq.allocate(entry(0)).unwrap();
        iq.set_ops_ready(s);
        iq.mark_issued(s);
        iq.bounce(s);
        iq.allocate(entry(1)).unwrap();
        iq.reset();
        assert_eq!(iq.occupancy(), 0);
        assert!(ready_set(&iq).is_empty(), "reset clears the scoreboard");
        assert!(blocked_set(&iq).is_empty(), "reset clears blocked bits");
        iq.check_bitmaps().unwrap();
        // All slots allocatable again, lowest index first.
        assert_eq!(iq.allocate(entry(2)), Some(0));
    }

    #[test]
    fn squash_removes_younger_only() {
        let mut iq = IssueQueue::new(4);
        iq.allocate(entry(1)).unwrap();
        iq.allocate(entry(5)).unwrap();
        iq.allocate(entry(9)).unwrap();
        let mut removed = Vec::new();
        iq.squash_after_into(5, &mut removed);
        assert_eq!(removed.len(), 1);
        assert_eq!(iq.occupancy(), 2);
        assert!(iq.iter().all(|(_, e)| e.seq <= 5));
        iq.check_bitmaps().unwrap();
    }

    #[test]
    fn collect_ready_tracks_scoreboard() {
        let mut iq = IssueQueue::new(130); // spans three words
        let a = iq.allocate(entry(10)).unwrap();
        let b = iq.allocate(entry(11)).unwrap();
        let c = iq.allocate(entry(12)).unwrap();
        assert!(ready_set(&iq).is_empty(), "nothing ready yet");
        iq.set_ops_ready(a);
        iq.set_ops_ready(c);
        assert_eq!(ready_set(&iq), vec![(10, a), (12, c)]);
        iq.mark_issued(a);
        assert_eq!(ready_set(&iq), vec![(12, c)], "issued entries drop out");
        iq.bounce(a);
        assert_eq!(
            ready_set(&iq),
            vec![(10, a), (12, c)],
            "bounced entries return (operands stay ready)"
        );
        iq.set_ops_ready(b);
        iq.free_slot(b);
        assert_eq!(ready_set(&iq), vec![(10, a), (12, c)]);
        iq.check_bitmaps().unwrap();
    }

    #[test]
    #[should_panic(expected = "already-free")]
    fn double_free_panics() {
        let mut iq = IssueQueue::new(2);
        let s = iq.allocate(entry(0)).unwrap();
        iq.free_slot(s);
        iq.free_slot(s);
    }
}
