//! Cross-structure consistency checks, for tests and debugging.

use super::Core;
use crate::policy::IqEntryView;
use crate::rob::RobState;

impl Core {
    /// Cross-structure consistency check, for tests and debugging. Holds
    /// between any two [`Core::step`] calls; squash recovery in
    /// particular must leave no residue for the squashed instructions.
    ///
    /// Verified invariants:
    ///
    /// * a free IQ slot has no outstanding security dependence (its
    ///   matrix row was cleared) and, per the IQ's own check, no block
    ///   reason;
    /// * an occupied IQ slot is owned by exactly the in-flight ROB entry
    ///   that records it, and that entry is not yet completed;
    /// * every stamp-matching completion event targets an instruction
    ///   still waiting for it (stale events awaiting lazy invalidation
    ///   are permitted), and every store-data capture refers to an
    ///   instruction still in the ROB;
    /// * the event-driven scheduler structures agree with the scan-based
    ///   reference model ([`Core::check_scheduler_coherence`]).
    pub fn check_invariants(&self) -> Result<(), String> {
        for slot in 0..self.iq.capacity() {
            match self.iq.get(slot) {
                None => {
                    if self.policy.has_pending_dependence(slot) {
                        return Err(format!(
                            "free IQ slot {slot} still has a security dependence row"
                        ));
                    }
                }
                Some(entry) => {
                    let Some(rob_entry) = self.rob.hot(entry.seq) else {
                        return Err(format!(
                            "IQ slot {slot} holds seq {} which is not in the ROB",
                            entry.seq
                        ));
                    };
                    if rob_entry.iq_slot != Some(slot as u16) {
                        return Err(format!(
                            "IQ slot {slot} / ROB seq {} disagree on ownership ({:?})",
                            entry.seq, rob_entry.iq_slot
                        ));
                    }
                    if rob_entry.state() == RobState::Completed {
                        return Err(format!(
                            "completed seq {} still occupies IQ slot {slot}",
                            entry.seq
                        ));
                    }
                }
            }
        }
        // Re-derive the LSQ's per-state bitmap words from its records
        // (the IQ's are re-derived by the scheduler coherence check).
        self.lsq.check_bitmaps()?;
        for event in self.events.iter() {
            // Events are lazily invalidated: one whose stamp no longer
            // matches the resident entry (or whose seq left the ROB)
            // belongs to a squashed instruction or a previous program and
            // will be dropped at delivery. A stamp-matching event must
            // target an instruction still waiting for it.
            if let Some(entry) = self.rob.hot(event.seq) {
                if entry.stamp == event.stamp && entry.state() != RobState::Issued {
                    return Err(format!(
                        "pending completion event for seq {} in state {:?}",
                        event.seq,
                        entry.state()
                    ));
                }
            }
        }
        for (seq, _) in &self.pending_store_data {
            if !self.rob.contains(*seq) {
                return Err(format!(
                    "pending store-data capture for seq {seq} which is not in flight"
                ));
            }
        }
        // SoA coherence: the per-state bitmap words must agree with every
        // resident entry's state, and no stale bit may survive on a free
        // slot.
        self.rob.check_bitmaps()?;
        // Stamps are assigned from a monotone dispatch counter in seq
        // order, so among resident entries they must strictly increase
        // with seq (a squash + redispatch reuses seqs but never stamps).
        let mut prev: Option<(u64, u64)> = None;
        for hot in self.rob.iter_hot() {
            if let Some((pseq, pstamp)) = prev {
                if hot.seq != pseq + 1 {
                    return Err(format!("ROB seqs not contiguous: {pseq} then {}", hot.seq));
                }
                if hot.stamp <= pstamp {
                    return Err(format!(
                        "ROB stamps not monotone: seq {pseq} stamp {pstamp}, seq {} stamp {}",
                        hot.seq, hot.stamp
                    ));
                }
            }
            prev = Some((hot.seq, hot.stamp));
        }
        self.check_scheduler_coherence()
    }

    /// Differential check of the event-driven scheduler against the naive
    /// scan-based model it replaced. Holds between any two
    /// [`Core::step`] calls:
    ///
    /// * the scoreboard candidate set (`unissued & ops_ready`) equals a
    ///   full-queue scan testing every entry's operands in the register
    ///   file — i.e. no wakeup was missed and none fired early;
    /// * the cached fence barrier (front of the fence deque) equals the
    ///   oldest-incomplete-fence ROB scan;
    /// * the incrementally maintained dispatch views equal a fresh
    ///   full-capacity snapshot (as a set — the dense list is
    ///   insertion-ordered).
    ///
    /// Diagnostic (allocates); used by the scheduler property tests, not
    /// by the simulation loop.
    pub fn check_scheduler_coherence(&self) -> Result<(), String> {
        self.iq.check_bitmaps()?;
        // Candidate set: scoreboard vs operand scan.
        let mut fast = Vec::new();
        self.iq.collect_ready(&mut fast);
        fast.sort_unstable();
        let mut reference: Vec<(u64, usize)> = self
            .iq
            .iter()
            .filter(|(_, e)| {
                !e.issued() && e.srcs.iter().flatten().all(|p| self.regfile.is_ready(*p))
            })
            .map(|(slot, e)| (e.seq, slot))
            .collect();
        reference.sort_unstable();
        if fast != reference {
            return Err(format!(
                "scoreboard candidates {fast:?} != scanned candidates {reference:?}"
            ));
        }
        // Fence barrier: deque front vs ROB scan.
        let cached = self.fence_seqs.front().copied();
        let scanned = self
            .rob
            .iter_hot()
            .find(|e| e.is_fence() && e.state() != RobState::Completed)
            .map(|e| e.seq);
        if cached != scanned {
            return Err(format!(
                "cached fence barrier {cached:?} != scanned barrier {scanned:?}"
            ));
        }
        // Dispatch views: dense incremental list vs fresh slot scan.
        let mut dense: Vec<IqEntryView> = self.iq.views().to_vec();
        dense.sort_by_key(|v| v.slot);
        let scan: Vec<IqEntryView> = self
            .iq
            .iter()
            .map(|(slot, e)| IqEntryView {
                slot,
                seq: e.seq,
                class: e.class,
                issued: e.issued(),
            })
            .collect();
        if dense != scan {
            return Err("incremental dispatch views diverged from a fresh scan".to_string());
        }
        Ok(())
    }
}
