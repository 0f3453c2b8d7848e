//! Squash: discards every instruction younger than a kept sequence
//! number, walking renaming back, freeing IQ/LSQ state, restoring the
//! RAS and redirecting fetch. Cache contents are never rolled back —
//! the Spectre attack surface.

use super::Core;
use crate::rob::RobState;
use crate::trace::{SquashCause, TraceEvent};
use condspec_frontend::ras::RasSnapshot;

impl Core {
    /// Squashes every instruction younger than `keep_seq` and redirects
    /// fetch to `redirect_pc`.
    pub(super) fn squash_from(&mut self, keep_seq: u64, redirect_pc: u64, cause: SquashCause) {
        self.trace(TraceEvent::Squash {
            cycle: self.cycle,
            keep_seq,
            redirect_pc,
            cause,
        });
        // Detach the ROB so its in-place squash walk can borrow the rest
        // of the core. A squash used to copy every removed entry into a
        // scratch buffer; the walk-back now happens directly on the ring,
        // youngest first, moving nothing.
        let mut rob = std::mem::take(&mut self.rob);
        // The RAS must be restored to the state at the *oldest* squashed
        // control instruction (its snapshot predates its own RAS effect).
        // Walking youngest-first, every snapshot seen supersedes the one
        // before it; the superseded boxes go straight back to the pool.
        let mut ras_restore: Option<Box<RasSnapshot>> = None;
        let squashed = rob.squash_after_with(keep_seq, |entry, cold| {
            // Walk back renaming, youngest first.
            if let Some((arch, new, old)) = entry.dest {
                self.regfile.unrename(arch, new, old);
            }
            if let Some(slot) = entry.iq_slot {
                let slot = slot as usize;
                // Drop the entry's wakeup subscriptions so consumer lists
                // stay tight. (Any subscription already wiped by a
                // younger squashed entry's register release is a no-op.)
                if let Some(iq_entry) = self.iq.get(slot) {
                    let srcs = iq_entry.srcs;
                    for p in srcs.iter().flatten() {
                        if !self.regfile.is_ready(*p) {
                            self.regfile.unsubscribe(*p, slot);
                        }
                    }
                }
                self.iq.free_slot(slot);
                self.policy.on_slot_freed(slot);
            }
            if entry.is_branch && entry.state() != RobState::Completed {
                self.rob_unresolved_branches = self.rob_unresolved_branches.saturating_sub(1);
            }
            if let Some(snap) = cold.ras_snapshot.take() {
                if let Some(superseded) = ras_restore.replace(snap) {
                    self.ras_box_pool.push(superseded);
                }
            }
        });
        self.rob = rob;
        self.stats.squashed_insts += squashed;
        // Squashed fences are exactly the trailing deque entries younger
        // than the squash point (completed fences left at execute).
        while matches!(self.fence_seqs.back(), Some(&s) if s > keep_seq) {
            self.fence_seqs.pop_back();
        }
        let mut lsq_squashed = std::mem::take(&mut self.lsq_squash_scratch);
        self.lsq.squash_after_into(keep_seq, &mut lsq_squashed);
        for seq in lsq_squashed.iter().copied() {
            self.policy.on_lsq_release(seq);
        }
        self.lsq_squash_scratch = lsq_squashed;
        if let Some(oracle) = self.taint.as_deref_mut() {
            // Pending leaks of the squashed instructions resolve now:
            // cache fills and TLB entries survive the squash, TPBuf
            // entries were just released with their LSQ slots.
            oracle.on_squash(keep_seq);
        }
        // Squashed sequence numbers are recycled (the next dispatch reuses
        // them), keeping ROB sequence numbers contiguous. Completion
        // events still in flight for squashed instructions are NOT swept
        // here: they stay in the wheel and are dropped at delivery
        // because their dispatch stamp cannot match a reincarnation's.
        self.pending_store_data.retain(|(s, _)| *s <= keep_seq);
        self.next_seq = keep_seq + 1;
        // Restore the RAS to the oldest squashed control instruction's
        // snapshot (collected by the walk above), falling back to the
        // oldest snapshot still in the fetch queue.
        let from_rob = ras_restore.is_some();
        if let Some(snap) = ras_restore {
            self.frontend.restore_ras(&snap);
            self.ras_box_pool.push(snap);
        }
        let stall_until = self.cycle + self.config.redirect_penalty;
        self.flush_fetch_queue(redirect_pc, stall_until, !from_rob);
        self.drain_leak_events();
    }
}
