//! Completion: delivers the timed results due this cycle (writeback and
//! operand wakeup), and completes stores whose data register became
//! ready.

use super::Core;
use crate::regfile::PhysReg;
use crate::rob::RobState;
use crate::trace::TraceEvent;

impl Core {
    pub(super) fn deliver_completions(&mut self) {
        let now = self.cycle;
        // Drain this cycle's bucket into the owned scratch buffer (taken
        // so the delivery loop below can borrow `self` mutably).
        let mut due = std::mem::take(&mut self.due_scratch);
        self.events.drain_due(now, &mut due);
        let mut woken = std::mem::take(&mut self.woken_scratch);
        for event in due.iter().copied() {
            let Some(entry) = self.rob.hot_mut(event.seq) else {
                continue; // squashed while in flight
            };
            if entry.stamp != event.stamp {
                continue; // squashed and the seq was recycled
            }
            if entry.state() != RobState::Issued {
                continue;
            }
            let dest = entry.dest;
            let slot = entry.iq_slot.take();
            self.rob.mark_completed(event.seq);
            if let Some((_, preg, _)) = dest {
                self.regfile.write_and_wake(preg, event.value, &mut woken);
            }
            if self.trace.is_some() {
                self.trace(TraceEvent::Complete {
                    cycle: self.cycle,
                    seq: event.seq,
                });
            }
            if event.is_load {
                self.policy.on_mem_writeback(event.seq);
            }
            if let Some(slot) = slot {
                let slot = slot as usize;
                self.iq.free_slot(slot);
                self.policy.on_slot_freed(slot);
            }
        }
        // Wakeup: re-check each subscribed slot against its actual
        // operands. A stale subscription (the slot was squashed, possibly
        // reused by a different instruction) is re-checked harmlessly —
        // the ready bit is defined purely by the current entry's sources.
        for slot in woken.drain(..) {
            let slot = slot as usize;
            if let Some(entry) = self.iq.get(slot) {
                if entry
                    .srcs
                    .iter()
                    .flatten()
                    .all(|p| self.regfile.is_ready(*p))
                {
                    self.iq.set_ops_ready(slot);
                }
            }
        }
        self.woken_scratch = woken;
        self.due_scratch = due;
    }

    /// Completes stores whose data register has become ready (see
    /// [`Core::complete_store_data`]).
    pub(super) fn capture_store_data(&mut self) {
        if self.pending_store_data.is_empty() {
            return;
        }
        let mut completed = std::mem::take(&mut self.store_done_scratch);
        completed.clear();
        let regfile = &self.regfile;
        self.pending_store_data.retain(|&(seq, preg)| {
            if regfile.is_ready(preg) {
                completed.push((seq, preg));
                false
            } else {
                true
            }
        });
        for (seq, data_preg) in completed.iter().copied() {
            if self.rob.contains(seq) {
                self.complete_store_data(seq, data_preg);
            }
        }
        self.store_done_scratch = completed;
    }

    /// Completes the store `seq` with the value of its ready data
    /// register: the data enters the store queue (enabling forwarding),
    /// the TPBuf W bit is set, and the store becomes eligible to commit.
    pub(super) fn complete_store_data(&mut self, seq: u64, data_preg: PhysReg) {
        let data = self.regfile.read(data_preg);
        self.rob.cold_mut(seq).expect("in flight").store_data = Some(data);
        self.rob.mark_completed(seq);
        self.lsq.resolve_store_data(seq, data);
        self.policy.on_mem_writeback(seq);
        if let Some(oracle) = self.taint.as_deref_mut() {
            let tainted = oracle.reg(data_preg);
            oracle.on_store_data(seq, tainted);
        }
    }
}
