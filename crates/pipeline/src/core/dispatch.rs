//! Dispatch (rename): moves decoded instructions from the fetch queue
//! into the ROB, IQ and LSQ, renaming their registers and handing each
//! new IQ entry to the security policy, which records its security
//! dependences.

use super::Core;
use crate::iq::IqHot;
use crate::policy::{DispatchInfo, InstClass};
use crate::trace::TraceEvent;
use condspec_isa::{Inst, Reg};

fn operand_regs(inst: &Inst) -> [Option<Reg>; 2] {
    match *inst {
        Inst::Alu { rs1, rs2, .. } => [Some(rs1), Some(rs2)],
        Inst::AluImm { rs1, .. } => [Some(rs1), None],
        Inst::LoadImm { .. } => [None, None],
        Inst::Load { base, .. } => [Some(base), None],
        Inst::Store { base, src, .. } => [Some(base), Some(src)],
        Inst::Branch { rs1, rs2, .. } => [Some(rs1), Some(rs2)],
        Inst::Jump { .. } | Inst::Call { .. } => [None, None],
        Inst::JumpIndirect { base, .. } => [Some(base), None],
        Inst::Ret { link } => [Some(link), None],
        Inst::Flush { base, .. } => [Some(base), None],
        Inst::Fence | Inst::Nop | Inst::Halt => [None, None],
    }
}

fn classify(inst: &Inst) -> InstClass {
    if inst.is_mem() {
        InstClass::Memory
    } else if inst.is_branch() {
        InstClass::Branch
    } else {
        InstClass::Other
    }
}

impl Core {
    pub(super) fn dispatch_stage(&mut self) {
        for _ in 0..self.config.dispatch_width {
            let Some(fetched) = self.fetch_queue.front() else {
                break;
            };
            if fetched.ready_cycle > self.cycle {
                break;
            }
            if self.rob.is_full() || self.iq.is_full() {
                break;
            }
            let inst = fetched.inst;
            if inst.is_load() && !self.lsq.load_has_space() {
                break;
            }
            if inst.is_store() && !self.lsq.store_has_space() {
                break;
            }
            if inst.dest().is_some() && self.regfile.free_count() == 0 {
                break;
            }
            let fetched = self.fetch_queue.pop_front().expect("checked front");
            if fetched.inst.is_branch() {
                self.fq_unresolved_branches = self.fq_unresolved_branches.saturating_sub(1);
                self.rob_unresolved_branches += 1;
            }
            let seq = self.next_seq;
            self.next_seq += 1;

            let stamp = self.next_stamp;
            self.next_stamp += 1;

            // Capture operand mappings before renaming the destination
            // (handles `add r1, r1, r1`).
            let ops = operand_regs(&inst);
            let src_pregs = [
                ops[0].map(|r| self.regfile.lookup(r)),
                ops[1].map(|r| self.regfile.lookup(r)),
            ];
            let dest = inst.dest().map(|arch| {
                let (new, old) = self
                    .regfile
                    .rename_dest(arch)
                    .expect("free_count checked above");
                (arch, new, old)
            });
            if let Some(oracle) = self.taint.as_deref_mut() {
                // A freshly renamed destination holds no value: clean
                // until its producer writes it.
                if let Some((_, new, _)) = dest {
                    oracle.on_rename(new);
                }
            }

            let class = classify(&inst);
            // Stores issue on their address operand alone; the data
            // operand is captured when it becomes ready.
            let iq_srcs = if inst.is_store() {
                [src_pregs[0], None]
            } else {
                src_pregs
            };
            let iq_entry = IqHot::new(seq, class, iq_srcs, inst.is_mem(), inst.is_fence());
            let slot = self.iq.allocate(iq_entry).expect("IQ space checked above");
            // Event-driven wakeup: subscribe to each not-yet-ready source
            // so the producing writeback sets this entry's ready bit; an
            // all-ready entry is an issue candidate immediately.
            let mut all_ready = true;
            for p in iq_srcs.iter().flatten() {
                if self.regfile.is_ready(*p) {
                    continue;
                }
                all_ready = false;
                self.regfile.subscribe(*p, slot);
            }
            if all_ready {
                self.iq.set_ops_ready(slot);
            }
            // Snapshot the occupied entries *excluding* the slot we just
            // filled — the same set the pre-allocate snapshot used to
            // carry — and only when the policy actually consumes it.
            let views = if self.policy.wants_dispatch_views() {
                self.iq.views_excluding(slot)
            } else {
                &[]
            };
            self.policy
                .on_dispatch(DispatchInfo { slot, seq, class }, views);
            // The dispatch hook is where the security dependence matrix
            // records unresolved-branch dependences for this entry.
            if self.trace.is_some() && self.policy.has_pending_dependence(slot) {
                self.trace(TraceEvent::MatrixSet {
                    cycle: self.cycle,
                    seq,
                    slot,
                });
            }

            match inst {
                Inst::Load { size, .. } => {
                    self.lsq
                        .allocate_load(seq, size.bytes())
                        .expect("LDQ space checked");
                    self.policy.on_lsq_allocate(seq, true);
                }
                Inst::Store { size, .. } => {
                    self.lsq
                        .allocate_store(seq, size.bytes())
                        .expect("STQ space checked");
                    self.policy.on_lsq_allocate(seq, false);
                }
                Inst::Fence => self.fence_seqs.push_back(seq),
                _ => {}
            }
            self.trace(TraceEvent::Dispatch {
                cycle: self.cycle,
                seq,
                pc: fetched.pc,
            });
            let (hot, cold) = self.rob.push(seq, fetched.pc, inst, fetched.predicted_next);
            hot.stamp = stamp;
            hot.src_pregs = src_pregs;
            hot.dest = dest;
            hot.iq_slot = Some(slot as u16);
            cold.ras_snapshot = fetched.ras_snapshot;
        }
    }
}
