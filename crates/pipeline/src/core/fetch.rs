//! Fetch: reads instructions at the predicted PC into the fetch queue —
//! the one real inter-stage latch — and flushes that queue on a
//! redirect, reload or drain.

use super::Core;
use condspec_frontend::ras::RasSnapshot;
use condspec_isa::{Inst, INST_BYTES};

/// One fetch-queue entry: an instruction waiting out the decode latency
/// before dispatch may rename it.
#[derive(Debug, Clone)]
pub(super) struct FetchedInst {
    pub(super) pc: u64,
    pub(super) inst: Inst,
    pub(super) predicted_next: u64,
    pub(super) ras_snapshot: Option<Box<RasSnapshot>>,
    pub(super) ready_cycle: u64,
}

impl Core {
    /// Captures the current RAS state into a (recycled) box.
    fn capture_ras_snapshot(&mut self) -> Box<RasSnapshot> {
        let mut snap = self.ras_box_pool.pop().unwrap_or_default();
        self.frontend.ras().snapshot_into(&mut snap);
        snap
    }

    pub(super) fn fetch_stage(&mut self) {
        if self.fetch_wedged || self.cycle < self.fetch_stall_until {
            return;
        }
        if self.program.is_none() {
            return;
        }
        for _ in 0..self.config.fetch_width {
            if self.fetch_queue.len() >= self.config.fetch_queue {
                break;
            }
            let pc = self.fetch_pc;
            let Some(inst) = self.fetch_inst_at(pc) else {
                // Fetch ran off the code region (wrong path): wedge until
                // a squash redirects us.
                self.fetch_wedged = true;
                break;
            };
            let code_paddr = self.page_table.translate(pc);
            if self.config.icache_filter
                && self.fq_unresolved_branches + self.rob_unresolved_branches > 0
                && !self.hierarchy.probe_l1i(code_paddr)
            {
                // §VII.B ICache-hit filter: the next-PC is unsafe while a
                // branch is unresolved, and it would miss L1I — the fetch
                // is stalled so speculation cannot change I-cache state.
                self.stats.icache_fetch_stalls += 1;
                break;
            }
            let outcome = self.hierarchy.access_inst(code_paddr);
            let icache_miss = !outcome.l1_hit();
            if icache_miss {
                self.fetch_stall_until = self.cycle + outcome.latency;
            }

            let mut ras_snapshot = None;
            let next = match inst {
                Inst::Branch { .. } => {
                    ras_snapshot = Some(self.capture_ras_snapshot());
                    let p = self.frontend.predict_conditional(pc);
                    if p.taken {
                        p.target.unwrap_or(pc + INST_BYTES)
                    } else {
                        pc + INST_BYTES
                    }
                }
                Inst::Jump { target } => target,
                Inst::Call { target, .. } => {
                    ras_snapshot = Some(self.capture_ras_snapshot());
                    self.frontend.on_call(pc + INST_BYTES);
                    target
                }
                Inst::Ret { .. } => {
                    ras_snapshot = Some(self.capture_ras_snapshot());
                    self.frontend.predict_return().unwrap_or(pc + INST_BYTES)
                }
                Inst::JumpIndirect { .. } => {
                    ras_snapshot = Some(self.capture_ras_snapshot());
                    self.frontend
                        .predict_indirect(pc)
                        .unwrap_or(pc + INST_BYTES)
                }
                _ => pc + INST_BYTES,
            };
            if inst.is_branch() {
                self.fq_unresolved_branches += 1;
            }
            self.fetch_queue.push_back(FetchedInst {
                pc,
                inst,
                predicted_next: next,
                ras_snapshot,
                ready_cycle: self.cycle + self.config.decode_latency,
            });
            self.fetch_pc = next;
            if matches!(inst, Inst::Halt) {
                self.fetch_wedged = true;
                break;
            }
            if icache_miss {
                break;
            }
        }
    }

    /// Empties the fetch queue and points fetch at `pc`, stalled until
    /// `stall_until`: the one flush behind every squash, quiesce, program
    /// load and cold reset. The queued RAS-snapshot boxes return to the
    /// pool. With `restore_ras`, the RAS first rolls back to the oldest
    /// queued snapshot, which predates every speculative RAS effect of
    /// the queued instructions.
    pub(super) fn flush_fetch_queue(&mut self, pc: u64, stall_until: u64, restore_ras: bool) {
        if restore_ras {
            if let Some(snap) = self
                .fetch_queue
                .iter()
                .find_map(|f| f.ras_snapshot.as_deref())
            {
                // `snap` borrows `fetch_queue`, disjoint from `frontend`,
                // so no defensive clone is needed.
                self.frontend.restore_ras(snap);
            }
        }
        for fetched in self.fetch_queue.drain(..) {
            if let Some(snap) = fetched.ras_snapshot {
                self.ras_box_pool.push(snap);
            }
        }
        self.fq_unresolved_branches = 0;
        self.fetch_pc = pc;
        self.fetch_wedged = false;
        self.fetch_stall_until = stall_until;
    }
}
