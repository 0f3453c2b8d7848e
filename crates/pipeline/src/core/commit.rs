//! Commit: retires completed instructions in order from the ROB head.
//! Stores write memory and the cache here, deferred LRU touches apply,
//! and branches train the predictor on the architectural path.

use super::Core;
use crate::rob::CommitClass;
use crate::trace::TraceEvent;
use condspec_isa::Inst;
use condspec_mem::LruUpdate;

impl Core {
    pub(super) fn commit_stage(&mut self) {
        for _ in 0..self.config.commit_width {
            // One bitmap bit test answers "may the head commit?".
            if !self.rob.head_completed() {
                break;
            }
            let entry = *self.rob.head_hot().expect("head exists");
            // The commit class (precomputed at dispatch) says whether the
            // cold record is needed; `Simple` — the common case — commits
            // off the hot record alone. Cold scalars are copied out here,
            // before the pop invalidates the head slot.
            let cold = match entry.class {
                CommitClass::Simple | CommitClass::Control | CommitClass::Halt => None,
                _ => {
                    let c = self.rob.head_cold().expect("head exists");
                    let store_size = match c.inst {
                        Inst::Store { size, .. } => size.bytes(),
                        _ => 0,
                    };
                    Some((
                        c.mem_paddr,
                        c.store_data,
                        store_size,
                        c.actual_next,
                        c.branch_taken,
                    ))
                }
            };
            self.rob.pop_head_recycle(&mut self.ras_box_pool);
            if self.trace.is_some() {
                self.trace(TraceEvent::Commit {
                    cycle: self.cycle,
                    seq: entry.seq,
                    pc: entry.pc,
                });
            }
            self.last_commit_cycle = self.cycle;
            self.stats.committed += 1;
            if let Some(oracle) = self.taint.as_deref_mut() {
                // Pending leaks of a committing instruction were
                // architectural flows: resolve with survived_squash=false.
                oracle.on_commit(entry.seq);
            }
            if let Some((_, _, old)) = entry.dest {
                self.regfile.release(old);
            }
            match entry.class {
                CommitClass::Simple => {}
                CommitClass::Control => {
                    self.stats.committed_branches += 1;
                }
                CommitClass::Load => {
                    let (mem_paddr, ..) = cold.expect("cold copied for loads");
                    self.stats.committed_loads += 1;
                    if entry.was_blocked {
                        self.stats.blocked_committed_loads += 1;
                    }
                    if entry.deferred_lru {
                        if let Some(paddr) = mem_paddr {
                            self.hierarchy.touch_l1d(paddr);
                        }
                    }
                    self.lsq.release_load(entry.seq);
                    self.policy.on_lsq_release(entry.seq);
                }
                CommitClass::Store => {
                    let (mem_paddr, store_data, store_size, ..) =
                        cold.expect("cold copied for stores");
                    self.stats.committed_stores += 1;
                    let paddr = mem_paddr.expect("committed store has an address");
                    let data = store_data.expect("committed store has data");
                    self.memory.write(paddr, data, store_size);
                    if let Some(oracle) = self.taint.as_deref_mut() {
                        // The store's data taint becomes the bytes' taint
                        // (a clean store scrubs previously tainted bytes).
                        oracle.on_store_commit(entry.seq, paddr, store_size);
                    }
                    // Committed stores are architectural: they may fill the
                    // cache (write-allocate) without any security filter.
                    self.hierarchy.access_data(paddr, LruUpdate::Normal);
                    self.lsq.release_store(entry.seq);
                    self.policy.on_lsq_release(entry.seq);
                }
                CommitClass::Flush => {
                    let (mem_paddr, ..) = cold.expect("cold copied for flushes");
                    if let Some(paddr) = mem_paddr {
                        self.hierarchy.flush_line(paddr);
                    }
                }
                CommitClass::Branch => {
                    let (.., actual_next, branch_taken) = cold.expect("cold copied for branches");
                    self.stats.committed_branches += 1;
                    let taken = branch_taken.unwrap_or(false);
                    let target = taken.then_some(actual_next.unwrap_or(0));
                    self.frontend.update_branch(entry.pc, taken, target);
                }
                CommitClass::JumpIndirect => {
                    let (.., actual_next, _) = cold.expect("cold copied for indirect jumps");
                    self.stats.committed_branches += 1;
                    if let Some(t) = actual_next {
                        self.frontend.update_indirect(entry.pc, t);
                    }
                }
                CommitClass::Halt => {
                    self.halted = true;
                    return;
                }
            }
        }
    }
}
