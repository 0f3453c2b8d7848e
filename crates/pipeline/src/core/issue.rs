//! Issue + execute: selects ready IQ entries oldest first, asks the
//! security policy whether each is suspect, and executes it. Loads meet
//! the Cache-hit / TPBuf filters here, before they can change cache
//! state; a filter veto or a store hazard bounces the entry back to the
//! IQ. Branch mispredicts and memory-order violations squash here.

use super::Core;
use crate::events::Completion;
use crate::iq::BlockReason;
use crate::policy::{BlockFilter, MemAccessQuery, MemDecision};
use crate::regfile::RegFile;
use crate::rob::RobState;
use crate::trace::{LeakChannel, SquashCause, TraceEvent};
use condspec_isa::{AluOp, Inst, INST_BYTES};
use condspec_mem::{page_number, LruUpdate};

impl Core {
    pub(super) fn issue_stage(&mut self) {
        // Fence serialization barrier: the oldest incomplete fence,
        // maintained incrementally as the front of `fence_seqs`.
        let fence_barrier = self.fence_seqs.front().copied();

        // Gather candidates with ready operands, oldest first, into the
        // owned scratch buffer (pre-sized to the IQ capacity, so this
        // never allocates). The candidate set comes straight from the
        // scoreboard masks (`unissued & ops_ready`); ready bits are set
        // by the writeback wakeups, so readiness cannot change inside
        // this stage — execution results are delivered through
        // next-cycle completion events.
        let mut candidates = std::mem::take(&mut self.issue_scratch);
        candidates.clear();
        self.iq.collect_ready(&mut candidates);
        candidates.sort_unstable();

        let mut issued = 0;
        let mut mem_issued = 0;
        for (seq, slot) in candidates.iter().copied() {
            if issued == self.config.issue_width {
                break;
            }
            // A squash earlier in this round may have freed the slot.
            let Some(entry) = self.iq.get(slot).copied() else {
                continue;
            };
            if entry.seq != seq {
                continue;
            }
            if let Some(barrier) = fence_barrier {
                if seq > barrier {
                    // Held by the serialization barrier. Only noted for
                    // memory candidates (the security-relevant case) and
                    // only at stepped cycles — fast-forward collapses
                    // repeated holds of an idle window into none.
                    if entry.is_mem {
                        self.trace(TraceEvent::FenceHold {
                            cycle: self.cycle,
                            seq,
                        });
                    }
                    continue; // younger than a pending fence
                }
            }
            if entry.is_fence && !self.rob.all_older_completed(seq) {
                continue;
            }
            if entry.blocked() {
                let (reason, replay_at) = self.iq.block_state(slot);
                if self.cycle < replay_at {
                    continue;
                }
                let awake = match reason {
                    Some(BlockReason::Security) => {
                        let cleared = !self.policy.has_pending_dependence(slot);
                        if cleared {
                            // The security dependence matrix column went
                            // clear: the unsafe window closed and the
                            // blocked access may replay.
                            self.trace(TraceEvent::MatrixClear {
                                cycle: self.cycle,
                                seq,
                                slot,
                            });
                        }
                        cleared
                    }
                    Some(BlockReason::StoreAddr) => !self.lsq.older_store_unknown(seq),
                    Some(BlockReason::StoreData { vaddr, size }) => {
                        !self.lsq.older_store_data_unknown(seq, vaddr, size)
                    }
                    None => true,
                };
                if !awake {
                    continue;
                }
            }
            // Operands were ready at collection and a mid-loop squash
            // cannot clear ready bits (it only remaps and frees them).
            debug_assert!(
                entry
                    .srcs
                    .iter()
                    .flatten()
                    .all(|p| self.regfile.is_ready(*p)),
                "candidate lost operand readiness mid-stage"
            );
            if entry.is_mem && mem_issued == self.config.cache_ports {
                continue;
            }

            // Issue.
            let suspect = self.policy.suspect_on_issue(slot);
            self.iq.mark_issued(slot);
            self.rob.mark_issued(seq);
            self.rob.hot_mut(seq).expect("in flight").suspect = suspect;
            self.stats.issued += 1;
            if self.trace.is_some() {
                self.trace(TraceEvent::Issue {
                    cycle: self.cycle,
                    seq,
                    suspect,
                });
            }
            if entry.is_mem {
                mem_issued += 1;
            }
            issued += 1;

            let bounced = self.execute(seq, slot, suspect);
            if bounced {
                // The entry stays queue-resident, un-issued.
                self.rob.mark_dispatched(seq);
                continue;
            }
            // Successful issue: clear the security-matrix column and free
            // the slot unless the instruction still needs it (loads keep
            // their ROB linkage only; the IQ slot can go).
            self.policy.on_issue(slot);
            // Only loads completing through a timed event keep their
            // slot until writeback; stores (even with pending data) and
            // everything else release it now.
            let keeps_slot = matches!(
                self.rob.hot(seq).map(|e| (e.state(), e.is_load())),
                Some((RobState::Issued, true))
            );
            if keeps_slot {
                // In-flight load completing via an event: slot released at
                // writeback so a squash can find and free it precisely.
                continue;
            }
            self.rob.hot_mut(seq).expect("in flight").iq_slot = None;
            self.iq.free_slot(slot);
            self.policy.on_slot_freed(slot);
        }
        self.issue_scratch = candidates;
    }

    /// Executes a just-issued instruction. Returns `true` if the
    /// instruction bounced back to the IQ (filter block or store-address
    /// wait).
    fn execute(&mut self, seq: u64, slot: usize, suspect: bool) -> bool {
        let entry = self.rob.hot(seq).expect("in flight");
        let pc = entry.pc;
        let src_pregs = entry.src_pregs;
        let stamp = entry.stamp;
        let dest_preg = entry.dest.map(|(_, new, _)| new);
        // Execute is the dispatch/resolve path: the one place the hot
        // loop legitimately reads the cold record.
        let cold = self.rob.cold(seq).expect("in flight");
        let inst = cold.inst;
        let predicted_next = cold.predicted_next;
        let val =
            |idx: usize, rf: &RegFile| -> u64 { src_pregs[idx].map(|p| rf.read(p)).unwrap_or(0) };
        // Whether the (first, address) operand carries secret taint.
        let base_tainted = || {
            self.taint
                .as_deref()
                .is_some_and(|o| src_pregs[0].is_some_and(|p| o.reg(p)))
        };

        match inst {
            Inst::Alu { op, .. } => {
                let result = op.eval(val(0, &self.regfile), val(1, &self.regfile));
                if let Some(oracle) = self.taint.as_deref_mut() {
                    let tainted = oracle.srcs_tainted(&src_pregs);
                    oracle.set_dest(dest_preg, tainted);
                }
                if op == AluOp::Mul && self.config.mul_latency > 1 {
                    self.events.schedule(
                        self.cycle,
                        Completion {
                            at: self.cycle + self.config.mul_latency,
                            seq,
                            stamp,
                            value: result,
                            is_load: false,
                        },
                    );
                } else {
                    self.complete_with_value(seq, stamp, result);
                }
                false
            }
            Inst::AluImm { op, imm, .. } => {
                let result = op.eval(val(0, &self.regfile), imm as u64);
                if let Some(oracle) = self.taint.as_deref_mut() {
                    let tainted = oracle.srcs_tainted(&src_pregs);
                    oracle.set_dest(dest_preg, tainted);
                }
                self.complete_with_value(seq, stamp, result);
                false
            }
            Inst::LoadImm { imm, .. } => {
                self.complete_with_value(seq, stamp, imm);
                false
            }
            Inst::Branch { cond, target, .. } => {
                let taken = cond.eval(val(0, &self.regfile), val(1, &self.regfile));
                let actual = if taken { target } else { pc + INST_BYTES };
                self.rob.mark_completed(seq);
                self.resolve_control(seq, actual, predicted_next, Some(taken));
                false
            }
            Inst::Jump { target } => {
                self.rob.mark_completed(seq);
                self.resolve_control(seq, target, predicted_next, None);
                false
            }
            Inst::Call { target, .. } => {
                // A call completes through its link-value event.
                self.complete_with_value(seq, stamp, pc + INST_BYTES);
                self.resolve_control(seq, target, predicted_next, None);
                false
            }
            Inst::Ret { .. } => {
                let actual = val(0, &self.regfile);
                self.rob.mark_completed(seq);
                self.resolve_control(seq, actual, predicted_next, None);
                false
            }
            Inst::JumpIndirect { offset, .. } => {
                let actual = val(0, &self.regfile).wrapping_add(offset as u64);
                self.rob.mark_completed(seq);
                self.resolve_control(seq, actual, predicted_next, None);
                false
            }
            Inst::Fence => {
                // The issue gate (`seq <= fence_barrier`) means only the
                // barrier fence itself — the deque front — can get here.
                let front = self.fence_seqs.pop_front();
                debug_assert_eq!(front, Some(seq), "fences execute oldest-first");
                self.rob.mark_completed(seq);
                false
            }
            Inst::Nop | Inst::Halt => {
                self.rob.mark_completed(seq);
                false
            }
            Inst::Flush { offset, .. } => {
                let vaddr = val(0, &self.regfile).wrapping_add(offset as u64);
                let addr_tainted = base_tainted();
                let (paddr, _, tlb_filled) = self.translate_mem(seq, vaddr, addr_tainted);
                if addr_tainted {
                    self.record_translation_leaks(seq, paddr, tlb_filled, false);
                    // A tainted-address flush evicts a secret-selected
                    // line; the eviction applies at commit, so a squash
                    // drops the record.
                    let cycle = self.cycle;
                    let oracle = self.taint.as_deref_mut().expect("tainted implies oracle");
                    oracle.record_leak(seq, cycle, LeakChannel::CacheFill, paddr, true);
                }
                self.rob.mark_completed(seq);
                false
            }
            Inst::Store { size, offset, .. } => {
                // A store issues once its *address* operands are ready;
                // the data may arrive later (captured by
                // `capture_store_data`). This matches real LSQ behaviour
                // and the paper's dependence-clearance semantics: an
                // issued store no longer holds younger accesses
                // security-dependent.
                let vaddr = val(0, &self.regfile).wrapping_add(offset as u64);
                let addr_tainted = base_tainted();
                let (paddr, _, tlb_filled) = self.translate_mem(seq, vaddr, addr_tainted);
                self.lsq.resolve_store_addr(seq, vaddr);
                self.policy.on_mem_address(seq, page_number(paddr), suspect);
                if let Some(oracle) = self.taint.as_deref_mut() {
                    oracle.on_store_addr(seq, vaddr, size.bytes());
                }
                if addr_tainted {
                    self.record_translation_leaks(seq, paddr, tlb_filled, true);
                }
                let data_preg = src_pregs[1].expect("stores have a data operand");
                if self.regfile.is_ready(data_preg) {
                    self.complete_store_data(seq, data_preg);
                } else {
                    self.pending_store_data.push((seq, data_preg));
                }
                // Memory-order violation check: younger loads that already
                // executed against this address must replay.
                if let Some(load_seq) = self.lsq.violation_on_store(seq, vaddr, size.bytes()) {
                    let redirect = self.rob.hot(load_seq).expect("violating load in flight").pc;
                    self.stats.violation_squashes += 1;
                    self.squash_from(load_seq.saturating_sub(1), redirect, SquashCause::MemOrder);
                }
                false
            }
            Inst::Load { size, offset, .. } => {
                let vaddr = val(0, &self.regfile).wrapping_add(offset as u64);
                let older_unknown = self.lsq.older_store_unknown(seq);
                if older_unknown && !self.config.spec_store_bypass {
                    // Conservative memory disambiguation: wait in the IQ.
                    // (Store-hazard bounces trace the *virtual* page —
                    // translation has not happened yet — and do not count
                    // as defense block events.)
                    let (reason, filter) = (BlockReason::StoreAddr, BlockFilter::StoreAddr);
                    return self.bounce(seq, slot, reason, filter, vaddr, page_number(vaddr));
                }
                if self.lsq.older_store_data_unknown(seq, vaddr, size.bytes()) {
                    // An older store to these bytes has a known address
                    // but pending data: wait for it (forwarding stall).
                    let reason = BlockReason::StoreData {
                        vaddr,
                        size: size.bytes(),
                    };
                    let filter = BlockFilter::StoreData;
                    return self.bounce(seq, slot, reason, filter, vaddr, page_number(vaddr));
                }
                let addr_tainted = base_tainted();
                let (paddr, tlb_latency, tlb_filled) = self.translate_mem(seq, vaddr, addr_tainted);
                let l1_hit = self.hierarchy.probe_l1d(paddr);
                self.policy.on_mem_address(seq, page_number(paddr), suspect);
                // Translation and TPBuf recording happen *before* the
                // security filters get to veto the access — exactly the
                // paper's blind spot: even a load the filter then blocks
                // has already planted a TLB entry (and, under the TPBuf
                // policy, an S-Pattern page).
                if addr_tainted {
                    self.record_translation_leaks(seq, paddr, tlb_filled, true);
                }
                if suspect {
                    self.stats.suspect_l1.record(l1_hit);
                } else {
                    self.stats.clean_l1.record(l1_hit);
                }
                let query = MemAccessQuery {
                    seq,
                    slot,
                    suspect,
                    l1_hit,
                    ppn: page_number(paddr),
                };
                let decision = self.policy.check_mem_access(&query);
                // TPBuf probe reconstruction: a suspect L1D miss is
                // exactly the case the S-Pattern filter probes. The
                // outcome is inferred from the decision (an S-Pattern
                // block means the page matched a trained pattern), so the
                // event reflects the *installed* policy — a TPBuf-less
                // policy that lets a suspect miss proceed reads as a
                // non-matching probe.
                if self.trace.is_some() && suspect && !l1_hit {
                    let matched = matches!(
                        decision,
                        MemDecision::Block {
                            filter: BlockFilter::SPattern
                        }
                    );
                    self.trace(TraceEvent::TpbufProbe {
                        cycle: self.cycle,
                        seq,
                        page: page_number(paddr),
                        matched,
                    });
                }
                match decision {
                    MemDecision::Block { filter } => {
                        self.stats.block_events += 1;
                        self.rob.hot_mut(seq).expect("in flight").was_blocked = true;
                        let page = page_number(paddr);
                        self.bounce(seq, slot, BlockReason::Security, filter, vaddr, page)
                    }
                    MemDecision::Proceed { l1_update } => {
                        // Suspect accesses never trigger the prefetcher:
                        // a prefetch is a cache-content change the
                        // filters could not police.
                        let outcome = self
                            .hierarchy
                            .access_data_with_prefetch(paddr, l1_update, !suspect);
                        if l1_update == LruUpdate::Deferred && outcome.l1_hit() {
                            self.rob.hot_mut(seq).expect("in flight").deferred_lru = true;
                        }
                        let memory_value = self.memory.read(paddr, size.bytes());
                        let value = self.lsq.overlay(seq, vaddr, size.bytes(), memory_value);
                        self.lsq.resolve_load(seq, vaddr, older_unknown);
                        self.stats.load_accesses += 1;
                        if let Some(oracle) = self.taint.as_deref_mut() {
                            let cycle = self.cycle;
                            if addr_tainted {
                                // A fill, or an LRU touch now (`Normal`) or
                                // at commit (`Deferred`: a squash drops it).
                                let leak = if !outcome.l1_hit() {
                                    Some((LeakChannel::CacheFill, false))
                                } else {
                                    match l1_update {
                                        LruUpdate::Normal => Some((LeakChannel::CacheLru, false)),
                                        LruUpdate::Deferred => Some((LeakChannel::CacheLru, true)),
                                        LruUpdate::None => None,
                                    }
                                };
                                if let Some((channel, deferred)) = leak {
                                    oracle.record_leak(seq, cycle, channel, paddr, deferred);
                                }
                            }
                            // Load-value taint: tainted address (the value
                            // was secret-selected), tainted memory bytes,
                            // or tainted forwarded store data.
                            let value_taint = addr_tainted
                                || oracle.load_value_taint(seq, vaddr, paddr, size.bytes());
                            oracle.set_dest(dest_preg, value_taint);
                        }
                        self.events.schedule(
                            self.cycle,
                            Completion {
                                at: self.cycle + tlb_latency + outcome.latency,
                                seq,
                                stamp,
                                value,
                                is_load: true,
                            },
                        );
                        false
                    }
                }
            }
        }
    }

    /// Bounces the load `seq` in `slot` back to the IQ for `reason`,
    /// tracing the block: it may replay after the replay penalty, once
    /// `reason` clears. Always returns `true` (the instruction bounced).
    fn bounce(
        &mut self,
        seq: u64,
        slot: usize,
        reason: BlockReason,
        filter: BlockFilter,
        vaddr: u64,
        page: u64,
    ) -> bool {
        self.trace(TraceEvent::Block {
            cycle: self.cycle,
            seq,
            filter,
            vaddr,
            page,
        });
        let replay_at = self.cycle + self.config.block_replay_penalty;
        self.iq.block(slot, reason, replay_at);
        true
    }

    /// Translates the memory instruction `seq`'s address `vaddr` through
    /// the TLB and records both addresses in its ROB entry. With `watch`,
    /// also reports whether the walk filled a TLB entry (the leak
    /// oracle's TLB channel); returns `(paddr, latency, tlb_filled)`.
    fn translate_mem(&mut self, seq: u64, vaddr: u64, watch: bool) -> (u64, u64, bool) {
        let misses_before = watch.then(|| self.tlb.stats().misses());
        let (paddr, latency) = self.tlb.translate(vaddr, &self.page_table);
        let filled = misses_before.is_some_and(|before| self.tlb.stats().misses() > before);
        let cold = self.rob.cold_mut(seq).expect("in flight");
        cold.mem_vaddr = Some(vaddr);
        cold.mem_paddr = Some(paddr);
        (paddr, latency, filled)
    }

    /// Records the leaks a tainted-address access plants before any
    /// filter can veto it: a TLB fill when its translation missed and,
    /// for accesses the policy saw (`tpbuf`) under a page-recording
    /// policy, a TPBuf insertion.
    fn record_translation_leaks(&mut self, seq: u64, paddr: u64, tlb_filled: bool, tpbuf: bool) {
        let records_pages = tpbuf && self.policy.records_page_addresses();
        let cycle = self.cycle;
        let Some(oracle) = self.taint.as_deref_mut() else {
            return;
        };
        if tlb_filled {
            oracle.record_leak(seq, cycle, LeakChannel::TlbFill, paddr, false);
        }
        if records_pages {
            oracle.record_leak(seq, cycle, LeakChannel::TpbufInsert, paddr, false);
        }
    }

    /// Schedules a 1-cycle-latency result: the value becomes visible to
    /// consumers (and the instruction completes) at the next cycle, giving
    /// correct back-to-back timing for dependent single-cycle operations.
    fn complete_with_value(&mut self, seq: u64, stamp: u64, value: u64) {
        self.events.schedule(
            self.cycle,
            Completion {
                at: self.cycle + 1,
                seq,
                stamp,
                value,
                is_load: false,
            },
        );
    }

    /// Records a control instruction's resolved target (and direction,
    /// for conditional branches) and squashes everything younger on a
    /// mispredict. The caller completes the instruction: at once, or —
    /// for a call — through its link-value event.
    fn resolve_control(&mut self, seq: u64, actual: u64, predicted: u64, taken: Option<bool>) {
        {
            let cold = self.rob.cold_mut(seq).expect("in flight");
            cold.actual_next = Some(actual);
            cold.branch_taken = taken;
        }
        if self.rob.hot(seq).expect("in flight").is_branch {
            self.rob_unresolved_branches = self.rob_unresolved_branches.saturating_sub(1);
        }
        if actual != predicted {
            self.rob.hot_mut(seq).expect("in flight").mispredicted = true;
            self.stats.mispredict_squashes += 1;
            self.squash_from(seq, actual, SquashCause::Mispredict);
        }
    }
}
