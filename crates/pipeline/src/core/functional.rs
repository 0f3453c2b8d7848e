//! Functional execution and checkpoints: draining the pipeline to an
//! architectural boundary (quiesce), capturing and restoring
//! [`CoreSnapshot`]s, and the pure architectural interpreter that
//! fast-forwards sampled simulation.

use super::{Core, FunctionalExit, FunctionalResult};
use crate::policy::SecurityPolicy;
use crate::snapshot::CoreSnapshot;
use crate::trace::SquashCause;
use condspec_isa::{Inst, Program, Reg, INST_BYTES};
use std::sync::Arc;

impl Core {
    /// Whether the pipeline holds no in-flight work: empty ROB and fetch
    /// queue, no pending store data and no dispatched fences. At such a
    /// boundary the IQ, LSQ, security dependence matrix and TPBuf are
    /// empty too (each tracks a subset of the in-flight instructions),
    /// so the machine state collapses to a [`CoreSnapshot`].
    pub fn is_quiesced(&self) -> bool {
        self.rob.is_empty()
            && self.fetch_queue.is_empty()
            && self.pending_store_data.is_empty()
            && self.fence_seqs.is_empty()
    }

    /// Drains the pipeline to the nearest architectural instruction
    /// boundary: every uncommitted instruction is squashed and fetch is
    /// redirected to the next architectural PC. The discarded work simply
    /// re-executes when the core resumes, so quiescing never changes
    /// architectural results — only timing (and the squash statistics).
    ///
    /// Afterwards [`Core::is_quiesced`] holds and any pending fetch
    /// stall is cleared, making the state canonical for
    /// [`Core::capture_snapshot`].
    pub fn quiesce(&mut self) {
        // The squash walk expresses "discard everything younger than
        // keep_seq"; discarding the head itself needs keep = head-1,
        // which cannot be expressed when the head is seq 0. Step until
        // the head commits (it is the oldest instruction, so it always
        // makes progress), moving the head seq past 0.
        while matches!(self.rob.head_hot(), Some(h) if h.seq == 0) {
            self.step();
        }
        if let Some(head) = self.rob.head_hot().copied() {
            // The head has not committed: it is the next architectural
            // instruction. Squash it and everything younger.
            self.squash_from(head.seq - 1, head.pc, SquashCause::Quiesce);
        } else if let Some(front_pc) = self.fetch_queue.front().map(|f| f.pc) {
            // Nothing dispatched, but decode holds fetched instructions:
            // rewind fetch to the queue front, restoring the RAS.
            self.flush_fetch_queue(front_pc, self.cycle, true);
        }
        self.fetch_stall_until = self.cycle;
        debug_assert!(self.is_quiesced(), "quiesce left in-flight state");
    }

    /// Captures the complete state of a quiesced core (see
    /// [`CoreSnapshot`] for the exact inventory). Call [`Core::quiesce`]
    /// first if the pipeline may hold in-flight work.
    ///
    /// # Errors
    ///
    /// Returns an error if the pipeline is not quiesced.
    pub fn capture_snapshot(&self) -> Result<CoreSnapshot, String> {
        if !self.is_quiesced() {
            return Err(format!(
                "cannot checkpoint a busy pipeline ({} ROB entries, {} fetched instructions); \
                 call quiesce() first",
                self.rob.len(),
                self.fetch_queue.len()
            ));
        }
        debug_assert_eq!(self.iq.occupancy(), 0, "IQ entry without a ROB entry");
        let (tlb_entries, tlb_tick) = self.tlb.snapshot_entries();
        Ok(CoreSnapshot {
            cycle: self.cycle,
            fetch_pc: self.fetch_pc,
            next_seq: self.next_seq,
            next_stamp: self.next_stamp,
            halted: self.halted,
            arch_regs: self.regfile.arch_values(),
            memory_pages: self
                .memory
                .snapshot_pages()
                .into_iter()
                .map(|(pn, bytes)| (pn, bytes.to_vec()))
                .collect(),
            page_table: self.page_table.snapshot_mappings(),
            tlb_entries,
            tlb_tick,
            hierarchy: self.hierarchy.snapshot(),
            frontend: self.frontend.snapshot(),
        })
    }

    /// Restores a captured snapshot into this core, which must have the
    /// same configuration as the capturing one. The caller supplies the
    /// program (snapshots store state, not code) and a freshly built
    /// security policy, exactly as [`Core::reset_cold`] does.
    ///
    /// The program's data segments are *not* re-copied into memory —
    /// the snapshot's pages already hold their current contents — which
    /// is why this must not go through [`Core::load_program`]. Shared
    /// code mappings are not part of a snapshot; map them again
    /// afterwards if the continuation needs them.
    ///
    /// After this call the core is observationally identical to the
    /// capturing core at the capture point: continuing either one in
    /// detailed mode produces identical statistics and state.
    pub fn restore_snapshot(
        &mut self,
        snap: &CoreSnapshot,
        program: Arc<Program>,
        policy: Box<dyn SecurityPolicy>,
    ) {
        self.reset_cold(policy);
        for (pn, bytes) in &snap.memory_pages {
            self.memory.restore_page(*pn, bytes);
        }
        for &(vpn, ppn) in &snap.page_table {
            self.page_table.map(vpn, ppn);
        }
        self.tlb.restore_entries(&snap.tlb_entries, snap.tlb_tick);
        self.hierarchy.restore(&snap.hierarchy);
        self.frontend.restore(&snap.frontend);
        for (i, &v) in snap.arch_regs.iter().enumerate().skip(1) {
            self.regfile
                .write_arch(Reg::from_index(i).expect("i < 32"), v);
        }
        self.cycle = snap.cycle;
        self.fetch_pc = snap.fetch_pc;
        self.next_seq = snap.next_seq;
        self.next_stamp = snap.next_stamp;
        self.halted = snap.halted;
        self.fetch_wedged = false;
        self.fetch_stall_until = snap.cycle;
        self.last_commit_cycle = snap.cycle;
        self.program = Some(program);
    }

    /// Retires up to `max_insts` instructions *functionally*: pure
    /// architectural interpretation with no pipeline, cache, TLB,
    /// predictor or statistics modelling — the fast-forward engine of
    /// sampled simulation (tens of Minst/s against the detailed model's
    /// hundreds of Kinst/s).
    ///
    /// Functional stepping touches exactly four pieces of state: the
    /// architectural registers, memory (stores apply immediately —
    /// retirement is in-order), the fetch PC and the halted flag.
    /// Everything else — the cycle clock, all statistics, caches, TLB
    /// and predictors — is left untouched, so a checkpoint captured
    /// after a functional fast-forward carries cold (or pre-existing)
    /// microarchitectural state by construction.
    ///
    /// `Flush` retires as a no-op (there is no cache model to flush);
    /// `Fence` and `Nop` likewise. Loads and stores translate through
    /// the page table directly (no TLB).
    ///
    /// # Errors
    ///
    /// Returns an error if the pipeline is not quiesced (functional and
    /// detailed execution cannot interleave mid-flight) or no program is
    /// loaded.
    pub fn run_functional(&mut self, max_insts: u64) -> Result<FunctionalResult, String> {
        self.functional_loop(max_insts, |_, _| {})
    }

    /// [`Core::run_functional`] with a per-retirement hook `(pc, inst)`,
    /// for differential testing against the detailed pipeline's commit
    /// stream. The hook makes this the *reference* architectural trace:
    /// functional execution has no wrong path.
    pub fn run_functional_traced(
        &mut self,
        max_insts: u64,
        on_retire: impl FnMut(u64, &Inst),
    ) -> Result<FunctionalResult, String> {
        self.functional_loop(max_insts, on_retire)
    }

    fn functional_loop(
        &mut self,
        max_insts: u64,
        mut on_retire: impl FnMut(u64, &Inst),
    ) -> Result<FunctionalResult, String> {
        if !self.is_quiesced() {
            return Err("cannot run functionally with in-flight detailed state; \
                 call quiesce() first"
                .to_string());
        }
        if self.program.is_none() {
            return Err("no program loaded".to_string());
        }
        if self.halted {
            return Ok(FunctionalResult {
                exit: FunctionalExit::Halted,
                retired: 0,
            });
        }
        // Interpret against a local register array; the rename fabric is
        // synced once at exit.
        let mut regs = self.regfile.arch_values();
        let mut pc = self.fetch_pc;
        let mut retired = 0u64;
        let mut exit = FunctionalExit::InstLimit;
        while retired < max_insts {
            let Some(inst) = self.fetch_inst_at(pc) else {
                exit = FunctionalExit::FetchFault;
                break;
            };
            let mut next = pc + INST_BYTES;
            match inst {
                Inst::Alu { op, rd, rs1, rs2 } => {
                    let v = op.eval(regs[rs1.index()], regs[rs2.index()]);
                    regs[rd.index()] = v;
                }
                Inst::AluImm { op, rd, rs1, imm } => {
                    let v = op.eval(regs[rs1.index()], imm as u64);
                    regs[rd.index()] = v;
                }
                Inst::LoadImm { rd, imm } => {
                    regs[rd.index()] = imm;
                }
                Inst::Load {
                    rd,
                    base,
                    offset,
                    size,
                } => {
                    let vaddr = regs[base.index()].wrapping_add(offset as u64);
                    let paddr = self.page_table.translate(vaddr);
                    let v = self.memory.read(paddr, size.bytes());
                    regs[rd.index()] = v;
                }
                Inst::Store {
                    src,
                    base,
                    offset,
                    size,
                } => {
                    let vaddr = regs[base.index()].wrapping_add(offset as u64);
                    let paddr = self.page_table.translate(vaddr);
                    self.memory.write(paddr, regs[src.index()], size.bytes());
                }
                Inst::Branch {
                    cond,
                    rs1,
                    rs2,
                    target,
                } => {
                    if cond.eval(regs[rs1.index()], regs[rs2.index()]) {
                        next = target;
                    }
                }
                Inst::Jump { target } => {
                    next = target;
                }
                Inst::Call { target, link } => {
                    regs[link.index()] = pc + INST_BYTES;
                    next = target;
                }
                Inst::Ret { link } => {
                    next = regs[link.index()];
                }
                Inst::JumpIndirect { base, offset } => {
                    next = regs[base.index()].wrapping_add(offset as u64);
                }
                Inst::Flush { .. } | Inst::Fence | Inst::Nop => {}
                Inst::Halt => {
                    retired += 1;
                    on_retire(pc, &inst);
                    self.halted = true;
                    exit = FunctionalExit::Halted;
                    break;
                }
            }
            regs[0] = 0; // r0 is hardwired to zero: undo any write to it
            retired += 1;
            on_retire(pc, &inst);
            pc = next;
        }
        for (i, &v) in regs.iter().enumerate().skip(1) {
            self.regfile
                .write_arch(Reg::from_index(i).expect("i < 32"), v);
        }
        self.fetch_pc = pc;
        Ok(FunctionalResult { exit, retired })
    }
}
