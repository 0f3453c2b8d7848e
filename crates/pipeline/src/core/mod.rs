//! The out-of-order core: fetch → dispatch/rename → issue → execute →
//! writeback → commit, with full wrong-path execution and squash recovery.
//!
//! The design mirrors the paper's Figure 1 processor: a bit-matrix
//! scheduler Issue Queue (with the security dependence matrix attached via
//! [`SecurityPolicy`]), separate load/store queues with speculative store
//! bypass, checkpointed-by-walk-back register renaming, and an L1-first
//! memory pipeline where the Cache-hit and TPBuf filters intercept suspect
//! accesses before they can change cache state.
//!
//! This module holds the [`Core`] state, construction, reset, the one
//! run loop with its idle fast-forward, and the accessors. Each phase of
//! [`Core::step`] has its own file (`commit`, `complete`, `issue`,
//! `dispatch`, `fetch`, `squash`), as do `functional` (quiesce,
//! snapshots, the functional interpreter) and `check` (invariants).
//! Stages talk through the ROB, IQ, LSQ and event wheel; the fetch queue
//! is the only inter-stage latch.
//!
//! Key modelling choices (see DESIGN.md for rationale):
//!
//! * Issue and execute are fused; multi-cycle results (loads, multiplies)
//!   complete through timed events.
//! * Wrong-path instructions genuinely execute: they read simulated
//!   memory, fill caches and pollute the TLB until squashed. Squash rolls
//!   back registers and queues but never cache contents — the Spectre
//!   attack surface.
//! * Stores write memory and cache at commit; speculative store data lives
//!   in the store queue and forwards to younger loads.
//! * Branches train the predictor at commit (clean history); mispredicts
//!   are detected and squashed at execute.

mod check;
mod commit;
mod complete;
mod dispatch;
mod fetch;
mod functional;
mod issue;
mod squash;

use crate::events::{Completion, EventWheel};
use crate::iq::IssueQueue;
use crate::lsq::Lsq;
use crate::policy::{NullPolicy, SecurityPolicy};
use crate::regfile::{PhysReg, RegFile};
use crate::rob::Rob;
use crate::sampler::TimeSeriesSampler;
use crate::stats::PipelineStats;
use crate::taint::{LeakReport, TaintConfig, TaintOracle};
use crate::trace::{LeakChannel, TraceBuffer, TraceEvent};
use condspec_frontend::FrontEnd;
use condspec_isa::{Inst, Program, Reg};
use condspec_mem::{CacheHierarchy, MainMemory, PageTable, Tlb};
use condspec_stats::{Histogram, MetricsRegistry};
use fetch::FetchedInst;
use std::collections::VecDeque;
use std::sync::Arc;

/// Core (pipeline) configuration. Cache and predictor configuration live
/// in their own crates; the `condspec` crate combines everything into
/// machine presets.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CoreConfig {
    /// Instructions fetched per cycle.
    pub fetch_width: usize,
    /// Instructions renamed/dispatched per cycle.
    pub dispatch_width: usize,
    /// Instructions issued per cycle.
    pub issue_width: usize,
    /// Instructions committed per cycle.
    pub commit_width: usize,
    /// Reorder buffer entries.
    pub rob_entries: usize,
    /// Issue queue entries (the security dependence matrix is this²).
    pub iq_entries: usize,
    /// Load queue entries.
    pub ldq_entries: usize,
    /// Store queue entries.
    pub stq_entries: usize,
    /// Physical registers.
    pub phys_regs: usize,
    /// Fetch-to-dispatch latency in cycles (front-end depth).
    pub decode_latency: u64,
    /// Additional redirect penalty on a squash (back-end depth).
    pub redirect_penalty: u64,
    /// Whether loads may issue past older stores with unresolved
    /// addresses (speculative store bypass — required for Spectre V4).
    pub spec_store_bypass: bool,
    /// Loads that may access the data cache per cycle.
    pub cache_ports: usize,
    /// Fetch queue capacity.
    pub fetch_queue: usize,
    /// Extra execute latency for multiplies.
    pub mul_latency: u64,
    /// Cycles between a hazard filter cancelling an access and the
    /// instruction becoming eligible to re-issue, modelling the
    /// L1-to-Issue-Queue cancel signal and re-arbitration (§V.C's
    /// "re-issue logic").
    pub block_replay_penalty: u64,
    /// The §VII.B *ICache-hit filter* extension: while any conditional
    /// branch, indirect jump or return is unresolved anywhere in the
    /// pipeline, the next-PC is treated as unsafe and instruction fetch
    /// may proceed only if it hits L1I — a speculative fetch is never
    /// allowed to change instruction-cache contents.
    pub icache_filter: bool,
}

impl CoreConfig {
    /// The paper's Table III core: 4-wide, 15-stage, 192-entry ROB,
    /// 64-entry IQ, 32/24 LDQ/STQ.
    pub fn paper_default() -> Self {
        CoreConfig {
            fetch_width: 4,
            dispatch_width: 4,
            issue_width: 4,
            commit_width: 4,
            rob_entries: 192,
            iq_entries: 64,
            ldq_entries: 32,
            stq_entries: 24,
            phys_regs: 256,
            decode_latency: 5,
            redirect_penalty: 9,
            spec_store_bypass: true,
            cache_ports: 2,
            fetch_queue: 16,
            mul_latency: 3,
            block_replay_penalty: 12,
            icache_filter: false,
        }
    }

    /// Validates internal consistency.
    ///
    /// # Panics
    ///
    /// Panics if any width or size is zero, or `phys_regs` cannot cover
    /// the architectural registers plus the ROB.
    pub fn validate(&self) {
        assert!(
            self.fetch_width > 0
                && self.dispatch_width > 0
                && self.issue_width > 0
                && self.commit_width > 0,
            "pipeline widths must be nonzero"
        );
        assert!(
            self.rob_entries > 0
                && self.iq_entries > 0
                && self.ldq_entries > 0
                && self.stq_entries > 0
                && self.fetch_queue > 0,
            "queue sizes must be nonzero"
        );
        assert!(
            self.phys_regs > 32,
            "need more physical than architectural registers"
        );
        assert!(self.cache_ports > 0, "at least one cache port required");
    }
}

/// Why [`Core::run`] returned.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExitReason {
    /// A `halt` instruction committed.
    Halted,
    /// The cycle budget was exhausted.
    CycleLimit,
    /// No instruction committed for a long time (deadlock watchdog) —
    /// indicates a malformed program (e.g. running off the end of code).
    Stuck,
    /// The commit target of [`Core::run_until_committed`] was reached.
    CommitLimit,
}

/// Why [`Core::run_functional`] returned.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FunctionalExit {
    /// A `halt` instruction retired.
    Halted,
    /// The instruction budget was exhausted.
    InstLimit,
    /// The PC left every mapped code region — a malformed program (the
    /// detailed pipeline reports the same condition as
    /// [`ExitReason::Stuck`] after wedging fetch).
    FetchFault,
}

/// Result of a [`Core::run_functional`] call.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FunctionalResult {
    /// Why functional execution ended.
    pub exit: FunctionalExit,
    /// Instructions retired by this call (the halt included).
    pub retired: u64,
}

/// Result of a [`Core::run`] call.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RunResult {
    /// Why the run ended.
    pub exit: ExitReason,
    /// Cycles simulated by this call.
    pub cycles: u64,
    /// Instructions committed by this call.
    pub committed: u64,
}

/// The simulated out-of-order core plus its memory system and front end.
///
/// # Examples
///
/// ```
/// use condspec_pipeline::{Core, CoreConfig};
/// use condspec_isa::{ProgramBuilder, Reg, AluOp};
///
/// # fn main() -> Result<(), condspec_isa::BuildError> {
/// let mut core = Core::with_defaults();
/// let mut b = ProgramBuilder::new(0x1000);
/// b.li(Reg::R1, 20);
/// b.alu_imm(AluOp::Add, Reg::R2, Reg::R1, 22);
/// b.halt();
/// core.load_program(std::sync::Arc::new(b.build()?));
/// let result = core.run(10_000);
/// assert_eq!(core.read_arch_reg(Reg::R2), 42);
/// # Ok(())
/// # }
/// ```
pub struct Core {
    config: CoreConfig,
    frontend: FrontEnd,
    hierarchy: CacheHierarchy,
    tlb: Tlb,
    page_table: PageTable,
    memory: MainMemory,
    policy: Box<dyn SecurityPolicy>,

    regfile: RegFile,
    rob: Rob,
    iq: IssueQueue,
    lsq: Lsq,

    program: Option<Arc<Program>>,
    /// Additional resident code regions (shared libraries / other
    /// processes' executable pages). Unlike the main program these
    /// survive [`Core::load_program`], exactly like the shared predictor
    /// state: they model the shared mapped code pages of the threat
    /// model. Speculative (and architectural) fetch falls back to them
    /// when the PC is outside the main program. `Arc` (not `Rc`): the
    /// engine's cross-worker program cache hands the same decoded
    /// program to cores on different threads.
    shared_code: Vec<Arc<Program>>,
    fetch_pc: u64,
    fetch_stall_until: u64,
    fetch_wedged: bool,
    fetch_queue: VecDeque<FetchedInst>,

    /// Timed completion events, bucketed by due cycle. Never bulk-swept:
    /// squashes and program reloads leave stale events behind, and
    /// delivery drops them by dispatch-stamp mismatch (lazy invalidation).
    events: EventWheel,
    /// Stores whose address has resolved but whose data register is not
    /// yet ready: `(seq, data physical register)`.
    pending_store_data: Vec<(u64, PhysReg)>,
    /// Unresolved branch-class instructions in the fetch queue.
    fq_unresolved_branches: usize,
    /// Unresolved branch-class instructions in the ROB.
    rob_unresolved_branches: usize,
    /// Sequence numbers of dispatched, not-yet-executed fences, oldest
    /// first. The front is the fence serialization barrier; fences
    /// provably execute in program order (a younger fence cannot issue
    /// past the barrier), so execute pops the front and squash trims the
    /// back.
    fence_seqs: VecDeque<u64>,
    cycle: u64,
    next_seq: u64,
    /// Monotone dispatch counter backing [`crate::rob::RobHot::stamp`].
    /// Never reset
    /// (not even by [`Core::load_program`]), so a stamp uniquely names one
    /// dispatched instruction for the lifetime of the core.
    next_stamp: u64,
    halted: bool,
    last_commit_cycle: u64,
    stats: PipelineStats,
    trace: Option<TraceBuffer>,
    /// Windowed time-series sampler, off (`None`) by default; boxed so
    /// the disabled case costs the hot loop one pointer-sized branch.
    sampler: Option<Box<TimeSeriesSampler>>,
    /// Taint-tracking leak oracle, off (`None`) by default; boxed for the
    /// same reason — with the oracle off the hot loop pays one `Option`
    /// branch per hook and allocates nothing.
    taint: Option<Box<TaintOracle>>,

    // Per-cycle scratch buffers. Each is cleared and refilled where it is
    // used (via `mem::take` so `&mut self` stage methods can run while it
    // is held), and pre-sized at construction so the steady-state hot
    // loop never touches the heap.
    /// `issue_stage`'s ready-candidate list (`(seq, slot)`, oldest first).
    issue_scratch: Vec<(u64, usize)>,
    /// `deliver_completions`' due-event drain.
    due_scratch: Vec<Completion>,
    /// `capture_store_data`'s completed-store list.
    store_done_scratch: Vec<(u64, PhysReg)>,
    /// `squash_from`'s removed-LSQ-sequence buffer.
    lsq_squash_scratch: Vec<u64>,
    /// `deliver_completions`' woken-subscriber drain (IQ slots).
    woken_scratch: Vec<u16>,
    /// Recycled RAS-snapshot boxes. Snapshots are boxed to keep the ROB's
    /// cold records small, but boxing must not make fetch allocate per
    /// control instruction: dead snapshots (commit, squash, program
    /// reset) return here and fetch reuses them, so the steady-state hot
    /// loop stays heap-free. The pool stores the boxes themselves (not
    /// unboxed values) — recycling must preserve the allocation.
    #[allow(clippy::vec_box)]
    ras_box_pool: Vec<Box<condspec_frontend::ras::RasSnapshot>>,
}

impl std::fmt::Debug for Core {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Core")
            .field("cycle", &self.cycle)
            .field("committed", &self.stats.committed)
            .field("policy", &self.policy.name())
            .field("halted", &self.halted)
            .finish()
    }
}

/// Watchdog threshold: cycles without a commit before declaring the run
/// stuck.
const STUCK_THRESHOLD: u64 = 100_000;

impl Core {
    /// Creates a core from explicit parts.
    pub fn new(
        config: CoreConfig,
        frontend: FrontEnd,
        hierarchy: CacheHierarchy,
        tlb: Tlb,
        page_table: PageTable,
        policy: Box<dyn SecurityPolicy>,
    ) -> Self {
        config.validate();
        Core {
            regfile: RegFile::new(config.phys_regs),
            rob: Rob::new(config.rob_entries),
            iq: IssueQueue::new(config.iq_entries),
            lsq: Lsq::new(config.ldq_entries, config.stq_entries),
            frontend,
            hierarchy,
            tlb,
            page_table,
            memory: MainMemory::new(),
            policy,
            program: None,
            shared_code: Vec::new(),
            fetch_pc: 0,
            fetch_stall_until: 0,
            fetch_wedged: true,
            fetch_queue: VecDeque::with_capacity(config.fetch_queue),
            // Completions and pending store data are bounded by the number
            // of in-flight instructions; pre-sizing them (and the scratch
            // buffers below) keeps `step` heap-free in steady state. A
            // wheel bucket holds only events due at one cycle, scheduled
            // by at most `issue_width` executes per source cycle across
            // the machine's few distinct completion latencies.
            events: EventWheel::with_bucket_capacity(config.issue_width * 16),
            pending_store_data: Vec::with_capacity(config.stq_entries),
            issue_scratch: Vec::with_capacity(config.iq_entries),
            due_scratch: Vec::with_capacity(config.rob_entries),
            store_done_scratch: Vec::with_capacity(config.stq_entries),
            lsq_squash_scratch: Vec::with_capacity(config.ldq_entries + config.stq_entries),
            // At most two operand subscriptions per IQ entry exist at any
            // moment, so this bound keeps the wakeup drain heap-free.
            woken_scratch: Vec::with_capacity(config.iq_entries * 2),
            ras_box_pool: Vec::new(),
            config,
            fq_unresolved_branches: 0,
            rob_unresolved_branches: 0,
            fence_seqs: VecDeque::with_capacity(config.rob_entries),
            cycle: 0,
            next_seq: 0,
            next_stamp: 0,
            halted: false,
            last_commit_cycle: 0,
            stats: PipelineStats::default(),
            trace: None,
            sampler: None,
            taint: None,
        }
    }

    /// A paper-default core with an unprotected ([`NullPolicy`]) back end.
    pub fn with_defaults() -> Self {
        Core::new(
            CoreConfig::paper_default(),
            FrontEnd::new(condspec_frontend::PredictorConfig::paper_default()),
            CacheHierarchy::new(condspec_mem::HierarchyConfig::paper_default()),
            Tlb::new(condspec_mem::TlbConfig::paper_default()),
            PageTable::new(),
            Box::new(NullPolicy),
        )
    }

    /// Loads a program: resets all architectural and pipeline state,
    /// copies the program's data segments into memory, and points fetch at
    /// the entry. Microarchitectural state (caches, predictors, TLB,
    /// cycle counter, statistics) is deliberately *preserved* so that
    /// attacker and victim programs can be run back-to-back on warm state.
    /// Takes shared ownership: reloading the same `Arc` (the attack-round
    /// and sweep-engine pattern) is a pointer bump instead of a deep copy
    /// of the code and data segments.
    pub fn load_program(&mut self, program: Arc<Program>) {
        // `events` is deliberately NOT cleared: in-flight completions of
        // the previous program stay scheduled and are dropped at delivery
        // by their dispatch-stamp mismatch (`next_stamp` never resets).
        // This keeps reload O(live state) instead of O(wheel).
        self.reset_pipeline(program.entry());
        self.policy.reset_transient();
        // Pipeline taint state dies with the pipeline; leaks still pending
        // resolve as squash-surviving (their instructions never commit and
        // the microarchitectural state persists across the reload).
        if let Some(oracle) = self.taint.as_deref_mut() {
            oracle.on_program_load();
        }
        for seg in program.data() {
            let paddr = self.page_table.translate(seg.base);
            self.memory.write_bytes(paddr, &seg.bytes);
            if let Some(oracle) = self.taint.as_deref_mut() {
                oracle.clear_bytes(paddr, seg.bytes.len() as u64);
            }
        }
        if let Some(oracle) = self.taint.as_deref_mut() {
            oracle.mark_config_ranges();
        }
        self.drain_leak_events();
        self.program = Some(program);
    }

    /// Maps an additional resident code region (and loads its data
    /// segments). Shared mappings survive [`Core::load_program`]; use
    /// [`Core::clear_shared_code`] to drop them.
    pub fn map_shared_code(&mut self, program: Arc<Program>) {
        for seg in program.data() {
            let paddr = self.page_table.translate(seg.base);
            self.memory.write_bytes(paddr, &seg.bytes);
        }
        self.shared_code.push(program);
    }

    /// Removes all shared code mappings.
    pub fn clear_shared_code(&mut self) {
        self.shared_code.clear();
    }

    /// Returns the whole machine to the cold power-on state — caches,
    /// predictors, TLB, page table, memory, clock, statistics — without
    /// giving up any allocation. [`Core::load_program`] deliberately
    /// keeps microarchitectural state warm across loads; this is its
    /// complement, used by the sweep engine to reuse one core across
    /// *independent* jobs, where any carried-over state would break
    /// artifact determinism. The caller supplies a freshly built
    /// security policy (policies are rebuilt rather than deep-reset:
    /// they are small, and construction is the one reset path already
    /// proven correct).
    ///
    /// After this call the core is observationally identical to
    /// [`Core::new`] with the same configuration: the event wheel is
    /// empty, so `next_stamp` can rewind to zero without any stale
    /// completion surviving to alias a recycled stamp.
    pub fn reset_cold(&mut self, policy: Box<dyn SecurityPolicy>) {
        self.frontend.reset();
        self.hierarchy.reset();
        self.tlb.reset();
        self.page_table.clear();
        self.memory.reset();
        self.policy = policy;
        self.events.clear();
        self.cycle = 0;
        self.next_stamp = 0;
        self.reset_pipeline(0);
        self.stats = PipelineStats::default();
        self.trace = None;
        self.sampler = None;
        self.taint = None;
        self.program = None;
        self.shared_code.clear();
    }

    /// Empties every in-flight pipeline structure and points fetch at
    /// `fetch_pc`, unstalled from the current cycle: the reset shared by
    /// [`Core::load_program`] and [`Core::reset_cold`]. The ROB and fetch
    /// queue are drained (rather than cleared) so in-flight RAS-snapshot
    /// boxes return to the pool instead of being freed.
    fn reset_pipeline(&mut self, fetch_pc: u64) {
        self.regfile.reset();
        self.rob.clear_recycle(&mut self.ras_box_pool);
        self.iq.reset();
        self.lsq.reset();
        self.flush_fetch_queue(fetch_pc, self.cycle, false);
        self.pending_store_data.clear();
        self.rob_unresolved_branches = 0;
        self.fence_seqs.clear();
        self.halted = false;
        self.next_seq = 0;
        self.last_commit_cycle = self.cycle;
    }

    fn fetch_inst_at(&self, pc: u64) -> Option<Inst> {
        if let Some(inst) = self.program.as_ref().and_then(|p| p.fetch(pc)) {
            return Some(inst);
        }
        self.shared_code.iter().find_map(|p| p.fetch(pc))
    }

    /// Runs until halt, the cycle budget, or a deadlock watchdog fires:
    /// [`Core::run_until_committed`] with no commit goal.
    pub fn run(&mut self, max_cycles: u64) -> RunResult {
        self.run_until_committed(u64::MAX, max_cycles)
    }

    /// Runs until halt, the cycle budget, the watchdog, **or** until
    /// `target` more instructions have committed — the one run loop;
    /// [`Core::run`] is this with no commit goal, and sampled
    /// simulation's detailed windows set one. The commit count may
    /// overshoot the target by up to `commit_width - 1` (the check sits
    /// between full cycles), which the caller reads back from
    /// [`RunResult::committed`].
    ///
    /// Cycles on which the machine provably does nothing — every stage is
    /// waiting on a future time gate — are fast-forwarded in one jump
    /// instead of stepped one by one. The jump is exact: statistics
    /// (cycle and occupancy accounting included) and all architectural
    /// and microarchitectural state are identical to stepping through
    /// the idle window, so drivers that call [`Core::step`] directly see
    /// the same machine at every cycle.
    pub fn run_until_committed(&mut self, target: u64, max_cycles: u64) -> RunResult {
        let start_cycle = self.cycle;
        let start_committed = self.stats.committed;
        let goal = start_committed.saturating_add(target);
        let limit = start_cycle.saturating_add(max_cycles);
        let mut exit = ExitReason::CycleLimit;
        // One signature computation per step: the post-step fingerprint
        // doubles as the next iteration's pre-step one, and
        // `fast_forward_idle` cannot invalidate it (a skip touches only
        // the clock and the per-cycle statistics, none of which are
        // fingerprinted).
        let mut before = self.activity_signature();
        while self.cycle < limit {
            if self.halted {
                exit = ExitReason::Halted;
                break;
            }
            if self.stats.committed >= goal {
                exit = ExitReason::CommitLimit;
                break;
            }
            if self.cycle - self.last_commit_cycle > STUCK_THRESHOLD {
                exit = ExitReason::Stuck;
                break;
            }
            self.step();
            let after = self.activity_signature();
            if after == before {
                self.fast_forward_idle(limit);
            } else {
                before = after;
            }
        }
        if self.halted {
            exit = ExitReason::Halted;
        } else if exit == ExitReason::CycleLimit && self.stats.committed >= goal {
            exit = ExitReason::CommitLimit;
        }
        RunResult {
            exit,
            cycles: self.cycle - start_cycle,
            committed: self.stats.committed - start_committed,
        }
    }

    /// A fingerprint that changes whenever a cycle does *any* work.
    ///
    /// Every state mutation a [`Core::step`] can make is witnessed by one
    /// of these fields: commits and issues (including filter bounces and
    /// squashes, which only start at an issue or an event delivery) bump
    /// monotone counters; dispatch grows the ROB (a simultaneous commit
    /// bumps `committed`); fetch grows the fetch queue, moves `fetch_pc`,
    /// wedges, stalls, or counts an I-cache-filter stall; completions and
    /// store-data captures shrink the event wheel / pending-store list.
    /// Policy, predictor, LSQ and cache state mutate only inside those
    /// same actions. If the fingerprint is unchanged across a step, the
    /// cycle was architecturally and statistically a no-op.
    fn activity_signature(&self) -> [u64; 11] {
        [
            self.stats.committed,
            self.stats.issued,
            self.stats.icache_fetch_stalls,
            self.rob.len() as u64,
            self.fetch_queue.len() as u64,
            self.events.len() as u64,
            self.pending_store_data.len() as u64,
            self.fetch_pc,
            self.fetch_stall_until,
            self.fetch_wedged as u64,
            self.halted as u64,
        ]
    }

    /// After a no-op cycle, jumps the clock to the next cycle at which
    /// anything *can* happen, clamped to `limit` (the run budget).
    ///
    /// The machine's only time-gated wake-ups are: a completion event
    /// coming due, a blocked IQ entry's replay timer expiring, the fetch
    /// stall ending, the fetch-queue front finishing decode, and the
    /// deadlock watchdog firing. Waking early is harmless (the next step
    /// is another no-op and skipping resumes); the gates above make
    /// waking late impossible. Skipped cycles accrue the exact per-cycle
    /// statistics an idle [`Core::step`] would have: the machine is
    /// unchanged, so occupancy integrals grow linearly.
    fn fast_forward_idle(&mut self, limit: u64) {
        // Serial dependence chains produce single idle cycles between an
        // issue and its completion: the completion is due on the very next
        // step and nothing can be skipped. Bail out on a one-bucket probe
        // before paying for the full gate scan below. (The probe is exact
        // here because the step that just ran drained the wheel at
        // `cycle - 1`, migrating any overflow event that came within a
        // lap.)
        if self.events.due_now(self.cycle) {
            return;
        }
        // Gates are compared with `>=`: the no-op step that got us here ran
        // at `cycle - 1`, so anything due at exactly `cycle` belongs to the
        // step that has NOT run yet and must clamp the skip to zero.
        let mut target = limit.min(self.last_commit_cycle + STUCK_THRESHOLD + 1);
        if !self.fetch_wedged && self.fetch_stall_until >= self.cycle {
            target = target.min(self.fetch_stall_until);
        }
        if let Some(front) = self.fetch_queue.front() {
            if front.ready_cycle >= self.cycle {
                target = target.min(front.ready_cycle);
            }
        }
        // Only bounced entries can gate the jump: a masked walk of the
        // IQ's blocked bitmap word, not a whole-queue scan.
        if let Some(at) = self.iq.next_replay(self.cycle) {
            target = target.min(at);
        }
        if let Some(at) = self.events.next_due(self.cycle, target) {
            target = target.min(at);
        }
        // The sampler cuts windows at exact statistics-cycle boundaries;
        // clamp the jump so `stats.cycles` lands on the boundary instead
        // of leaping past it. The next iteration resumes skipping.
        if let Some(sampler) = &self.sampler {
            let remaining = sampler.next_boundary().saturating_sub(self.stats.cycles);
            target = target.min(self.cycle + remaining);
        }
        let skipped = target.saturating_sub(self.cycle);
        if skipped == 0 {
            return;
        }
        self.trace(TraceEvent::FastForward {
            cycle: self.cycle,
            skipped,
        });
        self.cycle = target;
        self.stats.cycles += skipped;
        self.stats.rob_occupancy_sum += skipped * self.rob.len() as u64;
        self.stats.iq_occupancy_sum += skipped * self.iq.occupancy() as u64;
        self.sample_tick();
    }

    /// Advances the machine by one cycle.
    pub fn step(&mut self) {
        self.commit_stage();
        self.deliver_completions();
        self.capture_store_data();
        self.issue_stage();
        self.dispatch_stage();
        self.fetch_stage();
        self.cycle += 1;
        self.stats.cycles += 1;
        self.stats.rob_occupancy_sum += self.rob.len() as u64;
        self.stats.iq_occupancy_sum += self.iq.occupancy() as u64;
        self.sample_tick();
        self.drain_leak_events();
    }

    /// Moves leak events resolved this step by the oracle into the trace
    /// buffer. One `Option` branch when the oracle is off or idle.
    #[inline]
    fn drain_leak_events(&mut self) {
        let events = match self.taint.as_deref_mut() {
            Some(oracle) if oracle.has_events() => oracle.take_events(),
            _ => return,
        };
        if self.trace.is_some() {
            for event in events.iter().copied() {
                self.trace(event);
            }
        }
        if let Some(oracle) = self.taint.as_deref_mut() {
            oracle.restore_event_buffer(events);
        }
    }

    /// Cuts a sample window if the cycle that just ended reached the
    /// sampler's boundary. One `Option` branch when sampling is off.
    #[inline]
    fn sample_tick(&mut self) {
        if let Some(sampler) = self.sampler.as_deref_mut() {
            if self.stats.cycles >= sampler.next_boundary() {
                sampler.cut(&self.stats);
            }
        }
    }

    #[inline]
    fn trace(&mut self, event: TraceEvent) {
        if let Some(buffer) = self.trace.as_mut() {
            buffer.push(event);
        }
    }

    /// Turns on pipeline event tracing with a bounded buffer of
    /// `capacity` events (oldest dropped on overflow). Re-enabling
    /// replaces the buffer.
    pub fn enable_trace(&mut self, capacity: usize) {
        self.trace = Some(TraceBuffer::new(capacity));
    }

    /// Turns tracing off and returns the buffer, if any.
    pub fn disable_trace(&mut self) -> Option<TraceBuffer> {
        self.trace.take()
    }

    /// The current trace buffer, if tracing is enabled.
    pub fn trace_buffer(&self) -> Option<&TraceBuffer> {
        self.trace.as_ref()
    }

    /// Turns on windowed time-series sampling: every `window` cycles
    /// the statistics deltas are cut into a [`SampleRow`], up to
    /// `max_rows` rows. Re-enabling replaces the series. While sampling
    /// is on, idle fast-forward jumps are clamped to window boundaries,
    /// so the sampled series is identical to stepping every cycle.
    ///
    /// [`SampleRow`]: crate::sampler::SampleRow
    pub fn enable_sampler(&mut self, window: u64, max_rows: usize) {
        self.sampler = Some(Box::new(TimeSeriesSampler::new(
            window,
            max_rows,
            &self.stats,
        )));
    }

    /// Turns sampling off and returns the series (with a final partial
    /// window flushed), if any.
    pub fn disable_sampler(&mut self) -> Option<TimeSeriesSampler> {
        let mut sampler = self.sampler.take()?;
        sampler.flush(&self.stats);
        Some(*sampler)
    }

    /// The current sampler, if sampling is enabled.
    pub fn sampler(&self) -> Option<&TimeSeriesSampler> {
        self.sampler.as_deref()
    }

    /// Turns on the taint-tracking leak oracle. `config` names the
    /// physical-address byte ranges that hold secrets; from then on the
    /// oracle tracks their flow through registers and memory and records
    /// a leak every time a tainted value reaches microarchitecturally
    /// persistent state (cache fill, LRU update, TLB fill, TPBuf
    /// insertion). Re-enabling replaces the oracle.
    pub fn enable_taint(&mut self, config: TaintConfig) {
        let mut oracle = Box::new(TaintOracle::new(self.config.phys_regs, config));
        oracle.mark_config_ranges();
        self.taint = Some(oracle);
    }

    /// Turns the leak oracle off and returns it (with any still-pending
    /// leak events drained into the trace buffer first), if any.
    pub fn disable_taint(&mut self) -> Option<Box<TaintOracle>> {
        self.drain_leak_events();
        self.taint.take()
    }

    /// The current leak oracle, if taint tracking is enabled.
    pub fn taint_oracle(&self) -> Option<&TaintOracle> {
        self.taint.as_deref()
    }

    /// The leak totals accumulated so far, if taint tracking is enabled.
    pub fn leak_report(&self) -> Option<LeakReport> {
        self.taint.as_deref().map(|oracle| oracle.report())
    }

    // ------------------------------------------------------------------
    // Accessors
    // ------------------------------------------------------------------

    /// The core configuration.
    pub fn config(&self) -> &CoreConfig {
        &self.config
    }

    /// Current cycle count (monotonic across program loads).
    pub fn cycle(&self) -> u64 {
        self.cycle
    }

    /// Whether a halt instruction has committed.
    pub fn is_halted(&self) -> bool {
        self.halted
    }

    /// Pipeline statistics.
    pub fn stats(&self) -> &PipelineStats {
        &self.stats
    }

    /// Resets pipeline, hierarchy, TLB, predictor and policy statistics
    /// (after warm-up). Does not touch microarchitectural state. An
    /// active time-series sampler restarts at window zero.
    pub fn reset_stats(&mut self) {
        self.stats = PipelineStats::default();
        self.hierarchy.reset_stats();
        self.tlb.reset_stats();
        self.frontend.reset_stats();
        self.policy.reset_stats();
        if let Some(sampler) = self.sampler.as_deref_mut() {
            sampler.restart(&self.stats);
        }
    }

    /// Fills `registry` with the core's named metrics: every
    /// [`PipelineStats`] counter under `core.*`, derived gauges (IPC,
    /// blocked rate, mean occupancies), the installed policy's counters
    /// under `policy.*`, and — when sampling is enabled — a per-window
    /// IPC histogram. Existing entries with other names are preserved.
    pub fn fill_metrics(&self, registry: &mut MetricsRegistry) {
        let s = &self.stats;
        registry.set_counter("core.cycles", s.cycles);
        registry.set_counter("core.committed", s.committed);
        registry.set_counter("core.committed_loads", s.committed_loads);
        registry.set_counter("core.committed_stores", s.committed_stores);
        registry.set_counter("core.committed_branches", s.committed_branches);
        registry.set_counter("core.blocked_committed_loads", s.blocked_committed_loads);
        registry.set_counter("core.block_events", s.block_events);
        registry.set_counter("core.issued", s.issued);
        registry.set_counter("core.load_accesses", s.load_accesses);
        registry.set_counter("core.mispredict_squashes", s.mispredict_squashes);
        registry.set_counter("core.violation_squashes", s.violation_squashes);
        registry.set_counter("core.squashed_insts", s.squashed_insts);
        registry.set_counter("core.icache_fetch_stalls", s.icache_fetch_stalls);
        registry.set_counter("core.suspect_l1_hits", s.suspect_l1.hits());
        registry.set_counter("core.suspect_l1_accesses", s.suspect_l1.total());
        registry.set_gauge("core.ipc", s.ipc());
        registry.set_gauge("core.blocked_rate", s.blocked_rate());
        registry.set_gauge("core.suspect_l1_hit_rate", s.suspect_l1.rate());
        registry.set_gauge("core.avg_rob_occupancy", s.avg_rob_occupancy());
        registry.set_gauge("core.avg_iq_occupancy", s.avg_iq_occupancy());
        let p = self.policy.stats();
        registry.set_counter("policy.suspect_flags", p.suspect_flags);
        registry.set_counter("policy.blocks", p.blocks);
        registry.set_counter("policy.tpbuf_queries", p.tpbuf_queries);
        registry.set_counter("policy.tpbuf_mismatches", p.tpbuf_mismatches);
        registry.set_gauge(
            "policy.s_pattern_mismatch_rate",
            p.s_pattern_mismatch_rate(),
        );
        if let Some(sampler) = self.sampler.as_deref() {
            registry.set_histogram("core.window_ipc_x100", sampler.ipc_histogram());
        }
        if let Some(oracle) = self.taint.as_deref() {
            let l = oracle.report();
            registry.set_counter("leak.cache_fills", l.cache_fills);
            registry.set_counter("leak.cache_fills_survived", l.cache_fills_survived);
            registry.set_counter("leak.cache_lru", l.cache_lru);
            registry.set_counter("leak.cache_lru_survived", l.cache_lru_survived);
            registry.set_counter("leak.tlb_fills", l.tlb_fills);
            registry.set_counter("leak.tlb_fills_survived", l.tlb_fills_survived);
            registry.set_counter("leak.tpbuf_inserts", l.tpbuf_inserts);
            registry.set_counter("leak.tpbuf_inserts_survived", l.tpbuf_inserts_survived);
            let mut by_channel = Histogram::new(1, LeakChannel::ALL.len());
            for (index, channel) in LeakChannel::ALL.iter().copied().enumerate() {
                let (_, survived) = l.channel(channel);
                for _ in 0..survived {
                    by_channel.record(index as u64);
                }
            }
            registry.set_histogram("leak.survived_by_channel", by_channel);
        }
    }

    /// The architectural value of `reg` (through the current rename map —
    /// call after [`run`](Core::run) returns `Halted` for committed
    /// state).
    pub fn read_arch_reg(&self, reg: Reg) -> u64 {
        self.regfile.read_arch(reg)
    }

    /// Reads simulated memory at a *virtual* address.
    pub fn read_memory(&self, vaddr: u64, size: u64) -> u64 {
        self.memory.read(self.page_table.translate(vaddr), size)
    }

    /// Writes simulated memory at a *virtual* address. An external write
    /// carries attacker-known data, so it scrubs the bytes' taint.
    pub fn write_memory(&mut self, vaddr: u64, value: u64, size: u64) {
        let paddr = self.page_table.translate(vaddr);
        self.memory.write(paddr, value, size);
        if let Some(oracle) = self.taint.as_deref_mut() {
            oracle.clear_bytes(paddr, size);
        }
    }

    /// The cache hierarchy (attack orchestration: flush/prime/probe).
    pub fn hierarchy(&self) -> &CacheHierarchy {
        &self.hierarchy
    }

    /// Mutable cache hierarchy access.
    pub fn hierarchy_mut(&mut self) -> &mut CacheHierarchy {
        &mut self.hierarchy
    }

    /// The page table (set up shared mappings before loading programs).
    pub fn page_table(&self) -> &PageTable {
        &self.page_table
    }

    /// Mutable page-table access.
    pub fn page_table_mut(&mut self) -> &mut PageTable {
        &mut self.page_table
    }

    /// The front end (predictor training / poisoning).
    pub fn frontend(&self) -> &FrontEnd {
        &self.frontend
    }

    /// Mutable front-end access.
    pub fn frontend_mut(&mut self) -> &mut FrontEnd {
        &mut self.frontend
    }

    /// The security policy driving this core.
    pub fn policy(&self) -> &dyn SecurityPolicy {
        self.policy.as_ref()
    }

    /// Mutable policy access.
    pub fn policy_mut(&mut self) -> &mut dyn SecurityPolicy {
        self.policy.as_mut()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use condspec_isa::{AluOp, BranchCond, ProgramBuilder};

    fn run_program(build: impl FnOnce(&mut ProgramBuilder)) -> Core {
        let mut core = Core::with_defaults();
        let mut b = ProgramBuilder::new(0x1000);
        build(&mut b);
        let program = b.build().expect("valid test program");
        core.load_program(Arc::new(program));
        let result = core.run(1_000_000);
        assert_eq!(result.exit, ExitReason::Halted, "program must halt");
        core
    }

    #[test]
    fn arithmetic_and_immediates() {
        let core = run_program(|b| {
            b.li(Reg::R1, 10);
            b.li(Reg::R2, 32);
            b.alu(AluOp::Add, Reg::R3, Reg::R1, Reg::R2);
            b.alu_imm(AluOp::Mul, Reg::R4, Reg::R3, 3);
            b.halt();
        });
        assert_eq!(core.read_arch_reg(Reg::R3), 42);
        assert_eq!(core.read_arch_reg(Reg::R4), 126);
    }

    #[test]
    fn loads_and_stores_roundtrip() {
        let core = run_program(|b| {
            b.li(Reg::R1, 0x20000);
            b.li(Reg::R2, 0xdead);
            b.store(Reg::R2, Reg::R1, 0);
            b.load(Reg::R3, Reg::R1, 0);
            b.halt();
            b.reserve(0x20000, 64);
        });
        assert_eq!(
            core.read_arch_reg(Reg::R3),
            0xdead,
            "store-to-load forwarding"
        );
        assert_eq!(core.read_memory(0x20000, 8), 0xdead, "committed to memory");
    }

    #[test]
    fn initialized_data_segment_is_loaded() {
        let core = run_program(|b| {
            b.li(Reg::R1, 0x30000);
            b.load(Reg::R2, Reg::R1, 8);
            b.halt();
            b.data_u64s(0x30000, &[111, 222]);
        });
        assert_eq!(core.read_arch_reg(Reg::R2), 222);
    }

    #[test]
    fn taken_loop_executes_correct_count() {
        let core = run_program(|b| {
            b.li(Reg::R1, 0);
            b.li(Reg::R2, 10);
            b.label("loop").unwrap();
            b.alu_imm(AluOp::Add, Reg::R1, Reg::R1, 1);
            b.branch_to(BranchCond::LtU, Reg::R1, Reg::R2, "loop");
            b.halt();
        });
        assert_eq!(core.read_arch_reg(Reg::R1), 10);
        assert!(
            core.stats().committed >= 22,
            "2 + 2*10 committed instructions"
        );
    }

    #[test]
    fn wrong_path_loads_fill_cache_on_origin() {
        // A branch that is architecturally not-taken but (after training
        // via loop iterations) predicted taken would be complex to set up;
        // instead exploit the cold not-taken prediction: branch IS taken,
        // mispredicted as not-taken, so the fall-through (wrong path)
        // executes speculatively and loads a line.
        let core = run_program(|b| {
            b.li(Reg::R1, 1);
            b.li(Reg::R9, 0x40000);
            // r2 = slow-to-resolve operand via a chain of multiplies.
            b.li(Reg::R2, 1);
            for _ in 0..8 {
                b.alu(AluOp::Mul, Reg::R2, Reg::R2, Reg::R1);
            }
            b.branch_to(BranchCond::Eq, Reg::R2, Reg::R1, "skip"); // taken; predicted NT when cold
                                                                   // Wrong path: load 0x40000.
            b.load(Reg::R3, Reg::R9, 0);
            b.nop();
            b.label("skip").unwrap();
            b.halt();
            b.reserve(0x40000, 64);
        });
        // The wrong-path load left its line in the cache (tag check via
        // peek latency = L1 hit latency).
        let lat = core.hierarchy().peek_latency(0x40000);
        assert_eq!(lat, 2, "wrong-path fill persisted after squash");
        assert_eq!(
            core.read_arch_reg(Reg::R3),
            0,
            "architecturally never loaded"
        );
        assert!(core.stats().mispredict_squashes >= 1);
    }

    #[test]
    fn store_bypass_violation_replays() {
        // Store to X with a slow address; younger load from X issues
        // first (speculative store bypass), reads stale 0, then replays
        // after the violation and sees 77.
        let core = run_program(|b| {
            b.li(Reg::R1, 0x50000);
            b.li(Reg::R2, 77);
            // Slow down the store's address with a multiply chain.
            b.li(Reg::R3, 1);
            for _ in 0..6 {
                b.alu(AluOp::Mul, Reg::R3, Reg::R3, Reg::R3);
            }
            b.alu(AluOp::Mul, Reg::R4, Reg::R1, Reg::R3); // r4 = 0x50000 * 1
            b.store(Reg::R2, Reg::R4, 0);
            b.load(Reg::R5, Reg::R1, 0);
            b.halt();
            b.reserve(0x50000, 64);
        });
        assert_eq!(
            core.read_arch_reg(Reg::R5),
            77,
            "violation replay fixed the value"
        );
        assert!(
            core.stats().violation_squashes >= 1,
            "the bypass was detected"
        );
    }

    #[test]
    fn fence_serializes_but_preserves_results() {
        let core = run_program(|b| {
            b.li(Reg::R1, 5);
            b.fence();
            b.alu_imm(AluOp::Add, Reg::R2, Reg::R1, 1);
            b.fence();
            b.halt();
        });
        assert_eq!(core.read_arch_reg(Reg::R2), 6);
    }

    #[test]
    fn call_and_ret() {
        let core = run_program(|b| {
            b.li(Reg::R1, 1);
            b.call_to("f", Reg::R31);
            b.alu_imm(AluOp::Add, Reg::R1, Reg::R1, 100);
            b.halt();
            b.label("f").unwrap();
            b.alu_imm(AluOp::Add, Reg::R1, Reg::R1, 10);
            b.ret(Reg::R31);
        });
        assert_eq!(core.read_arch_reg(Reg::R1), 111);
    }

    #[test]
    fn indirect_jump() {
        let core = run_program(|b| {
            b.li(Reg::R1, 0x1000 + 5 * 4); // address of the halt below
            b.jump_indirect(Reg::R1, 0);
            b.li(Reg::R2, 0xbad);
            b.li(Reg::R2, 0xbad);
            b.li(Reg::R2, 0xbad);
            b.halt();
        });
        assert_eq!(core.read_arch_reg(Reg::R2), 0);
    }

    #[test]
    fn flush_instruction_evicts_line() {
        let core = run_program(|b| {
            b.li(Reg::R1, 0x60000);
            b.load(Reg::R2, Reg::R1, 0); // bring the line in
            b.fence();
            b.flush(Reg::R1, 0);
            b.fence();
            b.halt();
            b.reserve(0x60000, 64);
        });
        assert!(core.hierarchy().peek_latency(0x60000) > 2, "line flushed");
    }

    #[test]
    fn stuck_program_detected() {
        let mut core = Core::with_defaults();
        let mut b = ProgramBuilder::new(0x1000);
        b.label("spin").unwrap();
        b.jump_to("spin"); // commits forever... actually commits jumps; use wedge instead
        let program = b.build().unwrap();
        core.load_program(Arc::new(program));
        // An infinite loop commits instructions forever — CycleLimit.
        let result = core.run(50_000);
        assert_eq!(result.exit, ExitReason::CycleLimit);

        // A program with no instructions at the entry wedges fetch: Stuck.
        let mut core = Core::with_defaults();
        let empty = ProgramBuilder::new(0x1000).build().unwrap();
        core.load_program(Arc::new(empty));
        let result = core.run(400_000);
        assert_eq!(result.exit, ExitReason::Stuck);
    }

    #[test]
    fn ipc_is_positive_and_bounded() {
        let core = run_program(|b| {
            b.li(Reg::R1, 0);
            b.li(Reg::R2, 200);
            b.label("loop").unwrap();
            b.alu_imm(AluOp::Add, Reg::R1, Reg::R1, 1);
            b.alu_imm(AluOp::Add, Reg::R3, Reg::R1, 7);
            b.alu(AluOp::Xor, Reg::R4, Reg::R3, Reg::R1);
            b.branch_to(BranchCond::LtU, Reg::R1, Reg::R2, "loop");
            b.halt();
        });
        let ipc = core.stats().ipc();
        assert!(
            ipc > 0.5,
            "simple loop should sustain decent IPC, got {ipc}"
        );
        assert!(ipc <= 4.0, "cannot exceed machine width");
    }

    #[test]
    fn functional_matches_detailed_architectural_state() {
        let build = |b: &mut ProgramBuilder| {
            b.li(Reg::R1, 0);
            b.li(Reg::R2, 50);
            b.li(Reg::R9, 0x20000);
            b.label("loop").unwrap();
            b.alu_imm(AluOp::Add, Reg::R1, Reg::R1, 1);
            b.alu(AluOp::Xor, Reg::R3, Reg::R1, Reg::R2);
            b.store(Reg::R3, Reg::R9, 0);
            b.load(Reg::R4, Reg::R9, 0);
            b.branch_to(BranchCond::LtU, Reg::R1, Reg::R2, "loop");
            b.halt();
            b.reserve(0x20000, 64);
        };
        let mut detailed = Core::with_defaults();
        let mut b = ProgramBuilder::new(0x1000);
        build(&mut b);
        let program = Arc::new(b.build().unwrap());
        detailed.load_program(Arc::clone(&program));
        let r = detailed.run(1_000_000);
        assert_eq!(r.exit, ExitReason::Halted);

        let mut functional = Core::with_defaults();
        functional.load_program(program);
        let f = functional.run_functional(1_000_000).unwrap();
        assert_eq!(f.exit, FunctionalExit::Halted);
        assert_eq!(f.retired, detailed.stats().committed);
        for reg in Reg::ALL {
            assert_eq!(
                functional.read_arch_reg(reg),
                detailed.read_arch_reg(reg),
                "{reg} diverged"
            );
        }
        assert_eq!(
            functional.read_memory(0x20000, 8),
            detailed.read_memory(0x20000, 8)
        );
    }

    #[test]
    fn quiesce_capture_restore_continues_identically() {
        let build = |b: &mut ProgramBuilder| {
            b.li(Reg::R1, 0);
            b.li(Reg::R2, 400);
            b.li(Reg::R9, 0x20000);
            b.label("loop").unwrap();
            b.alu_imm(AluOp::Add, Reg::R1, Reg::R1, 1);
            b.store(Reg::R1, Reg::R9, 0);
            b.load(Reg::R4, Reg::R9, 0);
            b.branch_to(BranchCond::LtU, Reg::R1, Reg::R2, "loop");
            b.halt();
            b.reserve(0x20000, 64);
        };
        let mut b = ProgramBuilder::new(0x1000);
        build(&mut b);
        let program = Arc::new(b.build().unwrap());

        // Run mid-loop, quiesce at an arbitrary point, capture.
        let mut original = Core::with_defaults();
        original.load_program(Arc::clone(&program));
        original.run(700);
        assert!(!original.is_halted(), "must stop mid-program");
        original.quiesce();
        let snap = original.capture_snapshot().expect("quiesced");

        // Restore into a fresh core and continue both to halt.
        let mut restored = Core::with_defaults();
        restored.restore_snapshot(&snap, Arc::clone(&program), Box::new(NullPolicy));
        assert_eq!(restored.capture_snapshot().expect("clean"), snap);
        original.reset_stats();
        restored.reset_stats();
        let ro = original.run(1_000_000);
        let rr = restored.run(1_000_000);
        assert_eq!(ro.exit, ExitReason::Halted);
        assert_eq!(rr.exit, ExitReason::Halted);
        assert_eq!(ro.cycles, rr.cycles, "identical window timing");
        assert_eq!(ro.committed, rr.committed);
        assert_eq!(original.cycle(), restored.cycle());
        for reg in Reg::ALL {
            assert_eq!(original.read_arch_reg(reg), restored.read_arch_reg(reg));
        }
    }

    #[test]
    fn run_until_committed_stops_at_target() {
        let mut core = Core::with_defaults();
        let mut b = ProgramBuilder::new(0x1000);
        b.li(Reg::R1, 0);
        b.li(Reg::R2, 10_000);
        b.label("loop").unwrap();
        b.alu_imm(AluOp::Add, Reg::R1, Reg::R1, 1);
        b.branch_to(BranchCond::LtU, Reg::R1, Reg::R2, "loop");
        b.halt();
        core.load_program(Arc::new(b.build().unwrap()));
        let r = core.run_until_committed(500, 1_000_000);
        assert_eq!(r.exit, ExitReason::CommitLimit);
        assert!(r.committed >= 500);
        assert!(
            r.committed < 500 + core.config().commit_width as u64,
            "overshoot bounded by commit width"
        );
    }

    #[test]
    fn functional_rejects_busy_pipeline() {
        let mut core = run_program(|b| {
            b.li(Reg::R1, 7);
            b.halt();
        });
        assert!(core.run_functional(10).is_ok(), "halted core is quiesced");
        let mut busy = Core::with_defaults();
        let mut b = ProgramBuilder::new(0x1000);
        b.li(Reg::R1, 0);
        b.li(Reg::R2, 1000);
        b.label("loop").unwrap();
        b.alu_imm(AluOp::Add, Reg::R1, Reg::R1, 1);
        b.branch_to(BranchCond::LtU, Reg::R1, Reg::R2, "loop");
        b.halt();
        busy.load_program(Arc::new(b.build().unwrap()));
        while busy.is_quiesced() {
            busy.step();
        }
        assert!(busy.run_functional(10).is_err());
        assert!(busy.capture_snapshot().is_err());
        busy.quiesce();
        assert!(busy.run_functional(10).is_ok());
    }

    #[test]
    fn architectural_state_identical_under_store_bypass_toggle() {
        let build = |b: &mut ProgramBuilder| {
            b.li(Reg::R1, 0x70000);
            b.li(Reg::R2, 3);
            b.li(Reg::R3, 1);
            for _ in 0..4 {
                b.alu(AluOp::Mul, Reg::R3, Reg::R3, Reg::R3);
            }
            b.alu(AluOp::Mul, Reg::R4, Reg::R1, Reg::R3);
            b.store(Reg::R2, Reg::R4, 8);
            b.load(Reg::R5, Reg::R1, 8);
            b.alu(AluOp::Add, Reg::R6, Reg::R5, Reg::R2);
            b.halt();
            b.reserve(0x70000, 64);
        };
        let mut with_bypass = Core::with_defaults();
        let mut config = CoreConfig::paper_default();
        config.spec_store_bypass = false;
        let mut without_bypass = Core::new(
            config,
            FrontEnd::new(condspec_frontend::PredictorConfig::paper_default()),
            CacheHierarchy::new(condspec_mem::HierarchyConfig::paper_default()),
            Tlb::new(condspec_mem::TlbConfig::paper_default()),
            PageTable::new(),
            Box::new(NullPolicy),
        );
        for core in [&mut with_bypass, &mut without_bypass] {
            let mut b = ProgramBuilder::new(0x1000);
            build(&mut b);
            core.load_program(Arc::new(b.build().unwrap()));
            assert_eq!(core.run(1_000_000).exit, ExitReason::Halted);
        }
        for r in [Reg::R5, Reg::R6] {
            assert_eq!(
                with_bypass.read_arch_reg(r),
                without_bypass.read_arch_reg(r),
                "bypass changes timing, never architecture"
            );
        }
        assert_eq!(with_bypass.read_arch_reg(Reg::R5), 3);
    }
}
