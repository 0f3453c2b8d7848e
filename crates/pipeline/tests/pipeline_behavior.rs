//! Behavioural tests for the out-of-order core: squash nesting, RAS
//! pressure, store-data forwarding stalls, structural-hazard stress, and
//! the hazard-filter block/replay machinery (driven by a test-local
//! `SecurityPolicy`).

use condspec_frontend::{FrontEnd, PredictorConfig};
use condspec_isa::{AluOp, BranchCond, ProgramBuilder, Reg};
use condspec_mem::{CacheHierarchy, HierarchyConfig, LruUpdate, PageTable, Tlb, TlbConfig};
use condspec_pipeline::policy::{
    BlockFilter, DispatchInfo, IqEntryView, MemAccessQuery, MemDecision, SecurityPolicy,
};
use condspec_pipeline::{Core, CoreConfig, ExitReason, TraceEvent};

fn core_with(config: CoreConfig, policy: Box<dyn SecurityPolicy>) -> Core {
    Core::new(
        config,
        FrontEnd::new(PredictorConfig::paper_default()),
        CacheHierarchy::new(HierarchyConfig::paper_default()),
        Tlb::new(TlbConfig::paper_default()),
        PageTable::new(),
        policy,
    )
}

/// Blocks every load's first `n` issue attempts, then permits it.
/// Exercises the bounce / re-issue machinery without the condspec crate.
struct BlockFirstN {
    n: u32,
    attempts: std::collections::HashMap<u64, u32>,
}

impl BlockFirstN {
    fn new(n: u32) -> Self {
        BlockFirstN {
            n,
            attempts: std::collections::HashMap::new(),
        }
    }
}

impl SecurityPolicy for BlockFirstN {
    fn name(&self) -> &'static str {
        "block-first-n"
    }
    fn on_dispatch(&mut self, _info: DispatchInfo, _older: &[IqEntryView]) {}
    fn suspect_on_issue(&self, _slot: usize) -> bool {
        true
    }
    fn on_issue(&mut self, _slot: usize) {}
    fn on_slot_freed(&mut self, _slot: usize) {}
    fn has_pending_dependence(&self, _slot: usize) -> bool {
        false // deps "clear" immediately; only the replay penalty delays
    }
    fn check_mem_access(&mut self, query: &MemAccessQuery) -> MemDecision {
        let count = self.attempts.entry(query.seq).or_insert(0);
        *count += 1;
        if *count <= self.n {
            MemDecision::Block {
                filter: BlockFilter::Baseline,
            }
        } else {
            MemDecision::Proceed {
                l1_update: LruUpdate::Normal,
            }
        }
    }
}

fn simple_load_program() -> condspec_isa::Program {
    let mut b = ProgramBuilder::new(0x1000);
    b.li(Reg::R1, 0x20000);
    b.load(Reg::R2, Reg::R1, 0);
    b.halt();
    b.data_u64s(0x20000, &[0xfeed]);
    b.build().expect("assembles")
}

#[test]
fn blocked_loads_replay_and_still_produce_correct_values() {
    let mut core = core_with(CoreConfig::paper_default(), Box::new(BlockFirstN::new(3)));
    core.load_program(std::sync::Arc::new(simple_load_program()));
    assert_eq!(core.run(100_000).exit, ExitReason::Halted);
    assert_eq!(core.read_arch_reg(Reg::R2), 0xfeed);
    assert_eq!(
        core.stats().block_events,
        3,
        "three bounces before the access proceeds"
    );
    assert_eq!(core.stats().blocked_committed_loads, 1);
}

#[test]
fn replay_penalty_delays_re_issue() {
    // With deps always clear, each bounce costs at least the configured
    // replay penalty.
    let mut config = CoreConfig::paper_default();
    config.block_replay_penalty = 50;
    let mut slow = core_with(config, Box::new(BlockFirstN::new(4)));
    slow.load_program(std::sync::Arc::new(simple_load_program()));
    slow.run(100_000);
    let slow_cycles = slow.stats().cycles;

    let mut config = CoreConfig::paper_default();
    config.block_replay_penalty = 1;
    let mut fast = core_with(config, Box::new(BlockFirstN::new(4)));
    fast.load_program(std::sync::Arc::new(simple_load_program()));
    fast.run(100_000);
    let fast_cycles = fast.stats().cycles;

    assert!(
        slow_cycles >= fast_cycles + 3 * (50 - 1),
        "4 bounces x 49 extra penalty cycles must show up: slow={slow_cycles} fast={fast_cycles}"
    );
}

#[test]
fn nested_mispredictions_recover() {
    // A mispredicted branch whose wrong path contains another branch;
    // squash must unwind cleanly and the architectural result must be
    // exact.
    let mut core = Core::with_defaults();
    let mut b = ProgramBuilder::new(0x1000);
    b.li(Reg::R1, 1);
    b.li(Reg::R2, 1);
    for _ in 0..10 {
        b.alu(AluOp::Mul, Reg::R2, Reg::R2, Reg::R2); // delay: r2 stays 1
    }
    b.branch_to(BranchCond::Eq, Reg::R2, Reg::R1, "outer_taken"); // taken, predicted NT
                                                                  // Wrong path: another slow branch, also "taken" if executed.
    b.branch_to(BranchCond::Eq, Reg::R2, Reg::R1, "inner_taken");
    b.alu_imm(AluOp::Add, Reg::R10, Reg::R10, 100); // doubly-wrong path
    b.label("inner_taken").expect("fresh");
    b.alu_imm(AluOp::Add, Reg::R11, Reg::R11, 100); // wrong path
    b.label("outer_taken").expect("fresh");
    b.alu_imm(AluOp::Add, Reg::R12, Reg::R12, 1);
    b.halt();
    core.load_program(std::sync::Arc::new(b.build().expect("assembles")));
    assert_eq!(core.run(100_000).exit, ExitReason::Halted);
    assert_eq!(
        core.read_arch_reg(Reg::R10),
        0,
        "doubly-wrong path rolled back"
    );
    assert_eq!(core.read_arch_reg(Reg::R11), 0, "wrong path rolled back");
    assert_eq!(core.read_arch_reg(Reg::R12), 1, "correct path committed");
}

#[test]
fn deep_recursion_overflows_ras_but_stays_correct() {
    // 24 nested calls against a 16-deep RAS: the predictor mispredicts
    // some returns, the machine must still compute the right answer.
    let mut core = Core::with_defaults();
    let mut b = ProgramBuilder::new(0x1000);
    // Iterative "recursion": call chain f0 -> f1 -> ... -> f23 with
    // distinct link registers is impossible (32 regs), so spill return
    // addresses to memory in a stack discipline.
    b.li(Reg::R1, 0x30000); // stack pointer
    b.li(Reg::R2, 0);
    b.call_to("f", Reg::R31);
    b.halt();
    b.label("f").expect("fresh");
    // push link
    b.store(Reg::R31, Reg::R1, 0);
    b.alu_imm(AluOp::Add, Reg::R1, Reg::R1, 8);
    b.alu_imm(AluOp::Add, Reg::R2, Reg::R2, 1);
    // if depth < 24 recurse
    b.li(Reg::R3, 24);
    b.branch_to(BranchCond::GeU, Reg::R2, Reg::R3, "unwind");
    b.call_to("f", Reg::R31);
    b.label("unwind").expect("fresh");
    b.alu_imm(AluOp::Add, Reg::R1, Reg::R1, -8);
    b.load(Reg::R31, Reg::R1, 0);
    b.ret(Reg::R31);
    b.reserve(0x30000, 4096);
    core.load_program(std::sync::Arc::new(b.build().expect("assembles")));
    assert_eq!(core.run(1_000_000).exit, ExitReason::Halted);
    assert_eq!(core.read_arch_reg(Reg::R2), 24);
}

#[test]
fn load_waits_for_older_store_data() {
    // Store with fast address but slow data; an overlapping younger load
    // must wait and then forward the correct value.
    let mut core = Core::with_defaults();
    let mut b = ProgramBuilder::new(0x1000);
    b.li(Reg::R1, 0x40000);
    b.li(Reg::R2, 3);
    for _ in 0..8 {
        b.alu(AluOp::Mul, Reg::R2, Reg::R2, Reg::R2); // slow data chain
    }
    b.store(Reg::R2, Reg::R1, 0); // address ready instantly, data late
    b.load(Reg::R3, Reg::R1, 0); // overlaps: must wait for the data
    b.halt();
    b.reserve(0x40000, 64);
    core.load_program(std::sync::Arc::new(b.build().expect("assembles")));
    assert_eq!(core.run(100_000).exit, ExitReason::Halted);
    let expected = {
        let mut v = 3u64;
        for _ in 0..8 {
            v = v.wrapping_mul(v);
        }
        v
    };
    assert_eq!(core.read_arch_reg(Reg::R3), expected);
    assert_eq!(core.read_memory(0x40000, 8), expected);
}

#[test]
fn tiny_machine_survives_structural_pressure() {
    // A 1-wide machine with minimal queues: everything stalls constantly
    // but the result must be exact.
    let config = CoreConfig {
        fetch_width: 1,
        dispatch_width: 1,
        issue_width: 1,
        commit_width: 1,
        rob_entries: 4,
        iq_entries: 2,
        ldq_entries: 1,
        stq_entries: 1,
        phys_regs: 40,
        decode_latency: 1,
        redirect_penalty: 2,
        spec_store_bypass: true,
        cache_ports: 1,
        fetch_queue: 2,
        mul_latency: 3,
        block_replay_penalty: 12,
        icache_filter: false,
    };
    let mut core = core_with(config, Box::new(condspec_pipeline::NullPolicy));
    let mut b = ProgramBuilder::new(0x1000);
    b.li(Reg::R1, 0x50000);
    b.li(Reg::R2, 0);
    b.li(Reg::R3, 30);
    b.label("loop").expect("fresh");
    b.store(Reg::R2, Reg::R1, 0);
    b.load(Reg::R4, Reg::R1, 0);
    b.alu(AluOp::Add, Reg::R5, Reg::R5, Reg::R4);
    b.alu_imm(AluOp::Add, Reg::R2, Reg::R2, 1);
    b.branch_to(BranchCond::LtU, Reg::R2, Reg::R3, "loop");
    b.halt();
    b.reserve(0x50000, 64);
    core.load_program(std::sync::Arc::new(b.build().expect("assembles")));
    assert_eq!(core.run(1_000_000).exit, ExitReason::Halted);
    assert_eq!(core.read_arch_reg(Reg::R5), (0..30).sum::<u64>());
}

#[test]
fn violation_squash_restarts_from_the_oldest_violating_load() {
    // Two younger loads bypass a slow-address store; both overlap. The
    // squash must replay both and produce stored values.
    let mut core = Core::with_defaults();
    let mut b = ProgramBuilder::new(0x1000);
    b.li(Reg::R1, 0x60000);
    b.li(Reg::R2, 0x99);
    b.li(Reg::R3, 1);
    for _ in 0..8 {
        b.alu(AluOp::Mul, Reg::R3, Reg::R3, Reg::R3);
    }
    b.alu(AluOp::Mul, Reg::R4, Reg::R1, Reg::R3); // slow copy of the address
    b.store(Reg::R2, Reg::R4, 0);
    b.load(Reg::R5, Reg::R1, 0); // bypasses, reads stale 0
    b.load(Reg::R6, Reg::R1, 4); // overlaps the 8-byte store too
    b.halt();
    b.reserve(0x60000, 64);
    core.load_program(std::sync::Arc::new(b.build().expect("assembles")));
    assert_eq!(core.run(100_000).exit, ExitReason::Halted);
    assert_eq!(core.read_arch_reg(Reg::R5), 0x99);
    assert_eq!(
        core.read_arch_reg(Reg::R6),
        0,
        "upper half of the store is zero"
    );
    assert!(core.stats().violation_squashes >= 1);
}

#[test]
fn fence_costs_cycles_but_changes_nothing_else() {
    let build = |fences: bool| {
        let mut b = ProgramBuilder::new(0x1000);
        b.li(Reg::R1, 0x70000);
        b.li(Reg::R2, 0);
        b.li(Reg::R3, 40);
        b.label("loop").expect("fresh");
        b.load(Reg::R4, Reg::R1, 0);
        if fences {
            b.fence();
        }
        b.alu(AluOp::Add, Reg::R5, Reg::R5, Reg::R4);
        b.alu_imm(AluOp::Add, Reg::R2, Reg::R2, 1);
        b.branch_to(BranchCond::LtU, Reg::R2, Reg::R3, "loop");
        b.halt();
        b.data_u64s(0x70000, &[7]);
        b.build().expect("assembles")
    };
    let run = |fences: bool| {
        let mut core = Core::with_defaults();
        core.load_program(std::sync::Arc::new(build(fences)));
        assert_eq!(core.run(1_000_000).exit, ExitReason::Halted);
        (core.read_arch_reg(Reg::R5), core.stats().cycles)
    };
    let (plain_sum, plain_cycles) = run(false);
    let (fenced_sum, fenced_cycles) = run(true);
    assert_eq!(plain_sum, 280);
    assert_eq!(fenced_sum, 280, "fences never change results");
    assert!(
        fenced_cycles > plain_cycles,
        "serialization must cost: {fenced_cycles} vs {plain_cycles}"
    );
}

#[test]
fn trace_records_the_pipeline_story() {
    let mut core = core_with(CoreConfig::paper_default(), Box::new(BlockFirstN::new(1)));
    core.enable_trace(1024);
    core.load_program(std::sync::Arc::new(simple_load_program()));
    assert_eq!(core.run(100_000).exit, ExitReason::Halted);
    let trace = core.disable_trace().expect("tracing was enabled");
    use condspec_pipeline::TraceEvent;
    let mut saw_dispatch = false;
    let mut saw_block = false;
    let mut saw_commit = false;
    let mut last_cycle = 0;
    for event in trace.events() {
        assert!(event.cycle() >= last_cycle, "events are time-ordered");
        last_cycle = event.cycle();
        match event {
            TraceEvent::Dispatch { .. } => saw_dispatch = true,
            TraceEvent::Block { .. } => saw_block = true,
            TraceEvent::Commit { .. } => saw_commit = true,
            _ => {}
        }
    }
    assert!(
        saw_dispatch && saw_block && saw_commit,
        "full story: {trace}"
    );
    assert!(
        core.trace_buffer().is_none(),
        "disable_trace takes the buffer"
    );
}

/// Program-order indices (= sequence numbers while nothing squashes) of
/// the instructions [`busy_core`] watches.
const BUSY_DATA_LOAD: u64 = 3;
const BUSY_STORE: u64 = 4;
const BUSY_BLOCKED_LOAD: u64 = 5;
const BUSY_ADDS: u64 = 32;

/// A store whose data comes from a bounced load, a second bounced load,
/// and a run of adds that all wait on the first load's value.
fn busy_program() -> condspec_isa::Program {
    let mut b = ProgramBuilder::new(0x1000);
    b.li(Reg::R1, 0x20000);
    b.li(Reg::R8, 0x40000);
    b.li(Reg::R9, 0x30000);
    b.load(Reg::R2, Reg::R8, 0); // BUSY_DATA_LOAD
    b.store(Reg::R2, Reg::R1, 0); // BUSY_STORE: address ready, data not
    b.load(Reg::R3, Reg::R9, 0); // BUSY_BLOCKED_LOAD
    for _ in 0..BUSY_ADDS {
        b.alu(AluOp::Add, Reg::R5, Reg::R5, Reg::R2);
    }
    b.halt();
    b.reserve(0x20000, 64);
    b.data_u64s(0x30000, &[0xbeef]);
    b.data_u64s(0x40000, &[5]);
    b.build().expect("assembles")
}

/// A core stepped into a busy state: ROB, fetch queue and pending store
/// data all non-empty, and a load bounced back into the IQ. Each load
/// bounces 200 times; the adds waiting on the first load fill the
/// (small) IQ, so dispatch stalls while fetch keeps queueing. The state
/// is read off the public trace and statistics.
fn busy_core() -> Core {
    let mut config = CoreConfig::paper_default();
    config.iq_entries = 16;
    let mut core = core_with(config, Box::new(BlockFirstN::new(200)));
    core.enable_trace(1 << 16);
    core.load_program(std::sync::Arc::new(busy_program()));
    for _ in 0..20_000 {
        core.step();
        assert_eq!(core.stats().mispredict_squashes, 0);
        assert_eq!(core.stats().violation_squashes, 0);
        let events: Vec<TraceEvent> = core
            .trace_buffer()
            .expect("tracing")
            .events()
            .copied()
            .collect();
        let issued = |seq| {
            events
                .iter()
                .any(|e| matches!(e, TraceEvent::Issue { seq: s, .. } if *s == seq))
        };
        let completed = |seq| {
            events
                .iter()
                .any(|e| matches!(e, TraceEvent::Complete { seq: s, .. } if *s == seq))
        };
        let store_data_pending = issued(BUSY_STORE) && !completed(BUSY_DATA_LOAD);
        let load_bounced = matches!(
            events.iter().rev().find(|e| matches!(
                e,
                TraceEvent::Issue { seq, .. } | TraceEvent::Block { seq, .. } if *seq == BUSY_BLOCKED_LOAD
            )),
            Some(TraceEvent::Block { .. })
        );
        let dispatched = events
            .iter()
            .filter(|e| matches!(e, TraceEvent::Dispatch { .. }))
            .count();
        let fetched = core.hierarchy().stats().l1i.total();
        let fetch_queue_busy = fetched > dispatched as u64;
        if store_data_pending && load_bounced && fetch_queue_busy {
            assert!(!core.is_quiesced());
            core.check_invariants().expect("busy state is consistent");
            core.disable_trace();
            return core;
        }
    }
    panic!("the core never reached the busy state");
}

#[test]
fn reloading_resetting_or_quiescing_a_busy_core_leaves_it_consistent() {
    let mut reloaded = busy_core();
    reloaded.load_program(std::sync::Arc::new(simple_load_program()));
    reloaded
        .check_invariants()
        .expect("load_program leaves the core consistent");
    assert_eq!(reloaded.run(100_000).exit, ExitReason::Halted);
    assert_eq!(reloaded.read_arch_reg(Reg::R2), 0xfeed);

    let mut reset = busy_core();
    reset.reset_cold(Box::new(BlockFirstN::new(0)));
    reset
        .check_invariants()
        .expect("reset_cold leaves the core consistent");
    assert!(reset.is_quiesced());
    reset.load_program(std::sync::Arc::new(simple_load_program()));
    assert_eq!(reset.run(100_000).exit, ExitReason::Halted);
    assert_eq!(reset.read_arch_reg(Reg::R2), 0xfeed);

    let mut quiesced = busy_core();
    quiesced.quiesce();
    quiesced
        .check_invariants()
        .expect("quiesce leaves the core consistent");
    assert!(quiesced.is_quiesced());
    assert_eq!(quiesced.run(100_000).exit, ExitReason::Halted);
    assert_eq!(quiesced.read_arch_reg(Reg::R3), 0xbeef);
    assert_eq!(quiesced.read_arch_reg(Reg::R5), 5 * BUSY_ADDS);
    assert_eq!(quiesced.read_memory(0x20000, 8), 5);
}
