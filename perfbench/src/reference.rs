//! Recorded reference outputs the correctness checks compare against.
//!
//! Every value here is deterministic: the simulator's outputs do not
//! depend on the seed, the worker count or the host. A change that
//! alters simulated behaviour must re-record them (and say why); a
//! change meant only to make the program faster must leave them alone.
//!
//! To regenerate, run a workload and read the `perfbench: observed`
//! lines it prints on stderr when a check fails, and for the
//! full-detailed cycle counts of the sampled programs run
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- --reference
//! ```
//!
//! which simulates each program in full detail (about 45 s).

use crate::Size;

/// The paper's Figure 5 averages: Baseline, Cache-hit,
/// Cache-hit+TPBuf, and the branch-only Baseline ablation.
pub const PAPER_FIG5: [f64; 4] = [1.536, 1.128, 1.068, 1.230];

/// Recorded outputs of the Figure 5 sweep.
#[derive(Debug, Clone, Copy)]
pub struct Fig5Ref {
    /// SHA-256 of the job artifacts concatenated in file-name order
    /// (`cat <sweep-dir>/<hash>.json | sha256sum`).
    pub digest: &'static str,
    /// Sum of simulated cycles over all reports.
    pub cycles: u64,
    /// Sum of committed instructions over all reports.
    pub committed: u64,
}

/// The Figure 5 reference for `size` (`Small` is the sweep scaled to
/// one measured and one warm-up iteration).
pub fn fig5(size: Size) -> Fig5Ref {
    match size {
        Size::Full => Fig5Ref {
            digest: "3e02d07535fe686c4cbf31108a2d43f0a15810843030089dfe43f98c870c191b",
            cycles: 38_777_089,
            committed: 36_157_065,
        },
        Size::Small => Fig5Ref {
            digest: "6c59d9be6a6e78a1dd8c59c48e71acde7d2e854caa8dd91a6969b6bfa0bb5da1",
            cycles: 393_061,
            committed: 905_360,
        },
    }
}

/// Recorded outputs of one sampled program.
#[derive(Debug, Clone, Copy)]
pub struct SampledRef {
    /// Benchmark name.
    pub benchmark: &'static str,
    /// Whole-program instruction count from the functional count pass.
    pub total_insts: u64,
    /// Cycles of the stitched estimate.
    pub stitched_cycles: u64,
    /// SHA-256 of the stitched report's rendered JSON.
    pub report_digest: &'static str,
    /// Cycles of the same program simulated in full detail.
    pub detailed_cycles: u64,
}

/// The sampled programs' references for `size`.
pub fn sampled(size: Size) -> &'static [SampledRef] {
    match size {
        Size::Full => &[
            SampledRef {
                benchmark: "mcf",
                total_insts: 30_919_736,
                stitched_cycles: 77_171_800,
                report_digest: "2ba34205bcaf583a78f9c1288cf26f2887e71ad412be7af64a3fb4f95a9131ac",
                detailed_cycles: 71_276_041,
            },
            SampledRef {
                benchmark: "lbm",
                total_insts: 28_608_013,
                stitched_cycles: 73_077_812,
                report_digest: "2757ff2ae7f812b90435c5e112e8f2275d0a974ceea2c437f959f589506249be",
                detailed_cycles: 72_794_139,
            },
            SampledRef {
                benchmark: "gcc",
                total_insts: 35_055_903,
                stitched_cycles: 18_229_761,
                report_digest: "17c6b005f03502bc7ff1cb2b088f3dd67e78c41044addfdb630956f97f18fb5c",
                detailed_cycles: 17_848_482,
            },
        ],
        Size::Small => &[
            SampledRef {
                benchmark: "mcf",
                total_insts: 154_626,
                stitched_cycles: 1_329_671,
                report_digest: "dd51fe332583a1090c19f05869cac0ad704990f87b4eb1ccb1c54856e4bbe491",
                detailed_cycles: 423_303,
            },
            SampledRef {
                benchmark: "lbm",
                total_insts: 143_053,
                stitched_cycles: 760_517,
                report_digest: "785d627b23f97dd162e5366eefa150cdad32df26729c26b3deb85dd2fd5c569f",
                detailed_cycles: 388_738,
            },
            SampledRef {
                benchmark: "gcc",
                total_insts: 175_363,
                stitched_cycles: 2_116_295,
                report_digest: "1157cae24cf4cd92242b22c9af29c426ff5bd7b53f060badd8501c8a4d35db04",
                detailed_cycles: 120_350,
            },
        ],
    }
}
