//! Seeded differential fuzzing: ≥1,000 generated programs through both
//! machines, asserting byte-identical observations (outcome, stats,
//! final registers with tags, memory, execution profile, PC history).
//! The interpreter, the oracle, runs with a trace sink and trace
//! collection on; the compiled `turbo` machine (which the `fast` label
//! also runs) runs uninstrumented, so the sweep tests `run_bare`, the
//! loop every measurement uses.
//!
//! Each seed fully determines the program; failures print a one-command
//! repro (`sentinel fuzz --seed N …`). Seeds cycle through the full
//! (model, width) grid — all four models R/G/S/T at widths 1/2/4/8 — so
//! every 16 consecutive seeds cover the whole grid. The four tests split
//! the seed space by (alias_frac, trap_frac) mix, covering trap-free
//! runs, alias-heavy schedules (speculative-store pressure under model
//! T), trap-heavy runs (deferred exceptions mid-run), and both at once.
//! A fifth test runs instruction boosting (B1/B2/B4/B16, each at widths
//! 1/2/4/8) on programs with both aliasing and traps, so boosted
//! faults reach the shadow commit.

use sentinel::fuzz::run_batch;
use sentinel_core::SchedulingModel;

/// Seeds per (alias, trap) mix: 4 × 256 = 1,024 cases total.
const CASES_PER_MIX: u64 = 256;

#[test]
fn fuzz_trap_free() {
    run_batch(0, CASES_PER_MIX, 0.0, 0.0, None, None).unwrap();
}

#[test]
fn fuzz_alias_heavy() {
    run_batch(10_000, CASES_PER_MIX, 0.35, 0.0, None, None).unwrap();
}

#[test]
fn fuzz_trap_heavy() {
    run_batch(20_000, CASES_PER_MIX, 0.0, 0.25, None, None).unwrap();
}

#[test]
fn fuzz_alias_and_traps() {
    run_batch(30_000, CASES_PER_MIX, 0.25, 0.15, None, None).unwrap();
}

/// Seeds per boosting depth: 4 × 32 = 128 cases, 8 per (depth, width).
const BOOST_CASES_PER_DEPTH: u64 = 32;

#[test]
fn fuzz_boosting_alias_and_traps() {
    for (i, levels) in [1, 2, 4, 16].into_iter().enumerate() {
        let start = 40_000 + i as u64 * BOOST_CASES_PER_DEPTH;
        let model = Some(SchedulingModel::Boosting(levels));
        run_batch(start, BOOST_CASES_PER_DEPTH, 0.25, 0.25, model, None).unwrap();
    }
}
