//! Brute-force cross-validation of liveness on generated programs: `r`
//! is live before point `p` iff some CFG path from `p` reaches a use of
//! `r` before any redefinition — checked by explicit path search.
//!
//! Driven by the in-tree deterministic RNG (seed loop) instead of an
//! external property-testing framework so the workspace builds offline.

use std::collections::{HashSet, VecDeque};

use sentinel::prog::cfg::Cfg;
use sentinel::prog::liveness::Liveness;
use sentinel::prog::Function;
use sentinel_isa::{BlockId, Reg};
use sentinel_workloads::{generate, BenchClass, Rng, WorkloadSpec};

fn spec_for(seed: u64) -> WorkloadSpec {
    WorkloadSpec {
        name: "dfprop",
        class: BenchClass::NonNumeric,
        seed,
        loops: 1,
        regions_per_loop: 3,
        insns_per_region: 4,
        iterations: 2,
        load_frac: 0.3,
        store_frac: 0.1,
        fp_frac: 0.2,
        mul_frac: 0.05,
        div_frac: 0.02,
        side_exit_prob: 0.2,
        branch_on_load: 0.7,
        chain_frac: 0.6,
        alias_frac: 0.2,
        trap_frac: 0.0,
    }
}

/// Brute-force liveness of `r` before `(block, pos)`: BFS over program
/// points, stopping paths at redefinitions.
fn brute_force_live(func: &Function, start: (BlockId, usize), r: Reg) -> bool {
    let mut seen: HashSet<(BlockId, usize)> = HashSet::new();
    let mut work = VecDeque::from([start]);
    while let Some((b, pos)) = work.pop_front() {
        if !seen.insert((b, pos)) {
            continue;
        }
        let insns = &func.block(b).insns;
        if pos >= insns.len() {
            if !func.block(b).ends_in_unconditional() {
                if let Some(ft) = func.fallthrough_of(b) {
                    work.push_back((ft, 0));
                }
            }
            continue;
        }
        let insn = &insns[pos];
        if insn.uses().any(|u| u == r) {
            return true;
        }
        // Branch targets are alternative continuations *before* the def
        // check only for the branch's own operands (already handled) —
        // control transfer happens after the read, and a branch defines
        // nothing, so order here is safe for all opcodes.
        if let Some(t) = insn.target {
            work.push_back((t, 0));
        }
        if insn.def() == Some(r) {
            continue; // redefined along this path
        }
        if insn.op == sentinel_isa::Opcode::Halt || insn.op == sentinel_isa::Opcode::Jump {
            if insn.op == sentinel_isa::Opcode::Halt {
                continue;
            }
            continue; // jump already queued its target
        }
        work.push_back((b, pos + 1));
    }
    false
}

#[test]
fn liveness_matches_brute_force() {
    let mut r = Rng::seed_from_u64(0xDF00_0001);
    for _ in 0..24 {
        let seed = r.gen_range_u64(0, 50_000);
        let w = generate(&spec_for(seed));
        let func = &w.func;
        let cfg = Cfg::build(func);
        let lv = Liveness::compute(func, &cfg);
        // Sample registers actually mentioned by the program.
        let mut regs: Vec<Reg> = func
            .blocks()
            .flat_map(|b| b.insns.iter())
            .flat_map(|i| i.raw_srcs().chain(i.def()))
            .collect();
        regs.sort();
        regs.dedup();
        for bid in func.layout().to_vec() {
            let n = func.block(bid).insns.len();
            // Check block entry and a couple of interior points.
            for pos in [0, n / 2, n.saturating_sub(1)] {
                let live = lv.live_before(func, bid, pos.min(n));
                for &reg in regs.iter().take(12) {
                    let brute = brute_force_live(func, (bid, pos.min(n)), reg);
                    assert_eq!(
                        live.contains(&reg),
                        brute,
                        "seed {seed} {bid} pos {pos} reg {reg}"
                    );
                }
            }
        }
    }
}
