//! Dependence-graph reduction and protected/unprotected marking — the
//! paper's Appendix algorithm.
//!
//! Reduction removes control dependences `BR → I` to enable speculative
//! code motion, subject to:
//!
//! 1. the scheduling model allows `I`'s opcode above branches at all
//!    ([`SchedulingModel::may_speculate`](crate::SchedulingModel::may_speculate)),
//! 2. restriction (1) of §2.1: `dest(I)` is not live when `BR` is taken
//!    (not in the live-in set of `BR`'s target),
//! 3. a safety pin for values dead within their own home block (a
//!    redefinition before any use would silently discard a deferred
//!    exception tag), and
//! 4. with recovery enabled, the static half of §3.7 restriction 4: an
//!    instruction whose destination is an input of earlier instructions
//!    may not be hoisted above the branch separating it from those
//!    readers (their inputs must stay intact up to their sentinels).
//!
//! Branches never reorder among themselves, so only the latest branch
//! `I` may not cross constrains it. Reduction therefore lowers `I`'s
//! [floor](DepGraph::floor) up the chain of branches above it, from a
//! branch to that branch's floor, and stops at a barrier, a fence, or the
//! first branch one of the rules keeps.
//!
//! The same pass computes the *unprotected* marking: a potential
//! exception-causing instruction delegates its sentinel duty to the first
//! use of its destination within its home block (shared sentinel); an
//! instruction with no such use is unprotected and receives an explicit
//! sentinel if speculated (§3.1).

use sentinel_prog::liveness::Liveness;

use crate::depgraph::DepGraph;
use crate::models::SchedOptions;

/// Result of reduction over one block's dependence graph.
#[derive(Debug, Clone)]
pub struct Reduction {
    /// Per original node: needs an explicit sentinel if speculated.
    pub unprotected: Vec<bool>,
}

/// First event for `reg` in positions `start..=end_inclusive`: `Use(pos)`
/// or `Redef(pos)`, scanning in program order.
#[derive(Debug, PartialEq, Eq)]
enum FirstEvent {
    Use(usize),
    Redef(usize),
    None,
}

fn first_event(
    g: &DepGraph,
    reg: sentinel_isa::Reg,
    start: usize,
    end_inclusive: usize,
) -> FirstEvent {
    for u in start..=end_inclusive.min(g.original_len.saturating_sub(1)) {
        let insn = &g.nodes[u].insn;
        if insn.uses().any(|r| r == reg) {
            return FirstEvent::Use(u);
        }
        if insn.def() == Some(reg) {
            return FirstEvent::Redef(u);
        }
    }
    FirstEvent::None
}

/// Runs reduction in place on the block graph `g`, lowering floors past
/// the branches each node may be speculated above and computing the
/// unprotected marking. `liveness` is the function's, for the live-in
/// sets of branch targets.
pub fn reduce(g: &mut DepGraph, liveness: &Liveness, opts: &SchedOptions) -> Reduction {
    reduce_with_pins(g, liveness, opts, &Default::default())
}

/// Like [`reduce`], with an extra set of instruction ids that must stay
/// non-speculative: recovery-renaming restore moves, unrenamable
/// self-overwrites, and stores pinned by the §4.2 separation-constraint
/// retry loop.
pub fn reduce_with_pins(
    g: &mut DepGraph,
    liveness: &Liveness,
    opts: &SchedOptions,
    extra_pinned: &std::collections::HashSet<sentinel_isa::InsnId>,
) -> Reduction {
    let n = g.original_len;
    let mut unprotected = vec![false; n];
    let mut duty = vec![false; n];
    let mut pinned: Vec<bool> = g.nodes[..n]
        .iter()
        .map(|node| extra_pinned.contains(&node.insn.id))
        .collect();

    // --- protected/unprotected marking (Appendix) ----------------------
    for i in 0..n {
        let insn = &g.nodes[i].insn;
        let carrier = duty[i];
        let trapping = insn.op.can_trap();
        if !(carrier || trapping) {
            continue;
        }
        match insn.def() {
            None => {
                // Stores (and other dest-less trap sources): always
                // unprotected (§4.2); their sentinel is `confirm_store`.
                unprotected[i] = true;
            }
            Some(d) => {
                let re = g.region_end(i, opts.recovery);
                // Uses *at* the delimiter count ("at or before the first
                // succeeding control instruction").
                let end = if re < n { re } else { n.saturating_sub(1) };
                match first_event(g, d, i + 1, end) {
                    FirstEvent::Use(u) => {
                        // Shared sentinel: the use carries the duty on.
                        duty[u] = true;
                    }
                    FirstEvent::Redef(_) => {
                        // Dead within the home block: a speculative fault
                        // would be lost when the redefinition clears the
                        // tag. Pin the instruction non-speculative.
                        pinned[i] = true;
                    }
                    FirstEvent::None => {
                        unprotected[i] = true;
                    }
                }
            }
        }
    }

    // --- control-dependence removal -------------------------------------
    for (i, &pinned) in pinned.iter().enumerate() {
        let insn = &g.nodes[i].insn;
        if pinned || !opts.model.may_speculate(insn.op) {
            continue;
        }
        let mut floor = g.floor(i);
        // Branches crossed so far, and where restriction 4's reader scan
        // resumes: `checked_from..i` holds no reader of `dest(I)`.
        let mut crossed = 0usize;
        let mut checked_from = i;
        while let Some(b) = floor {
            let branch = &g.nodes[b].insn;
            // A barrier, or a fence raised past an unrenamable
            // self-overwrite: nothing crosses it.
            if !branch.op.is_cond_branch() {
                break;
            }
            crossed += 1;
            // Boosting (§2.3): an instruction may cross at most `levels`
            // branches — the hardware has that many shadow levels.
            if opts
                .model
                .boost_levels()
                .is_some_and(|l| crossed > l as usize)
            {
                break;
            }
            let target = branch.target.expect("branch target");
            // Restriction (1): dest not live when the branch is taken.
            // (Boosting enforces neither restriction: the shadow register
            // file discards wrong-path writes.)
            if let Some(d) = insn.def() {
                if opts.model.enforces_liveness_restriction()
                    && liveness.live_in(target).contains(&d)
                {
                    break;
                }
                // Recovery restriction 4 (static half): readers of `d`
                // between the branch and `i` need `d`'s old value to
                // survive until their sentinels fire.
                if opts.recovery {
                    let reader =
                        (b + 1..checked_from).any(|r| g.nodes[r].insn.uses().any(|s| s == d));
                    checked_from = b + 1;
                    if reader {
                        break;
                    }
                }
            } else if !opts.model.speculative_stores() && insn.op.is_store() {
                break;
            }
            floor = g.floor(b);
        }
        g.lower_floor(i, floor);
    }

    Reduction { unprotected }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::models::SchedulingModel;
    use sentinel_isa::{Insn, Opcode, Reg};
    use sentinel_prog::cfg::Cfg;
    use sentinel_prog::examples::figure1;
    use sentinel_prog::{Function, ProgramBuilder};

    fn setup(f: &Function) -> (Cfg, Liveness) {
        let cfg = Cfg::build(f);
        let lv = Liveness::compute(f, &cfg);
        (cfg, lv)
    }

    fn reduce_entry(f: &Function, opts: &SchedOptions) -> (DepGraph, Reduction) {
        let (_, lv) = setup(f);
        let e = f.entry();
        let mut g = DepGraph::build(f.block(e), &sentinel_isa::MachineDesc::paper_issue(1));
        let r = reduce(&mut g, &lv, opts);
        (g, r)
    }

    #[test]
    fn figure1_unprotected_marking_matches_paper() {
        // Paper §3.4: "instructions E and F are identified as unprotected,
        // since they are the last uses of the potential trap-causing
        // instructions B and C".
        let f = figure1();
        let opts = SchedOptions::new(SchedulingModel::Sentinel);
        let (_, r) = reduce_entry(&f, &opts);
        // Positions: 0=A(beq) 1=B(ld) 2=C(ld) 3=D(addi) 4=E(addi) 5=F(st) 6=jump
        assert!(!r.unprotected[1], "B protected: D uses r1");
        assert!(!r.unprotected[2], "C protected: E uses r3");
        assert!(!r.unprotected[3], "D protected: F uses r4");
        assert!(r.unprotected[4], "E unprotected (last use of C's chain)");
        assert!(r.unprotected[5], "F (store) unprotected");
    }

    #[test]
    fn sentinel_model_removes_load_control_deps() {
        let f = figure1();
        let opts = SchedOptions::new(SchedulingModel::Sentinel);
        let (g, _) = reduce_entry(&f, &opts);
        // B, C, D and E (pos 1-4) may move above A (beq, pos 0).
        assert!((1..5).all(|i| g.floor(i).is_none()));
        // F (store) may NOT in model S.
        assert_eq!(g.floor(5), Some(0));
    }

    #[test]
    fn restricted_model_keeps_trapping_deps() {
        let f = figure1();
        let opts = SchedOptions::new(SchedulingModel::RestrictedPercolation);
        let (g, _) = reduce_entry(&f, &opts);
        assert_eq!(g.floor(1), Some(0), "loads stay below branches");
        // D (addi, non-trapping, dest r4 not live at l1) may move.
        assert_eq!(g.floor(3), None);
    }

    #[test]
    fn store_model_removes_store_control_deps() {
        let f = figure1();
        let opts = SchedOptions::new(SchedulingModel::SentinelStores);
        let (g, r) = reduce_entry(&f, &opts);
        assert_eq!(g.floor(5), None, "stores may move in model T");
        assert!(r.unprotected[5]);
    }

    #[test]
    fn liveness_blocks_hoisting_when_dest_live_at_target() {
        // beq -> target uses r5; r5 = ... after the branch cannot hoist.
        let mut b = ProgramBuilder::new("f");
        let e = b.block("e");
        let t = b.block("t");
        b.switch_to(e);
        b.push(Insn::branch(Opcode::Beq, Reg::int(1), Reg::ZERO, t));
        b.push(Insn::addi(Reg::int(5), Reg::int(2), 1));
        b.push(Insn::halt());
        b.switch_to(t);
        b.push(Insn::st_w(Reg::int(5), Reg::int(6), 0));
        b.push(Insn::halt());
        let f = b.finish();
        let opts = SchedOptions::new(SchedulingModel::Sentinel);
        let (g, _) = reduce_entry(&f, &opts);
        assert_eq!(g.floor(1), Some(0), "r5 live at taken target");
    }

    #[test]
    fn dead_value_in_region_pins_trapping_insn() {
        // ld r1 ; r1 = 7 (redef, no use) ; branch...
        let mut b = ProgramBuilder::new("f");
        let e = b.block("e");
        let t = b.block("t");
        b.switch_to(e);
        b.push(Insn::branch(Opcode::Beq, Reg::int(9), Reg::ZERO, t));
        b.push(Insn::ld_w(Reg::int(1), Reg::int(2), 0));
        b.push(Insn::li(Reg::int(1), 7));
        b.push(Insn::halt());
        b.switch_to(t);
        b.push(Insn::halt());
        let f = b.finish();
        let opts = SchedOptions::new(SchedulingModel::Sentinel);
        let (g, _) = reduce_entry(&f, &opts);
        assert_eq!(g.floor(1), Some(0), "dead load pinned non-speculative");
    }

    #[test]
    fn duty_chain_delegates_to_last_use() {
        // ld r1 ; r2 = r1+1 ; r3 = r2+1 ; branch. Chain: ld -> addi -> addi.
        let mut b = ProgramBuilder::new("f");
        let e = b.block("e");
        let t = b.block("t");
        b.switch_to(e);
        b.push(Insn::branch(Opcode::Beq, Reg::int(9), Reg::ZERO, t));
        b.push(Insn::ld_w(Reg::int(1), Reg::int(2), 0)); // 1
        b.push(Insn::addi(Reg::int(3), Reg::int(1), 1)); // 2: uses r1
        b.push(Insn::addi(Reg::int(4), Reg::int(3), 1)); // 3: uses r3
        b.push(Insn::halt());
        b.switch_to(t);
        b.push(Insn::halt());
        let f = b.finish();
        let opts = SchedOptions::new(SchedulingModel::Sentinel);
        let (_, r) = reduce_entry(&f, &opts);
        assert!(!r.unprotected[1], "ld protected by its use");
        assert!(!r.unprotected[2], "first addi protected by second");
        assert!(r.unprotected[3], "chain end unprotected");
    }

    #[test]
    fn branch_use_serves_as_sentinel() {
        // ld r1 ; beq r1, r0, t : the branch is the use.
        let mut b = ProgramBuilder::new("f");
        let e = b.block("e");
        let t = b.block("t");
        b.switch_to(e);
        b.push(Insn::ld_w(Reg::int(1), Reg::int(2), 0)); // 0
        b.push(Insn::branch(Opcode::Beq, Reg::int(1), Reg::ZERO, t)); // 1
        b.push(Insn::halt());
        b.switch_to(t);
        b.push(Insn::halt());
        let f = b.finish();
        let opts = SchedOptions::new(SchedulingModel::Sentinel);
        let (_, r) = reduce_entry(&f, &opts);
        assert!(!r.unprotected[0], "the branch reads r1 and is the sentinel");
    }

    #[test]
    fn recovery_restriction4_blocks_hoisting_over_reader() {
        // beq ; r9 = r2+1 (reads r2) ; r2 = mem (writes r2, wants to hoist)
        // Under recovery the writer cannot cross the branch because the
        // reader's input must survive to its sentinel.
        let mut b = ProgramBuilder::new("f");
        let e = b.block("e");
        let t = b.block("t");
        b.switch_to(e);
        b.push(Insn::branch(Opcode::Beq, Reg::int(1), Reg::ZERO, t));
        b.push(Insn::addi(Reg::int(9), Reg::int(2), 1));
        b.push(Insn::ld_w(Reg::int(2), Reg::int(3), 0));
        b.push(Insn::halt());
        b.switch_to(t);
        b.push(Insn::halt());
        let f = b.finish();

        let plain = SchedOptions::new(SchedulingModel::Sentinel);
        let (g1, _) = reduce_entry(&f, &plain);
        assert_eq!(g1.floor(2), None, "without recovery the load may hoist");

        let rec = SchedOptions::new(SchedulingModel::Sentinel).with_recovery();
        let (g2, _) = reduce_entry(&f, &rec);
        assert_eq!(g2.floor(2), Some(0), "recovery keeps the writer below");
    }

    #[test]
    fn the_walk_stops_at_the_first_branch_a_rule_keeps() {
        // beq ; r9 = r2+1 ; beq ; beq ; r2 = mem ; jsr ; r3 = r3+1
        let mut b = ProgramBuilder::new("f");
        let e = b.block("e");
        let t = b.block("t");
        b.switch_to(e);
        b.push(Insn::branch(Opcode::Beq, Reg::int(1), Reg::ZERO, t)); // 0
        b.push(Insn::addi(Reg::int(9), Reg::int(2), 1)); // 1
        b.push(Insn::branch(Opcode::Beq, Reg::int(1), Reg::ZERO, t)); // 2
        b.push(Insn::branch(Opcode::Beq, Reg::int(1), Reg::ZERO, t)); // 3
        b.push(Insn::ld_w(Reg::int(2), Reg::int(3), 0)); // 4
        b.push(Insn::jsr()); // 5
        b.push(Insn::addi(Reg::int(3), Reg::int(3), 1)); // 6
        b.push(Insn::halt());
        b.switch_to(t);
        b.push(Insn::halt());
        let f = b.finish();
        let floor_of = |opts: SchedOptions, i: usize| reduce_entry(&f, &opts).0.floor(i);
        let s = || SchedOptions::new(SchedulingModel::Sentinel);
        assert_eq!(floor_of(s(), 4), None, "the load crosses every branch");
        // Under recovery, the reader at 1 keeps the branch above it.
        assert_eq!(floor_of(s().with_recovery(), 4), Some(0));
        // One boosting level: one branch crossed.
        assert_eq!(
            floor_of(SchedOptions::new(SchedulingModel::Boosting(1)), 4),
            Some(2)
        );
        // Nothing crosses the jsr.
        assert_eq!(floor_of(s(), 6), Some(5));
    }

    #[test]
    fn a_branch_dense_block_reduces_to_a_linear_graph() {
        // 2,000 × (addi, ld, beq): 6,001 instructions and 2,000 branches.
        // An edge from every branch to every later instruction would make
        // about six million.
        let mut src = String::from("func @big {\nentry:\n");
        for _ in 0..2_000 {
            src.push_str("    addi r1, r1, 8\n    ld r2, 0(r1)\n    beq r2, r0, exit\n");
        }
        src.push_str("    halt\nexit:\n    halt\n}\n");
        let f = sentinel_prog::asm::parse(&src).unwrap();
        let (g, _) = reduce_entry(&f, &SchedOptions::new(SchedulingModel::Sentinel));
        assert_eq!(g.len(), 6_001);
        let edges: usize = (0..g.len()).map(|i| g.succs(i).len()).sum();
        assert!(edges < 3 * g.len(), "{edges} edges");
        // The last addi may rise above all 2,000 branches.
        assert_eq!(g.floor(5_997), None);
    }
}
