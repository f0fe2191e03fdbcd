//! Dependence graph construction over one superblock.
//!
//! Nodes are the block's instructions (in original program order), plus
//! any sentinels the list scheduler inserts dynamically. Edges carry a
//! minimum issue-cycle separation (`latency`) and a kind:
//!
//! * [`DepKind::Flow`] / [`DepKind::Anti`] / [`DepKind::Output`] —
//!   register dependences,
//! * [`DepKind::Memory`] — store↔load / store↔store ordering (with a
//!   simple base+offset disambiguator),
//! * [`DepKind::Sentinel`] — edges pinning a dynamically inserted sentinel
//!   into its home block.
//!
//! Control and ordering dependences are not edges. Branches and barriers
//! (conditional branches, `jump`, `halt`, `jsr` and `io`) never reorder
//! among themselves, so two latency-0 bounds per original node stand for
//! them:
//!
//! * its *ceil*, the next branch or barrier, may not issue before it
//!   (nothing moves down past a branch);
//! * it may not issue before its *floor*. The build sets the floor to the
//!   previous branch or barrier, [reduction](crate::reduction) lowers it
//!   past the branches the node may be speculated above (§2.1), and
//!   §3.7 restriction 3 raises it past an unrenamable self-overwrite,
//!   which nothing may cross.
//!
//! Every dependence the bounds leave out is implied through the
//! program-ordered chain of branches and barriers, so the graph holds
//! O(n) of them rather than an edge from every branch to every later
//! instruction.

use sentinel_isa::{Insn, MachineDesc, Opcode, Reg};
use sentinel_prog::Block;

/// Edge classification.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DepKind {
    /// Register read-after-write.
    Flow,
    /// Register write-after-read.
    Anti,
    /// Register write-after-write.
    Output,
    /// Memory ordering.
    Memory,
    /// Sentinel pinning edges added during scheduling.
    Sentinel,
}

/// An edge `from → to`: `to` may issue no earlier than
/// `cycle(from) + latency`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Dep {
    /// Source node index.
    pub from: usize,
    /// Destination node index.
    pub to: usize,
    /// Minimum cycle separation.
    pub latency: u32,
    /// Kind.
    pub kind: DepKind,
}

/// A node: the instruction plus its original position (inserted sentinels
/// have `orig_pos == None`).
#[derive(Debug, Clone)]
pub struct Node {
    /// The instruction (speculative flag updated during scheduling).
    pub insn: Insn,
    /// Original position in the block, if the instruction came from it.
    pub orig_pos: Option<usize>,
}

/// The dependence graph of one block.
#[derive(Debug, Clone, Default)]
pub struct DepGraph {
    /// Nodes; indices `0..original_len` are the block's instructions in
    /// original order.
    pub nodes: Vec<Node>,
    /// Number of original instructions.
    pub original_len: usize,
    /// Edge lists, indexed by node. A rebuilt graph keeps the lists of
    /// its previous block (cleared) past `nodes.len()`.
    succs: Vec<Vec<Dep>>,
    /// Per original node: the latest earlier node it may not issue
    /// before.
    floor: Vec<Option<usize>>,
    /// Per original node: the next branch or barrier, which may not
    /// issue before it.
    ceil: Vec<Option<usize>>,
    /// The builder's per-register state, kept for the next rebuild.
    regs: RegTables,
}

/// Per-register state of the builder, in tables indexed by register
/// slot: `index` for integer registers, `stride + index` for fp ones,
/// where `stride` is the block's largest register index + 1.
#[derive(Debug, Clone, Default)]
struct RegTables {
    last_def: Vec<Option<usize>>,
    readers_since_def: Vec<Vec<usize>>,
    /// Definitions seen so far: the SSA-ish version of a base register.
    versions: Vec<u32>,
}

impl RegTables {
    /// Empties the tables for `slots` slots, keeping their allocations.
    fn reset(&mut self, slots: usize) {
        self.last_def.clear();
        self.last_def.resize(slots, None);
        self.versions.clear();
        self.versions.resize(slots, 0);
        self.readers_since_def.truncate(slots);
        for readers in &mut self.readers_since_def {
            readers.clear();
        }
        self.readers_since_def.resize_with(slots, Vec::new);
    }
}

/// Whether `op` delimits a sentinel *home block* (region). Branches and
/// halts always do; with the §3.7 recovery constraints, irreversible
/// instructions also define region boundaries (restriction 2).
pub fn is_region_delimiter(op: Opcode, recovery: bool) -> bool {
    op.is_control() || (recovery && op.is_irreversible())
}

/// A memory reference summary used for disambiguation: base register, the
/// SSA-ish version of that base at the reference point, byte offset, and
/// access size.
#[derive(Debug, Clone, Copy, PartialEq)]
struct MemRef {
    base: Reg,
    base_version: u32,
    offset: i64,
    bytes: i64,
}

impl MemRef {
    /// Provably-disjoint check. Two references are disjoint when
    ///
    /// * they use the same base register at the same definition version
    ///   and their `[offset, offset+bytes)` intervals do not overlap, or
    /// * they use *different* base registers that are both declared
    ///   `noalias` (pairwise-disjoint arrays) and neither base has been
    ///   redefined in the block (version 0 — the live-in value the
    ///   declaration covers).
    ///
    /// Anything else conservatively aliases.
    fn disjoint(&self, other: &MemRef, noalias: &std::collections::BTreeSet<Reg>) -> bool {
        if self.base == other.base {
            return self.base_version == other.base_version
                && (self.offset + self.bytes <= other.offset
                    || other.offset + other.bytes <= self.offset);
        }
        self.base_version == 0
            && other.base_version == 0
            && noalias.contains(&self.base)
            && noalias.contains(&other.base)
    }
}

/// The memory reference of `insn`, if it is a load or store;
/// `base_version` gives the number of definitions of a register seen so
/// far in the block.
fn mem_ref(insn: &Insn, base_version: impl Fn(Reg) -> u32) -> Option<MemRef> {
    if !insn.op.is_mem() {
        return None;
    }
    let base = insn.src2?;
    let bytes = match insn.op {
        Opcode::LdB | Opcode::StB => 1,
        _ => 8,
    };
    Some(MemRef {
        base,
        base_version: base_version(base),
        offset: insn.imm,
        bytes,
    })
}

impl DepGraph {
    /// Builds the full (unreduced) dependence graph of a block. Flow-edge
    /// latencies come from `mdes`.
    pub fn build(block: &Block, mdes: &MachineDesc) -> DepGraph {
        DepGraph::build_with_aliasing(block, mdes, &Default::default())
    }

    /// Like [`DepGraph::build`], honoring program-level `noalias` base
    /// declarations (see
    /// [`Function::declare_noalias`](sentinel_prog::Function::declare_noalias))
    /// when disambiguating memory references.
    pub fn build_with_aliasing(
        block: &Block,
        mdes: &MachineDesc,
        noalias: &std::collections::BTreeSet<Reg>,
    ) -> DepGraph {
        let mut g = DepGraph::default();
        g.rebuild_with_aliasing(block, mdes, noalias);
        g
    }

    /// Like [`DepGraph::build_with_aliasing`], but rebuilds `self` in
    /// place for `block`, reusing the allocations of the graph it held
    /// (the edge lists and the builder's register tables). The compile
    /// session builds every block of a function in one recycled graph.
    pub fn rebuild_with_aliasing(
        &mut self,
        block: &Block,
        mdes: &MachineDesc,
        noalias: &std::collections::BTreeSet<Reg>,
    ) {
        let n = block.insns.len();
        let g = self;
        g.nodes.clear();
        g.nodes
            .extend(block.insns.iter().enumerate().map(|(i, insn)| Node {
                insn: insn.clone(),
                orig_pos: Some(i),
            }));
        g.original_len = n;
        for edges in &mut g.succs {
            edges.clear();
        }
        if g.succs.len() < n {
            g.succs.resize_with(n, Vec::new);
        }
        g.floor.clear();
        g.floor.resize(n, None);
        g.ceil.clear();
        g.ceil.resize(n, None);
        // The latest branch or barrier so far.
        let mut last_bound: Option<usize> = None;

        // --- register dependences -------------------------------------
        let stride = block
            .insns
            .iter()
            .flat_map(|insn| insn.raw_srcs().chain(insn.dest))
            .map(|r| r.index() as usize + 1)
            .max()
            .unwrap_or(0);
        let slot = |r: Reg| r.index() as usize + if r.is_fp() { stride } else { 0 };
        let mut regs = std::mem::take(&mut g.regs);
        regs.reset(2 * stride);
        let RegTables {
            last_def,
            readers_since_def,
            versions,
        } = &mut regs;
        // Memory state.
        let mut last_store: Option<usize> = None;
        let mut stores_since: Vec<(usize, Option<MemRef>)> = Vec::new(); // all stores, for alias-refined edges
        let mut loads_since_store: Vec<(usize, Option<MemRef>)> = Vec::new();

        for (i, insn) in block.insns.iter().enumerate() {
            // Flow: last def of each source.
            for src in insn.uses() {
                if let Some(d) = last_def[slot(src)] {
                    let lat = mdes.latency(block.insns[d].op);
                    g.add_edge(Dep {
                        from: d,
                        to: i,
                        latency: lat,
                        kind: DepKind::Flow,
                    });
                }
                readers_since_def[slot(src)].push(i);
            }
            if let Some(d) = insn.def() {
                let d = slot(d);
                // Output: previous def of the same register.
                if let Some(p) = last_def[d] {
                    let lp = mdes.latency(block.insns[p].op) as i64;
                    let li = mdes.latency(insn.op) as i64;
                    let lat = (lp - li + 1).max(1) as u32;
                    g.add_edge(Dep {
                        from: p,
                        to: i,
                        latency: lat,
                        kind: DepKind::Output,
                    });
                }
                // Anti: readers of the old value.
                for &r in &readers_since_def[d] {
                    if r != i {
                        g.add_edge(Dep {
                            from: r,
                            to: i,
                            latency: 0,
                            kind: DepKind::Anti,
                        });
                    }
                }
                last_def[d] = Some(i);
                readers_since_def[d].clear();
                versions[d] += 1;
            }

            // --- memory ordering ---------------------------------------
            let mref = mem_ref(insn, |base| versions[slot(base)]);
            if insn.op.is_load() {
                // Flow from the latest possibly-aliasing earlier store.
                // Stores are FIFO-chained at latency 0 and all share the
                // store class's latency, so its edge implies the edges
                // from every older store.
                let aliasing = stores_since.iter().rev().find(|(_, sref)| {
                    !matches!((mref, sref), (Some(a), Some(b)) if a.disjoint(b, noalias))
                });
                if let Some(&(s, _)) = aliasing {
                    g.add_edge(Dep {
                        from: s,
                        to: i,
                        latency: mdes.latency(block.insns[s].op),
                        kind: DepKind::Memory,
                    });
                }
                loads_since_store.push((i, mref));
            }
            if insn.op.is_store() {
                // Stores stay in FIFO order (store-buffer order, §4.1).
                if let Some(s) = last_store {
                    g.add_edge(Dep {
                        from: s,
                        to: i,
                        latency: 0,
                        kind: DepKind::Memory,
                    });
                }
                // Anti from possibly-aliasing earlier loads.
                for &(l, lref) in &loads_since_store {
                    let disjoint =
                        matches!((mref, lref), (Some(a), Some(b)) if a.disjoint(&b, noalias));
                    if !disjoint {
                        g.add_edge(Dep {
                            from: l,
                            to: i,
                            latency: 0,
                            kind: DepKind::Memory,
                        });
                    }
                }
                last_store = Some(i);
                stores_since.push((i, mref));
                loads_since_store.clear();
            }

            // --- branches and barriers ---------------------------------
            // Nothing moves down past a branch, and moving up past one is
            // speculation, which reduction may allow. `jump`, `halt` and
            // the opaque `jsr`/`io` are full barriers (sound for unknown
            // memory and side effects; subsumes §3.7 restriction 1).
            // These are exactly the region delimiters under recovery.
            g.floor[i] = last_bound;
            if is_region_delimiter(insn.op, true) {
                g.ceil[last_bound.unwrap_or(0)..i].fill(Some(i));
                last_bound = Some(i);
            }
        }
        g.regs = regs;
    }

    fn ensure(&mut self, idx: usize) {
        if self.succs.len() <= idx {
            self.succs.resize_with(idx + 1, Vec::new);
        }
    }

    /// Adds an edge. A repeated `(from, to)` pair is harmless: every
    /// consumer takes a maximum over a node's edges or counts each edge
    /// once at each end.
    pub fn add_edge(&mut self, dep: Dep) {
        debug_assert_ne!(dep.from, dep.to, "self edge");
        self.ensure(dep.from.max(dep.to));
        self.succs[dep.from].push(dep);
    }

    /// Adds a node (an inserted sentinel) and returns its index.
    pub fn add_node(&mut self, insn: Insn) -> usize {
        let idx = self.nodes.len();
        self.nodes.push(Node {
            insn,
            orig_pos: None,
        });
        self.ensure(idx);
        idx
    }

    /// Successor edges of a node.
    pub fn succs(&self, i: usize) -> &[Dep] {
        &self.succs[i]
    }

    /// The latest earlier node that original node `i` may not issue
    /// before: after the build, the previous branch or barrier; after
    /// reduction, the latest branch `i` may not be speculated above.
    pub fn floor(&self, i: usize) -> Option<usize> {
        self.floor[i]
    }

    /// The next branch or barrier after original node `i`, which may not
    /// issue before `i`.
    pub fn ceil(&self, i: usize) -> Option<usize> {
        self.ceil[i]
    }

    /// Lowers original node `i`'s floor to `floor`, an earlier node on
    /// its chain of branches (reduction's speculation).
    pub(crate) fn lower_floor(&mut self, i: usize, floor: Option<usize>) {
        debug_assert!(floor <= self.floor[i], "a floor only moves up the block");
        self.floor[i] = floor;
    }

    /// Makes every original node `is_fence` accepts a barrier to upward
    /// motion: each later node, branches included, may not issue before
    /// it.
    pub(crate) fn fence(&mut self, is_fence: impl Fn(&Insn) -> bool) {
        let mut last: Option<usize> = None;
        for i in 0..self.original_len {
            self.floor[i] = self.floor[i].max(last);
            if is_fence(&self.nodes[i].insn) {
                last = Some(i);
            }
        }
    }

    /// Number of nodes (original + inserted).
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Returns `true` if the graph has no nodes.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Indices of original conditional-branch nodes, in program order.
    pub fn branch_positions(&self) -> Vec<usize> {
        (0..self.original_len)
            .filter(|&i| self.nodes[i].insn.op.is_cond_branch())
            .collect()
    }

    /// The position of the first region delimiter strictly after `pos`
    /// (or `original_len` if none): the end of `pos`'s home block.
    pub fn region_end(&self, pos: usize, recovery: bool) -> usize {
        (pos + 1..self.original_len)
            .find(|&i| is_region_delimiter(self.nodes[i].insn.op, recovery))
            .unwrap_or(self.original_len)
    }

    /// Critical-path heights (used as list-scheduling priorities) over the
    /// edges and bounds, before any sentinel is inserted.
    pub fn heights(&self, latency_of: impl Fn(&Insn) -> u32) -> Vec<u64> {
        let n = self.len();
        debug_assert_eq!(n, self.original_len, "heights precede sentinel insertion");
        debug_assert!(self.succs[..n].iter().flatten().all(|e| e.from < e.to));
        // Every edge and bound points forward in program order, so one
        // reverse pass suffices. A node's floor inherits its height as
        // the node completes, before the pass reaches the floor.
        let mut h = vec![0u64; n];
        for i in (0..n).rev() {
            let mut best = h[i].max(latency_of(&self.nodes[i].insn) as u64);
            for e in &self.succs[i] {
                best = best.max(e.latency as u64 + h[e.to]);
            }
            if let Some(c) = self.ceil[i] {
                best = best.max(h[c]);
            }
            h[i] = best;
            if let Some(f) = self.floor[i] {
                h[f] = h[f].max(best);
            }
        }
        h
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sentinel_isa::{BlockId, Reg};
    use sentinel_prog::ProgramBuilder;

    fn block_of(insns: Vec<Insn>) -> Block {
        let mut b = ProgramBuilder::new("t");
        let e = b.block("entry");
        let t = b.block("t");
        b.switch_to(e);
        for i in insns {
            b.push(i);
        }
        b.switch_to(t);
        b.push(Insn::halt());
        let f = b.finish();
        f.block(e).clone()
    }

    fn has_edge(g: &DepGraph, from: usize, to: usize, kind: DepKind) -> bool {
        g.succs(from).iter().any(|e| e.to == to && e.kind == kind)
    }

    #[test]
    fn flow_anti_output_edges() {
        // 0: r1 = 5 ; 1: r2 = r1+1 ; 2: r1 = 7
        let b = block_of(vec![
            Insn::li(Reg::int(1), 5),
            Insn::addi(Reg::int(2), Reg::int(1), 1),
            Insn::li(Reg::int(1), 7),
        ]);
        let g = DepGraph::build(&b, &MachineDesc::paper_issue(1));
        assert!(has_edge(&g, 0, 1, DepKind::Flow));
        assert!(has_edge(&g, 1, 2, DepKind::Anti));
        assert!(has_edge(&g, 0, 2, DepKind::Output));
    }

    #[test]
    fn flow_latency_matches_producer_class() {
        // load (2) feeding add.
        let b = block_of(vec![
            Insn::ld_w(Reg::int(1), Reg::int(2), 0),
            Insn::addi(Reg::int(3), Reg::int(1), 1),
        ]);
        let g = DepGraph::build(&b, &MachineDesc::paper_issue(1));
        let e = g.succs(0).iter().find(|e| e.to == 1).unwrap();
        assert_eq!(e.latency, 2);
        assert_eq!(e.kind, DepKind::Flow);
    }

    #[test]
    fn store_load_ordering_conservative() {
        // st r1, 0(r2) ; ld r3, 0(r4)  — different bases: may alias.
        let b = block_of(vec![
            Insn::st_w(Reg::int(1), Reg::int(2), 0),
            Insn::ld_w(Reg::int(3), Reg::int(4), 0),
        ]);
        let g = DepGraph::build(&b, &MachineDesc::paper_issue(1));
        assert!(has_edge(&g, 0, 1, DepKind::Memory));
    }

    #[test]
    fn may_alias_stores_and_loads_give_a_linear_graph() {
        // 2,000 × (st, ld) on two bases that may alias. Each load needs
        // only the latest store's edge; one from every earlier store
        // would make about two million.
        let mut insns = Vec::new();
        for k in 0..2_000u16 {
            let off = 8 * i64::from(k);
            insns.push(Insn::st_w(Reg::int(4 + k % 8), Reg::int(1), off));
            insns.push(Insn::ld_w(Reg::int(4 + (k + 1) % 8), Reg::int(2), off));
        }
        let g = DepGraph::build(&block_of(insns), &MachineDesc::paper_issue(8));
        assert_eq!(g.len(), 4_000);
        let edges: usize = (0..g.len()).map(|i| g.succs(i).len()).sum();
        assert!(edges < 3 * g.len(), "{edges} edges");
        assert!(has_edge(&g, 3_998, 3_999, DepKind::Memory));
    }

    #[test]
    fn same_base_disjoint_offsets_disambiguated() {
        // st r1, 0(r2) ; ld r3, 8(r2) — same base version, disjoint.
        let b = block_of(vec![
            Insn::st_w(Reg::int(1), Reg::int(2), 0),
            Insn::ld_w(Reg::int(3), Reg::int(2), 8),
        ]);
        let g = DepGraph::build(&b, &MachineDesc::paper_issue(1));
        assert!(!has_edge(&g, 0, 1, DepKind::Memory));
    }

    #[test]
    fn noalias_bases_disambiguate_across_arrays() {
        // st r1, 0(r2) ; ld r3, 0(r4) — r2 and r4 declared disjoint arrays.
        let b = block_of(vec![
            Insn::st_w(Reg::int(1), Reg::int(2), 0),
            Insn::ld_w(Reg::int(3), Reg::int(4), 0),
        ]);
        let noalias: std::collections::BTreeSet<Reg> =
            [Reg::int(2), Reg::int(4)].into_iter().collect();
        let g = DepGraph::build_with_aliasing(&b, &MachineDesc::paper_issue(1), &noalias);
        assert!(!has_edge(&g, 0, 1, DepKind::Memory));
        // Only one base declared: conservative again.
        let partial: std::collections::BTreeSet<Reg> = [Reg::int(2)].into_iter().collect();
        let g2 = DepGraph::build_with_aliasing(&b, &MachineDesc::paper_issue(1), &partial);
        assert!(has_edge(&g2, 0, 1, DepKind::Memory));
    }

    #[test]
    fn noalias_promise_expires_on_redefinition() {
        // r4 is rewritten before the load: its value may now point anywhere.
        let b = block_of(vec![
            Insn::st_w(Reg::int(1), Reg::int(2), 0),
            Insn::mov(Reg::int(4), Reg::int(2)),
            Insn::ld_w(Reg::int(3), Reg::int(4), 0),
        ]);
        let noalias: std::collections::BTreeSet<Reg> =
            [Reg::int(2), Reg::int(4)].into_iter().collect();
        let g = DepGraph::build_with_aliasing(&b, &MachineDesc::paper_issue(1), &noalias);
        assert!(has_edge(&g, 0, 2, DepKind::Memory));
    }

    #[test]
    fn same_base_redefined_conservative() {
        // st r1, 0(r2) ; r2 = r2+8 ; ld r3, 8(r2) — version changed: alias.
        let b = block_of(vec![
            Insn::st_w(Reg::int(1), Reg::int(2), 0),
            Insn::addi(Reg::int(2), Reg::int(2), 8),
            Insn::ld_w(Reg::int(3), Reg::int(2), 8),
        ]);
        let g = DepGraph::build(&b, &MachineDesc::paper_issue(1));
        assert!(has_edge(&g, 0, 2, DepKind::Memory));
    }

    #[test]
    fn stores_stay_fifo_ordered() {
        let b = block_of(vec![
            Insn::st_w(Reg::int(1), Reg::int(2), 0),
            Insn::st_w(Reg::int(1), Reg::int(2), 64),
        ]);
        let g = DepGraph::build(&b, &MachineDesc::paper_issue(1));
        assert!(has_edge(&g, 0, 1, DepKind::Memory), "stores never reorder");
    }

    #[test]
    fn bounds_order_every_node_against_branches_and_barriers() {
        let b = block_of(vec![
            Insn::addi(Reg::int(1), Reg::int(1), 1), // 0
            Insn::branch(Opcode::Beq, Reg::int(1), Reg::ZERO, BlockId(1)), // 1
            Insn::addi(Reg::int(2), Reg::int(2), 1), // 2
            Insn::jsr(),                             // 3
            Insn::ld_w(Reg::int(2), Reg::int(3), 0), // 4
        ]);
        let mut g = DepGraph::build(&b, &MachineDesc::paper_issue(1));
        let floors = |g: &DepGraph| (0..5).map(|i| g.floor(i)).collect::<Vec<_>>();
        // Nothing moves down past the branch or the barrier…
        let ceils: Vec<_> = (0..5).map(|i| g.ceil(i)).collect();
        assert_eq!(ceils, [Some(1), Some(3), Some(3), None, None]);
        // …nor up past one, before reduction.
        assert_eq!(floors(&g), [None, None, Some(1), Some(1), Some(3)]);
        // A fence bars every later node, the branch included, and never
        // lowers a floor.
        g.fence(|insn| insn.def() == Some(Reg::int(1)));
        assert_eq!(floors(&g), [None, Some(0), Some(1), Some(1), Some(3)]);
    }

    #[test]
    fn region_end_finds_next_delimiter() {
        let b = block_of(vec![
            Insn::ld_w(Reg::int(1), Reg::int(2), 0), // 0
            Insn::branch(Opcode::Beq, Reg::int(1), Reg::ZERO, BlockId(1)), // 1
            Insn::jsr(),                             // 2
            Insn::addi(Reg::int(3), Reg::int(1), 1), // 3
        ]);
        let g = DepGraph::build(&b, &MachineDesc::paper_issue(1));
        assert_eq!(g.region_end(0, false), 1);
        // Without recovery, jsr does not delimit regions.
        assert_eq!(g.region_end(1, false), 4);
        // With recovery it does (restriction 2).
        assert_eq!(g.region_end(1, true), 2);
        assert_eq!(g.region_end(3, true), 4);
    }

    #[test]
    fn heights_reflect_critical_path() {
        // ld (2) -> add (1) -> st(1): height(ld) = 2+1+1... edges: ld->add lat2, add->st lat1.
        let b = block_of(vec![
            Insn::ld_w(Reg::int(1), Reg::int(2), 0),
            Insn::addi(Reg::int(3), Reg::int(1), 1),
            Insn::st_w(Reg::int(3), Reg::int(2), 0),
        ]);
        let g = DepGraph::build(&b, &MachineDesc::paper_issue(1));
        let h = g.heights(|i| sentinel_isa::MachineDesc::paper_issue(1).latency(i.op));
        assert!(h[0] > h[1], "earlier chain nodes have larger height");
        assert!(h[1] > 0);
        assert_eq!(h[0], 2 + 1 + 1);
    }

    #[test]
    fn add_node_extends_graph() {
        let b = block_of(vec![Insn::nop()]);
        let mut g = DepGraph::build(&b, &MachineDesc::paper_issue(1));
        let j = g.add_node(Insn::check_exception(Reg::int(1)));
        g.add_edge(Dep {
            from: 0,
            to: j,
            latency: 1,
            kind: DepKind::Sentinel,
        });
        assert_eq!(g.len(), 2);
        assert_eq!(g.succs(0).iter().filter(|e| e.to == j).count(), 1);
        assert_eq!(g.nodes[j].orig_pos, None);
    }
}
