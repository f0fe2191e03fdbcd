//! Live-variable analysis (backward dataflow).
//!
//! Liveness drives two parts of the paper:
//!
//! * **Dependence graph reduction** (§2.1 restriction (1), Appendix): a
//!   control dependence from branch `BR` to a later instruction `I` can be
//!   removed iff `dest(I)` is *not live* when `BR` is taken — i.e. not in
//!   the live-in set of `BR`'s target.
//! * **Uninitialized data handling** (§3.5): registers live into the
//!   function entry may carry stale exception tags, so the compiler inserts
//!   `clear_tag` instructions for them.
//!
//! Because blocks are superblock-shaped (side exits in the middle), the
//! analysis is *per-point* within a block: a register defined below a side
//! exit is not live above that definition merely because the side exit's
//! target uses it. The block-level fixpoint therefore rescans each block
//! backwards, adding the target's live-in set at each branch.

use sentinel_isa::{BlockId, Insn, Reg, RegClass};

use crate::cfg::Cfg;
use crate::Function;

/// A set of registers: one bit vector per register class, so membership
/// is a shift and a mask and a union is a word-wise OR.
///
/// Iteration is in ascending `(class, index)` order, the order of
/// [`Reg`]'s `Ord`. Virtual registers (indices past the architectural
/// 64) simply lengthen their class's vector; two sets holding the same
/// registers are equal however long their vectors grew.
///
/// # Examples
///
/// ```
/// use sentinel_isa::Reg;
/// use sentinel_prog::liveness::RegSet;
///
/// let mut s: RegSet = [Reg::fp(1), Reg::int(700), Reg::int(2)].into_iter().collect();
/// assert!(s.contains(&Reg::int(700)));
/// s.remove(&Reg::int(700));
/// assert_eq!(s.iter().collect::<Vec<_>>(), vec![Reg::int(2), Reg::fp(1)]);
/// assert_eq!(s, [Reg::int(2), Reg::fp(1)].into_iter().collect());
/// ```
#[derive(Default)]
pub struct RegSet {
    /// Bit `i % 64` of word `i / 64` of `bits[class]` holds register `i`.
    bits: [Vec<u64>; 2],
}

impl Clone for RegSet {
    fn clone(&self) -> RegSet {
        RegSet {
            bits: self.bits.clone(),
        }
    }

    /// Reuses `self`'s word vectors.
    fn clone_from(&mut self, source: &RegSet) {
        for (mine, theirs) in self.bits.iter_mut().zip(&source.bits) {
            mine.clone_from(theirs);
        }
    }
}

const CLASSES: [RegClass; 2] = [RegClass::Int, RegClass::Fp];

fn class_slot(class: RegClass) -> usize {
    match class {
        RegClass::Int => 0,
        RegClass::Fp => 1,
    }
}

fn word_and_mask(r: Reg) -> (usize, u64) {
    let i = r.index() as usize;
    (i / 64, 1 << (i % 64))
}

impl RegSet {
    /// The empty set.
    pub fn new() -> RegSet {
        RegSet::default()
    }

    /// Adds `r`; returns `true` if it was not already present.
    pub fn insert(&mut self, r: Reg) -> bool {
        let words = &mut self.bits[class_slot(r.class())];
        let (w, mask) = word_and_mask(r);
        if w >= words.len() {
            words.resize(w + 1, 0);
        }
        let added = words[w] & mask == 0;
        words[w] |= mask;
        added
    }

    /// Removes `r`; returns `true` if it was present.
    pub fn remove(&mut self, r: &Reg) -> bool {
        let (w, mask) = word_and_mask(*r);
        match self.bits[class_slot(r.class())].get_mut(w) {
            Some(word) if *word & mask != 0 => {
                *word &= !mask;
                true
            }
            _ => false,
        }
    }

    /// Whether `r` is in the set.
    pub fn contains(&self, r: &Reg) -> bool {
        let (w, mask) = word_and_mask(*r);
        self.bits[class_slot(r.class())]
            .get(w)
            .is_some_and(|word| word & mask != 0)
    }

    /// Number of registers in the set.
    pub fn len(&self) -> usize {
        self.bits
            .iter()
            .flatten()
            .map(|w| w.count_ones() as usize)
            .sum()
    }

    /// Whether the set is empty.
    pub fn is_empty(&self) -> bool {
        self.bits.iter().flatten().all(|&w| w == 0)
    }

    /// Removes every register, keeping the allocation.
    pub fn clear(&mut self) {
        for words in &mut self.bits {
            words.clear();
        }
    }

    /// Adds every register of `other`, a word at a time.
    pub fn union_with(&mut self, other: &RegSet) {
        for (mine, theirs) in self.bits.iter_mut().zip(&other.bits) {
            if mine.len() < theirs.len() {
                mine.resize(theirs.len(), 0);
            }
            for (a, b) in mine.iter_mut().zip(theirs) {
                *a |= b;
            }
        }
    }

    /// The registers in ascending `(class, index)` order.
    pub fn iter(&self) -> Iter<'_> {
        Iter {
            set: self,
            class: 0,
            word: 0,
            bits: 0,
        }
    }
}

/// Iterator over a [`RegSet`] in ascending `(class, index)` order.
pub struct Iter<'a> {
    set: &'a RegSet,
    class: usize,
    /// Index of the next word to load from the current class.
    word: usize,
    /// Bits of the last loaded word not yet yielded.
    bits: u64,
}

impl Iterator for Iter<'_> {
    type Item = Reg;

    fn next(&mut self) -> Option<Reg> {
        while self.bits == 0 {
            let words = self.set.bits.get(self.class)?;
            match words.get(self.word) {
                Some(&w) => {
                    self.bits = w;
                    self.word += 1;
                }
                None => {
                    self.class += 1;
                    self.word = 0;
                }
            }
        }
        let bit = self.bits.trailing_zeros() as usize;
        self.bits &= self.bits - 1;
        let index = ((self.word - 1) * 64 + bit) as u16;
        Some(match CLASSES[self.class] {
            RegClass::Int => Reg::int(index),
            RegClass::Fp => Reg::fp(index),
        })
    }
}

impl<'a> IntoIterator for &'a RegSet {
    type Item = Reg;
    type IntoIter = Iter<'a>;

    fn into_iter(self) -> Iter<'a> {
        self.iter()
    }
}

impl PartialEq for RegSet {
    /// Set equality: trailing zero words (left by removals, or by a
    /// register inserted in one set only) do not count.
    fn eq(&self, other: &RegSet) -> bool {
        // Word by word rather than slice `==`: that calls `memcmp`, which
        // costs far more than a few words on the empty vectors of
        // architectural-only sets.
        self.bits.iter().zip(&other.bits).all(|(a, b)| {
            let (short, long) = if a.len() <= b.len() { (a, b) } else { (b, a) };
            short.iter().zip(long).all(|(x, y)| x == y)
                && long[short.len()..].iter().all(|&w| w == 0)
        })
    }
}

impl Eq for RegSet {}

impl std::fmt::Debug for RegSet {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_set().entries(self.iter()).finish()
    }
}

impl Extend<Reg> for RegSet {
    fn extend<I: IntoIterator<Item = Reg>>(&mut self, iter: I) {
        for r in iter {
            self.insert(r);
        }
    }
}

impl FromIterator<Reg> for RegSet {
    fn from_iter<I: IntoIterator<Item = Reg>>(iter: I) -> RegSet {
        let mut s = RegSet::new();
        s.extend(iter);
        s
    }
}

/// Result of live-variable analysis over a [`Function`].
#[derive(Debug, Clone)]
pub struct Liveness {
    /// Indexed by [`BlockId::index`].
    live_in: Vec<RegSet>,
    live_out: Vec<RegSet>,
}

impl Liveness {
    /// Runs the analysis to fixpoint.
    ///
    /// # Examples
    ///
    /// ```
    /// use sentinel_prog::{cfg::Cfg, liveness::Liveness, ProgramBuilder};
    /// use sentinel_isa::{Insn, Reg};
    ///
    /// let mut b = ProgramBuilder::new("f");
    /// let entry = b.block("entry");
    /// b.push(Insn::addi(Reg::int(2), Reg::int(1), 1)); // reads r1
    /// b.push(Insn::halt());
    /// let f = b.finish();
    /// let lv = Liveness::compute(&f, &Cfg::build(&f));
    /// assert!(lv.live_in(entry).contains(&Reg::int(1)));
    /// ```
    pub fn compute(func: &Function, cfg: &Cfg) -> Liveness {
        let n = func.block_count();
        let mut live_in = vec![RegSet::new(); n];
        let mut live_out = vec![RegSet::new(); n];
        // live_out = live_in of the layout fall-through (side-exit
        // targets are added during the in-block scan).
        let mut fallthrough: Vec<Option<BlockId>> = vec![None; n];
        for pair in func.layout().windows(2) {
            let slot = &mut fallthrough[pair[0].index()];
            if slot.is_none() && !func.block(pair[0]).ends_in_unconditional() {
                *slot = Some(pair[1]);
            }
        }

        // Iterate blocks in post-order-ish sequence until stable. Order
        // only affects convergence speed, not the result.
        let mut order = cfg.reverse_post_order();
        order.reverse();
        let mut out = RegSet::new();
        let mut inn = RegSet::new();
        loop {
            let mut changed = false;
            for &bid in &order {
                let b = bid.index();
                out.clear();
                if let Some(ft) = fallthrough[b] {
                    out.union_with(&live_in[ft.index()]);
                }
                inn.clone_from(&out);
                for insn in func.block(bid).insns.iter().rev() {
                    step_back(insn, &live_in, &mut inn);
                }
                if out != live_out[b] {
                    std::mem::swap(&mut live_out[b], &mut out);
                    changed = true;
                }
                if inn != live_in[b] {
                    std::mem::swap(&mut live_in[b], &mut inn);
                    changed = true;
                }
            }
            if !changed {
                break;
            }
        }
        Liveness { live_in, live_out }
    }

    /// Registers live at the top of a block.
    pub fn live_in(&self, b: BlockId) -> &RegSet {
        &self.live_in[b.index()]
    }

    /// Registers live at the bottom of a block (i.e. into the layout
    /// fall-through; side-exit liveness is position-dependent — see
    /// [`Liveness::live_before`]).
    pub fn live_out(&self, b: BlockId) -> &RegSet {
        &self.live_out[b.index()]
    }

    /// Registers live immediately *before* the instruction at `pos` in
    /// block `b` (position `insns.len()` gives the live-out set).
    pub fn live_before(&self, func: &Function, b: BlockId, pos: usize) -> RegSet {
        let block = func.block(b);
        assert!(pos <= block.insns.len(), "position out of bounds");
        let mut live = self.live_out(b).clone();
        for insn in block.insns[pos..].iter().rev() {
            step_back(insn, &self.live_in, &mut live);
        }
        live
    }

    /// Calls `visit(pos, live)` with the registers live immediately
    /// before each position of block `b`, from `insns.len()` (the
    /// live-out set) down to 0: every [`Liveness::live_before`] set of
    /// the block in one backward scan.
    pub fn for_each_point(
        &self,
        func: &Function,
        b: BlockId,
        mut visit: impl FnMut(usize, &RegSet),
    ) {
        let insns = &func.block(b).insns;
        let mut live = self.live_out(b).clone();
        visit(insns.len(), &live);
        for (pos, insn) in insns.iter().enumerate().rev() {
            step_back(insn, &self.live_in, &mut live);
            visit(pos, &live);
        }
    }
}

/// The backward transfer function of one instruction: its definition
/// dies, its uses and (for a branch or jump) its target's live-in set
/// become live.
fn step_back(insn: &Insn, live_in: &[RegSet], live: &mut RegSet) {
    if let Some(d) = insn.def() {
        live.remove(&d);
    }
    live.extend(insn.uses());
    if let Some(t) = insn.target {
        live.union_with(&live_in[t.index()]);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ProgramBuilder;
    use sentinel_isa::{Insn, Opcode, Reg};

    fn analyze(f: &Function) -> Liveness {
        let cfg = Cfg::build(f);
        Liveness::compute(f, &cfg)
    }

    #[test]
    fn straight_line_liveness() {
        // entry: r2 = r1 + 1; st r2, 0(r3); halt
        let mut b = ProgramBuilder::new("f");
        let e = b.block("entry");
        b.push(Insn::addi(Reg::int(2), Reg::int(1), 1));
        b.push(Insn::st_w(Reg::int(2), Reg::int(3), 0));
        b.push(Insn::halt());
        let f = b.finish();
        let lv = analyze(&f);
        let li = lv.live_in(e);
        assert!(li.contains(&Reg::int(1)));
        assert!(li.contains(&Reg::int(3)));
        assert!(!li.contains(&Reg::int(2)), "r2 is defined before use");
        assert!(lv.live_out(e).is_empty());
    }

    #[test]
    fn side_exit_target_liveness_is_positional() {
        // entry: beq r1, r0, other ; r5 = 1 ; halt
        // other: uses r5
        // r5 is live at the branch point (other uses it) but NOT live-in to
        // entry, because on the fall-through path it is defined before any
        // use, and a taken branch at the top means the *old* r5 flows to
        // `other`.
        let mut b = ProgramBuilder::new("f");
        let e = b.block("entry");
        let o = b.block("other");
        b.switch_to(e);
        b.push(Insn::branch(Opcode::Beq, Reg::int(1), Reg::ZERO, o));
        b.push(Insn::li(Reg::int(5), 1));
        b.push(Insn::halt());
        b.switch_to(o);
        b.push(Insn::st_w(Reg::int(5), Reg::int(6), 0));
        b.push(Insn::halt());
        let f = b.finish();
        let lv = analyze(&f);
        // At the branch (pos 0) r5 is live (target uses it).
        assert!(lv.live_before(&f, e, 0).contains(&Reg::int(5)));
        assert!(lv.live_in(e).contains(&Reg::int(5)));
        // Just after the branch (pos 1), r5 is dead: it is redefined before
        // its only subsequent use.
        assert!(!lv.live_before(&f, e, 1).contains(&Reg::int(5)));
    }

    #[test]
    fn loop_carried_liveness() {
        // head: r1 = r1 - 1; bne r1, r0, head
        // done: halt
        let mut b = ProgramBuilder::new("loop");
        let head = b.block("head");
        let done = b.block("done");
        b.switch_to(head);
        b.push(Insn::addi(Reg::int(1), Reg::int(1), -1));
        b.push(Insn::branch(Opcode::Bne, Reg::int(1), Reg::ZERO, head));
        b.switch_to(done);
        b.push(Insn::halt());
        let f = b.finish();
        let lv = analyze(&f);
        assert!(lv.live_in(head).contains(&Reg::int(1)));
        // r1 is live around the back edge.
        assert!(lv.live_before(&f, head, 1).contains(&Reg::int(1)));
    }

    #[test]
    fn fp_and_int_tracked_separately() {
        let mut b = ProgramBuilder::new("f");
        let e = b.block("entry");
        b.push(Insn::alu(Opcode::FAdd, Reg::fp(1), Reg::fp(2), Reg::fp(3)));
        b.push(Insn::fst(Reg::fp(1), Reg::int(4), 0));
        b.push(Insn::halt());
        let f = b.finish();
        let lv = analyze(&f);
        let li = lv.live_in(e);
        assert!(li.contains(&Reg::fp(2)) && li.contains(&Reg::fp(3)));
        assert!(li.contains(&Reg::int(4)));
        assert!(!li.contains(&Reg::fp(1)));
    }

    #[test]
    fn zero_register_never_live() {
        let mut b = ProgramBuilder::new("f");
        let e = b.block("entry");
        b.push(Insn::branch(Opcode::Beq, Reg::int(1), Reg::ZERO, e));
        b.push(Insn::halt());
        let f = b.finish();
        let lv = analyze(&f);
        assert!(!lv.live_in(e).contains(&Reg::ZERO));
    }

    #[test]
    fn live_before_end_equals_live_out() {
        let mut b = ProgramBuilder::new("f");
        let e = b.block("entry");
        let t = b.block("t");
        b.switch_to(e);
        b.push(Insn::li(Reg::int(1), 1));
        b.switch_to(t);
        b.push(Insn::st_w(Reg::int(1), Reg::int(2), 0));
        b.push(Insn::halt());
        let f = b.finish();
        let lv = analyze(&f);
        let n = f.block(e).insns.len();
        assert_eq!(lv.live_before(&f, e, n), *lv.live_out(e));
        assert!(lv.live_out(e).contains(&Reg::int(1)));
    }

    #[test]
    fn for_each_point_matches_live_before() {
        let mut b = ProgramBuilder::new("f");
        let e = b.block("entry");
        let o = b.block("other");
        b.switch_to(e);
        b.push(Insn::addi(Reg::int(2), Reg::int(1), 1));
        b.push(Insn::branch(Opcode::Beq, Reg::int(2), Reg::ZERO, o));
        b.push(Insn::li(Reg::int(5), 1));
        b.push(Insn::st_w(Reg::int(5), Reg::int(3), 0));
        b.push(Insn::halt());
        b.switch_to(o);
        b.push(Insn::st_w(Reg::int(5), Reg::int(6), 0));
        b.push(Insn::halt());
        let f = b.finish();
        let lv = analyze(&f);
        for bid in [e, o] {
            let mut seen = Vec::new();
            lv.for_each_point(&f, bid, |pos, live| {
                assert_eq!(*live, lv.live_before(&f, bid, pos), "{bid} pos {pos}");
                seen.push(pos);
            });
            let n = f.block(bid).insns.len();
            assert_eq!(seen, (0..=n).rev().collect::<Vec<_>>());
        }
    }
}

/// `RegSet` against a `BTreeSet<Reg>` model.
#[cfg(test)]
mod regset_tests {
    use super::RegSet;
    use sentinel_isa::Reg;
    use std::collections::BTreeSet;

    /// xorshift64*: a dependency-free seeded generator.
    struct Gen(u64);

    impl Gen {
        fn next(&mut self) -> u64 {
            self.0 ^= self.0 >> 12;
            self.0 ^= self.0 << 25;
            self.0 ^= self.0 >> 27;
            self.0.wrapping_mul(0x2545_F491_4F6C_DD1D)
        }

        fn below(&mut self, n: u64) -> u64 {
            self.next() % n
        }

        /// Mostly architectural registers, sometimes virtual ones, up to
        /// `u16::MAX`, in both classes.
        fn reg(&mut self) -> Reg {
            let index = match self.below(4) {
                0 | 1 => self.below(64),
                2 => 64 + self.below(256),
                _ => self.below(u64::from(u16::MAX) + 1),
            } as u16;
            if self.below(2) == 0 {
                Reg::int(index)
            } else {
                Reg::fp(index)
            }
        }
    }

    fn check(set: &RegSet, model: &BTreeSet<Reg>) {
        assert_eq!(set.len(), model.len());
        assert_eq!(set.is_empty(), model.is_empty());
        assert_eq!(
            set.iter().collect::<Vec<_>>(),
            model.iter().copied().collect::<Vec<_>>(),
            "iteration is in (class, index) order"
        );
        assert_eq!(*set, model.iter().copied().collect::<RegSet>());
    }

    #[test]
    fn random_operations_match_a_btreeset() {
        let mut g = Gen(0x9E37_79B9_7F4A_7C15);
        for round in 0..64 {
            let mut a = RegSet::new();
            let mut ma = BTreeSet::new();
            let mut b = RegSet::new();
            let mut mb = BTreeSet::new();
            for _ in 0..200 {
                let r = g.reg();
                match g.below(6) {
                    0 | 1 => assert_eq!(a.insert(r), ma.insert(r), "round {round} insert {r}"),
                    2 => assert_eq!(a.remove(&r), ma.remove(&r), "round {round} remove {r}"),
                    3 => {
                        b.insert(r);
                        mb.insert(r);
                    }
                    4 => {
                        // Remove something actually present.
                        if let Some(&x) = ma.iter().nth(g.below(ma.len() as u64 + 1) as usize) {
                            assert!(a.remove(&x));
                            ma.remove(&x);
                        }
                    }
                    _ => {
                        a.union_with(&b);
                        ma.extend(mb.iter().copied());
                    }
                }
                assert_eq!(
                    a.contains(&r),
                    ma.contains(&r),
                    "round {round} contains {r}"
                );
            }
            check(&a, &ma);
            check(&b, &mb);
            a.clear();
            assert!(a.is_empty() && a.iter().next().is_none());
        }
    }

    #[test]
    fn equal_sets_with_different_word_lengths_compare_equal() {
        // Built in different orders: the long vector grew for a virtual
        // register that was later removed.
        let mut long = RegSet::new();
        long.insert(Reg::int(u16::MAX));
        long.insert(Reg::fp(5));
        long.insert(Reg::int(3));
        assert!(long.remove(&Reg::int(u16::MAX)));
        let mut short = RegSet::new();
        short.insert(Reg::int(3));
        short.insert(Reg::fp(5));
        assert_eq!(long, short);
        assert_eq!(short, long);
        // The same holds in the fp class and for empty sets.
        let mut fp = RegSet::new();
        fp.insert(Reg::fp(900));
        fp.remove(&Reg::fp(900));
        assert_eq!(fp, RegSet::new());
        assert_eq!(RegSet::new(), fp);
        // And a difference past the shorter vector's end still counts.
        let mut more = short.clone();
        more.insert(Reg::int(640));
        assert_ne!(more, short);
        assert_ne!(short, more);
    }

    #[test]
    fn union_is_word_wise_and_grows_the_shorter_side() {
        let a: RegSet = [Reg::int(1), Reg::fp(2)].into_iter().collect();
        let b: RegSet = [Reg::int(1000), Reg::fp(2), Reg::fp(70)]
            .into_iter()
            .collect();
        let mut u = a.clone();
        u.union_with(&b);
        let expect: Vec<Reg> = vec![Reg::int(1), Reg::int(1000), Reg::fp(2), Reg::fp(70)];
        assert_eq!(u.iter().collect::<Vec<_>>(), expect);
        let mut v = b.clone();
        v.union_with(&a);
        assert_eq!(u, v);
    }
}
