//! Execution profiles.
//!
//! Superblock formation (§2.1) is profile-driven: traces follow the most
//! frequently executed control-flow paths. The simulator produces a
//! [`Profile`] as a side effect of execution; the former consumes it.

use sentinel_isa::{BlockId, InsnId};

use crate::hash::FastMap;

/// Execution counts gathered from one or more program runs.
///
/// The simulators count into these maps on every block entry and
/// branch, so they use the cheap in-process [`FastMap`] hasher.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Profile {
    /// Times each block was entered (from the top).
    pub block_entries: FastMap<BlockId, u64>,
    /// Times each control-transfer instruction executed.
    pub branch_executed: FastMap<InsnId, u64>,
    /// Times each control-transfer instruction was taken.
    pub branch_taken: FastMap<InsnId, u64>,
}

impl Profile {
    /// Creates an empty profile.
    pub fn new() -> Profile {
        Profile::default()
    }

    /// Records a block entry.
    pub fn enter_block(&mut self, b: BlockId) {
        *self.block_entries.entry(b).or_insert(0) += 1;
    }

    /// Records a branch execution and outcome.
    pub fn record_branch(&mut self, id: InsnId, taken: bool) {
        *self.branch_executed.entry(id).or_insert(0) += 1;
        if taken {
            *self.branch_taken.entry(id).or_insert(0) += 1;
        }
    }

    /// Entry count of a block (0 if never entered).
    pub fn entries(&self, b: BlockId) -> u64 {
        self.block_entries.get(&b).copied().unwrap_or(0)
    }

    /// Taken probability of a branch, or `None` if it never executed.
    pub fn taken_prob(&self, id: InsnId) -> Option<f64> {
        let n = self.branch_executed.get(&id).copied()?;
        if n == 0 {
            return None;
        }
        let t = self.branch_taken.get(&id).copied().unwrap_or(0);
        Some(t as f64 / n as f64)
    }

    /// Merges another profile into this one.
    pub fn merge(&mut self, other: &Profile) {
        for (b, n) in &other.block_entries {
            *self.block_entries.entry(*b).or_insert(0) += n;
        }
        for (i, n) in &other.branch_executed {
            *self.branch_executed.entry(*i).or_insert(0) += n;
        }
        for (i, n) in &other.branch_taken {
            *self.branch_taken.entry(*i).or_insert(0) += n;
        }
    }

    /// The hottest block (highest entry count), if any block was entered.
    pub fn hottest_block(&self) -> Option<BlockId> {
        self.block_entries
            .iter()
            .max_by_key(|(b, n)| (**n, std::cmp::Reverse(b.0)))
            .map(|(b, _)| *b)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counts_accumulate() {
        let mut p = Profile::new();
        p.enter_block(BlockId(0));
        p.enter_block(BlockId(0));
        p.enter_block(BlockId(1));
        assert_eq!(p.entries(BlockId(0)), 2);
        assert_eq!(p.entries(BlockId(1)), 1);
        assert_eq!(p.entries(BlockId(9)), 0);
    }

    #[test]
    fn taken_probability() {
        let mut p = Profile::new();
        let id = InsnId(3);
        p.record_branch(id, true);
        p.record_branch(id, false);
        p.record_branch(id, true);
        p.record_branch(id, true);
        assert_eq!(p.taken_prob(id), Some(0.75));
        assert_eq!(p.taken_prob(InsnId(4)), None);
    }

    #[test]
    fn merge_sums_counts() {
        let mut a = Profile::new();
        a.enter_block(BlockId(0));
        a.record_branch(InsnId(1), true);
        let mut b = Profile::new();
        b.enter_block(BlockId(0));
        b.record_branch(InsnId(1), false);
        a.merge(&b);
        assert_eq!(a.entries(BlockId(0)), 2);
        assert_eq!(a.taken_prob(InsnId(1)), Some(0.5));
    }

    #[test]
    fn hottest_block_ties_break_deterministically() {
        let mut p = Profile::new();
        p.enter_block(BlockId(2));
        p.enter_block(BlockId(5));
        // Tie: lowest id wins.
        assert_eq!(p.hottest_block(), Some(BlockId(2)));
        p.enter_block(BlockId(5));
        assert_eq!(p.hottest_block(), Some(BlockId(5)));
        assert_eq!(Profile::new().hottest_block(), None);
    }
}
