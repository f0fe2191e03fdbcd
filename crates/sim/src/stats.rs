//! Execution statistics.

use std::fmt;

use sentinel_trace::StallCounts;

/// Counters collected by a [`SimSession`](crate::SimSession) run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Stats {
    /// Total cycles (the paper's performance metric, §5.1).
    pub cycles: u64,
    /// Cycles in which at least one instruction issued. The remaining
    /// `cycles - issuing_cycles` are attributed, cycle for cycle, in
    /// [`Stats::stalls`].
    pub issuing_cycles: u64,
    /// Per-reason attribution of every non-issuing cycle; the machine
    /// guarantees `stalls.total() == cycles - issuing_cycles`.
    pub stalls: StallCounts,
    /// Dynamic instructions executed (squashed instructions not counted).
    pub dyn_insns: u64,
    /// Dynamic instructions carrying the speculative modifier.
    pub dyn_speculative: u64,
    /// Dynamic `check_exception` sentinels executed.
    pub dyn_checks: u64,
    /// Dynamic `confirm_store` sentinels executed.
    pub dyn_confirms: u64,
    /// Speculative faults deferred into a register exception tag.
    pub tag_sets: u64,
    /// Speculative instructions that propagated a set source tag.
    pub tag_propagations: u64,
    /// Faulting speculative instructions that wrote a garbage value
    /// (general-percolation "silent" semantics).
    pub silent_garbage_writes: u64,
    /// Conditional branches executed.
    pub branches: u64,
    /// Conditional branches taken (superblock side exits).
    pub branches_taken: u64,
    /// Loads executed.
    pub loads: u64,
    /// Stores executed (regular and speculative).
    pub stores: u64,
    /// Store-buffer releases to memory.
    pub sb_releases: u64,
    /// Probationary entries cancelled by taken branches.
    pub sb_cancels: u64,
    /// Loads satisfied by store-buffer forwarding.
    pub sb_forwards: u64,
    /// Cycles stalled on a full store buffer or forwarding conflicts.
    pub sb_stall_cycles: u64,
    /// Exception recoveries performed (re-execution resumes, §3.7).
    pub recoveries: u64,
    /// Dynamic instructions carrying a boosting level (§2.3).
    pub dyn_boosted: u64,
    /// Shadow entries committed to architectural state (boosting).
    pub shadow_commits: u64,
    /// Shadow entries squashed by taken branches (boosting).
    pub shadow_squashes: u64,
}

impl Stats {
    /// Dynamic instructions per cycle.
    pub fn ipc(&self) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.dyn_insns as f64 / self.cycles as f64
        }
    }
}

impl fmt::Display for Stats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "cycles={} insns={} ipc={:.2}",
            self.cycles,
            self.dyn_insns,
            self.ipc()
        )?;
        writeln!(
            f,
            "  speculative={} checks={} confirms={} tag_sets={} tag_props={}",
            self.dyn_speculative,
            self.dyn_checks,
            self.dyn_confirms,
            self.tag_sets,
            self.tag_propagations
        )?;
        writeln!(
            f,
            "  branches={} taken={} loads={} stores={}",
            self.branches, self.branches_taken, self.loads, self.stores
        )?;
        writeln!(
            f,
            "  sb: releases={} cancels={} forwards={} stall_cycles={}",
            self.sb_releases, self.sb_cancels, self.sb_forwards, self.sb_stall_cycles
        )?;
        writeln!(
            f,
            "  boosted={} shadow_commits={} shadow_squashes={} recoveries={}",
            self.dyn_boosted, self.shadow_commits, self.shadow_squashes, self.recoveries
        )?;
        write!(
            f,
            "  issuing={} stalled={} [{}]",
            self.issuing_cycles,
            self.cycles.saturating_sub(self.issuing_cycles),
            self.stalls
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ipc_handles_zero_cycles() {
        assert_eq!(Stats::default().ipc(), 0.0);
        let s = Stats {
            cycles: 4,
            dyn_insns: 8,
            ..Stats::default()
        };
        assert_eq!(s.ipc(), 2.0);
    }

    #[test]
    fn display_is_nonempty() {
        let s = Stats::default().to_string();
        assert!(s.contains("cycles=0"));
        assert!(s.contains("sb:"));
        assert!(s.contains("boosted=0"));
    }
}
