//! Exceptions, traps, and the PC history queue.

use std::collections::VecDeque;
use std::fmt;

use sentinel_isa::InsnId;

/// The architectural exception causes of the simulated machine.
///
/// The paper's trap model (§5.1): memory loads, memory stores, integer
/// divide, and all floating-point instructions may trap. These are the
/// concrete causes our substrate generates.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ExceptionKind {
    /// Access to an address outside every mapped region (the stand-in for
    /// an access violation / page fault).
    UnmappedAddress(u64),
    /// Access with incorrect alignment for the access width.
    MisalignedAddress(u64),
    /// Integer division or remainder by zero.
    DivideByZero,
    /// Integer overflow (`i64::MIN / -1`).
    IntOverflow,
    /// Invalid floating-point operation (NaN operand, NaN-producing op,
    /// or unrepresentable conversion).
    FpInvalid,
    /// Floating-point division by zero.
    FpDivByZero,
    /// Floating-point overflow to infinity from finite operands.
    FpOverflow,
    /// A trapping instruction consumed a NaN operand under the Colwell
    /// NaN-write scheme (paper §2.4). The reported instruction is the
    /// *consumer*, not the original excepting instruction — the
    /// attribution weakness the paper criticizes.
    NanOperand,
}

impl fmt::Display for ExceptionKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ExceptionKind::UnmappedAddress(a) => write!(f, "unmapped address {a:#x}"),
            ExceptionKind::MisalignedAddress(a) => write!(f, "misaligned address {a:#x}"),
            ExceptionKind::DivideByZero => write!(f, "integer divide by zero"),
            ExceptionKind::IntOverflow => write!(f, "integer overflow"),
            ExceptionKind::FpInvalid => write!(f, "invalid floating-point operation"),
            ExceptionKind::FpDivByZero => write!(f, "floating-point divide by zero"),
            ExceptionKind::FpOverflow => write!(f, "floating-point overflow"),
            ExceptionKind::NanOperand => write!(f, "NaN operand consumed by trapping instruction"),
        }
    }
}

/// A signaled exception.
///
/// `excepting_pc` is the instruction reported as the cause. Under sentinel
/// scheduling this is recovered from the data field of the tagged source
/// register (paper §3.2 / Table 1); `reported_by` is the sentinel that
/// signaled. For a non-speculative instruction faulting directly, the two
/// are equal.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Trap {
    /// The instruction reported as the exception cause.
    pub excepting_pc: InsnId,
    /// The instruction that signaled (the sentinel, or the faulting
    /// instruction itself).
    pub reported_by: InsnId,
    /// The concrete cause, when the simulator can still associate one.
    ///
    /// The architectural tag carries only the PC (with a 1-bit tag); the
    /// simulator keeps a debug side-table from PC to cause so reports stay
    /// informative, exactly as a larger exception tag would (§3.2 fn. 3).
    pub kind: Option<ExceptionKind>,
}

impl fmt::Display for Trap {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "exception at {} (signaled by {})",
            self.excepting_pc, self.reported_by
        )?;
        if let Some(k) = self.kind {
            write!(f, ": {k}")?;
        }
        Ok(())
    }
}

/// The PC History Queue (paper §3.2): a record of the last `m` program
/// counters, letting hardware with non-uniform-latency function units
/// recover the PC of a faulting speculative instruction when it writes its
/// destination's data field.
///
/// The simulator always knows the faulting instruction, so the queue is a
/// fidelity check rather than a necessity: [`PcHistoryQueue::recover`]
/// reports whether the PC would still have been available in a hardware
/// queue of the configured depth.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PcHistoryQueue {
    depth: usize,
    entries: VecDeque<InsnId>,
}

impl PcHistoryQueue {
    /// Creates a queue remembering the last `depth` PCs.
    ///
    /// # Panics
    ///
    /// Panics if `depth` is zero.
    pub fn new(depth: usize) -> PcHistoryQueue {
        assert!(depth >= 1, "PC history queue depth must be positive");
        PcHistoryQueue {
            depth,
            entries: VecDeque::with_capacity(depth),
        }
    }

    /// Records an issued instruction.
    pub fn record(&mut self, pc: InsnId) {
        if self.entries.len() == self.depth {
            self.entries.pop_front();
        }
        self.entries.push_back(pc);
    }

    /// Returns `true` if `pc` is still in the queue (i.e. real hardware of
    /// this depth could have recovered it).
    pub fn recover(&self, pc: InsnId) -> bool {
        self.entries.contains(&pc)
    }

    /// Number of PCs currently held.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Returns `true` if nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn queue_keeps_last_n() {
        let mut q = PcHistoryQueue::new(2);
        q.record(InsnId(1));
        q.record(InsnId(2));
        q.record(InsnId(3));
        assert_eq!(q.len(), 2);
        assert!(!q.recover(InsnId(1)));
        assert!(q.recover(InsnId(2)));
        assert!(q.recover(InsnId(3)));
    }

    #[test]
    #[should_panic(expected = "depth must be positive")]
    fn zero_depth_rejected() {
        PcHistoryQueue::new(0);
    }

    #[test]
    fn empty_queue() {
        let q = PcHistoryQueue::new(4);
        assert!(q.is_empty());
        assert!(!q.recover(InsnId(0)));
    }

    #[test]
    fn trap_display_mentions_both_pcs() {
        let t = Trap {
            excepting_pc: InsnId(3),
            reported_by: InsnId(9),
            kind: Some(ExceptionKind::DivideByZero),
        };
        let s = t.to_string();
        assert!(s.contains("i3") && s.contains("i9") && s.contains("divide"));
    }

    #[test]
    fn exception_kind_display() {
        assert!(ExceptionKind::UnmappedAddress(0x10)
            .to_string()
            .contains("0x10"));
        assert!(ExceptionKind::FpOverflow.to_string().contains("overflow"));
    }
}
