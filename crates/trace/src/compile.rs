//! Compile-phase observability vocabulary.
//!
//! The simulator side of the workspace reports per-cycle [`Event`]s
//! into a [`TraceSink`]; the compiler side keeps one record per
//! compilation, the `PassLog` of `sentinel-core`'s compile session, in
//! which every stage run carries its wall time and the [`IrDelta`] it
//! produced. This module holds the parts of that vocabulary other
//! layers share: the delta type and the metric name the grid counts
//! pass runs under.
//!
//! [`Event`]: crate::Event
//! [`TraceSink`]: crate::TraceSink

/// Metric name: total compiler passes executed (pass runs, not distinct
/// pass names).
pub const PASS_RUNS: &str = "compile.pass.runs";

/// How one pass run changed the IR.
///
/// Deltas are computed by the compile session from whole-function
/// counts taken before and after the run, so they hold for any stage
/// without per-stage bookkeeping.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct IrDelta {
    /// Instructions added (sentinels, clear_tags, restore moves...).
    pub insns_added: usize,
    /// Instructions removed.
    pub insns_removed: usize,
    /// Instructions newly carrying the speculative modifier.
    pub marked_speculative: usize,
}

impl IrDelta {
    /// Whether the run changed nothing it measures.
    pub fn is_empty(&self) -> bool {
        *self == IrDelta::default()
    }
}

impl std::fmt::Display for IrDelta {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "+{} -{} insns, +{} speculative",
            self.insns_added, self.insns_removed, self.marked_speculative
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn delta_display_and_emptiness() {
        assert!(IrDelta::default().is_empty());
        let d = IrDelta {
            insns_added: 1,
            insns_removed: 2,
            marked_speculative: 3,
        };
        assert!(!d.is_empty());
        assert_eq!(d.to_string(), "+1 -2 insns, +3 speculative");
    }
}
