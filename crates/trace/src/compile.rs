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
