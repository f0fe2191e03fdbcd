//! Machine description: the architectural parameters the scheduler and
//! simulator agree on (paper §5.1, Table 3).

use std::fmt;

use crate::{OpClass, Opcode};

/// Deterministic instruction latencies, indexed by [`OpClass`].
///
/// The default is paper Table 3:
///
/// | class          | latency |
/// |----------------|---------|
/// | Int ALU        | 1       |
/// | Int multiply   | 3       |
/// | Int divide     | 10      |
/// | branch         | 1 (+1 slot) |
/// | memory load    | 2       |
/// | memory store   | 1       |
/// | FP ALU         | 3       |
/// | FP conversion  | 3       |
/// | FP multiply    | 3       |
/// | FP divide      | 10      |
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LatencyTable {
    int_alu: u32,
    int_mul: u32,
    int_div: u32,
    branch: u32,
    mem_load: u32,
    mem_store: u32,
    fp_alu: u32,
    fp_cvt: u32,
    fp_mul: u32,
    fp_div: u32,
}

impl LatencyTable {
    /// Paper Table 3 latencies.
    pub fn paper() -> LatencyTable {
        LatencyTable {
            int_alu: 1,
            int_mul: 3,
            int_div: 10,
            branch: 1,
            mem_load: 2,
            mem_store: 1,
            fp_alu: 3,
            fp_cvt: 3,
            fp_mul: 3,
            fp_div: 10,
        }
    }

    /// Uniform unit latencies (useful for the paper's worked examples,
    /// §3.4 and §3.7, which assume one cycle per instruction).
    pub fn unit() -> LatencyTable {
        LatencyTable {
            int_alu: 1,
            int_mul: 1,
            int_div: 1,
            branch: 1,
            mem_load: 1,
            mem_store: 1,
            fp_alu: 1,
            fp_cvt: 1,
            fp_mul: 1,
            fp_div: 1,
        }
    }

    /// Latency of an operation class, in cycles.
    pub fn of(&self, class: OpClass) -> u32 {
        match class {
            OpClass::IntAlu => self.int_alu,
            OpClass::IntMul => self.int_mul,
            OpClass::IntDiv => self.int_div,
            OpClass::Branch => self.branch,
            OpClass::MemLoad => self.mem_load,
            OpClass::MemStore => self.mem_store,
            OpClass::FpAlu => self.fp_alu,
            OpClass::FpCvt => self.fp_cvt,
            OpClass::FpMul => self.fp_mul,
            OpClass::FpDiv => self.fp_div,
        }
    }

    /// Overrides the latency of one class (for ablations).
    pub fn with(mut self, class: OpClass, latency: u32) -> LatencyTable {
        assert!(latency >= 1, "latency must be at least one cycle");
        let slot = match class {
            OpClass::IntAlu => &mut self.int_alu,
            OpClass::IntMul => &mut self.int_mul,
            OpClass::IntDiv => &mut self.int_div,
            OpClass::Branch => &mut self.branch,
            OpClass::MemLoad => &mut self.mem_load,
            OpClass::MemStore => &mut self.mem_store,
            OpClass::FpAlu => &mut self.fp_alu,
            OpClass::FpCvt => &mut self.fp_cvt,
            OpClass::FpMul => &mut self.fp_mul,
            OpClass::FpDiv => &mut self.fp_div,
        };
        *slot = latency;
        self
    }
}

impl Default for LatencyTable {
    fn default() -> Self {
        LatencyTable::paper()
    }
}

/// The machine description consumed by both the scheduler and the
/// simulator.
///
/// Mirrors the paper's evaluation machine (§5.1): an in-order
/// VLIW/superscalar with CRAY-1-style interlocking, deterministic
/// latencies, 64 integer + 64 floating-point registers, an 8-entry store
/// buffer, and an issue rate of 1, 2, 4, or 8 with *no* restriction on the
/// combination of operations issued per cycle (§5.2) other than one taken
/// branch redirect per cycle.
///
/// # Examples
///
/// ```
/// use sentinel_isa::{MachineDesc, Opcode};
///
/// let m = MachineDesc::paper_issue(4);
/// assert_eq!(m.issue_width(), 4);
/// assert_eq!(m.latency(Opcode::FDiv), 10);
/// assert_eq!(m.store_buffer_size(), 8);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MachineDesc {
    issue_width: usize,
    branches_per_cycle: usize,
    int_regs: usize,
    fp_regs: usize,
    store_buffer_size: usize,
    latencies: LatencyTable,
}

impl MachineDesc {
    /// Store-buffer entries of the paper's machine, the same at every
    /// issue rate (§5.1).
    pub const PAPER_STORE_BUFFER: usize = 8;

    /// The most registers of one class a machine may have: a register
    /// index is a `u16`.
    pub const MAX_REGS: usize = 1 << 16;

    /// The most store-buffer entries a machine may have. The paper's
    /// sweeps stop at 32; the simulator allocates the buffer up front,
    /// and this many entries take a few MiB.
    pub const MAX_STORE_BUFFER: usize = 1 << 16;

    /// The paper's machine at a given issue rate (1, 2, 4, or 8 in the
    /// paper; any positive width is accepted for sweeps).
    ///
    /// # Panics
    ///
    /// Panics if `issue_width` is zero.
    pub fn paper_issue(issue_width: usize) -> MachineDesc {
        MachineDescBuilder::new().issue_width(issue_width).build()
    }

    /// The paper's machine with every latency forced to one cycle — the
    /// standard unit-latency test machine shared by scheduler and
    /// simulator tests, where schedule lengths are easy to reason about
    /// by hand.
    ///
    /// # Panics
    ///
    /// Panics if `issue_width` is zero.
    pub fn unit_issue(issue_width: usize) -> MachineDesc {
        MachineDescBuilder::new()
            .issue_width(issue_width)
            .latencies(LatencyTable::unit())
            .build()
    }

    /// The paper's *base machine*: issue rate 1 (speedups in Figures 4 and
    /// 5 are computed relative to this machine running restricted
    /// percolation code).
    pub fn base() -> MachineDesc {
        MachineDesc::paper_issue(1)
    }

    /// Starts a builder initialized with the paper's parameters.
    pub fn builder() -> MachineDescBuilder {
        MachineDescBuilder::new()
    }

    /// Maximum instructions fetched/issued per cycle.
    pub fn issue_width(&self) -> usize {
        self.issue_width
    }

    /// Maximum branches issued per cycle.
    pub fn branches_per_cycle(&self) -> usize {
        self.branches_per_cycle
    }

    /// Architectural integer register count.
    pub fn int_regs(&self) -> usize {
        self.int_regs
    }

    /// Architectural floating-point register count.
    pub fn fp_regs(&self) -> usize {
        self.fp_regs
    }

    /// Store buffer entries (`N`). Paper §4.2: a speculative store must be
    /// confirmed or cancelled within `N − 1` stores of itself to avoid
    /// deadlock, so this is an input to the scheduler as well as the
    /// simulator.
    pub fn store_buffer_size(&self) -> usize {
        self.store_buffer_size
    }

    /// The latency table.
    pub fn latencies(&self) -> &LatencyTable {
        &self.latencies
    }

    /// Latency of an opcode, in cycles.
    pub fn latency(&self, op: Opcode) -> u32 {
        self.latencies.of(op.class())
    }
}

impl Default for MachineDesc {
    fn default() -> Self {
        MachineDesc::paper_issue(8)
    }
}

impl fmt::Display for MachineDesc {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "issue-{} machine ({} int / {} fp regs, {}-entry store buffer)",
            self.issue_width, self.int_regs, self.fp_regs, self.store_buffer_size
        )
    }
}

/// Builder for [`MachineDesc`], defaulting to the paper's parameters.
///
/// # Examples
///
/// ```
/// use sentinel_isa::MachineDesc;
///
/// let m = MachineDesc::builder()
///     .issue_width(2)
///     .store_buffer_size(4)
///     .build();
/// assert_eq!(m.store_buffer_size(), 4);
/// ```
#[derive(Debug, Clone)]
pub struct MachineDescBuilder {
    issue_width: usize,
    branches_per_cycle: usize,
    int_regs: usize,
    fp_regs: usize,
    store_buffer_size: usize,
    latencies: LatencyTable,
}

impl MachineDescBuilder {
    /// Creates a builder with the paper's defaults (issue 8).
    pub fn new() -> MachineDescBuilder {
        MachineDescBuilder {
            issue_width: 8,
            branches_per_cycle: 1,
            int_regs: 64,
            fp_regs: 64,
            store_buffer_size: MachineDesc::PAPER_STORE_BUFFER,
            latencies: LatencyTable::paper(),
        }
    }

    /// Sets the issue width.
    pub fn issue_width(mut self, width: usize) -> Self {
        self.issue_width = width;
        self
    }

    /// Sets the number of branches issuable per cycle.
    pub fn branches_per_cycle(mut self, n: usize) -> Self {
        self.branches_per_cycle = n;
        self
    }

    /// Sets the integer register count.
    pub fn int_regs(mut self, n: usize) -> Self {
        self.int_regs = n;
        self
    }

    /// Sets the floating-point register count.
    pub fn fp_regs(mut self, n: usize) -> Self {
        self.fp_regs = n;
        self
    }

    /// Sets the store-buffer entry count.
    pub fn store_buffer_size(mut self, n: usize) -> Self {
        self.store_buffer_size = n;
        self
    }

    /// Replaces the latency table.
    pub fn latencies(mut self, table: LatencyTable) -> Self {
        self.latencies = table;
        self
    }

    /// Builds the machine description.
    ///
    /// # Panics
    ///
    /// Panics if the issue width, branch limit, register counts, or store
    /// buffer size is zero.
    pub fn build(self) -> MachineDesc {
        assert!(self.issue_width >= 1, "issue width must be positive");
        assert!(
            self.branches_per_cycle >= 1,
            "branch limit must be positive"
        );
        assert!(
            self.int_regs >= 1 && self.fp_regs >= 1,
            "register files must be non-empty"
        );
        assert!(
            self.store_buffer_size >= 1,
            "store buffer must have at least one entry"
        );
        MachineDesc {
            issue_width: self.issue_width,
            branches_per_cycle: self.branches_per_cycle,
            int_regs: self.int_regs,
            fp_regs: self.fp_regs,
            store_buffer_size: self.store_buffer_size,
            latencies: self.latencies,
        }
    }
}

impl Default for MachineDescBuilder {
    fn default() -> Self {
        MachineDescBuilder::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Opcode;

    #[test]
    fn table3_latencies() {
        let m = MachineDesc::paper_issue(8);
        assert_eq!(m.latency(Opcode::Add), 1);
        assert_eq!(m.latency(Opcode::Mul), 3);
        assert_eq!(m.latency(Opcode::Div), 10);
        assert_eq!(m.latency(Opcode::Beq), 1);
        assert_eq!(m.latency(Opcode::LdW), 2);
        assert_eq!(m.latency(Opcode::StW), 1);
        assert_eq!(m.latency(Opcode::FAdd), 3);
        assert_eq!(m.latency(Opcode::FCvtIF), 3);
        assert_eq!(m.latency(Opcode::FMul), 3);
        assert_eq!(m.latency(Opcode::FDiv), 10);
    }

    #[test]
    fn paper_machine_parameters() {
        let m = MachineDesc::paper_issue(4);
        assert_eq!(m.issue_width(), 4);
        assert_eq!(m.int_regs(), 64);
        assert_eq!(m.fp_regs(), 64);
        assert_eq!(m.store_buffer_size(), 8);
        assert_eq!(m.branches_per_cycle(), 1);
        assert_eq!(MachineDesc::base().issue_width(), 1);
    }

    #[test]
    fn builder_overrides() {
        let m = MachineDesc::builder()
            .issue_width(2)
            .store_buffer_size(16)
            .int_regs(32)
            .latencies(LatencyTable::unit())
            .build();
        assert_eq!(m.issue_width(), 2);
        assert_eq!(m.store_buffer_size(), 16);
        assert_eq!(m.int_regs(), 32);
        assert_eq!(m.latency(Opcode::FDiv), 1);
    }

    #[test]
    fn latency_table_with_override() {
        let t = LatencyTable::paper().with(OpClass::MemLoad, 4);
        assert_eq!(t.of(OpClass::MemLoad), 4);
        assert_eq!(t.of(OpClass::IntAlu), 1);
    }

    #[test]
    #[should_panic(expected = "issue width")]
    fn zero_issue_width_panics() {
        let _ = MachineDesc::paper_issue(0);
    }

    #[test]
    fn display_mentions_parameters() {
        let s = MachineDesc::paper_issue(8).to_string();
        assert!(s.contains("issue-8"));
        assert!(s.contains("store buffer"));
    }
}
