//! The exception-tagged register file (paper §3.2).

use sentinel_isa::{InsnId, MachineDesc, Reg, RegClass};
use sentinel_prog::Function;

/// One architectural register: 64 data bits plus the exception tag.
///
/// When the tag is set, the data field holds the PC of the excepting
/// speculative instruction (paper §3.2); the simulator stores the raw
/// [`InsnId`] value there.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct TaggedValue {
    /// Raw data bits (integer value, `f64` bits, or an excepting PC).
    pub data: u64,
    /// The exception tag.
    pub tag: bool,
}

impl TaggedValue {
    /// An untagged value.
    pub fn clean(data: u64) -> TaggedValue {
        TaggedValue { data, tag: false }
    }

    /// A tagged value carrying an excepting PC.
    pub fn excepting(pc: InsnId) -> TaggedValue {
        TaggedValue {
            data: pc.0 as u64,
            tag: true,
        }
    }

    /// Interprets the data field as an excepting PC.
    pub fn as_pc(self) -> InsnId {
        InsnId(self.data as u32)
    }

    /// Interprets the data field as a signed integer.
    pub fn as_i64(self) -> i64 {
        self.data as i64
    }

    /// Interprets the data field as an `f64`.
    pub fn as_f64(self) -> f64 {
        f64::from_bits(self.data)
    }
}

/// One entry of the register file's optional tag-traffic journal: raw
/// exception-tag transitions, recorded as they happen so an attached
/// trace sink can reconstruct Table 1's tag flow.
///
/// A `TagWrite` whose `pc` equals the id of the instruction that
/// performed the write is a tag *set* (the instruction itself excepted);
/// any other `pc` is a *propagation* of an older deferred exception.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RegEvent {
    /// A register was written with its exception tag set; `pc` is the
    /// excepting PC carried in the data field.
    TagWrite {
        /// Register written.
        reg: Reg,
        /// Excepting PC recorded in the register.
        pc: InsnId,
    },
    /// A previously set exception tag was cleared (overwritten clean or
    /// explicitly via `clear_tag`).
    TagClear {
        /// Register whose tag was cleared.
        reg: Reg,
    },
}

/// The register-bank sizes a machine runs a function with, and the
/// dense numbering both machines' scoreboards use: the int bank from 0,
/// then the fp bank.
///
/// Each bank is the larger of the machine description and the registers
/// the function names, so pre-allocation virtual registers and the high
/// registers recovery renaming introduces stay executable. `r0` keeps
/// slot 0: the load paths score their raw destination, `r0` included.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct RegBanks {
    ints: usize,
    fps: usize,
}

impl RegBanks {
    /// The banks `func` needs on `mdes`.
    pub(crate) fn new(func: &Function, mdes: &MachineDesc) -> RegBanks {
        let (mi, mf) = func.max_reg_indices();
        RegBanks {
            ints: mdes.int_regs().max(mi.map_or(0, |i| i as usize + 1)),
            fps: mdes.fp_regs().max(mf.map_or(0, |i| i as usize + 1)),
        }
    }

    /// A clean register file of this shape.
    pub(crate) fn file(self) -> RegFile {
        RegFile::new(self.ints, self.fps)
    }

    /// Number of scoreboard slots (`ints + fps`).
    pub(crate) fn slots(self) -> usize {
        self.ints + self.fps
    }

    /// The scoreboard slot of `r`.
    #[inline]
    pub(crate) fn slot(self, r: Reg) -> usize {
        match r.class() {
            RegClass::Int => r.index() as usize,
            RegClass::Fp => self.ints + r.index() as usize,
        }
    }
}

/// The register file: integer and floating-point banks, each register
/// carrying an exception tag.
///
/// Integer register 0 is hardwired: reads return an untagged zero and
/// writes are discarded, which is what lets `check_exception` be encoded
/// as a move to `r0`.
#[derive(Debug, Clone)]
pub struct RegFile {
    int: Vec<TaggedValue>,
    fp: Vec<TaggedValue>,
    journal: Option<Vec<RegEvent>>,
}

impl RegFile {
    /// Creates a register file with the given bank sizes. All registers
    /// start as untagged zero (the simulator models a clean context; tests
    /// for §3.5 set stale tags explicitly).
    pub fn new(int_regs: usize, fp_regs: usize) -> RegFile {
        RegFile {
            int: vec![TaggedValue::default(); int_regs],
            fp: vec![TaggedValue::default(); fp_regs],
            journal: None,
        }
    }

    /// Enables or disables the tag-traffic journal. Disabling discards
    /// any pending entries.
    pub fn set_journal(&mut self, enabled: bool) {
        self.journal = if enabled { Some(Vec::new()) } else { None };
    }

    /// Drains the journal, returning the tag transitions recorded since
    /// the last call (empty when the journal is disabled).
    pub fn take_journal(&mut self) -> Vec<RegEvent> {
        match &mut self.journal {
            Some(j) => std::mem::take(j),
            None => Vec::new(),
        }
    }

    fn bank(&self, class: RegClass) -> &[TaggedValue] {
        match class {
            RegClass::Int => &self.int,
            RegClass::Fp => &self.fp,
        }
    }

    /// Reads a register (with its tag).
    ///
    /// # Panics
    ///
    /// Panics if the register index exceeds the bank size.
    pub fn read(&self, r: Reg) -> TaggedValue {
        if r.is_zero() {
            return TaggedValue::default();
        }
        self.bank(r.class())[r.index() as usize]
    }

    /// Writes a register (with its tag). Writes to `r0` are discarded.
    ///
    /// # Panics
    ///
    /// Panics if the register index exceeds the bank size.
    pub fn write(&mut self, r: Reg, v: TaggedValue) {
        if r.is_zero() {
            return;
        }
        if let Some(j) = &mut self.journal {
            let old = match r.class() {
                RegClass::Int => self.int[r.index() as usize],
                RegClass::Fp => self.fp[r.index() as usize],
            };
            if v.tag {
                j.push(RegEvent::TagWrite {
                    reg: r,
                    pc: v.as_pc(),
                });
            } else if old.tag {
                j.push(RegEvent::TagClear { reg: r });
            }
        }
        match r.class() {
            RegClass::Int => self.int[r.index() as usize] = v,
            RegClass::Fp => self.fp[r.index() as usize] = v,
        }
    }

    /// Writes untagged data.
    pub fn write_clean(&mut self, r: Reg, data: u64) {
        self.write(r, TaggedValue::clean(data));
    }

    /// Clears only the exception tag, keeping the data (the `clear_tag`
    /// instruction, paper §3.5).
    pub fn clear_tag(&mut self, r: Reg) {
        if r.is_zero() {
            return;
        }
        let mut v = self.read(r);
        v.tag = false;
        self.write(r, v);
    }

    /// Registers currently carrying a set exception tag.
    pub fn tagged_regs(&self) -> Vec<Reg> {
        let mut out = Vec::new();
        for (i, v) in self.int.iter().enumerate() {
            if v.tag {
                out.push(Reg::int(i as u16));
            }
        }
        for (i, v) in self.fp.iter().enumerate() {
            if v.tag {
                out.push(Reg::fp(i as u16));
            }
        }
        out
    }

    /// Bank sizes `(int, fp)`.
    pub fn sizes(&self) -> (usize, usize) {
        (self.int.len(), self.fp.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_register_hardwired() {
        let mut rf = RegFile::new(4, 4);
        rf.write(Reg::ZERO, TaggedValue::excepting(InsnId(7)));
        let v = rf.read(Reg::ZERO);
        assert_eq!(v, TaggedValue::default());
        assert!(!v.tag);
    }

    #[test]
    fn tagged_write_roundtrip() {
        let mut rf = RegFile::new(4, 4);
        rf.write(Reg::int(2), TaggedValue::excepting(InsnId(42)));
        let v = rf.read(Reg::int(2));
        assert!(v.tag);
        assert_eq!(v.as_pc(), InsnId(42));
    }

    #[test]
    fn fp_bank_separate_from_int() {
        let mut rf = RegFile::new(4, 4);
        rf.write_clean(Reg::int(1), 10);
        rf.write(Reg::fp(1), TaggedValue::clean(3.5f64.to_bits()));
        assert_eq!(rf.read(Reg::int(1)).as_i64(), 10);
        assert_eq!(rf.read(Reg::fp(1)).as_f64(), 3.5);
    }

    #[test]
    fn clear_tag_keeps_data() {
        let mut rf = RegFile::new(4, 4);
        rf.write(
            Reg::int(3),
            TaggedValue {
                data: 99,
                tag: true,
            },
        );
        rf.clear_tag(Reg::int(3));
        let v = rf.read(Reg::int(3));
        assert!(!v.tag);
        assert_eq!(v.data, 99);
    }

    #[test]
    fn tagged_regs_lists_both_banks() {
        let mut rf = RegFile::new(4, 4);
        rf.write(Reg::int(1), TaggedValue::excepting(InsnId(0)));
        rf.write(Reg::fp(2), TaggedValue::excepting(InsnId(1)));
        assert_eq!(rf.tagged_regs(), vec![Reg::int(1), Reg::fp(2)]);
    }

    #[test]
    fn journal_records_tag_transitions() {
        let mut rf = RegFile::new(4, 4);
        rf.set_journal(true);
        rf.write(Reg::int(1), TaggedValue::excepting(InsnId(9)));
        rf.write_clean(Reg::int(1), 5);
        rf.write_clean(Reg::int(2), 7); // clean over clean: not journaled
        assert_eq!(
            rf.take_journal(),
            vec![
                RegEvent::TagWrite {
                    reg: Reg::int(1),
                    pc: InsnId(9)
                },
                RegEvent::TagClear { reg: Reg::int(1) },
            ]
        );
        assert!(rf.take_journal().is_empty(), "take_journal drains");
        rf.set_journal(false);
        rf.write(Reg::int(3), TaggedValue::excepting(InsnId(1)));
        assert!(
            rf.take_journal().is_empty(),
            "disabled journal records nothing"
        );
    }

    #[test]
    fn negative_i64_roundtrip() {
        let v = TaggedValue::clean((-5i64) as u64);
        assert_eq!(v.as_i64(), -5);
    }
}
