//! Machine-description files.
//!
//! Paper §5.1: "The instruction scheduler takes as an input a machine
//! description file that characterizes the instruction set, the
//! microarchitecture (including the number of instructions that can be
//! fetched/issued in a cycle and the instruction latencies), and the code
//! scheduling model." This module provides that file format:
//!
//! ```text
//! # the paper's machine at issue 8
//! issue_width        8
//! branches_per_cycle 1
//! int_regs           64
//! fp_regs            64
//! store_buffer       8
//! latency int-alu    1
//! latency mem-load   2
//! …
//! ```
//!
//! Unspecified fields keep the paper's defaults; `print_mdes` emits a
//! complete, re-parseable description.

use std::fmt::Write as _;

use crate::{LatencyTable, MachineDesc, OpClass};

/// All operation classes, in Table 3 order.
pub const OP_CLASSES: [OpClass; 10] = [
    OpClass::IntAlu,
    OpClass::IntMul,
    OpClass::IntDiv,
    OpClass::Branch,
    OpClass::MemLoad,
    OpClass::MemStore,
    OpClass::FpAlu,
    OpClass::FpCvt,
    OpClass::FpMul,
    OpClass::FpDiv,
];

/// A machine-description parse error with its 1-based line number.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MdesParseError {
    /// 1-based line.
    pub line: usize,
    /// What went wrong.
    pub message: String,
}

impl std::fmt::Display for MdesParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for MdesParseError {}

fn err(line: usize, message: impl Into<String>) -> MdesParseError {
    MdesParseError {
        line,
        message: message.into(),
    }
}

fn parse_class(s: &str, line: usize) -> Result<OpClass, MdesParseError> {
    OP_CLASSES
        .iter()
        .copied()
        .find(|c| c.to_string() == s)
        .ok_or_else(|| err(line, format!("unknown operation class '{s}'")))
}

/// Parses a machine description, starting from the paper's defaults.
///
/// # Errors
///
/// See [`MdesParseError`].
///
/// # Examples
///
/// ```
/// use sentinel_isa::mdes_file::parse_mdes;
/// use sentinel_isa::Opcode;
///
/// let m = parse_mdes("issue_width 4\nlatency mem-load 3\n")?;
/// assert_eq!(m.issue_width(), 4);
/// assert_eq!(m.latency(Opcode::LdW), 3);
/// # Ok::<(), sentinel_isa::mdes_file::MdesParseError>(())
/// ```
pub fn parse_mdes(text: &str) -> Result<MachineDesc, MdesParseError> {
    let mut issue = 8usize;
    let mut branches = 1usize;
    let mut int_regs = 64usize;
    let mut fp_regs = 64usize;
    let mut store_buffer = 8usize;
    let mut latencies = LatencyTable::paper();

    for (lineno, raw) in text.lines().enumerate() {
        let line = lineno + 1;
        let code = raw.split('#').next().unwrap_or("").trim();
        if code.is_empty() {
            continue;
        }
        let mut parts = code.split_whitespace();
        let key = parts.next().unwrap();
        let parse_usize = |tok: Option<&str>, max: usize| -> Result<usize, MdesParseError> {
            let tok = tok.ok_or_else(|| err(line, format!("'{key}' needs a value")))?;
            let v: usize = tok
                .parse()
                .map_err(|_| err(line, format!("bad value '{tok}'")))?;
            if v > max {
                return Err(err(line, format!("'{key}' {v} exceeds the limit of {max}")));
            }
            Ok(v)
        };
        match key {
            "issue_width" => issue = parse_usize(parts.next(), usize::MAX)?,
            "branches_per_cycle" => branches = parse_usize(parts.next(), usize::MAX)?,
            "int_regs" => int_regs = parse_usize(parts.next(), MachineDesc::MAX_REGS)?,
            "fp_regs" => fp_regs = parse_usize(parts.next(), MachineDesc::MAX_REGS)?,
            "store_buffer" => {
                store_buffer = parse_usize(parts.next(), MachineDesc::MAX_STORE_BUFFER)?;
            }
            "latency" => {
                let class_tok = parts
                    .next()
                    .ok_or_else(|| err(line, "'latency' needs a class and a value"))?;
                let class = parse_class(class_tok, line)?;
                let v = parse_usize(parts.next(), u32::MAX as usize)?;
                if v == 0 {
                    return Err(err(line, "latency must be at least 1"));
                }
                latencies = latencies.with(class, v as u32);
            }
            other => return Err(err(line, format!("unknown key '{other}'"))),
        }
        if let Some(extra) = parts.next() {
            return Err(err(line, format!("unexpected trailing token '{extra}'")));
        }
    }
    if issue == 0 || branches == 0 || int_regs == 0 || fp_regs == 0 || store_buffer == 0 {
        return Err(err(0, "all machine parameters must be positive"));
    }
    Ok(MachineDesc::builder()
        .issue_width(issue)
        .branches_per_cycle(branches)
        .int_regs(int_regs)
        .fp_regs(fp_regs)
        .store_buffer_size(store_buffer)
        .latencies(latencies)
        .build())
}

/// Prints a complete machine description (re-parseable).
pub fn print_mdes(m: &MachineDesc) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "issue_width {}", m.issue_width());
    let _ = writeln!(out, "branches_per_cycle {}", m.branches_per_cycle());
    let _ = writeln!(out, "int_regs {}", m.int_regs());
    let _ = writeln!(out, "fp_regs {}", m.fp_regs());
    let _ = writeln!(out, "store_buffer {}", m.store_buffer_size());
    for class in OP_CLASSES {
        let _ = writeln!(out, "latency {} {}", class, m.latencies().of(class));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Opcode;

    #[test]
    fn empty_text_gives_paper_machine() {
        let m = parse_mdes("").unwrap();
        assert_eq!(m, MachineDesc::paper_issue(8));
    }

    #[test]
    fn overrides_apply() {
        let m =
            parse_mdes("# custom\nissue_width 2\nstore_buffer 4\nlatency mem-load 5\n").unwrap();
        assert_eq!(m.issue_width(), 2);
        assert_eq!(m.store_buffer_size(), 4);
        assert_eq!(m.latency(Opcode::LdW), 5);
        assert_eq!(m.latency(Opcode::FDiv), 10, "defaults kept");
    }

    #[test]
    fn roundtrip_print_parse() {
        let m = MachineDesc::builder()
            .issue_width(4)
            .branches_per_cycle(2)
            .int_regs(32)
            .fp_regs(16)
            .store_buffer_size(12)
            .latencies(LatencyTable::paper().with(OpClass::FpMul, 7))
            .build();
        let text = print_mdes(&m);
        let back = parse_mdes(&text).unwrap();
        assert_eq!(back, m);
    }

    #[test]
    fn errors_carry_line_numbers() {
        let e = parse_mdes("issue_width 4\nfrobnicate 9\n").unwrap_err();
        assert_eq!(e.line, 2);
        assert!(e.message.contains("frobnicate"));
        let e = parse_mdes("latency warp-drive 3\n").unwrap_err();
        assert!(e.message.contains("warp-drive"));
        let e = parse_mdes("latency int-alu 0\n").unwrap_err();
        assert!(e.message.contains("at least 1"));
        let e = parse_mdes("issue_width 4 5\n").unwrap_err();
        assert!(e.message.contains("trailing"));
        let e = parse_mdes("issue_width\n").unwrap_err();
        assert!(e.message.contains("needs a value"));
    }

    #[test]
    fn comments_and_blanks_ignored() {
        let m = parse_mdes("\n# full comment\nissue_width 16 # trailing comment\n\n").unwrap();
        assert_eq!(m.issue_width(), 16);
    }
}
