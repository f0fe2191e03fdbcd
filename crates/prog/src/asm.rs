//! Textual assembly: a parser and printer that round-trip [`Function`]s.
//!
//! The format is line-oriented:
//!
//! ```text
//! func @dot {
//! entry:
//!     li r1, 0
//!     fld f1, 0(r2)      # comment
//!     fadd.s f3, f1, f1  # ".s" marks the speculative modifier
//!     beq r1, r0, exit
//! exit:
//!     halt
//! }
//! ```
//!
//! Branch targets are block labels; the parser resolves forward references.
//!
//! An integer immediate is an optional `-`, then either `0x` and hex
//! digits or decimal digits, and must fit in an `i64` ([`parse_imm`]).
//! The printer writes immediates in decimal, so every printed value,
//! `i64::MIN` included, parses back to itself.

use std::collections::HashMap;
use std::fmt::Write as _;

use sentinel_isa::{BlockId, Insn, Opcode, Reg};

use crate::validate::{signature, Req};
use crate::Function;

/// An assembly parse error with its 1-based line number.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// 1-based source line.
    pub line: usize,
    /// Human-readable description.
    pub message: String,
}

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for ParseError {}

fn err(line: usize, message: impl Into<String>) -> ParseError {
    ParseError {
        line,
        message: message.into(),
    }
}

/// Prints a function in parseable assembly form.
///
/// Unlike [`Function`]'s `Display` (which shows raw block ids), the printer
/// emits label names for branch targets so the output can be re-parsed.
pub fn print(func: &Function) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "func @{} {{", func.name());
    if !func.noalias_bases().is_empty() {
        let regs: Vec<String> = func.noalias_bases().iter().map(|r| r.to_string()).collect();
        let _ = writeln!(out, ".noalias {}", regs.join(", "));
    }
    for b in func.blocks_in_layout() {
        let _ = writeln!(out, "{}:", b.label);
        for insn in &b.insns {
            let _ = writeln!(out, "    {}", print_insn(func, insn));
        }
    }
    let _ = writeln!(out, "}}");
    out
}

/// Prints one instruction with label targets.
pub fn print_insn(func: &Function, insn: &Insn) -> String {
    match insn.target {
        None => insn.to_string(),
        Some(t) => {
            let label = &func.block(t).label;
            let rendered = insn.to_string();
            // The Display form ends with the raw block id; swap it for the label.
            match rendered.rfind(&t.to_string()) {
                Some(pos) if pos + t.to_string().len() == rendered.len() => {
                    format!("{}{}", &rendered[..pos], label)
                }
                _ => rendered,
            }
        }
    }
}

/// Parses a register name such as `r4` or `f12`, or `None` if `tok` is
/// not one.
pub fn parse_reg(tok: &str) -> Option<Reg> {
    match tok.strip_prefix('r') {
        Some(index) => index.parse().ok().map(Reg::int),
        None => tok.strip_prefix('f')?.parse().ok().map(Reg::fp),
    }
}

/// [`parse_reg`] with a line-numbered error.
fn reg_at(tok: &str, line: usize) -> Result<Reg, ParseError> {
    parse_reg(tok).ok_or_else(|| err(line, format!("bad register '{tok}'")))
}

/// Parses an integer immediate in the module's grammar: an optional
/// `-`, then `0x` and hex digits or decimal digits, within `i64`. `None`
/// for anything else, such as `+7`, `--5` or `0x-5`.
pub fn parse_imm(tok: &str) -> Option<i64> {
    let (neg, body) = match tok.strip_prefix('-') {
        Some(b) => (true, b),
        None => (false, tok),
    };
    let (digits, radix) = match body.strip_prefix("0x") {
        Some(hex) => (hex, 16),
        None => (body, 10),
    };
    if !digits.chars().all(|c| c.is_digit(radix)) {
        return None;
    }
    let magnitude = u64::from_str_radix(digits, radix).ok()?;
    if neg {
        0i64.checked_sub_unsigned(magnitude)
    } else {
        i64::try_from(magnitude).ok()
    }
}

/// [`parse_imm`] with a line-numbered error.
fn imm_at(tok: &str, line: usize) -> Result<i64, ParseError> {
    parse_imm(tok).ok_or_else(|| err(line, format!("bad immediate '{tok}'")))
}

/// `imm(base)` memory operand.
fn parse_mem_operand(tok: &str, line: usize) -> Result<(i64, Reg), ParseError> {
    let open = tok
        .find('(')
        .ok_or_else(|| err(line, format!("bad memory operand '{tok}'")))?;
    if !tok.ends_with(')') {
        return Err(err(line, format!("bad memory operand '{tok}'")));
    }
    let imm = imm_at(&tok[..open], line)?;
    let base = reg_at(&tok[open + 1..tok.len() - 1], line)?;
    Ok((imm, base))
}

/// Whether an opcode's textual form carries an immediate operand.
fn has_imm(op: Opcode) -> bool {
    use Opcode::*;
    matches!(
        op,
        Li | FLi | AddI | AndI | OrI | XorI | SllI | SrlI | SltI | ConfirmStore
    ) || op.is_mem()
}

/// Parses a whole assembly module into a [`Function`].
///
/// # Errors
///
/// Returns the first [`ParseError`] encountered: malformed header, unknown
/// mnemonic, malformed operand, instruction outside a block, or an
/// unresolved label.
///
/// # Examples
///
/// ```
/// use sentinel_prog::asm;
///
/// let f = asm::parse("func @t {\nentry:\n    li r1, 42\n    halt\n}\n")?;
/// assert_eq!(f.insn_count(), 2);
/// assert_eq!(asm::parse(&asm::print(&f))?.insn_count(), 2); // round-trips
/// # Ok::<(), asm::ParseError>(())
/// ```
pub fn parse(text: &str) -> Result<Function, ParseError> {
    let mnemonics: HashMap<&'static str, Opcode> = Opcode::all()
        .iter()
        .map(|op| (op.mnemonic(), *op))
        .collect();

    let mut func: Option<Function> = None;
    let mut current: Option<BlockId> = None;
    let mut labels: HashMap<String, BlockId> = HashMap::new();
    // (block, position-in-block, label, line) fixups for forward targets.
    let mut fixups: Vec<(BlockId, usize, String, usize)> = Vec::new();
    let mut closed = false;

    for (lineno, raw) in text.lines().enumerate() {
        let line = lineno + 1;
        let code = raw.split('#').next().unwrap_or("").trim();
        if code.is_empty() {
            continue;
        }
        if closed {
            return Err(err(line, "text after closing '}'"));
        }
        if let Some(rest) = code.strip_prefix("func") {
            if func.is_some() {
                return Err(err(line, "duplicate func header"));
            }
            let rest = rest.trim();
            let name = rest
                .strip_prefix('@')
                .and_then(|r| r.strip_suffix('{'))
                .map(str::trim)
                .ok_or_else(|| err(line, "expected 'func @name {'"))?;
            func = Some(Function::new(name));
            continue;
        }
        let f = func
            .as_mut()
            .ok_or_else(|| err(line, "expected 'func @name {' header"))?;
        if code == "}" {
            closed = true;
            continue;
        }
        if let Some(rest) = code.strip_prefix(".noalias") {
            for tok in rest.split(',').map(str::trim).filter(|s| !s.is_empty()) {
                let reg = reg_at(tok, line)?;
                f.declare_noalias(reg);
            }
            continue;
        }
        if let Some(label) = code.strip_suffix(':') {
            let label = label.trim();
            if labels.contains_key(label) {
                return Err(err(line, format!("duplicate label '{label}'")));
            }
            let id = f.add_block(label);
            labels.insert(label.to_string(), id);
            current = Some(id);
            continue;
        }

        // An instruction line.
        let block = current.ok_or_else(|| err(line, "instruction before any label"))?;
        let mut parts = code.splitn(2, char::is_whitespace);
        let mnemonic_tok = parts.next().unwrap();
        let operands: Vec<String> = parts
            .next()
            .unwrap_or("")
            .split(',')
            .map(|s| s.trim().to_string())
            .filter(|s| !s.is_empty())
            .collect();
        let (base_mnemonic, speculative, boost) = if let Some(b) = mnemonic_tok.strip_suffix(".s") {
            (b, true, 0u8)
        } else if let Some(dot) = mnemonic_tok.rfind(".b") {
            match mnemonic_tok[dot + 2..].parse::<u8>() {
                Ok(k) if k > 0 => (&mnemonic_tok[..dot], false, k),
                _ => (mnemonic_tok, false, 0),
            }
        } else {
            (mnemonic_tok, false, 0)
        };
        let op = *mnemonics
            .get(base_mnemonic)
            .ok_or_else(|| err(line, format!("unknown mnemonic '{base_mnemonic}'")))?;

        let insn = parse_operands(op, &operands, line, block, f, &labels, &mut fixups)?;
        let mut insn = insn;
        insn.speculative = speculative;
        insn.boost = boost;
        f.push_insn(block, insn);
    }

    let mut f = func.ok_or_else(|| err(text.lines().count(), "missing 'func' header"))?;
    if !closed {
        return Err(err(text.lines().count(), "missing closing '}'"));
    }
    for (block, pos, label, line) in fixups {
        let target = *labels
            .get(&label)
            .ok_or_else(|| err(line, format!("undefined label '{label}'")))?;
        f.block_mut(block).insns[pos].target = Some(target);
    }
    Ok(f)
}

/// Builds an instruction from its operand tokens, using the opcode
/// signature to decide the textual form.
#[allow(clippy::too_many_arguments)]
fn parse_operands(
    op: Opcode,
    operands: &[String],
    line: usize,
    block: BlockId,
    f: &Function,
    labels: &HashMap<String, BlockId>,
    fixups: &mut Vec<(BlockId, usize, String, usize)>,
) -> Result<Insn, ParseError> {
    use Opcode::*;
    let (dreq, s1req, s2req, needs_target) = signature(op);
    let mut insn = Insn::new(op);
    let mut idx = 0;
    let mut next = |line: usize| -> Result<&String, ParseError> {
        let tok = operands
            .get(idx)
            .ok_or_else(|| err(line, format!("missing operand {} for '{op}'", idx + 1)))?;
        idx += 1;
        Ok(tok)
    };

    if op.is_mem() {
        // `mnemonic reg, imm(base)`.
        let reg = reg_at(next(line)?, line)?;
        let (imm, base) = parse_mem_operand(next(line)?, line)?;
        if op.is_load() {
            insn.dest = Some(reg);
        } else {
            insn.src1 = Some(reg);
        }
        insn.src2 = Some(base);
        insn.imm = imm;
    } else {
        if op == CheckExcept {
            // `check rs` — single visible operand; dest is implicit r0.
            insn.dest = Some(Reg::ZERO);
            insn.src1 = Some(reg_at(next(line)?, line)?);
        } else {
            if dreq != Req::None {
                insn.dest = Some(reg_at(next(line)?, line)?);
            }
            if s1req != Req::None {
                insn.src1 = Some(reg_at(next(line)?, line)?);
            }
            if s2req != Req::None {
                insn.src2 = Some(reg_at(next(line)?, line)?);
            }
        }
        if has_imm(op) {
            if op == FLi {
                let tok = next(line)?;
                let v: f64 = tok
                    .parse()
                    .map_err(|_| err(line, format!("bad float immediate '{tok}'")))?;
                insn.imm = v.to_bits() as i64;
            } else {
                insn.imm = imm_at(next(line)?, line)?;
            }
        }
        if needs_target {
            let label = next(line)?.clone();
            if let Some(&t) = labels.get(&label) {
                insn.target = Some(t);
            } else {
                // Forward reference: fix up after all labels are known.
                // Position = current block length (this insn is appended next).
                fixups.push((block, f.block(block).insns.len(), label, line));
                insn.target = Some(BlockId(0)); // placeholder
            }
        }
    }
    if idx != operands.len() {
        return Err(err(
            line,
            format!("too many operands for '{op}' (got {})", operands.len()),
        ));
    }
    Ok(insn)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::validate;

    const SAMPLE: &str = r#"
func @sample {
entry:
    li r1, 10
    fli f1, 2.5
    ld r2, 0(r1)        # a load
    fadd f2, f1, f1
    addi r3, r2, 4
    beq r3, r0, exit
    st r3, 8(r1)
    check r2
    confirm 0
    clrtag r4
body:
    ld.s r5, 0(r3)
    jump entry
exit:
    halt
}
"#;

    #[test]
    fn parse_then_validate() {
        let f = parse(SAMPLE).expect("parse");
        assert_eq!(f.name(), "sample");
        assert_eq!(f.block_count(), 3);
        assert!(validate(&f).is_empty(), "{:?}", validate(&f));
        // Speculative marker parsed.
        let body = f.block_by_label("body").unwrap();
        assert!(f.block(body).insns[0].speculative);
        // Forward reference resolved.
        let entry = f.block_by_label("entry").unwrap();
        let exit = f.block_by_label("exit").unwrap();
        assert_eq!(f.block(entry).insns[5].target, Some(exit));
    }

    #[test]
    fn roundtrip_print_parse() {
        let f1 = parse(SAMPLE).unwrap();
        let text = print(&f1);
        let f2 = parse(&text).expect("reparse printed text");
        assert_eq!(print(&f2), text, "print∘parse must be a fixpoint");
        assert_eq!(f1.insn_count(), f2.insn_count());
    }

    #[test]
    fn tag_spills_and_conversions_roundtrip() {
        let text = "func @f {\ne:\n    st.tag r1, 0(r2)\n    ld.tag f3, 8(r2)\n    cvt.if f1, r4\n    cvt.fi r5, f1\n    halt\n}\n";
        let f = parse(text).unwrap();
        assert!(crate::validate(&f).is_empty(), "{:?}", crate::validate(&f));
        let printed = print(&f);
        assert!(printed.contains("st.tag r1, 0(r2)"));
        assert!(printed.contains("ld.tag f3, 8(r2)"));
        assert_eq!(print(&parse(&printed).unwrap()), printed);
    }

    #[test]
    fn hex_immediates_parse() {
        let f = parse(
            "func @f {\ne:\n    li r1, 0x1000\n    li r2, -0x8\n    ld r3, 0x10(r1)\n    halt\n}\n",
        )
        .unwrap();
        let insns = &f.block(f.entry()).insns;
        assert_eq!(insns[0].imm, 0x1000);
        assert_eq!(insns[1].imm, -8);
        assert_eq!(insns[2].imm, 16);
    }

    #[test]
    fn i64_bounds_roundtrip() {
        let text = "func @f {\ne:\n    li r1, -9223372036854775808\n    li r2, 9223372036854775807\n    st r1, -9223372036854775808(r2)\n    halt\n}\n";
        let f = parse(text).unwrap();
        let insns = &f.block(f.entry()).insns;
        assert_eq!(insns[0].imm, i64::MIN);
        assert_eq!(insns[1].imm, i64::MAX);
        assert_eq!(insns[2].imm, i64::MIN);
        assert_eq!(print(&f), text, "print∘parse must be a fixpoint");
        assert_eq!(parse_imm("-0x8000000000000000"), Some(i64::MIN));
    }

    #[test]
    fn error_bad_immediate() {
        for tok in [
            "--5",
            "+7",
            "0x-5",
            "0x+5",
            "--9223372036854775808",
            "9223372036854775808",
            "-9223372036854775809",
            "0x",
            "-",
            "1_000",
        ] {
            for (text, line) in [
                (format!("func @f {{\ne:\n    li r1, {tok}\n}}\n"), 3),
                (
                    format!("func @f {{\ne:\n    nop\n    ld r1, {tok}(r2)\n}}\n"),
                    4,
                ),
            ] {
                let e = parse(&text).unwrap_err();
                assert_eq!(e.line, line, "{text}");
                assert_eq!(e.message, format!("bad immediate '{tok}'"), "{text}");
            }
        }
    }

    #[test]
    fn float_immediates_roundtrip() {
        let f = parse("func @f {\nentry:\n    fli f1, -0.125\n    halt\n}\n").unwrap();
        assert_eq!(f.block(f.entry()).insns[0].fimm(), -0.125);
    }

    #[test]
    fn error_unknown_mnemonic() {
        let e = parse("func @f {\nentry:\n    frobnicate r1\n}\n").unwrap_err();
        assert_eq!(e.line, 3);
        assert!(e.message.contains("frobnicate"));
    }

    #[test]
    fn error_undefined_label() {
        let e = parse("func @f {\nentry:\n    jump nowhere\n}\n").unwrap_err();
        assert!(e.message.contains("nowhere"));
    }

    #[test]
    fn error_instruction_before_label() {
        let e = parse("func @f {\n    nop\n}\n").unwrap_err();
        assert!(e.message.contains("before any label"));
    }

    #[test]
    fn error_missing_and_extra_operands() {
        let e = parse("func @f {\nentry:\n    add r1, r2\n}\n").unwrap_err();
        assert!(e.message.contains("missing operand"));
        let e = parse("func @f {\nentry:\n    nop r1\n}\n").unwrap_err();
        assert!(e.message.contains("too many operands"));
    }

    #[test]
    fn error_bad_register() {
        for (text, line, tok) in [
            ("func @f {\ne:\n    ld r1, 0()\n}\n", 3, ""),
            ("func @f {\ne:\n    add é1, r2, r3\n}\n", 3, "é1"),
            ("func @f {\n.noalias é\ne:\n    halt\n}\n", 2, "é"),
            ("func @f {\ne:\n    mov x1, r2\n}\n", 3, "x1"),
        ] {
            let e = parse(text).unwrap_err();
            assert_eq!(e.line, line, "{text}");
            assert_eq!(e.message, format!("bad register '{tok}'"), "{text}");
        }
    }

    #[test]
    fn error_duplicate_label() {
        let e = parse("func @f {\na:\n    nop\na:\n    halt\n}\n").unwrap_err();
        assert!(e.message.contains("duplicate label"));
    }

    #[test]
    fn error_missing_header_or_close() {
        assert!(parse("entry:\n    nop\n").is_err());
        assert!(parse("func @f {\nentry:\n    nop\n").is_err());
    }

    #[test]
    fn comments_and_blank_lines_ignored() {
        let f = parse("# leading\nfunc @f {\n\nentry:  # block\n    nop # trailing\n}\n").unwrap();
        assert_eq!(f.insn_count(), 1);
    }

    #[test]
    fn boost_suffix_roundtrips() {
        let text = "func @f {\ne:\n    ld.b2 r1, 0(r2)\n    add.b1 r3, r1, r1\n    halt\n}\n";
        let f = parse(text).unwrap();
        let insns = &f.block(f.entry()).insns;
        assert_eq!(insns[0].boost, 2);
        assert_eq!(insns[1].boost, 1);
        assert!(!insns[0].speculative);
        let printed = print(&f);
        assert!(printed.contains("ld.b2"));
        assert_eq!(print(&parse(&printed).unwrap()), printed);
    }

    #[test]
    fn noalias_directive_roundtrips() {
        let text = "func @f {\n.noalias r10, r11\ne:\n    halt\n}\n";
        let f = parse(text).unwrap();
        assert!(f.noalias_bases().contains(&Reg::int(10)));
        assert!(f.noalias_bases().contains(&Reg::int(11)));
        let printed = print(&f);
        assert!(printed.contains(".noalias r10, r11"));
        let back = parse(&printed).unwrap();
        assert_eq!(back.noalias_bases(), f.noalias_bases());
    }

    #[test]
    fn memory_operand_forms() {
        let f =
            parse("func @f {\ne:\n    st r1, -16(r2)\n    fld f3, 24(r4)\n    halt\n}\n").unwrap();
        let insns = &f.block(f.entry()).insns;
        assert_eq!(insns[0].imm, -16);
        assert_eq!(insns[1].imm, 24);
        assert_eq!(insns[1].dest, Some(Reg::fp(3)));
    }
}
