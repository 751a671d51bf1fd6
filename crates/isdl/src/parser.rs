//! Parser for the textual machine-description format.
//!
//! The format captures the subset of ISDL the AVIV back end consumes
//! (paper §II): per-unit operation lists (the RTL→SUIF-op correlation),
//! storage, explicit transfer paths, constraints, and complex instructions.
//!
//! ```text
//! machine Example {
//!     unit U1 { ops { add, sub, compl } regfile RF1[4]; }
//!     unit U2 { ops { add, sub, mul }   regfile RF2[4]; }
//!     unit U3 { ops { add, mul }        regfile RF3[4]; }
//!     memory DM;
//!     bus DB capacity 1 connects { RF1, RF2, RF3, DM };
//!     constraint forbid { U2.mul, U3.mul };
//!     constraint at_most 2 { U1.*, U2.*, U3.* };
//!     complex mac on U2 { add(mul(a, b), c) };
//! }
//! ```

use crate::model::{
    BankId, Bus, BusId, ComplexInstr, Constraint, Location, Machine, OpCap, PatTree, RegBank,
    SlotPattern, Unit, UnitId,
};
use crate::rules::Element;
use aviv_ir::Op;
use std::collections::HashMap;
use std::error::Error;
use std::fmt;

/// Error from [`parse_machine`], with 1-based position.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct IsdlError {
    /// Message.
    pub msg: String,
    /// 1-based line.
    pub line: u32,
    /// 1-based column.
    pub col: u32,
}

impl fmt::Display for IsdlError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "ISDL error at {}:{}: {}", self.line, self.col, self.msg)
    }
}

impl Error for IsdlError {}

#[derive(Debug, Clone, PartialEq)]
enum Tok {
    Ident(String),
    Num(u32),
    Punct(char),
    Eof,
}

struct Lx<'a> {
    src: &'a [u8],
    pos: usize,
    line: u32,
    col: u32,
    /// Where the last token lexed starts.
    start: Pos,
}

/// A 1-based (line, column) source position.
type Pos = (u32, u32);

impl<'a> Lx<'a> {
    fn new(s: &'a str) -> Self {
        Lx {
            src: s.as_bytes(),
            pos: 0,
            line: 1,
            col: 1,
            start: (1, 1),
        }
    }

    fn err(&self, msg: impl Into<String>) -> IsdlError {
        IsdlError {
            msg: msg.into(),
            line: self.line,
            col: self.col,
        }
    }

    fn bump(&mut self) -> Option<u8> {
        let c = self.src.get(self.pos).copied()?;
        self.pos += 1;
        if c == b'\n' {
            self.line += 1;
            self.col = 1;
        } else {
            self.col += 1;
        }
        Some(c)
    }

    fn peek(&self) -> Option<u8> {
        self.src.get(self.pos).copied()
    }

    fn next_tok(&mut self) -> Result<Tok, IsdlError> {
        loop {
            match self.peek() {
                Some(c) if c.is_ascii_whitespace() => {
                    self.bump();
                }
                Some(b'/') if self.src.get(self.pos + 1) == Some(&b'/') => {
                    while let Some(c) = self.peek() {
                        if c == b'\n' {
                            break;
                        }
                        self.bump();
                    }
                }
                _ => break,
            }
        }
        self.start = (self.line, self.col);
        let Some(c) = self.peek() else {
            return Ok(Tok::Eof);
        };
        if c.is_ascii_alphabetic() || c == b'_' {
            let start = self.pos;
            while self
                .peek()
                .is_some_and(|c| c.is_ascii_alphanumeric() || c == b'_')
            {
                self.bump();
            }
            Ok(Tok::Ident(
                String::from_utf8_lossy(&self.src[start..self.pos]).into_owned(),
            ))
        } else if c.is_ascii_digit() {
            let start = self.pos;
            while self.peek().is_some_and(|c| c.is_ascii_digit()) {
                self.bump();
            }
            let text = std::str::from_utf8(&self.src[start..self.pos]).unwrap();
            text.parse()
                .map(Tok::Num)
                .map_err(|_| self.err(format!("number out of range: {text}")))
        } else if "{}[]();,.*".contains(c as char) {
            self.bump();
            Ok(Tok::Punct(c as char))
        } else {
            Err(self.err(format!("unexpected character {:?}", c as char)))
        }
    }
}

struct P<'a> {
    lx: Lx<'a>,
    tok: Tok,
    /// Where `tok` starts.
    at: Pos,
}

impl<'a> P<'a> {
    fn new(s: &'a str) -> Result<Self, IsdlError> {
        let mut lx = Lx::new(s);
        let tok = lx.next_tok()?;
        Ok(P {
            at: lx.start,
            lx,
            tok,
        })
    }

    fn err(&self, msg: impl Into<String>) -> IsdlError {
        self.lx.err(msg)
    }

    fn advance(&mut self) -> Result<Tok, IsdlError> {
        let next = self.lx.next_tok()?;
        self.at = self.lx.start;
        Ok(std::mem::replace(&mut self.tok, next))
    }

    fn expect_ident(&mut self) -> Result<String, IsdlError> {
        match self.advance()? {
            Tok::Ident(s) => Ok(s),
            t => Err(self.err(format!("expected identifier, found {t:?}"))),
        }
    }

    fn expect_kw(&mut self, kw: &str) -> Result<(), IsdlError> {
        let got = self.expect_ident()?;
        if got == kw {
            Ok(())
        } else {
            Err(self.err(format!("expected `{kw}`, found `{got}`")))
        }
    }

    fn expect_num(&mut self) -> Result<u32, IsdlError> {
        match self.advance()? {
            Tok::Num(n) => Ok(n),
            t => Err(self.err(format!("expected number, found {t:?}"))),
        }
    }

    fn expect_punct(&mut self, p: char) -> Result<(), IsdlError> {
        match self.advance()? {
            Tok::Punct(q) if q == p => Ok(()),
            t => Err(self.err(format!("expected `{p}`, found {t:?}"))),
        }
    }

    fn eat_punct(&mut self, p: char) -> Result<bool, IsdlError> {
        if self.tok == Tok::Punct(p) {
            self.advance()?;
            Ok(true)
        } else {
            Ok(false)
        }
    }
}

/// Parse a machine description and judge it by the machine rules
/// ([`Machine::findings`]).
///
/// # Errors
///
/// Returns an [`IsdlError`] for lexical and syntax problems, or for the
/// first error finding, rendered as `CODE element: message` at the
/// element's declaration.
pub fn parse_machine(src: &str) -> Result<Machine, IsdlError> {
    let (machine, spans) = parse_parts(src)?;
    let Some(f) = machine.refusal() else {
        return Ok(machine);
    };
    let &(_, (line, col)) = spans
        .iter()
        .find(|(e, _)| *e == f.element)
        .expect("every element is declared");
    Err(IsdlError {
        msg: f.render(&machine),
        line,
        col,
    })
}

/// Parse a machine description without judging it: the first step of
/// [`parse_machine`], for the lint. Compile only machines without `E`
/// findings.
///
/// # Errors
///
/// Returns an [`IsdlError`] for lexical and syntax problems.
pub fn parse_machine_unchecked(src: &str) -> Result<Machine, IsdlError> {
    parse_parts(src).map(|(machine, _)| machine)
}

/// The unchecked parse, and where each element is declared.
fn parse_parts(src: &str) -> Result<(Machine, Vec<(Element, Pos)>), IsdlError> {
    let mut p = P::new(src)?;
    let mut spans = vec![(Element::Machine, p.at)];
    p.expect_kw("machine")?;
    let name = p.expect_ident()?;
    p.expect_punct('{')?;

    let mut units: Vec<Unit> = Vec::new();
    let mut banks: Vec<RegBank> = Vec::new();
    let mut buses: Vec<Bus> = Vec::new();
    let mut constraints: Vec<Constraint> = Vec::new();
    let mut complexes: Vec<ComplexInstr> = Vec::new();
    let mut bank_names: HashMap<String, BankId> = HashMap::new();
    let mut unit_names: HashMap<String, UnitId> = HashMap::new();
    let mut memory_name: Option<String> = None;

    loop {
        if p.eat_punct('}')? {
            break;
        }
        let at = p.at;
        let kw = p.expect_ident()?;
        match kw.as_str() {
            "unit" => {
                let uname = p.expect_ident()?;
                p.expect_punct('{')?;
                p.expect_kw("ops")?;
                p.expect_punct('{')?;
                let mut ops = Vec::new();
                while !p.eat_punct('}')? {
                    if !ops.is_empty() {
                        p.expect_punct(',')?;
                    }
                    let opname = p.expect_ident()?;
                    let op = Op::from_mnemonic(&opname)
                        .ok_or_else(|| p.err(format!("unknown operation `{opname}`")))?;
                    ops.push(OpCap { op, cost: 1 });
                }
                spans.push((Element::Bank(BankId(banks.len() as u32)), p.at));
                p.expect_kw("regfile")?;
                let bname = p.expect_ident()?;
                p.expect_punct('[')?;
                let size = p.expect_num()?;
                p.expect_punct(']')?;
                p.expect_punct(';')?;
                p.expect_punct('}')?;
                let bank = BankId(banks.len() as u32);
                if bank_names.insert(bname.clone(), bank).is_some() {
                    return Err(p.err(format!("duplicate regfile `{bname}`")));
                }
                banks.push(RegBank { name: bname, size });
                // A second unit of the same name is the duplicate-unit
                // rule's to refuse; names resolve to the first.
                let uid = UnitId(units.len() as u32);
                unit_names.entry(uname.clone()).or_insert(uid);
                spans.push((Element::Unit(uid), at));
                units.push(Unit {
                    name: uname,
                    ops,
                    bank,
                });
            }
            "memory" => {
                let mname = p.expect_ident()?;
                p.expect_punct(';')?;
                if memory_name.replace(mname).is_some() {
                    return Err(p.err("multiple memories are not supported"));
                }
            }
            "bus" => {
                let bname = p.expect_ident()?;
                p.expect_kw("capacity")?;
                let capacity = p.expect_num()?;
                p.expect_kw("connects")?;
                p.expect_punct('{')?;
                let mut endpoints = Vec::new();
                loop {
                    let ep = p.expect_ident()?;
                    let loc = if Some(&ep) == memory_name.as_ref() {
                        Location::Mem
                    } else if let Some(&b) = bank_names.get(&ep) {
                        Location::Bank(b)
                    } else {
                        return Err(p.err(format!("unknown storage `{ep}`")));
                    };
                    endpoints.push(loc);
                    if p.eat_punct('}')? {
                        break;
                    }
                    p.expect_punct(',')?;
                }
                p.expect_punct(';')?;
                spans.push((Element::Bus(BusId(buses.len() as u32)), at));
                buses.push(Bus {
                    name: bname,
                    endpoints,
                    capacity,
                });
            }
            "constraint" => {
                let kind = p.expect_ident()?;
                let at_most_val = match kind.as_str() {
                    "forbid" => None,
                    "at_most" => Some(p.expect_num()?),
                    other => {
                        return Err(
                            p.err(format!("expected `forbid` or `at_most`, found `{other}`"))
                        )
                    }
                };
                p.expect_punct('{')?;
                let mut members = Vec::new();
                loop {
                    // UNIT.op | UNIT.* | bus NAME
                    let head = p.expect_ident()?;
                    if head == "bus" {
                        let bname = p.expect_ident()?;
                        let bus = buses
                            .iter()
                            .position(|b| b.name == bname)
                            .map(|i| BusId(i as u32))
                            .ok_or_else(|| p.err(format!("unknown bus `{bname}`")))?;
                        members.push(SlotPattern::BusUse { bus });
                    } else {
                        let unit = *unit_names
                            .get(&head)
                            .ok_or_else(|| p.err(format!("unknown unit `{head}`")))?;
                        p.expect_punct('.')?;
                        let op = if p.eat_punct('*')? {
                            None
                        } else {
                            let opname = p.expect_ident()?;
                            Some(
                                Op::from_mnemonic(&opname)
                                    .ok_or_else(|| p.err(format!("unknown op `{opname}`")))?,
                            )
                        };
                        members.push(SlotPattern::UnitOp { unit, op });
                    }
                    if p.eat_punct('}')? {
                        break;
                    }
                    p.expect_punct(',')?;
                }
                p.expect_punct(';')?;
                let at_most = match at_most_val {
                    Some(k) => k,
                    None => (members.len() as u32).saturating_sub(1),
                };
                spans.push((Element::Constraint(constraints.len()), at));
                constraints.push(Constraint { at_most, members });
            }
            "complex" => {
                let cname = p.expect_ident()?;
                p.expect_kw("on")?;
                let uname = p.expect_ident()?;
                let unit = *unit_names
                    .get(&uname)
                    .ok_or_else(|| p.err(format!("unknown unit `{uname}`")))?;
                p.expect_punct('{')?;
                let mut arg_names: Vec<String> = Vec::new();
                let pattern = parse_pattern(&mut p, &mut arg_names)?;
                p.expect_punct('}')?;
                p.expect_punct(';')?;
                spans.push((Element::Complex(complexes.len()), at));
                complexes.push(ComplexInstr {
                    name: cname,
                    unit,
                    pattern,
                    cost: 1,
                });
            }
            other => return Err(p.err(format!("unknown declaration `{other}`"))),
        }
    }
    // A description is one machine: anything after its closing brace
    // would be dropped unread.
    if p.tok != Tok::Eof {
        let (line, col) = p.at;
        return Err(IsdlError {
            msg: format!(
                "expected end of input after the machine's closing `}}`, found {:?}",
                p.tok
            ),
            line,
            col,
        });
    }

    let machine = Machine {
        name,
        units,
        banks,
        buses,
        constraints,
        complexes,
    };
    Ok((machine, spans))
}

/// Parse `op(sub, sub, ...)` or an operand name into a pattern tree.
fn parse_pattern(p: &mut P<'_>, arg_names: &mut Vec<String>) -> Result<PatTree, IsdlError> {
    let head = p.expect_ident()?;
    if p.eat_punct('(')? {
        let op = Op::from_mnemonic(&head)
            .ok_or_else(|| p.err(format!("unknown operation `{head}` in pattern")))?;
        let mut subs = Vec::new();
        loop {
            subs.push(parse_pattern(p, arg_names)?);
            if p.eat_punct(')')? {
                break;
            }
            p.expect_punct(',')?;
        }
        Ok(PatTree::Op(op, subs))
    } else {
        // Operand name; repeated names share an index.
        let idx = match arg_names.iter().position(|n| n == &head) {
            Some(i) => i,
            None => {
                arg_names.push(head);
                arg_names.len() - 1
            }
        };
        Ok(PatTree::Arg(idx))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::UnitId;

    const EXAMPLE: &str = "
        machine Example {
            // the paper's Fig. 3 target
            unit U1 { ops { add, sub, compl } regfile RF1[4]; }
            unit U2 { ops { add, sub, mul }   regfile RF2[4]; }
            unit U3 { ops { add, mul }        regfile RF3[4]; }
            memory DM;
            bus DB capacity 1 connects { RF1, RF2, RF3, DM };
        }";

    /// Nothing may follow the machine: a stray declaration after the
    /// closing brace is refused by the strict and the lint parse alike,
    /// at the first token after the brace, instead of being ignored.
    #[test]
    fn input_after_the_machine_is_refused() {
        for tail in [
            " constraint at_most 0 { U3.mul, U2.mul };",
            " machine Second { }",
            " }",
        ] {
            let src = format!("{EXAMPLE}{tail}");
            for result in [
                parse_machine(&src).map(|_| ()),
                parse_machine_unchecked(&src).map(|_| ()),
            ] {
                let e = result.expect_err(tail);
                assert!(e.msg.starts_with("expected end of input"), "{tail}: {e}");
                assert_eq!(e.line, 9, "{tail}: {e}");
            }
        }
        // Trailing whitespace and comments are not input.
        assert!(parse_machine(&format!("{EXAMPLE}\n  // done\n")).is_ok());
        // Characters the lexer rejects fail at the lexer, as anywhere.
        assert!(parse_machine_unchecked(&format!("{EXAMPLE} !!")).is_err());
    }

    #[test]
    fn parses_the_example_architecture() {
        let m = parse_machine(EXAMPLE).unwrap();
        assert_eq!(m.name, "Example");
        assert_eq!(m.units().len(), 3);
        assert!(m.unit(UnitId(0)).can_do(Op::Compl));
        assert!(m.unit(UnitId(2)).can_do(Op::Mul));
        assert!(!m.unit(UnitId(2)).can_do(Op::Sub));
        assert_eq!(m.buses().len(), 1);
        assert_eq!(m.buses()[0].capacity, 1);
        assert_eq!(m.buses()[0].endpoints.len(), 4);
    }

    #[test]
    fn parses_constraints_and_complexes() {
        let src = "
        machine C {
            unit U1 { ops { add, mul } regfile R1[4]; }
            unit U2 { ops { add, mul } regfile R2[4]; }
            memory DM;
            bus DB capacity 2 connects { R1, R2, DM };
            constraint forbid { U1.mul, U2.mul };
            constraint at_most 1 { U1.*, bus DB };
            complex mac on U2 { add(mul(a, b), c) };
            complex sq on U1 { mul(x, x) };
        }";
        let m = parse_machine(src).unwrap();
        assert_eq!(m.constraints().len(), 2);
        assert_eq!(m.constraints()[0].at_most, 1);
        assert_eq!(m.constraints()[0].members.len(), 2);
        assert_eq!(m.complexes().len(), 2);
        assert_eq!(m.complexes()[0].pattern.arg_count(), 3);
        assert_eq!(m.complexes()[1].pattern.arg_count(), 1);
        assert_eq!(m.complexes()[1].pattern.eval(&[7]), 49);
    }

    #[test]
    fn rejects_unknown_ops_and_storages() {
        assert!(parse_machine(
            "machine X { unit U1 { ops { frobnicate } regfile R[4]; } memory DM; bus B capacity 1 connects { R, DM }; }"
        )
        .is_err());
        assert!(parse_machine(
            "machine X { unit U1 { ops { add } regfile R[4]; } memory DM; bus B capacity 1 connects { R, NOPE }; }"
        )
        .is_err());
    }

    /// A refusal names the rule's code and the element, at the
    /// element's declaration.
    #[test]
    fn refusals_carry_the_code_and_the_declaration() {
        let e = parse_machine(
            "machine X {
                unit U1 { ops { add } regfile R1[4]; }
                unit U2 { ops { add } regfile R2[4]; }
                memory DM;
                bus B capacity 1 connects { R1, DM };
            }",
        )
        .unwrap_err();
        assert_eq!((e.line, e.col), (3, 39), "{e}");
        assert!(e.msg.starts_with("E002 bank R2: "), "{e}");
    }

    /// `at_most 0` would make every matching operation illegal even on
    /// its own, so no schedule could issue it: the loader refuses it. A
    /// constraint that can never trigger is only a warning and loads.
    #[test]
    fn refuses_a_constraint_that_always_triggers() {
        let machine = |at_most: u32| {
            format!(
                "machine X {{
                    unit U1 {{ ops {{ add, mul }} regfile R1[4]; }}
                    unit U2 {{ ops {{ add, mul }} regfile R2[4]; }}
                    memory DM;
                    bus B capacity 1 connects {{ R1, R2, DM }};
                    constraint at_most {at_most} {{ U1.mul, U2.mul }};
                }}"
            )
        };
        let e = parse_machine(&machine(0)).unwrap_err();
        assert_eq!((e.line, e.col), (6, 21), "{e}");
        assert!(e.msg.starts_with("E004 constraint #0: at most 0"), "{e}");
        assert!(parse_machine(&machine(1)).is_ok());
        assert!(parse_machine(&machine(2)).is_ok());
        assert!(parse_machine_unchecked(&machine(0)).is_ok());
    }

    #[test]
    fn errors_carry_positions() {
        let e = parse_machine("machine X { unit }").unwrap_err();
        assert!(e.line == 1 && e.col > 1);
    }

    #[test]
    fn round_trips_through_describe() {
        let m = parse_machine(EXAMPLE).unwrap();
        let d = m.describe();
        for u in ["U1", "U2", "U3"] {
            assert!(d.contains(u));
        }
    }
}
