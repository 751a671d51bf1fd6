//! Pretty-printer: [`Machine`] → ISDL text.
//!
//! Together with [`crate::parse_machine`] this round-trips machine
//! descriptions losslessly, which is how generated or programmatically
//! built machines (e.g. from a design-space explorer) get persisted in
//! the same format hand-written descriptions use.

use crate::model::{Location, Machine, PatTree, SlotPattern};
use std::fmt;

/// Render `machine` as parseable ISDL text.
///
/// ```
/// use aviv_isdl::{archs, parse_machine, to_isdl};
///
/// let machine = archs::example_arch(4);
/// let text = to_isdl(&machine);
/// let reparsed = parse_machine(&text).expect("printer output parses");
/// assert_eq!(machine.units().len(), reparsed.units().len());
/// ```
pub fn to_isdl(machine: &Machine) -> String {
    let mut out = String::new();
    let _ = write_isdl(machine, &mut out);
    out
}

/// Write [`to_isdl`]'s text to `out` piece by piece, building no string
/// of its own: [`crate::Target`] hashes the text this way without
/// holding it.
///
/// # Errors
///
/// Only those `out` returns.
pub(crate) fn write_isdl(machine: &Machine, out: &mut impl fmt::Write) -> fmt::Result {
    writeln!(out, "machine {} {{", machine.name)?;
    for unit in machine.units() {
        write!(out, "    unit {} {{ ops {{ ", unit.name)?;
        for (k, cap) in unit.ops.iter().enumerate() {
            let sep = if k == 0 { "" } else { ", " };
            write!(out, "{sep}{}", cap.op.mnemonic())?;
        }
        let bank = machine.bank(unit.bank);
        writeln!(out, " }} regfile {}[{}]; }}", bank.name, bank.size)?;
    }
    writeln!(out, "    memory DM;")?;
    for bus in machine.buses() {
        write!(
            out,
            "    bus {} capacity {} connects {{ ",
            bus.name, bus.capacity
        )?;
        for (k, e) in bus.endpoints.iter().enumerate() {
            let sep = if k == 0 { "" } else { ", " };
            let name = match e {
                Location::Bank(b) => machine.bank(*b).name.as_str(),
                Location::Mem => "DM",
            };
            write!(out, "{sep}{name}")?;
        }
        writeln!(out, " }};")?;
    }
    for con in machine.constraints() {
        write!(out, "    constraint at_most {} {{ ", con.at_most)?;
        for (k, m) in con.members.iter().enumerate() {
            let sep = if k == 0 { "" } else { ", " };
            match *m {
                SlotPattern::UnitOp { unit, op } => {
                    let uname = &machine.unit(unit).name;
                    match op {
                        Some(op) => write!(out, "{sep}{uname}.{}", op.mnemonic())?,
                        None => write!(out, "{sep}{uname}.*")?,
                    }
                }
                SlotPattern::BusUse { bus } => {
                    write!(out, "{sep}bus {}", machine.bus(bus).name)?;
                }
            }
        }
        writeln!(out, " }};")?;
    }
    for cx in machine.complexes() {
        write!(
            out,
            "    complex {} on {} {{ ",
            cx.name,
            machine.unit(cx.unit).name
        )?;
        write_pattern(&cx.pattern, out)?;
        writeln!(out, " }};")?;
    }
    out.write_str("}\n")
}

fn write_pattern(p: &PatTree, out: &mut impl fmt::Write) -> fmt::Result {
    match p {
        PatTree::Arg(i) => write_arg_name(*i, out),
        PatTree::Op(op, subs) => {
            write!(out, "{}(", op.mnemonic())?;
            for (k, sub) in subs.iter().enumerate() {
                if k > 0 {
                    out.write_str(", ")?;
                }
                write_pattern(sub, out)?;
            }
            out.write_str(")")
        }
    }
}

/// Stable operand names `a, b, c, ... a1, b1, ...` for pattern printing.
fn write_arg_name(i: usize, out: &mut impl fmt::Write) -> fmt::Result {
    let letter = (b'a' + (i % 26) as u8) as char;
    if i < 26 {
        out.write_char(letter)
    } else {
        write!(out, "{letter}{}", i / 26)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::archs;
    use crate::parser::parse_machine;

    fn machines_equal(a: &Machine, b: &Machine) -> bool {
        if a.name != b.name
            || a.units().len() != b.units().len()
            || a.banks().len() != b.banks().len()
            || a.buses().len() != b.buses().len()
            || a.constraints().len() != b.constraints().len()
            || a.complexes().len() != b.complexes().len()
        {
            return false;
        }
        for (ua, ub) in a.units().iter().zip(b.units()) {
            if ua.name != ub.name || ua.bank != ub.bank {
                return false;
            }
            let ops_a: Vec<_> = ua.ops.iter().map(|c| c.op).collect();
            let ops_b: Vec<_> = ub.ops.iter().map(|c| c.op).collect();
            if ops_a != ops_b {
                return false;
            }
        }
        for (ba, bb) in a.banks().iter().zip(b.banks()) {
            if ba.name != bb.name || ba.size != bb.size {
                return false;
            }
        }
        for (ba, bb) in a.buses().iter().zip(b.buses()) {
            if ba.name != bb.name || ba.capacity != bb.capacity || ba.endpoints != bb.endpoints {
                return false;
            }
        }
        for (ca, cb) in a.constraints().iter().zip(b.constraints()) {
            if ca.at_most != cb.at_most || ca.members != cb.members {
                return false;
            }
        }
        for (ca, cb) in a.complexes().iter().zip(b.complexes()) {
            if ca.name != cb.name || ca.unit != cb.unit || ca.pattern != cb.pattern {
                return false;
            }
        }
        true
    }

    #[test]
    fn round_trips_every_bundled_architecture() {
        for m in [
            archs::example_arch(4),
            archs::example_arch(2),
            archs::arch_two(4),
            archs::dsp_arch(4),
            archs::chained_arch(4),
            archs::single_alu(4),
            archs::wide_arch(8),
        ] {
            let text = to_isdl(&m);
            let back = parse_machine(&text).unwrap_or_else(|e| panic!("{}: {e}\n{text}", m.name));
            assert!(machines_equal(&m, &back), "{} round trip:\n{text}", m.name);
        }
    }

    #[test]
    fn round_trips_constraints_and_complexes() {
        let src = "machine C {
            unit U1 { ops { add, mul } regfile R1[4]; }
            unit U2 { ops { add, mul, sub } regfile R2[4]; }
            memory DM;
            bus DB capacity 2 connects { R1, R2, DM };
            constraint at_most 1 { U1.mul, U2.mul };
            constraint at_most 1 { U1.*, bus DB };
            complex mac on U2 { add(mul(a, b), c) };
            complex sq on U1 { mul(a, a) };
        }";
        let m = parse_machine(src).unwrap();
        let text = to_isdl(&m);
        let back = parse_machine(&text).unwrap();
        assert!(machines_equal(&m, &back), "{text}");
        // Repeated pattern operands survive the trip.
        assert_eq!(back.complexes()[1].pattern.arg_count(), 1);
    }

    fn arg_name(i: usize) -> String {
        let mut name = String::new();
        write_arg_name(i, &mut name).unwrap();
        name
    }

    #[test]
    fn arg_names_are_stable() {
        assert_eq!(arg_name(0), "a");
        assert_eq!(arg_name(2), "c");
        assert_eq!(arg_name(26), "a1");
    }
}
