//! Static program statistics: slot utilization, transfer density, and
//! encoded size — the kind of numbers an ASIP designer reads off a
//! candidate datapath (code size is the paper's cost function; ROM bytes
//! are what it ultimately stands for).

use aviv::{ControlOp, VliwProgram};
use aviv_isdl::Target;

/// Utilization breakdown of one program.
#[derive(Debug, Clone, PartialEq)]
pub struct ProgramStats {
    /// Total VLIW instructions.
    pub instructions: usize,
    /// ROM size in bits under the machine-derived packed encoding
    /// ([`crate::packed::encode_packed`]) — the paper's "on-chip ROM"
    /// figure.
    pub rom_bits: usize,
    /// Occupied operation slots per unit, indexed by unit.
    pub unit_slots_used: Vec<usize>,
    /// Transfers carried per bus, indexed by bus.
    pub bus_transfers: Vec<usize>,
    /// Instructions carrying a control operation.
    pub control_ops: usize,
    /// Completely empty instructions (alignment/branch-only artifacts).
    pub nops: usize,
    /// Fraction of unit slots across the whole program that are occupied
    /// (0.0–1.0); the paper's machines waste most slots on transfers, so
    /// this is typically low.
    pub slot_utilization: f64,
}

impl ProgramStats {
    /// Render a short human-readable report.
    pub fn render(&self, target: &Target) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "{} instructions, {} ROM bits (packed), {:.1}% unit-slot utilization\n",
            self.instructions,
            self.rom_bits,
            self.slot_utilization * 100.0
        ));
        for (ui, &used) in self.unit_slots_used.iter().enumerate() {
            out.push_str(&format!(
                "  unit {:4}: {used}/{} slots\n",
                target.machine.units()[ui].name,
                self.instructions
            ));
        }
        for (bi, &n) in self.bus_transfers.iter().enumerate() {
            out.push_str(&format!(
                "  bus  {:4}: {n} transfers\n",
                target.machine.buses()[bi].name
            ));
        }
        out.push_str(&format!(
            "  control ops: {}, empty instructions: {}\n",
            self.control_ops, self.nops
        ));
        out
    }
}

/// Compute statistics for `program` on `target`.
pub fn program_stats(target: &Target, program: &VliwProgram) -> ProgramStats {
    let n_units = target.machine.units().len();
    let n_buses = target.machine.buses().len();
    let mut unit_slots_used = vec![0usize; n_units];
    let mut bus_transfers = vec![0usize; n_buses];
    let mut control_ops = 0usize;
    let mut nops = 0usize;
    for inst in &program.instructions {
        if inst.is_nop() {
            nops += 1;
        }
        for (ui, slot) in inst.slots.iter().enumerate() {
            if slot.is_some() {
                unit_slots_used[ui] += 1;
            }
        }
        for x in &inst.xfers {
            bus_transfers[x.bus.index()] += 1;
        }
        if matches!(
            inst.control,
            Some(ControlOp::Jump(_) | ControlOp::BranchNz { .. } | ControlOp::Return(_))
        ) {
            control_ops += 1;
        }
    }
    let total_slots = program.instructions.len() * n_units;
    let used: usize = unit_slots_used.iter().sum();
    let rom_bits = crate::packed::encode_packed(target, program).map_or(0, |(_, bits)| bits);
    ProgramStats {
        instructions: program.instructions.len(),
        rom_bits,
        unit_slots_used,
        bus_transfers,
        control_ops,
        nops,
        slot_utilization: if total_slots == 0 {
            0.0
        } else {
            used as f64 / total_slots as f64
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aviv::CodeGenerator;
    use aviv_ir::parse_function;
    use aviv_isdl::archs;

    fn stats_for(src: &str) -> (ProgramStats, Target) {
        let f = parse_function(src).unwrap();
        let gen = CodeGenerator::new(archs::example_arch(4));
        let (program, _) = gen.compile_function(&f).unwrap();
        let target = gen.target().clone();
        (program_stats(&target, &program), target)
    }

    #[test]
    fn counts_are_consistent() {
        let (s, target) = stats_for("func f(a, b, c) { x = (a + b) * c; y = x - a; return y; }");
        assert!(s.instructions > 0);
        assert!(s.rom_bits > 0);
        assert_eq!(s.unit_slots_used.len(), target.machine.units().len());
        // Unit ops + transfers both present in this block.
        assert!(s.unit_slots_used.iter().sum::<usize>() >= 3, "{s:?}");
        assert!(s.bus_transfers.iter().sum::<usize>() >= 4, "{s:?}");
        // Exactly one return.
        assert_eq!(s.control_ops, 1);
        assert!(s.slot_utilization > 0.0 && s.slot_utilization <= 1.0);
        let text = s.render(&target);
        assert!(text.contains("instructions") && text.contains("U1"));
    }

    #[test]
    fn single_bus_never_exceeds_capacity_per_instruction() {
        let f =
            parse_function("func f(a, b, c, d) { x = (a + b) * (c - d); y = x + a; return y; }")
                .unwrap();
        let gen = CodeGenerator::new(archs::example_arch(4));
        let (program, _) = gen.compile_function(&f).unwrap();
        for inst in &program.instructions {
            assert!(inst.xfers.len() <= 1, "capacity-1 bus oversubscribed");
        }
    }
}
