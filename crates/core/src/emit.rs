//! VLIW program representation and assembly printing.
//!
//! A [`VliwInstruction`] mirrors the machines of the paper: one operation
//! slot per functional unit, a transfer field per bus use, and an optional
//! control operation (the conventional tree-covered control flow of
//! §III-C). The assembler and simulator in `aviv-vm` consume this
//! representation; [`VliwProgram::render`] prints human-readable assembly.

use crate::cover::Schedule;
use crate::covergraph::{CnId, CnKind, CoverGraph, Operand};
use crate::regalloc::{Allocation, Reg};
use aviv_ir::{MemLayout, SymbolTable};
use aviv_isdl::{BusId, Target, UnitId};
use aviv_verify::{Code, Diagnostic};
use std::collections::HashMap;
use std::fmt::Write as _;

/// An operand as it appears in assembly.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AsmOperand {
    /// A register.
    Reg(Reg),
    /// An immediate.
    Imm(i64),
}

impl std::fmt::Display for AsmOperand {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AsmOperand::Reg(r) => write!(f, "{r}"),
            AsmOperand::Imm(v) => write!(f, "#{v}"),
        }
    }
}

/// The opcode of a unit slot.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SlotOpcode {
    /// A basic operation.
    Basic(aviv_ir::Op),
    /// A complex instruction (index into the machine's list).
    Complex(usize),
}

/// One functional-unit slot of a VLIW instruction.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SlotOp {
    /// The opcode.
    pub opcode: SlotOpcode,
    /// Destination register.
    pub dst: Reg,
    /// Source operands.
    pub args: Vec<AsmOperand>,
}

/// One transfer field of a VLIW instruction.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TransferOp {
    /// The bus carrying it.
    pub bus: BusId,
    /// What moves where.
    pub kind: TransferKind,
}

/// The kinds of bus activity.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TransferKind {
    /// Register-to-register move.
    Move {
        /// Source.
        from: Reg,
        /// Destination.
        to: Reg,
    },
    /// Load from a static address (named variable or spill slot).
    LoadVar {
        /// Memory address.
        addr: i64,
        /// Variable name (assembly comment).
        name: String,
        /// Destination register.
        to: Reg,
    },
    /// Store to a static address.
    StoreVar {
        /// The stored value.
        value: AsmOperand,
        /// Memory address.
        addr: i64,
        /// Variable name (assembly comment).
        name: String,
    },
    /// Load from a register-held address.
    LoadDyn {
        /// Address register.
        addr: Reg,
        /// Destination register.
        to: Reg,
    },
    /// Store to a register-held address.
    StoreDyn {
        /// Address register.
        addr: Reg,
        /// Value register.
        value: Reg,
    },
}

/// A control operation (at most one per instruction).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ControlOp {
    /// Unconditional jump to an instruction index.
    Jump(usize),
    /// Branch to an instruction index when the condition is nonzero.
    BranchNz {
        /// The condition.
        cond: AsmOperand,
        /// Target instruction index.
        target: usize,
    },
    /// Return from the function.
    Return(Option<AsmOperand>),
}

/// One VLIW instruction.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct VliwInstruction {
    /// Operation slots, indexed by unit.
    pub slots: Vec<Option<SlotOp>>,
    /// Bus transfer fields.
    pub xfers: Vec<TransferOp>,
    /// Control field.
    pub control: Option<ControlOp>,
}

impl VliwInstruction {
    /// An all-nop instruction for a machine with `n_units` units.
    pub fn nop(n_units: usize) -> Self {
        VliwInstruction {
            slots: vec![None; n_units],
            xfers: Vec::new(),
            control: None,
        }
    }

    /// True when nothing at all happens.
    pub fn is_nop(&self) -> bool {
        self.slots.iter().all(Option::is_none) && self.xfers.is_empty() && self.control.is_none()
    }
}

/// A complete VLIW program for one machine.
#[derive(Debug, Clone, PartialEq)]
pub struct VliwProgram {
    /// Machine name (for display).
    pub machine_name: String,
    /// The instructions.
    pub instructions: Vec<VliwInstruction>,
    /// First instruction index of each basic block, in block order.
    pub block_starts: Vec<usize>,
    /// Named variables and their memory addresses (inputs preloaded here,
    /// outputs read back from here).
    pub var_addrs: Vec<(String, i64)>,
}

impl VliwProgram {
    /// Render assembly text, writing every field straight into the
    /// output buffer.
    pub fn render(&self, target: &Target) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "; machine {}", self.machine_name);
        for (i, inst) in self.instructions.iter().enumerate() {
            if let Some(b) = self.block_starts.iter().position(|&s| s == i) {
                let _ = writeln!(out, "bb{b}:");
            }
            let _ = write!(out, "  {i:4}: {{ ");
            // Fields are separated by " | "; `sep` is empty before the
            // first one.
            let mut sep = "";
            for (ui, slot) in inst.slots.iter().enumerate() {
                if let Some(s) = slot {
                    let unit = &target.machine.units()[ui];
                    let opname = match s.opcode {
                        SlotOpcode::Basic(op) => op.mnemonic(),
                        SlotOpcode::Complex(ci) => &target.machine.complexes()[ci].name,
                    };
                    let _ = write!(out, "{sep}{}: {opname} {}, ", unit.name, s.dst);
                    for (k, arg) in s.args.iter().enumerate() {
                        let _ = write!(out, "{}{arg}", if k == 0 { "" } else { ", " });
                    }
                    sep = " | ";
                }
            }
            for x in &inst.xfers {
                let _ = write!(out, "{sep}{}: ", target.machine.bus(x.bus).name);
                let _ = match &x.kind {
                    TransferKind::Move { from, to } => write!(out, "mov {to} <- {from}"),
                    TransferKind::LoadVar { addr, name, to } => {
                        write!(out, "ld {to} <- [{addr}] ;{name}")
                    }
                    TransferKind::StoreVar { value, addr, name } => {
                        write!(out, "st [{addr}] <- {value} ;{name}")
                    }
                    TransferKind::LoadDyn { addr, to } => write!(out, "ld {to} <- [{addr}]"),
                    TransferKind::StoreDyn { addr, value } => {
                        write!(out, "st [{addr}] <- {value}")
                    }
                };
                sep = " | ";
            }
            if let Some(c) = &inst.control {
                let _ = write!(out, "{sep}CTRL: ");
                let _ = match c {
                    ControlOp::Jump(t) => write!(out, "jmp @{t}"),
                    ControlOp::BranchNz { cond, target } => write!(out, "bnz {cond}, @{target}"),
                    ControlOp::Return(Some(v)) => write!(out, "ret {v}"),
                    ControlOp::Return(None) => write!(out, "ret"),
                };
            } else if sep.is_empty() {
                out.push_str("nop");
            }
            out.push_str(" }\n");
        }
        out
    }

    /// Instruction count (the paper's code-size cost).
    pub fn len(&self) -> usize {
        self.instructions.len()
    }

    /// True for an empty program.
    pub fn is_empty(&self) -> bool {
        self.instructions.is_empty()
    }
}

/// A `C006` diagnostic: emission received a malformed schedule or
/// allocation (see `docs/diagnostics.md`).
fn malformed(element: impl Into<String>, message: impl Into<String>) -> Diagnostic {
    Diagnostic::new(Code::C006, element, message)
}

fn allocated(alloc: &Allocation, id: CnId) -> Result<Reg, Diagnostic> {
    alloc
        .get(id)
        .ok_or_else(|| malformed(format!("{id}"), "cover node has no allocated register"))
}

/// Lower one scheduled, register-allocated block into instructions (no
/// control field yet — the function-level driver appends terminators).
///
/// # Errors
///
/// Returns a `C006` [`Diagnostic`] when the schedule or allocation is
/// malformed: a unit double-booked within one instruction, an immediate
/// where the field requires a register, or a value-producing cover node
/// with no allocated register. A well-formed plan never trips these.
pub fn emit_block(
    graph: &CoverGraph,
    target: &Target,
    schedule: &Schedule,
    alloc: &Allocation,
    syms: &SymbolTable,
    layout: &MemLayout,
) -> Result<Vec<VliwInstruction>, Diagnostic> {
    let n_units = target.machine.units().len();
    let mut out = Vec::with_capacity(schedule.steps.len());
    for step in &schedule.steps {
        let mut inst = VliwInstruction::nop(n_units);
        for &id in step {
            let node = graph.node(id);
            let reg_arg = |a: &Operand| -> Result<AsmOperand, Diagnostic> {
                match a {
                    Operand::Imm(v) => Ok(AsmOperand::Imm(*v)),
                    Operand::Cn(c) => allocated(alloc, *c).map(AsmOperand::Reg),
                }
            };
            let reg_only = |a: &Operand, what: &str| -> Result<Reg, Diagnostic> {
                match a {
                    Operand::Cn(c) => allocated(alloc, *c),
                    Operand::Imm(v) => Err(malformed(
                        format!("{id}"),
                        format!("{what} requires a register operand, got immediate #{v}"),
                    )),
                }
            };
            match &node.kind {
                CnKind::Op { unit, op, .. } => {
                    place_slot(
                        &mut inst,
                        *unit,
                        SlotOp {
                            opcode: SlotOpcode::Basic(*op),
                            dst: allocated(alloc, id)?,
                            args: node.args.iter().map(reg_arg).collect::<Result<_, _>>()?,
                        },
                    )?;
                }
                CnKind::Complex { unit, index, .. } => {
                    place_slot(
                        &mut inst,
                        *unit,
                        SlotOp {
                            opcode: SlotOpcode::Complex(*index),
                            dst: allocated(alloc, id)?,
                            args: node.args.iter().map(reg_arg).collect::<Result<_, _>>()?,
                        },
                    )?;
                }
                CnKind::Move { bus, .. } => {
                    let from = reg_only(&node.args[0], "move source")?;
                    inst.xfers.push(TransferOp {
                        bus: *bus,
                        kind: TransferKind::Move {
                            from,
                            to: allocated(alloc, id)?,
                        },
                    });
                }
                CnKind::LoadVar { sym, bus, .. } => {
                    inst.xfers.push(TransferOp {
                        bus: *bus,
                        kind: TransferKind::LoadVar {
                            addr: layout.addr(*sym),
                            name: syms.name(*sym).to_string(),
                            to: allocated(alloc, id)?,
                        },
                    });
                }
                CnKind::StoreVar { sym, bus, .. } => {
                    inst.xfers.push(TransferOp {
                        bus: *bus,
                        kind: TransferKind::StoreVar {
                            value: reg_arg(&node.args[0])?,
                            addr: layout.addr(*sym),
                            name: syms.name(*sym).to_string(),
                        },
                    });
                }
                CnKind::LoadDyn { bus, .. } => {
                    let addr = reg_only(&node.args[0], "dynamic load address")?;
                    inst.xfers.push(TransferOp {
                        bus: *bus,
                        kind: TransferKind::LoadDyn {
                            addr,
                            to: allocated(alloc, id)?,
                        },
                    });
                }
                CnKind::StoreDyn { bus, .. } => {
                    inst.xfers.push(TransferOp {
                        bus: *bus,
                        kind: TransferKind::StoreDyn {
                            addr: reg_only(&node.args[0], "dynamic store address")?,
                            value: reg_only(&node.args[1], "dynamic store value")?,
                        },
                    });
                }
            }
        }
        out.push(inst);
    }
    Ok(out)
}

fn place_slot(inst: &mut VliwInstruction, unit: UnitId, slot: SlotOp) -> Result<(), Diagnostic> {
    let cell = &mut inst.slots[unit.index()];
    if cell.is_some() {
        return Err(malformed(
            format!("{unit}"),
            "unit double-booked in one instruction",
        ));
    }
    *cell = Some(slot);
    Ok(())
}

/// Map live-out original nodes to the assembly operand holding them at
/// block end (used by the function driver for branch conditions and
/// return values).
///
/// # Errors
///
/// Returns a `C006` [`Diagnostic`] when a live-out cover node has no
/// allocated register.
pub fn live_out_operands(
    graph: &CoverGraph,
    alloc: &Allocation,
) -> Result<HashMap<aviv_ir::NodeId, AsmOperand>, Diagnostic> {
    let mut out = HashMap::new();
    for &(orig, operand) in graph.live_out() {
        let a = match operand {
            Operand::Imm(v) => AsmOperand::Imm(v),
            Operand::Cn(c) => AsmOperand::Reg(allocated(alloc, c)?),
        };
        out.insert(orig, a);
    }
    Ok(out)
}
