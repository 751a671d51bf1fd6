//! The binary encoding: [`VliwProgram`] ⇄ bytes.
//!
//! The paper's framework generates an assembler from the ISDL description
//! (§II) and optimizes code size because "the size of the on-chip ROM is
//! a critical issue". This is that assembler, with one bit-level encoding
//! whose field widths are derived from the machine: [`encode_packed`]
//! gives the ROM image and its bit count, and [`assemble`] frames it in an
//! [`aviv::wire`] header holding what the ROM does not — magic `AVIV`,
//! version, machine name, [`Target::fingerprint`], the variable table
//! (which names every `LoadVar`/`StoreVar` address), the block starts and
//! the instruction count — so [`disassemble`] restores the exact program.
//!
//! Per instruction: for each unit an opcode (`0` = nop, then its ops,
//! then the complex instructions), a destination register and one operand
//! per argument (tag bit + register or immediate); a transfer count, then
//! per transfer its bus, kind (3 bits) and operands; a control tag (2
//! bits) and its operands. Immediates take 12 signed bits or escape to
//! 64; zero padding ends the stream at a byte boundary.
//!
//! One walker codes this layout in both directions and checks every
//! field against the machine: the encoder refuses what does not fit
//! instead of truncating it into a wrong ROM image, and the decoder bounds
//! every count by the input left before allocating and accepts only
//! canonical fields. So a load yields a program that re-assembles to the
//! same bytes, or a [`CodecError`].

use aviv::wire::{Dec, Enc, WireError, MAX_STR_LEN};
use aviv::{AsmOperand, ControlOp, Reg, SlotOp, SlotOpcode, TransferKind, VliwInstruction};
use aviv::{TransferOp, VliwProgram};
use aviv_isdl::{BankId, BusId, Machine, Target, Unit};
use std::collections::BTreeMap;
use std::fmt;

const MAGIC: u32 = u32::from_le_bytes(*b"AVIV");
const VERSION: u8 = 2;

/// Encoding or decoding failure of a binary or ROM image.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CodecError {
    /// What went wrong.
    pub msg: String,
}

impl fmt::Display for CodecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "binary encoding error: {}", self.msg)
    }
}

impl std::error::Error for CodecError {}

impl From<WireError> for CodecError {
    fn from(e: WireError) -> CodecError {
        CodecError {
            msg: format!("bad {} at byte {}", e.what, e.offset),
        }
    }
}

fn fail<T>(msg: impl Into<String>) -> Result<T, CodecError> {
    Err(CodecError { msg: msg.into() })
}

/// One direction of the stream. [`instruction`] is written once against
/// it: writing, a field stores the value it is given; reading, it
/// ignores that value and returns the stored one.
trait Bits {
    fn field(&mut self, value: u64, width: u32) -> Result<u64, CodecError>;
}

#[derive(Default)]
struct BitWriter {
    bytes: Vec<u8>,
    bits: usize,
}

impl Bits for BitWriter {
    /// Refuses a value the field cannot hold.
    fn field(&mut self, value: u64, width: u32) -> Result<u64, CodecError> {
        if width < 64 && value >> width != 0 {
            return fail(format!("{value} does not fit in a {width}-bit field"));
        }
        for i in 0..width {
            let (byte, bit) = (self.bits / 8, self.bits % 8);
            if bit == 0 {
                self.bytes.push(0);
            }
            self.bytes[byte] |= (((value >> i) & 1) as u8) << bit;
            self.bits += 1;
        }
        Ok(value)
    }
}

struct BitReader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl BitReader<'_> {
    fn remaining(&self) -> usize {
        self.bytes.len() * 8 - self.pos
    }
}

impl Bits for BitReader<'_> {
    fn field(&mut self, _: u64, width: u32) -> Result<u64, CodecError> {
        if self.remaining() < width as usize {
            return fail("unexpected end of bitstream");
        }
        let mut v = 0u64;
        for i in 0..width {
            let b = self.bytes[self.pos / 8] >> (self.pos % 8);
            v |= u64::from(b & 1) << i;
            self.pos += 1;
        }
        Ok(v)
    }
}

/// Minimum bits to represent values `0..n` (at least 1).
fn width_for(n: usize) -> u32 {
    let mut w = 1;
    while (1usize << w) < n {
        w += 1;
    }
    w
}

/// Width of `unit`'s opcode field: nop, the unit's ops, then the
/// machine's complex instructions.
fn opcode_width(m: &Machine, unit: &Unit) -> u32 {
    width_for(1 + unit.ops.len() + m.complexes().len())
}

/// Most transfers one instruction can carry: the buses' summed capacity.
fn max_xfers(m: &Machine) -> usize {
    m.buses().iter().map(|b| b.capacity as usize).sum()
}

/// `n` as a transfer-count field, if one instruction can carry `n`
/// transfers.
fn xfer_count(m: &Machine, n: usize) -> Result<usize, CodecError> {
    let max = max_xfers(m);
    if n > max {
        return fail(format!("{n} transfers exceed the {max} the buses carry"));
    }
    Ok(n)
}

/// The width of `bank`'s register indices, if the bank exists and `index`
/// is one of its registers.
fn reg_width(m: &Machine, bank: BankId, index: u32) -> Result<u32, CodecError> {
    match m.banks().get(bank.index()) {
        None => fail(format!("no bank {bank}")),
        Some(b) if index >= b.size => fail(format!(
            "register {index} is beyond bank {bank}'s {} registers",
            b.size
        )),
        Some(b) => Ok(width_for(b.size as usize)),
    }
}

const IMM_FAST_BITS: u32 = 12;

fn imm_is_fast(v: i64) -> bool {
    (-(1i64 << (IMM_FAST_BITS - 1))..(1 << (IMM_FAST_BITS - 1))).contains(&v)
}

fn imm(b: &mut impl Bits, v: &mut i64) -> Result<(), CodecError> {
    if b.field(u64::from(!imm_is_fast(*v)), 1)? == 0 {
        let raw = b.field(*v as u64 & ((1 << IMM_FAST_BITS) - 1), IMM_FAST_BITS)?;
        // Sign-extend.
        let shift = 64 - IMM_FAST_BITS;
        *v = ((raw << shift) as i64) >> shift;
    } else {
        *v = b.field(*v as u64, 64)? as i64;
        if imm_is_fast(*v) {
            return fail(format!("immediate {v} escaped to 64 bits"));
        }
    }
    Ok(())
}

/// A jump or branch target, coded as an immediate.
fn jump_target(b: &mut impl Bits, t: &mut usize) -> Result<(), CodecError> {
    let mut v = *t as i64;
    imm(b, &mut v)?;
    *t = v as usize;
    Ok(())
}

fn reg(b: &mut impl Bits, m: &Machine, r: &mut Reg) -> Result<(), CodecError> {
    r.bank = BankId(b.field(u64::from(r.bank.0), width_for(m.banks().len()))? as u32);
    let width = reg_width(m, r.bank, 0)?;
    r.index = b.field(u64::from(r.index), width)? as u32;
    reg_width(m, r.bank, r.index).map(drop)
}

/// Placeholders a read overwrites.
const NO_REG: Reg = Reg {
    bank: BankId(0),
    index: 0,
};
const NO_ARG: AsmOperand = AsmOperand::Imm(0);
const REG_ARG: AsmOperand = AsmOperand::Reg(NO_REG);
const NO_XFER: TransferOp = TransferOp {
    bus: BusId(0),
    kind: TransferKind::Move {
        from: NO_REG,
        to: NO_REG,
    },
};

fn operand(b: &mut impl Bits, m: &Machine, a: &mut AsmOperand) -> Result<(), CodecError> {
    let was_imm = matches!(a, AsmOperand::Imm(_));
    let is_imm = b.field(u64::from(was_imm), 1)? == 1;
    if is_imm != was_imm {
        *a = if is_imm { NO_ARG } else { REG_ARG };
    }
    match a {
        AsmOperand::Imm(v) => imm(b, v),
        AsmOperand::Reg(r) => reg(b, m, r),
    }
}

/// The opcode field of `s` on `unit` ([`opcode_at`] checks the rest).
fn opcode_code(unit: &Unit, s: &SlotOp) -> Result<u64, CodecError> {
    Ok(match s.opcode {
        SlotOpcode::Basic(op) => match unit.ops.iter().position(|c| c.op == op) {
            Some(pos) => 1 + pos as u64,
            None => return fail(format!("unit {} cannot {op}", unit.name)),
        },
        SlotOpcode::Complex(ci) => (1 + unit.ops.len() + ci) as u64,
    })
}

/// The opcode and arity an opcode field names on `unit`.
fn opcode_at(m: &Machine, unit: &Unit, code: usize) -> Result<(SlotOpcode, usize), CodecError> {
    if let Some(cap) = unit.ops.get(code - 1) {
        return Ok((SlotOpcode::Basic(cap.op), cap.op.arity()));
    }
    let ci = code - 1 - unit.ops.len();
    match m.complexes().get(ci) {
        Some(cx) => Ok((SlotOpcode::Complex(ci), cx.pattern.arg_count())),
        None => fail(format!("bad opcode {code} for unit {}", unit.name)),
    }
}

fn xfer_tag(kind: &TransferKind) -> u64 {
    match kind {
        TransferKind::Move { .. } => 0,
        TransferKind::LoadVar { .. } => 1,
        TransferKind::StoreVar { .. } => 2,
        TransferKind::LoadDyn { .. } => 3,
        TransferKind::StoreDyn { .. } => 4,
    }
}

/// A transfer of kind `tag` with placeholder fields.
fn xfer_placeholder(tag: u64) -> Result<TransferKind, CodecError> {
    let (addr, name) = (0, String::new());
    Ok(match tag {
        0 => NO_XFER.kind,
        1 => TransferKind::LoadVar {
            addr,
            name,
            to: NO_REG,
        },
        2 => TransferKind::StoreVar {
            value: NO_ARG,
            addr,
            name,
        },
        3 => TransferKind::LoadDyn {
            addr: NO_REG,
            to: NO_REG,
        },
        4 => TransferKind::StoreDyn {
            addr: NO_REG,
            value: NO_REG,
        },
        t => return fail(format!("bad transfer tag {t}")),
    })
}

fn control_tag(c: Option<&ControlOp>) -> u64 {
    match c {
        None => 0,
        Some(ControlOp::Jump(_)) => 1,
        Some(ControlOp::BranchNz { .. }) => 2,
        Some(ControlOp::Return(_)) => 3,
    }
}

/// Write or read one instruction. Writing, `inst` is the instruction and
/// is left as it is; reading, it starts as a nop and every field is
/// overwritten from the stream, so both directions share one layout.
fn instruction(
    b: &mut impl Bits,
    m: &Machine,
    inst: &mut VliwInstruction,
) -> Result<(), CodecError> {
    if inst.slots.len() != m.units().len() {
        return fail("instruction slots do not match the machine's units");
    }
    for (slot, unit) in inst.slots.iter_mut().zip(m.units()) {
        let given = slot.as_ref().map_or(Ok(0), |s| opcode_code(unit, s))?;
        let code = b.field(given, opcode_width(m, unit))? as usize;
        if code == 0 {
            continue;
        }
        let (opcode, arity) = opcode_at(m, unit, code)?;
        let s = slot.get_or_insert_with(|| SlotOp {
            opcode,
            dst: NO_REG,
            args: vec![NO_ARG; arity],
        });
        if s.args.len() != arity {
            return fail(format!("arity mismatch in slot {}", unit.name));
        }
        reg(b, m, &mut s.dst)?;
        for a in &mut s.args {
            operand(b, m, a)?;
        }
    }
    let given = xfer_count(m, inst.xfers.len())? as u64;
    let n = b.field(given, width_for(max_xfers(m) + 1))? as usize;
    let n = xfer_count(m, n)?;
    // Writing, `n` is the count already there; reading, the transfers
    // start as placeholders.
    inst.xfers.resize(n, NO_XFER);
    for x in &mut inst.xfers {
        x.bus = BusId(b.field(u64::from(x.bus.0), width_for(m.buses().len()))? as u32);
        if x.bus.index() >= m.buses().len() {
            return fail(format!("no bus {}", x.bus));
        }
        let tag = b.field(xfer_tag(&x.kind), 3)?;
        if tag != xfer_tag(&x.kind) {
            x.kind = xfer_placeholder(tag)?;
        }
        match &mut x.kind {
            TransferKind::Move { from, to } => {
                reg(b, m, from)?;
                reg(b, m, to)?;
            }
            TransferKind::LoadVar { addr, to, .. } => {
                imm(b, addr)?;
                reg(b, m, to)?;
            }
            TransferKind::StoreVar { value, addr, .. } => {
                operand(b, m, value)?;
                imm(b, addr)?;
            }
            TransferKind::LoadDyn { addr, to } => {
                reg(b, m, addr)?;
                reg(b, m, to)?;
            }
            TransferKind::StoreDyn { addr, value } => {
                reg(b, m, addr)?;
                reg(b, m, value)?;
            }
        }
    }
    let tag = b.field(control_tag(inst.control.as_ref()), 2)?;
    if tag != control_tag(inst.control.as_ref()) {
        inst.control = match tag {
            0 => None,
            1 => Some(ControlOp::Jump(0)),
            2 => Some(ControlOp::BranchNz {
                cond: NO_ARG,
                target: 0,
            }),
            _ => Some(ControlOp::Return(None)),
        };
    }
    match &mut inst.control {
        None => Ok(()),
        Some(ControlOp::Jump(t)) => jump_target(b, t),
        Some(ControlOp::BranchNz { cond, target }) => {
            operand(b, m, cond)?;
            jump_target(b, target)
        }
        Some(ControlOp::Return(v)) => {
            let has = b.field(u64::from(v.is_some()), 1)? == 1;
            if has != v.is_some() {
                *v = has.then_some(NO_ARG);
            }
            v.as_mut().map_or(Ok(()), |op| operand(b, m, op))
        }
    }
}

/// Encode the instruction stream of `program` as a packed bitstream;
/// returns the bytes and the exact bit length.
///
/// # Errors
///
/// Fails when an instruction does not fit the machine: an op the unit
/// cannot perform, a register beyond its bank, too many transfers, ...
pub fn encode_packed(
    target: &Target,
    program: &VliwProgram,
) -> Result<(Vec<u8>, usize), CodecError> {
    let mut w = BitWriter::default();
    for inst in &program.instructions {
        instruction(&mut w, &target.machine, &mut inst.clone())?;
    }
    Ok((w.bytes, w.bits))
}

/// Decode a packed bitstream of exactly `count` instructions back into
/// instruction form. Variable names are not part of the ROM image, so
/// `LoadVar`/`StoreVar` transfers come back with empty names
/// ([`disassemble`] restores them).
///
/// # Errors
///
/// Returns [`CodecError`] on any malformed bitstream, including a `count`
/// it cannot hold (refused before allocating) and trailing data.
pub fn decode_packed(
    target: &Target,
    bytes: &[u8],
    count: usize,
) -> Result<Vec<VliwInstruction>, CodecError> {
    let m = &target.machine;
    let mut r = BitReader { bytes, pos: 0 };
    // The shortest instruction: every unit's nop opcode, no transfers, no
    // control.
    let min_bits: u32 =
        m.units().iter().map(|u| opcode_width(m, u)).sum::<u32>() + width_for(max_xfers(m) + 1) + 2;
    if count > r.remaining() / min_bits as usize {
        return fail(format!("{count} instructions cannot fit in the stream"));
    }
    let mut out = Vec::with_capacity(count);
    for _ in 0..count {
        let mut inst = VliwInstruction::nop(m.units().len());
        instruction(&mut r, m, &mut inst)?;
        out.push(inst);
    }
    // Only the zero padding of the last byte may follow.
    let rest = r.remaining();
    if rest >= 8 || r.field(0, rest as u32)? != 0 {
        return fail("bytes after the stream");
    }
    Ok(out)
}

/// The variable at each address: what the names of `LoadVar`/`StoreVar`
/// transfers are checked against and restored from.
fn var_names(var_addrs: &[(String, i64)]) -> Result<BTreeMap<i64, &str>, CodecError> {
    let mut names = BTreeMap::new();
    for (name, addr) in var_addrs {
        if let Some(other) = names.insert(*addr, name.as_str()) {
            return fail(format!("address {addr} names both `{other}` and `{name}`"));
        }
    }
    Ok(names)
}

fn name_at<'a>(names: &BTreeMap<i64, &'a str>, addr: i64) -> Result<&'a str, CodecError> {
    match names.get(&addr) {
        Some(name) => Ok(name),
        None => fail(format!("no variable at address {addr}")),
    }
}

fn put_str(e: &mut Enc, s: &str) -> Result<(), CodecError> {
    if s.len() > MAX_STR_LEN {
        return fail(format!("a {}-byte name is too long", s.len()));
    }
    e.put_str(s);
    Ok(())
}

/// Read a count of items of at least `min_bytes` each, refusing one the
/// rest of the input cannot hold before the caller allocates for it.
fn get_count(d: &mut Dec, min_bytes: usize, what: &'static str) -> Result<usize, CodecError> {
    let at = d.offset();
    let n = d.get_u64(what)?;
    if n > (d.remaining() / min_bytes) as u64 {
        return fail(format!("{what} {n} at byte {at} exceeds the input"));
    }
    Ok(n as usize)
}

/// Assemble `program` for `target`: the container header, then the
/// [`encode_packed`] stream.
///
/// # Errors
///
/// Fails when [`encode_packed`] does, when two variables share an
/// address, when a `LoadVar`/`StoreVar` transfer's name is not the
/// variable at its address, or when a name is longer than the loader
/// reads — none of which generator output does; refusing them is what
/// makes every successful round trip exact.
pub fn assemble(target: &Target, program: &VliwProgram) -> Result<Vec<u8>, CodecError> {
    let names = var_names(&program.var_addrs)?;
    for x in program.instructions.iter().flat_map(|i| &i.xfers) {
        if let TransferKind::LoadVar { addr, name, .. }
        | TransferKind::StoreVar { addr, name, .. } = &x.kind
        {
            if name_at(&names, *addr)? != name {
                return fail(format!("`{name}` is not the variable at address {addr}"));
            }
        }
    }
    let (stream, _) = encode_packed(target, program)?;
    let mut e = Enc::new();
    e.put_u32(MAGIC);
    e.put_u8(VERSION);
    put_str(&mut e, &program.machine_name)?;
    e.put_u64(target.fingerprint());
    e.put_usize(program.var_addrs.len());
    for (name, addr) in &program.var_addrs {
        put_str(&mut e, name)?;
        e.put_i64(*addr);
    }
    e.put_usize(program.block_starts.len());
    for &start in &program.block_starts {
        e.put_usize(start);
    }
    e.put_usize(program.instructions.len());
    let mut bytes = e.into_bytes();
    bytes.extend_from_slice(&stream);
    Ok(bytes)
}

/// Load a binary written by [`assemble`] for `target` back into the exact
/// program, variable names, block starts and variable table included.
///
/// # Errors
///
/// Returns [`CodecError`] on any malformed input, and on a binary
/// assembled for a machine whose fingerprint differs from `target`'s.
pub fn disassemble(target: &Target, bytes: &[u8]) -> Result<VliwProgram, CodecError> {
    let mut d = Dec::new(bytes);
    if d.get_u32("magic")? != MAGIC {
        return fail("not an AVIV binary (bad magic)");
    }
    let version = d.get_u8("version")?;
    if version != VERSION {
        return fail(format!(
            "unsupported version {version} (expected {VERSION})"
        ));
    }
    let machine_name = d.get_str("machine name")?;
    if d.get_u64("target fingerprint")? != target.fingerprint() {
        let this = &target.machine.name;
        return fail(format!(
            "`{machine_name}` binary is for a different machine than `{this}`"
        ));
    }
    // A variable is at least a string length and an address.
    let n = get_count(&mut d, 4 + 8, "variable count")?;
    let mut var_addrs = Vec::with_capacity(n);
    for _ in 0..n {
        var_addrs.push((d.get_str("variable name")?, d.get_i64("variable address")?));
    }
    let n = get_count(&mut d, 8, "block count")?;
    let mut block_starts = Vec::with_capacity(n);
    for _ in 0..n {
        block_starts.push(d.get_u64("block start")? as usize);
    }
    let count = d.get_u64("instruction count")?;
    let count = usize::try_from(count).unwrap_or(usize::MAX);
    let mut instructions = decode_packed(target, &bytes[d.offset()..], count)?;
    let names = var_names(&var_addrs)?;
    for x in instructions.iter_mut().flat_map(|i| &mut i.xfers) {
        if let TransferKind::LoadVar { addr, name, .. }
        | TransferKind::StoreVar { addr, name, .. } = &mut x.kind
        {
            name_at(&names, *addr)?.clone_into(name);
        }
    }
    Ok(VliwProgram {
        machine_name,
        instructions,
        block_starts,
        var_addrs,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use aviv::CodeGenerator;
    use aviv_ir::parse_function;
    use aviv_isdl::archs;

    fn compile(src: &str, machine: aviv_isdl::Machine) -> (CodeGenerator, VliwProgram) {
        let f = parse_function(src).unwrap();
        let gen = CodeGenerator::new(machine);
        let (program, _) = gen.compile_function(&f).unwrap();
        (gen, program)
    }

    /// Round-trip the ROM stream and the whole binary; returns the ROM
    /// bits.
    fn round_trip(src: &str, machine: aviv_isdl::Machine) -> usize {
        let (gen, program) = compile(src, machine);
        let (bytes, bits) = encode_packed(gen.target(), &program).unwrap();
        assert!(bits <= bytes.len() * 8 && bytes.len() * 8 < bits + 8);
        let decoded = decode_packed(gen.target(), &bytes, program.instructions.len()).unwrap();
        assert_eq!(decoded.len(), program.instructions.len());
        let binary = assemble(gen.target(), &program).unwrap();
        assert!(binary.ends_with(&bytes));
        assert_eq!(disassemble(gen.target(), &binary).unwrap(), program);
        bits
    }

    #[test]
    fn packed_round_trips_programs() {
        let bits = round_trip(
            "func f(a, b, c) { x = (a + b) * c; if (x > 10) goto big; x = 0 - x; big: return x; }",
            archs::example_arch(4),
        );
        assert!(bits > 0);
    }

    #[test]
    fn packed_round_trips_mac_and_memory() {
        round_trip(
            "func f(a, b, c, p) { x = a * b + c; mem[p] = x; y = mem[p + 1]; return y; }",
            archs::dsp_arch(4),
        );
    }

    #[test]
    fn packed_instructions_take_a_few_dozen_bits() {
        let (gen, program) = compile(
            "func f(a, b, c, d) { x = (a + b) * (c - d); y = x + a; out = y; }",
            archs::example_arch(4),
        );
        let (_, bits) = encode_packed(gen.target(), &program).unwrap();
        // A Fig. 3-style machine: each instruction fits in a few dozen
        // bits.
        let per_inst = bits / program.instructions.len();
        assert!(per_inst < 96, "{per_inst} bits per instruction");
    }

    #[test]
    fn large_immediates_use_the_escape() {
        round_trip(
            "func f(a) { x = a + 1000000; return x; }",
            archs::example_arch(4),
        );
    }

    #[test]
    fn truncated_stream_is_rejected() {
        let (gen, program) = compile(
            "func f(a, b) { x = a * b; return x; }",
            archs::example_arch(4),
        );
        let (bytes, _) = encode_packed(gen.target(), &program).unwrap();
        let truncated = &bytes[..bytes.len() / 2];
        assert!(decode_packed(gen.target(), truncated, program.instructions.len()).is_err());
        // So is a stream with a byte to spare.
        let mut longer = bytes.clone();
        longer.push(0);
        assert!(decode_packed(gen.target(), &longer, program.instructions.len()).is_err());
    }

    #[test]
    fn counts_the_stream_cannot_hold_are_refused_before_allocating() {
        let target = Target::new(archs::example_arch(4));
        let e = decode_packed(&target, &[0; 4], usize::MAX).unwrap_err();
        assert!(e.msg.contains("cannot fit"), "{e}");
    }

    /// A hand-built program whose fields exceed the machine: each must be
    /// refused, where a truncating writer would emit a wrong ROM image.
    /// Three-register banks make register 3 fit its 2-bit field while
    /// naming no register.
    #[test]
    fn fields_that_do_not_fit_are_refused() {
        let target = Target::new(archs::example_arch(3));
        let m = &target.machine;
        let bank = m.units()[0].bank;
        let size = m.banks()[bank.index()].size;
        let bus = BusId(0);
        let reg = |index| Reg { bank, index };
        let program = |inst: VliwInstruction| VliwProgram {
            machine_name: m.name.clone(),
            instructions: vec![inst],
            block_starts: vec![0],
            var_addrs: vec![],
        };
        let mov = |from, to| TransferOp {
            bus,
            kind: TransferKind::Move { from, to },
        };
        let mut ok = VliwInstruction::nop(m.units().len());
        ok.xfers.push(mov(reg(0), reg(size - 1)));
        assert!(encode_packed(&target, &program(ok.clone())).is_ok());

        let mut past_bank = ok.clone();
        past_bank.xfers[0] = mov(reg(0), reg(size));
        let e = encode_packed(&target, &program(past_bank)).unwrap_err();
        assert!(e.msg.contains("beyond bank"), "{e}");

        let capacity: u32 = m.buses().iter().map(|b| b.capacity).sum();
        let mut crowded = ok.clone();
        crowded.xfers = (0..=capacity).map(|_| mov(reg(0), reg(1))).collect();
        let e = encode_packed(&target, &program(crowded)).unwrap_err();
        assert!(e.msg.contains("transfers exceed"), "{e}");

        let mut no_bus = ok.clone();
        no_bus.xfers[0].bus = BusId(m.buses().len() as u32);
        assert!(encode_packed(&target, &program(no_bus)).is_err());

        let mut no_bank = ok;
        no_bank.xfers[0] = mov(
            reg(0),
            Reg {
                bank: BankId(m.banks().len() as u32),
                index: 0,
            },
        );
        assert!(encode_packed(&target, &program(no_bank)).is_err());
    }

    #[test]
    fn variable_names_must_match_their_addresses() {
        let (gen, program) = compile(
            "func f(a, b) { x = a + b; return x; }",
            archs::example_arch(4),
        );
        let mut renamed = program.clone();
        for x in renamed.instructions.iter_mut().flat_map(|i| &mut i.xfers) {
            if let TransferKind::LoadVar { name, .. } = &mut x.kind {
                name.push('_');
            }
        }
        assert!(assemble(gen.target(), &renamed).is_err());
        let mut aliased = program;
        aliased.var_addrs[1].1 = aliased.var_addrs[0].1;
        let e = assemble(gen.target(), &aliased).unwrap_err();
        assert!(e.msg.contains("names both"), "{e}");
    }

    #[test]
    fn binaries_load_only_on_their_machine() {
        let (gen, program) = compile(
            "func f(a, b) { x = a * b; return x; }",
            archs::example_arch(4),
        );
        let binary = assemble(gen.target(), &program).unwrap();
        let other = Target::new(archs::example_arch(2));
        let e = disassemble(&other, &binary).unwrap_err();
        assert!(e.msg.contains("different machine"), "{e}");
    }

    /// The 15-byte input that aborted the byte-format loader: version 1,
    /// empty name and tables, and `u32::MAX` instructions.
    #[test]
    fn hostile_instruction_count_is_an_error() {
        let target = Target::new(archs::example_arch(4));
        let old = b"AVIV\x01\x00\x00\x00\x00\x00\x00\xff\xff\xff\xff";
        assert_eq!(old.len(), 15);
        assert!(disassemble(&target, old).is_err());
        // The same claim in a well-formed version-2 header.
        let mut e = Enc::new();
        e.put_u32(MAGIC);
        e.put_u8(VERSION);
        e.put_str(&target.machine.name);
        e.put_u64(target.fingerprint());
        e.put_u64(u64::MAX); // variables
        let err = disassemble(&target, &e.into_bytes()).unwrap_err();
        assert!(err.msg.contains("variable count"), "{err}");
        let mut e = Enc::new();
        e.put_u32(MAGIC);
        e.put_u8(VERSION);
        e.put_str(&target.machine.name);
        e.put_u64(target.fingerprint());
        e.put_u64(0); // variables
        e.put_u64(0); // blocks
        e.put_u64(u64::from(u32::MAX)); // instructions
        let err = disassemble(&target, &e.into_bytes()).unwrap_err();
        assert!(err.msg.contains("cannot fit"), "{err}");
    }
}
