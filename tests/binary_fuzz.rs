//! The binary container under hostile input. `avivc --emit bin` writes
//! files that [`aviv_vm::disassemble`] reads back, and a file can be cut
//! short, corrupted or forged. The loader's contract: every input yields
//! either an error or a program that re-assembles to exactly the input
//! bytes — never a panic, and never an allocation sized by a forged
//! count.
//!
//! The corpus is every bundled machine × program, compiled with the
//! default preset, with the heuristics off and by the phase-ordered
//! baseline. Each binary is first checked to round-trip exactly,
//! then truncated at every length, bit-flipped, and given random and
//! extreme values in every count and length field of its header. The
//! generator is a seeded xorshift so failures replay exactly.

use aviv::{CodeGenerator, CodegenOptions, VliwProgram};
use aviv_ir::parse_function;
use aviv_isdl::{parse_machine, Target};
use aviv_vm::{assemble, disassemble};

/// Deterministic xorshift64* — no dependency, stable across platforms,
/// failures reproduce from the printed seed.
struct Rng(u64);

impl Rng {
    fn new(seed: u64) -> Rng {
        Rng(seed.max(1))
    }

    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.0 = x;
        x.wrapping_mul(0x2545_f491_4f6c_dd1d)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n.max(1) as u64) as usize
    }
}

fn asset(name: &str) -> String {
    std::fs::read_to_string(format!("{}/assets/{name}", env!("CARGO_MANIFEST_DIR")))
        .unwrap_or_else(|e| panic!("cannot read bundled asset {name}: {e}"))
}

/// Every bundled pair's programs with their targets, labelled.
fn corpus() -> Vec<(String, Target, VliwProgram)> {
    let mut out = Vec::new();
    for mn in ["fig3.isdl", "archII.isdl", "dsp_mac.isdl"] {
        let machine = parse_machine(&asset(mn)).expect("bundled machine parses");
        for pn in ["dot4.av", "sum_loop.av"] {
            let f = parse_function(&asset(pn)).expect("bundled program parses");
            let baseline = CodegenOptions {
                phase_ordered: true,
                ..CodegenOptions::heuristics_on()
            };
            for (preset, options) in [
                ("on", CodegenOptions::heuristics_on()),
                ("off", CodegenOptions::heuristics_off()),
                ("baseline", baseline),
            ] {
                let gen = CodeGenerator::new(machine.clone()).options(options);
                let (program, _) = gen
                    .compile_function(&f)
                    .unwrap_or_else(|e| panic!("{mn}×{pn}: {e}"));
                out.push((
                    format!("{mn}×{pn} preset {preset}"),
                    gen.target().clone(),
                    program,
                ));
            }
        }
    }
    out
}

/// The loader's contract on one input; true when it loaded.
fn load_is_exact_or_an_error(context: &str, target: &Target, input: &[u8]) -> bool {
    let Ok(program) = disassemble(target, input) else {
        return false;
    };
    let again = assemble(target, &program)
        .unwrap_or_else(|e| panic!("{context}: loaded a program that does not assemble: {e}"));
    assert_eq!(
        again, input,
        "{context}: loaded a program that re-assembles differently"
    );
    true
}

/// Byte offsets and widths of every count or length field in a
/// well-formed container: the machine-name length, the variable count,
/// each variable name's length, the block count and the instruction
/// count.
fn count_fields(bytes: &[u8]) -> Vec<(usize, usize)> {
    let len_at = |at: usize| u32::from_le_bytes(bytes[at..at + 4].try_into().unwrap()) as usize;
    let count_at = |at: usize| u64::from_le_bytes(bytes[at..at + 8].try_into().unwrap()) as usize;
    let mut fields = vec![(5, 4)];
    let mut at = 5 + 4 + len_at(5) + 8; // magic, version, name, fingerprint
    fields.push((at, 8));
    let n_vars = count_at(at);
    at += 8;
    for _ in 0..n_vars {
        fields.push((at, 4));
        at += 4 + len_at(at) + 8;
    }
    fields.push((at, 8));
    at += 8 + 8 * count_at(at);
    fields.push((at, 8));
    fields
}

#[test]
fn bundled_pairs_round_trip_exactly() {
    let corpus = corpus();
    // 3 machines × 2 programs × (2 presets and the baseline).
    assert_eq!(corpus.len(), 18);
    for (context, target, program) in &corpus {
        let bytes = assemble(target, program).unwrap_or_else(|e| panic!("{context}: {e}"));
        let back = disassemble(target, &bytes).unwrap_or_else(|e| panic!("{context}: {e}"));
        assert_eq!(&back, program, "{context}");
    }
    // A binary loads only on the machine it was assembled for.
    let (_, fig3, program) = &corpus[0];
    let bytes = assemble(fig3, program).unwrap();
    for (context, other, _) in &corpus {
        if other.fingerprint() != fig3.fingerprint() {
            assert!(disassemble(other, &bytes).is_err(), "{context}");
        }
    }
}

#[test]
fn truncations_are_errors() {
    for (context, target, program) in corpus() {
        let bytes = assemble(&target, &program).unwrap();
        for cut in 0..bytes.len() {
            assert!(
                disassemble(&target, &bytes[..cut]).is_err(),
                "{context}: cut at {cut}"
            );
        }
    }
}

#[test]
fn seeded_bit_flips_load_exactly_or_fail() {
    let mut rng = Rng::new(0x5eed_b175);
    let mut loaded = 0;
    for (context, target, program) in corpus() {
        let bytes = assemble(&target, &program).unwrap();
        for round in 0..1000 {
            let mut input = bytes.clone();
            for _ in 0..=rng.below(3) {
                let bit = rng.below(input.len() * 8);
                input[bit / 8] ^= 1 << (bit % 8);
            }
            let context = format!("{context} flip round {round}");
            loaded += usize::from(load_is_exact_or_an_error(&context, &target, &input));
        }
    }
    // Flips of register, immediate and address bits make other valid
    // programs: the property is exercised past the header.
    assert!(loaded > 0, "no flipped binary loaded");
}

#[test]
fn forged_counts_and_lengths_load_exactly_or_fail() {
    let mut rng = Rng::new(0xc0_ffee);
    for (context, target, program) in corpus() {
        let bytes = assemble(&target, &program).unwrap();
        for (at, width) in count_fields(&bytes) {
            let real = bytes[at..at + width]
                .iter()
                .rev()
                .fold(0u64, |v, &b| v << 8 | u64::from(b));
            let max = u64::MAX >> (64 - 8 * width);
            let forged = [
                0,
                1,
                real.wrapping_sub(1) & max,
                real.wrapping_add(1) & max,
                max,
                max / 2,
                1 << 24,
                rng.next() & max,
                rng.below(1 << 16) as u64,
            ];
            for v in forged {
                let mut input = bytes.clone();
                input[at..at + width].copy_from_slice(&v.to_le_bytes()[..width]);
                let ctx = format!("{context}: field at byte {at} = {v}");
                if v == real {
                    assert_eq!(disassemble(&target, &input).unwrap(), program, "{ctx}");
                } else {
                    load_is_exact_or_an_error(&ctx, &target, &input);
                }
            }
        }
    }
}
