//! The workloads' inputs: machine and program source bytes, generated
//! from the workload seed. The program under test sees only these bytes.

use aviv_ir::Function;
use aviv_isdl::{archs, to_isdl, Machine, Target};
use std::path::Path;

/// One program × machine compile, as source bytes plus the arguments
/// its generated code is simulated on.
#[derive(Debug, Clone)]
pub struct Pair {
    /// `program@machine`, for messages.
    pub name: String,
    pub machine_src: String,
    pub program_src: String,
    pub args: Vec<i64>,
}

/// SplitMix64: a tiny, stable generator for everything the seed decides.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed ^ 0x5DEE_CE66_D1CE_4E5D)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `lo..=hi`.
    pub fn range(&mut self, lo: i64, hi: i64) -> i64 {
        lo + (self.next_u64() % (hi - lo + 1) as u64) as i64
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

/// The machines the DSP kernels are retargeted to (the kernel table's
/// columns).
fn kernel_machines() -> Vec<Machine> {
    vec![
        archs::example_arch(4),
        archs::arch_two(4),
        archs::dsp_arch(4),
        archs::wide_arch(4),
        archs::single_alu(6),
    ]
}

/// Whether `target` implements every operation of `f`.
fn implements(f: &Function, target: &Target) -> bool {
    f.blocks
        .iter()
        .all(|b| aviv_splitdag::SplitNodeDag::build(&b.dag, target).is_ok())
}

fn read(root: &Path, rel: &str) -> String {
    std::fs::read_to_string(root.join(rel)).unwrap_or_else(|e| panic!("{rel}: {e}"))
}

/// Randomly drawn blocks per sweep, and their size in operations.
pub const RANDDAG_BLOCKS: usize = 4;
pub const RANDDAG_OPS: usize = 8;

/// `sweep-kernels`: the retargeting sweep. Every DSP kernel on every
/// kernel machine that implements it, the two bundled programs on the
/// three bundled machines, and [`RANDDAG_BLOCKS`] seeded random blocks
/// on the Example machine.
pub fn kernel_sweep(root: &Path, seed: u64) -> Vec<Pair> {
    let mut rng = Rng::new(seed);
    let mut pairs = Vec::new();
    for machine in kernel_machines() {
        let target = Target::new(machine.clone());
        let machine_src = to_isdl(&machine);
        for k in aviv_bench::all_kernels() {
            if implements(&k.function(), &target) {
                pairs.push(Pair {
                    name: format!("{}@{}", k.name, machine.name),
                    machine_src: machine_src.clone(),
                    program_src: k.source.to_string(),
                    args: k.args.iter().map(|_| rng.range(-50, 50)).collect(),
                });
            }
        }
    }
    for m in ["archII", "dsp_mac", "fig3"] {
        let machine_src = read(root, &format!("assets/{m}.isdl"));
        pairs.push(Pair {
            name: format!("dot4.av@{m}"),
            machine_src: machine_src.clone(),
            program_src: read(root, "assets/dot4.av"),
            args: (0..8).map(|_| rng.range(-50, 50)).collect(),
        });
        // The loop's trip count sets its cycle count; it stays fixed so
        // `code_cycles` depends on the generated code alone.
        pairs.push(Pair {
            name: format!("sum_loop.av@{m}"),
            machine_src,
            program_src: read(root, "assets/sum_loop.av"),
            args: vec![10],
        });
    }
    let example = to_isdl(&archs::example_arch(4));
    let cfg = aviv_bench::compare::example_arch_rand_config(RANDDAG_OPS);
    for i in 0..RANDDAG_BLOCKS {
        let block_seed = rng.next_u64();
        let f = aviv_ir::randdag::random_block(&cfg, block_seed);
        pairs.push(Pair {
            name: format!("rand{RANDDAG_OPS}#{i}@Example"),
            machine_src: example.clone(),
            program_src: aviv_ir::to_source(&f),
            args: f.params.iter().map(|_| rng.range(-50, 50)).collect(),
        });
    }
    pairs
}

/// `sweep-exhaustive`: `dot4` on the Example machine; the seed draws the
/// simulation arguments only.
pub fn exhaustive(seed: u64) -> Vec<Pair> {
    let mut rng = Rng::new(seed);
    let machine = archs::example_arch(4);
    vec![Pair {
        name: format!("dot4@{}", machine.name),
        machine_src: to_isdl(&machine),
        program_src: aviv_bench::kernels::DOT4.source.to_string(),
        args: (0..8).map(|_| rng.range(-50, 50)).collect(),
    }]
}
