//! A suite of real DSP kernels — the application domain the paper's
//! introduction motivates ("generic basic blocks that occur in DSP
//! application code"). Each kernel is a straight-line block (or a loop
//! prepared with the front end's unroller) used by the kernel-table
//! binary, the differential tests, the search pin, and `perfbench`.

use aviv_ir::{parse_function, Function};

/// One DSP kernel workload.
#[derive(Debug, Clone)]
pub struct Kernel {
    /// Short name.
    pub name: &'static str,
    /// What it computes.
    pub description: &'static str,
    /// Source in the front-end language.
    pub source: &'static str,
    /// Representative argument values for differential testing.
    pub args: &'static [i64],
}

impl Kernel {
    /// Parse the kernel.
    pub fn function(&self) -> Function {
        parse_function(self.source).expect("bundled kernels parse")
    }
}

/// 4-tap dot product.
pub const DOT4: Kernel = Kernel {
    name: "dot4",
    description: "4-element dot product",
    source: "func dot4(x0, x1, x2, x3, y0, y1, y2, y3) {
        acc = x0 * y0 + x1 * y1;
        acc = acc + x2 * y2 + x3 * y3;
        return acc;
    }",
    args: &[1, 2, 3, 4, 5, 6, 7, 8],
};

/// Direct-form-I biquad IIR section.
pub const BIQUAD: Kernel = Kernel {
    name: "biquad",
    description: "biquad IIR filter section (direct form I)",
    source: "func biquad(x, x1, x2, y1, y2, b0, b1, b2, a1, a2) {
        acc = b0 * x + b1 * x1;
        acc = acc + b2 * x2;
        acc = acc - a1 * y1;
        acc = acc - a2 * y2;
        y = acc;
        x2n = x1;
        x1n = x;
        y2n = y1;
        return y;
    }",
    args: &[10, 8, 6, 4, 2, 3, -1, 2, 1, -2],
};

/// Complex multiply (a + bi)(c + di).
pub const CMUL: Kernel = Kernel {
    name: "cmul",
    description: "complex multiply: (a+bi)(c+di)",
    source: "func cmul(a, b, c, d) {
        re = a * c - b * d;
        im = a * d + b * c;
        return re + im;
    }",
    args: &[3, 4, 5, -2],
};

/// Radix-2 decimation-in-time butterfly (real arithmetic stand-in).
pub const BUTTERFLY: Kernel = Kernel {
    name: "butterfly",
    description: "radix-2 FFT butterfly (real twiddle)",
    source: "func butterfly(ar, ai, br, bi, wr, wi) {
        tr = br * wr - bi * wi;
        ti = br * wi + bi * wr;
        xr = ar + tr;
        xi = ai + ti;
        yr = ar - tr;
        yi = ai - ti;
        return xr + xi + yr + yi;
    }",
    args: &[1, 2, 3, 4, 2, 1],
};

/// Saturating-style vector scale-and-add (no saturation ops on the
/// machines; clamps with min/max).
pub const SAXPY_CLAMP: Kernel = Kernel {
    name: "saxpy_clamp",
    description: "scale-add with clamping via min/max",
    source: "func saxpy_clamp(a, x0, x1, y0, y1, lo, hi) {
        r0 = max(min(a * x0 + y0, hi), lo);
        r1 = max(min(a * x1 + y1, hi), lo);
        return r0 + r1;
    }",
    args: &[3, 10, -10, 5, -5, -20, 20],
};

/// Sum of absolute differences (motion-estimation inner step).
pub const SAD4: Kernel = Kernel {
    name: "sad4",
    description: "sum of absolute differences over 4 lanes",
    source: "func sad4(a0, a1, a2, a3, b0, b1, b2, b3) {
        s = abs(a0 - b0) + abs(a1 - b1);
        s = s + abs(a2 - b2) + abs(a3 - b3);
        return s;
    }",
    args: &[9, 2, 7, 4, 5, 6, 1, 8],
};

/// All bundled kernels.
pub fn all_kernels() -> Vec<Kernel> {
    vec![DOT4, BIQUAD, CMUL, BUTTERFLY, SAXPY_CLAMP, SAD4]
}

#[cfg(test)]
mod tests {
    use super::*;
    use aviv::CodegenOptions;
    use aviv_isdl::archs;
    use aviv_vm::check_function;

    #[test]
    fn kernels_parse_and_run() {
        for k in all_kernels() {
            let f = k.function();
            f.validate().unwrap();
            let r = aviv_ir::run_function(&f, k.args).unwrap();
            assert!(r.return_value.is_some(), "{}", k.name);
        }
    }

    /// Every kernel compiles and simulates faithfully on the machines
    /// that implement its operations.
    #[test]
    fn kernels_compile_faithfully() {
        for k in all_kernels() {
            let f = k.function();
            // wide_arch implements every operation (min/max/abs included).
            for machine in [archs::wide_arch(4), archs::single_alu(6)] {
                let name = machine.name.clone();
                check_function(&f, machine, CodegenOptions::heuristics_on(), k.args, &[])
                    .unwrap_or_else(|e| panic!("{} on {}: {e}", k.name, name));
            }
        }
    }

    /// The mul-heavy kernels also run on the paper's architectures.
    #[test]
    fn arithmetic_kernels_on_paper_archs() {
        for k in [DOT4, BIQUAD, CMUL, BUTTERFLY] {
            let f = k.function();
            for machine in [
                archs::example_arch(4),
                archs::arch_two(4),
                archs::dsp_arch(4),
            ] {
                let name = machine.name.clone();
                check_function(&f, machine, CodegenOptions::heuristics_on(), k.args, &[])
                    .unwrap_or_else(|e| panic!("{} on {}: {e}", k.name, name));
            }
        }
    }

    /// MAC fusion helps the multiply-accumulate kernels on the DSP.
    #[test]
    fn dot4_uses_macs_on_dsp() {
        use aviv::{CodeGenerator, SlotOpcode};
        let f = DOT4.function();
        let gen = CodeGenerator::new(archs::dsp_arch(4));
        let mut syms = f.syms.clone();
        let mut layout = aviv_ir::MemLayout::for_function(&f);
        let r = gen
            .compile_block(&f.blocks[0].dag, &mut syms, &mut layout)
            .unwrap();
        let macs = r
            .instructions
            .iter()
            .flat_map(|i| i.slots.iter().flatten())
            .filter(|s| matches!(s.opcode, SlotOpcode::Complex(_)))
            .count();
        assert!(macs >= 2, "expected MAC fusion, got {macs}");
    }
}
