//! The full Fig. 1 toolchain pass: source → compiler → assembler →
//! binary → instruction-level simulator, for a program with real control
//! flow and dynamic memory — then a differential check against the IR
//! interpreter.
//!
//! ```sh
//! cargo run --example simulate
//! ```

use aviv::CodeGenerator;
use aviv_ir::{parse_function, Interpreter, MemLayout};
use aviv_isdl::archs;
use aviv_vm::{assemble, disassemble, Simulator};

const SRC: &str = "func memsum(base, n) {
    s = 0;
    i = 0;
head:
    if (i >= n) goto done;
    s = s + mem[base + i];
    i = i + 1;
    goto head;
done:
    mem[base + n] = s;
    return s;
}";

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let f = parse_function(SRC)?;
    let gen = CodeGenerator::new(archs::example_arch(4));

    // Compile.
    let (program, report) = gen.compile_function(&f)?;
    println!("{}", program.render(gen.target()));
    println!(
        "{} instructions across {} blocks",
        report.total_instructions,
        report.blocks.len()
    );

    // Assemble to binary and load it back — the paper's ISDL-generated
    // assembler step, with field widths derived from the machine.
    let binary = assemble(gen.target(), &program)?;
    println!("assembled binary: {} bytes", binary.len());
    let loaded = disassemble(gen.target(), &binary)?;
    assert_eq!(program, loaded, "assembler round-trips losslessly");

    // Simulate the loaded binary.
    let base = 4096i64;
    let data = [5i64, 7, 11, 13];
    let mut sim = Simulator::new(gen.target(), &loaded);
    sim.set_var("base", base).set_var("n", data.len() as i64);
    for (i, &v) in data.iter().enumerate() {
        sim.poke(base + i as i64, v);
    }
    let sresult = sim.run()?;

    // Reference interpreter on the same inputs.
    let layout = MemLayout::for_function(&f);
    let mut interp = Interpreter::with_layout(&f, layout);
    interp.args(&[base, data.len() as i64]);
    for (i, &v) in data.iter().enumerate() {
        interp.poke(base + i as i64, v);
    }
    let iresult = interp.run()?;

    println!(
        "simulator: sum = {:?} in {} cycles; interpreter: sum = {:?}",
        sresult.return_value, sresult.cycles, iresult.return_value
    );
    assert_eq!(sresult.return_value, iresult.return_value);
    assert_eq!(
        sresult.memory.get(&(base + data.len() as i64)),
        iresult.memory.get(&(base + data.len() as i64)),
        "the store-back must agree"
    );
    println!("differential check passed: generated code is faithful.");
    Ok(())
}
