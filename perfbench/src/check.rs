//! The output-correctness gate: generated code simulated on `aviv_vm`
//! against `aviv_ir`'s interpreter, which is independent of the code
//! generator.

use aviv::VliwProgram;
use aviv_ir::{Function, Interpreter, MemLayout};
use aviv_isdl::Target;
use aviv_vm::Simulator;

/// Run `program` and the interpreter on `args`; the return value and
/// every named variable must agree. Returns the simulated cycle count.
pub fn simulate(
    f: &Function,
    target: &Target,
    program: &VliwProgram,
    args: &[i64],
) -> Result<u64, String> {
    let layout = MemLayout::for_function(f);
    let mut interp = Interpreter::with_layout(f, layout.clone());
    interp.args(args);
    let expected = interp.run().map_err(|e| format!("interpreter: {e}"))?;
    let mut sim = Simulator::new(target, program);
    for (&p, &v) in f.params.iter().zip(args) {
        sim.poke(layout.addr(p), v);
    }
    let got = sim.run().map_err(|e| format!("simulator: {e}"))?;
    if got.return_value != expected.return_value {
        return Err(format!(
            "return value: interpreter {:?}, simulator {:?}",
            expected.return_value, got.return_value
        ));
    }
    for (sym, name) in f.syms.iter() {
        if name.starts_with("__") {
            continue;
        }
        let addr = layout.addr(sym);
        let (want, have) = (expected.memory.get(&addr), got.memory.get(&addr));
        if want.copied().unwrap_or(0) != have.copied().unwrap_or(0) {
            return Err(format!(
                "variable {name}: interpreter {want:?}, simulator {have:?}"
            ));
        }
    }
    Ok(got.cycles as u64)
}
