//! Planted defects: one per pipeline-invariant check. Each case starts
//! from a valid compiled block, breaks one property of its
//! schedule or cover graph, and requires both [`verify_stage`] and
//! [`verify_block`] to report it under its code and element.

use aviv::covergraph::{CnId, CoverGraph};
use aviv::{
    verify_block, verify_stage, CodeGenerator, CodegenOptions, Schedule, Stage, StageState,
};
use aviv_ir::{parse_function, BlockDag, MemLayout, Op};
use aviv_isdl::{archs, Machine, MachineBuilder, SlotPattern, Target};
use aviv_splitdag::SplitNodeDag;
use aviv_verify::{Code, Diagnostic};

/// The running example: three loads, an add, a multiply and three
/// stores on Fig. 3's machine (capacity-1 bus, so one transfer a step).
const CHAIN: &str = "func f(a, b, c) { t = a + b; u = t * c; out = u; }";
/// Three independent adds feeding a product: values cross from U3's
/// bank to U2's through a `Move`, and U3 runs two adds.
const WIDE: &str = "func f(a, b, c, d, e, g) { x = a + b; y = c + d; z = e + g; out = x * y * z; }";
/// Two independent multiplies and their sum.
const PAIR: &str = "func f(a, b, c, d) { x = a * b; y = c * d; out = x + y; }";

/// A compiled block with everything the verifier reads.
struct Block {
    dag: BlockDag,
    sndag: SplitNodeDag,
    target: Target,
    graph: CoverGraph,
    schedule: Schedule,
    alloc: aviv::regalloc::Allocation,
}

impl Block {
    fn compile(src: &str, machine: Machine) -> Block {
        let f = parse_function(src).unwrap();
        let gen = CodeGenerator::new(machine).options(CodegenOptions::heuristics_on());
        let mut syms = f.syms.clone();
        let mut layout = MemLayout::for_function(&f);
        let dag = f.blocks[0].dag.clone();
        let r = gen.compile_block(&dag, &mut syms, &mut layout).unwrap();
        let target = gen.target().clone();
        let sndag = SplitNodeDag::build(&dag, &target).unwrap();
        let block = Block {
            dag,
            sndag,
            target,
            graph: r.graph,
            schedule: r.schedule,
            alloc: r.alloc,
        };
        let clean = block.verify_block(&block.target);
        assert!(clean.is_empty(), "{src}: unplanted block fails: {clean:?}");
        block
    }

    fn state<'a>(&'a self, target: &'a Target) -> StageState<'a> {
        StageState {
            dag: Some(&self.dag),
            sndag: Some(&self.sndag),
            graph: Some(&self.graph),
            schedule: Some(&self.schedule),
            alloc: Some(&self.alloc),
            ..StageState::new(target)
        }
    }

    fn verify_block(&self, target: &Target) -> Vec<Diagnostic> {
        verify_block(
            target,
            &self.dag,
            &self.sndag,
            &self.graph,
            &self.schedule,
            &self.alloc,
        )
    }

    /// The step holding `id` (its first, if planted twice).
    fn step_of(&self, id: CnId) -> usize {
        self.schedule
            .steps
            .iter()
            .position(|s| s.contains(&id))
            .unwrap_or_else(|| panic!("{id} is not scheduled"))
    }

    /// Move `id` from its step to step `to`.
    fn move_to(&mut self, id: CnId, to: usize) {
        let from = self.step_of(id);
        self.schedule.steps[from].retain(|&n| n != id);
        self.schedule.steps[to].push(id);
    }
}

/// Two multipliers behind a wide bus; with `constrained`, an ISDL
/// constraint forbids U1 multiplying while the bus carries a transfer.
fn mul_beside_transfer(constrained: bool) -> Machine {
    let mut b = MachineBuilder::new("C");
    let u1 = b.unit("U1", &[Op::Mul, Op::Add], 4);
    let u2 = b.unit("U2", &[Op::Mul, Op::Add], 4);
    let db = b.bus("DB", &[u1, u2], true, 4);
    if constrained {
        b.constraint(
            1,
            vec![
                SlotPattern::UnitOp {
                    unit: u1,
                    op: Some(Op::Mul),
                },
                SlotPattern::BusUse { bus: db },
            ],
        );
    }
    b.build().unwrap()
}

/// A diagnostic's code, element and part of its message.
type Finding = (Code, &'static str, &'static str);

/// One planted defect.
struct Case {
    name: &'static str,
    src: &'static str,
    machine: fn() -> Machine,
    /// Break one property of the compiled block.
    plant: fn(&mut Block),
    /// Verify against this machine instead of the compiling one.
    check_against: Option<fn() -> Machine>,
    /// The stage whose slice reports the defect.
    stage: Stage,
    /// The findings, as `(code, element, part of the message)`;
    /// `verify_stage(stage)` must report the first, `verify_block` all.
    expect: &'static [Finding],
}

fn example() -> Machine {
    archs::example_arch(4)
}

fn cases() -> Vec<Case> {
    vec![
        Case {
            name: "live value node left unscheduled",
            src: CHAIN,
            machine: example,
            plant: |b| {
                let t = b.step_of(CnId(0));
                b.schedule.steps[t].retain(|&n| n != CnId(0));
            },
            check_against: None,
            stage: Stage::Cover,
            expect: &[
                (
                    Code::V001,
                    "cover node c0",
                    "live cover node never scheduled",
                ),
                (Code::V006, "register allocation", "c0 is never scheduled"),
            ],
        },
        Case {
            name: "dead node scheduled",
            src: CHAIN,
            machine: example,
            plant: |b| {
                // The final store has no consumer, so killing it breaks
                // nothing but the schedule's liveness.
                let last = *b.schedule.steps.last().unwrap().last().unwrap();
                b.graph.kill(last);
                b.graph.rebuild_indexes();
            },
            check_against: None,
            stage: Stage::Cover,
            expect: &[(Code::V001, "cover node c7", "dead cover node appears")],
        },
        Case {
            name: "node scheduled twice",
            src: CHAIN,
            machine: example,
            plant: |b| b.schedule.steps.push(vec![CnId(7)]),
            check_against: None,
            stage: Stage::Cover,
            expect: &[(Code::V001, "cover node c7", "scheduled more than once")],
        },
        Case {
            name: "predecessor in the same step",
            src: CHAIN,
            machine: example,
            plant: |b| {
                let t = b.step_of(CnId(2));
                b.move_to(CnId(4), t);
            },
            check_against: None,
            stage: Stage::Cover,
            expect: &[
                (
                    Code::V001,
                    "cover node c4",
                    "dependency c2 at step 2 does not strictly precede step 2",
                ),
                (Code::V003, "step 2", "c2 and c4 are data-dependent"),
            ],
        },
        Case {
            name: "predecessor in a later step",
            src: CHAIN,
            machine: example,
            plant: |b| {
                let t = b.step_of(CnId(4));
                b.move_to(CnId(2), t + 1);
            },
            check_against: None,
            stage: Stage::Cover,
            expect: &[(
                Code::V001,
                "cover node c4",
                "dependency c2 at step 4 does not strictly precede step 3",
            )],
        },
        Case {
            name: "two operations on one unit",
            src: WIDE,
            machine: example,
            plant: |b| {
                // c2 and c5 both add on U3; c2's consumers come later.
                let t = b.step_of(CnId(5));
                b.move_to(CnId(2), t);
            },
            check_against: None,
            stage: Stage::Cliques,
            expect: &[(
                Code::V003,
                "step 4",
                "unit U3 issues two operations in one instruction",
            )],
        },
        Case {
            name: "bus over capacity",
            src: CHAIN,
            machine: example,
            plant: |b| b.move_to(CnId(1), 0),
            check_against: None,
            stage: Stage::Cliques,
            expect: &[(
                Code::V003,
                "step 0",
                "bus DB carries more transfers than its capacity 1",
            )],
        },
        Case {
            name: "at_most constraint exceeded",
            src: PAIR,
            // Scheduled without the constraint, step 2 holds a multiply
            // on U1 and a store on the bus; the constraint forbids that.
            machine: || mul_beside_transfer(false),
            plant: |_| {},
            check_against: Some(|| mul_beside_transfer(true)),
            stage: Stage::Cliques,
            expect: &[(
                Code::V003,
                "step 2",
                "constraint #0 allows 1 concurrent members but 2 are scheduled",
            )],
        },
        Case {
            name: "bank over capacity",
            src: WIDE,
            machine: example,
            plant: |_| {},
            check_against: Some(|| archs::example_arch(2)),
            stage: Stage::Cover,
            expect: &[(
                Code::V004,
                "step 3, bank RF3",
                "3 simultaneously live values exceed the bank's 2 registers",
            )],
        },
        Case {
            name: "operand read from the wrong bank",
            src: WIDE,
            machine: example,
            plant: |b| {
                // Bypass the Move that ferries the product into U1's bank.
                b.graph.rewire_all(CnId(10), CnId(9));
                b.graph.rebuild_indexes();
            },
            check_against: None,
            stage: Stage::Cover,
            expect: &[(Code::V002, "cover graph", "operand c9 in")],
        },
        Case {
            name: "DAG operation left uncovered",
            src: CHAIN,
            machine: example,
            plant: |b| {
                // Drop the multiply and the two stores reading it.
                for id in [CnId(4), CnId(6), CnId(7)] {
                    let t = b.step_of(id);
                    b.schedule.steps[t].retain(|&n| n != id);
                    b.graph.kill(id);
                }
                b.graph.rebuild_indexes();
            },
            check_against: None,
            stage: Stage::Cover,
            expect: &[(Code::V001, "node n4", "covered only by dead node c4")],
        },
    ]
}

fn reports(diags: &[Diagnostic], (code, element, message): Finding) -> bool {
    diags
        .iter()
        .any(|d| d.code == code && d.element == element && d.message.contains(message))
}

#[test]
fn every_planted_defect_is_reported_under_its_code() {
    for case in cases() {
        let mut block = Block::compile(case.src, (case.machine)());
        (case.plant)(&mut block);
        let target = match case.check_against {
            Some(machine) => Target::new(machine()),
            None => block.target.clone(),
        };
        let staged = verify_stage(case.stage, &block.state(&target));
        assert!(
            reports(&staged, case.expect[0]),
            "{}: verify_stage({:?}) missed {:?}: {staged:#?}",
            case.name,
            case.stage,
            case.expect[0]
        );
        let whole = block.verify_block(&target);
        for &want in case.expect {
            assert!(
                reports(&whole, want),
                "{}: verify_block missed {want:?}: {whole:#?}",
                case.name
            );
        }
    }
}
