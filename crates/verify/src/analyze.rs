//! Machine×program feasibility analysis (`M` codes) and admissible
//! lower bounds.
//!
//! AVIV commits to a target machine before covering begins, so a whole
//! class of failures is statically decidable from the ISDL description
//! and the program DAG alone: IR operations no unit or complex pattern
//! can cover, def→use value routes with no transfer path between the
//! producer's and the consumer's register banks, and machines with no
//! memory port at all. This module decides those questions *before*
//! covering — [`analyze_machine`] summarises what a machine can do in
//! isolation, and [`analyze_program`] proves (or refutes, with
//! [`Code::M001`]/[`Code::M002`] diagnostics naming the exact node, op
//! and bank pair) that a specific program is compilable on it.
//!
//! Alongside the feasibility verdict, [`block_bounds`] computes two
//! *admissible* per-block lower bounds — a minimum instruction count
//! and a minimum register-pressure — that `CompileReport` surfaces next
//! to the achieved numbers so optimality gaps are visible per block.
//! They are reported only: the covering engine's lookahead cutoff uses
//! its own bound (remaining nodes over the largest clique in the pool),
//! not these.
//!
//! The analysis mirrors the default compilation pipeline: dead code is
//! eliminated exactly as `compile_function` does (every named variable
//! observable), and the coverability predicate is the same one the
//! split-node DAG builder enforces, so on any machine whose description
//! passes `check_machine` an M-error verdict and a compile failure
//! coincide.

use std::cell::RefCell;
use std::collections::BTreeSet;

use crate::diag::{json_escape, render_report, Code, Diagnostic, Format, Severity};
use crate::lint::lint_machine;
use aviv_ir::{BlockDag, Consumers, Function, NodeId, Op, Sym};
use aviv_isdl::{Location, Machine, Target};
use aviv_splitdag::{match_complexes, ComplexMatch};

/// How one IR operation kind can be implemented on a machine.
#[derive(Debug, Clone)]
pub struct OpCoverage {
    /// The IR operation.
    pub op: Op,
    /// Names of functional units that implement the op directly.
    pub units: Vec<String>,
    /// Names of complex instructions whose pattern is rooted at the op.
    pub complexes: Vec<String>,
}

impl OpCoverage {
    /// True when the op is only reachable as the root of a complex
    /// pattern — no unit implements it directly.
    pub fn pattern_only(&self) -> bool {
        self.units.is_empty() && !self.complexes.is_empty()
    }

    /// True when nothing on the machine can produce this op as a root.
    /// (The op may still appear *inside* a complex pattern.)
    pub fn uncovered(&self) -> bool {
        self.units.is_empty() && self.complexes.is_empty()
    }
}

/// One entry of the cross-location transfer closure: can a value move
/// from `from` to `to`, and at what minimum cost?
#[derive(Debug, Clone)]
pub struct Route {
    /// Source location name (`mem` for the memory).
    pub from: String,
    /// Destination location name.
    pub to: String,
    /// Minimum number of bus hops on a direct transfer path, if any
    /// exists (memory is never an intermediate hop).
    pub direct: Option<usize>,
    /// True when no direct path exists but the value can be staged
    /// through memory (spill + reload), which the covering engine can
    /// always insert explicitly.
    pub via_memory: bool,
}

impl Route {
    /// True when a value can move from `from` to `to` at all.
    pub fn routable(&self) -> bool {
        self.direct.is_some() || self.via_memory
    }
}

/// Machine-level feasibility summary: what the ISDL description can
/// cover and route, independent of any program.
#[derive(Debug, Clone)]
pub struct MachineAnalysis {
    /// Machine name from the description.
    pub machine: String,
    /// Coverability per computational op, in `Op::all_computational`
    /// order.
    pub coverage: Vec<OpCoverage>,
    /// Transfer-path closure over all ordered pairs of distinct
    /// storage locations.
    pub routes: Vec<Route>,
    /// Machine-description lints (`W` codes, including shadowed
    /// alternatives) — the same findings `lint_machine` reports.
    pub diagnostics: Vec<Diagnostic>,
}

/// Admissible per-block lower bounds plus the feasibility scan result.
#[derive(Debug, Clone)]
pub struct BlockAnalysis {
    /// Human-readable block name (same convention as `check_program`).
    pub name: String,
    /// Node count of the (post-DCE) block DAG.
    pub nodes: usize,
    /// Admissible lower bound on the emitted instruction count.
    pub min_instructions: usize,
    /// Admissible lower bound on peak single-bank register pressure.
    pub min_pressure: usize,
}

/// Program×machine feasibility verdict with per-block lower bounds.
#[derive(Debug, Clone)]
pub struct ProgramAnalysis {
    /// The machine-level summary the program was checked against.
    pub machine: MachineAnalysis,
    /// Function name.
    pub program: String,
    /// Per-block bounds, in block order, post dead-code elimination.
    pub blocks: Vec<BlockAnalysis>,
    /// Program-level `M` diagnostics (empty means provably compilable
    /// as far as coverability and routing are concerned).
    pub diagnostics: Vec<Diagnostic>,
}

impl ProgramAnalysis {
    /// True when no M-error was found: every node is coverable and
    /// every def→use route exists.
    pub fn feasible(&self) -> bool {
        !self
            .diagnostics
            .iter()
            .any(|d| d.severity() == Severity::Error)
    }
}

/// Summarise what a machine can cover and route, independent of any
/// program. Includes the `lint_machine` findings so shadowed or dead
/// alternatives surface in the same report.
pub fn analyze_machine(target: &Target) -> MachineAnalysis {
    let m = &target.machine;
    let coverage = Op::all_computational()
        .iter()
        .map(|&op| OpCoverage {
            op,
            units: target
                .ops
                .units_for(op)
                .iter()
                .map(|&u| m.units()[u.index()].name.clone())
                .collect(),
            complexes: target
                .ops
                .complexes_rooted_at(op)
                .iter()
                .map(|&ci| m.complexes()[ci].name.clone())
                .collect(),
        })
        .collect();

    let locations = m.locations();
    let mut routes = Vec::new();
    for &from in &locations {
        for &to in &locations {
            if from == to {
                continue;
            }
            let direct = target.xfers.cost(from, to);
            let via_memory = direct.is_none()
                && from != Location::Mem
                && to != Location::Mem
                && target.xfers.cost(from, Location::Mem).is_some()
                && target.xfers.cost(Location::Mem, to).is_some();
            routes.push(Route {
                from: loc_name(m, from),
                to: loc_name(m, to),
                direct,
                via_memory,
            });
        }
    }

    MachineAnalysis {
        machine: m.name.clone(),
        coverage,
        routes,
        diagnostics: lint_machine(m),
    }
}

/// Pre-flight a program against a machine: prove every (post-DCE) node
/// coverable and every def→use bank route feasible, and compute the
/// per-block lower bounds. M-errors name the exact block, node, op and
/// bank pair that make compilation impossible.
///
/// Dead code is eliminated first, with every named variable observable,
/// exactly as `compile_function` does under its default options — so
/// nodes the compiler never covers are never flagged.
pub fn analyze_program(f: &Function, target: &Target) -> ProgramAnalysis {
    let mut pruned = f.clone();
    let observable: Vec<Sym> = f.syms.iter().map(|(s, _)| s).collect();
    aviv_ir::opt::eliminate_dead_code(&mut pruned, &observable);
    let f = &pruned;

    let mut blocks = Vec::new();
    let mut diagnostics = Vec::new();
    for (bi, block) in f.blocks.iter().enumerate() {
        let name = match &block.label {
            Some(l) => format!("block '{}'", f.syms.name(*l)),
            None => format!("block bb{bi}"),
        };
        let dag = &block.dag;
        let matches = match_complexes(dag, target);
        check_block(dag, target, &matches, &name, f, &mut diagnostics);
        let (min_instructions, min_pressure) = block_bounds_from_matches(dag, target, &matches);
        blocks.push(BlockAnalysis {
            name,
            nodes: dag.len(),
            min_instructions,
            min_pressure,
        });
    }

    ProgramAnalysis {
        machine: analyze_machine(target),
        program: f.name.clone(),
        blocks,
        diagnostics,
    }
}

/// Admissible lower bounds for one block: `(min_instructions,
/// min_pressure)`.
///
/// `min_instructions` is the maximum of four relaxations, each of which
/// every legal schedule must satisfy:
///
/// * **critical path** — dependent non-interior operations, loads and
///   stores occupy strictly increasing steps (operands are read before
///   results are written within a step);
/// * **unit width** — each instruction executes at most one alternative
///   per unit and every alternative roots exactly one non-interior op,
///   so `ceil(ops / units)` instructions are needed;
/// * **sole unit** — ops implementable on exactly one unit serialise on
///   it, one per instruction;
/// * **bus traffic** — every load, store and provably-mandatory
///   cross-bank move occupies a bus slot, and an instruction offers at
///   most the sum of all bus capacities.
///
/// `min_pressure` bounds the peak single-bank register count: when an
/// op executes, all of its distinct register operands are live in its
/// unit's bank (minimised over complex alternatives that absorb
/// operands as pattern interiors).
///
/// Both bounds are deterministic functions of `(dag, target)` only, so
/// they may be recomputed for cached plans without changing output.
pub fn block_bounds(dag: &BlockDag, target: &Target) -> (usize, usize) {
    let matches = match_complexes(dag, target);
    block_bounds_from_matches(dag, target, &matches)
}

/// [`block_bounds`] of a block whose complex-instruction matches are
/// already known: `matches` must be what [`match_complexes`] finds on
/// `dag`, such as the matches of the block's Split-Node DAG, which the
/// compile driver passes instead of matching the block a second time.
///
/// The bounds are computed in buffers kept per thread, so once they
/// have grown to the largest block seen, this allocates nothing.
pub fn block_bounds_from_matches(
    dag: &BlockDag,
    target: &Target,
    matches: &[ComplexMatch],
) -> (usize, usize) {
    if dag.is_empty() {
        return (0, 0);
    }
    BOUNDS.with_borrow_mut(|scratch| scratch.bounds(dag, target, matches))
}

/// Buffers reused by every [`block_bounds_from_matches`] on a thread.
#[derive(Debug, Default)]
struct BoundsScratch {
    consumers: Consumers,
    /// Per node, whether some match swallows it as an interior.
    interior: Vec<bool>,
    /// The matches rooted at node `n` are `rooted[rooted_start[n]..
    /// rooted_start[n + 1]]`, in match order.
    rooted_start: Vec<u32>,
    rooted: Vec<u32>,
    /// Per unit, the ops only it can implement.
    sole: Vec<usize>,
    /// Per node, the critical-path length up to it.
    height: Vec<usize>,
    /// The units of the node at hand, one bit per unit.
    units: Vec<u64>,
    /// Per node, `bank_words` words: one bit per bank its value can be
    /// produced into (and read from, since every unit reads and writes
    /// its own register file). Filled for non-interior computational
    /// nodes only.
    banks: Vec<u64>,
}

thread_local! {
    static BOUNDS: RefCell<BoundsScratch> = RefCell::new(BoundsScratch::default());
}

impl BoundsScratch {
    fn bounds(
        &mut self,
        dag: &BlockDag,
        target: &Target,
        matches: &[ComplexMatch],
    ) -> (usize, usize) {
        let m = &target.machine;
        let n = dag.len();
        let n_units = m.units().len().max(1);
        let bus_slots: usize = m
            .buses()
            .iter()
            .map(|b| b.capacity as usize)
            .sum::<usize>()
            .max(1);
        let unit_words = m.units().len().div_ceil(64);
        let bank_words = m.banks().len().div_ceil(64);

        self.consumers.rebuild(dag);
        self.interior.clear();
        self.interior.resize(n, false);
        self.rooted_start.clear();
        self.rooted_start.resize(n + 1, 0);
        for mm in matches {
            self.rooted_start[mm.root.index() + 1] += 1;
            for &c in &mm.covers {
                if c != mm.root {
                    self.interior[c.index()] = true;
                }
            }
        }
        for i in 0..n {
            self.rooted_start[i + 1] += self.rooted_start[i];
        }
        self.rooted.clear();
        self.rooted.resize(matches.len(), 0);
        for (mi, mm) in matches.iter().enumerate() {
            let at = &mut self.rooted_start[mm.root.index()];
            self.rooted[*at as usize] = mi as u32;
            *at += 1;
        }
        self.rooted_start.copy_within(0..n, 1);
        self.rooted_start[0] = 0;
        self.sole.clear();
        self.sole.resize(m.units().len(), 0);
        self.height.clear();
        self.height.resize(n, 0);
        self.banks.clear();
        self.banks.resize(n * bank_words, 0);

        let mut unit_ops = 0usize; // non-interior computational ops
        let mut transfers = 0usize; // mandatory bus slots
        let mut pressure = 0usize;
        let mut critical_path = 0usize;

        for (id, node) in dag.iter() {
            let idx = id.index();
            let weight = match node.op {
                Op::Const => 0,
                Op::Input => {
                    // An input leaf forces a memory→bank load only when some
                    // consumer reads it from a register; a `StoreVar` of an
                    // input is a direct memory→memory move. The load itself
                    // is charged here; its serialisation before the consumer
                    // is deliberately not (weight 0 keeps the bound
                    // admissible for direct moves).
                    if self
                        .consumers
                        .of(id)
                        .iter()
                        .any(|&u| dag.node(u).op != Op::StoreVar)
                    {
                        transfers += 1;
                    }
                    0
                }
                Op::Load | Op::Store => {
                    transfers += 1;
                    pressure = pressure.max(distinct_reg_values(dag, &node.args));
                    1
                }
                Op::StoreVar => {
                    // `x = x` stores the unchanged value back to its own
                    // slot; nothing forces an instruction for it.
                    let arg = node.args[0];
                    let identity = dag.node(arg).op == Op::Input && dag.node(arg).sym == node.sym;
                    if identity {
                        0
                    } else {
                        transfers += 1;
                        // The stored value occupies one register unless it
                        // comes straight from memory or an immediate.
                        if !matches!(dag.node(arg).op, Op::Const | Op::Input) {
                            pressure = pressure.max(1);
                        }
                        1
                    }
                }
                _ if self.interior[idx] => 0,
                op => {
                    unit_ops += 1;
                    // Units that can produce `op` as a root: direct
                    // implementors plus the units of complex alternatives
                    // rooted at this node.
                    let rooted = &self.rooted
                        [self.rooted_start[idx] as usize..self.rooted_start[idx + 1] as usize];
                    self.units.clear();
                    self.units.resize(unit_words, 0);
                    let capable = target.ops.units_for(op).iter().copied().chain(
                        rooted
                            .iter()
                            .map(|&mi| m.complexes()[matches[mi as usize].complex].unit),
                    );
                    let banks = &mut self.banks[idx * bank_words..(idx + 1) * bank_words];
                    for u in capable {
                        set_bit(&mut self.units, u.index());
                        set_bit(banks, m.bank_of(u).index());
                    }
                    let count: u32 = self.units.iter().map(|w| w.count_ones()).sum();
                    if count == 1 {
                        if let Some(u) = first_bit(&self.units) {
                            self.sole[u] += 1;
                        }
                    }
                    // Distinct register operands, minimised over complex
                    // alternatives (a pattern can absorb repeated or
                    // interior operands).
                    let mut contribution = distinct_reg_values(dag, &node.args);
                    for &mi in rooted {
                        contribution = contribution
                            .min(distinct_reg_values(dag, &matches[mi as usize].operands));
                    }
                    pressure = pressure.max(contribution);
                    1
                }
            };
            let base = node
                .args
                .iter()
                .map(|&a| self.height[a.index()])
                .max()
                .unwrap_or(0);
            self.height[idx] = base + weight;
            critical_path = critical_path.max(self.height[idx]);
        }

        // Mandatory cross-bank moves: a computational producer none of
        // whose writable banks is readable by some consumer needs at least
        // one bus transfer, whichever alternatives covering picks. Counted
        // once per producer — a single move can serve several consumers.
        // Only non-interior computational nodes have banks, so the rest
        // neither force nor take a move.
        let banks_of = |i: usize| &self.banks[i * bank_words..(i + 1) * bank_words];
        for (id, _) in dag.iter() {
            let writes = banks_of(id.index());
            if writes.iter().all(|&w| w == 0) {
                continue; // none, or uncoverable: M001 territory, bounds are moot
            }
            let forced = self.consumers.of(id).iter().any(|&u| {
                let reads = banks_of(u.index());
                reads.iter().any(|&r| r != 0) && writes.iter().zip(reads).all(|(w, r)| w & r == 0)
            });
            if forced {
                transfers += 1;
            }
        }

        let width = unit_ops.div_ceil(n_units);
        let sole_bound = self.sole.iter().copied().max().unwrap_or(0);
        let bus_bound = transfers.div_ceil(bus_slots);
        let min_instructions = critical_path.max(width).max(sole_bound).max(bus_bound);
        (min_instructions, pressure)
    }
}

fn set_bit(words: &mut [u64], i: usize) {
    words[i / 64] |= 1 << (i % 64);
}

/// The lowest set bit of `words`.
fn first_bit(words: &[u64]) -> Option<usize> {
    words
        .iter()
        .position(|&w| w != 0)
        .map(|k| k * 64 + words[k].trailing_zeros() as usize)
}

/// Number of distinct non-constant values among `values`: the registers
/// a node's arguments, or a complex alternative's operands, occupy.
fn distinct_reg_values(dag: &BlockDag, values: &[NodeId]) -> usize {
    values
        .iter()
        .enumerate()
        .filter(|&(k, v)| dag.node(*v).op != Op::Const && !values[..k].contains(v))
        .count()
}

/// Units that can produce `op` as a root: direct implementors plus the
/// units of complex alternatives rooted at this node.
fn capable_units(
    target: &Target,
    op: Op,
    rooted: &[usize],
    matches: &[ComplexMatch],
) -> BTreeSet<u32> {
    let mut set: BTreeSet<u32> = target.ops.units_for(op).iter().map(|u| u.0).collect();
    for &mi in rooted {
        set.insert(target.machine.complexes()[matches[mi].complex].unit.0);
    }
    set
}

/// Banks a node's value can be produced into (equivalently, read from,
/// since every unit reads and writes its own register file).
fn capable_banks(
    target: &Target,
    op: Op,
    rooted: &[usize],
    matches: &[ComplexMatch],
) -> BTreeSet<u32> {
    capable_units(target, op, rooted, matches)
        .iter()
        .map(|&u| target.machine.bank_of(aviv_isdl::UnitId(u)).0)
        .collect()
}

/// Coverability + routing scan for one block; mirrors the split-node
/// DAG builder's feasibility predicate exactly.
fn check_block(
    dag: &BlockDag,
    target: &Target,
    matches: &[ComplexMatch],
    name: &str,
    f: &Function,
    out: &mut Vec<Diagnostic>,
) {
    let m = &target.machine;
    let has_mem_port = m.buses().iter().any(|b| {
        b.endpoints.contains(&Location::Mem)
            && b.endpoints.iter().any(|e| matches!(e, Location::Bank(_)))
    });

    let mut interior = vec![false; dag.len()];
    let mut rooted: Vec<Vec<usize>> = vec![Vec::new(); dag.len()];
    for (mi, mm) in matches.iter().enumerate() {
        rooted[mm.root.index()].push(mi);
        for &c in &mm.covers {
            if c != mm.root {
                interior[c.index()] = true;
            }
        }
    }

    for (id, node) in dag.iter() {
        let idx = id.index();
        match node.op {
            Op::Const => {}
            Op::Input | Op::Load | Op::Store | Op::StoreVar => {
                if !has_mem_port {
                    let what = match node.op {
                        Op::Input => "load an input variable",
                        Op::Load => "load from memory",
                        _ => "store to memory",
                    };
                    out.push(Diagnostic::new(
                        Code::M002,
                        format!("{name}: {id}"),
                        format!(
                            "cannot {what}: no bus on machine {} connects \
                             memory to a register bank",
                            m.name
                        ),
                    ));
                }
            }
            op => {
                if target.ops.units_for(op).is_empty() && rooted[idx].is_empty() && !interior[idx] {
                    out.push(Diagnostic::new(
                        Code::M001,
                        format!("{name}: {id}"),
                        format!(
                            "op {op} ({}) has no implementing unit and no \
                             complex pattern covers it on machine {}",
                            describe_node(dag, f, id),
                            m.name
                        ),
                    ));
                }
            }
        }
    }

    // Def→use routing: for every edge whose producer must materialise
    // in a register, some writable bank must reach some readable bank —
    // directly, or staged through memory (the covering engine inserts
    // spills explicitly).
    let reaches = |w: u32, r: u32| -> bool {
        w == r
            || target
                .xfers
                .cost(
                    Location::Bank(aviv_isdl::BankId(w)),
                    Location::Bank(aviv_isdl::BankId(r)),
                )
                .is_some()
            || (target
                .xfers
                .cost(Location::Bank(aviv_isdl::BankId(w)), Location::Mem)
                .is_some()
                && target
                    .xfers
                    .cost(Location::Mem, Location::Bank(aviv_isdl::BankId(r)))
                    .is_some())
    };
    let mem_port_banks: BTreeSet<u32> = m
        .buses()
        .iter()
        .filter(|b| b.endpoints.contains(&Location::Mem))
        .flat_map(|b| {
            b.endpoints.iter().filter_map(|e| match e {
                Location::Bank(bk) => Some(bk.0),
                Location::Mem => None,
            })
        })
        .collect();

    for (id, node) in dag.iter() {
        for &arg in &dag.node(id).args {
            let p = dag.node(arg);
            // Immediates are free anywhere; a pattern-interior producer
            // may never materialise; an uncoverable producer is already
            // an M001.
            if p.op == Op::Const || interior[arg.index()] {
                continue;
            }
            let writes: BTreeSet<u32> = match p.op {
                Op::Input => m
                    .banks()
                    .iter()
                    .enumerate()
                    .filter(|&(b, _)| {
                        target
                            .xfers
                            .cost(Location::Mem, Location::Bank(aviv_isdl::BankId(b as u32)))
                            .is_some()
                    })
                    .map(|(b, _)| b as u32)
                    .collect(),
                Op::Load => mem_port_banks.clone(),
                Op::Store | Op::StoreVar | Op::Const => continue,
                op => capable_banks(target, op, &rooted[arg.index()], matches),
            };
            if writes.is_empty() {
                continue;
            }
            let reads: BTreeSet<u32> = match node.op {
                Op::StoreVar => {
                    // The value only needs to reach memory. An input
                    // operand already lives there (direct move).
                    if p.op == Op::Input
                        || writes.iter().any(|&w| {
                            target
                                .xfers
                                .cost(Location::Bank(aviv_isdl::BankId(w)), Location::Mem)
                                .is_some()
                        })
                    {
                        continue;
                    }
                    out.push(Diagnostic::new(
                        Code::M002,
                        format!("{name}: {arg}→{id}"),
                        format!(
                            "value of {} ({arg}) cannot reach memory to be \
                             stored: no transfer path from {} to mem",
                            p.op,
                            bank_set_names(m, &writes),
                        ),
                    ));
                    continue;
                }
                Op::Load | Op::Store => mem_port_banks.clone(),
                Op::Const | Op::Input => continue,
                op => {
                    if interior[id.index()] {
                        // The consumer may be swallowed as a pattern
                        // interior, in which case this edge needs no
                        // route at all.
                        continue;
                    }
                    capable_banks(target, op, &rooted[id.index()], matches)
                }
            };
            if reads.is_empty() {
                continue; // consumer uncoverable or pattern-interior
            }
            let ok = writes.iter().any(|&w| reads.iter().any(|&r| reaches(w, r)));
            if !ok {
                out.push(Diagnostic::new(
                    Code::M002,
                    format!("{name}: {arg}→{id}"),
                    format!(
                        "no route for the value of {} ({arg}) into {} ({id}): \
                         producer banks {} cannot reach consumer banks {} \
                         even via a memory round trip",
                        p.op,
                        node.op,
                        bank_set_names(m, &writes),
                        bank_set_names(m, &reads),
                    ),
                ));
            }
        }
    }
}

fn bank_set_names(m: &Machine, banks: &BTreeSet<u32>) -> String {
    let names: Vec<&str> = banks
        .iter()
        .map(|&b| m.bank(aviv_isdl::BankId(b)).name.as_str())
        .collect();
    format!("{{{}}}", names.join(", "))
}

fn loc_name(m: &Machine, loc: Location) -> String {
    match loc {
        Location::Bank(b) => m.bank(b).name.clone(),
        Location::Mem => "mem".to_owned(),
    }
}

fn describe_node(dag: &BlockDag, f: &Function, id: NodeId) -> String {
    let node = dag.node(id);
    if let Some(s) = node.sym {
        return format!("near '{}'", f.syms.name(s));
    }
    for &a in &node.args {
        if let Some(s) = dag.node(a).sym {
            return format!("near '{}'", f.syms.name(s));
        }
    }
    format!(
        "{} operand{}",
        node.args.len(),
        if node.args.len() == 1 { "" } else { "s" }
    )
}

/// Render a full program analysis in the requested format.
///
/// Text output gives the human summary: op coverage, route closure,
/// per-block bounds and the combined diagnostic report. JSON output is
/// a single stable object (`schema_version` 1) suitable for golden
/// snapshots:
///
/// ```json
/// {"schema_version":1,"machine":"...","program":"...","feasible":true,
///  "ops":{"covered":N,"pattern_only":N,"uncovered":["div",...]},
///  "routes":[{"from":"R1","to":"R2","direct":1,"via_memory":false},...],
///  "blocks":[{"name":"...","nodes":N,"min_instructions":N,"min_pressure":N},...],
///  "errors":N,"warnings":N,"diagnostics":[...]}
/// ```
pub fn render_analysis(a: &ProgramAnalysis, format: Format) -> String {
    let mut diags: Vec<Diagnostic> = a.machine.diagnostics.clone();
    diags.extend(a.diagnostics.iter().cloned());
    let covered = a.machine.coverage.iter().filter(|c| !c.uncovered()).count();
    let pattern_only = a
        .machine
        .coverage
        .iter()
        .filter(|c| c.pattern_only())
        .count();
    let uncovered: Vec<&OpCoverage> = a
        .machine
        .coverage
        .iter()
        .filter(|c| c.uncovered())
        .collect();
    let routable = a.machine.routes.iter().filter(|r| r.routable()).count();
    let via_memory = a
        .machine
        .routes
        .iter()
        .filter(|r| r.direct.is_none() && r.via_memory)
        .count();

    match format {
        Format::Text => {
            let mut out = String::new();
            out.push_str(&format!(
                "machine {}: {covered}/{} ops coverable ({pattern_only} pattern-only), \
                 {} uncoverable\n",
                a.machine.machine,
                a.machine.coverage.len(),
                uncovered.len(),
            ));
            if !uncovered.is_empty() {
                let names: Vec<&str> = uncovered.iter().map(|c| c.op.mnemonic()).collect();
                out.push_str(&format!("  uncoverable: {}\n", names.join(", ")));
            }
            out.push_str(&format!(
                "routes: {routable}/{} location pairs routable ({via_memory} only via \
                 memory round trip)\n",
                a.machine.routes.len(),
            ));
            for b in &a.blocks {
                out.push_str(&format!(
                    "{}: {} nodes, >= {} instructions, >= {} registers\n",
                    b.name, b.nodes, b.min_instructions, b.min_pressure
                ));
            }
            out.push_str(&format!(
                "program {} on {}: {}\n",
                a.program,
                a.machine.machine,
                if a.feasible() {
                    "feasible"
                } else {
                    "INFEASIBLE"
                }
            ));
            out.push_str(&render_report(&diags, Format::Text));
            out
        }
        Format::Json => {
            let errors = diags
                .iter()
                .filter(|d| d.severity() == Severity::Error)
                .count();
            let warnings = diags.len() - errors;
            let mut sorted: Vec<&Diagnostic> = diags.iter().collect();
            sorted.sort_by_key(|d| d.severity());
            let diag_items: Vec<String> = sorted.iter().map(|d| d.to_json()).collect();
            let uncovered_names: Vec<String> = uncovered
                .iter()
                .map(|c| format!("\"{}\"", json_escape(c.op.mnemonic())))
                .collect();
            let route_items: Vec<String> = a
                .machine
                .routes
                .iter()
                .map(|r| {
                    format!(
                        "{{\"from\":\"{}\",\"to\":\"{}\",\"direct\":{},\"via_memory\":{}}}",
                        json_escape(&r.from),
                        json_escape(&r.to),
                        r.direct.map_or("null".to_owned(), |c| c.to_string()),
                        r.via_memory,
                    )
                })
                .collect();
            let block_items: Vec<String> = a
                .blocks
                .iter()
                .map(|b| {
                    format!(
                        "{{\"name\":\"{}\",\"nodes\":{},\"min_instructions\":{},\
                         \"min_pressure\":{}}}",
                        json_escape(&b.name),
                        b.nodes,
                        b.min_instructions,
                        b.min_pressure,
                    )
                })
                .collect();
            format!(
                "{{\"schema_version\":1,\"machine\":\"{}\",\"program\":\"{}\",\
                 \"feasible\":{},\"ops\":{{\"covered\":{covered},\
                 \"pattern_only\":{pattern_only},\"uncovered\":[{}]}},\
                 \"routes\":[{}],\"blocks\":[{}],\"errors\":{errors},\
                 \"warnings\":{warnings},\"diagnostics\":[{}]}}\n",
                json_escape(&a.machine.machine),
                json_escape(&a.program),
                a.feasible(),
                uncovered_names.join(","),
                route_items.join(","),
                block_items.join(","),
                diag_items.join(","),
            )
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aviv_ir::parse_function;
    use aviv_isdl::archs;

    fn parse(src: &str) -> Function {
        parse_function(src).expect("test program parses")
    }

    fn is_computational(op: Op) -> bool {
        !matches!(
            op,
            Op::Const | Op::Input | Op::Load | Op::Store | Op::StoreVar
        )
    }

    /// The bounds the bitmask ones replaced: the block matched again, a
    /// match list per node, and a `BTreeSet` per unit, bank and operand
    /// set.
    fn reference_bounds(dag: &BlockDag, target: &Target) -> (usize, usize) {
        let matches = match_complexes(dag, target);
        if dag.is_empty() {
            return (0, 0);
        }
        let m = &target.machine;
        let n_units = m.units().len().max(1);
        let bus_slots: usize = m
            .buses()
            .iter()
            .map(|b| b.capacity as usize)
            .sum::<usize>()
            .max(1);
        let distinct = |values: &[NodeId]| -> usize {
            let set: BTreeSet<usize> = values
                .iter()
                .filter(|&&v| dag.node(v).op != Op::Const)
                .map(|v| v.index())
                .collect();
            set.len()
        };
        let mut interior = vec![false; dag.len()];
        let mut rooted: Vec<Vec<usize>> = vec![Vec::new(); dag.len()];
        for (mi, mm) in matches.iter().enumerate() {
            rooted[mm.root.index()].push(mi);
            for &c in &mm.covers {
                if c != mm.root {
                    interior[c.index()] = true;
                }
            }
        }
        let uses = Consumers::new(dag);
        let (mut unit_ops, mut transfers, mut pressure, mut critical_path) = (0usize, 0, 0, 0);
        let mut sole = vec![0usize; m.units().len()];
        let mut height = vec![0usize; dag.len()];
        for (id, node) in dag.iter() {
            let idx = id.index();
            let weight = match node.op {
                Op::Const => 0,
                Op::Input => {
                    if uses.of(id).iter().any(|&u| dag.node(u).op != Op::StoreVar) {
                        transfers += 1;
                    }
                    0
                }
                Op::Load | Op::Store => {
                    transfers += 1;
                    pressure = pressure.max(distinct(&node.args));
                    1
                }
                Op::StoreVar => {
                    let arg = node.args[0];
                    if dag.node(arg).op == Op::Input && dag.node(arg).sym == node.sym {
                        0
                    } else {
                        transfers += 1;
                        if !matches!(dag.node(arg).op, Op::Const | Op::Input) {
                            pressure = pressure.max(1);
                        }
                        1
                    }
                }
                _ if interior[idx] => 0,
                op => {
                    unit_ops += 1;
                    let caps = capable_units(target, op, &rooted[idx], &matches);
                    if caps.len() == 1 {
                        sole[*caps.iter().next().unwrap() as usize] += 1;
                    }
                    let mut contribution = distinct(&node.args);
                    for &mi in &rooted[idx] {
                        contribution = contribution.min(distinct(&matches[mi].operands));
                    }
                    pressure = pressure.max(contribution);
                    1
                }
            };
            let base = node.args.iter().map(|&a| height[a.index()]).max();
            height[idx] = base.unwrap_or(0) + weight;
            critical_path = critical_path.max(height[idx]);
        }
        for (id, node) in dag.iter() {
            let idx = id.index();
            if interior[idx] || !is_computational(node.op) {
                continue;
            }
            let writes = capable_banks(target, node.op, &rooted[idx], &matches);
            if writes.is_empty() {
                continue;
            }
            let forced = uses.of(id).iter().any(|&u| {
                let un = dag.node(u);
                if interior[u.index()] || !is_computational(un.op) {
                    return false;
                }
                let reads = capable_banks(target, un.op, &rooted[u.index()], &matches);
                !reads.is_empty() && writes.is_disjoint(&reads)
            });
            transfers += usize::from(forced);
        }
        let width = unit_ops.div_ceil(n_units);
        let sole_bound = sole.iter().copied().max().unwrap_or(0);
        let bus_bound = transfers.div_ceil(bus_slots);
        (
            critical_path.max(width).max(sole_bound).max(bus_bound),
            pressure,
        )
    }

    /// The six DSP kernels of the bench crate, read from its source: that
    /// crate depends on this one, so it cannot be a dependency here.
    fn kernels() -> Vec<Function> {
        let source = include_str!("../../bench/src/kernels.rs");
        let kernels: Vec<_> = source
            .split("source: \"")
            .skip(1)
            .map(|rest| parse(&rest[..rest.find('"').expect("a kernel's source ends")]))
            .collect();
        assert_eq!(kernels.len(), 6, "the bench crate's kernels");
        kernels
    }

    /// The bounds the compile driver takes from a block's Split-Node DAG
    /// matches equal `block_bounds` and the per-node-set reference, on
    /// seeded random blocks (with constants, dynamic memory and the
    /// multiply-adds the `mac` complex matches) and the DSP kernels, on
    /// every `archs` machine at two to four registers per bank. They
    /// fill `--report`'s `bound` and pressure columns.
    #[test]
    fn bounds_from_the_split_node_dag_match_the_reference() {
        let makers = [
            archs::example_arch as fn(u32) -> _,
            archs::arch_two,
            archs::dsp_arch,
            archs::chained_arch,
            archs::single_alu,
            archs::wide_arch,
            archs::quad_vliw,
        ];
        let machines = (2..=4)
            .flat_map(|regs| makers.map(|make| make(regs)))
            .chain([archs::accumulator_dsp()]);
        let mut functions: Vec<Function> = [3, 6, 10, 16]
            .into_iter()
            .flat_map(|n_ops| {
                let cfg = aviv_ir::randdag::RandDagConfig {
                    n_ops,
                    const_prob: 0.2,
                    ops: vec![Op::Add, Op::Sub, Op::Mul, Op::Add, Op::Mul],
                    ..Default::default()
                };
                (0..4).map(move |seed| aviv_ir::randdag::random_block(&cfg, seed))
            })
            .collect();
        functions.push(parse(
            "func f(p, q, x) { mem[p] = x * x; y = mem[q] + x; mem[q + 1] = 7; x = y; return y; }",
        ));
        functions.push(parse("func f(a, b) { a = a; b = a + 2; return b; }"));
        functions.extend(kernels());
        let (mut compared, mut matched) = (0, 0);
        for machine in machines {
            let target = Target::new(machine);
            for (fi, f) in functions.iter().enumerate() {
                for (bi, block) in f.blocks.iter().enumerate() {
                    let dag = &block.dag;
                    let Ok(sndag) = aviv_splitdag::SplitNodeDag::build(dag, &target) else {
                        continue;
                    };
                    let what = format!("{} function {fi} bb{bi}", target.machine.name);
                    let driver = block_bounds_from_matches(dag, &target, sndag.matches());
                    assert_eq!(driver, block_bounds(dag, &target), "{what}");
                    assert_eq!(driver, reference_bounds(dag, &target), "{what}");
                    compared += 1;
                    matched += usize::from(!sndag.matches().is_empty());
                }
            }
        }
        assert!(
            compared > 400 && matched > 20,
            "{compared} compared, {matched} with matches"
        );
    }

    #[test]
    fn clean_program_is_feasible_with_positive_bounds() {
        let target = Target::new(archs::example_arch(4));
        let f = parse("func f(a, b) { x = a * b + a; return x; }");
        let a = analyze_program(&f, &target);
        assert!(a.feasible(), "diags: {:?}", a.diagnostics);
        assert!(a.blocks[0].min_instructions >= 1);
        assert!(a.blocks[0].min_pressure >= 1);
    }

    #[test]
    fn unsupported_op_is_m001() {
        // example_arch has no divider.
        let target = Target::new(archs::example_arch(4));
        let f = parse("func f(a, b) { x = a / b; return x; }");
        let a = analyze_program(&f, &target);
        assert!(!a.feasible());
        assert!(a.diagnostics.iter().any(|d| d.code == Code::M001));
        let d = a.diagnostics.iter().find(|d| d.code == Code::M001).unwrap();
        assert!(d.message.contains("div"), "message: {}", d.message);
    }

    #[test]
    fn dead_unsupported_op_is_not_flagged() {
        // The division is dead (its result is shadowed before any use),
        // so the compiler never covers it and analyze must agree.
        let target = Target::new(archs::example_arch(4));
        let f = parse("func f(a, b) { x = a / b; x = a + b; return x; }");
        let a = analyze_program(&f, &target);
        assert!(a.feasible(), "diags: {:?}", a.diagnostics);
    }

    #[test]
    fn machine_analysis_reports_coverage_and_routes() {
        let target = Target::new(archs::example_arch(4));
        let ma = analyze_machine(&target);
        assert_eq!(ma.machine, target.machine.name);
        assert_eq!(ma.coverage.len(), Op::all_computational().len());
        let add = ma
            .coverage
            .iter()
            .find(|c| c.op == Op::Add)
            .expect("add coverage row");
        assert!(!add.units.is_empty());
        assert!(!ma.routes.is_empty());
        assert!(ma.routes.iter().all(Route::routable));
    }

    #[test]
    fn bundled_machines_have_full_route_closure() {
        for m in [
            archs::example_arch(4),
            archs::arch_two(4),
            archs::dsp_arch(4),
            archs::chained_arch(4),
            archs::single_alu(4),
            archs::wide_arch(4),
            archs::quad_vliw(4),
            archs::accumulator_dsp(),
        ] {
            let target = Target::new(m);
            let ma = analyze_machine(&target);
            assert!(
                ma.routes.iter().all(Route::routable),
                "machine {} has an unroutable pair",
                ma.machine
            );
        }
    }

    #[test]
    fn json_rendering_is_stable_and_escaped() {
        let target = Target::new(archs::example_arch(4));
        let f = parse("func f(a) { x = a + 1; return x; }");
        let a = analyze_program(&f, &target);
        let json = render_analysis(&a, Format::Json);
        assert!(json.starts_with("{\"schema_version\":1,"));
        assert!(json.contains("\"feasible\":true"));
        assert!(json.contains("\"blocks\":["));
        assert!(json.ends_with("}\n"));
        // Rendering twice is byte-identical (determinism).
        assert_eq!(json, render_analysis(&a, Format::Json));
    }

    #[test]
    fn identity_copy_contributes_nothing() {
        let target = Target::new(archs::example_arch(4));
        let f = parse("func f(a) { a = a; return a; }");
        let a = analyze_program(&f, &target);
        assert!(a.feasible());
    }

    #[test]
    fn bounds_respect_direct_memory_move() {
        // `x = a` is a direct memory→memory move: no load, no register.
        let target = Target::new(archs::example_arch(4));
        let f = parse("func f(a) { x = a; return x; }");
        let a = analyze_program(&f, &target);
        assert!(a.feasible());
        assert_eq!(a.blocks[0].min_pressure, 0);
        assert!(a.blocks[0].min_instructions <= 1);
    }
}
