//! Code-generation options.
//!
//! "AVIV incorporates multiple heuristics that can be turned off if
//! desired" (paper §VI) — the parenthesized columns of Table I come from
//! running with every heuristic disabled. Each heuristic is a first-class
//! toggle here: the `table1` and `table2` benches compare the all-on and
//! all-off presets, and `table_pressure` flips
//! [`CodegenOptions::pressure_aware_assignment`] alone.

use crate::budget::CancelToken;
use crate::faults::FaultConfig;

/// Tunable heuristics of the covering engine.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CodegenOptions {
    /// Prune split-node assignment branches to the minimum incremental
    /// cost at each node (§IV-A). When `false`, *all* possible functional
    /// unit assignments are generated — the paper's "heuristics off" mode.
    pub prune_assignments: bool,
    /// Keep alternatives whose incremental cost is within this slack of
    /// the per-node minimum (0 reproduces the paper's prune-to-minimum
    /// rule exactly; 1 explores near-ties and measurably improves code
    /// quality at a small CPU cost).
    pub prune_slack: i64,
    /// Cap on branches kept alive during assignment exploration (applied
    /// only when `prune_assignments`; ties at the minimum incremental cost
    /// are all kept, then the frontier is trimmed to this many by
    /// accumulated cost).
    pub assignment_beam: usize,
    /// How many of the lowest-cost assignments to explore in detail.
    pub assignments_to_explore: usize,
    /// Hard cap on the total number of assignments enumerated, even with
    /// pruning off (guards the exhaustive mode against combinatorial
    /// explosion; `usize::MAX` reproduces the paper's unbounded runs).
    pub max_assignments: usize,
    /// Merge only nodes whose levels from the top and from the bottom of
    /// the solution DAG are within this window (§IV-C.2). `None` disables
    /// the heuristic (all maximal cliques are generated).
    pub clique_level_window: Option<u32>,
    /// Use the lookahead cost function to break covering ties (§IV-D).
    pub lookahead: bool,
    /// Run the post-allocation peephole pass (§IV-G).
    pub peephole: bool,
    /// Add a register-pressure term to the assignment cost function —
    /// the paper's stated ongoing work ("modifying the initial functional
    /// unit assignment cost function to incorporate register resource
    /// limits so that it can detect assignments that are likely to
    /// require spills"). Off by default to match the published
    /// algorithm; the `table_pressure` bench measures its effect.
    pub pressure_aware_assignment: bool,
    /// Worker threads for per-block covering in `compile_function`: `1`
    /// (the default) plans blocks in the calling thread; `0` uses one
    /// worker per available CPU core; any other value caps the pool at
    /// that many workers. Output is byte-identical for every setting —
    /// blocks are planned against an immutable symbol-table snapshot and
    /// merged in block order.
    pub jobs: usize,
    /// Run the pipeline invariant verifier ([`crate::invariants`]) after
    /// split-node DAG construction, covering, clique scheduling,
    /// register allocation, and emission, failing compilation with
    /// [`crate::CodegenError::Invariant`] on any violation. On by
    /// default in debug builds, off in release (`avivc --verify` turns
    /// it on).
    pub verify: bool,
    /// Run the global liveness solver ([`aviv_ir::dataflow`]) before
    /// covering and drop dead code — stores shadowed on every path and
    /// the nodes only they kept alive — so dead values never inflate
    /// register pressure during covering. Semantics-preserving (every
    /// named variable stays observable at exit) and on by default;
    /// disable to compile the DAGs exactly as written.
    pub exact_liveness: bool,
    /// Node-expansion fuel per block *per ladder rung* (`avivc --fuel`).
    /// The hot loops of exploration, clique generation, covering, and
    /// register allocation charge one unit per expansion; on exhaustion
    /// the block steps down the degradation ladder (see
    /// [`crate::codegen::CoverMode`]) with a fresh allotment, and the
    /// final rung runs unbudgeted (its register demand is bounded, so it
    /// terminates). `None` (the default) is unlimited — outputs are
    /// byte-identical to a run without budgets.
    pub fuel: Option<u64>,
    /// Wall-clock deadline for the whole function compile in
    /// milliseconds (`avivc --timeout-ms`), shared by every block.
    /// Exceeding it degrades blocks exactly like fuel exhaustion, so the
    /// compile still finishes with correct (if slower) code shortly
    /// after the deadline rather than aborting. Inherently
    /// nondeterministic; prefer [`CodegenOptions::fuel`] when
    /// reproducibility matters. `None` disables the deadline.
    pub deadline_ms: Option<u64>,
    /// Deterministic fault injection at stage boundaries (see
    /// [`crate::faults`]). `None` (the default) injects nothing; tests
    /// and the CI fuzz-smoke job set a seeded config to exercise the
    /// ladder, panic isolation, and structured-error paths.
    pub faults: Option<FaultConfig>,
    /// Cooperative cancellation handle (see [`CancelToken`]): threaded
    /// into every per-rung [`crate::Budget`] — including the otherwise
    /// unbudgeted spill-all rung and salvage tails — so firing it aborts
    /// the compile with [`crate::CodegenError::Cancelled`] within one
    /// budget-check quantum. `None` (the default) makes the compile
    /// uncancellable. Excluded from
    /// [`planning_fingerprint`](CodegenOptions::planning_fingerprint):
    /// like budgets, cancellation decides only *whether* a plan is
    /// produced, never what a complete plan contains.
    pub cancel: Option<CancelToken>,
    /// Plan every block with the sequential phase-ordered comparator of
    /// the paper's §I-B instead of AVIV's concurrent search (`avivc
    /// --baseline`): greedy least-loaded unit binding, then
    /// critical-path list scheduling (falling back to sequential
    /// covering on a fresh graph), then register allocation, with no
    /// peephole pass. Its plans are emitted, cached, validated and
    /// reported like AVIV's. Fuel, deadlines, cancellation of a block
    /// in flight and plan-side fault injection do not apply to it. Off
    /// in every preset.
    pub phase_ordered: bool,
}

impl CodegenOptions {
    /// The preset called `name` — `on` ([`heuristics_on`]), `thorough`
    /// ([`thorough`]) or `off` ([`heuristics_off`]), the names `avivc
    /// --preset` and avivd's `preset` field accept — or `None`.
    ///
    /// [`heuristics_on`]: CodegenOptions::heuristics_on
    /// [`thorough`]: CodegenOptions::thorough
    /// [`heuristics_off`]: CodegenOptions::heuristics_off
    pub fn preset(name: &str) -> Option<Self> {
        match name {
            "on" => Some(Self::heuristics_on()),
            "thorough" => Some(Self::thorough()),
            "off" => Some(Self::heuristics_off()),
            _ => None,
        }
    }

    /// The paper's default configuration: all heuristics on.
    pub fn heuristics_on() -> Self {
        CodegenOptions {
            prune_assignments: true,
            prune_slack: 1,
            assignment_beam: 128,
            assignments_to_explore: 8,
            max_assignments: 1 << 20,
            clique_level_window: Some(2),
            lookahead: true,
            peephole: true,
            pressure_aware_assignment: false,
            jobs: 1,
            verify: cfg!(debug_assertions),
            exact_liveness: true,
            fuel: None,
            deadline_ms: None,
            faults: None,
            cancel: None,
            phase_ordered: false,
        }
    }

    /// A heavier heuristic operating point: wider pruning slack, bigger
    /// beam, more assignments explored in depth. Roughly 5–10× the CPU of
    /// [`CodegenOptions::heuristics_on`] and still orders of magnitude
    /// cheaper than exhaustive mode, with near-optimal code on the paper's
    /// benchmark sizes.
    pub fn thorough() -> Self {
        CodegenOptions {
            prune_assignments: true,
            prune_slack: 2,
            assignment_beam: 1024,
            assignments_to_explore: 64,
            max_assignments: 1 << 20,
            clique_level_window: Some(2),
            lookahead: true,
            peephole: true,
            pressure_aware_assignment: false,
            jobs: 1,
            verify: cfg!(debug_assertions),
            exact_liveness: true,
            fuel: None,
            deadline_ms: None,
            faults: None,
            cancel: None,
            phase_ordered: false,
        }
    }

    /// The paper's "heuristics turned off" configuration: exhaustive
    /// assignment enumeration and unrestricted clique generation. Note
    /// (as the paper does) that this is *not* an exact algorithm — the
    /// covering step still schedules greedily.
    pub fn heuristics_off() -> Self {
        CodegenOptions {
            prune_assignments: false,
            prune_slack: 0,
            assignment_beam: usize::MAX,
            assignments_to_explore: usize::MAX,
            max_assignments: 1 << 22,
            clique_level_window: None,
            lookahead: true,
            peephole: true,
            pressure_aware_assignment: false,
            jobs: 1,
            verify: cfg!(debug_assertions),
            exact_liveness: true,
            fuel: None,
            deadline_ms: None,
            faults: None,
            cancel: None,
            phase_ordered: false,
        }
    }
}

impl CodegenOptions {
    /// Set the worker-thread count (see [`CodegenOptions::jobs`]).
    pub fn with_jobs(mut self, jobs: usize) -> Self {
        self.jobs = jobs;
        self
    }

    /// Enable or disable the pipeline invariant verifier (see
    /// [`CodegenOptions::verify`]).
    pub fn with_verify(mut self, verify: bool) -> Self {
        self.verify = verify;
        self
    }

    /// Enable or disable solver-driven dead-code elimination before
    /// covering (see [`CodegenOptions::exact_liveness`]).
    pub fn with_exact_liveness(mut self, exact_liveness: bool) -> Self {
        self.exact_liveness = exact_liveness;
        self
    }

    /// Set the per-block, per-rung fuel allotment (see
    /// [`CodegenOptions::fuel`]).
    pub fn with_fuel(mut self, fuel: Option<u64>) -> Self {
        self.fuel = fuel;
        self
    }

    /// Set the function-wide wall-clock deadline in milliseconds (see
    /// [`CodegenOptions::deadline_ms`]).
    pub fn with_deadline_ms(mut self, deadline_ms: Option<u64>) -> Self {
        self.deadline_ms = deadline_ms;
        self
    }

    /// Set the fault-injection configuration (see
    /// [`CodegenOptions::faults`]).
    pub fn with_faults(mut self, faults: Option<FaultConfig>) -> Self {
        self.faults = faults;
        self
    }

    /// Attach a cooperative cancellation token (see
    /// [`CodegenOptions::cancel`]).
    pub fn with_cancel(mut self, cancel: Option<CancelToken>) -> Self {
        self.cancel = cancel;
        self
    }

    /// Stable fingerprint of the options that can change what a *complete*
    /// block plan looks like — the options component of plan-cache keys.
    ///
    /// Deliberately excluded, so that requests differing only in these
    /// still share cache entries:
    ///
    /// * [`jobs`](CodegenOptions::jobs) — pure parallelism; output is
    ///   byte-identical at every worker count by construction.
    /// * [`fuel`](CodegenOptions::fuel) /
    ///   [`deadline_ms`](CodegenOptions::deadline_ms) — budgets only decide
    ///   *whether* a block degrades; a plan that reports
    ///   [`complete`](crate::BlockReport::complete) (the only kind the
    ///   cache stores) is byte-identical to an unbudgeted run's.
    /// * [`exact_liveness`](CodegenOptions::exact_liveness) — dead-code
    ///   elimination runs before blocks are hashed, so its effect is
    ///   already in the block component of the key.
    /// * [`faults`](CodegenOptions::faults) — fault injection disables
    ///   caching entirely (injections are keyed on block position, not
    ///   content).
    /// * [`cancel`](CodegenOptions::cancel) — like budgets, cancellation
    ///   only decides whether a compile finishes; it never changes what a
    ///   complete plan contains.
    ///
    /// Everything else — the §IV/§VI heuristic knobs and the invariant
    /// verifier — is hashed, and [`phase_ordered`] only when set, so a
    /// comparator plan never answers for an AVIV one while every AVIV
    /// fingerprint (and the plans persisted under it) stays as it was.
    ///
    /// [`phase_ordered`]: CodegenOptions::phase_ordered
    pub fn planning_fingerprint(&self) -> u64 {
        let mut h = aviv_ir::StableHasher::new();
        h.write_bool(self.prune_assignments);
        h.write_i64(self.prune_slack);
        h.write_u64(self.assignment_beam as u64);
        h.write_u64(self.assignments_to_explore as u64);
        h.write_u64(self.max_assignments as u64);
        match self.clique_level_window {
            Some(w) => {
                h.write_bool(true);
                h.write_u64(u64::from(w));
            }
            None => h.write_bool(false),
        }
        h.write_bool(self.lookahead);
        h.write_bool(self.peephole);
        h.write_bool(self.pressure_aware_assignment);
        h.write_bool(self.verify);
        if self.phase_ordered {
            h.write_bool(true);
        }
        h.finish()
    }
}

impl Default for CodegenOptions {
    fn default() -> Self {
        Self::heuristics_on()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_heuristics_on() {
        assert_eq!(CodegenOptions::default(), CodegenOptions::heuristics_on());
    }

    #[test]
    fn heuristics_off_is_exhaustive() {
        let o = CodegenOptions::heuristics_off();
        assert!(!o.prune_assignments);
        assert_eq!(o.clique_level_window, None);
        assert!(o.assignments_to_explore > 1 << 20);
    }

    #[test]
    fn fingerprint_ignores_parallelism_and_budget_knobs() {
        let base = CodegenOptions::default();
        let fp = base.planning_fingerprint();
        for tweaked in [
            base.clone().with_jobs(7),
            base.clone().with_jobs(0),
            base.clone().with_fuel(Some(10)),
            base.clone().with_deadline_ms(Some(5)),
            base.clone().with_exact_liveness(false),
            base.clone().with_cancel(Some(CancelToken::new())),
        ] {
            assert_eq!(fp, tweaked.planning_fingerprint());
        }
    }

    #[test]
    fn fingerprint_tracks_planning_knobs() {
        let base = CodegenOptions::default();
        let fp = base.planning_fingerprint();
        let mut lookahead_off = base.clone();
        lookahead_off.lookahead = false;
        let mut wider_beam = base.clone();
        wider_beam.assignment_beam += 1;
        let mut no_peephole = base;
        no_peephole.peephole = false;
        for tweaked in [lookahead_off, wider_beam, no_peephole] {
            assert_ne!(fp, tweaked.planning_fingerprint());
        }
        assert_ne!(
            CodegenOptions::heuristics_on().planning_fingerprint(),
            CodegenOptions::heuristics_off().planning_fingerprint()
        );
    }

    /// Every preset keeps the fingerprint it had before
    /// [`CodegenOptions::phase_ordered`] existed, so persisted plans keep
    /// hitting, and the comparator's fingerprint differs from every
    /// preset's, so its plans never answer for AVIV's.
    #[test]
    fn phase_ordered_fingerprint_is_apart_and_presets_keep_theirs() {
        // (preset, verify off, verify on)
        let pinned: [(&str, u64, u64); 3] = [
            ("on", 0xc9f0_a533_057c_ff64, 0xc9f0_a633_057d_0117),
            ("thorough", 0x6617_d605_fd7e_75fd, 0x6617_d505_fd7e_744a),
            ("off", 0x3285_e067_19c9_3ae7, 0x3285_df67_19c9_3934),
        ];
        let every: Vec<u64> = pinned.iter().flat_map(|&(_, a, b)| [a, b]).collect();
        for (name, off, on) in pinned {
            let preset = CodegenOptions::preset(name).unwrap();
            for (verify, fp) in [(false, off), (true, on)] {
                let options = preset.clone().with_verify(verify);
                assert_eq!(options.planning_fingerprint(), fp, "{name} verify {verify}");
                let phased = CodegenOptions {
                    phase_ordered: true,
                    ..options
                };
                assert!(
                    !every.contains(&phased.planning_fingerprint()),
                    "{name} verify {verify}"
                );
            }
        }
    }
}
