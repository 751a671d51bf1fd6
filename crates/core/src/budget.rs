//! Cooperative compile-time budgets: node-expansion fuel and wall-clock
//! deadlines.
//!
//! The covering engine is a heuristic branch-and-bound whose worst case
//! explodes combinatorially; the paper prunes with user-set thresholds
//! precisely because full enumeration is infeasible. A [`Budget`] makes
//! that bound explicit and *cooperative*: the hot loops of assignment
//! exploration, clique generation, covering, and register allocation
//! [`charge`](Budget::charge) fuel units as they expand work, and bail
//! out with a structured [`Exhaustion`] the moment the allotment runs
//! dry. The driver reacts by stepping down its degradation ladder (see
//! [`crate::codegen::CoverMode`]) rather than aborting the compile.
//!
//! Budgets are deliberately *per block and per ladder rung*: every block
//! gets the full fuel allotment regardless of how many worker threads
//! plan blocks concurrently, so whether a block exhausts its budget is a
//! deterministic function of the block alone. A shared fuel pool would
//! make exhaustion depend on scheduling order and break the
//! byte-identical-for-any-`--jobs` guarantee. The wall-clock deadline is
//! the exception — it is an absolute [`Instant`] shared by the whole
//! function compile — and is therefore inherently nondeterministic; use
//! fuel when reproducibility matters and deadlines when latency does.
//!
//! A budget also carries the rung's *incumbent*: the length of the
//! shortest schedule covering has completed under it. Each covering
//! entry point records its schedule's length on success and, on entry,
//! before charging anything, skips an assignment whose admissible lower
//! bound ([`crate::bound::schedule_lower_bound`]) already reaches the
//! incumbent, returning [`crate::CoverError::Bounded`]. The driver keeps
//! only a strictly shorter schedule, so a skipped assignment could not
//! have won: this is the paper's branch and bound across assignments
//! (§IV-A). The incumbent has the budget's scope, one block on one rung,
//! so the first cover of a rung is never skipped. It lives here rather
//! than in a parameter so that any caller that covers a block's
//! assignments in turn under one budget prunes exactly as the driver
//! does.
//!
//! Beside the incumbent, a budget keeps the rung's *orbit table*: the
//! canonical forms, under relabelling of interchangeable units, of the
//! cover graphs the concurrent engine covered without a spill, each
//! with its schedule's length ([`crate::bound`], "The exact twin
//! bound"). A later graph with a recorded form is a relabelled twin that
//! would cover at exactly that length, so it is skipped like an
//! assignment whose bound reaches the incumbent. The table has the
//! incumbent's scope, and on a target without interchangeable units it
//! stays empty.

use std::cell::{Cell, RefCell};
use std::fmt;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// How often (in charged calls) the wall clock is consulted. Reading
/// `Instant::now()` is a syscall on some platforms; the hot loops charge
/// millions of units, so the clock is only sampled every few hundred.
const CLOCK_STRIDE: u32 = 256;

/// Why a [`Budget`] ran out.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Exhaustion {
    /// The node-expansion fuel allotment was consumed.
    Fuel,
    /// The wall-clock deadline passed.
    Deadline,
    /// A [`CancelToken`] attached to the budget was fired. Unlike fuel
    /// and deadline exhaustion, cancellation does not walk the
    /// degradation ladder — the whole compile aborts with
    /// [`crate::CodegenError::Cancelled`].
    Cancelled,
    /// Exhaustion was injected by the fault harness
    /// ([`crate::faults::FaultConfig`]).
    Injected,
}

impl fmt::Display for Exhaustion {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Exhaustion::Fuel => write!(f, "fuel exhausted"),
            Exhaustion::Deadline => write!(f, "deadline exceeded"),
            Exhaustion::Cancelled => write!(f, "compile cancelled"),
            Exhaustion::Injected => write!(f, "injected budget exhaustion"),
        }
    }
}

/// A cooperative cancellation handle: a shared flag plus a generation
/// id identifying which request armed it.
///
/// Cloning shares the flag (`Arc<AtomicBool>`); [`cancel`](CancelToken::cancel)
/// from any thread makes every [`Budget`] carrying a clone report
/// [`Exhaustion::Cancelled`] at its next check — within one
/// clock-stride quantum of charges in the hot loops. The generation id
/// is free-form bookkeeping for registries that map request ids to
/// tokens: a reused request id gets a new generation, so a stale
/// cancel can be detected and ignored by the owner of the registry
/// (the token itself never compares generations).
#[derive(Debug, Clone, Default)]
pub struct CancelToken {
    flag: Arc<AtomicBool>,
    generation: u64,
}

impl CancelToken {
    /// A fresh, unfired token with generation 0.
    pub fn new() -> CancelToken {
        CancelToken::default()
    }

    /// A fresh, unfired token carrying `generation`.
    pub fn with_generation(generation: u64) -> CancelToken {
        CancelToken {
            flag: Arc::new(AtomicBool::new(false)),
            generation,
        }
    }

    /// Fire the token: every budget sharing it observes cancellation at
    /// its next check. Idempotent.
    pub fn cancel(&self) {
        self.flag.store(true, Ordering::Release);
    }

    /// Whether the token has been fired.
    pub fn is_cancelled(&self) -> bool {
        self.flag.load(Ordering::Acquire)
    }

    /// The generation id this token was armed with.
    pub fn generation(&self) -> u64 {
        self.generation
    }
}

/// Tokens are equal when they share the same flag allocation (and
/// generation) — value comparison of an `AtomicBool` snapshot would
/// make [`crate::CodegenOptions`] equality racy.
impl PartialEq for CancelToken {
    fn eq(&self, other: &CancelToken) -> bool {
        Arc::ptr_eq(&self.flag, &other.flag) && self.generation == other.generation
    }
}

impl Eq for CancelToken {}

/// A cooperative compile budget: optional node-expansion fuel plus an
/// optional absolute wall-clock deadline.
///
/// Not `Sync` on purpose (interior [`Cell`]s): each planner thread
/// constructs its own budget from [`crate::CodegenOptions`], which is
/// what keeps fuel exhaustion deterministic under parallel planning.
#[derive(Debug, Clone)]
pub struct Budget {
    /// Remaining fuel; `None` means unlimited.
    fuel: Cell<Option<u64>>,
    /// Absolute deadline; `None` means no time limit.
    deadline: Option<Instant>,
    /// Countdown to the next wall-clock/cancellation sample.
    clock_in: Cell<u32>,
    /// Latched exhaustion cause; once set it never clears.
    exhausted: Cell<Option<Exhaustion>>,
    /// Total units charged (for reporting).
    spent: Cell<u64>,
    /// Cooperative cancellation flag, sampled on the same stride as the
    /// wall clock; `None` means the budget cannot be cancelled.
    cancel: Option<CancelToken>,
    /// Length of the shortest schedule completed under this budget;
    /// `None` until the first one.
    incumbent: Cell<Option<usize>>,
    /// The orbit table (see the module doc).
    orbits: RefCell<Orbits>,
}

/// Canonical cover-graph forms with their schedule lengths, stored flat:
/// entry `i`'s form is `words[spans[i].start..spans[i].end]`.
#[derive(Debug, Clone, Default)]
struct Orbits {
    words: Vec<u64>,
    spans: Vec<OrbitSpan>,
}

#[derive(Debug, Clone, Copy)]
struct OrbitSpan {
    /// A hash of the form, compared before its words.
    hash: u64,
    start: usize,
    end: usize,
    /// The schedule length covering reached.
    len: usize,
}

impl Orbits {
    fn find(&self, form: &[u64], hash: u64) -> Option<usize> {
        self.spans
            .iter()
            .find(|s| s.hash == hash && self.words[s.start..s.end] == *form)
            .map(|s| s.len)
    }
}

/// FNV-1a over the words of a canonical form.
fn form_hash(form: &[u64]) -> u64 {
    form.iter().fold(0xcbf2_9ce4_8422_2325, |h, &w| {
        (h ^ w).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

impl Budget {
    /// A budget that never runs out.
    pub fn unlimited() -> Budget {
        Budget::new(None, None)
    }

    /// A budget with the given fuel allotment and absolute deadline.
    pub fn new(fuel: Option<u64>, deadline: Option<Instant>) -> Budget {
        Budget {
            fuel: Cell::new(fuel),
            deadline,
            clock_in: Cell::new(0),
            exhausted: Cell::new(None),
            spent: Cell::new(0),
            cancel: None,
            incumbent: Cell::new(None),
            orbits: RefCell::new(Orbits::default()),
        }
    }

    /// Attach a [`CancelToken`]: once fired (from any thread), the next
    /// stride-aligned [`charge`](Budget::charge) or
    /// [`check`](Budget::check) reports [`Exhaustion::Cancelled`]. The
    /// countdown starts at zero, so a budget built from an
    /// already-fired token fails its very first check — before any
    /// covering expansion.
    pub fn with_cancel(mut self, cancel: Option<CancelToken>) -> Budget {
        self.cancel = cancel;
        self
    }

    /// A budget with `fuel` units and `deadline_ms` milliseconds from
    /// now, either optional.
    pub fn from_limits(fuel: Option<u64>, deadline_ms: Option<u64>) -> Budget {
        Budget::new(fuel, deadline(deadline_ms))
    }

    /// Charge `units` of work. Returns the exhaustion cause once the
    /// fuel allotment is consumed or the deadline has passed; every call
    /// after that keeps failing with the same cause.
    ///
    /// # Errors
    ///
    /// [`Exhaustion`] when the budget has run out.
    pub fn charge(&self, units: u64) -> Result<(), Exhaustion> {
        self.note(units);
        match self.exhausted.get() {
            Some(why) => Err(why),
            None => Ok(()),
        }
    }

    /// Check for exhaustion without charging any fuel.
    ///
    /// # Errors
    ///
    /// [`Exhaustion`] when the budget has run out.
    pub fn check(&self) -> Result<(), Exhaustion> {
        self.charge(0)
    }

    /// Record `units` of work without failing — for nested estimators
    /// (e.g. the covering lookahead) that cannot propagate an error; the
    /// enclosing loop's next [`charge`](Budget::charge) observes the
    /// exhaustion.
    pub fn note(&self, units: u64) {
        self.spent.set(self.spent.get().saturating_add(units));
        if self.exhausted.get().is_some() {
            return;
        }
        if let Some(f) = self.fuel.get() {
            let left = f.saturating_sub(units);
            self.fuel.set(Some(left));
            if left == 0 {
                self.exhausted.set(Some(Exhaustion::Fuel));
                return;
            }
        }
        if self.deadline.is_some() || self.cancel.is_some() {
            let countdown = self.clock_in.get();
            if countdown == 0 {
                self.clock_in.set(CLOCK_STRIDE);
                // Cancellation outranks the deadline at the same sample:
                // a cancelled request should report as cancelled, not as
                // having coincidentally timed out.
                if self.cancel.as_ref().is_some_and(CancelToken::is_cancelled) {
                    self.exhausted.set(Some(Exhaustion::Cancelled));
                } else if self.deadline.is_some_and(|d| Instant::now() >= d) {
                    self.exhausted.set(Some(Exhaustion::Deadline));
                }
            } else {
                self.clock_in.set(countdown - 1);
            }
        }
    }

    /// Force the budget into the exhausted state (fault-injection hook).
    pub fn exhaust(&self, why: Exhaustion) {
        if self.exhausted.get().is_none() {
            self.exhausted.set(Some(why));
        }
    }

    /// The latched exhaustion cause, if the budget has run out.
    pub fn exhaustion(&self) -> Option<Exhaustion> {
        self.exhausted.get()
    }

    /// Total units charged so far.
    pub fn spent(&self) -> u64 {
        self.spent.get()
    }

    /// The length of the shortest schedule completed under this budget,
    /// if any (see the module doc).
    pub(crate) fn incumbent(&self) -> Option<usize> {
        self.incumbent.get()
    }

    /// Record a completed schedule of `len` instructions: the incumbent
    /// becomes the shorter of the two.
    pub(crate) fn record_schedule(&self, len: usize) {
        let best = self.incumbent.get().map_or(len, |i| i.min(len));
        self.incumbent.set(Some(best));
    }

    /// The schedule length recorded for the canonical cover-graph
    /// `form`, if any (see the module doc).
    pub(crate) fn orbit_length(&self, form: &[u64]) -> Option<usize> {
        self.orbits.borrow().find(form, form_hash(form))
    }

    /// Record that a graph of canonical `form` covered, spill-free, in
    /// `len` instructions; a form already recorded keeps its length.
    pub(crate) fn record_orbit(&self, form: &[u64], len: usize) {
        let hash = form_hash(form);
        let mut orbits = self.orbits.borrow_mut();
        if orbits.find(form, hash).is_some() {
            return;
        }
        let start = orbits.words.len();
        orbits.words.extend_from_slice(form);
        let end = orbits.words.len();
        orbits.spans.push(OrbitSpan {
            hash,
            start,
            end,
            len,
        });
    }
}

impl Default for Budget {
    fn default() -> Budget {
        Budget::unlimited()
    }
}

/// Resolve a relative `deadline_ms` to an absolute instant. Computed
/// once per function compile and shared by every block so all blocks
/// race the same clock.
pub fn deadline(deadline_ms: Option<u64>) -> Option<Instant> {
    deadline_ms.map(|ms| Instant::now() + Duration::from_millis(ms))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unlimited_never_exhausts() {
        let b = Budget::unlimited();
        for _ in 0..10_000 {
            assert!(b.charge(1_000_000).is_ok());
        }
        assert_eq!(b.exhaustion(), None);
    }

    #[test]
    fn fuel_exhausts_and_latches() {
        let b = Budget::new(Some(10), None);
        assert!(b.charge(9).is_ok());
        assert_eq!(b.charge(1), Err(Exhaustion::Fuel));
        assert_eq!(b.charge(0), Err(Exhaustion::Fuel));
        assert_eq!(b.check(), Err(Exhaustion::Fuel));
        assert_eq!(b.exhaustion(), Some(Exhaustion::Fuel));
    }

    #[test]
    fn note_is_soft_but_observed_by_next_charge() {
        let b = Budget::new(Some(5), None);
        b.note(100);
        assert_eq!(b.check(), Err(Exhaustion::Fuel));
        assert_eq!(b.spent(), 100);
    }

    #[test]
    fn past_deadline_exhausts_within_one_stride() {
        let b = Budget::new(None, Some(Instant::now() - Duration::from_millis(1)));
        let mut out = Ok(());
        for _ in 0..=CLOCK_STRIDE {
            out = b.charge(1);
            if out.is_err() {
                break;
            }
        }
        assert_eq!(out, Err(Exhaustion::Deadline));
    }

    #[test]
    fn pre_cancelled_token_fails_the_first_check() {
        let token = CancelToken::new();
        token.cancel();
        let b = Budget::unlimited().with_cancel(Some(token));
        // The countdown starts at zero: the very first check samples the
        // token, so a pre-cancelled compile never expands a node.
        assert_eq!(b.check(), Err(Exhaustion::Cancelled));
    }

    #[test]
    fn cancellation_lands_within_one_stride() {
        let token = CancelToken::new();
        let b = Budget::unlimited().with_cancel(Some(token.clone()));
        assert!(b.check().is_ok());
        token.cancel();
        let mut out = Ok(());
        for _ in 0..=CLOCK_STRIDE {
            out = b.charge(1);
            if out.is_err() {
                break;
            }
        }
        assert_eq!(out, Err(Exhaustion::Cancelled));
    }

    #[test]
    fn cancellation_outranks_a_blown_deadline() {
        let token = CancelToken::new();
        token.cancel();
        let b = Budget::new(None, Some(Instant::now() - Duration::from_millis(1)))
            .with_cancel(Some(token));
        assert_eq!(b.check(), Err(Exhaustion::Cancelled));
    }

    #[test]
    fn token_equality_is_by_identity() {
        let a = CancelToken::with_generation(3);
        let b = a.clone();
        assert_eq!(a, b);
        assert_ne!(a, CancelToken::with_generation(3));
        a.cancel();
        assert!(b.is_cancelled(), "clones share the flag");
        assert_eq!(b.generation(), 3);
    }

    #[test]
    fn incumbent_keeps_the_shortest_schedule() {
        let b = Budget::new(Some(10), None);
        assert_eq!(b.incumbent(), None);
        b.record_schedule(12);
        b.record_schedule(15);
        assert_eq!(b.incumbent(), Some(12));
        b.record_schedule(11);
        assert_eq!(b.incumbent(), Some(11));
        assert_eq!(b.spent(), 0, "recording charges nothing");
    }

    #[test]
    fn orbit_table_keeps_the_first_length_per_form() {
        let b = Budget::unlimited();
        assert_eq!(b.orbit_length(&[1, 2]), None);
        b.record_orbit(&[1, 2], 9);
        b.record_orbit(&[1, 2], 7);
        b.record_orbit(&[1, 2, 3], 8);
        assert_eq!(b.orbit_length(&[1, 2]), Some(9));
        assert_eq!(b.orbit_length(&[1, 2, 3]), Some(8));
        assert_eq!(b.orbit_length(&[2, 1]), None);
        assert_eq!(
            b.clone().orbit_length(&[1, 2, 3]),
            Some(8),
            "clones keep the table"
        );
    }

    #[test]
    fn injected_exhaustion_wins_only_if_first() {
        let b = Budget::unlimited();
        b.exhaust(Exhaustion::Injected);
        b.exhaust(Exhaustion::Fuel);
        assert_eq!(b.check(), Err(Exhaustion::Injected));
    }
}
