//! Peephole optimization after detailed register allocation (§IV-G).
//!
//! "If, after performing detailed register allocation, it is determined
//! that a particular load or spill is not needed, peephole optimization
//! ... will remove the unnecessary loads and spills and try to compact
//! the schedule by moving other operations into the empty slots if the
//! dependency constraints allow it."
//!
//! The pressure analysis used during covering is an upper bound, so a
//! spill it inserted may turn out removable: this pass tentatively undoes
//! each spill (rewiring consumers back to the original value), keeps the
//! change only when the schedule still verifies and colors, and then
//! recompacts the schedule with an earliest-fit pass.

use crate::cliques::conflict;
use crate::cover::Schedule;
use crate::covergraph::{CnId, CnKind, CoverGraph};
use crate::invariants::verify_schedule;
use crate::regalloc::{allocate, Allocation};
use aviv_isdl::Target;

/// Run the peephole pass in place. Never makes the schedule longer.
pub fn optimize(
    graph: &mut CoverGraph,
    target: &Target,
    schedule: &mut Schedule,
    alloc: &mut Allocation,
) {
    // 1. Try to undo each spill, most recent first (later spills depend
    //    on earlier pressure, so undoing in reverse composes better).
    let mut i = schedule.spills.len();
    while i > 0 {
        i -= 1;
        try_undo_spill(graph, target, schedule, alloc, i);
    }
    // 2. Earliest-fit compaction.
    compact(graph, target, schedule, alloc);
}

/// Attempt to remove spill `si`; commits on success.
fn try_undo_spill(
    graph: &mut CoverGraph,
    target: &Target,
    schedule: &mut Schedule,
    alloc: &mut Allocation,
    si: usize,
) {
    let rec = schedule.spills[si].clone();
    // Reload tails are derived from the graph rather than trusted from
    // the record (the sequential fallback leaves the record's load list
    // empty): a tail is any spill-chain node some outside node consumes.
    let tails: Vec<CnId> = rec
        .nodes
        .iter()
        .copied()
        .filter(|&n| {
            !graph.is_dead(n)
                && graph
                    .uses(n)
                    .iter()
                    .any(|u| !rec.nodes.contains(u) && !graph.is_dead(*u))
        })
        .filter(|&n| Some(n) != rec.spill)
        .collect();
    // Only the pure reload pattern is undone: every reload tail must land
    // in the victim's own bank (a tail in another bank replaced a ferry
    // transfer — undoing that needs the transfer resurrected, which the
    // covering step deliberately removed).
    let Some(victim_bank) = graph.node(rec.victim).dest_bank(target) else {
        return;
    };
    if tails
        .iter()
        .any(|&t| graph.node(t).dest_bank(target) != Some(victim_bank))
    {
        return;
    }

    // Any *other* alive node touching the spill slot (a remat of one of
    // this spill's reloads creates additional readers) pins the spill
    // store: undoing it would leave those readers loading garbage.
    let outside_slot_user = graph.alive().any(|id| {
        !rec.nodes.contains(&id)
            && matches!(
                graph.node(id).kind,
                CnKind::LoadVar { sym, .. } | CnKind::StoreVar { sym, .. }
                    if sym == rec.slot
            )
    });
    if outside_slot_user {
        return;
    }

    let mut trial_graph = graph.clone();
    let mut trial_sched = schedule.clone();
    for &tail in &tails {
        trial_graph.rewire_all(tail, rec.victim);
    }
    for &n in &rec.nodes {
        trial_graph.kill(n);
    }
    // Later spills' reloads may carry just-in-time ordering edges onto
    // the nodes we just killed; those edges are advisory and must go.
    trial_graph.prune_dead_deps();
    trial_graph.rebuild_indexes();
    for step in &mut trial_sched.steps {
        step.retain(|n| !rec.nodes.contains(n));
    }
    trial_sched.steps.retain(|s| !s.is_empty());
    trial_sched.spills.remove(si);

    if !verify_schedule(&trial_graph, target, &trial_sched).is_empty() {
        return;
    }
    let Ok(trial_alloc) = allocate(&trial_graph, target, &trial_sched) else {
        return;
    };
    *graph = trial_graph;
    *schedule = trial_sched;
    *alloc = trial_alloc;
}

/// Earliest-fit compaction: move each node as early as dependencies and
/// resources allow; commit only when the instruction count drops and the
/// result still verifies and colors.
fn compact(
    graph: &mut CoverGraph,
    target: &Target,
    schedule: &mut Schedule,
    alloc: &mut Allocation,
) {
    let mut trial: Vec<Vec<CnId>> = Vec::new();
    let mut placed_step: std::collections::HashMap<CnId, usize> = std::collections::HashMap::new();
    for step in &schedule.steps {
        for &id in step {
            let min_step = graph
                .preds(id)
                .map(|p| placed_step[&p] + 1)
                .max()
                .unwrap_or(0);
            let mut t = min_step;
            while t < trial.len() {
                let probe = trial[t].iter().copied().chain([id]);
                if conflict(graph, target, probe).is_none() {
                    break;
                }
                t += 1;
            }
            if t == trial.len() {
                trial.push(Vec::new());
            }
            trial[t].push(id);
            placed_step.insert(id, t);
        }
    }
    if trial.len() >= schedule.steps.len() {
        return;
    }
    let trial_sched = Schedule {
        steps: trial,
        spills: schedule.spills.clone(),
    };
    if !verify_schedule(graph, target, &trial_sched).is_empty() {
        return;
    }
    let Ok(trial_alloc) = allocate(graph, target, &trial_sched) else {
        return;
    };
    *schedule = trial_sched;
    *alloc = trial_alloc;
}
