//! Pareto machinery over the four search objectives (cycles, DRAM bytes,
//! NoC hop-bytes, energy).

use crate::candidate::Candidate;
use crate::fingerprint::ScheduleKey;
use cello_sim::evaluate::CostEstimate;
use std::cmp::Ordering;

/// A scored candidate.
#[derive(Clone, Debug)]
pub struct Evaluated {
    /// The candidate spec.
    pub candidate: Candidate,
    /// Interned canonical key of the schedule it built (memo-cache
    /// identity — see [`Candidate::interned_key`]).
    pub key: ScheduleKey,
    /// The four objectives.
    pub cost: CostEstimate,
}

/// The cost order: cycles, then DRAM bytes, then NoC hop-bytes, then
/// energy. `Less` means `a` beats `b` on the objectives themselves;
/// schedules that tie on all four compare `Equal`.
pub(crate) fn cost_order(a: &Evaluated, b: &Evaluated) -> Ordering {
    a.cost
        .cycles
        .cmp(&b.cost.cycles)
        .then(a.cost.dram_bytes.cmp(&b.cost.dram_bytes))
        .then(a.cost.noc_hop_bytes.cmp(&b.cost.noc_hop_bytes))
        .then(a.cost.energy_pj.total_cmp(&b.cost.energy_pj))
}

/// Deterministic total order: cycles, then DRAM bytes, then NoC hop-bytes,
/// then energy (the key-free cost order), then the interned key as the
/// final tiebreak.
pub fn rank(a: &Evaluated, b: &Evaluated) -> Ordering {
    cost_order(a, b).then(a.key.cmp(&b.key))
}

/// The non-dominated subset of `evaluated` over (cycles, DRAM bytes, NoC
/// hop-bytes, energy), deduplicated by schedule key and sorted by [`rank`].
pub fn pareto_front(evaluated: &[Evaluated]) -> Vec<Evaluated> {
    let mut seen = std::collections::HashSet::new();
    let mut unique: Vec<&Evaluated> = Vec::new();
    for e in evaluated {
        if seen.insert(e.key) {
            unique.push(e);
        }
    }
    let mut front: Vec<Evaluated> = unique
        .iter()
        .filter(|e| !unique.iter().any(|o| o.cost.dominates(&e.cost)))
        .map(|e| (*e).clone())
        .collect();
    front.sort_by(rank);
    front
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(key: u128, cycles: u64, dram: u64, energy: f64) -> Evaluated {
        Evaluated {
            candidate: Candidate::paper_heuristic(),
            key: ScheduleKey(key),
            cost: CostEstimate {
                cycles,
                dram_bytes: dram,
                noc_hop_bytes: 0,
                energy_pj: energy,
            },
        }
    }

    /// A NaN-energy point is dominated by its finite twin and never
    /// survives into the front (the `dominates` totality regression,
    /// exercised at the front level).
    #[test]
    fn nan_energy_cannot_corrupt_the_front() {
        let all = vec![ev(1, 10, 10, 1.0), ev(2, 10, 10, f64::NAN)];
        let front = pareto_front(&all);
        let keys: Vec<ScheduleKey> = front.iter().map(|e| e.key).collect();
        assert_eq!(keys, vec![ScheduleKey(1)]);
    }

    #[test]
    fn front_keeps_tradeoffs_drops_dominated() {
        let all = vec![
            ev(1, 100, 50, 1.0),
            ev(2, 90, 60, 1.0),  // trades cycles for bytes with 1
            ev(3, 110, 55, 1.0), // dominated by 1
            ev(4, 90, 60, 2.0),  // dominated by 2
        ];
        let front = pareto_front(&all);
        let keys: Vec<ScheduleKey> = front.iter().map(|e| e.key).collect();
        assert_eq!(keys, vec![ScheduleKey(2), ScheduleKey(1)]);
    }

    #[test]
    fn front_dedupes_by_key() {
        let all = vec![ev(1, 10, 10, 1.0), ev(1, 10, 10, 1.0)];
        assert_eq!(pareto_front(&all).len(), 1);
    }

    #[test]
    fn rank_is_total_and_deterministic() {
        let mut v = [ev(2, 10, 10, 1.0), ev(1, 10, 10, 1.0), ev(3, 9, 99, 9.0)];
        v.sort_by(rank);
        let keys: Vec<ScheduleKey> = v.iter().map(|e| e.key).collect();
        assert_eq!(keys, vec![ScheduleKey(3), ScheduleKey(1), ScheduleKey(2)]);
        // Without the key tiebreak, equal costs tie.
        assert_eq!(cost_order(&v[1], &v[2]), Ordering::Equal);
        assert_eq!(rank(&v[1], &v[2]), Ordering::Less);
        assert_eq!(cost_order(&v[0], &v[1]), Ordering::Less);
    }
}
