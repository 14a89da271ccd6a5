//! Composite-schedule assembly and per-layer slicing.
//!
//! A composite schedule concatenates the per-layer schedules in layer
//! order; its `CommId`s refer to the *input pair ids* of the general
//! set, remapped from each layer's local ids via `layers[j]`. Assembly
//! runs on every engine request — including warm cache hits — so it
//! draws every shell from the [`SchedulePool`] and stays off the
//! allocator once the pool is sized (the warm general-hit gate in
//! `tests/alloc_gate.rs`).

use cst_comm::{CommId, Round, Schedule, SchedulePool};

/// Append one routed layer's rounds to `composite`, remapping layer-local
/// `CommId(k)` to input pair id `ids[k]`. Round shells come from `pool`.
pub fn append_layer(
    composite: &mut Schedule,
    pool: &mut SchedulePool,
    ids: &[usize],
    layer_schedule: &Schedule,
) {
    composite.rounds.reserve(layer_schedule.rounds.len());
    for round in &layer_schedule.rounds {
        let mut shell = pool.take_round();
        shell.comms.extend(round.comms.iter().map(|&CommId(k)| CommId(ids[k])));
        shell.configs.clone_from(&round.configs);
        composite.rounds.push(shell);
    }
}

/// Cut layer `j`'s band back out of a composite: rounds
/// `offset .. offset + rounds`, with input pair ids mapped back to the
/// layer-local ids of `ids` (the inverse of [`append_layer`]). Ids not
/// in `ids` are preserved as a sentinel past the layer length so the
/// audit can flag them (`CST301`) instead of panicking.
pub fn slice_layer(composite: &Schedule, offset: usize, rounds: usize, ids: &[usize]) -> Schedule {
    let local_of = |g: usize| ids.iter().position(|&i| i == g).unwrap_or(ids.len());
    let rounds = composite
        .rounds
        .iter()
        .skip(offset)
        .take(rounds)
        .map(|r| Round {
            comms: r.comms.iter().map(|&CommId(g)| CommId(local_of(g))).collect(),
            configs: r.configs.clone(),
        })
        .collect();
    Schedule { rounds }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cst_core::RoundConfigs;

    fn round_with(ids: &[usize]) -> Round {
        Round { comms: ids.iter().map(|&i| CommId(i)).collect(), configs: RoundConfigs::new() }
    }

    #[test]
    fn append_remaps_and_slice_inverts() {
        let layer = Schedule { rounds: vec![round_with(&[0, 1]), round_with(&[2])] };
        let ids = [5, 3, 8];
        let mut pool = SchedulePool::new();
        let mut composite = Schedule::default();
        append_layer(&mut composite, &mut pool, &ids, &layer);
        assert_eq!(composite.rounds[0].comms, vec![CommId(5), CommId(3)]);
        assert_eq!(composite.rounds[1].comms, vec![CommId(8)]);

        let back = slice_layer(&composite, 0, 2, &ids);
        assert_eq!(back, layer);
    }

    #[test]
    fn slice_respects_band_and_flags_foreign_ids() {
        let mut pool = SchedulePool::new();
        let mut composite = Schedule::default();
        append_layer(&mut composite, &mut pool, &[4], &Schedule { rounds: vec![round_with(&[0])] });
        append_layer(&mut composite, &mut pool, &[7], &Schedule { rounds: vec![round_with(&[0])] });
        let band = slice_layer(&composite, 1, 1, &[7]);
        assert_eq!(band.rounds.len(), 1);
        assert_eq!(band.rounds[0].comms, vec![CommId(0)]);
        // Slicing the wrong band maps id 4 past the layer: sentinel.
        let wrong = slice_layer(&composite, 0, 1, &[7]);
        assert_eq!(wrong.rounds[0].comms, vec![CommId(1)]);
    }

    #[test]
    fn warm_append_reuses_pooled_shells() {
        let layer = Schedule { rounds: vec![round_with(&[0]), round_with(&[1])] };
        let ids = [1, 0];
        let mut pool = SchedulePool::new();
        for _ in 0..3 {
            let mut composite = pool.take_schedule();
            append_layer(&mut composite, &mut pool, &ids, &layer);
            assert_eq!(composite.rounds.len(), 2);
            pool.put_schedule(composite);
        }
    }
}
