//! End-to-end simulator integration: timing model, payload integrity,
//! trace serialization, energy accounting.

use bytes::Bytes;
use cst::core::CstTopology;
use cst::comm::CommSet;
use cst::engine::EngineCtx;
use cst::sim::{simulate, simulate_schedule, EnergyModel, Trace};
use rand::rngs::StdRng;
use rand::SeedableRng;

#[test]
fn payload_integrity_random_workloads() {
    for seed in 0..10u64 {
        let n = 128;
        let topo = CstTopology::with_leaves(n);
        let mut rng = StdRng::seed_from_u64(seed);
        let set = cst::workloads::well_nested_set(&mut rng, n, 30);
        let payloads: Vec<Bytes> = (0..set.len())
            .map(|i| Bytes::from(format!("msg-{seed}-{i}")))
            .collect();
        let sim = simulate(&topo, &set, Some(payloads.clone())).unwrap();
        assert_eq!(sim.deliveries.len(), set.len());
        for d in &sim.deliveries {
            // find the communication whose dest this is
            let (id, comm) = set.iter().find(|(_, c)| c.dest == d.dest).unwrap();
            assert_eq!(d.source, comm.source);
            assert_eq!(d.payload, payloads[id.0]);
            assert!(d.hops <= 2 * topo.height() as usize + 1);
        }
    }
}

#[test]
fn makespan_scales_with_width_not_size() {
    // Two workloads of the same width on different tree sizes: cycles
    // differ only through the height factor.
    let w = 8usize;
    let mut cycles = Vec::new();
    for n in [64usize, 256] {
        let topo = CstTopology::with_leaves(n);
        let mut rng = StdRng::seed_from_u64(3);
        let set = cst::workloads::with_width(&mut rng, n, w, 0.0);
        let sim = simulate(&topo, &set, None).unwrap();
        let h = u64::from(topo.height());
        assert_eq!(sim.cycles, h + w as u64 * (h + 1));
        cycles.push(sim.cycles);
    }
    assert!(cycles[1] > cycles[0]);
}

#[test]
fn trace_round_trip_and_consistency() {
    let n = 64;
    let topo = CstTopology::with_leaves(n);
    let set = cst::workloads::hierarchical_bus(n, 3);
    let sim = simulate(&topo, &set, None).unwrap();
    let trace = Trace::from_sim(&topo, &set, &sim);
    assert_eq!(trace.rounds.len(), sim.schedule.num_rounds());
    let total_transfers: usize = trace.rounds.iter().map(|r| r.transfers.len()).sum();
    assert_eq!(total_transfers, set.len());
    // serialization round-trip
    let back: Trace = serde_json::from_str(&trace.to_json()).unwrap();
    assert_eq!(back, trace);
}

#[test]
fn energy_gap_grows_with_width() {
    let n = 256;
    let topo = CstTopology::with_leaves(n);
    let model = EnergyModel::default();
    let mut ratios = Vec::new();
    for w in [2usize, 16, 64] {
        let mut rng = StdRng::seed_from_u64(w as u64);
        let set = cst::workloads::with_width(&mut rng, n, w, 0.0);
        let sim = simulate(&topo, &set, None).unwrap();
        let report = sim.meter.report(&topo);
        let hold = model.hold_energy(&report, 0, 0).total();
        let wt = model.writethrough_energy(&report, 0, 0).total();
        ratios.push(wt / hold);
    }
    assert!(
        ratios.windows(2).all(|p| p[1] > p[0]),
        "write-through/hold ratio should grow with width: {ratios:?}"
    );
}

#[test]
fn simulator_rejects_bad_inputs() {
    let topo = CstTopology::with_leaves(16);
    let crossing = cst::comm::CommSet::from_pairs(16, &[(0, 8), (4, 12)]);
    assert!(simulate(&topo, &crossing, None).is_err());
    let left = cst::comm::CommSet::from_pairs(16, &[(9, 2)]);
    assert!(simulate(&topo, &left, None).is_err());
}

/// A `general-merged` schedule, whose rounds hold circuits of both
/// orientations, replays on the simulator and delivers every message.
#[test]
fn replaying_a_merged_mixed_schedule_works() {
    let topo = CstTopology::with_leaves(16);
    let set = CommSet::from_pairs(16, &[(0, 7), (1, 6), (15, 8), (14, 9)]);
    let mut ctx = EngineCtx::new();
    let general = ctx.route_named("general", &topo, &set).unwrap();
    let merged = ctx.route_named("general-merged", &topo, &set).unwrap();
    assert_eq!(general.rounds, 4);
    assert_eq!(merged.rounds, 2, "halves interleave");
    let sim = simulate_schedule(&topo, &set, &merged.schedule, None).unwrap();
    assert_eq!(sim.deliveries.len(), 4);
    for d in &sim.deliveries {
        let comm = set.iter().find(|(_, c)| c.source == d.source).unwrap().1;
        assert_eq!(d.dest, comm.dest);
    }
}
