//! `csa-parallel` and `csa-threaded` serve exactly what `csa` serves.
//!
//! Both names are aliases of the serial CSA, kept so requests and tables
//! that name them keep working. A served payload is the router name,
//! the rounds, the `PowerReport` fields, the degradation summary and the
//! schedule JSON; this suite encodes each alias's outcome with the serve
//! wire encoder and requires the bytes to equal `csa`'s once the router
//! string is set aside, plain and under sampled fault masks.

use cst::core::CstTopology;
use cst::engine::{Csa, EngineCtx, RouteOutcome};
use cst::serve::wire::encode_outcome_payload;
use rand::rngs::StdRng;
use rand::SeedableRng;

const ALIASES: [&str; 2] = ["csa-parallel", "csa-threaded"];

/// Payload bytes of `outcome` under the router name `"csa"`.
fn payload_as_csa(mut outcome: RouteOutcome) -> Vec<u8> {
    outcome.router = "csa";
    let mut buf = Vec::new();
    encode_outcome_payload(&mut buf, &outcome);
    buf
}

#[test]
fn aliases_encode_the_csa_payload_plain_and_masked() {
    let mut ctx = EngineCtx::new();
    let mut masked_with_drops = 0;
    for n in [64usize, 256, 1024] {
        let topo = CstTopology::with_leaves(n);
        for seed in 0..4u64 {
            let mut rng = StdRng::seed_from_u64(seed * 7919 + n as u64);
            let set = cst::workloads::well_nested_with_density(&mut rng, n, 0.6);
            let mask = cst::faults::sample_mask(&mut rng, &topo, 0.02);
            let plain = payload_as_csa(ctx.route(&Csa, &topo, &set).unwrap());
            let masked_out = ctx.route_masked(&Csa, &topo, &set, &mask).unwrap();
            if masked_out.degradation.as_ref().is_some_and(|d| d.dropped > 0) {
                masked_with_drops += 1;
            }
            let masked = payload_as_csa(masked_out);
            for name in ALIASES {
                let router = cst::engine::find(name).unwrap();
                let out = ctx.route(router.as_ref(), &topo, &set).unwrap();
                assert_eq!(out.router, name);
                assert!(payload_as_csa(out) == plain, "{name} n={n} seed={seed}: plain payload differs");
                let out = ctx.route_masked(router.as_ref(), &topo, &set, &mask).unwrap();
                assert_eq!(out.router, name);
                assert!(
                    payload_as_csa(out) == masked,
                    "{name} n={n} seed={seed}: masked payload differs"
                );
            }
        }
    }
    assert!(masked_with_drops > 0, "no masked request dropped a communication");
}
