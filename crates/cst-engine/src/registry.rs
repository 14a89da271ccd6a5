//! The scheduler registry: the single source of truth mapping stable
//! router names to boxed [`Router`] implementations. CLI flags, bench IDs,
//! analysis tables, and scripts all resolve names through here.

use crate::ctx::EngineCtx;
use crate::outcome::RouteOutcome;
use crate::router::{
    Csa, CsaNoPrune, CsaParallel, CsaThreaded, General, GeneralMerged, Greedy, Layered, Roy,
    Router, Sequential, Universal,
};
use cst_baseline::{LevelOrder, ScanOrder};
use cst_comm::CommSet;
use cst_core::{CstError, CstTopology};

/// The ten canonical router names, in presentation order. Every consumer
/// table and script iterates these; the registry additionally carries
/// parameterized ablation variants (`csa-no-prune`, `greedy-innermost`,
/// `greedy-input`, `roy-outermost`).
pub const CANONICAL: [&str; 10] = [
    "csa",
    "csa-parallel",
    "csa-threaded",
    "general",
    "general-merged",
    "layered",
    "universal",
    "greedy",
    "roy",
    "sequential",
];

/// The parameterized ablation variants, listed after [`CANONICAL`].
const ABLATIONS: [&str; 4] = ["csa-no-prune", "greedy-innermost", "greedy-input", "roy-outermost"];

/// All routers, canonical first, ablation variants after.
pub fn registry() -> Vec<Box<dyn Router>> {
    names().into_iter().filter_map(find).collect()
}

/// Look up a router by stable name, boxing only the router returned.
pub fn find(name: &str) -> Option<Box<dyn Router>> {
    Some(match name {
        "csa" => Box::new(Csa),
        "csa-parallel" => Box::new(CsaParallel),
        "csa-threaded" => Box::new(CsaThreaded),
        "general" => Box::new(General),
        "general-merged" => Box::new(GeneralMerged),
        "layered" => Box::new(Layered),
        "universal" => Box::new(Universal),
        "greedy" => Box::new(Greedy { order: ScanOrder::OutermostFirst }),
        "roy" => Box::new(Roy { order: LevelOrder::InnermostFirst }),
        "sequential" => Box::new(Sequential),
        "csa-no-prune" => Box::new(CsaNoPrune),
        "greedy-innermost" => Box::new(Greedy { order: ScanOrder::InnermostFirst }),
        "greedy-input" => Box::new(Greedy { order: ScanOrder::InputOrder }),
        "roy-outermost" => Box::new(Roy { order: LevelOrder::OutermostFirst }),
        _ => return None,
    })
}

/// All registry names, canonical first.
pub fn names() -> Vec<&'static str> {
    CANONICAL.into_iter().chain(ABLATIONS).collect()
}

/// One-shot convenience: route with a throwaway [`EngineCtx`]. Prefer a
/// long-lived context for repeated scheduling.
pub fn route_once(
    name: &str,
    topo: &CstTopology,
    set: &CommSet,
) -> Result<RouteOutcome, CstError> {
    EngineCtx::new().route_named(name, topo, set)
}
