//! Power and reconfiguration accounting (paper §2.3 and §5).
//!
//! The paper's model: *"if the switch connects an input to an output, then
//! it consumes one unit of power"*, and a switch that changes configuration
//! in a step needs at most three units (it has three connections to set).
//! Holding an existing connection across rounds is free — that is the whole
//! point of PADR: a power-aware schedule orders communications so switches
//! keep their settings as long as possible.
//!
//! [`PowerMeter`] therefore charges **one unit per newly-established
//! connection** ("hold semantics"): when round `r` requires `i -> o` at a
//! switch, the unit is charged only if `i -> o` was not already set; setting
//! it evicts whatever previously used either port at no extra cost (the
//! eviction *is* the reconfiguration being charged).
//!
//! Besides total units, the meter tracks per-switch:
//! * `units`: connection establishments (power units, §2.3);
//! * `change_rounds`: rounds in which the switch set at least one new
//!   connection (the "configuration changes" of Theorem 8);
//! * per-output-port driver transitions, the finest-grained view — Theorem 8
//!   bounds these by a constant for CSA and by O(w) for the baseline.

use crate::node::NodeId;
use crate::switch::{Connection, Side, SwitchConfig};
use crate::topology::CstTopology;
use serde::{Deserialize, Serialize};

/// Per-switch power statistics.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct SwitchPower {
    /// Total power units (connection establishments) at this switch under
    /// **hold semantics**: re-requiring a connection that is already set
    /// is free. This is the PADR model the CSA is optimal under.
    pub units: u32,
    /// Total power units under **write-through semantics**: every
    /// connection required in a round costs a unit, whether or not it was
    /// already set. This models a protocol (like the ID-based comparator
    /// \[6\]) that re-establishes each round's paths from scratch and gives
    /// switches no basis for retaining settings.
    pub writethrough_units: u32,
    /// Number of rounds in which this switch changed configuration.
    pub change_rounds: u32,
    /// Number of rounds in which this switch held at least one connection
    /// (its activity; write-through cost is bounded by 3x this).
    pub active_rounds: u32,
    /// Driver transitions per output port, indexed by `Side::index()`:
    /// how many times the input driving this output changed to a
    /// *different* input.
    pub port_transitions: [u32; 3],
}

impl SwitchPower {
    /// Sum of per-port driver transitions.
    pub fn total_transitions(&self) -> u32 {
        self.port_transitions.iter().sum()
    }
}

/// Aggregate statistics for a whole schedule.
#[derive(Clone, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct PowerReport {
    /// Total hold-semantics power units over all switches.
    pub total_units: u64,
    /// Total write-through power units over all switches.
    pub total_writethrough_units: u64,
    /// Maximum hold-semantics units at any single switch.
    pub max_units: u32,
    /// Maximum write-through units at any single switch (O(w) for a
    /// per-round path-establishment protocol, O(1)·w-independent for CSA
    /// would make no sense — CSA is metered under hold semantics).
    pub max_writethrough_units: u32,
    /// Maximum configuration-change rounds at any single switch.
    pub max_change_rounds: u32,
    /// Maximum rounds any single switch was active.
    pub max_active_rounds: u32,
    /// Maximum per-port driver transitions at any single switch (the
    /// quantity Theorem 8 bounds by O(1) for CSA).
    pub max_port_transitions: u32,
    /// Number of switches that were ever configured.
    pub active_switches: usize,
    /// Number of rounds accounted.
    pub rounds: usize,
}

/// Tracks persistent switch configurations across rounds and charges power
/// per the PADR model. One meter instance accounts one schedule execution.
///
/// # Examples
///
/// ```
/// use cst_core::{Connection, CstTopology, NodeId, PowerMeter};
///
/// let topo = CstTopology::with_leaves(8);
/// let mut meter = PowerMeter::new(&topo);
///
/// meter.begin_round();
/// assert!(meter.require(NodeId(2), Connection::L_TO_R)); // 1 unit
/// meter.begin_round();
/// assert!(!meter.require(NodeId(2), Connection::L_TO_R)); // held: free
///
/// let report = meter.report(&topo);
/// assert_eq!(report.total_units, 1);              // hold semantics
/// assert_eq!(report.total_writethrough_units, 2); // per-round semantics
/// ```
#[derive(Debug)]
pub struct PowerMeter {
    /// Persistent configuration of each switch (held between rounds).
    configs: Vec<SwitchConfig>,
    stats: Vec<SwitchPower>,
    rounds: usize,
    // Round stamps: slot i "is marked" iff it equals `stamp`. Beginning a
    // round bumps the stamp instead of clearing the tables, so begin_round
    // is O(1) rather than O(N) — that clear dominated short rounds on
    // large trees.
    changed_stamp: Vec<u32>,
    active_stamp: Vec<u32>,
    stamp: u32,
    // `touched[..num_touched]`: every switch `require`d since the last
    // reset, in first-touch order — the only slots that can differ from
    // the all-disconnected state, so after a sparse run reset and report
    // cost O(touched) instead of O(N). Sized to the node table plus one
    // spare slot up front: recording a switch is a plain store, with no
    // growth path.
    touched: Vec<u32>,
    num_touched: usize,
}

/// Equality is over the accounting state only: the touched list records
/// the order switches were first used, which two meters that charged
/// the same connections (say, compiled replay and the interpreter) may
/// reach differently.
impl PartialEq for PowerMeter {
    fn eq(&self, other: &Self) -> bool {
        self.configs == other.configs
            && self.stats == other.stats
            && self.rounds == other.rounds
            && self.changed_stamp == other.changed_stamp
            && self.active_stamp == other.active_stamp
            && self.stamp == other.stamp
    }
}

impl Eq for PowerMeter {}

impl Clone for PowerMeter {
    fn clone(&self) -> Self {
        PowerMeter {
            configs: self.configs.clone(),
            stats: self.stats.clone(),
            rounds: self.rounds,
            changed_stamp: self.changed_stamp.clone(),
            active_stamp: self.active_stamp.clone(),
            stamp: self.stamp,
            touched: self.touched.clone(),
            num_touched: self.num_touched,
        }
    }

    // Allocation-reusing copy: cloning a precomputed meter into a pooled
    // shell must not touch the heap once the shell has capacity (the
    // compiled-replay warm path copies one meter out per replay).
    fn clone_from(&mut self, src: &Self) {
        self.configs.clone_from(&src.configs);
        self.stats.clone_from(&src.stats);
        self.rounds = src.rounds;
        self.changed_stamp.clone_from(&src.changed_stamp);
        self.active_stamp.clone_from(&src.active_stamp);
        self.stamp = src.stamp;
        self.touched.resize(src.touched.len(), 0);
        self.touched[..src.num_touched].copy_from_slice(&src.touched[..src.num_touched]);
        self.num_touched = src.num_touched;
    }
}

impl PowerMeter {
    /// Fresh meter for `topo`; all switches start disconnected.
    pub fn new(topo: &CstTopology) -> Self {
        let n = topo.node_table_len();
        PowerMeter {
            configs: vec![SwitchConfig::empty(); n],
            stats: vec![SwitchPower::default(); n],
            rounds: 0,
            changed_stamp: vec![u32::MAX; n],
            active_stamp: vec![u32::MAX; n],
            stamp: 0,
            touched: vec![0; n + 1],
            num_touched: 0,
        }
    }

    /// Reset to the all-disconnected state for `topo`, reusing the existing
    /// allocations when the topology size is unchanged. A long-lived engine
    /// pools meters and resets them per request instead of rebuilding.
    ///
    /// On an unchanged topology size, after a run that charged few
    /// switches, this clears only those, so it costs O(switches touched):
    /// a sparse layer on a large tree pays for its own footprint, not for
    /// the tree. After a dense run it takes the flat clear, which is the
    /// cheaper one there (see `few_touched`).
    pub fn reset(&mut self, topo: &CstTopology) {
        let n = topo.node_table_len();
        if self.configs.len() == n && self.few_touched() {
            for &i in &self.touched[..self.num_touched] {
                let i = i as usize;
                self.configs[i] = SwitchConfig::empty();
                self.stats[i] = SwitchPower::default();
                self.changed_stamp[i] = u32::MAX;
                self.active_stamp[i] = u32::MAX;
            }
        } else {
            self.configs.clear();
            self.configs.resize(n, SwitchConfig::empty());
            self.stats.clear();
            self.stats.resize(n, SwitchPower::default());
            self.changed_stamp.clear();
            self.changed_stamp.resize(n, u32::MAX);
            self.active_stamp.clear();
            self.active_stamp.resize(n, u32::MAX);
            self.touched.resize(n + 1, 0);
        }
        self.num_touched = 0;
        self.rounds = 0;
        self.stamp = 0;
    }

    /// Begin accounting a new round. O(1): bumps the round stamp.
    pub fn begin_round(&mut self) {
        self.rounds += 1;
        self.stamp += 1;
    }

    /// Require connection `c` at `switch` for the current round, charging a
    /// hold-semantics unit if it is not already held (write-through units
    /// are charged unconditionally). Returns `true` if hold-semantics power
    /// was spent.
    #[inline]
    pub fn require(&mut self, switch: NodeId, c: Connection) -> bool {
        let i = switch.index();
        let cfg = &mut self.configs[i];
        self.stats[i].writethrough_units += 1;
        if self.active_stamp[i] != self.stamp {
            self.active_stamp[i] = self.stamp;
            self.stats[i].active_rounds += 1;
        }
        if cfg.has(c) {
            return false;
        }
        // Record the driver transition on the target output port.
        let st = &mut self.stats[i];
        if cfg.driver_of(c.to) != Some(c.from) {
            st.port_transitions[c.to.index()] += 1;
        }
        // If the input is being re-aimed, the output it used to drive loses
        // its driver; that output's next use will be charged as a
        // transition then. No unit is charged for the teardown itself.
        cfg.force(c);
        st.units += 1;
        if self.changed_stamp[i] != self.stamp {
            st.change_rounds += 1;
            // A switch's first requirement always sets a connection, so
            // its first change is its first touch. Branch-free: the slot
            // past the list is always written, and only a first touch
            // keeps it.
            let first = self.changed_stamp[i] == u32::MAX;
            self.changed_stamp[i] = self.stamp;
            self.touched[self.num_touched] = i as u32;
            self.num_touched += usize::from(first);
        }
        true
    }

    /// Current (held) configuration of a switch.
    pub fn config(&self, switch: NodeId) -> &SwitchConfig {
        &self.configs[switch.index()]
    }

    /// Per-switch stats.
    pub fn switch_power(&self, switch: NodeId) -> &SwitchPower {
        &self.stats[switch.index()]
    }

    /// Rounds accounted so far.
    pub fn rounds(&self) -> usize {
        self.rounds
    }

    /// Summarize over the internal switches of `topo`. When few switches
    /// were charged since the last reset, visits only those (every other
    /// switch has all-zero stats), so it costs O(switches touched).
    pub fn report(&self, topo: &CstTopology) -> PowerReport {
        let mut r = PowerReport { rounds: self.rounds, ..Default::default() };
        let mut add = |st: &SwitchPower| {
            if st.units > 0 {
                r.active_switches += 1;
            }
            r.total_units += u64::from(st.units);
            r.total_writethrough_units += u64::from(st.writethrough_units);
            r.max_units = r.max_units.max(st.units);
            r.max_writethrough_units = r.max_writethrough_units.max(st.writethrough_units);
            r.max_change_rounds = r.max_change_rounds.max(st.change_rounds);
            r.max_active_rounds = r.max_active_rounds.max(st.active_rounds);
            r.max_port_transitions = r.max_port_transitions.max(st.total_transitions());
        };
        if self.few_touched() {
            let touched = &self.touched[..self.num_touched];
            for &i in touched.iter().filter(|&&i| topo.is_internal(NodeId(i as usize))) {
                add(&self.stats[i as usize]);
            }
        } else {
            topo.switches_top_down().for_each(|s| add(&self.stats[s.index()]));
        }
        r
    }

    /// At most a quarter of the nodes charged: below that, visiting them in
    /// touch order is no slower than a flat pass over the node table. Timed
    /// on reset + report alone: the walk is level with the flat pass at a
    /// fifth to a third of the table touched (n=1024), and 1.3x to 2.5x
    /// slower at two fifths to a half of it (dense well-nested sets at
    /// n=64 to 1024, re-metering composite schedules at n=256 to 4096).
    fn few_touched(&self) -> bool {
        4 * self.num_touched <= self.configs.len()
    }

    /// Per-switch change-round counts for distribution analyses (E6),
    /// restricted to internal switches, in node order.
    pub fn change_round_histogram(&self, topo: &CstTopology) -> Vec<u32> {
        topo.switches_top_down()
            .map(|s| self.stats[s.index()].change_rounds)
            .collect()
    }

    /// Per-switch total port transitions, in node order.
    pub fn transition_histogram(&self, topo: &CstTopology) -> Vec<u32> {
        topo.switches_top_down()
            .map(|s| self.stats[s.index()].total_transitions())
            .collect()
    }
}

/// Convenience: charge a whole round given per-switch required connections.
///
/// `requirements` yields `(switch, connection)` pairs; call sites that build
/// complete rounds (baseline schedulers) use this instead of interleaving
/// `require` calls with their sweep.
pub fn charge_round<I>(meter: &mut PowerMeter, requirements: I)
where
    I: IntoIterator<Item = (NodeId, Connection)>,
{
    meter.begin_round();
    for (s, c) in requirements {
        meter.require(s, c);
    }
}

/// The paper's coarse upper bound: a full reconfiguration of one switch
/// costs at most this many units (three connections).
pub const MAX_UNITS_PER_RECONFIG: u32 = 3;

/// Silence for unused import in non-test builds of this module.
#[allow(unused)]
fn _side_used(s: Side) -> usize {
    s.index()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::node::NodeId;

    fn topo() -> CstTopology {
        CstTopology::with_leaves(8)
    }

    #[test]
    fn holding_is_free() {
        let t = topo();
        let mut m = PowerMeter::new(&t);
        let s = NodeId(2);
        m.begin_round();
        assert!(m.require(s, Connection::L_TO_R)); // 1 unit
        m.begin_round();
        assert!(!m.require(s, Connection::L_TO_R)); // held: free
        m.begin_round();
        assert!(!m.require(s, Connection::L_TO_R));
        let st = m.switch_power(s);
        assert_eq!(st.units, 1);
        assert_eq!(st.change_rounds, 1);
        assert_eq!(st.total_transitions(), 1);
        assert_eq!(m.rounds(), 3);
    }

    #[test]
    fn reconfiguration_charges() {
        let t = topo();
        let mut m = PowerMeter::new(&t);
        let s = NodeId(2);
        m.begin_round();
        m.require(s, Connection::L_TO_R);
        m.begin_round();
        m.require(s, Connection::P_TO_R); // r_o re-driven: transition + unit
        m.begin_round();
        m.require(s, Connection::L_TO_R); // back again
        let st = m.switch_power(s);
        assert_eq!(st.units, 3);
        assert_eq!(st.change_rounds, 3);
        assert_eq!(st.port_transitions[Side::Right.index()], 3);
    }

    #[test]
    fn multiple_connections_one_round_is_one_change_round() {
        let t = topo();
        let mut m = PowerMeter::new(&t);
        let s = NodeId(3);
        m.begin_round();
        m.require(s, Connection::R_TO_P);
        m.require(s, Connection::P_TO_L);
        m.require(s, Connection::L_TO_R);
        let st = m.switch_power(s);
        assert_eq!(st.units, 3);
        assert_eq!(st.change_rounds, 1);
    }

    #[test]
    fn report_aggregates() {
        let t = topo();
        let mut m = PowerMeter::new(&t);
        charge_round(&mut m, [(NodeId(1), Connection::L_TO_R), (NodeId(2), Connection::L_TO_P)]);
        charge_round(&mut m, [(NodeId(1), Connection::L_TO_R)]);
        let r = m.report(&t);
        assert_eq!(r.total_units, 2);
        assert_eq!(r.max_units, 1);
        assert_eq!(r.active_switches, 2);
        assert_eq!(r.rounds, 2);
        assert_eq!(r.max_change_rounds, 1);
    }

    #[test]
    fn input_reaim_frees_old_output_without_charge() {
        let t = topo();
        let mut m = PowerMeter::new(&t);
        let s = NodeId(2);
        m.begin_round();
        m.require(s, Connection::L_TO_R);
        m.begin_round();
        // l_i re-aimed at p_o: one unit; r_o becomes undriven silently.
        m.require(s, Connection::L_TO_P);
        assert_eq!(m.config(s).driver_of(Side::Right), None);
        assert_eq!(m.switch_power(s).units, 2);
        // p_o transition counted once, r_o transition counted once (initial set)
        assert_eq!(m.switch_power(s).port_transitions, [0, 1, 1]);
    }

    #[test]
    fn writethrough_charges_every_round() {
        let t = topo();
        let mut m = PowerMeter::new(&t);
        let s = NodeId(2);
        for _ in 0..5 {
            m.begin_round();
            m.require(s, Connection::L_TO_R);
        }
        let st = m.switch_power(s);
        // hold semantics: set once
        assert_eq!(st.units, 1);
        // write-through: paid every round
        assert_eq!(st.writethrough_units, 5);
        assert_eq!(st.active_rounds, 5);
        let r = m.report(&t);
        assert_eq!(r.total_units, 1);
        assert_eq!(r.total_writethrough_units, 5);
        assert_eq!(r.max_writethrough_units, 5);
        assert_eq!(r.max_active_rounds, 5);
    }

    #[test]
    fn histograms_cover_all_switches() {
        let t = topo();
        let m = PowerMeter::new(&t);
        assert_eq!(m.change_round_histogram(&t).len(), t.num_switches());
        assert_eq!(m.transition_histogram(&t).len(), t.num_switches());
    }
}
