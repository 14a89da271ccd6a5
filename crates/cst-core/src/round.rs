//! Flat round representations: the dense scratch arena schedulers sweep
//! into and the compact per-round configuration table they emit.
//!
//! The heap layout of [`NodeId`] (root = 1, children `2i`/`2i+1`) makes a
//! node id a dense index, so per-round switch configurations never need a
//! tree map: the hot path writes into a preallocated [`ConfigArena`] slot
//! in O(1) and the finished round is extracted as a [`RoundConfigs`] — a
//! sorted flat table costing O(touched) space, O(log touched) lookup and
//! O(touched) iteration. Rebuilding the same round through either path
//! yields identical `RoundConfigs` (and identical serialized JSON, pinned
//! in `tests/cross_scheduler.rs`).

use crate::error::CstError;
use crate::node::{LeafId, NodeId};
use crate::switch::{Connection, Side, SwitchConfig};
use crate::topology::{CstTopology, PathSettings, SETTING, SETTING_CONFIG};
use serde::{Deserialize, Error as SerdeError, Serialize, Value};

/// Read access to per-switch configurations, implemented by both the dense
/// scratch ([`ConfigArena`]) and the compact table ([`RoundConfigs`]) so
/// circuit tracing and the data phase work on either without copying.
pub trait ConfigLookup {
    /// Configuration held at `node` this round, if any.
    fn config_at(&self, node: NodeId) -> Option<&SwitchConfig>;
}

/// The switch configurations of one round: a flat table of
/// `(switch, configuration)` entries sorted by heap index.
///
/// Replaces the former `BTreeMap<NodeId, SwitchConfig>`: same deterministic
/// order, same serialized form (a JSON map keyed by the decimal heap
/// index), but contiguous in memory. Entries never hold an empty
/// configuration.
#[derive(Debug, Default, PartialEq, Eq)]
pub struct RoundConfigs {
    entries: Vec<(NodeId, SwitchConfig)>,
}

impl Clone for RoundConfigs {
    fn clone(&self) -> Self {
        RoundConfigs { entries: self.entries.clone() }
    }

    // The derived impl would route through `Vec::clone_from`, which for
    // non-`Copy`-specialized code paths drops and re-clones the tail; the
    // schedule cache leans on `clone_from` to repopulate pooled rounds
    // without touching the allocator, so spell out the clear+extend of a
    // `Copy` element slice.
    fn clone_from(&mut self, src: &Self) {
        self.entries.clear();
        self.entries.extend_from_slice(&src.entries);
    }
}

impl RoundConfigs {
    /// An empty table.
    pub fn new() -> Self {
        RoundConfigs::default()
    }

    /// Build from entries in arbitrary order; sorts by node id. Panics on
    /// duplicate nodes (a switch holds exactly one configuration).
    pub fn from_entries(entries: Vec<(NodeId, SwitchConfig)>) -> Self {
        let table = Self::from_entries_unchecked(entries);
        debug_assert!(
            table.entries.windows(2).all(|w| w[0].0 != w[1].0),
            "duplicate switch in round entries"
        );
        table
    }

    /// Build from entries in arbitrary order; sorts by node id but keeps
    /// duplicate nodes. Deserialization uses this form so a corrupted
    /// artifact *loads* and the static analyzer can flag the duplicate
    /// (`CST070`, two writers claiming one switch) instead of the schedule
    /// being unrepresentable.
    pub fn from_entries_unchecked(mut entries: Vec<(NodeId, SwitchConfig)>) -> Self {
        entries.sort_unstable_by_key(|&(n, _)| n.0);
        RoundConfigs { entries }
    }

    /// Number of configured switches.
    #[inline]
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when no switch is configured.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Configuration of `node`, by binary search on the heap index.
    #[inline]
    pub fn get(&self, node: NodeId) -> Option<&SwitchConfig> {
        self.entries
            .binary_search_by_key(&node.0, |&(n, _)| n.0)
            .ok()
            .map(|i| &self.entries[i].1)
    }

    /// Mutable configuration slot for `node`, inserted empty if absent.
    /// O(len) on insert — for round *assembly* use [`ConfigArena`]; this is
    /// for small manual construction (tests, round merging).
    pub fn entry_mut(&mut self, node: NodeId) -> &mut SwitchConfig {
        match self.entries.binary_search_by_key(&node.0, |&(n, _)| n.0) {
            Ok(i) => &mut self.entries[i].1,
            Err(i) => {
                self.entries.insert(i, (node, SwitchConfig::empty()));
                &mut self.entries[i].1
            }
        }
    }

    /// Iterate `(switch, configuration)` in heap-index order.
    #[inline]
    pub fn iter(&self) -> impl Iterator<Item = (NodeId, &SwitchConfig)> + '_ {
        self.entries.iter().map(|(n, cfg)| (*n, cfg))
    }

    /// Drop all entries, keeping the allocation for reuse.
    #[inline]
    pub fn clear(&mut self) {
        self.entries.clear();
    }

    /// Release capacity beyond `min_capacity` entries (`Vec::shrink_to`).
    pub fn shrink_to(&mut self, min_capacity: usize) {
        self.entries.shrink_to(min_capacity);
    }

    /// Iterate `(switch, connection)` requirements in deterministic order.
    #[inline]
    pub fn requirements(&self) -> impl Iterator<Item = (NodeId, Connection)> + '_ {
        self.entries
            .iter()
            .flat_map(|(n, cfg)| cfg.connections().map(move |c| (*n, c)))
    }
}

impl<'a> IntoIterator for &'a RoundConfigs {
    type Item = (NodeId, &'a SwitchConfig);
    type IntoIter = std::iter::Map<
        std::slice::Iter<'a, (NodeId, SwitchConfig)>,
        fn(&'a (NodeId, SwitchConfig)) -> (NodeId, &'a SwitchConfig),
    >;

    fn into_iter(self) -> Self::IntoIter {
        self.entries.iter().map(|(n, cfg)| (*n, cfg))
    }
}

impl ConfigLookup for RoundConfigs {
    #[inline]
    fn config_at(&self, node: NodeId) -> Option<&SwitchConfig> {
        self.get(node)
    }
}

// Serialized exactly like the `BTreeMap<NodeId, SwitchConfig>` it
// replaced: a map keyed by the decimal heap index, in ascending order.
impl Serialize for RoundConfigs {
    fn to_value(&self) -> Value {
        Value::Map(
            self.entries
                .iter()
                .map(|(n, cfg)| (n.0.to_string(), cfg.to_value()))
                .collect(),
        )
    }
}

/// JSON of one `driver` slot (`Option<Side>`), indexed by
/// `None`, `Left`, `Right`, `Parent`.
const DRIVER_JSON: [&[u8]; 4] = [b"null", b"\"Left\"", b"\"Right\"", b"\"Parent\""];

/// Longest entry suffix: `":{"driver":["Parent","Parent","Parent"]}`.
const SUFFIX_MAX: usize = 41;

/// What follows a table entry's key digits, `":{"driver":[a,b,c]}`, for
/// every driver triple, indexed by `16·a + 4·b + c` over
/// [`DRIVER_JSON`] slots; each suffix with its length.
const ENTRY_SUFFIX: [([u8; SUFFIX_MAX], u8); 64] = entry_suffixes();

const fn entry_suffixes() -> [([u8; SUFFIX_MAX], u8); 64] {
    const fn append(out: &mut ([u8; SUFFIX_MAX], u8), bytes: &[u8]) {
        let mut k = 0;
        while k < bytes.len() {
            out.0[out.1 as usize] = bytes[k];
            out.1 += 1;
            k += 1;
        }
    }
    let mut table = [([0u8; SUFFIX_MAX], 0u8); 64];
    let mut i = 0;
    while i < 64 {
        let entry = &mut table[i];
        append(entry, b"\":{\"driver\":[");
        append(entry, DRIVER_JSON[i / 16]);
        append(entry, b",");
        append(entry, DRIVER_JSON[i / 4 % 4]);
        append(entry, b",");
        append(entry, DRIVER_JSON[i % 4]);
        append(entry, b"]}");
        i += 1;
    }
    table
}

impl RoundConfigs {
    /// Append exactly the bytes `serde_json::to_string` produces for this
    /// table, without building a `serde::Value` tree: the map keyed by the
    /// decimal heap index, each value `{"driver":[..3 slots..]}`. An entry
    /// is its separator and quote, its key digits and one constant
    /// suffix picked by its three driver slots.
    pub fn write_json(&self, out: &mut Vec<u8>) {
        out.push(b'{');
        for (i, (node, cfg)) in self.entries.iter().enumerate() {
            out.extend_from_slice(if i == 0 { b"\"" } else { b",\"" });
            write_json_uint(out, node.0 as u64);
            let slots = Side::ALL
                .into_iter()
                .fold(0, |acc, side| 4 * acc + cfg.driver_of(side).map_or(0, |d| d.index() + 1));
            let (bytes, len) = &ENTRY_SUFFIX[slots];
            out.extend_from_slice(&bytes[..usize::from(*len)]);
        }
        out.push(b'}');
    }
}

/// Append `v` in decimal, as `serde_json` writes an unsigned integer,
/// without allocating.
pub fn write_json_uint(out: &mut Vec<u8>, mut v: u64) {
    let mut digits = [0u8; 20];
    let mut at = digits.len();
    loop {
        at -= 1;
        digits[at] = b'0' + (v % 10) as u8;
        v /= 10;
        if v == 0 {
            break;
        }
    }
    out.extend_from_slice(&digits[at..]);
}

impl Deserialize for RoundConfigs {
    fn from_value(v: &Value) -> Result<Self, SerdeError> {
        match v {
            Value::Map(items) => {
                let entries = items
                    .iter()
                    .map(|(k, val)| {
                        let idx: usize = k.parse().map_err(|_| {
                            SerdeError(format!("switch key {k:?} is not a heap index"))
                        })?;
                        Ok((NodeId(idx), SwitchConfig::from_value(val)?))
                    })
                    .collect::<Result<Vec<_>, SerdeError>>()?;
                Ok(RoundConfigs::from_entries_unchecked(entries))
            }
            other => Err(SerdeError(format!(
                "round configs must be a map, got {}",
                other.type_name()
            ))),
        }
    }
}

/// Entries a round table grown by [`ConfigArena::take_round_into`] has
/// room for at least: one circuit's switches (`2·log2(n) − 1`) on trees
/// of up to 2^16 leaves. A pooled table that carried a small round of
/// one request then still fits a one-circuit round of the next, so a
/// warm context does not grow it.
const MIN_TABLE_CAPACITY: usize = 32;

/// Dense per-round scratch: one [`SwitchConfig`] slot per heap index plus
/// the list of touched switches, so building a round costs O(1) per
/// connection and resetting costs O(touched) — never O(N).
///
/// A slot counts as occupied exactly when its configuration is non-empty
/// (schedulers only record switches that hold at least one connection, so
/// no separate presence bitmap is needed).
#[derive(Clone, Debug)]
pub struct ConfigArena {
    slots: Vec<SwitchConfig>,
    touched: Vec<NodeId>,
}

impl Default for ConfigArena {
    /// Zero-slot arena; size it with [`ConfigArena::reset_for`] before use.
    fn default() -> Self {
        ConfigArena { slots: Vec::new(), touched: Vec::new() }
    }
}

impl ConfigArena {
    /// Empty arena sized for `topo`.
    pub fn new(topo: &CstTopology) -> Self {
        let mut a = ConfigArena::default();
        a.reset_for(topo);
        a
    }

    /// Clear and resize for `topo`, reusing the slot allocation when the
    /// capacity suffices. Lets one arena serve requests on differently
    /// sized trees without reallocating in steady state.
    pub fn reset_for(&mut self, topo: &CstTopology) {
        self.clear();
        self.slots.resize(topo.node_table_len(), SwitchConfig::empty());
    }

    /// Add connection `c` at `node` for the current round.
    #[inline]
    pub fn set(&mut self, node: NodeId, c: Connection) -> Result<(), CstError> {
        let slot = &mut self.slots[node.index()];
        if slot.is_empty() {
            self.touched.push(node);
        }
        slot.set(c)
    }

    /// Configuration currently held at `node`, O(1).
    #[inline]
    pub fn get(&self, node: NodeId) -> Option<&SwitchConfig> {
        let slot = &self.slots[node.index()];
        if slot.is_empty() {
            None
        } else {
            Some(slot)
        }
    }

    /// Number of switches touched this round.
    #[inline]
    pub fn touched(&self) -> usize {
        self.touched.len()
    }

    /// Iterate touched `(switch, configuration)` pairs in *touch* order
    /// (unsorted). O(touched); use [`ConfigArena::take_round`] when a
    /// deterministic heap-index order is required.
    #[inline]
    pub fn iter(&self) -> impl Iterator<Item = (NodeId, &SwitchConfig)> + '_ {
        self.touched.iter().map(move |&n| (n, &self.slots[n.index()]))
    }

    /// Reset for the next round without reallocating.
    pub fn clear(&mut self) {
        for &n in &self.touched {
            self.slots[n.index()].clear();
        }
        self.touched.clear();
    }

    /// Extract the round as a compact sorted table and reset the arena.
    pub fn take_round(&mut self) -> RoundConfigs {
        let mut out = RoundConfigs::new();
        self.take_round_into(&mut out);
        out
    }

    /// Like [`ConfigArena::take_round`], but writes into `out`, reusing its
    /// allocation. After the first few rounds of a long-lived engine this
    /// path allocates nothing: the table's capacity is recycled round to
    /// round. A table that must grow gets room for at least 32 entries
    /// (see `MIN_TABLE_CAPACITY`).
    pub fn take_round_into(&mut self, out: &mut RoundConfigs) {
        self.touched.sort_unstable_by_key(|n| n.0);
        out.entries.clear();
        if out.entries.capacity() < self.touched.len() {
            out.entries.reserve(self.touched.len().max(MIN_TABLE_CAPACITY));
        }
        out.entries
            .extend(self.touched.iter().map(|&n| (n, self.slots[n.index()])));
        self.clear();
    }
}

impl ConfigLookup for ConfigArena {
    #[inline]
    fn config_at(&self, node: NodeId) -> Option<&SwitchConfig> {
        self.get(node)
    }
}

/// Writes the switch table of one round of link-disjoint circuits
/// straight in heap-index order, without the per-round switch sort
/// [`ConfigArena::take_round_into`] pays: the circuits' endpoints, sorted
/// by leaf, meet their ancestors at each level in heap order, and levels
/// run from the root down. Settings come from
/// [`CstTopology::path_settings`]. Reusable; warm, it allocates nothing.
#[derive(Clone, Debug, Default)]
pub struct CircuitTable {
    /// Each circuit once per endpoint: the endpoint's leaf node, whether
    /// it is the destination, and the circuit's settings.
    ends: Vec<(usize, bool, PathSettings)>,
}

impl CircuitTable {
    /// An empty writer; its buffer is sized by the first round.
    pub fn new() -> Self {
        CircuitTable::default()
    }

    /// Replace `out` with the union of the circuits of `pairs`: the table
    /// a [`ConfigArena`] fed their [`CstTopology::path_settings`] would
    /// take. Fails as [`SwitchConfig::set`] does when two circuits drive
    /// one output, leaving `out` partial.
    pub fn write(
        &mut self,
        topo: &CstTopology,
        pairs: impl IntoIterator<Item = (LeafId, LeafId)>,
        out: &mut RoundConfigs,
    ) -> Result<(), CstError> {
        self.ends.clear();
        let mut top = 0;
        for (s, d) in pairs {
            let path = topo.path_settings(s, d);
            top = top.max(path.levels());
            self.ends.push((topo.leaf_node(s).0, false, path.clone()));
            self.ends.push((topo.leaf_node(d).0, true, path));
        }
        self.ends.sort_unstable_by_key(|&(leaf, ..)| leaf);
        out.entries.clear();
        for up in (1..=top).rev() {
            for (_, dest_side, path) in &self.ends {
                // The source end writes the apex; nothing lies above it.
                if up + usize::from(*dest_side) > path.levels() {
                    continue;
                }
                let (node, k) = path.at(*dest_side, up);
                match out.entries.last_mut() {
                    Some((last, held)) if *last == node => held.set(SETTING[k])?,
                    _ => out.entries.push((node, SETTING_CONFIG[k])),
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::switch::Connection;

    fn topo() -> CstTopology {
        CstTopology::with_leaves(8)
    }

    #[test]
    fn write_json_matches_serde_for_every_legal_config() {
        let mut legal = 0;
        for subset in 0u32..1 << Connection::ALL.len() {
            let mut cfg = SwitchConfig::empty();
            let ok = Connection::ALL
                .iter()
                .enumerate()
                .filter(|&(k, _)| subset >> k & 1 == 1)
                .all(|(_, &c)| cfg.set(c).is_ok());
            if !ok {
                continue;
            }
            legal += 1;
            // First and later entries differ in their separator.
            let table = RoundConfigs::from_entries(vec![(NodeId(1), cfg), (NodeId(4095), cfg)]);
            let mut direct = Vec::new();
            table.write_json(&mut direct);
            let serde = serde_json::to_string(&table).unwrap();
            assert_eq!(std::str::from_utf8(&direct).unwrap(), serde, "{cfg:?}");
        }
        // The partial injections of three sides with no fixed point:
        // empty, 6 single connections, 9 pairs, 2 rotations.
        assert_eq!(legal, 18);
    }

    #[test]
    fn arena_set_get_clear() {
        let mut a = ConfigArena::new(&topo());
        assert!(a.get(NodeId(2)).is_none());
        a.set(NodeId(2), Connection::L_TO_R).unwrap();
        assert!(a.get(NodeId(2)).unwrap().has(Connection::L_TO_R));
        assert_eq!(a.touched(), 1);
        a.clear();
        assert!(a.get(NodeId(2)).is_none());
        assert_eq!(a.touched(), 0);
    }

    #[test]
    fn take_round_sorts_and_resets() {
        let mut a = ConfigArena::new(&topo());
        a.set(NodeId(5), Connection::L_TO_R).unwrap();
        a.set(NodeId(2), Connection::L_TO_P).unwrap();
        a.set(NodeId(2), Connection::P_TO_R).unwrap();
        let r = a.take_round();
        assert_eq!(a.touched(), 0);
        assert!(a.get(NodeId(2)).is_none());
        let nodes: Vec<NodeId> = r.iter().map(|(n, _)| n).collect();
        assert_eq!(nodes, vec![NodeId(2), NodeId(5)]);
        assert_eq!(r.get(NodeId(2)).unwrap().len(), 2);
        assert_eq!(r.len(), 2);
        // A fresh table grows to the floor, not to the two entries.
        assert!(r.entries.capacity() >= MIN_TABLE_CAPACITY);
    }

    #[test]
    fn round_configs_lookup_and_requirements() {
        let mut r = RoundConfigs::new();
        r.entry_mut(NodeId(4)).set(Connection::L_TO_R).unwrap();
        r.entry_mut(NodeId(2)).set(Connection::L_TO_P).unwrap();
        assert_eq!(r.len(), 2);
        assert!(r.get(NodeId(4)).is_some());
        assert!(r.get(NodeId(3)).is_none());
        let req: Vec<_> = r.requirements().collect();
        assert_eq!(req[0].0, NodeId(2)); // sorted
        assert_eq!(req[1], (NodeId(4), Connection::L_TO_R));
    }

    #[test]
    fn circuit_table_matches_arena_assembly() {
        let topo = CstTopology::with_leaves(32);
        let (mut table, mut arena) = (CircuitTable::new(), ConfigArena::new(&topo));
        let mut out = RoundConfigs::new();
        // Greedy link-disjoint rounds over a fixed pseudo-random pair
        // stream of both orientations; the arena detects a conflict.
        let mut x = 0x2545_F491u64;
        let (mut pairs, mut rounds) = (Vec::new(), 0);
        for _ in 0..400 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let (s, d) = (LeafId(x as usize % 32), LeafId((x >> 32) as usize % 32));
            if s == d || pairs.iter().any(|&(a, b)| [a, b].contains(&s) || [a, b].contains(&d)) {
                continue;
            }
            let mut trial = arena.clone();
            if topo.path_settings(s, d).all(|(n, c)| trial.set(n, c).is_ok()) {
                arena = trial;
                pairs.push((s, d));
            } else {
                table.write(&topo, pairs.iter().copied(), &mut out).unwrap();
                assert_eq!(out, arena.take_round(), "pairs {pairs:?}");
                rounds += usize::from(pairs.len() > 1);
                pairs.clear();
            }
        }
        assert!(rounds >= 10, "only {rounds} rounds of two or more circuits");
        // Two circuits driving one output fail.
        let clash = [(LeafId(0), LeafId(31)), (LeafId(1), LeafId(30))];
        assert!(table.write(&topo, clash, &mut out).is_err());
    }

    #[test]
    fn serde_matches_btreemap_format() {
        let mut r = RoundConfigs::new();
        r.entry_mut(NodeId(4)).set(Connection::L_TO_R).unwrap();
        let json = serde_json::to_string(&r.to_value()).unwrap();
        // keyed by decimal heap index, like the old BTreeMap<NodeId, _>
        assert!(json.starts_with("{\"4\":"), "got {json}");
        let v: Value = serde_json::from_str::<Value>(&json).unwrap();
        let back = RoundConfigs::from_value(&v).unwrap();
        assert_eq!(back, r);
    }

    #[test]
    fn write_json_uint_matches_display() {
        let mut out = Vec::new();
        for v in [0u64, 7, 10, 99, 100, 65_535, 1 << 40, u64::MAX] {
            out.clear();
            write_json_uint(&mut out, v);
            assert_eq!(out, v.to_string().as_bytes());
        }
    }
}
