//! Typed diagnostics: the shared vocabulary of the static analyzer
//! (`cst-check`) and the runtime verifiers (`Schedule::verify`,
//! `cst-padr::verifier`).
//!
//! Every invariant this workspace checks — the paper's Theorem 4
//! (compatibility), Theorem 5 (`rounds == w`), Theorem 8 (O(1) port
//! transitions), Lemma 1 (counter conservation) and the implementation-level
//! ownership rules — has a stable `CST0xx` code. Checks emit
//! [`Diagnostic`]s into a [`DiagReport`]; legacy callers that want a
//! `Result` collapse the report with [`DiagReport::into_result`], which maps
//! the first error back onto [`CstError`]. The JSON rendering of a report is
//! pinned by a golden test in `cst-check` so downstream tooling can rely on
//! it. The full code table lives in `docs/DIAGNOSTICS.md`.

use crate::error::CstError;
use crate::node::NodeId;
use crate::switch::Side;
use serde::{de_field, Deserialize, Error as SerdeError, Serialize, Value};

/// How bad a diagnostic is. Errors fail verification; warnings flag waste
/// or suspicious-but-legal state (extra held connections, for example).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub enum Severity {
    /// Legal but wasteful or suspicious; `into_result` ignores these.
    Warning,
    /// An invariant is broken; verification fails.
    Error,
}

impl Severity {
    /// Lowercase name, used in the JSON report and text rendering.
    pub fn as_str(self) -> &'static str {
        match self {
            Severity::Warning => "warning",
            Severity::Error => "error",
        }
    }
}

impl core::fmt::Display for Severity {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// Stable diagnostic codes. The decades group by invariant family:
/// 00x input set, 01x coverage, 02x round legality (Theorem 4), 03x
/// optimality (Theorem 5), 04x power (Theorem 8), 05x Phase-1 counters
/// (Lemma 1), 06x selection order, 07x ownership, 10x fault/degradation
/// (the `CST1xx` family checks schedules against a hardware
/// [`crate::fault::FaultMask`]), 20x model conformance (the `CST2xx`
/// family compares a recorded [`crate::trace::ProtocolTrace`] against the
/// independent reference model in `cst-model`). Codes are append-only:
/// never renumber, never reuse.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub enum DiagCode {
    /// CST001 — the input set has a crossing pair (not well-nested, §2.1).
    NotWellNested,
    /// CST002 — a communication is not right-oriented (§2.1).
    NotRightOriented,
    /// CST010 — a round references a communication id outside the set.
    UnknownComm,
    /// CST011 — a communication is scheduled more than once (Theorem 4).
    DuplicateComm,
    /// CST012 — a communication is never scheduled (Theorem 4).
    MissingComm,
    /// CST020 — two circuits of one round share a directed link (Theorem 4).
    LinkConflict,
    /// CST021 — a round's recorded configurations miss a switch or
    /// connection its circuits require (Theorem 4).
    MissingConnection,
    /// CST022 — a recorded switch configuration is illegal: a same-side
    /// connection, or one input driving several outputs (§2, Fig. 3(a)).
    IllegalConfig,
    /// CST030 — round count differs from the width `w` (Theorem 5).
    RoundCountMismatch,
    /// CST040 — a switch exceeds the O(1) port-transition budget (Theorem 8).
    TransitionBudget,
    /// CST050 — a switch's `C_S` differs from the recomputed Phase-1 state,
    /// `M = min(S_L, D_R)` (Lemma 1).
    CounterMismatch,
    /// CST051 — an upward `C_U` message breaks Lemma 1 conservation.
    CounterFlow,
    /// CST060 — an inner communication runs before an enclosing one sharing
    /// a link: violates outermost-first selection order `O_c(u)` (§4).
    SelectionOrder,
    /// CST070 — one switch claimed twice within a round: two writers (the
    /// race class the parallel driver could introduce).
    DoubleStamp,
    /// CST071 — a switch or connection is configured but unused by the
    /// round's circuits (warning: wastes power, may hide stale state).
    ForeignConfig,
    /// CST100 — a scheduled circuit crosses a dead switch or dead directed
    /// link of the fault mask.
    MaskedLinkUsed,
    /// CST101 — one round uses both directions of a degraded (half-duplex)
    /// edge.
    HalfDuplexViolation,
    /// CST102 — a communication reported as dropped is actually routable
    /// under the mask (its unique path avoids every dead switch and link).
    DroppedRoutable,
    /// CST200 — a traced switch held different connections than the
    /// reference model derives for that round (Definitions 1–2).
    ModelConnectionMismatch,
    /// CST201 — a traced switch received or forwarded a control message
    /// (kind or rank) different from the model's, e.g. an out-of-order
    /// matched-pair selection (outermost-first, §4).
    ModelMessageMismatch,
    /// CST202 — the traced Phase-1 counter table differs from the model's
    /// independently derived `C_S` (Lemma 1).
    ModelCounterMismatch,
    /// CST203 — a round is missing a switch transition the model performs,
    /// or contains one it does not (every switch steps once per round).
    ModelTransitionSkipped,
    /// CST204 — match accounting broken: the trace schedules a matched
    /// pair the model no longer holds (duplicate) or ends with pairs the
    /// model still holds (lost).
    ModelMatchAccounting,
    /// CST300 — a decomposition layer is not a right-oriented well-nested
    /// set with unique endpoints (the Definition 1 precondition every
    /// layer must restore before routing).
    LayerNotWellNested,
    /// CST301 — a packed composite round is illegal: two of its pairs
    /// share a directed link or a PE, its switch settings are not exactly
    /// the union of its pairs' circuits, or the composite is longer than
    /// its layers back to back.
    LayerRoundOverlap,
    /// CST302 — coverage accounting broken: the layers are not a partition
    /// of the input set (`Σ layer comms != input comms`).
    DecompCoverage,
    /// CST303 — the lower-bound certificate is invalid: the witness is not
    /// mutually conflicting, overshoots the layer count, or the optimality
    /// claim contradicts `greedy == bound`.
    CertificateViolation,
}

impl DiagCode {
    /// Every code, in numeric order.
    pub const ALL: [DiagCode; 27] = [
        DiagCode::NotWellNested,
        DiagCode::NotRightOriented,
        DiagCode::UnknownComm,
        DiagCode::DuplicateComm,
        DiagCode::MissingComm,
        DiagCode::LinkConflict,
        DiagCode::MissingConnection,
        DiagCode::IllegalConfig,
        DiagCode::RoundCountMismatch,
        DiagCode::TransitionBudget,
        DiagCode::CounterMismatch,
        DiagCode::CounterFlow,
        DiagCode::SelectionOrder,
        DiagCode::DoubleStamp,
        DiagCode::ForeignConfig,
        DiagCode::MaskedLinkUsed,
        DiagCode::HalfDuplexViolation,
        DiagCode::DroppedRoutable,
        DiagCode::ModelConnectionMismatch,
        DiagCode::ModelMessageMismatch,
        DiagCode::ModelCounterMismatch,
        DiagCode::ModelTransitionSkipped,
        DiagCode::ModelMatchAccounting,
        DiagCode::LayerNotWellNested,
        DiagCode::LayerRoundOverlap,
        DiagCode::DecompCoverage,
        DiagCode::CertificateViolation,
    ];

    /// The stable `CST0xx` code string.
    pub fn as_str(self) -> &'static str {
        match self {
            DiagCode::NotWellNested => "CST001",
            DiagCode::NotRightOriented => "CST002",
            DiagCode::UnknownComm => "CST010",
            DiagCode::DuplicateComm => "CST011",
            DiagCode::MissingComm => "CST012",
            DiagCode::LinkConflict => "CST020",
            DiagCode::MissingConnection => "CST021",
            DiagCode::IllegalConfig => "CST022",
            DiagCode::RoundCountMismatch => "CST030",
            DiagCode::TransitionBudget => "CST040",
            DiagCode::CounterMismatch => "CST050",
            DiagCode::CounterFlow => "CST051",
            DiagCode::SelectionOrder => "CST060",
            DiagCode::DoubleStamp => "CST070",
            DiagCode::ForeignConfig => "CST071",
            DiagCode::MaskedLinkUsed => "CST100",
            DiagCode::HalfDuplexViolation => "CST101",
            DiagCode::DroppedRoutable => "CST102",
            DiagCode::ModelConnectionMismatch => "CST200",
            DiagCode::ModelMessageMismatch => "CST201",
            DiagCode::ModelCounterMismatch => "CST202",
            DiagCode::ModelTransitionSkipped => "CST203",
            DiagCode::ModelMatchAccounting => "CST204",
            DiagCode::LayerNotWellNested => "CST300",
            DiagCode::LayerRoundOverlap => "CST301",
            DiagCode::DecompCoverage => "CST302",
            DiagCode::CertificateViolation => "CST303",
        }
    }

    /// Parse a `CST0xx` code string.
    pub fn parse(s: &str) -> Option<DiagCode> {
        DiagCode::ALL.into_iter().find(|c| c.as_str() == s)
    }

    /// Default severity of the code.
    pub fn severity(self) -> Severity {
        match self {
            DiagCode::ForeignConfig => Severity::Warning,
            _ => Severity::Error,
        }
    }

    /// True for the `CST2xx` model-conformance family — emitted by the
    /// trace-replay layer in `cst-model`, not by the schedule analyzer.
    /// (The mutation harnesses split along this line.)
    pub fn is_model(self) -> bool {
        matches!(
            self,
            DiagCode::ModelConnectionMismatch
                | DiagCode::ModelMessageMismatch
                | DiagCode::ModelCounterMismatch
                | DiagCode::ModelTransitionSkipped
                | DiagCode::ModelMatchAccounting
        )
    }

    /// True for the `CST3xx` decomposition family — emitted by the
    /// composite-schedule audit in `cst-check::check_decomposition`, which
    /// takes a [`crate::Fp64`]-fingerprinted general set plus its layering
    /// rather than a single schedule. Covered by its own mutation harness.
    pub fn is_decomp(self) -> bool {
        matches!(
            self,
            DiagCode::LayerNotWellNested
                | DiagCode::LayerRoundOverlap
                | DiagCode::DecompCoverage
                | DiagCode::CertificateViolation
        )
    }

    /// Short kebab-case name of the violated invariant.
    pub fn invariant(self) -> &'static str {
        match self {
            DiagCode::NotWellNested => "well-nested-input",
            DiagCode::NotRightOriented => "right-oriented-input",
            DiagCode::UnknownComm => "known-comm-ids",
            DiagCode::DuplicateComm => "each-comm-once",
            DiagCode::MissingComm => "each-comm-once",
            DiagCode::LinkConflict => "link-compatible-rounds",
            DiagCode::MissingConnection => "configs-realize-circuits",
            DiagCode::IllegalConfig => "legal-switch-config",
            DiagCode::RoundCountMismatch => "rounds-equal-width",
            DiagCode::TransitionBudget => "constant-port-transitions",
            DiagCode::CounterMismatch => "counter-conservation",
            DiagCode::CounterFlow => "counter-conservation",
            DiagCode::SelectionOrder => "outermost-first",
            DiagCode::DoubleStamp => "single-writer-per-switch",
            DiagCode::ForeignConfig => "no-foreign-configs",
            DiagCode::MaskedLinkUsed => "no-masked-hardware",
            DiagCode::HalfDuplexViolation => "half-duplex-edges",
            DiagCode::DroppedRoutable => "drop-only-unroutable",
            DiagCode::ModelConnectionMismatch => "model-agrees-connections",
            DiagCode::ModelMessageMismatch => "model-agrees-messages",
            DiagCode::ModelCounterMismatch => "model-agrees-counters",
            DiagCode::ModelTransitionSkipped => "model-complete-sweep",
            DiagCode::ModelMatchAccounting => "model-match-accounting",
            DiagCode::LayerNotWellNested => "decomp-layers-well-nested",
            DiagCode::LayerRoundOverlap => "decomp-packed-rounds-legal",
            DiagCode::DecompCoverage => "decomp-layers-partition-input",
            DiagCode::CertificateViolation => "decomp-certificate-sound",
        }
    }

    /// Where in the paper (or the implementation) the invariant comes from.
    pub fn paper_ref(self) -> &'static str {
        match self {
            DiagCode::NotWellNested | DiagCode::NotRightOriented => "§2.1",
            DiagCode::UnknownComm
            | DiagCode::DuplicateComm
            | DiagCode::MissingComm
            | DiagCode::LinkConflict
            | DiagCode::MissingConnection => "Theorem 4",
            DiagCode::IllegalConfig => "§2, Fig. 3(a)",
            DiagCode::RoundCountMismatch => "Theorem 5",
            DiagCode::TransitionBudget => "Theorem 8",
            DiagCode::CounterMismatch | DiagCode::CounterFlow => "Lemma 1",
            DiagCode::SelectionOrder => "§4 (O_c(u))",
            DiagCode::DoubleStamp | DiagCode::ForeignConfig => "implementation",
            DiagCode::MaskedLinkUsed
            | DiagCode::HalfDuplexViolation
            | DiagCode::DroppedRoutable => "fault model (docs/FAULTS.md)",
            DiagCode::ModelConnectionMismatch | DiagCode::ModelTransitionSkipped => {
                "Definitions 1-2 (docs/MODEL.md)"
            }
            DiagCode::ModelMessageMismatch => "Definition 2, §4 (docs/MODEL.md)",
            DiagCode::ModelCounterMismatch => "Lemma 1 (docs/MODEL.md)",
            DiagCode::ModelMatchAccounting => "Lemmas 2-3 (docs/MODEL.md)",
            DiagCode::LayerNotWellNested
            | DiagCode::LayerRoundOverlap
            | DiagCode::DecompCoverage
            | DiagCode::CertificateViolation => "decomposition (docs/DECOMP.md)",
        }
    }
}

impl core::fmt::Display for DiagCode {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.write_str(self.as_str())
    }
}

impl Serialize for DiagCode {
    fn to_value(&self) -> Value {
        Value::Str(self.as_str().to_string())
    }
}

impl Deserialize for DiagCode {
    fn from_value(v: &Value) -> Result<Self, SerdeError> {
        match v {
            Value::Str(s) => DiagCode::parse(s)
                .ok_or_else(|| SerdeError(format!("unknown diagnostic code {s:?}"))),
            other => Err(SerdeError(format!(
                "diagnostic code must be a string, got {}",
                other.type_name()
            ))),
        }
    }
}

impl Serialize for Severity {
    fn to_value(&self) -> Value {
        Value::Str(self.as_str().to_string())
    }
}

impl Deserialize for Severity {
    fn from_value(v: &Value) -> Result<Self, SerdeError> {
        match v {
            Value::Str(s) if s == "warning" => Ok(Severity::Warning),
            Value::Str(s) if s == "error" => Ok(Severity::Error),
            other => Err(SerdeError(format!("invalid severity {other:?}"))),
        }
    }
}

/// One finding: a code, a severity, an optional location (round, switch,
/// port, link direction, communications involved) and a human message.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Diagnostic {
    /// Stable `CST0xx` code.
    pub code: DiagCode,
    /// Severity (defaults to the code's own).
    pub severity: Severity,
    /// Human-readable explanation.
    pub message: String,
    /// Round index the finding is located in, if round-local.
    pub round: Option<usize>,
    /// Switch the finding is located at, if switch-local.
    pub node: Option<NodeId>,
    /// Output port involved, if port-local.
    pub port: Option<Side>,
    /// For link findings: `true` = upward link above [`Diagnostic::node`].
    pub up: Option<bool>,
    /// Communication ids involved (0, 1 or 2).
    pub comms: Vec<usize>,
}

impl Diagnostic {
    /// A new diagnostic with the code's default severity and no location.
    pub fn new(code: DiagCode, message: impl Into<String>) -> Diagnostic {
        Diagnostic {
            code,
            severity: code.severity(),
            message: message.into(),
            round: None,
            node: None,
            port: None,
            up: None,
            comms: Vec::new(),
        }
    }

    /// Locate the diagnostic in a round.
    pub fn with_round(mut self, round: usize) -> Self {
        self.round = Some(round);
        self
    }

    /// Locate the diagnostic at a switch.
    pub fn with_node(mut self, node: NodeId) -> Self {
        self.node = Some(node);
        self
    }

    /// Locate the diagnostic at an output port.
    pub fn with_port(mut self, port: Side) -> Self {
        self.port = Some(port);
        self
    }

    /// Locate the diagnostic on a directed link (`node` = child endpoint).
    pub fn with_link(mut self, node: NodeId, up: bool) -> Self {
        self.node = Some(node);
        self.up = Some(up);
        self
    }

    /// Attach an involved communication id.
    pub fn with_comm(mut self, comm: usize) -> Self {
        self.comms.push(comm);
        self
    }

    /// Map the diagnostic back onto the legacy [`CstError`] vocabulary.
    pub fn to_cst_error(&self) -> CstError {
        match self.code {
            DiagCode::LinkConflict => CstError::LinkConflict {
                node: self.node.unwrap_or(NodeId::ROOT),
                upward: self.up.unwrap_or(true),
            },
            DiagCode::NotWellNested if self.comms.len() >= 2 => CstError::NotWellNested {
                a: self.comms[0],
                b: self.comms[1],
            },
            _ => CstError::ProtocolViolation {
                node: self.node.unwrap_or(NodeId::ROOT),
                detail: format!("[{}] {}", self.code, self.message),
            },
        }
    }
}

impl core::fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "{}[{}]", self.severity, self.code)?;
        if let Some(r) = self.round {
            write!(f, " round {r}")?;
        }
        if let Some(n) = self.node {
            write!(f, " {n}")?;
        }
        if let Some(p) = self.port {
            write!(f, " port {p}o")?;
        }
        write!(f, ": {} ({})", self.message, self.code.paper_ref())
    }
}

impl Serialize for Diagnostic {
    fn to_value(&self) -> Value {
        Value::Map(vec![
            ("code".to_string(), self.code.to_value()),
            ("severity".to_string(), self.severity.to_value()),
            ("message".to_string(), Value::Str(self.message.clone())),
            ("round".to_string(), self.round.to_value()),
            ("node".to_string(), self.node.map(|n| n.0).to_value()),
            ("port".to_string(), self.port.to_value()),
            ("up".to_string(), self.up.to_value()),
            ("comms".to_string(), self.comms.to_value()),
        ])
    }
}

impl Deserialize for Diagnostic {
    fn from_value(v: &Value) -> Result<Self, SerdeError> {
        Ok(Diagnostic {
            code: de_field(v, "code")?,
            severity: de_field(v, "severity")?,
            message: de_field(v, "message")?,
            round: de_field(v, "round")?,
            node: de_field::<Option<usize>>(v, "node")?.map(NodeId),
            port: de_field(v, "port")?,
            up: de_field(v, "up")?,
            comms: de_field(v, "comms")?,
        })
    }
}

/// The outcome of an analysis: an ordered list of diagnostics.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct DiagReport {
    /// Findings in discovery order (per pass, per round).
    pub diagnostics: Vec<Diagnostic>,
}

impl DiagReport {
    /// An empty (clean) report.
    pub fn new() -> DiagReport {
        DiagReport::default()
    }

    /// Record one finding.
    pub fn push(&mut self, d: Diagnostic) {
        self.diagnostics.push(d);
    }

    /// Append all findings of another report.
    pub fn merge(&mut self, other: DiagReport) {
        self.diagnostics.extend(other.diagnostics);
    }

    /// True when nothing at all was found (no errors, no warnings).
    pub fn is_clean(&self) -> bool {
        self.diagnostics.is_empty()
    }

    /// True when at least one error-severity finding exists.
    pub fn has_errors(&self) -> bool {
        self.first_error().is_some()
    }

    /// Number of error-severity findings.
    pub fn error_count(&self) -> usize {
        self.errors().count()
    }

    /// Number of warning-severity findings.
    pub fn warning_count(&self) -> usize {
        self.diagnostics.len() - self.error_count()
    }

    /// Iterate error-severity findings in discovery order.
    pub fn errors(&self) -> impl Iterator<Item = &Diagnostic> {
        self.diagnostics.iter().filter(|d| d.severity == Severity::Error)
    }

    /// The first error-severity finding, if any.
    pub fn first_error(&self) -> Option<&Diagnostic> {
        self.errors().next()
    }

    /// Collapse onto the legacy `Result` vocabulary: the first error maps
    /// to a [`CstError`]; warnings never fail.
    pub fn into_result(&self) -> Result<(), CstError> {
        match self.first_error() {
            Some(d) => Err(d.to_cst_error()),
            None => Ok(()),
        }
    }

    /// One line per finding, `cargo`-style.
    pub fn render_text(&self) -> String {
        if self.is_clean() {
            return "clean: no diagnostics\n".to_string();
        }
        let mut out = String::new();
        for d in &self.diagnostics {
            out.push_str(&d.to_string());
            out.push('\n');
        }
        out.push_str(&format!(
            "{} error(s), {} warning(s)\n",
            self.error_count(),
            self.warning_count()
        ));
        out
    }
}

// The machine-readable report format, pinned by a golden test in
// `cst-check`: a version tag, the counts, and the findings in order.
impl Serialize for DiagReport {
    fn to_value(&self) -> Value {
        Value::Map(vec![
            ("version".to_string(), Value::UInt(1)),
            ("errors".to_string(), Value::UInt(self.error_count() as u64)),
            ("warnings".to_string(), Value::UInt(self.warning_count() as u64)),
            (
                "diagnostics".to_string(),
                Value::Seq(self.diagnostics.iter().map(|d| d.to_value()).collect()),
            ),
        ])
    }
}

impl Deserialize for DiagReport {
    fn from_value(v: &Value) -> Result<Self, SerdeError> {
        let version: u64 = de_field(v, "version")?;
        if version != 1 {
            return Err(SerdeError(format!("unsupported report version {version}")));
        }
        Ok(DiagReport { diagnostics: de_field(v, "diagnostics")? })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn codes_are_unique_and_parse_back() {
        let mut seen = std::collections::BTreeSet::new();
        for c in DiagCode::ALL {
            assert!(seen.insert(c.as_str()), "duplicate code {c}");
            assert_eq!(DiagCode::parse(c.as_str()), Some(c));
            assert!(c.as_str().starts_with("CST"));
            assert_eq!(c.as_str().len(), 6);
            assert!(!c.invariant().is_empty());
            assert!(!c.paper_ref().is_empty());
        }
        assert_eq!(DiagCode::parse("CST999"), None);
    }

    #[test]
    fn model_family_is_exactly_the_cst2xx_block() {
        for c in DiagCode::ALL {
            assert_eq!(c.is_model(), c.as_str().starts_with("CST2"), "{c}");
        }
        assert_eq!(DiagCode::ALL.iter().filter(|c| c.is_model()).count(), 5);
    }

    #[test]
    fn decomp_family_is_exactly_the_cst3xx_block() {
        for c in DiagCode::ALL {
            assert_eq!(c.is_decomp(), c.as_str().starts_with("CST3"), "{c}");
        }
        assert_eq!(DiagCode::ALL.iter().filter(|c| c.is_decomp()).count(), 4);
    }

    #[test]
    fn report_counts_and_result() {
        let mut r = DiagReport::new();
        assert!(r.is_clean());
        r.into_result().unwrap();
        r.push(Diagnostic::new(DiagCode::ForeignConfig, "extra").with_round(0));
        assert!(!r.is_clean());
        assert!(!r.has_errors());
        r.into_result().unwrap(); // warnings never fail
        r.push(
            Diagnostic::new(DiagCode::LinkConflict, "shared link")
                .with_round(1)
                .with_link(NodeId(4), true),
        );
        assert_eq!(r.error_count(), 1);
        assert_eq!(r.warning_count(), 1);
        let err = r.into_result().unwrap_err();
        assert_eq!(err, CstError::LinkConflict { node: NodeId(4), upward: true });
    }

    #[test]
    fn well_nested_error_maps_to_pair() {
        let d = Diagnostic::new(DiagCode::NotWellNested, "cross")
            .with_comm(3)
            .with_comm(7);
        assert_eq!(d.to_cst_error(), CstError::NotWellNested { a: 3, b: 7 });
    }

    #[test]
    fn display_names_location() {
        let d = Diagnostic::new(DiagCode::MissingConnection, "lacks li->ro")
            .with_round(2)
            .with_node(NodeId(5))
            .with_port(Side::Right);
        let s = d.to_string();
        assert!(s.contains("error[CST021]"), "{s}");
        assert!(s.contains("round 2"), "{s}");
        assert!(s.contains("port ro"), "{s}");
        assert!(s.contains("Theorem 4"), "{s}");
    }

    #[test]
    fn serde_roundtrip() {
        let mut r = DiagReport::new();
        r.push(
            Diagnostic::new(DiagCode::DoubleStamp, "two writers")
                .with_round(0)
                .with_node(NodeId(2)),
        );
        r.push(Diagnostic::new(DiagCode::ForeignConfig, "unused").with_comm(1));
        let v = r.to_value();
        let back = DiagReport::from_value(&v).unwrap();
        assert_eq!(back, r);
    }
}
