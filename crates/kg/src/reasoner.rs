//! The reasoner: validity queries over a knowledge graph, answered on
//! string [`Assignment`]s.
//!
//! This is the readable reference for the KG query `Q`. Training and
//! sampling run the compiled form of the same rules
//! ([`crate::CompiledReasoner`], over interned symbols); the equivalence
//! tests check the two agree row by row.

use crate::assignment::{Assignment, AttrValue};
use crate::rules::RuleSet;
use crate::store::TripleStore;
use rand::{Rng, RngExt};
use std::collections::{BTreeMap, BTreeSet};

/// One rule violation, as a human-readable description.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Violation(pub String);

impl std::fmt::Display for Violation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.0)
    }
}

/// The outcome of a validity query.
#[derive(Clone, PartialEq, Debug)]
pub enum Validity {
    /// Every applicable rule is satisfied.
    Valid,
    /// At least one rule is violated.
    Invalid(Vec<Violation>),
}

impl Validity {
    /// `true` for [`Validity::Valid`].
    pub fn is_valid(&self) -> bool {
        matches!(self, Validity::Valid)
    }

    /// The violations (empty when valid).
    pub fn violations(&self) -> &[Violation] {
        match self {
            Validity::Valid => &[],
            Validity::Invalid(v) => v,
        }
    }
}

/// Validity reasoner over a compiled [`RuleSet`].
///
/// The reasoner is the KG query interface `Q` of the paper (§III-B): the
/// knowledge-guided discriminator asks it whether generated attribute
/// combinations are valid, and samples valid combinations to use as
/// positive examples.
#[derive(Debug)]
pub struct Reasoner {
    rules: RuleSet,
}

impl Reasoner {
    /// Builds a reasoner from a graph by compiling its constraint nodes,
    /// scoping rules by `scope_field` (the event-class column).
    pub fn from_store(store: &TripleStore, scope_field: &str) -> Self {
        Self::new(RuleSet::compile(store, scope_field))
    }

    /// Builds a reasoner over an explicit rule set.
    pub fn new(rules: RuleSet) -> Self {
        Self { rules }
    }

    /// The underlying rule set.
    pub fn rules(&self) -> &RuleSet {
        &self.rules
    }

    /// Full validity check with violation details.
    pub fn is_valid(&self, a: &Assignment) -> Validity {
        let v = self.rules.violations(a);
        if v.is_empty() {
            Validity::Valid
        } else {
            Validity::Invalid(v.into_iter().map(Violation).collect())
        }
    }

    /// Valid categorical values for `field` given the event class, if the
    /// KG restricts them.
    pub fn valid_values(&self, event: &str, field: &str) -> Option<BTreeSet<String>> {
        self.rules.allowed_values(event, field)
    }

    /// Valid numeric range for `field` given the event class, if the KG
    /// restricts it.
    pub fn valid_range(&self, event: &str, field: &str) -> Option<(f64, f64)> {
        self.rules.numeric_range(event, field)
    }

    /// Fraction of assignments in `batch` that are valid — the batch score
    /// used by evaluation and by the hard D_KG signal. Violations are
    /// counted via the short-circuiting [`RuleSet::satisfied`] path, so no
    /// per-row `Vec<Violation>` is materialized.
    pub fn validity_rate(&self, batch: &[Assignment]) -> f64 {
        if batch.is_empty() {
            return 1.0;
        }
        let ok = batch.iter().filter(|a| self.rules.satisfied(a)).count();
        ok as f64 / batch.len() as f64
    }

    /// Samples a KG-valid completion of `partial`: every field in `fields`
    /// that the KG constrains is drawn from its valid set/range; fields the
    /// KG does not constrain keep their `domains` fallback. Returns `None`
    /// if no valid combination is found within `max_tries` rejection
    /// rounds (e.g. contradictory constraints).
    ///
    /// This implements the paper's "input … consists of all valid sets of
    /// attributes for the conditional vector C queried from the knowledge
    /// graph": the returned assignments are the D_KG positives.
    pub fn sample_valid(
        &self,
        partial: &Assignment,
        fields: &[String],
        domains: &BTreeMap<String, Vec<String>>,
        rng: &mut impl Rng,
        max_tries: usize,
    ) -> Option<Assignment> {
        let scope = self.rules.scope_field();
        let event = partial.get_cat(scope).unwrap_or("*").to_string();
        for _ in 0..max_tries.max(1) {
            let mut candidate = partial.clone();
            for field in fields {
                if candidate.get(field).is_some() {
                    continue;
                }
                if let Some(vals) = self.valid_values(&event, field) {
                    if vals.is_empty() {
                        return None; // contradictory categorical constraints
                    }
                    let pick = vals.iter().nth(rng.random_range(0..vals.len())).unwrap();
                    candidate.set(field, AttrValue::cat(pick.clone()));
                } else if let Some((lo, hi)) = self.valid_range(&event, field) {
                    let v = if hi > lo {
                        rng.random_range(lo..hi)
                    } else {
                        lo
                    };
                    candidate.set(field, AttrValue::num(v.round()));
                } else if let Some(domain) = domains.get(field) {
                    if domain.is_empty() {
                        continue;
                    }
                    let pick = &domain[rng.random_range(0..domain.len())];
                    candidate.set(field, AttrValue::cat(pick.clone()));
                }
            }
            if self.rules.satisfied(&candidate) {
                return Some(candidate);
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ontology::GraphBuilder;
    use rand::{rngs::StdRng, SeedableRng};

    fn reasoner() -> Reasoner {
        let store = GraphBuilder::new("lab")
            .numeric_range("cve_1999_0003", "dst_port", 32771, 34000)
            .allow_values("cve_1999_0003", "protocol", &["udp"])
            .allow_values("*", "protocol", &["tcp", "udp", "icmp"])
            .build();
        Reasoner::from_store(&store, "event")
    }

    fn cve_record(port: f64, proto: &str) -> Assignment {
        Assignment::new()
            .with("event", "cve_1999_0003".into())
            .with("protocol", proto.into())
            .with("dst_port", AttrValue::num(port))
    }

    #[test]
    fn validity_verdicts() {
        let r = reasoner();
        assert!(r.is_valid(&cve_record(33000.0, "udp")).is_valid());
        let bad = r.is_valid(&cve_record(80.0, "tcp"));
        assert_eq!(bad.violations().len(), 2);
    }

    #[test]
    fn validity_rate_tells_categorical_from_numeric_values() {
        // `Cat("80")` and `Num(80.0)` print the same, so a verdict keyed on
        // the assignment's display form would score both alike. Only the
        // categorical value escapes the numeric range rule; the numeric
        // one violates it.
        let r = Reasoner::from_store(
            &GraphBuilder::new("lab")
                .numeric_range("cve_1999_0003", "dst_port", 32771, 34000)
                .build(),
            "event",
        );
        let record = |port: AttrValue| {
            Assignment::new()
                .with("event", "cve_1999_0003".into())
                .with("dst_port", port)
        };
        let cat_80 = record(AttrValue::cat("80"));
        let num_80 = record(AttrValue::num(80.0));
        assert_eq!(cat_80.to_string(), num_80.to_string());
        assert!(r.is_valid(&cat_80).is_valid());
        assert!(!r.is_valid(&num_80).is_valid());
        assert_eq!(r.validity_rate(&[cat_80, num_80]), 0.5);
    }

    #[test]
    fn validity_rate_fraction() {
        let r = reasoner();
        let batch = vec![
            cve_record(33000.0, "udp"),
            cve_record(80.0, "udp"),
            cve_record(32771.0, "udp"),
        ];
        let rate = r.validity_rate(&batch);
        assert!((rate - 2.0 / 3.0).abs() < 1e-9);
        assert_eq!(r.validity_rate(&[]), 1.0);
    }

    #[test]
    fn sample_valid_respects_constraints() {
        let r = reasoner();
        let mut rng = StdRng::seed_from_u64(3);
        let partial = Assignment::new().with("event", "cve_1999_0003".into());
        let fields = vec!["protocol".to_string(), "dst_port".to_string()];
        for _ in 0..50 {
            let s = r
                .sample_valid(&partial, &fields, &BTreeMap::new(), &mut rng, 10)
                .unwrap();
            assert_eq!(s.get_cat("protocol"), Some("udp"));
            let port = s.get_num("dst_port").unwrap();
            assert!((32771.0..=34000.0).contains(&port), "port {port}");
        }
    }

    #[test]
    fn sample_valid_uses_domain_fallback() {
        let r = reasoner();
        let mut rng = StdRng::seed_from_u64(4);
        let partial = Assignment::new().with("event", "heartbeat".into());
        let mut domains = BTreeMap::new();
        domains.insert(
            "device".to_string(),
            vec!["cam".to_string(), "plug".to_string()],
        );
        let s = r
            .sample_valid(&partial, &["device".to_string()], &domains, &mut rng, 10)
            .unwrap();
        assert!(matches!(s.get_cat("device"), Some("cam") | Some("plug")));
    }

    #[test]
    fn sample_valid_gives_up_on_contradiction() {
        // protocol must be simultaneously {udp} and {tcp} => empty intersection
        let store = GraphBuilder::new("x")
            .allow_values("e", "protocol", &["udp"])
            .allow_values("e", "protocol", &["tcp"])
            .build();
        let r = Reasoner::from_store(&store, "event");
        let mut rng = StdRng::seed_from_u64(5);
        let partial = Assignment::new().with("event", "e".into());
        let got = r.sample_valid(
            &partial,
            &["protocol".to_string()],
            &BTreeMap::new(),
            &mut rng,
            5,
        );
        assert!(got.is_none());
    }

    #[test]
    fn partial_fields_left_when_unknown() {
        let r = reasoner();
        let mut rng = StdRng::seed_from_u64(6);
        let partial = Assignment::new().with("event", "heartbeat".into());
        let s = r
            .sample_valid(
                &partial,
                &["unconstrained".to_string()],
                &BTreeMap::new(),
                &mut rng,
                3,
            )
            .unwrap();
        assert!(
            s.get("unconstrained").is_none(),
            "no constraint and no domain => untouched"
        );
    }
}
