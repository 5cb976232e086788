//! Property-based tests for the reasoner: soundness of validity verdicts
//! under arbitrary rule sets and assignments.

use kinet_kg::rules::{Rule, RuleKind, RuleSet};
use kinet_kg::{Assignment, AttrValue, NetworkKg, Reasoner};
use proptest::prelude::*;
use std::collections::BTreeSet;

fn arb_rule() -> impl Strategy<Value = Rule> {
    let event = prop::sample::select(vec!["*", "alpha", "beta"]);
    let field = prop::sample::select(vec!["f1", "f2", "f3"]);
    let kind = prop_oneof![
        prop::collection::btree_set(prop::sample::select(vec!["x", "y", "z"]), 1..3).prop_map(
            |s| RuleKind::AllowedValues(s.into_iter().map(str::to_string).collect::<BTreeSet<_>>())
        ),
        (0.0f64..50.0, 50.0f64..100.0).prop_map(|(min, max)| RuleKind::NumericRange { min, max }),
        prop::sample::select(vec!["pre", "192.168."])
            .prop_map(|p| RuleKind::RequiredPrefix(p.to_string())),
    ];
    (event, field, kind).prop_map(|(event, field, kind)| Rule {
        event: event.to_string(),
        field: field.to_string(),
        kind,
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn empty_assignment_never_violates(rules in prop::collection::vec(arb_rule(), 0..8)) {
        let rs = RuleSet::from_rules(rules, "event");
        let a = Assignment::new();
        prop_assert!(rs.violations(&a).is_empty());
    }

    #[test]
    fn satisfying_values_pass(rules in prop::collection::vec(arb_rule(), 1..6)) {
        // Build an assignment that satisfies every rule by construction.
        let rs = RuleSet::from_rules(rules.clone(), "event");
        let mut a = Assignment::new().with("event", "alpha".into());
        for rule in rs.applicable("alpha") {
            match &rule.kind {
                RuleKind::AllowedValues(vals) => {
                    // if multiple rules constrain the same field, intersect
                    if let Some(joint) = rs.allowed_values("alpha", &rule.field) {
                        if let Some(v) = joint.iter().next() {
                            a.set(&rule.field, AttrValue::cat(v.clone()));
                        } else {
                            // contradictory: nothing can satisfy; skip case
                            return Ok(());
                        }
                    } else {
                        let v = vals.iter().next().unwrap();
                        a.set(&rule.field, AttrValue::cat(v.clone()));
                    }
                }
                RuleKind::NumericRange { .. } => {
                    if let Some((lo, hi)) = rs.numeric_range("alpha", &rule.field) {
                        if lo > hi {
                            return Ok(());
                        }
                        a.set(&rule.field, AttrValue::num((lo + hi) / 2.0));
                    }
                }
                RuleKind::RequiredPrefix(p) => {
                    // prefix + categorical rules, or two distinct prefix
                    // rules, on one field can be contradictory — skip
                    if rs.allowed_values("alpha", &rule.field).is_some() {
                        return Ok(());
                    }
                    let distinct_prefixes: BTreeSet<&String> = rs
                        .applicable("alpha")
                        .filter(|r| r.field == rule.field)
                        .filter_map(|r| match &r.kind {
                            RuleKind::RequiredPrefix(q) => Some(q),
                            _ => None,
                        })
                        .collect();
                    if distinct_prefixes.len() > 1 {
                        return Ok(());
                    }
                    a.set(&rule.field, AttrValue::cat(format!("{p}suffix")));
                }
            }
        }
        let v = rs.violations(&a);
        prop_assert!(v.is_empty(), "constructed-valid assignment flagged: {v:?} under {rules:?}");
    }

    #[test]
    fn out_of_range_numeric_always_flagged(
        min in 0.0f64..50.0,
        span in 1.0f64..50.0,
        above in 1.0f64..1e6,
    ) {
        let max = min + span;
        let rs = RuleSet::from_rules(
            vec![Rule {
                event: "*".into(),
                field: "f".into(),
                kind: RuleKind::NumericRange { min, max },
            }],
            "event",
        );
        let bad = Assignment::new().with("f", AttrValue::num(max + above));
        prop_assert_eq!(rs.violations(&bad).len(), 1);
        let good = Assignment::new().with("f", AttrValue::num(min));
        prop_assert!(rs.violations(&good).is_empty());
    }

    #[test]
    fn reasoner_port_verdict_follows_range_rule(port in 0.0f64..70000.0) {
        let kg = NetworkKg::lab_default();
        let a = Assignment::new()
            .with("event", "cve_1999_0003".into())
            .with("protocol", "udp".into())
            .with("dst_port", AttrValue::num(port));
        let direct = kg.reasoner().is_valid(&a).is_valid();
        let expected = (32771.0..=34000.0).contains(&port);
        prop_assert_eq!(direct, expected, "port {}", port);
        // The short-circuiting check behind `validity_rate` agrees with
        // the full violation list.
        let rate = kg.reasoner().validity_rate(std::slice::from_ref(&a));
        prop_assert_eq!(rate, if expected { 1.0 } else { 0.0 });
    }

    #[test]
    fn validity_rate_bounded(ports in prop::collection::vec(0.0f64..70000.0, 1..40)) {
        let kg = NetworkKg::lab_default();
        let batch: Vec<Assignment> = ports
            .iter()
            .map(|&p| {
                Assignment::new()
                    .with("event", "cve_1999_0003".into())
                    .with("dst_port", AttrValue::num(p))
            })
            .collect();
        let rate = kg.reasoner().validity_rate(&batch);
        prop_assert!((0.0..=1.0).contains(&rate));
    }

    #[test]
    fn reasoner_construction_is_pure(seed in any::<u64>()) {
        // Same rule set => same verdicts, regardless of construction order.
        let _ = seed;
        let a = Reasoner::new(RuleSet::from_rules(
            vec![Rule {
                event: "*".into(),
                field: "f".into(),
                kind: RuleKind::AllowedValues(BTreeSet::from(["x".to_string()])),
            }],
            "event",
        ));
        let probe = Assignment::new().with("f", "y".into());
        prop_assert!(!a.is_valid(&probe).is_valid());
    }
}
