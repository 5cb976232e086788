//! Statistical-distance metrics between real and synthetic tables
//! (paper §V-A, Table I).

use kinet_data::{ColumnKind, Table};
use std::collections::BTreeMap;

/// Per-table fidelity summary.
#[derive(Clone, Debug, PartialEq)]
pub struct FidelityReport {
    /// Mean per-column Earth Mover's Distance.
    pub emd: f64,
    /// Combined distance: mean of L1 distances between categorical
    /// marginals and L2 distances between standardized continuous
    /// histograms (the paper's mixed-type metric).
    pub combined: f64,
    /// Per-column EMD values, keyed by column name.
    pub per_column_emd: BTreeMap<String, f64>,
}

/// 1-D Earth Mover's Distance between two samples (exact, via sorted
/// quantile coupling), normalized by the pooled value range so columns on
/// different scales are comparable.
///
/// ```
/// let a = [0.0, 1.0, 2.0];
/// let b = [0.0, 1.0, 2.0];
/// assert!(kinet_eval::metrics::emd_continuous(&a, &b) < 1e-12);
/// ```
pub fn emd_continuous(a: &[f64], b: &[f64]) -> f64 {
    if a.is_empty() || b.is_empty() {
        return 0.0;
    }
    // A diverged generator can emit non-finite values; drop them so the
    // metric reports a (bad but finite) distance instead of panicking.
    let mut sa: Vec<f64> = a.iter().copied().filter(|v| v.is_finite()).collect();
    let mut sb: Vec<f64> = b.iter().copied().filter(|v| v.is_finite()).collect();
    if sa.is_empty() || sb.is_empty() {
        return 1.0;
    }
    sa.sort_by(f64::total_cmp);
    sb.sort_by(f64::total_cmp);
    let lo = sa[0].min(sb[0]);
    let hi = sa[sa.len() - 1].max(sb[sb.len() - 1]);
    let range = (hi - lo).max(1e-12);
    // integrate |F_a^{-1}(q) - F_b^{-1}(q)| over q via the finer grid
    let n = sa.len().max(sb.len());
    let quantile = |s: &[f64], q: f64| -> f64 {
        let idx = (q * (s.len() as f64 - 1.0)).round() as usize;
        s[idx.min(s.len() - 1)]
    };
    let mut total = 0.0;
    for i in 0..n {
        let q = (i as f64 + 0.5) / n as f64;
        total += (quantile(&sa, q) - quantile(&sb, q)).abs();
    }
    total / n as f64 / range
}

/// EMD between two categorical samples under the 0/1 ground metric, which
/// reduces to half the L1 distance between their frequency vectors.
pub fn emd_categorical(a: &[String], b: &[String]) -> f64 {
    0.5 * l1_marginal_distance(a, b)
}

/// L1 distance between the empirical marginals of two categorical samples.
pub fn l1_marginal_distance(a: &[String], b: &[String]) -> f64 {
    let fa = frequencies(a);
    let fb = frequencies(b);
    let mut keys: Vec<&String> = fa.keys().chain(fb.keys()).collect();
    keys.sort();
    keys.dedup();
    keys.iter()
        .map(|k| (fa.get(*k).copied().unwrap_or(0.0) - fb.get(*k).copied().unwrap_or(0.0)).abs())
        .sum()
}

/// L2 distance between standardized histograms of two continuous samples
/// (the paper's continuous half of the combined metric).
pub fn l2_histogram_distance(a: &[f64], b: &[f64], bins: usize) -> f64 {
    if a.is_empty() || b.is_empty() {
        return 0.0;
    }
    let lo = a.iter().chain(b).copied().fold(f64::INFINITY, f64::min);
    let hi = a.iter().chain(b).copied().fold(f64::NEG_INFINITY, f64::max);
    let range = (hi - lo).max(1e-12);
    let hist = |s: &[f64]| -> Vec<f64> {
        let mut h = vec![0.0; bins];
        for &x in s {
            let idx = (((x - lo) / range) * bins as f64) as usize;
            h[idx.min(bins - 1)] += 1.0 / s.len() as f64;
        }
        h
    };
    let ha = hist(a);
    let hb = hist(b);
    ha.iter()
        .zip(&hb)
        .map(|(x, y)| (x - y) * (x - y))
        .sum::<f64>()
        .sqrt()
}

fn frequencies(s: &[String]) -> BTreeMap<String, f64> {
    let mut f = BTreeMap::new();
    for v in s {
        *f.entry(v.clone()).or_insert(0.0) += 1.0 / s.len() as f64;
    }
    f
}

/// Computes the Table-I metrics between a real table and a synthetic one.
///
/// # Panics
///
/// Panics if the schemas differ.
pub fn fidelity(real: &Table, synthetic: &Table) -> FidelityReport {
    assert_eq!(
        real.schema(),
        synthetic.schema(),
        "fidelity requires matching schemas"
    );
    let mut per_column_emd = BTreeMap::new();
    let mut emd_total = 0.0;
    let mut combined_total = 0.0;
    let n_cols = real.schema().len() as f64;
    for col in real.schema().iter() {
        match col.kind() {
            ColumnKind::Categorical => {
                let a = real.cat_column(col.name()).expect("schema checked");
                let b = synthetic.cat_column(col.name()).expect("schema checked");
                let e = emd_categorical(a, b);
                per_column_emd.insert(col.name().to_string(), e);
                emd_total += e;
                combined_total += l1_marginal_distance(a, b);
            }
            ColumnKind::Continuous => {
                let a = real.num_column(col.name()).expect("schema checked");
                let b = synthetic.num_column(col.name()).expect("schema checked");
                let e = emd_continuous(a, b);
                per_column_emd.insert(col.name().to_string(), e);
                emd_total += e;
                combined_total += l2_histogram_distance(a, b, 32);
            }
        }
    }
    FidelityReport {
        emd: emd_total / n_cols,
        combined: combined_total / n_cols,
        per_column_emd,
    }
}

/// Fraction of `table` rows that satisfy `kg` — the semantic-fidelity
/// metric the paper's knowledge infusion optimizes for. Scored through the
/// compiled reasoner (interned codes), so
/// whole releases are checked without building per-row assignments.
pub fn kg_validity(kg: &kinet_kg::NetworkKg, table: &Table) -> f64 {
    kinet_data::encoded::KgTableChecker::new(kg.compiled(), kg.base_interner(), table.schema())
        .validity_rate(table)
        .expect("checker bound to this table's own schema cannot mismatch")
}

#[cfg(test)]
mod tests {
    use super::*;
    use kinet_data::{ColumnMeta, Schema, Value};

    fn table(protos: &[&str], ports: &[f64]) -> Table {
        let schema = Schema::new(vec![
            ColumnMeta::categorical("proto"),
            ColumnMeta::continuous("port"),
        ]);
        let rows = protos
            .iter()
            .zip(ports)
            .map(|(p, &x)| vec![Value::cat(*p), Value::num(x)])
            .collect();
        Table::from_rows(schema, rows).unwrap()
    }

    #[test]
    fn kg_validity_scores_rule_conformance() {
        let kg = kinet_kg::NetworkKg::lab_default();
        let schema = Schema::new(vec![
            ColumnMeta::categorical("event"),
            ColumnMeta::categorical("protocol"),
        ]);
        let t = Table::from_rows(
            schema,
            vec![
                vec![Value::cat("heartbeat"), Value::cat("udp")],
                vec![Value::cat("heartbeat"), Value::cat("tcp")], // heartbeat is udp-only
            ],
        )
        .unwrap();
        let rate = kg_validity(&kg, &t);
        assert!((rate - 0.5).abs() < 1e-9, "{rate}");
    }

    #[test]
    fn identical_tables_have_zero_distance() {
        let t = table(&["a", "b", "a", "b"], &[1.0, 2.0, 3.0, 4.0]);
        let r = fidelity(&t, &t);
        assert!(r.emd < 1e-9, "{r:?}");
        assert!(r.combined < 1e-9);
    }

    #[test]
    fn emd_continuous_orders_by_shift() {
        let a: Vec<f64> = (0..100).map(|i| i as f64).collect();
        let b: Vec<f64> = (0..100).map(|i| i as f64 + 5.0).collect();
        let c: Vec<f64> = (0..100).map(|i| i as f64 + 30.0).collect();
        let small = emd_continuous(&a, &b);
        let big = emd_continuous(&a, &c);
        assert!(small < big, "{small} vs {big}");
        assert!(small > 0.0);
    }

    #[test]
    fn emd_symmetry() {
        let a: Vec<f64> = (0..50).map(|i| (i * i) as f64).collect();
        let b: Vec<f64> = (0..80).map(|i| i as f64 * 3.0).collect();
        assert!((emd_continuous(&a, &b) - emd_continuous(&b, &a)).abs() < 1e-9);
        let ca: Vec<String> = ["x", "y", "x"].iter().map(|s| s.to_string()).collect();
        let cb: Vec<String> = ["y", "y", "z"].iter().map(|s| s.to_string()).collect();
        assert!((emd_categorical(&ca, &cb) - emd_categorical(&cb, &ca)).abs() < 1e-12);
    }

    #[test]
    fn categorical_distance_bounds() {
        let a: Vec<String> = vec!["x".into(); 10];
        let b: Vec<String> = vec!["y".into(); 10];
        // disjoint supports: L1 = 2, EMD(0/1 metric) = 1
        assert!((l1_marginal_distance(&a, &b) - 2.0).abs() < 1e-12);
        assert!((emd_categorical(&a, &b) - 1.0).abs() < 1e-12);
        assert_eq!(l1_marginal_distance(&a, &a), 0.0);
    }

    #[test]
    fn histogram_distance_detects_shape_change() {
        let a: Vec<f64> = (0..200).map(|i| (i % 10) as f64).collect(); // uniform
        let b: Vec<f64> = vec![5.0; 200]; // point mass
        assert!(l2_histogram_distance(&a, &b, 16) > 0.5);
        assert!(l2_histogram_distance(&a, &a, 16) < 1e-12);
    }

    #[test]
    fn fidelity_detects_marginal_drift() {
        let real = table(&["a", "a", "a", "b"], &[1.0, 1.0, 2.0, 2.0]);
        let close = table(&["a", "a", "b", "b"], &[1.0, 1.5, 2.0, 2.0]);
        let far = table(&["b", "b", "b", "b"], &[9.0, 9.0, 9.0, 9.0]);
        let r_close = fidelity(&real, &close);
        let r_far = fidelity(&real, &far);
        assert!(r_close.emd < r_far.emd);
        assert!(r_close.combined < r_far.combined);
    }

    #[test]
    #[should_panic(expected = "matching schemas")]
    fn fidelity_rejects_schema_mismatch() {
        let a = table(&["a"], &[1.0]);
        let schema = Schema::new(vec![ColumnMeta::categorical("other")]);
        let b = Table::from_rows(schema, vec![vec![Value::cat("a")]]).unwrap();
        let _ = fidelity(&a, &b);
    }

    #[test]
    fn empty_samples_are_zero_distance() {
        assert_eq!(emd_continuous(&[], &[1.0]), 0.0);
        assert_eq!(l2_histogram_distance(&[], &[], 8), 0.0);
    }
}

/// Likelihood fitness (paper §I "confirming its suitability through
/// likelihood fitness"; metric family from the CTGAN benchmark): fit
/// per-column Gaussian mixtures on the *real* continuous columns and
/// report the mean log-likelihood of the synthetic values under them.
/// Higher (closer to the real data's own likelihood) is better.
pub fn likelihood_fitness(real: &Table, synthetic: &Table, max_modes: usize) -> f64 {
    assert_eq!(
        real.schema(),
        synthetic.schema(),
        "likelihood fitness requires matching schemas"
    );
    let mut total = 0.0;
    let mut n_cols = 0usize;
    for col in real.schema().iter() {
        if col.kind() != ColumnKind::Continuous {
            continue;
        }
        let real_vals = real.num_column(col.name()).expect("schema checked");
        let synth_vals: Vec<f64> = synthetic
            .num_column(col.name())
            .expect("schema checked")
            .iter()
            .copied()
            .filter(|v| v.is_finite())
            .collect();
        let gmm = kinet_data::gmm::GaussianMixture1d::fit(real_vals, max_modes, 60, 17);
        total += gmm.mean_log_likelihood(&synth_vals);
        n_cols += 1;
    }
    if n_cols == 0 {
        0.0
    } else {
        total / n_cols as f64
    }
}

#[cfg(test)]
mod likelihood_tests {
    use super::*;
    use kinet_data::{ColumnMeta, Schema, Value};

    fn table(vals: &[f64]) -> Table {
        let schema = Schema::new(vec![ColumnMeta::continuous("x")]);
        Table::from_rows(schema, vals.iter().map(|&v| vec![Value::num(v)]).collect()).unwrap()
    }

    #[test]
    fn self_likelihood_beats_shifted() {
        let real = table(&(0..200).map(|i| (i % 20) as f64).collect::<Vec<_>>());
        let same = table(&(0..200).map(|i| ((i + 3) % 20) as f64).collect::<Vec<_>>());
        let shifted = table(
            &(0..200)
                .map(|i| 500.0 + (i % 20) as f64)
                .collect::<Vec<_>>(),
        );
        let ll_same = likelihood_fitness(&real, &same, 4);
        let ll_far = likelihood_fitness(&real, &shifted, 4);
        assert!(ll_same > ll_far, "{ll_same} vs {ll_far}");
    }

    #[test]
    fn categorical_only_schema_yields_zero() {
        let schema = Schema::new(vec![ColumnMeta::categorical("c")]);
        let t = Table::from_rows(schema, vec![vec![Value::cat("a")]]).unwrap();
        assert_eq!(likelihood_fitness(&t, &t, 4), 0.0);
    }
}
