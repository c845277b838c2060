//! Order statistics and the metric table every mode prints.

/// Nearest-rank quantile `q` in `[0, 1]` of `samples` (NaN if empty).
pub fn quantile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return f64::NAN;
    }
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = (q * v.len() as f64).ceil().max(1.0) as usize;
    v[rank.min(v.len()) - 1]
}

/// Median of `samples` (mean of the two middle values for even counts).
pub fn median(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        return f64::NAN;
    }
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Mean of `samples` after dropping the lowest and highest fifth (NaN
/// if empty). Unlike the median, it moves smoothly when the host's
/// speed switches between two levels within a run, and one outlier
/// does not move it.
pub fn trimmed_mean(samples: &[f64]) -> f64 {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let cut = v.len() / 5;
    let kept = &v[cut..v.len() - cut];
    kept.iter().sum::<f64>() / kept.len() as f64
}

/// One reported metric.
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
    /// How the value was formed (sample count, median of what).
    pub note: String,
}

impl Metric {
    pub fn new(
        name: &'static str,
        value: f64,
        unit: &'static str,
        note: impl Into<String>,
    ) -> Self {
        Metric {
            name,
            value,
            unit,
            note: note.into(),
        }
    }
}

/// A JSON number; non-finite values (an empty sample) become `null`.
pub fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

/// A JSON string literal.
pub fn json_str(s: &str) -> String {
    serde_json::to_string(s).expect("strings serialize")
}

/// Print the human-readable table and the metadata line, then the
/// result object as the last line of standard output. A metric without
/// a finite value counts as a failed operation.
pub fn print_result(title: &str, metrics: &[Metric], attempted: u64, mut failed: u64, meta: &str) {
    println!("== {title}");
    for m in metrics {
        println!("{:<34} {:>14.4} {:<10} {}", m.name, m.value, m.unit, m.note);
    }
    failed += metrics.iter().filter(|m| !m.value.is_finite()).count() as u64;
    println!("operations: {attempted} attempted, {failed} failed");
    println!("meta {meta}");
    let fields: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json_str(m.name),
                json_num(m.value),
                json_str(m.unit)
            )
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        failed == 0,
        fields.join(", ")
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn order_statistics() {
        let v = [5.0, 1.0, 4.0, 2.0, 3.0];
        assert_eq!(median(&v), 3.0);
        assert_eq!(median(&[1.0, 2.0]), 1.5);
        assert_eq!(quantile(&v, 0.95), 5.0);
        assert_eq!(quantile(&v, 0.5), 3.0);
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert!(median(&[]).is_nan());
        assert_eq!(trimmed_mean(&[1.0, 2.0, 3.0]), 2.0);
        assert_eq!(trimmed_mean(&[100.0, 2.0, 3.0, 4.0, 0.0]), 3.0);
        assert!(trimmed_mean(&[]).is_nan());
        assert_eq!(json_num(0.25), "0.25");
        assert_eq!(json_num(f64::NAN), "null");
        assert_eq!(json_str("a\"b"), "\"a\\\"b\"");
    }
}
