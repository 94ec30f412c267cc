//! Metric values, percentiles and the JSON the benchmark prints.

/// One reported metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Name as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// Value as measured.
    pub value: f64,
    /// Unit as listed in `BENCHMARK.json`.
    pub unit: &'static str,
}

/// Metrics in the order they were added.
#[derive(Debug, Default, Clone)]
pub struct Metrics(pub Vec<Metric>);

impl Metrics {
    /// Adds a metric; a non-finite value is reported as 0.
    pub fn add(&mut self, name: &'static str, value: f64, unit: &'static str) {
        let value = if value.is_finite() { value } else { 0.0 };
        self.0.push(Metric { name, value, unit });
    }

    /// The `{"name": {"value": v, "unit": u}, ...}` object.
    pub fn to_json(&self) -> String {
        let body: Vec<String> = self
            .0
            .iter()
            .map(|m| {
                // `{:?}` is Rust's shortest round-trip form: every digit
                // measured, and always a valid JSON number for finite values.
                format!(
                    "\"{}\": {{\"value\": {:?}, \"unit\": \"{}\"}}",
                    m.name, m.value, m.unit
                )
            })
            .collect();
        format!("{{{}}}", body.join(", "))
    }
}

/// Nearest-rank percentile `p` (0..=100) of `values`; 0 when empty.
pub fn percentile(values: &[u64], p: f64) -> u64 {
    if values.is_empty() {
        return 0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_unstable();
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Splits `values` into `parts` consecutive chunks of (nearly) equal size,
/// takes percentile `p` of each and returns the median of those: one burst
/// of interference moves one chunk, not the result.
pub fn chunked_percentile(values: &[u64], parts: usize, p: f64) -> f64 {
    let parts = parts.clamp(1, values.len().max(1));
    let per_part: Vec<f64> = (0..parts)
        .map(|i| {
            let chunk = &values[i * values.len() / parts..(i + 1) * values.len() / parts];
            percentile(chunk, p) as f64
        })
        .collect();
    median(&per_part)
}

/// Median of `values` (mean of the middle pair); 0 when empty.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// Arithmetic mean; 0 when empty.
pub fn mean(values: impl IntoIterator<Item = f64>) -> f64 {
    let (sum, n) = values
        .into_iter()
        .fold((0.0, 0usize), |(s, n), v| (s + v, n + 1));
    if n == 0 {
        0.0
    } else {
        sum / n as f64
    }
}

/// `a / b`, or 0 when `b` is 0.
pub fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

/// Nanoseconds to milliseconds.
pub fn ms(ns: u64) -> f64 {
    ns as f64 / 1e6
}

/// Nanoseconds to microseconds.
pub fn us(ns: u64) -> f64 {
    ns as f64 / 1e3
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&v, 50.0), 50);
        assert_eq!(percentile(&v, 99.0), 99);
        assert_eq!(percentile(&v, 100.0), 100);
        assert_eq!(percentile(&[7], 99.0), 7);
        assert_eq!(percentile(&[], 50.0), 0);
    }

    #[test]
    fn chunked_percentiles_ignore_one_bad_chunk() {
        let mut v: Vec<u64> = (0..300).map(|i| i % 100).collect();
        v[150..200].iter_mut().for_each(|x| *x = 10_000);
        assert_eq!(chunked_percentile(&v, 3, 99.0), 98.0);
        assert_eq!(chunked_percentile(&[5], 3, 50.0), 5.0);
    }

    #[test]
    fn medians_and_json() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        let mut m = Metrics::default();
        m.add("a", 1.25, "ms");
        m.add("b", f64::NAN, "s");
        assert_eq!(
            m.to_json(),
            "{\"a\": {\"value\": 1.25, \"unit\": \"ms\"}, \"b\": {\"value\": 0.0, \"unit\": \"s\"}}"
        );
    }
}
