//! Exact order statistics over every kept sample, and the metric table.

/// Nearest-rank quantile `q` of `samples` (sorted in place); 0 when
/// there are no samples.
pub fn quantile(samples: &mut [u64], q: f64) -> u64 {
    if samples.is_empty() {
        return 0;
    }
    samples.sort_unstable();
    let rank = (q * samples.len() as f64).ceil() as usize;
    samples[rank.clamp(1, samples.len()) - 1]
}

/// Median of floating-point samples (mean of the middle two when even).
pub fn median_f64(samples: &[f64]) -> f64 {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Splits `(offset_ns, value)` samples into `slices` equal spans of a
/// phase lasting `phase_ns`.
pub fn slices(
    samples: impl Iterator<Item = (u64, u64)>,
    phase_ns: u64,
    slices: usize,
) -> Vec<Vec<u64>> {
    let width = (phase_ns / slices as u64).max(1);
    let mut out = vec![Vec::new(); slices];
    for (at, v) in samples {
        out[((at / width) as usize).min(slices - 1)].push(v);
    }
    out
}

/// The median over slices of each slice's exact quantile `q`; slices
/// without samples are skipped. A burst of outside noise then spoils
/// one slice, not the result.
pub fn median_of_slices(slices: &mut [Vec<u64>], q: f64) -> f64 {
    let per: Vec<f64> = slices
        .iter_mut()
        .filter(|s| !s.is_empty())
        .map(|s| quantile(s, q) as f64)
        .collect();
    median_f64(&per)
}

/// `num / den`, or 0 when nothing was counted.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// One reported metric.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Name as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// The measured value.
    pub value: f64,
    /// Unit as listed in `BENCHMARK.json`.
    pub unit: &'static str,
    /// How many samples the value summarizes.
    pub samples: u64,
}

/// An ordered set of metrics.
#[derive(Debug, Default)]
pub struct Table(pub Vec<Metric>);

impl Table {
    /// Adds a metric.
    pub fn put(&mut self, name: &'static str, value: f64, unit: &'static str, samples: u64) {
        self.0.push(Metric {
            name,
            value,
            unit,
            samples,
        });
    }

    /// `"name": {"value": v, "unit": u}` pairs (the result line).
    pub fn to_json(&self, with_samples: bool) -> String {
        let items: Vec<String> = self
            .0
            .iter()
            .map(|m| {
                let samples = if with_samples {
                    format!(",\"samples\":{}", m.samples)
                } else {
                    String::new()
                };
                format!(
                    "\"{}\":{{\"value\":{},\"unit\":\"{}\"{samples}}}",
                    m.name,
                    json_num(m.value),
                    m.unit
                )
            })
            .collect();
        format!("{{{}}}", items.join(","))
    }
}

/// A finite JSON number with all its digits.
pub fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "0.0".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_quantiles() {
        let mut v: Vec<u64> = (1..=100).rev().collect();
        assert_eq!(quantile(&mut v, 0.5), 50);
        assert_eq!(quantile(&mut v, 0.99), 99);
        assert_eq!(quantile(&mut v, 1.0), 100);
        assert_eq!(quantile(&mut [7], 0.99), 7);
        assert_eq!(quantile(&mut [], 0.5), 0);
        assert_eq!(median_f64(&[3.0, 1.0, 2.0, 10.0]), 2.5);
    }
}
