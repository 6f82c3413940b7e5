//! Metric records, order statistics and the result line.

/// One reported number: name, value, unit, how many samples it summarises,
/// and an optional note (the percentile a tail value was taken at).
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// Measured value.
    pub value: f64,
    /// Unit string as listed in `BENCHMARK.json`.
    pub unit: &'static str,
    /// Number of samples behind the value.
    pub samples: u64,
    /// Free-form qualifier, e.g. `p99`.
    pub note: String,
}

impl Metric {
    /// A metric without a note.
    pub fn new(name: &'static str, value: f64, unit: &'static str, samples: u64) -> Self {
        Metric {
            name,
            value,
            unit,
            samples,
            note: String::new(),
        }
    }

    /// Attach a note.
    pub fn with_note(mut self, note: impl Into<String>) -> Self {
        self.note = note.into();
        self
    }
}

/// Median of `v` (sorts in place); 0 for an empty slice.
pub fn median(v: &mut [f64]) -> f64 {
    quantile(v, 50.0)
}

/// Nearest-rank quantile `p` (percent) of `v` (sorts in place); 0 for an
/// empty slice.
pub fn quantile(v: &mut [f64], p: f64) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    v.sort_by(f64::total_cmp);
    v[rank(v.len(), p)]
}

fn rank(n: usize, p: f64) -> usize {
    ((p / 100.0 * n as f64).ceil() as usize).clamp(1, n) - 1
}

/// Percentiles a tail may be reported at. The ladder is coarse on purpose:
/// a workload's sample count then sits well inside one step, so the same
/// percentile is chosen on every run.
const TAIL_LADDER: [f64; 4] = [99.9, 99.0, 90.0, 50.0];

/// The highest percentile of [`TAIL_LADDER`] with at least ten samples
/// beyond it, and its value. With fewer than 20 samples no percentile
/// qualifies and the maximum is returned as percentile 100.
pub fn tail(v: &mut [f64]) -> (f64, f64) {
    let n = v.len();
    if n == 0 {
        return (0.0, 100.0);
    }
    for p in TAIL_LADDER {
        if n - (rank(n, p) + 1) >= 10 {
            return (quantile(v, p), p);
        }
    }
    v.sort_by(f64::total_cmp);
    (v[n - 1], 100.0)
}

/// Log-linear histogram of nanosecond durations: 16 sub-buckets per power
/// of two, so a reported percentile is within about 3 % of the sample.
pub struct Hist {
    buckets: Vec<u64>,
}

const SUB_BITS: u32 = 4;

impl Default for Hist {
    fn default() -> Self {
        Hist {
            buckets: vec![0; 64 << SUB_BITS],
        }
    }
}

impl Hist {
    /// Bucket index of `v`.
    pub fn bucket(v: u64) -> usize {
        if v < 1 << SUB_BITS {
            return v as usize;
        }
        let exp = 63 - v.leading_zeros();
        let sub = (v >> (exp - SUB_BITS)) & ((1 << SUB_BITS) - 1);
        (((exp - SUB_BITS + 1) << SUB_BITS) as u64 | sub) as usize
    }

    /// Midpoint of bucket `i`.
    fn value_of(i: usize) -> f64 {
        if i < 1 << SUB_BITS {
            return i as f64;
        }
        let exp = (i >> SUB_BITS) as u32 + SUB_BITS - 1;
        let sub = (i & ((1 << SUB_BITS) - 1)) as u64;
        let lo = (1u64 << exp) | (sub << (exp - SUB_BITS));
        lo as f64 + (1u64 << (exp - SUB_BITS)) as f64 / 2.0
    }

    /// Add `count` samples to bucket `i`.
    pub fn add_bucket(&mut self, i: usize, count: u64) {
        self.buckets[i] += count;
    }

    /// Number of samples.
    pub fn count(&self) -> u64 {
        self.buckets.iter().sum()
    }

    /// Nearest-rank quantile `p` (percent); 0 when empty.
    pub fn quantile(&self, p: f64) -> f64 {
        let n = self.count();
        if n == 0 {
            return 0.0;
        }
        let target = rank(n as usize, p) as u64 + 1;
        let mut seen = 0;
        for (i, &c) in self.buckets.iter().enumerate() {
            seen += c;
            if seen >= target {
                return Self::value_of(i);
            }
        }
        Self::value_of(self.buckets.len() - 1)
    }
}

fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// A JSON number; non-finite values (which JSON cannot carry) become 0.
fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".into()
    }
}

/// A flat JSON object of string values.
pub fn json_object(fields: &[(&str, String)]) -> String {
    let body: Vec<String> = fields
        .iter()
        .map(|(k, v)| format!("{}:{}", json_str(k), json_str(v)))
        .collect();
    format!("{{{}}}", body.join(","))
}

/// The result line: `correct`, `attempted`, `failed` and each metric's
/// value and unit.
pub fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "{}:{{\"value\":{},\"unit\":{}}}",
                json_str(m.name),
                json_num(m.value),
                json_str(m.unit)
            )
        })
        .collect();
    format!(
        "{{\"correct\":{correct},\"attempted\":{attempted},\"failed\":{failed},\"metrics\":{{{}}}}}",
        body.join(",")
    )
}

/// One human-readable line per metric: name, value, unit, sample count.
pub fn table(metrics: &[Metric]) -> String {
    metrics
        .iter()
        .map(|m| {
            let note = if m.note.is_empty() {
                String::new()
            } else {
                format!("  ({})", m.note)
            };
            format!(
                "{:<34} {:>16.6} {:<8} n={}{note}\n",
                m.name, m.value, m.unit, m.samples
            )
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_use_nearest_rank() {
        let mut v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(median(&mut v), 50.0);
        assert_eq!(quantile(&mut v, 90.0), 90.0);
        assert_eq!(quantile(&mut v, 100.0), 100.0);
        assert_eq!(median(&mut []), 0.0);
    }

    #[test]
    fn tail_keeps_ten_samples_beyond() {
        let mut v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(tail(&mut v), (90.0, 90.0));
        let mut v: Vec<f64> = (1..=2500).map(f64::from).collect();
        assert_eq!(tail(&mut v), (2475.0, 99.0));
        let mut v: Vec<f64> = (1..=5).map(f64::from).collect();
        assert_eq!(tail(&mut v), (5.0, 100.0));
    }

    #[test]
    fn histogram_quantiles_are_within_bucket_precision() {
        let mut h = Hist::default();
        for v in 1..=10_000u64 {
            h.add_bucket(Hist::bucket(v), 1);
        }
        assert_eq!(h.count(), 10_000);
        for (p, exact) in [(50.0, 5_000.0), (99.0, 9_900.0)] {
            let got = h.quantile(p);
            assert!((got - exact).abs() / exact < 0.04, "p{p}: {got} vs {exact}");
        }
        assert_eq!(Hist::bucket(7), 7);
        assert_eq!(Hist::value_of(Hist::bucket(7)), 7.0);
    }

    #[test]
    fn result_line_has_the_contract_keys() {
        let m = [Metric::new("setup_s", 0.5, "s", 3)];
        assert_eq!(
            result_line(true, 4, 0, &m),
            r#"{"correct":true,"attempted":4,"failed":0,"metrics":{"setup_s":{"value":0.5,"unit":"s"}}}"#
        );
        assert_eq!(json_num(f64::NAN), "0");
    }
}
