//! Exact order statistics over raw samples.
//!
//! Every quantile the benchmark reports comes from here, computed from the
//! raw client-side samples — never from the program's log2 telemetry
//! histograms, whose quantiles are bucket edges.

/// Quantile `q` (0..=1) of `sorted` by linear interpolation between the two
/// nearest ranks (the "type 7" estimator). `None` when empty.
pub fn quantile_sorted(sorted: &[f64], q: f64) -> Option<f64> {
    if sorted.is_empty() {
        return None;
    }
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    let frac = pos - lo as f64;
    Some(sorted[lo] + (sorted[hi] - sorted[lo]) * frac)
}

/// Sort a sample in place (total order; NaNs last).
pub fn sort(values: &mut [f64]) {
    values.sort_by(f64::total_cmp);
}

/// Median of an unsorted sample. `None` when empty.
pub fn median(values: &[f64]) -> Option<f64> {
    let mut v = values.to_vec();
    sort(&mut v);
    quantile_sorted(&v, 0.5)
}

/// Arithmetic mean. `None` when empty.
pub fn mean(values: &[f64]) -> Option<f64> {
    (!values.is_empty()).then(|| values.iter().sum::<f64>() / values.len() as f64)
}

/// The highest percentile (of 50, 90, 99, 99.9, 99.99) that still has at
/// least ten samples beyond it in a sample of `n` — the deepest tail a
/// sample of this size can resolve.
pub fn deepest_resolved_percentile(n: usize) -> Option<f64> {
    [99.99, 99.9, 99.0, 90.0, 50.0]
        .into_iter()
        .find(|p| (n as f64) * (100.0 - p) / 100.0 >= 10.0 - 1e-6)
}

/// A latency summary: exact quantiles of one raw sample.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Samples summarised.
    pub n: usize,
    /// Median.
    pub p50: f64,
    /// 99th percentile.
    pub p99: f64,
    /// The deepest percentile with at least ten samples beyond it.
    pub deepest_pct: f64,
    /// The value at [`Self::deepest_pct`].
    pub deepest: f64,
}

impl Summary {
    /// Summarise `values` (sorted in place). `None` when fewer than 100
    /// samples — too few for a p99 with any sample beyond it.
    pub fn of(values: &mut [f64]) -> Option<Self> {
        if values.len() < 100 {
            return None;
        }
        sort(values);
        let deepest_pct = deepest_resolved_percentile(values.len())?;
        Some(Self {
            n: values.len(),
            p50: quantile_sorted(values, 0.5)?,
            p99: quantile_sorted(values, 0.99)?,
            deepest_pct,
            deepest: quantile_sorted(values, deepest_pct / 100.0)?,
        })
    }
}

/// Samples per chunk of [`Chunked`]: enough for twenty samples beyond the
/// p99 of every chunk.
pub const CHUNK_SAMPLES: usize = 2000;

/// Exact quantiles of a sample stream taken in time order, computed per
/// consecutive chunk of at least [`CHUNK_SAMPLES`] and summarised by their
/// median across chunks — a burst of host noise moves only the chunks it
/// lands in, not the reported tail.
#[derive(Debug, Default)]
pub struct Chunked {
    current: Vec<f64>,
    chunks: Vec<Summary>,
}

impl Chunked {
    /// Append the next samples in time order.
    pub fn extend(&mut self, batch: impl IntoIterator<Item = f64>) {
        self.current.extend(batch);
        if self.current.len() >= CHUNK_SAMPLES {
            self.flush();
        }
    }

    fn flush(&mut self) {
        if let Some(s) = Summary::of(&mut self.current) {
            self.chunks.push(s);
        }
        self.current.clear();
    }

    /// Median p50 and p99 across chunks (a trailing partial chunk counts
    /// only when no full chunk exists), with a human-readable account of
    /// the samples behind them, values scaled by `scale`. `None` when
    /// fewer than 100 samples arrived.
    pub fn finish(mut self, scale: f64, unit: &str) -> Option<(f64, f64, String)> {
        if self.chunks.is_empty() {
            self.flush();
        }
        let pick = |f: fn(&Summary) -> f64| -> Vec<f64> { self.chunks.iter().map(f).collect() };
        let p50 = median(&pick(|s| s.p50))? * scale;
        let mut p99s = pick(|s| s.p99);
        sort(&mut p99s);
        let p99 = quantile_sorted(&p99s, 0.5)? * scale;
        let deepest = median(&pick(|s| s.deepest))? * scale;
        let n: usize = self.chunks.iter().map(|s| s.n).sum();
        let smallest = self.chunks.iter().map(|s| s.n).min()?;
        let pct = self
            .chunks
            .iter()
            .map(|s| s.deepest_pct)
            .fold(f64::INFINITY, f64::min);
        let detail = format!(
            "{n} samples in {} chunks of >= {smallest}; medians across chunks: p50 {p50:.4} {unit}, \
             p99 {p99:.4} {unit} (chunk quartiles {:.4}..{:.4}), p{pct} {deepest:.4} {unit} \
             (deepest percentile with >= 10 samples beyond it in every chunk)",
            self.chunks.len(),
            quantile_sorted(&p99s, 0.25)? * scale,
            quantile_sorted(&p99s, 0.75)? * scale,
        );
        Some((p50, p99, detail))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chunked_quantiles_are_medians_over_full_chunks() {
        // Two clean chunks and one whose tail is ten times worse: the
        // reported p99 is a clean chunk's, and a trailing partial chunk
        // is ignored.
        let clean: Vec<f64> = (0..CHUNK_SAMPLES).map(|i| i as f64).collect();
        let noisy: Vec<f64> = clean.iter().map(|v| v * 10.0).collect();
        let mut c = Chunked::default();
        c.extend(clean.iter().copied());
        c.extend(noisy.iter().copied());
        c.extend(clean.iter().copied());
        c.extend([1e9; 50]);
        let (p50, p99, detail) = c.finish(1.0, "ns").expect("three chunks");
        let expect = Summary::of(&mut clean.clone()).unwrap();
        assert_eq!(p50, expect.p50);
        assert_eq!(p99, expect.p99);
        assert!(detail.starts_with("6000 samples in 3 chunks"), "{detail}");
        // Fewer samples than one chunk: the partial chunk is used.
        let mut small = Chunked::default();
        small.extend((0..500).map(f64::from));
        assert!(small.finish(1.0, "ns").is_some());
        assert!(Chunked::default().finish(1.0, "ns").is_none());
    }

    #[test]
    fn quantiles_interpolate_between_ranks() {
        let v: Vec<f64> = (1..=5).map(f64::from).collect();
        assert_eq!(quantile_sorted(&v, 0.0), Some(1.0));
        assert_eq!(quantile_sorted(&v, 0.5), Some(3.0));
        assert_eq!(quantile_sorted(&v, 1.0), Some(5.0));
        assert_eq!(quantile_sorted(&v, 0.25), Some(2.0));
        assert_eq!(quantile_sorted(&v, 0.125), Some(1.5));
        assert_eq!(quantile_sorted(&[], 0.5), None);
        assert_eq!(quantile_sorted(&[7.0], 0.99), Some(7.0));
    }

    #[test]
    fn median_of_even_sample_averages_the_middle_pair() {
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn p99_matches_the_rank_definition() {
        // 0..=999: p99 sits at rank 989.01.
        let mut v: Vec<f64> = (0..1000).rev().map(f64::from).collect();
        let s = Summary::of(&mut v).expect("enough samples");
        assert_eq!(s.n, 1000);
        assert_eq!(s.p50, 499.5);
        assert!((s.p99 - 989.01).abs() < 1e-9, "p99 = {}", s.p99);
    }

    #[test]
    fn deepest_percentile_keeps_ten_samples_beyond_it() {
        assert_eq!(deepest_resolved_percentile(19), None);
        assert_eq!(deepest_resolved_percentile(20), Some(50.0));
        assert_eq!(deepest_resolved_percentile(100), Some(90.0));
        assert_eq!(deepest_resolved_percentile(999), Some(90.0));
        assert_eq!(deepest_resolved_percentile(1000), Some(99.0));
        assert_eq!(deepest_resolved_percentile(10_000), Some(99.9));
        assert_eq!(deepest_resolved_percentile(100_000), Some(99.99));
        assert!(Summary::of(&mut vec![1.0; 99]).is_none());
    }
}
