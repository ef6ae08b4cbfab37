//! Order statistics over op samples.

/// Median of `xs` (mean of the two middle values for an even count);
/// `None` for an empty slice.
pub fn median(xs: &[f64]) -> Option<f64> {
    let sorted = sorted(xs);
    let n = sorted.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(sorted[n / 2]),
        _ => Some((sorted[n / 2 - 1] + sorted[n / 2]) / 2.0),
    }
}

/// A nearest-rank percentile and the sample it was read from.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Rank {
    /// The whole-number percentile reported.
    pub percentile: u32,
    /// The sample at that percentile's nearest rank.
    pub value: f64,
    /// How many samples the percentile was taken over.
    pub samples: usize,
}

/// Samples that must lie above a reported tail percentile.
pub const BEYOND: usize = 10;

/// Nearest-rank percentile `p` of `xs`: the sample at 1-based rank
/// `ceil(p * n / 100)` of the `n` sorted samples; `None` for an empty
/// slice.
pub fn percentile(xs: &[f64], p: u32) -> Option<Rank> {
    (!xs.is_empty()).then(|| at(xs, p))
}

/// The highest whole-number nearest-rank percentile of `xs`, at most
/// `cap`, that still has at least [`BEYOND`] samples above it; `None` when
/// fewer than 11 samples leave no percentile that qualifies.
pub fn nearest_rank_tail(xs: &[f64], cap: u32) -> Option<Rank> {
    let n = xs.len();
    let p = (1..=cap.min(99))
        .rev()
        .find(|&p| rank(p, n) >= 1 && n - rank(p, n) >= BEYOND)?;
    Some(at(xs, p))
}

/// 1-based nearest rank of percentile `p` among `n` samples.
fn rank(p: u32, n: usize) -> usize {
    (p as usize * n).div_ceil(100)
}

fn at(xs: &[f64], p: u32) -> Rank {
    let sorted = sorted(xs);
    Rank {
        percentile: p,
        value: sorted[rank(p, sorted.len()).max(1) - 1],
        samples: sorted.len(),
    }
}

fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    v
}
