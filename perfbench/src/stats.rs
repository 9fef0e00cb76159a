//! Sample summaries. A percentile is only reported when at least
//! [`MIN_BEYOND`] samples lie beyond it, so a tail figure is never the
//! value of one or two unlucky operations.

/// Samples that must lie strictly above a reported percentile's rank.
pub const MIN_BEYOND: usize = 10;

/// Raw samples of one quantity; summarised once, after the run.
#[derive(Debug, Clone, Default)]
pub struct Samples {
    values: Vec<f64>,
    sorted: bool,
}

impl Samples {
    pub fn new() -> Self {
        Samples::default()
    }

    pub fn push(&mut self, value: f64) {
        self.values.push(value);
        self.sorted = false;
    }

    pub fn extend(&mut self, other: &Samples) {
        self.values.extend_from_slice(&other.values);
        self.sorted = false;
    }

    pub fn len(&self) -> usize {
        self.values.len()
    }

    pub fn mean(&self) -> Option<f64> {
        if self.values.is_empty() {
            return None;
        }
        Some(self.values.iter().sum::<f64>() / self.values.len() as f64)
    }

    /// The `q`-quantile (nearest rank), or `None` when fewer than
    /// [`MIN_BEYOND`] samples lie beyond it.
    pub fn percentile(&mut self, q: f64) -> Option<f64> {
        let n = self.values.len();
        if n == 0 {
            return None;
        }
        if !self.sorted {
            self.values.sort_by(f64::total_cmp);
            self.sorted = true;
        }
        // Nearest rank: the smallest value with at least q·n samples at or
        // below it.
        let rank = ((q * n as f64).ceil() as usize).clamp(1, n);
        if n - rank < MIN_BEYOND {
            return None;
        }
        Some(self.values[rank - 1])
    }

    /// The median; `None` below `2 · MIN_BEYOND + 1` samples.
    pub fn median(&mut self) -> Option<f64> {
        self.percentile(0.5)
    }
}

/// Samples split into equal time windows of one phase. A figure is the
/// median over windows of the per-window figure, so one disturbed window
/// (a neighbour's burst on a shared host) moves it less than it would
/// move a percentile over the whole phase.
#[derive(Debug, Clone)]
pub struct Windowed {
    windows: Vec<Samples>,
}

impl Windowed {
    pub fn new(count: usize) -> Self {
        Windowed { windows: vec![Samples::new(); count.max(1)] }
    }

    /// Records `value` in window `index` (clamped to the last window).
    pub fn push(&mut self, index: usize, value: f64) {
        let last = self.windows.len() - 1;
        self.windows[index.min(last)].push(value);
    }

    pub fn extend(&mut self, other: &Windowed) {
        for (mine, theirs) in self.windows.iter_mut().zip(&other.windows) {
            mine.extend(theirs);
        }
    }

    pub fn len(&self) -> usize {
        self.windows.iter().map(Samples::len).sum()
    }

    /// The median over windows of each window's `q`-quantile; `None` if
    /// any window is too small for it.
    pub fn percentile(&mut self, q: f64) -> Option<f64> {
        let per_window: Option<Vec<f64>> =
            self.windows.iter_mut().map(|w| w.percentile(q)).collect();
        Some(median_of(&per_window?))
    }
}

/// Median of a handful of whole-run figures (no tail rule: used for the
/// repeated set-up timings of one run).
pub fn median_of(values: &[f64]) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    if n == 0 {
        return f64::NAN;
    }
    if n % 2 == 1 {
        sorted[n / 2]
    } else {
        (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn filled(n: usize) -> Samples {
        let mut samples = Samples::new();
        for v in 1..=n {
            samples.push(v as f64);
        }
        samples
    }

    #[test]
    fn percentile_needs_ten_samples_beyond_it() {
        // p99 of 1000 samples has exactly 10 above its rank: reported.
        assert_eq!(filled(1000).percentile(0.99), Some(990.0));
        // One sample fewer leaves only 9 beyond: withheld.
        assert_eq!(filled(999).percentile(0.99), None);
        // p90 needs 100 samples.
        assert_eq!(filled(100).percentile(0.9), Some(90.0));
        assert_eq!(filled(99).percentile(0.9), None);
    }

    #[test]
    fn median_follows_the_same_rule() {
        assert_eq!(filled(21).median(), Some(11.0));
        assert_eq!(filled(20).median(), Some(10.0));
        assert_eq!(filled(19).median(), None);
        assert_eq!(Samples::new().median(), None);
    }

    #[test]
    fn percentile_is_order_insensitive() {
        let mut forward = filled(2000);
        let mut backward = Samples::new();
        for v in (1..=2000).rev() {
            backward.push(v as f64);
        }
        assert_eq!(forward.percentile(0.99), backward.percentile(0.99));
        assert_eq!(forward.percentile(0.5), backward.percentile(0.5));
    }

    #[test]
    fn windowed_figure_is_the_median_of_window_figures() {
        let mut w = Windowed::new(3);
        for (window, offset) in [(0, 0.0), (1, 1000.0), (2, 10.0)] {
            for v in 1..=100 {
                w.push(window, offset + f64::from(v));
            }
        }
        // Window p90s are 90, 1090 and 100: the disturbed window does not
        // set the figure.
        assert_eq!(w.percentile(0.9), Some(100.0));
        assert_eq!(w.len(), 300);
        // Every window must hold enough samples beyond the quantile.
        w.push(5, 1.0);
        assert_eq!(w.percentile(0.99), None);
    }

    #[test]
    fn median_of_small_sets() {
        assert_eq!(median_of(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median_of(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }
}
