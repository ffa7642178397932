//! Labelled data series — the in-memory representation of a paper figure.
//!
//! A figure is a [`SeriesSet`]: several named series (e.g. "Ideal",
//! "Canary", "Retry") sharing an x-axis (e.g. failure rate). Experiments
//! build these; the metrics crate renders them as tables/CSV.

/// One (x, y) point, optionally with an error bar (std dev).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Point {
    /// Independent variable (failure rate, #invocations, #nodes, ...).
    pub x: f64,
    /// Measured value (seconds, dollars, ...).
    pub y: f64,
    /// Standard deviation across repetitions (0 for single runs).
    pub err: f64,
}

/// A named sequence of points.
#[derive(Debug, Clone)]
pub struct Series {
    /// Legend label.
    pub label: String,
    /// Points in x order (as inserted).
    pub points: Vec<Point>,
}

impl Series {
    /// Empty series with the given label.
    pub fn new(label: impl Into<String>) -> Self {
        Series {
            label: label.into(),
            points: Vec::new(),
        }
    }

    /// Append a point without an error bar.
    pub fn push(&mut self, x: f64, y: f64) {
        self.points.push(Point { x, y, err: 0.0 });
    }

    /// Append a point with an error bar.
    pub fn push_err(&mut self, x: f64, y: f64, err: f64) {
        self.points.push(Point { x, y, err });
    }

    /// Look up y at an exact x value.
    pub fn y_at(&self, x: f64) -> Option<f64> {
        self.points.iter().find(|p| p.x == x).map(|p| p.y)
    }

    /// Mean of all y values (0 when empty).
    pub fn mean_y(&self) -> f64 {
        if self.points.is_empty() {
            return 0.0;
        }
        self.points.iter().map(|p| p.y).sum::<f64>() / self.points.len() as f64
    }

    /// Largest y value.
    pub fn max_y(&self) -> f64 {
        self.points
            .iter()
            .map(|p| p.y)
            .fold(f64::NEG_INFINITY, f64::max)
    }
}

/// A full figure: axis metadata plus one or more series.
#[derive(Debug, Clone)]
pub struct SeriesSet {
    /// Figure title (e.g. "Fig 4: recovery time vs failure rate").
    pub title: String,
    /// X-axis label.
    pub x_label: String,
    /// Y-axis label.
    pub y_label: String,
    /// The series, in legend order.
    pub series: Vec<Series>,
}

impl SeriesSet {
    /// Empty figure.
    pub fn new(
        title: impl Into<String>,
        x_label: impl Into<String>,
        y_label: impl Into<String>,
    ) -> Self {
        SeriesSet {
            title: title.into(),
            x_label: x_label.into(),
            y_label: y_label.into(),
            series: Vec::new(),
        }
    }

    /// Get or create the series with the given label.
    pub fn series_mut(&mut self, label: &str) -> &mut Series {
        if let Some(idx) = self.series.iter().position(|s| s.label == label) {
            return &mut self.series[idx];
        }
        self.series.push(Series::new(label));
        self.series.last_mut().expect("just pushed")
    }

    /// Find a series by label.
    pub fn get(&self, label: &str) -> Option<&Series> {
        self.series.iter().find(|s| s.label == label)
    }

    /// Relative improvement `(a - b) / a` of series `b` over series `a`
    /// at a given x (e.g. Canary's recovery-time reduction over Retry).
    pub fn improvement_at(&self, a: &str, b: &str, x: f64) -> Option<f64> {
        let ya = self.get(a)?.y_at(x)?;
        let yb = self.get(b)?.y_at(x)?;
        if ya == 0.0 {
            return None;
        }
        Some((ya - yb) / ya)
    }

    /// Mean relative improvement of `b` over `a` across all shared x values.
    pub fn mean_improvement(&self, a: &str, b: &str) -> Option<f64> {
        let sa = self.get(a)?;
        let mut acc = 0.0;
        let mut n = 0usize;
        for p in &sa.points {
            if let Some(imp) = self.improvement_at(a, b, p.x) {
                acc += imp;
                n += 1;
            }
        }
        if n == 0 {
            None
        } else {
            Some(acc / n as f64)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> SeriesSet {
        let mut set = SeriesSet::new("t", "x", "y");
        let retry = set.series_mut("Retry");
        retry.push(1.0, 100.0);
        retry.push(2.0, 200.0);
        let canary = set.series_mut("Canary");
        canary.push(1.0, 20.0);
        canary.push(2.0, 40.0);
        set
    }

    #[test]
    fn series_mut_is_idempotent() {
        let mut set = sample();
        assert_eq!(set.series.len(), 2);
        set.series_mut("Retry").push(3.0, 300.0);
        assert_eq!(set.series.len(), 2);
        assert_eq!(set.get("Retry").unwrap().points.len(), 3);
    }

    #[test]
    fn improvement_math() {
        let set = sample();
        let imp = set.improvement_at("Retry", "Canary", 1.0).unwrap();
        assert!((imp - 0.8).abs() < 1e-12);
        let mean = set.mean_improvement("Retry", "Canary").unwrap();
        assert!((mean - 0.8).abs() < 1e-12);
    }

    #[test]
    fn y_at_missing_x() {
        let set = sample();
        assert_eq!(set.get("Retry").unwrap().y_at(9.0), None);
        assert_eq!(set.improvement_at("Retry", "Canary", 9.0), None);
    }

    #[test]
    fn mean_and_max() {
        let set = sample();
        let s = set.get("Retry").unwrap();
        assert_eq!(s.mean_y(), 150.0);
        assert_eq!(s.max_y(), 200.0);
    }
}
