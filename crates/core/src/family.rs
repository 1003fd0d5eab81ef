//! Feature families: named groups of univariate metrics on a shared grid.

use std::borrow::Cow;

use explainit_linalg::Matrix;
use explainit_query::FamilyFrame;

use crate::{CoreError, Result};

/// A feature family (§3.2): a human-relatable group of univariate metrics —
/// all series of one metric name, one host, one service, etc. — observed on
/// a shared, sorted timestamp grid.
#[derive(Debug, Clone, PartialEq)]
pub struct FeatureFamily {
    /// Family name (the grouping key the user chose).
    pub name: String,
    /// Sorted timestamps, one per matrix row.
    pub timestamps: Vec<i64>,
    /// Feature (column) names.
    pub feature_names: Vec<String>,
    /// Dense `T × F` observation matrix.
    pub data: Matrix,
}

impl FeatureFamily {
    /// Builds a family from a matrix.
    ///
    /// # Panics
    /// Panics if dimensions disagree or timestamps are not strictly
    /// increasing.
    pub fn new(
        name: impl Into<String>,
        timestamps: Vec<i64>,
        feature_names: Vec<String>,
        data: Matrix,
    ) -> Self {
        assert_eq!(timestamps.len(), data.nrows(), "timestamp/row mismatch");
        assert_eq!(feature_names.len(), data.ncols(), "feature-name/column mismatch");
        assert!(
            timestamps.windows(2).all(|w| w[0] < w[1]),
            "family timestamps must be strictly increasing"
        );
        FeatureFamily { name: name.into(), timestamps, feature_names, data }
    }

    /// Builds a single-feature family.
    ///
    /// # Panics
    /// Panics on length mismatch or unsorted timestamps.
    pub fn univariate(name: impl Into<String>, timestamps: Vec<i64>, values: Vec<f64>) -> Self {
        let name = name.into();
        let data = Matrix::column_vector(&values);
        FeatureFamily::new(name.clone(), timestamps, vec![name], data)
    }

    /// Converts a query-layer [`FamilyFrame`] (pivot output), consuming it:
    /// the handoff copies only the dense matrix data (no timestamp / name
    /// vector clones).
    pub fn from_frame_owned(frame: FamilyFrame) -> Self {
        let data = Matrix::from_columns(&frame.columns);
        FeatureFamily::new(frame.name, frame.timestamps, frame.feature_names, data)
    }

    /// Number of time steps.
    pub fn len(&self) -> usize {
        self.timestamps.len()
    }

    /// True when the family has no observations.
    pub fn is_empty(&self) -> bool {
        self.timestamps.is_empty()
    }

    /// Number of features.
    pub fn width(&self) -> usize {
        self.data.ncols()
    }

    /// One feature column by name.
    pub fn feature(&self, name: &str) -> Option<Vec<f64>> {
        self.feature_names.iter().position(|n| n == name).map(|i| self.data.column(i))
    }

    /// The rows whose timestamps appear in `keep` (assumed sorted), together
    /// with the surviving timestamps. Used for aligning families that were
    /// built by different queries.
    pub fn restrict_to(&self, keep: &[i64]) -> FeatureFamily {
        let mut rows = Vec::new();
        let mut ts = Vec::new();
        let mut ki = 0usize;
        for (i, &t) in self.timestamps.iter().enumerate() {
            while ki < keep.len() && keep[ki] < t {
                ki += 1;
            }
            if ki < keep.len() && keep[ki] == t {
                rows.push(i);
                ts.push(t);
            }
        }
        FeatureFamily {
            name: self.name.clone(),
            timestamps: ts,
            feature_names: self.feature_names.clone(),
            data: self.data.select_rows(&rows),
        }
    }

    /// The observation rows at `ts` (sorted): borrowed when `ts` is this
    /// family's own grid, gathered once otherwise.
    pub(crate) fn rows_at(&self, ts: &[i64]) -> Cow<'_, Matrix> {
        if self.timestamps == ts {
            Cow::Borrowed(&self.data)
        } else {
            Cow::Owned(self.restrict_to(ts).data)
        }
    }

    /// The rows at `ts` of several families side by side — a hypothesis's Z.
    /// `None` without families; an error when their row counts disagree.
    pub(crate) fn hcat_rows_at<'a>(
        families: impl IntoIterator<Item = &'a FeatureFamily>,
        ts: &[i64],
    ) -> Result<Option<Cow<'a, Matrix>>> {
        families.into_iter().try_fold(None, |acc: Option<Cow<'a, Matrix>>, family| {
            let rows = family.rows_at(ts);
            let Some(prev) = acc else { return Ok(Some(rows)) };
            let both = prev.hcat(&rows).map_err(|e| CoreError::Model(e.to_string()))?;
            Ok(Some(Cow::Owned(both)))
        })
    }

    /// Sorted intersection of this family's timestamps with `other`.
    pub fn shared_timestamps(&self, other: &[i64]) -> Vec<i64> {
        let mut out = Vec::new();
        let (mut i, mut j) = (0usize, 0usize);
        while i < self.timestamps.len() && j < other.len() {
            match self.timestamps[i].cmp(&other[j]) {
                std::cmp::Ordering::Less => i += 1,
                std::cmp::Ordering::Greater => j += 1,
                std::cmp::Ordering::Equal => {
                    out.push(other[j]);
                    i += 1;
                    j += 1;
                }
            }
        }
        out
    }

    /// Merges several families into one wider family (same grid required),
    /// prefixing feature names with the source family name. Used when the
    /// user re-groups semantically similar families (§5.1's takeaway).
    ///
    /// # Panics
    /// Panics if grids differ.
    pub fn merge(name: impl Into<String>, parts: &[&FeatureFamily]) -> FeatureFamily {
        assert!(!parts.is_empty(), "merge needs at least one family");
        let ts = parts[0].timestamps.clone();
        for p in parts {
            assert_eq!(p.timestamps, ts, "merge requires identical time grids");
        }
        let mut feature_names = Vec::new();
        let mut data = parts[0].data.clone();
        for f in &parts[0].feature_names {
            feature_names.push(format!("{}::{}", parts[0].name, f));
        }
        for p in &parts[1..] {
            // invariant: identical grids were asserted above, so rows agree.
            data = data.hcat(&p.data).expect("same row count");
            for f in &p.feature_names {
                feature_names.push(format!("{}::{}", p.name, f));
            }
        }
        FeatureFamily::new(name, ts, feature_names, data)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fam(name: &str, ts: Vec<i64>) -> FeatureFamily {
        let values: Vec<f64> = ts.iter().map(|&t| t as f64).collect();
        FeatureFamily::univariate(name, ts, values)
    }

    #[test]
    fn univariate_construction() {
        let f = fam("m", vec![0, 60, 120]);
        assert_eq!(f.len(), 3);
        assert_eq!(f.width(), 1);
        assert_eq!(f.feature("m").unwrap(), vec![0.0, 60.0, 120.0]);
        assert!(f.feature("nope").is_none());
    }

    #[test]
    #[should_panic(expected = "strictly increasing")]
    fn rejects_unsorted_timestamps() {
        FeatureFamily::univariate("m", vec![10, 5], vec![1.0, 2.0]);
    }

    #[test]
    fn restrict_to_intersection() {
        let f = fam("m", vec![0, 60, 120, 180]);
        let r = f.restrict_to(&[60, 180, 240]);
        assert_eq!(r.timestamps, vec![60, 180]);
        assert_eq!(r.data.column(0), vec![60.0, 180.0]);
    }

    #[test]
    fn shared_timestamps_intersects() {
        let f = fam("m", vec![0, 60, 120]);
        assert_eq!(f.shared_timestamps(&[60, 90, 120, 240]), vec![60, 120]);
        assert!(f.shared_timestamps(&[7, 8]).is_empty());
    }

    #[test]
    fn merge_concatenates_features() {
        let a = fam("a", vec![0, 60]);
        let b = fam("b", vec![0, 60]);
        let m = FeatureFamily::merge("ab", &[&a, &b]);
        assert_eq!(m.width(), 2);
        assert_eq!(m.feature_names, vec!["a::a", "b::b"]);
        assert_eq!(m.name, "ab");
    }

    #[test]
    #[should_panic(expected = "identical time grids")]
    fn merge_rejects_mismatched_grids() {
        let a = fam("a", vec![0, 60]);
        let b = fam("b", vec![0, 120]);
        FeatureFamily::merge("ab", &[&a, &b]);
    }

    #[test]
    fn from_frame_round_trip() {
        let frame = FamilyFrame {
            name: "disk".into(),
            timestamps: vec![0, 60],
            feature_names: vec!["h1".into(), "h2".into()],
            columns: vec![vec![1.0, 2.0], vec![3.0, 4.0]],
        };
        let fam = FeatureFamily::from_frame_owned(frame);
        assert_eq!(fam.width(), 2);
        assert_eq!(fam.data[(1, 0)], 2.0);
        assert_eq!(fam.data[(0, 1)], 3.0);
    }
}
