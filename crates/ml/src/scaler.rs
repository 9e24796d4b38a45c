//! Feature standardization (zero mean, unit variance).

use crate::matrix::Matrix;

/// A fitted standardizer: `z = (x - mean) / std` per column.
/// Columns with zero variance pass through unshifted-scale (std treated
/// as 1) so constant features do not explode.
#[derive(Debug, Clone)]
pub struct StandardScaler {
    means: Vec<f64>,
    stds: Vec<f64>,
}

impl StandardScaler {
    /// Fit column statistics on a training matrix.
    ///
    /// # Panics
    /// If `x` has no rows.
    pub fn fit(x: &Matrix) -> StandardScaler {
        assert!(x.rows() > 0, "cannot fit scaler on empty matrix");
        let d = x.cols();
        let n = x.rows() as f64;
        let mut means = vec![0.0; d];
        for r in 0..x.rows() {
            for (m, &v) in means.iter_mut().zip(x.row(r)) {
                *m += v;
            }
        }
        means.iter_mut().for_each(|m| *m /= n);
        let mut stds = vec![0.0; d];
        for r in 0..x.rows() {
            for ((s, &v), &m) in stds.iter_mut().zip(x.row(r)).zip(&means) {
                *s += (v - m) * (v - m);
            }
        }
        for s in stds.iter_mut() {
            *s = (*s / n).sqrt();
            if *s < 1e-12 {
                *s = 1.0;
            }
        }
        StandardScaler { means, stds }
    }

    /// Transform a matrix out of place.
    pub fn transform(&self, x: &Matrix) -> Matrix {
        let mut out = x.clone();
        self.transform_in_place(&mut out);
        out
    }

    /// Transform a matrix in place.
    fn transform_in_place(&self, x: &mut Matrix) {
        assert_eq!(x.cols(), self.means.len(), "column count mismatch");
        for r in 0..x.rows() {
            let row = x.row_mut(r);
            for ((v, &m), &s) in row.iter_mut().zip(&self.means).zip(&self.stds) {
                *v = (*v - m) / s;
            }
        }
    }

    /// Transform a single feature row in place.
    pub fn transform_row(&self, row: &mut [f64]) {
        assert_eq!(row.len(), self.means.len(), "column count mismatch");
        for ((v, &m), &s) in row.iter_mut().zip(&self.means).zip(&self.stds) {
            *v = (*v - m) / s;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn standardizes_columns() {
        let x = Matrix::from_rows(&[vec![1.0, 10.0], vec![2.0, 20.0], vec![3.0, 30.0]]);
        let sc = StandardScaler::fit(&x);
        let t = sc.transform(&x);
        for c in 0..2 {
            let mean: f64 = (0..3).map(|r| t.get(r, c)).sum::<f64>() / 3.0;
            assert!(mean.abs() < 1e-12);
            let var: f64 = (0..3).map(|r| t.get(r, c).powi(2)).sum::<f64>() / 3.0;
            assert!((var - 1.0).abs() < 1e-12);
        }
    }

    #[test]
    fn constant_column_passes_through_centered() {
        let x = Matrix::from_rows(&[vec![5.0], vec![5.0]]);
        let sc = StandardScaler::fit(&x);
        let t = sc.transform(&x);
        assert_eq!(t.get(0, 0), 0.0);
        assert_eq!(t.get(1, 0), 0.0);
    }

    #[test]
    fn row_transform_matches_matrix_transform() {
        let x = Matrix::from_rows(&[vec![1.0, 4.0], vec![3.0, 8.0]]);
        let sc = StandardScaler::fit(&x);
        let t = sc.transform(&x);
        let mut row = x.row(1).to_vec();
        sc.transform_row(&mut row);
        assert_eq!(row, t.row(1));
    }

    #[test]
    #[should_panic(expected = "column count")]
    fn transform_rejects_wrong_width() {
        let x = Matrix::from_rows(&[vec![1.0]]);
        let sc = StandardScaler::fit(&x);
        sc.transform_row(&mut [1.0, 2.0]);
    }
}
