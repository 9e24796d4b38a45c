//! Small dense linear algebra: linear-system solving for the regression
//! models (normal equations with ridge regularization).

// Index-based loops are the clearest idiom for these dense kernels.
#![allow(clippy::needless_range_loop)]

use crate::matrix::Matrix;

/// Error for singular / ill-posed linear systems.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SingularMatrix;

impl std::fmt::Display for SingularMatrix {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("matrix is singular to working precision")
    }
}

impl std::error::Error for SingularMatrix {}

/// Solve `A x = b` by Gaussian elimination with partial pivoting.
///
/// `a` is consumed as a dense square matrix; `b` is the right-hand side.
///
/// # Panics
/// If `a` is not square or dimensions disagree with `b`.
fn solve(mut a: Matrix, mut b: Vec<f64>) -> Result<Vec<f64>, SingularMatrix> {
    let n = a.rows();
    assert_eq!(a.cols(), n, "solve requires a square matrix");
    assert_eq!(b.len(), n, "rhs length must match matrix size");
    for col in 0..n {
        // Partial pivot: find the largest magnitude entry at/below the diagonal.
        let mut pivot = col;
        let mut best = a.get(col, col).abs();
        for r in (col + 1)..n {
            let v = a.get(r, col).abs();
            if v > best {
                best = v;
                pivot = r;
            }
        }
        if best < 1e-12 {
            return Err(SingularMatrix);
        }
        if pivot != col {
            for c in 0..n {
                let tmp = a.get(col, c);
                a.set(col, c, a.get(pivot, c));
                a.set(pivot, c, tmp);
            }
            b.swap(col, pivot);
        }
        let diag = a.get(col, col);
        for r in (col + 1)..n {
            let factor = a.get(r, col) / diag;
            if factor == 0.0 {
                continue;
            }
            for c in col..n {
                let v = a.get(r, c) - factor * a.get(col, c);
                a.set(r, c, v);
            }
            b[r] -= factor * b[col];
        }
    }
    // Back substitution.
    let mut x = vec![0.0; n];
    for r in (0..n).rev() {
        let mut s = b[r];
        for c in (r + 1)..n {
            s -= a.get(r, c) * x[c];
        }
        x[r] = s / a.get(r, r);
    }
    Ok(x)
}

/// Solve the ridge-regularized normal equations
/// `(XᵀX + λI) w = Xᵀ y` for least-squares weights.
///
/// `x` should already include a bias column if an intercept is wanted.
pub fn ridge_normal_equations(
    x: &Matrix,
    y: &[f64],
    lambda: f64,
) -> Result<Vec<f64>, SingularMatrix> {
    assert_eq!(x.rows(), y.len(), "rows and targets must align");
    let d = x.cols();
    let mut xtx = Matrix::zeros(d, d);
    for r in 0..x.rows() {
        let row = x.row(r);
        for i in 0..d {
            let xi = row[i];
            if xi == 0.0 {
                continue;
            }
            for j in i..d {
                let v = xtx.get(i, j) + xi * row[j];
                xtx.set(i, j, v);
            }
        }
    }
    // Mirror the upper triangle and add the ridge.
    for i in 0..d {
        for j in (i + 1)..d {
            let v = xtx.get(i, j);
            xtx.set(j, i, v);
        }
        let v = xtx.get(i, i) + lambda;
        xtx.set(i, i, v);
    }
    let mut xty = vec![0.0; d];
    for r in 0..x.rows() {
        let row = x.row(r);
        let t = y[r];
        if t == 0.0 {
            continue;
        }
        for i in 0..d {
            xty[i] += row[i] * t;
        }
    }
    solve(xtx, xty)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn solves_small_system() {
        // 2x + y = 5; x + 3y = 10 → x = 1, y = 3.
        let a = Matrix::from_rows(&[vec![2.0, 1.0], vec![1.0, 3.0]]);
        let x = solve(a, vec![5.0, 10.0]).unwrap();
        assert!((x[0] - 1.0).abs() < 1e-12);
        assert!((x[1] - 3.0).abs() < 1e-12);
    }

    #[test]
    fn pivoting_handles_zero_diagonal() {
        let a = Matrix::from_rows(&[vec![0.0, 1.0], vec![1.0, 0.0]]);
        let x = solve(a, vec![2.0, 3.0]).unwrap();
        assert_eq!(x, vec![3.0, 2.0]);
    }

    #[test]
    fn detects_singularity() {
        let a = Matrix::from_rows(&[vec![1.0, 2.0], vec![2.0, 4.0]]);
        assert_eq!(solve(a, vec![1.0, 2.0]).unwrap_err(), SingularMatrix);
    }

    #[test]
    fn ridge_recovers_linear_relationship() {
        // y = 2*x0 - 1*x1 + 0.5, with a bias column appended.
        let raw = [
            (0.0, 0.0),
            (1.0, 0.0),
            (0.0, 1.0),
            (1.0, 1.0),
            (0.5, 0.25),
            (0.2, 0.9),
        ];
        let rows: Vec<Vec<f64>> = raw.iter().map(|&(a, b)| vec![a, b, 1.0]).collect();
        let y: Vec<f64> = raw.iter().map(|&(a, b)| 2.0 * a - b + 0.5).collect();
        let x = Matrix::from_rows(&rows);
        let w = ridge_normal_equations(&x, &y, 1e-9).unwrap();
        assert!((w[0] - 2.0).abs() < 1e-6, "{w:?}");
        assert!((w[1] + 1.0).abs() < 1e-6, "{w:?}");
        assert!((w[2] - 0.5).abs() < 1e-6, "{w:?}");
    }

    #[test]
    fn ridge_shrinks_weights() {
        let rows = vec![vec![1.0, 1.0], vec![2.0, 2.0 + 1e-9], vec![3.0, 3.0]];
        let x = Matrix::from_rows(&rows);
        let y = vec![1.0, 2.0, 3.0];
        // Nearly collinear columns: tiny ridge keeps it solvable.
        let w = ridge_normal_equations(&x, &y, 1e-3).unwrap();
        assert!(w.iter().all(|v| v.abs() < 10.0), "{w:?}");
    }
}
