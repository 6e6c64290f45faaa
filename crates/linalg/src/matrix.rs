//! Row-major dense matrix of `f64` and its arithmetic.

use std::fmt;
use std::ops::{Add, AddAssign, Index, IndexMut, Mul, MulAssign, Neg, Sub, SubAssign};

/// Error returned when two matrices have incompatible shapes for an
/// operation, or when raw data does not match the requested dimensions.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MatrixShapeError {
    /// Human-readable description of the mismatch.
    msg: String,
}

impl MatrixShapeError {
    pub(crate) fn new(msg: impl Into<String>) -> Self {
        Self { msg: msg.into() }
    }
}

impl fmt::Display for MatrixShapeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "matrix shape error: {}", self.msg)
    }
}

impl std::error::Error for MatrixShapeError {}

/// A dense, row-major matrix of `f64` values.
///
/// This is the workhorse type of the reproduction: traffic condition
/// matrices, indicator matrices, and the `L`/`R` factors of the compressive
/// sensing algorithm are all `Matrix` values.
///
/// Indexing is `(row, col)`, zero-based. In the traffic-condition-matrix
/// convention of the paper, rows are time slots and columns are road
/// segments.
///
/// # Example
///
/// ```
/// use linalg::Matrix;
///
/// let m = Matrix::from_fn(2, 3, |r, c| (r * 3 + c) as f64);
/// assert_eq!(m.get(1, 2), 5.0);
/// assert_eq!(m.transpose().get(2, 1), 5.0);
/// ```
#[derive(Clone, PartialEq)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl fmt::Debug for Matrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Matrix {}x{} [", self.rows, self.cols)?;
        let max_show = 8;
        for r in 0..self.rows.min(max_show) {
            write!(f, "  [")?;
            for c in 0..self.cols.min(max_show) {
                if c > 0 {
                    write!(f, ", ")?;
                }
                write!(f, "{:10.4}", self.get(r, c))?;
            }
            if self.cols > max_show {
                write!(f, ", ...")?;
            }
            writeln!(f, "]")?;
        }
        if self.rows > max_show {
            writeln!(f, "  ...")?;
        }
        write!(f, "]")
    }
}

impl Matrix {
    /// Creates an `rows × cols` matrix filled with zeros.
    ///
    /// ```
    /// let z = linalg::Matrix::zeros(2, 2);
    /// assert_eq!(z.get(1, 1), 0.0);
    /// ```
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Self { rows, cols, data: vec![0.0; rows * cols] }
    }

    /// Creates an `rows × cols` matrix filled with `value`.
    pub fn filled(rows: usize, cols: usize, value: f64) -> Self {
        Self { rows, cols, data: vec![value; rows * cols] }
    }

    /// Creates the `n × n` identity matrix.
    pub fn identity(n: usize) -> Self {
        let mut m = Self::zeros(n, n);
        for i in 0..n {
            m.set(i, i, 1.0);
        }
        m
    }

    /// Builds a matrix by evaluating `f(row, col)` for every entry.
    pub fn from_fn(rows: usize, cols: usize, mut f: impl FnMut(usize, usize) -> f64) -> Self {
        let mut data = Vec::with_capacity(rows * cols);
        for r in 0..rows {
            for c in 0..cols {
                data.push(f(r, c));
            }
        }
        Self { rows, cols, data }
    }

    /// Builds a matrix from row slices. All rows must have equal length.
    ///
    /// # Panics
    ///
    /// Panics if rows have differing lengths.
    pub fn from_rows(rows: &[&[f64]]) -> Self {
        let nrows = rows.len();
        let ncols = rows.first().map_or(0, |r| r.len());
        let mut data = Vec::with_capacity(nrows * ncols);
        for (i, row) in rows.iter().enumerate() {
            assert_eq!(row.len(), ncols, "row {i} has length {} != {ncols}", row.len());
            data.extend_from_slice(row);
        }
        Self { rows: nrows, cols: ncols, data }
    }

    /// Builds a matrix from a flat row-major vector.
    ///
    /// # Errors
    ///
    /// Returns [`MatrixShapeError`] when `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f64>) -> Result<Self, MatrixShapeError> {
        if data.len() != rows * cols {
            return Err(MatrixShapeError::new(format!(
                "data length {} does not match {rows}x{cols}",
                data.len()
            )));
        }
        Ok(Self { rows, cols, data })
    }

    /// Builds a single-column matrix from a slice.
    pub fn column_vector(values: &[f64]) -> Self {
        Self { rows: values.len(), cols: 1, data: values.to_vec() }
    }

    /// Builds a single-row matrix from a slice.
    pub fn row_vector(values: &[f64]) -> Self {
        Self { rows: 1, cols: values.len(), data: values.to_vec() }
    }

    /// Builds a square diagonal matrix from the given diagonal entries.
    pub fn diag(values: &[f64]) -> Self {
        let mut m = Self::zeros(values.len(), values.len());
        for (i, &v) in values.iter().enumerate() {
            m.set(i, i, v);
        }
        m
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// `(rows, cols)` pair.
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// Total number of entries (`rows * cols`), `size(B)` in the paper's
    /// integrity definition.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Whether the matrix has zero entries in total.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Returns the entry at `(row, col)`.
    ///
    /// # Panics
    ///
    /// Panics if out of bounds.
    #[inline]
    pub fn get(&self, row: usize, col: usize) -> f64 {
        assert!(
            row < self.rows && col < self.cols,
            "index ({row},{col}) out of bounds for {}x{}",
            self.rows,
            self.cols
        );
        self.data[row * self.cols + col]
    }

    /// Sets the entry at `(row, col)`.
    ///
    /// # Panics
    ///
    /// Panics if out of bounds.
    #[inline]
    pub fn set(&mut self, row: usize, col: usize, value: f64) {
        assert!(
            row < self.rows && col < self.cols,
            "index ({row},{col}) out of bounds for {}x{}",
            self.rows,
            self.cols
        );
        self.data[row * self.cols + col] = value;
    }

    /// Borrows the `row`-th row as a contiguous slice.
    #[inline]
    pub fn row(&self, row: usize) -> &[f64] {
        assert!(row < self.rows, "row {row} out of bounds for {} rows", self.rows);
        &self.data[row * self.cols..(row + 1) * self.cols]
    }

    /// Mutably borrows the `row`-th row.
    #[inline]
    pub fn row_mut(&mut self, row: usize) -> &mut [f64] {
        assert!(row < self.rows, "row {row} out of bounds for {} rows", self.rows);
        &mut self.data[row * self.cols..(row + 1) * self.cols]
    }

    /// Copies the `col`-th column into a new `Vec`.
    pub fn col(&self, col: usize) -> Vec<f64> {
        assert!(col < self.cols, "col {col} out of bounds for {} cols", self.cols);
        (0..self.rows).map(|r| self.get(r, col)).collect()
    }

    /// Overwrites the `col`-th column from a slice of length `rows`.
    ///
    /// # Panics
    ///
    /// Panics if `values.len() != self.rows()`.
    pub fn set_col(&mut self, col: usize, values: &[f64]) {
        assert_eq!(values.len(), self.rows, "column length mismatch");
        for (r, &v) in values.iter().enumerate() {
            self.set(r, col, v);
        }
    }

    /// Overwrites the `row`-th row from a slice of length `cols`.
    ///
    /// # Panics
    ///
    /// Panics if `values.len() != self.cols()`.
    pub fn set_row(&mut self, row: usize, values: &[f64]) {
        assert_eq!(values.len(), self.cols, "row length mismatch");
        self.row_mut(row).copy_from_slice(values);
    }

    /// Flat row-major view of the data.
    pub fn as_slice(&self) -> &[f64] {
        &self.data
    }

    /// Mutable flat row-major view of the data.
    pub fn as_mut_slice(&mut self) -> &mut [f64] {
        &mut self.data
    }

    /// Consumes the matrix, returning the flat row-major data.
    pub fn into_vec(self) -> Vec<f64> {
        self.data
    }

    /// Iterator over `(row, col, value)` triples in row-major order.
    pub fn iter(&self) -> impl Iterator<Item = (usize, usize, f64)> + '_ {
        let cols = self.cols;
        self.data.iter().enumerate().map(move |(i, &v)| (i / cols, i % cols, v))
    }

    /// Returns the transpose.
    pub fn transpose(&self) -> Matrix {
        let mut out = Matrix::zeros(self.cols, self.rows);
        for r in 0..self.rows {
            for c in 0..self.cols {
                out.set(c, r, self.get(r, c));
            }
        }
        out
    }

    /// Matrix product `self * rhs`.
    ///
    /// # Errors
    ///
    /// Returns [`MatrixShapeError`] when `self.cols() != rhs.rows()`.
    pub fn matmul(&self, rhs: &Matrix) -> Result<Matrix, MatrixShapeError> {
        if self.cols != rhs.rows {
            return Err(MatrixShapeError::new(format!(
                "cannot multiply {}x{} by {}x{}",
                self.rows, self.cols, rhs.rows, rhs.cols
            )));
        }
        let mut out = Matrix::zeros(self.rows, rhs.cols);
        // i-k-j loop order keeps the inner loop contiguous in both `rhs` and
        // `out` rows, which matters at the ~700x250 sizes used in benches.
        for i in 0..self.rows {
            for k in 0..self.cols {
                let a = self.get(i, k);
                if a == 0.0 {
                    continue;
                }
                let rhs_row = rhs.row(k);
                let out_row = out.row_mut(i);
                for (o, &b) in out_row.iter_mut().zip(rhs_row) {
                    *o += a * b;
                }
            }
        }
        Ok(out)
    }

    /// Matrix product `self * rhsᵀ` without materializing the transpose.
    ///
    /// Both operands are walked along their contiguous rows (every
    /// output entry is a dot product of a `self` row with a `rhs` row),
    /// and the output is tiled into `64×64` blocks so the working set of
    /// `rhs` rows stays cache-resident while a block of `self` rows
    /// streams past it. This is the fast path for the low-rank
    /// reconstruction `X̂ = L Rᵀ`, where the shared dimension (the rank)
    /// is tiny and `transpose()` + `matmul` would touch `R` column-wise.
    ///
    /// # Errors
    ///
    /// Returns [`MatrixShapeError`] when `self.cols() != rhs.cols()`.
    pub fn matmul_transpose_b(&self, rhs: &Matrix) -> Result<Matrix, MatrixShapeError> {
        if self.cols != rhs.cols {
            return Err(MatrixShapeError::new(format!(
                "cannot multiply {}x{} by transposed {}x{}",
                self.rows, self.cols, rhs.rows, rhs.cols
            )));
        }
        const BLOCK: usize = 64;
        let (m, n, r) = (self.rows, rhs.rows, self.cols);
        let mut out = Matrix::zeros(m, n);
        for ib in (0..m).step_by(BLOCK) {
            let i_end = (ib + BLOCK).min(m);
            for jb in (0..n).step_by(BLOCK) {
                let j_end = (jb + BLOCK).min(n);
                for i in ib..i_end {
                    let a_row = self.row(i);
                    let out_row = &mut out.data[i * n + jb..i * n + j_end];
                    for (o, j) in out_row.iter_mut().zip(jb..j_end) {
                        let b_row = rhs.row(j);
                        let mut acc = 0.0;
                        for k in 0..r {
                            acc += a_row[k] * b_row[k];
                        }
                        *o = acc;
                    }
                }
            }
        }
        Ok(out)
    }

    /// Element-wise (Hadamard) product, the `.×` operator of the paper
    /// (Eq. 4): `Z = X .× Y`, `z_ij = x_ij * y_ij`.
    ///
    /// # Errors
    ///
    /// Returns [`MatrixShapeError`] on shape mismatch.
    pub fn hadamard(&self, rhs: &Matrix) -> Result<Matrix, MatrixShapeError> {
        self.zip_with(rhs, |a, b| a * b)
    }

    /// Applies `f` element-wise to pairs from `self` and `rhs`.
    ///
    /// # Errors
    ///
    /// Returns [`MatrixShapeError`] on shape mismatch.
    pub fn zip_with(
        &self,
        rhs: &Matrix,
        mut f: impl FnMut(f64, f64) -> f64,
    ) -> Result<Matrix, MatrixShapeError> {
        if self.shape() != rhs.shape() {
            return Err(MatrixShapeError::new(format!(
                "shape mismatch: {}x{} vs {}x{}",
                self.rows, self.cols, rhs.rows, rhs.cols
            )));
        }
        let data = self.data.iter().zip(&rhs.data).map(|(&a, &b)| f(a, b)).collect();
        Ok(Self { rows: self.rows, cols: self.cols, data })
    }

    /// Returns a new matrix with `f` applied to every entry.
    pub fn map(&self, mut f: impl FnMut(f64) -> f64) -> Matrix {
        Self { rows: self.rows, cols: self.cols, data: self.data.iter().map(|&v| f(v)).collect() }
    }

    /// Multiplies every entry by `s` in place.
    pub fn scale_in_place(&mut self, s: f64) {
        for v in &mut self.data {
            *v *= s;
        }
    }

    /// Frobenius norm `sqrt(sum of squared entries)`, `‖·‖_F` in the paper.
    pub fn frobenius_norm(&self) -> f64 {
        self.data.iter().map(|v| v * v).sum::<f64>().sqrt()
    }

    /// Squared Frobenius norm (avoids the final `sqrt`).
    pub fn frobenius_norm_sq(&self) -> f64 {
        self.data.iter().map(|v| v * v).sum()
    }

    /// Sum of all entries, `sum(B)` in the paper's integrity definition.
    pub fn sum(&self) -> f64 {
        self.data.iter().sum()
    }

    /// Largest absolute entry; zero for an empty matrix.
    pub fn max_abs(&self) -> f64 {
        self.data.iter().fold(0.0_f64, |m, v| m.max(v.abs()))
    }

    /// Returns a copy of the sub-matrix covering rows `r0..r1` and columns
    /// `c0..c1` (half-open ranges).
    ///
    /// # Panics
    ///
    /// Panics if the ranges exceed the matrix bounds or are inverted.
    pub fn submatrix(&self, r0: usize, r1: usize, c0: usize, c1: usize) -> Matrix {
        assert!(
            r0 <= r1 && r1 <= self.rows && c0 <= c1 && c1 <= self.cols,
            "invalid submatrix range"
        );
        Matrix::from_fn(r1 - r0, c1 - c0, |r, c| self.get(r0 + r, c0 + c))
    }

    /// Returns a new matrix containing only the listed columns, in order.
    /// Used to form traffic matrices from selected road-segment sets
    /// (Section 4.5 of the paper).
    ///
    /// # Panics
    ///
    /// Panics if any index is out of bounds.
    pub fn select_columns(&self, cols: &[usize]) -> Matrix {
        Matrix::from_fn(self.rows, cols.len(), |r, j| self.get(r, cols[j]))
    }

    /// Returns a new matrix containing only the listed rows, in order.
    ///
    /// # Panics
    ///
    /// Panics if any index is out of bounds.
    pub fn select_rows(&self, rows: &[usize]) -> Matrix {
        Matrix::from_fn(rows.len(), self.cols, |i, c| self.get(rows[i], c))
    }

    /// Stacks `self` on top of `other` (`[self; other]` in MATLAB notation),
    /// as used by Algorithm 1's contradictory-equation formulation (Eq. 17).
    ///
    /// # Errors
    ///
    /// Returns [`MatrixShapeError`] when column counts differ.
    pub fn vstack(&self, other: &Matrix) -> Result<Matrix, MatrixShapeError> {
        if self.cols != other.cols {
            return Err(MatrixShapeError::new(format!(
                "vstack column mismatch: {} vs {}",
                self.cols, other.cols
            )));
        }
        let mut data = Vec::with_capacity((self.rows + other.rows) * self.cols);
        data.extend_from_slice(&self.data);
        data.extend_from_slice(&other.data);
        Ok(Matrix { rows: self.rows + other.rows, cols: self.cols, data })
    }

    /// Places `self` left of `other` (`[self, other]`).
    ///
    /// # Errors
    ///
    /// Returns [`MatrixShapeError`] when row counts differ.
    pub fn hstack(&self, other: &Matrix) -> Result<Matrix, MatrixShapeError> {
        if self.rows != other.rows {
            return Err(MatrixShapeError::new(format!(
                "hstack row mismatch: {} vs {}",
                self.rows, other.rows
            )));
        }
        let mut out = Matrix::zeros(self.rows, self.cols + other.cols);
        for r in 0..self.rows {
            out.row_mut(r)[..self.cols].copy_from_slice(self.row(r));
            out.row_mut(r)[self.cols..].copy_from_slice(other.row(r));
        }
        Ok(out)
    }

    /// Fills the matrix with independent uniform samples from `[lo, hi)`.
    pub fn fill_uniform<R: rand::RngExt + ?Sized>(&mut self, rng: &mut R, lo: f64, hi: f64) {
        for v in &mut self.data {
            *v = rng.random_range(lo..hi);
        }
    }

    /// Creates an `rows × cols` matrix of uniform samples from `[lo, hi)`,
    /// the random initialization of `L` in Algorithm 1.
    pub fn random_uniform<R: rand::RngExt + ?Sized>(
        rows: usize,
        cols: usize,
        rng: &mut R,
        lo: f64,
        hi: f64,
    ) -> Matrix {
        let mut m = Matrix::zeros(rows, cols);
        m.fill_uniform(rng, lo, hi);
        m
    }

    /// Returns `true` when every entry of the difference is within `tol` of
    /// zero (mixed absolute/relative test via [`crate::approx_eq`]).
    pub fn approx_eq(&self, other: &Matrix, tol: f64) -> bool {
        self.shape() == other.shape()
            && self.data.iter().zip(&other.data).all(|(&a, &b)| crate::approx_eq(a, b, tol))
    }
}

impl Index<(usize, usize)> for Matrix {
    type Output = f64;

    #[inline]
    fn index(&self, (r, c): (usize, usize)) -> &f64 {
        assert!(r < self.rows && c < self.cols, "index ({r},{c}) out of bounds");
        &self.data[r * self.cols + c]
    }
}

impl IndexMut<(usize, usize)> for Matrix {
    #[inline]
    fn index_mut(&mut self, (r, c): (usize, usize)) -> &mut f64 {
        assert!(r < self.rows && c < self.cols, "index ({r},{c}) out of bounds");
        &mut self.data[r * self.cols + c]
    }
}

impl Add for &Matrix {
    type Output = Matrix;

    /// # Panics
    ///
    /// Panics on shape mismatch.
    fn add(self, rhs: &Matrix) -> Matrix {
        self.zip_with(rhs, |a, b| a + b).expect("matrix addition shape mismatch")
    }
}

impl Sub for &Matrix {
    type Output = Matrix;

    /// # Panics
    ///
    /// Panics on shape mismatch.
    fn sub(self, rhs: &Matrix) -> Matrix {
        self.zip_with(rhs, |a, b| a - b).expect("matrix subtraction shape mismatch")
    }
}

impl Mul for &Matrix {
    type Output = Matrix;

    /// Matrix product.
    ///
    /// # Panics
    ///
    /// Panics on shape mismatch; use [`Matrix::matmul`] for a fallible
    /// version.
    fn mul(self, rhs: &Matrix) -> Matrix {
        self.matmul(rhs).expect("matrix multiplication shape mismatch")
    }
}

impl Mul<f64> for &Matrix {
    type Output = Matrix;

    fn mul(self, s: f64) -> Matrix {
        self.map(|v| v * s)
    }
}

impl Neg for &Matrix {
    type Output = Matrix;

    fn neg(self) -> Matrix {
        self.map(|v| -v)
    }
}

impl AddAssign<&Matrix> for Matrix {
    /// # Panics
    ///
    /// Panics on shape mismatch.
    fn add_assign(&mut self, rhs: &Matrix) {
        assert_eq!(self.shape(), rhs.shape(), "matrix += shape mismatch");
        for (a, b) in self.data.iter_mut().zip(&rhs.data) {
            *a += b;
        }
    }
}

impl SubAssign<&Matrix> for Matrix {
    /// # Panics
    ///
    /// Panics on shape mismatch.
    fn sub_assign(&mut self, rhs: &Matrix) {
        assert_eq!(self.shape(), rhs.shape(), "matrix -= shape mismatch");
        for (a, b) in self.data.iter_mut().zip(&rhs.data) {
            *a -= b;
        }
    }
}

impl MulAssign<f64> for Matrix {
    fn mul_assign(&mut self, s: f64) {
        self.scale_in_place(s);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Matrix {
        Matrix::from_rows(&[&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]])
    }

    #[test]
    fn zeros_and_identity() {
        let z = Matrix::zeros(2, 3);
        assert_eq!(z.shape(), (2, 3));
        assert!(z.as_slice().iter().all(|&v| v == 0.0));
        let i = Matrix::identity(3);
        assert_eq!(i.get(0, 0), 1.0);
        assert_eq!(i.get(0, 1), 0.0);
        assert_eq!(i.sum(), 3.0);
    }

    #[test]
    fn from_fn_layout() {
        let m = Matrix::from_fn(2, 3, |r, c| (10 * r + c) as f64);
        assert_eq!(m.as_slice(), &[0.0, 1.0, 2.0, 10.0, 11.0, 12.0]);
    }

    #[test]
    fn from_vec_checks_length() {
        assert!(Matrix::from_vec(2, 2, vec![1.0; 4]).is_ok());
        assert!(Matrix::from_vec(2, 2, vec![1.0; 3]).is_err());
    }

    #[test]
    fn get_set_index() {
        let mut m = sample();
        assert_eq!(m[(1, 2)], 6.0);
        m[(1, 2)] = 9.0;
        assert_eq!(m.get(1, 2), 9.0);
        m.set(0, 0, -1.0);
        assert_eq!(m[(0, 0)], -1.0);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn get_out_of_bounds_panics() {
        sample().get(2, 0);
    }

    #[test]
    fn rows_and_cols_access() {
        let m = sample();
        assert_eq!(m.row(1), &[4.0, 5.0, 6.0]);
        assert_eq!(m.col(2), vec![3.0, 6.0]);
    }

    #[test]
    fn set_row_col() {
        let mut m = sample();
        m.set_row(0, &[7.0, 8.0, 9.0]);
        assert_eq!(m.row(0), &[7.0, 8.0, 9.0]);
        m.set_col(1, &[0.5, 1.5]);
        assert_eq!(m.col(1), vec![0.5, 1.5]);
    }

    #[test]
    fn transpose_roundtrip() {
        let m = sample();
        let t = m.transpose();
        assert_eq!(t.shape(), (3, 2));
        assert_eq!(t.get(2, 1), 6.0);
        assert_eq!(t.transpose(), m);
    }

    #[test]
    fn matmul_known_product() {
        let a = sample(); // 2x3
        let b = a.transpose(); // 3x2
        let p = a.matmul(&b).unwrap();
        // [[14, 32], [32, 77]]
        assert_eq!(p.get(0, 0), 14.0);
        assert_eq!(p.get(0, 1), 32.0);
        assert_eq!(p.get(1, 0), 32.0);
        assert_eq!(p.get(1, 1), 77.0);
    }

    #[test]
    fn matmul_identity_is_noop() {
        let m = sample();
        let i3 = Matrix::identity(3);
        assert_eq!(m.matmul(&i3).unwrap(), m);
        let i2 = Matrix::identity(2);
        assert_eq!(i2.matmul(&m).unwrap(), m);
    }

    #[test]
    fn matmul_shape_mismatch() {
        let a = sample();
        assert!(a.matmul(&a).is_err());
    }

    #[test]
    fn matmul_transpose_b_matches_explicit_transpose() {
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(19);
        // Sizes straddling the 64-wide block boundary in both dims.
        for (m, n, r) in [(3, 2, 4), (64, 64, 2), (65, 130, 8), (1, 200, 3), (100, 1, 5)] {
            let a = Matrix::random_uniform(m, r, &mut rng, -1.0, 1.0);
            let b = Matrix::random_uniform(n, r, &mut rng, -1.0, 1.0);
            let fast = a.matmul_transpose_b(&b).unwrap();
            let slow = a.matmul(&b.transpose()).unwrap();
            assert_eq!(fast.shape(), (m, n));
            for (x, y) in fast.as_slice().iter().zip(slow.as_slice()) {
                assert!(x.to_bits() == y.to_bits(), "({m}x{n}x{r}): {x:?} vs {y:?}");
            }
        }
    }

    #[test]
    fn matmul_transpose_b_shape_mismatch() {
        let a = Matrix::zeros(3, 4);
        let b = Matrix::zeros(3, 5);
        assert!(a.matmul_transpose_b(&b).is_err());
    }

    #[test]
    fn hadamard_matches_paper_dot_product() {
        let x = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        let b = Matrix::from_rows(&[&[1.0, 0.0], &[0.0, 1.0]]);
        let z = x.hadamard(&b).unwrap();
        assert_eq!(z, Matrix::from_rows(&[&[1.0, 0.0], &[0.0, 4.0]]));
    }

    #[test]
    fn arithmetic_operators() {
        let a = sample();
        let s = &a + &a;
        assert_eq!(s.get(1, 1), 10.0);
        let d = &s - &a;
        assert_eq!(d, a);
        let sc = &a * 2.0;
        assert_eq!(sc.get(0, 2), 6.0);
        let n = -&a;
        assert_eq!(n.get(0, 0), -1.0);
        let mut m = a.clone();
        m += &a;
        m -= &a;
        assert_eq!(m, a);
        m *= 3.0;
        assert_eq!(m.get(0, 0), 3.0);
    }

    #[test]
    fn frobenius_norm_known() {
        let m = Matrix::from_rows(&[&[3.0, 0.0], &[0.0, 4.0]]);
        assert!(crate::approx_eq(m.frobenius_norm(), 5.0, 1e-12));
        assert!(crate::approx_eq(m.frobenius_norm_sq(), 25.0, 1e-12));
    }

    #[test]
    fn submatrix_and_selection() {
        let m = Matrix::from_fn(4, 4, |r, c| (r * 4 + c) as f64);
        let s = m.submatrix(1, 3, 2, 4);
        assert_eq!(s, Matrix::from_rows(&[&[6.0, 7.0], &[10.0, 11.0]]));
        let cols = m.select_columns(&[3, 0]);
        assert_eq!(cols.col(0), vec![3.0, 7.0, 11.0, 15.0]);
        assert_eq!(cols.col(1), vec![0.0, 4.0, 8.0, 12.0]);
        let rows = m.select_rows(&[2]);
        assert_eq!(rows.row(0), m.row(2));
    }

    #[test]
    fn stacking() {
        let a = Matrix::from_rows(&[&[1.0, 2.0]]);
        let b = Matrix::from_rows(&[&[3.0, 4.0]]);
        let v = a.vstack(&b).unwrap();
        assert_eq!(v.shape(), (2, 2));
        assert_eq!(v.row(1), &[3.0, 4.0]);
        let h = a.hstack(&b).unwrap();
        assert_eq!(h.shape(), (1, 4));
        assert_eq!(h.row(0), &[1.0, 2.0, 3.0, 4.0]);
        assert!(a.vstack(&Matrix::zeros(1, 3)).is_err());
        assert!(a.hstack(&Matrix::zeros(2, 2)).is_err());
    }

    #[test]
    fn random_uniform_in_range() {
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(7);
        let m = Matrix::random_uniform(10, 10, &mut rng, -1.0, 1.0);
        assert!(m.as_slice().iter().all(|&v| (-1.0..1.0).contains(&v)));
        // Not all equal (vanishingly unlikely with a working RNG).
        assert!(m.as_slice().windows(2).any(|w| w[0] != w[1]));
    }

    #[test]
    fn map_and_scale() {
        let m = sample();
        let sq = m.map(|v| v * v);
        assert_eq!(sq.get(1, 2), 36.0);
        let mut s = m.clone();
        s.scale_in_place(0.5);
        assert_eq!(s.get(0, 1), 1.0);
    }

    #[test]
    fn iter_yields_row_major() {
        let m = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        let triples: Vec<_> = m.iter().collect();
        assert_eq!(triples, vec![(0, 0, 1.0), (0, 1, 2.0), (1, 0, 3.0), (1, 1, 4.0)]);
    }

    #[test]
    fn max_abs_and_sum() {
        let m = Matrix::from_rows(&[&[-5.0, 2.0], &[3.0, -1.0]]);
        assert_eq!(m.max_abs(), 5.0);
        assert_eq!(m.sum(), -1.0);
    }

    #[test]
    fn approx_eq_matrices() {
        let a = sample();
        let mut b = a.clone();
        b.set(0, 0, 1.0 + 1e-13);
        assert!(a.approx_eq(&b, 1e-9));
        b.set(0, 0, 2.0);
        assert!(!a.approx_eq(&b, 1e-9));
        assert!(!a.approx_eq(&Matrix::zeros(2, 2), 1e-9));
    }

    #[test]
    fn debug_output_nonempty() {
        let s = format!("{:?}", sample());
        assert!(s.contains("Matrix 2x3"));
    }
}
