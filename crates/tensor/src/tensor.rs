//! Dense row-major `f32` tensor.

use std::fmt;

/// Error raised by tensor operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TensorError {
    /// The number of elements does not match the product of the dimensions.
    ShapeDataMismatch {
        /// Requested shape.
        shape: Vec<usize>,
        /// Number of elements supplied.
        len: usize,
    },
    /// Two tensors that must agree in shape do not.
    ShapeMismatch {
        /// Left-hand shape.
        lhs: Vec<usize>,
        /// Right-hand shape.
        rhs: Vec<usize>,
    },
    /// The operation requires a tensor of a particular rank.
    RankMismatch {
        /// Expected rank.
        expected: usize,
        /// Actual rank.
        actual: usize,
    },
    /// Inner dimensions of a matrix product do not agree.
    InnerDimMismatch {
        /// Columns of the left operand.
        lhs_cols: usize,
        /// Rows of the right operand.
        rhs_rows: usize,
    },
    /// An axis index was out of range for the tensor's rank.
    AxisOutOfRange {
        /// Requested axis.
        axis: usize,
        /// Tensor rank.
        rank: usize,
    },
    /// Generic invalid-argument error with a human-readable message.
    InvalidArgument(String),
}

impl fmt::Display for TensorError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TensorError::ShapeDataMismatch { shape, len } => {
                write!(
                    f,
                    "shape {shape:?} requires {} elements, got {len}",
                    shape.iter().product::<usize>()
                )
            }
            TensorError::ShapeMismatch { lhs, rhs } => {
                write!(f, "shape mismatch: {lhs:?} vs {rhs:?}")
            }
            TensorError::RankMismatch { expected, actual } => {
                write!(f, "expected rank {expected}, got rank {actual}")
            }
            TensorError::InnerDimMismatch { lhs_cols, rhs_rows } => {
                write!(f, "inner dimensions do not agree: {lhs_cols} vs {rhs_rows}")
            }
            TensorError::AxisOutOfRange { axis, rank } => {
                write!(f, "axis {axis} out of range for rank {rank}")
            }
            TensorError::InvalidArgument(msg) => write!(f, "{msg}"),
        }
    }
}

impl std::error::Error for TensorError {}

/// A dense, row-major tensor of `f32` values.
///
/// Shapes are owned `Vec<usize>`; an empty shape denotes a scalar holding one
/// element. All arithmetic is checked: dimension disagreements surface as
/// [`TensorError`] rather than panics, except for indexing, which panics like
/// slice indexing does.
///
/// ```
/// use quq_tensor::Tensor;
/// let t = Tensor::zeros(&[2, 3]);
/// assert_eq!(t.shape(), &[2, 3]);
/// assert_eq!(t.len(), 6);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Tensor {
    shape: Vec<usize>,
    data: Vec<f32>,
}

impl Tensor {
    /// Creates a tensor from raw data and a shape.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeDataMismatch`] when `data.len()` does not
    /// equal the product of `shape`.
    pub fn from_vec(data: Vec<f32>, shape: &[usize]) -> crate::Result<Self> {
        let expected: usize = shape.iter().product();
        if data.len() != expected {
            return Err(TensorError::ShapeDataMismatch {
                shape: shape.to_vec(),
                len: data.len(),
            });
        }
        Ok(Self {
            shape: shape.to_vec(),
            data,
        })
    }

    /// Creates a zero-filled tensor of the given shape.
    pub fn zeros(shape: &[usize]) -> Self {
        let len = shape.iter().product();
        Self {
            shape: shape.to_vec(),
            data: vec![0.0; len],
        }
    }

    /// Creates a tensor filled with `value`.
    pub fn full(shape: &[usize], value: f32) -> Self {
        let len = shape.iter().product();
        Self {
            shape: shape.to_vec(),
            data: vec![value; len],
        }
    }

    /// Creates an `n`×`n` identity matrix.
    pub fn eye(n: usize) -> Self {
        let mut t = Self::zeros(&[n, n]);
        for i in 0..n {
            t.data[i * n + i] = 1.0;
        }
        t
    }

    /// Creates a scalar (rank-0) tensor.
    pub fn scalar(value: f32) -> Self {
        Self {
            shape: Vec::new(),
            data: vec![value],
        }
    }

    /// The tensor's shape.
    pub fn shape(&self) -> &[usize] {
        &self.shape
    }

    /// The tensor's rank (number of dimensions).
    pub fn rank(&self) -> usize {
        self.shape.len()
    }

    /// Total number of elements.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Whether the tensor holds no elements.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Immutable view of the backing buffer (row-major).
    pub fn data(&self) -> &[f32] {
        &self.data
    }

    /// Mutable view of the backing buffer (row-major).
    pub fn data_mut(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Consumes the tensor and returns its backing buffer.
    pub fn into_vec(self) -> Vec<f32> {
        self.data
    }

    /// Returns the element at a multi-dimensional index.
    ///
    /// # Panics
    ///
    /// Panics when `index` has the wrong rank or is out of bounds.
    pub fn at(&self, index: &[usize]) -> f32 {
        self.data[self.offset(index)]
    }

    /// Sets the element at a multi-dimensional index.
    ///
    /// # Panics
    ///
    /// Panics when `index` has the wrong rank or is out of bounds.
    pub fn set(&mut self, index: &[usize], value: f32) {
        let off = self.offset(index);
        self.data[off] = value;
    }

    fn offset(&self, index: &[usize]) -> usize {
        assert_eq!(
            index.len(),
            self.shape.len(),
            "index rank {} != tensor rank {}",
            index.len(),
            self.shape.len()
        );
        let mut off = 0;
        for (i, (&ix, &dim)) in index.iter().zip(&self.shape).enumerate() {
            assert!(
                ix < dim,
                "index {ix} out of bounds for axis {i} with size {dim}"
            );
            off = off * dim + ix;
        }
        off
    }

    /// Reinterprets the tensor with a new shape of equal element count.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeDataMismatch`] when element counts differ.
    pub fn reshape(&self, shape: &[usize]) -> crate::Result<Self> {
        Self::from_vec(self.data.clone(), shape)
    }

    /// Consuming variant of [`reshape`](Self::reshape); avoids the copy.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeDataMismatch`] when element counts differ.
    pub fn into_reshape(self, shape: &[usize]) -> crate::Result<Self> {
        Self::from_vec(self.data, shape)
    }

    /// Applies `f` to every element, producing a new tensor.
    pub fn map(&self, f: impl Fn(f32) -> f32) -> Self {
        Self {
            shape: self.shape.clone(),
            data: self.data.iter().map(|&x| f(x)).collect(),
        }
    }

    /// Applies `f` to every element in place.
    pub fn map_inplace(&mut self, f: impl Fn(f32) -> f32) {
        for x in &mut self.data {
            *x = f(*x);
        }
    }

    /// Elementwise combination of two equally shaped tensors.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] when the shapes differ.
    pub fn zip_with(&self, other: &Self, f: impl Fn(f32, f32) -> f32) -> crate::Result<Self> {
        if self.shape != other.shape {
            return Err(TensorError::ShapeMismatch {
                lhs: self.shape.clone(),
                rhs: other.shape.clone(),
            });
        }
        let data = self
            .data
            .iter()
            .zip(&other.data)
            .map(|(&a, &b)| f(a, b))
            .collect();
        Ok(Self {
            shape: self.shape.clone(),
            data,
        })
    }

    /// Elementwise sum.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] when the shapes differ.
    pub fn add(&self, other: &Self) -> crate::Result<Self> {
        self.zip_with(other, |a, b| a + b)
    }

    /// Elementwise difference.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] when the shapes differ.
    pub fn sub(&self, other: &Self) -> crate::Result<Self> {
        self.zip_with(other, |a, b| a - b)
    }

    /// Elementwise product (Hadamard).
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] when the shapes differ.
    pub fn mul(&self, other: &Self) -> crate::Result<Self> {
        self.zip_with(other, |a, b| a * b)
    }

    /// Multiplies every element by a scalar.
    pub fn scale(&self, s: f32) -> Self {
        self.map(|x| x * s)
    }

    /// Adds a 1-D bias over the last axis (broadcast over leading axes).
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] when `bias.len()` differs from
    /// the size of the last axis.
    pub fn add_bias(&self, bias: &Self) -> crate::Result<Self> {
        let last = *self.shape.last().ok_or_else(|| {
            TensorError::InvalidArgument("add_bias requires rank >= 1".to_string())
        })?;
        if bias.rank() != 1 || bias.len() != last {
            return Err(TensorError::ShapeMismatch {
                lhs: self.shape.clone(),
                rhs: bias.shape.clone(),
            });
        }
        let mut out = self.clone();
        for row in out.data.chunks_mut(last) {
            for (x, &b) in row.iter_mut().zip(&bias.data) {
                *x += b;
            }
        }
        Ok(out)
    }

    /// Views the tensor as a matrix by flattening all leading axes.
    ///
    /// A `[b, n, d]` tensor becomes `[b * n, d]`, also when `d` is 0.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::RankMismatch`] for tensors of rank < 1.
    pub fn as_matrix(&self) -> crate::Result<(usize, usize)> {
        if self.shape.is_empty() {
            return Err(TensorError::RankMismatch {
                expected: 1,
                actual: 0,
            });
        }
        let (&cols, lead) = self.shape.split_last().expect("non-empty shape");
        Ok((lead.iter().product(), cols))
    }

    /// Returns the `i`-th slice along the leading axis as a new tensor.
    ///
    /// A `[b, n, d]` tensor yields `[n, d]` slices.
    ///
    /// # Panics
    ///
    /// Panics if the tensor is rank 0 or `i` is out of range.
    pub fn index_axis0(&self, i: usize) -> Self {
        assert!(!self.shape.is_empty(), "cannot slice a scalar");
        assert!(
            i < self.shape[0],
            "index {i} out of range for axis 0 with size {}",
            self.shape[0]
        );
        let sub_shape: Vec<usize> = self.shape[1..].to_vec();
        let sub_len: usize = sub_shape.iter().product();
        let data = self.data[i * sub_len..(i + 1) * sub_len].to_vec();
        Self {
            shape: sub_shape,
            data,
        }
    }

    /// Stacks equally shaped tensors along a new leading axis.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::InvalidArgument`] for an empty input and
    /// [`TensorError::ShapeMismatch`] when shapes disagree.
    pub fn stack(parts: &[Self]) -> crate::Result<Self> {
        let first = parts.first().ok_or_else(|| {
            TensorError::InvalidArgument("stack requires at least one tensor".to_string())
        })?;
        let mut data = Vec::with_capacity(first.len() * parts.len());
        for p in parts {
            if p.shape != first.shape {
                return Err(TensorError::ShapeMismatch {
                    lhs: first.shape.clone(),
                    rhs: p.shape.clone(),
                });
            }
            data.extend_from_slice(&p.data);
        }
        let mut shape = vec![parts.len()];
        shape.extend_from_slice(&first.shape);
        Ok(Self { shape, data })
    }

    /// Concatenates tensors along the last axis.
    ///
    /// All inputs must agree in every axis except the last.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::InvalidArgument`] for an empty input and
    /// [`TensorError::ShapeMismatch`] when leading shapes disagree.
    pub fn concat_last(parts: &[Self]) -> crate::Result<Self> {
        let first = parts.first().ok_or_else(|| {
            TensorError::InvalidArgument("concat_last requires at least one tensor".to_string())
        })?;
        if first.shape.is_empty() {
            return Err(TensorError::RankMismatch {
                expected: 1,
                actual: 0,
            });
        }
        let lead = &first.shape[..first.shape.len() - 1];
        let rows: usize = lead.iter().product();
        let mut total_last = 0;
        for p in parts {
            if p.shape.len() != first.shape.len() || &p.shape[..p.shape.len() - 1] != lead {
                return Err(TensorError::ShapeMismatch {
                    lhs: first.shape.clone(),
                    rhs: p.shape.clone(),
                });
            }
            total_last += *p.shape.last().expect("non-empty shape");
        }
        let mut data = Vec::with_capacity(rows * total_last);
        for r in 0..rows {
            for p in parts {
                let last = *p.shape.last().expect("non-empty shape");
                data.extend_from_slice(&p.data[r * last..(r + 1) * last]);
            }
        }
        let mut shape = lead.to_vec();
        shape.push(total_last);
        Ok(Self { shape, data })
    }

    /// Transposes a rank-2 tensor.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::RankMismatch`] for tensors that are not rank 2.
    pub fn transpose(&self) -> crate::Result<Self> {
        if self.rank() != 2 {
            return Err(TensorError::RankMismatch {
                expected: 2,
                actual: self.rank(),
            });
        }
        let (r, c) = (self.shape[0], self.shape[1]);
        let mut out = Self::zeros(&[c, r]);
        for i in 0..r {
            for j in 0..c {
                out.data[j * r + i] = self.data[i * c + j];
            }
        }
        Ok(out)
    }

    /// Sum of all elements.
    pub fn sum(&self) -> f32 {
        self.data.iter().sum()
    }

    /// Mean of all elements (0 for an empty tensor).
    pub fn mean(&self) -> f32 {
        if self.data.is_empty() {
            0.0
        } else {
            self.sum() / self.data.len() as f32
        }
    }

    /// Minimum element (`+inf` for an empty tensor).
    pub fn min(&self) -> f32 {
        self.data.iter().copied().fold(f32::INFINITY, f32::min)
    }

    /// Maximum element (`-inf` for an empty tensor).
    pub fn max(&self) -> f32 {
        self.data.iter().copied().fold(f32::NEG_INFINITY, f32::max)
    }

    /// Index of the maximum element of a rank-1 tensor (ties -> first).
    ///
    /// # Panics
    ///
    /// Panics when the tensor is empty.
    pub fn argmax(&self) -> usize {
        assert!(!self.data.is_empty(), "argmax of empty tensor");
        let mut best = 0;
        for (i, &x) in self.data.iter().enumerate() {
            if x > self.data[best] {
                best = i;
            }
        }
        best
    }
}

impl Default for Tensor {
    fn default() -> Self {
        Self::zeros(&[0])
    }
}

impl fmt::Display for Tensor {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Tensor{:?}(", self.shape)?;
        let preview: Vec<String> = self
            .data
            .iter()
            .take(8)
            .map(|x| format!("{x:.4}"))
            .collect();
        write!(f, "{}", preview.join(", "))?;
        if self.data.len() > 8 {
            write!(f, ", …")?;
        }
        write!(f, ")")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_vec_checks_len() {
        assert!(Tensor::from_vec(vec![1.0; 6], &[2, 3]).is_ok());
        let err = Tensor::from_vec(vec![1.0; 5], &[2, 3]).unwrap_err();
        assert!(matches!(err, TensorError::ShapeDataMismatch { .. }));
    }

    #[test]
    fn indexing_round_trips() {
        let mut t = Tensor::zeros(&[2, 3, 4]);
        t.set(&[1, 2, 3], 7.5);
        assert_eq!(t.at(&[1, 2, 3]), 7.5);
        assert_eq!(t.at(&[0, 0, 0]), 0.0);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn indexing_out_of_bounds_panics() {
        let t = Tensor::zeros(&[2, 2]);
        let _ = t.at(&[2, 0]);
    }

    #[test]
    fn eye_is_identity_under_matmul() {
        let a = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[2, 2]).unwrap();
        let i = Tensor::eye(2);
        let prod = crate::linalg::matmul(&a, &i).unwrap();
        assert_eq!(prod.data(), a.data());
    }

    #[test]
    fn reshape_preserves_data() {
        let t = Tensor::from_vec((0..12).map(|x| x as f32).collect(), &[3, 4]).unwrap();
        let r = t.reshape(&[2, 6]).unwrap();
        assert_eq!(r.data(), t.data());
        assert!(t.reshape(&[5, 5]).is_err());
    }

    #[test]
    fn as_matrix_keeps_rows_of_zero_width() {
        assert_eq!(Tensor::zeros(&[2, 3, 4]).as_matrix().unwrap(), (6, 4));
        assert_eq!(Tensor::zeros(&[2, 3, 0]).as_matrix().unwrap(), (6, 0));
        assert_eq!(Tensor::zeros(&[0]).as_matrix().unwrap(), (1, 0));
        assert!(Tensor::zeros(&[]).as_matrix().is_err());
    }

    #[test]
    fn elementwise_ops() {
        let a = Tensor::from_vec(vec![1.0, 2.0], &[2]).unwrap();
        let b = Tensor::from_vec(vec![3.0, 5.0], &[2]).unwrap();
        assert_eq!(a.add(&b).unwrap().data(), &[4.0, 7.0]);
        assert_eq!(b.sub(&a).unwrap().data(), &[2.0, 3.0]);
        assert_eq!(a.mul(&b).unwrap().data(), &[3.0, 10.0]);
        assert_eq!(a.scale(2.0).data(), &[2.0, 4.0]);
        let c = Tensor::zeros(&[3]);
        assert!(a.add(&c).is_err());
    }

    #[test]
    fn add_bias_broadcasts_over_rows() {
        let x = Tensor::from_vec(vec![0.0, 0.0, 1.0, 1.0], &[2, 2]).unwrap();
        let b = Tensor::from_vec(vec![10.0, 20.0], &[2]).unwrap();
        let y = x.add_bias(&b).unwrap();
        assert_eq!(y.data(), &[10.0, 20.0, 11.0, 21.0]);
    }

    #[test]
    fn stack_and_index_axis0_round_trip() {
        let a = Tensor::from_vec(vec![1.0, 2.0], &[2]).unwrap();
        let b = Tensor::from_vec(vec![3.0, 4.0], &[2]).unwrap();
        let s = Tensor::stack(&[a.clone(), b.clone()]).unwrap();
        assert_eq!(s.shape(), &[2, 2]);
        assert_eq!(s.index_axis0(0), a);
        assert_eq!(s.index_axis0(1), b);
    }

    #[test]
    fn concat_last_interleaves_rows() {
        let a = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[2, 2]).unwrap();
        let b = Tensor::from_vec(vec![9.0, 8.0], &[2, 1]).unwrap();
        let c = Tensor::concat_last(&[a, b]).unwrap();
        assert_eq!(c.shape(), &[2, 3]);
        assert_eq!(c.data(), &[1.0, 2.0, 9.0, 3.0, 4.0, 8.0]);
    }

    #[test]
    fn transpose_is_involution() {
        let t = Tensor::from_vec((0..6).map(|x| x as f32).collect(), &[2, 3]).unwrap();
        let tt = t.transpose().unwrap().transpose().unwrap();
        assert_eq!(t, tt);
    }

    #[test]
    fn reductions() {
        let t = Tensor::from_vec(vec![-1.0, 4.0, 2.0], &[3]).unwrap();
        assert_eq!(t.sum(), 5.0);
        assert!((t.mean() - 5.0 / 3.0).abs() < 1e-6);
        assert_eq!(t.min(), -1.0);
        assert_eq!(t.max(), 4.0);
        assert_eq!(t.argmax(), 1);
    }

    #[test]
    fn display_is_nonempty() {
        let t = Tensor::zeros(&[1]);
        assert!(!format!("{t}").is_empty());
        assert!(!format!("{t:?}").is_empty());
    }
}
