//! Dense row-major integer tensor used on quantized execution paths.

use crate::{Tensor, TensorError};

/// A dense, row-major tensor of `i32` values.
///
/// Quantized activations and weights live in `IntTensor`s; the element type is
/// `i32` so that b-bit codes (b ≤ 8 in the paper) and 32-bit accumulators share
/// one representation while staying visibly distinct from floating-point
/// [`Tensor`]s.
///
/// ```
/// use quq_tensor::IntTensor;
/// let q = IntTensor::from_vec(vec![-3, 0, 7], &[3])?;
/// assert_eq!(q.data(), &[-3, 0, 7]);
/// # Ok::<(), quq_tensor::TensorError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct IntTensor {
    shape: Vec<usize>,
    data: Vec<i32>,
}

impl IntTensor {
    /// Creates an integer tensor from raw data and a shape.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeDataMismatch`] when `data.len()` does not
    /// equal the product of `shape`.
    pub fn from_vec(data: Vec<i32>, shape: &[usize]) -> crate::Result<Self> {
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

    /// Creates a zero-filled integer tensor.
    pub fn zeros(shape: &[usize]) -> Self {
        let len = shape.iter().product();
        Self {
            shape: shape.to_vec(),
            data: vec![0; len],
        }
    }

    /// The tensor's shape.
    pub fn shape(&self) -> &[usize] {
        &self.shape
    }

    /// The tensor's rank.
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
    pub fn data(&self) -> &[i32] {
        &self.data
    }

    /// Mutable view of the backing buffer (row-major).
    pub fn data_mut(&mut self) -> &mut [i32] {
        &mut self.data
    }

    /// Consumes the tensor and returns its backing buffer.
    pub fn into_vec(self) -> Vec<i32> {
        self.data
    }

    /// Applies `f` to every element, producing a new tensor.
    pub fn map(&self, f: impl Fn(i32) -> i32) -> Self {
        Self {
            shape: self.shape.clone(),
            data: self.data.iter().map(|&x| f(x)).collect(),
        }
    }

    /// Converts each element to `f32` after multiplying by `scale`.
    ///
    /// This is the generic dequantization step `x ≈ Δ·x̂`.
    pub fn to_f32(&self, scale: f32) -> Tensor {
        let data = self.data.iter().map(|&x| x as f32 * scale).collect();
        Tensor::from_vec(data, &self.shape).expect("shape preserved")
    }

    /// Reinterprets the tensor with a new shape of equal element count.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeDataMismatch`] when element counts differ.
    pub fn reshape(&self, shape: &[usize]) -> crate::Result<Self> {
        Self::from_vec(self.data.clone(), shape)
    }

    /// Minimum element (`i32::MAX` for an empty tensor).
    pub fn min(&self) -> i32 {
        self.data.iter().copied().min().unwrap_or(i32::MAX)
    }

    /// Maximum element (`i32::MIN` for an empty tensor).
    pub fn max(&self) -> i32 {
        self.data.iter().copied().max().unwrap_or(i32::MIN)
    }
}

impl Default for IntTensor {
    fn default() -> Self {
        Self::zeros(&[0])
    }
}

/// A dense, row-major tensor of `i16` values: a decoded operand of the
/// integer GEMM pipeline (the `A` side; `B` is repacked into
/// [`crate::linalg::PackedB`]).
///
/// QUB decode produces pre-shifted values `D · 2^{n_sh}`; with `b ≤ 8` and
/// `n_sh ≤ 7` every such value fits an `i16` (|D·2^{n_sh}| ≤ 2^14), so a
/// decoded operand occupies 2 bytes per element — a quarter of a
/// `(D, n_sh)` pair — and feeds a dense multiply-accumulate kernel with no
/// per-element shift. This mirrors the paper's decoding-unit/PE-array
/// split: the DU output (`d = D << n_sh`) is exactly what the PE array
/// consumes.
///
/// ```
/// use quq_tensor::I16Tensor;
/// let p = I16Tensor::from_vec(vec![-3, 0, 7], &[3])?;
/// assert_eq!(p.data(), &[-3, 0, 7]);
/// # Ok::<(), quq_tensor::TensorError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct I16Tensor {
    shape: Vec<usize>,
    data: Vec<i16>,
}

impl I16Tensor {
    /// Creates a packed tensor from raw data and a shape.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeDataMismatch`] when `data.len()` does not
    /// equal the product of `shape`.
    pub fn from_vec(data: Vec<i16>, shape: &[usize]) -> crate::Result<Self> {
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

    /// Creates a zero-filled packed tensor.
    pub fn zeros(shape: &[usize]) -> Self {
        let len = shape.iter().product();
        Self {
            shape: shape.to_vec(),
            data: vec![0; len],
        }
    }

    /// The tensor's shape.
    pub fn shape(&self) -> &[usize] {
        &self.shape
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
    pub fn data(&self) -> &[i16] {
        &self.data
    }

    /// Consumes the tensor and returns its backing buffer.
    pub fn into_vec(self) -> Vec<i16> {
        self.data
    }

    /// Widens every element to `i32`, producing an [`IntTensor`].
    pub fn to_i32(&self) -> IntTensor {
        IntTensor {
            shape: self.shape.clone(),
            data: self.data.iter().map(|&x| x as i32).collect(),
        }
    }

    /// Converts each element to `f32` after multiplying by `scale`.
    pub fn to_f32(&self, scale: f32) -> Tensor {
        let data = self.data.iter().map(|&x| x as f32 * scale).collect();
        Tensor::from_vec(data, &self.shape).expect("shape preserved")
    }
}

impl Default for I16Tensor {
    fn default() -> Self {
        Self::zeros(&[0])
    }
}

impl std::fmt::Display for IntTensor {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "IntTensor{:?}(", self.shape)?;
        let preview: Vec<String> = self.data.iter().take(8).map(|x| x.to_string()).collect();
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
        assert!(IntTensor::from_vec(vec![1, 2, 3], &[3]).is_ok());
        assert!(IntTensor::from_vec(vec![1, 2], &[3]).is_err());
    }

    #[test]
    fn to_f32_scales() {
        let q = IntTensor::from_vec(vec![-2, 0, 4], &[3]).unwrap();
        let t = q.to_f32(0.5);
        assert_eq!(t.data(), &[-1.0, 0.0, 2.0]);
    }

    #[test]
    fn min_max() {
        let q = IntTensor::from_vec(vec![5, -7, 3], &[3]).unwrap();
        assert_eq!(q.min(), -7);
        assert_eq!(q.max(), 5);
        let e = IntTensor::zeros(&[0]);
        assert_eq!(e.min(), i32::MAX);
        assert_eq!(e.max(), i32::MIN);
    }

    #[test]
    fn map_applies_elementwise() {
        let q = IntTensor::from_vec(vec![1, -2], &[2]).unwrap();
        assert_eq!(q.map(|x| x << 1).data(), &[2, -4]);
    }

    #[test]
    fn display_is_nonempty() {
        let q = IntTensor::zeros(&[2]);
        assert!(!format!("{q}").is_empty());
    }

    #[test]
    fn i16_from_vec_checks_len() {
        assert!(I16Tensor::from_vec(vec![1, 2, 3], &[3]).is_ok());
        assert!(I16Tensor::from_vec(vec![1, 2], &[3]).is_err());
    }

    #[test]
    fn i16_widens_and_scales() {
        let p = I16Tensor::from_vec(vec![-2, 0, 4], &[3]).unwrap();
        assert_eq!(p.to_i32().data(), &[-2, 0, 4]);
        assert_eq!(p.to_f32(0.5).data(), &[-1.0, 0.0, 2.0]);
        assert_eq!(p.len(), 3);
        assert!(!p.is_empty());
        assert_eq!(p.shape(), &[3]);
    }

    #[test]
    fn i16_default_is_empty() {
        assert!(I16Tensor::default().is_empty());
        assert_eq!(I16Tensor::zeros(&[2, 2]).into_vec(), vec![0; 4]);
    }
}
