//! Dense N-dimensional tensor substrate for the distributed Tucker
//! decomposition workspace.
//!
//! The paper's vocabulary (§2.1) maps onto this crate as follows:
//!
//! * a tensor `T` of size `L₁ × … × L_N` is a [`DenseTensor`] with a
//!   [`Shape`];
//! * a **mode-n fiber** is a vector varying the `n`-th coordinate with all
//!   other coordinates fixed ([`Shape::num_fibers`] counts them);
//! * the **mode-n unfolding** `T(n)` is the `L_n × (|T|/L_n)` matrix whose
//!   columns are the mode-n fibers in lexicographic order — see [`mod@unfold`]
//!   (tests and the ablation baseline only; hot paths never materialize it);
//! * the **tensor-times-matrix product** `Z = T ×_n A` applies the linear map
//!   `A` to every mode-n fiber — see [`mod@ttm`]. The kernel uses the blocking
//!   strategy of Austin et al. (paper §5) that avoids materializing the
//!   unfolding by decomposing the product into a batch of GEMM calls on
//!   contiguous slabs; [`ttm::ttm_into_threads`] + [`ttm::TtmWorkspace`]
//!   reuse grow-only output buffers so iterative pipelines allocate nothing
//!   at steady state;
//! * the **Gram matrix** `T(n) · T(n)ᵀ` feeding the SVD step is computed by
//!   the fused slab-wise kernel in [`mod@gram`] — again without materializing
//!   `T(n)`; the distributed 1/qₙ shares are [`ColumnShare`]s, one layout
//!   for packing, assembling and the share's Gram;
//! * **TTM-chains** (`×_{n₁} A₁ ×_{n₂} A₂ …`, commutative) — see
//!   [`ttm::ttm_chain`].
//!
//! Each kernel has one body and it takes a strided [`TensorView`]; a
//! `&DenseTensor` converts into its full view, so the compute entry points
//! are [`fn@gram`], [`gram_threads`], [`ttm`](ttm::ttm), [`ttm_into_threads`],
//! [`ttm_chain`] and the three [`TtmWorkspace`] methods, whatever the
//! operand. Both kernels take a view by one rule: a contiguous view is read
//! where it lies, any other view is copied once through [`copy_into`] into a
//! grow-only thread-local scratch (counted in [`view_bytes_copied`]) and
//! read from there, so a view's result is extract-then-compute to the bit.
//!
//! Storage is the canonical layout generalizing column-major matrices: the
//! first mode varies fastest. All index math lives in [`shape`] so that the
//! distributed crate can reuse it for block arithmetic.

pub mod dense;
pub mod gram;
pub mod norm;
pub mod shape;
pub mod subtensor;
pub mod threads;
pub mod ttm;
pub mod unfold;
pub mod view;

pub use dense::{tensor_buffer_allocs, DenseTensor};
pub use gram::{gram, gram_threads, ColumnShare};
pub use shape::{Dims, Shape};
pub use threads::{heuristic_threads, host_threads};
pub use ttm::{ttm, ttm_chain, ttm_into_threads, TtmWorkspace};
pub use unfold::{fold, unfold};
pub use view::{copy_into, view_bytes_copied, TensorView, TensorViewMut};
