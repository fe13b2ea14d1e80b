//! Tensor PCA on synthetic video — the TensorFaces-style use case from the
//! paper's introduction (computer vision).
//!
//! ```text
//! cargo run --release --example video_pca
//! ```
//!
//! Builds a height × width × frames tensor containing a moving bright blob
//! over a static textured background, Tucker-compresses it, and shows how
//! the leading frame-mode factor captures the motion (principal components
//! across time) while spatial factors capture the scene.

use std::time::Instant;
use tucker_core::executor::{gauss_seidel_sweep, SeqBackend, SweepBackend};
use tucker_core::meta::TuckerMeta;
use tucker_core::sthosvd::sthosvd;
use tucker_core::{
    full_recompute, tucker_outofcore, LoopCfg, SlidingTucker, TiledBackend, TuckerDecomposition,
};
use tucker_suite::fields::video_field;
use tucker_tensor::norm::fro_norm_sq;
use tucker_tensor::{DenseTensor, Shape, TtmWorkspace};

fn main() {
    let dims = [32usize, 32, 16]; // height x width x frames
    let t = DenseTensor::from_fn(Shape::from(dims), |c| video_field(c, &dims));

    println!(
        "video tensor: {}  ({} elements)",
        t.shape(),
        t.cardinality()
    );

    for ranks in [(2usize, 2usize, 2usize), (4, 4, 3), (8, 8, 4)] {
        let meta = TuckerMeta::new(dims.to_vec(), vec![ranks.0, ranks.1, ranks.2]);
        let init = sthosvd(&t, &meta);
        let norm_sq = fro_norm_sq(&t);
        let e0 = init.error_from_core_norm(norm_sq);
        // Polish with two monotone (Gauss–Seidel) HOOI sweeps.
        let mut b = SeqBackend::new();
        let out1 = gauss_seidel_sweep(&mut b, &t, &meta, &init.factors, norm_sq);
        b.recycle(out1.core);
        let out2 = gauss_seidel_sweep(&mut b, &t, &meta, &out1.factors, norm_sq);
        let error = out2.stats.error;
        let polished = TuckerDecomposition::new(out2.core, out2.factors);
        println!(
            "core {:?}: STHOSVD err {:.4} -> HOOI err {:.4} (storage compression {:.1}x)",
            [ranks.0, ranks.1, ranks.2],
            e0,
            error,
            polished.storage_compression_ratio(),
        );

        if ranks.0 == 4 {
            // The frame-mode factor is time-PCA: its leading column is the
            // dominant temporal pattern. Print it like a tiny spectrum.
            let f_time = &polished.factors[2];
            println!("  leading temporal component (frames 0..16):");
            print!("  ");
            for fr in 0..16 {
                let v = f_time[(fr, 0)];
                print!("{:+.2} ", v);
            }
            println!();
        }
    }

    println!(
        "\nHigher multilinear ranks track the moving blob more faithfully; the \
         frame-mode factor matrix is exactly a PCA basis across time."
    );

    // --- Out-of-core tiled sweep: the whole 64-frame stream at once, with
    // the workspace pool capped at a quarter of the tensor's footprint.
    // Only frame-slab tiles ever stream through the kernels.
    let total_frames = 64usize;
    let stream_dims = [32usize, 32, total_frames];
    let stream = DenseTensor::from_fn(Shape::from(stream_dims), |c| video_field(c, &stream_dims));
    let tensor_bytes = stream.cardinality() * std::mem::size_of::<f64>();
    let meta = TuckerMeta::new(stream_dims.to_vec(), vec![4, 4, 6]);
    let cfg = LoopCfg {
        max_sweeps: 20,
        tol: 1e-9,
    };
    let mut ws = TtmWorkspace::with_limit(tensor_bytes / 4);
    let t0 = Instant::now();
    let ooc = tucker_outofcore(&mut TiledBackend::new(&stream, 8, &mut ws), &meta, cfg);
    println!(
        "\nout-of-core tiled Tucker of the full {}-frame stream (tile = 8 frames):",
        total_frames
    );
    println!(
        "  err {:.4} after {} sweeps in {:.1?}; pooled scratch {} KiB (cap {} KiB, tensor {} KiB)",
        ooc.errors.last().unwrap(),
        ooc.errors.len(),
        t0.elapsed(),
        ws.pooled_bytes() / 1024,
        tensor_bytes / 4 / 1024,
        tensor_bytes / 1024,
    );

    // --- Incremental sliding-window Tucker: the camera never stops. Track
    // a 32-frame window over a 48x48 stream, advancing 2 frames per push.
    // Each push is one in-place memmove + slab write, a slab-cost Gram
    // downdate/update (never a window-sized Gram), and a HOOI
    // re-convergence warm-started from the refreshed factors — against the
    // cold STHOSVD + HOOI recompute of the same window.
    let sliding_dims = [48usize, 48, 96];
    let window_len = 32usize;
    let slab_len = 2usize;
    let window0 = DenseTensor::from_fn(Shape::new(vec![48, 48, window_len]), |c| {
        video_field(c, &sliding_dims)
    });
    let mut st = SlidingTucker::new(window0, vec![4, 4, 3], cfg);
    println!(
        "\nsliding {window_len}-frame window over a 48x48x{} stream, {slab_len} new frames per push:",
        sliding_dims[2]
    );
    let mut inc_total = 0.0f64;
    let mut full_total = 0.0f64;
    let mut push = 1usize;
    let mut max_delta = 0.0f64;
    while push * slab_len + window_len <= sliding_dims[2] {
        let t0 = push * slab_len;
        let slab = DenseTensor::from_fn(Shape::new(vec![48, 48, slab_len]), |c| {
            video_field(
                &[c[0], c[1], c[2] + t0 + window_len - slab_len],
                &sliding_dims,
            )
        });
        let tick = Instant::now();
        let e_inc = st.push_slab(&slab);
        let inc_time = tick.elapsed();
        let tick = Instant::now();
        let (_, e_full, cold_sweeps) = full_recompute(st.window(), st.meta(), cfg);
        let full_time = tick.elapsed();
        inc_total += inc_time.as_secs_f64();
        full_total += full_time.as_secs_f64();
        max_delta = max_delta.max((e_inc - e_full).abs());
        if push.is_multiple_of(8) {
            println!(
                "  frames {:2}..{:2}: incremental err {:.4} ({} sweeps, {:7.1?})  cold err {:.4} ({} sweeps, {:7.1?})",
                t0,
                t0 + window_len,
                e_inc,
                st.sweeps_last_push(),
                inc_time,
                e_full,
                cold_sweeps,
                full_time,
            );
        }
        push += 1;
    }
    println!(
        "  {} pushes: incremental total {:.3}s vs cold recompute total {:.3}s ({:.2}x), max |err delta| {:.1e}",
        push - 1,
        inc_total,
        full_total,
        full_total / inc_total.max(1e-12),
        max_delta,
    );
}
