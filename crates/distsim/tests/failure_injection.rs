//! Failure-injection tests: the simulated runtime must fail loudly and with
//! the original diagnostics when an SPMD program is malformed — silent
//! corruption or deadlock would invalidate every experiment built on it.

use tucker_distsim::collectives::{allreduce_sum, Group};
use tucker_distsim::dist_ttm::dist_ttm;
use tucker_distsim::{DistTensor, Grid, MeshCfg, Universe, VolumeCategory};
use tucker_linalg::Matrix;
use tucker_tensor::{DenseTensor, Shape};

#[test]
#[should_panic(expected = "deliberate rank failure")]
fn rank_panic_propagates_with_payload() {
    Universe::run(4, |ctx| {
        if ctx.rank() == 2 {
            panic!("deliberate rank failure");
        }
        // Other ranks do harmless local work; they must not hang forever
        // waiting on the dead rank (no communication here).
        ctx.rank()
    });
}

#[test]
#[should_panic(expected = "tag mismatch")]
fn mismatched_tags_are_detected() {
    Universe::run(2, |ctx| {
        if ctx.rank() == 0 {
            ctx.send(1, 7, vec![1.0], VolumeCategory::Other);
        } else {
            // Expecting a different tag: the SPMD program is out of sync.
            let _ = ctx.recv(0, 8, VolumeCategory::Other);
        }
    });
}

#[test]
#[should_panic(expected = "allreduce length mismatch")]
fn allreduce_length_mismatch_detected() {
    Universe::run(2, |ctx| {
        let g = Group::world(ctx);
        let mut buf = if ctx.rank() == 0 {
            vec![0.0; 3]
        } else {
            vec![0.0; 5]
        };
        allreduce_sum(ctx, &g, &mut buf, 1, VolumeCategory::Other);
    });
}

#[test]
#[should_panic(expected = "local block shape mismatch")]
fn dist_tensor_rejects_wrong_block() {
    Universe::run(2, |ctx| {
        let grid = Grid::new([2, 1]);
        // Rank 0's block of an 8x4 tensor under 2x1 is 4x4; hand it 3x4.
        let local = DenseTensor::zeros([3, 4]);
        let _ = DistTensor::from_parts(Shape::from([8, 4]), grid, ctx.rank(), local);
    });
}

#[test]
#[should_panic(expected = "does not match universe size")]
fn grid_universe_mismatch_detected() {
    Universe::run(2, |ctx| {
        let global = DenseTensor::zeros([4, 4]);
        let grid = Grid::new([2, 2]); // 4 ranks, but the universe has 2
        let _ = DistTensor::scatter_from_global(ctx, &global, &grid);
    });
}

#[test]
fn disjoint_subgroups_do_not_interfere() {
    // Two halves run independent collectives concurrently; traffic and
    // results must not leak across groups.
    let out = Universe::run(6, |ctx| {
        let members: Vec<usize> = if ctx.rank() < 3 {
            vec![0, 1, 2]
        } else {
            vec![3, 4, 5]
        };
        let g = Group::new(ctx, members);
        let mut buf = vec![ctx.rank() as f64];
        allreduce_sum(ctx, &g, &mut buf, 11, VolumeCategory::Other);
        buf[0]
    });
    assert_eq!(out.results, vec![3.0, 3.0, 3.0, 12.0, 12.0, 12.0]);
}

#[test]
fn interleaved_p2p_and_collectives_stay_ordered() {
    // The runtime is FIFO per rank pair: messages must be *received* in the
    // order the peer sent them (MPI would allow tag-based selection; our
    // stricter contract is what the tag assertion enforces). A program that
    // completes all p2p receives before entering the next collective is
    // well-ordered and must work.
    let out = Universe::run(3, |ctx| {
        let me = ctx.rank();
        ctx.send((me + 1) % 3, 50, vec![me as f64], VolumeCategory::Other);
        let from_prev = ctx.recv((me + 2) % 3, 50, VolumeCategory::Other);
        let g = Group::world(ctx);
        let mut buf = vec![1.0];
        allreduce_sum(ctx, &g, &mut buf, 60, VolumeCategory::Other);
        (buf[0], from_prev[0])
    });
    for (r, &(sum, prev)) in out.results.iter().enumerate() {
        assert_eq!(sum, 3.0);
        assert_eq!(prev, ((r + 2) % 3) as f64);
    }
}

#[test]
#[should_panic(expected = "deliberate rank drop during TTM")]
fn rank_drop_during_ttm_phase_propagates() {
    // One rank dies after the local partial product but before feeding the
    // reduce-scatter. Its mode-group peers are blocked in `recv` on its
    // partial; they must fail fast on the closed channel instead of hanging,
    // and the dropped rank's original diagnostic must win (rank 0 is joined
    // first, so its payload is the one re-raised).
    Universe::run(4, |ctx| {
        let grid = Grid::new([2, 2]);
        let global = DenseTensor::from_fn(Shape::from([8, 8]), |c| (c[0] * 8 + c[1]) as f64);
        let dt = DistTensor::scatter_from_global(ctx, &global, &grid);
        // K x L_n = 4 x 8 selection matrix: a valid mode-0 TTM factor.
        let factor_t = Matrix::from_fn(4, 8, |k, l| if l % 4 == k { 1.0 } else { 0.0 });
        if ctx.rank() == 0 {
            // Do the TTM compute step this rank would have done, then die in
            // the window between compute and communication.
            let f_slice = Matrix::from_fn(4, 4, |k, l| factor_t[(k, l)]);
            let _partial = tucker_tensor::ttm(dt.local(), 0, &f_slice);
            panic!("deliberate rank drop during TTM");
        }
        let z = dist_ttm(ctx, &dt, 0, &factor_t);
        z.local().cardinality()
    });
}

#[test]
#[should_panic(expected = "tag mismatch")]
fn skipped_receive_is_caught() {
    // The converse of the previous test: a program that forgets to drain an
    // earlier p2p message before a later receive gets the earlier message
    // (FIFO), and the tag check reports it instead of silently delivering
    // wrong data. Rank 0 only sends (never blocks), so exactly one rank
    // panics and its diagnostic propagates deterministically.
    Universe::run(2, |ctx| {
        if ctx.rank() == 0 {
            ctx.send(1, 50, vec![0.0], VolumeCategory::Other); // stray
            ctx.send(1, 61, vec![1.0], VolumeCategory::Other);
        } else {
            // Skips the tag-50 receive: FIFO delivers 50 where 61 is wanted.
            let _ = ctx.recv(0, 61, VolumeCategory::Other);
        }
    });
}

// ------------------------------------------------------- mesh quarantine

#[test]
fn mesh_quarantines_root_failure_and_labels_cascades() {
    // On the actor mesh a rank failure is data, not a panic: the run
    // returns with the root cause quarantined and every blocked survivor
    // unwound with a cascade label, so a recovery layer can tell "who
    // actually died" from "whose epoch merely aborted".
    let out = Universe::run_mesh(6, &MeshCfg::default(), |ctx| {
        if ctx.rank() == 4 {
            panic!("deliberate mesh failure");
        }
        let g = Group::world(ctx);
        let mut buf = vec![1.0];
        allreduce_sum(ctx, &g, &mut buf, 3, VolumeCategory::Other);
        buf[0]
    });
    assert!(!out.all_ok());
    assert_eq!(out.first_failure, Some(4));
    let failed = out.failed_ranks();
    assert!(failed.contains(&4));
    let root = out.failure_message(4).expect("root is quarantined");
    assert!(root.contains("deliberate mesh failure"), "got: {root}");
    for r in failed {
        if r != 4 {
            let msg = out.failure_message(r).expect("cascade recorded");
            assert!(
                msg.contains("epoch aborted") || msg.contains("sender dropped"),
                "rank {r} should be a cascade, got: {msg}"
            );
        }
    }
}

#[test]
#[should_panic(expected = "deliberate mesh failure")]
fn mesh_into_results_reraises_root_payload() {
    // The fail-stop adapter: collapsing a failed MeshOutput back into
    // results re-raises the ROOT payload (not a cascade), so `Abort`-policy
    // callers keep the thread-universe diagnostics.
    let out = Universe::run_mesh(4, &MeshCfg::default(), |ctx| {
        if ctx.rank() == 1 {
            panic!("deliberate mesh failure");
        }
        let g = Group::world(ctx);
        let mut buf = vec![1.0];
        allreduce_sum(ctx, &g, &mut buf, 3, VolumeCategory::Other);
        buf[0]
    });
    let _ = out.into_results();
}
