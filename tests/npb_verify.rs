//! NPB verification: official zeta values and cross-backend agreement.
//!
//! Class S runs in default test time; W and A are `#[ignore]`d (run with
//! `cargo test --release -- --ignored`).

use std::sync::Arc;

use reo::npb::{cg, lu, CgClass, HandWritten, LuClass, ReoComm};
use reo::runtime::Mode;

#[test]
fn cg_class_s_sequential_verifies() {
    let result = cg::run_sequential(&CgClass::S);
    assert_eq!(result.verified, Some(true), "zeta = {:.13}", result.zeta);
}

#[test]
fn cg_class_s_parallel_verifies_over_both_backends() {
    let class = CgClass::S;
    let a = Arc::new(cg::class_matrix(&class));
    let hw = cg::run_parallel(Arc::clone(&a), &class, HandWritten::new(2));
    assert_eq!(hw.verified, Some(true));
    let reo = cg::run_parallel(
        Arc::clone(&a),
        &class,
        ReoComm::new(2, Mode::jit()).unwrap(),
    );
    assert_eq!(reo.verified, Some(true));
    assert_eq!(hw.zeta.to_bits(), reo.zeta.to_bits());
}

#[test]
fn lu_class_s_backends_agree() {
    let class = LuClass {
        itmax: 10,
        ..LuClass::S
    };
    let seq = lu::run_sequential(&class);
    let hw = lu::run_parallel(&class, HandWritten::new(2));
    let reo = lu::run_parallel(&class, ReoComm::new(2, Mode::jit()).unwrap());
    assert_eq!(seq.center.to_bits(), hw.center.to_bits());
    assert_eq!(seq.center.to_bits(), reo.center.to_bits());
    let tol = 1e-12 * seq.residual.abs().max(1e-300);
    assert!((seq.residual - hw.residual).abs() <= tol);
    assert!((seq.residual - reo.residual).abs() <= tol);
}

#[test]
#[ignore = "class W takes minutes in debug builds; run with --release -- --ignored"]
fn cg_class_w_sequential_verifies() {
    let result = cg::run_sequential(&CgClass::W);
    assert_eq!(result.verified, Some(true), "zeta = {:.13}", result.zeta);
}

#[test]
#[ignore = "class A takes minutes in debug builds; run with --release -- --ignored"]
fn cg_class_a_sequential_verifies() {
    let result = cg::run_sequential(&CgClass::A);
    assert_eq!(result.verified, Some(true), "zeta = {:.13}", result.zeta);
}

#[test]
fn randlc_stream_feeding_makea_is_stable() {
    // Pin the matrix fingerprint so RNG/assembly regressions are caught
    // without a full CG run: class-S first row pattern and nnz.
    let a = cg::class_matrix(&CgClass::S);
    assert_eq!(a.n, 1400);
    let nnz = a.nnz();
    // The exact count is a structural fingerprint of the RNG stream.
    assert_eq!(nnz, 78_148);
    let row0 = &a.colidx[a.rowstr[0]..a.rowstr[1]];
    assert!(row0.contains(&0), "diagonal present in row 0");
    let again = cg::class_matrix(&CgClass::S);
    assert_eq!(nnz, again.nnz());
    assert_eq!(a.values[0].to_bits(), again.values[0].to_bits());
}
