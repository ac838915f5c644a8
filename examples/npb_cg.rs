//! NPB CG end to end: run class S sequentially, then master–slaves over
//! both communication back ends, verifying the official zeta each time
//! (Fig. 13's experiment at example scale).
//!
//! Run: `cargo run --release --example npb_cg -- 4`

use std::sync::Arc;
use std::time::Instant;

use reo::npb::{cg, CgClass, HandWritten, ReoComm};
use reo::runtime::Mode;

fn main() {
    let n: usize = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(2);
    let class = CgClass::S;

    println!(
        "NPB CG class {} (na={}, nonzer={}, niter={}), {} slaves",
        class.name, class.na, class.nonzer, class.niter, n
    );
    let a = Arc::new(cg::class_matrix(&class));
    println!("matrix: {} rows, {} nonzeros", a.n, a.nnz());

    let t = Instant::now();
    let seq = cg::run_sequential(&class);
    println!(
        "sequential:        zeta = {:.13}  [{}]  {:.3}s",
        seq.zeta,
        verdict(seq.verified),
        t.elapsed().as_secs_f64()
    );

    let t = Instant::now();
    let par = cg::run_parallel(Arc::clone(&a), &class, HandWritten::new(n));
    println!(
        "original (chans):  zeta = {:.13}  [{}]  {:.3}s",
        par.zeta,
        verdict(par.verified),
        t.elapsed().as_secs_f64()
    );

    let comm = ReoComm::new(n, Mode::jit()).unwrap();
    let steps = comm.handle().clone();
    let t = Instant::now();
    let reo = cg::run_parallel(Arc::clone(&a), &class, comm);
    println!(
        "Reo-based (jit):   zeta = {:.13}  [{}]  {:.3}s  ({} connector steps)",
        reo.zeta,
        verdict(reo.verified),
        t.elapsed().as_secs_f64(),
        steps.steps()
    );

    assert_eq!(seq.verified, Some(true), "class S has an official zeta");
    assert_eq!(seq.zeta.to_bits(), par.zeta.to_bits());
    assert_eq!(seq.zeta.to_bits(), reo.zeta.to_bits());
    println!("ok: all three agree bit-for-bit and verify against NPB");
}

fn verdict(v: Option<bool>) -> &'static str {
    match v {
        Some(true) => "VERIFIED",
        Some(false) => "VERIFICATION FAILED",
        None => "no reference value",
    }
}
