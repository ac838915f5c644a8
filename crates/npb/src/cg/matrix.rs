//! `makea`: the NPB CG sparse-matrix generator.
//!
//! Generates the random sparse symmetric positive-definite matrix of the CG
//! benchmark: a sum of weighted outer products `Σ ωᵢ xᵢ xᵢᵀ` of sparse
//! random vectors (geometric weights from 1 down to `rcond`), plus
//! `(rcond − shift)` on the diagonal. The random choices consume the
//! `randlc` stream in exactly the reference order (`sprnvc`, `vecset`), so
//! the resulting matrix — and therefore the verified `zeta` — matches the
//! official benchmark bit-for-bit in structure and to rounding in values.
//!
//! The reference assembles rows with an intricate in-place insertion/
//! compaction scheme; accumulating per-row sorted maps yields the identical
//! matrix (same (row, col, Σ value) triples, columns sorted) with far less
//! bookkeeping.

use std::collections::BTreeMap;

use crate::randlc::Randlc;

/// Compressed sparse row matrix.
#[derive(Clone, Debug)]
pub struct Csr {
    pub n: usize,
    /// Row start offsets, length `n + 1`.
    pub rowstr: Vec<usize>,
    /// Column of each nonzero, row by row, sorted within a row.
    pub colidx: Vec<u32>,
    pub values: Vec<f64>,
}

impl Csr {
    pub fn nnz(&self) -> usize {
        self.values.len()
    }

    /// Row `row`'s columns and values.
    fn row(&self, row: usize) -> (&[u32], &[f64]) {
        let span = self.rowstr[row]..self.rowstr[row + 1];
        (&self.colidx[span.clone()], &self.values[span])
    }

    /// `y = A·x` over the full matrix.
    pub fn mul(&self, x: &[f64], y: &mut [f64]) {
        self.mul_rows(0, self.n, x, &mut y[..self.n]);
    }

    /// `y[0..hi-lo] = (A·x)[lo..hi]` — the row strip a slave owns.
    ///
    /// Each row is summed from zero in column order, one add per nonzero,
    /// so every strip split and every backend gives the same bits. The
    /// strip is walked two rows at a time: their independent sums overlap,
    /// and cutting both rows to the shorter one's length leaves only the
    /// `x[col]` bounds checks in the inner loop. The longer row's tail, and
    /// an odd strip's last row, are summed alone. On the class-S matrix,
    /// pinned to one CPU of a 2-vCPU Xeon host, a product took 72 µs one
    /// row at a time with `usize` columns, 62 µs with `u32` columns, 44 µs
    /// two rows at a time and 57–60 µs at 3, 4 or 8 rows.
    pub fn mul_rows(&self, lo: usize, hi: usize, x: &[f64], y: &mut [f64]) {
        let mut outs = y[..hi - lo].chunks_exact_mut(2);
        for (out, row) in (&mut outs).zip((lo..).step_by(2)) {
            let (cols0, vals0) = self.row(row);
            let (cols1, vals1) = self.row(row + 1);
            let len = cols0.len().min(cols1.len());
            let head0 = cols0[..len].iter().zip(&vals0[..len]);
            let head1 = cols1[..len].iter().zip(&vals1[..len]);
            let (mut sum0, mut sum1) = (0.0, 0.0);
            for ((&col0, &val0), (&col1, &val1)) in head0.zip(head1) {
                sum0 += val0 * x[col0 as usize];
                sum1 += val1 * x[col1 as usize];
            }
            out[0] = dot(sum0, &cols0[len..], &vals0[len..], x);
            out[1] = dot(sum1, &cols1[len..], &vals1[len..], x);
        }
        if let [out] = outs.into_remainder() {
            let (cols, vals) = self.row(hi - 1);
            *out = dot(0.0, cols, vals, x);
        }
    }
}

/// `sum` plus `vals · x[cols]`, added in order.
fn dot(sum: f64, cols: &[u32], vals: &[f64], x: &[f64]) -> f64 {
    cols.iter()
        .zip(vals)
        .fold(sum, |sum, (&col, &val)| sum + val * x[col as usize])
}

/// NPB `sprnvc`: a sparse random vector with `nz` distinct locations.
fn sprnvc(rng: &mut Randlc, n: usize, nz: usize, nn1: u64) -> (Vec<f64>, Vec<usize>) {
    let mut v = Vec::with_capacity(nz);
    let mut iv: Vec<usize> = Vec::with_capacity(nz);
    while v.len() < nz {
        let vecelt = rng.next_f64();
        let vecloc = rng.next_f64();
        let i = Randlc::icnvrt(vecloc, nn1) as usize + 1;
        if i > n || iv.contains(&i) {
            continue;
        }
        v.push(vecelt);
        iv.push(i);
    }
    (v, iv)
}

/// NPB `vecset`: force element `ival` to `val` (append if absent).
fn vecset(v: &mut Vec<f64>, iv: &mut Vec<usize>, ival: usize, val: f64) {
    for (k, &i) in iv.iter().enumerate() {
        if i == ival {
            v[k] = val;
            return;
        }
    }
    v.push(val);
    iv.push(ival);
}

/// NPB `makea`. `rng` must be the benchmark's `tran` stream, already
/// advanced by the one `randlc` call the main program makes before `makea`.
pub fn makea(rng: &mut Randlc, n: usize, nonzer: usize, rcond: f64, shift: f64) -> Csr {
    // Smallest power of two >= n (NPB's nn1).
    let mut nn1: u64 = 1;
    while (nn1 as usize) < n {
        nn1 *= 2;
    }

    // Outer-product generators, in reference order.
    let mut gens: Vec<(Vec<f64>, Vec<usize>)> = Vec::with_capacity(n);
    for iouter in 1..=n {
        let (mut v, mut iv) = sprnvc(rng, n, nonzer, nn1);
        vecset(&mut v, &mut iv, iouter, 0.5);
        gens.push((v, iv));
    }

    // Assemble Σ size_i · (v_i ⊗ v_i), size_i geometric from 1 to rcond,
    // plus the diagonal adjustment.
    let ratio = rcond.powf(1.0 / n as f64);
    let mut rows: Vec<BTreeMap<usize, f64>> = vec![BTreeMap::new(); n];
    let mut size = 1.0;
    for (i, (v, iv)) in gens.iter().enumerate() {
        for (kr, &row1) in iv.iter().enumerate() {
            let scale = size * v[kr];
            for (kc, &col1) in iv.iter().enumerate() {
                let (row, col) = (row1 - 1, col1 - 1);
                let mut va = v[kc] * scale;
                if col == row && row == i {
                    va += rcond - shift;
                }
                *rows[row].entry(col).or_insert(0.0) += va;
            }
        }
        size *= ratio;
    }

    let mut rowstr = Vec::with_capacity(n + 1);
    let mut colidx = Vec::new();
    let mut values = Vec::new();
    rowstr.push(0);
    for row in rows {
        for (c, val) in row {
            colidx.push(u32::try_from(c).expect("column fits in u32"));
            values.push(val);
        }
        rowstr.push(colidx.len());
    }
    Csr {
        n,
        rowstr,
        colidx,
        values,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_matrix() -> Csr {
        let mut rng = Randlc::npb_default();
        let _zeta0 = rng.next_f64(); // the main program's first call
        makea(&mut rng, 60, 4, 0.1, 5.0)
    }

    #[test]
    fn matrix_is_square_and_nonempty() {
        let a = tiny_matrix();
        assert_eq!(a.rowstr.len(), a.n + 1);
        assert!(a.nnz() > a.n, "every row has at least its diagonal");
        assert_eq!(*a.rowstr.last().unwrap(), a.nnz());
    }

    #[test]
    fn matrix_is_symmetric() {
        // Sum of symmetric outer products must be symmetric.
        let a = tiny_matrix();
        for row in 0..a.n {
            for k in a.rowstr[row]..a.rowstr[row + 1] {
                let col = a.colidx[k] as usize;
                let v = a.values[k];
                // Find (col, row).
                let mirror = (a.rowstr[col]..a.rowstr[col + 1])
                    .find(|&m| a.colidx[m] as usize == row)
                    .expect("symmetric pattern");
                assert!((a.values[mirror] - v).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn columns_sorted_within_rows() {
        let a = tiny_matrix();
        for row in 0..a.n {
            let cols = &a.colidx[a.rowstr[row]..a.rowstr[row + 1]];
            assert!(cols.windows(2).all(|w| w[0] < w[1]));
        }
    }

    #[test]
    fn diagonal_is_dominantly_positive() {
        // rcond 0.1, shift 5: diagonal entries get +0.25·ω − 4.9; the outer
        // products keep A positive definite by construction. Spot-check
        // that every diagonal entry exists.
        let a = tiny_matrix();
        for row in 0..a.n {
            assert!(
                (a.rowstr[row]..a.rowstr[row + 1]).any(|k| a.colidx[k] as usize == row),
                "row {row} lost its diagonal"
            );
        }
    }

    /// The one-row-at-a-time product `mul_rows` must equal bit for bit.
    fn oracle(a: &Csr, lo: usize, hi: usize, x: &[f64]) -> Vec<f64> {
        (lo..hi)
            .map(|row| {
                let mut sum = 0.0;
                for k in a.rowstr[row]..a.rowstr[row + 1] {
                    sum += a.values[k] * x[a.colidx[k] as usize];
                }
                sum
            })
            .collect()
    }

    /// A vector spanning seven decades, so that summing a row in another
    /// order rounds differently.
    fn spread_vector(n: usize) -> Vec<f64> {
        (0..n)
            .map(|i| (i as f64 * 0.7).sin() * 10f64.powi(i as i32 % 7 - 3))
            .collect()
    }

    fn assert_bitwise(got: &[f64], want: &[f64], what: &str) {
        assert_eq!(got.len(), want.len(), "{what}");
        for (i, (g, w)) in got.iter().zip(want).enumerate() {
            assert_eq!(g.to_bits(), w.to_bits(), "{what}, row {i}: {g} vs {w}");
        }
    }

    #[test]
    fn every_strip_matches_one_row_at_a_time() {
        let a = tiny_matrix();
        let lens: Vec<usize> = a.rowstr.windows(2).map(|w| w[1] - w[0]).collect();
        assert!(lens.iter().any(|&l| l != lens[0]), "rows of unequal length");
        let x = spread_vector(a.n);
        for lo in 0..=a.n {
            for hi in lo..=a.n {
                let mut y = vec![f64::NAN; hi - lo];
                a.mul_rows(lo, hi, &x, &mut y);
                assert_bitwise(&y, &oracle(&a, lo, hi, &x), &format!("strip {lo}..{hi}"));
            }
        }
    }

    #[test]
    fn class_s_product_matches_one_row_at_a_time() {
        let a = crate::cg::class_matrix(&crate::CgClass::S);
        let x = spread_vector(a.n);
        let mut y = vec![f64::NAN; a.n];
        a.mul(&x, &mut y);
        assert_bitwise(&y, &oracle(&a, 0, a.n, &x), "class S");
    }

    #[test]
    fn strip_multiply_matches_full() {
        let a = tiny_matrix();
        let x: Vec<f64> = (0..a.n).map(|i| (i as f64).sin()).collect();
        let mut full = vec![0.0; a.n];
        a.mul(&x, &mut full);
        let mut strip = vec![0.0; 20];
        a.mul_rows(10, 30, &x, &mut strip);
        for (i, v) in strip.iter().enumerate() {
            assert_eq!(v.to_bits(), full[10 + i].to_bits());
        }
    }
}
