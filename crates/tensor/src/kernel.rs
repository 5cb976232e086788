//! The packed, cache-tiled GEMM kernel shared by every matrix product.
//!
//! All three public products (`matmul`, `matmul_tn`, `matmul_nt`) and their
//! fused accumulate variants funnel into [`gemm`]: operands are packed into
//! tile-contiguous buffers (absorbing any transpose during the O(n²) pack
//! instead of the O(n³) compute), and an `MR × NR` register-blocked
//! micro-kernel with an explicit 8-wide inner loop does the arithmetic. The
//! compiler auto-vectorizes the fixed-size inner loops; there is no
//! platform-specific intrinsic code.
//!
//! # Determinism contract
//!
//! Every output element is produced by exactly one accumulator updated in
//! strictly ascending `k` order, at `f32` precision throughout. The result
//! is therefore bit-identical to the naive single-accumulator dot product,
//! independent of tile sizes. Every product runs on the calling thread, so
//! `KINET_THREADS` never reaches the kernel.

use std::cell::RefCell;

thread_local! {
    /// Reusable pack buffers, one pair per thread. `pack_b` and `pack_a`
    /// both run on the calling thread; routing them through a thread-local
    /// arena means repeated matmuls on a long-lived thread (a training
    /// loop, a fleet task worker) stop re-allocating pack buffers entirely.
    /// Buffers are zero-filled on every borrow, so reuse is bit-identical
    /// to a fresh `vec![0.0; len]`.
    static PACK_B_SCRATCH: RefCell<Vec<f32>> = const { RefCell::new(Vec::new()) };
    static PACK_A_SCRATCH: RefCell<Vec<f32>> = const { RefCell::new(Vec::new()) };
}

/// Borrows a thread-local scratch buffer, zero-filled to `len`, for the
/// duration of `f`. Nested borrows of the same slot would observe an empty
/// buffer (the slot is taken, not shared) — the kernel never nests.
fn with_scratch<R>(
    slot: &'static std::thread::LocalKey<RefCell<Vec<f32>>>,
    len: usize,
    f: impl FnOnce(&mut Vec<f32>) -> R,
) -> R {
    slot.with(|cell| {
        let mut buf = cell.take();
        buf.clear();
        buf.resize(len, 0.0);
        let out = f(&mut buf);
        cell.replace(buf);
        out
    })
}

/// Rows of the micro-kernel register block. With `NR = 8` the accumulator
/// tile is eight 8-wide rows — on AVX2 (see `.cargo/config.toml`) that is
/// 8 of the 16 YMM registers, leaving room for the packed operand loads.
pub(crate) const MR: usize = 8;

/// Columns of the micro-kernel register block: the explicit 8-wide inner
/// loop the compiler turns into vector FMAs/mul-adds.
pub(crate) const NR: usize = 8;

/// Below this many multiply-adds the packed path's setup costs more than it
/// saves; a plain ascending-`k` dot-product loop (same summation order, so
/// bit-identical results) handles tiny products.
const SMALL_FLOP_CUTOFF: usize = 16 * 1024;

/// Whether an operand is used as stored or logically transposed.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub(crate) enum Trans {
    /// Use the operand as stored.
    No,
    /// Use the operand's transpose.
    Yes,
}

/// Computes `out = op(a) · op(b)` (or `out += …` when `accumulate` is set).
///
/// `out` is the row-major `n × m` destination; the shared dimension is `k`.
/// `a` is stored `n × k` when `ta == Trans::No`, else `k × n`; `b` is
/// stored `k × m` when `tb == Trans::No`, else `m × k`. Shape checks are
/// the caller's job (the `Matrix` wrappers assert before calling).
#[allow(clippy::too_many_arguments)]
pub(crate) fn gemm(
    out: &mut [f32],
    n: usize,
    m: usize,
    k: usize,
    a: &[f32],
    ta: Trans,
    b: &[f32],
    tb: Trans,
    accumulate: bool,
) {
    debug_assert_eq!(out.len(), n * m);
    debug_assert_eq!(a.len(), n * k);
    debug_assert_eq!(b.len(), k * m);
    if n == 0 || m == 0 {
        return;
    }
    if k == 0 {
        if !accumulate {
            out.fill(0.0);
        }
        return;
    }
    if n * m * k < SMALL_FLOP_CUTOFF {
        gemm_small(out, n, m, k, a, ta, b, tb, accumulate);
        return;
    }

    // Pack all of B once: NR-wide column panels, k-major inside each panel.
    // The buffer comes from the calling thread's scratch arena so repeated
    // products skip the allocation.
    with_scratch(&PACK_B_SCRATCH, m.div_ceil(NR) * k * NR, |packed_b| {
        pack_b(packed_b, b, k, m, tb);
        gemm_rows(out, m, k, a, ta, packed_b, accumulate);
    });
}

/// Computes every row of the product into `out` from the packed `B`, one
/// `MR`-row panel of `A` at a time.
#[allow(clippy::too_many_arguments)]
fn gemm_rows(
    out: &mut [f32],
    m: usize,
    k: usize,
    a: &[f32],
    ta: Trans,
    packed_b: &[f32],
    accumulate: bool,
) {
    let rows = out.len() / m;
    let n_panels = m.div_ceil(NR);
    // Scratch for one MR-row packed panel of A, reused across the rows (and
    // across calls on long-lived threads via the arena).
    with_scratch(&PACK_A_SCRATCH, k * MR, |packed_a| {
        let mut i = 0;
        while i < rows {
            let mr = MR.min(rows - i);
            pack_a_panel(packed_a, a, ta, i, mr, k);
            for pj in 0..n_panels {
                let j0 = pj * NR;
                let nr = NR.min(m - j0);
                let b_panel = &packed_b[pj * k * NR..(pj + 1) * k * NR];
                let acc = microkernel(packed_a, b_panel);
                for (r, acc_row) in acc.iter().enumerate().take(mr) {
                    let orow = &mut out[(i + r) * m + j0..(i + r) * m + j0 + nr];
                    if accumulate {
                        for (o, &v) in orow.iter_mut().zip(acc_row) {
                            *o += v;
                        }
                    } else {
                        orow.copy_from_slice(&acc_row[..nr]);
                    }
                }
            }
            i += mr;
        }
    });
}

/// The register-blocked inner loop: `acc[r][c] += a[p][r] * b[p][c]` over
/// the full packed depth. The accumulator tile is a by-value local and the
/// operands are fixed-size array views, so the compiler keeps the tile in
/// registers and vectorizes the explicit 8-wide loop.
#[inline(always)]
fn microkernel(packed_a: &[f32], packed_b: &[f32]) -> [[f32; NR]; MR] {
    let mut acc = [[0.0f32; NR]; MR];
    for (ap, bp) in packed_a.chunks_exact(MR).zip(packed_b.chunks_exact(NR)) {
        let ap: &[f32; MR] = ap.try_into().expect("MR-sized chunk");
        let bp: &[f32; NR] = bp.try_into().expect("NR-sized chunk");
        for r in 0..MR {
            let av = ap[r];
            for c in 0..NR {
                acc[r][c] += av * bp[c];
            }
        }
    }
    acc
}

/// Packs `mr` rows of `op(A)` starting at logical row `i0` into `dst`:
/// k-major, `MR` interleaved (`dst[p * MR + r] = opA[i0 + r][p]`), rows
/// beyond `mr` zero-padded so the micro-kernel needs no edge cases.
fn pack_a_panel(dst: &mut [f32], a: &[f32], ta: Trans, i0: usize, mr: usize, k: usize) {
    if mr < MR {
        dst.fill(0.0);
    }
    match ta {
        Trans::No => {
            // A stored n × k: row i0+r is contiguous.
            for r in 0..mr {
                let arow = &a[(i0 + r) * k..(i0 + r + 1) * k];
                for (p, &v) in arow.iter().enumerate() {
                    dst[p * MR + r] = v;
                }
            }
        }
        Trans::Yes => {
            // A stored k × n: logical row i0+r is column i0+r of storage.
            let n = a.len() / k;
            for (p, dchunk) in dst.chunks_exact_mut(MR).enumerate().take(k) {
                let srow = &a[p * n + i0..p * n + i0 + mr];
                dchunk[..mr].copy_from_slice(srow);
            }
        }
    }
}

/// Packs all of `op(B)` (logical `k × m`) into NR-wide column panels:
/// `packed[panel * k * NR + p * NR + c] = opB[p][panel * NR + c]`, with the
/// last panel zero-padded to `NR` columns. `packed` must arrive zero-filled
/// at `m.div_ceil(NR) * k * NR` elements (the scratch arena guarantees it).
fn pack_b(packed: &mut [f32], b: &[f32], k: usize, m: usize, tb: Trans) {
    debug_assert_eq!(packed.len(), m.div_ceil(NR) * k * NR);
    match tb {
        Trans::No => {
            // B stored k × m: row p contiguous; copy NR-wide slivers.
            for (pj, panel) in packed.chunks_exact_mut(k * NR).enumerate() {
                let j0 = pj * NR;
                let nr = NR.min(m - j0);
                for (p, dchunk) in panel.chunks_exact_mut(NR).enumerate() {
                    dchunk[..nr].copy_from_slice(&b[p * m + j0..p * m + j0 + nr]);
                }
            }
        }
        Trans::Yes => {
            // B stored m × k: logical column j is storage row j, contiguous.
            for (pj, panel) in packed.chunks_exact_mut(k * NR).enumerate() {
                let j0 = pj * NR;
                let nr = NR.min(m - j0);
                for c in 0..nr {
                    let srow = &b[(j0 + c) * k..(j0 + c + 1) * k];
                    for (p, &v) in srow.iter().enumerate() {
                        panel[p * NR + c] = v;
                    }
                }
            }
        }
    }
}

/// Output elements the unpacked row and column loops accumulate at once,
/// in a stack tile: wide enough for the loops to vectorize.
const SMALL_TILE: usize = 64;

/// Unpacked path for tiny products: one accumulator per output element,
/// starting at `0.0` and running in ascending `k` — the same summation
/// order as the packed path, so the two are bit-identical. The loop is
/// picked from the shape so that independent accumulators sit side by
/// side and the adds vectorize or overlap:
///
/// - a one-column output (`m = 1`: a one-logit layer's forward and its
///   weight gradient) takes [`gemm_small_col`];
/// - when every row of `op(B)` is contiguous (`B` untransposed, or
///   `k = 1`) and the output is at least two vectors wide, a tile of an
///   output row accumulates `a[i][p] · B[p][..]` across `p` — this covers
///   the batch-by-64 outer product (`k = 1`) that is a one-logit layer's
///   input gradient, and short batches through untransposed weights;
/// - otherwise each element runs its own dot product.
#[allow(clippy::too_many_arguments)]
fn gemm_small(
    out: &mut [f32],
    n: usize,
    m: usize,
    k: usize,
    a: &[f32],
    ta: Trans,
    b: &[f32],
    tb: Trans,
    accumulate: bool,
) {
    if m == 1 {
        gemm_small_col(out, n, k, a, ta, b, accumulate);
    } else if m >= 2 * NR && (tb == Trans::No || k == 1) {
        gemm_small_rows(out, n, m, k, a, ta, b, accumulate);
    } else {
        gemm_small_dots(out, n, m, k, a, ta, b, tb, accumulate);
    }
}

/// Writes or adds a finished accumulator tile into `dst`.
fn store_tile(dst: &mut [f32], acc: &[f32], accumulate: bool) {
    if accumulate {
        for (o, &v) in dst.iter_mut().zip(acc) {
            *o += v;
        }
    } else {
        dst.copy_from_slice(acc);
    }
}

/// [`gemm_small`] when row `p` of `op(B)` is the `p`-th `m` elements of
/// `b`: `B` untransposed, or `k = 1`.
#[allow(clippy::too_many_arguments)]
fn gemm_small_rows(
    out: &mut [f32],
    n: usize,
    m: usize,
    k: usize,
    a: &[f32],
    ta: Trans,
    b: &[f32],
    accumulate: bool,
) {
    for (i, orow) in out.chunks_exact_mut(m).enumerate() {
        // Row i of op(A), as `(start, stride)` into `a`.
        let (start, stride) = match ta {
            Trans::No => (i * k, 1),
            Trans::Yes => (i, n),
        };
        for (t, otile) in orow.chunks_mut(SMALL_TILE).enumerate() {
            let mut tile = [0.0f32; SMALL_TILE];
            let (acc, _) = tile.split_at_mut(otile.len());
            let a_row = a.iter().skip(start).step_by(stride);
            for (brow, &av) in b.chunks_exact(m).zip(a_row) {
                for (s, &bv) in acc.iter_mut().zip(brow.iter().skip(t * SMALL_TILE)) {
                    *s += av * bv;
                }
            }
            store_tile(otile, acc, accumulate);
        }
    }
}

/// [`gemm_small`] for a one-column output; `b`'s one column is contiguous
/// in either layout.
fn gemm_small_col(
    out: &mut [f32],
    n: usize,
    k: usize,
    a: &[f32],
    ta: Trans,
    b: &[f32],
    accumulate: bool,
) {
    match ta {
        // Column i of op(A) runs down the contiguous rows of `a`: a tile
        // of the output accumulates `A[p][..] · b[p]` across `p`.
        Trans::Yes => {
            for (t, otile) in out.chunks_mut(SMALL_TILE).enumerate() {
                let mut tile = [0.0f32; SMALL_TILE];
                let (acc, _) = tile.split_at_mut(otile.len());
                for (arow, &bv) in a.chunks_exact(n).zip(b) {
                    for (s, &av) in acc.iter_mut().zip(arow.iter().skip(t * SMALL_TILE)) {
                        *s += av * bv;
                    }
                }
                store_tile(otile, acc, accumulate);
            }
        }
        // Row i of op(A) is contiguous: `MR` rows' dot products run
        // interleaved, so their adds overlap instead of each waiting on
        // the one before.
        Trans::No => {
            for (oblock, ablock) in out.chunks_mut(MR).zip(a.chunks(MR * k)) {
                let mut rows = ablock.chunks_exact(k).map(<[f32]>::iter);
                let mut rows: [std::slice::Iter<'_, f32>; MR] =
                    std::array::from_fn(|_| rows.next().unwrap_or_default());
                let mut acc = [0.0f32; MR];
                for &bv in b {
                    for (s, row) in acc.iter_mut().zip(&mut rows) {
                        if let Some(&av) = row.next() {
                            *s += av * bv;
                        }
                    }
                }
                store_tile(oblock, acc.split_at(oblock.len()).0, accumulate);
            }
        }
    }
}

/// [`gemm_small`]'s per-element dot products.
#[allow(clippy::too_many_arguments)]
fn gemm_small_dots(
    out: &mut [f32],
    n: usize,
    m: usize,
    k: usize,
    a: &[f32],
    ta: Trans,
    b: &[f32],
    tb: Trans,
    accumulate: bool,
) {
    for i in 0..n {
        for j in 0..m {
            let mut acc = 0.0f32;
            match (ta, tb) {
                (Trans::No, Trans::No) => {
                    let arow = &a[i * k..(i + 1) * k];
                    for (p, &av) in arow.iter().enumerate() {
                        acc += av * b[p * m + j];
                    }
                }
                (Trans::No, Trans::Yes) => {
                    let arow = &a[i * k..(i + 1) * k];
                    let brow = &b[j * k..(j + 1) * k];
                    for (&av, &bv) in arow.iter().zip(brow) {
                        acc += av * bv;
                    }
                }
                (Trans::Yes, Trans::No) => {
                    for p in 0..k {
                        acc += a[p * n + i] * b[p * m + j];
                    }
                }
                (Trans::Yes, Trans::Yes) => {
                    let brow = &b[j * k..(j + 1) * k];
                    for (p, &bv) in brow.iter().enumerate() {
                        acc += a[p * n + i] * bv;
                    }
                }
            }
            if accumulate {
                out[i * m + j] += acc;
            } else {
                out[i * m + j] = acc;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn naive(n: usize, m: usize, k: usize, a: &[f32], ta: Trans, b: &[f32], tb: Trans) -> Vec<f32> {
        let av = |i: usize, p: usize| match ta {
            Trans::No => a[i * k + p],
            Trans::Yes => a[p * n + i],
        };
        let bv = |p: usize, j: usize| match tb {
            Trans::No => b[p * m + j],
            Trans::Yes => b[j * k + p],
        };
        let mut out = vec![0.0f32; n * m];
        for i in 0..n {
            for j in 0..m {
                let mut acc = 0.0;
                for p in 0..k {
                    acc += av(i, p) * bv(p, j);
                }
                out[i * m + j] = acc;
            }
        }
        out
    }

    /// `(n, m, k)` shapes the bit-identity tests run over.
    const SHAPES: &[(usize, usize, usize)] = &[
        (1, 1, 1),
        (3, 5, 7),
        (4, 8, 16),
        (5, 9, 3),
        (17, 23, 31),
        (33, 40, 64),
        (37, 29, 41),
        (64, 64, 64),
        (32, 64, 1),
        (130, 70, 1),
        (32, 1, 64),
        (64, 1, 32),
        (130, 1, 9),
        (1, 64, 49),
        (1, 130, 20),
        (1, 1, 64),
        (3, 64, 49),
    ];

    fn fill(len: usize, seed: u32) -> Vec<f32> {
        // Cheap deterministic pseudo-random values with varied magnitudes.
        let mut state = seed.wrapping_mul(2654435761).wrapping_add(1);
        (0..len)
            .map(|_| {
                state = state.wrapping_mul(1664525).wrapping_add(1013904223);
                ((state >> 8) as f32 / (1 << 24) as f32) - 0.5
            })
            .collect()
    }

    #[test]
    fn packed_path_is_bit_identical_to_naive_for_all_layouts() {
        // Shapes straddle the MR/NR edges and the small-product cutoff, and
        // cover each unpacked loop: k = 1 and n = 1 (row tiles, one past
        // the tile width), m = 1 (column tiles and dot products).
        for &(n, m, k) in SHAPES {
            for &ta in &[Trans::No, Trans::Yes] {
                for &tb in &[Trans::No, Trans::Yes] {
                    let a = fill(n * k, (n * 31 + k) as u32);
                    let b = fill(k * m, (k * 17 + m) as u32);
                    let expected = naive(n, m, k, &a, ta, &b, tb);
                    let mut out = vec![0.0f32; n * m];
                    gemm(&mut out, n, m, k, &a, ta, &b, tb, false);
                    assert_eq!(out, expected, "n={n} m={m} k={k} {ta:?} {tb:?}");
                }
            }
        }
    }

    #[test]
    fn accumulate_adds_onto_existing_output() {
        for &(n, m, k) in [(6, 10, 12)].iter().chain(SHAPES) {
            for &ta in &[Trans::No, Trans::Yes] {
                for &tb in &[Trans::No, Trans::Yes] {
                    let a = fill(n * k, 3);
                    let b = fill(k * m, 4);
                    let base = fill(n * m, 5);
                    let product = naive(n, m, k, &a, ta, &b, tb);
                    let mut out = base.clone();
                    gemm(&mut out, n, m, k, &a, ta, &b, tb, true);
                    for ((&got, &c0), &p) in out.iter().zip(&base).zip(&product) {
                        assert_eq!(got, c0 + p, "n={n} m={m} k={k} {ta:?} {tb:?}");
                    }
                }
            }
        }
    }

    #[test]
    fn zero_k_clears_or_preserves() {
        let mut out = vec![1.0f32; 4];
        gemm(&mut out, 2, 2, 0, &[], Trans::No, &[], Trans::No, false);
        assert_eq!(out, vec![0.0; 4]);
        let mut out = vec![1.0f32; 4];
        gemm(&mut out, 2, 2, 0, &[], Trans::No, &[], Trans::No, true);
        assert_eq!(out, vec![1.0; 4]);
    }

    #[test]
    fn scratch_reuse_across_shapes_is_bit_identical() {
        // Exercise the pack arena: a large product, a differently-shaped
        // smaller one, then the first again — every call must match the
        // naive reference exactly, including the calls that reuse (and
        // re-zero) a previously grown scratch buffer.
        for &(n, m, k) in &[(40, 36, 64), (17, 9, 80), (40, 36, 64), (33, 70, 33)] {
            let a = fill(n * k, (n + k) as u32);
            let b = fill(k * m, (m * 3 + k) as u32);
            let expected = naive(n, m, k, &a, Trans::No, &b, Trans::Yes);
            let mut out = vec![0.0f32; n * m];
            gemm(&mut out, n, m, k, &a, Trans::No, &b, Trans::Yes, false);
            assert_eq!(out, expected, "n={n} m={m} k={k}");
        }
    }
}
