//! Sparse thresholded co-occurrence matrix.
//!
//! After thresholding, the co-occurrence matrix of §2.2.2 is sparse:
//! a variable co-occurs (above threshold) only with the members of the
//! modules it was sampled into, so the post-threshold density falls
//! like `K·(n/K)²/n² = 1/K` for `K` modules. The dense [`SymMatrix`]
//! costs `n²` doubles *per rank* (~2.7 GB at A. thaliana's n = 18373),
//! which is exactly the replication §3.2.2 could afford on its data
//! sets and we cannot at north-star scale.
//!
//! [`SparseSymMatrix`] stores the **upper triangle** (`j ≥ i`) in a
//! CSR-like layout — the canonical form that checkpointing serializes
//! and the equality tests compare — plus a derived full symmetric
//! adjacency (column indices per row, values shared with the upper
//! triangle) built by a deterministic two-pass count-then-fill so that
//! matvecs and graph walks can stream whole rows in increasing column
//! order. That streaming order is what makes the sparse matvec
//! bit-identical to the dense one (see DESIGN.md §11): the dense
//! accumulator visits columns in increasing order and zero entries
//! contribute exact `+0.0` terms, which are f64 no-ops on the
//! non-negative partial sums, so skipping them preserves every
//! intermediate rounding.

use crate::symmatrix::SymMatrix;
use serde::{Content, DeError, Deserialize, Serialize, Serializer};

/// The serializable canonical form of a [`SparseSymMatrix`]: the upper
/// triangle (`j ≥ i`) in CSR layout. This is what the task-2
/// checkpoint unit persists; the full adjacency is rebuilt
/// deterministically on load.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SparseParts {
    /// Dimension `n`.
    pub n: usize,
    /// Row pointers into `col`/`val` (`n + 1` entries).
    pub row_ptr: Vec<usize>,
    /// Column indices, increasing within each row, all `≥` the row.
    pub col: Vec<u32>,
    /// Entry values (non-zero by construction).
    pub val: Vec<f64>,
}

// Hand-written: the matrix serializes as its canonical [`SparseParts`]
// (same keys, same order, so the bytes are the derive's), borrowing the
// upper triangle instead of copying it, and the derived adjacency is
// rebuilt on load.
impl Serialize for SparseSymMatrix {
    fn serialize<S: Serializer>(&self, sink: &mut S) {
        sink.begin_map(4);
        sink.entry("n", &self.n);
        sink.entry("row_ptr", &self.ut_row_ptr);
        sink.entry("col", &self.ut_col);
        sink.entry("val", &self.ut_val);
        sink.end_map();
    }
}

impl Deserialize for SparseSymMatrix {
    fn deserialize_value(value: &Content) -> Result<Self, DeError> {
        SparseParts::deserialize_value(value).map(Self::from_parts)
    }
}

/// A sparse symmetric `n × n` matrix over the thresholded
/// co-occurrence entries. Immutable once built — the sparse spectral
/// path deflates via the active mask instead of mutating the matrix
/// (behaviourally identical to the dense `clear_index`, DESIGN.md §11).
#[derive(Debug, Clone, PartialEq)]
pub struct SparseSymMatrix {
    n: usize,
    // Canonical upper triangle (j >= i), increasing j within a row.
    ut_row_ptr: Vec<usize>,
    ut_col: Vec<u32>,
    ut_val: Vec<f64>,
    // Full symmetric adjacency: row i lists every j with a stored
    // (i,j) entry, increasing j; values live in `ut_val` (shared).
    adj_row_ptr: Vec<usize>,
    adj_col: Vec<u32>,
    adj_val_ix: Vec<u32>,
}

impl SparseSymMatrix {
    /// Build from per-row upper-triangle entries: `rows[i]` holds the
    /// `(j, v)` pairs with `j ≥ i`, increasing `j`, `v != 0`.
    pub fn from_rows(n: usize, rows: &[Vec<(u32, f64)>]) -> Self {
        assert_eq!(rows.len(), n, "need one entry list per row");
        let mut ut_row_ptr = Vec::with_capacity(n + 1);
        ut_row_ptr.push(0usize);
        let nnz: usize = rows.iter().map(Vec::len).sum();
        let mut ut_col = Vec::with_capacity(nnz);
        let mut ut_val = Vec::with_capacity(nnz);
        for (i, row) in rows.iter().enumerate() {
            let mut prev: Option<u32> = None;
            for &(j, v) in row {
                assert!(j as usize >= i && (j as usize) < n, "entry ({i},{j}) not upper");
                assert!(prev.is_none_or(|p| p < j), "row {i} not strictly increasing");
                assert!(v != 0.0, "explicit zero stored at ({i},{j})");
                prev = Some(j);
                ut_col.push(j);
                ut_val.push(v);
            }
            ut_row_ptr.push(ut_col.len());
        }
        Self::from_upper(n, ut_row_ptr, ut_col, ut_val)
    }

    /// Rebuild from the canonical serialized form (checkpoint restore).
    pub fn from_parts(parts: SparseParts) -> Self {
        assert_eq!(parts.row_ptr.len(), parts.n + 1, "malformed row pointers");
        Self::from_upper(parts.n, parts.row_ptr, parts.col, parts.val)
    }

    /// Two-pass count-then-fill construction of the full adjacency
    /// from the upper triangle. Deterministic: the fill scans upper
    /// rows in increasing `i`, which leaves every adjacency row sorted
    /// by increasing column (sub-diagonal neighbours `j < i` are
    /// placed by earlier rows, in increasing `j`; the diagonal and
    /// super-diagonal follow from row `i` itself).
    fn from_upper(n: usize, ut_row_ptr: Vec<usize>, ut_col: Vec<u32>, ut_val: Vec<f64>) -> Self {
        // Pass 1: count each row's full-adjacency degree.
        let mut degree = vec![0usize; n];
        for i in 0..n {
            for &j in &ut_col[ut_row_ptr[i]..ut_row_ptr[i + 1]] {
                degree[i] += 1;
                if j as usize != i {
                    degree[j as usize] += 1;
                }
            }
        }
        let mut adj_row_ptr = Vec::with_capacity(n + 1);
        adj_row_ptr.push(0usize);
        for &d in &degree {
            adj_row_ptr.push(adj_row_ptr.last().unwrap() + d);
        }
        // Pass 2: fill, tracking a cursor per row.
        let total = *adj_row_ptr.last().unwrap();
        let mut adj_col = vec![0u32; total];
        let mut adj_val_ix = vec![0u32; total];
        let mut cursor = adj_row_ptr[..n].to_vec();
        for i in 0..n {
            for (ix, &col) in ut_col
                .iter()
                .enumerate()
                .take(ut_row_ptr[i + 1])
                .skip(ut_row_ptr[i])
            {
                let j = col as usize;
                adj_col[cursor[i]] = j as u32;
                adj_val_ix[cursor[i]] = ix as u32;
                cursor[i] += 1;
                if j != i {
                    adj_col[cursor[j]] = i as u32;
                    adj_val_ix[cursor[j]] = ix as u32;
                    cursor[j] += 1;
                }
            }
        }
        Self {
            n,
            ut_row_ptr,
            ut_col,
            ut_val,
            adj_row_ptr,
            adj_col,
            adj_val_ix,
        }
    }

    /// Build from a dense symmetric matrix, storing every non-zero
    /// upper-triangle entry. Round-trips through [`Self::to_dense`].
    pub fn from_dense(a: &SymMatrix) -> Self {
        let n = a.n();
        let mut ut_row_ptr = Vec::with_capacity(n + 1);
        ut_row_ptr.push(0usize);
        let mut ut_col = Vec::new();
        let mut ut_val = Vec::new();
        for i in 0..n {
            let row = a.row(i);
            for (j, &v) in row.iter().enumerate().skip(i) {
                if v != 0.0 {
                    ut_col.push(j as u32);
                    ut_val.push(v);
                }
            }
            ut_row_ptr.push(ut_col.len());
        }
        Self::from_upper(n, ut_row_ptr, ut_col, ut_val)
    }

    /// Expand back to dense (tests and the A/B suite).
    pub fn to_dense(&self) -> SymMatrix {
        let mut a = SymMatrix::zeros(self.n);
        for i in 0..self.n {
            for ix in self.ut_row_ptr[i]..self.ut_row_ptr[i + 1] {
                a.set(i, self.ut_col[ix] as usize, self.ut_val[ix]);
            }
        }
        a
    }

    /// Dimension.
    #[inline]
    pub fn n(&self) -> usize {
        self.n
    }

    /// Stored upper-triangle entries (the `nnz` the counters report).
    #[inline]
    pub fn nnz_upper(&self) -> usize {
        self.ut_col.len()
    }

    /// Entries of the full symmetric adjacency (matvec visits).
    #[inline]
    pub fn nnz_full(&self) -> usize {
        self.adj_col.len()
    }

    /// Number of stored entries in row `i` of the full adjacency.
    #[inline]
    pub fn row_nnz(&self, i: usize) -> usize {
        self.adj_row_ptr[i + 1] - self.adj_row_ptr[i]
    }

    /// The stored entries of row `i`, as `(column, value)` pairs in
    /// increasing column order — the traversal order the bit-identity
    /// argument requires.
    #[inline]
    pub fn row(&self, i: usize) -> impl Iterator<Item = (usize, f64)> + '_ {
        let lo = self.adj_row_ptr[i];
        let hi = self.adj_row_ptr[i + 1];
        self.adj_col[lo..hi]
            .iter()
            .zip(&self.adj_val_ix[lo..hi])
            .map(|(&j, &ix)| (j as usize, self.ut_val[ix as usize]))
    }

    /// Element accessor (binary search within the row; 0 if absent).
    pub fn get(&self, i: usize, j: usize) -> f64 {
        let lo = self.adj_row_ptr[i];
        let hi = self.adj_row_ptr[i + 1];
        match self.adj_col[lo..hi].binary_search(&(j as u32)) {
            Ok(pos) => self.ut_val[self.adj_val_ix[lo + pos] as usize],
            Err(_) => 0.0,
        }
    }

    /// Heap footprint in bytes (the peak-memory record of
    /// `BENCH_consensus.json` compares this against the dense `n²·8`).
    pub fn bytes(&self) -> usize {
        self.ut_row_ptr.len() * size_of::<usize>()
            + self.ut_col.len() * size_of::<u32>()
            + self.ut_val.len() * size_of::<f64>()
            + self.adj_row_ptr.len() * size_of::<usize>()
            + self.adj_col.len() * size_of::<u32>()
            + self.adj_val_ix.len() * size_of::<u32>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dense_fixture() -> SymMatrix {
        let mut a = SymMatrix::zeros(5);
        for &(i, j, v) in &[(0usize, 1usize, 0.75), (0, 2, 0.5), (1, 2, 1.0), (3, 4, 0.25)] {
            a.set(i, j, v);
        }
        for i in 0..5 {
            a.set(i, i, 1.0);
        }
        a
    }

    #[test]
    fn dense_roundtrip_is_exact() {
        let a = dense_fixture();
        let s = SparseSymMatrix::from_dense(&a);
        assert_eq!(s.to_dense(), a);
        assert_eq!(s.nnz_upper(), 4 + 5);
        // Full adjacency mirrors each off-diagonal entry once per side.
        assert_eq!(s.nnz_full(), 5 + 2 * 4);
    }

    #[test]
    fn get_matches_dense() {
        let a = dense_fixture();
        let s = SparseSymMatrix::from_dense(&a);
        for i in 0..5 {
            for j in 0..5 {
                assert_eq!(s.get(i, j), a.get(i, j), "({i},{j})");
            }
        }
    }

    #[test]
    fn rows_stream_in_increasing_column_order() {
        let s = SparseSymMatrix::from_dense(&dense_fixture());
        for i in 0..s.n() {
            let cols: Vec<usize> = s.row(i).map(|(j, _)| j).collect();
            let mut sorted = cols.clone();
            sorted.sort_unstable();
            sorted.dedup();
            assert_eq!(cols, sorted, "row {i} out of order");
            assert_eq!(cols.len(), s.row_nnz(i));
        }
    }

    #[test]
    fn parts_roundtrip_preserves_everything() {
        let s = SparseSymMatrix::from_dense(&dense_fixture());
        let json = serde_json::to_string(&s).unwrap();
        // The matrix serializes as exactly its canonical parts.
        let parts: SparseParts = serde_json::from_str(&json).unwrap();
        assert_eq!(serde_json::to_string(&parts).unwrap(), json);
        assert_eq!(parts.row_ptr.len(), s.n() + 1);
        assert_eq!(parts.val.len(), s.nnz_upper());
        let back: SparseSymMatrix = serde_json::from_str(&json).unwrap();
        assert_eq!(back, s);
        assert_eq!(SparseSymMatrix::from_parts(parts), s);
    }

    #[test]
    fn empty_matrix_is_representable() {
        let s = SparseSymMatrix::from_dense(&SymMatrix::zeros(3));
        assert_eq!(s.nnz_upper(), 0);
        assert_eq!(s.to_dense(), SymMatrix::zeros(3));
        assert_eq!(s.row(1).count(), 0);
    }

    #[test]
    fn bytes_beats_dense_on_sparse_input() {
        let mut a = SymMatrix::zeros(64);
        for i in 0..64 {
            a.set(i, i, 1.0);
        }
        let s = SparseSymMatrix::from_dense(&a);
        assert!(s.bytes() < 64 * 64 * 8, "sparse {} bytes", s.bytes());
    }

    #[test]
    #[should_panic(expected = "not upper")]
    fn lower_triangle_entries_rejected() {
        SparseSymMatrix::from_rows(2, &[vec![], vec![(0, 1.0)]]);
    }
}
