//! A dense square bit matrix used for transitive closures.

/// A square matrix of bits packed into `u64` words, row-major.
///
/// Used by [`crate::TransitiveClosure`] to store the reachability relation of
/// a DDG. For the region sizes the paper reports (up to ~2,200 instructions)
/// a dense bitset closure is both compact (~600 KiB worst case) and fast.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BitMatrix {
    n: usize,
    words_per_row: usize,
    bits: Vec<u64>,
}

impl BitMatrix {
    /// Creates an `n`×`n` matrix of zeros.
    pub fn new(n: usize) -> BitMatrix {
        let words_per_row = n.div_ceil(64);
        BitMatrix {
            n,
            words_per_row,
            bits: vec![0; words_per_row * n],
        }
    }

    /// Side length of the matrix.
    pub fn len(&self) -> usize {
        self.n
    }

    /// Whether the matrix is zero-sized.
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// Sets bit `(row, col)`.
    ///
    /// # Panics
    ///
    /// Panics if `row` or `col` is out of bounds.
    #[inline]
    pub fn set(&mut self, row: usize, col: usize) {
        assert!(
            row < self.n && col < self.n,
            "bit ({row},{col}) out of bounds for {}",
            self.n
        );
        self.bits[row * self.words_per_row + col / 64] |= 1u64 << (col % 64);
    }

    /// Reads bit `(row, col)`.
    ///
    /// # Panics
    ///
    /// Panics if `row` or `col` is out of bounds.
    #[inline]
    pub fn get(&self, row: usize, col: usize) -> bool {
        assert!(
            row < self.n && col < self.n,
            "bit ({row},{col}) out of bounds for {}",
            self.n
        );
        self.bits[row * self.words_per_row + col / 64] & (1u64 << (col % 64)) != 0
    }

    /// ORs row `src` into row `dst` (`dst |= src`), the kernel of the
    /// closure computation.
    ///
    /// # Panics
    ///
    /// Panics if either row is out of bounds.
    pub fn or_row_into(&mut self, src: usize, dst: usize) {
        assert!(src < self.n && dst < self.n);
        if src == dst {
            return;
        }
        let w = self.words_per_row;
        let (s, d) = (src * w, dst * w);
        // Split borrows: rows never overlap because src != dst.
        if s < d {
            let (a, b) = self.bits.split_at_mut(d);
            for i in 0..w {
                b[i] |= a[s + i];
            }
        } else {
            let (a, b) = self.bits.split_at_mut(s);
            for i in 0..w {
                a[d + i] |= b[i];
            }
        }
    }

    /// The packed words of `row` (bit `c` of the row is bit `c % 64` of
    /// word `c / 64`), for callers that combine whole rows word-parallel.
    ///
    /// # Panics
    ///
    /// Panics if `row` is out of bounds.
    #[inline]
    pub fn row(&self, row: usize) -> &[u64] {
        assert!(row < self.n);
        let w = self.words_per_row;
        &self.bits[row * w..(row + 1) * w]
    }

    /// Number of set bits in `row`.
    pub fn count_row(&self, row: usize) -> usize {
        self.row(row).iter().map(|x| x.count_ones() as usize).sum()
    }

    /// Adds one to `counts[col]` for every set bit `(row, col)` in the
    /// matrix — a column population count done with one word-level sweep
    /// over the backing store (popcount-style bit iteration) instead of
    /// `n` single-bit column probes per column.
    ///
    /// # Panics
    ///
    /// Panics if `counts` is shorter than the side length.
    pub fn accumulate_column_counts(&self, counts: &mut [u32]) {
        assert!(counts.len() >= self.n, "counts slice shorter than matrix");
        for row in 0..self.n {
            count_set_bits_into(self.row(row), counts);
        }
    }

    /// Iterates over the column indices of set bits in `row`.
    pub fn iter_row(&self, row: usize) -> impl Iterator<Item = usize> + '_ {
        assert!(row < self.n);
        let w = self.words_per_row;
        let words = &self.bits[row * w..(row + 1) * w];
        words.iter().enumerate().flat_map(|(wi, &word)| {
            let mut bits = word;
            std::iter::from_fn(move || {
                if bits == 0 {
                    None
                } else {
                    let tz = bits.trailing_zeros() as usize;
                    bits &= bits - 1;
                    Some(wi * 64 + tz)
                }
            })
        })
    }
}

/// Adds one to `counts[b]` for every set bit `b` of a packed bitset (bit
/// `b` is bit `b % 64` of word `b / 64`, as in [`BitMatrix::row`]).
///
/// # Panics
///
/// Panics if a set bit lies beyond `counts`.
pub fn count_set_bits_into(words: &[u64], counts: &mut [u32]) {
    for (wi, &word) in words.iter().enumerate() {
        let mut bits = word;
        while bits != 0 {
            counts[wi * 64 + bits.trailing_zeros() as usize] += 1;
            bits &= bits - 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn starts_all_zero() {
        let m = BitMatrix::new(70);
        for r in 0..70 {
            for c in 0..70 {
                assert!(!m.get(r, c));
            }
        }
    }

    #[test]
    fn set_and_get_across_word_boundary() {
        let mut m = BitMatrix::new(130);
        m.set(1, 63);
        m.set(1, 64);
        m.set(1, 129);
        assert!(m.get(1, 63));
        assert!(m.get(1, 64));
        assert!(m.get(1, 129));
        assert!(!m.get(1, 65));
        assert_eq!(m.count_row(1), 3);
        assert_eq!(m.count_row(0), 0);
        assert_eq!(m.row(1), &[1 << 63, 1, 2]);
    }

    #[test]
    fn or_row_into_merges_rows_both_directions() {
        let mut m = BitMatrix::new(10);
        m.set(2, 1);
        m.set(5, 7);
        m.or_row_into(2, 5); // forward (src < dst)
        assert!(m.get(5, 1) && m.get(5, 7));
        m.or_row_into(5, 0); // backward (src > dst)
        assert!(m.get(0, 1) && m.get(0, 7));
        // src row unchanged
        assert!(m.get(2, 1) && !m.get(2, 7));
    }

    #[test]
    fn or_row_into_self_is_noop() {
        let mut m = BitMatrix::new(4);
        m.set(1, 2);
        m.or_row_into(1, 1);
        assert!(m.get(1, 2));
        assert_eq!(m.count_row(1), 1);
    }

    #[test]
    fn iter_row_yields_sorted_set_bits() {
        let mut m = BitMatrix::new(200);
        for &c in &[0usize, 5, 63, 64, 100, 199] {
            m.set(3, c);
        }
        let got: Vec<usize> = m.iter_row(3).collect();
        assert_eq!(got, vec![0, 5, 63, 64, 100, 199]);
    }

    #[test]
    fn column_counts_match_per_column_probes() {
        let mut m = BitMatrix::new(130);
        for &(r, c) in &[
            (0usize, 0usize),
            (1, 0),
            (5, 63),
            (5, 64),
            (7, 129),
            (9, 64),
        ] {
            m.set(r, c);
        }
        let mut counts = vec![0u32; 130];
        m.accumulate_column_counts(&mut counts);
        for (c, &count) in counts.iter().enumerate() {
            let brute = (0..130).filter(|&r| m.get(r, c)).count() as u32;
            assert_eq!(count, brute, "column {c}");
        }
        assert_eq!(counts[0], 2);
        assert_eq!(counts[64], 2);
    }

    #[test]
    #[should_panic]
    fn out_of_bounds_get_panics() {
        let m = BitMatrix::new(4);
        m.get(4, 0);
    }

    #[test]
    fn empty_matrix() {
        let m = BitMatrix::new(0);
        assert!(m.is_empty());
        assert_eq!(m.len(), 0);
    }
}
