//! A small growable bitset used for reachability and liveness sets.
//!
//! The covering engine manipulates many node sets of a few dozen elements;
//! a `Vec<u64>`-backed set is both faster and more predictable than hash
//! sets and keeps iteration order deterministic (ascending index).

use std::fmt;

/// Fixed-capacity bitset over `usize` indices.
#[derive(PartialEq, Eq, Hash, Default)]
pub struct BitSet {
    words: Vec<u64>,
    /// Number of valid indices (bits above this are always zero).
    len: usize,
}

/// `clone_from` reuses the destination's words, so a scratch set that is
/// re-seeded from another set every step allocates only when it grows.
impl Clone for BitSet {
    fn clone(&self) -> Self {
        BitSet {
            words: self.words.clone(),
            len: self.len,
        }
    }

    fn clone_from(&mut self, source: &Self) {
        self.words.clone_from(&source.words);
        self.len = source.len;
    }
}

impl BitSet {
    /// Create a set able to hold indices `0..len`, all clear.
    pub fn new(len: usize) -> Self {
        BitSet {
            words: vec![0; len.div_ceil(64)],
            len,
        }
    }

    /// Create a set holding every index in `0..len`.
    pub fn full(len: usize) -> Self {
        let mut s = BitSet::new(len);
        for w in &mut s.words {
            *w = u64::MAX;
        }
        if !len.is_multiple_of(64) {
            if let Some(last) = s.words.last_mut() {
                *last &= (1u64 << (len % 64)) - 1;
            }
        }
        s
    }

    /// Capacity in indices.
    pub fn capacity(&self) -> usize {
        self.len
    }

    /// Set bit `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= capacity`.
    pub fn insert(&mut self, i: usize) {
        assert!(i < self.len, "bit {i} out of range {}", self.len);
        self.words[i / 64] |= 1 << (i % 64);
    }

    /// Clear bit `i`.
    pub fn remove(&mut self, i: usize) {
        assert!(i < self.len, "bit {i} out of range {}", self.len);
        self.words[i / 64] &= !(1 << (i % 64));
    }

    /// Test bit `i`.
    pub fn contains(&self, i: usize) -> bool {
        i < self.len && self.words[i / 64] & (1 << (i % 64)) != 0
    }

    /// Number of set bits.
    pub fn count(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// True when no bit is set.
    pub fn is_empty(&self) -> bool {
        self.words.iter().all(|&w| w == 0)
    }

    /// Clear all bits.
    pub fn clear(&mut self) {
        self.words.iter_mut().for_each(|w| *w = 0);
    }

    /// Make this an all-clear set of capacity `len` in place, reusing
    /// the allocation: equal to `BitSet::new(len)`.
    pub fn reset(&mut self, len: usize) {
        self.words.clear();
        self.words.resize(len.div_ceil(64), 0);
        self.len = len;
    }

    /// `self |= other`.
    ///
    /// # Panics
    ///
    /// Panics if capacities differ.
    pub fn union_with(&mut self, other: &BitSet) {
        assert_eq!(self.len, other.len, "bitset capacity mismatch");
        for (a, b) in self.words.iter_mut().zip(&other.words) {
            *a |= b;
        }
    }

    /// `self &= other`.
    pub fn intersect_with(&mut self, other: &BitSet) {
        assert_eq!(self.len, other.len, "bitset capacity mismatch");
        for (a, b) in self.words.iter_mut().zip(&other.words) {
            *a &= b;
        }
    }

    /// `self &= !other`.
    pub fn subtract(&mut self, other: &BitSet) {
        assert_eq!(self.len, other.len, "bitset capacity mismatch");
        for (a, b) in self.words.iter_mut().zip(&other.words) {
            *a &= !b;
        }
    }

    /// True if `self` and `other` share any set bit.
    pub fn intersects(&self, other: &BitSet) -> bool {
        self.words.iter().zip(&other.words).any(|(a, b)| a & b != 0)
    }

    /// True if every set bit of `self` is also set in `other`.
    pub fn is_subset(&self, other: &BitSet) -> bool {
        self.words
            .iter()
            .zip(&other.words)
            .all(|(a, b)| a & !b == 0)
    }

    /// Iterate over set indices in ascending order.
    pub fn iter(&self) -> Iter<'_> {
        Iter::new(&self.words)
    }

    /// The backing words (low bit of word 0 is index 0). Two sets of the
    /// same capacity hold the same indices exactly when their words are
    /// equal, so the slice serves as a hash key for the set.
    pub fn words(&self) -> &[u64] {
        &self.words
    }

    /// Overwrite the contents with `words`, taken from
    /// [`words`](BitSet::words) of a set of the same capacity.
    ///
    /// # Panics
    ///
    /// Panics if the word counts differ.
    pub fn set_words(&mut self, words: &[u64]) {
        self.words.copy_from_slice(words);
    }

    /// Grow capacity to at least `len` indices, preserving contents.
    pub fn grow(&mut self, len: usize) {
        if len > self.len {
            self.len = len;
            self.words.resize(len.div_ceil(64), 0);
        }
    }
}

/// Lexicographic order over the *ascending element sequences* of two
/// sets: `{0, 5} < {0, 9}` and `{0} < {0, 5}` (a proper prefix sorts
/// first), exactly the order `a.iter().collect::<Vec<_>>()` would give —
/// but computed word-at-a-time without allocating (see [`cmp_words`]).
/// Ties on content are broken by capacity so the order stays consistent
/// with the derived `Eq` (which compares the backing words *and* the
/// length).
impl Ord for BitSet {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        cmp_words(&self.words, &other.words).then(self.len.cmp(&other.len))
    }
}

/// The order of [`BitSet`]'s `Ord` on raw set words: lexicographic over
/// the ascending element sequences of the two masks, `Equal` only when
/// they hold the same elements. A shorter slice reads as zero-padded.
pub fn cmp_words(a: &[u64], b: &[u64]) -> std::cmp::Ordering {
    use std::cmp::Ordering;
    let n = a.len().max(b.len());
    for i in 0..n {
        let x = a.get(i).copied().unwrap_or(0);
        let y = b.get(i).copied().unwrap_or(0);
        if x == y {
            continue;
        }
        // The lowest differing bit `d` belongs to exactly one set; call
        // it X. X's element sequence matches the other's up to `d`, then
        // X has `d` where the other has its next element (> d) or
        // nothing. So X sorts first iff the other set has any element
        // above `d`; otherwise the other set is a proper prefix of X and
        // sorts first.
        let low = (x ^ y) & (x ^ y).wrapping_neg();
        let above = !(low | (low - 1));
        let (holder_is_a, rest_word, rest_tail) = if x & low != 0 {
            (true, y, b)
        } else {
            (false, x, a)
        };
        let rest_has_more = rest_word & above != 0
            || rest_tail
                .get(i + 1..)
                .is_some_and(|tail| tail.iter().any(|&w| w != 0));
        return match (holder_is_a, rest_has_more) {
            (true, true) | (false, false) => Ordering::Less,
            (true, false) | (false, true) => Ordering::Greater,
        };
    }
    Ordering::Equal
}

impl PartialOrd for BitSet {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

/// Iterator over set bit indices; see [`BitSet::iter`].
#[derive(Clone)]
pub struct Iter<'a> {
    words: &'a [u64],
    word_idx: usize,
    current: u64,
}

impl<'a> Iter<'a> {
    /// Iterate over the set bits of `words` in ascending order (low bit
    /// of word 0 is index 0), e.g. a [`BitMatrix`] row or a mask kept
    /// outside a [`BitSet`].
    pub fn new(words: &'a [u64]) -> Self {
        Iter {
            words,
            word_idx: 0,
            current: words.first().copied().unwrap_or(0),
        }
    }
}

impl Iterator for Iter<'_> {
    type Item = usize;

    fn next(&mut self) -> Option<usize> {
        loop {
            if self.current != 0 {
                let bit = self.current.trailing_zeros() as usize;
                self.current &= self.current - 1;
                return Some(self.word_idx * 64 + bit);
            }
            self.word_idx += 1;
            self.current = *self.words.get(self.word_idx)?;
        }
    }
}

impl FromIterator<usize> for BitSet {
    fn from_iter<I: IntoIterator<Item = usize>>(iter: I) -> Self {
        let items: Vec<usize> = iter.into_iter().collect();
        let cap = items.iter().max().map_or(0, |&m| m + 1);
        let mut s = BitSet::new(cap);
        for i in items {
            s.insert(i);
        }
        s
    }
}

impl Extend<usize> for BitSet {
    fn extend<I: IntoIterator<Item = usize>>(&mut self, iter: I) {
        for i in iter {
            if i >= self.len {
                self.grow(i + 1);
            }
            self.insert(i);
        }
    }
}

impl fmt::Debug for BitSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_set().entries(self.iter()).finish()
    }
}

/// A dense boolean matrix packed as bitset rows in one allocation.
///
/// The covering engine's pairwise relations — conflict matrices, DAG
/// reachability — are square boolean tables probed millions of times per
/// block. One `Vec<u64>` with a fixed row stride keeps every row cache-
/// adjacent and lets row-level operations (intersection, union, overlap
/// tests) run word-at-a-time instead of bit-at-a-time.
#[derive(Clone, Default, PartialEq, Eq)]
pub struct BitMatrix {
    words: Vec<u64>,
    /// Words per row.
    stride: usize,
    rows: usize,
    cols: usize,
}

impl BitMatrix {
    /// An all-zero `rows` × `cols` matrix.
    pub fn new(rows: usize, cols: usize) -> Self {
        let stride = cols.div_ceil(64);
        BitMatrix {
            words: vec![0; rows * stride],
            stride,
            rows,
            cols,
        }
    }

    /// Make this an all-zero `rows` × `cols` matrix in place, reusing
    /// the allocation.
    pub fn reset(&mut self, rows: usize, cols: usize) {
        self.stride = cols.div_ceil(64);
        self.rows = rows;
        self.cols = cols;
        self.words.clear();
        self.words.resize(rows * self.stride, 0);
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Set bit `(r, c)`.
    ///
    /// # Panics
    ///
    /// Panics if `r` or `c` is out of range.
    pub fn set(&mut self, r: usize, c: usize) {
        assert!(
            r < self.rows && c < self.cols,
            "bit ({r}, {c}) out of range"
        );
        self.words[r * self.stride + c / 64] |= 1 << (c % 64);
    }

    /// Test bit `(r, c)`.
    pub fn contains(&self, r: usize, c: usize) -> bool {
        r < self.rows
            && c < self.cols
            && self.words[r * self.stride + c / 64] & (1 << (c % 64)) != 0
    }

    /// The words backing row `r` (low bit of word 0 is column 0).
    pub fn row_words(&self, r: usize) -> &[u64] {
        &self.words[r * self.stride..(r + 1) * self.stride]
    }

    /// The words backing rows `range`, row after row.
    pub fn rows_words(&self, range: std::ops::Range<usize>) -> &[u64] {
        &self.words[range.start * self.stride..range.end * self.stride]
    }

    /// True if row `r` shares any set column with `set`.
    ///
    /// # Panics
    ///
    /// Panics if `set`'s capacity differs from the column count.
    pub fn row_intersects(&self, r: usize, set: &BitSet) -> bool {
        assert_eq!(set.len, self.cols, "bitset capacity mismatch");
        self.row_words(r)
            .iter()
            .zip(&set.words)
            .any(|(a, b)| a & b != 0)
    }

    /// `set &= row r`.
    ///
    /// # Panics
    ///
    /// Panics if `set`'s capacity differs from the column count.
    pub fn intersect_row_into(&self, r: usize, set: &mut BitSet) {
        assert_eq!(set.len, self.cols, "bitset capacity mismatch");
        for (dst, src) in set.words.iter_mut().zip(self.row_words(r)) {
            *dst &= src;
        }
    }

    /// `set |= row r`.
    ///
    /// # Panics
    ///
    /// Panics if `set`'s capacity differs from the column count.
    pub fn union_row_into(&self, r: usize, set: &mut BitSet) {
        assert_eq!(set.len, self.cols, "bitset capacity mismatch");
        for (dst, src) in set.words.iter_mut().zip(self.row_words(r)) {
            *dst |= src;
        }
    }

    /// `row dst |= row src` (used to accumulate reachability in
    /// topological order).
    pub fn or_row_from(&mut self, dst: usize, src: usize) {
        assert!(dst < self.rows && src < self.rows, "row out of range");
        for k in 0..self.stride {
            let v = self.words[src * self.stride + k];
            self.words[dst * self.stride + k] |= v;
        }
    }

    /// Row `r` as a freestanding [`BitSet`] (capacity = column count).
    pub fn row_to_bitset(&self, r: usize) -> BitSet {
        BitSet {
            words: self.row_words(r).to_vec(),
            len: self.cols,
        }
    }
}

impl fmt::Debug for BitMatrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut rows = f.debug_list();
        for r in 0..self.rows {
            rows.entry(&self.row_to_bitset(r));
        }
        rows.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_contains_remove() {
        let mut s = BitSet::new(130);
        s.insert(0);
        s.insert(64);
        s.insert(129);
        assert!(s.contains(0) && s.contains(64) && s.contains(129));
        assert!(!s.contains(1));
        assert_eq!(s.count(), 3);
        s.remove(64);
        assert!(!s.contains(64));
        assert_eq!(s.count(), 2);
    }

    #[test]
    fn reset_equals_a_new_set() {
        let mut s: BitSet = [3usize, 64, 129].into_iter().collect();
        for len in [200, 65, 0, 7] {
            s.reset(len);
            assert_eq!(s, BitSet::new(len));
            if len > 0 {
                s.insert(len - 1);
            }
        }
    }

    #[test]
    fn set_algebra() {
        let a: BitSet = [1usize, 3, 5, 70].into_iter().collect();
        let b: BitSet = [3usize, 70].into_iter().collect();
        let mut a2 = a.clone();
        a2.grow(71);
        let mut b2 = b.clone();
        b2.grow(71);
        assert!(b2.is_subset(&a2));
        assert!(a2.intersects(&b2));
        let mut diff = a2.clone();
        diff.subtract(&b2);
        assert_eq!(diff.iter().collect::<Vec<_>>(), vec![1, 5]);
        let mut uni = diff.clone();
        uni.union_with(&b2);
        assert_eq!(uni.iter().collect::<Vec<_>>(), vec![1, 3, 5, 70]);
    }

    #[test]
    fn iter_ascending() {
        let s: BitSet = [64usize, 2, 127, 0].into_iter().collect();
        assert_eq!(s.iter().collect::<Vec<_>>(), vec![0, 2, 64, 127]);
    }

    #[test]
    fn out_of_range_contains_is_false() {
        let s = BitSet::new(4);
        assert!(!s.contains(100));
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_insert_panics() {
        let mut s = BitSet::new(4);
        s.insert(4);
    }

    /// `Ord` must agree with lexicographic order over the ascending
    /// element sequences — the order the old allocation-per-comparison
    /// sort key (`iter().collect::<Vec<_>>()`) produced.
    #[test]
    fn ord_matches_element_sequence_order() {
        let cap = 200;
        let sets: Vec<Vec<usize>> = vec![
            vec![],
            vec![0],
            vec![0, 5],
            vec![0, 5, 9],
            vec![0, 9],
            vec![0, 64],
            vec![0, 64, 130],
            vec![1],
            vec![5],
            vec![63, 64],
            vec![64],
            vec![64, 65],
            vec![130],
            vec![199],
        ];
        let bits: Vec<BitSet> = sets
            .iter()
            .map(|els| {
                let mut b = BitSet::new(cap);
                for &e in els {
                    b.insert(e);
                }
                b
            })
            .collect();
        for (i, a) in bits.iter().enumerate() {
            for (j, b) in bits.iter().enumerate() {
                assert_eq!(
                    a.cmp(b),
                    sets[i].cmp(&sets[j]),
                    "order of {:?} vs {:?}",
                    sets[i],
                    sets[j]
                );
            }
        }
    }

    #[test]
    fn ord_consistent_with_eq() {
        let a: BitSet = [1usize, 70].into_iter().collect();
        let b = a.clone();
        assert_eq!(a.cmp(&b), std::cmp::Ordering::Equal);
        // Same elements at different capacities are unequal under the
        // derived `Eq`; `Ord` must not call them equal either.
        let mut c = a.clone();
        c.grow(500);
        assert_ne!(a, c);
        assert_ne!(a.cmp(&c), std::cmp::Ordering::Equal);
    }

    #[test]
    fn clone_from_copies_contents_and_capacity() {
        let src: BitSet = [3usize, 70].into_iter().collect();
        let mut dst = BitSet::new(300);
        dst.insert(200);
        dst.clone_from(&src);
        assert_eq!(dst, src);
        assert_eq!(dst.capacity(), 71);
        assert_eq!(dst.iter().collect::<Vec<_>>(), vec![3, 70]);
    }

    #[test]
    fn full_sets_every_bit() {
        for len in [0usize, 1, 63, 64, 65, 130] {
            let s = BitSet::full(len);
            assert_eq!(s.count(), len);
            assert_eq!(s.iter().collect::<Vec<_>>(), (0..len).collect::<Vec<_>>());
        }
    }

    #[test]
    fn matrix_set_contains_rows() {
        let mut m = BitMatrix::new(3, 130);
        m.set(0, 0);
        m.set(0, 129);
        m.set(2, 64);
        assert!(m.contains(0, 0) && m.contains(0, 129) && m.contains(2, 64));
        assert!(!m.contains(1, 0) && !m.contains(0, 64));
        assert!(!m.contains(5, 0));
        assert_eq!(m.row_to_bitset(0).iter().collect::<Vec<_>>(), vec![0, 129]);
    }

    #[test]
    fn iter_over_words_and_matrix_reset() {
        let words = [0b101u64, 0, 1 << 63];
        assert_eq!(Iter::new(&words).collect::<Vec<_>>(), vec![0, 2, 191]);
        assert_eq!(Iter::new(&[]).count(), 0);
        let mut m = BitMatrix::new(2, 10);
        m.set(1, 9);
        m.reset(3, 70);
        assert_eq!((m.rows(), m.cols()), (3, 70));
        m.set(2, 69);
        m.set(1, 0);
        assert_eq!(m.rows_words(1..3), &[1, 0, 0, 1 << 5]);
    }

    #[test]
    fn matrix_row_ops() {
        let mut m = BitMatrix::new(2, 100);
        m.set(0, 3);
        m.set(0, 70);
        m.set(1, 70);
        let mut s = BitSet::full(100);
        assert!(m.row_intersects(0, &s));
        m.intersect_row_into(0, &mut s);
        assert_eq!(s.iter().collect::<Vec<_>>(), vec![3, 70]);
        let mut t = BitSet::new(100);
        m.union_row_into(1, &mut t);
        assert_eq!(t.iter().collect::<Vec<_>>(), vec![70]);
        assert!(!m.row_intersects(1, &{
            let mut z = BitSet::new(100);
            z.insert(3);
            z
        }));
        m.or_row_from(1, 0);
        assert_eq!(m.row_to_bitset(1).iter().collect::<Vec<_>>(), vec![3, 70]);
    }
}
