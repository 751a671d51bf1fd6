//! Insertion-ordered sets of equal-width word rows, stored flat.
//!
//! The covering engine keys two tables by bit masks: the rollout memo
//! (covered sets) and clique legalization's dedupe (cliques). Both keep
//! their keys in one `Vec<u64>` and find them through an open-addressing
//! index, so inserting a key allocates nothing until the reserved
//! capacity runs out.

/// Marks a free slot in [`RowSet::slots`].
const FREE: u32 = u32::MAX;

/// A set of `width`-word rows numbered in insertion order.
#[derive(Default)]
pub(crate) struct RowSet {
    /// Words per row.
    width: usize,
    /// Number of rows.
    len: usize,
    /// Row `i` is `keys[i * width..(i + 1) * width]`.
    keys: Vec<u64>,
    /// Open-addressing index into the rows (`FREE` marks a free slot);
    /// its length is a power of two at least twice the row count.
    slots: Vec<u32>,
}

impl RowSet {
    /// Forget every row and take rows of `width` words from now on,
    /// with room for `reserve` rows (a power of two) before growing.
    pub(crate) fn reset(&mut self, width: usize, reserve: usize) {
        debug_assert!(reserve.is_power_of_two());
        self.width = width;
        self.len = 0;
        self.keys.clear();
        self.keys.reserve(reserve * width);
        self.slots.clear();
        self.slots.resize(2 * reserve, FREE);
    }

    /// Number of rows.
    pub(crate) fn len(&self) -> usize {
        self.len
    }

    /// Row `i`.
    pub(crate) fn row(&self, i: u32) -> &[u64] {
        let at = i as usize * self.width;
        &self.keys[at..at + self.width]
    }

    /// The home slot of `key` in a table of `slots` slots.
    fn home(key: &[u64], slots: usize) -> usize {
        let h = key.iter().fold(0u64, |h, &w| {
            (h.rotate_left(5) ^ w).wrapping_mul(0x517c_c1b7_2722_0a95)
        });
        // The high bits of the product depend on every bit of the key.
        (h >> (64 - slots.trailing_zeros())) as usize
    }

    /// The number of row `key`, appended if new, and whether it was new.
    pub(crate) fn insert(&mut self, key: &[u64]) -> (u32, bool) {
        debug_assert_eq!(key.len(), self.width, "row of the wrong width");
        if 2 * (self.len + 1) > self.slots.len() {
            self.grow();
        }
        let mask = self.slots.len() - 1;
        let mut i = RowSet::home(key, self.slots.len());
        loop {
            match self.slots[i] {
                FREE => break,
                e if self.row(e) == key => return (e, false),
                _ => i = (i + 1) & mask,
            }
        }
        let e = self.len as u32;
        self.slots[i] = e;
        self.keys.extend_from_slice(key);
        self.len += 1;
        (e, true)
    }

    /// Double the index and re-seat every row.
    fn grow(&mut self) {
        let n = (2 * self.slots.len()).max(2);
        self.slots.clear();
        self.slots.resize(n, FREE);
        for e in 0..self.len as u32 {
            let mut i = RowSet::home(self.row(e), n);
            while self.slots[i] != FREE {
                i = (i + 1) & (n - 1);
            }
            self.slots[i] = e;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Rows keep their first number, repeats are found, and growing the
    /// index past its reserve keeps every row findable.
    #[test]
    fn rows_are_numbered_once_in_insertion_order() {
        let mut set = RowSet::default();
        set.reset(2, 2);
        for round in 0..2 {
            for i in 0..40u64 {
                let (e, new) = set.insert(&[i * 7, i % 3]);
                assert_eq!((e, new), (i as u32, round == 0));
            }
        }
        assert_eq!(set.len(), 40);
        assert_eq!(set.row(5), [35, 2]);
        set.reset(1, 4);
        assert_eq!(set.len(), 0);
        assert_eq!(set.insert(&[9]), (0, true));
    }
}
