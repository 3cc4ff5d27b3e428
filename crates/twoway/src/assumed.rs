//! The `Assumed` sets of a run as bitsets.

use qa_strings::StateId;

/// `Assumed(w, i)` of the paper for every cell of one run — a tape
/// position of a string run, or a node of a tree run: the set of states
/// the machine held there.
///
/// Each set is `⌈|Q| / 64⌉` `u64` words, bit `q` standing for state `q`,
/// and the sets of all cells share one flat buffer: set `i` is
/// `bits[i·words..][..words]`. This is the layout of Figure 6's good sets.
/// A set records membership only; a query that needs the *first* state a
/// cell assumed with some property notes it while the run assumes it.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct AssumedSets {
    /// `u64` words per set.
    words: usize,
    bits: Vec<u64>,
}

impl AssumedSets {
    /// `cells` empty sets over `num_states` states.
    pub fn new(cells: usize, num_states: usize) -> Self {
        let words = num_states.div_ceil(64).max(1);
        AssumedSets {
            words,
            bits: vec![0; cells * words],
        }
    }

    /// Number of cells.
    pub fn len(&self) -> usize {
        self.bits.len() / self.words
    }

    /// Whether there are no cells.
    pub fn is_empty(&self) -> bool {
        self.bits.is_empty()
    }

    /// Add `q` to the set of `cell`; `true` iff it was not there yet.
    #[inline]
    pub fn insert(&mut self, cell: usize, q: StateId) -> bool {
        let q = q.index();
        let word = &mut self.bits[cell * self.words + q / 64];
        let bit = 1u64 << (q % 64);
        let fresh = *word & bit == 0;
        *word |= bit;
        fresh
    }

    /// Whether `cell` assumed `q`.
    #[inline]
    pub fn contains(&self, cell: usize, q: StateId) -> bool {
        let q = q.index();
        self.bits[cell * self.words + q / 64] >> (q % 64) & 1 == 1
    }

    /// How many states `cell` assumed.
    #[inline]
    pub fn count(&self, cell: usize) -> usize {
        self.set(cell).iter().map(|w| w.count_ones() as usize).sum()
    }

    /// The states `cell` assumed, in ascending index order.
    pub fn states(&self, cell: usize) -> impl Iterator<Item = StateId> + '_ {
        self.set(cell).iter().enumerate().flat_map(|(i, &w)| {
            let mut w = w;
            std::iter::from_fn(move || {
                (w != 0).then(|| {
                    let b = w.trailing_zeros() as usize;
                    w &= w - 1;
                    StateId::from_index(i * 64 + b)
                })
            })
        })
    }

    #[inline]
    fn set(&self, cell: usize) -> &[u64] {
        &self.bits[cell * self.words..][..self.words]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sets_wider_than_a_word_keep_every_state() {
        let mut a = AssumedSets::new(3, 130);
        let q = StateId::from_index;
        for s in [129, 0, 64, 63, 64] {
            a.insert(1, q(s));
        }
        assert_eq!(a.len(), 3);
        assert_eq!(a.count(1), 4);
        assert_eq!(a.count(0) + a.count(2), 0);
        let got: Vec<usize> = a.states(1).map(|s| s.index()).collect();
        assert_eq!(got, vec![0, 63, 64, 129]);
        assert!(a.contains(1, q(129)) && !a.contains(2, q(129)));
        assert!(!a.insert(1, q(63)), "already there");
        assert!(a.insert(2, q(63)));
    }
}
