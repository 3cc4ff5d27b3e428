//! Typed dense index vectors.

use std::marker::PhantomData;
use std::ops::{Index, IndexMut};

/// A key type usable with [`IdVec`]: a newtype over a dense `usize` index.
pub trait Id: Copy {
    /// Build a key from a dense index.
    fn from_index(index: usize) -> Self;
    /// The dense index of this key.
    fn index(self) -> usize;
}

/// Plain positions, for code generic over ids and raw indices.
impl Id for usize {
    fn from_index(index: usize) -> Self {
        index
    }
    fn index(self) -> usize {
        self
    }
}

impl Id for crate::Symbol {
    fn from_index(index: usize) -> Self {
        crate::Symbol::from_index(index)
    }
    fn index(self) -> usize {
        crate::Symbol::index(self)
    }
}

/// Declare a `u32` newtype id usable as an [`IdVec`] key.
///
/// ```
/// qa_base::define_id!(pub StateId, "q");
/// let q = StateId::from_index(4);
/// assert_eq!(format!("{q:?}"), "q4");
/// ```
#[macro_export]
macro_rules! define_id {
    ($vis:vis $name:ident, $prefix:literal) => {
        /// Dense `u32` newtype id (see [`qa_base::define_id!`]).
        #[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
        $vis struct $name(pub u32);

        impl $name {
            /// Build from a dense index.
            #[inline]
            $vis fn from_index(index: usize) -> Self {
                $name(u32::try_from(index).expect("id overflow"))
            }
            /// The dense index.
            #[inline]
            $vis fn index(self) -> usize {
                self.0 as usize
            }
        }

        impl $crate::idvec::Id for $name {
            #[inline]
            fn from_index(index: usize) -> Self {
                $name::from_index(index)
            }
            #[inline]
            fn index(self) -> usize {
                $name::index(self)
            }
        }

        impl ::std::fmt::Debug for $name {
            fn fmt(&self, f: &mut ::std::fmt::Formatter<'_>) -> ::std::fmt::Result {
                write!(f, concat!($prefix, "{}"), self.0)
            }
        }
    };
}

/// A vector indexed by a typed id instead of a bare `usize`.
///
/// Prevents the classic off-by-one-abstraction bug of indexing the states
/// table with a symbol index (or vice versa).
#[derive(Clone, PartialEq, Eq)]
pub struct IdVec<K, V> {
    items: Vec<V>,
    _k: PhantomData<fn(K) -> K>,
}

impl<K: Id, V> IdVec<K, V> {
    /// Empty vector.
    pub fn new() -> Self {
        IdVec {
            items: Vec::new(),
            _k: PhantomData,
        }
    }

    /// Vector with `n` copies of `value`.
    pub fn filled(value: V, n: usize) -> Self
    where
        V: Clone,
    {
        IdVec {
            items: vec![value; n],
            _k: PhantomData,
        }
    }

    /// Push a value, returning its fresh key.
    pub fn push(&mut self, value: V) -> K {
        let k = K::from_index(self.items.len());
        self.items.push(value);
        k
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// Whether there are no entries.
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    /// Iterate over `(key, &value)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (K, &V)> + '_ {
        self.items
            .iter()
            .enumerate()
            .map(|(i, v)| (K::from_index(i), v))
    }

    /// Iterate over keys.
    pub fn keys(&self) -> impl Iterator<Item = K> + '_ {
        (0..self.items.len()).map(K::from_index)
    }

    /// Iterate over values.
    pub fn values(&self) -> impl Iterator<Item = &V> + '_ {
        self.items.iter()
    }

    /// Mutable value iteration.
    pub fn values_mut(&mut self) -> impl Iterator<Item = &mut V> + '_ {
        self.items.iter_mut()
    }

    /// Borrow by key, if present.
    pub fn get(&self, k: K) -> Option<&V> {
        self.items.get(k.index())
    }
}

impl<K: Id, V> Default for IdVec<K, V> {
    fn default() -> Self {
        Self::new()
    }
}

impl<K: Id, V> Index<K> for IdVec<K, V> {
    type Output = V;
    #[inline]
    fn index(&self, k: K) -> &V {
        &self.items[k.index()]
    }
}

impl<K: Id, V> IndexMut<K> for IdVec<K, V> {
    #[inline]
    fn index_mut(&mut self, k: K) -> &mut V {
        &mut self.items[k.index()]
    }
}

impl<K: Id, V: std::fmt::Debug> std::fmt::Debug for IdVec<K, V> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_list().entries(self.items.iter()).finish()
    }
}

impl<K: Id, V> FromIterator<V> for IdVec<K, V> {
    fn from_iter<T: IntoIterator<Item = V>>(iter: T) -> Self {
        IdVec {
            items: iter.into_iter().collect(),
            _k: PhantomData,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    define_id!(TestId, "t");

    #[test]
    fn push_returns_sequential_keys() {
        let mut v: IdVec<TestId, &str> = IdVec::new();
        let a = v.push("a");
        let b = v.push("b");
        assert_eq!(a.index(), 0);
        assert_eq!(b.index(), 1);
        assert_eq!(v[a], "a");
        assert_eq!(v[b], "b");
    }

    #[test]
    fn filled_and_mutation() {
        let mut v: IdVec<TestId, u32> = IdVec::filled(0, 3);
        v[TestId::from_index(1)] = 9;
        assert_eq!(v.values().copied().collect::<Vec<_>>(), vec![0, 9, 0]);
    }

    #[test]
    fn iter_pairs_keys_and_values() {
        let v: IdVec<TestId, char> = "xy".chars().collect();
        let pairs: Vec<(usize, char)> = v.iter().map(|(k, &c)| (k.index(), c)).collect();
        assert_eq!(pairs, vec![(0, 'x'), (1, 'y')]);
    }

    #[test]
    fn get_is_bounds_checked() {
        let v: IdVec<TestId, u8> = IdVec::filled(1, 1);
        assert!(v.get(TestId::from_index(0)).is_some());
        assert!(v.get(TestId::from_index(5)).is_none());
    }

    #[test]
    fn debug_format() {
        assert_eq!(format!("{:?}", TestId::from_index(2)), "t2");
    }
}
