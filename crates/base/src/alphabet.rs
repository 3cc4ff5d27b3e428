//! Finite alphabets of interned symbols.

use std::collections::HashMap;
use std::fmt;

use crate::Symbol;

/// A finite, ordered alphabet Σ.
///
/// Symbols are interned by name and addressed by dense index, so automata can
/// store transition tables as flat vectors indexed by `Symbol::index()`.
///
/// ```
/// use qa_base::Alphabet;
/// let mut sigma = Alphabet::new();
/// let a = sigma.intern("a");
/// let b = sigma.intern("b");
/// assert_ne!(a, b);
/// assert_eq!(sigma.intern("a"), a); // idempotent
/// assert_eq!(sigma.name(a), "a");
/// assert_eq!(sigma.len(), 2);
/// ```
#[derive(Clone, Default, PartialEq, Eq)]
pub struct Alphabet {
    names: Vec<String>,
    by_name: HashMap<String, Symbol>,
}

impl Alphabet {
    /// Create an empty alphabet.
    pub fn new() -> Self {
        Self::default()
    }

    /// Create an alphabet from a list of distinct symbol names.
    ///
    /// Duplicate names are interned once, preserving first occurrence order.
    pub fn from_names<I, S>(names: I) -> Self
    where
        I: IntoIterator<Item = S>,
        S: AsRef<str>,
    {
        let mut a = Self::new();
        for n in names {
            a.intern(n.as_ref());
        }
        a
    }

    /// Intern `name`, returning its symbol (existing or fresh).
    pub fn intern(&mut self, name: &str) -> Symbol {
        if let Some(&s) = self.by_name.get(name) {
            return s;
        }
        let s = Symbol::from_index(self.names.len());
        self.names.push(name.to_owned());
        self.by_name.insert(name.to_owned(), s);
        s
    }

    /// Forget the symbols from index `len` on, undoing the interns made
    /// since the alphabet had `len` symbols.
    pub fn truncate(&mut self, len: usize) {
        for name in self.names.drain(len.min(self.names.len())..) {
            self.by_name.remove(&name);
        }
    }

    /// Look up an already-interned symbol by name.
    pub fn get(&self, name: &str) -> Option<Symbol> {
        self.by_name.get(name).copied()
    }

    /// Look up a symbol by name, panicking with a clear message if absent.
    ///
    /// Convenient in tests and examples where the alphabet is fixed.
    pub fn symbol(&self, name: &str) -> Symbol {
        self.get(name)
            .unwrap_or_else(|| panic!("symbol `{name}` not in alphabet {self:?}"))
    }

    /// The name of `sym`.
    pub fn name(&self, sym: Symbol) -> &str {
        &self.names[sym.index()]
    }

    /// Number of symbols.
    pub fn len(&self) -> usize {
        self.names.len()
    }

    /// Whether the alphabet is empty.
    pub fn is_empty(&self) -> bool {
        self.names.is_empty()
    }

    /// Whether `sym` is a valid symbol of this alphabet.
    pub fn contains(&self, sym: Symbol) -> bool {
        sym.index() < self.names.len()
    }

    /// Iterate over all symbols in index order.
    pub fn symbols(&self) -> impl Iterator<Item = Symbol> + '_ {
        (0..self.names.len()).map(Symbol::from_index)
    }

    /// Iterate over `(symbol, name)` pairs in index order.
    pub fn iter(&self) -> impl Iterator<Item = (Symbol, &str)> + '_ {
        self.names
            .iter()
            .enumerate()
            .map(|(i, n)| (Symbol::from_index(i), n.as_str()))
    }

    /// Render a string of symbols using this alphabet's names, separated by
    /// `sep` when any name is longer than one character.
    pub fn render(&self, word: &[Symbol]) -> String {
        let multi = word.iter().any(|&s| self.name(s).chars().count() > 1);
        let sep = if multi { " " } else { "" };
        word.iter()
            .map(|&s| self.name(s))
            .collect::<Vec<_>>()
            .join(sep)
    }

    /// Intern every ASCII character of `text` as a one-character symbol and
    /// return the resulting word. Handy for tests over character alphabets.
    pub fn intern_str(&mut self, text: &str) -> Vec<Symbol> {
        text.chars().map(|c| self.intern(&c.to_string())).collect()
    }

    /// Convert `text` using only already-interned one-character symbols.
    pub fn word(&self, text: &str) -> Vec<Symbol> {
        text.chars().map(|c| self.symbol(&c.to_string())).collect()
    }
}

impl fmt::Debug for Alphabet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Alphabet{{{}}}", self.names.join(", "))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn intern_is_idempotent() {
        let mut a = Alphabet::new();
        let x = a.intern("x");
        assert_eq!(a.intern("x"), x);
        assert_eq!(a.len(), 1);
    }

    #[test]
    fn from_names_dedupes_preserving_order() {
        let a = Alphabet::from_names(["b", "a", "b"]);
        assert_eq!(a.len(), 2);
        assert_eq!(a.name(Symbol::from_index(0)), "b");
        assert_eq!(a.name(Symbol::from_index(1)), "a");
    }

    #[test]
    fn symbols_iterates_in_index_order() {
        let a = Alphabet::from_names(["x", "y", "z"]);
        let v: Vec<usize> = a.symbols().map(|s| s.index()).collect();
        assert_eq!(v, vec![0, 1, 2]);
    }

    #[test]
    fn render_single_char_names_has_no_separator() {
        let mut a = Alphabet::new();
        let w = a.intern_str("abc");
        assert_eq!(a.render(&w), "abc");
    }

    #[test]
    fn render_multi_char_names_uses_spaces() {
        let mut a = Alphabet::new();
        let b = a.intern("book");
        let t = a.intern("title");
        assert_eq!(a.render(&[b, t]), "book title");
    }

    #[test]
    fn word_round_trips_intern_str() {
        let mut a = Alphabet::new();
        let w = a.intern_str("aba");
        assert_eq!(a.word("aba"), w);
    }

    #[test]
    fn truncate_forgets_later_interns() {
        let mut a = Alphabet::from_names(["x", "y"]);
        a.intern("z");
        a.truncate(2);
        assert_eq!(a, Alphabet::from_names(["x", "y"]));
        assert_eq!(a.intern("z").index(), 2);
        a.truncate(7);
        assert_eq!(a.len(), 3);
    }

    #[test]
    #[should_panic(expected = "not in alphabet")]
    fn symbol_panics_on_unknown_name() {
        let a = Alphabet::new();
        a.symbol("missing");
    }
}
