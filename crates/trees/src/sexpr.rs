//! S-expression syntax for trees: `(f (g x y) y)`, leaves may be bare.

use qa_base::{Alphabet, Error, Result};

use crate::{NodeId, Tree};

/// Parse an s-expression into a tree, interning labels into `alphabet`.
///
/// Grammar: `tree := IDENT | '(' IDENT tree* ')'` with identifiers
/// `[A-Za-z0-9_#-]+`; whitespace separates tokens. Parsing is iterative
/// and one pass: labels are slices of `input`, and the tree grows as the
/// tokens are read.
///
/// An unexpected character anywhere in `input` is the reported error,
/// and it leaves `alphabet` as it was; a structural error (unbalanced
/// parentheses, a missing label, several roots) keeps the labels interned
/// before it.
///
/// ```
/// use qa_base::Alphabet;
/// use qa_trees::sexpr::{from_sexpr, to_sexpr};
/// let mut sigma = Alphabet::new();
/// let t = from_sexpr("(f (g x y) y)", &mut sigma).unwrap();
/// assert_eq!(to_sexpr(&t, &sigma), "(f (g x y) y)");
/// ```
pub fn from_sexpr(input: &str, alphabet: &mut Alphabet) -> Result<Tree> {
    let known = alphabet.len();
    let mut lexer = Lexer { input, pos: 0 };
    let built = build(&mut lexer, alphabet);
    if built.is_err() {
        // An unexpected character anywhere outranks a structural error.
        while lexer
            .next()
            .inspect_err(|_| alphabet.truncate(known))?
            .is_some()
        {}
    }
    built
}

/// The shift-reduce half of [`from_sexpr`]: a stack of open nodes.
fn build(lexer: &mut Lexer<'_>, alphabet: &mut Alphabet) -> Result<Tree> {
    let mut tree: Option<Tree> = None;
    let mut open: Vec<NodeId> = Vec::new();
    while let Some(tok) = lexer.next()? {
        let (name, opens) = match tok {
            Tok::Close => {
                if open.pop().is_none() {
                    return Err(Error::parse("sexpr", "unbalanced `)`"));
                }
                continue;
            }
            Tok::Open => match lexer.next()? {
                Some(Tok::Ident(name)) => (name, true),
                _ => return Err(Error::parse("sexpr", "expected label after `(`")),
            },
            Tok::Ident(name) => (name, false),
        };
        let label = alphabet.intern(name);
        let id = match (tree.as_mut(), open.last()) {
            (None, _) => tree.insert(Tree::leaf(label)).root(),
            (Some(t), Some(&p)) => t.add_child(p, label),
            (Some(_), None) => return Err(Error::parse("sexpr", "multiple roots")),
        };
        if opens {
            open.push(id);
        }
    }
    if !open.is_empty() {
        return Err(Error::parse("sexpr", "unbalanced `(`"));
    }
    tree.ok_or_else(|| Error::parse("sexpr", "empty input"))
}

enum Tok<'a> {
    Open,
    Close,
    Ident(&'a str),
}

struct Lexer<'a> {
    input: &'a str,
    pos: usize,
}

impl<'a> Lexer<'a> {
    /// The next token, `None` at the end of the input. An unexpected
    /// character is an error, and the lexer stays on it.
    fn next(&mut self) -> Result<Option<Tok<'a>>> {
        while let Some(c) = self.peek() {
            if c.is_whitespace() {
                self.pos += c.len_utf8();
                continue;
            }
            let tok = match c {
                '(' => Tok::Open,
                ')' => Tok::Close,
                _ if is_ident(c) => {
                    let start = self.pos;
                    while let Some(c) = self.peek().filter(|&c| is_ident(c)) {
                        self.pos += c.len_utf8();
                    }
                    return Ok(Some(Tok::Ident(&self.input[start..self.pos])));
                }
                _ => return Err(Error::parse("sexpr", format!("unexpected character `{c}`"))),
            };
            self.pos += 1;
            return Ok(Some(tok));
        }
        Ok(None)
    }

    fn peek(&self) -> Option<char> {
        match self.input.as_bytes().get(self.pos) {
            Some(&b) if b.is_ascii() => Some(char::from(b)),
            Some(_) => self.input[self.pos..].chars().next(),
            None => None,
        }
    }
}

fn is_ident(c: char) -> bool {
    c.is_alphanumeric() || c == '_' || c == '#' || c == '-'
}

/// Print a tree as an s-expression (leaves bare, inner nodes parenthesized).
/// Iterative.
pub fn to_sexpr(tree: &Tree, alphabet: &Alphabet) -> String {
    enum Item {
        Node(NodeId),
        Text(&'static str),
    }
    let mut out = String::new();
    let mut stack = vec![Item::Node(tree.root())];
    while let Some(item) = stack.pop() {
        match item {
            Item::Text(s) => out.push_str(s),
            Item::Node(v) => {
                if !out.is_empty() && !out.ends_with('(') {
                    out.push(' ');
                }
                if tree.is_leaf(v) {
                    out.push_str(alphabet.name(tree.label(v)));
                } else {
                    out.push('(');
                    out.push_str(alphabet.name(tree.label(v)));
                    stack.push(Item::Text(")"));
                    for &c in tree.children(v).iter().rev() {
                        stack.push(Item::Node(c));
                    }
                }
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trip() {
        let mut a = Alphabet::new();
        for s in [
            "x",
            "(f x)",
            "(f (g x y) y)",
            "(bibliography (book author title) (article author))",
            "(a (a (a (a a))))",
        ] {
            let t = from_sexpr(s, &mut a).unwrap();
            assert_eq!(to_sexpr(&t, &a), s);
        }
    }

    #[test]
    fn single_node_variants() {
        let mut a = Alphabet::new();
        let t1 = from_sexpr("x", &mut a).unwrap();
        let t2 = from_sexpr("(x)", &mut a).unwrap();
        assert_eq!(t1, t2);
        assert_eq!(to_sexpr(&t1, &a), "x");
    }

    #[test]
    fn errors() {
        let mut a = Alphabet::new();
        assert!(from_sexpr("", &mut a).is_err());
        assert!(from_sexpr("(f x", &mut a).is_err());
        assert!(from_sexpr("f)", &mut a).is_err());
        assert!(from_sexpr("( )", &mut a).is_err());
        assert!(from_sexpr("f g", &mut a).is_err(), "two roots");
        assert!(from_sexpr("(f $) ", &mut a).is_err());
    }

    /// The two-phase parser `from_sexpr` replaced: lex every token into a
    /// vector, then shift-reduce over it.
    fn two_phase(input: &str, alphabet: &mut Alphabet) -> Result<Tree> {
        enum Tok {
            Open,
            Close,
            Ident(String),
        }
        let mut toks = Vec::new();
        let mut chars = input.chars().peekable();
        while let Some(&c) = chars.peek() {
            if c.is_whitespace() {
                chars.next();
            } else if c == '(' || c == ')' {
                chars.next();
                toks.push(if c == '(' { Tok::Open } else { Tok::Close });
            } else if is_ident(c) {
                let mut name = String::new();
                while let Some(&c) = chars.peek().filter(|&&c| is_ident(c)) {
                    name.push(c);
                    chars.next();
                }
                toks.push(Tok::Ident(name));
            } else {
                return Err(Error::parse("sexpr", format!("unexpected character `{c}`")));
            }
        }
        let mut tree: Option<Tree> = None;
        let mut open: Vec<NodeId> = Vec::new();
        let mut i = 0;
        while i < toks.len() {
            let (name, opens) = match &toks[i] {
                Tok::Open => match toks.get(i + 1) {
                    Some(Tok::Ident(name)) => (name, true),
                    _ => return Err(Error::parse("sexpr", "expected label after `(`")),
                },
                Tok::Close => {
                    if open.pop().is_none() {
                        return Err(Error::parse("sexpr", "unbalanced `)`"));
                    }
                    i += 1;
                    continue;
                }
                Tok::Ident(name) => (name, false),
            };
            let label = alphabet.intern(name);
            let id = match (tree.as_mut(), open.last()) {
                (None, _) => tree.insert(Tree::leaf(label)).root(),
                (Some(t), Some(&p)) => t.add_child(p, label),
                (Some(_), None) => return Err(Error::parse("sexpr", "multiple roots")),
            };
            if opens {
                open.push(id);
                i += 1;
            }
            i += 1;
        }
        if !open.is_empty() {
            return Err(Error::parse("sexpr", "unbalanced `(`"));
        }
        tree.ok_or_else(|| Error::parse("sexpr", "empty input"))
    }

    #[test]
    fn agrees_with_the_two_phase_parser_on_random_trees_and_their_mutations() {
        use crate::generate::random;
        use qa_base::rng::{Rng, StdRng};
        let names = ["a", "b", "node_7", "x-y", "#PCDATA", "é", "ß9"];
        let noise = [" ", "  ", "\n", "\t", "\u{b}", "(", ")", "$", "a", "\u{a0}"];
        let mut rng = StdRng::seed_from_u64(19);
        for case in 0..300 {
            let mut sigma = Alphabet::from_names(names);
            let labels: Vec<_> = sigma.symbols().collect();
            let n = 1 + rng.gen_range(0..40);
            let t = random(&mut rng, &labels, n, Some(4));
            let text = to_sexpr(&t, &sigma);
            assert_eq!(from_sexpr(&text, &mut sigma).unwrap(), t, "{text}");
            // Splice noise in at random char boundaries: extra whitespace
            // keeps the tree, the rest mostly makes errors.
            let mut mutated = text.clone();
            for _ in 0..rng.gen_range(0..4) {
                let cuts: Vec<usize> = (0..=mutated.len())
                    .filter(|&i| mutated.is_char_boundary(i))
                    .collect();
                let at = cuts[rng.gen_range(0..cuts.len())];
                mutated.insert_str(at, noise[rng.gen_range(0..noise.len())]);
            }
            let mut old = Alphabet::from_names(&names[..case % 3]);
            let mut new = old.clone();
            let want = two_phase(&mutated, &mut old);
            let got = from_sexpr(&mutated, &mut new);
            match (&want, &got) {
                (Ok(w), Ok(g)) => assert_eq!(w, g, "{mutated:?}"),
                (Err(w), Err(g)) => assert_eq!(w.to_string(), g.to_string(), "{mutated:?}"),
                _ => panic!("{mutated:?}: {want:?} vs {got:?}"),
            }
            assert_eq!(old, new, "alphabets after {mutated:?}");
        }
    }

    #[test]
    fn deep_nesting_is_iterative() {
        let mut a = Alphabet::new();
        let depth = 100_000;
        let mut s = String::new();
        for _ in 0..depth {
            s.push_str("(a ");
        }
        s.push('b');
        for _ in 0..depth {
            s.push(')');
        }
        let t = from_sexpr(&s, &mut a).unwrap();
        assert_eq!(t.num_nodes(), depth + 1);
        let printed = to_sexpr(&t, &a);
        assert_eq!(printed.len(), s.len());
    }
}
