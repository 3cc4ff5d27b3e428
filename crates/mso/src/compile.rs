//! The MSO compiler shared by Büchi's construction on strings (Theorem 2.5,
//! [`crate::compile_string`]) and Doner/Thatcher–Wright's on ranked trees
//! (Theorem 2.8, [`crate::compile_ranked`]).
//!
//! Formulas with free variables are compiled over the *bit-extended*
//! alphabet `Σ × {0,1}ᵏ`: bit `j` encodes membership of the position in
//! variable `j` of the compilation context (innermost quantifier = highest
//! bit, so quantification = projecting the top bit away). Every
//! intermediate automaton accepts only *valid* encodings — each first-order
//! variable's bit set at exactly one position — which makes negation a
//! difference against the validity language. The automaton is minimized
//! after every operation. Only the automaton type and the navigation atoms
//! differ between the two families; each implements the crate-private
//! `Family` trait.

use qa_base::{Error, Result, Symbol};

use crate::ast::{Formula, Var};

/// Size of the extended alphabet for `k` variables over `sigma` symbols.
#[inline]
pub fn ext_alphabet_len(sigma: usize, k: usize) -> usize {
    sigma << k
}

/// The extended symbol for base symbol `sym` and variable bitmask `mask`.
#[inline]
pub fn ext_symbol(sym: Symbol, mask: usize, sigma: usize) -> Symbol {
    Symbol::from_index(sym.index() + sigma * mask)
}

/// Base symbol of an extended symbol.
#[inline]
pub fn base_symbol(e: Symbol, sigma: usize) -> Symbol {
    Symbol::from_index(e.index() % sigma)
}

/// Variable bitmask of an extended symbol.
#[inline]
pub fn ext_mask(e: Symbol, sigma: usize) -> usize {
    e.index() / sigma
}

pub(crate) fn bit(mask: usize, b: usize) -> bool {
    (mask >> b) & 1 == 1
}

/// A compilation context: the in-scope variables, outermost first.
#[derive(Clone, Debug, Default)]
pub(crate) struct Ctx {
    /// `(name, is_set)`; bit `j` of the mask corresponds to entry `j`.
    vars: Vec<(Var, bool)>,
}

impl Ctx {
    fn bit_of(&self, v: &Var) -> Option<(usize, bool)> {
        self.vars
            .iter()
            .enumerate()
            .rev()
            .find(|(_, (name, _))| name == v)
            .map(|(i, (_, is_set))| (i, *is_set))
    }

    pub(crate) fn len(&self) -> usize {
        self.vars.len()
    }

    /// The bit of first-order variable `v`.
    pub(crate) fn fo_bit(&self, v: &Var) -> Result<usize> {
        match self.bit_of(v) {
            Some((b, false)) => Ok(b),
            Some((_, true)) => Err(Error::domain(format!(
                "variable `{v}` used first-order but bound as a set"
            ))),
            None => Err(Error::domain(format!("unbound variable `{v}`"))),
        }
    }

    fn set_bit(&self, v: &Var) -> Result<usize> {
        match self.bit_of(v) {
            Some((b, true)) => Ok(b),
            Some((_, false)) => Err(Error::domain(format!(
                "variable `{v}` used as a set but bound first-order"
            ))),
            None => Err(Error::domain(format!("unbound set variable `{v}`"))),
        }
    }
}

/// An automaton family the compiler targets: DFAs for strings, DBTAs for
/// ranked trees.
pub(crate) trait Family {
    type Automaton;

    /// The automaton over `Σ × {0,1}ᵏ` of a *local rule*: the state after a
    /// position (string) or at a node (tree) is `step(previous states, base
    /// symbol, mask)`, where a string passes its one previous state and
    /// starts in state 0, and a tree passes its children's states. States
    /// are `0..n`; `None` goes to the dead sink `n`; `finals` accept.
    fn local(
        &self,
        k: usize,
        n: usize,
        finals: &[usize],
        step: impl Fn(&[usize], Symbol, usize) -> Option<usize>,
    ) -> Self::Automaton;

    fn intersect(&self, a: &Self::Automaton, b: &Self::Automaton) -> Self::Automaton;

    fn union(&self, a: &Self::Automaton, b: &Self::Automaton) -> Self::Automaton;

    fn difference(&self, a: &Self::Automaton, b: &Self::Automaton) -> Self::Automaton;

    fn minimize(&self, a: &Self::Automaton) -> Self::Automaton;

    /// Project away the top (most recently pushed) of `k_with` variable
    /// bits: relabel nondeterministically, then determinize and minimize.
    fn project_top_bit(&self, a: &Self::Automaton, k_with: usize) -> Self::Automaton;

    /// The condition automaton of a navigation atom (`edge`, `<` and the
    /// encoding atoms), before it is intersected with validity.
    fn navigation(&self, atom: &Formula, ctx: &Ctx) -> Result<Self::Automaton>;
}

/// Validity: every first-order bit set at exactly one position.
fn validity<F: Family>(fam: &F, ctx: &Ctx) -> F::Automaton {
    let fo_bits: Vec<usize> = ctx
        .vars
        .iter()
        .enumerate()
        .filter(|(_, (_, is_set))| !is_set)
        .map(|(i, _)| i)
        .collect();
    // state = subset of fo vars seen so far (string) or in the subtree
    let num = 1usize << fo_bits.len();
    fam.local(ctx.len(), num, &[num - 1], |seen_before, _base, mask| {
        let mut seen = 0usize;
        for &c in seen_before {
            if c & seen != 0 {
                return None;
            }
            seen |= c;
        }
        let mut own = 0usize;
        for (j, &b) in fo_bits.iter().enumerate() {
            if bit(mask, b) {
                own |= 1 << j;
            }
        }
        (own & seen == 0).then_some(seen | own)
    })
}

fn compile_inner<F: Family>(fam: &F, f: &Formula, ctx: &Ctx) -> Result<F::Automaton> {
    let valid = || validity(fam, ctx);
    // a condition that must hold at every position: 1 state
    let per_position = |ok: &dyn Fn(Symbol, usize) -> bool| {
        fam.local(ctx.len(), 1, &[0], |_, base, mask| {
            ok(base, mask).then_some(0)
        })
    };
    let out = match f {
        Formula::True => valid(),
        Formula::False => fam.local(ctx.len(), 0, &[], |_, _, _| None),
        Formula::Label(x, a) => {
            let b = ctx.fo_bit(x)?;
            let cond = per_position(&|base, mask| !bit(mask, b) || base == *a);
            fam.intersect(&cond, &valid())
        }
        Formula::Eq(x, y) => {
            let bx = ctx.fo_bit(x)?;
            let by = ctx.fo_bit(y)?;
            let cond = per_position(&|_, mask| bit(mask, bx) == bit(mask, by));
            fam.intersect(&cond, &valid())
        }
        Formula::In(x, s) => {
            let bx = ctx.fo_bit(x)?;
            let bs = ctx.set_bit(s)?;
            let cond = per_position(&|_, mask| !bit(mask, bx) || bit(mask, bs));
            fam.intersect(&cond, &valid())
        }
        Formula::Edge(_, _)
        | Formula::Less(_, _)
        | Formula::FirstChild(_, _)
        | Formula::SecondChild(_, _)
        | Formula::Chain2(_, _) => fam.intersect(&fam.navigation(f, ctx)?, &valid()),
        Formula::Not(p) => {
            let a = compile_inner(fam, p, ctx)?;
            fam.difference(&valid(), &a)
        }
        Formula::And(p, q) => {
            let a = compile_inner(fam, p, ctx)?;
            let b = compile_inner(fam, q, ctx)?;
            fam.intersect(&a, &b)
        }
        Formula::Or(p, q) => {
            let a = compile_inner(fam, p, ctx)?;
            let b = compile_inner(fam, q, ctx)?;
            fam.union(&a, &b)
        }
        Formula::Exists(v, p) | Formula::ExistsSet(v, p) => {
            let mut inner = ctx.clone();
            let is_set = matches!(f, Formula::ExistsSet(_, _));
            inner.vars.push((v.clone(), is_set));
            let a = compile_inner(fam, p, &inner)?;
            fam.project_top_bit(&a, inner.len())
        }
        Formula::Forall(v, p) | Formula::ForallSet(v, p) => {
            // ∀ = ¬∃¬
            let body = Box::new(Formula::Not(p.clone()));
            let exists = match f {
                Formula::Forall(_, _) => Formula::Exists(v.clone(), body),
                _ => Formula::ExistsSet(v.clone(), body),
            };
            let a = compile_inner(fam, &exists, ctx)?;
            fam.difference(&valid(), &a)
        }
    };
    Ok(fam.minimize(&out))
}

/// Compile a sentence to a minimized automaton over Σ.
pub(crate) fn compile_sentence<F: Family>(fam: &F, f: &Formula) -> Result<F::Automaton> {
    let free = f.free_vars();
    if !free.is_empty() {
        return Err(Error::domain(format!(
            "sentence expected, found free variables {free:?}"
        )));
    }
    compile_inner(fam, f, &Ctx::default())
}

/// Compile a unary query `φ(var)` to a minimized automaton over `Σ × {0,1}`
/// (bit = "this is the position bound to `var`").
pub(crate) fn compile_unary<F: Family>(fam: &F, f: &Formula, var: &str) -> Result<F::Automaton> {
    let free = f.free_vars();
    if free.iter().any(|v| v != var) {
        return Err(Error::domain(format!(
            "unary query over `{var}` expected, found free variables {free:?}"
        )));
    }
    let ctx = Ctx {
        vars: vec![(var.to_string(), false)],
    };
    compile_inner(fam, f, &ctx)
}

#[cfg(test)]
mod tests {
    use crate::parser::parse;
    use crate::{compile_ranked, compile_string, unranked};
    use qa_base::Alphabet;

    /// A variable used against its binding gets the same message from every
    /// family; qa-serve answers it with a 422.
    #[test]
    fn binding_errors_read_the_same_in_every_family() {
        let cases = [
            (
                "ex x. (v in x)",
                "domain error: variable `x` used as a set but bound first-order",
            ),
            (
                "ex2 X. (label(X, a) & label(v, a))",
                "domain error: variable `X` used first-order but bound as a set",
            ),
        ];
        for (src, want) in cases {
            let mut alphabet = Alphabet::from_names(["a", "b"]);
            let f = parse(src, &mut alphabet).unwrap();
            let sigma = alphabet.len();
            let errors = [
                compile_string::compile_unary(&f, "v", sigma).err(),
                compile_ranked::compile_unary(&f, "v", sigma, 2).err(),
                unranked::compile_unary(&f, "v", sigma).err(),
            ];
            for (family, e) in ["string", "ranked", "unranked"].iter().zip(errors) {
                let got = e.map(|e| e.to_string());
                assert_eq!(got.as_deref(), Some(want), "{family}: {src}");
            }
        }
    }
}
