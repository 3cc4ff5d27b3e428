//! Generalized string query automata (Definition 3.5).

use qa_base::{Error, Result, Symbol};
use qa_obs::{Counter, NoopObserver, Observer};
use qa_strings::StateId;

use crate::tape::Tape;
use crate::twodfa::TwoDfa;

/// A generalized string query automaton: a 2DFA plus an output function
/// `λ : S × Σ → Γ ∪ {⊥}` over a finite output alphabet Γ.
///
/// Following the paper's convention, a well-formed GSQA outputs **exactly
/// one** Γ-symbol at every position of every accepted input; [`Gsqa::run`]
/// enforces this dynamically and reports violations as
/// [`Error::IllFormed`]. Output symbols are dense indices `0..gamma_len`
/// (interpret them with whatever output alphabet the caller maintains).
///
/// GSQAs compute the *stay transitions* of strong unranked query automata
/// (Definition 5.11) and realize the Hopcroft–Ullman composition of
/// Lemma 3.10 (see [`crate::hopcroft_ullman`]).
#[derive(Clone, Debug)]
pub struct Gsqa {
    machine: TwoDfa,
    /// `output[state · |Σ| + symbol]` = Γ-symbol emitted, if any.
    output: Vec<Option<u32>>,
    gamma_len: usize,
}

impl Gsqa {
    /// Wrap `machine` with an everything-`⊥` output function over an output
    /// alphabet of `gamma_len` symbols.
    pub fn new(machine: TwoDfa, gamma_len: usize) -> Self {
        let output = vec![None; machine.num_states() * machine.alphabet_len()];
        Gsqa {
            machine,
            output,
            gamma_len,
        }
    }

    /// Set `λ(state, sym) = gamma`.
    pub fn set_output(&mut self, state: StateId, sym: Symbol, gamma: u32) {
        debug_assert!((gamma as usize) < self.gamma_len, "gamma outside Γ");
        let slot = state.index() * self.machine.alphabet_len() + sym.index();
        self.output[slot] = Some(gamma);
    }

    /// The output for `(state, sym)`, if any.
    #[inline]
    pub fn output_of(&self, state: StateId, sym: Symbol) -> Option<u32> {
        self.output[state.index() * self.machine.alphabet_len() + sym.index()]
    }

    /// The underlying 2DFA.
    pub fn machine(&self) -> &TwoDfa {
        &self.machine
    }

    /// Size of the output alphabet Γ.
    pub fn gamma_len(&self) -> usize {
        self.gamma_len
    }

    /// Run on `word` and return the output word `M(w, 1) … M(w, |w|)`.
    ///
    /// Errors when the machine loops, rejects, or violates the
    /// exactly-one-output-per-position convention.
    pub fn run(&self, word: &[Symbol]) -> Result<Vec<u32>> {
        self.run_with(word, &mut NoopObserver)
    }

    /// [`Gsqa::run`] with an [`Observer`]: the underlying 2DFA run and the
    /// output-collection scan are reported to `obs`. With [`NoopObserver`]
    /// this monomorphizes to exactly `run`.
    pub fn run_with<O: Observer>(&self, word: &[Symbol], obs: &mut O) -> Result<Vec<u32>> {
        // Each position's output is that of the first state assumed there
        // with one; `clash` keeps the leftmost position where a later
        // state outputs something else, with both outputs.
        let mut out: Vec<Option<u32>> = vec![None; word.len()];
        let mut clash: Option<(usize, u32, u32)> = None;
        obs.phase_start("run");
        let rec = self.machine.run_noting(word, obs, |pos, s| {
            let Some(i) = pos.checked_sub(1).filter(|&i| i < word.len()) else {
                return;
            };
            match (out[i], self.output_of(s, word[i])) {
                (_, None) => {}
                (None, g) => out[i] = g,
                (Some(prev), Some(g))
                    if prev != g && !matches!(clash, Some((at, ..)) if at <= i) =>
                {
                    clash = Some((i, prev, g));
                }
                _ => {}
            }
        });
        obs.phase_end("run");
        let rec = rec?;
        if !rec.accepted {
            return Err(Error::stuck(
                "GSQA halted in a non-final state; output undefined",
            ));
        }
        obs.phase_start("output scan");
        for i in 0..word.len() {
            obs.count(Counter::SelectionChecks, rec.assumed.count(i + 1) as u64);
            if let Some((at, prev, g)) = clash.filter(|&(at, ..)| at == i) {
                return Err(Error::ill_formed(
                    "GSQA output",
                    format!("two distinct outputs ({prev} and {g}) at position {at}"),
                ));
            }
        }
        obs.phase_end("output scan");
        out.into_iter()
            .enumerate()
            .map(|(i, o)| {
                o.ok_or_else(|| {
                    Error::ill_formed("GSQA output", format!("no output at position {i}"))
                })
            })
            .collect()
    }
}

/// Build the Example 3.6 GSQA over alphabet `{0, 1}` and output alphabet
/// `{0, 1, *}` (encoded 0, 1, 2): copy the input, but replace each `1` on an
/// odd position counted from the right with `*`.
pub fn example_3_6_gsqa(alphabet: &qa_base::Alphabet) -> Gsqa {
    use crate::twodfa::{Dir, TwoDfaBuilder};
    let zero = alphabet.symbol("0");
    let one = alphabet.symbol("1");
    let mut b = TwoDfaBuilder::new(alphabet.len());
    let s0 = b.add_state();
    let s1 = b.add_state();
    let s2 = b.add_state();
    b.set_initial(s0);
    b.set_final(s1, true);
    b.set_final(s2, true);
    b.set_action(s0, Tape::LeftMarker, Dir::Right, s0);
    b.set_action_all_symbols(s0, Dir::Right, s0);
    b.set_action(s0, Tape::RightMarker, Dir::Left, s1);
    b.set_action_all_symbols(s1, Dir::Left, s2);
    b.set_action_all_symbols(s2, Dir::Left, s1);
    let mut g = Gsqa::new(b.build().expect("valid machine"), 3);
    // The s0 sweep outputs nothing; the return sweep in s1/s2 visits every
    // position exactly once, emitting the final verdict.
    g.set_output(s1, zero, 0);
    g.set_output(s1, one, 2); // `*`
    g.set_output(s2, zero, 0);
    g.set_output(s2, one, 1);
    g
}

#[cfg(test)]
mod tests {
    use super::*;
    use qa_base::Alphabet;

    #[test]
    fn example_3_6_output_matches_paper() {
        let a = Alphabet::from_names(["0", "1"]);
        let g = example_3_6_gsqa(&a);
        // paper: M(⊳0110⊲) = 0*10
        let w = a.word("0110");
        assert_eq!(g.run(&w).unwrap(), vec![0, 2, 1, 0]);
    }

    #[test]
    fn every_position_gets_exactly_one_output() {
        let a = Alphabet::from_names(["0", "1"]);
        let g = example_3_6_gsqa(&a);
        for len in 0..=5usize {
            for mask in 0..(1usize << len) {
                let w: Vec<Symbol> = (0..len)
                    .map(|i| Symbol::from_index((mask >> i) & 1))
                    .collect();
                let out = g.run(&w).unwrap();
                assert_eq!(out.len(), w.len());
            }
        }
    }

    #[test]
    fn missing_output_is_reported() {
        let a = Alphabet::from_names(["0", "1"]);
        let mut g = example_3_6_gsqa(&a);
        // Break the output function: drop λ(s1, 0).
        g.output[g.machine.alphabet_len()] = None;
        let w = a.word("00");
        assert!(matches!(g.run(&w), Err(Error::IllFormed { .. })));
    }

    #[test]
    fn conflicting_output_is_reported() {
        let a = Alphabet::from_names(["0", "1"]);
        let mut g = example_3_6_gsqa(&a);
        // Make the first sweep also emit (conflicting) outputs.
        let zero = a.symbol("0");
        g.set_output(StateId::from_index(0), zero, 1);
        let w = a.word("0");
        assert!(matches!(g.run(&w), Err(Error::IllFormed { .. })));
    }
}
