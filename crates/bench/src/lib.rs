//! Shared workload generators and the timing harness for the benches.
//!
//! One bench target per experiment id (see DESIGN.md §5 and
//! EXPERIMENTS.md): the paper has no measured tables, so each bench
//! regenerates the *shape* of one of its algorithmic/complexity claims.
//!
//! The harness is hand-rolled (the sandbox has no crates.io access, so no
//! criterion): each measurement auto-calibrates an iteration batch, takes
//! the median over several samples, and prints one `group/name` line.

use std::time::{Duration, Instant};

use qa_base::rng::{Rng, StdRng};
use qa_base::{Alphabet, Symbol};
use qa_trees::Tree;

pub use std::hint::black_box;

/// Target wall-clock per measurement sample.
const SAMPLE_TARGET: Duration = Duration::from_millis(60);
/// Samples per benchmark (median reported).
const SAMPLES: usize = 5;

/// Minimal bench harness: median-of-samples nanoseconds per iteration.
pub struct Harness {
    group: &'static str,
}

impl Harness {
    /// Harness for one bench group; prints a header line.
    pub fn new(group: &'static str) -> Self {
        println!("# {group}");
        Harness { group }
    }

    /// Measure `f`, printing `group/name  <median> ns/iter (±spread)`.
    /// Returns the median ns/iter so callers can assert relations.
    pub fn bench<T>(&mut self, name: &str, mut f: impl FnMut() -> T) -> f64 {
        let iters = calibrate(SAMPLE_TARGET, &mut || {
            black_box(f());
        });
        let mut ns: Vec<f64> = (0..SAMPLES)
            .map(|_| {
                sample(iters, &mut || {
                    black_box(f());
                })
            })
            .collect();
        let median = median(&mut ns);
        self.report(name, median, &ns, iters);
        median
    }

    /// Measure several `rows` side by side: calibrate each row's batch
    /// once, then run `rounds` rounds that time one batch of every row,
    /// each round starting one row later, so drifting load on a shared
    /// machine hits all rows alike. Prints each row's median and returns
    /// its ns/iter per round, `out[row][round]`, for statistics that pair
    /// rows within a round.
    pub fn interleaved(
        &mut self,
        rows: &mut [(&str, &mut dyn FnMut())],
        rounds: usize,
    ) -> Vec<Vec<f64>> {
        let iters: Vec<u64> = rows
            .iter_mut()
            .map(|(_, f)| calibrate(INTERLEAVED_TARGET, *f))
            .collect();
        let mut ns = vec![Vec::with_capacity(rounds); rows.len()];
        for round in 0..rounds {
            for k in 0..rows.len() {
                let row = (round + k) % rows.len();
                ns[row].push(sample(iters[row], rows[row].1));
            }
        }
        for (row, (name, _)) in rows.iter().enumerate() {
            let mut sorted = ns[row].clone();
            let median = median(&mut sorted);
            self.report(name, median, &sorted, iters[row]);
        }
        ns
    }

    fn report(&self, name: &str, median: f64, ns: &[f64], iters: u64) {
        let (lo, hi) = ns
            .iter()
            .fold((f64::MAX, f64::MIN), |(lo, hi), &x| (lo.min(x), hi.max(x)));
        let spread = (hi - lo) / 2.0;
        println!(
            "{}/{name}  {median:.1} ns/iter (±{spread:.1}, {iters} iters/sample)",
            self.group
        );
    }
}

/// Target wall-clock per sample of an [`Harness::interleaved`] row: it
/// takes many more samples than [`Harness::bench`].
const INTERLEAVED_TARGET: Duration = Duration::from_millis(15);

/// The batch size at which one batch of `f` fills `target`.
fn calibrate(target: Duration, f: &mut dyn FnMut()) -> u64 {
    let mut iters: u64 = 1;
    loop {
        let start = Instant::now();
        for _ in 0..iters {
            f();
        }
        let dt = start.elapsed();
        if dt >= target || iters >= 1 << 24 {
            return iters;
        }
        // aim straight for the target rather than doubling blindly
        let scale = target.as_secs_f64() / dt.as_secs_f64().max(1e-9);
        iters = (iters as f64 * scale.clamp(1.5, 16.0)).ceil() as u64;
    }
}

/// ns/iter of one batch of `iters` calls.
fn sample(iters: u64, f: &mut dyn FnMut()) -> f64 {
    let start = Instant::now();
    for _ in 0..iters {
        f();
    }
    start.elapsed().as_secs_f64() * 1e9 / iters as f64
}

/// The median of `xs` (the upper one of an even count); sorts `xs`.
pub fn median(xs: &mut [f64]) -> f64 {
    xs.sort_by(f64::total_cmp);
    xs[xs.len() / 2]
}

/// A bibliography document with `k` copies of the Figure 1 entries.
pub fn bibliography_of_size(k: usize) -> String {
    let book = r#"<book><author>S. Abiteboul</author><author>R. Hull</author><author>V. Vianu</author><title>Foundations of Databases</title><publisher>Addison-Wesley</publisher><year>1995</year></book>"#;
    let article = r#"<article><author>E. Codd</author><title>A Relational Model</title><journal>CACM</journal><year>1970</year></article>"#;
    let mut s = String::from("<bibliography>");
    for _ in 0..k {
        s.push_str(book);
        s.push_str(article);
    }
    s.push_str("</bibliography>");
    s
}

/// The `{0,1}` alphabet shared by the string/unranked benches.
pub fn binary_alphabet() -> Alphabet {
    Alphabet::from_names(["0", "1"])
}

/// The circuit alphabet of Examples 4.2/5.9.
pub fn circuit_alphabet() -> Alphabet {
    Alphabet::from_names(["AND", "OR", "0", "1"])
}

/// A random unranked tree with `n` nodes over `{0,1}`.
pub fn random_binary_labeled(n: usize, seed: u64) -> Tree {
    let mut rng = StdRng::seed_from_u64(seed);
    qa_trees::generate::random(
        &mut rng,
        &[Symbol::from_index(0), Symbol::from_index(1)],
        n,
        None,
    )
}

/// A random full binary circuit with ~`inner` gates.
pub fn random_circuit(inner: usize, seed: u64) -> Tree {
    let a = circuit_alphabet();
    let mut rng = StdRng::seed_from_u64(seed);
    qa_trees::generate::random_full_binary(
        &mut rng,
        &[a.symbol("AND"), a.symbol("OR")],
        &[a.symbol("0"), a.symbol("1")],
        inner,
    )
}

/// A random word of length `n` over `{0,1}`.
pub fn random_word(n: usize, seed: u64) -> Vec<Symbol> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n)
        .map(|_| Symbol::from_index(rng.gen_range(0..2)))
        .collect()
}

/// A chain-shaped `Nbtau` with `k` states whose witness is a `k`-node
/// chain — the Lemma 5.2 scaling family.
pub fn chain_nbtau(k: usize) -> qa_core::unranked::Nbtau {
    use qa_strings::Regex;
    let mut n = qa_core::unranked::Nbtau::new(1);
    let states: Vec<_> = (0..k).map(|_| n.add_state()).collect();
    n.set_final(states[k - 1], true);
    let x = Symbol::from_index(0);
    n.set_language(states[0], x, Regex::Epsilon.to_nfa(k))
        .unwrap();
    for i in 1..k {
        n.set_language(
            states[i],
            x,
            Regex::Sym(Symbol::from_index(states[i - 1].index())).to_nfa(k),
        )
        .unwrap();
    }
    n
}
