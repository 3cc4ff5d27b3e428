//! E3 (Figure 6 / Theorem 5.17): unranked unary-query evaluation — the
//! two-pass algorithm on the implicit FCNS encoding is linear, naive
//! quadratic; the hand-built Example 5.14 SQAu run is linear too, with a
//! bigger constant from the cut engine.

use qa_bench::Harness;

fn main() {
    let mut h = Harness::new("e3_fig6_unranked_eval");
    let sigma = qa_bench::binary_alphabet();
    let mut a = sigma.clone();
    let phi = qa_mso::parse(
        "label(v, 1) & leaf(v) & !(ex w. (w < v & label(w, 1)))",
        &mut a,
    )
    .unwrap();
    let d = qa_mso::unranked::compile_unary(&phi, "v", 2).unwrap();
    let sqa = qa_core::unranked::query::example_5_14(&sigma);

    for n in [50usize, 200, 800] {
        let t = qa_bench::random_binary_labeled(n, 7 + n as u64);
        h.bench(&format!("fig6_two_pass/{n}"), || {
            qa_mso::query_eval::eval_unary_unranked(&d, &t, 2).len()
        });
        h.bench(&format!("sqau_run/{n}"), || sqa.query(&t).unwrap().len());
        if n <= 200 {
            h.bench(&format!("naive_per_node/{n}"), || {
                qa_mso::query_eval::eval_unary_unranked_naive(&d, &t, 2).len()
            });
        }
    }
}
