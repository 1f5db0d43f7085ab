//! `rank_top_k` is `rank()` cut at `k` — bindings and score bits — on
//! seeded random documents × random twigs (the differential generator of
//! `lotusx-twig`'s tests), for the boundary `k`s.

#[path = "../../twig/tests/random_inputs/mod.rs"]
mod random_inputs;

use lotusx_datagen::rng::XorShiftRng;
use lotusx_rank::Ranker;
use lotusx_twig::exec::{execute, Algorithm};

#[test]
fn top_k_equals_the_full_ranking_truncated() {
    let mut rng = XorShiftRng::seed_from_u64(0x70BC);
    let (mut ranked_rows, mut tied_cases) = (0, 0);
    for case in 0..96 {
        let (idx, pattern) = random_inputs::random_case(&mut rng);
        let matches = execute(&idx, &pattern, Algorithm::Auto);
        let ranker = Ranker::new(&idx);
        let full = ranker.rank(&pattern, &matches);
        assert_eq!(full.len(), matches.len(), "case {case}");
        ranked_rows += full.len();
        tied_cases += usize::from(full.windows(2).any(|w| w[0].score == w[1].score));
        for k in [0, 1, 10, matches.len() + 1] {
            let expect = &full[..k.min(full.len())];
            let got = ranker.rank_top_k(&pattern, &matches, k);
            assert_eq!(got, expect, "case {case}: {pattern} k={k}");
        }
    }
    assert!(
        ranked_rows > 500,
        "the cases must produce matches: {ranked_rows}"
    );
    assert!(
        tied_cases > 10,
        "score ties exercise the tie-break: {tied_cases}"
    );
}
