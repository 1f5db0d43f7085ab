//! Tag synonym dictionary and spelling correction.

/// Groups of mutually-synonymous tags: common bibliographic / document
/// vocabulary (what a search UI over DBLP/XMark-style data ships with).
const GROUPS: [&[&str]; 10] = [
    &["author", "writer", "creator"],
    &["title", "name", "heading"],
    &["year", "date"],
    &["article", "paper"],
    &["book", "monograph"],
    &["publisher", "press"],
    &["increase", "cost", "amount"],
    &["s", "sentence"],
    &["person", "people", "user"],
    &["item", "product"],
];

/// Synonyms of `tag`, in group order (none if it is in no group).
pub(crate) fn synonyms(tag: &str) -> impl Iterator<Item = &'static str> + '_ {
    GROUPS
        .iter()
        .filter(move |group| group.contains(&tag))
        .flat_map(|group| group.iter().copied())
        .filter(move |&other| other != tag)
}

/// Levenshtein edit distance (classic DP, O(|a|·|b|)).
pub fn edit_distance(a: &str, b: &str) -> usize {
    let a: Vec<char> = a.chars().collect();
    let b: Vec<char> = b.chars().collect();
    let mut prev: Vec<usize> = (0..=b.len()).collect();
    let mut cur = vec![0usize; b.len() + 1];
    for (i, ca) in a.iter().enumerate() {
        cur[0] = i + 1;
        for (j, cb) in b.iter().enumerate() {
            let cost = usize::from(ca != cb);
            cur[j + 1] = (prev[j] + cost).min(prev[j + 1] + 1).min(cur[j] + 1);
        }
        std::mem::swap(&mut prev, &mut cur);
    }
    prev[b.len()]
}

/// Document tags within edit distance ≤ `max_distance` of `tag`, nearest
/// first (then most frequent).
pub fn spelling_candidates<'a>(
    tag: &str,
    document_tags: impl Iterator<Item = (&'a str, usize)>,
    max_distance: usize,
) -> Vec<(String, usize)> {
    let mut out: Vec<(String, usize, usize)> = document_tags
        .filter(|(t, _)| *t != tag)
        .filter_map(|(t, freq)| {
            // Cheap length pre-filter before the DP.
            if t.len().abs_diff(tag.len()) > max_distance {
                return None;
            }
            let d = edit_distance(tag, t);
            (d <= max_distance).then(|| (t.to_string(), d, freq))
        })
        .collect();
    out.sort_by(|a, b| a.1.cmp(&b.1).then(b.2.cmp(&a.2)).then(a.0.cmp(&b.0)));
    out.into_iter().map(|(t, d, _)| (t, d)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn synonym_groups_are_symmetric() {
        assert!(synonyms("author").any(|s| s == "writer"));
        assert!(synonyms("writer").any(|s| s == "author"));
        assert_eq!(
            synonyms("writer").collect::<Vec<_>>(),
            ["author", "creator"]
        );
        assert_eq!(synonyms("unknown").count(), 0);
    }

    #[test]
    fn edit_distance_basics() {
        assert_eq!(edit_distance("", ""), 0);
        assert_eq!(edit_distance("abc", "abc"), 0);
        assert_eq!(edit_distance("abc", "abd"), 1);
        assert_eq!(edit_distance("artcle", "article"), 1);
        assert_eq!(edit_distance("kitten", "sitting"), 3);
        assert_eq!(edit_distance("", "xyz"), 3);
    }

    #[test]
    fn spelling_candidates_rank_by_distance_then_frequency() {
        let tags = [
            ("article", 100usize),
            ("artcle2", 3),
            ("title", 50),
            ("artie", 2),
        ];
        let cands = spelling_candidates("artcle", tags.iter().map(|(t, f)| (*t, *f)), 2);
        assert_eq!(cands[0].0, "article");
        assert_eq!(cands[0].1, 1);
        assert!(!cands.iter().any(|(t, _)| t == "title"));
    }

    #[test]
    fn spelling_excludes_identical_tag() {
        let tags = [("book", 10usize)];
        assert!(spelling_candidates("book", tags.iter().map(|(t, f)| (*t, *f)), 2).is_empty());
    }
}
