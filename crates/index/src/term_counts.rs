//! Value-completion counts, the one structure every value candidate list
//! is read from.
//!
//! A prefix is a contiguous range of ranks in the value index's sorted
//! term dictionary ([`ValueIndex::prefix_range`]). Two lists of
//! `(term rank, count)` pairs, sorted by rank, are kept over it:
//!
//! * **per tag** — for each tag symbol, how often each term occurs in the
//!   direct text of its elements (attributes excluded), counted during
//!   the value index's own pass; stored in the `TAG_TERMS` section;
//! * **document-wide** — each term's document frequency, derived from
//!   the value index at build and at load, never stored.
//!
//! [`TermCounts::top_k`] answers both: the `k` best entries of a rank
//! range, skipping every 64-entry block whose maximum cannot enter.
//! Lists are keyed by tag here and nowhere else, so a finer key (a guide
//! node) would change this module alone.

use crate::value_index::ValueIndex;
use crate::wire::{corrupt, put_varint, rd_len, rd_varint, StorageError};
use lotusx_xml::Symbol;
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::ops::Range;

/// Entries per block of a count list: the unit [`TermCounts::top_k`]
/// skips by its stored maximum.
const BLOCK: usize = 64;

/// A count list with the maximum of each [`BLOCK`]-entry block.
#[derive(Clone, Debug, PartialEq, Eq)]
struct Blocked {
    counts: Vec<u32>,
    maxima: Vec<u32>,
}

impl Blocked {
    fn new(counts: Vec<u32>) -> Self {
        let maxima = counts
            .chunks(BLOCK)
            .map(|block| block.iter().copied().max().unwrap_or(0))
            .collect();
        Blocked { counts, maxima }
    }

    /// The `k` best positions of `span` as `(position, count)`, by count
    /// descending, then position ascending. Entries are read in position
    /// order, so once `k` are held an entry enters only with a count
    /// above the worst held one, and a block whose maximum is not above
    /// it is skipped; so is any block below `bar` (see below). `tick(n)`
    /// is charged for every entry and block maximum read; when it returns
    /// true the scan stops where it is.
    fn top_k(
        &self,
        span: Range<usize>,
        k: usize,
        tick: &mut impl FnMut(u64) -> bool,
    ) -> Vec<(usize, u32)> {
        if k == 0 {
            return Vec::new();
        }
        // On a span of more than `k` whole blocks, the `k` largest of
        // their maxima each stand for an entry at least that large, so no
        // block below the smallest of them (`bar`) can reach the top k:
        // they are skipped before the heap has filled.
        let whole = span.start.div_ceil(BLOCK)..span.end / BLOCK;
        let mut bar = 0;
        if whole.len() > k {
            if tick(whole.len() as u64) {
                return Vec::new();
            }
            let mut maxima = self.maxima[whole].to_vec();
            bar = *maxima.select_nth_unstable_by(k - 1, |a, b| b.cmp(a)).1;
        }
        // The worst held entry is the heap's top: lowest count, then
        // highest position.
        let mut best = BinaryHeap::with_capacity(k.min(span.len()));
        let mut at = span.start;
        while at < span.end {
            if best.len() == k || bar > 0 {
                // Read maxima up to the first block that can enter.
                let cut = match best.peek() {
                    Some(&Reverse((floor, _))) if best.len() == k => u64::from(floor) + 1,
                    _ => 0,
                };
                let blocks = &self.maxima[at / BLOCK..=(span.end - 1) / BLOCK];
                let cut = cut.max(u64::from(bar));
                let skipped = blocks.iter().take_while(|&&m| u64::from(m) < cut).count();
                if tick(blocks.len().min(skipped + 1) as u64) || skipped == blocks.len() {
                    break;
                }
                at = at.max((at / BLOCK + skipped) * BLOCK);
            }
            let end = ((at / BLOCK + 1) * BLOCK).min(span.end);
            if tick((end - at) as u64) {
                break;
            }
            for (i, &count) in self.counts[at..end].iter().enumerate() {
                let entry = Reverse((count, Reverse(at + i)));
                if best.len() < k {
                    best.push(entry);
                } else if let Some(mut worst) = best.peek_mut() {
                    if count > worst.0 .0 {
                        *worst = entry;
                    }
                }
            }
            at = end;
        }
        best.into_sorted_vec()
            .into_iter()
            .map(|Reverse((count, Reverse(i)))| (i, count))
            .collect()
    }
}

/// The per-tag and document-wide term counts of one document.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TermCounts {
    /// Tag symbol `t`'s list is `offsets[t]..offsets[t + 1]` of `ranks`
    /// and `tagged`.
    offsets: Vec<u32>,
    /// Term ranks, strictly increasing within each tag's list.
    ranks: Vec<u32>,
    /// Occurrences of each listed term in its tag's direct text.
    tagged: Blocked,
    /// Document frequency per term rank.
    df: Blocked,
}

impl TermCounts {
    /// Assembles the counts from `(tag, term rank, count)` triples sorted
    /// by tag, then rank, for a document of `tag_count` tag symbols.
    pub(crate) fn from_sorted(
        tag_count: usize,
        triples: &[(u32, u32, u32)],
        values: &ValueIndex,
    ) -> Self {
        let mut offsets = vec![0u32; tag_count + 1];
        for &(tag, _, _) in triples {
            offsets[tag as usize + 1] += 1;
        }
        for t in 0..tag_count {
            offsets[t + 1] += offsets[t];
        }
        TermCounts {
            offsets,
            ranks: triples.iter().map(|t| t.1).collect(),
            tagged: Blocked::new(triples.iter().map(|t| t.2).collect()),
            df: Self::df(values),
        }
    }

    fn df(values: &ValueIndex) -> Blocked {
        Blocked::new(values.terms().map(|(_, df)| df as u32).collect())
    }

    /// The `k` terms with ranks in `ranks` that occur most often — in the
    /// direct text of `tag`'s elements, or, for `None`, in the most
    /// content elements — as `(term rank, count)`, by count descending,
    /// then rank ascending. `tick` is charged as by a budget guard and
    /// stops the scan early when it returns true.
    pub fn top_k(
        &self,
        tag: Option<Symbol>,
        ranks: Range<usize>,
        k: usize,
        mut tick: impl FnMut(u64) -> bool,
    ) -> Vec<(u32, u64)> {
        // A tag's list holds positions; the document-wide one, ranks.
        let (list, span) = match tag {
            None => (&self.df, ranks),
            Some(tag) => {
                let Some(run) = self.offsets.get(tag.index()..tag.index() + 2) else {
                    return Vec::new();
                };
                let start = run[0] as usize;
                let run = &self.ranks[start..run[1] as usize];
                let at = |rank: usize| start + run.partition_point(|&r| (r as usize) < rank);
                (&self.tagged, at(ranks.start)..at(ranks.end))
            }
        };
        list.top_k(span, k, &mut tick)
            .into_iter()
            .map(|(i, count)| (tag.map_or(i as u32, |_| self.ranks[i]), u64::from(count)))
            .collect()
    }

    /// Heap bytes held, by capacity.
    pub fn size_bytes(&self) -> usize {
        [
            &self.offsets,
            &self.ranks,
            &self.tagged.counts,
            &self.tagged.maxima,
            &self.df.counts,
            &self.df.maxima,
        ]
        .iter()
        .map(|v| v.capacity() * 4)
        .sum()
    }

    /// Serializes the per-tag lists for the snapshot `TAG_TERMS`
    /// section: the entry total, then each non-empty list as its tag, its
    /// length and `(rank gap, count)` varint pairs (the first gap from 0).
    pub(crate) fn encode(&self, out: &mut Vec<u8>) {
        put_varint(out, self.ranks.len() as u64);
        let lists = (0..self.offsets.len() - 1).filter(|&t| self.offsets[t] < self.offsets[t + 1]);
        put_varint(out, lists.clone().count() as u64);
        for t in lists {
            let run = self.offsets[t] as usize..self.offsets[t + 1] as usize;
            put_varint(out, t as u64);
            put_varint(out, run.len() as u64);
            let mut prev = 0;
            for i in run {
                put_varint(out, u64::from(self.ranks[i] - prev));
                put_varint(out, u64::from(self.tagged.counts[i]));
                prev = self.ranks[i];
            }
        }
    }

    /// Reads what [`encode`](Self::encode) wrote. Tags must increase and
    /// lie below `tag_count`, ranks must strictly increase within a list
    /// and lie below the term count of `values`, counts must be positive.
    pub(crate) fn decode(
        data: &[u8],
        pos: &mut usize,
        tag_count: usize,
        values: &ValueIndex,
    ) -> Result<Self, StorageError> {
        // Every entry takes at least two bytes.
        let total = rd_len(data, pos, "tag-terms entry count")?;
        if total > data.len() / 2 {
            return Err(corrupt("tag-terms entry count"));
        }
        let mut triples = Vec::with_capacity(total);
        let lists = rd_len(data, pos, "tag-terms list count")?;
        let mut next_tag = 0;
        for _ in 0..lists {
            let tag = rd_len(data, pos, "tag-terms tag")?;
            if tag < next_tag || tag >= tag_count {
                return Err(corrupt("tag-terms tag out of range"));
            }
            next_tag = tag + 1;
            let len = rd_len(data, pos, "tag-terms list length")?;
            if len > total - triples.len() {
                return Err(corrupt("tag-terms entry count"));
            }
            let mut rank = 0u64;
            for i in 0..len {
                let gap = rd_varint(data, pos, "tag-terms rank")?;
                if i > 0 && gap == 0 {
                    return Err(corrupt("tag-terms ranks not increasing"));
                }
                rank = rank.saturating_add(gap);
                if rank >= values.term_count() as u64 {
                    return Err(corrupt("tag-terms rank out of range"));
                }
                let count = rd_varint(data, pos, "tag-terms count")?;
                if count == 0 || count > u64::from(u32::MAX) {
                    return Err(corrupt("tag-terms count out of range"));
                }
                triples.push((tag as u32, rank as u32, count as u32));
            }
        }
        if triples.len() != total {
            return Err(corrupt("tag-terms entry count"));
        }
        Ok(Self::from_sorted(tag_count, &triples, values))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `top_k` against sorting the whole span, on lists long enough to
    /// skip blocks, for every k up to past the span.
    #[test]
    fn block_skipping_top_k_equals_a_full_sort() {
        let counts: Vec<u32> = (0..1000u32)
            .map(|i| (i * 7919 + 13) % 23 * (i % 7))
            .collect();
        let list = Blocked::new(counts.clone());
        for span in [0..1000, 5..990, 130..900, 64..128, 70..71, 40..40] {
            let mut want: Vec<(usize, u32)> = span.clone().map(|i| (i, counts[i])).collect();
            want.sort_by_key(|&(i, c)| (Reverse(c), i));
            for k in [0, 1, 3, 10, 64, 65, 2000] {
                let mut reads = 0;
                let got = list.top_k(span.clone(), k, &mut |n| {
                    reads += n;
                    false
                });
                assert_eq!(got, want[..k.min(want.len())], "span {span:?} k {k}");
                assert!(reads <= (span.len() + 2 * (span.len() / 64 + 2)) as u64);
            }
        }
    }
}
