//! A set of node ids as a two-level bitset, the shape of every node list
//! the [capacity index](crate::CapacityIndex) keeps.
//!
//! One `u64` word holds 64 ids (`id / 64` is the word, `id % 64` the
//! bit), and one summary word flags 64 words (bit `w % 64` of summary
//! word `w / 64` is set while word `w` is non-empty). Insert and remove
//! touch one word and one summary bit, so they cost the same at 10 nodes
//! and at 100k; iteration runs in ascending id order by
//! `trailing_zeros` and skips empty words through the summary. A
//! 12.5k-id set takes 196 words plus 4 summary words, about 1.6 KB.

/// Ids of the set bits of one word, ascending.
struct Bits(u64);

impl Iterator for Bits {
    type Item = usize;

    fn next(&mut self) -> Option<usize> {
        if self.0 == 0 {
            return None;
        }
        let bit = self.0.trailing_zeros() as usize;
        self.0 &= self.0 - 1;
        Some(bit)
    }
}

/// A set of `u32` node ids. See the [module docs](self).
#[derive(Debug, Clone, Default)]
pub(crate) struct NodeSet {
    words: Vec<u64>,
    summary: Vec<u64>,
}

impl NodeSet {
    /// Adds `id`, growing the set to cover it.
    pub(crate) fn insert(&mut self, id: u32) {
        let w = id as usize / 64;
        if self.words.len() <= w {
            self.words.resize(w + 1, 0);
            self.summary.resize(w / 64 + 1, 0);
        }
        self.words[w] |= 1 << (id % 64);
        self.summary[w / 64] |= 1 << (w % 64);
    }

    /// Removes `id`; a no-op when it is absent.
    pub(crate) fn remove(&mut self, id: u32) {
        let w = id as usize / 64;
        let Some(word) = self.words.get_mut(w) else {
            return;
        };
        *word &= !(1 << (id % 64));
        if *word == 0 {
            self.summary[w / 64] &= !(1 << (w % 64));
        }
    }

    /// Whether `id` is in the set (read by the index's debug oracle).
    #[cfg(any(test, debug_assertions))]
    pub(crate) fn contains(&self, id: u32) -> bool {
        self.word(id as usize / 64) & (1 << (id % 64)) != 0
    }

    /// Word `w` of the set (0 past its end).
    pub(crate) fn word(&self, w: usize) -> u64 {
        self.words.get(w).copied().unwrap_or(0)
    }

    /// The ids, ascending.
    pub(crate) fn iter(&self) -> impl Iterator<Item = u32> + '_ {
        nonempty_words(std::iter::once(self))
            .flat_map(|w| Bits(self.words[w]).map(move |b| (w * 64 + b) as u32))
    }
}

/// Appends to `out`, ascending, the ids set in `word(w)`, visiting only
/// the words `w` that are non-empty in at least one of `sets`. `word`
/// combines the words of `sets` (an OR, possibly masked), so a word all
/// of `sets` leave empty can hold nothing.
pub(crate) fn collect_words<'a>(
    sets: impl Iterator<Item = &'a NodeSet> + Clone + 'a,
    word: impl Fn(usize) -> u64,
    out: &mut Vec<u32>,
) {
    for w in nonempty_words(sets) {
        out.extend(Bits(word(w)).map(|b| (w * 64 + b) as u32));
    }
}

/// Indices of the words non-empty in at least one of `sets`, ascending.
fn nonempty_words<'a>(
    sets: impl Iterator<Item = &'a NodeSet> + Clone + 'a,
) -> impl Iterator<Item = usize> + 'a {
    let len = sets.clone().map(|s| s.summary.len()).max().unwrap_or(0);
    (0..len).flat_map(move |s| {
        let flags = sets
            .clone()
            .fold(0, |acc, set| acc | set.summary.get(s).copied().unwrap_or(0));
        Bits(flags).map(move |b| s * 64 + b)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn set_of(ids: &[u32]) -> NodeSet {
        let mut set = NodeSet::default();
        for &id in ids {
            set.insert(id);
        }
        set
    }

    #[test]
    fn word_and_summary_boundaries_round_trip() {
        let ids = [0, 63, 64, 127, 4095, 4096, 4097, 262_143, 262_144];
        let mut set = set_of(&ids);
        assert!(set.iter().eq(ids.iter().copied()));
        for &id in &ids {
            assert!(set.contains(id), "{id} inserted");
        }
        for id in [1, 62, 65, 4094, 4098, 262_145, u32::MAX] {
            assert!(!set.contains(id), "{id} never inserted");
        }
        set.remove(64);
        set.remove(4095);
        assert!(set.iter().eq([0, 63, 127, 4096, 4097, 262_143, 262_144]));
        // emptying a word clears its summary bit: word 63 (ids 4032..4096)
        // is skipped, and so is the whole first summary word once its last
        // words empty out
        for id in [0, 63, 127] {
            set.remove(id);
        }
        assert_eq!(set.summary[0], 0);
        assert!(set.iter().eq([4096, 4097, 262_143, 262_144]));
    }

    #[test]
    fn growth_and_absent_removal() {
        let mut set = NodeSet::default();
        // removing from an empty set, or past its end, is a no-op
        set.remove(5);
        set.remove(1_000_000);
        assert_eq!(set.iter().count(), 0);
        set.insert(3);
        assert_eq!((set.words.len(), set.summary.len()), (1, 1));
        // growth past capacity covers the new id and keeps the old ones
        set.insert(10_000);
        assert_eq!((set.words.len(), set.summary.len()), (157, 3));
        set.remove(4);
        set.remove(9_999);
        assert!(set.iter().eq([3, 10_000]));
        // re-inserting a member changes nothing
        set.insert(3);
        assert!(set.iter().eq([3, 10_000]));
    }

    #[test]
    fn iteration_is_ascending_against_a_sorted_list() {
        // a fixed LCG walk over ids straddling several summary words
        let mut x = 0x9e37_79b9_u64;
        let mut set = NodeSet::default();
        let mut brute = std::collections::BTreeSet::new();
        for _ in 0..4_000 {
            x = x.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1);
            let id = (x >> 33) as u32 % 9_000;
            if x >> 61 < 5 {
                set.insert(id);
                brute.insert(id);
            } else {
                set.remove(id);
                brute.remove(&id);
            }
        }
        assert!(set.iter().eq(brute.iter().copied()));
    }

    #[test]
    fn collect_words_unions_in_ascending_order() {
        let a = set_of(&[1, 64, 5_000]);
        let b = set_of(&[0, 64, 65, 9_000]);
        let mut out = vec![42];
        collect_words([&a, &b].into_iter(), |w| a.word(w) | b.word(w), &mut out);
        assert_eq!(out, [42, 0, 1, 64, 65, 5_000, 9_000]);
        // a masked combination emits only what the mask keeps
        out.clear();
        collect_words([&a, &b].into_iter(), |w| a.word(w) & b.word(w), &mut out);
        assert_eq!(out, [64]);
    }
}
