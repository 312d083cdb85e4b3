//! Model-oracle property test of the packed [`KeywordSet`].
//!
//! The set is one length-prefixed buffer; the model is the
//! `BTreeSet<String>` it replaced. Random scripts of constructors and
//! mutations run against both, and every observable — iteration order,
//! membership, equality, ordering, the subset algebra, signature,
//! `Display`, and the exact byte stream fed to a `Hasher` — must agree.
//! The word universe is chosen to break a buffer `memcmp`: keywords
//! that are byte-prefixes of one another, inner spaces, multi-byte
//! UTF-8, and spellings that only normalize to the same keyword.

use std::collections::hash_map::DefaultHasher;
use std::collections::BTreeSet;
use std::hash::{Hash, Hasher};

use hyperdex_core::{Keyword, KeywordSet};
use proptest::prelude::*;

const WORDS: &[&str] = &[
    "a",
    "aa",
    "ab",
    "b",
    "a b",
    "a  b",
    "mp3",
    "MP3",
    "  Mp3 ",
    "e",
    "é",
    "éa",
    "日",
    "日本",
    "İstanbul",
    "zz",
    "z",
    "ΑΣ",
];

fn normalize(raw: &str) -> String {
    raw.trim().to_lowercase()
}

/// One step of a script. `Parse`, `FromStrs` and `FromIter` replace the
/// set; the rest mutate it.
#[derive(Debug, Clone)]
enum Op {
    Parse(Vec<usize>),
    FromStrs(Vec<usize>),
    FromIter(Vec<usize>),
    Insert(usize),
    Remove(usize),
    Extend(Vec<usize>),
}

fn op() -> impl Strategy<Value = Op> {
    (
        0u8..10,
        prop::collection::vec(0usize..WORDS.len(), 0..6),
        0usize..WORDS.len(),
    )
        .prop_map(|(tag, many, one)| match tag {
            0 => Op::Parse(many),
            1 => Op::FromStrs(many),
            2 => Op::FromIter(many),
            3..=5 => Op::Insert(one),
            6 | 7 => Op::Remove(one),
            _ => Op::Extend(many),
        })
}

fn script() -> impl Strategy<Value = Vec<Op>> {
    prop::collection::vec(op(), 0..12)
}

fn keyword(i: usize) -> Keyword {
    Keyword::new(WORDS[i]).expect("universe words are non-empty")
}

/// Applies `op` to the set and its model, checking the return values
/// that report membership.
fn apply(set: &mut KeywordSet, model: &mut BTreeSet<String>, op: &Op) {
    match op {
        Op::Parse(words) => {
            let text: Vec<&str> = words.iter().map(|&i| WORDS[i]).collect();
            let text = text.join(", ");
            *set = KeywordSet::parse(&text).expect("parse skips empty tokens");
            *model = text
                .split(|c: char| c == ',' || c.is_whitespace())
                .filter(|t| !t.trim().is_empty())
                .map(normalize)
                .collect();
        }
        Op::FromStrs(words) => {
            *set = KeywordSet::from_strs(words.iter().map(|&i| WORDS[i])).expect("non-empty words");
            *model = words.iter().map(|&i| normalize(WORDS[i])).collect();
        }
        Op::FromIter(words) => {
            *set = words.iter().map(|&i| keyword(i)).collect();
            *model = words.iter().map(|&i| normalize(WORDS[i])).collect();
        }
        Op::Insert(i) => {
            assert_eq!(
                set.insert(keyword(*i)),
                model.insert(normalize(WORDS[*i])),
                "insert({:?}) fresh/duplicate disagreement",
                WORDS[*i]
            );
        }
        Op::Remove(i) => {
            assert_eq!(
                set.remove(&keyword(*i)),
                model.remove(&normalize(WORDS[*i])),
                "remove({:?}) hit/miss disagreement",
                WORDS[*i]
            );
        }
        Op::Extend(words) => {
            set.extend(words.iter().map(|&i| keyword(i)));
            model.extend(words.iter().map(|&i| normalize(WORDS[i])));
        }
    }
}

fn hash_of(value: &impl Hash) -> u64 {
    let mut hasher = DefaultHasher::new();
    value.hash(&mut hasher);
    hasher.finish()
}

/// Everything one set shows, against its model.
fn assert_matches(set: &KeywordSet, model: &BTreeSet<String>) {
    let words: Vec<&str> = set.iter().map(|k| k.as_str()).collect();
    let expect: Vec<&str> = model.iter().map(String::as_str).collect();
    assert_eq!(words, expect, "iteration order");
    assert_eq!(set.len(), model.len());
    assert_eq!(set.iter().len(), model.len(), "exact-size iterator");
    assert_eq!(set.is_empty(), model.is_empty());
    for word in WORDS {
        assert_eq!(
            set.contains(&Keyword::new(word).expect("non-empty")),
            model.contains(&normalize(word)),
            "contains({word:?})"
        );
    }
    assert_eq!(set.to_string(), format!("{{{}}}", expect.join(", ")));
    let signature = model.iter().fold(0u64, |sig, w| {
        sig | Keyword::new(w).expect("normalized").signature_bit()
    });
    assert_eq!(set.signature(), signature);
    assert_eq!(
        hash_of(set),
        hash_of(model),
        "a hasher must see what the string set fed it"
    );
    let owned: Vec<String> = set
        .clone()
        .into_iter()
        .map(|k| k.as_str().to_owned())
        .collect();
    assert_eq!(owned, expect, "owning iteration");
    let (decoded, used) = KeywordSet::decode_packed(set.as_packed()).expect("canonical");
    assert_eq!(&decoded, set);
    assert_eq!(used, set.as_packed().len());
}

fn from_model(model: &BTreeSet<String>) -> KeywordSet {
    KeywordSet::from_strs(model).expect("model holds normalized keywords")
}

fn run(script: &[Op]) -> (KeywordSet, BTreeSet<String>) {
    let (mut set, mut model) = (KeywordSet::new(), BTreeSet::new());
    assert_matches(&set, &model);
    for op in script {
        apply(&mut set, &mut model, op);
        assert_matches(&set, &model);
    }
    (set, model)
}

proptest! {
    /// After every step of a random script the set and the model show
    /// the same keywords, counts, text and hash.
    #[test]
    fn scripts_track_the_model(ops in script()) {
        run(&ops);
    }

    /// Two independently built sets relate exactly as their models do.
    #[test]
    fn pairs_relate_as_their_models(left in script(), right in script()) {
        let (a, ma) = run(&left);
        let (b, mb) = run(&right);
        prop_assert_eq!(a == b, ma == mb);
        prop_assert_eq!(a.cmp(&b), ma.cmp(&mb));
        prop_assert_eq!(a.partial_cmp(&b), ma.partial_cmp(&mb));
        prop_assert_eq!(a.is_superset(&b), ma.is_superset(&mb));
        prop_assert_eq!(a.describes(&b), ma.is_subset(&mb));
        let difference: BTreeSet<String> = ma.difference(&mb).cloned().collect();
        assert_matches(&a.difference(&b), &difference);
        let union: BTreeSet<String> = ma.union(&mb).cloned().collect();
        assert_matches(&a.union(&b), &union);
        if a == b {
            prop_assert_eq!(hash_of(&a), hash_of(&b));
        }
        // However a set was reached, it is the set its keywords build.
        prop_assert_eq!(&a, &from_model(&ma));
    }

    /// A clone shares its original's buffer, and changing the clone
    /// never changes the original: after every step of a script run on
    /// the clone, the original still equals its model.
    #[test]
    fn mutating_a_clone_leaves_the_original(base in script(), edits in script()) {
        let (original, model) = run(&base);
        let (mut copy, mut copy_model) = (original.clone(), model.clone());
        prop_assert_eq!(copy.as_packed().as_ptr(), original.as_packed().as_ptr());
        for op in &edits {
            apply(&mut copy, &mut copy_model, op);
            assert_matches(&copy, &copy_model);
            assert_matches(&original, &model);
        }
    }
}

/// The cases where comparing the packed buffers byte by byte would give
/// a different answer than comparing the keyword sequences.
#[test]
fn ordering_is_by_keyword_not_by_buffer() {
    let set = |words: &[&str]| KeywordSet::from_strs(words).unwrap();
    // A longer first keyword: its length prefix is larger, its text
    // smaller.
    assert!(set(&["aa"]) < set(&["b"]));
    assert!(set(&["aa"]).as_packed() > set(&["b"]).as_packed());
    // More keywords: the count prefix is larger, the first keyword
    // smaller.
    assert!(set(&["a", "z"]) < set(&["b"]));
    // One keyword a byte-prefix of another.
    assert!(set(&["a"]) < set(&["a b"]));
    assert!(set(&["a b"]) < set(&["ab"]));
    // A set that is a prefix of another sorts first.
    assert!(set(&["a"]) < set(&["a", "b"]));
    assert!(KeywordSet::new() < set(&["a"]));
    // Multi-byte text orders by its UTF-8 bytes, as `str` does.
    assert!(set(&["z"]) < set(&["é"]));
    assert!(set(&["é"]) < set(&["日"]));
}

#[test]
fn limits_are_errors_not_truncation() {
    use hyperdex_core::keyword::{MAX_KEYWORDS, MAX_KEYWORD_LEN};
    use hyperdex_core::Error;

    let longest = "x".repeat(MAX_KEYWORD_LEN);
    assert_eq!(
        Keyword::new(&longest).unwrap().as_str().len(),
        MAX_KEYWORD_LEN
    );
    assert_eq!(
        Keyword::new(&"x".repeat(MAX_KEYWORD_LEN + 1)),
        Err(Error::KeywordTooLong {
            len: MAX_KEYWORD_LEN + 1
        })
    );
    // Lowercasing can lengthen: 'İ' (2 bytes) becomes "i̇" (3 bytes).
    assert!(matches!(
        Keyword::new(&"İ".repeat(MAX_KEYWORD_LEN / 2)),
        Err(Error::KeywordTooLong { .. })
    ));

    let full = KeywordSet::from_strs((0..MAX_KEYWORDS).map(|i| format!("k{i}"))).unwrap();
    assert_eq!(full.len(), MAX_KEYWORDS);
    assert_eq!(
        KeywordSet::from_strs((0..=MAX_KEYWORDS).map(|i| format!("k{i}"))),
        Err(Error::TooManyKeywords {
            count: MAX_KEYWORDS + 1
        })
    );
    // Duplicates do not count against the limit.
    let doubled = (0..MAX_KEYWORDS).chain(0..MAX_KEYWORDS);
    assert_eq!(
        KeywordSet::from_strs(doubled.map(|i| format!("k{i}"))).unwrap(),
        full
    );
    let overflow = std::panic::catch_unwind(|| {
        let mut set = full.clone();
        set.insert(Keyword::new("one-more").unwrap())
    });
    assert!(
        overflow.is_err(),
        "insert past the limit must not wrap the count"
    );
}
