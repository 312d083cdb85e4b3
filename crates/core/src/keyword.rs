//! Keyword and keyword-set value types.
//!
//! §2.2: every object `σ` carries a set `K_σ` of keywords; a set `K`
//! *describes* `σ` when `K ⊆ K_σ`. Keywords here are normalized
//! (trimmed, lowercased) so that `"MP3"` and `"mp3"` hash to the same
//! bit position.
//!
//! A [`KeywordSet`] is one contiguous, shared, immutable buffer — its
//! keywords sorted, deduplicated and length-prefixed — and that buffer
//! is also the set's wire form (`DESIGN.md` §11), so an index entry
//! costs one allocation, a clone is a reference-count increment, and a
//! frame codec copies the buffer whole.

use std::borrow::Borrow;
use std::cmp::Ordering;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::sync::Arc;

use serde::{Deserialize, Serialize};

use crate::error::Error;

/// Longest normalized keyword, in bytes: the packed form prefixes each
/// keyword with a `u16` length.
pub const MAX_KEYWORD_LEN: usize = u16::MAX as usize;

/// Most keywords one set may hold: the packed form opens with a `u16`
/// count.
pub const MAX_KEYWORDS: usize = u16::MAX as usize;

/// A single normalized keyword: non-empty, trimmed, lowercase, at most
/// [`MAX_KEYWORD_LEN`] bytes. The owned construction type; a
/// [`KeywordSet`] hands its members out as borrowed [`KeywordRef`]s.
///
/// # Example
///
/// ```
/// use hyperdex_core::Keyword;
///
/// let k = Keyword::new("  MP3 ")?;
/// assert_eq!(k.view().as_str(), "mp3");
/// assert!(Keyword::new("   ").is_err());
/// # Ok::<(), hyperdex_core::Error>(())
/// ```
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
#[serde(transparent)]
pub struct Keyword(String);

impl Keyword {
    /// Normalizes and validates a keyword.
    ///
    /// # Errors
    ///
    /// Returns [`Error::EmptyKeyword`] when the input is empty or
    /// whitespace-only, and [`Error::KeywordTooLong`] when the
    /// normalized text exceeds [`MAX_KEYWORD_LEN`] bytes.
    pub fn new(raw: &str) -> Result<Self, Error> {
        let normalized = raw.trim().to_lowercase();
        if normalized.is_empty() {
            Err(Error::EmptyKeyword)
        } else if normalized.len() > MAX_KEYWORD_LEN {
            Err(Error::KeywordTooLong {
                len: normalized.len(),
            })
        } else {
            Ok(Keyword(normalized))
        }
    }

    /// The normalized text as bytes (hash input).
    pub fn as_bytes(&self) -> &[u8] {
        self.0.as_bytes()
    }

    /// The borrowed view of this keyword — what [`KeywordSet`]
    /// iteration yields and the hashers take.
    pub fn view(&self) -> KeywordRef<'_> {
        KeywordRef(self.0.as_bytes())
    }
}

/// FNV-1a over `bytes` (64-bit offset basis / prime). Local so the
/// signature needs no hasher state and no external dependency.
fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// Whether [`Keyword::new`] would return `text` unchanged: non-empty,
/// nothing to trim, every character its own lowercase.
fn is_normalized(text: &str) -> bool {
    !text.is_empty()
        && text.trim().len() == text.len()
        && text.chars().all(|c| {
            if c.is_ascii() {
                !c.is_ascii_uppercase()
            } else {
                let mut lower = c.to_lowercase();
                lower.next() == Some(c) && lower.next().is_none()
            }
        })
}

/// Lets maps keyed by `Keyword` be probed with a [`KeywordRef`]'s text
/// (`Keyword` hashes and orders exactly as its `str`).
impl Borrow<str> for Keyword {
    fn borrow(&self) -> &str {
        &self.0
    }
}

impl std::str::FromStr for Keyword {
    type Err = Error;

    fn from_str(s: &str) -> Result<Self, Error> {
        Keyword::new(s)
    }
}

/// A keyword borrowed from a [`KeywordSet`]'s buffer (or from a
/// [`Keyword`], via [`Keyword::view`]): the same normalized text, no
/// allocation.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct KeywordRef<'a>(&'a [u8]);

impl<'a> KeywordRef<'a> {
    /// The normalized text.
    pub fn as_str(self) -> &'a str {
        std::str::from_utf8(self.0).expect("keyword bytes were validated as UTF-8 on entry")
    }

    /// The normalized text as bytes (hash input).
    pub fn as_bytes(self) -> &'a [u8] {
        self.0
    }

    /// The keyword's one bit of a set's signature: bit `h % 64` of
    /// the FNV-1a hash `h` of its normalized bytes.
    pub fn signature_bit(self) -> u64 {
        1 << (fnv1a64(self.0) % 64)
    }

    /// An owned copy.
    pub fn to_keyword(self) -> Keyword {
        Keyword(self.as_str().to_owned())
    }
}

impl fmt::Debug for KeywordRef<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_tuple("Keyword").field(&self.as_str()).finish()
    }
}

impl fmt::Display for KeywordRef<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// Why [`KeywordSet::decode_packed`] did not adopt a buffer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PackedError {
    /// The buffer ends inside the set.
    Truncated {
        /// How many more bytes the field being read needed.
        needed: usize,
        /// How many bytes were left for it.
        have: usize,
    },
    /// A keyword's bytes are not valid UTF-8.
    BadUtf8,
    /// Well-formed, but not the canonical form: a keyword is empty,
    /// untrimmed or not lowercase, or the keywords are not strictly
    /// ascending. Normalizing each keyword through [`Keyword::new`]
    /// and collecting still yields the set the sender meant.
    NotCanonical,
}

/// A set of keywords — `K_σ` for an object, or a query set `K`.
///
/// Stored packed: `[n: u16]([len: u16][utf-8])*`, little-endian,
/// keywords strictly ascending by their bytes. Equal sets have equal
/// buffers; ordering compares keyword by keyword (the order of a
/// sorted set of strings, *not* a `memcmp` of the buffers, whose
/// length prefixes would sort `"b"` before `"aa"`).
///
/// # Example
///
/// ```
/// use hyperdex_core::KeywordSet;
///
/// let k_obj = KeywordSet::parse("ISP, telecommunication, network, download")?;
/// let query = KeywordSet::parse("network, isp")?;
/// assert!(k_obj.is_superset(&query));    // query ⊆ K_σ: it describes σ
/// assert_eq!(k_obj.len(), 4);
/// # Ok::<(), hyperdex_core::Error>(())
/// ```
// Invariant: empty for the empty set (so `new` allocates nothing),
// otherwise exactly the canonical packed form with `n ≥ 1`. A buffer is
// never written once built: `insert`/`remove` pack a fresh one, so a
// clone never sees its original change.
#[derive(Clone, PartialEq, Eq, Default, Serialize, Deserialize)]
#[serde(try_from = "Vec<String>", into = "Vec<String>")]
pub struct KeywordSet(Arc<[u8]>);

/// The packed form of the empty set.
const EMPTY_PACKED: [u8; 2] = [0, 0];

/// Keywords a set is built from are buffered on the stack up to this
/// many — more than a generated record holds — so building such a set
/// allocates its buffer and nothing else.
const INLINE_VIEWS: usize = 32;

/// Writes a packed buffer front to back.
struct Packer<'a>(&'a mut [u8]);

impl Packer<'_> {
    fn put(&mut self, bytes: &[u8]) {
        let (head, rest) = std::mem::take(&mut self.0).split_at_mut(bytes.len());
        head.copy_from_slice(bytes);
        self.0 = rest;
    }

    /// One packed entry: the keyword's length, then its bytes.
    fn entry(&mut self, keyword: &[u8]) {
        let len = u16::try_from(keyword.len()).expect("keywords are at most MAX_KEYWORD_LEN bytes");
        self.put(&len.to_le_bytes());
        self.put(keyword);
    }
}

/// A shared buffer of exactly `len` bytes, written by `fill` before
/// anyone else can see it. `repeat_n` reports its exact length, so the
/// collect allocates the block once, at its final size.
fn packed(len: usize, fill: impl FnOnce(&mut Packer<'_>)) -> Arc<[u8]> {
    let mut buf: Arc<[u8]> = std::iter::repeat_n(0, len).collect();
    let mut packer = Packer(Arc::get_mut(&mut buf).expect("a fresh buffer is unshared"));
    fill(&mut packer);
    debug_assert!(packer.0.is_empty(), "packed size computed exactly");
    buf
}

impl KeywordSet {
    /// The empty keyword set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Parses a comma- or whitespace-separated list of keywords.
    ///
    /// Duplicates collapse. An empty input yields an empty set.
    ///
    /// # Errors
    ///
    /// Never fails on separator-only input (empty tokens are skipped).
    /// Returns [`Error::KeywordTooLong`] / [`Error::TooManyKeywords`]
    /// past the packed form's limits.
    pub fn parse(raw: &str) -> Result<Self, Error> {
        Self::from_strs(
            raw.split(|c: char| c == ',' || c.is_whitespace())
                .filter(|token| !token.trim().is_empty()),
        )
    }

    /// Builds a set from anything iterable as string slices.
    ///
    /// # Errors
    ///
    /// Returns [`Error::EmptyKeyword`] if any item normalizes to empty,
    /// [`Error::KeywordTooLong`] if one exceeds [`MAX_KEYWORD_LEN`]
    /// bytes, and [`Error::TooManyKeywords`] for more than
    /// [`MAX_KEYWORDS`] distinct keywords.
    pub fn from_strs<I, S>(items: I) -> Result<Self, Error>
    where
        I: IntoIterator<Item = S>,
        S: AsRef<str>,
    {
        let keywords = items
            .into_iter()
            .map(|item| Keyword::new(item.as_ref()))
            .collect::<Result<Vec<_>, _>>()?;
        Self::from_views(keywords.iter().map(Keyword::view))
    }

    /// Sorts and deduplicates `keywords`, then packs them. Up to
    /// [`INLINE_VIEWS`] of them are sorted on the stack.
    fn from_views<'a>(keywords: impl IntoIterator<Item = KeywordRef<'a>>) -> Result<Self, Error> {
        let mut inline = [KeywordRef(&[]); INLINE_VIEWS];
        let mut spilled = Vec::new();
        let mut count = 0;
        for k in keywords {
            if count < INLINE_VIEWS {
                inline[count] = k;
            } else {
                if spilled.is_empty() {
                    spilled.extend_from_slice(&inline);
                }
                spilled.push(k);
            }
            count += 1;
        }
        let views = if count <= INLINE_VIEWS {
            &mut inline[..count]
        } else {
            &mut spilled[..]
        };
        let mut distinct = views.len();
        if !views.windows(2).all(|w| w[0] < w[1]) {
            views.sort_unstable();
            // A slice has no `dedup`: keep each run's first view.
            distinct = 0;
            for i in 0..views.len() {
                if distinct == 0 || views[distinct - 1] != views[i] {
                    views[distinct] = views[i];
                    distinct += 1;
                }
            }
        }
        Self::pack(views[..distinct].iter().map(|k| k.0))
    }

    /// Packs strictly ascending, validated keywords into one
    /// exactly-sized buffer.
    fn pack<'a>(keywords: impl Iterator<Item = &'a [u8]> + Clone) -> Result<Self, Error> {
        let (count, text) = keywords
            .clone()
            .fold((0usize, 0usize), |(n, bytes), k| (n + 1, bytes + k.len()));
        if count == 0 {
            return Ok(KeywordSet::default());
        }
        let n = u16::try_from(count).map_err(|_| Error::TooManyKeywords { count })?;
        Ok(KeywordSet(packed(2 + 2 * count + text, |buf| {
            buf.put(&n.to_le_bytes());
            for k in keywords {
                buf.entry(k);
            }
        })))
    }

    /// The packed form: `[n: u16]([len: u16][utf-8])*`, little-endian,
    /// keywords strictly ascending. This is the set's wire encoding.
    pub fn as_packed(&self) -> &[u8] {
        if self.0.is_empty() {
            &EMPTY_PACKED
        } else {
            &self.0
        }
    }

    /// Reads one packed set off the front of `buf`, returning it with
    /// the number of bytes it spans. A canonical buffer is validated in
    /// one pass and adopted with one copy.
    ///
    /// # Errors
    ///
    /// [`PackedError::Truncated`] / [`PackedError::BadUtf8`] for a
    /// malformed buffer, reported at the first offending field;
    /// [`PackedError::NotCanonical`] for a well-formed one that must be
    /// normalized keyword by keyword instead.
    pub fn decode_packed(buf: &[u8]) -> Result<(KeywordSet, usize), PackedError> {
        fn take<'b>(buf: &'b [u8], pos: &mut usize, n: usize) -> Result<&'b [u8], PackedError> {
            let have = buf.len() - *pos;
            if have < n {
                return Err(PackedError::Truncated {
                    needed: n - have,
                    have,
                });
            }
            let out = &buf[*pos..*pos + n];
            *pos += n;
            Ok(out)
        }
        fn take_u16(buf: &[u8], pos: &mut usize) -> Result<usize, PackedError> {
            let b = take(buf, pos, 2)?;
            Ok(usize::from(u16::from_le_bytes([b[0], b[1]])))
        }

        let mut pos = 0;
        let n = take_u16(buf, &mut pos)?;
        // Keywords are non-empty, so the empty slice sorts below all.
        let mut prev: &[u8] = &[];
        for _ in 0..n {
            let len = take_u16(buf, &mut pos)?;
            let bytes = take(buf, &mut pos, len)?;
            let text = std::str::from_utf8(bytes).map_err(|_| PackedError::BadUtf8)?;
            if !is_normalized(text) || prev >= bytes {
                return Err(PackedError::NotCanonical);
            }
            prev = bytes;
        }
        let set = if n == 0 {
            KeywordSet::default()
        } else {
            KeywordSet(buf[..pos].into())
        };
        Ok((set, pos))
    }

    /// Bytes of this set's packed buffer — 0 for the empty set, which
    /// has none. The buffer is shared by every clone, so these are
    /// bytes the set references, not bytes it alone owns.
    pub fn heap_bytes(&self) -> usize {
        self.0.len()
    }

    /// Where `needle` sits in the packed buffer: `Ok` with the byte
    /// range of its entry (length prefix included), or `Err` with the
    /// offset it would be inserted at.
    fn locate(&self, needle: &[u8]) -> Result<std::ops::Range<usize>, usize> {
        let mut pos = EMPTY_PACKED.len();
        for k in self.iter() {
            let end = pos + 2 + k.0.len();
            match k.0.cmp(needle) {
                Ordering::Less => pos = end,
                Ordering::Equal => return Ok(pos..end),
                Ordering::Greater => break,
            }
        }
        Err(pos)
    }

    /// Adds a keyword. Returns `false` if it was already present.
    ///
    /// # Panics
    ///
    /// Panics if the set already holds [`MAX_KEYWORDS`] keywords.
    pub fn insert(&mut self, keyword: Keyword) -> bool {
        let Err(at) = self.locate(keyword.as_bytes()) else {
            return false;
        };
        let count = self.len() + 1;
        let n =
            u16::try_from(count).unwrap_or_else(|_| panic!("{}", Error::TooManyKeywords { count }));
        let old = self.as_packed();
        let text = keyword.as_bytes();
        self.0 = packed(old.len() + 2 + text.len(), |buf| {
            buf.put(&n.to_le_bytes());
            buf.put(&old[2..at]);
            buf.entry(text);
            buf.put(&old[at..]);
        });
        true
    }

    /// Number of keywords.
    pub fn len(&self) -> usize {
        let packed = self.as_packed();
        usize::from(u16::from_le_bytes([packed[0], packed[1]]))
    }

    /// Whether the set is empty.
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    /// Whether `self` is a superset of `other`: one merge pass over the
    /// two sorted buffers.
    pub fn is_superset(&self, other: &KeywordSet) -> bool {
        if other.len() > self.len() {
            return false;
        }
        let mut mine = self.iter();
        other.iter().all(|want| {
            mine.find(|have| have.0 >= want.0)
                .is_some_and(|have| have.0 == want.0)
        })
    }

    /// The keywords in `self` but not in `other` — the "extra" keywords
    /// the ranking mechanism groups by.
    pub fn difference(&self, other: &KeywordSet) -> KeywordSet {
        let mut theirs = other.iter().peekable();
        let kept: Vec<&[u8]> = self
            .iter()
            .map(KeywordRef::as_bytes)
            .filter(|&mine| {
                while theirs.next_if(|t| t.0 < mine).is_some() {}
                theirs.peek().is_none_or(|t| t.0 != mine)
            })
            .collect();
        Self::pack(kept.iter().copied()).expect("a subset of a valid set is within the limits")
    }

    /// The union of two sets.
    ///
    /// # Panics
    ///
    /// Panics if the union holds more than [`MAX_KEYWORDS`] keywords.
    pub fn union(&self, other: &KeywordSet) -> KeywordSet {
        let (mut a, mut b) = (self.iter().peekable(), other.iter().peekable());
        let mut merged: Vec<&[u8]> = Vec::with_capacity(self.len() + other.len());
        loop {
            let next = match (a.peek(), b.peek()) {
                (Some(x), Some(y)) => match x.0.cmp(y.0) {
                    Ordering::Less => a.next(),
                    Ordering::Greater => b.next(),
                    Ordering::Equal => {
                        b.next();
                        a.next()
                    }
                },
                (Some(_), None) => a.next(),
                (None, _) => b.next(),
            };
            match next {
                Some(k) => merged.push(k.0),
                None => break,
            }
        }
        Self::pack(merged.iter().copied()).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Iterates over keywords in sorted order.
    pub fn iter(&self) -> Iter<'_> {
        Iter {
            rest: self.0.get(2..).unwrap_or_default(),
            remaining: self.len(),
        }
    }

    /// A 64-bit Bloom-style signature: the OR of every member's
    /// [`KeywordRef::signature_bit`].
    ///
    /// Subset-preserving: `K ⊆ K'` implies
    /// `K.signature() & K'.signature() == K.signature()`, so a failed
    /// mask test proves `K ⊄ K'` and a superset scan may skip the
    /// string comparison. Distinct keywords can collide on a bit
    /// (64 positions), so a *passing* test over-matches and must be
    /// confirmed by [`KeywordSet::is_superset`]. The empty set's
    /// signature is `0`.
    pub fn signature(&self) -> u64 {
        self.iter().fold(0, |sig, k| sig | k.signature_bit())
    }
}

/// Iterator over the keywords of a [`KeywordSet`] in sorted order.
#[derive(Debug, Clone)]
pub struct Iter<'a> {
    /// The packed entries not yet yielded.
    rest: &'a [u8],
    remaining: usize,
}

impl<'a> Iterator for Iter<'a> {
    type Item = KeywordRef<'a>;

    fn next(&mut self) -> Option<KeywordRef<'a>> {
        let (len, rest) = self.rest.split_first_chunk::<2>()?;
        let (keyword, rest) = rest.split_at(usize::from(u16::from_le_bytes(*len)));
        self.rest = rest;
        self.remaining -= 1;
        Some(KeywordRef(keyword))
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        (self.remaining, Some(self.remaining))
    }
}

impl ExactSizeIterator for Iter<'_> {}

impl<'a> IntoIterator for &'a KeywordSet {
    type Item = KeywordRef<'a>;
    type IntoIter = Iter<'a>;

    fn into_iter(self) -> Iter<'a> {
        self.iter()
    }
}

/// # Panics
///
/// Collecting more than [`MAX_KEYWORDS`] distinct keywords panics.
impl FromIterator<Keyword> for KeywordSet {
    fn from_iter<I: IntoIterator<Item = Keyword>>(iter: I) -> Self {
        let keywords: Vec<Keyword> = iter.into_iter().collect();
        keywords.iter().map(Keyword::view).collect()
    }
}

/// Collects keywords borrowed from other sets — a subset or a mix —
/// copying bytes only into the new buffer.
///
/// # Panics
///
/// Collecting more than [`MAX_KEYWORDS`] distinct keywords panics.
impl<'a> FromIterator<KeywordRef<'a>> for KeywordSet {
    fn from_iter<I: IntoIterator<Item = KeywordRef<'a>>>(iter: I) -> Self {
        Self::from_views(iter).unwrap_or_else(|e| panic!("{e}"))
    }
}

/// Keyword by keyword, a shorter prefix first — the order of the
/// sorted string set each buffer packs.
impl Ord for KeywordSet {
    fn cmp(&self, other: &Self) -> Ordering {
        self.iter().cmp(other.iter())
    }
}

impl PartialOrd for KeywordSet {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// Feeds a hasher what a sorted set of strings feeds it — the count,
/// then each keyword as a `str` — so hash-derived decisions (the
/// result cache's doorkeeper cells) do not depend on the packing.
impl Hash for KeywordSet {
    fn hash<H: Hasher>(&self, state: &mut H) {
        state.write_usize(self.len());
        for k in self {
            state.write(k.0);
            state.write_u8(0xff);
        }
    }
}

impl TryFrom<Vec<String>> for KeywordSet {
    type Error = Error;

    fn try_from(items: Vec<String>) -> Result<Self, Error> {
        Self::from_strs(items)
    }
}

impl From<KeywordSet> for Vec<String> {
    fn from(set: KeywordSet) -> Vec<String> {
        set.iter().map(|k| k.as_str().to_owned()).collect()
    }
}

impl fmt::Debug for KeywordSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("KeywordSet(")?;
        f.debug_set().entries(self.iter()).finish()?;
        f.write_str(")")
    }
}

impl fmt::Display for KeywordSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{{")?;
        for (i, k) in self.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{k}")?;
        }
        write!(f, "}}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn keyword_normalizes() {
        assert_eq!(Keyword::new(" TVBS ").unwrap().0, "tvbs");
        assert_eq!(Keyword::new("News").unwrap().0, "news");
    }

    #[test]
    fn keyword_rejects_empty() {
        assert_eq!(Keyword::new(""), Err(Error::EmptyKeyword));
        assert_eq!(Keyword::new("  \t "), Err(Error::EmptyKeyword));
    }

    #[test]
    fn keyword_from_str_trait() {
        let k: Keyword = "Jazz".parse().unwrap();
        assert_eq!(k.0, "jazz");
    }

    #[test]
    fn parse_table1_record() {
        // Table 1, record 11: "ISP, telecommunication, network, download".
        let set = KeywordSet::parse("ISP, telecommunication, network, download").unwrap();
        assert_eq!(set.len(), 4);
        assert!(set.locate(b"isp").is_ok());
        assert!(set.locate(b"download").is_ok());
    }

    #[test]
    fn parse_handles_mixed_separators_and_duplicates() {
        let set = KeywordSet::parse("a b, c,,  a\tb").unwrap();
        assert_eq!(set.len(), 3);
    }

    #[test]
    fn parse_empty_gives_empty_set() {
        assert!(KeywordSet::parse("").unwrap().is_empty());
        assert!(KeywordSet::parse(" , ,, ").unwrap().is_empty());
    }

    #[test]
    fn a_query_describes_its_supersets() {
        let k_obj = KeywordSet::parse("tvbs news").unwrap();
        assert!(k_obj.is_superset(&KeywordSet::parse("news").unwrap()));
        assert!(k_obj.is_superset(&KeywordSet::parse("tvbs news").unwrap()));
        assert!(!k_obj.is_superset(&KeywordSet::parse("cnn").unwrap()));
        assert!(
            k_obj.is_superset(&KeywordSet::new()),
            "empty set describes all"
        );
    }

    #[test]
    fn difference_extracts_extras() {
        let k_obj = KeywordSet::parse("jazz piano 1959").unwrap();
        let query = KeywordSet::parse("jazz").unwrap();
        let extra = k_obj.difference(&query);
        assert_eq!(extra, KeywordSet::parse("piano 1959").unwrap());
    }

    #[test]
    fn union_combines() {
        let a = KeywordSet::parse("a b").unwrap();
        let b = KeywordSet::parse("b c").unwrap();
        assert_eq!(a.union(&b), KeywordSet::parse("a b c").unwrap());
    }

    #[test]
    fn canonical_equality_ignores_order() {
        let a = KeywordSet::parse("x y z").unwrap();
        let b = KeywordSet::parse("z x y").unwrap();
        assert_eq!(a, b);
        assert_eq!(
            a.iter().map(KeywordRef::as_str).collect::<Vec<_>>(),
            vec!["x", "y", "z"],
            "iteration is sorted"
        );
    }

    #[test]
    fn insert_reports_duplicates() {
        let mut set = KeywordSet::new();
        let k = Keyword::new("solo").unwrap();
        assert!(set.insert(k.clone()));
        assert!(!set.insert(k.clone()), "duplicate");
        assert_eq!(set.len(), 1);
    }

    #[test]
    fn display_formats() {
        let set = KeywordSet::parse("b a").unwrap();
        assert_eq!(set.to_string(), "{a, b}");
        assert_eq!(KeywordSet::new().to_string(), "{}");
    }

    #[test]
    fn from_strs_propagates_error() {
        assert!(KeywordSet::from_strs(["ok", " "]).is_err());
        assert_eq!(KeywordSet::from_strs(["A", "a"]).unwrap().len(), 1);
    }

    #[test]
    fn signature_bit_is_one_hot_and_case_insensitive() {
        let k = Keyword::new("MP3").unwrap();
        assert_eq!(k.view().signature_bit().count_ones(), 1);
        assert_eq!(
            k.view().signature_bit(),
            Keyword::new("mp3").unwrap().view().signature_bit()
        );
        assert_eq!(
            k.view().signature_bit(),
            k.view().signature_bit(),
            "deterministic"
        );
    }

    #[test]
    fn signature_is_subset_preserving() {
        let superset = KeywordSet::parse("isp telecommunication network download").unwrap();
        let subset = KeywordSet::parse("network isp").unwrap();
        let (s, q) = (superset.signature(), subset.signature());
        assert_eq!(q & s, q, "subset signature must be covered");
        assert_eq!(KeywordSet::new().signature(), 0);
    }

    #[test]
    fn signature_rejects_disjoint_sets_somewhere() {
        // With 200 distinct keywords over 64 bits, singleton queries
        // must find at least one set whose signature rejects them.
        let sets: Vec<KeywordSet> = (0..200)
            .map(|i| KeywordSet::from_strs([format!("kw{i}")]).unwrap())
            .collect();
        let q = sets[0].signature();
        assert!(
            sets.iter().skip(1).any(|s| q & s.signature() != q),
            "signature never rejected anything"
        );
    }
}
