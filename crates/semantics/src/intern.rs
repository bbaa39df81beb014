//! Global term/theme interning: `u32` symbols for the semantic hot path.
//!
//! Every `(Theme, String)` cache key the PVSM used to build allocated a
//! fresh `String` and cloned a `Theme` *even on a cache hit*. Interning
//! replaces those keys with copyable `(ThemeId, TermId)` pairs: the interner
//! is probed with borrowed data (`&str` / `&Theme`), so the steady state —
//! every term and theme already interned — performs zero allocations.
//!
//! The shared tables are guarded by read-locks (the workspace forbids
//! `unsafe`, so a true lock-free table is off the menu). The hot entry
//! points, [`intern_term`] and [`theme_for_tags`], answer from a
//! **per-thread front** instead: a thread-local map from the verbatim key
//! to its id, filled from the shared tables on the thread's first
//! sighting of that key. A read-lock acquire is an atomic write to
//! the lock word, so two workers probing one shared table move its cache
//! line between cores on every call; a front probe writes nothing shared.
//! Front keys are the shared tables' own `Arc`s, so a thread holds
//! pointers to the vocabulary, not copies of it.
//!
//! Ids are process-global and stable for the lifetime of the process. They
//! are never recycled; the tables only grow with the *vocabulary*, not with
//! event volume, so growth is bounded by the corpus and workload schema.
//! That is also why the fronts need no invalidation: an id a front
//! remembers can never come to mean anything else.

use crate::fxhash::FxBuildHasher;
use crate::theme::Theme;
use parking_lot::RwLock;
use std::cell::RefCell;
use std::collections::HashMap;
use std::hash::Hash;
use std::sync::{Arc, OnceLock};
use std::thread::LocalKey;

type FxMap<K, V> = HashMap<K, V, FxBuildHasher>;

/// Interned symbol for a vocabulary term (attribute name, value term, …).
///
/// Two `TermId`s are equal iff the exact strings they intern are equal (no
/// normalization is applied at interning time).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TermId(u32);

impl TermId {
    /// The raw symbol value.
    pub fn as_u32(self) -> u32 {
        self.0
    }

    /// A placeholder id for pre-zeroed cache slots (never handed out for
    /// a real term by itself — only meaningful alongside a liveness tag).
    pub(crate) const fn placeholder() -> TermId {
        TermId(0)
    }
}

/// Interned symbol for a normalized [`Theme`].
///
/// Aliased spellings of the same tag set (different order, case, or
/// whitespace) intern to the **same** `ThemeId`, because interning goes
/// through the canonical `Theme` representation. [`ThemeId::EMPTY`] is
/// reserved for the empty theme.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ThemeId(u32);

impl ThemeId {
    /// The id of the empty theme (no thematic information).
    pub const EMPTY: ThemeId = ThemeId(0);

    /// The raw symbol value.
    pub fn as_u32(self) -> u32 {
        self.0
    }

    /// Whether this is the empty theme's id.
    pub fn is_empty_theme(self) -> bool {
        self == ThemeId::EMPTY
    }
}

struct Interner {
    /// term string → id. Keys share their `Arc` with `terms` and with
    /// every thread's front; a thread reads this table only on its first
    /// sighting of a term, so one lock serves.
    term_ids: RwLock<FxMap<Arc<str>, u32>>,
    /// id → term string (index = id).
    terms: RwLock<Vec<Arc<str>>>,
    /// canonical theme → id. `Theme` hashes by its precomputed fingerprint,
    /// so probing is O(1) and allocation-free.
    theme_ids: RwLock<FxMap<Theme, u32>>,
    /// id → canonical theme (index = id). Slot 0 is the empty theme.
    themes: RwLock<Vec<Arc<Theme>>>,
    /// Verbatim tag-list → theme id, so callers holding a raw `&[String]`
    /// tag slice (events, subscriptions) skip `Theme::new`'s
    /// normalize-sort-dedup-hash work entirely on repeat sightings.
    /// `Arc<[String]>: Borrow<[String]>` makes the probe allocation-free,
    /// and the `Arc` is what every thread's front keys by.
    tag_lists: RwLock<FxMap<Arc<[String]>, u32>>,
}

/// A per-thread front over one shared table: verbatim key → id.
type Front<K> = RefCell<FxMap<Arc<K>, u32>>;

thread_local! {
    /// This thread's front over the term table.
    static TERM_FRONT: Front<str> = RefCell::new(FxMap::default());
    /// This thread's front over the tag-list table.
    static TAGS_FRONT: Front<[String]> = RefCell::new(FxMap::default());
}

/// Answers `key` from the calling thread's `front`, consulting `shared`
/// (the process-wide table, under its locks) only on this thread's first
/// sighting of `key` and remembering the answer. `shared` returns the
/// table's own `Arc` of the key, which the front then keys by.
fn fronted<K: Hash + Eq + ?Sized>(
    front: &'static LocalKey<Front<K>>,
    key: &K,
    shared: impl FnOnce(&K) -> (Arc<K>, u32),
) -> u32 {
    if let Some(id) = front.with(|f| f.borrow().get(key).copied()) {
        return id;
    }
    let (shared_key, id) = shared(key);
    front.with(|f| f.borrow_mut().insert(shared_key, id));
    id
}

fn interner() -> &'static Interner {
    static INTERNER: OnceLock<Interner> = OnceLock::new();
    INTERNER.get_or_init(|| {
        let empty = Arc::new(Theme::empty());
        let mut theme_ids = FxMap::default();
        theme_ids.insert((*empty).clone(), 0);
        Interner {
            term_ids: RwLock::new(FxMap::default()),
            terms: RwLock::new(Vec::new()),
            theme_ids: RwLock::new(theme_ids),
            themes: RwLock::new(vec![empty]),
            tag_lists: RwLock::new(FxMap::default()),
        }
    })
}

/// Interns `term`, returning its stable id. A repeat sighting on the
/// calling thread is one probe of the thread's front: no lock, no
/// allocation, no write to shared memory.
pub fn intern_term(term: &str) -> TermId {
    TermId(fronted(&TERM_FRONT, term, intern_term_shared))
}

/// The shared term table: `term`'s id and the table's `Arc` of it.
fn intern_term_shared(term: &str) -> (Arc<str>, u32) {
    let it = interner();
    if let Some((key, &id)) = it.term_ids.read().get_key_value(term) {
        return (Arc::clone(key), id);
    }
    // Miss path: allocate the key, assign the next id under the `terms`
    // write lock (double-checked under the `term_ids` write lock).
    let mut map = it.term_ids.write();
    if let Some((key, &id)) = map.get_key_value(term) {
        return (Arc::clone(key), id);
    }
    let mut terms = it.terms.write();
    let id = u32::try_from(terms.len()).expect("interner overflow: > 4 billion terms");
    let key: Arc<str> = Arc::from(term);
    terms.push(Arc::clone(&key));
    map.insert(Arc::clone(&key), id);
    (key, id)
}

/// The string a [`TermId`] was interned from.
///
/// # Panics
///
/// Panics if `id` was not produced by [`intern_term`] in this process.
pub fn resolve_term(id: TermId) -> Arc<str> {
    Arc::clone(&interner().terms.read()[id.0 as usize])
}

/// Interns a (canonical) theme, returning its stable id. Alloc-free when
/// the theme is already interned; probing hashes only the theme's
/// precomputed fingerprint.
pub fn intern_theme(theme: &Theme) -> ThemeId {
    let it = interner();
    if let Some(&id) = it.theme_ids.read().get(theme) {
        return ThemeId(id);
    }
    let mut map = it.theme_ids.write();
    if let Some(&id) = map.get(theme) {
        return ThemeId(id);
    }
    let mut themes = it.themes.write();
    let id = u32::try_from(themes.len()).expect("interner overflow: > 4 billion themes");
    themes.push(Arc::new(theme.clone()));
    map.insert(theme.clone(), id);
    ThemeId(id)
}

/// The canonical [`Theme`] a [`ThemeId`] was interned from.
///
/// # Panics
///
/// Panics if `id` was not produced by this process's interner.
pub fn resolve_theme(id: ThemeId) -> Arc<Theme> {
    Arc::clone(&interner().themes.read()[id.0 as usize])
}

/// Resolves a raw tag list (as carried by events and subscriptions) to its
/// interned theme id, building the canonical [`Theme`] only on the
/// process's first sighting of that spelling. Callers that need the
/// canonical theme itself pass the id to [`resolve_theme`].
///
/// This is the matcher's per-call entry point: the old hot path ran
/// `Theme::new(tags)` — normalize, sort, dedup, hash, allocate — for both
/// sides of *every* `match_event`. A repeat tag list on the calling thread
/// is one probe of the thread's front: no lock and no refcount.
pub fn theme_for_tags(tags: &[String]) -> ThemeId {
    ThemeId(fronted(&TAGS_FRONT, tags, theme_for_tags_shared))
}

/// The shared tag-list table: the id of `tags`' canonical theme and the
/// table's `Arc` of the verbatim list.
fn theme_for_tags_shared(tags: &[String]) -> (Arc<[String]>, u32) {
    let it = interner();
    if let Some((key, &id)) = it.tag_lists.read().get_key_value(tags) {
        return (Arc::clone(key), id);
    }
    let id = intern_theme(&Theme::new(tags)).0;
    let mut map = it.tag_lists.write();
    if let Some((key, &id)) = map.get_key_value(tags) {
        return (Arc::clone(key), id);
    }
    let key: Arc<[String]> = Arc::from(tags);
    map.insert(Arc::clone(&key), id);
    (key, id)
}

/// Number of interned terms and themes, for diagnostics: `(terms, themes)`.
pub fn interner_sizes() -> (usize, usize) {
    let it = interner();
    (it.terms.read().len(), it.themes.read().len())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::thread;

    #[test]
    fn term_ids_are_stable_and_resolve_round_trips() {
        let a = intern_term("energy consumption");
        let b = intern_term("energy consumption");
        assert_eq!(a, b);
        assert_eq!(&*resolve_term(a), "energy consumption");
        let c = intern_term("electricity usage");
        assert_ne!(a, c);
        assert_eq!(&*resolve_term(c), "electricity usage");
    }

    #[test]
    fn terms_are_not_normalized() {
        // Interning is exact: case variants are distinct symbols. (The
        // semantic layer normalizes *before* interning where it matters.)
        assert_ne!(intern_term("Parking"), intern_term("parking"));
    }

    #[test]
    fn empty_theme_has_reserved_id() {
        assert_eq!(intern_theme(&Theme::empty()), ThemeId::EMPTY);
        assert!(resolve_theme(ThemeId::EMPTY).is_empty());
        assert!(ThemeId::EMPTY.is_empty_theme());
    }

    #[test]
    fn aliased_theme_spellings_share_an_id() {
        let a = intern_theme(&Theme::new(["Energy Policy", "land transport"]));
        let b = intern_theme(&Theme::new(["land  transport", "energy policy"]));
        assert_eq!(a, b);
        assert_eq!(
            resolve_theme(a).tags(),
            &["energy policy".to_string(), "land transport".to_string()]
        );
    }

    fn strings(tags: &[&str]) -> Vec<String> {
        tags.iter().map(|t| t.to_string()).collect()
    }

    #[test]
    fn tags_front_cache_matches_canonical_interning() {
        let tags = strings(&["Air Quality", "ozone"]);
        let id1 = theme_for_tags(&tags);
        assert_eq!(id1, theme_for_tags(&tags));
        assert_eq!(
            resolve_theme(id1).tags(),
            &["air quality".to_string(), "ozone".to_string()]
        );
        // Respellings of the same set — order, case, whitespace and
        // duplicates — resolve to the same id.
        for respelled in [
            strings(&["ozone", "air quality"]),
            strings(&["OZONE", "Air  Quality"]),
            strings(&["ozone", "air quality", "Ozone", "ozone"]),
        ] {
            assert_eq!(theme_for_tags(&respelled), id1, "{respelled:?}");
        }
        assert_eq!(id1, intern_theme(&Theme::new(["ozone", "air quality"])));
    }

    #[test]
    fn fronts_key_by_the_shared_tables_own_strings() {
        let term = "front-shared term";
        let id = intern_term(term);
        let front_key = TERM_FRONT.with(|f| {
            let front = f.borrow();
            let (key, &front_id) = front.get_key_value(term).expect("front filled");
            assert_eq!(front_id, id.as_u32());
            Arc::clone(key)
        });
        assert!(Arc::ptr_eq(&front_key, &resolve_term(id)));

        let tags = strings(&["front-shared tag"]);
        theme_for_tags(&tags);
        let shared = interner().tag_lists.read();
        let (shared_key, _) = shared.get_key_value(&tags[..]).expect("shared filled");
        TAGS_FRONT.with(|f| {
            let front = f.borrow();
            let (front_key, _) = front.get_key_value(&tags[..]).expect("front filled");
            assert!(Arc::ptr_eq(front_key, shared_key));
        });
    }

    #[test]
    fn concurrent_first_sightings_agree_with_the_shared_tables() {
        // Every thread meets the same fresh vocabulary at once, through
        // its own (empty) fronts, each in its own declaration order and
        // spelling of the themes. All must agree with each other and with
        // what the shared tables hold afterwards.
        const THREADS: usize = 8;
        let words: Vec<String> = (0..48).map(|i| format!("first sighting {i}")).collect();
        let barrier = Arc::new(std::sync::Barrier::new(THREADS));
        let handles: Vec<_> = (0..THREADS)
            .map(|t| {
                let (words, barrier) = (words.clone(), Arc::clone(&barrier));
                thread::spawn(move || {
                    barrier.wait();
                    let mut order: Vec<usize> = (0..words.len()).collect();
                    order.rotate_left(t * 5 % words.len());
                    let mut terms = vec![TermId(u32::MAX); words.len()];
                    let mut themes = vec![ThemeId::EMPTY; words.len()];
                    for i in order {
                        terms[i] = intern_term(&words[i]);
                        // Spelling varies by thread: case, duplicates and
                        // order of a two-tag list.
                        let tag = if t % 2 == 0 {
                            words[i].clone()
                        } else {
                            words[i].to_uppercase()
                        };
                        let tags = if t % 3 == 0 {
                            vec![tag.clone(), "first sighting shared".into(), tag]
                        } else {
                            vec!["First Sighting Shared".into(), tag]
                        };
                        themes[i] = theme_for_tags(&tags);
                    }
                    (terms, themes)
                })
            })
            .collect();
        let results: Vec<_> = handles.into_iter().map(|h| h.join().unwrap()).collect();
        for (terms, themes) in &results {
            for (i, word) in words.iter().enumerate() {
                assert_eq!(terms[i].as_u32(), intern_term_shared(word).1);
                let canonical = Theme::new([word.as_str(), "first sighting shared"]);
                assert_eq!(themes[i], intern_theme(&canonical));
            }
        }
    }

    #[test]
    fn concurrent_interning_returns_stable_ids() {
        let words: Vec<String> = (0..64).map(|i| format!("concurrent term {i}")).collect();
        let handles: Vec<_> = (0..8)
            .map(|_| {
                let words = words.clone();
                thread::spawn(move || words.iter().map(|w| intern_term(w)).collect::<Vec<_>>())
            })
            .collect();
        let results: Vec<Vec<TermId>> = handles.into_iter().map(|h| h.join().unwrap()).collect();
        for ids in &results[1..] {
            assert_eq!(ids, &results[0], "all threads must agree on ids");
        }
        for (word, id) in words.iter().zip(&results[0]) {
            assert_eq!(&*resolve_term(*id), word.as_str());
        }
    }

    #[test]
    fn concurrent_theme_interning_is_consistent() {
        let handles: Vec<_> = (0..8)
            .map(|t| {
                thread::spawn(move || {
                    (0..32)
                        .map(|i| intern_theme(&Theme::new([format!("shared tag {i}")])))
                        .collect::<Vec<_>>()
                        // Also exercise the front cache concurrently.
                        .into_iter()
                        .chain(
                            (0..4).map(|i| theme_for_tags(&[format!("front tag {}", (t + i) % 4)])),
                        )
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        let results: Vec<Vec<ThemeId>> = handles.into_iter().map(|h| h.join().unwrap()).collect();
        for ids in &results[1..] {
            assert_eq!(ids[..32], results[0][..32]);
        }
    }
}
