//! The plain (non-thematic) distributional vector space of §3.1.

use crate::intern::{intern_term, resolve_term, TermId};
use crate::shard::{CacheStats, ShardedCache};
use crate::sparse::SparseVector;
use std::sync::Arc;
use tep_index::{InvertedIndex, Tokenizer};

/// Bound on memoized normalized term vectors.
const TERM_CACHE_CAPACITY: usize = 1 << 16;

/// The ESA-style distributional vector space (paper §3.1, Fig. 5 steps
/// 1–2): each word is a TF/IDF-weighted vector of documents, a multi-word
/// term is the sum of its word vectors, and relatedness between terms is
/// `1 / (1 + euclidean_distance)` (Eqs. 5–6).
///
/// This type alone implements the *non-thematic approximate* approach the
/// paper baselines against (its prior work \[16\]); the thematic extension
/// lives in [`crate::ParametricVectorSpace`].
#[derive(Debug, Clone)]
pub struct DistributionalSpace {
    index: Arc<InvertedIndex>,
    tokenizer: Tokenizer,
    /// Memoized unit-norm term vectors, keyed by interned [`TermId`] so a
    /// warm probe allocates nothing; shared across clones so the PVSM and
    /// the non-thematic measure reuse one table.
    normalized_cache: Arc<ShardedCache<TermId, Arc<SparseVector>>>,
}

impl DistributionalSpace {
    /// Wraps a built inverted index.
    pub fn new(index: InvertedIndex) -> DistributionalSpace {
        DistributionalSpace {
            index: Arc::new(index),
            tokenizer: Tokenizer::default(),
            normalized_cache: Arc::new(ShardedCache::new(16, TERM_CACHE_CAPACITY)),
        }
    }

    /// Wraps a shared inverted index with a custom query tokenizer.
    pub fn with_tokenizer(index: Arc<InvertedIndex>, tokenizer: Tokenizer) -> DistributionalSpace {
        DistributionalSpace {
            index,
            tokenizer,
            normalized_cache: Arc::new(ShardedCache::new(16, TERM_CACHE_CAPACITY)),
        }
    }

    /// The underlying inverted index.
    pub fn index(&self) -> &InvertedIndex {
        &self.index
    }

    /// Shared handle to the underlying index.
    pub fn index_arc(&self) -> Arc<InvertedIndex> {
        Arc::clone(&self.index)
    }

    /// The full-space vector of a single word (empty if unindexed).
    pub fn word_vector(&self, word: &str) -> SparseVector {
        match self.index.word_id(word) {
            None => SparseVector::zero(),
            Some(wid) => SparseVector::from_sorted(
                self.index
                    .postings(wid)
                    .iter()
                    .map(|p| (p.doc, p.weight))
                    .collect(),
            ),
        }
    }

    /// The full-space vector of a (possibly multi-word) term: the sum of
    /// its word vectors. Unknown words contribute nothing; a term with no
    /// indexed word yields the zero vector.
    pub fn term_vector(&self, term: &str) -> SparseVector {
        let mut acc = SparseVector::zero();
        for word in self.tokenizer.tokenize(term) {
            let wv = self.word_vector(&word);
            if !wv.is_zero() {
                acc = acc.add(&wv);
            }
        }
        acc
    }

    /// Non-thematic semantic relatedness between two terms: Eq. 6 over
    /// **unit-normalized** term vectors.
    ///
    /// Normalization makes the measure rank by vector overlap rather than
    /// magnitude (see [`crate::ParametricVectorSpace::relatedness`]).
    /// Equal terms score `1.0`; a term with a zero vector (unknown to the
    /// corpus) scores `0.0` against any distinct term.
    pub fn relatedness(&self, a: &str, b: &str) -> f64 {
        if a == b {
            return 1.0;
        }
        let va = self.term_vector_normalized(a);
        let vb = self.term_vector_normalized(b);
        if va.is_zero() || vb.is_zero() {
            return 0.0;
        }
        relatedness_from_distance(va.euclidean_distance(&vb))
    }

    /// The memoized unit-norm vector of `term` (zero stays zero). This is
    /// the hot path of the non-thematic measure; the memo table is shared
    /// by clones of this space.
    pub fn term_vector_normalized(&self, term: &str) -> Arc<SparseVector> {
        let id = intern_term(term);
        self.normalized_cache
            .get_or_insert_with(&id, || Arc::new(self.term_vector(term).normalized()))
    }

    /// Interned-key variant of [`Self::term_vector_normalized`].
    pub fn term_vector_normalized_id(&self, term: TermId) -> Arc<SparseVector> {
        self.normalized_cache.get_or_insert_with(&term, || {
            Arc::new(self.term_vector(&resolve_term(term)).normalized())
        })
    }

    /// Precomputes and pins the normalized vector of `term` so cache
    /// rotation never evicts it; pins are refcounted — release with
    /// [`Self::unpin_term`].
    pub fn pin_term(&self, term: &str) -> TermId {
        let id = intern_term(term);
        self.normalized_cache
            .pin_with(&id, || Arc::new(self.term_vector(term).normalized()));
        id
    }

    /// Releases one [`Self::pin_term`] pin.
    pub fn unpin_term(&self, term: &str) {
        self.normalized_cache.unpin(&intern_term(term));
    }

    /// Hit / miss / eviction counters for the term-vector cache.
    pub fn cache_stats(&self) -> CacheStats {
        self.normalized_cache.stats()
    }

    /// The query tokenizer.
    pub fn tokenizer(&self) -> &Tokenizer {
        &self.tokenizer
    }
}

/// Eq. 6: `relatedness = 1 / (distance + 1)`.
pub(crate) fn relatedness_from_distance(distance: f64) -> f64 {
    1.0 / (distance + 1.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use tep_corpus::{Corpus, CorpusConfig};

    fn space() -> DistributionalSpace {
        let corpus = Corpus::generate(&CorpusConfig::small());
        DistributionalSpace::new(InvertedIndex::build(&corpus))
    }

    #[test]
    fn word_vector_support_is_document_frequency() {
        let s = space();
        let wid = s.index().word_id("energy").unwrap();
        assert_eq!(
            s.word_vector("energy").nnz(),
            s.index().document_frequency(wid)
        );
    }

    #[test]
    fn unknown_word_is_zero_vector() {
        let s = space();
        assert!(s.word_vector("zzzzunknown").is_zero());
        assert!(s.term_vector("zzzz yyyy").is_zero());
    }

    #[test]
    fn term_vector_sums_word_vectors() {
        let s = space();
        let combined = s.term_vector("energy consumption");
        let manual = s.word_vector("energy").add(&s.word_vector("consumption"));
        assert_eq!(combined, manual);
    }

    #[test]
    fn identical_terms_have_relatedness_one() {
        let s = space();
        assert!((s.relatedness("parking", "parking") - 1.0).abs() < 1e-12);
    }

    #[test]
    fn synonyms_beat_cross_domain_terms() {
        let s = space();
        // 'energy consumption' / 'electricity usage' are synonyms in the
        // generator's thesaurus; 'zebra crossing' is transport.
        let syn = s.relatedness("energy consumption", "electricity usage");
        let far = s.relatedness("energy consumption", "zebra crossing");
        assert!(
            syn > far,
            "expected synonym relatedness {syn} > cross-domain {far}"
        );
    }

    #[test]
    fn relatedness_is_symmetric_and_bounded() {
        let s = space();
        let ab = s.relatedness("parking", "garage");
        let ba = s.relatedness("garage", "parking");
        assert!((ab - ba).abs() < 1e-12);
        assert!(ab > 0.0 && ab <= 1.0);
    }

    #[test]
    fn eq6_shape() {
        assert_eq!(relatedness_from_distance(0.0), 1.0);
        assert!(relatedness_from_distance(1.0) == 0.5);
        assert!(relatedness_from_distance(99.0) < 0.02);
    }
}
