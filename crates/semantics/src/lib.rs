//! # tep-semantics
//!
//! The distributional-semantics layer of thematic event processing:
//!
//! * [`SparseVector`] — sorted sparse document vectors with merge-based
//!   arithmetic;
//! * [`DistributionalSpace`] — the plain (non-thematic) ESA vector space of
//!   paper §3.1: a term is the TF/IDF-weighted vector of the documents it
//!   occurs in, and relatedness is `1 / (1 + euclidean_distance)`
//!   (Eqs. 5–6);
//! * [`Theme`] — a normalized set of theme tags;
//! * [`ParametricVectorSpace`] — the paper's §4 contribution: before
//!   distances are measured, term vectors are **projected** onto the
//!   sub-basis of documents selected by a theme (Algorithm 1), with idf
//!   recomputed over that sub-basis;
//! * [`SemanticMeasure`] — the `sm : T × 2^TH × T × 2^TH → [0,1]` function
//!   abstraction, with thematic, non-thematic, cached and precomputed
//!   implementations.
//!
//! ```
//! use tep_corpus::{Corpus, CorpusConfig};
//! use tep_index::InvertedIndex;
//! use tep_semantics::{DistributionalSpace, ParametricVectorSpace, SemanticMeasure, Theme};
//!
//! let corpus = Corpus::generate(&CorpusConfig::small());
//! let space = DistributionalSpace::new(InvertedIndex::build(&corpus));
//! let pvsm = ParametricVectorSpace::new(space);
//!
//! let energy = Theme::new(["energy policy"]);
//! let sim = pvsm.relatedness("energy consumption", &energy, "electricity usage", &energy);
//! let dif = pvsm.relatedness("energy consumption", &energy, "zebra crossing", &energy);
//! assert!(sim > dif);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs, missing_debug_implementations)]

pub mod fxhash;
pub mod intern;
mod measure;
mod projection;
mod pvsm;
mod shard;
mod space;
mod sparse;
mod theme;

pub use fxhash::{fx_hash64, FxBuildHasher, FxHasher};
pub use intern::{
    intern_term, intern_theme, resolve_term, resolve_theme, theme_for_tags, TermId, ThemeId,
};
pub use measure::{
    CachedMeasure, EsaMeasure, PrecomputedMeasure, RelatednessDetail, SemanticMeasure,
    ThematicEsaMeasure,
};
pub use projection::ThemeBasis;
pub use pvsm::{ParametricVectorSpace, PvsmCacheStats};
pub use shard::{thread_miss_count, CacheStats, ShardedCache};
pub use space::DistributionalSpace;
pub use sparse::SparseVector;
pub use theme::Theme;
