//! # tep-matcher
//!
//! The approximate probabilistic **thematic event matcher** (paper §3.5)
//! and the baseline matchers it is evaluated against:
//!
//! * [`ProbabilisticMatcher`] — the paper's matcher `M`: builds a combined
//!   attribute/value [`SimilarityMatrix`] from a
//!   [`tep_semantics::SemanticMeasure`], then finds the **top-1** (most
//!   probable) or **top-k** mappings `σ` between subscription predicates
//!   and event tuples, with probability spaces `Pσ` (per-correspondence)
//!   and `P` (over mappings);
//! * [`assignment`] — a Hungarian (Kuhn–Munkres) solver for the top-1
//!   mapping and Murty's ranked-assignment algorithm for top-k;
//! * [`ExactMatcher`] — the content-based baseline (SIENA-style exact
//!   string matching, §1.2.1);
//! * [`RewritingMatcher`] — the concept-based baseline: boolean semantic
//!   matching by thesaurus query rewriting (WordNet-style, §5.1);
//!
//! Instantiate the thematic matcher by plugging a
//! [`tep_semantics::ThematicEsaMeasure`] into [`ProbabilisticMatcher`],
//! and the non-thematic baseline by plugging an
//! [`tep_semantics::EsaMeasure`].
//!
//! ```
//! use std::sync::Arc;
//! use tep_corpus::{Corpus, CorpusConfig};
//! use tep_index::InvertedIndex;
//! use tep_semantics::{DistributionalSpace, ParametricVectorSpace, ThematicEsaMeasure};
//! use tep_events::{parse_event, parse_subscription};
//! use tep_matcher::{Matcher, MatcherConfig, ProbabilisticMatcher};
//!
//! let corpus = Corpus::generate(&CorpusConfig::small());
//! let pvsm = Arc::new(ParametricVectorSpace::new(
//!     DistributionalSpace::new(InvertedIndex::build(&corpus)),
//! ));
//! let matcher = ProbabilisticMatcher::new(
//!     ThematicEsaMeasure::new(pvsm),
//!     MatcherConfig::top1(),
//! );
//!
//! let event = parse_event(
//!     "({energy policy, building energy}, {type: increased energy consumption event, device: computer})",
//! )?;
//! let subscription = parse_subscription(
//!     "({energy policy, power generation}, {type~= increased energy usage event~, device~= laptop~})",
//! )?;
//! let result = matcher.match_event(&subscription, &event);
//! assert!(result.score() > 0.0);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs, missing_debug_implementations)]

pub mod assignment;
mod baselines;
mod config;
mod explain;
mod fault;
mod mapping;
mod matcher;
mod similarity;

pub use baselines::{ExactMatcher, RewritingMatcher};
pub use config::{Combiner, MatchMode, MatcherConfig};
pub use explain::{MatchDetail, PredicateExplanation};
pub use fault::{Fault, FaultConfig, FaultInjectingMatcher};
pub use mapping::{Correspondence, Mapping, MatchResult};
pub use matcher::{DegradedMatching, Matcher, ProbabilisticMatcher};
pub use similarity::{thread_measured_tests, SimilarityMatrix};
pub use tep_semantics::{CacheStats, RelatednessDetail};
