//! # tep — Thematic Event Processing
//!
//! A Rust implementation of *Thematic Event Processing* (Hasan & Curry,
//! ACM Middleware 2014): approximate semantic publish/subscribe where
//! events and subscriptions carry **theme tags** that parametrize a
//! distributional vector space, loosening the *semantic* coupling
//! dimension of event-based systems.
//!
//! This facade re-exports the whole stack:
//!
//! | Module | Crate | Contents |
//! |--------|-------|----------|
//! | [`thesaurus`] | `tep-thesaurus` | EuroVoc-like multi-domain thesaurus |
//! | [`corpus`] | `tep-corpus` | synthetic ESA corpus generator |
//! | [`index`] | `tep-index` | tokenizer, inverted index, TF/IDF (Eqs. 2–4) |
//! | [`semantics`] | `tep-semantics` | distributional space, PVSM, thematic projection (Alg. 1) |
//! | [`events`] | `tep-events` | event model, `~` subscription language |
//! | [`matcher`] | `tep-matcher` | probabilistic top-1/top-k matcher + baselines |
//! | [`broker`] | `tep-broker` | worker-pool pub/sub middleware |
//! | [`cep`] | `tep-cep` | complex-event patterns over uncertain matches |
//!
//! ## Quickstart
//!
//! ```
//! use tep::prelude::*;
//! use std::sync::Arc;
//!
//! // 1. Build the distributional substrate (in production: a large
//! //    corpus; here: the small built-in synthetic one).
//! let corpus = Corpus::generate(&CorpusConfig::small());
//! let pvsm = Arc::new(ParametricVectorSpace::new(DistributionalSpace::new(
//!     InvertedIndex::build(&corpus),
//! )));
//!
//! // 2. A thematic matcher.
//! let matcher = ProbabilisticMatcher::new(
//!     ThematicEsaMeasure::new(pvsm),
//!     MatcherConfig::top1(),
//! );
//!
//! // 3. Match a heterogeneous event against an approximate subscription.
//! let event = parse_event(
//!     "({energy policy, building energy}, \
//!      {type: increased energy consumption event, device: computer, office: room 112})",
//! )?;
//! let subscription = parse_subscription(
//!     "({energy policy, power generation}, \
//!      {type~= increased energy usage event~, device~= laptop~, office= room 112})",
//! )?;
//! let result = matcher.match_event(&subscription, &event);
//! assert!(result.score() > 0.0);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use tep_broker as broker;
pub use tep_cep as cep;
pub use tep_corpus as corpus;
pub use tep_events as events;
pub use tep_index as index;
pub use tep_matcher as matcher;
pub use tep_semantics as semantics;
pub use tep_thesaurus as thesaurus;

/// The most commonly used items, importable in one line.
pub mod prelude {
    pub use tep_broker::{
        render_explanations_json, render_quality_json, render_spans_json, serve, span_tree,
        BreakerConfig, Broker, BrokerConfig, BrokerError, BrokerStats, CacheTemperature, CostEntry,
        CostReport, DeadLetter, DiagnosticFrame, DriftAlert, DriftKind, FlightRecorder,
        HistogramSnapshot, LoadState, MatchExplanation, MatchOutcome, MetricsRegistry,
        Notification, OverloadConfig, PublishOptions, PublishPolicy, QualityOracle, QualityReport,
        RecorderConfig, RecorderSettings, RoutingPolicy, ScrapeHandlers, ScrapeServer, ShedReason,
        SpanNode, SpanRecord, StageLatencies, SubscribeOptions, SubscriberPolicy, WindowedDelta,
        DEFAULT_COST_SAMPLE_EVERY,
    };
    pub use tep_cep::{CepEngine, Detection, Pattern, Timestamped};
    pub use tep_corpus::{Corpus, CorpusConfig, CorpusGenerator};
    pub use tep_events::{
        parse_event, parse_subscription, ComparisonOp, Event, Predicate, Subscription, Tuple,
    };
    pub use tep_index::{InvertedIndex, Tokenizer};
    pub use tep_matcher::{
        Combiner, DegradedMatching, ExactMatcher, Fault, FaultConfig, FaultInjectingMatcher,
        MatchDetail, MatchMode, MatchResult, Matcher, MatcherConfig, PredicateExplanation,
        ProbabilisticMatcher, RewritingMatcher,
    };
    pub use tep_semantics::{
        CacheStats, DistributionalSpace, EsaMeasure, ParametricVectorSpace, RelatednessDetail,
        SemanticMeasure, ThematicEsaMeasure, Theme,
    };
    pub use tep_thesaurus::{Domain, Term, Thesaurus};
}
