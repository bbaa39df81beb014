//! Match explainability: why each subscription × event test was accepted
//! or rejected, with the semantic evidence behind the decision.
//!
//! When [`crate::BrokerConfig::explain_capacity`] is non-zero the broker
//! keeps the newest explanations in a bounded ring
//! ([`crate::Broker::explain_last`]); individual subscribers can also opt
//! in per subscription ([`crate::SubscribeOptions::explain`]) to have the
//! explanation attached to each delivered [`crate::Notification`].
//! Explanations are computed *after* the match test from its result — the
//! matcher is never re-run and an unexplained broker pays only a branch.

use crate::broker::SubscriptionId;
use serde::Serialize;
use tep_matcher::{MatchDetail, PredicateExplanation, RelatednessDetail};
use tep_obs::json_document;

/// How a match test's semantic work was served, mirroring the three-way
/// stage-latency split ([`crate::StageLatencies`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CacheTemperature {
    /// The test consulted no semantic measure: an exact-only
    /// subscription, or a matcher that ignores `~` markers.
    Exact,
    /// At least one semantic cache missed: the test paid a projection or
    /// vector computation.
    ThematicCold,
    /// Every lookup was served from warm semantic caches.
    CacheWarm,
}

impl CacheTemperature {
    /// Stable lower-kebab label (`exact`, `thematic-cold`, `cache-warm`).
    pub fn as_str(&self) -> &'static str {
        match self {
            CacheTemperature::Exact => "exact",
            CacheTemperature::ThematicCold => "thematic-cold",
            CacheTemperature::CacheWarm => "cache-warm",
        }
    }
}

/// The final disposition of one subscription × event match test.
#[derive(Debug, Clone, PartialEq)]
pub enum MatchOutcome {
    /// Scored at or above the delivery threshold and handed to the
    /// subscriber's channel.
    Delivered,
    /// Scored at or above the threshold, but the subscriber overload
    /// policy dropped the notification.
    DeliveryDropped,
    /// A valid mapping exists but its score is below the delivery
    /// threshold.
    BelowThreshold,
    /// No valid mapping between predicates and tuples exists at all.
    NoMapping,
    /// Every match attempt panicked; the event was quarantined.
    Panicked {
        /// The panic payload, when it was a string (matcher panics
        /// usually are).
        reason: String,
    },
}

impl MatchOutcome {
    /// Stable lower-kebab label (`delivered`, `delivery-dropped`,
    /// `below-threshold`, `no-mapping`, `panicked`).
    pub fn as_str(&self) -> &'static str {
        match self {
            MatchOutcome::Delivered => "delivered",
            MatchOutcome::DeliveryDropped => "delivery-dropped",
            MatchOutcome::BelowThreshold => "below-threshold",
            MatchOutcome::NoMapping => "no-mapping",
            MatchOutcome::Panicked { .. } => "panicked",
        }
    }

    /// Whether the test cleared the delivery threshold (delivered or
    /// dropped by an overload policy).
    pub fn is_accepted(&self) -> bool {
        matches!(
            self,
            MatchOutcome::Delivered | MatchOutcome::DeliveryDropped
        )
    }
}

/// One subscription × event match test, explained: the score against the
/// threshold, the themes both sides projected under, how the semantic
/// caches served the test, and (when the matcher exposes it) per-predicate
/// distances and projection dimensionalities.
#[derive(Debug, Clone, PartialEq)]
pub struct MatchExplanation {
    /// Publish-order sequence number of the event.
    pub seq: u64,
    /// The subscription tested.
    pub subscription: SubscriptionId,
    /// The best mapping's score (0.0 when none exists or the test
    /// panicked).
    pub score: f64,
    /// The broker's delivery threshold the score was compared against.
    pub threshold: f64,
    /// The subscription's theme tags — the projection context its terms
    /// were scored under.
    pub subscription_themes: Vec<String>,
    /// The event's theme tags.
    pub event_themes: Vec<String>,
    /// How the semantic caches served the test.
    pub temperature: CacheTemperature,
    /// The final disposition.
    pub outcome: MatchOutcome,
    /// Per-predicate evidence (pairings, similarities, distances,
    /// projection dimensionalities). `None` when the test panicked before
    /// producing a result.
    pub detail: Option<MatchDetail>,
}

impl MatchExplanation {
    /// Whether the test cleared the delivery threshold.
    pub fn is_accepted(&self) -> bool {
        self.outcome.is_accepted()
    }
}

/// Renders a batch of explanations as a JSON array, one object per
/// explanation, oldest first — the payload behind the scrape server's
/// `/explain` endpoint.
pub fn render_explanations_json(explanations: &[MatchExplanation]) -> String {
    json_document(
        &explanations
            .iter()
            .map(ExplanationJson::from)
            .collect::<Vec<_>>(),
    )
}

/// One [`MatchExplanation`] as a JSON object: labels as their stable
/// strings, `panic_reason` only for panicked tests, and `detail: null`
/// when the test produced none. Also the element of a diagnostic
/// bundle's `context.explanations`.
#[derive(Serialize)]
pub(crate) struct ExplanationJson {
    seq: u64,
    subscription: String,
    score: f64,
    threshold: f64,
    temperature: &'static str,
    outcome: &'static str,
    #[serde(skip_serializing_if = "Option::is_none")]
    panic_reason: Option<String>,
    subscription_themes: Vec<String>,
    event_themes: Vec<String>,
    detail: Option<DetailJson>,
}

#[derive(Serialize)]
struct DetailJson {
    matcher: &'static str,
    mapped: bool,
    predicates: Vec<PredicateJson>,
}

/// One predicate's pairing; the paired tuple's terms and each side's
/// geometry appear only when known.
#[derive(Serialize)]
struct PredicateJson {
    predicate: usize,
    attribute: String,
    value: String,
    tuple: Option<usize>,
    similarity: f64,
    #[serde(skip_serializing_if = "Option::is_none")]
    tuple_attribute: Option<String>,
    #[serde(skip_serializing_if = "Option::is_none")]
    tuple_value: Option<String>,
    #[serde(skip_serializing_if = "Option::is_none")]
    attribute_detail: Option<RelatednessJson>,
    #[serde(skip_serializing_if = "Option::is_none")]
    value_detail: Option<RelatednessJson>,
}

#[derive(Serialize)]
struct RelatednessJson {
    score: f64,
    distance: Option<f64>,
    dims_full: [usize; 2],
    dims_projected: [usize; 2],
}

impl From<&MatchExplanation> for ExplanationJson {
    fn from(e: &MatchExplanation) -> ExplanationJson {
        ExplanationJson {
            seq: e.seq,
            subscription: e.subscription.to_string(),
            score: e.score,
            threshold: e.threshold,
            temperature: e.temperature.as_str(),
            outcome: e.outcome.as_str(),
            panic_reason: match &e.outcome {
                MatchOutcome::Panicked { reason } => Some(reason.clone()),
                _ => None,
            },
            subscription_themes: e.subscription_themes.clone(),
            event_themes: e.event_themes.clone(),
            detail: e.detail.as_ref().map(|d| DetailJson {
                matcher: d.matcher,
                mapped: d.mapped,
                predicates: d.predicates.iter().map(PredicateJson::from).collect(),
            }),
        }
    }
}

impl From<&PredicateExplanation> for PredicateJson {
    fn from(p: &PredicateExplanation) -> PredicateJson {
        PredicateJson {
            predicate: p.predicate,
            attribute: p.attribute.clone(),
            value: p.value.clone(),
            tuple: p.tuple,
            similarity: p.similarity,
            tuple_attribute: p.tuple_attribute.clone(),
            tuple_value: p.tuple_value.clone(),
            attribute_detail: p.attribute_detail.as_ref().map(RelatednessJson::from),
            value_detail: p.value_detail.as_ref().map(RelatednessJson::from),
        }
    }
}

impl From<&RelatednessDetail> for RelatednessJson {
    fn from(d: &RelatednessDetail) -> RelatednessJson {
        RelatednessJson {
            score: d.score,
            distance: d.distance,
            dims_full: [d.dims_full_s, d.dims_full_e],
            dims_projected: [d.dims_projected_s, d.dims_projected_e],
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde_json::JsonValue;

    fn explanation(outcome: MatchOutcome) -> MatchExplanation {
        MatchExplanation {
            seq: 42,
            subscription: SubscriptionId(3),
            score: 0.5,
            threshold: 0.25,
            subscription_themes: vec!["energy policy".to_string()],
            event_themes: vec!["power \"grid\"".to_string()],
            temperature: CacheTemperature::ThematicCold,
            outcome,
            detail: Some(MatchDetail {
                matcher: "probabilistic",
                score: 0.5,
                mapped: true,
                predicates: vec![PredicateExplanation {
                    predicate: 0,
                    attribute: "type".to_string(),
                    value: "energy usage".to_string(),
                    tuple: Some(1),
                    tuple_attribute: Some("type".to_string()),
                    tuple_value: Some("energy consumption".to_string()),
                    similarity: 0.5,
                    attribute_detail: Some(RelatednessDetail::score_only(1.0)),
                    value_detail: None,
                }],
            }),
        }
    }

    #[test]
    fn labels_are_stable() {
        assert_eq!(CacheTemperature::Exact.as_str(), "exact");
        assert_eq!(CacheTemperature::ThematicCold.as_str(), "thematic-cold");
        assert_eq!(CacheTemperature::CacheWarm.as_str(), "cache-warm");
        assert_eq!(MatchOutcome::Delivered.as_str(), "delivered");
        assert_eq!(MatchOutcome::DeliveryDropped.as_str(), "delivery-dropped");
        assert_eq!(MatchOutcome::BelowThreshold.as_str(), "below-threshold");
        assert_eq!(MatchOutcome::NoMapping.as_str(), "no-mapping");
        assert_eq!(
            MatchOutcome::Panicked {
                reason: "x".to_string()
            }
            .as_str(),
            "panicked"
        );
        assert!(MatchOutcome::Delivered.is_accepted());
        assert!(MatchOutcome::DeliveryDropped.is_accepted());
        assert!(!MatchOutcome::NoMapping.is_accepted());
    }

    #[test]
    fn json_is_balanced_and_escaped() {
        let json = render_explanations_json(&[explanation(MatchOutcome::Delivered)]);
        assert!(json.contains("\"seq\": 42"));
        assert!(json.contains("\"subscription\": \"s3\""));
        assert!(json.contains("\"outcome\": \"delivered\""));
        assert!(json.contains("\"temperature\": \"thematic-cold\""));
        assert!(
            json.contains("power \\\"grid\\\""),
            "theme tags must be JSON-escaped: {json}"
        );
        assert!(json.contains("\"attribute_detail\""));
        assert!(!json.contains("\"value_detail\""));
        assert_eq!(
            json.matches(['{', '[']).count(),
            json.matches(['}', ']']).count()
        );
    }

    #[test]
    fn panic_outcome_carries_the_reason() {
        let mut e = explanation(MatchOutcome::Panicked {
            reason: "injected \"fault\"".to_string(),
        });
        e.detail = None;
        let json = render_explanations_json(&[e]);
        assert!(json.contains("\"outcome\": \"panicked\""));
        assert!(json.contains("\"panic_reason\": \"injected \\\"fault\\\"\""));
        assert!(json.contains("\"detail\": null"));
    }

    #[test]
    fn array_rendering_separates_entries() {
        let batch = [
            explanation(MatchOutcome::Delivered),
            explanation(MatchOutcome::BelowThreshold),
        ];
        let json = render_explanations_json(&batch);
        assert!(json.starts_with('['));
        assert!(json.ends_with("]\n"));
        assert_eq!(json.matches("\"seq\": 42").count(), 2);
        let empty: JsonValue = serde_json::from_str(&render_explanations_json(&[])).unwrap();
        assert_eq!(empty.as_seq(), Some(&[][..]));
    }

    #[test]
    fn non_finite_floats_degrade_to_null() {
        let mut e = explanation(MatchOutcome::NoMapping);
        e.score = f64::NAN;
        e.threshold = f64::INFINITY;
        let json = render_explanations_json(&[e]);
        assert!(json.contains("\"score\": null"), "{json}");
        assert!(json.contains("\"threshold\": null"), "{json}");
        assert!(json.contains("\"similarity\": 0.5"), "{json}");
        let parsed: JsonValue = serde_json::from_str(&json).expect("still valid JSON");
        assert_eq!(parsed.as_seq().map(<[JsonValue]>::len), Some(1));
    }
}
