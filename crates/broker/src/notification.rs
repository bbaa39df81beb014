//! Notifications delivered to subscribers.

use crate::broker::SubscriptionId;
use crate::explain::MatchExplanation;
use std::sync::Arc;
use tep_events::Event;
use tep_matcher::MatchResult;

/// A delivery to one subscriber: the event plus the full match result,
/// including the top-1/top-k mappings and their probabilities, so a
/// downstream complex-event-processing stage can consume the uncertainty
/// (paper §6.2).
#[derive(Debug, Clone)]
pub struct Notification {
    /// The subscription this delivery is for.
    pub subscription: SubscriptionId,
    /// The published event (shared, not copied per subscriber).
    pub event: Arc<Event>,
    /// The matcher's result (score ≥ the broker's delivery threshold).
    /// Shared, not copied per subscriber: every member of an index entry
    /// whose predicates are declared in the entry representative's order
    /// receives the same `Arc`; a member with a permuted declaration
    /// order gets its own result, remapped into that order.
    pub result: Arc<MatchResult>,
    /// The full match explanation, present only for subscribers that
    /// opted in via [`crate::SubscribeOptions::explain`]. Boxed: the
    /// common (unexplained) notification stays small.
    pub explanation: Option<Box<MatchExplanation>>,
}

impl Notification {
    /// The best-mapping score that triggered the delivery.
    pub fn score(&self) -> f64 {
        self.result.score()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn score_delegates_to_result() {
        let n = Notification {
            subscription: SubscriptionId(7),
            event: Arc::new(Event::builder().tuple("a", "b").build().unwrap()),
            result: Arc::new(MatchResult::no_match()),
            explanation: None,
        };
        assert_eq!(n.score(), 0.0);
        assert_eq!(n.subscription, SubscriptionId(7));
        assert!(n.explanation.is_none(), "explanations are opt-in");
    }
}
