//! Causal spans: parent/child timing records keyed by event sequence.
//!
//! A [`SpanCollector`] keeps a causal trace in a bounded ring: each
//! recorded [`SpanRecord`] carries its parent's id, so one event's journey
//! (publish → route → N match tests → M deliveries → quarantine)
//! reconstructs as a tree with [`span_tree`]. Sampling is deterministic —
//! 1-in-k by event sequence number — so repeated runs trace the same
//! events and the hot path pays nothing for unsampled traffic beyond one
//! modulo.

use crate::json::json_document;
use crate::ring::BoundedRing;
use serde::Serialize;
use serde_json::JsonValue;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// One timed operation in an event's causal trace.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanRecord {
    /// Collector-unique span id.
    pub id: u64,
    /// Id of the enclosing span, `None` for roots (the publish span).
    pub parent: Option<u64>,
    /// Sequence number of the event this span belongs to.
    pub seq: u64,
    /// Operation name (`publish`, `route`, `match`, `deliver`,
    /// `quarantine`).
    pub name: &'static str,
    /// Start offset in nanoseconds since the collector's epoch.
    pub start_ns: u64,
    /// Wall-clock duration in nanoseconds.
    pub duration_ns: u64,
    /// Free-form attributes (subscription id, score, outcome, ...).
    pub attrs: Vec<(String, String)>,
}

/// Collects sampled [`SpanRecord`]s into a bounded ring.
///
/// Thread-safe: ids come from an atomic counter and the ring is the same
/// mutexed deque the explanation ring uses. Disabled collectors (capacity 0
/// or `sample_every` 0) never record and never allocate.
#[derive(Debug)]
pub struct SpanCollector {
    ring: BoundedRing<SpanRecord>,
    next_id: AtomicU64,
    epoch: Instant,
    sample_every: u64,
}

impl SpanCollector {
    /// A collector keeping the newest `capacity` spans and sampling one
    /// event in every `sample_every` (both 0 = disabled).
    pub fn new(capacity: usize, sample_every: u64) -> SpanCollector {
        SpanCollector {
            ring: BoundedRing::new(capacity),
            next_id: AtomicU64::new(1),
            epoch: Instant::now(),
            sample_every,
        }
    }

    /// A collector that records nothing.
    pub fn disabled() -> SpanCollector {
        SpanCollector::new(0, 0)
    }

    /// Whether any event can be sampled at all.
    pub fn is_enabled(&self) -> bool {
        self.ring.is_enabled() && self.sample_every > 0
    }

    /// The configured 1-in-k sampling divisor (0 = disabled).
    pub fn sample_every(&self) -> u64 {
        self.sample_every
    }

    /// Whether the event with sequence number `seq` is traced.
    /// Deterministic: `seq % k == 0`, so re-running a workload samples
    /// the same events.
    pub fn sampled(&self, seq: u64) -> bool {
        self.is_enabled() && seq.is_multiple_of(self.sample_every)
    }

    /// Reserves a span id without recording anything yet; pair with
    /// [`SpanCollector::record`] once the operation's end is known. This
    /// lets a producer hand the id to children (as their parent) before
    /// its own span closes.
    pub fn start_span(&self) -> u64 {
        self.next_id.fetch_add(1, Ordering::Relaxed)
    }

    /// Records a span under a previously reserved id.
    #[allow(clippy::too_many_arguments)]
    pub fn record(
        &self,
        id: u64,
        parent: Option<u64>,
        seq: u64,
        name: &'static str,
        start: Instant,
        end: Instant,
        attrs: Vec<(String, String)>,
    ) {
        if !self.ring.is_enabled() {
            return;
        }
        let start_ns = start
            .saturating_duration_since(self.epoch)
            .as_nanos()
            .min(u64::MAX as u128) as u64;
        let duration_ns = end
            .saturating_duration_since(start)
            .as_nanos()
            .min(u64::MAX as u128) as u64;
        self.ring.push(SpanRecord {
            id,
            parent,
            seq,
            name,
            start_ns,
            duration_ns,
            attrs,
        });
    }

    /// Reserves an id and records in one step, returning the id for use
    /// as a parent.
    #[allow(clippy::too_many_arguments)]
    pub fn record_new(
        &self,
        parent: Option<u64>,
        seq: u64,
        name: &'static str,
        start: Instant,
        end: Instant,
        attrs: Vec<(String, String)>,
    ) -> u64 {
        let id = self.start_span();
        self.record(id, parent, seq, name, start, end, attrs);
        id
    }

    /// The retained spans, oldest first.
    pub fn snapshot(&self) -> Vec<SpanRecord> {
        self.ring.snapshot()
    }

    /// Number of retained spans.
    pub fn len(&self) -> usize {
        self.ring.len()
    }

    /// Whether nothing is retained.
    pub fn is_empty(&self) -> bool {
        self.ring.is_empty()
    }
}

/// A [`SpanRecord`] with its children attached, start-time ordered.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanNode {
    /// The span itself.
    pub record: SpanRecord,
    /// Child spans, ordered by start time.
    pub children: Vec<SpanNode>,
}

impl SpanNode {
    /// Total number of spans in this subtree (including `self`).
    pub fn size(&self) -> usize {
        1 + self.children.iter().map(SpanNode::size).sum::<usize>()
    }
}

/// Reconstructs the causal tree(s) for event `seq` from a flat span
/// dump. Spans whose parent was evicted from the ring surface as extra
/// roots rather than vanishing; roots and siblings are ordered by start
/// time.
pub fn span_tree(records: &[SpanRecord], seq: u64) -> Vec<SpanNode> {
    let mut spans: Vec<&SpanRecord> = records.iter().filter(|r| r.seq == seq).collect();
    spans.sort_by_key(|r| (r.start_ns, r.id));
    let present = |id: u64| spans.iter().any(|r| r.id == id);
    fn build(spans: &[&SpanRecord], parent: u64) -> Vec<SpanNode> {
        spans
            .iter()
            .filter(|r| r.parent == Some(parent))
            .map(|r| SpanNode {
                record: (*r).clone(),
                children: build(spans, r.id),
            })
            .collect()
    }
    spans
        .iter()
        .filter(|r| match r.parent {
            None => true,
            Some(p) => !present(p),
        })
        .map(|r| SpanNode {
            record: (*r).clone(),
            children: build(&spans, r.id),
        })
        .collect()
}

/// One span as a JSON object (`parent: null` for roots, attrs as a string
/// map in recording order): a span dump or bundle `context.spans` element.
#[derive(Debug, Serialize)]
pub struct SpanJson {
    id: u64,
    parent: Option<u64>,
    seq: u64,
    name: &'static str,
    start_ns: u64,
    duration_ns: u64,
    attrs: JsonValue,
}

impl From<&SpanRecord> for SpanJson {
    fn from(r: &SpanRecord) -> SpanJson {
        SpanJson {
            id: r.id,
            parent: r.parent,
            seq: r.seq,
            name: r.name,
            start_ns: r.start_ns,
            duration_ns: r.duration_ns,
            attrs: r
                .attrs
                .iter()
                .map(|(k, v)| (k.as_str(), v.as_str()))
                .collect(),
        }
    }
}

/// Renders a flat span dump as a JSON array of [`SpanJson`] objects.
pub fn render_spans_json(records: &[SpanRecord]) -> String {
    json_document(&records.iter().map(SpanJson::from).collect::<Vec<_>>())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    fn collector() -> SpanCollector {
        SpanCollector::new(64, 2)
    }

    #[test]
    fn sampling_is_deterministic_one_in_k() {
        let c = collector();
        assert!(c.is_enabled());
        assert!(c.sampled(0));
        assert!(!c.sampled(1));
        assert!(c.sampled(2));
        assert!(!c.sampled(3));
        assert!(!SpanCollector::disabled().sampled(0));
        assert!(
            !SpanCollector::new(0, 1).sampled(0),
            "no capacity, no spans"
        );
        assert!(!SpanCollector::new(8, 0).sampled(0), "k=0 disables");
    }

    #[test]
    fn tree_reconstructs_publish_route_match_deliver() {
        let c = collector();
        let t0 = Instant::now();
        let t = |ms: u64| t0 + Duration::from_millis(ms);
        let publish = c.start_span();
        c.record(publish, None, 0, "publish", t(0), t(1), vec![]);
        let route = c.record_new(Some(publish), 0, "route", t(1), t(2), vec![]);
        let m1 = c.record_new(
            Some(route),
            0,
            "match",
            t(2),
            t(4),
            vec![("subscription".into(), "s0".into())],
        );
        let m2 = c.record_new(Some(route), 0, "match", t(4), t(5), vec![]);
        c.record_new(Some(m1), 0, "deliver", t(5), t(6), vec![]);
        // A different event's spans must not leak into seq 0's tree.
        c.record_new(None, 7, "publish", t(0), t(1), vec![]);

        let spans = c.snapshot();
        assert_eq!(spans.len(), 6);
        let tree = span_tree(&spans, 0);
        assert_eq!(tree.len(), 1, "one root: the publish span");
        let root = &tree[0];
        assert_eq!(root.record.name, "publish");
        assert_eq!(root.size(), 5);
        assert_eq!(root.children.len(), 1);
        let route_node = &root.children[0];
        assert_eq!(route_node.record.name, "route");
        assert_eq!(route_node.children.len(), 2, "both match tests");
        assert_eq!(route_node.children[0].record.id, m1);
        assert_eq!(route_node.children[1].record.id, m2);
        assert_eq!(route_node.children[0].children[0].record.name, "deliver");
        assert!(route_node.children[1].children.is_empty());
    }

    #[test]
    fn orphaned_spans_surface_as_roots() {
        let c = collector();
        let t0 = Instant::now();
        // Parent id 999 was never recorded (evicted, say).
        c.record_new(Some(999), 3, "match", t0, t0, vec![]);
        let tree = span_tree(&c.snapshot(), 3);
        assert_eq!(tree.len(), 1);
        assert_eq!(tree[0].record.name, "match");
    }

    #[test]
    fn disabled_collector_records_nothing() {
        let c = SpanCollector::disabled();
        let t0 = Instant::now();
        c.record_new(None, 0, "publish", t0, t0, vec![]);
        assert!(c.is_empty());
        assert_eq!(c.len(), 0);
    }

    #[test]
    fn json_dump_is_balanced_and_escaped() {
        let c = collector();
        let t0 = Instant::now();
        c.record_new(
            None,
            0,
            "publish",
            t0,
            t0,
            vec![("note".into(), "quo\"te\\".into())],
        );
        c.record_new(Some(1), 0, "route", t0, t0, vec![]);
        let json = render_spans_json(&c.snapshot());
        assert!(json.starts_with('['));
        assert!(json.contains("\"name\": \"publish\""));
        assert!(json.contains("\"parent\": null"));
        assert!(json.contains("\"note\": \"quo\\\"te\\\\\""));
        assert_eq!(
            json.matches(['{', '[']).count(),
            json.matches(['}', ']']).count()
        );
        let empty: JsonValue = serde_json::from_str(&render_spans_json(&[])).unwrap();
        assert_eq!(empty.as_seq(), Some(&[][..]));
    }
}
