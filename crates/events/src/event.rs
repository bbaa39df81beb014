//! The thematic event: theme tags + attribute–value payload.

use crate::error::ModelError;
use crate::tuple::{normalize, Tuple};
use serde::{Deserialize, Serialize};
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};

/// A thematic event `e = (th, av)` (paper §3.3): a set of theme tags and a
/// set of attribute–value tuples with pairwise-distinct attributes.
///
/// ```
/// use tep_events::Event;
///
/// let e = Event::builder()
///     .theme_tags(["energy", "appliances", "building"])
///     .tuple("type", "increased energy consumption event")
///     .tuple("measurement unit", "kilowatt hour")
///     .tuple("device", "computer")
///     .tuple("office", "room 112")
///     .build()?;
/// assert_eq!(e.tuples().len(), 4);
/// assert_eq!(e.value_of("device"), Some("computer"));
/// # Ok::<(), tep_events::ModelError>(())
/// ```
#[derive(Clone, Serialize, Deserialize)]
pub struct Event {
    theme_tags: Vec<String>,
    tuples: Vec<Tuple>,
    /// Never serialized; a deserialized event is a new event.
    #[serde(default, skip_serializing_if = "Identity::is_local")]
    identity: Identity,
}

/// A process-unique, never-zero number stamped on every event built,
/// deserialized or re-themed; clones share it. It is not part of the
/// event's value: equality, `Debug` and serialization ignore it.
#[derive(Clone, Copy)]
struct Identity(u64);

impl Identity {
    fn fresh() -> Identity {
        static NEXT: AtomicU64 = AtomicU64::new(1);
        Identity(NEXT.fetch_add(1, Ordering::Relaxed))
    }

    fn is_local(&self) -> bool {
        true
    }
}

impl Default for Identity {
    fn default() -> Identity {
        Identity::fresh()
    }
}

impl Serialize for Identity {
    fn serialize(&self) -> serde::Value {
        serde::Value::Null
    }
}

impl Deserialize for Identity {
    fn deserialize(_value: &serde::Value) -> Result<Identity, serde::Error> {
        Ok(Identity::fresh())
    }
}

impl PartialEq for Event {
    fn eq(&self, other: &Event) -> bool {
        self.theme_tags == other.theme_tags && self.tuples == other.tuples
    }
}

impl Eq for Event {}

impl fmt::Debug for Event {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Event")
            .field("theme_tags", &self.theme_tags)
            .field("tuples", &self.tuples)
            .finish()
    }
}

impl Event {
    /// Starts building an event.
    pub fn builder() -> EventBuilder {
        EventBuilder::default()
    }

    /// The theme tags (possibly empty: a non-thematic event).
    pub fn theme_tags(&self) -> &[String] {
        &self.theme_tags
    }

    /// The payload tuples, in declaration order.
    pub fn tuples(&self) -> &[Tuple] {
        &self.tuples
    }

    /// The value of `attribute` (normalized lookup), if present.
    pub fn value_of(&self, attribute: &str) -> Option<&str> {
        let key = normalize(attribute);
        self.tuples
            .iter()
            .find(|t| t.attribute() == key)
            .map(Tuple::value)
    }

    /// The event's identity: a process-unique, never-zero number stamped
    /// when it was built, deserialized or re-themed, and shared by its
    /// clones (which are equal to it). Two events with one identity
    /// always have equal contents, so per-event caches can key on it
    /// without comparing contents or trusting addresses.
    pub fn identity(&self) -> u64 {
        self.identity.0
    }

    /// Whether the event carries no theme tags.
    pub fn is_non_thematic(&self) -> bool {
        self.theme_tags.is_empty()
    }

    /// Returns a copy with the given theme tags instead of the current
    /// ones — the evaluation associates one theme combination at a time
    /// (paper Fig. 6).
    pub fn with_theme_tags<I, S>(&self, tags: I) -> Event
    where
        I: IntoIterator<Item = S>,
        S: AsRef<str>,
    {
        let mut out = self.clone();
        out.identity = Identity::fresh();
        out.theme_tags.clear();
        for tag in tags {
            let t = normalize(tag.as_ref());
            if !t.is_empty() && !out.theme_tags.contains(&t) {
                out.theme_tags.push(t);
            }
        }
        out
    }
}

impl fmt::Display for Event {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "({{{}}}, {{", self.theme_tags.join(", "))?;
        for (i, t) in self.tuples.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{t}")?;
        }
        write!(f, "}})")
    }
}

/// Incremental [`Event`] construction; validates attribute uniqueness at
/// [`EventBuilder::build`].
#[derive(Debug, Default, Clone)]
pub struct EventBuilder {
    theme_tags: Vec<String>,
    tuples: Vec<Tuple>,
}

impl EventBuilder {
    /// Adds theme tags (normalized, deduplicated, order preserved).
    pub fn theme_tags<I, S>(mut self, tags: I) -> EventBuilder
    where
        I: IntoIterator<Item = S>,
        S: AsRef<str>,
    {
        for tag in tags {
            let t = normalize(tag.as_ref());
            if !t.is_empty() && !self.theme_tags.contains(&t) {
                self.theme_tags.push(t);
            }
        }
        self
    }

    /// Adds one theme tag.
    pub fn theme_tag(self, tag: &str) -> EventBuilder {
        self.theme_tags([tag])
    }

    /// Adds an attribute–value tuple.
    pub fn tuple(mut self, attribute: &str, value: &str) -> EventBuilder {
        self.tuples.push(Tuple::new(attribute, value));
        self
    }

    /// Finalizes the event.
    ///
    /// # Errors
    ///
    /// [`ModelError::Empty`] if no tuple was added,
    /// [`ModelError::EmptyAttribute`] for an empty attribute and
    /// [`ModelError::DuplicateAttribute`] if two tuples share an attribute
    /// (paper §3.3: "no two distinct tuples can have the same attribute").
    pub fn build(self) -> Result<Event, ModelError> {
        if self.tuples.is_empty() {
            return Err(ModelError::Empty);
        }
        for (i, t) in self.tuples.iter().enumerate() {
            if t.attribute().is_empty() {
                return Err(ModelError::EmptyAttribute);
            }
            if self.tuples[..i]
                .iter()
                .any(|p| p.attribute() == t.attribute())
            {
                return Err(ModelError::DuplicateAttribute(t.attribute().to_string()));
            }
        }
        Ok(Event {
            theme_tags: self.theme_tags,
            tuples: self.tuples,
            identity: Identity::fresh(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_validates_duplicates() {
        let err = Event::builder()
            .tuple("type", "a")
            .tuple("Type", "b")
            .build()
            .unwrap_err();
        assert_eq!(err, ModelError::DuplicateAttribute("type".into()));
    }

    #[test]
    fn identity_follows_the_value_not_the_address() {
        let e = Event::builder().tuple("k", "v").build().unwrap();
        assert_ne!(e.identity(), 0);
        assert_eq!(
            e.clone().identity(),
            e.identity(),
            "clones are the same event"
        );
        let rebuilt = Event::builder().tuple("k", "v").build().unwrap();
        assert_eq!(rebuilt, e, "identity is not part of the value");
        assert_ne!(rebuilt.identity(), e.identity());
        assert_ne!(e.with_theme_tags(["power"]).identity(), e.identity());
        let json = serde_json::to_string(&e).unwrap();
        assert!(!json.contains("identity"), "{json}");
        let back: Event = serde_json::from_str(&json).unwrap();
        assert_eq!(back, e);
        assert_ne!(back.identity(), e.identity());
        assert!(!format!("{e:?}").contains("identity"));
    }

    #[test]
    fn builder_rejects_empty() {
        assert_eq!(Event::builder().build().unwrap_err(), ModelError::Empty);
        let err = Event::builder().tuple("  ", "x").build().unwrap_err();
        assert_eq!(err, ModelError::EmptyAttribute);
    }

    #[test]
    fn theme_tags_deduplicate() {
        let e = Event::builder()
            .theme_tags(["Energy", "energy", "building"])
            .tuple("a", "b")
            .build()
            .unwrap();
        assert_eq!(e.theme_tags(), ["energy", "building"]);
        assert!(!e.is_non_thematic());
    }

    #[test]
    fn value_lookup_is_normalized() {
        let e = Event::builder()
            .tuple("Measurement Unit", "kWh")
            .build()
            .unwrap();
        assert_eq!(e.value_of("measurement  unit"), Some("kwh"));
        assert_eq!(e.value_of("missing"), None);
    }

    #[test]
    fn display_matches_paper_notation() {
        let e = Event::builder()
            .theme_tags(["energy"])
            .tuple("device", "computer")
            .build()
            .unwrap();
        assert_eq!(e.to_string(), "({energy}, {device: computer})");
    }

    #[test]
    fn serde_round_trip() {
        let e = Event::builder()
            .theme_tags(["energy", "building"])
            .tuple("type", "increased energy consumption event")
            .build()
            .unwrap();
        let json = serde_json::to_string(&e).unwrap();
        let back: Event = serde_json::from_str(&json).unwrap();
        assert_eq!(e, back);
    }
}
