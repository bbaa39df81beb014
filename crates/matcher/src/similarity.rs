//! The combined attributes–values similarity matrix (paper Fig. 4).

use crate::config::Combiner;
use std::cell::RefCell;
use tep_events::{ComparisonOp, Event, Subscription};
use tep_semantics::{intern_term, theme_for_tags, SemanticMeasure, TermId, ThemeId};

/// Event-scoped interning scratch: one event is matched against many
/// subscriptions back to back by the same worker thread, so the event
/// side's interned term ids and theme id are computed once per event and
/// replayed for every subsequent test of that event in the scope (see
/// [`begin_event_scope`]).
struct EventScope {
    /// [`Event::identity`] of the event the open scope is bound to; `0` =
    /// no scope (callers that never open one — evaluation code, direct
    /// matcher use — re-intern per test). Only that event's tests replay
    /// the scratch: any other event, even one at a recycled address,
    /// carries another identity.
    event: u64,
    /// Whether `tuple_ids` / `the_id` hold the scope event's ids under
    /// `flags`.
    filled: bool,
    /// The `(any_attr_approx, any_value_approx)` combination the scratch
    /// was interned under; a subscription with different approximation
    /// flags re-interns (different sides of the tuples are eligible).
    flags: (bool, bool),
    /// Interned event theme id for the current token.
    the_id: ThemeId,
    /// Interned `(attribute, value)` ids per tuple.
    tuple_ids: Vec<(Option<TermId>, Option<TermId>)>,
}

thread_local! {
    /// Per-worker scratch for the event side's interned `(attribute,
    /// value)` term ids — reused across match tests so the steady-state
    /// matrix build allocates nothing, and across a whole event's
    /// subscription sweep when an event scope is open.
    static EVENT_SCOPE: RefCell<EventScope> = const {
        RefCell::new(EventScope {
            event: 0,
            filled: false,
            flags: (false, false),
            the_id: ThemeId::EMPTY,
            tuple_ids: Vec::new(),
        })
    };
}

/// Opens an event scope for `event` on the calling thread: until the
/// next call, the similarity build may reuse `event`'s interned symbols
/// across its match tests ([`crate::Matcher::begin_event`] routes here).
/// Tests of any other event meanwhile intern afresh, so a scope left open
/// can cost speed but never correctness.
pub(crate) fn begin_event_scope(event: &Event) {
    EVENT_SCOPE.with(|scope| {
        let mut scope = scope.borrow_mut();
        scope.event = event.identity();
        scope.filled = false;
    });
}

/// The `n × m` matrix of combined similarities between the `n` predicates
/// of a subscription and the `m` tuples of an event.
///
/// Cell `(i, j)` combines:
///
/// * **attribute similarity** — `sm(ths, aᵢ, the, aⱼ)` when predicate `i`
///   carries the attribute `~`, else exact equality in `{0, 1}`;
/// * **value similarity** — likewise for the value side;
///
/// via the configured [`Combiner`]. Themes are passed through to the
/// measure exactly as in Fig. 4 (`sm(ths, aᵢ, the, aⱼ)`), which is where
/// the thematic and non-thematic instantiations differ.
#[derive(Debug, Clone, PartialEq)]
pub struct SimilarityMatrix {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl SimilarityMatrix {
    /// Builds the matrix for `subscription` × `event` under `measure`.
    pub fn build<M: SemanticMeasure + ?Sized>(
        subscription: &Subscription,
        event: &Event,
        measure: &M,
        combiner: Combiner,
    ) -> SimilarityMatrix {
        SimilarityMatrix::build_pruned(subscription, event, measure, combiner, f64::NEG_INFINITY)
            .expect("an infinitely low floor never prunes")
    }

    /// Builds the matrix row by row, bailing out with `None` as soon as a
    /// predicate's entire row falls below `floor` — no complete mapping
    /// can exist then, so the remaining rows would be wasted work. This
    /// is the matcher's hot path: on heterogeneous workloads most events
    /// fail on their first exact predicate.
    pub fn build_pruned<M: SemanticMeasure + ?Sized>(
        subscription: &Subscription,
        event: &Event,
        measure: &M,
        combiner: Combiner,
        floor: f64,
    ) -> Option<SimilarityMatrix> {
        let mut matrix = SimilarityMatrix::empty();
        matrix
            .rebuild_pruned(subscription, event, measure, combiner, floor)
            .then_some(matrix)
    }

    /// An empty `0 × 0` matrix, for scratch slots that are later
    /// [`SimilarityMatrix::rebuild_pruned`]-ed.
    pub const fn empty() -> SimilarityMatrix {
        SimilarityMatrix {
            rows: 0,
            cols: 0,
            data: Vec::new(),
        }
    }

    /// [`SimilarityMatrix::build_pruned`] into `self`, recycling the cell
    /// buffer: the allocation-free form the matcher's hot path uses with
    /// a per-worker scratch matrix. Returns `false` when some predicate's
    /// whole row falls below `floor` (the matrix contents are then
    /// unspecified — check the return value).
    pub fn rebuild_pruned<M: SemanticMeasure + ?Sized>(
        &mut self,
        subscription: &Subscription,
        event: &Event,
        measure: &M,
        combiner: Combiner,
        floor: f64,
    ) -> bool {
        // Batched interning: both themes and every referenced term are
        // interned at most ONCE per match test — and, inside an event
        // scope, once per *event* — and each cell probes the measure with
        // copyable ids (`relatedness_ids`). The old path re-interned all
        // four symbols — four hash-and-lock round-trips — per cell. The
        // subscription side resolves through the interner's per-thread
        // fronts: no lock, no refcount, no write to shared memory.
        let any_attr_approx = subscription
            .predicates()
            .iter()
            .any(|p| p.is_attribute_approx());
        let any_value_approx = subscription
            .predicates()
            .iter()
            .any(|p| p.is_value_approx() && matches!(p.op(), ComparisonOp::Eq));
        let semantic = any_attr_approx || any_value_approx;
        let flags = (any_attr_approx, any_value_approx);
        // Purely exact subscriptions never consult the measure, so skip
        // theme resolution entirely on that path.
        let ths_id = if semantic {
            theme_for_tags(subscription.theme_tags())
        } else {
            ThemeId::EMPTY
        };
        self.rows = subscription.predicates().len();
        self.cols = event.tuples().len();
        let cols = self.cols;
        self.data.clear();
        self.data.reserve(self.rows * cols);
        let data = &mut self.data;
        EVENT_SCOPE.with(|scope| {
            let mut scope = scope.borrow_mut();
            let scope = &mut *scope;
            let in_scope = scope.event == event.identity();
            if !(in_scope && scope.filled && scope.flags == flags) {
                scope.tuple_ids.clear();
                if semantic {
                    // Intern only the sides a measure call can actually
                    // read, mirroring the old per-cell behaviour (e.g.
                    // free-form numeric values stay out of the interner
                    // unless some predicate is value-approximate).
                    scope.the_id = theme_for_tags(event.theme_tags());
                    for t in event.tuples() {
                        scope.tuple_ids.push((
                            any_attr_approx.then(|| intern_term(t.attribute())),
                            any_value_approx.then(|| intern_term(t.value())),
                        ));
                    }
                } else {
                    scope.the_id = ThemeId::EMPTY;
                    scope.tuple_ids.resize(cols, (None, None));
                }
                scope.flags = flags;
                // Only the scope's own event may replay this scratch.
                scope.filled = in_scope;
            }
            let the_id = scope.the_id;
            let tuple_ids = &scope.tuple_ids;
            for p in subscription.predicates() {
                let p_attr = p.is_attribute_approx().then(|| intern_term(p.attribute()));
                let p_value = (p.is_value_approx() && matches!(p.op(), ComparisonOp::Eq))
                    .then(|| intern_term(p.value()));
                let mut feasible = false;
                for (t, &(t_attr, t_value)) in event.tuples().iter().zip(tuple_ids.iter()) {
                    let attr_sim = match (p_attr, t_attr) {
                        (Some(pa), Some(ta)) => measure.relatedness_ids(pa, ths_id, ta, the_id),
                        _ => exact(p.attribute(), t.attribute()),
                    };
                    // A vetoed attribute makes the pair impossible under
                    // Product/GeometricMean/Min; skip the value-side measure
                    // call in that common case.
                    let cell = if attr_sim == 0.0 && combiner != Combiner::ArithmeticMean {
                        0.0
                    } else {
                        let value_sim = match p.op() {
                            ComparisonOp::Eq => match (p_value, t_value) {
                                (Some(pv), Some(tv)) => {
                                    measure.relatedness_ids(pv, ths_id, tv, the_id)
                                }
                                _ => exact(p.value(), t.value()),
                            },
                            // Relational operators are boolean by definition.
                            op => {
                                if op.evaluate(t.value(), p.value()) {
                                    1.0
                                } else {
                                    0.0
                                }
                            }
                        };
                        combiner.combine(attr_sim, value_sim).clamp(0.0, 1.0)
                    };
                    feasible |= cell >= floor;
                    data.push(cell);
                }
                if !feasible {
                    return false;
                }
            }
            true
        })
    }

    /// Number of predicates (rows).
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of tuples (columns).
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// The combined similarity of predicate `i` and tuple `j`.
    pub fn get(&self, i: usize, j: usize) -> f64 {
        self.data[i * self.cols + j]
    }

    /// Sum of row `i` (the normalizer of the correspondence probability
    /// space `Pσ` for predicate `i`).
    pub fn row_sum(&self, i: usize) -> f64 {
        self.data[i * self.cols..(i + 1) * self.cols].iter().sum()
    }

    /// The correspondence probability `P((pᵢ ↔ tⱼ))`: the row-normalized
    /// similarity (0 when the whole row is 0).
    pub fn correspondence_probability(&self, i: usize, j: usize) -> f64 {
        let sum = self.row_sum(i);
        if sum == 0.0 {
            0.0
        } else {
            self.get(i, j) / sum
        }
    }
}

fn exact(a: &str, b: &str) -> f64 {
    if a == b {
        1.0
    } else {
        0.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;
    use tep_events::{Event, Subscription};
    use tep_semantics::Theme;

    /// A deterministic stub measure for unit tests.
    #[derive(Debug, Default)]
    struct StubMeasure {
        scores: HashMap<(String, String), f64>,
    }

    impl StubMeasure {
        fn with(mut self, a: &str, b: &str, s: f64) -> StubMeasure {
            self.scores.insert((a.into(), b.into()), s);
            self.scores.insert((b.into(), a.into()), s);
            self
        }
    }

    impl SemanticMeasure for StubMeasure {
        fn relatedness(&self, a: &str, _: &Theme, b: &str, _: &Theme) -> f64 {
            if a == b {
                1.0
            } else {
                self.scores
                    .get(&(a.to_string(), b.to_string()))
                    .copied()
                    .unwrap_or(0.0)
            }
        }
    }

    fn event() -> Event {
        Event::builder()
            .tuple("type", "increased energy consumption event")
            .tuple("device", "computer")
            .tuple("office", "room 112")
            .build()
            .unwrap()
    }

    #[test]
    fn exact_predicates_use_string_equality() {
        let s = Subscription::builder()
            .predicate_exact("office", "room 112")
            .build()
            .unwrap();
        let m = SimilarityMatrix::build(&s, &event(), &StubMeasure::default(), Combiner::Product);
        assert_eq!(m.rows(), 1);
        assert_eq!(m.cols(), 3);
        assert_eq!(m.get(0, 2), 1.0);
        assert_eq!(m.get(0, 0), 0.0);
        assert_eq!(m.get(0, 1), 0.0);
    }

    #[test]
    fn approx_value_consults_the_measure() {
        let stub = StubMeasure::default().with("laptop", "computer", 0.8);
        let s = Subscription::builder()
            .predicate_approx_value("device", "laptop")
            .build()
            .unwrap();
        let m = SimilarityMatrix::build(&s, &event(), &stub, Combiner::Product);
        // attribute exact-matches 'device' (1.0), value 0.8 → 0.8.
        assert!((m.get(0, 1) - 0.8).abs() < 1e-12);
        // attribute mismatch on other tuples → 0.
        assert_eq!(m.get(0, 0), 0.0);
    }

    #[test]
    fn approx_attribute_consults_the_measure() {
        let stub = StubMeasure::default().with("device", "office", 0.5);
        let s = Subscription::builder()
            .predicate(tep_events::Predicate::new("device", "room 112").approx_attribute())
            .build()
            .unwrap();
        let m = SimilarityMatrix::build(&s, &event(), &stub, Combiner::Product);
        // col 2: attr sim 0.5 (device~office), value exact 1.0 → 0.5.
        assert!((m.get(0, 2) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn probabilities_row_normalize() {
        let stub = StubMeasure::default()
            .with("laptop", "computer", 0.6)
            .with("laptop", "room 112", 0.2);
        let s = Subscription::builder()
            .predicate_full_approx("device", "laptop")
            .build()
            .unwrap();
        let m = SimilarityMatrix::build(&s, &event(), &stub, Combiner::Product);
        let total: f64 = (0..3).map(|j| m.correspondence_probability(0, j)).sum();
        assert!((total - 1.0).abs() < 1e-9);
    }

    #[test]
    fn zero_row_has_zero_probabilities() {
        let s = Subscription::builder()
            .predicate_exact("nothing", "matches")
            .build()
            .unwrap();
        let m = SimilarityMatrix::build(&s, &event(), &StubMeasure::default(), Combiner::Product);
        assert_eq!(m.row_sum(0), 0.0);
        assert_eq!(m.correspondence_probability(0, 0), 0.0);
    }

    #[test]
    fn relational_predicates_compare_numerically() {
        use tep_events::ComparisonOp;
        let e = Event::builder()
            .tuple("temperature", "32.5 degrees celsius")
            .tuple("noise", "80")
            .build()
            .unwrap();
        let hot = Subscription::builder()
            .predicate_cmp("temperature", ComparisonOp::Gt, "30")
            .build()
            .unwrap();
        let m = SimilarityMatrix::build(&hot, &e, &StubMeasure::default(), Combiner::Product);
        assert_eq!(m.get(0, 0), 1.0); // 32.5 > 30
        assert_eq!(m.get(0, 1), 0.0); // attribute mismatch vetoes

        let quiet = Subscription::builder()
            .predicate_cmp("noise", ComparisonOp::Le, "75")
            .build()
            .unwrap();
        let m = SimilarityMatrix::build(&quiet, &e, &StubMeasure::default(), Combiner::Product);
        assert_eq!(m.get(0, 1), 0.0); // 80 > 75
    }

    #[test]
    fn relational_with_approximate_attribute() {
        use tep_events::{ComparisonOp, Predicate};
        // temperature~ > 30 matches a 'thermal reading' attribute through
        // the measure while still requiring the numeric constraint.
        let stub = StubMeasure::default().with("temperature", "thermal reading", 0.8);
        let e = Event::builder()
            .tuple("thermal reading", "35")
            .build()
            .unwrap();
        let s = Subscription::builder()
            .predicate(Predicate::with_op("temperature", ComparisonOp::Gt, "30").approx_attribute())
            .build()
            .unwrap();
        let m = SimilarityMatrix::build(&s, &e, &stub, Combiner::Product);
        assert!((m.get(0, 0) - 0.8).abs() < 1e-12);
        // Below the bound: vetoed regardless of attribute similarity.
        let cold = Event::builder()
            .tuple("thermal reading", "20")
            .build()
            .unwrap();
        let m = SimilarityMatrix::build(&s, &cold, &stub, Combiner::Product);
        assert_eq!(m.get(0, 0), 0.0);
    }

    #[test]
    fn combiner_changes_cells() {
        let stub = StubMeasure::default().with("laptop", "computer", 0.5);
        let s = Subscription::builder()
            .predicate_full_approx("device", "laptop")
            .build()
            .unwrap();
        let prod = SimilarityMatrix::build(&s, &event(), &stub, Combiner::Product);
        let mean = SimilarityMatrix::build(&s, &event(), &stub, Combiner::ArithmeticMean);
        // attr device~device = 1.0, value 0.5.
        assert!((prod.get(0, 1) - 0.5).abs() < 1e-12);
        assert!((mean.get(0, 1) - 0.75).abs() < 1e-12);
    }
}
