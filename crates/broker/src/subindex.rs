//! The subscription aggregation + covering index (Shi et al.; S-ToPSS).
//!
//! Replaces the flat tag→`Vec<SubscriptionId>` routing table with an index
//! over **canonical predicate sets**: each subscription is canonicalized to
//! its interned predicate multiset (sorted `(TermId, TermId, op, approx)`
//! tuples) plus its interned `ThemeId`, and identical canonical forms are
//! hash-consed into a single [`IndexEntry`] carrying a fan-out list of
//! subscribers. One match test against the entry's representative
//! subscription then serves every duplicate subscriber, so match cost
//! scales with *distinct* subscriptions, not subscriber count (ROADMAP
//! item 1; the delivery threshold is broker-global, so it never
//! distinguishes entries and stays out of the key).
//!
//! On top of the entries the index maintains a **covering** relation in
//! the style of S-ToPSS's layered exact-first matching:
//!
//! * `supersets` — entries whose predicate multiset contains this entry's.
//!   For a purely conjunctive matcher ([`Matcher::covering_safe`]) a
//!   **miss** on the smaller set implies a miss on every superset, so the
//!   dispatcher prunes them without testing (`covered_skips`).
//! * `twins` — entries with an *equal* predicate multiset under a
//!   different theme. A **hit** on one is a hit on all: the result is
//!   cloned (predicate indices permuted into the twin's declaration order
//!   when they differ) and the twins' tests are short-circuited.
//!
//! Strict-subset hit propagation is intentionally *not* exploited: a hit
//! on a superset entry implies its subsets hit too, but their
//! notifications need `MatchResult`s with a different correspondence
//! count, so synthesizing them would cost as much as the skipped test
//! (DESIGN.md §16).
//!
//! Leaves mirror the old routing semantics: theme-less entries live in a
//! broadcast list that every event visits; themed entries are bucketed
//! under each of their *canonical* theme tags (normalized, deduplicated —
//! a subscription deserialized with `["power","power"]` enters its bucket
//! once). Candidate collection writes into a reusable per-worker
//! [`DispatchScratch`], so the dispatch hot path stays allocation-free.
//!
//! [`Matcher::covering_safe`]: tep_matcher::Matcher::covering_safe

use crate::broker::{Registration, SubscriptionId};
use parking_lot::RwLock;
use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use tep_events::{ComparisonOp, Event, Predicate, Subscription};
use tep_matcher::MatchResult;
use tep_semantics::{intern_term, resolve_theme, theme_for_tags, ThemeId};

/// One predicate in canonical interned form. Ordering is derived so a
/// predicate list can be sorted into a canonical multiset.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
struct PredKey {
    attribute: u32,
    value: u32,
    op: u8,
    approx: u8,
}

impl PredKey {
    fn of(p: &Predicate) -> PredKey {
        let op = match p.op() {
            ComparisonOp::Eq => 0,
            ComparisonOp::Neq => 1,
            ComparisonOp::Gt => 2,
            ComparisonOp::Ge => 3,
            ComparisonOp::Lt => 4,
            ComparisonOp::Le => 5,
        };
        PredKey {
            attribute: intern_term(p.attribute()).as_u32(),
            value: intern_term(p.value()).as_u32(),
            op,
            approx: (p.is_attribute_approx() as u8) | ((p.is_value_approx() as u8) << 1),
        }
    }
}

/// The hash-cons key: the sorted predicate multiset plus the canonical
/// theme. Subscriptions that differ only in predicate declaration order or
/// raw tag spelling (case, duplicates) collapse onto one key.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
struct EntryKey {
    preds: Box<[PredKey]>,
    theme: ThemeId,
}

impl EntryKey {
    fn of(sub: &Subscription, theme: ThemeId) -> EntryKey {
        let mut preds: Vec<PredKey> = sub.predicates().iter().map(PredKey::of).collect();
        preds.sort_unstable();
        EntryKey {
            preds: preds.into_boxed_slice(),
            theme,
        }
    }
}

/// `a ⊆ b` as sorted multisets.
fn multiset_subset(a: &[PredKey], b: &[PredKey]) -> bool {
    if a.len() > b.len() {
        return false;
    }
    let mut j = 0;
    for k in a {
        loop {
            if j >= b.len() {
                return false;
            }
            match b[j].cmp(k) {
                std::cmp::Ordering::Less => j += 1,
                std::cmp::Ordering::Equal => {
                    j += 1;
                    break;
                }
                std::cmp::Ordering::Greater => return false,
            }
        }
    }
    true
}

/// `perm[rep_idx] = member_idx` between two subscriptions with equal
/// predicate multisets; `None` when the orders already coincide (the
/// common case — duplicate subscribers are usually verbatim clones).
fn perm_between(rep: &Subscription, member: &Subscription) -> Option<Box<[usize]>> {
    let rp = rep.predicates();
    let mp = member.predicates();
    debug_assert_eq!(rp.len(), mp.len(), "equal canonical keys");
    if rp
        .iter()
        .zip(mp.iter())
        .all(|(a, b)| PredKey::of(a) == PredKey::of(b))
    {
        return None;
    }
    let mut used = vec![false; mp.len()];
    let perm = rp
        .iter()
        .map(|p| {
            let k = PredKey::of(p);
            let j = mp
                .iter()
                .enumerate()
                .position(|(j, q)| !used[j] && PredKey::of(q) == k)
                .expect("equal multisets admit a bijection");
            used[j] = true;
            j
        })
        .collect();
    Some(perm)
}

/// `result` translated by `perm` into another predicate order: the same
/// `Arc` when the orders coincide (`None`), so one result serves every
/// identity-order subscriber instead of being copied per subscriber.
fn remapped(result: &Arc<MatchResult>, perm: Option<&[usize]>) -> Arc<MatchResult> {
    match perm {
        Some(perm) => Arc::new(result.with_remapped_predicates(perm)),
        None => Arc::clone(result),
    }
}

/// One subscriber behind an entry: its id, its registration (delivery
/// channel, breaker, explain opt-in), and the predicate-index permutation
/// from the representative's declaration order to this subscriber's.
pub(crate) struct FanoutMember {
    pub(crate) id: SubscriptionId,
    pub(crate) reg: Arc<Registration>,
    pub(crate) perm: Option<Box<[usize]>>,
}

impl FanoutMember {
    /// The representative's `MatchResult` translated into this member's
    /// predicate order (shared when the orders coincide).
    pub(crate) fn result_for(&self, result: &Arc<MatchResult>) -> Arc<MatchResult> {
        remapped(result, self.perm.as_deref())
    }
}

/// A covering edge to another entry, validated by `(slot, uid)` so edges
/// left behind by a removed entry can never hit a recycled slot.
#[derive(Debug, Clone, Copy)]
struct EdgeRef {
    slot: u32,
    uid: u64,
}

/// A twin edge additionally carries the predicate permutation from this
/// entry's representative order into the twin representative's order.
#[derive(Debug, Clone)]
struct TwinEdge {
    slot: u32,
    uid: u64,
    perm: Option<Arc<[usize]>>,
}

/// One hash-consed index entry: a canonical predicate multiset + theme,
/// its subscriber fan-out, and its covering edges. Entries are immutable
/// snapshots behind `Arc`; edge updates replace the `Arc` copy-on-write
/// (the fan-out list is shared across versions).
pub(crate) struct IndexEntry {
    slot: u32,
    uid: u64,
    key: EntryKey,
    /// Whether any predicate carries `~` (approximate) markers — gates the
    /// cache-temperature sampling, and approximate entries sort after
    /// exact ones in the sweep (S-ToPSS: exact layer first).
    pub(crate) approx: bool,
    /// The first subscriber's subscription, used for every match test of
    /// this entry. All members have equal predicate multisets, so any
    /// member is a valid representative.
    pub(crate) representative: Arc<Subscription>,
    fanout: Arc<RwLock<Vec<FanoutMember>>>,
    /// Cached `fanout.len()` readable without the lock (skip accounting).
    fanout_len: AtomicUsize,
    /// Entries whose predicate multiset ⊇ this entry's: a miss here prunes
    /// them. Complete by construction (every containment pair is recorded
    /// at insert), so pruning never needs transitive chasing.
    supersets: Vec<EdgeRef>,
    /// Entries with an equal predicate multiset under another theme: a hit
    /// here short-circuits their tests with the (permuted) result.
    twins: Vec<TwinEdge>,
}

impl IndexEntry {
    /// Number of predicates in the canonical set.
    #[cfg(test)]
    pub(crate) fn pred_count(&self) -> usize {
        self.key.preds.len()
    }

    /// Slot index in the entry table — the dense key cost attribution
    /// charges against.
    pub(crate) fn slot(&self) -> u32 {
        self.slot
    }

    /// Unique id stamped at insert; distinguishes this entry from any
    /// later occupant of a recycled slot.
    pub(crate) fn uid(&self) -> u64 {
        self.uid
    }

    /// Current number of subscribers fanned out from this entry.
    pub(crate) fn fanout_len(&self) -> usize {
        self.fanout_len.load(Ordering::Relaxed)
    }

    /// Read access to the fan-out list for delivery.
    pub(crate) fn fanout(&self) -> parking_lot::RwLockReadGuard<'_, Vec<FanoutMember>> {
        self.fanout.read()
    }

    /// A new version of this entry with updated covering edges (shares the
    /// fan-out list and identity with the old version).
    fn with_edges(&self, supersets: Vec<EdgeRef>, twins: Vec<TwinEdge>) -> IndexEntry {
        IndexEntry {
            slot: self.slot,
            uid: self.uid,
            key: self.key.clone(),
            approx: self.approx,
            representative: Arc::clone(&self.representative),
            fanout: Arc::clone(&self.fanout),
            fanout_len: AtomicUsize::new(self.fanout_len.load(Ordering::Relaxed)),
            supersets,
            twins,
        }
    }
}

#[derive(Default)]
struct IndexInner {
    /// Slot-addressed entry storage; freed slots are recycled with fresh
    /// uids so stale covering edges can never resolve.
    slots: Vec<Option<Arc<IndexEntry>>>,
    free: Vec<u32>,
    next_uid: u64,
    by_key: HashMap<EntryKey, u32>,
    /// Canonical tag → slots of themed entries carrying that tag.
    by_tag: HashMap<String, Vec<u32>>,
    /// Slots of theme-less entries: candidates for every event.
    broadcast: Vec<u32>,
    /// Canonical predicate → slots of entries containing it; drives
    /// covering-edge discovery at insert (only entries sharing at least
    /// one predicate can be related by containment).
    by_pred: HashMap<PredKey, Vec<u32>>,
    /// Reference counts of predicate multisets across themes, for the
    /// `distinct_subscriptions` gauge.
    predsets: HashMap<Box<[PredKey]>, usize>,
}

/// The broker-wide subscription index.
pub(crate) struct SubscriptionIndex {
    inner: RwLock<IndexInner>,
    subscribers: AtomicUsize,
    entries: AtomicUsize,
    distinct_predsets: AtomicUsize,
}

impl SubscriptionIndex {
    pub(crate) fn new() -> SubscriptionIndex {
        SubscriptionIndex {
            inner: RwLock::new(IndexInner::default()),
            subscribers: AtomicUsize::new(0),
            entries: AtomicUsize::new(0),
            distinct_predsets: AtomicUsize::new(0),
        }
    }

    /// Total subscribers across all entries.
    pub(crate) fn subscriber_count(&self) -> usize {
        self.subscribers.load(Ordering::Relaxed)
    }

    /// Live hash-consed entries (distinct predicate multiset × theme).
    pub(crate) fn entry_count(&self) -> usize {
        self.entries.load(Ordering::Relaxed)
    }

    /// Distinct predicate multisets irrespective of theme.
    pub(crate) fn distinct_subscriptions(&self) -> usize {
        self.distinct_predsets.load(Ordering::Relaxed)
    }

    /// Registers a subscriber. Duplicates of an existing canonical form
    /// join that entry's fan-out; new forms allocate an entry and wire its
    /// covering edges against every related entry. Returns the owning
    /// entry's `(slot, uid)` so callers can key per-entry state (e.g.
    /// cost-attribution cells) against the hash-consed identity.
    pub(crate) fn insert(&self, id: SubscriptionId, reg: &Arc<Registration>) -> (u32, u64) {
        let sub = &reg.subscription;
        let theme_id = theme_for_tags(sub.theme_tags());
        let theme = resolve_theme(theme_id);
        let key = EntryKey::of(sub, theme_id);
        let mut inner = self.inner.write();

        if let Some(&slot) = inner.by_key.get(&key) {
            let entry = inner.slots[slot as usize]
                .as_ref()
                .expect("by_key points at a live slot");
            let perm = perm_between(&entry.representative, sub);
            let mut fan = entry.fanout.write();
            fan.push(FanoutMember {
                id,
                reg: Arc::clone(reg),
                perm,
            });
            entry.fanout_len.store(fan.len(), Ordering::Relaxed);
            drop(fan);
            let joined = (entry.slot, entry.uid);
            self.subscribers.fetch_add(1, Ordering::Relaxed);
            return joined;
        }

        let slot = match inner.free.pop() {
            Some(s) => s,
            None => {
                inner.slots.push(None);
                (inner.slots.len() - 1) as u32
            }
        };
        let uid = inner.next_uid;
        inner.next_uid += 1;

        // Covering-edge discovery: any entry related by containment shares
        // at least one predicate with the new set, so the union of the
        // per-predicate buckets is a complete candidate list.
        let mut supersets = Vec::new();
        let mut twins = Vec::new();
        let mut seen: Vec<u32> = Vec::new();
        let mut unique = key.preds.to_vec();
        unique.dedup();
        for k in &unique {
            if let Some(bucket) = inner.by_pred.get(k) {
                for &s in bucket {
                    if !seen.contains(&s) {
                        seen.push(s);
                    }
                }
            }
        }
        let mut updates: Vec<(u32, Arc<IndexEntry>)> = Vec::new();
        for &s in &seen {
            let other = inner.slots[s as usize]
                .as_ref()
                .expect("by_pred points at live slots");
            let mine_in_other = multiset_subset(&key.preds, &other.key.preds);
            let other_in_mine = multiset_subset(&other.key.preds, &key.preds);
            if mine_in_other && other_in_mine {
                // Equal multisets under a different theme (same theme would
                // have hit by_key): twins both ways, with the permutation
                // between the two representatives.
                let fwd = perm_between(sub, &other.representative).map(Arc::<[usize]>::from);
                let rev = perm_between(&other.representative, sub).map(Arc::<[usize]>::from);
                twins.push(TwinEdge {
                    slot: other.slot,
                    uid: other.uid,
                    perm: fwd,
                });
                // Equal sets also cover each other: a miss on either prunes
                // the other.
                supersets.push(EdgeRef {
                    slot: other.slot,
                    uid: other.uid,
                });
                let mut ot = other.twins.clone();
                ot.push(TwinEdge {
                    slot,
                    uid,
                    perm: rev,
                });
                let mut os = other.supersets.clone();
                os.push(EdgeRef { slot, uid });
                updates.push((s, Arc::new(other.with_edges(os, ot))));
            } else if mine_in_other {
                // New ⊂ other: a miss on the new entry prunes the other.
                supersets.push(EdgeRef {
                    slot: other.slot,
                    uid: other.uid,
                });
            } else if other_in_mine {
                // Other ⊂ new: a miss on the other prunes the new entry.
                let mut os = other.supersets.clone();
                os.push(EdgeRef { slot, uid });
                updates.push((s, Arc::new(other.with_edges(os, other.twins.clone()))));
            }
        }
        for (s, e) in updates {
            inner.slots[s as usize] = Some(e);
        }

        let approx = sub
            .predicates()
            .iter()
            .any(|p| p.is_attribute_approx() || p.is_value_approx());
        let entry = Arc::new(IndexEntry {
            slot,
            uid,
            key: key.clone(),
            approx,
            representative: Arc::clone(sub),
            fanout: Arc::new(RwLock::new(vec![FanoutMember {
                id,
                reg: Arc::clone(reg),
                perm: None,
            }])),
            fanout_len: AtomicUsize::new(1),
            supersets,
            twins,
        });
        inner.slots[slot as usize] = Some(entry);
        inner.by_key.insert(key.clone(), slot);
        if theme.is_empty() {
            inner.broadcast.push(slot);
        } else {
            for tag in theme.tags() {
                inner.by_tag.entry(tag.clone()).or_default().push(slot);
            }
        }
        for k in &unique {
            inner.by_pred.entry(*k).or_default().push(slot);
        }
        let fresh = {
            let count = inner.predsets.entry(key.preds.clone()).or_insert(0);
            *count += 1;
            *count == 1
        };
        if fresh {
            self.distinct_predsets.fetch_add(1, Ordering::Relaxed);
        }
        self.entries.store(inner.by_key.len(), Ordering::Relaxed);
        self.subscribers.fetch_add(1, Ordering::Relaxed);
        (slot, uid)
    }

    /// Removes a subscriber; drops its entry (and the entry's leaves) when
    /// the fan-out empties. Covering edges pointing at the dropped entry
    /// are left in place — they are invalidated by uid and a recycled slot
    /// always gets a fresh uid.
    pub(crate) fn remove(&self, id: SubscriptionId, sub: &Subscription) {
        let theme_id = theme_for_tags(sub.theme_tags());
        let theme = resolve_theme(theme_id);
        let key = EntryKey::of(sub, theme_id);
        let mut inner = self.inner.write();
        let Some(&slot) = inner.by_key.get(&key) else {
            return;
        };
        let entry = Arc::clone(
            inner.slots[slot as usize]
                .as_ref()
                .expect("by_key points at a live slot"),
        );
        let now_empty = {
            let mut fan = entry.fanout.write();
            let Some(pos) = fan.iter().position(|m| m.id == id) else {
                return;
            };
            fan.remove(pos);
            entry.fanout_len.store(fan.len(), Ordering::Relaxed);
            fan.is_empty()
        };
        self.subscribers.fetch_sub(1, Ordering::Relaxed);
        if !now_empty {
            return;
        }
        inner.slots[slot as usize] = None;
        inner.free.push(slot);
        inner.by_key.remove(&key);
        if theme.is_empty() {
            inner.broadcast.retain(|&s| s != slot);
        } else {
            for tag in theme.tags() {
                if let Some(bucket) = inner.by_tag.get_mut(tag) {
                    bucket.retain(|&s| s != slot);
                    if bucket.is_empty() {
                        inner.by_tag.remove(tag);
                    }
                }
            }
        }
        let mut unique = key.preds.to_vec();
        unique.dedup();
        for k in &unique {
            if let Some(bucket) = inner.by_pred.get_mut(k) {
                bucket.retain(|&s| s != slot);
                if bucket.is_empty() {
                    inner.by_pred.remove(k);
                }
            }
        }
        let gone = {
            match inner.predsets.get_mut(&key.preds) {
                Some(count) => {
                    *count -= 1;
                    *count == 0
                }
                None => false,
            }
        };
        if gone {
            inner.predsets.remove(&key.preds);
            self.distinct_predsets.fetch_sub(1, Ordering::Relaxed);
        }
        self.entries.store(inner.by_key.len(), Ordering::Relaxed);
    }

    /// Collects the candidate entries for `event` into `scratch` without
    /// allocating in steady state: broadcast entries always, plus (unless
    /// `all_entries`) the buckets of each canonical event tag, deduplicated
    /// by generation stamp. Entries are swept exact-first, smallest
    /// predicate set first (S-ToPSS layering: cheap, most-covering tests
    /// lead). Returns `(total_subscribers, candidate_subscribers)`.
    pub(crate) fn collect_candidates(
        &self,
        event: &Event,
        all_entries: bool,
        scratch: &mut DispatchScratch,
    ) -> (u64, u64) {
        let inner = self.inner.read();
        scratch.begin(inner.slots.len());
        if all_entries {
            for slot in inner.slots.iter().flatten() {
                scratch.push(slot);
            }
        } else {
            for &s in &inner.broadcast {
                if let Some(e) = inner.slots[s as usize].as_ref() {
                    scratch.push(e);
                }
            }
            if !event.theme_tags().is_empty() {
                let theme = resolve_theme(theme_for_tags(event.theme_tags()));
                for tag in theme.tags() {
                    if let Some(bucket) = inner.by_tag.get(tag) {
                        for &s in bucket {
                            if let Some(e) = inner.slots[s as usize].as_ref() {
                                scratch.push(e);
                            }
                        }
                    }
                }
            }
        }
        drop(inner);
        scratch
            .entries
            .sort_unstable_by_key(|e| (e.approx, e.key.preds.len()));
        let candidate_subs: u64 = scratch.entries.iter().map(|e| e.fanout_len() as u64).sum();
        (self.subscriber_count() as u64, candidate_subs)
    }
}

impl std::fmt::Debug for SubscriptionIndex {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SubscriptionIndex")
            .field("subscribers", &self.subscriber_count())
            .field("entries", &self.entry_count())
            .field("distinct_subscriptions", &self.distinct_subscriptions())
            .finish()
    }
}

/// A covering verdict recorded for a not-yet-visited candidate entry.
enum Verdict {
    /// A covered subset missed, so this entry cannot match.
    Pruned,
    /// A twin hit; the stored result (already permuted into this entry's
    /// representative order) serves its fan-out without a test.
    TwinHit,
}

/// Reusable per-worker dispatch state: the candidate entry snapshot plus
/// generation-stamped per-slot verdict arrays. Nothing is cleared between
/// events — stamps make stale data unreadable — so steady-state dispatch
/// never allocates (the arrays only grow when the index itself grows).
pub(crate) struct DispatchScratch {
    /// Candidate entries for the current event, sorted for the sweep.
    pub(crate) entries: Vec<Arc<IndexEntry>>,
    generation: u64,
    seen: Vec<u64>,
    verdict_gen: Vec<u64>,
    verdict_uid: Vec<u64>,
    verdict: Vec<Option<Verdict>>,
    twin_results: Vec<Option<Arc<MatchResult>>>,
}

impl DispatchScratch {
    pub(crate) fn new() -> DispatchScratch {
        DispatchScratch {
            entries: Vec::new(),
            generation: 0,
            seen: Vec::new(),
            verdict_gen: Vec::new(),
            verdict_uid: Vec::new(),
            verdict: Vec::new(),
            twin_results: Vec::new(),
        }
    }

    fn begin(&mut self, slot_count: usize) {
        self.generation += 1;
        self.entries.clear();
        if self.seen.len() < slot_count {
            self.seen.resize(slot_count, 0);
            self.verdict_gen.resize(slot_count, 0);
            self.verdict_uid.resize(slot_count, 0);
            self.verdict.resize_with(slot_count, || None);
            self.twin_results.resize_with(slot_count, || None);
        }
    }

    fn push(&mut self, entry: &Arc<IndexEntry>) {
        let slot = entry.slot as usize;
        if self.seen[slot] != self.generation {
            self.seen[slot] = self.generation;
            self.entries.push(Arc::clone(entry));
        }
    }

    fn set_verdict(&mut self, slot: u32, uid: u64, verdict: Verdict) {
        let s = slot as usize;
        // Only candidates of this event matter, and the first verdict wins
        // (covering soundness makes conflicting verdicts impossible; this
        // is belt-and-braces).
        if self.seen[s] != self.generation || self.verdict_gen[s] == self.generation {
            return;
        }
        self.verdict_gen[s] = self.generation;
        self.verdict_uid[s] = uid;
        self.verdict[s] = Some(verdict);
    }

    /// Whether `entry` was pruned by a covered subset's miss.
    pub(crate) fn is_pruned(&self, entry: &IndexEntry) -> bool {
        let s = entry.slot as usize;
        self.verdict_gen[s] == self.generation
            && self.verdict_uid[s] == entry.uid
            && matches!(self.verdict[s], Some(Verdict::Pruned))
    }

    /// Takes the twin-hit result stored for `entry`, if any.
    pub(crate) fn take_twin_hit(&mut self, entry: &IndexEntry) -> Option<Arc<MatchResult>> {
        let s = entry.slot as usize;
        if self.verdict_gen[s] == self.generation
            && self.verdict_uid[s] == entry.uid
            && matches!(self.verdict[s], Some(Verdict::TwinHit))
        {
            self.twin_results[s].take()
        } else {
            None
        }
    }

    /// Records a miss on `entry`: every superset entry in the candidate
    /// set is pruned (conjunctive matcher: a missing predicate stays
    /// missing in any superset).
    pub(crate) fn record_miss(&mut self, entry: &IndexEntry) {
        for i in 0..entry.supersets.len() {
            let EdgeRef { slot, uid } = entry.supersets[i];
            self.set_verdict(slot, uid, Verdict::Pruned);
        }
    }

    /// Records a hit on `entry`: candidate twins are short-circuited with
    /// `result`, shared when the predicate orders coincide and permuted
    /// into a fresh result otherwise.
    pub(crate) fn record_hit(&mut self, entry: &IndexEntry, result: &Arc<MatchResult>) {
        for edge in &entry.twins {
            let s = edge.slot as usize;
            if self.seen[s] != self.generation || self.verdict_gen[s] == self.generation {
                continue;
            }
            self.verdict_gen[s] = self.generation;
            self.verdict_uid[s] = edge.uid;
            self.verdict[s] = Some(Verdict::TwinHit);
            self.twin_results[s] = Some(remapped(result, edge.perm.as_deref()));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::broker::Registration;
    use std::sync::atomic::AtomicU64;
    use tep_events::parse_subscription;
    use tep_matcher::Matcher;

    fn registration(sub: &Arc<Subscription>) -> Arc<Registration> {
        let (sender, receiver) = crossbeam::channel::bounded(4);
        Arc::new(Registration {
            subscription: Arc::clone(sub),
            sender,
            receiver: Some(receiver),
            consecutive_full: AtomicU64::new(0),
            explain: false,
            notif_counter: None,
            breaker: None,
        })
    }

    fn add(index: &SubscriptionIndex, id: u64, text: &str) -> Arc<Subscription> {
        let sub = Arc::new(parse_subscription(text).unwrap());
        index.insert(SubscriptionId(id), &registration(&sub));
        sub
    }

    fn candidate_ids(
        index: &SubscriptionIndex,
        scratch: &mut DispatchScratch,
        event: &Event,
        all: bool,
    ) -> Vec<u64> {
        index.collect_candidates(event, all, scratch);
        let mut ids: Vec<u64> = scratch
            .entries
            .iter()
            .flat_map(|e| e.fanout().iter().map(|m| m.id.0).collect::<Vec<_>>())
            .collect();
        ids.sort_unstable();
        ids
    }

    #[test]
    fn themed_events_reach_overlapping_and_broadcast_entries() {
        let index = SubscriptionIndex::new();
        let mut scratch = DispatchScratch::new();
        add(&index, 1, "({power, grid}, {a= 1})");
        add(&index, 2, "({transport}, {a= 2})");
        add(&index, 3, "{a= 3}");
        let event = tep_events::parse_event("({power}, {a: 1})").unwrap();
        assert_eq!(candidate_ids(&index, &mut scratch, &event, false), [1, 3]);
    }

    #[test]
    fn themeless_events_reach_only_the_broadcast_set() {
        let index = SubscriptionIndex::new();
        let mut scratch = DispatchScratch::new();
        add(&index, 1, "({power}, {a= 1})");
        add(&index, 2, "{a= 2}");
        let event = tep_events::parse_event("{a: 1}").unwrap();
        assert_eq!(candidate_ids(&index, &mut scratch, &event, false), [2]);
    }

    #[test]
    fn multi_tag_overlap_is_deduplicated() {
        let index = SubscriptionIndex::new();
        let mut scratch = DispatchScratch::new();
        add(&index, 1, "({power, grid}, {a= 1})");
        let event = tep_events::parse_event("({power, grid}, {a: 1})").unwrap();
        // Both event tags hit the same entry; the generation stamp keeps it
        // to one candidate.
        assert_eq!(candidate_ids(&index, &mut scratch, &event, false), [1]);
        assert_eq!(scratch.entries.len(), 1);
    }

    #[test]
    fn duplicate_theme_tags_enter_each_bucket_once() {
        // Regression for the old RoutingTable::insert bug: a subscription
        // carrying duplicate tags (possible via deserialization, which
        // bypasses the builder's dedup) must not double-enter its bucket.
        let index = SubscriptionIndex::new();
        let mut scratch = DispatchScratch::new();
        let json = r#"{"theme_tags":["power","power","Power "],"predicates":[
            {"attribute":"k","value":"v","approx_attribute":false,"approx_value":false}
        ]}"#;
        let sub: Subscription = serde_json::from_str(json).unwrap();
        let sub = Arc::new(sub);
        index.insert(SubscriptionId(7), &registration(&sub));
        let event = tep_events::parse_event("({power}, {k: v})").unwrap();
        assert_eq!(candidate_ids(&index, &mut scratch, &event, false), [7]);
        assert_eq!(scratch.entries.len(), 1);
        assert_eq!(scratch.entries[0].fanout_len(), 1);
        assert_eq!(index.entry_count(), 1);
    }

    #[test]
    fn duplicate_subscriptions_hash_cons_into_one_entry() {
        let index = SubscriptionIndex::new();
        let mut scratch = DispatchScratch::new();
        add(&index, 1, "({power}, {a= 1, b= 2})");
        add(&index, 2, "({power}, {a= 1, b= 2})");
        // Permuted declaration order still lands on the same entry, with a
        // recorded permutation.
        add(&index, 3, "({power}, {b= 2, a= 1})");
        assert_eq!(index.entry_count(), 1);
        assert_eq!(index.distinct_subscriptions(), 1);
        assert_eq!(index.subscriber_count(), 3);
        let event = tep_events::parse_event("({power}, {a: 1, b: 2})").unwrap();
        index.collect_candidates(&event, false, &mut scratch);
        assert_eq!(scratch.entries.len(), 1);
        let entry = Arc::clone(&scratch.entries[0]);
        let fan = entry.fanout();
        assert_eq!(fan.len(), 3);
        assert!(fan[0].perm.is_none());
        assert!(fan[1].perm.is_none());
        assert_eq!(fan[2].perm.as_deref(), Some(&[1, 0][..]));
    }

    #[test]
    fn covering_edges_prune_supersets_and_short_circuit_twins() {
        let index = SubscriptionIndex::new();
        let mut scratch = DispatchScratch::new();
        add(&index, 1, "{a= 1}");
        add(&index, 2, "{a= 1, b= 2}");
        add(&index, 3, "({power}, {a= 1})");

        // A miss on the subset entry prunes the superset entry.
        let event = tep_events::parse_event("({power}, {z: 9})").unwrap();
        index.collect_candidates(&event, false, &mut scratch);
        assert_eq!(scratch.entries.len(), 3);
        // Sweep order: smallest predicate sets first.
        assert_eq!(scratch.entries[0].pred_count(), 1);
        let small = Arc::clone(
            scratch
                .entries
                .iter()
                .find(|e| e.pred_count() == 1 && e.fanout()[0].id.0 == 1)
                .unwrap(),
        );
        let big = Arc::clone(
            scratch
                .entries
                .iter()
                .find(|e| e.pred_count() == 2)
                .unwrap(),
        );
        let twin = Arc::clone(
            scratch
                .entries
                .iter()
                .find(|e| e.pred_count() == 1 && e.fanout()[0].id.0 == 3)
                .unwrap(),
        );
        scratch.record_miss(&small);
        assert!(scratch.is_pruned(&big));
        assert!(scratch.is_pruned(&twin), "equal sets cover each other");

        // A hit on one twin short-circuits the other, sharing its result
        // (one predicate: the orders coincide).
        index.collect_candidates(&event, false, &mut scratch);
        let result = Arc::new(tep_matcher::ExactMatcher::new().match_event(
            &small.representative,
            &tep_events::parse_event("{a: 1}").unwrap(),
        ));
        assert!(result.is_match(1.0));
        scratch.record_hit(&small, &result);
        assert!(!scratch.is_pruned(&twin));
        let stored = scratch.take_twin_hit(&twin).expect("twin hit recorded");
        assert!(Arc::ptr_eq(&stored, &result));
        assert!(
            scratch.take_twin_hit(&big).is_none(),
            "strict supersets are not twin-hit"
        );
    }

    #[test]
    fn remove_clears_every_index_leaf() {
        let index = SubscriptionIndex::new();
        let mut scratch = DispatchScratch::new();
        let sub1 = add(&index, 1, "({power, grid}, {a= 1})");
        let sub2 = add(&index, 2, "{a= 2}");
        index.remove(SubscriptionId(1), &sub1);
        index.remove(SubscriptionId(2), &sub2);
        assert_eq!(index.subscriber_count(), 0);
        assert_eq!(index.entry_count(), 0);
        assert_eq!(index.distinct_subscriptions(), 0);
        let inner = index.inner.read();
        assert!(inner.by_tag.is_empty(), "emptied tag buckets are dropped");
        assert!(inner.broadcast.is_empty());
        assert!(inner.by_pred.is_empty());
        assert!(inner.by_key.is_empty());
        drop(inner);
        let event = tep_events::parse_event("({power}, {a: 1})").unwrap();
        assert!(candidate_ids(&index, &mut scratch, &event, false).is_empty());
    }

    #[test]
    fn removing_an_unknown_id_is_a_no_op() {
        let index = SubscriptionIndex::new();
        let sub = add(&index, 1, "({power}, {a= 1})");
        let stranger = Arc::new(parse_subscription("({water}, {q= 1})").unwrap());
        index.remove(SubscriptionId(99), &stranger);
        index.remove(SubscriptionId(99), &sub);
        assert_eq!(index.subscriber_count(), 1);
        assert_eq!(index.entry_count(), 1);
    }

    #[test]
    fn duplicate_leavers_keep_the_shared_entry_alive() {
        let index = SubscriptionIndex::new();
        let mut scratch = DispatchScratch::new();
        let s1 = add(&index, 1, "({power}, {a= 1})");
        let s2 = add(&index, 2, "({power}, {a= 1})");
        index.remove(SubscriptionId(1), &s1);
        assert_eq!(index.entry_count(), 1);
        assert_eq!(index.subscriber_count(), 1);
        let event = tep_events::parse_event("({power}, {a: 1})").unwrap();
        assert_eq!(candidate_ids(&index, &mut scratch, &event, false), [2]);
        index.remove(SubscriptionId(2), &s2);
        assert_eq!(index.entry_count(), 0);
    }

    #[test]
    fn recycled_slots_invalidate_stale_covering_edges() {
        let index = SubscriptionIndex::new();
        let mut scratch = DispatchScratch::new();
        add(&index, 1, "{a= 1}");
        let s2 = add(&index, 2, "{a= 1, b= 2}");
        index.remove(SubscriptionId(2), &s2);
        // Reuse the freed slot with an unrelated entry: the stale edge from
        // entry 1 must not prune it.
        add(&index, 3, "{z= 9}");
        let event = tep_events::parse_event("{q: 0}").unwrap();
        index.collect_candidates(&event, false, &mut scratch);
        let small = Arc::clone(
            scratch
                .entries
                .iter()
                .find(|e| e.fanout()[0].id.0 == 1)
                .unwrap(),
        );
        let fresh = Arc::clone(
            scratch
                .entries
                .iter()
                .find(|e| e.fanout()[0].id.0 == 3)
                .unwrap(),
        );
        scratch.record_miss(&small);
        assert!(!scratch.is_pruned(&fresh));
    }
}
