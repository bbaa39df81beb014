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
//! once).
//!
//! Candidate collection is cached: each worker's [`DispatchScratch`]
//! keeps a small direct-mapped table of **plans** — the deduplicated,
//! sweep-ordered entry list for one routing key (broadcast, or one event
//! theme) — stamped with the index version they were built at. Every
//! index write bumps the version under the write lock, so a plan is
//! reused only while the index is exactly as it was when the plan was
//! built; a stale or missing plan is rebuilt in place. The sweep borrows
//! the plan, so the hot path neither locks the index nor touches an
//! entry's reference count, and stays allocation-free.
//!
//! [`Matcher::covering_safe`]: tep_matcher::Matcher::covering_safe

use crate::broker::{Registration, SubscriptionId};
use parking_lot::RwLock;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
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

/// A covering edge to another entry, by `(slot, uid)`: a verdict it
/// records is read back only for the entry with that uid, never for a
/// later occupant of a recycled slot.
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
    /// Bumped under the write lock by every write (see
    /// [`SubscriptionIndex::write`]); a cached [`Plan`] is valid only
    /// while it equals the plan's stamp. Starts at 1 so a never-built
    /// plan (stamp 0) is always stale.
    version: AtomicU64,
    subscribers: AtomicUsize,
    entries: AtomicUsize,
    distinct_predsets: AtomicUsize,
}

impl SubscriptionIndex {
    pub(crate) fn new() -> SubscriptionIndex {
        SubscriptionIndex {
            inner: RwLock::new(IndexInner::default()),
            version: AtomicU64::new(1),
            subscribers: AtomicUsize::new(0),
            entries: AtomicUsize::new(0),
            distinct_predsets: AtomicUsize::new(0),
        }
    }

    /// The write lock, with the version bumped under it. Every write —
    /// insert, duplicate join, remove (and so reap), covering-edge
    /// rewrite — goes through here, so no cached plan outlives a write:
    /// a dispatcher that loads the version after the bump misses its
    /// plan and rebuilds under the read lock, which waits for the write
    /// to finish; one that loaded it before the bump dispatches as if
    /// its event had been routed before the write began.
    fn write(&self) -> parking_lot::RwLockWriteGuard<'_, IndexInner> {
        let inner = self.inner.write();
        self.version.fetch_add(1, Ordering::Release);
        inner
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
        let mut inner = self.write();

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
    /// the fan-out empties, and rewrites every related entry without its
    /// covering edges to the dropped one. A left-behind edge could not
    /// resolve (a recycled slot gets a fresh uid), but its verdict would
    /// still claim the recycled slot for the event and so block the new
    /// occupant's own prune or twin hit; and under churn the edge lists
    /// of long-lived entries would grow without bound.
    pub(crate) fn remove(&self, id: SubscriptionId, sub: &Subscription) {
        let theme_id = theme_for_tags(sub.theme_tags());
        let theme = resolve_theme(theme_id);
        let key = EntryKey::of(sub, theme_id);
        let mut inner = self.write();
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
        let mut unique = key.preds.to_vec();
        unique.dedup();
        // Related entries share a predicate, so the removed entry's
        // predicate buckets hold every entry with an edge to it.
        let dead = |s: u32, u: u64| s == slot && u == entry.uid;
        for k in &unique {
            for i in 0..inner.by_pred.get(k).map_or(0, Vec::len) {
                let s = inner.by_pred[k][i] as usize;
                let Some(other) = inner.slots[s].as_ref() else {
                    continue;
                };
                if other.supersets.iter().any(|e| dead(e.slot, e.uid))
                    || other.twins.iter().any(|e| dead(e.slot, e.uid))
                {
                    let supersets = other
                        .supersets
                        .iter()
                        .filter(|e| !dead(e.slot, e.uid))
                        .copied()
                        .collect();
                    let twins = other
                        .twins
                        .iter()
                        .filter(|e| !dead(e.slot, e.uid))
                        .cloned()
                        .collect();
                    inner.slots[s] = Some(Arc::new(other.with_edges(supersets, twins)));
                }
            }
        }
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

    /// The candidate plan for `event` — broadcast entries always, plus
    /// (unless `all_entries`) the entries bucketed under each canonical
    /// event tag — and the verdict state for sweeping it. A hit on the
    /// worker's cached plan costs one version load and one table lookup;
    /// a miss rebuilds the plan under the read lock.
    pub(crate) fn collect_candidates<'s>(
        &self,
        event: &Event,
        all_entries: bool,
        scratch: &'s mut DispatchScratch,
    ) -> Sweep<'s> {
        let key = PlanKey {
            all_entries,
            theme: if all_entries {
                ThemeId::EMPTY
            } else {
                theme_for_tags(event.theme_tags())
            },
        };
        // Pairs with the bump's Release; the rebuild itself reads the
        // index under the read lock.
        let version = self.version.load(Ordering::Acquire);
        let plan = &mut scratch.plans[key.slot()];
        if plan.version != version || plan.key != key {
            self.build_plan(key, plan);
        }
        scratch.verdicts.begin(plan.members.len() * 64);
        Sweep {
            plan,
            verdicts: &mut scratch.verdicts,
        }
    }

    /// Rebuilds `plan` for `key` from the index, reusing its buffers:
    /// candidates deduplicated through the membership bitset and sorted
    /// exact-first, smallest predicate set first (S-ToPSS layering:
    /// cheap, most-covering tests lead).
    fn build_plan(&self, key: PlanKey, plan: &mut Plan) {
        let inner = self.inner.read();
        plan.entries.clear();
        plan.members.clear();
        plan.members.resize(inner.slots.len().div_ceil(64), 0);
        let add = |plan: &mut Plan, s: u32| {
            if let Some(e) = inner.slots[s as usize].as_ref() {
                if !plan.contains(s) {
                    plan.members[s as usize / 64] |= 1 << (s % 64);
                    plan.entries.push(Arc::clone(e));
                }
            }
        };
        if key.all_entries {
            for s in 0..inner.slots.len() as u32 {
                add(plan, s);
            }
        } else {
            for &s in &inner.broadcast {
                add(plan, s);
            }
            if !key.theme.is_empty_theme() {
                for tag in resolve_theme(key.theme).tags() {
                    for &s in inner.by_tag.get(tag).into_iter().flatten() {
                        add(plan, s);
                    }
                }
            }
        }
        plan.entries
            .sort_unstable_by_key(|e| (e.approx, e.key.preds.len()));
        plan.candidate_subs = plan.entries.iter().map(|e| e.fanout_len() as u64).sum();
        // Writers bump the version and change the subscriber count under
        // the write lock, so both are stable while the read lock is held.
        plan.total_subs = self.subscriber_count() as u64;
        plan.version = self.version.load(Ordering::Acquire);
        plan.key = key;
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

/// Plans each worker caches. The table is direct-mapped by routing key,
/// so a lookup is one index, a colliding key evicts the plan it lands
/// on, and the cache never holds more than this many plans.
const PLAN_SLOTS: usize = 64;

/// What a plan routes: every entry (broadcast policy), or the entries an
/// event with this canonical theme can reach.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct PlanKey {
    all_entries: bool,
    theme: ThemeId,
}

impl PlanKey {
    /// The key's position in the plan table. Theme ids are dense, so
    /// distinct themes spread over the table until it is full.
    fn slot(self) -> usize {
        (self.theme.as_u32() as usize * 2 + self.all_entries as usize) % PLAN_SLOTS
    }
}

/// One cached candidate plan: the deduplicated, sweep-ordered entries for
/// a routing key as of index version `version`, their slots as a
/// membership bitset, and the subscriber counts skip accounting needs.
pub(crate) struct Plan {
    key: PlanKey,
    /// Index version the plan was built at; 0 = never built.
    version: u64,
    entries: Vec<Arc<IndexEntry>>,
    /// Bit `s` set ⇔ the entry in slot `s` is a candidate.
    members: Vec<u64>,
    /// Subscribers in the whole index when the plan was built.
    pub(crate) total_subs: u64,
    /// Subscribers behind the plan's entries.
    pub(crate) candidate_subs: u64,
}

impl Plan {
    fn empty() -> Plan {
        Plan {
            key: PlanKey {
                all_entries: false,
                theme: ThemeId::EMPTY,
            },
            version: 0,
            entries: Vec::new(),
            members: Vec::new(),
            total_subs: 0,
            candidate_subs: 0,
        }
    }

    /// The candidate entries in sweep order.
    pub(crate) fn entries(&self) -> &[Arc<IndexEntry>] {
        &self.entries
    }

    fn contains(&self, slot: u32) -> bool {
        self.members
            .get(slot as usize / 64)
            .is_some_and(|word| word & (1 << (slot % 64)) != 0)
    }
}

/// Reusable per-worker dispatch state: the plan table plus
/// generation-stamped per-slot covering verdicts. Nothing is cleared
/// between events — stamps make stale verdicts unreadable — and plans
/// are rebuilt in their own buffers, so steady-state dispatch never
/// allocates (buffers only grow when the index itself grows).
pub(crate) struct DispatchScratch {
    plans: Box<[Plan]>,
    verdicts: Verdicts,
}

impl DispatchScratch {
    pub(crate) fn new() -> DispatchScratch {
        DispatchScratch {
            plans: (0..PLAN_SLOTS).map(|_| Plan::empty()).collect(),
            verdicts: Verdicts::default(),
        }
    }
}

/// Per-slot covering verdicts for the event being swept.
#[derive(Default)]
struct Verdicts {
    generation: u64,
    verdict_gen: Vec<u64>,
    verdict_uid: Vec<u64>,
    verdict: Vec<Option<Verdict>>,
    twin_results: Vec<Option<Arc<MatchResult>>>,
}

impl Verdicts {
    fn begin(&mut self, slot_count: usize) {
        self.generation += 1;
        if self.verdict_gen.len() < slot_count {
            self.verdict_gen.resize(slot_count, 0);
            self.verdict_uid.resize(slot_count, 0);
            self.verdict.resize_with(slot_count, || None);
            self.twin_results.resize_with(slot_count, || None);
        }
    }

    /// The verdict recorded for `entry` in this event, if any.
    fn get(&self, entry: &IndexEntry) -> Option<&Verdict> {
        let s = entry.slot as usize;
        if self.verdict_gen[s] == self.generation && self.verdict_uid[s] == entry.uid {
            self.verdict[s].as_ref()
        } else {
            None
        }
    }
}

/// One event's sweep over its plan: the borrowed plan plus the covering
/// verdicts recorded as entries are tested.
pub(crate) struct Sweep<'s> {
    pub(crate) plan: &'s Plan,
    verdicts: &'s mut Verdicts,
}

impl Sweep<'_> {
    /// Records `verdict` for the entry in `slot`, returning whether it
    /// was recorded: only candidates of this event matter, and the first
    /// verdict wins (covering soundness makes conflicting verdicts
    /// impossible; this is belt-and-braces).
    fn set_verdict(&mut self, slot: u32, uid: u64, verdict: Verdict) -> bool {
        let v = &mut *self.verdicts;
        let s = slot as usize;
        if !self.plan.contains(slot) || v.verdict_gen[s] == v.generation {
            return false;
        }
        v.verdict_gen[s] = v.generation;
        v.verdict_uid[s] = uid;
        v.verdict[s] = Some(verdict);
        true
    }

    /// Whether `entry` was pruned by a covered subset's miss.
    pub(crate) fn is_pruned(&self, entry: &IndexEntry) -> bool {
        matches!(self.verdicts.get(entry), Some(Verdict::Pruned))
    }

    /// Takes the twin-hit result stored for `entry`, if any.
    pub(crate) fn take_twin_hit(&mut self, entry: &IndexEntry) -> Option<Arc<MatchResult>> {
        if matches!(self.verdicts.get(entry), Some(Verdict::TwinHit)) {
            self.verdicts.twin_results[entry.slot as usize].take()
        } else {
            None
        }
    }

    /// Records a miss on `entry`: every superset entry in the candidate
    /// set is pruned (conjunctive matcher: a missing predicate stays
    /// missing in any superset).
    pub(crate) fn record_miss(&mut self, entry: &IndexEntry) {
        for &EdgeRef { slot, uid } in &entry.supersets {
            self.set_verdict(slot, uid, Verdict::Pruned);
        }
    }

    /// Records a hit on `entry`: candidate twins are short-circuited with
    /// `result`, shared when the predicate orders coincide and permuted
    /// into a fresh result otherwise.
    pub(crate) fn record_hit(&mut self, entry: &IndexEntry, result: &Arc<MatchResult>) {
        for edge in &entry.twins {
            if self.set_verdict(edge.slot, edge.uid, Verdict::TwinHit) {
                self.verdicts.twin_results[edge.slot as usize] =
                    Some(remapped(result, edge.perm.as_deref()));
            }
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
            attribution: None,
            breaker: None,
        })
    }

    fn add(index: &SubscriptionIndex, id: u64, text: &str) -> Arc<Subscription> {
        let sub = Arc::new(parse_subscription(text).unwrap());
        index.insert(SubscriptionId(id), &registration(&sub));
        sub
    }

    /// The plan's entries for `event` under theme routing, in sweep
    /// order.
    fn plan_entries(
        index: &SubscriptionIndex,
        scratch: &mut DispatchScratch,
        event: &Event,
    ) -> Vec<Arc<IndexEntry>> {
        index
            .collect_candidates(event, false, scratch)
            .plan
            .entries()
            .to_vec()
    }

    fn candidate_ids(
        index: &SubscriptionIndex,
        scratch: &mut DispatchScratch,
        event: &Event,
        all: bool,
    ) -> Vec<u64> {
        let mut ids: Vec<u64> = index
            .collect_candidates(event, all, scratch)
            .plan
            .entries()
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
        // Both event tags hit the same entry; the membership bitset keeps
        // it to one candidate.
        assert_eq!(candidate_ids(&index, &mut scratch, &event, false), [1]);
        assert_eq!(plan_entries(&index, &mut scratch, &event).len(), 1);
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
        let entries = plan_entries(&index, &mut scratch, &event);
        assert_eq!(entries.len(), 1);
        assert_eq!(entries[0].fanout_len(), 1);
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
        let entries = plan_entries(&index, &mut scratch, &event);
        assert_eq!(entries.len(), 1);
        let fan = entries[0].fanout();
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
        let entries = plan_entries(&index, &mut scratch, &event);
        assert_eq!(entries.len(), 3);
        // Sweep order: smallest predicate sets first.
        assert_eq!(entries[0].pred_count(), 1);
        let find = |pred_count: usize, id: Option<u64>| {
            Arc::clone(
                entries
                    .iter()
                    .find(|e| {
                        e.pred_count() == pred_count && id.is_none_or(|id| e.fanout()[0].id.0 == id)
                    })
                    .unwrap(),
            )
        };
        let (small, big, twin) = (find(1, Some(1)), find(2, None), find(1, Some(3)));
        let mut sweep = index.collect_candidates(&event, false, &mut scratch);
        sweep.record_miss(&small);
        assert!(sweep.is_pruned(&big));
        assert!(sweep.is_pruned(&twin), "equal sets cover each other");

        // A hit on one twin short-circuits the other, sharing its result
        // (one predicate: the orders coincide).
        let mut sweep = index.collect_candidates(&event, false, &mut scratch);
        let result = Arc::new(tep_matcher::ExactMatcher::new().match_event(
            &small.representative,
            &tep_events::parse_event("{a: 1}").unwrap(),
        ));
        assert!(result.is_match(1.0));
        sweep.record_hit(&small, &result);
        assert!(!sweep.is_pruned(&twin));
        let stored = sweep.take_twin_hit(&twin).expect("twin hit recorded");
        assert!(Arc::ptr_eq(&stored, &result));
        assert!(
            sweep.take_twin_hit(&big).is_none(),
            "strict supersets are not twin-hit"
        );
    }

    #[test]
    fn plans_are_reused_until_any_index_write() {
        let index = SubscriptionIndex::new();
        let mut scratch = DispatchScratch::new();
        let s1 = add(&index, 1, "({power}, {a= 1})");
        add(&index, 2, "({water}, {a= 1})");
        let event = tep_events::parse_event("({power}, {a: 1})").unwrap();
        let mut plan = |all: bool| {
            let plan = index.collect_candidates(&event, all, &mut scratch).plan;
            (plan.version, plan.candidate_subs, plan.total_subs)
        };
        let (v, candidates, total) = plan(false);
        assert_eq!((candidates, total), (1, 2));
        assert_eq!(plan(false), (v, 1, 2), "no write, no rebuild");
        assert_eq!(plan(true), (v, 2, 2), "the broadcast plan is cached apart");
        assert_eq!(plan(false), (v, 1, 2));

        // A duplicate join, a new entry, an unrelated theme's write and a
        // remove each bump the version, so the next event rebuilds.
        let writes: [(&dyn Fn(), u64, u64); 4] = [
            (&|| drop(add(&index, 3, "({power}, {a= 1})")), 2, 3),
            (&|| drop(add(&index, 4, "({power}, {a= 1, b= 2})")), 3, 4),
            (&|| drop(add(&index, 5, "({grid}, {c= 1})")), 3, 5),
            (&|| index.remove(SubscriptionId(1), &s1), 2, 4),
        ];
        let mut last = v;
        for (write, candidates, total) in writes {
            write();
            let (v, c, t) = plan(false);
            assert!(v > last, "every write invalidates the plan");
            assert_eq!((c, t), (candidates, total));
            last = v;
        }
    }

    #[test]
    fn removing_an_entry_drops_the_covering_edges_to_it() {
        let index = SubscriptionIndex::new();
        let mut scratch = DispatchScratch::new();
        add(&index, 1, "({power}, {a= 1})");
        let superset = add(&index, 2, "({power}, {a= 1, b= 2})");
        let twin = add(&index, 3, "({water}, {a= 1})");
        let edges = |scratch: &mut DispatchScratch| {
            let event = tep_events::parse_event("{q: 0}").unwrap();
            let plan = index.collect_candidates(&event, true, scratch).plan;
            let small = plan
                .entries()
                .iter()
                .find(|e| e.fanout()[0].id.0 == 1)
                .unwrap();
            (small.supersets.len(), small.twins.len())
        };
        assert_eq!(edges(&mut scratch), (2, 1));
        index.remove(SubscriptionId(2), &superset);
        index.remove(SubscriptionId(3), &twin);
        assert_eq!(edges(&mut scratch), (0, 0));
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
        // Reuse the freed slot with an unrelated entry: entry 1's edge to
        // the removed entry must not prune it.
        add(&index, 3, "{z= 9}");
        let event = tep_events::parse_event("{q: 0}").unwrap();
        let entries = plan_entries(&index, &mut scratch, &event);
        let by_id =
            |id: u64| Arc::clone(entries.iter().find(|e| e.fanout()[0].id.0 == id).unwrap());
        let (small, fresh) = (by_id(1), by_id(3));
        let mut sweep = index.collect_candidates(&event, false, &mut scratch);
        sweep.record_miss(&small);
        assert!(!sweep.is_pruned(&fresh));
    }
}
