//! Push delivery: the encode-once [`FrameCache`], the bounded
//! [`DeltaSink`] outbox, and the per-name subscriber slot a share's
//! deltas broadcast to.

use super::SubDelta;
use crate::telemetry;
use std::collections::VecDeque;
use std::fmt;
use std::sync::{Arc, Mutex, OnceLock, Weak};

/// A shared once-cell for the encoded wire image of one pushed delta —
/// the **encode-once broadcast** handle. Maintenance creates one cache
/// per emitted `(subscription, delta)` and hands the same handle to
/// every attached [`DeltaSink`]; the first network connection to
/// deliver the event encodes the full length-prefixed frame and
/// publishes the bytes, every other connection clones the `Arc<[u8]>`
/// (see [`crate::net::wire::encode_frame_bytes`]). The subscription
/// layer never encodes anything itself — it only provides the shared
/// cell, so the wire format stays a `net`-layer concern.
///
/// A cache is only ever shared between events carrying the *same*
/// subscription name, delta, and `lagged` flag: outbox squashing
/// replaces the survivor's cache with a fresh empty one, so a composed
/// (`lagged`) event re-encodes per connection — the rare slow-consumer
/// path.
#[derive(Clone, Default)]
pub struct FrameCache(Arc<OnceLock<Arc<[u8]>>>);

impl FrameCache {
    /// The published frame bytes, if any connection has encoded this
    /// event yet.
    pub fn get(&self) -> Option<Arc<[u8]>> {
        self.0.get().cloned()
    }

    /// Publishes the encoded frame bytes. First writer wins; a racing
    /// second encode is dropped (both encodes are bit-identical by the
    /// sharing contract above, so either is valid).
    pub fn prime(&self, bytes: Arc<[u8]>) {
        let _ = self.0.set(bytes);
    }
}

impl fmt::Debug for FrameCache {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.0.get() {
            Some(bytes) => write!(f, "FrameCache({} bytes)", bytes.len()),
            None => write!(f, "FrameCache(unencoded)"),
        }
    }
}

/// One queued sink entry: the subscription it belongs to, the
/// epoch-tagged delta, and whether backpressure squashed older entries
/// into it (`lagged` — the consumer should resync from a full answer if
/// it cares about per-epoch granularity; folding stays exact either
/// way).
#[derive(Debug, Clone)]
pub struct FeedEvent {
    /// The subscription name.
    pub subscription: String,
    /// The (possibly squashed) answer delta.
    pub delta: SubDelta,
    /// `true` when this delta is the composition of entries an
    /// overflowing outbox squashed together.
    pub lagged: bool,
    /// The encode-once cell shared by every outbox this event was
    /// fanned out to (fresh and private after a squash).
    pub cache: FrameCache,
    /// [`crate::telemetry::now_ns`] at enqueue time (0 when metrics are
    /// off) — the drain side subtracts it to sample `push_drain_lag_ns`.
    /// A squash keeps the *older* timestamp, so the lag of a composed
    /// event reflects how long its oldest constituent waited.
    pub enqueued_ns: u64,
}

impl PartialEq for FeedEvent {
    /// The wire-byte cache is delivery state, not event identity.
    fn eq(&self, other: &Self) -> bool {
        self.subscription == other.subscription
            && self.delta == other.delta
            && self.lagged == other.lagged
    }
}

/// A bounded outbox for [`FeedEvent`]s — the one way a standing query's
/// deltas leave the registry. Subscription maintenance (the producer,
/// running on whichever thread committed the mutation) pushes into it;
/// its owner drains it with [`DeltaSink::try_recv`]: a
/// [`crate::net::NetServer`] connection (its per-connection outbox,
/// woken through [`DeltaSink::set_wake_hook`]) or a
/// [`crate::server::ModServer`] pull sink behind `poll_subscription`.
///
/// ## Squash-oldest contract
///
/// A sink never drops a delta outright. When an enqueue takes it past
/// `capacity`, the two **oldest** events of one subscription are composed
/// via [`SubDelta::then`] and the survivor is flagged `lagged`, until the
/// queue is back within the bound. So the fold invariant
/// `answer₀ ⊕ δ₁ ⊕ … ⊕ δₖ = current answer` holds bit-for-bit however far
/// a consumer lags; only the *per-epoch granularity* of the oldest events
/// is lost (the squashed delta carries the later epoch), and `lagged`
/// tells an interactive consumer it may resync from a full answer
/// instead. If every queued event belongs to a distinct subscription,
/// nothing can be squashed soundly and the queue grows past the bound
/// instead (a sink serving `S` subscriptions needs a capacity ≥ `S` to
/// stay bounded).
pub struct DeltaSink {
    state: Mutex<SinkState>,
    capacity: usize,
    /// Invoked (outside the queue lock) after every enqueue — the
    /// readiness-loop nudge for a consumer that polls.
    wake_hook: Mutex<Option<Arc<dyn Fn() + Send + Sync>>>,
}

impl fmt::Debug for DeltaSink {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let st = self.state.lock().unwrap();
        f.debug_struct("DeltaSink")
            .field("queued", &st.queue.len())
            .field("closed", &st.closed)
            .field("capacity", &self.capacity)
            .finish()
    }
}

#[derive(Debug, Default)]
struct SinkState {
    queue: VecDeque<FeedEvent>,
    closed: bool,
}

impl DeltaSink {
    /// A sink retaining at most `capacity` undrained events before
    /// squashing (minimum 1; see the squash contract).
    pub fn bounded(capacity: usize) -> DeltaSink {
        DeltaSink {
            state: Mutex::new(SinkState::default()),
            capacity: capacity.max(1),
            wake_hook: Mutex::new(None),
        }
    }

    /// Registers (or clears) a callback invoked after every enqueue,
    /// outside the queue lock. An event-loop consumer points this at its
    /// waker so a maintenance thread's push interrupts the loop's
    /// `poll`; the hook must be cheap and must not call back into the
    /// sink.
    pub fn set_wake_hook(&self, hook: Option<Arc<dyn Fn() + Send + Sync>>) {
        *self.wake_hook.lock().unwrap() = hook;
    }

    /// Enqueues one event, then squashes oldest same-subscription pairs
    /// while the queue is over the bound. No-op after
    /// [`DeltaSink::close`].
    fn push(&self, subscription: &str, delta: &SubDelta, cache: &FrameCache) {
        let mut st = self.state.lock().unwrap();
        if st.closed {
            return;
        }
        st.queue.push_back(FeedEvent {
            subscription: subscription.to_string(),
            delta: delta.clone(),
            lagged: false,
            cache: cache.clone(),
            enqueued_ns: if telemetry::metrics_on() {
                telemetry::now_ns()
            } else {
                0
            },
        });
        while st.queue.len() > self.capacity && Self::squash_oldest(&mut st.queue) {}
        drop(st);
        let hook = self.wake_hook.lock().unwrap().clone();
        if let Some(hook) = hook {
            hook();
        }
    }

    /// Composes the first two events sharing a subscription (events of
    /// one subscription are consecutive in its stream even when
    /// interleaved with other subscriptions' events, so `then` applies);
    /// `false` when every queued event belongs to a distinct
    /// subscription. The survivor's encode-once cache is replaced with a
    /// fresh private cell: the composed delta exists only in this
    /// outbox, so its frame must not alias the broadcast bytes.
    fn squash_oldest(queue: &mut VecDeque<FeedEvent>) -> bool {
        for i in 0..queue.len() {
            let name = &queue[i].subscription;
            if let Some(j) = (i + 1..queue.len()).find(|&j| queue[j].subscription == *name) {
                let newer = queue.remove(j).expect("index in range");
                let older = &mut queue[i];
                older.delta = older.delta.then(&newer.delta);
                older.lagged = true;
                older.cache = FrameCache::default();
                return true;
            }
        }
        false
    }

    /// Pops the next event without blocking.
    pub fn try_recv(&self) -> Option<FeedEvent> {
        self.state.lock().unwrap().queue.pop_front()
    }

    /// Closes the sink: producers stop enqueueing; what is queued can
    /// still be drained.
    pub fn close(&self) {
        self.state.lock().unwrap().closed = true;
    }

    /// Undrained events.
    pub fn len(&self) -> usize {
        self.state.lock().unwrap().queue.len()
    }

    /// `true` when no event is queued.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Undrained events of one subscription.
    pub(super) fn queued_for(&self, subscription: &str) -> usize {
        let st = self.state.lock().unwrap();
        st.queue
            .iter()
            .filter(|ev| ev.subscription == subscription)
            .count()
    }
}

/// One subscriber's view of a shared computation: its name and the
/// sinks its consumers own. The maintained answer lives on the share;
/// slots receive per-delta broadcasts.
#[derive(Debug)]
pub(super) struct SubscriberSlot {
    pub(super) name: String,
    /// Outboxes attached to this subscription (network connections,
    /// pull sinks); pruned when the consumer drops its `Arc`.
    pub(super) sinks: Vec<Weak<DeltaSink>>,
}

impl SubscriberSlot {
    /// Delivers one emitted delta: one encode-once [`FrameCache`] is
    /// created per (slot, delta) and shared by every attached sink —
    /// the pushed frame embeds the subscription name, so connections
    /// watching the same name broadcast identical bytes.
    pub(super) fn deliver(&mut self, delta: &SubDelta) {
        let cache = FrameCache::default();
        self.sinks.retain(|w| match w.upgrade() {
            Some(sink) => {
                sink.push(&self.name, delta, &cache);
                true
            }
            None => false,
        });
    }

    /// This name's events queued in its live sinks.
    pub(super) fn pending(&self) -> usize {
        self.sinks
            .iter()
            .filter_map(Weak::upgrade)
            .map(|sink| sink.queued_for(&self.name))
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::PrefilterPolicy;
    use crate::subscription::testutil::*;
    use crate::subscription::SubscriptionRegistry;
    use unn_traj::trajectory::Oid;

    #[test]
    fn feed_overflow_squashes_but_folds_identically() {
        let store = populated_store();
        let reg = Arc::new(SubscriptionRegistry::new());
        store.attach_subscriptions(&reg);
        let sink = Arc::new(DeltaSink::bounded(16));
        reg.register_with_sink(
            &store,
            "near0",
            star_query(),
            PrefilterPolicy::default(),
            Some(&sink),
        )
        .unwrap();
        let initial = reg.answer("near0").unwrap();
        // Far more in-band churn than the sink retains.
        for k in 0..56u64 {
            let oid = 100 + (k % 7);
            if store.contains(Oid(oid)) {
                store.remove(Oid(oid)).unwrap();
            }
            store.insert(tr(oid, 0.3 + (k % 5) as f64 * 0.1)).unwrap();
        }
        let info = reg.info("near0").unwrap();
        assert!(info.pending_deltas <= 16, "{info:?}");
        assert_eq!(info.pending_deltas, sink.len());
        let deltas = drain(&sink);
        let folded = deltas.iter().fold(initial, |acc, d| acc.apply(d));
        assert_eq!(folded, reg.answer("near0").unwrap());
    }

    #[test]
    fn sinks_receive_pushed_deltas_and_squash_on_overflow() {
        let store = populated_store();
        let reg = Arc::new(SubscriptionRegistry::new());
        store.attach_subscriptions(&reg);
        reg.register(&store, "near0", star_query(), PrefilterPolicy::default())
            .unwrap();
        let sink = Arc::new(DeltaSink::bounded(2));
        assert!(reg.attach_sink("near0", &sink));
        assert!(!reg.attach_sink("bogus", &sink));
        let initial = reg.answer("near0").unwrap();
        // Three in-band commits against a capacity-2 sink: the oldest
        // pair squashes into one lagged event.
        store.insert(tr(70, 0.4)).unwrap();
        store.insert(tr(71, 0.6)).unwrap();
        store.insert(tr(72, 0.8)).unwrap();
        assert_eq!(sink.len(), 2);
        let first = sink.try_recv().unwrap();
        assert!(first.lagged, "{first:?}");
        assert_eq!(first.subscription, "near0");
        let second = sink.try_recv().unwrap();
        assert!(!second.lagged);
        // Folding the (squashed) stream still lands on the maintained
        // answer bit-for-bit.
        let folded = initial.apply(&first.delta).apply(&second.delta);
        assert_eq!(folded, reg.answer("near0").unwrap());
        // A closed sink accepts nothing.
        sink.close();
        store.insert(tr(73, 0.9)).unwrap();
        assert!(sink.is_empty());
        assert!(sink.try_recv().is_none(), "closed and drained");
    }

    #[test]
    fn a_capacity_one_sink_holds_one_event() {
        let store = populated_store();
        let reg = Arc::new(SubscriptionRegistry::new());
        store.attach_subscriptions(&reg);
        reg.register(&store, "near0", star_query(), PrefilterPolicy::default())
            .unwrap();
        let sink = Arc::new(DeltaSink::bounded(1));
        assert!(reg.attach_sink("near0", &sink));
        let initial = reg.answer("near0").unwrap();
        // Three in-band commits: each enqueue past the bound composes
        // the queued pair, so one lagged event is left.
        store.insert(tr(70, 0.4)).unwrap();
        store.insert(tr(71, 0.6)).unwrap();
        store.insert(tr(72, 0.8)).unwrap();
        assert_eq!(sink.len(), 1);
        assert_eq!(reg.info("near0").unwrap().pending_deltas, 1);
        let only = sink.try_recv().unwrap();
        assert!(only.lagged, "{only:?}");
        assert_eq!(only.delta.epoch(), store.epoch());
        assert_eq!(initial.apply(&only.delta), reg.answer("near0").unwrap());
    }

    #[test]
    fn pending_deltas_count_the_names_queued_events() {
        let store = populated_store();
        let reg = Arc::new(SubscriptionRegistry::new());
        store.attach_subscriptions(&reg);
        reg.register(&store, "a", star_query(), PrefilterPolicy::default())
            .unwrap();
        reg.register(&store, "b", star_query(), PrefilterPolicy::default())
            .unwrap();
        // One outbox serving both names, plus a second sink on "a".
        let outbox = Arc::new(DeltaSink::bounded(8));
        let extra = Arc::new(DeltaSink::bounded(8));
        assert!(reg.attach_sink("a", &outbox));
        assert!(reg.attach_sink("b", &outbox));
        assert!(reg.attach_sink("a", &extra));
        store.insert(tr(70, 0.4)).unwrap();
        store.insert(tr(71, 0.6)).unwrap();
        assert_eq!(outbox.len(), 4);
        assert_eq!(reg.info("a").unwrap().pending_deltas, 2 + 2);
        assert_eq!(reg.info("b").unwrap().pending_deltas, 2);
        // Draining counts down; a dropped sink no longer counts.
        drop(extra);
        assert_eq!(reg.info("a").unwrap().pending_deltas, 2);
        outbox.try_recv().unwrap();
        let pending: usize = reg.list().iter().map(|i| i.pending_deltas).sum();
        assert_eq!(pending, outbox.len());
    }

    #[test]
    fn shared_engine_broadcasts_one_delta_to_every_member_sink() {
        let store = populated_store();
        let reg = Arc::new(SubscriptionRegistry::new());
        store.attach_subscriptions(&reg);
        reg.register(&store, "a", star_query(), PrefilterPolicy::default())
            .unwrap();
        reg.register(&store, "b", star_query(), PrefilterPolicy::default())
            .unwrap();
        assert_eq!(reg.share_count(), 1);
        let sink_a = Arc::new(DeltaSink::bounded(8));
        let sink_b = Arc::new(DeltaSink::bounded(8));
        assert!(reg.attach_sink("a", &sink_a));
        assert!(reg.attach_sink("b", &sink_b));
        let initial = reg.answer("a").unwrap();
        store.insert(tr(70, 0.4)).unwrap();
        // One maintenance round fans the same delta out to both
        // members, each stamped with its own subscription name.
        let ev_a = sink_a.try_recv().unwrap();
        let ev_b = sink_b.try_recv().unwrap();
        assert_eq!(ev_a.subscription, "a");
        assert_eq!(ev_b.subscription, "b");
        assert_eq!(ev_a.delta, ev_b.delta);
        assert_eq!(initial.apply(&ev_a.delta), reg.answer("b").unwrap());
    }
}
