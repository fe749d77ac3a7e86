//! Push delivery: the encode-once [`FrameCache`], the bounded
//! [`DeltaSink`] outbox, and the per-name subscriber slot a share's
//! deltas broadcast to.

use super::SubDelta;
use crate::telemetry;
use std::collections::VecDeque;
use std::fmt;
use std::sync::{Arc, Condvar, Mutex, OnceLock, Weak};

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

/// One pushed change-feed entry: the subscription it belongs to, the
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

/// A bounded outbox for pushed [`FeedEvent`]s — the per-connection
/// backpressure buffer between subscription maintenance (the producer,
/// running on whichever thread committed the mutation) and a delivery
/// thread (the consumer, e.g. a [`crate::net::NetServer`] connection
/// pusher).
///
/// Overflow follows the squash-oldest contract documented at
/// [`crate::store::ModStore::set_feed_bound`]: the oldest two events of
/// the same subscription are composed via [`SubDelta::then`] and the
/// survivor is flagged `lagged`. Events are never dropped, so folding a
/// sink's stream remains bit-exact; if every queued event belongs to a
/// distinct subscription, the queue grows past the bound instead (a
/// sink serving `S` subscriptions needs a capacity ≥ `S` to stay
/// bounded).
///
/// A consumer can either block on [`DeltaSink::recv`] (its own delivery
/// thread) or register a [`DeltaSink::set_wake_hook`] and drain with
/// [`DeltaSink::try_recv`] — the event-loop pattern the multiplexed
/// [`crate::net::NetServer`] uses.
pub struct DeltaSink {
    state: Mutex<SinkState>,
    cv: Condvar,
    capacity: usize,
    /// Invoked (outside the queue lock) after every enqueue — the
    /// readiness-loop nudge for consumers that poll instead of block.
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
    /// squashing (minimum 1).
    pub fn bounded(capacity: usize) -> DeltaSink {
        DeltaSink {
            state: Mutex::new(SinkState::default()),
            cv: Condvar::new(),
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

    /// Enqueues one event, squashing the oldest same-subscription pair
    /// on overflow. No-op after [`DeltaSink::close`].
    fn push(&self, subscription: &str, delta: &SubDelta, cache: &FrameCache) {
        let mut st = self.state.lock().unwrap();
        if st.closed {
            return;
        }
        if st.queue.len() >= self.capacity {
            Self::squash_oldest(&mut st.queue);
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
        drop(st);
        self.cv.notify_one();
        let hook = self.wake_hook.lock().unwrap().clone();
        if let Some(hook) = hook {
            hook();
        }
    }

    /// Composes the first two events sharing a subscription (events of
    /// one subscription are consecutive in its stream even when
    /// interleaved with other subscriptions' events, so `then` applies).
    /// The survivor's encode-once cache is replaced with a fresh private
    /// cell: the composed delta exists only in this outbox, so its frame
    /// must not alias the broadcast bytes.
    fn squash_oldest(queue: &mut VecDeque<FeedEvent>) {
        for i in 0..queue.len() {
            let name = queue[i].subscription.clone();
            if let Some(j) = (i + 1..queue.len()).find(|&j| queue[j].subscription == name) {
                let newer = queue.remove(j).expect("index in range");
                let older = &mut queue[i];
                older.delta = older.delta.then(&newer.delta);
                older.lagged = true;
                older.cache = FrameCache::default();
                return;
            }
        }
        // Every queued event belongs to a distinct subscription: nothing
        // can be squashed soundly; the queue grows past the bound.
    }

    /// Blocks until an event is available or the sink is closed *and*
    /// drained (`None`).
    pub fn recv(&self) -> Option<FeedEvent> {
        let mut st = self.state.lock().unwrap();
        loop {
            if let Some(ev) = st.queue.pop_front() {
                return Some(ev);
            }
            if st.closed {
                return None;
            }
            st = self.cv.wait(st).unwrap();
        }
    }

    /// Pops the next event without blocking.
    pub fn try_recv(&self) -> Option<FeedEvent> {
        self.state.lock().unwrap().queue.pop_front()
    }

    /// Closes the sink: producers stop enqueueing, consumers drain what
    /// remains and then see `None`.
    pub fn close(&self) {
        self.state.lock().unwrap().closed = true;
        self.cv.notify_all();
    }

    /// `true` once closed.
    pub fn is_closed(&self) -> bool {
        self.state.lock().unwrap().closed
    }

    /// Undrained events.
    pub fn len(&self) -> usize {
        self.state.lock().unwrap().queue.len()
    }

    /// `true` when no event is queued.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// One subscriber's view of a shared computation: its private pull feed
/// and push outboxes. The maintained answer lives on the share; slots
/// receive per-delta broadcasts.
#[derive(Debug)]
pub(super) struct SubscriberSlot {
    pub(super) name: String,
    pub(super) feed: Vec<SubDelta>,
    /// Push outboxes attached to this subscription (e.g. network
    /// connections); pruned when the consumer drops its `Arc`.
    pub(super) sinks: Vec<Weak<DeltaSink>>,
}

impl SubscriberSlot {
    /// Delivers one emitted delta: one encode-once [`FrameCache`] is
    /// created per (slot, delta) and shared by every attached sink —
    /// the pushed frame embeds the subscription name, so connections
    /// watching the same name broadcast identical bytes.
    pub(super) fn deliver(&mut self, delta: &SubDelta, capacity: usize) {
        let cache = FrameCache::default();
        self.sinks.retain(|w| match w.upgrade() {
            Some(sink) => {
                sink.push(&self.name, delta, &cache);
                true
            }
            None => false,
        });
        self.feed.push(delta.clone());
        // Converge to the bound even when it was lowered mid-flight
        // (`store feed-bound <n>`): squash oldest pairs until within it.
        while self.feed.len() > capacity && self.feed.len() >= 2 {
            let second = self.feed.remove(1);
            self.feed[0] = self.feed[0].then(&second);
        }
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
        store.set_feed_bound(16);
        let reg = Arc::new(SubscriptionRegistry::new());
        store.attach_subscriptions(&reg);
        reg.register(&store, "near0", star_query(), PrefilterPolicy::default())
            .unwrap();
        let initial = reg.answer("near0").unwrap();
        // Far more in-band churn than the feed retains.
        for k in 0..56u64 {
            let oid = 100 + (k % 7);
            if store.contains(Oid(oid)) {
                store.remove(Oid(oid)).unwrap();
            }
            store.insert(tr(oid, 0.3 + (k % 5) as f64 * 0.1)).unwrap();
        }
        let info = reg.info("near0").unwrap();
        assert!(info.pending_deltas <= 16, "{info:?}");
        let deltas = reg.drain("near0").unwrap();
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
        // A dropped consumer is pruned; a closed sink accepts nothing.
        sink.close();
        store.insert(tr(73, 0.9)).unwrap();
        assert!(sink.is_empty());
        assert!(sink.recv().is_none(), "closed and drained");
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
