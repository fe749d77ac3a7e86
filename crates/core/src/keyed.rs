//! The keyed-delta algebra, written once: sorted-merge [`diff`],
//! [`apply`] and [`then`] over rows with an [`Oid`] key and comparable
//! content.
//!
//! A maintained answer is a set of rows ascending by key; a delta is the
//! rows that are new or changed (*upserts*, ascending) plus the keys that
//! left (*removed*, ascending). The three operations form the group the
//! subscription layer relies on — exact, no tolerance:
//!
//! * `apply(old, diff(old, new)) == new`;
//! * `apply(apply(a, d1), d2) == apply(a, then(d1, d2))`, and `then` is
//!   associative, so a bounded feed may squash any adjacent pair;
//! * removals of absent keys are ignored, so composed deltas stay
//!   applicable to any base.
//!
//! [`crate::answer::AnswerSet`] / [`crate::answer::AnswerDelta`]
//! (qualification intervals) and [`crate::probrows::ProbRowSet`] /
//! [`crate::probrows::ProbRowDelta`] (sampled probability rows)
//! instantiate it; every input slice must be strictly ascending by key
//! and every output is.

use std::cmp::Ordering;
use unn_traj::trajectory::Oid;

/// A row of a keyed set: its stable key, and content compared with `==`
/// (bit-exact for the float-carrying rows of this crate).
pub trait Keyed: Clone + PartialEq {
    /// The object the row belongs to.
    fn key(&self) -> Oid;
}

/// Merges two key-ascending sequences into one; a key present on both
/// sides is taken from `b`.
fn merge<'a, T: Clone + 'a>(
    a: impl Iterator<Item = &'a T>,
    b: impl Iterator<Item = &'a T>,
    key: impl Fn(&T) -> Oid,
) -> Vec<T> {
    let (mut a, mut b) = (a.peekable(), b.peekable());
    // Upper bounds: a filtered side reports a lower bound of zero.
    let mut out = Vec::with_capacity(a.size_hint().1.unwrap_or(0) + b.size_hint().1.unwrap_or(0));
    loop {
        let order = match (a.peek(), b.peek()) {
            (Some(x), Some(y)) => key(x).cmp(&key(y)),
            (Some(_), None) => Ordering::Less,
            (None, Some(_)) => Ordering::Greater,
            (None, None) => return out,
        };
        let taken = if order == Ordering::Less {
            a.next()
        } else {
            if order == Ordering::Equal {
                a.next();
            }
            b.next()
        };
        out.extend(taken.cloned());
    }
}

/// The delta transforming `old` into `new`: `(upserts, removed)`.
pub fn diff<R: Keyed>(old: &[R], new: &[R]) -> (Vec<R>, Vec<Oid>) {
    let mut upserts = Vec::new();
    let mut removed = Vec::new();
    let (mut i, mut j) = (0usize, 0usize);
    while i < old.len() || j < new.len() {
        let order = match (old.get(i), new.get(j)) {
            (Some(o), Some(n)) => o.key().cmp(&n.key()),
            (Some(_), None) => Ordering::Less,
            (None, _) => Ordering::Greater,
        };
        match order {
            Ordering::Less => {
                removed.push(old[i].key());
                i += 1;
            }
            Ordering::Greater => {
                upserts.push(new[j].clone());
                j += 1;
            }
            Ordering::Equal => {
                if old[i] != new[j] {
                    upserts.push(new[j].clone());
                }
                i += 1;
                j += 1;
            }
        }
    }
    (upserts, removed)
}

/// `base` patched by a delta: upserts replace or add rows, removals drop
/// them (an upsert wins over a removal of the same key; removals of
/// absent keys are ignored).
pub fn apply<R: Keyed>(base: &[R], upserts: &[R], removed: &[Oid]) -> Vec<R> {
    let kept = base
        .iter()
        .filter(|r| removed.binary_search(&r.key()).is_err());
    merge(kept, upserts.iter(), R::key)
}

/// The composition of `first` (applied first) with `next`, each given as
/// `(upserts, removed)`: the first delta's upserts patched by the second
/// delta, and the union of the removals minus what `next` re-upserts.
pub fn then<R: Keyed>(first: (&[R], &[Oid]), next: (&[R], &[Oid])) -> (Vec<R>, Vec<Oid>) {
    let upserts = apply(first.0, next.0, next.1);
    let still_removed = first
        .1
        .iter()
        .filter(|oid| next.0.binary_search_by_key(*oid, R::key).is_err());
    (upserts, merge(still_removed, next.1.iter(), |oid| *oid))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::answer::AnswerEntry;
    use crate::probrows::ProbRow;
    use proptest::prelude::*;
    use std::collections::BTreeMap;
    use std::fmt::Debug;
    use unn_geom::interval::{IntervalSet, TimeInterval};

    /// Keys and a content selector, drawn from small domains so states
    /// collide on keys and contents often.
    type Spec = Vec<(u64, u8)>;
    type Delta<R> = (Vec<R>, Vec<Oid>);

    /// A strictly ascending row set (later draws of a key win).
    fn rows<R>(spec: &Spec, make: fn(Oid, u8) -> R) -> Vec<R> {
        let unique: BTreeMap<u64, u8> = spec.iter().copied().collect();
        unique.into_iter().map(|(k, c)| make(Oid(k), c)).collect()
    }

    fn entry(oid: Oid, content: u8) -> AnswerEntry {
        let span = TimeInterval::new(0.0, 1.0 + content as f64);
        AnswerEntry {
            oid,
            intervals: IntervalSet::from_intervals([span]),
        }
    }

    fn prob_row(oid: Oid, content: u8) -> ProbRow {
        ProbRow {
            oid,
            points: vec![(content as u32, 0.25 * (1 + content) as f64)],
        }
    }

    fn ascending<T>(items: &[T], key: impl Fn(&T) -> Oid) -> bool {
        items.windows(2).all(|w| key(&w[0]) < key(&w[1]))
    }

    /// The group laws over one row type. `specs[..4]` become four
    /// arbitrary row sets; `specs[4..]` three arbitrary (upserts,
    /// removed) pairs, not derived from any diff, so removals of absent
    /// keys and upserts colliding with removals are exercised.
    fn laws<R: Keyed + Debug>(make: fn(Oid, u8) -> R, specs: &[Spec]) -> Result<(), TestCaseError> {
        let s: Vec<Vec<R>> = specs[..4].iter().map(|spec| rows(spec, make)).collect();
        let d: Vec<Delta<R>> = specs[4..]
            .chunks(2)
            .map(|c| (rows(&c[0], make), rows(&c[1], |oid, _| oid)))
            .collect();
        let pair = |x: &Delta<R>, y: &Delta<R>| then((&x.0, &x.1), (&y.0, &y.1));
        let patched = |base: &[R], x: &Delta<R>| apply(base, &x.0, &x.1);
        // Round trip and minimality of the diff; identity.
        let chain: Vec<Delta<R>> = s.windows(2).map(|w| diff(&w[0], &w[1])).collect();
        for (w, step) in s.windows(2).zip(&chain) {
            prop_assert!(ascending(&step.0, R::key) && ascending(&step.1, |o| *o));
            prop_assert_eq!(&patched(&w[0], step), &w[1]);
            prop_assert!(
                step.0.iter().all(|u| !w[0].contains(u)),
                "unchanged row upserted"
            );
        }
        prop_assert_eq!(diff(&s[0], &s[0]), (Vec::new(), Vec::new()));
        prop_assert_eq!(&apply(&s[0], &[], &[]), &s[0]);
        // Diff-derived chains squash to the end state from the start,
        // and stay canonical: no key both upserted and removed.
        let squashed = pair(&pair(&chain[0], &chain[1]), &chain[2]);
        prop_assert_eq!(&patched(&s[0], &squashed), &s[3]);
        let upserted = |k: &Oid| squashed.0.binary_search_by_key(k, R::key).is_ok();
        prop_assert!(!squashed.1.iter().any(upserted), "key upserted and removed");
        // Arbitrary deltas: composition matches sequential application
        // (absent removals tolerated), is associative, stays ascending.
        let d01 = pair(&d[0], &d[1]);
        prop_assert!(ascending(&d01.0, R::key) && ascending(&d01.1, |o| *o));
        let stepwise = patched(&patched(&s[0], &d[0]), &d[1]);
        prop_assert!(ascending(&stepwise, R::key));
        prop_assert_eq!(&stepwise, &patched(&s[0], &d01));
        prop_assert_eq!(pair(&d01, &d[2]), pair(&d[0], &pair(&d[1], &d[2])));
        Ok(())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn delta_laws_hold_for_both_representations(
            specs in prop::collection::vec(prop::collection::vec((0..10u64, 0..3u8), 0..8), 10),
        ) {
            laws(entry, &specs)?;
            laws(prob_row, &specs)?;
        }
    }
}
