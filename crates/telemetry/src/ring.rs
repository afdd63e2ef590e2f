//! The workspace's one bounded buffer: [`Ring`], a fixed-capacity,
//! overwrite-oldest queue that counts what it pushed and what it dropped,
//! plus the telemetry [`EventRing`] built on it.
//!
//! `Ring` itself is not synchronized. Each owner wraps it in whatever
//! locking its access pattern needs — a mutex here and in the decision
//! trace, a per-thread mutex in the black box, a mutex + condvar for the
//! monitor's SSE broadcast — and keeps its extra state (attribution
//! counters, current arm, subscriber gaps) next to it.
//!
//! Every push gets a sequence number: the count of items pushed before it.
//! Evictions only ever remove the oldest item, so the retained items always
//! carry the contiguous sequence numbers `dropped() .. pushed()`, and a
//! consumer can detect the gap after wraparound without storing any
//! sequence number per item.

use crate::event::Event;
use std::collections::VecDeque;
use std::sync::Mutex;

/// Fixed-capacity, overwrite-oldest queue with push/drop accounting.
#[derive(Debug, Clone)]
pub struct Ring<T> {
    items: VecDeque<T>,
    capacity: usize,
    pushed: u64,
}

impl<T> Ring<T> {
    /// A ring holding at most `capacity` items (minimum 1). Storage grows
    /// on demand, so a large capacity costs nothing until it is used.
    pub fn new(capacity: usize) -> Self {
        let capacity = capacity.max(1);
        Ring {
            items: VecDeque::with_capacity(capacity.min(4096)),
            capacity,
            pushed: 0,
        }
    }

    /// Appends `item`, evicting the oldest when full, and returns the new
    /// item's sequence number.
    pub fn push(&mut self, item: T) -> u64 {
        if self.items.len() == self.capacity {
            self.items.pop_front();
        }
        self.items.push_back(item);
        self.pushed += 1;
        self.pushed - 1
    }

    /// Maximum number of retained items.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Number of items currently retained.
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// True when nothing is retained.
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    /// Total items ever pushed; also the sequence number the next push gets.
    pub fn pushed(&self) -> u64 {
        self.pushed
    }

    /// Items lost to wraparound; also the sequence number of the oldest
    /// retained item.
    pub fn dropped(&self) -> u64 {
        self.pushed - self.items.len() as u64
    }

    /// The retained items, oldest first.
    pub fn iter(&self) -> impl DoubleEndedIterator<Item = &T> + ExactSizeIterator {
        self.items.iter()
    }

    /// The retained items, oldest first, mutably.
    pub fn iter_mut(&mut self) -> impl DoubleEndedIterator<Item = &mut T> + ExactSizeIterator {
        self.items.iter_mut()
    }

    /// The retained items with their sequence numbers, oldest first.
    pub fn iter_seq(&self) -> impl Iterator<Item = (u64, &T)> {
        (self.dropped()..).zip(self.items.iter())
    }
}

/// A sequence-numbered event as read out of the [`EventRing`].
#[derive(Debug, Clone, PartialEq)]
pub struct SeqEvent {
    /// Global sequence number (0-based, never reused).
    pub seq: u64,
    /// The event payload.
    pub event: Event,
}

/// The recorder's structured event log: a [`Ring`] behind a mutex. Events
/// are per bandit step (or explicitly opted-in sim probes), orders of
/// magnitude rarer than counter bumps, so a short critical section is the
/// right trade.
pub struct EventRing(Mutex<Ring<Event>>);

impl EventRing {
    /// A ring holding at most `capacity` events (minimum 1).
    pub fn new(capacity: usize) -> Self {
        EventRing(Mutex::new(Ring::new(capacity)))
    }

    /// Appends an event, evicting the oldest if the ring is full.
    pub fn push(&self, event: Event) {
        self.0.lock().unwrap().push(event);
    }

    /// Number of events currently retained.
    pub fn len(&self) -> usize {
        self.0.lock().unwrap().len()
    }

    /// True when no events are retained.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Number of events lost to wraparound.
    pub fn dropped(&self) -> u64 {
        self.0.lock().unwrap().dropped()
    }

    /// Total events ever pushed.
    pub fn total_pushed(&self) -> u64 {
        self.0.lock().unwrap().pushed()
    }

    /// The retained events, oldest first.
    pub fn events(&self) -> Vec<SeqEvent> {
        let ring = self.0.lock().unwrap();
        ring.iter_seq()
            .map(|(seq, event)| SeqEvent {
                seq,
                event: event.clone(),
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(step: u64) -> Event {
        Event::EpochReset { agent: 1, step }
    }

    #[test]
    fn ring_numbers_pushes_and_counts_evictions() {
        let mut ring = Ring::new(3);
        assert!(ring.is_empty());
        for i in 0..5u64 {
            assert_eq!(ring.push(i * 10), i);
        }
        assert_eq!(ring.len(), 3);
        assert_eq!(ring.pushed(), 5);
        assert_eq!(ring.dropped(), 2);
        let seqs: Vec<(u64, u64)> = ring.iter_seq().map(|(s, v)| (s, *v)).collect();
        assert_eq!(seqs, vec![(2, 20), (3, 30), (4, 40)]);
        for v in ring.iter_mut() {
            *v += 1;
        }
        assert_eq!(ring.iter().copied().collect::<Vec<_>>(), vec![21, 31, 41]);
    }

    #[test]
    fn retains_in_insertion_order() {
        let ring = EventRing::new(10);
        for i in 0..5 {
            ring.push(ev(i));
        }
        let got = ring.events();
        assert_eq!(got.len(), 5);
        for (i, e) in got.iter().enumerate() {
            assert_eq!(e.seq, i as u64);
            assert_eq!(e.event, ev(i as u64));
        }
        assert_eq!(ring.dropped(), 0);
    }

    #[test]
    fn wraparound_keeps_newest_and_counts_dropped() {
        let ring = EventRing::new(4);
        for i in 0..10 {
            ring.push(ev(i));
        }
        let got = ring.events();
        assert_eq!(got.len(), 4);
        // The four newest survive, with contiguous sequence numbers 6..=9.
        let seqs: Vec<u64> = got.iter().map(|e| e.seq).collect();
        assert_eq!(seqs, vec![6, 7, 8, 9]);
        assert_eq!(ring.dropped(), 6);
        assert_eq!(ring.total_pushed(), 10);
    }

    #[test]
    fn capacity_floor_is_one() {
        assert_eq!(Ring::<u8>::new(0).capacity(), 1);
        let ring = EventRing::new(0);
        ring.push(ev(0));
        ring.push(ev(1));
        assert_eq!(ring.events().len(), 1);
        assert_eq!(ring.events()[0].seq, 1);
    }
}
