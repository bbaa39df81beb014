//! A bounded ring buffer for sampled diagnostics (match explanations,
//! causal spans).

use std::collections::VecDeque;
use std::sync::Mutex;

/// A bounded FIFO keeping the newest `capacity` entries; pushing into a
/// full ring evicts the oldest entry. A capacity of zero disables the
/// ring entirely ([`BoundedRing::push`] becomes a no-op), so callers can
/// keep one unconditional code path and let configuration decide whether
/// recording costs anything.
///
/// The ring is a plain mutexed deque: it holds debugging aids, not
/// hot-path metrics, and writers only touch it when it is enabled.
#[derive(Debug)]
pub struct BoundedRing<T> {
    entries: Mutex<VecDeque<T>>,
    capacity: usize,
}

impl<T: Clone> BoundedRing<T> {
    /// A ring keeping the newest `capacity` entries (0 = disabled).
    pub fn new(capacity: usize) -> BoundedRing<T> {
        BoundedRing {
            entries: Mutex::new(VecDeque::with_capacity(capacity.min(4096))),
            capacity,
        }
    }

    /// Whether pushes are recorded at all.
    pub fn is_enabled(&self) -> bool {
        self.capacity > 0
    }

    /// Appends an entry, evicting the oldest when full; no-op when the
    /// ring was created with capacity 0.
    pub fn push(&self, entry: T) {
        if self.capacity == 0 {
            return;
        }
        let mut entries = self.entries.lock().unwrap_or_else(|e| e.into_inner());
        if entries.len() >= self.capacity {
            entries.pop_front();
        }
        entries.push_back(entry);
    }

    /// The retained entries, oldest first.
    pub fn snapshot(&self) -> Vec<T> {
        self.entries
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .iter()
            .cloned()
            .collect()
    }

    /// Number of retained entries.
    pub fn len(&self) -> usize {
        self.entries.lock().unwrap_or_else(|e| e.into_inner()).len()
    }

    /// Whether nothing is retained.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn keeps_the_newest_entries() {
        let ring = BoundedRing::new(3);
        for i in 0..10 {
            ring.push(i);
        }
        assert_eq!(ring.len(), 3);
        assert_eq!(ring.snapshot(), vec![7, 8, 9]);
    }

    #[test]
    fn zero_capacity_disables_recording() {
        let ring = BoundedRing::new(0);
        assert!(!ring.is_enabled());
        ring.push(1);
        assert!(ring.is_empty());
    }

    #[test]
    fn concurrent_pushes_stay_bounded() {
        use std::sync::Arc;
        let ring = Arc::new(BoundedRing::new(16));
        let threads: Vec<_> = (0..4)
            .map(|t| {
                let ring = Arc::clone(&ring);
                std::thread::spawn(move || {
                    for i in 0..1_000 {
                        ring.push(t * 1_000 + i);
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        assert_eq!(ring.len(), 16);
    }
}
