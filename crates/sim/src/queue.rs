//! Bounded FIFO rings with drop accounting.
//!
//! Receive rings, vhost virtqueues and DPDK port queues are all bounded: when
//! the consumer falls behind, frames are tail-dropped. [`Ring`] counts those
//! drops so experiments can report loss.

use std::collections::VecDeque;

/// A bounded FIFO queue that tail-drops on overflow and counts drops.
#[derive(Debug, Clone)]
pub struct Ring<T> {
    capacity: usize,
    items: VecDeque<T>,
    dropped: u64,
}

impl<T> Ring<T> {
    /// Creates an empty ring holding at most `capacity` items.
    ///
    /// A capacity of zero is clamped to one.
    pub fn new(capacity: usize) -> Self {
        Ring {
            capacity: capacity.max(1),
            items: VecDeque::new(),
            dropped: 0,
        }
    }

    /// Attempts to enqueue an item; returns `false` (and counts a drop) when full.
    pub fn push(&mut self, item: T) -> bool {
        if self.items.len() >= self.capacity {
            self.dropped += 1;
            false
        } else {
            self.items.push_back(item);
            true
        }
    }

    /// Dequeues the oldest item, if any.
    pub fn pop(&mut self) -> Option<T> {
        self.items.pop_front()
    }

    /// Returns the current occupancy.
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// Returns whether the ring is empty.
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    /// Returns the configured capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Returns the number of items dropped on overflow.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Removes all items, keeping statistics.
    pub fn clear(&mut self) {
        self.items.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fifo_order_is_preserved() {
        let mut r = Ring::new(4);
        for i in 0..4 {
            assert!(r.push(i));
        }
        assert_eq!(r.pop(), Some(0));
        assert_eq!(r.pop(), Some(1));
        assert_eq!(r.len(), 2);
    }

    #[test]
    fn overflow_drops_and_counts() {
        let mut r = Ring::new(2);
        assert!(r.push('a'));
        assert!(r.push('b'));
        assert!(!r.push('c'));
        assert_eq!(r.dropped(), 1);
        assert_eq!(r.len(), 2);
    }

    #[test]
    fn zero_capacity_is_clamped() {
        let mut r = Ring::new(0);
        assert_eq!(r.capacity(), 1);
        assert!(r.push(1));
        assert!(!r.push(2));
    }
}
