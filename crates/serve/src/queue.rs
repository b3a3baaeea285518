//! The one bounded FIFO between `ppm serve`'s accept thread and its
//! workers.
//!
//! The accept thread is the only producer, so one queue behind one
//! mutex is all the structure the request path needs: every idle
//! worker waits on the same queue, and a request waits only while every
//! worker is busy. Its length is the queue depth that shedding,
//! degradation, `/readyz` and `/statusz` read.

use std::collections::VecDeque;
use std::sync::{Condvar, Mutex, MutexGuard, PoisonError};

/// A bounded multi-consumer FIFO. [`Fifo::push`] never blocks: at
/// capacity it hands the item back so the caller can shed it.
/// [`Fifo::pop`] blocks until an item arrives or the queue closes.
pub(crate) struct Fifo<T> {
    slots: Mutex<Slots<T>>,
    ready: Condvar,
    capacity: usize,
}

struct Slots<T> {
    items: VecDeque<T>,
    closed: bool,
}

impl<T> Fifo<T> {
    /// An open, empty queue of `capacity` slots. Capacity zero refuses
    /// every push.
    pub(crate) fn new(capacity: usize) -> Self {
        Fifo {
            slots: Mutex::new(Slots {
                items: VecDeque::new(),
                closed: false,
            }),
            ready: Condvar::new(),
            capacity,
        }
    }

    fn slots(&self) -> MutexGuard<'_, Slots<T>> {
        self.slots.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Queues `item` behind everything already queued, or hands it back
    /// when all `capacity` slots are taken.
    pub(crate) fn push(&self, item: T) -> Result<(), T> {
        let mut slots = self.slots();
        if slots.items.len() >= self.capacity {
            return Err(item);
        }
        slots.items.push_back(item);
        drop(slots);
        self.ready.notify_one();
        Ok(())
    }

    /// The oldest queued item, waiting while the queue is empty and
    /// open; `None` once it is closed and drained.
    pub(crate) fn pop(&self) -> Option<T> {
        let mut slots = self.slots();
        loop {
            if let Some(item) = slots.items.pop_front() {
                return Some(item);
            }
            if slots.closed {
                return None;
            }
            slots = self
                .ready
                .wait(slots)
                .unwrap_or_else(PoisonError::into_inner);
        }
    }

    /// Closes the queue: every `pop` still drains what is queued, then
    /// returns `None`.
    pub(crate) fn close(&self) {
        self.slots().closed = true;
        self.ready.notify_all();
    }

    /// Items queued and not yet popped.
    pub(crate) fn len(&self) -> usize {
        self.slots().items.len()
    }

    /// The number of slots.
    pub(crate) fn capacity(&self) -> usize {
        self.capacity
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::mpsc::channel;
    use std::sync::Arc;

    #[test]
    fn pops_in_push_order() {
        let queue = Fifo::new(4);
        for i in 0..4u32 {
            queue.push(i).unwrap();
        }
        assert_eq!(queue.len(), 4);
        let popped: Vec<u32> = (0..4).filter_map(|_| queue.pop()).collect();
        assert_eq!(popped, [0, 1, 2, 3]);
        assert_eq!(queue.len(), 0);
    }

    #[test]
    fn a_push_at_capacity_hands_the_item_back() {
        let queue = Fifo::new(2);
        queue.push(1u32).unwrap();
        queue.push(2).unwrap();
        assert_eq!(queue.push(3), Err(3));
        assert_eq!(queue.pop(), Some(1));
        queue.push(3).unwrap();
        // Capacity zero is the shed-all drill: nothing is ever queued.
        let none = Fifo::new(0);
        assert_eq!(none.push(7u32), Err(7));
        assert_eq!(none.len(), 0);
    }

    #[test]
    fn close_drains_what_is_queued_then_ends_pop() {
        let queue = Fifo::new(3);
        queue.push('a').unwrap();
        queue.push('b').unwrap();
        queue.close();
        assert_eq!(queue.pop(), Some('a'));
        assert_eq!(queue.pop(), Some('b'));
        assert_eq!(queue.pop(), None);
    }

    #[test]
    fn close_wakes_every_waiting_consumer() {
        let queue = Arc::new(Fifo::<u32>::new(1));
        let (tx, rx) = channel();
        let consumers: Vec<_> = (0..3)
            .map(|_| {
                let queue = Arc::clone(&queue);
                let tx = tx.clone();
                std::thread::spawn(move || {
                    while let Some(n) = queue.pop() {
                        tx.send(n).unwrap();
                    }
                })
            })
            .collect();
        drop(tx);
        for n in 0..12 {
            let mut item = n;
            while let Err(back) = queue.push(item) {
                item = back;
                std::thread::yield_now();
            }
        }
        queue.close();
        for consumer in consumers {
            consumer.join().unwrap();
        }
        let mut seen: Vec<u32> = rx.iter().collect();
        seen.sort_unstable();
        assert_eq!(seen, (0..12).collect::<Vec<_>>());
    }
}
