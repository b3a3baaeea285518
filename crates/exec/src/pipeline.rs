//! An ordered two-stage pipeline: produce on a helper thread, consume
//! on the caller's.
//!
//! [`pipeline`] splits one serial loop `for x in items { consume(x) }`
//! across two threads without changing what `consume` sees. A scoped
//! helper thread drains the iterator into fixed chunks and sends them
//! through a bounded channel; the caller consumes each chunk in order
//! and sends the emptied buffer back for the helper to refill. The
//! consumer allocates every buffer up front, so the steady state
//! allocates nothing and the memory in flight is bounded by
//! `BUFFERS · CHUNK` items.

use std::sync::mpsc::{channel, sync_channel};

/// Items the helper thread hands over at a time: large enough that the
/// two channel operations per chunk vanish against the work, small
/// enough that the consumer starts almost at once.
const CHUNK: usize = 1024;

/// Chunk buffers in flight: one being filled, one queued, one being
/// consumed.
const BUFFERS: usize = 3;

/// Runs `for item in items { consume(item) }` with the iterator drained
/// on a scoped helper thread and `consume` on the calling thread.
///
/// `consume` receives exactly the items the iterator yields, in order,
/// so its result does not depend on `threads`. With `threads <= 1` the
/// loop runs inline on the caller's thread; callers pass
/// [`default_threads`](crate::default_threads), so `PPM_THREADS=1`
/// keeps the whole process on one thread. The helper inherits the
/// caller's telemetry context, as [`Executor`](crate::Executor)
/// workers do.
///
/// A panic in `items` or in `consume` propagates to the caller once
/// the other side has stopped.
///
/// # Examples
///
/// ```
/// let mut sum = 0u64;
/// ppm_exec::pipeline(1..=10_000u64, 2, |x| sum += x);
/// assert_eq!(sum, 50_005_000);
/// ```
pub fn pipeline<I, F>(items: I, threads: usize, mut consume: F)
where
    I: Iterator + Send,
    I::Item: Send,
    F: FnMut(I::Item),
{
    if threads <= 1 {
        items.for_each(consume);
        return;
    }
    let (full_tx, full_rx) = sync_channel::<Vec<I::Item>>(BUFFERS);
    let (empty_tx, empty_rx) = channel();
    for _ in 0..BUFFERS {
        // Cannot fail: `empty_rx` is still in scope.
        let _ = empty_tx.send(Vec::with_capacity(CHUNK));
    }
    let ctx = ppm_telemetry::current_context();
    // Both channel ends the caller holds move into the scope, so a
    // panicking `consume` drops them and the helper stops instead of
    // waiting for a buffer that never comes back.
    std::thread::scope(move |scope| {
        let helper = scope.spawn(move || {
            let _ctx_guard = ctx.attach();
            let mut items = items;
            while let Ok(mut buf) = empty_rx.recv() {
                buf.extend(items.by_ref().take(CHUNK));
                let last = buf.len() < CHUNK;
                if full_tx.send(buf).is_err() || last {
                    break;
                }
            }
        });
        for mut buf in full_rx.iter() {
            buf.drain(..).for_each(&mut consume);
            // The helper may already be gone after its last chunk.
            let _ = empty_tx.send(buf);
        }
        if let Err(payload) = helper.join() {
            std::panic::resume_unwind(payload);
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hands_over_every_item_in_order_at_any_length() {
        for n in [0, 1, CHUNK - 1, CHUNK, CHUNK + 1, 5 * CHUNK + 17] {
            for threads in [1, 2] {
                let mut seen = Vec::new();
                pipeline(0..n, threads, |x| seen.push(x));
                assert_eq!(seen, (0..n).collect::<Vec<_>>(), "n={n} threads={threads}");
            }
        }
    }

    #[test]
    fn a_panicking_consumer_stops_the_helper_and_propagates() {
        let result = std::panic::catch_unwind(|| {
            pipeline(0..10 * CHUNK, 2, |x| {
                if x == CHUNK + 3 {
                    panic!("consumer gave up");
                }
            });
        });
        let payload = result.unwrap_err();
        assert_eq!(payload.downcast_ref::<&str>(), Some(&"consumer gave up"));
    }

    #[test]
    fn a_panicking_iterator_propagates_its_own_payload() {
        let items = (0..10 * CHUNK).inspect(|&x| {
            if x == 2 * CHUNK {
                panic!("producer gave up");
            }
        });
        let result = std::panic::catch_unwind(move || pipeline(items, 2, |_| {}));
        let payload = result.unwrap_err();
        assert_eq!(payload.downcast_ref::<&str>(), Some(&"producer gave up"));
    }

    #[test]
    fn the_helper_records_into_the_callers_registry() {
        let scoped = ppm_telemetry::Registry::scoped();
        let counted = (0..3 * CHUNK).inspect(|_| ppm_telemetry::counter("pipeline.test").inc());
        pipeline(counted, 2, |_| {});
        assert_eq!(scoped.counter("pipeline.test").get(), 3 * CHUNK as u64);
        assert_eq!(ppm_telemetry::registry().counter("pipeline.test").get(), 0);
    }
}
