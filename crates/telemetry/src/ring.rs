//! A bounded in-memory ring of recent events, for live inspection.
//!
//! [`EventRing`] is a [`Sink`] that keeps the last `capacity` events
//! (spans and metric snapshots are ignored) behind a mutex. The live
//! plane's `/eventz` route renders its contents on demand; tests use it
//! to assert on leveled emissions without touching stderr. Clones share
//! the same buffer, so one clone can be installed as a sink while
//! another is polled.

use std::collections::VecDeque;
use std::sync::{Arc, Mutex};

use crate::json::Json;
use crate::sink::{Level, Record, Sink, Verbosity};
use crate::span::monotonic_us;

/// One captured event, stamped with a sequence number and the
/// process-wide monotonic clock.
#[derive(Debug, Clone)]
pub struct RingEvent {
    /// Position in the ring's lifetime stream (0 = first ever seen).
    pub seq: u64,
    /// Capture time on [`monotonic_us`].
    pub at_us: u64,
    /// Severity.
    pub level: Level,
    /// Event name (dotted).
    pub name: String,
    /// Ordered field list.
    pub fields: Vec<(String, Json)>,
}

impl RingEvent {
    /// The event as one JSON object.
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("seq", Json::from(self.seq)),
            ("at_us", Json::from(self.at_us)),
            ("level", Json::from(self.level.as_str())),
            ("name", Json::from(self.name.as_str())),
            ("fields", Json::Obj(self.fields.clone())),
        ])
    }
}

#[derive(Debug, Default)]
struct RingState {
    events: VecDeque<RingEvent>,
    next_seq: u64,
    dropped: u64,
}

/// A capacity-bounded sink retaining the most recent events.
#[derive(Debug, Clone)]
pub struct EventRing {
    state: Arc<Mutex<RingState>>,
    capacity: usize,
}

impl EventRing {
    /// Creates a ring holding at most `capacity` events (minimum 1).
    pub fn new(capacity: usize) -> Self {
        EventRing {
            state: Arc::new(Mutex::new(RingState::default())),
            capacity: capacity.max(1),
        }
    }

    /// The ring's capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// A snapshot of the retained events, oldest first.
    pub fn events(&self) -> Vec<RingEvent> {
        let state = self
            .state
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        state.events.iter().cloned().collect()
    }

    /// How many events have been evicted to honour the capacity bound.
    pub fn dropped(&self) -> u64 {
        self.state
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .dropped
    }

    /// Renders the ring as the `ppm-eventz v1` JSON document served by
    /// the live plane's `/eventz` route.
    pub fn render_json(&self) -> String {
        let state = self
            .state
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        Json::obj([
            ("schema", Json::from("ppm-eventz v1")),
            ("capacity", Json::from(self.capacity)),
            ("dropped", Json::from(state.dropped)),
            (
                "events",
                Json::Arr(state.events.iter().map(RingEvent::to_json).collect()),
            ),
        ])
        .dump()
    }
}

impl Sink for EventRing {
    fn record(&mut self, rec: &Record) {
        let Record::Event {
            name,
            level,
            fields,
            ..
        } = rec
        else {
            return;
        };
        let mut state = self
            .state
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        let seq = state.next_seq;
        state.next_seq += 1;
        if state.events.len() == self.capacity {
            state.events.pop_front();
            state.dropped += 1;
        }
        state.events.push_back(RingEvent {
            seq,
            at_us: monotonic_us(),
            level: *level,
            name: name.clone(),
            fields: fields.clone(),
        });
    }

    fn verbosity(&self) -> Verbosity {
        Verbosity::Trace
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn evt(name: &str, level: Level) -> Record {
        Record::Event {
            name: name.to_string(),
            level,
            fields: vec![("k".to_string(), Json::from(1u64))],
            depth: 0,
        }
    }

    #[test]
    fn ring_retains_the_most_recent_events() {
        let mut ring = EventRing::new(2);
        ring.record(&evt("a", Level::Info));
        ring.record(&evt("b", Level::Warn));
        ring.record(&evt("c", Level::Error));
        let events = ring.events();
        let names: Vec<&str> = events.iter().map(|e| e.name.as_str()).collect();
        assert_eq!(names, vec!["b", "c"]);
        assert_eq!(ring.dropped(), 1);
        // Sequence numbers are lifetime positions, not ring slots.
        assert_eq!(events[0].seq, 1);
        assert_eq!(events[1].seq, 2);
        assert!(events[1].at_us >= events[0].at_us);
    }

    #[test]
    fn ring_ignores_spans_and_metrics() {
        let mut ring = EventRing::new(4);
        ring.record(&Record::Span {
            name: "s".into(),
            us: 1,
            start_us: 0,
            tid: 0,
            cpu_us: None,
            depth: 0,
            parent: None,
        });
        assert!(ring.events().is_empty());
    }

    #[test]
    fn render_json_is_the_eventz_document() {
        let mut ring = EventRing::new(8);
        ring.record(&evt("live.hello", Level::Warn));
        let doc = ring.render_json();
        assert!(doc.starts_with("{\"schema\":\"ppm-eventz v1\""));
        assert!(doc.contains("\"level\":\"warn\""));
        assert!(doc.contains("\"name\":\"live.hello\""));
        assert!(doc.contains("\"fields\":{\"k\":1}"));
        assert!(doc.ends_with("]}"));
    }

    #[test]
    fn clones_share_one_buffer() {
        let ring = EventRing::new(4);
        let mut writer = ring.clone();
        writer.record(&evt("shared", Level::Info));
        assert_eq!(ring.events().len(), 1);
    }
}
