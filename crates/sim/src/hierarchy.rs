//! Composition of the cache levels and the memory system into
//! instruction- and data-side access paths.

use crate::{Cache, MemorySystem, SimConfig};

/// The timing outcome of a memory-hierarchy access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AccessOutcome {
    /// Cycle at which the data is available.
    pub complete: u64,
    /// True if the access hit in its L1.
    pub l1_hit: bool,
    /// True if the access hit in the L2 (only meaningful on L1 miss).
    pub l2_hit: bool,
}

/// The full memory hierarchy: split L1s, unified L2, DRAM.
///
/// # Examples
///
/// ```
/// use ppm_sim::{Hierarchy, SimConfig};
///
/// let mut h = Hierarchy::new(&SimConfig::default());
/// let miss = h.data_access(0, 0x10_0000);
/// assert!(!miss.l1_hit);
/// let hit = h.data_access(miss.complete, 0x10_0000);
/// assert!(hit.l1_hit);
/// // The hit's latency is far below the miss's.
/// assert!(hit.complete - miss.complete < miss.complete - 0);
/// ```
#[derive(Debug, Clone)]
pub struct Hierarchy {
    il1: Cache,
    dl1: Cache,
    l2: Cache,
    mem: MemorySystem,
    il1_lat: u64,
    dl1_lat: u64,
    l2_lat: u64,
    next_line_prefetch: bool,
    line_size: u64,
}

impl Hierarchy {
    /// Builds the hierarchy described by a configuration.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is invalid (callers should have run
    /// [`SimConfig::validate`]).
    pub fn new(config: &SimConfig) -> Self {
        let line = config.fixed.line_size;
        let line_bits = line.trailing_zeros();
        Hierarchy {
            il1: Cache::with_policy(
                config.il1_size_kb as u64 * 1024,
                config.fixed.il1_assoc,
                line,
                config.fixed.replacement,
            ),
            dl1: Cache::with_policy(
                config.dl1_size_kb as u64 * 1024,
                config.fixed.dl1_assoc,
                line,
                config.fixed.replacement,
            ),
            l2: Cache::with_policy(
                config.l2_size_kb as u64 * 1024,
                config.fixed.l2_assoc,
                line,
                config.fixed.replacement,
            ),
            mem: MemorySystem::new(
                config.fixed.mem_lat,
                config.fixed.mem_banks,
                config.fixed.bank_busy,
                config.fixed.bus_per_line,
                config.fixed.mshrs,
                line_bits,
            ),
            il1_lat: config.fixed.il1_lat as u64,
            dl1_lat: config.dl1_lat as u64,
            l2_lat: config.l2_lat as u64,
            next_line_prefetch: config.fixed.next_line_prefetch,
            line_size: config.fixed.line_size as u64,
        }
    }

    /// Next-line prefetch on an I-miss: install `addr`'s successor line
    /// in the L1I. Arrival timing is idealized (the line is usable by
    /// the time sequential fetch reaches it); DRAM bank/bus occupancy is
    /// still charged so prefetch traffic contends with demand misses.
    fn prefetch_next_line(&mut self, now: u64, addr: u64) {
        let next = (addr & !(self.line_size - 1)) + self.line_size;
        if self.il1.probe(next) {
            return;
        }
        self.il1.install(next);
        if !self.l2.probe(next) {
            self.l2.install(next);
            let _ = self.mem.access(now + self.il1_lat + self.l2_lat, next);
        }
    }

    /// Fetch-side access for the instruction at `addr`.
    ///
    /// The engine calls this once per line transition; with next-line
    /// prefetch enabled every such access (hit or miss) triggers a
    /// prefetch of the following line, so sequential sweeps stay ahead
    /// of demand.
    #[inline]
    pub fn inst_access(&mut self, now: u64, addr: u64) -> AccessOutcome {
        if self.next_line_prefetch {
            self.prefetch_next_line(now, addr);
        }
        if self.il1.access(addr) {
            return AccessOutcome {
                complete: now + self.il1_lat,
                l1_hit: true,
                l2_hit: false,
            };
        }
        let l2_probe = now + self.il1_lat;
        if self.l2.access(addr) {
            return AccessOutcome {
                complete: l2_probe + self.l2_lat,
                l1_hit: false,
                l2_hit: true,
            };
        }
        AccessOutcome {
            complete: self.mem.access(l2_probe + self.l2_lat, addr),
            l1_hit: false,
            l2_hit: false,
        }
    }

    /// Data-side access (load, or store-line allocation) at `addr`.
    #[inline]
    pub fn data_access(&mut self, now: u64, addr: u64) -> AccessOutcome {
        if self.dl1.access(addr) {
            return AccessOutcome {
                complete: now + self.dl1_lat,
                l1_hit: true,
                l2_hit: false,
            };
        }
        let l2_probe = now + self.dl1_lat;
        if self.l2.access(addr) {
            return AccessOutcome {
                complete: l2_probe + self.l2_lat,
                l1_hit: false,
                l2_hit: true,
            };
        }
        let complete = self.mem.access(l2_probe + self.l2_lat, addr);
        AccessOutcome {
            complete,
            l1_hit: false,
            l2_hit: false,
        }
    }

    /// The L1 instruction cache.
    pub fn il1(&self) -> &Cache {
        &self.il1
    }

    /// The L1 data cache.
    pub fn dl1(&self) -> &Cache {
        &self.dl1
    }

    /// The unified L2.
    pub fn l2(&self) -> &Cache {
        &self.l2
    }

    /// The DRAM model.
    pub fn memory(&self) -> &MemorySystem {
        &self.mem
    }

    /// Bytes of tag storage across the three caches.
    pub fn tag_bytes(&self) -> usize {
        self.il1.tag_bytes() + self.dl1.tag_bytes() + self.l2.tag_bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hierarchy() -> Hierarchy {
        Hierarchy::new(&SimConfig::default())
    }

    #[test]
    fn l1_hit_latency() {
        let mut h = hierarchy();
        h.data_access(0, 0x100);
        let o = h.data_access(500, 0x100);
        assert!(o.l1_hit);
        assert_eq!(o.complete, 500 + 2); // default dl1_lat = 2
    }

    #[test]
    fn l2_hit_latency() {
        let mut h = hierarchy();
        h.data_access(0, 0x100); // installs in L1 and L2
                                 // Evict from L1 by thrashing its set, leaving L2 resident.
                                 // L1 is 32 KiB 2-way with 64 B lines → 256 sets → set stride 16 KiB.
        h.data_access(1000, 0x100 + 16 * 1024);
        h.data_access(2000, 0x100 + 32 * 1024);
        let o = h.data_access(10_000, 0x100);
        assert!(!o.l1_hit);
        assert!(o.l2_hit, "line should still be in L2");
        assert_eq!(o.complete, 10_000 + 2 + 12); // dl1_lat + l2_lat
    }

    #[test]
    fn full_miss_goes_to_dram() {
        let mut h = hierarchy();
        let o = h.data_access(0, 0xdead_0000);
        assert!(!o.l1_hit && !o.l2_hit);
        // dl1(2) + l2(12) probes, then 120 DRAM + 8 bus.
        assert_eq!(o.complete, 2 + 12 + 120 + 8);
    }

    #[test]
    fn inst_path_uses_il1_latency() {
        let mut h = hierarchy();
        h.inst_access(0, 0x4000);
        let o = h.inst_access(100, 0x4000);
        assert!(o.l1_hit);
        assert_eq!(o.complete, 101); // il1_lat = 1
    }

    #[test]
    fn inst_and_data_share_l2() {
        let mut h = hierarchy();
        h.inst_access(0, 0x8000); // install via I-side
                                  // Data access to the same line: L1D misses but L2 hits.
        let o = h.data_access(1000, 0x8000);
        assert!(!o.l1_hit);
        assert!(o.l2_hit);
    }

    #[test]
    fn larger_dl1_reduces_misses() {
        let configs = [8u32, 64];
        let mut misses = Vec::new();
        for kb in configs {
            let config = SimConfig::builder().dl1_size_kb(kb).build().unwrap();
            let mut h = Hierarchy::new(&config);
            // 32 KiB working set streamed repeatedly.
            for pass in 0..4 {
                let _ = pass;
                for i in 0..512u64 {
                    h.data_access(0, i * 64);
                }
            }
            misses.push(h.dl1().stats().misses);
        }
        assert!(
            misses[1] * 3 < misses[0],
            "64 KiB L1 should hit a 32 KiB set: {misses:?}"
        );
    }

    #[test]
    fn next_line_prefetch_cuts_sequential_instruction_misses() {
        let fixed = crate::FixedMachine {
            next_line_prefetch: true,
            ..crate::FixedMachine::default()
        };
        let on_config = SimConfig {
            fixed,
            ..SimConfig::default()
        };
        let mut on = Hierarchy::new(&on_config);
        let mut off = Hierarchy::new(&SimConfig::default());
        // Sequential code sweep: one access per line over 256 KiB.
        for i in 0..4096u64 {
            on.inst_access(i * 10, i * 64);
            off.inst_access(i * 10, i * 64);
        }
        let (m_on, m_off) = (on.il1().stats().misses, off.il1().stats().misses);
        assert!(
            m_on * 4 < m_off,
            "prefetch should eliminate most sequential misses: {m_on} vs {m_off}"
        );
    }

    #[test]
    fn prefetch_does_not_affect_data_side() {
        let fixed = crate::FixedMachine {
            next_line_prefetch: true,
            ..crate::FixedMachine::default()
        };
        let config = SimConfig {
            fixed,
            ..SimConfig::default()
        };
        let mut h = Hierarchy::new(&config);
        h.data_access(0, 0x40_0000);
        assert!(
            !h.dl1().probe(0x40_0000 + 64),
            "data side must not prefetch"
        );
    }

    #[test]
    fn l2_latency_parameter_is_respected() {
        for lat in [5u32, 20] {
            let config = SimConfig::builder().l2_lat(lat).build().unwrap();
            let mut h = Hierarchy::new(&config);
            h.data_access(0, 0x100);
            // Thrash L1 set, then re-access: L2 hit with latency `lat`.
            h.data_access(1000, 0x100 + 16 * 1024);
            h.data_access(2000, 0x100 + 32 * 1024);
            let o = h.data_access(10_000, 0x100);
            assert!(o.l2_hit);
            assert_eq!(o.complete, 10_000 + 2 + lat as u64);
        }
    }
}
