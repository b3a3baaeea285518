//! A set-associative cache with configurable replacement.

/// The replacement policy of a set-associative cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum ReplacementPolicy {
    /// Evict the least recently used way (the default).
    #[default]
    Lru,
    /// Evict the oldest-filled way, ignoring reuse.
    Fifo,
    /// Evict a pseudo-randomly chosen way (deterministic LCG).
    Random,
}

/// Hit/miss counters for one cache.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Number of accesses.
    pub accesses: u64,
    /// Number of misses.
    pub misses: u64,
}

impl CacheStats {
    /// Miss ratio (0 when no accesses have occurred).
    pub fn miss_rate(&self) -> f64 {
        if self.accesses == 0 {
            0.0
        } else {
            self.misses as f64 / self.accesses as f64
        }
    }
}

/// A set-associative cache with configurable replacement
/// ([`ReplacementPolicy`]: LRU by default, FIFO or random).
///
/// Only tag state is modeled — the simulator is timing-only. Writes
/// allocate (write-allocate, write-back is not separately modeled: the
/// timing effect of dirty evictions is folded into the DRAM bank busy
/// time).
///
/// Each line costs one 32-bit tag, and each set one bit. The tag is the
/// line number shifted right past the set index, stored complemented
/// (`!tag`), so an empty way is 0 and a new cache's tag array is all
/// zeros. A large array is then mapped from the operating system's zero
/// pages rather than written at construction, and a page of tags costs
/// resident memory only once a set on it is filled. The set's bit
/// records that first fill; until then an access misses without reading
/// the set, so a page is first touched by a write: one page fault, not
/// a read of the zero page followed by a second fault for the write.
///
/// Under LRU and FIFO a set's ways are kept in recency order —
/// most recently used (LRU) or filled (FIFO) first, invalid ways last —
/// so the victim is always the last way: a miss shifts the set down by
/// one and fills way 0, and an LRU hit moves its way to the front.
/// Random replacement keeps ways at fixed positions, fills the first
/// invalid way, and otherwise evicts the way a deterministic LCG picks.
///
/// # Address bound
///
/// A tag must fit below `u32::MAX` (its complement must not be the
/// empty way's 0), so a cache maps addresses below
/// [`Cache::addr_limit`]: `(2^32 - 1) · sets · line_size`. The smallest
/// Table 1 shape, an 8 KB 2-way L1 with 64 B lines (64 sets), maps
/// addresses up to about 2^44; the synthetic workloads' addresses stay
/// below 2^33. [`Cache::access`], [`Cache::install`] and
/// [`Cache::probe`] panic with "outside the cache's 32-bit tag range"
/// on an address at or above the bound rather than alias it.
///
/// # Examples
///
/// ```
/// use ppm_sim::Cache;
///
/// let mut c = Cache::new(8 * 1024, 2, 64); // 8 KiB, 2-way, 64 B lines
/// assert!(!c.access(0x1000));         // cold miss
/// assert!(c.access(0x1000));          // now hot
/// assert!(c.access(0x1038));          // same line
/// ```
#[derive(Debug, Clone)]
pub struct Cache {
    sets: usize,
    assoc: usize,
    line_bits: u32,
    /// Bits of the line number that select the set.
    set_bits: u32,
    /// `tags[set * assoc + way]`, each stored as `!tag`, in the order
    /// the type docs describe; [`EMPTY`] marks an empty way.
    tags: Vec<u32>,
    /// One bit per set, raised by its first fill; a set whose bit is
    /// clear holds only empty ways.
    filled: Vec<u64>,
    policy: ReplacementPolicy,
    /// Deterministic LCG state for the random policy.
    lcg: u64,
    stats: CacheStats,
}

impl Cache {
    /// Creates a cache of `size_bytes` with the given associativity and
    /// line size.
    ///
    /// # Panics
    ///
    /// Panics unless `size_bytes`, `assoc` and `line_size` are positive,
    /// `line_size` is a power of two, and the geometry yields at least
    /// one power-of-two set.
    pub fn new(size_bytes: u64, assoc: u32, line_size: u32) -> Self {
        Cache::with_policy(size_bytes, assoc, line_size, ReplacementPolicy::Lru)
    }

    /// Like [`Cache::new`] with an explicit replacement policy.
    ///
    /// # Panics
    ///
    /// Same conditions as [`Cache::new`].
    pub fn with_policy(
        size_bytes: u64,
        assoc: u32,
        line_size: u32,
        policy: ReplacementPolicy,
    ) -> Self {
        assert!(size_bytes > 0 && assoc > 0 && line_size > 0);
        assert!(
            line_size.is_power_of_two(),
            "line size must be a power of two"
        );
        let lines = size_bytes / line_size as u64;
        assert!(
            lines >= assoc as u64,
            "cache too small for its associativity"
        );
        let sets = (lines / assoc as u64) as usize;
        assert!(sets.is_power_of_two(), "set count must be a power of two");
        Cache {
            sets,
            assoc: assoc as usize,
            line_bits: line_size.trailing_zeros(),
            set_bits: sets.trailing_zeros(),
            tags: vec![EMPTY; sets * assoc as usize],
            filled: vec![0; sets.div_ceil(64)],
            policy,
            lcg: 0x2545_f491_4f6c_dd1d,
            stats: CacheStats::default(),
        }
    }

    /// The first address whose tag does not fit (see the type docs),
    /// saturating at `u64::MAX` for a cache whose sets and lines span
    /// more than 32 address bits, where every address fits.
    pub fn addr_limit(&self) -> u64 {
        let limit = u128::from(u32::MAX) << (self.line_bits + self.set_bits);
        u64::try_from(limit).unwrap_or(u64::MAX)
    }

    /// Bytes of tag state (the tags and the filled-set bits), from
    /// allocated lengths.
    pub fn tag_bytes(&self) -> usize {
        self.tags.capacity() * std::mem::size_of::<u32>()
            + self.filled.capacity() * std::mem::size_of::<u64>()
    }

    /// Splits `addr` into its set index and its stored (complemented)
    /// tag, which is never [`EMPTY`].
    ///
    /// # Panics
    ///
    /// Panics if `addr` is at or above [`Cache::addr_limit`].
    #[inline]
    fn locate(&self, addr: u64) -> (usize, u32) {
        let line = addr >> self.line_bits;
        let tag = line >> self.set_bits;
        assert!(
            tag < u64::from(u32::MAX),
            "address {addr:#x} is outside the cache's 32-bit tag range (limit {:#x})",
            self.addr_limit()
        );
        ((line as usize) & (self.sets - 1), !(tag as u32))
    }

    /// The replacement policy.
    pub fn policy(&self) -> ReplacementPolicy {
        self.policy
    }

    /// Number of sets.
    pub fn sets(&self) -> usize {
        self.sets
    }

    /// Associativity.
    pub fn assoc(&self) -> usize {
        self.assoc
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    /// Accesses `addr`, allocating on miss. Returns `true` on hit.
    ///
    /// # Panics
    ///
    /// Panics if `addr` is at or above [`Cache::addr_limit`].
    #[inline]
    pub fn access(&mut self, addr: u64) -> bool {
        let (set, tag) = self.locate(addr);
        self.stats.accesses += 1;
        let (word, bit) = (set / 64, 1u64 << (set % 64));
        if self.filled[word] & bit == 0 {
            // Every policy fills an empty set's first way.
            self.filled[word] |= bit;
            self.stats.misses += 1;
            self.tags[set * self.assoc] = tag;
            return false;
        }
        let ways = &mut self.tags[set * self.assoc..][..self.assoc];
        if let Some(way) = ways.iter().position(|&t| t == tag) {
            if self.policy == ReplacementPolicy::Lru {
                // `copy_within` beats `rotate_right` on 4-byte ways.
                ways.copy_within(..way, 1);
                ways[0] = tag;
            }
            return true;
        }
        self.stats.misses += 1;
        if self.policy == ReplacementPolicy::Random {
            // Invalid ways are always filled first.
            let victim = ways.iter().position(|&t| t == EMPTY).unwrap_or_else(|| {
                self.lcg = self
                    .lcg
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                ((self.lcg >> 33) % self.assoc as u64) as usize
            });
            ways[victim] = tag;
        } else {
            // The last way is an invalid one if any is left, else the
            // least recently used (LRU) or oldest filled (FIFO) line.
            ways.copy_within(..self.assoc - 1, 1);
            ways[0] = tag;
        }
        false
    }

    /// Installs a line without touching the statistics (used for
    /// prefetches, whose fills are not demand accesses).
    ///
    /// # Panics
    ///
    /// Panics if `addr` is at or above [`Cache::addr_limit`].
    pub fn install(&mut self, addr: u64) {
        let before = self.stats;
        self.access(addr);
        self.stats = before;
    }

    /// Checks for presence without updating recency or statistics.
    ///
    /// # Panics
    ///
    /// Panics if `addr` is at or above [`Cache::addr_limit`].
    #[inline]
    pub fn probe(&self, addr: u64) -> bool {
        let (set, tag) = self.locate(addr);
        self.filled[set / 64] & (1 << (set % 64)) != 0
            && self.tags[set * self.assoc..][..self.assoc].contains(&tag)
    }
}

/// The empty way: the complement of `u32::MAX`, which no tag reaches.
const EMPTY: u32 = 0;

#[cfg(test)]
mod tests {
    use super::*;
    use ppm_rng::Rng;

    #[test]
    fn geometry() {
        let c = Cache::new(32 * 1024, 4, 64);
        assert_eq!(c.sets(), 128);
        assert_eq!(c.assoc(), 4);
    }

    #[test]
    fn second_access_hits() {
        let mut c = Cache::new(8 * 1024, 2, 64);
        assert!(!c.access(0x4000));
        assert!(c.access(0x4000));
        assert!(c.access(0x403f)); // same 64 B line
        assert!(!c.access(0x4040)); // next line
    }

    #[test]
    fn lru_evicts_least_recent() {
        // Direct construction of a conflict: 2-way set, three lines
        // mapping to the same set.
        let mut c = Cache::new(2 * 64 * 4, 2, 64); // 4 sets, 2 ways
        let set_stride = 4 * 64; // lines with the same set index
        let (a, b, d) = (0u64, set_stride as u64, 2 * set_stride as u64);
        c.access(a);
        c.access(b);
        c.access(a); // a is now MRU
        assert!(!c.access(d)); // evicts b
        assert!(c.access(a), "a should have survived");
        assert!(!c.access(b), "b should have been evicted");
    }

    #[test]
    fn working_set_larger_than_cache_misses() {
        let mut c = Cache::new(8 * 1024, 2, 64);
        // Stream over 64 KiB twice: second pass still misses (capacity).
        for pass in 0..2 {
            let mut misses = 0;
            for i in 0..1024u64 {
                if !c.access(i * 64) {
                    misses += 1;
                }
            }
            assert!(misses > 800, "pass {pass}: only {misses} misses");
        }
    }

    #[test]
    fn working_set_smaller_than_cache_hits_after_warmup() {
        let mut c = Cache::new(64 * 1024, 2, 64);
        for i in 0..128u64 {
            c.access(i * 64); // 8 KiB working set
        }
        let before = c.stats();
        for i in 0..128u64 {
            assert!(c.access(i * 64));
        }
        let after = c.stats();
        assert_eq!(after.misses, before.misses);
    }

    #[test]
    fn fifo_ignores_reuse_when_evicting() {
        // 2-way set; access order a, b, then re-touch a, then c.
        // LRU evicts b (a was re-used); FIFO evicts a (filled first).
        let stride = 4 * 64;
        let (a, b, c) = (0u64, stride as u64, 2 * stride as u64);
        let mut lru = Cache::with_policy(2 * 64 * 4, 2, 64, ReplacementPolicy::Lru);
        let mut fifo = Cache::with_policy(2 * 64 * 4, 2, 64, ReplacementPolicy::Fifo);
        for cache in [&mut lru, &mut fifo] {
            cache.access(a);
            cache.access(b);
            cache.access(a);
            cache.access(c);
        }
        assert!(lru.probe(a) && !lru.probe(b));
        assert!(!fifo.probe(a) && fifo.probe(b));
    }

    #[test]
    fn random_policy_is_deterministic_and_functional() {
        let run = || {
            let mut c = Cache::with_policy(8 * 1024, 2, 64, ReplacementPolicy::Random);
            let mut rng = Rng::seed_from_u64(7);
            for _ in 0..5000 {
                c.access(rng.below(1 << 16));
            }
            c.stats()
        };
        let a = run();
        let b = run();
        assert_eq!(a, b, "random replacement must be deterministic");
        assert!(a.misses > 0 && a.misses < a.accesses);
    }

    #[test]
    fn policies_agree_on_working_sets_that_fit() {
        for policy in [
            ReplacementPolicy::Lru,
            ReplacementPolicy::Fifo,
            ReplacementPolicy::Random,
        ] {
            let mut c = Cache::with_policy(64 * 1024, 2, 64, policy);
            for _ in 0..3 {
                for i in 0..128u64 {
                    c.access(i * 64);
                }
            }
            // 8 KiB set in a 64 KiB cache: only cold misses.
            assert_eq!(c.stats().misses, 128, "{policy:?}");
        }
    }

    #[test]
    fn install_fills_without_stats() {
        let mut c = Cache::new(8 * 1024, 2, 64);
        c.install(0x5000);
        assert_eq!(c.stats(), CacheStats::default());
        assert!(c.access(0x5000), "installed line should hit");
    }

    #[test]
    fn probe_does_not_disturb_state() {
        let mut c = Cache::new(8 * 1024, 2, 64);
        c.access(0x1000);
        let stats = c.stats();
        assert!(c.probe(0x1000));
        assert!(!c.probe(0x2000));
        assert_eq!(c.stats(), stats);
    }

    #[test]
    fn miss_rate_computation() {
        let mut c = Cache::new(8 * 1024, 2, 64);
        c.access(0x0);
        c.access(0x0);
        assert!((c.stats().miss_rate() - 0.5).abs() < 1e-12);
        assert_eq!(CacheStats::default().miss_rate(), 0.0);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn bad_line_size_panics() {
        Cache::new(8 * 1024, 2, 48);
    }

    /// A stamp-based cache, an independent model of the replacement
    /// logic: every line carries a last-use (LRU) or fill (FIFO) stamp,
    /// and a miss fills the first invalid way or evicts the oldest stamp.
    /// The reference oracle shares [`Cache`] with the batch engine, so
    /// batch-versus-reference runs cannot catch a replacement bug; this
    /// model can.
    struct StampCache {
        sets: usize,
        assoc: usize,
        line_bits: u32,
        tags: Vec<u64>,
        stamps: Vec<u64>,
        clock: u64,
        policy: ReplacementPolicy,
        lcg: u64,
        stats: CacheStats,
    }

    impl StampCache {
        fn with_policy(
            size_bytes: u64,
            assoc: u32,
            line_size: u32,
            policy: ReplacementPolicy,
        ) -> Self {
            let lines = size_bytes / line_size as u64;
            let sets = (lines / assoc as u64) as usize;
            StampCache {
                sets,
                assoc: assoc as usize,
                line_bits: line_size.trailing_zeros(),
                tags: vec![u64::MAX; sets * assoc as usize],
                stamps: vec![0; sets * assoc as usize],
                clock: 0,
                policy,
                lcg: 0x2545_f491_4f6c_dd1d,
                stats: CacheStats::default(),
            }
        }

        fn access(&mut self, addr: u64) -> bool {
            self.clock += 1;
            self.stats.accesses += 1;
            let line = addr >> self.line_bits;
            let set = (line as usize) & (self.sets - 1);
            let base = set * self.assoc;
            // Hit path.
            for way in 0..self.assoc {
                if self.tags[base + way] == line {
                    if self.policy == ReplacementPolicy::Lru {
                        self.stamps[base + way] = self.clock;
                    }
                    return true;
                }
            }
            // Miss: pick a victim way according to the policy (invalid ways
            // are always filled first).
            self.stats.misses += 1;
            let mut victim = None;
            for way in 0..self.assoc {
                if self.tags[base + way] == u64::MAX {
                    victim = Some(way);
                    break;
                }
            }
            let victim = victim.unwrap_or_else(|| match self.policy {
                ReplacementPolicy::Lru | ReplacementPolicy::Fifo => {
                    let mut v = 0;
                    let mut oldest = u64::MAX;
                    for way in 0..self.assoc {
                        if self.stamps[base + way] < oldest {
                            oldest = self.stamps[base + way];
                            v = way;
                        }
                    }
                    v
                }
                ReplacementPolicy::Random => {
                    self.lcg = self
                        .lcg
                        .wrapping_mul(6364136223846793005)
                        .wrapping_add(1442695040888963407);
                    ((self.lcg >> 33) % self.assoc as u64) as usize
                }
            });
            self.tags[base + victim] = line;
            self.stamps[base + victim] = self.clock;
            false
        }

        fn install(&mut self, addr: u64) {
            let before = self.stats;
            self.access(addr);
            self.stats = before;
        }

        fn probe(&self, addr: u64) -> bool {
            let line = addr >> self.line_bits;
            let set = (line as usize) & (self.sets - 1);
            let base = set * self.assoc;
            (0..self.assoc).any(|way| self.tags[base + way] == line)
        }
    }

    /// `(size_bytes, assoc)` shapes for the differential, all with 64 B
    /// lines: every Table 1 L1 (8-64 KB, 2-way) and L2 (256 KB-8 MB,
    /// 8-way), plus 4-way, 16-way and single-set caches.
    const SHAPES: [(u64, u32); 16] = [
        (8 << 10, 2),
        (16 << 10, 2),
        (32 << 10, 2),
        (64 << 10, 2),
        (256 << 10, 8),
        (512 << 10, 8),
        (1 << 20, 8),
        (2 << 20, 8),
        (4 << 20, 8),
        (8 << 20, 8),
        (16 << 10, 4),
        (64 << 10, 16),
        (64, 1),
        (2 * 64, 2),
        (8 * 64, 8),
        (16 * 64, 16),
    ];

    /// The three address streams of the differential.
    #[derive(Debug, Clone, Copy)]
    enum Stream {
        /// Uniform lines, mostly confined to a few sets so that even an
        /// 8 MB cache evicts within a short run.
        Random,
        /// Cyclic walks at set-aliasing and odd strides over footprints
        /// just above one set's or the whole cache's capacity.
        Strided,
        /// A small hot set per cache set, re-touched between cold lines:
        /// where LRU and FIFO choose different victims.
        Reuse,
    }

    /// Moves `addr`'s tag to `reverse_bits(tag) ^ mask`, keeping its
    /// set and its offset within the line. The map is a bijection on
    /// 32-bit tags, so a stream keeps its hits and misses, while the
    /// stream's tag bits land in the top of the tag and `mask` spreads
    /// the tags over the whole range below the cache's address bound: a
    /// narrowing that lost high bits would alias distinct lines. `mask`
    /// has bit 0 clear and narrow tags stay below 2^31, so no tag
    /// becomes the invalid marker.
    fn widen(addr: u64, sets: u64, line: u64, mask: u32) -> u64 {
        let set_span = sets * line;
        let (tag, low) = (addr / set_span, addr % set_span);
        let tag = u32::try_from(tag).expect("a narrow tag");
        assert!(tag < 1 << 31 && mask & 1 == 0);
        u64::from(tag.reverse_bits() ^ mask) * set_span + low
    }

    /// Drives the stamp model and [`Cache`] with the same `ops`
    /// interleaved `access`/`install`/`probe` calls and asserts equal
    /// results at every step and equal statistics throughout. A `wide`
    /// case [`widen`]s every address, so the 32-bit tags are checked
    /// against the stamp model's full line numbers across the whole
    /// address range the shape allows.
    fn differential(
        size: u64,
        assoc: u32,
        policy: ReplacementPolicy,
        stream: Stream,
        wide: bool,
        ops: usize,
    ) {
        let line = 64u64;
        let mut old = StampCache::with_policy(size, assoc, line as u32, policy);
        let mut new = Cache::with_policy(size, assoc, line as u32, policy);
        let sets = new.sets() as u64;
        let ways = u64::from(assoc);
        let mut rng = Rng::seed_from_u64(
            size ^ (ways << 40) ^ ((stream as u64) << 50) ^ (u64::from(wide) << 60),
        );
        let mask = (rng.next_u64() as u32) & !1;
        let hot_sets = sets.min(8);
        let (mut stride, mut span, mut base, mut walk) = (1, 1, 0, 0);
        for step in 0..ops {
            let addr = match stream {
                Stream::Random if rng.chance(0.1) => rng.below(4 * size),
                Stream::Strided => {
                    // A fresh walk every 512 operations.
                    if step % 512 == 0 {
                        stride = [1, 7, sets, 2 * sets, 3 * sets + 1][rng.below(5) as usize];
                        span =
                            [ways, ways + 1, 2 * ways + 1, sets * ways + 3][rng.below(4) as usize];
                        base = rng.below(1 << 20) * line;
                    }
                    walk = (walk + 1) % span;
                    base + walk * stride * line
                }
                _ => {
                    let set = rng.below(hot_sets) * (sets / hot_sets);
                    let tag = match stream {
                        Stream::Reuse if rng.chance(0.7) => rng.below(ways.div_ceil(2)),
                        Stream::Reuse => ways + rng.below(4 * ways),
                        _ => rng.below(3 * ways),
                    };
                    (tag * sets + set) * line + rng.below(line)
                }
            };
            let addr = if wide {
                widen(addr, sets, line, mask)
            } else {
                addr
            };
            let ctx = || {
                format!("{size} B {assoc}-way {policy:?} {stream:?} wide={wide}, op {step}, addr {addr:#x}")
            };
            match rng.below(20) {
                0..=2 => {
                    new.install(addr);
                    old.install(addr);
                }
                3..=5 => assert_eq!(new.probe(addr), old.probe(addr), "probe: {}", ctx()),
                _ => assert_eq!(new.access(addr), old.access(addr), "access: {}", ctx()),
            }
            assert_eq!(new.stats(), old.stats, "stats: {}", ctx());
        }
    }

    fn differential_all(ops_per_case: usize) {
        for (size, assoc) in SHAPES {
            for policy in [
                ReplacementPolicy::Lru,
                ReplacementPolicy::Fifo,
                ReplacementPolicy::Random,
            ] {
                for stream in [Stream::Random, Stream::Strided, Stream::Reuse] {
                    for wide in [false, true] {
                        differential(size, assoc, policy, stream, wide, ops_per_case);
                    }
                }
            }
        }
    }

    #[test]
    fn recency_order_matches_the_stamp_model() {
        differential_all(1_500);
    }

    /// The same differential at release scale: 288 cases of 72k
    /// operations, 20.7 M in all (`cargo test --release -p ppm-sim --
    /// --ignored`).
    #[test]
    #[ignore = "release-scale; run with --release -- --ignored"]
    fn recency_order_matches_the_stamp_model_at_scale() {
        differential_all(72_000);
    }

    #[test]
    fn empty_ways_are_zero_and_no_tag_is_stored_as_zero() {
        let mut c = Cache::new(8 << 10, 2, 64);
        assert!(c.tags.iter().all(|&t| t == EMPTY));
        // The lowest tag (stored as u32::MAX) and the highest (stored
        // as 1) are absent from a new cache and present once filled.
        let top = c.addr_limit() - 64;
        for addr in [0, top] {
            assert!(!c.probe(addr), "{addr:#x} found in an empty cache");
            assert!(!c.access(addr));
            assert!(c.probe(addr), "{addr:#x} lost after its fill");
        }
        assert_eq!(c.tags.iter().filter(|&&t| t != EMPTY).count(), 2);
        // Exactly the two filled sets, the first and the last, are
        // marked.
        let marked: u32 = c.filled.iter().map(|w| w.count_ones()).sum();
        assert_eq!(marked, 2);
        assert_eq!(c.filled[0] & 1, 1);
        assert_eq!(c.filled[(c.sets() - 1) / 64] >> ((c.sets() - 1) % 64), 1);
    }

    #[test]
    fn address_limit_follows_the_geometry() {
        // 8 KB 2-way, 64 B lines: 64 sets, so 12 bits below the tag.
        assert_eq!(
            Cache::new(8 << 10, 2, 64).addr_limit(),
            u64::from(u32::MAX) << 12
        );
        // One set: the tag is the whole line number.
        assert_eq!(Cache::new(64, 1, 64).addr_limit(), u64::from(u32::MAX) << 6);
        assert_eq!(
            Cache::new(8 << 20, 8, 64).addr_limit(),
            u64::from(u32::MAX) << 20
        );
        // Eight sets of 1 GiB lines: 33 bits below the tag, so every
        // address fits.
        assert_eq!(Cache::new(1 << 33, 1, 1 << 30).addr_limit(), u64::MAX);
    }

    #[test]
    fn every_entry_point_rejects_addresses_at_or_above_the_limit() {
        for (size, assoc) in SHAPES {
            let mut c = Cache::new(size, assoc, 64);
            let limit = c.addr_limit();
            for addr in [limit, limit + 63, limit + 64, u64::MAX] {
                for call in 0..3 {
                    let result =
                        std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| match call {
                            0 => c.access(addr),
                            1 => {
                                c.install(addr);
                                false
                            }
                            _ => c.probe(addr),
                        }));
                    let payload = result.expect_err("an address past the limit must panic");
                    let msg = payload
                        .downcast_ref::<String>()
                        .map(String::as_str)
                        .unwrap_or_default();
                    assert!(
                        msg.contains("outside the cache's 32-bit tag range"),
                        "{size} B {assoc}-way, call {call}, addr {addr:#x}: {msg}"
                    );
                }
            }
            assert_eq!(
                c.stats(),
                CacheStats::default(),
                "a rejected access counted"
            );
        }
    }

    #[test]
    fn addresses_just_below_the_limit_match_the_stamp_model() {
        // The highest tags, their sets' lowest tags, and a tag 2^31
        // below the top: any narrowing that dropped high bits would
        // alias some of them, which the stamp model (full line numbers)
        // would expose.
        for (size, assoc) in SHAPES {
            for policy in [
                ReplacementPolicy::Lru,
                ReplacementPolicy::Fifo,
                ReplacementPolicy::Random,
            ] {
                let mut old = StampCache::with_policy(size, assoc, 64, policy);
                let mut new = Cache::with_policy(size, assoc, 64, policy);
                let limit = new.addr_limit();
                let set_span = new.sets() as u64 * 64;
                let ways = u64::from(assoc);
                let mut rng = Rng::seed_from_u64(size ^ (u64::from(assoc) << 40));
                for step in 0..4_000 {
                    let back = match rng.below(3) {
                        0 => 1 + rng.below(2 * ways),
                        1 => (limit / set_span) - rng.below(2 * ways),
                        _ => (1 << 31) + rng.below(2 * ways),
                    };
                    let addr = limit - back * set_span + rng.below(set_span.min(256));
                    assert!(addr < limit);
                    let hit = new.access(addr);
                    assert_eq!(
                        hit,
                        old.access(addr),
                        "{size} B {assoc}-way {policy:?}, op {step}, addr {addr:#x}"
                    );
                }
                assert_eq!(new.stats(), old.stats);
                assert!(new.stats().misses < new.stats().accesses);
            }
        }
        // The last byte below a single-set cache's limit is a cold miss.
        assert!(!Cache::new(64, 1, 64).access((u64::from(u32::MAX - 1) << 6) | 63));
    }

    /// A bigger cache never has more misses on the same trace
    /// (inclusion property for LRU with same line size & assoc scaling
    /// by sets).
    #[test]
    fn random_stack_property_across_sizes() {
        for seed in 0..32u64 {
            let mut rng = Rng::seed_from_u64(seed);
            let addrs: Vec<u64> = (0..4000).map(|_| rng.below(1 << 16)).collect();
            let mut small = Cache::new(8 * 1024, 2, 64);
            let mut big = Cache::new(64 * 1024, 2, 64);
            for &a in &addrs {
                small.access(a);
                big.access(a);
            }
            assert!(big.stats().misses <= small.stats().misses, "seed {seed}");
        }
    }

    /// Repeating a short loop that fits in the cache eventually stops
    /// missing.
    #[test]
    fn random_loops_become_hits() {
        for stride in 1u64..8 {
            for lines in [4u64, 9, 17, 31] {
                let mut c = Cache::new(16 * 1024, 2, 64);
                for _ in 0..3 {
                    for i in 0..lines {
                        c.access(i * stride * 64);
                    }
                }
                let misses_before = c.stats().misses;
                for i in 0..lines {
                    c.access(i * stride * 64);
                }
                assert_eq!(
                    c.stats().misses,
                    misses_before,
                    "stride {stride} lines {lines}"
                );
            }
        }
    }
}
