//! Two-level on-chip memory hierarchy with an infinite backing memory.

use crate::{Cache, CacheConfig, Installer, Lookup, Tlb, TlbConfig};

/// Level of the hierarchy that served an access.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub enum Level {
    /// Served by the first-level cache.
    L1,
    /// Served by the unified second-level cache.
    L2,
    /// Served by main memory (an L2 miss).
    Mem,
}

/// Outcome of a data-side access.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct MemAccess {
    /// Structural level that supplied the data.
    pub served: Level,
    /// Cycle at which the data is available to the requester.
    pub ready_at: u64,
    /// `true` if the request merged with an in-flight fill rather than
    /// observing either a full hit or a full miss.
    pub partial: bool,
    /// `true` if the line consulted was installed by a p-thread prefetch.
    /// For main-thread accesses this indicates a covered (or partially
    /// covered, when `partial`) miss.
    pub pthread_line: bool,
}

/// Configuration of the full hierarchy. Defaults mirror the paper's
/// simulator: 32KB/2-way/1-cycle L1I, 16KB/2-way/2-cycle L1D,
/// 256KB/4-way/12-cycle L2, and 200-cycle infinite main memory.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct HierarchyConfig {
    /// Instruction cache geometry.
    pub l1i: CacheConfig,
    /// Data cache geometry.
    pub l1d: CacheConfig,
    /// Unified L2 geometry.
    pub l2: CacheConfig,
    /// Main-memory access latency in cycles.
    pub mem_latency: u64,
    /// Optional I/D TLB timing (64-entry, 8 KiB pages, 30-cycle walks when
    /// enabled). `None` (the default) charges no translation latency; TLB
    /// *energy* is folded into the I/D-cache constants either way, as in
    /// the paper's per-structure breakdown.
    pub tlb: Option<TlbConfig>,
}

impl Default for HierarchyConfig {
    fn default() -> Self {
        HierarchyConfig {
            l1i: CacheConfig::new(32 * 1024, 64, 2, 1),
            l1d: CacheConfig::new(16 * 1024, 64, 2, 2),
            l2: CacheConfig::new(256 * 1024, 64, 4, 12),
            mem_latency: 200,
            tlb: None,
        }
    }
}

impl HierarchyConfig {
    /// The 128KB/10-cycle small-L2 variant used in the Figure 5 sweep.
    pub fn with_l2(mut self, size_bytes: u64, latency: u64) -> Self {
        self.l2 = CacheConfig::new(size_bytes, self.l2.line_bytes, self.l2.assoc, latency);
        self
    }

    /// The access latency of a data load served at `level`: the sum of
    /// the hit latencies on its way down, plus memory for a miss.
    pub fn load_latency(&self, level: Level) -> u64 {
        match level {
            Level::L1 => self.l1d.latency,
            Level::L2 => self.l1d.latency + self.l2.latency,
            Level::Mem => self.l1d.latency + self.l2.latency + self.mem_latency,
        }
    }

    /// Overrides the main-memory latency (Figure 5 memory-latency sweep).
    pub fn with_mem_latency(mut self, latency: u64) -> Self {
        self.mem_latency = latency;
        self
    }

    /// Enables TLB timing with the given geometry.
    pub fn with_tlb(mut self, tlb: TlbConfig) -> Self {
        self.tlb = Some(tlb);
        self
    }
}

/// Counters for hierarchy-level traffic, used by the energy model.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct HierarchyStats {
    /// Data-side L1 accesses (loads + stores + p-thread probes).
    pub l1d_accesses: u64,
    /// Data-side L1 misses.
    pub l1d_misses: u64,
    /// Instruction-side L1 accesses (one per fetched block).
    pub l1i_accesses: u64,
    /// Instruction-side L1 misses.
    pub l1i_misses: u64,
    /// L2 accesses from either side (including writebacks).
    pub l2_accesses: u64,
    /// L2 misses (requests that went to memory).
    pub l2_misses: u64,
    /// Requests served by main memory.
    pub mem_accesses: u64,
    /// D-TLB misses (page walks), when TLB timing is enabled.
    pub dtlb_misses: u64,
    /// I-TLB misses, when TLB timing is enabled.
    pub itlb_misses: u64,
}

/// The full data/instruction memory hierarchy.
///
/// Tags update immediately on fill but carry a `ready_at` cycle, so demand
/// accesses that arrive while a prefetch is still in flight observe the
/// remaining fill latency — the paper's "partially covered" misses.
///
/// # Examples
///
/// ```
/// use preexec_mem::{Hierarchy, HierarchyConfig, Level};
/// let mut h = Hierarchy::new(HierarchyConfig::default());
/// let miss = h.load(0x10_000, 0);
/// assert_eq!(miss.served, Level::Mem);
/// let hit = h.load(0x10_000, miss.ready_at);
/// assert_eq!(hit.served, Level::L1);
/// ```
#[derive(Clone, Debug)]
pub struct Hierarchy {
    cfg: HierarchyConfig,
    l1i: Cache,
    l1d: Cache,
    l2: Cache,
    itlb: Option<Tlb>,
    dtlb: Option<Tlb>,
    stats: HierarchyStats,
}

impl Hierarchy {
    /// Creates a cold hierarchy.
    pub fn new(cfg: HierarchyConfig) -> Hierarchy {
        Hierarchy {
            cfg,
            l1i: Cache::new(cfg.l1i),
            l1d: Cache::new(cfg.l1d),
            l2: Cache::new(cfg.l2),
            itlb: cfg.tlb.map(Tlb::new),
            dtlb: cfg.tlb.map(Tlb::new),
            stats: HierarchyStats::default(),
        }
    }

    /// The hierarchy configuration.
    pub fn config(&self) -> &HierarchyConfig {
        &self.cfg
    }

    /// Traffic counters.
    pub fn stats(&self) -> &HierarchyStats {
        &self.stats
    }

    /// Resets traffic counters (not contents) after cache warm-up.
    pub fn reset_stats(&mut self) {
        self.stats = HierarchyStats::default();
        self.l1i.reset_stats();
        self.l1d.reset_stats();
        self.l2.reset_stats();
    }

    /// A main-thread demand load of the word at `addr`, issued at `now`.
    pub fn load(&mut self, addr: u64, now: u64) -> MemAccess {
        self.data_access(addr, now, false)
    }

    /// A main-thread store to the word at `addr` (write-allocate).
    pub fn store(&mut self, addr: u64, now: u64) -> MemAccess {
        let acc = self.data_access(addr, now, false);
        self.l1d.mark_dirty(addr);
        acc
    }

    /// A p-thread load. Probes the L1D (it may pick up main-thread data) but
    /// on an L1 miss fills only into the L2, bypassing the L1 — the DDMT
    /// prefetch policy the paper evaluates.
    pub fn pthread_load(&mut self, addr: u64, now: u64) -> MemAccess {
        self.data_access(addr, now, true)
    }

    /// A p-thread load that also fills the L1D (the paper's optional
    /// L1-prefetching variant; useless prefetches may pollute the L1).
    pub fn pthread_load_fill_l1(&mut self, addr: u64, now: u64) -> MemAccess {
        let acc = self.data_access(addr, now, true);
        if acc.served != Level::L1 {
            self.l1d.fill(addr, acc.ready_at, Installer::Pthread);
        }
        acc
    }

    fn data_access(&mut self, addr: u64, now: u64, pthread: bool) -> MemAccess {
        self.stats.l1d_accesses += 1;
        let now = if let Some(tlb) = self.dtlb.as_mut() {
            if tlb.access(addr) {
                now
            } else {
                self.stats.dtlb_misses += 1;
                now + tlb.miss_latency()
            }
        } else {
            now
        };
        match self.l1d.access(addr, now) {
            Lookup::Hit {
                ready_at,
                in_flight,
                installer,
            } => MemAccess {
                served: Level::L1,
                ready_at,
                partial: in_flight,
                pthread_line: installer == Installer::Pthread,
            },
            Lookup::Miss => {
                self.stats.l1d_misses += 1;
                self.l2_access(addr, now + self.cfg.l1d.latency, pthread)
            }
        }
    }

    fn l2_access(&mut self, addr: u64, now: u64, pthread: bool) -> MemAccess {
        self.stats.l2_accesses += 1;
        let installer = if pthread {
            Installer::Pthread
        } else {
            Installer::Main
        };
        match self.l2.access(addr, now) {
            Lookup::Hit {
                ready_at,
                in_flight,
                installer: line_installer,
            } => {
                let ready_at = ready_at.max(now + self.cfg.l2.latency);
                let pthread_line = line_installer == Installer::Pthread;
                if !pthread {
                    // Demand fill into L1 as well, and claim the line so a
                    // covered miss is counted once per prefetched line.
                    self.l1d.fill(addr, ready_at, Installer::Main);
                    if pthread_line {
                        self.l2.set_installer(addr, Installer::Main);
                    }
                }
                MemAccess {
                    served: Level::L2,
                    ready_at,
                    partial: in_flight,
                    pthread_line,
                }
            }
            Lookup::Miss => {
                self.stats.l2_misses += 1;
                self.stats.mem_accesses += 1;
                // The L2 tag check is on the way to memory.
                let ready_at = now + self.cfg.l2.latency + self.cfg.mem_latency;
                // Writebacks of dirty victims consume an extra L2 access.
                if let Some(ev) = self.l2.fill(addr, ready_at, installer) {
                    if ev.dirty {
                        self.stats.l2_accesses += 1;
                    }
                }
                if !pthread {
                    self.l1d.fill(addr, ready_at, Installer::Main);
                }
                MemAccess {
                    served: Level::Mem,
                    ready_at,
                    partial: false,
                    pthread_line: false,
                }
            }
        }
    }

    /// An instruction-side fetch of the block containing `line_addr`.
    /// Returns the cycle the block is available.
    pub fn fetch(&mut self, line_addr: u64, now: u64) -> MemAccess {
        self.stats.l1i_accesses += 1;
        let now = if let Some(tlb) = self.itlb.as_mut() {
            if tlb.access(line_addr) {
                now
            } else {
                self.stats.itlb_misses += 1;
                now + tlb.miss_latency()
            }
        } else {
            now
        };
        match self.l1i.access(line_addr, now) {
            Lookup::Hit {
                ready_at,
                in_flight,
                ..
            } => MemAccess {
                served: Level::L1,
                ready_at,
                partial: in_flight,
                pthread_line: false,
            },
            Lookup::Miss => {
                self.stats.l1i_misses += 1;
                self.stats.l2_accesses += 1;
                let after_l1 = now + self.cfg.l1i.latency;
                let (served, ready_at) = match self.l2.access(line_addr, after_l1) {
                    Lookup::Hit { ready_at, .. } => {
                        (Level::L2, ready_at.max(after_l1 + self.cfg.l2.latency))
                    }
                    Lookup::Miss => {
                        self.stats.l2_misses += 1;
                        self.stats.mem_accesses += 1;
                        let r = after_l1 + self.cfg.l2.latency + self.cfg.mem_latency;
                        self.l2.fill(line_addr, r, Installer::Main);
                        (Level::Mem, r)
                    }
                };
                self.l1i.fill(line_addr, ready_at, Installer::Main);
                MemAccess {
                    served,
                    ready_at,
                    partial: false,
                    pthread_line: false,
                }
            }
        }
    }

    /// Non-mutating L2 probe: is the line currently present (even if its
    /// fill is still in flight)?
    pub fn l2_has_line(&self, addr: u64, now: u64) -> bool {
        matches!(self.l2.probe(addr, now), Lookup::Hit { .. })
    }

    /// Non-mutating L1D probe: is the line currently present (even if its
    /// fill is still in flight)? Used by the pipeline sanitizer to check
    /// that demand accesses leave their line in the L1D.
    pub fn l1d_has_line(&self, addr: u64, now: u64) -> bool {
        matches!(self.l1d.probe(addr, now), Lookup::Hit { .. })
    }

    /// Line-aligned address helper using the L2 geometry (all levels share a
    /// line size in the default configuration).
    pub fn line_addr(&self, addr: u64) -> u64 {
        self.cfg.l2.line_addr(addr)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> Hierarchy {
        Hierarchy::new(HierarchyConfig {
            l1i: CacheConfig::new(1024, 64, 2, 1),
            l1d: CacheConfig::new(512, 64, 2, 2),
            l2: CacheConfig::new(4096, 64, 4, 12),
            mem_latency: 200,
            tlb: None,
        })
    }

    #[test]
    fn cold_load_goes_to_memory() {
        let mut h = small();
        let a = h.load(0x8000, 0);
        assert_eq!(a.served, Level::Mem);
        assert_eq!(a.ready_at, 2 + 12 + 200); // L1 lat + (L2 lookup charged inside) + mem
    }

    #[test]
    fn second_load_hits_l1() {
        let mut h = small();
        let m = h.load(0x8000, 0);
        let a = h.load(0x8000, m.ready_at);
        assert_eq!(a.served, Level::L1);
        assert!(!a.partial);
        assert_eq!(a.ready_at, m.ready_at + 2);
    }

    #[test]
    fn demand_load_during_fill_is_partial() {
        let mut h = small();
        let m = h.load(0x8000, 0);
        let a = h.load(0x8000, 10);
        assert_eq!(a.served, Level::L1); // tag present in L1 (demand fill)
        assert!(a.partial);
        assert_eq!(a.ready_at, m.ready_at);
    }

    #[test]
    fn pthread_prefetch_fills_l2_not_l1() {
        let mut h = small();
        let p = h.pthread_load(0x8000, 0);
        assert_eq!(p.served, Level::Mem);
        // After the prefetch completes, a demand load hits in L2, not L1,
        // and is attributed to the p-thread.
        let d = h.load(0x8000, p.ready_at + 1);
        assert_eq!(d.served, Level::L2);
        assert!(d.pthread_line);
        assert!(!d.partial);
    }

    #[test]
    fn demand_during_pthread_fill_is_partially_covered() {
        let mut h = small();
        let p = h.pthread_load(0x8000, 0);
        let d = h.load(0x8000, 50);
        assert_eq!(d.served, Level::L2);
        assert!(d.partial);
        assert!(d.pthread_line);
        assert_eq!(d.ready_at, p.ready_at);
    }

    #[test]
    fn store_marks_line_dirty_and_writeback_counted() {
        let mut h = small();
        let _ = h.store(0x0, 0);
        // Evict by filling conflicting lines: L1D has 4 sets x 64B, so
        // addresses 0x0, 0x100, 0x200 share set 0.
        let _ = h.load(0x100, 300);
        let _ = h.load(0x200, 600);
        // L1 dirty eviction is silent here (write-back modeled at L2 only
        // for energy); at minimum the access path must not panic and the
        // original line must be refetchable.
        let again = h.load(0x0, 900);
        assert!(matches!(again.served, Level::L1 | Level::L2 | Level::Mem));
    }

    #[test]
    fn fetch_path_uses_icache_then_l2() {
        let mut h = small();
        let f = h.fetch(0x4000, 0);
        assert_eq!(f.served, Level::Mem);
        let f2 = h.fetch(0x4000, f.ready_at);
        assert_eq!(f2.served, Level::L1);
        assert_eq!(h.stats().l1i_accesses, 2);
        assert_eq!(h.stats().l1i_misses, 1);
    }

    #[test]
    fn stats_track_level_traffic() {
        let mut h = small();
        let _ = h.load(0x8000, 0);
        let _ = h.load(0x8000, 500);
        let s = h.stats();
        assert_eq!(s.l1d_accesses, 2);
        assert_eq!(s.l1d_misses, 1);
        assert_eq!(s.l2_accesses, 1);
        assert_eq!(s.l2_misses, 1);
        assert_eq!(s.mem_accesses, 1);
    }

    #[test]
    fn l2_probe_sees_prefetched_line() {
        let mut h = small();
        assert!(!h.l2_has_line(0x8000, 0));
        let _ = h.pthread_load(0x8000, 0);
        assert!(h.l2_has_line(0x8000, 1));
    }

    #[test]
    fn tlb_timing_charges_page_walks() {
        let cfg = HierarchyConfig {
            tlb: Some(crate::TlbConfig {
                entries: 2,
                page_bytes: 8192,
                miss_latency: 30,
            }),
            ..HierarchyConfig::default()
        };
        let mut h = Hierarchy::new(cfg);
        let cold = h.load(0x10_0000, 0);
        // Cold access pays the walk on top of the memory miss.
        assert_eq!(cold.ready_at, 30 + 2 + 12 + 200);
        assert_eq!(h.stats().dtlb_misses, 1);
        // Same page, warm caches: no walk.
        let warm = h.load(0x10_0008, 1000);
        assert_eq!(warm.ready_at, 1000 + 2);
        assert_eq!(h.stats().dtlb_misses, 1);
        // Untimed default: no TLB counters move.
        let mut h2 = Hierarchy::new(HierarchyConfig::default());
        let _ = h2.load(0x10_0000, 0);
        assert_eq!(h2.stats().dtlb_misses, 0);
    }

    #[test]
    fn config_sweep_helpers() {
        let cfg = HierarchyConfig::default()
            .with_l2(128 * 1024, 10)
            .with_mem_latency(300);
        assert_eq!(cfg.l2.size_bytes, 128 * 1024);
        assert_eq!(cfg.l2.latency, 10);
        assert_eq!(cfg.mem_latency, 300);
    }
}
