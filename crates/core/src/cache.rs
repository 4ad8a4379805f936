//! An observable LRU cache of compiled engines.
//!
//! CVC's central argument (PAPERS.md) is that compiled simulation wins
//! when the compiled artifact is *reused*; for a resident daemon that
//! means repeated requests for the same circuit must skip the compile
//! entirely. [`EngineCache`] keeps recently compiled
//! [`GuardedSimulator`] prototypes keyed by [`CacheKey`] — the
//! canonical netlist hash, the requested engine (or the auto chain),
//! and the arena word width — and hands out forks, so every request
//! gets a private engine in its power-up state while the compiled
//! program is shared.
//!
//! An entry may also keep its [`Spelling`]: the raw `(name, bench)`
//! text its circuit was parsed from. [`EngineCache::resolve`] matches a
//! request's text against those byte for byte and hands back the
//! entry's parsed netlist and canonical hash, so a repeat request skips
//! the parse, the canonical rewrite and the hash. Text that matches no
//! entry is parsed and keyed canonically as before, so two spellings of
//! one circuit still share an entry. The spelling lives and dies with
//! its entry: eviction frees both.
//!
//! The cache is its own telemetry surface: `cache.hits`,
//! `cache.misses`, `cache.spelling_hits` and `cache.evictions`
//! counters plus a `cache.entries` level gauge, all visible in
//! `/metrics` and the `--stats` snapshot. Eviction is
//! least-recently-used with a linear scan — capacities are tens of
//! circuits, not millions, and the scan is dwarfed by a single
//! vector's simulation.

use std::hash::{DefaultHasher, Hash, Hasher};
use std::sync::{Arc, Mutex};

use uds_netlist::{bench_format, Netlist};

use crate::guard::GuardedSimulator;
use crate::telemetry::Telemetry;
use crate::{Engine, WordWidth};

/// Hashes a netlist's *canonical* `.bench` rendering (64-bit FNV-1a),
/// so two textual spellings of the same circuit share a cache entry and
/// a request log line identifies its circuit stably.
pub fn netlist_hash(netlist: &Netlist) -> u64 {
    fnv1a(bench_format::write(netlist).as_bytes())
}

/// 64-bit FNV-1a over raw bytes.
pub(crate) fn fnv1a(bytes: &[u8]) -> u64 {
    fnv1a_continue(0xcbf2_9ce4_8422_2325, bytes)
}

/// Continues an FNV-1a `hash` over more bytes, so the hash of a
/// concatenation needs no concatenated copy.
pub(crate) fn fnv1a_continue(mut hash: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// What a compiled prototype was compiled *for*.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct CacheKey {
    /// [`netlist_hash`] of the circuit.
    pub netlist_hash: u64,
    /// The pinned engine, or `None` for the default fallback chain.
    pub engine: Option<Engine>,
    /// Arena word width of the parallel-family engines.
    pub word: WordWidth,
}

/// The raw `(name, bench)` text of a request, with a hash of it.
/// Clones share the text.
#[derive(Clone, Debug)]
pub struct Spelling(Arc<SpellingText>);

#[derive(Debug)]
struct SpellingText {
    hash: u64,
    name: String,
    bench: String,
}

impl Spelling {
    fn copy(hash: u64, name: &str, bench: &str) -> Spelling {
        Spelling(Arc::new(SpellingText {
            hash,
            name: name.to_owned(),
            bench: bench.to_owned(),
        }))
    }

    /// Byte-for-byte equality with `(name, bench)`; the hash only
    /// rules candidates out.
    fn matches(&self, hash: u64, name: &str, bench: &str) -> bool {
        self.0.hash == hash && self.0.name == name && self.0.bench == bench
    }
}

fn spelling_hash(name: &str, bench: &str) -> u64 {
    let mut hasher = DefaultHasher::new();
    name.hash(&mut hasher);
    bench.hash(&mut hasher);
    hasher.finish()
}

/// What [`EngineCache::resolve`] found for a request's text.
pub struct Resolution {
    /// The text: shared with the matching entry, or a fresh copy to
    /// store with the entry this request compiles.
    pub spelling: Spelling,
    /// The matching entry's netlist and its [`netlist_hash`]; `None`
    /// when no entry was compiled from this exact text.
    pub known: Option<(Arc<Netlist>, u64)>,
}

struct Entry {
    key: CacheKey,
    prototype: GuardedSimulator,
    spelling: Option<Spelling>,
    last_used: u64,
}

struct Inner {
    entries: Vec<Entry>,
    tick: u64,
}

/// A thread-safe LRU cache of compiled engine prototypes. All methods
/// take `&self`; handlers on different connections share one cache.
pub struct EngineCache {
    inner: Mutex<Inner>,
    capacity: usize,
    telemetry: Telemetry,
}

impl EngineCache {
    /// An empty cache holding at most `capacity` prototypes (a capacity
    /// of 0 disables caching: every lookup misses, every insert
    /// evicts nothing and stores nothing). Counters and the entries
    /// gauge report into `telemetry`.
    pub fn new(capacity: usize, telemetry: Telemetry) -> Self {
        telemetry.set_level("cache.entries", 0);
        EngineCache {
            inner: Mutex::new(Inner {
                entries: Vec::new(),
                tick: 0,
            }),
            capacity,
            telemetry,
        }
    }

    /// Resident prototypes.
    pub fn len(&self) -> usize {
        self.inner
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .entries
            .len()
    }

    /// `true` when nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Looks `key` up; a hit returns a fresh fork of the cached
    /// prototype (power-up state, empty vector log) and refreshes its
    /// recency. Bumps `cache.hits` or `cache.misses`.
    pub fn lookup(&self, key: &CacheKey) -> Option<GuardedSimulator> {
        let mut inner = self.inner.lock().unwrap_or_else(|e| e.into_inner());
        inner.tick += 1;
        let tick = inner.tick;
        match inner.entries.iter_mut().find(|e| e.key == *key) {
            Some(entry) => {
                entry.last_used = tick;
                let fork = entry.prototype.fork();
                self.telemetry.add("cache.hits", 1);
                Some(fork)
            }
            None => {
                self.telemetry.add("cache.misses", 1);
                None
            }
        }
    }

    /// Finds an entry compiled from exactly this `(name, bench)` text.
    /// A match returns that entry's netlist and canonical hash (and
    /// bumps `cache.spelling_hits`); the caller then looks its own
    /// [`CacheKey`] up as usual. Recency is left alone: only
    /// [`EngineCache::lookup`] refreshes an entry.
    pub fn resolve(&self, name: &str, bench: &str) -> Resolution {
        let hash = spelling_hash(name, bench);
        let inner = self.inner.lock().unwrap_or_else(|e| e.into_inner());
        let found = inner.entries.iter().find_map(|entry| {
            let spelling = entry.spelling.as_ref()?;
            spelling.matches(hash, name, bench).then(|| {
                (
                    spelling.clone(),
                    Arc::clone(entry.prototype.netlist()),
                    entry.key.netlist_hash,
                )
            })
        });
        drop(inner);
        match found {
            Some((spelling, netlist, netlist_hash)) => {
                self.telemetry.add("cache.spelling_hits", 1);
                Resolution {
                    spelling,
                    known: Some((netlist, netlist_hash)),
                }
            }
            None => Resolution {
                spelling: Spelling::copy(hash, name, bench),
                known: None,
            },
        }
    }

    /// Stores a freshly compiled prototype, evicting the
    /// least-recently-used entry when full. Re-inserting an existing
    /// key replaces the prototype (no eviction counted).
    pub fn insert(&self, key: CacheKey, prototype: GuardedSimulator) {
        self.insert_entry(key, prototype, None);
    }

    /// [`EngineCache::insert`], keeping the text the prototype's
    /// netlist was parsed from so [`EngineCache::resolve`] finds it.
    pub fn insert_spelled(&self, key: CacheKey, prototype: GuardedSimulator, spelling: Spelling) {
        self.insert_entry(key, prototype, Some(spelling));
    }

    fn insert_entry(&self, key: CacheKey, prototype: GuardedSimulator, spelling: Option<Spelling>) {
        if self.capacity == 0 {
            return;
        }
        let mut inner = self.inner.lock().unwrap_or_else(|e| e.into_inner());
        inner.tick += 1;
        let tick = inner.tick;
        if let Some(entry) = inner.entries.iter_mut().find(|e| e.key == key) {
            entry.prototype = prototype;
            entry.spelling = spelling;
            entry.last_used = tick;
            return;
        }
        if inner.entries.len() >= self.capacity {
            let victim = inner
                .entries
                .iter()
                .enumerate()
                .min_by_key(|(_, e)| e.last_used)
                .map(|(i, _)| i)
                .expect("a full cache has a victim");
            inner.entries.swap_remove(victim);
            self.telemetry.add("cache.evictions", 1);
        }
        inner.entries.push(Entry {
            key,
            prototype,
            spelling,
            last_used: tick,
        });
        self.telemetry
            .set_level("cache.entries", inner.entries.len() as u64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use uds_netlist::generators::iscas::c17;
    use uds_netlist::ResourceLimits;

    fn key(hash: u64) -> CacheKey {
        CacheKey {
            netlist_hash: hash,
            engine: None,
            word: WordWidth::default(),
        }
    }

    fn prototype() -> GuardedSimulator {
        GuardedSimulator::new(&c17(), ResourceLimits::production()).unwrap()
    }

    #[test]
    fn hash_is_stable_and_spelling_invariant() {
        use uds_netlist::bench_format;
        let nl = c17();
        let h = netlist_hash(&nl);
        assert_eq!(h, netlist_hash(&nl), "deterministic");
        // Re-parse the canonical rendering: same circuit, same hash.
        let reparsed = bench_format::parse(&bench_format::write(&nl), nl.name()).unwrap();
        assert_eq!(h, netlist_hash(&reparsed));
    }

    #[test]
    fn hit_returns_a_fork_and_counts() {
        let telemetry = Telemetry::new();
        let cache = EngineCache::new(4, telemetry.clone());
        assert!(cache.lookup(&key(1)).is_none());
        cache.insert(key(1), prototype());
        let mut fork = cache.lookup(&key(1)).expect("hit");
        fork.simulate_vector(&[true, false, true, false, true])
            .unwrap();
        assert_eq!(telemetry.counter("cache.hits"), 1);
        assert_eq!(telemetry.counter("cache.misses"), 1);
        assert_eq!(telemetry.gauge_value("cache.entries"), Some(1));
    }

    #[test]
    fn keys_distinguish_engine_and_word() {
        let cache = EngineCache::new(8, Telemetry::new());
        cache.insert(key(1), prototype());
        let other_engine = CacheKey {
            engine: Some(Engine::PcSet),
            ..key(1)
        };
        let other_word = CacheKey {
            word: match WordWidth::default() {
                WordWidth::W32 => WordWidth::W64,
                WordWidth::W64 => WordWidth::W32,
            },
            ..key(1)
        };
        assert!(cache.lookup(&other_engine).is_none());
        assert!(cache.lookup(&other_word).is_none());
        assert!(cache.lookup(&key(1)).is_some());
    }

    #[test]
    fn evicts_least_recently_used() {
        let telemetry = Telemetry::new();
        let cache = EngineCache::new(2, telemetry.clone());
        cache.insert(key(1), prototype());
        cache.insert(key(2), prototype());
        assert!(cache.lookup(&key(1)).is_some()); // 2 is now LRU
        cache.insert(key(3), prototype());
        assert!(cache.lookup(&key(2)).is_none(), "2 was evicted");
        assert!(cache.lookup(&key(1)).is_some());
        assert!(cache.lookup(&key(3)).is_some());
        assert_eq!(telemetry.counter("cache.evictions"), 1);
        assert_eq!(cache.len(), 2);
    }

    #[test]
    fn zero_capacity_disables_caching() {
        let telemetry = Telemetry::new();
        let cache = EngineCache::new(0, telemetry.clone());
        cache.insert(key(1), prototype());
        assert!(cache.is_empty());
        assert!(cache.lookup(&key(1)).is_none());
        assert_eq!(telemetry.counter("cache.evictions"), 0);
    }

    /// c17's text, the netlist parsed from it, and a prototype over
    /// that netlist.
    fn spelled_c17(name: &str) -> (String, Arc<Netlist>, GuardedSimulator) {
        let text = bench_format::write(&c17());
        let netlist = Arc::new(bench_format::parse(&text, name).unwrap());
        let prototype = GuardedSimulator::with_probe(
            Arc::clone(&netlist),
            ResourceLimits::production(),
            &GuardedSimulator::DEFAULT_CHAIN,
            Box::new(crate::DefaultEngineFactory::default()),
            &uds_netlist::NoopProbe,
            None,
        )
        .unwrap();
        (text, netlist, prototype)
    }

    #[test]
    fn resolve_reuses_the_entry_compiled_from_the_same_text() {
        let telemetry = Telemetry::new();
        let cache = EngineCache::new(4, telemetry.clone());
        let (text, netlist, prototype) = spelled_c17("c17");
        let miss = cache.resolve("c17", &text);
        assert!(miss.known.is_none(), "nothing is cached yet");
        let hash = netlist_hash(&netlist);
        cache.insert_spelled(key(hash), prototype, miss.spelling);

        let hit = cache.resolve("c17", &text);
        let (shared, known_hash) = hit.known.expect("the same text resolves");
        assert!(
            Arc::ptr_eq(&shared, &netlist),
            "the entry's netlist, not a copy"
        );
        assert_eq!(known_hash, hash);
        assert_eq!(telemetry.counter("cache.spelling_hits"), 1);
        // Any other text — another name, one more byte — is a miss.
        assert!(cache.resolve("c17b", &text).known.is_none());
        assert!(cache.resolve("c17", &format!("{text}\n")).known.is_none());
        assert_eq!(telemetry.counter("cache.spelling_hits"), 1);
        // Resolving neither counts a cache hit nor a miss.
        assert_eq!(telemetry.counter("cache.hits"), 0);
        assert_eq!(telemetry.counter("cache.misses"), 0);
    }

    #[test]
    fn an_equal_hash_alone_is_not_a_match() {
        let spelling = Spelling::copy(7, "c17", "INPUT(a)\n");
        assert!(spelling.matches(7, "c17", "INPUT(a)\n"));
        assert!(!spelling.matches(7, "c17", "INPUT(b)\n"));
        assert!(!spelling.matches(7, "c18", "INPUT(a)\n"));
        assert!(!spelling.matches(8, "c17", "INPUT(a)\n"));
    }

    #[test]
    fn eviction_frees_the_spelling_with_its_entry() {
        let cache = EngineCache::new(1, Telemetry::new());
        let (text, netlist, prototype) = spelled_c17("c17");
        let spelling = cache.resolve("c17", &text).spelling;
        cache.insert_spelled(key(netlist_hash(&netlist)), prototype, spelling);
        assert!(cache.resolve("c17", &text).known.is_some());
        cache.insert(key(1), self::prototype());
        assert!(cache.resolve("c17", &text).known.is_none());
        assert_eq!(
            Arc::strong_count(&netlist),
            1,
            "the evicted entry let go of it"
        );
    }

    #[test]
    fn reinsert_replaces_without_eviction() {
        let telemetry = Telemetry::new();
        let cache = EngineCache::new(2, telemetry.clone());
        cache.insert(key(1), prototype());
        cache.insert(key(1), prototype());
        assert_eq!(cache.len(), 1);
        assert_eq!(telemetry.counter("cache.evictions"), 0);
    }
}
