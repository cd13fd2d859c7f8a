//! Error symptoms and the symptom catalog.
//!
//! A *symptom* is the description text of an error entry in the recovery
//! log, e.g. `error:IFM-ISNWatchdog` or `errorHardware:EventLog` (paper
//! Table 1). The simulator interns every distinct description into a
//! [`SymptomId`] through a [`SymptomCatalog`], which is the only place the
//! textual names live; the rest of the workspace works with ids.

use std::collections::HashMap;
use std::fmt;
use std::hash::{BuildHasherDefault, Hasher};

/// Interned identifier of one distinct symptom description.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SymptomId(u32);

impl SymptomId {
    /// Creates a symptom id from its catalog index.
    ///
    /// Usually obtained from [`SymptomCatalog::intern`] instead.
    pub const fn new(index: u32) -> Self {
        SymptomId(index)
    }

    /// The catalog index of this symptom.
    pub const fn index(self) -> u32 {
        self.0
    }
}

impl fmt::Display for SymptomId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "S{}", self.0)
    }
}

/// FNV-1a over the name's bytes: the bucket key of the intern index.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Hands a bucket key to the intern index as its own hash: the key is
/// already an FNV-1a hash of the name, so hashing it again through the
/// default SipHash would only cost time.
#[derive(Debug, Default, Clone, Copy)]
struct KeyHasher(u64);

impl Hasher for KeyHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        self.0 = fnv1a(bytes);
    }

    fn write_u64(&mut self, key: u64) {
        self.0 = key;
    }
}

/// Bidirectional mapping between symptom descriptions and [`SymptomId`]s.
///
/// Names are *arena-interned*: every distinct description is stored once,
/// appended to a single contiguous `String`, and addressed by a
/// `(start, end)` span — not one heap `String` per name per map. Ingest
/// interns each log line's description into this arena, and from there
/// the whole workspace compares error types as plain `u32` index
/// comparisons; the texts are only touched again for display.
///
/// ```
/// use recovery_simlog::SymptomCatalog;
///
/// let mut catalog = SymptomCatalog::new();
/// let id = catalog.intern("errorHardware:EventLog");
/// assert_eq!(catalog.name(id), Some("errorHardware:EventLog"));
/// assert_eq!(catalog.intern("errorHardware:EventLog"), id); // stable
/// ```
#[derive(Debug, Clone, Default)]
pub struct SymptomCatalog {
    /// All interned names, concatenated in id order.
    arena: String,
    /// Byte span of each id's name within `arena`, indexed by id.
    spans: Vec<(u32, u32)>,
    /// Name-hash → candidate ids (collisions resolved by comparison).
    buckets: HashMap<u64, Vec<SymptomId>, BuildHasherDefault<KeyHasher>>,
}

impl SymptomCatalog {
    /// Creates an empty catalog.
    pub fn new() -> Self {
        Self::default()
    }

    /// The name of `id`, which must be in range.
    fn span_str(&self, id: SymptomId) -> &str {
        let (start, end) = self.spans[id.0 as usize];
        &self.arena[start as usize..end as usize]
    }

    /// Interns `name`, returning its stable id. Idempotent.
    ///
    /// # Panics
    ///
    /// Panics if the arena would exceed `u32::MAX` bytes of distinct
    /// symptom text (far beyond any real catalog).
    pub fn intern(&mut self, name: &str) -> SymptomId {
        let hash = fnv1a(name.as_bytes());
        if let Some(ids) = self.buckets.get(&hash) {
            if let Some(&id) = ids.iter().find(|&&id| self.span_str(id) == name) {
                return id;
            }
        }
        let start = u32::try_from(self.arena.len()).expect("symptom arena overflow");
        let end = u32::try_from(self.arena.len() + name.len()).expect("symptom arena overflow");
        self.arena.push_str(name);
        let id = SymptomId(self.spans.len() as u32);
        self.spans.push((start, end));
        self.buckets.entry(hash).or_default().push(id);
        id
    }

    /// Looks up the id of `name` without interning it.
    pub fn id(&self, name: &str) -> Option<SymptomId> {
        let ids = self.buckets.get(&fnv1a(name.as_bytes()))?;
        ids.iter().find(|&&id| self.span_str(id) == name).copied()
    }

    /// The description text of `id`, if the id belongs to this catalog.
    pub fn name(&self, id: SymptomId) -> Option<&str> {
        let &(start, end) = self.spans.get(id.0 as usize)?;
        Some(&self.arena[start as usize..end as usize])
    }

    /// Number of distinct symptoms interned.
    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Whether the catalog is empty.
    pub fn is_empty(&self) -> bool {
        self.spans.is_empty()
    }

    /// Iterates over `(id, name)` pairs in id order.
    pub fn iter(&self) -> impl Iterator<Item = (SymptomId, &str)> {
        self.spans.iter().enumerate().map(|(i, &(start, end))| {
            (
                SymptomId(i as u32),
                &self.arena[start as usize..end as usize],
            )
        })
    }
}

/// Catalogs are equal when they intern the same names in the same order;
/// the intern index is a lookup accelerator and does not participate.
/// Since names append contiguously, that is exactly arena + span
/// equality.
impl PartialEq for SymptomCatalog {
    fn eq(&self, other: &Self) -> bool {
        self.arena == other.arena && self.spans == other.spans
    }
}

impl Eq for SymptomCatalog {}

/// Component names used to synthesize realistic symptom descriptions.
const COMPONENTS: &[&str] = &[
    "IFM-ISNWatchdog",
    "EventLog",
    "DiskScrubber",
    "NetMonitor",
    "SvcHeartbeat",
    "MemCheck",
    "FsIntegrity",
    "RaidCtl",
    "KernelTrap",
    "PowerMgr",
    "ThermalProbe",
    "NicDriver",
    "SmartCtl",
    "PageAlloc",
    "IoScheduler",
    "ClockSync",
    "BiosPost",
    "FanCtl",
    "CacheCoherence",
    "LeaseManager",
];

/// Symptom categories that prefix the description, mirroring the mixture of
/// `error:` and `errorHardware:` style entries in the paper's Table 1.
const CATEGORIES: &[&str] = &["error", "errorHardware", "errorSoftware", "errorNetwork"];

/// Deterministically synthesizes the `n`-th symptom description.
///
/// The mapping is injective: distinct `n` always produce distinct names, so
/// a generated catalog never aliases two logical symptoms.
pub fn synth_symptom_name(n: u32) -> String {
    let cat = CATEGORIES[(n as usize / COMPONENTS.len()) % CATEGORIES.len()];
    let comp = COMPONENTS[n as usize % COMPONENTS.len()];
    let series = n as usize / (COMPONENTS.len() * CATEGORIES.len());
    if series == 0 {
        format!("{cat}:{comp}")
    } else {
        format!("{cat}:{comp}-{series}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn intern_is_idempotent_and_dense() {
        let mut c = SymptomCatalog::new();
        let a = c.intern("error:A");
        let b = c.intern("error:B");
        assert_ne!(a, b);
        assert_eq!(c.intern("error:A"), a);
        assert_eq!(c.len(), 2);
        assert_eq!(a.index(), 0);
        assert_eq!(b.index(), 1);
    }

    #[test]
    fn lookup_both_directions() {
        let mut c = SymptomCatalog::new();
        let id = c.intern("errorHardware:EventLog");
        assert_eq!(c.id("errorHardware:EventLog"), Some(id));
        assert_eq!(c.name(id), Some("errorHardware:EventLog"));
        assert_eq!(c.id("nope"), None);
        assert_eq!(c.name(SymptomId::new(99)), None);
    }

    #[test]
    fn iter_yields_in_id_order() {
        let mut c = SymptomCatalog::new();
        c.intern("x");
        c.intern("y");
        let pairs: Vec<_> = c.iter().collect();
        assert_eq!(pairs[0], (SymptomId::new(0), "x"));
        assert_eq!(pairs[1], (SymptomId::new(1), "y"));
    }

    #[test]
    fn empty_catalog_reports_empty() {
        let c = SymptomCatalog::new();
        assert!(c.is_empty());
        assert_eq!(c.len(), 0);
    }

    #[test]
    fn interning_survives_hash_bucket_sharing() {
        // Distinct names that may or may not share FNV buckets must keep
        // distinct ids and resolve back to their own text.
        let mut c = SymptomCatalog::new();
        let names: Vec<String> = (0..200).map(synth_symptom_name).collect();
        let ids: Vec<SymptomId> = names.iter().map(|n| c.intern(n)).collect();
        assert_eq!(c.len(), names.len());
        for (name, &id) in names.iter().zip(&ids) {
            assert_eq!(c.name(id), Some(name.as_str()));
            assert_eq!(c.id(name), Some(id));
            assert_eq!(c.intern(name), id, "re-intern must be stable");
        }
    }

    #[test]
    fn equality_ignores_the_lookup_index() {
        let mut a = SymptomCatalog::new();
        let mut b = SymptomCatalog::new();
        for n in 0..20 {
            a.intern(&synth_symptom_name(n));
        }
        for n in 0..20 {
            b.intern(&synth_symptom_name(n));
            b.id(&synth_symptom_name(n % 7)); // extra lookups, no effect
        }
        assert_eq!(a, b);
        b.intern("error:Extra");
        assert_ne!(a, b);
    }

    #[test]
    fn synth_names_are_unique_and_well_formed() {
        let mut seen = HashSet::new();
        for n in 0..500 {
            let name = synth_symptom_name(n);
            assert!(name.contains(':'), "{name}");
            assert!(seen.insert(name), "duplicate name at {n}");
        }
    }

    #[test]
    fn synth_first_name_matches_paper_style() {
        assert_eq!(synth_symptom_name(0), "error:IFM-ISNWatchdog");
    }
}
