//! Dynamic binary translation for the S2E platform.
//!
//! The original S2E modifies QEMU's DBT so that guest code is translated
//! once into host code (or LLVM, for symbolic execution) and cached. This
//! crate reproduces the structure: guest instructions are decoded into
//! *translation blocks* — straight-line runs ending at a control-flow
//! instruction — that are cached by start address and shared between all
//! execution states (translation is state-independent; only execution
//! differs per state).
//!
//! The split between translation and execution is what makes the paper's
//! `onInstrTranslation` / `onInstrExecution` event pair cheap (§4.2): a
//! block is translated once but executed millions of times, so analyzers
//! mark interesting instructions at translation time and pay per-execution
//! cost only for marked ones. The engine (`s2e-core`) fires those events;
//! this crate exposes the translation hook they build on.
//!
//! # Example
//!
//! ```
//! use s2e_dbt::BlockCache;
//! use s2e_vm::asm::Assembler;
//! use s2e_vm::isa::reg;
//! use s2e_vm::mem::Memory;
//!
//! let mut a = Assembler::new(0x2000);
//! a.movi(reg::R0, 1);
//! a.addi(reg::R0, reg::R0, 2);
//! a.jmp("next");
//! a.label("next");
//! a.halt();
//! let p = a.finish();
//!
//! let mut mem = Memory::new();
//! mem.load_image(p.base, &p.image);
//!
//! let mut cache = BlockCache::new();
//! let tb = cache.translate(&mem, 0x2000, &mut |_, _| {});
//! assert_eq!(tb.instrs.len(), 3); // ends at the jmp
//! // Second lookup hits the cache.
//! cache.translate(&mem, 0x2000, &mut |_, _| {});
//! assert_eq!(cache.stats().hits, 1);
//! ```

pub mod cfg;

use std::sync::Mutex;
use s2e_vm::isa::{Instr, INSTR_SIZE};
use s2e_vm::mem::Memory;
use std::collections::{HashMap, HashSet};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Maximum instructions per translation block.
pub const MAX_BLOCK_INSTRS: usize = 64;

/// Static pre-pass facts attached to a translation block at translation
/// time (see the `s2e-analysis` crate for the producer).
///
/// The default is fully conservative: every field claims nothing, so an
/// unannotated block behaves exactly as before the pre-pass existed.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct BlockAnnotation {
    /// No symbolic value can ever be *read* by an instruction in this
    /// block: the engine may skip per-instruction symbolic dispatch.
    pub concrete_only: bool,
    /// No pc in this block is eligible for forking under the engine's
    /// code ranges: symbolic branches may concretize without feasibility
    /// probes.
    pub fork_free: bool,
    /// Registers possibly read before being written on some path from
    /// the block entry (bit *r* set ⇒ register *r* is live-in).
    pub live_in: u16,
    /// Bit *i* set ⇒ the register written by instruction *i* is dead
    /// (never read before being overwritten on every outgoing path).
    pub dead_writes: u64,
    /// Bit *i* set ⇒ instruction *i* can never observe a symbolic
    /// register, even when the block as a whole is not `concrete_only`:
    /// the engine may skip that instruction's operand scan. Strictly
    /// weaker than `concrete_only` (which implies every bit).
    pub concrete_mask: u64,
}

impl Default for BlockAnnotation {
    fn default() -> BlockAnnotation {
        BlockAnnotation::conservative()
    }
}

impl BlockAnnotation {
    /// The no-information annotation (all optimizations disabled).
    pub fn conservative() -> BlockAnnotation {
        BlockAnnotation {
            concrete_only: false,
            fork_free: false,
            live_in: 0xffff,
            dead_writes: 0,
            concrete_mask: 0,
        }
    }
}

/// How a retired indirect control transfer relates to the static CFG's
/// prediction for its site (see [`IndirectPredictions::classify`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum IndirectClass {
    /// The target was in the site's statically predicted successor set.
    Resolved,
    /// The analysis explicitly declined to predict this site (e.g. a
    /// `ret` with no matched call sites — control leaves the analyzed
    /// region).
    Escaped,
    /// The site claimed a (possibly empty) prediction and the target was
    /// not in it: a genuinely new edge the static CFG missed.
    Discovered,
}

/// Per-site successor prediction for one indirect control-flow site.
#[derive(Clone, Debug, Default)]
pub struct IndirectSite {
    /// Predicted concrete successors (block starts).
    pub targets: std::collections::BTreeSet<u32>,
    /// The analysis explicitly declined to predict: any retirement here
    /// classifies as [`IndirectClass::Escaped`], never `Discovered`.
    pub escapes: bool,
}

/// The static analysis' successor predictions for every indirect
/// control-flow site (`JmpR`/`CallR`/`Ret` instruction pcs), consumed by
/// the executor to classify retired targets and feed unpredicted ones
/// back into incremental re-analysis.
#[derive(Clone, Debug, Default)]
pub struct IndirectPredictions {
    /// Keyed by the pc of the indirect instruction itself.
    pub sites: std::collections::BTreeMap<u32, IndirectSite>,
}

impl IndirectPredictions {
    /// Classifies a retired `(site pc, target)` pair. Sites the analysis
    /// never saw classify as `Discovered` — an unknown site is exactly
    /// the "silent `UNKNOWN_SINK` absorption" the feedback loop exists
    /// to surface.
    pub fn classify(&self, pc: u32, target: u32) -> IndirectClass {
        match self.sites.get(&pc) {
            Some(site) if site.targets.contains(&target) => IndirectClass::Resolved,
            Some(site) if site.escapes => IndirectClass::Escaped,
            _ => IndirectClass::Discovered,
        }
    }
}

/// Producer of [`BlockAnnotation`]s, installed on a [`BlockCache`] via
/// [`BlockCache::set_annotator`]. Implemented by the static pre-pass;
/// the trait lives here so the cache does not depend on the analysis
/// crate.
pub trait BlockAnnotator: Send + Sync {
    /// Annotates the dynamic block starting at `start` covering `instrs`.
    /// Must be conservative for any code it has not analyzed.
    fn annotate(&self, start: u32, instrs: &[Instr]) -> BlockAnnotation;
}

/// A decoded straight-line block of guest code.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TranslationBlock {
    /// Guest address of the first instruction.
    pub start: u32,
    /// Decoded instructions, in order.
    pub instrs: Vec<Instr>,
    /// True if decoding stopped at an undecodable instruction; executing
    /// past the last decoded instruction must fault.
    pub ends_in_invalid: bool,
    /// Static pre-pass facts (conservative default when no annotator is
    /// installed).
    pub annotation: BlockAnnotation,
}

impl TranslationBlock {
    /// Guest address of the instruction at `index`.
    pub fn pc_of(&self, index: usize) -> u32 {
        self.start + (index as u32) * INSTR_SIZE
    }

    /// Byte length of the decoded portion.
    pub fn byte_len(&self) -> u32 {
        self.instrs.len() as u32 * INSTR_SIZE
    }

    /// Guest address one past the block (fall-through PC).
    pub fn end(&self) -> u32 {
        self.start + self.byte_len()
    }
}

s2e_obs::counters! {
    /// Counters for the translator. `Max` rows are counted by the
    /// backing (possibly shared) block cache and `Sum` rows by each
    /// worker's L1 front, which never touches the `Max` rows: merging the
    /// cache's counters with every worker's L1 counters therefore takes
    /// the cache's global values once and adds the per-worker ones.
    #[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
    pub struct DbtStats in "dbt" {
        /// Blocks translated (cache misses).
        translations: u64 = Max,
        /// Cache hits (L1 hits plus shared/private map hits — every lookup
        /// that avoided a retranslation). Counted on both sides, so its
        /// live form is the `dbt.local_hits`/`dbt.shared_hits` pair,
        /// published by hand.
        hits: u64 = Sum report_only,
        /// Instructions decoded in total.
        instrs_translated: u64 = Max,
        /// Blocks discarded by invalidation (self-modifying code).
        invalidations: u64 = Max,
        /// Superblock links recorded along observed direct edges.
        chains_formed: u64 = Max,
        /// Block→block hops taken inside a chained run (no scheduler
        /// round-trip between the two blocks).
        chain_entries: u64 = Sum,
        /// Chained runs that executed more than one block before returning
        /// to the scheduler.
        chain_exits: u64 = Sum,
        /// Chain links severed by invalidation (inbound + outbound edges of
        /// every discarded block).
        unlinks: u64 = Max,
        /// Lookups answered by a per-worker L1 front cache without touching
        /// the shared cache (subset of `hits`).
        l1_hits: u64 = Sum,
        /// Wall-clock time spent decoding and annotating blocks (cache
        /// misses only; hits cost a map lookup, not measured).
        translation_time: Duration = Max,
    }
}

/// Lock-free monotone bitmap of guest pages containing translated code.
///
/// Shared (behind `Arc`) between the owning [`BlockCache`] and every
/// per-worker L1 front so the store fast path can ask "might this write
/// hit code?" without taking the shared-cache mutex. Bits are only ever
/// set while the cache lock is held and only cleared by [`clear`], so a
/// stale *set* bit costs one spurious locked probe and a cleared bit is
/// exactly as stale as the racy locked check it replaces.
///
/// [`clear`]: CodePageFilter::reset
pub struct CodePageFilter {
    bits: Box<[AtomicU64]>,
}

/// One bit per 4 KiB page of the 32-bit guest address space: 128 KiB.
const FILTER_WORDS: usize = (1usize << (32 - PAGE_SHIFT)) / 64;

impl Default for CodePageFilter {
    fn default() -> CodePageFilter {
        let bits = (0..FILTER_WORDS).map(|_| AtomicU64::new(0)).collect();
        CodePageFilter { bits }
    }
}

impl std::fmt::Debug for CodePageFilter {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let set: u64 = self
            .bits
            .iter()
            .map(|w| u64::from(w.load(Ordering::Relaxed).count_ones()))
            .sum();
        f.debug_struct("CodePageFilter").field("pages", &set).finish()
    }
}

impl CodePageFilter {
    fn mark_page(&self, page: u32) {
        let word = (page as usize) / 64;
        self.bits[word].fetch_or(1 << (page % 64), Ordering::Release);
    }

    /// True if `addr` lies in a page that has (or recently had)
    /// translated code. Lock-free.
    pub fn page_has_code(&self, addr: u32) -> bool {
        let page = addr >> PAGE_SHIFT;
        let word = (page as usize) / 64;
        self.bits[word].load(Ordering::Acquire) >> (page % 64) & 1 == 1
    }

    fn reset(&self) {
        for w in self.bits.iter() {
            w.store(0, Ordering::Release);
        }
    }
}

/// Cache of translation blocks, keyed by start address.
///
/// The cache is shared by all execution states: like in QEMU, translated
/// code is a pure function of guest memory contents, and stores into
/// translated pages invalidate the affected blocks
/// ([`BlockCache::invalidate_write`]).
#[derive(Default)]
pub struct BlockCache {
    blocks: HashMap<u32, Arc<TranslationBlock>>,
    /// Page index → block start addresses translated from that page.
    page_index: HashMap<u32, HashSet<u32>>,
    /// Superblock links: block start → `[taken/jump target, fall-through]`
    /// successors observed at execution time ([`BlockCache::chain`]).
    links: HashMap<u32, [Option<u32>; 2]>,
    /// Inverse of `links`: block start → predecessors linking to it, so
    /// invalidating a block can sever *inbound* edges without a scan.
    rev_links: HashMap<u32, HashSet<u32>>,
    /// Bumped on every invalidation (and on `clear`); per-worker L1
    /// fronts compare it lock-free to know when to flush.
    epoch: Arc<AtomicU64>,
    /// Lock-free page bitmap mirroring `page_index` occupancy.
    code_pages: Arc<CodePageFilter>,
    stats: DbtStats,
    /// Optional static pre-pass annotator applied at translation time.
    annotator: Option<Arc<dyn BlockAnnotator>>,
}

impl std::fmt::Debug for BlockCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BlockCache")
            .field("blocks", &self.blocks.len())
            .field("links", &self.links.len())
            .field("epoch", &self.epoch.load(Ordering::Relaxed))
            .field("stats", &self.stats)
            .field("annotated", &self.annotator.is_some())
            .finish()
    }
}

const PAGE_SHIFT: u32 = 12;

impl BlockCache {
    /// Creates an empty cache.
    pub fn new() -> BlockCache {
        BlockCache::default()
    }

    /// Translator statistics.
    pub fn stats(&self) -> DbtStats {
        self.stats
    }

    /// Number of cached blocks.
    pub fn len(&self) -> usize {
        self.blocks.len()
    }

    /// True if no blocks are cached.
    pub fn is_empty(&self) -> bool {
        self.blocks.is_empty()
    }

    /// Returns the block starting at `pc`, translating and caching it on a
    /// miss. `on_translate` is invoked once per newly-decoded instruction
    /// with its guest address — this is the hook the engine uses to raise
    /// `onInstrTranslation` events.
    pub fn translate(
        &mut self,
        mem: &Memory,
        pc: u32,
        on_translate: &mut dyn FnMut(u32, &Instr),
    ) -> Arc<TranslationBlock> {
        self.translate_timed(mem, pc, on_translate).0
    }

    /// [`BlockCache::translate`], also returning the time spent decoding
    /// — `Duration::ZERO` on a cache hit, so hits never read the clock.
    /// The observability layer attributes this to its translate phase
    /// without wrapping the (overwhelmingly hit) lookup in a timed span.
    pub fn translate_timed(
        &mut self,
        mem: &Memory,
        pc: u32,
        on_translate: &mut dyn FnMut(u32, &Instr),
    ) -> (Arc<TranslationBlock>, Duration) {
        if let Some(tb) = self.blocks.get(&pc) {
            self.stats.hits += 1;
            return (Arc::clone(tb), Duration::ZERO);
        }
        let started = Instant::now();
        let mut decoded = Self::decode_block(mem, pc, on_translate);
        if let Some(ann) = &self.annotator {
            decoded.annotation = ann.annotate(decoded.start, &decoded.instrs);
        }
        let decode_time = started.elapsed();
        self.stats.translation_time += decode_time;
        let tb = Arc::new(decoded);
        self.stats.translations += 1;
        self.stats.instrs_translated += tb.instrs.len() as u64;
        for page in (tb.start >> PAGE_SHIFT)..=(tb.end().max(tb.start) >> PAGE_SHIFT) {
            self.page_index.entry(page).or_default().insert(pc);
            self.code_pages.mark_page(page);
        }
        self.blocks.insert(pc, Arc::clone(&tb));
        (tb, decode_time)
    }

    /// Records a superblock link: executing the block at `from` was
    /// observed to continue directly at `to`. `slot` 0 is the taken
    /// branch / jump / call edge, slot 1 the fall-through edge. Returns
    /// true when the link changed (new or retargeted).
    pub fn chain(&mut self, from: u32, to: u32, slot: usize) -> bool {
        debug_assert!(slot < 2);
        let entry = self.links.entry(from).or_default();
        if entry[slot] == Some(to) {
            return false;
        }
        if let Some(old) = entry[slot].replace(to) {
            // Retargeted (e.g. the successor was retranslated at a new
            // boundary): drop the stale inbound edge unless the other
            // slot still points there.
            if !entry.contains(&Some(old)) {
                if let Some(preds) = self.rev_links.get_mut(&old) {
                    preds.remove(&from);
                }
            }
        }
        self.rev_links.entry(to).or_default().insert(from);
        self.stats.chains_formed += 1;
        true
    }

    /// The recorded successors of the block at `from`:
    /// `[taken/jump, fall-through]`.
    pub fn chained_succ(&self, from: u32) -> [Option<u32>; 2] {
        self.links.get(&from).copied().unwrap_or([None, None])
    }

    /// Severs every chain edge touching the block at `pc` — outbound
    /// links it holds and inbound links other blocks hold to it —
    /// returning the number of edges removed.
    fn unlink(&mut self, pc: u32) -> u64 {
        let mut severed = 0u64;
        if let Some(succs) = self.links.remove(&pc) {
            for to in succs.into_iter().flatten() {
                severed += 1;
                if let Some(preds) = self.rev_links.get_mut(&to) {
                    preds.remove(&pc);
                }
            }
        }
        if let Some(preds) = self.rev_links.remove(&pc) {
            for pred in preds {
                if let Some(slots) = self.links.get_mut(&pred) {
                    for slot in slots.iter_mut() {
                        if *slot == Some(pc) {
                            *slot = None;
                            severed += 1;
                        }
                    }
                }
            }
        }
        severed
    }

    /// The invalidation-epoch counter per-worker L1 fronts watch.
    pub fn epoch_handle(&self) -> Arc<AtomicU64> {
        Arc::clone(&self.epoch)
    }

    /// The lock-free code-page bitmap shared with L1 fronts.
    pub fn code_page_filter(&self) -> Arc<CodePageFilter> {
        Arc::clone(&self.code_pages)
    }

    fn decode_block(
        mem: &Memory,
        pc: u32,
        on_translate: &mut dyn FnMut(u32, &Instr),
    ) -> TranslationBlock {
        let mut instrs = Vec::new();
        let mut cur = pc;
        let mut ends_in_invalid = false;
        while instrs.len() < MAX_BLOCK_INSTRS {
            let raw = mem.read_bytes_concrete(cur, INSTR_SIZE);
            let bytes: [u8; 8] = raw.try_into().expect("8 bytes");
            match Instr::decode(&bytes) {
                None => {
                    ends_in_invalid = true;
                    break;
                }
                Some(i) => {
                    on_translate(cur, &i);
                    let term = i.op.is_terminator();
                    instrs.push(i);
                    cur += INSTR_SIZE;
                    if term {
                        break;
                    }
                }
            }
        }
        TranslationBlock {
            start: pc,
            instrs,
            ends_in_invalid,
            annotation: BlockAnnotation::conservative(),
        }
    }

    /// Installs (or removes) the static pre-pass annotator. Drops all
    /// cached blocks so stale annotations never mix with fresh ones.
    pub fn set_annotator(&mut self, annotator: Option<Arc<dyn BlockAnnotator>>) {
        self.annotator = annotator;
        self.clear();
    }

    /// Invalidates every block overlapping a guest store at `addr` of
    /// `len` bytes. Call on stores into pages containing translated code
    /// (self-modifying or JITed guests).
    pub fn invalidate_write(&mut self, addr: u32, len: u32) {
        let first = addr >> PAGE_SHIFT;
        let last = addr.saturating_add(len.saturating_sub(1)) >> PAGE_SHIFT;
        let mut victims: Vec<u32> = Vec::new();
        for page in first..=last {
            if let Some(starts) = self.page_index.get(&page) {
                for &s in starts {
                    if let Some(tb) = self.blocks.get(&s) {
                        let tb_end = tb.end();
                        if s < addr.saturating_add(len) && tb_end > addr {
                            victims.push(s);
                        }
                    }
                }
            }
        }
        // A page-spanning block is indexed on every page it covers;
        // count (and unlink) it once.
        victims.sort_unstable();
        victims.dedup();
        let invalidated = !victims.is_empty();
        for s in victims {
            self.blocks.remove(&s);
            self.stats.invalidations += 1;
            self.stats.unlinks += self.unlink(s);
        }
        if invalidated {
            // Publish after the maps are consistent: an L1 front that
            // observes the new epoch re-reads through the lock and sees
            // the post-invalidation cache.
            self.epoch.fetch_add(1, Ordering::Release);
        }
    }

    /// True if `addr` lies in a page containing translated code (cheap
    /// pre-check before [`BlockCache::invalidate_write`]).
    pub fn page_has_code(&self, addr: u32) -> bool {
        self.page_index
            .get(&(addr >> PAGE_SHIFT))
            .map(|s| !s.is_empty())
            .unwrap_or(false)
    }

    /// Drops all cached blocks, chain links, and the page filter.
    pub fn clear(&mut self) {
        self.blocks.clear();
        self.page_index.clear();
        self.links.clear();
        self.rev_links.clear();
        self.code_pages.reset();
        self.epoch.fetch_add(1, Ordering::Release);
    }
}

/// A thread-safe shared block cache for the parallel explorer.
#[derive(Clone, Debug, Default)]
pub struct SharedBlockCache(Arc<Mutex<BlockCache>>);

impl SharedBlockCache {
    /// Creates an empty shared cache.
    pub fn new() -> SharedBlockCache {
        SharedBlockCache::default()
    }

    /// See [`BlockCache::translate`].
    pub fn translate(
        &self,
        mem: &Memory,
        pc: u32,
        on_translate: &mut dyn FnMut(u32, &Instr),
    ) -> Arc<TranslationBlock> {
        self.0.lock().unwrap().translate(mem, pc, on_translate)
    }

    /// See [`BlockCache::translate_timed`].
    pub fn translate_timed(
        &self,
        mem: &Memory,
        pc: u32,
        on_translate: &mut dyn FnMut(u32, &Instr),
    ) -> (Arc<TranslationBlock>, Duration) {
        self.0.lock().unwrap().translate_timed(mem, pc, on_translate)
    }

    /// See [`BlockCache::invalidate_write`].
    pub fn invalidate_write(&self, addr: u32, len: u32) {
        self.0.lock().unwrap().invalidate_write(addr, len)
    }

    /// See [`BlockCache::page_has_code`].
    pub fn page_has_code(&self, addr: u32) -> bool {
        self.0.lock().unwrap().page_has_code(addr)
    }

    /// See [`BlockCache::chain`].
    pub fn chain(&self, from: u32, to: u32, slot: usize) -> bool {
        self.0.lock().unwrap().chain(from, to, slot)
    }

    /// See [`BlockCache::chained_succ`].
    pub fn chained_succ(&self, from: u32) -> [Option<u32>; 2] {
        self.0.lock().unwrap().chained_succ(from)
    }

    /// See [`BlockCache::epoch_handle`].
    pub fn epoch_handle(&self) -> Arc<AtomicU64> {
        self.0.lock().unwrap().epoch_handle()
    }

    /// See [`BlockCache::code_page_filter`].
    pub fn code_page_filter(&self) -> Arc<CodePageFilter> {
        self.0.lock().unwrap().code_page_filter()
    }

    /// See [`BlockCache::stats`].
    pub fn stats(&self) -> DbtStats {
        self.0.lock().unwrap().stats()
    }

    /// See [`BlockCache::clear`].
    pub fn clear(&self) {
        self.0.lock().unwrap().clear()
    }

    /// See [`BlockCache::set_annotator`]. Affects every worker sharing
    /// this cache.
    pub fn set_annotator(&self, annotator: Option<Arc<dyn BlockAnnotator>>) {
        self.0.lock().unwrap().set_annotator(annotator)
    }
}

/// The translation cache an engine executes against: private to one
/// engine, or shared between the parallel explorer's workers.
///
/// Translation is a pure function of guest memory, so workers exploring
/// the same image can share one warm cache; a stolen state never pays
/// for re-translating blocks its previous owner already decoded. The
/// engine holds this handle rather than a `BlockCache` directly so the
/// sequential fast path keeps its lock-free cache.
#[derive(Debug)]
pub enum CacheHandle {
    /// A lock-free cache owned by one engine.
    Private(BlockCache),
    /// A mutex-guarded cache shared across engines.
    Shared(SharedBlockCache),
}

impl Default for CacheHandle {
    fn default() -> CacheHandle {
        CacheHandle::Private(BlockCache::new())
    }
}

impl CacheHandle {
    /// A fresh private cache.
    pub fn private() -> CacheHandle {
        CacheHandle::default()
    }

    /// A handle onto an existing shared cache.
    pub fn shared(cache: SharedBlockCache) -> CacheHandle {
        CacheHandle::Shared(cache)
    }

    /// True when backed by a cross-engine shared cache.
    pub fn is_shared(&self) -> bool {
        matches!(self, CacheHandle::Shared(_))
    }

    /// See [`BlockCache::translate`].
    pub fn translate(
        &mut self,
        mem: &Memory,
        pc: u32,
        on_translate: &mut dyn FnMut(u32, &Instr),
    ) -> Arc<TranslationBlock> {
        match self {
            CacheHandle::Private(c) => c.translate(mem, pc, on_translate),
            CacheHandle::Shared(c) => c.translate(mem, pc, on_translate),
        }
    }

    /// See [`BlockCache::translate_timed`].
    pub fn translate_timed(
        &mut self,
        mem: &Memory,
        pc: u32,
        on_translate: &mut dyn FnMut(u32, &Instr),
    ) -> (Arc<TranslationBlock>, Duration) {
        match self {
            CacheHandle::Private(c) => c.translate_timed(mem, pc, on_translate),
            CacheHandle::Shared(c) => c.translate_timed(mem, pc, on_translate),
        }
    }

    /// See [`BlockCache::invalidate_write`].
    pub fn invalidate_write(&mut self, addr: u32, len: u32) {
        match self {
            CacheHandle::Private(c) => c.invalidate_write(addr, len),
            CacheHandle::Shared(c) => c.invalidate_write(addr, len),
        }
    }

    /// See [`BlockCache::page_has_code`].
    pub fn page_has_code(&self, addr: u32) -> bool {
        match self {
            CacheHandle::Private(c) => c.page_has_code(addr),
            CacheHandle::Shared(c) => c.page_has_code(addr),
        }
    }

    /// See [`BlockCache::chain`].
    pub fn chain(&mut self, from: u32, to: u32, slot: usize) -> bool {
        match self {
            CacheHandle::Private(c) => c.chain(from, to, slot),
            CacheHandle::Shared(c) => c.chain(from, to, slot),
        }
    }

    /// See [`BlockCache::chained_succ`].
    pub fn chained_succ(&self, from: u32) -> [Option<u32>; 2] {
        match self {
            CacheHandle::Private(c) => c.chained_succ(from),
            CacheHandle::Shared(c) => c.chained_succ(from),
        }
    }

    /// See [`BlockCache::epoch_handle`].
    pub fn epoch_handle(&self) -> Arc<AtomicU64> {
        match self {
            CacheHandle::Private(c) => c.epoch_handle(),
            CacheHandle::Shared(c) => c.epoch_handle(),
        }
    }

    /// See [`BlockCache::code_page_filter`].
    pub fn code_page_filter(&self) -> Arc<CodePageFilter> {
        match self {
            CacheHandle::Private(c) => c.code_page_filter(),
            CacheHandle::Shared(c) => c.code_page_filter(),
        }
    }

    /// See [`BlockCache::stats`]. For a shared handle these counters
    /// aggregate every participating engine.
    pub fn stats(&self) -> DbtStats {
        match self {
            CacheHandle::Private(c) => c.stats(),
            CacheHandle::Shared(c) => c.stats(),
        }
    }

    /// See [`BlockCache::clear`].
    pub fn clear(&mut self) {
        match self {
            CacheHandle::Private(c) => c.clear(),
            CacheHandle::Shared(c) => c.clear(),
        }
    }

    /// See [`BlockCache::set_annotator`].
    pub fn set_annotator(&mut self, annotator: Option<Arc<dyn BlockAnnotator>>) {
        match self {
            CacheHandle::Private(c) => c.set_annotator(annotator),
            CacheHandle::Shared(c) => c.set_annotator(annotator),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use s2e_vm::asm::Assembler;
    use s2e_vm::isa::{reg, Opcode};

    fn asm_mem(build: impl FnOnce(&mut Assembler)) -> Memory {
        let mut a = Assembler::new(0x2000);
        build(&mut a);
        let p = a.finish();
        let mut mem = Memory::new();
        mem.load_image(p.base, &p.image);
        mem
    }

    #[test]
    fn block_ends_at_terminator() {
        let mem = asm_mem(|a| {
            a.movi(reg::R0, 1);
            a.movi(reg::R1, 2);
            a.beq(reg::R0, reg::R1, "target");
            a.movi(reg::R2, 3); // next block
            a.label("target");
            a.halt();
        });
        let mut c = BlockCache::new();
        let tb = c.translate(&mem, 0x2000, &mut |_, _| {});
        assert_eq!(tb.instrs.len(), 3);
        assert_eq!(tb.instrs[2].op, Opcode::Beq);
        assert_eq!(tb.end(), 0x2018);
        assert!(!tb.ends_in_invalid);
    }

    #[test]
    fn invalid_instruction_marks_block() {
        let mut mem = Memory::new();
        mem.load_image(0x2000, &[0xff; 8]);
        let mut c = BlockCache::new();
        let tb = c.translate(&mem, 0x2000, &mut |_, _| {});
        assert!(tb.instrs.is_empty());
        assert!(tb.ends_in_invalid);
    }

    #[test]
    fn block_caps_at_max_instrs() {
        let mem = asm_mem(|a| {
            for _ in 0..(MAX_BLOCK_INSTRS + 10) {
                a.nop();
            }
            a.halt();
        });
        let mut c = BlockCache::new();
        let tb = c.translate(&mem, 0x2000, &mut |_, _| {});
        assert_eq!(tb.instrs.len(), MAX_BLOCK_INSTRS);
        assert!(!tb.ends_in_invalid);
    }

    #[test]
    fn translation_fires_hook_once_per_instr() {
        let mem = asm_mem(|a| {
            a.movi(reg::R0, 1);
            a.halt();
        });
        let mut c = BlockCache::new();
        let mut seen = Vec::new();
        c.translate(&mem, 0x2000, &mut |pc, i| seen.push((pc, i.op)));
        assert_eq!(seen, vec![(0x2000, Opcode::MovI), (0x2008, Opcode::Halt)]);
        // Cache hit: hook must NOT fire again.
        c.translate(&mem, 0x2000, &mut |_, _| panic!("retranslated"));
    }

    #[test]
    fn stats_track_hits_and_misses() {
        let mem = asm_mem(|a| {
            a.halt();
        });
        let mut c = BlockCache::new();
        c.translate(&mem, 0x2000, &mut |_, _| {});
        c.translate(&mem, 0x2000, &mut |_, _| {});
        c.translate(&mem, 0x2000, &mut |_, _| {});
        let s = c.stats();
        assert_eq!(s.translations, 1);
        assert_eq!(s.hits, 2);
        assert_eq!(s.instrs_translated, 1);
    }

    #[test]
    fn invalidation_on_store() {
        let mem = asm_mem(|a| {
            a.movi(reg::R0, 1);
            a.halt();
        });
        let mut c = BlockCache::new();
        c.translate(&mem, 0x2000, &mut |_, _| {});
        assert!(c.page_has_code(0x2004));
        // A write inside the block invalidates it.
        c.invalidate_write(0x2004, 4);
        assert_eq!(c.len(), 0);
        assert_eq!(c.stats().invalidations, 1);
        // Retranslation is a miss again.
        c.translate(&mem, 0x2000, &mut |_, _| {});
        assert_eq!(c.stats().translations, 2);
    }

    #[test]
    fn invalidation_misses_disjoint_write() {
        let mem = asm_mem(|a| {
            a.movi(reg::R0, 1);
            a.halt();
        });
        let mut c = BlockCache::new();
        c.translate(&mem, 0x2000, &mut |_, _| {});
        c.invalidate_write(0x2100, 4); // same page, outside the block
        assert_eq!(c.len(), 1);
        assert_eq!(c.stats().invalidations, 0);
    }

    #[test]
    fn pc_of_indexes_instructions() {
        let mem = asm_mem(|a| {
            a.nop();
            a.nop();
            a.halt();
        });
        let mut c = BlockCache::new();
        let tb = c.translate(&mem, 0x2000, &mut |_, _| {});
        assert_eq!(tb.pc_of(0), 0x2000);
        assert_eq!(tb.pc_of(2), 0x2010);
    }

    #[test]
    fn shared_cache_is_cloneable_and_shared() {
        let mem = asm_mem(|a| {
            a.halt();
        });
        let c1 = SharedBlockCache::new();
        let c2 = c1.clone();
        c1.translate(&mem, 0x2000, &mut |_, _| {});
        c2.translate(&mem, 0x2000, &mut |_, _| {});
        assert_eq!(c1.stats().translations, 1);
        assert_eq!(c1.stats().hits, 1);
    }

    #[test]
    fn cache_handle_dispatches_both_backends() {
        let mem = asm_mem(|a| {
            a.halt();
        });
        let shared = SharedBlockCache::new();
        let mut h1 = CacheHandle::shared(shared.clone());
        let mut h2 = CacheHandle::shared(shared);
        assert!(h1.is_shared());
        h1.translate(&mem, 0x2000, &mut |_, _| {});
        // The second handle sees the first handle's translation.
        h2.translate(&mem, 0x2000, &mut |_, _| panic!("retranslated"));
        assert_eq!(h2.stats().hits, 1);
        assert!(h2.page_has_code(0x2000));

        let mut p = CacheHandle::private();
        assert!(!p.is_shared());
        p.translate(&mem, 0x2000, &mut |_, _| {});
        assert_eq!(p.stats().translations, 1);
        p.clear();
        assert!(!p.page_has_code(0x2000));
    }

    struct MarkAll;
    impl BlockAnnotator for MarkAll {
        fn annotate(&self, _start: u32, instrs: &[Instr]) -> BlockAnnotation {
            BlockAnnotation {
                concrete_only: true,
                fork_free: true,
                live_in: 0,
                dead_writes: (1 << instrs.len()) - 1,
                concrete_mask: (1 << instrs.len()) - 1,
            }
        }
    }

    #[test]
    fn annotator_applies_at_translation_time() {
        let mem = asm_mem(|a| {
            a.movi(reg::R0, 1);
            a.halt();
        });
        let mut c = BlockCache::new();
        let tb = c.translate(&mem, 0x2000, &mut |_, _| {});
        assert_eq!(tb.annotation, BlockAnnotation::conservative());
        c.set_annotator(Some(Arc::new(MarkAll)));
        // Installing the annotator dropped the cached block.
        let tb = c.translate(&mem, 0x2000, &mut |_, _| {});
        assert!(tb.annotation.concrete_only);
        assert_eq!(tb.annotation.dead_writes, 0b11);
        assert_eq!(c.stats().translations, 2);
        // Cached hits keep the annotation.
        let tb = c.translate(&mem, 0x2000, &mut |_, _| {});
        assert!(tb.annotation.fork_free);
    }

    #[test]
    fn clear_drops_everything() {
        let mem = asm_mem(|a| {
            a.halt();
        });
        let mut c = BlockCache::new();
        c.translate(&mem, 0x2000, &mut |_, _| {});
        c.chain(0x2000, 0x2008, 1);
        let epoch = c.epoch_handle();
        let before = epoch.load(Ordering::Relaxed);
        c.clear();
        assert!(c.is_empty());
        assert!(!c.page_has_code(0x2000));
        assert!(!c.code_page_filter().page_has_code(0x2000));
        assert_eq!(c.chained_succ(0x2000), [None, None]);
        assert!(epoch.load(Ordering::Relaxed) > before, "clear publishes an epoch");
    }

    #[test]
    fn chain_records_and_dedups_links() {
        let mut c = BlockCache::new();
        assert!(c.chain(0x2000, 0x3000, 0));
        assert!(!c.chain(0x2000, 0x3000, 0), "idempotent re-link");
        assert!(c.chain(0x2000, 0x2020, 1));
        assert_eq!(c.chained_succ(0x2000), [Some(0x3000), Some(0x2020)]);
        assert_eq!(c.stats().chains_formed, 2);
        // Retargeting a slot replaces the link and keeps rev_links sane.
        assert!(c.chain(0x2000, 0x3008, 0));
        assert_eq!(c.chained_succ(0x2000), [Some(0x3008), Some(0x2020)]);
    }

    #[test]
    fn invalidation_severs_inbound_and_outbound_links() {
        let mem = asm_mem(|a| {
            a.movi(reg::R0, 1); // block A @0x2000
            a.jmp("b");
            a.label("b"); // block B @0x2010
            a.movi(reg::R1, 2);
            a.jmp("c");
            a.label("c"); // block C @0x2020
            a.halt();
        });
        let mut c = BlockCache::new();
        c.translate(&mem, 0x2000, &mut |_, _| {});
        c.translate(&mem, 0x2010, &mut |_, _| {});
        c.translate(&mem, 0x2020, &mut |_, _| {});
        c.chain(0x2000, 0x2010, 0); // A → B (inbound edge of B)
        c.chain(0x2010, 0x2020, 0); // B → C (outbound edge of B)
        let epoch = c.epoch_handle();
        let before = epoch.load(Ordering::Relaxed);

        // Overwrite B: both of its edges must be severed; A → and → C
        // survive as blocks but hold no link through B.
        c.invalidate_write(0x2010, 4);
        assert_eq!(c.stats().invalidations, 1);
        assert_eq!(c.stats().unlinks, 2, "inbound + outbound severed");
        assert_eq!(c.chained_succ(0x2000), [None, None]);
        assert_eq!(c.chained_succ(0x2010), [None, None]);
        assert!(epoch.load(Ordering::Relaxed) > before, "invalidation publishes an epoch");

        // A disjoint write severs nothing and publishes nothing.
        let quiet = epoch.load(Ordering::Relaxed);
        c.invalidate_write(0x2f00, 4);
        assert_eq!(epoch.load(Ordering::Relaxed), quiet, "no victims, no epoch");
    }

    #[test]
    fn page_spanning_write_severs_links_on_both_pages() {
        let mut mem = Memory::new();
        // One block at the end of page 2 (0x2ff8) and one at the start
        // of page 3 (0x3000), chained; a write spanning the boundary
        // must invalidate and unlink both.
        let mut a = Assembler::new(0x2ff8);
        a.halt(); // block X: single instr at 0x2ff8
        let p = a.finish();
        mem.load_image(p.base, &p.image);
        let mut a = Assembler::new(0x3000);
        a.halt(); // block Y at 0x3000
        let p = a.finish();
        mem.load_image(p.base, &p.image);

        let mut c = BlockCache::new();
        c.translate(&mem, 0x2ff8, &mut |_, _| {});
        c.translate(&mem, 0x3000, &mut |_, _| {});
        c.chain(0x2ff8, 0x3000, 1);
        assert!(c.code_page_filter().page_has_code(0x2fff));
        assert!(c.code_page_filter().page_has_code(0x3000));

        c.invalidate_write(0x2ffe, 4); // spans pages 2 and 3
        assert_eq!(c.len(), 0, "both blocks invalidated");
        assert_eq!(c.stats().invalidations, 2);
        assert_eq!(c.chained_succ(0x2ff8), [None, None]);
        assert!(c.stats().unlinks >= 1, "the X→Y link was severed");
    }

    #[test]
    fn stats_merge_adds_l1_rows_and_keeps_cache_rows() {
        // The backing cache's counters, merged with one worker's L1 ones.
        let mut a = DbtStats { hits: 5, translations: 1, unlinks: 1, ..DbtStats::default() };
        let b = DbtStats { hits: 3, l1_hits: 2, chain_entries: 7, ..DbtStats::default() };
        a.merge(&b);
        assert_eq!((a.hits, a.l1_hits, a.chain_entries), (8, 2, 7));
        assert_eq!((a.translations, a.unlinks), (1, 1));
        // A second read of the same cache does not double its counters.
        a.merge(&DbtStats { translations: 1, ..DbtStats::default() });
        assert_eq!(a.translations, 1);
    }
}
