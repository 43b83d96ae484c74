package memsim

import (
	"math/bits"
	"sort"
)

// Cache is a set-associative cache with true-LRU replacement. It stores only
// cache-line numbers (tags); data always lives in the arena. A Cache is not
// safe for concurrent use; the simulator is single-threaded by design.
//
// This type is the innermost loop of the whole simulator — every simulated
// load, store, prefetch and stream-prefetcher fill ends in a handful of
// Lookup/Insert calls — so the representation is chosen for the host's
// memory system as much as for clarity:
//
//   - Each way is one packed uint64 word: the line tag in the low 32 bits
//     (lineNumber+1, 0 = invalid) and the LRU use stamp in the high 32 bits.
//     A set scan, a recency refresh and a victim selection all touch one
//     contiguous word per way instead of two parallel arrays, halving the
//     metadata footprint (the simulated L3's alone would otherwise be 3 MB)
//     and the number of host cache lines dirtied per operation.
//   - 32-bit use stamps wrap; before the stamp counter would overflow, the
//     cache renormalizes by compacting all live stamps order-preservingly.
//     LRU victim selection depends only on the relative order of stamps, so
//     renormalization is invisible to the simulated results.
//   - The set-index computation avoids the hardware divide: power-of-two
//     set counts use a mask and others (the Xeon L3 has 12288 sets) a
//     Lemire fast-mod double multiply. Both produce exactly line % sets.
//
// 32-bit tags bound the simulated address space to 2^32-2 cache lines
// (256 GB); exceeding it panics loudly rather than aliasing.
type Cache struct {
	name    string
	latency uint64
	ways    int
	sets    uint64
	// mask is sets-1 when sets is a power of two (pow2 true).
	pow2 bool
	mask uint64
	// fastM is ceil(2^64 / sets), the fast-mod magic; valid when sets > 1
	// fits in 32 bits (lines always do, per the address-space bound).
	fastM uint64

	// words[set*ways+way] = use<<32 | tag.
	words []uint64
	clock uint32

	// memoTag/memoIdx memoize the ways that served the most recent hits,
	// direct-mapped by a Fibonacci hash of the tag (memoSlot): operators
	// touch several fields of one node, and the stream prefetcher
	// re-installs a sliding window of lines it filled one access earlier, so
	// re-touching a just-used line is the common case and skips the set
	// scan. Entries are validated against the backing word before use, so
	// Insert/Invalidate/Reset can never serve a stale way.
	memoTag [cacheMemoEntries]uint32
	memoIdx [cacheMemoEntries]int32

	// missLine/missClock/missVictim fuse the Lookup-miss-then-Insert pair
	// every demand miss performs: the miss scan reads each way's whole
	// packed word anyway, so it records the victim way it would pick, and
	// the following Insert of the same line replays it without a second set
	// scan. missClock guards the memo — any recency change in between
	// (possible on the MSHR-hit path, where in-flight fills drain first)
	// advances the clock and voids it.
	missLine   uint64
	missClock  uint32
	missVictim int32

	hits      uint64
	misses    uint64
	evictions uint64
}

// cacheMemoBits sizes the hit-way memo at 64 entries. A probe keeps several
// streams live at once — input tuples, output buffer, their prefetch windows
// — plus the node lines it chases, and 64 hashed slots hold all of them with
// room to spare. The slot is a hash, not the tag's low bits, because the
// probe's streams advance in lockstep at line offsets that agree in their
// low bits, and low-bit slots would make them evict each other on every
// access.
const (
	cacheMemoBits    = 6
	cacheMemoEntries = 1 << cacheMemoBits
)

// memoSlot maps a key (cache tag, TLB page or MSHR line) to one of
// 1<<slotBits memo slots by Fibonacci hashing: the multiply by 2^64/phi
// mixes every key bit into the top bits it keeps, so keys that agree in
// their low bits spread over the whole memo, and any run of consecutive keys
// up to half the memo's size lands in distinct slots.
func memoSlot(key uint64, slotBits uint) int {
	return int(key * 0x9E3779B97F4A7C15 >> (64 - slotBits))
}

// noLine is an impossible line number (tagOf rejects it), used to mark the
// miss-victim memo as empty.
const noLine = ^uint64(0)

// tagOf converts a line number to its packed tag, enforcing the simulator's
// address-space bound.
func tagOf(line uint64) uint32 {
	if line >= 1<<32-1 {
		panic("memsim: cache line number exceeds the simulator's 256 GB address-space bound")
	}
	return uint32(line) + 1
}

// NewCache builds a cache from its configuration. The configuration must have
// been validated.
func NewCache(name string, cfg CacheConfig) *Cache {
	sets := cfg.Sets()
	c := &Cache{
		name:     name,
		latency:  cfg.LatencyCycles,
		ways:     cfg.Ways,
		sets:     uint64(sets),
		words:    make([]uint64, sets*cfg.Ways),
		missLine: noLine,
	}
	if c.sets&(c.sets-1) == 0 {
		c.pow2 = true
		c.mask = c.sets - 1
	} else if c.sets < 1<<32 {
		c.fastM = ^uint64(0)/c.sets + 1
	}
	return c
}

// Name returns the label given at construction time.
func (c *Cache) Name() string { return c.name }

// Latency returns the hit latency in cycles.
func (c *Cache) Latency() uint64 { return c.latency }

// setBase returns the index of the first way of the set holding line.
func (c *Cache) setBase(line uint64) int {
	if c.pow2 {
		return int(line&c.mask) * c.ways
	}
	if c.fastM != 0 {
		// Lemire fast-mod: line % sets for 32-bit operands (lines are
		// 32-bit by the address-space bound).
		mod, _ := bits.Mul64(c.fastM*line, c.sets)
		return int(mod) * c.ways
	}
	return int(line%c.sets) * c.ways
}

// tick advances the use-stamp clock, renormalizing first if the next stamp
// would overflow 32 bits.
func (c *Cache) tick() uint32 {
	if c.clock == ^uint32(0) {
		c.renormalize()
	}
	c.clock++
	return c.clock
}

// renormalize compacts all live use stamps to 1..K preserving their order.
// LRU decisions depend only on stamp order, so simulated behaviour is
// unchanged; it runs at most once per 2^32 stamp assignments per cache.
func (c *Cache) renormalize() {
	type live struct {
		idx int
		use uint32
	}
	entries := make([]live, 0, len(c.words))
	for i, w := range c.words {
		if uint32(w) != 0 {
			entries = append(entries, live{i, uint32(w >> 32)})
		}
	}
	sort.Slice(entries, func(a, b int) bool { return entries[a].use < entries[b].use })
	for rank, e := range entries {
		c.words[e.idx] = uint64(rank+1)<<32 | uint64(uint32(c.words[e.idx]))
	}
	c.clock = uint32(len(entries))
	// The clock jumped backwards; a stale miss-victim memo could otherwise
	// match a future clock value coincidentally.
	c.missLine = noLine
}

// Lookup reports whether line is present and, if so, marks it most recently
// used. Statistics are updated. The memo hit — the common case for
// node-field re-touches and stream-filled lines — is checked first.
func (c *Cache) Lookup(line uint64) bool {
	tag := tagOf(line)
	if s := memoSlot(uint64(tag), cacheMemoBits); c.memoTag[s] == tag {
		if idx := c.memoIdx[s]; uint32(c.words[idx]) == tag {
			c.words[idx] = uint64(c.tick())<<32 | uint64(tag)
			c.hits++
			return true
		}
	}
	return c.lookupSlow(line, tag)
}

// lookupSlow scans the set for tag, refreshing recency on a hit. On a miss
// it additionally records the victim way (victimWay, as insertSlowAt picks
// it) so that the fill this miss triggers can insert without rescanning the
// set. The victim pass runs only after the hit scan failed — hits stay one
// compare per way, and the miss's second pass re-reads words the first pass
// just pulled into the host's cache.
func (c *Cache) lookupSlow(line uint64, tag uint32) bool {
	base := c.setBase(line)
	words := c.words[base : base+c.ways]
	if w := findWay(words, tag); w >= 0 {
		words[w] = uint64(c.tick())<<32 | uint64(tag)
		c.hits++
		c.memoize(tag, base+w)
		return true
	}
	c.misses++
	c.missVictim = int32(base + victimWay(words))
	c.missLine = line
	c.missClock = c.clock
	return false
}

// Contains reports whether line is present without updating recency or
// statistics. It is used by prefetch filtering.
func (c *Cache) Contains(line uint64) bool {
	tag := tagOf(line)
	if s := memoSlot(uint64(tag), cacheMemoBits); c.memoTag[s] == tag {
		if uint32(c.words[c.memoIdx[s]]) == tag {
			return true
		}
	}
	return c.containsSlow(line, tag)
}

// containsSlow scans the set for tag without side effects.
func (c *Cache) containsSlow(line uint64, tag uint32) bool {
	base := c.setBase(line)
	return findWay(c.words[base:base+c.ways], tag) >= 0
}

// findWay returns the index within words of the way holding tag, or -1.
func findWay(words []uint64, tag uint32) int {
	for w, word := range words {
		if uint32(word) == tag {
			return w
		}
	}
	return -1
}

// victimWay returns the index within words of the way an insert into this
// set replaces: the highest-index invalid way if any, otherwise the least
// recently used way. One minimum over stamp<<32 | ^way decides both rules
// without a branch per way: an invalid way's word is all zero, so its key is
// below every live key (tick and renormalize hand out stamps from 1) and
// among invalid ways the complemented index prefers the highest; live
// stamps are unique, so the lowest stamp wins outright.
func victimWay(words []uint64) int {
	best := ^uint64(0)
	for w, word := range words {
		best = min(best, word&^0xffffffff|uint64(^uint32(w)))
	}
	return int(^uint32(best))
}

// Insert places line in the cache, evicting the least recently used way of
// its set if necessary. It returns the evicted line and true if an eviction
// of a valid line occurred. Inserting a line that is already present only
// refreshes its recency — the memoized fast path for that case is what the
// stream prefetcher hits three times per re-installed line.
func (c *Cache) Insert(line uint64) (evicted uint64, ok bool) {
	tag := tagOf(line)
	if s := memoSlot(uint64(tag), cacheMemoBits); c.memoTag[s] == tag {
		if idx := c.memoIdx[s]; uint32(c.words[idx]) == tag {
			c.words[idx] = uint64(c.tick())<<32 | uint64(tag)
			return 0, false
		}
	}
	if line == c.missLine && c.clock == c.missClock {
		// Replay the victim recorded by the Lookup miss that caused this
		// fill; nothing has touched the cache in between (the clock guard),
		// so the rescan would reach the same way.
		idx := c.missVictim
		old := uint32(c.words[idx])
		c.words[idx] = uint64(c.tick())<<32 | uint64(tag)
		c.memoize(tag, int(idx))
		c.missLine = noLine
		if old != 0 {
			c.evictions++
			return uint64(old) - 1, true
		}
		return 0, false
	}
	return c.insertSlow(line, tag)
}

// insertSlow handles the non-memoized insert: refresh the way already
// holding the line, or else replace victimWay's choice (an invalid way, or
// the LRU way, which counts as an eviction).
func (c *Cache) insertSlow(line uint64, tag uint32) (evicted uint64, ok bool) {
	return c.insertSlowAt(c.setBase(line), tag)
}

// insertSlowAt is insertSlow with the set base already resolved (InsertSpan
// steps it incrementally).
func (c *Cache) insertSlowAt(base int, tag uint32) (evicted uint64, ok bool) {
	stamp := c.tick()
	words := c.words[base : base+c.ways]
	w := findWay(words, tag)
	if w < 0 {
		w = victimWay(words)
	}
	old := uint32(words[w])
	words[w] = uint64(stamp)<<32 | uint64(tag)
	c.memoize(tag, base+w)
	if old == 0 || old == tag {
		return 0, false
	}
	c.evictions++
	return uint64(old) - 1, true
}

// InsertSpan inserts n consecutive lines starting at first, exactly as n
// successive Insert calls would (same per-cache operation order, so the
// resulting state and statistics are identical). The stream prefetcher
// re-installs its fill window on every stream hit; batching lets the span
// share the tag arithmetic and step the set index instead of recomputing it,
// and the Fibonacci-hashed memo places a window of consecutive tags in
// distinct slots, so the common all-refresh case runs without a single set
// scan.
func (c *Cache) InsertSpan(first uint64, n int) {
	tag := tagOf(first+uint64(n-1)) - uint32(n-1) // bound-check once
	base := c.setBase(first)
	limit := len(c.words)
	for i := 0; i < n; i++ {
		if s := memoSlot(uint64(tag), cacheMemoBits); c.memoTag[s] == tag {
			if idx := c.memoIdx[s]; uint32(c.words[idx]) == tag {
				c.words[idx] = uint64(c.tick())<<32 | uint64(tag)
				tag++
				if base += c.ways; base == limit {
					base = 0
				}
				continue
			}
		}
		c.insertSlowAt(base, tag)
		tag++
		if base += c.ways; base == limit {
			base = 0
		}
	}
}

// memoize records the way that holds tag in the hit-way memo. A memo entry
// is authoritative only because every reader re-validates it against the
// backing word, so a memoized line that was since evicted or displaced
// simply misses the memo.
func (c *Cache) memoize(tag uint32, idx int) {
	s := memoSlot(uint64(tag), cacheMemoBits)
	c.memoTag[s] = tag
	c.memoIdx[s] = int32(idx)
}

// Invalidate removes line from the cache if present.
func (c *Cache) Invalidate(line uint64) {
	tag := tagOf(line)
	base := c.setBase(line)
	if w := findWay(c.words[base:base+c.ways], tag); w >= 0 {
		c.words[base+w] = 0
		// Invalidation does not tick the clock, so the miss-victim memo
		// must be voided explicitly.
		c.missLine = noLine
	}
}

// Reset invalidates all lines and clears statistics. An untouched cache is
// reset for free: every state-changing operation ticks the clock (inserts)
// or bumps the hit/miss counters (lookups), so clock == hits == misses == 0
// proves the tag array is still all-zero and the memset can be skipped —
// which is what makes recycling a socket model cheap for compute-only runs
// that never reach this level.
func (c *Cache) Reset() {
	if c.clock == 0 && c.hits == 0 && c.misses == 0 {
		c.missLine = noLine
		return
	}
	for i := range c.words {
		c.words[i] = 0
	}
	c.clock = 0
	for m := range c.memoTag {
		c.memoTag[m] = 0
		c.memoIdx[m] = 0
	}
	c.missLine = noLine
	c.missClock = 0
	c.missVictim = 0
	c.hits = 0
	c.misses = 0
	c.evictions = 0
}

// Hits returns the number of Lookup calls that found their line.
func (c *Cache) Hits() uint64 { return c.hits }

// Misses returns the number of Lookup calls that did not find their line.
func (c *Cache) Misses() uint64 { return c.misses }

// Evictions returns the number of valid lines displaced by Insert.
func (c *Cache) Evictions() uint64 { return c.evictions }
