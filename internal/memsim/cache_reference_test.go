package memsim

import (
	"fmt"
	"slices"
	"sort"
	"testing"
	"testing/quick"
)

// referenceCache is an obviously-correct model of a set-associative LRU
// cache: per set, a slice ordered from most to least recently used.
type referenceCache struct {
	sets [][]uint64
	ways int
}

func newReferenceCache(sets, ways int) *referenceCache {
	return &referenceCache{sets: make([][]uint64, sets), ways: ways}
}

func (r *referenceCache) set(line uint64) int { return int(line % uint64(len(r.sets))) }

// find returns the recency position of line in its set, or -1.
func (r *referenceCache) find(line uint64) int {
	for i, l := range r.sets[r.set(line)] {
		if l == line {
			return i
		}
	}
	return -1
}

// touch moves the entry at position i of line's set to the front.
func (r *referenceCache) touch(line uint64, i int) {
	entries := r.sets[r.set(line)]
	copy(entries[1:i+1], entries[:i])
	entries[0] = line
}

// lookup reports whether line is present, marking it most recently used.
func (r *referenceCache) lookup(line uint64) bool {
	i := r.find(line)
	if i >= 0 {
		r.touch(line, i)
	}
	return i >= 0
}

// insert makes line the most recently used entry of its set, evicting the
// least recently used one if the set is full and line was absent.
func (r *referenceCache) insert(line uint64) (evicted uint64, ok bool) {
	if i := r.find(line); i >= 0 {
		r.touch(line, i)
		return 0, false
	}
	set := r.set(line)
	entries := r.sets[set]
	if len(entries) == r.ways {
		evicted, ok = entries[len(entries)-1], true
	} else {
		entries = append(entries, 0)
	}
	copy(entries[1:], entries)
	entries[0] = line
	r.sets[set] = entries
	return evicted, ok
}

func (r *referenceCache) invalidate(line uint64) {
	if i := r.find(line); i >= 0 {
		set := r.set(line)
		r.sets[set] = append(r.sets[set][:i], r.sets[set][i+1:]...)
	}
}

// recencyOrder returns the lines of one set of c from most to least
// recently used, read straight from the packed way words.
func recencyOrder(c *Cache, set int) []uint64 {
	words := append([]uint64(nil), c.words[set*c.ways:(set+1)*c.ways]...)
	sort.Slice(words, func(a, b int) bool { return words[a]>>32 > words[b]>>32 })
	var lines []uint64
	for _, w := range words {
		if uint32(w) != 0 {
			lines = append(lines, uint64(uint32(w))-1)
		}
	}
	return lines
}

// TestCacheMatchesReferenceModel replays random traces on the real cache and
// on the reference model and requires every hit/miss decision, every
// evicted line and, periodically, every set's full recency order to match.
// The traces mix the ways the Core drives a cache — Lookup with
// insert-on-miss, direct Insert, stream-window InsertSpan, Contains — with
// Invalidate, and run two streams in lockstep at line offsets congruent
// modulo the set count and 256, the pattern that made low-bit-indexed memo
// slots collide. The shapes cover mask set indexing and the Lemire fast-mod
// path the Xeon L3's 12288 sets take.
func TestCacheMatchesReferenceModel(t *testing.T) {
	shapes := []struct{ ways, sets int }{
		{4, 16},  // power-of-two sets: mask indexing
		{8, 64},  // the Xeon L1-D's shape
		{16, 12}, // non-power-of-two sets: Lemire fast-mod
		{16, 48},
	}
	for _, sh := range shapes {
		t.Run(fmt.Sprintf("%dway_%dsets", sh.ways, sh.sets), func(t *testing.T) {
			f := func(seed uint64) bool { return replayAgainstReference(t, sh.ways, sh.sets, seed) }
			if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
				t.Fatal(err)
			}
		})
	}
}

func replayAgainstReference(t *testing.T, ways, sets int, seed uint64) bool {
	t.Helper()
	c := NewCache("t", CacheConfig{SizeBytes: ways * sets * LineSize, Ways: ways, LatencyCycles: 1})
	ref := newReferenceCache(sets, ways)
	state := seed
	next := func() uint64 {
		state = state*6364136223846793005 + 1442695040888963407
		return state >> 33
	}
	demandLines := uint64(3 * ways * sets)
	const window = 4
	// Two streams whose lines are congruent modulo the set count and 256
	// at every step, far from the demand lines.
	streamA := uint64(1 << 20)
	streamB := streamA + uint64(256*sets*ways)
	var refHits, refMisses, refEvictions uint64

	fail := func(op int, format string, args ...any) bool {
		t.Errorf("%d ways x %d sets, seed %d, op %d: %s", ways, sets, seed, op, fmt.Sprintf(format, args...))
		return false
	}
	// demand is a Lookup with insert-on-miss, the Core's demand path.
	demand := func(op int, line uint64) bool {
		got, want := c.Lookup(line), ref.lookup(line)
		if want {
			refHits++
		} else {
			refMisses++
		}
		if got != want {
			return fail(op, "Lookup(%d) hit=%v, reference %v", line, got, want)
		}
		if !got {
			gotEv, gotOK := c.Insert(line)
			wantEv, wantOK := ref.insert(line)
			if wantOK {
				refEvictions++
			}
			if gotEv != wantEv || gotOK != wantOK {
				return fail(op, "Insert(%d) after miss evicted (%d, %v), reference (%d, %v)", line, gotEv, gotOK, wantEv, wantOK)
			}
		}
		return true
	}
	for op := 0; op < 4000; op++ {
		line := next() % demandLines
		switch k := next() % 16; {
		case k < 6:
			if !demand(op, line) {
				return false
			}
		case k < 10:
			// Both streams take one demand step and install their fill
			// window, as the stream prefetcher does on a stream hit.
			for _, s := range []*uint64{&streamA, &streamB} {
				if !demand(op, *s) {
					return false
				}
				before, refBefore := c.Evictions(), refEvictions
				c.InsertSpan(*s+1, window)
				for i := uint64(1); i <= window; i++ {
					if _, ok := ref.insert(*s + i); ok {
						refEvictions++
					}
				}
				if got, want := c.Evictions()-before, refEvictions-refBefore; got != want {
					return fail(op, "InsertSpan(%d, %d) evicted %d lines, reference %d", *s+1, window, got, want)
				}
				*s++
			}
		case k < 12:
			gotEv, gotOK := c.Insert(line)
			wantEv, wantOK := ref.insert(line)
			if wantOK {
				refEvictions++
			}
			if gotEv != wantEv || gotOK != wantOK {
				return fail(op, "Insert(%d) evicted (%d, %v), reference (%d, %v)", line, gotEv, gotOK, wantEv, wantOK)
			}
		case k < 14:
			if got, want := c.Contains(line), ref.find(line) >= 0; got != want {
				return fail(op, "Contains(%d) = %v, reference %v", line, got, want)
			}
			if got := c.Contains(streamA - 1); got != (ref.find(streamA-1) >= 0) {
				return fail(op, "Contains(%d) = %v disagrees with the reference", streamA-1, got)
			}
		case k < 15:
			// Invalidate a demand line or the line a stream just left,
			// which the hit-way memo still points at.
			victim := line
			if next()%2 == 0 {
				victim = streamB - 1
			}
			c.Invalidate(victim)
			ref.invalidate(victim)
		default:
			// A Lookup miss, then an Invalidate in between, then the fill:
			// the fill must not replay the victim the miss recorded.
			hit := ref.lookup(line)
			if c.Lookup(line) != hit {
				return fail(op, "Lookup(%d) disagrees with the reference", line)
			}
			if hit {
				refHits++
				break
			}
			refMisses++
			other := (line + uint64(sets)) % demandLines
			c.Invalidate(other)
			ref.invalidate(other)
			gotEv, gotOK := c.Insert(line)
			wantEv, wantOK := ref.insert(line)
			if wantOK {
				refEvictions++
			}
			if gotEv != wantEv || gotOK != wantOK {
				return fail(op, "Insert(%d) after Invalidate(%d) evicted (%d, %v), reference (%d, %v)", line, other, gotEv, gotOK, wantEv, wantOK)
			}
		}
		if op%97 == 0 || op == 3999 {
			for set := 0; set < sets; set++ {
				if got, want := recencyOrder(c, set), ref.sets[set]; !slices.Equal(got, want) {
					return fail(op, "set %d recency order %v, reference %v", set, got, want)
				}
			}
		}
	}
	if c.Hits() != refHits || c.Misses() != refMisses || c.Evictions() != refEvictions {
		return fail(4000, "hits/misses/evictions %d/%d/%d, reference %d/%d/%d",
			c.Hits(), c.Misses(), c.Evictions(), refHits, refMisses, refEvictions)
	}
	return true
}

// TestCoreHitRatesImproveWithCacheSize is a sanity property of the whole
// hierarchy: for the same random trace, a machine with larger caches must
// not see more memory accesses than one with smaller caches.
func TestCoreHitRatesImproveWithCacheSize(t *testing.T) {
	trace := make([]Addr, 20000)
	state := uint64(9)
	for i := range trace {
		state = state*6364136223846793005 + 1
		trace[i] = Addr(64 + (state>>33)%(1<<14)*LineSize)
	}
	run := func(l3Lines int) uint64 {
		cfg := testConfig()
		cfg.L3 = CacheConfig{SizeBytes: l3Lines * LineSize, Ways: 8, LatencyCycles: 30}
		sys := MustSystem(cfg)
		c := sys.NewCore()
		for _, a := range trace {
			c.Load(a, 8)
		}
		return c.Stats().MemAccesses
	}
	small := run(1 << 10)
	large := run(1 << 13)
	if large > small {
		t.Fatalf("larger LLC saw more memory accesses (%d) than smaller LLC (%d)", large, small)
	}
}
