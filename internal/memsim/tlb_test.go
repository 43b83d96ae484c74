package memsim

import (
	"fmt"
	"testing"
	"testing/quick"
)

func TestTLBHitAndMiss(t *testing.T) {
	tlb := NewTLB(TLBConfig{Entries: 2, PageBytes: 1 << 12, MissPenaltyCycles: 30})
	if tlb.Penalty() != 30 {
		t.Fatalf("Penalty = %d", tlb.Penalty())
	}
	if tlb.Translate(0x1000) {
		t.Fatal("first access to a page must miss")
	}
	if !tlb.Translate(0x1fff) {
		t.Fatal("second access to the same page must hit")
	}
	if tlb.Hits() != 1 || tlb.Misses() != 1 {
		t.Fatalf("hits=%d misses=%d", tlb.Hits(), tlb.Misses())
	}
}

func TestTLBLRUReplacement(t *testing.T) {
	tlb := NewTLB(TLBConfig{Entries: 2, PageBytes: 1 << 12, MissPenaltyCycles: 1})
	tlb.Translate(0x0000) // page 0
	tlb.Translate(0x1000) // page 1
	tlb.Translate(0x0000) // touch page 0: page 1 is now LRU
	tlb.Translate(0x2000) // page 2 evicts page 1
	if !tlb.Translate(0x0000) {
		t.Fatal("page 0 should have survived")
	}
	if tlb.Translate(0x1000) {
		t.Fatal("page 1 should have been evicted")
	}
}

func TestTLBLargePagesCoverWorkingSet(t *testing.T) {
	// With 2 MB pages and 64 entries, a 100 MB working set misses only on
	// first touch of each page.
	tlb := NewTLB(TLBConfig{Entries: 64, PageBytes: 2 << 20, MissPenaltyCycles: 30})
	const pages = 50
	for pass := 0; pass < 3; pass++ {
		for p := 0; p < pages; p++ {
			tlb.Translate(Addr(p) * (2 << 20))
		}
	}
	if tlb.Misses() != pages {
		t.Fatalf("misses = %d, want %d (first touch only)", tlb.Misses(), pages)
	}
}

func TestTLBReset(t *testing.T) {
	tlb := NewTLB(TLBConfig{Entries: 4, PageBytes: 1 << 12, MissPenaltyCycles: 1})
	tlb.Translate(0)
	tlb.Reset()
	if tlb.Hits() != 0 || tlb.Misses() != 0 {
		t.Fatal("Reset did not clear statistics")
	}
	if tlb.Translate(0) {
		t.Fatal("translation should miss after Reset")
	}
}

// referenceTLB is an obviously-correct fully associative, true-LRU TLB: a
// slice of page numbers ordered from most to least recently used.
type referenceTLB struct {
	pages   []uint64
	entries int
}

func (r *referenceTLB) translate(page uint64) bool {
	for i, p := range r.pages {
		if p == page {
			copy(r.pages[1:i+1], r.pages[:i])
			r.pages[0] = page
			return true
		}
	}
	if len(r.pages) < r.entries {
		r.pages = append(r.pages, 0)
	}
	copy(r.pages[1:], r.pages)
	r.pages[0] = page
	return false
}

// TestTLBMatchesReferenceModel replays random page traces on the TLB and on
// the reference model and requires identical hits and misses access for
// access. Each trace draws from more distinct pages than both the TLB's
// entries and its memo slots, and half the draws come from a family of
// pages that agree in their low 8 bits, which collided in a memo indexed by
// low bits.
func TestTLBMatchesReferenceModel(t *testing.T) {
	const pageShift = 21 // 2 MB pages, as in the Xeon model
	for _, entries := range []int{2, 64, 128} {
		t.Run(fmt.Sprintf("%d_entries", entries), func(t *testing.T) {
			f := func(seed uint64) bool {
				tlb := NewTLB(TLBConfig{Entries: entries, PageBytes: 1 << pageShift, MissPenaltyCycles: 30})
				ref := &referenceTLB{entries: entries}
				distinct := uint64(2*max(entries, tlbMemoEntries) + 7)
				state := seed
				next := func() uint64 {
					state = state*6364136223846793005 + 1442695040888963407
					return state >> 33
				}
				var hits, misses uint64
				for i := 0; i < 5000; i++ {
					page := next() % distinct
					if next()%2 == 0 {
						page = page%uint64(entries/2+3)<<8 | 0x2a // shared low bits
					}
					// Any byte of the page translates the same way.
					a := Addr(page<<pageShift | next()%(1<<pageShift))
					got, want := tlb.Translate(a), ref.translate(page)
					if want {
						hits++
					} else {
						misses++
					}
					if got != want {
						t.Errorf("seed %d, access %d: Translate(page %d) hit=%v, reference %v", seed, i, page, got, want)
						return false
					}
				}
				return tlb.Hits() == hits && tlb.Misses() == misses
			}
			if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
				t.Fatal(err)
			}
		})
	}
}
