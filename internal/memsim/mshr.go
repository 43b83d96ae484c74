package memsim

import "amac/internal/prof"

// mshrEntry tracks one outstanding L1-D miss.
type mshrEntry struct {
	line    uint64
	ready   uint64   // cycle at which the fill arrives
	cat     prof.Cat // attribution category of the fill level (CatDRAM = off-chip)
	offchip bool     // true if the fill comes from memory (occupies the LLC queue)
	valid   bool
}

// MSHRFile models the per-core L1-D miss status handling registers. Every
// miss that is outstanding (issued but not yet filled) occupies one entry;
// when all entries are busy no further miss — demand or prefetch — can be
// issued, which is exactly the mechanism that caps per-core MLP in the paper.
//
// The file is consulted on every simulated access (Drain runs at the top of
// every demand load), so it keeps running counters — outstanding entries,
// outstanding off-chip entries, and the earliest ready cycle — that let the
// common cases (file empty, no fill due yet) exit without scanning.
type MSHRFile struct {
	entries []mshrEntry

	outstanding int
	offchip     int
	// minReady is the smallest ready cycle among valid entries; meaningful
	// only when outstanding > 0. Allocate and Expedite lower it, Drain
	// recomputes it, so it is always exact, never just a bound.
	minReady uint64

	// memoLine/memoIdx map a Fibonacci hash of a line (memoSlot) to the
	// entry tracking it, so the prefetch-then-demand pattern resolves its
	// MSHR hit in one compare. Lines are unique in the file (Allocate only
	// runs after a Lookup miss), and entries are validated before use, so a
	// drained or reused entry simply misses the memo.
	memoLine [mshrMemoEntries]uint64
	memoIdx  [mshrMemoEntries]int
}

// mshrMemoBits sizes the lookup memo at 8 entries, close to the file's
// size (10 on the Xeon, 8 on the T4).
const (
	mshrMemoBits    = 3
	mshrMemoEntries = 1 << mshrMemoBits
)

// NewMSHRFile returns a file with n entries.
func NewMSHRFile(n int) *MSHRFile {
	return &MSHRFile{entries: make([]mshrEntry, n)}
}

// Size returns the number of registers.
func (m *MSHRFile) Size() int { return len(m.entries) }

// Lookup returns the entry tracking line, or nil.
func (m *MSHRFile) Lookup(line uint64) *mshrEntry {
	if m.outstanding == 0 {
		return nil
	}
	if s := memoSlot(line, mshrMemoBits); m.memoLine[s] == line {
		if e := &m.entries[m.memoIdx[s]]; e.valid && e.line == line {
			return e
		}
	}
	for i := range m.entries {
		if m.entries[i].valid && m.entries[i].line == line {
			s := memoSlot(line, mshrMemoBits)
			m.memoLine[s] = line
			m.memoIdx[s] = i
			return &m.entries[i]
		}
	}
	return nil
}

// Expedite lowers an outstanding entry's ready cycle: the demand access that
// hit the entry observed the data (logically) arrive early once out-of-order
// hiding shortened the visible stall. Entries must only be re-timed through
// this method so the earliest-ready bound stays exact.
func (m *MSHRFile) Expedite(e *mshrEntry, ready uint64) {
	e.ready = ready
	if ready < m.minReady {
		m.minReady = ready
	}
}

// Allocate records a new outstanding miss whose fill comes from the level
// src identifies (prof.CatDRAM marks an off-chip fill, which occupies the
// shared LLC queue). It returns false if every entry is busy; the caller
// must stall until EarliestReady and drain before retrying.
func (m *MSHRFile) Allocate(line, ready uint64, src prof.Cat) bool {
	offchip := src == prof.CatDRAM
	for i := range m.entries {
		if !m.entries[i].valid {
			m.entries[i] = mshrEntry{line: line, ready: ready, cat: src, offchip: offchip, valid: true}
			if m.outstanding == 0 || ready < m.minReady {
				m.minReady = ready
			}
			m.outstanding++
			if offchip {
				m.offchip++
			}
			s := memoSlot(line, mshrMemoBits)
			m.memoLine[s] = line
			m.memoIdx[s] = i
			return true
		}
	}
	return false
}

// Full reports whether every register is occupied.
func (m *MSHRFile) Full() bool { return m.outstanding == len(m.entries) }

// Outstanding returns the number of misses currently in flight.
func (m *MSHRFile) Outstanding() int { return m.outstanding }

// OutstandingOffchip returns the number of occupied registers whose fills
// come from off-chip memory. The Fabric uses this to model contention for the
// shared LLC queue.
func (m *MSHRFile) OutstandingOffchip() int { return m.offchip }

// EarliestReady returns the smallest ready cycle among occupied entries and
// true, or 0 and false if the file is empty.
func (m *MSHRFile) EarliestReady() (uint64, bool) {
	if m.outstanding == 0 {
		return 0, false
	}
	return m.minReady, true
}

// Drain removes every entry whose fill has arrived by cycle now and invokes
// fill for each completed line, in entry order (fill order determines LRU
// stamps downstream, so it must stay stable). The empty and nothing-due-yet
// cases exit without touching the entries.
func (m *MSHRFile) Drain(now uint64, fill func(line uint64)) {
	if m.outstanding == 0 || now < m.minReady {
		return
	}
	next := ^uint64(0)
	for i := range m.entries {
		if !m.entries[i].valid {
			continue
		}
		if m.entries[i].ready <= now {
			line := m.entries[i].line
			if m.entries[i].offchip {
				m.offchip--
			}
			m.outstanding--
			m.entries[i] = mshrEntry{}
			if fill != nil {
				fill(line)
			}
			continue
		}
		if m.entries[i].ready < next {
			next = m.entries[i].ready
		}
	}
	m.minReady = next
}

// Reset clears all entries.
func (m *MSHRFile) Reset() {
	for i := range m.entries {
		m.entries[i] = mshrEntry{}
	}
	m.outstanding = 0
	m.offchip = 0
	m.minReady = 0
	for i := range m.memoLine {
		m.memoLine[i] = 0
		m.memoIdx[i] = 0
	}
}
