// Package arena provides the simulated address space that every data
// structure in this repository lives in.
//
// The AMAC paper's data structures (hash table buckets, tree nodes, skip list
// towers) are ordinary C structs aligned to 64-byte cache lines. Here they
// are byte ranges inside an Arena: allocation returns an abstract address,
// typed accessors read and write the bytes, and the memory-hierarchy
// simulator (package memsim) charges time for the same addresses. Keeping
// the data in a flat, explicitly addressed space — rather than in Go objects —
// is what lets the simulator reason about cache lines, and it also removes
// the Go garbage collector from the measured path.
//
// Every typed accessor funnels through slice, which runs once per simulated
// field access — it is on the simulator's hot path. Chunk sizes are therefore
// required to be powers of two so chunk/offset splits are a shift and a mask,
// and the panic messages (which call fmt) live in separate noinline slow
// paths so the bounds checks stay branch-plus-nothing in the common case.
package arena

import (
	"encoding/binary"
	"fmt"
	"math/bits"

	"amac/internal/memsim"
)

// Addr is re-exported so that data-structure packages can use a single
// address type with both the arena and the simulator.
type Addr = memsim.Addr

// DefaultChunkBytes is the allocation granularity of the arena's backing
// storage. Individual allocations may not exceed it.
const DefaultChunkBytes = 1 << 20

// Arena is a bump allocator over a simulated address space. The zero address
// is never handed out, so data structures can use 0 as a nil pointer.
// An Arena is not safe for concurrent use, including read-only use: every
// access updates the last-touched-chunk cache. The parallel execution layer
// gives each worker a private arena (see ops.PartitionJoin), which is the
// supported sharing model.
type Arena struct {
	chunkBytes uint64
	chunkShift uint
	chunkMask  uint64
	chunks     [][]byte
	top        uint64 // next free address
	allocs     uint64
	wasted     uint64 // bytes lost to alignment and chunk padding

	// lastIdx/lastBuf cache the most recently touched chunk: consecutive
	// accesses overwhelmingly land in one chunk, and chunk backing arrays
	// never move once allocated, so the cached slice header stays valid.
	lastIdx uint64
	lastBuf []byte
}

// New returns an empty arena with the default chunk size.
func New() *Arena { return NewWithChunkSize(DefaultChunkBytes) }

// NewWithChunkSize returns an empty arena whose backing storage grows in
// chunks of the given size, which must be a power of two and a multiple of
// the cache-line size. Small chunk sizes are useful in tests.
func NewWithChunkSize(chunkBytes int) *Arena {
	if chunkBytes <= 0 || chunkBytes%memsim.LineSize != 0 || chunkBytes&(chunkBytes-1) != 0 {
		panic(fmt.Sprintf("arena: chunk size %d must be a power of two multiple of %d", chunkBytes, memsim.LineSize))
	}
	return &Arena{
		chunkBytes: uint64(chunkBytes),
		chunkShift: uint(bits.TrailingZeros64(uint64(chunkBytes))),
		chunkMask:  uint64(chunkBytes) - 1,
		// Skip the first cache line so address 0 is never allocated.
		top:     memsim.LineSize,
		lastIdx: ^uint64(0),
	}
}

// Alloc reserves size bytes aligned to align (a power of two no larger than
// the chunk size) and returns the address of the first byte. The returned
// memory is zeroed. Alloc panics on invalid arguments, since those are
// programming errors in this repository rather than user input.
func (a *Arena) Alloc(size, align int) Addr {
	if size <= 0 {
		panic("arena: allocation size must be positive")
	}
	if align <= 0 || align&(align-1) != 0 {
		panic(fmt.Sprintf("arena: alignment %d must be a power of two", align))
	}
	if uint64(size) > a.chunkBytes {
		panic(fmt.Sprintf("arena: allocation of %d bytes exceeds chunk size %d", size, a.chunkBytes))
	}

	pos := a.top
	if rem := pos & (uint64(align) - 1); rem != 0 {
		pad := uint64(align) - rem
		pos += pad
		a.wasted += pad
	}
	// Never let an allocation straddle a chunk boundary: bump to the next
	// chunk if it would.
	if pos>>a.chunkShift != (pos+uint64(size)-1)>>a.chunkShift {
		next := (pos>>a.chunkShift + 1) << a.chunkShift
		a.wasted += next - pos
		pos = next
	}

	a.reserve(pos + uint64(size))
	a.allocs++
	return Addr(pos)
}

// reserve grows the backing chunks to cover addresses below end and raises
// the allocation watermark.
func (a *Arena) reserve(end uint64) {
	for uint64(len(a.chunks))<<a.chunkShift < end {
		a.chunks = append(a.chunks, make([]byte, a.chunkBytes))
	}
	a.top = end
}

// AllocLines reserves n whole cache lines (64-byte aligned).
func (a *Arena) AllocLines(n int) Addr {
	return a.Alloc(n*memsim.LineSize, memsim.LineSize)
}

// AllocSpan reserves size bytes of contiguous, cache-line-aligned address
// space, spanning as many chunks as needed, and reserving all of them in one
// pass. It is used for large arrays (bucket directories, materialized
// relations) whose elements are addressed by offset arithmetic. A span
// larger than one chunk counts as a single allocation.
func (a *Arena) AllocSpan(size uint64) Addr {
	if size == 0 {
		panic("arena: AllocSpan of zero bytes")
	}
	if size <= a.chunkBytes {
		return a.Alloc(int(size), memsim.LineSize)
	}
	// Start at a chunk boundary so that every chunk-sized piece of the span
	// is adjacent to the previous one.
	pos := a.top
	if rem := pos & a.chunkMask; rem != 0 {
		pad := a.chunkBytes - rem
		a.wasted += pad
		pos += pad
	}
	a.reserve(pos + size)
	a.allocs++
	return Addr(pos)
}

// Size returns the number of bytes of address space handed out so far
// (including alignment padding).
func (a *Arena) Size() uint64 { return a.top }

// Allocations returns the number of Alloc/AllocSpan calls served.
func (a *Arena) Allocations() uint64 { return a.allocs }

// Wasted returns the number of bytes lost to alignment and chunk padding.
func (a *Arena) Wasted() uint64 { return a.wasted }

// slice returns the backing bytes for [addr, addr+size), which must lie
// within one chunk and within allocated space.
func (a *Arena) slice(addr Addr, size int) []byte {
	pos := uint64(addr)
	off := pos & a.chunkMask
	if pos == 0 || size <= 0 || pos+uint64(size) > a.top || off+uint64(size) > a.chunkBytes {
		a.accessPanic(addr, size)
	}
	if idx := pos >> a.chunkShift; idx != a.lastIdx {
		a.lastIdx = idx
		a.lastBuf = a.chunks[idx]
	}
	return a.lastBuf[off : off+uint64(size)]
}

// accessPanic reports an invalid access; it is kept out of slice so the fast
// path never materializes a format call.
//
//go:noinline
func (a *Arena) accessPanic(addr Addr, size int) {
	pos := uint64(addr)
	end := pos + uint64(size)
	switch {
	case size <= 0 || pos == 0:
		panic(fmt.Sprintf("arena: invalid access addr=%d size=%d", addr, size))
	case end > a.top:
		panic(fmt.Sprintf("arena: access [%d,%d) beyond allocated space %d", pos, end, a.top))
	default:
		panic(fmt.Sprintf("arena: access [%d,%d) crosses a chunk boundary", pos, end))
	}
}

// ReadU64 reads a little-endian 64-bit value.
func (a *Arena) ReadU64(addr Addr) uint64 {
	return binary.LittleEndian.Uint64(a.slice(addr, 8))
}

// WriteU64 writes a little-endian 64-bit value.
func (a *Arena) WriteU64(addr Addr, v uint64) {
	binary.LittleEndian.PutUint64(a.slice(addr, 8), v)
}

// ReadI64 reads a signed 64-bit value.
func (a *Arena) ReadI64(addr Addr) int64 { return int64(a.ReadU64(addr)) }

// WriteI64 writes a signed 64-bit value.
func (a *Arena) WriteI64(addr Addr, v int64) { a.WriteU64(addr, uint64(v)) }

// ReadU32 reads a little-endian 32-bit value.
func (a *Arena) ReadU32(addr Addr) uint32 {
	return binary.LittleEndian.Uint32(a.slice(addr, 4))
}

// WriteU32 writes a little-endian 32-bit value.
func (a *Arena) WriteU32(addr Addr, v uint32) {
	binary.LittleEndian.PutUint32(a.slice(addr, 4), v)
}

// ReadU8 reads a single byte.
func (a *Arena) ReadU8(addr Addr) uint8 { return a.slice(addr, 1)[0] }

// WriteU8 writes a single byte.
func (a *Arena) WriteU8(addr Addr, v uint8) { a.slice(addr, 1)[0] = v }

// ReadAddr reads a stored address (pointer field).
func (a *Arena) ReadAddr(addr Addr) Addr { return Addr(a.ReadU64(addr)) }

// WriteAddr stores an address (pointer field).
func (a *Arena) WriteAddr(addr Addr, v Addr) { a.WriteU64(addr, uint64(v)) }

// Bytes returns the backing bytes for [addr, addr+size) without copying.
// The returned slice aliases the arena: it stays valid (chunks never move),
// and writes through it are visible to subsequent reads. Callers that need
// a stable snapshot must copy; the node accessors in the data-structure
// packages use it to decode several fields from one bounds check.
func (a *Arena) Bytes(addr Addr, size int) []byte {
	return a.slice(addr, size)
}

// ReadBytes copies size bytes starting at addr into a new slice. It
// allocates its result; hot paths read through Bytes, which does not.
func (a *Arena) ReadBytes(addr Addr, size int) []byte {
	out := make([]byte, size)
	copy(out, a.slice(addr, size))
	return out
}

// WriteBytes copies b into the arena starting at addr.
func (a *Arena) WriteBytes(addr Addr, b []byte) {
	copy(a.slice(addr, len(b)), b)
}
