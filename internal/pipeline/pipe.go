package pipeline

import (
	"encoding/binary"

	"amac/internal/arena"
	"amac/internal/memsim"
	"amac/internal/ops"
)

// Row is one intermediate result streaming between two pipeline stages: the
// upstream operator's emitted row plus the cycle at which the originating
// request was admitted (serving pipelines carry it so the sink can account
// true admission→completion latency; batch pipelines leave it zero).
type Row struct {
	ops.JoinRow
	Admit uint64
}

// Pipe geometry. A pushed row is charged as a 16-byte store into a rotating
// arena-resident window and a popped row as the matching load: the traffic of
// a real bounded ring buffer without allocating one per possible stream
// length. The window is sized to the pipe's capacity (the next power of two,
// at least twice the capacity so a resident row is never overwritten before
// its load) — a bounded pipe's cache footprint is its capacity, so the
// streamed stores must not march through more address space than the real
// ring would occupy. Slot selection is a mask.
const (
	pipeSlotBytes = 16
	pipeMinSlots  = 1 << 4
	pipeMaxSlots  = 1 << 12
	// costPipePop covers unlinking the head row (mirrors the admission
	// queue's pop bookkeeping).
	costPipePop = 2
)

// pipeSlots returns the charged-window slot count for a pipe capacity.
func pipeSlots(capacity int) uint64 {
	s := uint64(pipeMinSlots)
	for int(s) < 2*capacity && s < pipeMaxSlots {
		s <<= 1
	}
	return s
}

// pipe is the bounded buffer between two adjacent stages. The upstream
// stage's operator machine emits into it (it implements ops.Collector), and
// the downstream stage's source pops from it. Capacity is the backpressure
// bound: a pump lease's gate closes when the pipe is full, so the upstream
// engine drains its in-flight lookups and hands control back downstream.
type pipe struct {
	a    *arena.Arena
	base arena.Addr

	// rows[head:] is the logical FIFO content.
	rows []Row
	head int

	// pushed and popped count rows ever through the pipe; masked by slots-1
	// they address the charged window.
	pushed, popped uint64
	slots          uint64

	// capacity is the backpressure bound on buffered rows.
	capacity int

	// done marks the upstream stage exhausted: once set, an empty pipe means
	// end-of-stream rather than "pump upstream".
	done bool

	// admitOf, if non-nil, maps an emitted row id to its original admission
	// cycle (a serving pipeline's arrival schedule). Row ids are preserved
	// through every stage, so the lookup works at any depth in the plan.
	admitOf func(rid int) uint64

	// tap retains the first tapCap pushed rows for the planner's sampling
	// pass; zero tapCap keeps nothing.
	tap    []ops.JoinRow
	tapCap int

	// idx names the pipe on the trace track: every push and pop records a
	// depth counter event into the core's trace (a nil-safe no-op).
	idx int
}

// newPipe creates a pipe whose charged window lives at base.
func newPipe(a *arena.Arena, base arena.Addr, capacity int) *pipe {
	if capacity < 1 {
		capacity = 1
	}
	if capacity > pipeMaxSlots/2 {
		capacity = pipeMaxSlots / 2
	}
	return &pipe{a: a, base: base, capacity: capacity, slots: pipeSlots(capacity)}
}

// depth returns the number of buffered rows.
func (p *pipe) depth() int { return len(p.rows) - p.head }

// full reports whether the pipe has reached its backpressure bound.
func (p *pipe) full() bool { return p.depth() >= p.capacity }

// Emit implements ops.Collector: the upstream operator materializes one
// result row into the pipe. The charge is identical to Output.Emit — the row
// is a real 16-byte record written to a real (simulated) buffer — so a stage
// boundary costs exactly one store here plus one load at the pop.
func (p *pipe) Emit(c *memsim.Core, rid int, key, buildPayload, probePayload uint64) {
	c.Instr(ops.CostMaterialize)
	slot := p.pushed & (p.slots - 1)
	addr := p.base + arena.Addr(slot*pipeSlotBytes)
	c.Store(addr, pipeSlotBytes)
	b := p.a.Bytes(addr, pipeSlotBytes)
	binary.LittleEndian.PutUint64(b, key)
	binary.LittleEndian.PutUint64(b[8:], buildPayload)
	p.pushed++

	r := Row{JoinRow: ops.JoinRow{RID: rid, Key: key, BuildPayload: buildPayload, ProbePayload: probePayload}}
	if p.admitOf != nil {
		r.Admit = p.admitOf(rid)
	}
	if len(p.tap) < p.tapCap {
		p.tap = append(p.tap, r.JoinRow)
	}
	p.rows = append(p.rows, r)
	c.Trace().PipeDepth(c.Cycle(), p.idx, p.depth())
}

// pop removes and returns the head row, charging its load.
func (p *pipe) pop(c *memsim.Core) Row {
	c.Instr(costPipePop)
	slot := p.popped & (p.slots - 1)
	c.Load(p.base+arena.Addr(slot*pipeSlotBytes), pipeSlotBytes)
	p.popped++

	r := p.rows[p.head]
	p.head++
	if p.head == len(p.rows) {
		p.rows = p.rows[:0]
		p.head = 0
	}
	c.Trace().PipeDepth(c.Cycle(), p.idx, p.depth())
	return r
}
