// Package exectest provides synthetic stage machines used to test the
// execution engines (Baseline, GP, SPP in package exec and AMAC in package
// core) independently of the real database operators.
package exectest

import (
	"amac/internal/exec"
	"amac/internal/memsim"
)

// NodeStride is the distance between consecutive synthetic chain nodes. It
// is several cache lines so that every visit is a distinct memory access and
// the chain does not look like a sequential stream to the hardware
// prefetcher model — real pointer chains are scattered, not contiguous.
const NodeStride = 17 * memsim.LineSize

// ChainState is the per-lookup state of a ChainMachine.
type ChainState struct {
	Index     int
	Remaining int
	Node      memsim.Addr
}

// ChainMachine simulates pointer-chasing lookups with per-lookup chain
// lengths: lookup i visits Lengths[i] nodes, each on its own cache line,
// before completing. It records every completion so tests can verify that
// an engine executed every lookup exactly once with exactly the right number
// of node visits.
type ChainMachine struct {
	// Lengths holds the chain length (number of node visits) per lookup;
	// every entry must be at least 1.
	Lengths []int
	// Base is the address of lookup 0's first node. Lookups are spread far
	// apart so they never share cache lines.
	Base memsim.Addr
	// Provision is the stage count reported to GP/SPP (the paper's N+1).
	Provision int

	// Completions records lookup indices in completion order.
	Completions []int
	// Visits[i] counts node visits performed for lookup i.
	Visits []int
}

// NewChainMachine builds a machine over the given chain lengths.
func NewChainMachine(lengths []int, provision int) *ChainMachine {
	return &ChainMachine{
		Lengths:   lengths,
		Base:      memsim.LineSize, // skip the nil line
		Provision: provision,
		Visits:    make([]int, len(lengths)),
	}
}

// NumLookups implements exec.Machine.
func (m *ChainMachine) NumLookups() int { return len(m.Lengths) }

// ProvisionedStages implements exec.Machine.
func (m *ChainMachine) ProvisionedStages() int { return m.Provision }

// nodeAddr spreads lookups 1 MB apart so their chains never alias.
func (m *ChainMachine) nodeAddr(lookup, hop int) memsim.Addr {
	return m.Base + memsim.Addr(lookup)<<20 + memsim.Addr(hop*NodeStride)
}

// Init implements exec.Machine: stage 0 computes the first node address.
func (m *ChainMachine) Init(c *memsim.Core, s *ChainState, i int) exec.Outcome {
	c.Instr(4) // hash / address computation stand-in
	s.Index = i
	s.Remaining = m.Lengths[i]
	s.Node = m.nodeAddr(i, 0)
	return exec.Outcome{NextStage: 1, Prefetch: s.Node}
}

// Stage implements exec.Machine: stage 1 visits the current node and either
// terminates or advances to the next node.
func (m *ChainMachine) Stage(c *memsim.Core, s *ChainState, stage int) exec.Outcome {
	if stage != 1 {
		panic("exectest: ChainMachine only has stage 1")
	}
	c.Load(s.Node, 16)
	c.Instr(2) // key comparison stand-in
	m.Visits[s.Index]++
	s.Remaining--
	if s.Remaining == 0 {
		m.Completions = append(m.Completions, s.Index)
		return exec.Outcome{Done: true}
	}
	hop := m.Lengths[s.Index] - s.Remaining
	s.Node = m.nodeAddr(s.Index, hop)
	return exec.Outcome{NextStage: 1, Prefetch: s.Node}
}

// LatchState is the per-lookup state of a LatchMachine.
type LatchState struct {
	Index int
	Node  memsim.Addr
}

// LatchMachine simulates an update operator where every lookup must acquire
// a single shared latch in stage 1, hold it across one more memory access,
// and release it in stage 2 — the intra-thread read/write dependency pattern
// that hurts GP and SPP in the paper's group-by experiments. The latch is a
// plain field because the whole simulation is single-threaded.
type LatchMachine struct {
	N         int
	Base      memsim.Addr
	Provision int

	latchOwner  int // -1 when free
	Completions []int
	// MaxHeld tracks how long the latch was ever held, for sanity checks.
	Retries int
}

// NewLatchMachine builds a machine with n lookups.
func NewLatchMachine(n, provision int) *LatchMachine {
	return &LatchMachine{N: n, Base: memsim.LineSize, Provision: provision, latchOwner: -1}
}

// NumLookups implements exec.Machine.
func (m *LatchMachine) NumLookups() int { return m.N }

// ProvisionedStages implements exec.Machine.
func (m *LatchMachine) ProvisionedStages() int { return m.Provision }

// Init implements exec.Machine.
func (m *LatchMachine) Init(c *memsim.Core, s *LatchState, i int) exec.Outcome {
	c.Instr(4)
	s.Index = i
	s.Node = m.Base + memsim.Addr(i)<<20
	return exec.Outcome{NextStage: 1, Prefetch: s.Node}
}

// Stage implements exec.Machine.
func (m *LatchMachine) Stage(c *memsim.Core, s *LatchState, stage int) exec.Outcome {
	switch stage {
	case 1:
		c.Load(s.Node, 16)
		c.Instr(2)
		if m.latchOwner != -1 && m.latchOwner != s.Index {
			m.Retries++
			return exec.Outcome{NextStage: 1, Retry: true}
		}
		m.latchOwner = s.Index
		next := s.Node + NodeStride
		s.Node = next
		return exec.Outcome{NextStage: 2, Prefetch: next}
	case 2:
		c.Load(s.Node, 16)
		c.Instr(3)
		m.latchOwner = -1
		m.Completions = append(m.Completions, s.Index)
		return exec.Outcome{Done: true}
	default:
		panic("exectest: LatchMachine has stages 1 and 2 only")
	}
}

// RemapMachine presents a base machine under a position→lookup-index map:
// lookup i of the wrapper is lookup Idx[i] of the base. It charges nothing
// simulated itself, so a run over the wrapper is bit-identical to a run
// that applies the same map at the source layer (serve.RunFaulty's Sched) —
// the equivalence the fault tier's zero-fault differential tests pin.
type RemapMachine[S any] struct {
	M   exec.Machine[S]
	Idx []int32
}

// NumLookups implements exec.Machine.
func (r RemapMachine[S]) NumLookups() int { return len(r.Idx) }

// ProvisionedStages implements exec.Machine.
func (r RemapMachine[S]) ProvisionedStages() int { return r.M.ProvisionedStages() }

// Init implements exec.Machine.
func (r RemapMachine[S]) Init(c *memsim.Core, s *S, i int) exec.Outcome {
	return r.M.Init(c, s, int(r.Idx[i]))
}

// Stage implements exec.Machine.
func (r RemapMachine[S]) Stage(c *memsim.Core, s *S, stage int) exec.Outcome {
	return r.M.Stage(c, s, stage)
}
