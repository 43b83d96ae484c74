// Command custom_machine shows how to use the AMAC scheduler for your own
// pointer-intensive data structure: you describe one lookup as numbered code
// stages over a small state struct (the paper's Table 1 formulation), and
// the library interleaves as many lookups as the simulated hardware can keep
// in flight.
//
// The data structure here is a directory of linked lists ("adjacency lists"
// of a graph, posting lists of an inverted index — any structure where each
// query walks an unpredictable number of nodes). The example compares the
// no-prefetch baseline with AMAC on the same machine definition.
package main

import (
	"fmt"

	"amac"
)

// listNode is the arena layout of one linked-list node:
//
//	offset  0: value (8 bytes)
//	offset  8: next  (8 bytes, 0 = end)
const (
	nodeValueOff = 0
	nodeNextOff  = 8
	nodeBytes    = 64 // one cache line per node, as in the paper's layouts
)

// listDirectory is a set of linked lists living in a simulated arena.
type listDirectory struct {
	arena *amac.Arena
	heads []amac.Addr
}

// buildDirectory creates nLists lists whose lengths cycle 1..maxLen, filled
// with deterministic values.
func buildDirectory(nLists, maxLen int) *listDirectory {
	a := amac.NewArena()
	d := &listDirectory{arena: a, heads: make([]amac.Addr, nLists)}
	for i := range d.heads {
		length := 1 + i%maxLen
		var head amac.Addr
		for j := length - 1; j >= 0; j-- {
			node := a.Alloc(nodeBytes, amac.LineSize)
			a.WriteU64(node+nodeValueOff, uint64(i*1000+j))
			a.WriteAddr(node+nodeNextOff, head)
			head = node
		}
		d.heads[i] = head
	}
	return d
}

// sumState is the per-lookup state: which list, the running sum, and the
// node the next stage will visit.
type sumState struct {
	list int
	node amac.Addr
	sum  uint64
}

// sumMachine sums every list in the directory; each node visit is one
// dependent memory access.
type sumMachine struct {
	dir  *listDirectory
	sums []uint64
}

func (m *sumMachine) NumLookups() int        { return len(m.dir.heads) }
func (m *sumMachine) ProvisionedStages() int { return 4 }

func (m *sumMachine) Init(c *amac.Core, s *sumState, i int) amac.Outcome {
	c.Instr(2)
	s.list = i
	s.sum = 0
	s.node = m.dir.heads[i]
	if s.node == 0 {
		m.sums[i] = 0
		return amac.Outcome{Done: true}
	}
	return amac.Outcome{NextStage: 1, Prefetch: s.node, PrefetchBytes: nodeBytes}
}

func (m *sumMachine) Stage(c *amac.Core, s *sumState, stage int) amac.Outcome {
	c.Load(s.node, 16)
	c.Instr(2)
	s.sum += m.dir.arena.ReadU64(s.node + nodeValueOff)
	next := m.dir.arena.ReadAddr(s.node + nodeNextOff)
	if next == 0 {
		m.sums[s.list] = s.sum
		return amac.Outcome{Done: true}
	}
	s.node = next
	return amac.Outcome{NextStage: 1, Prefetch: next, PrefetchBytes: nodeBytes}
}

func main() {
	const nLists = 1 << 16
	dir := buildDirectory(nLists, 8)

	run := func(label string, f func(c *amac.Core, m *sumMachine)) []uint64 {
		sys := amac.MustSystem(amac.XeonX5670())
		core := sys.NewCore()
		m := &sumMachine{dir: dir, sums: make([]uint64, nLists)}
		f(core, m)
		fmt.Printf("%-28s %8.1f cycles/list   (%d lists, %.2f IPC)\n",
			label, float64(core.Cycle())/nLists, nLists, core.Stats().IPC())
		return m.sums
	}

	base := run("baseline (no prefetch)", func(c *amac.Core, m *sumMachine) { amac.RunWith(c, m, amac.Baseline, amac.Params{}) })
	chained := run("AMAC (10 in flight)", func(c *amac.Core, m *sumMachine) {
		amac.Run(c, m, amac.Options{Width: 10})
	})

	for i := range base {
		if base[i] != chained[i] {
			fmt.Printf("mismatch on list %d: %d vs %d\n", i, base[i], chained[i])
			return
		}
	}
	fmt.Println("both executions produced identical sums; only the memory access schedule differs.")
}
