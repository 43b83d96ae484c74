package exec

import "amac/internal/memsim"

// This file defines the probe interface through which an adaptive controller
// observes and steers an AMAC engine run (package core consults it, package
// adapt implements it), plus Concat, the phase-composite machine the
// adaptive experiments use to build workloads whose character shifts
// mid-run.
//
// The hook exists because of the paper's Section 6 argument: AMAC's per-slot
// independence is what makes the number of in-flight memory accesses a
// runtime knob rather than a compile-time constant — GP and SPP bake their
// group size and pipeline depth into their control flow, so only AMAC can
// act on a mid-run width decision without restarting the batch.

// Window is one probe window of an engine run: the deltas of the core's PMU
// counters since the previous probe, plus the scheduler's view (active
// width, completions) and the instantaneous MSHR occupancy. A controller
// reads phase character off it — StallCycles/Cycles says memory- versus
// compute-bound, MSHRFullWaitCycles says the MLP limit is hit, IdleCycles
// separates "waiting on DRAM" from "waiting on traffic" in serving runs.
type Window struct {
	// Width is the slot-window size in effect during the window.
	Width int
	// Completed is the number of lookups that finished in the window.
	Completed int
	// Outstanding is the MSHR occupancy at the sample point.
	Outstanding int
	// AtCycle is the simulated cycle at the sample point (the window's end):
	// the timebase controllers stamp decision-log entries and trace events
	// with.
	AtCycle uint64

	// Counter deltas over the window (see memsim.Stats for field meanings).
	Cycles             uint64
	Instructions       uint64
	StallCycles        uint64
	IdleCycles         uint64
	Loads              uint64
	MSHRHits           uint64
	MSHRHitWaitCycles  uint64
	MSHRFullStalls     uint64
	MSHRFullWaitCycles uint64
	MemAccesses        uint64
	PrefetchIssued     uint64
	PrefetchDropped    uint64
}

// BusyCycles returns the window's non-idle cycles: the time the engine spent
// executing or stalled on memory rather than waiting for requests to arrive.
func (w Window) BusyCycles() uint64 {
	if w.IdleCycles >= w.Cycles {
		return 0
	}
	return w.Cycles - w.IdleCycles
}

// StallFraction is the share of busy time spent stalled on memory.
func (w Window) StallFraction() float64 {
	busy := w.BusyCycles()
	if busy == 0 {
		return 0
	}
	return float64(w.StallCycles) / float64(busy)
}

// MSHRFullFraction is the share of busy time spent waiting for a free MSHR —
// the signal that the slot window has outrun the hardware's MLP limit.
func (w Window) MSHRFullFraction() float64 {
	busy := w.BusyCycles()
	if busy == 0 {
		return 0
	}
	return float64(w.MSHRFullWaitCycles) / float64(busy)
}

// CyclesPerCompletion is the window's busy cycles per finished lookup, the
// throughput metric a hill-climbing controller optimises. Zero when nothing
// completed.
func (w Window) CyclesPerCompletion() float64 {
	if w.Completed == 0 {
		return 0
	}
	return float64(w.BusyCycles()) / float64(w.Completed)
}

// StopRun is the sentinel a WidthController returns to end the run early:
// the engine stops admitting lookups, drains everything in flight, and
// returns. RunStats.Initiated tells the caller how far the input got, so an
// adaptive executor can stop a run the moment its cost drifts out of band,
// re-calibrate, and resume from the first unserved lookup — without paying
// a pipeline drain at any other point.
const StopRun = -1

// WidthController is consulted by the AMAC engine (core.RunStream, which
// core.Run wraps for batches) once per probe window when attached via
// core.Options. It returns the desired slot-window width; zero or the current width means
// keep, and any negative value (StopRun) ends the run early. The engine
// applies changes safely mid-run: growth activates zeroed slots
// immediately, shrinkage (and StopRun) stops refilling the surplus slots
// and retires each as its in-flight lookup completes, so no lookup is ever
// abandoned or restarted.
//
// A WidthController is engine-local state and need not be safe for
// concurrent use; the sharded layers give every worker its own controller.
type WidthController interface {
	Sample(w Window) int
}

// ConcatState is Concat's per-lookup state: the wrapped machine state plus
// the phase that initiated the lookup, so in-flight lookups from both sides
// of a phase boundary route their stages to the right machine instance
// (each phase owns its own table, arena and output).
type ConcatState[S any] struct {
	phase int
	inner S
}

// Concat views a sequence of machines over one state type as a single
// machine: global lookup i belongs to the phase whose index range covers i,
// phases in order. It is the workload-side counterpart of the adaptive
// executor — a join probe that switches from a cache-resident table to a
// memory-resident one mid-batch is Concat of the two probe machines — and is
// deliberately unannounced: engines see one machine whose behaviour shifts,
// exactly like a serving system crossing a working-set boundary.
//
// ProvisionedStages is the maximum over the phases, so GP and SPP provision
// for the deepest phase (their static compromise is part of what the
// adaptive experiments measure).
type Concat[S any] struct {
	Machines []Machine[S]
	// starts[p] is the global index of phase p's first lookup; total is the
	// combined lookup count.
	starts []int
	total  int
}

// NewConcat builds the composite machine over the given phases.
func NewConcat[S any](machines ...Machine[S]) *Concat[S] {
	c := &Concat[S]{Machines: machines}
	c.starts = make([]int, len(machines))
	for p, m := range machines {
		c.starts[p] = c.total
		c.total += m.NumLookups()
	}
	return c
}

// NumLookups implements Machine.
func (c *Concat[S]) NumLookups() int { return c.total }

// ProvisionedStages implements Machine.
func (c *Concat[S]) ProvisionedStages() int {
	depth := 1
	for _, m := range c.Machines {
		if d := m.ProvisionedStages(); d > depth {
			depth = d
		}
	}
	return depth
}

// phaseOf locates the phase covering global lookup i.
func (c *Concat[S]) phaseOf(i int) (phase, local int) {
	// Phases are few (2-4 in practice); a linear scan beats a binary search.
	for p := len(c.starts) - 1; p >= 0; p-- {
		if i >= c.starts[p] {
			return p, i - c.starts[p]
		}
	}
	panic("exec: Concat lookup index out of range")
}

// Init implements Machine. The engines interleave lookups from both sides of
// a phase boundary while the slot window spans it, which is exactly the
// divergent control flow the paper's Section 3 argues per-slot state
// tolerates.
func (c *Concat[S]) Init(core *memsim.Core, s *ConcatState[S], i int) Outcome {
	p, local := c.phaseOf(i)
	s.phase = p
	return c.Machines[p].Init(core, &s.inner, local)
}

// Stage implements Machine: the stage runs on the phase that initiated this
// lookup, whatever phase the engine's input cursor has moved on to.
func (c *Concat[S]) Stage(core *memsim.Core, s *ConcatState[S], stage int) Outcome {
	return c.Machines[s.phase].Stage(core, &s.inner, stage)
}
