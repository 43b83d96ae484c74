package core_test

import (
	"testing"

	"amac/internal/core"
	"amac/internal/exec"
	"amac/internal/exec/exectest"
	"amac/internal/memsim"
	"amac/internal/ops"
	"amac/internal/relation"
)

func TestRunStreamCompletesEveryRequest(t *testing.T) {
	for _, width := range []int{1, 2, 10, 32} {
		lengths := skewedLengths(300, 7)
		m := exectest.NewChainMachine(lengths, 5)
		src := exec.NewMachineSource[exectest.ChainState](m)
		var completions int
		src.OnComplete = func(req exec.Request, done uint64) { completions++ }
		stats := core.RunStream(newCore(), src, core.Options{Width: width})
		checkAllCompleted(t, m)
		if stats.Initiated != 300 || stats.Completed != 300 {
			t.Fatalf("width %d: stats %+v", width, stats)
		}
		if completions != 300 {
			t.Fatalf("width %d: source saw %d completions", width, completions)
		}
	}
}

func TestRunStreamEmptySource(t *testing.T) {
	m := exectest.NewChainMachine(nil, 3)
	stats := core.RunStream(newCore(), exec.NewMachineSource[exectest.ChainState](m), core.Options{Width: 8})
	if stats.Completed != 0 || stats.Initiated != 0 {
		t.Fatalf("stats %+v", stats)
	}
}

func TestRunStreamResolvesLatchConflicts(t *testing.T) {
	m := exectest.NewLatchMachine(200, 3)
	stats := core.RunStream(newCore(), exec.NewMachineSource[exectest.LatchState](m), core.Options{Width: 8})
	if len(m.Completions) != 200 {
		t.Fatalf("completed %d of 200", len(m.Completions))
	}
	if stats.Retries == 0 {
		t.Fatal("in-flight lookups should have conflicted on the latch at least once")
	}
}

// TestRunStreamMatchesReferenceJoin is the acceptance criterion of the
// engine: a hash-join probe replayed through RunStream (a MachineSource
// admits every lookup at cycle 0, in index order), through the batch entry
// point Run, and through the Baseline must all produce exactly the
// reference join output.
func TestRunStreamMatchesReferenceJoin(t *testing.T) {
	build, probe, err := relation.BuildJoin(relation.JoinSpec{BuildSize: 1 << 12, ProbeSize: 1 << 12, ZipfBuild: 0.75, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	for name, run := range map[string]func(c *memsim.Core, m *ops.ProbeMachine){
		"RunStream": func(c *memsim.Core, m *ops.ProbeMachine) {
			core.RunStream(c, exec.NewMachineSource[ops.ProbeState](m), core.Options{Width: 10})
		},
		"Run": func(c *memsim.Core, m *ops.ProbeMachine) { core.Run(c, m, core.Options{Width: 10}) },
		"Baseline": func(c *memsim.Core, m *ops.ProbeMachine) {
			ops.RunMachine(c, m, ops.Baseline, ops.Params{})
		},
	} {
		j := ops.NewHashJoin(build, probe)
		j.PrebuildRaw()
		wantCount, wantSum := j.ReferenceJoin()
		out := ops.NewOutput(j.Arena, false)
		run(newCore(), j.ProbeMachine(out, false))
		if out.Count != wantCount || out.Checksum != wantSum {
			t.Fatalf("%s output (count=%d sum=%x) differs from the reference join (count=%d sum=%x)",
				name, out.Count, out.Checksum, wantCount, wantSum)
		}
	}
}

func TestRunStreamImmediateRefillAblation(t *testing.T) {
	lengths := skewedLengths(500, 5)

	run := func(disable bool) uint64 {
		c := newCore()
		m := exectest.NewChainMachine(lengths, 3)
		core.RunStream(c, exec.NewMachineSource[exectest.ChainState](m), core.Options{Width: 10, DisableImmediateRefill: disable})
		checkAllCompleted(t, m)
		return c.Cycle()
	}
	if on, off := run(false), run(true); on > off {
		t.Fatalf("immediate refill (%d cycles) should not be slower than deferred refill (%d cycles)", on, off)
	}
}

func TestRunStreamDeterministic(t *testing.T) {
	run := func() uint64 {
		c := newCore()
		m := exectest.NewChainMachine(skewedLengths(300, 9), 4)
		core.RunStream(c, exec.NewMachineSource[exectest.ChainState](m), core.Options{Width: 10})
		return c.Cycle()
	}
	if run() != run() {
		t.Fatal("stream execution must be deterministic")
	}
}

// sparseSource releases one request every gap cycles, for the idle path.
type sparseSource struct {
	*exec.MachineSource[exectest.ChainState]
	gap      uint64
	released int
	n        int
}

func (s *sparseSource) Pull(c *memsim.Core, st *exectest.ChainState, now uint64) exec.PullResult {
	if s.released >= s.n {
		return exec.PullResult{Status: exec.Exhausted}
	}
	due := uint64(s.released) * s.gap
	if due > now {
		return exec.PullResult{Status: exec.Wait, NextArrival: due}
	}
	pr := s.MachineSource.Pull(c, st, now)
	if pr.Status == exec.Pulled {
		pr.Req.Admit = due
		s.released++
	}
	return pr
}

func TestRunStreamIdlesBetweenSparseArrivals(t *testing.T) {
	const n, gap = 25, 200000
	m := exectest.NewChainMachine(uniformLengths(n, 3), 4)
	src := &sparseSource{MachineSource: exec.NewMachineSource[exectest.ChainState](m), gap: gap, n: n}
	c := newCore()
	stats := core.RunStream(c, src, core.Options{Width: 10})
	checkAllCompleted(t, m)
	if stats.Completed != n {
		t.Fatalf("completed %d of %d", stats.Completed, n)
	}
	if c.Cycle() < (n-1)*gap {
		t.Fatalf("clock %d never reached the last arrival %d", c.Cycle(), (n-1)*gap)
	}
	if c.Stats().IdleCycles == 0 {
		t.Fatal("sparse arrivals must be bridged by idle cycles")
	}
}
