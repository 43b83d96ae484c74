package ops_test

import (
	"slices"
	"testing"

	"amac/internal/core"
	"amac/internal/exec"
	"amac/internal/exec/exectest"
	"amac/internal/memsim"
	"amac/internal/obs"
	"amac/internal/ops"
	"amac/internal/prof"
	"amac/internal/xrand"
)

// scriptWidths replays a width script, one entry per probe sample, and
// holds zero (keep) once the script runs out.
type scriptWidths struct {
	widths []int
	next   int
}

func (s *scriptWidths) Sample(exec.Window) int {
	if s.next >= len(s.widths) {
		return 0
	}
	s.next++
	return s.widths[s.next-1]
}

// pinLengths is a deterministic mix of chain lengths 1..5, so a provision of
// 4 stages sends some lookups down GP's clean-up pass and SPP's bail-out
// path.
func pinLengths(n int) []int {
	ls := make([]int, n)
	for i := range ls {
		ls[i] = 1 + (i*7)%5
	}
	return ls
}

// pinCase is one batch run per technique whose simulated cycle counts are
// pinned.
type pinCase struct {
	name   string
	latch  bool // LatchMachine instead of ChainMachine
	n      int
	window int
	script []int // AMAC width script (nil = static)
	// cycles and instrs are memsim.Stats.Cycles and .Instructions per
	// technique, in ops.Techniques order.
	cycles [4]uint64
	instrs [4]uint64
}

// runPinned executes one case under one technique on a fresh core.
func runPinned(pc pinCase, tech ops.Technique) memsim.Stats {
	c := memsim.MustSystem(memsim.XeonX5670()).NewCore()
	p := ops.Params{Window: pc.window}
	if pc.script != nil {
		p.Controller = &scriptWidths{widths: pc.script}
		p.MaxWidth = 24
		p.ProbeInterval = 10
	}
	if pc.latch {
		ops.RunMachine(c, exectest.NewLatchMachine(pc.n, 3), tech, p)
	} else {
		ops.RunMachine(c, exectest.NewChainMachine(pinLengths(pc.n), 4), tech, p)
	}
	return c.Stats()
}

// TestBatchCyclesPinned pins the simulated cycle count of every technique's
// batch run at the edges the golden suites do not reach: empty and
// one-lookup batches, batches smaller than the window, a ragged last GP
// group, windows 1 to 32, latch contention, and AMAC under a scripted
// resize and a StopRun. The values were recorded from the dedicated batch
// loops before the engines were merged into one stream loop per technique,
// so they prove a batch run over a MachineSource charges exactly what the
// batch loops did.
func TestBatchCyclesPinned(t *testing.T) {
	cases := []pinCase{
		{name: "empty", n: 0, window: 10},
		{name: "one lookup", n: 1, window: 10,
			cycles: [4]uint64{251, 254, 249, 248}, instrs: [4]uint64{11, 36, 28, 20}},
		{name: "fewer than window", n: 5, window: 10,
			cycles: [4]uint64{3388, 1198, 1195, 1144}, instrs: [4]uint64{105, 275, 248, 200}},
		{name: "ragged group", n: 23, window: 10,
			cycles: [4]uint64{15534, 4172, 3961, 2297}, instrs: [4]uint64{483, 1263, 1119, 920}},
		{name: "width 1", n: 40, window: 1,
			cycles: [4]uint64{26990, 26626, 24958, 26466}, instrs: [4]uint64{840, 2200, 2224, 1600}},
		{name: "width 3", n: 40, window: 3,
			cycles: [4]uint64{26990, 14384, 12859, 9219}, instrs: [4]uint64{840, 2200, 2016, 1600}},
		{name: "width 10", n: 64, window: 10,
			cycles: [4]uint64{42964, 10199, 9990, 5058}, instrs: [4]uint64{1339, 3509, 3094, 2550}},
		{name: "width 32", n: 100, window: 32,
			cycles: [4]uint64{67475, 13614, 13240, 8164}, instrs: [4]uint64{2100, 5500, 4794, 4000}},
		{name: "latch width 3", latch: true, n: 17, window: 3,
			cycles: [4]uint64{7768, 5128, 4278, 4230}, instrs: [4]uint64{289, 850, 784, 806}},
		{name: "latch width 10", latch: true, n: 64, window: 10,
			cycles: [4]uint64{29189, 16467, 45587, 16215}, instrs: [4]uint64{1088, 4648, 12896, 6763}},
		{name: "latch width 32", latch: true, n: 50, window: 32,
			cycles: [4]uint64{22804, 24264, 35708, 25321}, instrs: [4]uint64{850, 6651, 10103, 11036}},
		{name: "scripted resize", n: 300, window: 8, script: []int{16, 4, 12, 2, 20},
			cycles: [4]uint64{202425, 51680, 45261, 23346}, instrs: [4]uint64{6300, 16500, 14586, 12232}},
		{name: "stop run", n: 300, window: 8, script: []int{0, 12, exec.StopRun},
			cycles: [4]uint64{202425, 51680, 45261, 3813}, instrs: [4]uint64{6300, 16500, 14586, 1684}},
	}
	for _, pc := range cases {
		for i, tech := range ops.Techniques {
			got := runPinned(pc, tech)
			if got.Cycles != pc.cycles[i] || got.Instructions != pc.instrs[i] {
				t.Errorf("%s %v: %d cycles, %d instructions; want %d, %d",
					pc.name, tech, got.Cycles, got.Instructions, pc.cycles[i], pc.instrs[i])
			}
		}
	}
}

// fuzzLengths draws n chain lengths from seed: mostly 1..4 nodes, one in
// eight up to 20, so provisions of 1..6 stages exercise GP's clean-up pass
// and SPP's bail-out path.
func fuzzLengths(seed uint64, n int) []int {
	rng := xrand.New(seed)
	ls := make([]int, n)
	for i := range ls {
		if rng.Intn(8) == 0 {
			ls[i] = 1 + rng.Intn(20)
		} else {
			ls[i] = 1 + rng.Intn(4)
		}
	}
	return ls
}

// fuzzScript decodes a width script from the bytes of v, low byte first:
// 0xff is StopRun, any other byte a target width of b%33 (0 keeps).
func fuzzScript(v uint64) []int {
	var widths []int
	for ; v != 0; v >>= 8 {
		if b := int(v & 0xff); b == 0xff {
			widths = append(widths, exec.StopRun)
		} else {
			widths = append(widths, b%33)
		}
	}
	return widths
}

// fuzzCase is one decoded FuzzEngines input.
type fuzzCase struct {
	tech      ops.Technique
	window    int
	provision int
	script    uint64
}

// engineRun is one engine run's observable outcome: everything an attached
// trace or profiler must leave untouched.
type engineRun struct {
	stats     memsim.Stats
	sched     core.RunStats
	completed int
	done      []int
	visits    []int
}

// runEngine runs a fresh machine from build under the case's technique over
// a MachineSource on a fresh core. With observed set, a trace and a profiler
// are attached to the core first; the profiler must then account exactly
// the core's cycles and, when there was work, the trace must hold events. A
// run a scripted StopRun cut short resumes from the source, which keeps the
// unserved lookups.
func runEngine[S any](t *testing.T, tc fuzzCase, build func() (m exec.Machine[S], done *[]int, visits []int), observed bool) engineRun {
	t.Helper()
	m, done, visits := build()
	n := m.NumLookups()
	p := ops.Params{Window: tc.window}
	if tc.tech == ops.AMAC && tc.script != 0 {
		p.Controller = &scriptWidths{widths: fuzzScript(tc.script)}
		p.MaxWidth, p.ProbeInterval = 32, 4
	}
	src := exec.NewMachineSource(m)
	var r engineRun
	src.OnComplete = func(exec.Request, uint64) { r.completed++ }
	c := newCore()
	tr, cp := obs.NewTrace(0).Core("fuzz"), prof.NewCoreProf("fuzz")
	if observed {
		c.SetTrace(tr)
		c.SetProfiler(cp)
	}
	r.sched = ops.RunSource(c, src, tc.tech, p)
	if tc.tech == ops.AMAC {
		st := r.sched
		if st.Initiated != st.Completed+st.TimedOut+st.Aborted {
			t.Fatalf("%+v: slot accounting leaks: %+v", tc, st)
		}
		if st.Completed != r.completed {
			t.Fatalf("%+v: engine counted %d completions, source saw %d", tc, st.Completed, r.completed)
		}
		if st.Initiated < n {
			ops.RunSource(c, src, tc.tech, ops.Params{Window: tc.window})
		}
	}
	r.stats, r.done, r.visits = c.Stats(), *done, visits
	if observed {
		if got := cp.TotalCycles(); got != r.stats.Cycles {
			t.Fatalf("%+v: profiler attributed %d cycles, core counted %d", tc, got, r.stats.Cycles)
		}
		if n > 0 && tr.Len() == 0 {
			t.Fatalf("%+v: traced run recorded no events", tc)
		}
	}
	return r
}

// checkEngine runs the case's engine and checks the engine invariants
// against a Baseline run of another fresh machine: every lookup completes
// exactly once, the completions match the Baseline's as a multiset (and so
// do the per-lookup node visits, when build reports them), and AMAC's
// scheduler accounting closes (Initiated == Completed + TimedOut + Aborted).
// It then reruns the case with a trace and a profiler attached to the core:
// the observed run must be identical to the plain one — core stats,
// scheduler stats, completion order and node visits.
func checkEngine[S any](t *testing.T, tc fuzzCase, build func() (m exec.Machine[S], done *[]int, visits []int)) {
	t.Helper()
	ref, refDone, refVisits := build()
	ops.RunMachine(newCore(), ref, ops.Baseline, ops.Params{})

	r := runEngine(t, tc, build, false)
	if n := len(*refDone); r.completed != n {
		t.Fatalf("%+v: %d of %d lookups completed", tc, r.completed, n)
	}
	got, want := slices.Sorted(slices.Values(r.done)), slices.Sorted(slices.Values(*refDone))
	if !slices.Equal(got, want) {
		t.Fatalf("%+v: completions %v, Baseline's %v", tc, got, want)
	}
	for i := 1; i < len(got); i++ {
		if got[i] == got[i-1] {
			t.Fatalf("%+v: lookup %d completed twice", tc, got[i])
		}
	}
	if !slices.Equal(r.visits, refVisits) {
		t.Fatalf("%+v: node visits %v, Baseline's %v", tc, r.visits, refVisits)
	}

	o := runEngine(t, tc, build, true)
	if o.stats != r.stats || o.sched != r.sched || o.completed != r.completed ||
		!slices.Equal(o.done, r.done) || !slices.Equal(o.visits, r.visits) {
		t.Fatalf("%+v: traced and profiled run differs:\nplain:    %+v\nobserved: %+v", tc, r, o)
	}
}

// FuzzEngines drives every technique's engine over random chain and latch
// machines with windows (GP group sizes, SPP depths, AMAC widths) of 1 to 32
// and, for AMAC, an optional scripted width controller that resizes the
// window or stops the run. Every input runs twice, plain and with a trace
// and a profiler attached to the core. See checkEngine for the invariants. The CI runs
// it with -fuzz for a bounded time; plain go test replays the seed corpus
// in testdata/fuzz/FuzzEngines.
func FuzzEngines(f *testing.F) {
	f.Add(uint64(1), uint8(40), uint8(3), uint8(9), uint8(3), false, uint64(0))
	f.Add(uint64(2), uint8(23), uint8(1), uint8(9), uint8(3), false, uint64(0))
	f.Add(uint64(3), uint8(17), uint8(2), uint8(2), uint8(2), true, uint64(0))
	f.Add(uint64(4), uint8(200), uint8(3), uint8(7), uint8(4), false, uint64(0xff_02_0c_10))
	f.Fuzz(func(t *testing.T, seed uint64, n, tech, window, provision uint8, latch bool, script uint64) {
		tc := fuzzCase{
			tech:      ops.Techniques[int(tech)%len(ops.Techniques)],
			window:    1 + int(window)%32,
			provision: 1 + int(provision)%6,
			script:    script,
		}
		if latch {
			checkEngine(t, tc, func() (exec.Machine[exectest.LatchState], *[]int, []int) {
				m := exectest.NewLatchMachine(int(n), tc.provision)
				return m, &m.Completions, nil
			})
			return
		}
		lengths := fuzzLengths(seed, int(n))
		checkEngine(t, tc, func() (exec.Machine[exectest.ChainState], *[]int, []int) {
			m := exectest.NewChainMachine(lengths, tc.provision)
			return m, &m.Completions, m.Visits
		})
	})
}
