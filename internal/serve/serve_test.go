package serve_test

import (
	"bytes"
	"math"
	"regexp"
	"slices"
	"testing"

	"amac/internal/adapt"
	"amac/internal/core"
	"amac/internal/exec/exectest"
	"amac/internal/memsim"
	"amac/internal/obs"
	"amac/internal/ops"
	"amac/internal/relation"
	"amac/internal/serve"
)

func newCore() *memsim.Core {
	sys := memsim.MustSystem(memsim.XeonX5670())
	return sys.NewCore()
}

func TestArrivalSchedules(t *testing.T) {
	cases := []struct {
		proc serve.ArrivalProcess
		name string
	}{
		{serve.Deterministic{Period: 50}, "deterministic"},
		{serve.Poisson{MeanPeriod: 50}, "poisson"},
		{serve.Bursty{Period: 10, BurstLen: 4, Off: 500}, "bursty"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if tc.proc.Name() != tc.name {
				t.Fatalf("Name() = %q", tc.proc.Name())
			}
			sched := tc.proc.Schedule(1000, 42)
			if len(sched) != 1000 {
				t.Fatalf("len = %d", len(sched))
			}
			for i := 1; i < len(sched); i++ {
				if sched[i] < sched[i-1] {
					t.Fatalf("schedule not monotone at %d: %d < %d", i, sched[i], sched[i-1])
				}
			}
			again := tc.proc.Schedule(1000, 42)
			for i := range sched {
				if sched[i] != again[i] {
					t.Fatal("schedules must be deterministic for a fixed seed")
				}
			}
		})
	}
}

// TestArrivalSchedulesSaturate: processes built directly, with periods too
// large or not finite, saturate their clock at 2^64-1 instead of wrapping,
// and a NaN mean runs at the 1-cycle minimum.
func TestArrivalSchedulesSaturate(t *testing.T) {
	const max = math.MaxUint64
	cases := []struct {
		name string
		proc serve.ArrivalProcess
		n    int
		want []uint64 // nil: only check monotonicity
	}{
		{name: "deterministic 2^63", proc: serve.Deterministic{Period: 1 << 63}, n: 3, want: []uint64{0, 1 << 63, max}},
		{name: "deterministic 2^62", proc: serve.Deterministic{Period: 1 << 62}, n: 5, want: []uint64{0, 1 << 62, 1 << 63, 3 << 62, max}},
		{name: "bursty wraps on off gap", proc: serve.Bursty{Period: 1 << 63, BurstLen: 2, Off: 1 << 63}, n: 4, want: []uint64{0, 1 << 63, max, max}},
		{name: "bursty max period", proc: serve.Bursty{Period: max, BurstLen: 1}, n: 3, want: []uint64{0, max, max}},
		{name: "poisson NaN", proc: serve.Poisson{MeanPeriod: math.NaN()}, n: 64, want: serve.Poisson{MeanPeriod: 1}.Schedule(64, 9)},
		{name: "poisson +Inf", proc: serve.Poisson{MeanPeriod: math.Inf(1)}, n: 4, want: []uint64{max, max, max, max}},
		{name: "poisson 1e300", proc: serve.Poisson{MeanPeriod: 1e300}, n: 4, want: []uint64{max, max, max, max}},
		{name: "poisson 2^62", proc: serve.Poisson{MeanPeriod: 1 << 62}, n: 64},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			sched := tc.proc.Schedule(tc.n, 9)
			for i := 1; i < len(sched); i++ {
				if sched[i] < sched[i-1] {
					t.Fatalf("schedule not monotone at %d: %v", i, sched)
				}
			}
			if tc.want != nil && !slices.Equal(sched, tc.want) {
				t.Fatalf("schedule = %v, want %v", sched, tc.want)
			}
		})
	}
}

func TestPoissonScheduleMeanGap(t *testing.T) {
	const mean = 200.0
	sched := serve.Poisson{MeanPeriod: mean}.Schedule(100000, 7)
	got := float64(sched[len(sched)-1]) / float64(len(sched)-1)
	if got < mean*0.95 || got > mean*1.05 {
		t.Fatalf("empirical mean gap %.1f, want ~%.0f", got, mean)
	}
}

func TestBurstyScheduleLongRunRate(t *testing.T) {
	// ParseArrivals promises the bursty process keeps the requested long-run
	// period.
	proc, err := serve.ParseArrivals("bursty", 100)
	if err != nil {
		t.Fatal(err)
	}
	sched := proc.Schedule(3200, 1)
	got := float64(sched[len(sched)-1]) / float64(len(sched)-1)
	if got < 90 || got > 110 {
		t.Fatalf("bursty long-run gap %.1f, want ~100", got)
	}
}

func TestParseArrivals(t *testing.T) {
	for _, name := range []string{"", "poisson", "deterministic", "bursty"} {
		if _, err := serve.ParseArrivals(name, 10); err != nil {
			t.Fatalf("ParseArrivals(%q): %v", name, err)
		}
	}
	if _, err := serve.ParseArrivals("uniformly-random", 10); err == nil {
		t.Fatal("unknown process must fail to parse")
	}
}

func chainLengths(n, l int) []int {
	ls := make([]int, n)
	for i := range ls {
		ls[i] = l
	}
	return ls
}

func TestQueueSourceBlockPolicyServesEverything(t *testing.T) {
	const n = 100
	m := exectest.NewChainMachine(chainLengths(n, 2), 3)
	// Everything arrives at cycle 0 into a tiny bounded queue: Block must
	// still serve all requests, just later.
	src := serve.NewQueueSource[exectest.ChainState](m, make([]uint64, n), 4, serve.Block, nil)
	core.RunStream(newCore(), src, core.Options{Width: 8})
	rec := src.Recorder()
	if rec.Completed != n || rec.Dropped != 0 {
		t.Fatalf("completed=%d dropped=%d, want %d/0", rec.Completed, rec.Dropped, n)
	}
	if rec.DepthMax > 4 {
		t.Fatalf("queue depth %d exceeded the capacity 4", rec.DepthMax)
	}
	if len(m.Completions) != n {
		t.Fatalf("machine completed %d of %d", len(m.Completions), n)
	}
}

func TestQueueSourceDropPolicyRejectsOverflow(t *testing.T) {
	const n = 100
	m := exectest.NewChainMachine(chainLengths(n, 2), 3)
	// Everything arrives at cycle 0 into a queue of 4 under Drop: the first
	// pull admits 4 and rejects the rest (the engine had no chance to drain
	// in between).
	src := serve.NewQueueSource[exectest.ChainState](m, make([]uint64, n), 4, serve.Drop, nil)
	core.RunStream(newCore(), src, core.Options{Width: 8})
	rec := src.Recorder()
	if rec.Completed != 4 || rec.Dropped != n-4 {
		t.Fatalf("completed=%d dropped=%d, want 4/%d", rec.Completed, rec.Dropped, n-4)
	}
	if rec.Offered != n {
		t.Fatalf("offered=%d, want %d", rec.Offered, n)
	}
	if rec.DropFraction() <= 0.9 {
		t.Fatalf("drop fraction %f", rec.DropFraction())
	}
}

func TestQueueSourceLatencyIncludesQueueWait(t *testing.T) {
	// Two requests arrive together; the second's latency must include the
	// time it waited behind the first under a serial engine.
	m := exectest.NewChainMachine(chainLengths(2, 4), 3)
	src := serve.NewQueueSource[exectest.ChainState](m, []uint64{0, 0}, 0, serve.Block, nil)
	c := newCore()
	ops.RunSource(c, src, ops.Baseline, ops.Params{})
	rec := src.Recorder()
	if rec.Completed != 2 {
		t.Fatalf("completed=%d", rec.Completed)
	}
	if rec.SumQueueWait == 0 {
		t.Fatal("second request must have waited in the queue")
	}
	if rec.MaxLatency <= rec.Quantile(0.25) {
		t.Fatal("the queued request's latency must exceed the first's")
	}
}

// streamJoinOutput serves a probe workload with the given technique under
// the given arrival schedule and returns the join output.
func streamJoinOutput(t *testing.T, tech ops.Technique, arrivals []uint64) (count, checksum uint64) {
	t.Helper()
	build, probe, err := relation.BuildJoin(relation.JoinSpec{BuildSize: 1 << 11, ProbeSize: 1 << 11, ZipfBuild: 0.75, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	j := ops.NewHashJoin(build, probe)
	j.PrebuildRaw()
	out := ops.NewOutput(j.Arena, false)
	src := serve.NewQueueSource[ops.ProbeState](j.ProbeMachine(out, false), arrivals, 0, serve.Block, nil)
	ops.RunSource(newCore(), src, tech, ops.Params{Window: 8})
	if got := src.Recorder().Completed; got != uint64(len(arrivals)) {
		t.Fatalf("%s completed %d of %d requests", tech, got, len(arrivals))
	}
	return out.Count, out.Checksum
}

func TestStreamedJoinOutputMatchesBatchForAllTechniques(t *testing.T) {
	build, probe, err := relation.BuildJoin(relation.JoinSpec{BuildSize: 1 << 11, ProbeSize: 1 << 11, ZipfBuild: 0.75, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	j := ops.NewHashJoin(build, probe)
	j.PrebuildRaw()
	wantCount, wantSum := j.ReferenceJoin()

	arrivals := serve.Poisson{MeanPeriod: 300}.Schedule(probe.Len(), 3)
	for _, tech := range ops.Techniques {
		count, checksum := streamJoinOutput(t, tech, arrivals)
		if count != wantCount || checksum != wantSum {
			t.Fatalf("%s: streamed output (count=%d sum=%x) differs from reference (count=%d sum=%x)",
				tech, count, checksum, wantCount, wantSum)
		}
	}
}

// TestAMACStreamHoldsTailUnderLoad asserts the subsystem's reason to exist:
// at an arrival rate near AMAC's batch capacity, the batch-boundary refill
// of GP and SPP (and the serial baseline) inflates p99 latency by orders of
// magnitude while AMAC's queue stays shallow.
func TestAMACStreamHoldsTailUnderLoad(t *testing.T) {
	build, probe, err := relation.BuildJoin(relation.JoinSpec{BuildSize: 1 << 12, ProbeSize: 1 << 12, ZipfBuild: 1.0, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}

	// Calibrate AMAC's batch service time per request.
	jb := ops.NewHashJoin(build, probe)
	jb.PrebuildRaw()
	cb := newCore()
	core.Run(cb, jb.ProbeMachine(ops.NewOutput(jb.Arena, false), true), core.Options{Width: 10})
	period := float64(cb.Cycle()) / float64(probe.Len()) / 0.9 // 90% load

	p99 := func(tech ops.Technique) uint64 {
		j := ops.NewHashJoin(build, probe)
		j.PrebuildRaw()
		out := ops.NewOutput(j.Arena, false)
		arrivals := serve.Poisson{MeanPeriod: period}.Schedule(probe.Len(), 17)
		src := serve.NewQueueSource[ops.ProbeState](j.ProbeMachine(out, true), arrivals, 0, serve.Block, nil)
		ops.RunSource(newCore(), src, tech, ops.Params{Window: 10})
		return src.Recorder().P99()
	}

	amac := p99(ops.AMAC)
	for _, tech := range []ops.Technique{ops.Baseline, ops.GP, ops.SPP} {
		if other := p99(tech); amac*4 > other {
			t.Fatalf("at 90%% load AMAC p99 (%d) should be far below %s p99 (%d)", amac, tech, other)
		}
	}
}

func TestServiceShardsAndMerges(t *testing.T) {
	const workers = 3
	build, probe, err := relation.BuildJoin(relation.JoinSpec{BuildSize: 1 << 12, ProbeSize: 1 << 12, Seed: 21})
	if err != nil {
		t.Fatal(err)
	}
	pj := ops.PartitionJoin(build, probe, workers)
	pj.PrebuildRaw()
	wantCount, wantSum := pj.ReferenceJoinFirstMatch()

	run := func() (serve.Result, uint64, uint64) {
		outs := make([]*ops.Output, workers)
		specs := make([]serve.Worker[ops.ProbeState], workers)
		for w := 0; w < workers; w++ {
			outs[w] = ops.NewOutput(pj.Parts[w].Arena, false)
			outs[w].Sequential = true
			specs[w] = serve.Worker[ops.ProbeState]{
				Machine:  pj.ProbeMachine(w, outs[w], true),
				Arrivals: serve.Deterministic{Period: 150}.Schedule(pj.Parts[w].Probe.Len(), 0),
			}
		}
		res := serve.Run(serve.Options{
			Hardware:  memsim.XeonX5670(),
			Technique: ops.AMAC,
			Window:    10,
		}, specs)
		var count, checksum uint64
		for _, out := range outs {
			count += out.Count
			checksum += out.Checksum
		}
		return res, count, checksum
	}

	res, count, checksum := run()
	if count != wantCount || checksum != wantSum {
		t.Fatalf("sharded service output (count=%d sum=%x) differs from reference (count=%d sum=%x)",
			count, checksum, wantCount, wantSum)
	}
	if res.Latency.Completed != uint64(probe.Len()) {
		t.Fatalf("merged recorder completed %d of %d", res.Latency.Completed, probe.Len())
	}
	if len(res.PerWorker) != workers {
		t.Fatalf("%d worker results", len(res.PerWorker))
	}
	var perWorkerCompleted uint64
	slowest := uint64(0)
	for _, wr := range res.PerWorker {
		perWorkerCompleted += wr.Latency.Completed
		if wr.Stats.Cycles > slowest {
			slowest = wr.Stats.Cycles
		}
	}
	if perWorkerCompleted != res.Latency.Completed {
		t.Fatal("merged recorder must equal the sum of worker recorders")
	}
	if res.ElapsedCycles() != slowest {
		t.Fatalf("elapsed %d, want slowest worker %d", res.ElapsedCycles(), slowest)
	}
	if res.Sched.Completed != probe.Len() {
		t.Fatalf("merged AMAC sched stats completed %d, want %d", res.Sched.Completed, probe.Len())
	}

	// Determinism across goroutine schedules: run again and compare.
	res2, count2, checksum2 := run()
	if count2 != count || checksum2 != checksum || res2.ElapsedCycles() != res.ElapsedCycles() ||
		res2.Latency.P99() != res.Latency.P99() {
		t.Fatal("service runs must be deterministic")
	}
}

func TestServiceEmptyWorkers(t *testing.T) {
	res := serve.Run[ops.ProbeState](serve.Options{Hardware: memsim.XeonX5670(), Technique: ops.AMAC}, nil)
	if res.Latency.Completed != 0 || len(res.PerWorker) != 0 {
		t.Fatalf("empty service should be empty: %+v", res)
	}
}

// TestServiceAdaptiveServesEverything: the per-shard adaptive controller
// must serve every request exactly once with output identical to a static
// run, report its tallies per worker and merged, and stay deterministic
// across goroutine schedules.
func TestServiceAdaptiveServesEverything(t *testing.T) {
	const workers = 2
	build, probe, err := relation.BuildJoin(relation.JoinSpec{BuildSize: 1 << 12, ProbeSize: 1 << 12, Seed: 23})
	if err != nil {
		t.Fatal(err)
	}
	pj := ops.PartitionJoin(build, probe, workers)
	pj.PrebuildRaw()
	wantCount, wantSum := pj.ReferenceJoinFirstMatch()

	// Collectors are allocated once and reset per run so that every run
	// charges its stores at identical arena addresses — the same
	// pre-allocation discipline the experiment sweeps use.
	outs := make([]*ops.Output, workers)
	for w := 0; w < workers; w++ {
		outs[w] = ops.NewOutput(pj.Parts[w].Arena, false)
		outs[w].Sequential = true
	}

	run := func() (serve.Result, uint64, uint64) {
		specs := make([]serve.Worker[ops.ProbeState], workers)
		for w := 0; w < workers; w++ {
			outs[w].Reset()
			specs[w] = serve.Worker[ops.ProbeState]{
				Machine:  pj.ProbeMachine(w, outs[w], true),
				Arrivals: serve.Poisson{MeanPeriod: 120}.Schedule(pj.Parts[w].Probe.Len(), uint64(w)+1),
			}
		}
		res := serve.Run(serve.Options{
			Hardware: memsim.XeonX5670(),
			Adaptive: &adapt.Config{RetuneRequests: 128, ProbeRequests: 32},
		}, specs)
		var count, checksum uint64
		for _, out := range outs {
			count += out.Count
			checksum += out.Checksum
		}
		return res, count, checksum
	}

	res, count, checksum := run()
	if count != wantCount || checksum != wantSum {
		t.Fatalf("adaptive service output (count=%d sum=%x) differs from reference (count=%d sum=%x)",
			count, checksum, wantCount, wantSum)
	}
	if res.Latency.Completed != uint64(probe.Len()) {
		t.Fatalf("completed %d of %d", res.Latency.Completed, probe.Len())
	}
	if res.Adapt == nil {
		t.Fatal("merged adaptive tallies missing")
	}
	if res.Adapt.Probes < workers {
		t.Fatalf("every shard should calibrate at least once: %v", res.Adapt)
	}
	total := 0
	for _, n := range res.Adapt.Lookups {
		total += n
	}
	if total != probe.Len() {
		t.Fatalf("technique tallies cover %d of %d requests", total, probe.Len())
	}
	for w, wr := range res.PerWorker {
		if wr.Adapt == nil {
			t.Fatalf("worker %d missing adaptive tallies", w)
		}
	}

	res2, count2, checksum2 := run()
	if count2 != count || checksum2 != checksum || res2.ElapsedCycles() != res.ElapsedCycles() ||
		res2.Latency.P99() != res.Latency.P99() {
		t.Fatal("adaptive service runs must be deterministic")
	}
}

// TestAdaptiveMetricsIdenticalWithTrace runs one adaptive two-shard service
// with metrics only and again with a trace attached as well: the metrics
// JSON Lines must be byte-identical. The width gauge reads the width the
// AMAC engine records on its core, so it needs no trace to hold it — and
// the metrics-only run must still see the controller's widths.
func TestAdaptiveMetricsIdenticalWithTrace(t *testing.T) {
	const workers, perShard = 2, 3000
	metrics := func(tr *obs.Trace) []byte {
		specs := make([]serve.Worker[exectest.ChainState], workers)
		for w := range specs {
			specs[w] = serve.Worker[exectest.ChainState]{
				Machine:  exectest.NewChainMachine(chainLengths(perShard, 4), 3),
				Arrivals: serve.Poisson{MeanPeriod: 90}.Schedule(perShard, uint64(w)+1),
			}
		}
		m := obs.NewMetrics(2048)
		serve.Run(serve.Options{
			Hardware: memsim.XeonX5670(),
			Adaptive: &adapt.Config{RetuneRequests: 256, ProbeRequests: 64},
			Trace:    tr,
			Metrics:  m,
		}, specs)
		var buf bytes.Buffer
		if err := m.WriteJSONL(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	plain := metrics(nil)
	tr := obs.NewTrace(0)
	traced := metrics(tr)
	if !bytes.Equal(plain, traced) {
		t.Fatalf("metrics differ with a trace attached:\n--- metrics only ---\n%s\n--- traced ---\n%s", plain, traced)
	}
	if len(tr.Cores()) != workers {
		t.Fatalf("trace registered %d cores, want %d", len(tr.Cores()), workers)
	}
	if !regexp.MustCompile(`"width":[1-9]`).Match(plain) {
		t.Fatalf("metrics-only run never saw a nonzero width:\n%s", plain)
	}
}
