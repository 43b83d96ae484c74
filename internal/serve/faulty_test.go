package serve_test

import (
	"fmt"
	"hash/fnv"
	"reflect"
	"testing"

	"amac/internal/core"
	"amac/internal/exec/exectest"
	"amac/internal/fault"
	"amac/internal/memsim"
	"amac/internal/ops"
	"amac/internal/serve"
)

// TestStreamEnginePauseResumeBitIdentical pins the resumable engine's core
// contract: running in arbitrary time slices is bit-identical to one
// uninterrupted run, because pauses happen between slot visits and charge
// nothing simulated.
func TestStreamEnginePauseResumeBitIdentical(t *testing.T) {
	const n = 200
	run := func(chunk uint64) (memsim.Stats, core.RunStats, serve.Recorder) {
		m := exectest.NewChainMachine(chainLengths(n, 3), 4)
		arrivals := serve.Deterministic{Period: 150}.Schedule(n, 1)
		src := serve.NewQueueSource[exectest.ChainState](m, arrivals, 0, serve.Block, nil)
		c := newCore()
		if chunk == 0 {
			core.RunStream(c, src, core.Options{Width: 6})
		} else {
			e := core.NewStreamEngine[exectest.ChainState](c, src, core.Options{Width: 6})
			for limit := chunk; !e.Run(limit); limit += chunk {
			}
			e.Close()
		}
		return c.Stats(), core.RunStats{}, *src.Recorder()
	}
	wantStats, _, wantRec := run(0)
	for _, chunk := range []uint64{97, 1000, 4096} {
		gotStats, _, gotRec := run(chunk)
		if !reflect.DeepEqual(gotStats, wantStats) {
			t.Fatalf("chunk %d: stats diverged:\n got %+v\nwant %+v", chunk, gotStats, wantStats)
		}
		if !reflect.DeepEqual(gotRec, wantRec) {
			t.Fatalf("chunk %d: recorder diverged", chunk)
		}
	}
}

// TestStreamEngineDeadlineNoSlotLeak drives an engine with a deadline tight
// enough to expire requests both in the queue and in flight, and asserts the
// slot-leak invariant: every initiated request is accounted exactly once.
func TestStreamEngineDeadlineNoSlotLeak(t *testing.T) {
	const n = 150
	m := exectest.NewChainMachine(chainLengths(n, 6), 7)
	// Everything arrives at once: most of the backlog blows the deadline.
	src := serve.NewQueueSource[exectest.ChainState](m, make([]uint64, n), 0, serve.Block, nil)
	src.SetDeadline(3000)
	c := newCore()
	e := core.NewStreamEngine[exectest.ChainState](c, src, core.Options{Width: 4, Deadline: 3000})
	e.Run(^uint64(0))
	stats := e.Stats()
	e.Close()
	rec := src.Recorder()
	if stats.TimedOut == 0 {
		t.Fatal("expected in-flight deadline expiries")
	}
	if stats.Initiated != stats.Completed+stats.TimedOut+stats.Aborted {
		t.Fatalf("slot leak: initiated=%d completed=%d timedOut=%d aborted=%d",
			stats.Initiated, stats.Completed, stats.TimedOut, stats.Aborted)
	}
	if rec.Completed+rec.TimedOut != n {
		t.Fatalf("request leak: completed=%d timedOut=%d, want sum %d", rec.Completed, rec.TimedOut, n)
	}
	if rec.TimedOut == 0 || rec.Completed == 0 {
		t.Fatalf("want a mix of outcomes, got completed=%d timedOut=%d", rec.Completed, rec.TimedOut)
	}
}

// faultyWorkers builds W replica workers over one shared index space of n
// requests: worker w serves positions k -> index k*W+w at the given period.
func faultyWorkers(n, W int, period uint64, hops int) ([]serve.Worker[exectest.ChainState], [][]int32) {
	workers := make([]serve.Worker[exectest.ChainState], W)
	sched := make([][]int32, W)
	for w := 0; w < W; w++ {
		nw := n / W
		arrivals := serve.Deterministic{Period: period}.Schedule(nw, uint64(w+1))
		idx := make([]int32, nw)
		for k := 0; k < nw; k++ {
			idx[k] = int32(k*W + w)
		}
		workers[w] = serve.Worker[exectest.ChainState]{
			Machine:  exectest.NewChainMachine(chainLengths(n, hops), hops+1),
			Arrivals: arrivals,
		}
		sched[w] = idx
	}
	return workers, sched
}

// TestRunFaultyRoundsBitIdentical pins the coordinator's cornerstone: pausing
// the engines at round edges charges nothing simulated. A 1x slowdown is a
// fault episode that changes no latency, so it forces Slice-sized rounds
// while leaving every cycle as it was; the result must equal the
// single-round run bit for bit.
func TestRunFaultyRoundsBitIdentical(t *testing.T) {
	build := func() []serve.Worker[exectest.ChainState] {
		ws, _ := faultyWorkers(160, 2, 400, 3)
		return ws
	}
	opts := serve.Options{
		Hardware:  memsim.XeonX5670(),
		Technique: ops.AMAC,
		Window:    6,
	}
	want := serve.Run(opts, build())
	got := serve.RunFaulty(serve.FaultyOptions{
		Options: opts,
		Faults: &fault.Schedule{Episodes: []fault.Episode{
			{Kind: fault.Slow, Shard: 0, Start: 1000, Dur: 20000, Factor: 1},
		}},
		Slice: 512,
	}, build())
	if !reflect.DeepEqual(got.Stats, want.Stats) {
		t.Fatalf("stats diverged:\n got %+v\nwant %+v", got.Stats, want.Stats)
	}
	if !reflect.DeepEqual(got.Latency, want.Latency) {
		t.Fatalf("latency recorders diverged:\n got %v\nwant %v", &got.Latency, &want.Latency)
	}
	if !reflect.DeepEqual(got.Sched, want.Sched) {
		t.Fatalf("scheduler stats diverged:\n got %+v\nwant %+v", got.Sched, want.Sched)
	}
	for w := range want.PerWorker {
		if !reflect.DeepEqual(got.PerWorker[w].Stats, want.PerWorker[w].Stats) {
			t.Fatalf("worker %d stats diverged", w)
		}
	}
	if got.Faults.Episodes != 1 || want.Faults.Episodes != 0 {
		t.Fatalf("episodes: rounds run %d, single round %d; want 1 and 0", got.Faults.Episodes, want.Faults.Episodes)
	}
}

// TestRunFaultyUnroutedSlowShardPinned pins an unrouted three-shard run with
// a slow shard and a deadline — the configuration whose shards step
// concurrently within each round — to the stats and recorder values the
// serial coordinator produced. Its per-shard digest covers the whole core
// stats, recorder and scheduler stats.
func TestRunFaultyUnroutedSlowShardPinned(t *testing.T) {
	const n = 150
	workers := make([]serve.Worker[exectest.ChainState], 3)
	for w := range workers {
		workers[w] = serve.Worker[exectest.ChainState]{
			Machine:  exectest.NewChainMachine(chainLengths(n, 2+w), 3+w),
			Arrivals: serve.Poisson{MeanPeriod: 350}.Schedule(n, uint64(w)+1),
		}
	}
	res := serve.RunFaulty(serve.FaultyOptions{
		Options: serve.Options{Hardware: memsim.XeonX5670(), Technique: ops.AMAC, Window: 6},
		Faults: &fault.Schedule{Episodes: []fault.Episode{
			{Kind: fault.Slow, Shard: 0, Start: 6000, Dur: 30000, Factor: 8},
		}},
		Deadline: 3000,
		Slice:    1024,
	}, workers)
	type pin struct {
		cycles, stall, idle      uint64
		completed, timedOut, p99 uint64
		initiated, slotsTimedOut int
		digest                   uint64
	}
	want := []pin{
		{54224, 47325, 4954, 72, 78, 4306, 146, 74, 0xdde7a6ee93b16c66},
		{52223, 44098, 5148, 150, 0, 885, 150, 0, 0x1ab212df39e0fa1b},
		{51965, 46206, 2164, 150, 0, 1108, 150, 0, 0x65cbdf5228ea8a50},
	}
	for w, wr := range res.PerWorker {
		h := fnv.New64a()
		fmt.Fprintf(h, "%v|%v|%v", wr.Stats, *wr.Latency, wr.Sched)
		r := wr.Latency
		got := pin{wr.Stats.Cycles, wr.Stats.StallCycles, wr.Stats.IdleCycles,
			r.Completed, r.TimedOut, r.P99(), wr.Sched.Initiated, wr.Sched.TimedOut, h.Sum64()}
		if got != want[w] {
			t.Errorf("shard %d:\n got %+v\nwant %+v", w, got, want[w])
		}
	}
}

// TestRunFaultySlowShardRecovery injects a long 8x memory-latency episode on
// shard 0 and checks that deadlines, hedging and the breaker recover the
// traffic: every request is accounted exactly once, duplicates dedup, and
// the run is deterministic.
func TestRunFaultySlowShardRecovery(t *testing.T) {
	const n, W = 240, 3
	run := func() serve.Result {
		workers, sched := faultyWorkers(n, W, 500, 3)
		return serve.RunFaulty(serve.FaultyOptions{
			Options: serve.Options{
				Hardware:  memsim.XeonX5670(),
				Technique: ops.AMAC,
				Window:    6,
			},
			Faults: &fault.Schedule{Episodes: []fault.Episode{
				{Kind: fault.Slow, Shard: 0, Start: 4000, Dur: 30000, Factor: 8},
			}},
			Deadline: 2500,
			Retry:    fault.RetryPolicy{Max: 2, Backoff: 500},
			Hedge:    fault.HedgePolicy{Delay: 1500},
			Breaker:  &fault.BreakerConfig{Cooldown: 8192, MinSamples: 4, Alpha: 0.5},
			Slice:    1024,
			Sched:    sched,
		}, workers)
	}
	res := run()
	rec := res.Latency
	total := rec.Completed + rec.TimedOut + rec.Failed + rec.Shed + rec.Dropped
	if total != n {
		t.Fatalf("request accounting: completed=%d timedOut=%d failed=%d shed=%d dropped=%d, sum %d want %d",
			rec.Completed, rec.TimedOut, rec.Failed, rec.Shed, rec.Dropped, total, n)
	}
	if rec.Offered != n {
		t.Fatalf("offered=%d, want %d", rec.Offered, n)
	}
	if res.Sched.Initiated != res.Sched.Completed+res.Sched.TimedOut+res.Sched.Aborted {
		t.Fatalf("slot leak: %+v", res.Sched)
	}
	if rec.Hedged == 0 {
		t.Fatal("the slow episode should have fired hedges")
	}
	if rec.HedgeWins+rec.HedgeWaste > rec.Hedged {
		t.Fatalf("hedge outcomes exceed issues: wins=%d waste=%d issued=%d",
			rec.HedgeWins, rec.HedgeWaste, rec.Hedged)
	}
	if res.Faults == nil || res.Faults.Episodes != 1 {
		t.Fatalf("faults = %+v, want one episode", res.Faults)
	}
	// The whole degraded run must be deterministic.
	again := run()
	if !reflect.DeepEqual(res.Latency, again.Latency) || !reflect.DeepEqual(res.Stats, again.Stats) {
		t.Fatal("faulty runs must be bit-identical across executions")
	}
	if !reflect.DeepEqual(res.Faults, again.Faults) {
		t.Fatalf("fault summaries diverged: %+v vs %+v", res.Faults, again.Faults)
	}
}

// TestRunFaultyCrashRetries crashes a shard mid-run: its in-flight slots
// abort, its queue drops, and the retry policy re-dispatches the lost
// requests to siblings so most of them still complete.
func TestRunFaultyCrashRetries(t *testing.T) {
	const n, W = 160, 2
	workers, sched := faultyWorkers(n, W, 600, 3)
	res := serve.RunFaulty(serve.FaultyOptions{
		Options: serve.Options{
			Hardware:  memsim.XeonX5670(),
			Technique: ops.AMAC,
			Window:    6,
		},
		Faults: &fault.Schedule{Episodes: []fault.Episode{
			{Kind: fault.Crash, Shard: 1, Start: 8000, Dur: 16000},
		}},
		Retry: fault.RetryPolicy{Max: 3, Backoff: 1000},
		Slice: 2048,
		Sched: sched,
	}, workers)
	rec := res.Latency
	if res.Sched.Aborted == 0 {
		t.Fatal("the crash should have aborted in-flight slots")
	}
	if rec.Retried == 0 {
		t.Fatal("crash-dropped requests should have been retried")
	}
	if rec.Completed+rec.TimedOut+rec.Failed != n {
		t.Fatalf("accounting: completed=%d timedOut=%d failed=%d, want sum %d",
			rec.Completed, rec.TimedOut, rec.Failed, n)
	}
	if rec.Completed < uint64(n*9/10) {
		t.Fatalf("retries should recover most traffic: completed=%d of %d", rec.Completed, n)
	}
}

// TestRunSLOBrownoutSheds overloads a plain (non-faulty) service with an SLO
// attached and checks the brownout sheds load but never class 0.
func TestRunSLOBrownoutSheds(t *testing.T) {
	const n = 600
	m := exectest.NewChainMachine(chainLengths(n, 5), 6)
	// Offered load far above capacity: the sliding p99 blows any budget.
	workers := []serve.Worker[exectest.ChainState]{{
		Machine:  m,
		Arrivals: serve.Deterministic{Period: 40}.Schedule(n, 1),
	}}
	opts := serve.Options{
		Hardware:  memsim.XeonX5670(),
		Technique: ops.AMAC,
		Window:    6,
		SLO:       fault.SLO{P99Budget: 2000, Classes: 4, HoldRounds: 2},
	}
	res := serve.Run(opts, workers)
	rec := res.Latency
	if rec.Shed == 0 {
		t.Fatal("sustained overload must shed load")
	}
	if rec.Completed+rec.Shed != n {
		t.Fatalf("accounting: completed=%d shed=%d, want sum %d", rec.Completed, rec.Shed, n)
	}
	if res.Faults.MaxShedLevel == 0 {
		t.Fatal("the fault summary must report the brownout's deepest shed level")
	}
	// The queue owns the brownout of an unrouted run, so the SLO set through
	// Options and a zero-fault RunFaulty observe it exactly as Run does.
	workers[0].Machine = exectest.NewChainMachine(chainLengths(n, 5), 6)
	faulty := serve.RunFaulty(serve.FaultyOptions{Options: opts}, workers)
	if !reflect.DeepEqual(faulty.Latency, rec) {
		t.Fatalf("zero-fault RunFaulty recorder diverged from Run:\n got %v\nwant %v", &faulty.Latency, &rec)
	}
	// Class 0 (index % 4 == 0) is never shed, so at least every fourth
	// request completes.
	if rec.Completed < n/4 {
		t.Fatalf("class 0 must always be served: completed=%d", rec.Completed)
	}
}

// TestRecorderFaultEdgeCases covers the satellite edge cases: an
// all-timed-out recorder, merging with a zero-served shard, and quantiles
// with hedge duplicates resolved on both shards.
func TestRecorderFaultEdgeCases(t *testing.T) {
	// All-timed-out: quantiles and means stay defined (zero), counters hold.
	var dead serve.Recorder
	dead.Offered = 10
	dead.TimedOut = 10
	if dead.P99() != 0 || dead.MeanLatency() != 0 {
		t.Fatalf("all-timed-out quantiles: p99=%d mean=%f", dead.P99(), dead.MeanLatency())
	}

	// A served shard merged with a zero-served shard keeps its quantiles and
	// gains the dead shard's outcome counters.
	var served serve.Recorder
	served.Offered = 4
	for _, lat := range []uint64{100, 200, 300, 400} {
		served.RecordLatency(lat)
	}
	p99Before := served.P99()
	served.Merge(&dead)
	if served.P99() != p99Before {
		t.Fatalf("merge with zero-served shard moved p99: %d -> %d", p99Before, served.P99())
	}
	if served.TimedOut != 10 || served.Offered != 14 {
		t.Fatalf("merge lost counters: timedOut=%d offered=%d", served.TimedOut, served.Offered)
	}

	// Hedged duplicates completing on both shards: the winner records the
	// latency on the executing shard, the loser only bumps HedgeWaste — the
	// merged completion count stays one per request.
	var home, sibling serve.Recorder
	home.Offered = 1
	home.Hedged = 1
	home.HedgeWins = 1
	home.HedgeWaste = 1 // the home copy finished after the hedge had won
	sibling.RecordLatency(500)
	home.Merge(&sibling)
	if home.Completed != 1 {
		t.Fatalf("hedge dedup: completed=%d, want 1", home.Completed)
	}
	if home.P99() != 500 || home.MaxLatency != 500 {
		t.Fatalf("hedge winner's latency lost: p99=%d max=%d", home.P99(), home.MaxLatency)
	}

	// The nonzero fault counters surface in String; a clean recorder's
	// String must not mention them.
	if s := home.String(); len(s) == 0 || !contains(s, "hedged=1") {
		t.Fatalf("String misses fault counters: %q", s)
	}
	var clean serve.Recorder
	clean.RecordLatency(10)
	if contains(clean.String(), "hedged=") {
		t.Fatalf("clean String grew fault counters: %q", clean.String())
	}
}

func contains(s, sub string) bool {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return true
		}
	}
	return false
}
