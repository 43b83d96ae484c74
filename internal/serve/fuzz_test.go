package serve

import (
	"fmt"
	"math"
	"reflect"
	"slices"
	"testing"

	"amac/internal/adapt"
	"amac/internal/exec/exectest"
	"amac/internal/fault"
	"amac/internal/memsim"
	"amac/internal/obs"
	"amac/internal/ops"
	"amac/internal/prof"
	"amac/internal/xrand"
)

// Bits of FuzzServe's policy byte.
const (
	fuzzRetry    = 1 << iota // capped-backoff retry
	fuzzHedge                // hedged re-dispatch
	fuzzBreaker              // per-shard circuit breakers
	fuzzIdentity             // no Sched map (invalid once a policy routes)
	fuzzDrop                 // bounded Drop-policy queues
	fuzzSLO                  // SLO brownout
)

// FuzzServe drives the serving coordinator with random configurations: one
// to four shards of replicated exectest chain machines, every technique plus
// adaptive control, windows of 1 to 16, Poisson or bursty arrivals, a
// fault.Random chaos schedule, an optional deadline, retry, hedge, breaker,
// Drop-queue and SLO toggles, and round lengths of 128 to 8192 cycles. The
// oracle: the options either fail validation — and RunFaulty then panics
// with that error — or the run completes with every request accounted
// exactly once and no leaked slot, and a rerun with Trace, Metrics and
// Profile set returns an identical Result. The CI runs it with -fuzz for a bounded
// time; plain go test replays the seed corpus in testdata/fuzz/FuzzServe.
func FuzzServe(f *testing.F) {
	f.Add(uint64(1), uint8(1), uint8(40), uint8(3), uint8(5), false, uint16(300), uint8(1), uint16(0), uint8(0), uint8(3))
	f.Add(uint64(2), uint8(2), uint8(60), uint8(3), uint8(6), true, uint16(900), uint8(2), uint16(4000), uint8(fuzzRetry|fuzzHedge|fuzzBreaker), uint8(1))
	f.Add(uint64(3), uint8(3), uint8(30), uint8(1), uint8(4), false, uint16(200), uint8(0), uint16(0), uint8(fuzzSLO|fuzzDrop), uint8(5))
	f.Add(uint64(4), uint8(1), uint8(20), uint8(4), uint8(8), false, uint16(500), uint8(0), uint16(0), uint8(fuzzSLO), uint8(2))
	f.Fuzz(func(t *testing.T, seed uint64, shards, n, tech, window uint8, bursty bool, period uint16,
		faults uint8, deadline uint16, policy uint8, slice uint8) {
		nShards := 1 + int(shards)%4
		perShard := int(n) % 65
		workers, sched := fuzzWorkers(seed, nShards, perShard, bursty, uint64(period))

		opts := FaultyOptions{
			Options: Options{Hardware: memsim.XeonX5670(), Window: 1 + int(window)%16},
			Slice:   128 << (slice % 7),
			Sched:   sched,
		}
		if k := int(tech) % (len(ops.Techniques) + 1); k < len(ops.Techniques) {
			opts.Technique = ops.Techniques[k]
		} else {
			opts.Adaptive = &adapt.Config{RetuneRequests: 16, ProbeRequests: 8}
		}
		var horizon uint64
		for _, w := range workers {
			if k := len(w.Arrivals); k > 0 && w.Arrivals[k-1] > horizon {
				horizon = w.Arrivals[k-1]
			}
		}
		if k := int(faults) % 5; k > 0 {
			opts.Faults = fault.Random(seed^0x9e3779b97f4a7c15, k, nShards, horizon+4096)
		}
		if deadline >= 256 {
			opts.Deadline = uint64(deadline)
		}
		if policy&fuzzRetry != 0 {
			opts.Retry = fault.RetryPolicy{Max: 1 + int(seed%3), Backoff: 200}
		}
		if policy&fuzzHedge != 0 {
			opts.Hedge = fault.HedgePolicy{Delay: 500 + uint64(period)%3000}
		}
		if policy&fuzzBreaker != 0 {
			opts.Breaker = &fault.BreakerConfig{Cooldown: 4096, MinSamples: 4, Alpha: 0.5}
		}
		if policy&fuzzIdentity != 0 {
			opts.Sched = nil
		}
		if policy&fuzzDrop != 0 {
			opts.QueueCap, opts.Policy = 4+int(seed%16), Drop
		}
		if policy&fuzzSLO != 0 {
			opts.SLO = fault.SLO{P99Budget: 1000 + uint64(period)%4000, Classes: 4, HoldRounds: 2}
		}

		if err := Validate(&opts, workers); err != nil {
			defer func() {
				if v, ok := recover().(error); !ok || v.Error() != err.Error() {
					t.Fatalf("RunFaulty panicked with %v, want the validation error %q", v, err)
				}
			}()
			RunFaulty(opts, workers)
			return
		}
		res := RunFaulty(opts, workers)
		checkServed(t, res, perShard, opts.routed())

		// The same run on fresh machines with every sink attached must be
		// identical, and the profiler must account each shard's cycles.
		workers, _ = fuzzWorkers(seed, nShards, perShard, bursty, uint64(period))
		opts.Trace, opts.Metrics, opts.Profile = obs.NewTrace(1024), obs.NewMetrics(0), prof.NewProfile()
		if observed := RunFaulty(opts, workers); !reflect.DeepEqual(observed, res) {
			t.Fatalf("traced, metered and profiled run differs:\nplain:    %+v\nobserved: %+v", res, observed)
		}
		for w, wr := range res.PerWorker {
			if got := opts.Profile.Core(fmt.Sprintf("worker %d", w)).TotalCycles(); got != wr.Stats.Cycles {
				t.Fatalf("shard %d: profiler attributed %d cycles, core counted %d", w, got, wr.Stats.Cycles)
			}
		}
	})
}

// fuzzWorkers builds nShards replica workers over one shared index space of
// nShards*perShard chain lookups (lengths 1-4, occasionally up to 20): shard
// w serves positions k -> index k*nShards+w on its own arrival schedule.
func fuzzWorkers(seed uint64, nShards, perShard int, bursty bool, period uint64) ([]Worker[exectest.ChainState], [][]int32) {
	rng := xrand.New(seed)
	lengths := make([]int, nShards*perShard)
	for i := range lengths {
		if rng.Intn(8) == 0 {
			lengths[i] = 1 + rng.Intn(20)
		} else {
			lengths[i] = 1 + rng.Intn(4)
		}
	}
	var arrivals ArrivalProcess = Poisson{MeanPeriod: float64(50 + period%2000)}
	if bursty {
		arrivals = Bursty{Period: 1 + period%50, BurstLen: 1 + int(period%16), Off: period}
	}
	workers := make([]Worker[exectest.ChainState], nShards)
	sched := make([][]int32, nShards)
	for w := range workers {
		workers[w] = Worker[exectest.ChainState]{
			Machine:  exectest.NewChainMachine(lengths, 3),
			Arrivals: arrivals.Schedule(perShard, seed+uint64(w)+1),
		}
		sched[w] = make([]int32, perShard)
		for k := range sched[w] {
			sched[w][k] = int32(k*nShards + w)
		}
	}
	return workers, sched
}

// checkServed asserts a finished run's accounting. Every shard offers each
// of its perShard requests exactly once, and every engine's slots balance:
// Initiated == Completed + TimedOut + Aborted. An unrouted shard resolves
// its own requests, so its outcomes sum to its offers; a routed request may
// complete on a sibling, so only the merged outcomes sum to the merged
// offers.
func checkServed(t *testing.T, res Result, perShard int, routed bool) {
	t.Helper()
	resolved := func(r *Recorder) uint64 { return r.Completed + r.Dropped + r.TimedOut + r.Failed + r.Shed }
	for w, wr := range res.PerWorker {
		r := wr.Latency
		if r.Offered != uint64(perShard) {
			t.Fatalf("shard %d offered %d of its %d requests", w, r.Offered, perShard)
		}
		if !routed && resolved(r) != r.Offered {
			t.Fatalf("shard %d resolved %d of %d offered requests: %v", w, resolved(r), r.Offered, r)
		}
		if s := wr.Sched; s.Initiated != s.Completed+s.TimedOut+s.Aborted {
			t.Fatalf("shard %d leaked slots: %+v", w, s)
		}
	}
	if r := &res.Latency; resolved(r) != r.Offered {
		t.Fatalf("resolved %d of %d offered requests: %v", resolved(r), r.Offered, r)
	}
}

// FuzzParseArrivals drives ParseArrivals with arbitrary names and periods.
// The oracle: an accepted process yields a non-decreasing Schedule(n, seed),
// and the same schedule on every call. The CI runs it with -fuzz for a
// bounded time; plain go test replays the seed corpus in
// testdata/fuzz/FuzzParseArrivals.
func FuzzParseArrivals(f *testing.F) {
	f.Add("poisson", 500.0, uint16(64), uint64(1))
	f.Add("deterministic", 0.25, uint16(16), uint64(2))
	f.Add("bursty", 1e9, uint16(300), uint64(3))
	f.Add("", math.Inf(1), uint16(3), uint64(4))
	f.Fuzz(func(t *testing.T, name string, period float64, n uint16, seed uint64) {
		p, err := ParseArrivals(name, period)
		if err != nil {
			return
		}
		a := p.Schedule(int(n), seed)
		if len(a) != int(n) {
			t.Fatalf("%s at %v: %d arrivals, want %d", p.Name(), period, len(a), n)
		}
		for i := 1; i < len(a); i++ {
			if a[i] < a[i-1] {
				t.Fatalf("%s at %v: arrival %d at cycle %d after %d", p.Name(), period, i, a[i], a[i-1])
			}
		}
		if b := p.Schedule(int(n), seed); !slices.Equal(a, b) {
			t.Fatalf("%s at %v: schedule differs between calls", p.Name(), period)
		}
	})
}
