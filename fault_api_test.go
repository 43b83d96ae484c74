package amac_test

import (
	"math"
	"reflect"
	"strings"
	"testing"

	"amac"
	"amac/internal/serve"
)

// faultServiceWorkers builds a two-worker partitioned-join service fixture
// and returns the workers plus the total request count.
func faultServiceWorkers(t *testing.T) ([]amac.ServiceWorker[amac.ProbeState], int) {
	t.Helper()
	const workers = 2
	build, probe, err := amac.BuildJoin(amac.JoinSpec{BuildSize: 1 << 10, ProbeSize: 1 << 10, Seed: 23})
	if err != nil {
		t.Fatal(err)
	}
	pj := amac.PartitionJoin(build, probe, workers)
	pj.PrebuildRaw()
	specs := make([]amac.ServiceWorker[amac.ProbeState], workers)
	for w := 0; w < workers; w++ {
		out := amac.NewOutput(pj.Parts[w].Arena, false)
		out.Sequential = true
		specs[w] = amac.ServiceWorker[amac.ProbeState]{
			Machine:  pj.ProbeMachine(w, out, true),
			Arrivals: amac.Deterministic{Period: 500}.Schedule(pj.Parts[w].Probe.Len(), 0),
		}
	}
	return specs, probe.Len()
}

// TestFaultPublicAPIZeroConfigMatchesRunService checks the exported
// RunService with a zero fault block reproduces the plain serving
// coordinator (serve.Run) bit-identically — the invariant that makes fault
// runs trustworthy as perturbations of a known-good baseline.
func TestFaultPublicAPIZeroConfigMatchesRunService(t *testing.T) {
	opts := amac.ServiceOptions{
		Hardware:  amac.XeonX5670(),
		Technique: amac.AMAC,
		Window:    8,
	}
	specs, n := faultServiceWorkers(t)
	clean := serve.Run(opts, specs)

	specs, _ = faultServiceWorkers(t)
	faulty, err := amac.RunService(amac.FaultyServiceOptions{Options: opts}, specs)
	if err != nil {
		t.Fatal(err)
	}

	if !reflect.DeepEqual(clean.Stats, faulty.Stats) {
		t.Fatalf("core stats diverge:\nclean  %+v\nfaulty %+v", clean.Stats, faulty.Stats)
	}
	if !reflect.DeepEqual(clean.Latency, faulty.Latency) {
		t.Fatal("latency recorders diverge")
	}
	if !reflect.DeepEqual(clean.Sched, faulty.Sched) {
		t.Fatalf("scheduler stats diverge:\nclean  %+v\nfaulty %+v", clean.Sched, faulty.Sched)
	}
	if faulty.Faults == nil || faulty.Faults.Episodes != 0 {
		t.Fatalf("zero-config fault summary = %+v, want zero episodes", faulty.Faults)
	}
	if faulty.Latency.Completed != uint64(n) {
		t.Fatalf("completed %d of %d", faulty.Latency.Completed, n)
	}
}

// TestFaultPublicAPIParseAndInject round-trips a schedule through
// ParseFaults and checks an injected slowdown is applied (episode counted,
// run slower than clean) while every request still completes.
func TestFaultPublicAPIParseAndInject(t *testing.T) {
	spec, err := amac.ParseFaults("slow:0@4000+40000x6")
	if err != nil {
		t.Fatal(err)
	}
	if spec.Sched == nil || len(spec.Sched.Episodes) != 1 {
		t.Fatalf("parsed spec %+v, want one scripted episode", spec)
	}
	ep := spec.Sched.Episodes[0]
	if ep.Kind != amac.FaultSlow || ep.Shard != 0 || ep.Start != 4000 || ep.Dur != 40000 || ep.Factor != 6 {
		t.Fatalf("parsed episode %+v", ep)
	}

	opts := amac.ServiceOptions{
		Hardware:  amac.XeonX5670(),
		Technique: amac.AMAC,
		Window:    8,
	}
	specs, n := faultServiceWorkers(t)
	clean, err := amac.RunService(amac.FaultyServiceOptions{Options: opts}, specs)
	if err != nil {
		t.Fatal(err)
	}

	specs, _ = faultServiceWorkers(t)
	faulty, err := amac.RunService(amac.FaultyServiceOptions{
		Options: opts,
		Faults:  spec.Sched,
	}, specs)
	if err != nil {
		t.Fatal(err)
	}

	if faulty.Faults == nil || faulty.Faults.Episodes != 1 {
		t.Fatalf("fault summary = %+v, want one episode", faulty.Faults)
	}
	if faulty.Latency.Completed != uint64(n) {
		t.Fatalf("completed %d of %d under slowdown", faulty.Latency.Completed, n)
	}
	// The run is arrival-bound, so elapsed cycles barely move; the slowdown
	// shows up as extra stall time and a fatter tail on the slowed shard.
	if faulty.PerWorker[0].Stats.StallCycles <= clean.PerWorker[0].Stats.StallCycles {
		t.Fatalf("slowed shard stalled %d cycles, clean %d — slowdown not applied",
			faulty.PerWorker[0].Stats.StallCycles, clean.PerWorker[0].Stats.StallCycles)
	}
	if faulty.PerWorker[0].Latency.P99() <= clean.PerWorker[0].Latency.P99() {
		t.Fatalf("slowed shard p99 %d, clean %d — tail unaffected",
			faulty.PerWorker[0].Latency.P99(), clean.PerWorker[0].Latency.P99())
	}

	if _, err := amac.ParseFaults("slow:0@bogus"); err == nil {
		t.Fatal("malformed spec accepted")
	}
	// A random spec drops draws that would overlap an earlier episode on the
	// same shard, so N is a cap, not an exact count.
	rnd, err := amac.ParseFaults("rand:7:3")
	if err != nil {
		t.Fatal(err)
	}
	sched, err := rnd.Resolve(2, 1_000_000)
	if err != nil {
		t.Fatal(err)
	}
	if sched.Empty() || len(sched.Episodes) > 3 {
		t.Fatalf("rand:7:3 resolved to %v", sched)
	}
	if err := sched.Validate(2); err != nil {
		t.Fatalf("random schedule invalid: %v", err)
	}
}

// invalidOptions is a service option set the coordinator cannot honour for
// faultServiceWorkers' two workers, with a fragment of the error it must
// produce.
type invalidOptions struct {
	name string
	opts amac.FaultyServiceOptions
	want string
}

// invalidServiceOptions lists the fault, deadline and routing options the
// coordinator cannot honour.
func invalidServiceOptions() []invalidOptions {
	slow := &amac.FaultSchedule{Episodes: []amac.FaultEpisode{
		{Kind: amac.FaultSlow, Shard: 0, Start: 1000, Dur: 1000, Factor: 2},
	}}
	sched := [][]int32{make([]int32, 1<<10), make([]int32, 1<<10)}
	base := amac.ServiceOptions{Hardware: amac.XeonX5670(), Technique: amac.AMAC, Window: 8}
	with := func(tech amac.Technique) amac.ServiceOptions { o := base; o.Technique = tech; return o }
	adaptive := base
	adaptive.Adaptive = &amac.AdaptiveConfig{}
	return []invalidOptions{
		{"gp-faults", amac.FaultyServiceOptions{Options: with(amac.GP), Faults: slow}, "need the AMAC engine"},
		{"spp-deadline", amac.FaultyServiceOptions{Options: with(amac.SPP), Deadline: 5000}, "need the AMAC engine"},
		{"baseline-retry", amac.FaultyServiceOptions{Options: with(amac.Baseline),
			Retry: amac.RetryPolicy{Max: 1, Backoff: 100}, Sched: sched}, "need the AMAC engine"},
		{"adaptive-faults", amac.FaultyServiceOptions{Options: adaptive, Faults: slow}, "adaptive control"},
		{"adaptive-hedge", amac.FaultyServiceOptions{Options: adaptive,
			Hedge: amac.HedgePolicy{Delay: 100}, Sched: sched}, "adaptive control"},
		{"breaker-no-sched", amac.FaultyServiceOptions{Options: base,
			Breaker: &amac.BreakerConfig{}}, "need a Sched map"},
		{"retry-no-sched", amac.FaultyServiceOptions{Options: base,
			Retry: amac.RetryPolicy{Max: 1, Backoff: 100}}, "need a Sched map"},
		{"sched-workers", amac.FaultyServiceOptions{Options: base, Sched: sched[:1]}, "Sched maps 1 workers"},
		{"sched-short", amac.FaultyServiceOptions{Options: base,
			Sched: [][]int32{sched[0], sched[1][:3]}}, "Sched maps 3 of worker 1's"},
		{"fault-shard", amac.FaultyServiceOptions{Options: base, Faults: &amac.FaultSchedule{
			Episodes: []amac.FaultEpisode{{Kind: amac.FaultFreeze, Shard: 2, Start: 10, Dur: 10}}}}, "names shard 2 of 2"},
	}
}

// TestFaultPublicAPIRejectsInvalidOptions checks every option combination
// the coordinator cannot honour: RunService returns an error and never
// panics, and the internal serve.RunFaulty panics with that same error.
func TestFaultPublicAPIRejectsInvalidOptions(t *testing.T) {
	for _, tc := range invalidServiceOptions() {
		t.Run(tc.name, func(t *testing.T) {
			specs, _ := faultServiceWorkers(t)
			_, err := amac.RunService(tc.opts, specs)
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %v, want one containing %q", err, tc.want)
			}
			defer func() {
				v := recover()
				if perr, ok := v.(error); !ok || perr.Error() != err.Error() {
					t.Fatalf("serve.RunFaulty panicked with %v, want the error %q", v, err)
				}
			}()
			serve.RunFaulty(tc.opts, specs)
		})
	}
}

// TestPublicAPIRejectsBadInput feeds every public entry that takes options
// from outside — RunService, ParseFaults and its spec's Resolve,
// FaultSchedule.Validate and ParseArrivals — inputs it cannot honour. Each
// must return an error, and none may panic.
func TestPublicAPIRejectsBadInput(t *testing.T) {
	valid := amac.ServiceOptions{Hardware: amac.XeonX5670(), Technique: amac.AMAC, Window: 8}
	service := func(opts amac.ServiceOptions, edit func([]amac.ServiceWorker[amac.ProbeState])) func() error {
		return func() error {
			specs, _ := faultServiceWorkers(t)
			if edit != nil {
				edit(specs)
			}
			_, err := amac.RunService(amac.FaultyServiceOptions{Options: opts}, specs)
			return err
		}
	}
	unknown := valid
	unknown.Technique = amac.Technique(9)
	zeroHW := valid
	zeroHW.Hardware = amac.Hardware{}
	parse := func(spec string) func() error {
		return func() error { _, err := amac.ParseFaults(spec); return err }
	}
	resolve := func(spec string, shards int, horizon uint64) func() error {
		return func() error {
			sp, err := amac.ParseFaults(spec)
			if err != nil {
				t.Fatalf("ParseFaults(%q): %v", spec, err)
			}
			_, err = sp.Resolve(shards, horizon)
			return err
		}
	}
	validate := func(ep amac.FaultEpisode) func() error {
		return func() error { return (&amac.FaultSchedule{Episodes: []amac.FaultEpisode{ep}}).Validate(2) }
	}
	arrivals := func(name string, period float64) func() error {
		return func() error { _, err := amac.ParseArrivals(name, period); return err }
	}
	type badInput struct {
		name string
		run  func() error
	}
	cases := []badInput{
		{"service/unknown-technique", service(unknown, nil)},
		{"service/zero-hardware", service(zeroHW, nil)},
		{"service/nil-machine", service(valid, func(w []amac.ServiceWorker[amac.ProbeState]) { w[1].Machine = nil })},
		{"service/decreasing-arrivals", service(valid, func(w []amac.ServiceWorker[amac.ProbeState]) {
			a := w[0].Arrivals
			a[2], a[3] = a[3], a[2]
		})},
		{"faults/nan-factor", parse("slow:0@1000+50000xNaN")},
		{"faults/inf-factor", parse("spike:1@1000+50000xInf")},
		{"faults/k-overflow", parse("freeze:0@20000000000000000k+5")},
		{"faults/M-overflow", parse("freeze:0@5+20000000000000M")},
		{"faults/end-overflow", parse("crash:0@18446744073709551615+10")},
		{"faults/no-shards", resolve("rand:7", 0, 1_000_000)},
		{"faults/fixed-no-shards", resolve("crash:0@100+10", 0, 1_000_000)},
		{"faults/tiny-horizon", resolve("rand:7", 2, 7)},
		{"schedule/nan-factor", validate(amac.FaultEpisode{Kind: amac.FaultSlow, Start: 10, Dur: 10, Factor: math.NaN()})},
		{"schedule/inf-factor", validate(amac.FaultEpisode{Kind: amac.FaultSpike, Start: 10, Dur: 10, Factor: math.Inf(1)})},
		{"schedule/end-overflow", validate(amac.FaultEpisode{Kind: amac.FaultCrash, Start: math.MaxUint64, Dur: 10})},
		{"arrivals/deterministic-inf", arrivals("deterministic", math.Inf(1))},
		{"arrivals/poisson-nan", arrivals("poisson", math.NaN())},
		{"arrivals/bursty-neg-inf", arrivals("bursty", math.Inf(-1))},
	}
	for _, tc := range invalidServiceOptions() {
		opts := tc.opts
		cases = append(cases, badInput{"service/" + tc.name, func() error {
			specs, _ := faultServiceWorkers(t)
			_, err := amac.RunService(opts, specs)
			return err
		}})
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			defer func() {
				if v := recover(); v != nil {
					t.Fatalf("panicked: %v", v)
				}
			}()
			if err := tc.run(); err == nil {
				t.Fatal("no error")
			}
		})
	}
}
