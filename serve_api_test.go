package amac_test

import (
	"testing"

	"amac"
)

// TestServePublicAPIEndToEnd drives the exported streaming layer the way a
// library user would: generate an arrival schedule, feed a probe machine
// through a queue-fed source into streaming AMAC, and verify the join
// output matches the batch reference while the recorder accounts every
// request.
func TestServePublicAPIEndToEnd(t *testing.T) {
	build, probe, err := amac.BuildJoin(amac.JoinSpec{BuildSize: 1 << 10, ProbeSize: 1 << 10, ZipfBuild: 0.5, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	join := amac.NewHashJoin(build, probe)
	join.PrebuildRaw()
	wantCount, wantSum := join.ReferenceJoin()

	proc, err := amac.ParseArrivals("poisson", 400)
	if err != nil {
		t.Fatal(err)
	}
	arrivals := proc.Schedule(probe.Len(), 5)

	out := amac.NewOutput(join.Arena, false)
	src := amac.NewQueueSource(join.ProbeMachine(out, false), arrivals, 0, amac.QueueBlock, nil)
	c := amac.MustSystem(amac.XeonX5670()).NewCore()
	stats := amac.RunStream(c, src, amac.Options{Width: 10})

	if out.Count != wantCount || out.Checksum != wantSum {
		t.Fatalf("streamed output (%d, %#x) differs from reference (%d, %#x)", out.Count, out.Checksum, wantCount, wantSum)
	}
	if stats.Completed != probe.Len() {
		t.Fatalf("scheduler completed %d of %d requests", stats.Completed, probe.Len())
	}
	rec := src.Recorder()
	if rec.Completed != uint64(probe.Len()) || rec.Dropped != 0 {
		t.Fatalf("recorder completed=%d dropped=%d", rec.Completed, rec.Dropped)
	}
	if rec.P99() < rec.P50() || rec.MaxLatency < rec.P99() {
		t.Fatalf("latency quantiles out of order: p50=%d p99=%d max=%d", rec.P50(), rec.P99(), rec.MaxLatency)
	}
	if c.Stats().IdleCycles == 0 {
		t.Fatal("a paced arrival schedule should leave the core idle at times")
	}
}

// TestServiceTechniquesPublicAPI runs the sharded service once per
// technique through RunService and checks every engine serves the identical
// request set with identical join output.
func TestServiceTechniquesPublicAPI(t *testing.T) {
	const workers = 2
	build, probe, err := amac.BuildJoin(amac.JoinSpec{BuildSize: 1 << 10, ProbeSize: 1 << 10, Seed: 19})
	if err != nil {
		t.Fatal(err)
	}
	pj := amac.PartitionJoin(build, probe, workers)
	pj.PrebuildRaw()
	wantCount, wantSum := pj.ReferenceJoinFirstMatch()

	for _, tech := range amac.Techniques {
		outs := make([]*amac.Output, workers)
		specs := make([]amac.ServiceWorker[amac.ProbeState], workers)
		for w := 0; w < workers; w++ {
			outs[w] = amac.NewOutput(pj.Parts[w].Arena, false)
			outs[w].Sequential = true
			specs[w] = amac.ServiceWorker[amac.ProbeState]{
				Machine:  pj.ProbeMachine(w, outs[w], true),
				Arrivals: amac.Deterministic{Period: 500}.Schedule(pj.Parts[w].Probe.Len(), 0),
			}
		}
		res, err := amac.RunService(amac.FaultyServiceOptions{Options: amac.ServiceOptions{
			Hardware:  amac.XeonX5670(),
			Technique: tech,
			Window:    8,
		}}, specs)
		if err != nil {
			t.Fatal(err)
		}

		var count, sum uint64
		for _, out := range outs {
			count += out.Count
			sum += out.Checksum
		}
		if count != wantCount || sum != wantSum {
			t.Fatalf("%s: service output (%d, %#x) differs from reference (%d, %#x)", tech, count, sum, wantCount, wantSum)
		}
		if res.Latency.Completed != uint64(probe.Len()) {
			t.Fatalf("%s: recorder completed %d of %d", tech, res.Latency.Completed, probe.Len())
		}
		if res.ElapsedCycles() == 0 {
			t.Fatalf("%s: no elapsed cycles", tech)
		}
	}
}
