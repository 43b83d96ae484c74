package main

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"time"

	"amac"
	"amac/internal/experiments"
)

// benchEntry is one benchmark's record in the BENCH JSON file.
type benchEntry struct {
	Name        string  `json:"name"`
	Iters       int     `json:"iters"`
	NsPerOp     float64 `json:"ns_per_op"`
	BytesPerOp  float64 `json:"bytes_per_op"`
	AllocsPerOp float64 `json:"allocs_per_op"`
	// SimCycles is the simulated cycle count of one run (technique
	// micro-benchmarks only; experiments report wall time per artifact).
	SimCycles uint64 `json:"sim_cycles,omitempty"`
}

// benchFile is the emitted document.
type benchFile struct {
	GeneratedBy string       `json:"generated_by"`
	GoVersion   string       `json:"go_version"`
	Scale       string       `json:"scale"`
	Seed        uint64       `json:"seed"`
	Benchmarks  []benchEntry `json:"benchmarks"`
}

// minBenchTime is how long each benchmark accumulates iterations; long
// enough to amortize one-time workload construction, short enough that the
// full suite stays a smoke run.
const minBenchTime = 200 * time.Millisecond

// measure times f until minBenchTime has elapsed (at least twice), recording
// wall time, allocation counters and the simulated cycles f reports.
func measure(name string, f func() uint64) benchEntry {
	f() // warm-up: workload construction and caches are not the subject
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	start := time.Now()
	iters := 0
	var cycles uint64
	for time.Since(start) < minBenchTime || iters < 2 {
		cycles = f()
		iters++
	}
	elapsed := time.Since(start)
	runtime.ReadMemStats(&after)
	return benchEntry{
		Name:        name,
		Iters:       iters,
		NsPerOp:     float64(elapsed.Nanoseconds()) / float64(iters),
		BytesPerOp:  float64(after.TotalAlloc-before.TotalAlloc) / float64(iters),
		AllocsPerOp: float64(after.Mallocs-before.Mallocs) / float64(iters),
		SimCycles:   cycles,
	}
}

// runBenchSuite executes the benchmark suite — one entry per technique
// micro-benchmark (with simulated cycles) and one per registered experiment
// (wall time of the full artifact) — and writes the JSON document to path.
// A non-empty gatePath additionally compares the run against that committed
// baseline and errors on gross regressions (see checkBenchGate).
func runBenchSuite(path string, cfg experiments.Config, scale string, seed uint64, gatePath string) error {
	var out benchFile
	out.GeneratedBy = "amacbench -bench"
	out.GoVersion = runtime.Version()
	out.Scale = scale
	out.Seed = seed

	// Technique micro-benchmarks: wall-clock cost of simulating one probe
	// phase, with the simulated cycle count attached so bit-identity across
	// tool versions is checkable from the file alone.
	const probeSize = 1 << 16
	build, probe, err := amac.BuildJoin(amac.JoinSpec{BuildSize: probeSize, ProbeSize: probeSize, Seed: 3})
	if err != nil {
		return err
	}
	join := amac.NewHashJoin(build, probe)
	join.PrebuildRaw()
	joinOut := amac.NewOutput(join.Arena, false)
	for _, tech := range amac.Techniques {
		tech := tech
		out.Benchmarks = append(out.Benchmarks, measure("probe-uniform/"+tech.String(), func() uint64 {
			sys := amac.MustSystem(amac.XeonX5670())
			core := sys.NewCore()
			joinOut.Reset()
			amac.RunWith(core, join.ProbeMachine(joinOut, true), tech, amac.Params{Window: 10})
			return core.Cycle()
		}))
	}

	gbRel, err := amac.BuildGroupBy(amac.GroupBySpec{Size: 1 << 15, Repeats: 3, Zipf: 0.5, Seed: 3})
	if err != nil {
		return err
	}
	for _, tech := range amac.Techniques {
		tech := tech
		out.Benchmarks = append(out.Benchmarks, measure("groupby/"+tech.String(), func() uint64 {
			g := amac.NewGroupBy(gbRel, gbRel.Len()/3)
			sys := amac.MustSystem(amac.XeonX5670())
			core := sys.NewCore()
			amac.RunWith(core, g.Machine(), tech, amac.Params{Window: 10})
			return core.Cycle()
		}))
	}

	idxBuild, idxProbe, err := amac.BuildIndexWorkload(1<<15, 5)
	if err != nil {
		return err
	}
	bstW := amac.NewBSTWorkload(idxBuild, idxProbe)
	bstOut := amac.NewOutput(bstW.Arena, false)
	for _, tech := range amac.Techniques {
		tech := tech
		out.Benchmarks = append(out.Benchmarks, measure("bst-search/"+tech.String(), func() uint64 {
			sys := amac.MustSystem(amac.XeonX5670())
			core := sys.NewCore()
			bstOut.Reset()
			amac.RunWith(core, bstW.SearchMachine(bstOut), tech, amac.Params{Window: 10})
			return core.Cycle()
		}))
	}

	if err := servingBenchmarks(&out); err != nil {
		return err
	}

	// Experiment artifacts: wall time to regenerate each one end to end at
	// the requested scale (workload construction amortizes across
	// iterations through the experiments package's workload cache, exactly
	// as in a sweep).
	for _, d := range experiments.Registry() {
		id := d.ID
		out.Benchmarks = append(out.Benchmarks, measure("exp/"+id, func() uint64 {
			if _, err := experiments.Run(id, cfg); err != nil {
				fmt.Fprintf(os.Stderr, "amacbench: bench %s: %v\n", id, err)
				os.Exit(1)
			}
			return 0
		}))
	}

	buf, err := json.MarshalIndent(out, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, append(buf, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "amacbench: wrote %d benchmark entries to %s\n", len(out.Benchmarks), path)
	if gatePath != "" {
		return checkBenchGate(out, gatePath)
	}
	return nil
}

// gateRatio is the regression threshold of the CI bench gate: a benchmark
// may not run more than this factor slower than the committed baseline.
// Generous on purpose — CI runners differ from the recording host, and the
// gate is meant to catch gross bit-rot (an accidentally quadratic path, a
// lost pool), not single-digit noise.
const gateRatio = 3.0

// checkBenchGate compares the just-measured suite against a committed
// baseline file and errors out if any shared benchmark regressed by more
// than gateRatio in ns/op. The baseline may be a plain -bench output file or
// a BENCH_pr*.json record holding one under "amacbench_bench".
func checkBenchGate(current benchFile, baselinePath string) error {
	buf, err := os.ReadFile(baselinePath)
	if err != nil {
		return err
	}
	var wrapped struct {
		AmacbenchBench *benchFile `json:"amacbench_bench"`
	}
	var base benchFile
	if err := json.Unmarshal(buf, &wrapped); err == nil && wrapped.AmacbenchBench != nil {
		base = *wrapped.AmacbenchBench
	} else if err := json.Unmarshal(buf, &base); err != nil {
		return fmt.Errorf("bench gate: cannot parse baseline %s: %v", baselinePath, err)
	}

	if base.Scale != "" && base.Scale != current.Scale {
		return fmt.Errorf("bench gate: baseline %s was recorded at scale %q but this run used %q; ns/op is only comparable at the same scale",
			baselinePath, base.Scale, current.Scale)
	}

	baseline := make(map[string]float64, len(base.Benchmarks))
	for _, b := range base.Benchmarks {
		baseline[b.Name] = b.NsPerOp
	}
	var failures []string
	shared := 0
	for _, b := range current.Benchmarks {
		want, ok := baseline[b.Name]
		if !ok || want <= 0 {
			continue
		}
		shared++
		if b.NsPerOp > gateRatio*want {
			failures = append(failures, fmt.Sprintf("%s: %.0f ns/op vs baseline %.0f (%.1fx > %.1fx)",
				b.Name, b.NsPerOp, want, b.NsPerOp/want, gateRatio))
		}
	}
	if shared == 0 {
		return fmt.Errorf("bench gate: baseline %s shares no benchmark names with this run", baselinePath)
	}
	if len(failures) > 0 {
		for _, f := range failures {
			fmt.Fprintln(os.Stderr, "amacbench: bench gate FAIL:", f)
		}
		return fmt.Errorf("bench gate: %d of %d shared benchmarks regressed more than %.0fx", len(failures), shared, gateRatio)
	}
	fmt.Fprintf(os.Stderr, "amacbench: bench gate OK (%d shared benchmarks within %.0fx of %s)\n", shared, gateRatio, baselinePath)
	return nil
}

// chainState/chainMachine form a compute-only operator for the
// serving-machinery benchmarks: each lookup runs `stages` code stages that
// charge one abstract instruction and touch no simulated memory.
type chainState struct{ left int }

type chainMachine struct{ n, stages int }

func (m chainMachine) NumLookups() int        { return m.n }
func (m chainMachine) ProvisionedStages() int { return m.stages }

func (m chainMachine) Init(c *amac.Core, s *chainState, i int) amac.Outcome {
	c.Instr(1)
	s.left = m.stages - 1
	if s.left <= 0 {
		return amac.Outcome{Done: true}
	}
	return amac.Outcome{NextStage: 1}
}

func (m chainMachine) Stage(c *amac.Core, s *chainState, stage int) amac.Outcome {
	c.Instr(1)
	if s.left--; s.left <= 0 {
		return amac.Outcome{Done: true}
	}
	return amac.Outcome{NextStage: stage}
}

// Serving benchmark workload knobs. The join is LLC-resident and skewed
// (long divergent chains, the serveN shape); the arrival period is chosen so
// the queue stays busy without unbounded growth for AMAC.
const (
	srvBenchSize   = 1 << 13
	srvBenchSeed   = 3
	srvBenchPeriod = 260
)

// servingBenchmarks appends the serving/streaming entries: one full
// open-loop serving run per technique (Poisson arrivals near capacity) and
// one fully backlogged stream replay per technique (every request due at
// cycle 0, so the run measures the steady-state serving fast path — queue
// admit/pop, stream scheduling, completion accounting — with no idle time).
func servingBenchmarks(out *benchFile) error {
	build, probe, err := amac.BuildJoin(amac.JoinSpec{BuildSize: srvBenchSize, ProbeSize: srvBenchSize, ZipfBuild: 1.0, Seed: srvBenchSeed})
	if err != nil {
		return err
	}
	join := amac.NewHashJoin(build, probe)
	join.PrebuildRaw()
	srvOut := amac.NewOutput(join.Arena, false)
	arrivals := amac.Poisson{MeanPeriod: srvBenchPeriod}.Schedule(srvBenchSize, 7)
	backlog := make([]uint64, srvBenchSize) // everything due at cycle 0
	// runErr keeps the first RunService error; that run counts zero cycles.
	var runErr error

	serveOnce := func(tech amac.Technique, arr []uint64) uint64 {
		srvOut.Reset()
		res := runService(&runErr, amac.ServiceOptions{
			Hardware:  amac.XeonX5670(),
			Technique: tech,
			Window:    10,
		}, []amac.ServiceWorker[amac.ProbeState]{{
			Machine:  join.ProbeMachine(srvOut, true),
			Arrivals: arr,
		}})
		return res.ElapsedCycles()
	}

	for _, tech := range amac.Techniques {
		tech := tech
		out.Benchmarks = append(out.Benchmarks, measure("serve-run/"+tech.String(), func() uint64 {
			return serveOnce(tech, arrivals)
		}))
	}
	for _, tech := range amac.Techniques {
		tech := tech
		out.Benchmarks = append(out.Benchmarks, measure("stream-backlog/"+tech.String(), func() uint64 {
			return serveOnce(tech, backlog)
		}))
	}
	// Serving-machinery benchmarks: a compute-only chain machine (no memory
	// accesses, so the memory-hierarchy model contributes almost nothing)
	// streamed from a fully backlogged queue. What remains is exactly the
	// serving fast path — ring admit/pop, engine slot scheduling, pooled
	// per-request state, recycled socket models, latency recording — which
	// is what this suite's serving entries exist to track.
	mach := chainMachine{n: 1 << 15, stages: 4}
	machBacklog := make([]uint64, mach.n)
	for _, tech := range amac.Techniques {
		tech := tech
		var machOut uint64
		out.Benchmarks = append(out.Benchmarks, measure("serve-machinery/"+tech.String(), func() uint64 {
			res := runService(&runErr, amac.ServiceOptions{
				Hardware:  amac.XeonX5670(),
				Technique: tech,
				Window:    10,
			}, []amac.ServiceWorker[chainState]{{
				Machine:  mach,
				Arrivals: machBacklog,
			}})
			machOut = res.Latency.Completed
			return res.ElapsedCycles()
		}))
		if runErr == nil && machOut != uint64(mach.n) {
			return fmt.Errorf("serve-machinery/%s: completed %d of %d requests", tech, machOut, mach.n)
		}
	}

	// Observability pair: the AMAC serving run with the trace and metrics
	// sinks attached versus the untraced serve-run/AMAC entry above. The
	// untraced arm is the guarded (disabled) path; the gate holds it to the
	// committed pre-instrumentation baseline, and the traced arm documents
	// the price of full event recording.
	out.Benchmarks = append(out.Benchmarks, measure("serve-obs/off", func() uint64 {
		return serveOnce(amac.AMAC, arrivals)
	}))
	out.Benchmarks = append(out.Benchmarks, measure("serve-obs/on", func() uint64 {
		srvOut.Reset()
		res := runService(&runErr, amac.ServiceOptions{
			Hardware:  amac.XeonX5670(),
			Technique: amac.AMAC,
			Window:    10,
			Trace:     amac.NewTrace(0),
			Metrics:   amac.NewMetrics(0),
		}, []amac.ServiceWorker[amac.ProbeState]{{
			Machine:  join.ProbeMachine(srvOut, true),
			Arrivals: arrivals,
		}})
		return res.ElapsedCycles()
	}))

	// Bounded drop queue under bursty overload: exercises the admission
	// ring's wrap-around and the drop accounting.
	bursty := amac.Bursty{Period: 60, BurstLen: 128, Off: 24000}.Schedule(srvBenchSize, 11)
	out.Benchmarks = append(out.Benchmarks, measure("serve-drop/AMAC", func() uint64 {
		srvOut.Reset()
		res := runService(&runErr, amac.ServiceOptions{
			Hardware:  amac.XeonX5670(),
			Technique: amac.AMAC,
			Window:    10,
			QueueCap:  64,
			Policy:    amac.QueueDrop,
		}, []amac.ServiceWorker[amac.ProbeState]{{
			Machine:  join.ProbeMachine(srvOut, true),
			Arrivals: bursty,
		}})
		return res.ElapsedCycles()
	}))
	return runErr
}

// runService runs one serving benchmark through amac.RunService, keeping
// the first error in *errp for servingBenchmarks to return: measure's
// closures report cycles only.
func runService[S any](errp *error, opts amac.ServiceOptions, workers []amac.ServiceWorker[S]) amac.ServiceResult {
	res, err := amac.RunService(amac.FaultyServiceOptions{Options: opts}, workers)
	if *errp == nil {
		*errp = err
	}
	return res
}
