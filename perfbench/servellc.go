package main

import (
	"fmt"

	"amac/internal/exec"
	"amac/internal/fault"
	"amac/internal/memsim"
	"amac/internal/obs"
	"amac/internal/ops"
	"amac/internal/prof"
	"amac/internal/relation"
	"amac/internal/serve"
)

// shards is serve-llc's worker count: the only concurrency in the benchmark.
const shards = 2

// serveLLC serves partitioned hash joins on two shards whose tables fit
// their share of the LLC: open-loop Poisson arrivals on the simulated clock,
// latency measured from arrival, tables warmed through Prepare. The run's
// requests are split over several independently drawn inputs, because the
// serving tail under Zipf(1.0) keys depends on where the hot keys' chains
// land; every cell serves every draw, and the cell's figures pool them.
type serveLLC struct {
	sz    sizes
	draws []*serveDraw
}

// serveDraw is one generated serving input: the partitioned join, one
// output collector per shard (shared by every cell, so every cell charges
// the same simulated addresses), and the arrival schedules calibrated on it.
type serveDraw struct {
	pj   *ops.PartitionedHashJoin
	outs []*ops.Output
	// capacity is AMAC's aggregate batch service rate in requests per
	// cycle; loads are fractions of it.
	capacity float64
	arrivals map[float64][][]uint64 // load -> per-shard schedule

	refCount, refSum uint64
}

// serveCell is one fixed-technique serving configuration.
type serveCell struct {
	tech ops.Technique
	load float64
}

func (sc serveCell) label() string { return fmt.Sprintf("%s-%.1f", sc.tech, sc.load) }

// plainCells run through serve.Run in this order. The first is the
// reference of the fault and instrumentation cells that follow them; the
// second is the designated latency cell.
var plainCells = []serveCell{
	{ops.AMAC, 0.9}, {ops.AMAC, 0.5}, {ops.AMAC, 1.2}, {ops.GP, 0.9}, {ops.Baseline, 0.9},
}

func (w *serveLLC) inputs() string {
	return fmt.Sprintf("%d draws of |R| = 2^%d Zipf(1.0) build keys, 2^%d Poisson requests in all over %d shards, warmed tables",
		w.sz.serveDraws, w.sz.serveBuildLog, w.sz.serveProbeLog, shards)
}

// drawSeed derives draw k's seed from the run's seed; draws and their
// arrival streams never share a seed.
func drawSeed(seed uint64, k int) uint64 { return seed*1000 + uint64(k)*10 }

func (w *serveLLC) setup(e *env) error {
	w.draws = nil
	requests := (1 << w.sz.serveProbeLog) / w.sz.serveDraws
	for k := 0; k < w.sz.serveDraws; k++ {
		seed := drawSeed(e.seed, k)
		var build, probe *relation.Relation
		var err error
		gen := e.call("relation.gen", func() {
			build, probe, err = relation.BuildJoin(relation.JoinSpec{
				BuildSize: 1 << w.sz.serveBuildLog, ProbeSize: requests, ZipfBuild: 1.0, Seed: seed,
			})
		})
		if err != nil {
			return err
		}
		e.sample("relation.gen_s", gen.secs)
		d := &serveDraw{}
		mat := e.call("ops.materialize", func() {
			d.pj = ops.PartitionJoin(build, probe, shards)
			d.pj.PrebuildRaw()
			d.outs = make([]*ops.Output, shards)
			for s := range d.outs {
				d.outs[s] = ops.NewOutput(d.pj.Parts[s].Arena, false)
				d.outs[s].Sequential = true // dense per-shard output partition
			}
		})
		e.sample("ops.materialize_s", mat.secs)
		d.calibrate(e, seed)
		if d.capacity <= 0 {
			return fmt.Errorf("serve-llc: calibration measured no capacity")
		}
		w.draws = append(w.draws, d)
	}
	return nil
}

// calibrate measures AMAC's aggregate batch capacity on the shards' warmed
// cores, total requests over the slowest shard's cycles, and draws every
// load's arrival schedule from it.
func (d *serveDraw) calibrate(e *env, seed uint64) {
	hw := memsim.XeonX5670().ShareLLC(shards)
	cores := make([]*memsim.Core, shards)
	machines := make([]*ops.ProbeMachine, shards)
	for s := range cores {
		acq := e.call("memsim.acquire", func() {
			sys := memsim.MustSystem(hw)
			cores[s] = sys.NewCore()
			sys.SetActiveThreads(shards, cores[s])
		})
		e.sample("memsim.acquire_us", acq.secs*1e6)
		warmTable(cores[s], d.pj.Parts[s])
		cores[s].ResetStats()
		d.outs[s].Reset()
		machines[s] = d.pj.ProbeMachine(s, d.outs[s], true)
	}
	ps := exec.RunParallel(cores, func(s int, c *memsim.Core) {
		ops.RunMachine(c, machines[s], ops.AMAC, ops.Params{Window: window})
	})
	total := d.pj.ProbeTuples()
	d.capacity = ratio(float64(total), float64(ps.Merged.Cycles))
	d.arrivals = make(map[float64][][]uint64)
	for _, sc := range plainCells {
		if _, ok := d.arrivals[sc.load]; ok {
			continue
		}
		sched := make([][]uint64, shards)
		for s := range sched {
			n := d.pj.Parts[s].Probe.Len()
			// Shard s takes its share of the offered rate, so every shard's
			// stream spans the same simulated time.
			period := float64(total) / (sc.load * d.capacity * float64(n))
			sched[s] = serve.Poisson{MeanPeriod: period}.Schedule(n, seed+uint64(s)+1)
		}
		d.arrivals[sc.load] = sched
	}
}

func (w *serveLLC) oracle() {
	for _, d := range w.draws {
		d.refCount, d.refSum = d.pj.ReferenceJoinFirstMatch()
	}
}

// options returns a configuration's serving options and per-shard workers
// on this draw.
func (d *serveDraw) options(sc serveCell) (serve.Options, []serve.Worker[ops.ProbeState]) {
	specs := make([]serve.Worker[ops.ProbeState], shards)
	for s := range specs {
		d.outs[s].Reset()
		specs[s] = serve.Worker[ops.ProbeState]{
			Machine:  d.pj.ProbeMachine(s, d.outs[s], true),
			Arrivals: d.arrivals[sc.load][s],
		}
	}
	opts := serve.Options{
		Hardware:  memsim.XeonX5670(),
		Technique: sc.tech,
		Window:    window,
		Prepare:   func(s int, c *memsim.Core) { warmTable(c, d.pj.Parts[s]) },
	}
	return opts, specs
}

// check verifies one draw's serving result: every shard accounts for every
// offered request, and, when exact, the output is the reference join's
// (otherwise, with requests lost to deadlines, no larger than it). It
// returns the digest of the draw's simulated results.
func (d *serveDraw) check(res serve.Result, exact bool) (uint64, error) {
	var count, sum uint64
	var parts []any
	var err error
	for s, wr := range res.PerWorker {
		r := wr.Latency
		count += d.outs[s].Count
		sum += d.outs[s].Checksum
		parts = append(parts, wr.Stats, *r, wr.Sched, d.outs[s].Count, d.outs[s].Checksum)
		if got := r.Completed + r.Dropped + r.TimedOut + r.Failed + r.Shed; got != r.Offered && err == nil {
			err = fmt.Errorf("shard %d resolved %d of %d offered requests", s, got, r.Offered)
		}
	}
	switch {
	case err != nil:
	case exact && (count != d.refCount || sum != d.refSum):
		err = fmt.Errorf("output count %d checksum %x, reference join %d %x", count, sum, d.refCount, d.refSum)
	case !exact && count > d.refCount:
		err = fmt.Errorf("output count %d exceeds the reference join's %d", count, d.refCount)
	}
	return digest(parts...), err
}

// servedCell is one configuration run on every draw.
type servedCell struct {
	cell
	allocs  uint64          // heap allocations over all draws
	results []serve.Result  // per draw
	digests []uint64        // per draw
	merged  *serve.Recorder // every draw's requests
}

// serveAll runs one configuration on every draw through run, timing each
// call as a span named span, and folds the draws into one cell.
func (w *serveLLC) serveAll(e *env, name, span string, sc serveCell, exact bool,
	run func(k int, opts serve.Options, specs []serve.Worker[ops.ProbeState]) serve.Result) servedCell {
	c := servedCell{cell: cell{name: name}, merged: &serve.Recorder{}}
	for k, d := range w.draws {
		opts, specs := d.options(sc)
		var res serve.Result
		st := e.call(span, func() { res = run(k, opts, specs) })
		dig, err := d.check(res, exact)
		if err != nil && c.err == nil {
			c.err = fmt.Errorf("draw %d: %w", k, err)
		}
		c.hostS += st.secs
		c.allocs += st.allocs
		c.results = append(c.results, res)
		c.digests = append(c.digests, dig)
		c.merged.Merge(&res.Latency)
		for _, wr := range res.PerWorker {
			c.cycles += wr.Stats.Cycles - wr.Stats.IdleCycles
			c.stats.Add(wr.Stats)
		}
	}
	r := c.merged
	c.work, c.served, c.offered = int(r.Completed), int(r.Completed), int(r.Offered)
	c.digest = digest(c.digests)
	c.lat = recorderLatencies{r}
	return c
}

func (w *serveLLC) pass(e *env) passOut {
	var out passOut
	plain := func(k int, opts serve.Options, specs []serve.Worker[ops.ProbeState]) serve.Result {
		return serve.Run(opts, specs)
	}
	var ref servedCell
	var dropped, offered uint64
	for i, sc := range plainCells {
		c := w.serveAll(e, "serve.Run."+sc.label(), "serve.Run", sc, true, plain)
		e.sample("serve.Run."+sc.label()+".ns_per_req", c.hostS*1e9/float64(c.offered))
		e.sample("serve.Run.allocs_per_run", float64(c.allocs)/float64(len(w.draws)))
		dropped += c.merged.Dropped
		offered += c.merged.Offered
		switch i {
		case 0:
			ref = c
		case 1:
			out.lat = c.lat
		}
		out.cells = append(out.cells, c.cell)
	}
	e.sample("serve.dropped_frac", ratio(float64(dropped), float64(offered)))

	// AMAC at 0.9 through the fault coordinator: shard 0 runs at 4x memory
	// latency for the middle half of the arrivals, and every request has a
	// deadline of twice the clean cell's p99 on the same draw.
	ref09 := plainCells[0]
	f := w.serveAll(e, "serve.RunFaulty.AMAC-0.9", "serve.RunFaulty", ref09, false,
		func(k int, opts serve.Options, specs []serve.Worker[ops.ProbeState]) serve.Result {
			var horizon uint64
			for _, a := range w.draws[k].arrivals[ref09.load] {
				if n := len(a); n > 0 && a[n-1] > horizon {
					horizon = a[n-1]
				}
			}
			return serve.RunFaulty(serve.FaultyOptions{
				Options: opts,
				Faults: &fault.Schedule{Episodes: []fault.Episode{
					{Kind: fault.Slow, Shard: 0, Start: horizon / 4, Dur: horizon / 2, Factor: 4},
				}},
				Deadline: 2 * ref.results[k].Latency.P99(),
			}, specs)
		})
	e.sample("serve.RunFaulty.ns_per_req", f.hostS*1e9/float64(f.offered))
	e.sample("fault.coordinator_ratio", ratio(f.hostS, ref.hostS))
	e.sample("fault.timed_out_frac", ratio(float64(f.merged.TimedOut), float64(f.merged.Offered)))
	out.cells = append(out.cells, f.cell)

	// AMAC at 0.9 with every instrumentation sink attached: its simulated
	// results must be the plain cell's, byte for byte, and its profile must
	// attribute exactly the cycles each shard's core ran.
	var events, droppedEvents, attributed uint64
	var profErr error
	inst := w.serveAll(e, "serve.Run.AMAC-0.9+obs+prof", "serve.Run+obs", ref09, true,
		func(k int, opts serve.Options, specs []serve.Worker[ops.ProbeState]) serve.Result {
			opts.Trace = obs.NewTrace(0)
			opts.Metrics = obs.NewMetrics(0)
			opts.Profile = prof.NewProfile()
			res := serve.Run(opts, specs)
			for _, ct := range opts.Trace.Cores() {
				events += uint64(ct.Len())
				droppedEvents += ct.Dropped()
			}
			for s, cp := range opts.Profile.Cores() {
				if got, want := cp.TotalCycles(), res.PerWorker[s].Stats.Cycles; got != want && profErr == nil {
					profErr = fmt.Errorf("draw %d shard %d: profile attributes %d cycles, core ran %d", k, s, got, want)
				}
			}
			attributed += opts.Profile.TotalCycles()
			return res
		})
	switch {
	case inst.err != nil:
	case profErr != nil:
		inst.err = profErr
	case inst.digest != ref.digest:
		inst.err = fmt.Errorf("instrumented results differ from the plain AMAC-0.9 cell")
	}
	e.sample("obs.on_off_ratio", ratio(inst.hostS, ref.hostS))
	e.sample("obs.allocs_on", float64(inst.allocs)/float64(len(w.draws)))
	e.sample("obs.events", float64(events))
	e.sample("obs.dropped_events", float64(droppedEvents))
	e.sample("prof.attributed_cycles", float64(attributed))
	out.cells = append(out.cells, inst.cell)
	return out
}
