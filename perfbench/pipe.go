package main

import (
	"fmt"
	"sort"

	"amac/internal/adapt"
	"amac/internal/arena"
	"amac/internal/ht"
	"amac/internal/memsim"
	"amac/internal/ops"
	"amac/internal/pipeline"
	"amac/internal/relation"
	"amac/internal/serve"
)

// pipeLoad is the offered load of the served chain cell, as a fraction of
// the chain's batch capacity under the planner's assignment.
const pipeLoad = 0.9

// pipeWrite runs two streaming plans: build→probe→aggregate, whose charged
// hash-build prelude inserts and whose group-by sink read-modify-writes
// simulated memory, and a 3-way join chain whose middle stage probes a
// cache-resident dimension table. Each pass plans each on a fresh builder,
// runs the planner's assignment and per-stage adaptive controllers, and
// serves the chain at 0.9 of its planned batch capacity. Every run starts
// on a fresh core with cold caches.
type pipeWrite struct {
	sz sizes

	aggBuild, aggProbe, chainProbe *relation.Relation
	// arrivals is the served chain's schedule, drawn at set-up from the
	// planned chain's measured batch capacity.
	arrivals []uint64

	refGroups        map[uint64]ht.Aggregates
	refCount, refSum uint64
}

func (w *pipeWrite) inputs() string {
	return fmt.Sprintf("2^%d root rows per plan, build tables 2^%d, chain dimension table 2^%d, %d groups, planner sample %d",
		w.sz.pipeRowsLog, w.sz.pipeBuildLog, w.sz.pipeDimLog, w.sz.pipeGroups, w.sz.pipeSample)
}

// adaptConfig sizes the adaptive controllers' segments for plans of this
// size.
var adaptConfig = adapt.Config{SegmentLookups: 2048, ProbeLookups: 256}

// pipeRel builds a relation from per-row key and payload functions.
func pipeRel(name string, n int, key, payload func(i int) uint64) *relation.Relation {
	t := make([]relation.Tuple, n)
	for i := range t {
		t[i] = relation.Tuple{Key: key(i), Payload: payload(i)}
	}
	return &relation.Relation{Name: name, Tuples: t}
}

func (w *pipeWrite) setup(e *env) error {
	w.aggBuild, w.aggProbe, w.chainProbe, w.arrivals = nil, nil, nil, nil
	rows, build := 1<<w.sz.pipeRowsLog, uint64(1)<<w.sz.pipeBuildLog
	groups, seed := uint64(w.sz.pipeGroups), e.seed
	gen := e.call("relation.gen", func() {
		// Build payloads are the group ids; probe keys cover twice the build
		// domain, so about half the probe rows join.
		w.aggBuild = pipeRel("R", int(build),
			func(i int) uint64 { return uint64(i) + 1 },
			func(i int) uint64 { return uint64(i) % groups })
		w.aggProbe = pipeRel("S", rows,
			func(i int) uint64 { return (uint64(i)*2654435761+seed)%(2*build) + 1 },
			func(i int) uint64 { return uint64(i) })
		w.chainProbe = pipeRel("S", rows,
			func(i int) uint64 { return (uint64(i)*2654435761+seed)%build + 1 },
			func(i int) uint64 { return (uint64(i)*2246822519+seed)%build + 1 })
	})
	e.sample("relation.gen_s", gen.secs)

	// Calibration: plan the chain and run it once in batch, to fix the
	// served cell's arrival rate.
	cw := w.chain(e)
	var choice pipeline.PlanChoice
	e.call("pipeline.Plan", func() { choice = cw.b.Plan(memsim.XeonX5670(), w.sz.pipeSample, adapt.Config{}) })
	c := w.core(e)
	e.call("pipeline.Run", func() { cw.b.Build(cw.out).Run(c, choice.Configs) })
	if c.Cycle() == 0 {
		return fmt.Errorf("pipe-write: calibration run took no cycles")
	}
	period := float64(c.Cycle()) / float64(rows) / pipeLoad
	w.arrivals = serve.Poisson{MeanPeriod: period}.Schedule(rows, seed+1)
	return nil
}

func (w *pipeWrite) oracle() {
	groups := uint64(w.sz.pipeGroups)
	build := uint64(len(w.aggBuild.Tuples))
	w.refGroups = make(map[uint64]ht.Aggregates)
	for _, t := range w.aggProbe.Tuples {
		if t.Key > build {
			continue // no build row: the early-exit probe emits nothing
		}
		g := (t.Key - 1) % groups
		a, ok := w.refGroups[g]
		if !ok {
			a = ht.Aggregates{Key: g, Min: t.Payload, Max: t.Payload}
		}
		a.Count++
		a.Sum += t.Payload
		a.SumSq += t.Payload * t.Payload
		a.Min = min(a.Min, t.Payload)
		a.Max = max(a.Max, t.Payload)
		w.refGroups[g] = a
	}

	// Every chain row survives all three joins (each stage's key domain is
	// the next table's), and the sink emits (rid, p, p*1000, p) for the
	// row's carried attribute p. A reference collector folds those rows
	// with the output's own checksum.
	a := arena.New()
	ref := ops.NewOutput(a, false)
	c := memsim.MustSystem(memsim.XeonX5670()).NewCore()
	for i, t := range w.chainProbe.Tuples {
		ref.Emit(c, i, t.Payload, t.Payload*1000, t.Payload)
	}
	w.refCount, w.refSum = ref.Count, ref.Checksum
}

// aggPlan is one materialized build→probe→aggregate plan.
type aggPlan struct {
	b   *pipeline.Builder
	agg *ht.AggTable
}

// agg materializes the aggregate plan in a fresh arena. With prelude the
// hash build is a charged phase of the run; without it the table is
// pre-built uncharged, which is what the planner needs.
func (w *pipeWrite) agg(e *env, prelude bool) aggPlan {
	var p aggPlan
	st := e.call("ops.materialize", func() {
		a := arena.New()
		build := len(w.aggBuild.Tuples)
		table := ht.New(a, build/ops.TuplesPerBucket)
		p.agg = ht.NewAgg(a, w.sz.pipeGroups)
		bin := ops.NewInput(a, w.aggBuild)
		pin := ops.NewInput(a, w.aggProbe)
		p.b = pipeline.NewBuilder(a)
		if prelude {
			p.b.PreludeBuild(table, bin)
		} else {
			for _, t := range w.aggBuild.Tuples {
				table.InsertRaw(t.Key, t.Payload)
			}
		}
		p.b.ScanProbe(table, pin, true)
		p.b.Aggregate(p.agg, pipeline.SelBuildPayload)
	})
	e.sample("ops.materialize_s", st.secs)
	return p
}

// chainPlan is one materialized 3-way join chain.
type chainPlan struct {
	b   *pipeline.Builder
	out *ops.Output
}

// chain materializes the 3-way join chain in a fresh arena: a DRAM-resident
// root join, a cache-resident dimension join on the root's matched payload,
// and a DRAM-resident tail join on the row's carried attribute.
func (w *pipeWrite) chain(e *env) chainPlan {
	var p chainPlan
	n, dim := uint64(1)<<w.sz.pipeBuildLog, uint64(1)<<w.sz.pipeDimLog
	st := e.call("ops.materialize", func() {
		a := arena.New()
		mk := func(size uint64, pay func(k uint64) uint64) *ht.Table {
			t := ht.New(a, int(size)/ops.TuplesPerBucket)
			for k := uint64(1); k <= size; k++ {
				t.InsertRaw(k, pay(k))
			}
			return t
		}
		t1 := mk(n, func(k uint64) uint64 { return (k*7)%dim + 1 })
		t2 := mk(dim, func(k uint64) uint64 { return (k*2654435761)%n + 1 })
		t3 := mk(n, func(k uint64) uint64 { return k * 1000 })
		pin := ops.NewInput(a, w.chainProbe)
		p.out = ops.NewOutput(a, false)
		p.b = pipeline.NewBuilder(a)
		p.b.ScanProbe(t1, pin, true)
		p.b.Probe(t2, pipeline.SelBuildPayload, true)
		p.b.Probe(t3, pipeline.SelProbePayload, true)
	})
	e.sample("ops.materialize_s", st.secs)
	return p
}

// core acquires a fresh measured core with cold caches.
func (w *pipeWrite) core(e *env) *memsim.Core {
	var c *memsim.Core
	st := e.call("memsim.acquire", func() { c = memsim.MustSystem(memsim.XeonX5670()).NewCore() })
	e.sample("memsim.acquire_us", st.secs*1e6)
	return c
}

// controllers returns one adaptive controller per stage.
func controllers(c *memsim.Core, stages int) []*adapt.Controller {
	ctls := make([]*adapt.Controller, stages)
	for i := range ctls {
		ctls[i] = adapt.NewControllerFor(c, adaptConfig)
	}
	return ctls
}

// sampleAdapt records the controllers' decision log length and switches.
func sampleAdapt(e *env, ctls []*adapt.Controller) {
	var decisions, switches int
	for _, ctl := range ctls {
		info := ctl.Info()
		decisions += len(info.Decisions)
		switches += info.Switches
	}
	e.sample("adapt.decisions_per_run", float64(decisions))
	e.sample("adapt.switches", float64(switches))
}

// pipeCell turns a pipeline run into a cell.
func pipeCell(name string, st callStat, c *memsim.Core, res pipeline.Result, rows int, extra ...any) cell {
	stats := c.Stats()
	return cell{name: name, hostS: st.secs, work: rows, cycles: stats.Cycles - stats.IdleCycles, stats: stats,
		digest: digest(append([]any{stats, res}, extra...)...)}
}

// checkGroups compares the aggregate table with the reference groups.
func (w *pipeWrite) checkGroups(agg *ht.AggTable) error {
	got := agg.Groups()
	if len(got) != len(w.refGroups) {
		return fmt.Errorf("%d groups, reference has %d", len(got), len(w.refGroups))
	}
	for _, g := range got {
		if want := w.refGroups[g.Key]; g != want {
			return fmt.Errorf("group %d is %+v, reference %+v", g.Key, g, want)
		}
	}
	return nil
}

// groupsDigest orders the groups canonically for digesting.
func groupsDigest(agg *ht.AggTable) []ht.Aggregates {
	g := agg.Groups()
	sort.Slice(g, func(i, j int) bool { return g[i].Key < g[j].Key })
	return g
}

func (w *pipeWrite) checkOut(out *ops.Output) error {
	if out.Count != w.refCount || out.Checksum != w.refSum {
		return fmt.Errorf("output count %d checksum %x, reference %d %x", out.Count, out.Checksum, w.refCount, w.refSum)
	}
	return nil
}

func (w *pipeWrite) pass(e *env) passOut {
	var out passOut
	hw := memsim.XeonX5670()
	rows := len(w.aggProbe.Tuples)
	plan := func(name string, b *pipeline.Builder) pipeline.PlanChoice {
		var choice pipeline.PlanChoice
		st := e.call("pipeline.Plan", func() { choice = b.Plan(hw, w.sz.pipeSample, adapt.Config{}) })
		e.sample("pipeline.Plan.ms", st.secs*1e3)
		e.sample("pipeline.Plan.sim_cycles", float64(choice.PlanCycles))
		out.cells = append(out.cells, cell{name: name, hostS: st.secs, digest: digest(choice)})
		return choice
	}

	// build→probe→aggregate: planned on a pre-built twin, then run twice
	// on fresh arenas whose prelude builds the table.
	aggChoice := plan("pipeline.Plan.agg", w.agg(e, false).b)
	p := w.agg(e, true)
	c := w.core(e)
	var res pipeline.Result
	st := e.call("pipeline.Run", func() { res = p.b.Build(nil).Run(c, aggChoice.Configs) })
	cl := pipeCell("pipeline.Run.agg", st, c, res, rows, groupsDigest(p.agg))
	cl.err = w.checkGroups(p.agg)
	e.sample("pipeline.Run.agg.ns_per_row", st.secs*1e9/float64(rows))
	e.sample("pipeline.Run.allocs_per_run", float64(st.allocs))
	out.cells = append(out.cells, cl)

	p = w.agg(e, true)
	c = w.core(e)
	ctls := controllers(c, 2)
	st = e.call("pipeline.RunAdaptive", func() { res = p.b.Build(nil).RunAdaptive(c, ctls) })
	cl = pipeCell("pipeline.RunAdaptive.agg", st, c, res, rows, groupsDigest(p.agg))
	cl.err = w.checkGroups(p.agg)
	e.sample("pipeline.RunAdaptive.ns_per_row", st.secs*1e9/float64(rows))
	sampleAdapt(e, ctls)
	out.cells = append(out.cells, cl)

	// The 3-way chain: planned, run and served on one fresh builder; the
	// probed tables are read-only, and the sink collector resets per run.
	ch := w.chain(e)
	chainChoice := plan("pipeline.Plan.chain", ch.b)
	ch.out.Reset()
	c = w.core(e)
	st = e.call("pipeline.Run", func() { res = ch.b.Build(ch.out).Run(c, chainChoice.Configs) })
	cl = pipeCell("pipeline.Run.chain", st, c, res, rows, ch.out.Count, ch.out.Checksum)
	cl.err = w.checkOut(ch.out)
	e.sample("pipeline.Run.chain.ns_per_row", st.secs*1e9/float64(rows))
	e.sample("pipeline.Run.allocs_per_run", float64(st.allocs))
	out.cells = append(out.cells, cl)

	ch.out.Reset()
	c = w.core(e)
	ctls = controllers(c, 3)
	st = e.call("pipeline.RunAdaptive", func() { res = ch.b.Build(ch.out).RunAdaptive(c, ctls) })
	cl = pipeCell("pipeline.RunAdaptive.chain", st, c, res, rows, ch.out.Count, ch.out.Checksum)
	cl.err = w.checkOut(ch.out)
	e.sample("pipeline.RunAdaptive.ns_per_row", st.secs*1e9/float64(rows))
	sampleAdapt(e, ctls)
	out.cells = append(out.cells, cl)

	ch.out.Reset()
	c = w.core(e)
	lat, queue := &serve.Recorder{}, &serve.Recorder{}
	st = e.call("pipeline.Serve", func() {
		res = ch.b.BuildServing(pipeline.ServingSpec{
			Arrivals: w.arrivals, Out: ch.out, Latency: lat, Queue: queue,
		}).Run(c, chainChoice.Configs)
	})
	cl = pipeCell("pipeline.Serve.chain", st, c, res, int(lat.Completed), ch.out.Count, ch.out.Checksum, *lat, *queue)
	cl.served, cl.offered = int(lat.Completed), int(queue.Offered)
	cl.lat = recorderLatencies{lat}
	cl.err = w.checkOut(ch.out)
	if cl.err == nil && (lat.Completed != queue.Offered || queue.Offered != uint64(len(w.arrivals))) {
		cl.err = fmt.Errorf("%d of %d requests offered, %d completed", queue.Offered, len(w.arrivals), lat.Completed)
	}
	e.sample("pipeline.Serve.chain.ns_per_req", st.secs*1e9/float64(len(w.arrivals)))
	out.cells = append(out.cells, cl)
	out.lat = recorderLatencies{lat}
	return out
}
