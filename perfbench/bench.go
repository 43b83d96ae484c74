package main

import (
	"fmt"
	"hash/fnv"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"time"

	"amac/internal/memsim"
	"amac/internal/serve"
)

// sizes are the workloads' input shapes and the run's repetition counts.
// fullSizes is the benchmark; the tests run the same code on smaller ones.
type sizes struct {
	joinLog int // join-dram: |R| = |S| = 2^joinLog uniform unique keys

	serveBuildLog int // serve-llc: |R| = 2^serveBuildLog Zipf(1.0) keys
	serveProbeLog int // serve-llc: 2^serveProbeLog requests in all
	serveDraws    int // serve-llc: independently drawn inputs they split over

	pipeRowsLog  int // pipe-write: root rows per plan
	pipeBuildLog int // pipe-write: DRAM-resident build tables
	pipeDimLog   int // pipe-write: cache-resident dimension table of the chain
	pipeGroups   int // pipe-write: aggregation groups
	pipeSample   int // pipe-write: planner root-row sample

	setups    int // set-ups per run; setup_s is their median
	minPasses int // passes that run even when -seconds is already spent
}

var fullSizes = sizes{
	joinLog:       20,
	serveBuildLog: 16, serveProbeLog: 18, serveDraws: 16,
	pipeRowsLog: 17, pipeBuildLog: 19, pipeDimLog: 10, pipeGroups: 4096, pipeSample: 4096,
	setups: 3, minPasses: 3,
}

// window is the in-flight lookup count of every fixed-technique cell.
const window = 10

// runConfig is one invocation of the benchmark.
type runConfig struct {
	workload string
	seed     uint64
	duration time.Duration
	trace    bool
	sizes    sizes
}

// workload is one of the benchmark's input sets.
type workload interface {
	// inputs describes the generated input sizes for the provenance header.
	inputs() string
	// setup generates the inputs from the seed and materializes them,
	// replacing any earlier set-up. It is timed: setup_s.
	setup(e *env) error
	// oracle computes the expected outputs of the current set-up, untimed.
	oracle()
	// pass runs every cell once and checks each cell's output.
	pass(e *env) passOut
}

var workloadNames = []string{"join-dram", "serve-llc", "pipe-write"}

func newWorkload(name string, sz sizes) (workload, error) {
	switch name {
	case "join-dram":
		return &joinDRAM{sz: sz}, nil
	case "serve-llc":
		return &serveLLC{sz: sz}, nil
	case "pipe-write":
		return &pipeWrite{sz: sz}, nil
	}
	return nil, fmt.Errorf("unknown workload %q (have %s)", name, strings.Join(workloadNames, ", "))
}

// env is what a workload's set-up and passes use to time calls into the
// layers and to record per-layer samples.
type env struct {
	seed uint64
	// tr is the span recorder; nil in untraced passes.
	tr *tracer
	// samples collects per-layer metric samples (traced passes and set-ups
	// of a traced run only).
	samples map[string][]float64
	// hostS sums the calls of the current pass.
	hostS float64
}

// callStat is the host cost of one call into a layer.
type callStat struct {
	secs   float64
	allocs uint64 // zero when untraced
}

// call times f as one call into the layer named name, inside a span when
// tracing. Calls do not nest: a pass's host time is the sum of its calls.
func (e *env) call(name string, f func()) callStat {
	id := e.tr.begin(name)
	t0 := time.Now()
	f()
	d := time.Since(t0).Seconds()
	e.tr.end(id)
	e.hostS += d
	st := callStat{secs: d}
	if e.tr != nil {
		st.allocs = e.tr.spans[id].Allocs
	}
	return st
}

// sample records one per-layer sample; a no-op when not tracing.
func (e *env) sample(name string, v float64) {
	if e.tr == nil {
		return
	}
	e.samples[name] = append(e.samples[name], v)
}

// cell is the checked outcome of one measured call into the system.
type cell struct {
	name    string
	hostS   float64
	work    int          // lookups, requests or root rows completed
	served  int          // requests answered (counted toward sim_served_frac)
	offered int          // requests offered (sim_served_frac's base)
	cycles  uint64       // simulated busy (non-idle) cycles summed over the cell's cores
	stats   memsim.Stats // counters summed over the cell's cores
	digest  uint64       // digest of every simulated result of the cell
	lat     latencies    // simulated latencies, nil for cells without any
	err     error        // why the output check failed; nil when it passed
}

// latencies is a cell's simulated latency distribution: serve.Recorder for
// served requests, latencyLog for batch lookups.
type latencies interface {
	Quantile(q float64) uint64
	Count() uint64
}

// recorderLatencies adapts a serve.Recorder.
type recorderLatencies struct{ *serve.Recorder }

func (r recorderLatencies) Count() uint64 { return r.Completed }

// passOut is one pass: its cells in run order, and the latencies of the
// workload's designated latency cell.
type passOut struct {
	traced bool
	hostS  float64
	cells  []cell
	lat    latencies
}

// result is a whole run.
type result struct {
	cfg                 runConfig
	setupS              []float64
	passes              []passOut
	tracer              *tracer
	samples             map[string][]float64
	attempted, failed   int
	e2e, layer          map[string]float64
	latSamples          uint64
	simDigest           uint64
	untracedS, tracedSs []float64
}

// run sets the workload up cfg.sizes.setups times, then runs passes until
// cfg.duration has passed (and at least minPasses), and derives every
// metric. With cfg.trace, odd passes are traced and even ones are not, so
// the run measures its own tracing overhead.
func run(w workload, cfg runConfig) (*result, error) {
	res := &result{cfg: cfg, samples: make(map[string][]float64)}
	if cfg.trace {
		res.tracer = newTracer()
	}
	e := &env{seed: cfg.seed, samples: res.samples, tr: res.tracer}

	for k := 0; k < cfg.sizes.setups; k++ {
		runtime.GC()
		id := e.tr.begin("setup")
		t0 := time.Now()
		err := w.setup(e)
		res.setupS = append(res.setupS, time.Since(t0).Seconds())
		e.tr.end(id)
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
	}
	w.oracle()
	runtime.GC()

	// One warm-up pass, then at least one timed pass of each kind.
	minPasses := max(cfg.sizes.minPasses, 2)
	if cfg.trace {
		minPasses = max(minPasses, 3)
	}
	start := time.Now()
	for p := 0; p < minPasses || time.Since(start) < cfg.duration; p++ {
		traced := cfg.trace && p%2 == 1
		e.tr = nil
		if traced {
			e.tr = res.tracer
			e.tr.pass = p
		}
		// Every pass starts from a collected heap, so each one pays the
		// collection of its own garbage and no other pass's.
		runtime.GC()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		e.hostS = 0
		id := e.tr.begin("pass")
		out := w.pass(e)
		e.tr.end(id)
		runtime.ReadMemStats(&after)
		out.traced, out.hostS = traced, e.hostS
		switch {
		case traced:
			e.sample("go.gc_cycles", float64(after.NumGC-before.NumGC))
			e.sample("go.gc_pause_ms", float64(after.PauseTotalNs-before.PauseTotalNs)/1e6)
			e.sample("go.alloc_mb", float64(after.TotalAlloc-before.TotalAlloc)/(1<<20))
			res.tracedSs = append(res.tracedSs, out.hostS)
		case p > 0:
			// Pass 0 warms the process (pools, heap, page tables); it is
			// checked but not timed.
			res.untracedS = append(res.untracedS, out.hostS)
		}
		res.passes = append(res.passes, out)
	}
	res.check()
	res.derive()
	return res, nil
}

// check counts attempted and failed cells, failing any cell whose simulated
// results differ from the same cell in pass 0: simulated results are a pure
// function of the seed, traced or not.
func (r *result) check() {
	first := r.passes[0].cells
	for pi := range r.passes {
		p := &r.passes[pi]
		for ci := range p.cells {
			c := &p.cells[ci]
			if c.err == nil && (ci >= len(first) || c.digest != first[ci].digest) {
				c.err = fmt.Errorf("simulated results differ from pass 0")
			}
			r.attempted++
			if c.err != nil {
				r.failed++
			}
		}
	}
	h := fnv.New64a()
	for _, c := range first {
		fmt.Fprintf(h, "%s %016x\n", c.name, c.digest)
	}
	r.simDigest = h.Sum64()
}

// derive computes the end-to-end metrics (from untraced passes) and the
// per-layer metrics (from traced passes).
func (r *result) derive() {
	p0 := r.passes[0]
	var work, served, offered int
	var cycles uint64
	for _, c := range p0.cells {
		work += c.work
		served += c.served
		offered += c.offered
		cycles += c.cycles
	}
	var rates []float64
	for _, s := range r.untracedS {
		rates = append(rates, float64(work)/s)
	}
	var p50, p99 uint64
	if p0.lat != nil {
		p50, p99 = p0.lat.Quantile(0.50), p0.lat.Quantile(0.99)
		r.latSamples = p0.lat.Count()
	}
	r.e2e = map[string]float64{
		"sim_lookups_per_s":     median(rates),
		"setup_s":               median(r.setupS),
		"peak_rss_mb":           peakRSSMB(),
		"sim_cycles_per_lookup": ratio(float64(cycles), float64(work)),
		"sim_p50_cycles":        float64(p50),
		"sim_p99_cycles":        float64(p99),
		"sim_served_frac":       ratio(float64(served), float64(offered)),
		"ok_frac":               ratio(float64(r.attempted-r.failed), float64(r.attempted)),
	}

	if !r.cfg.trace {
		return
	}
	// Memory-hierarchy figures per traced pass, over every engine cell.
	for _, p := range r.passes {
		if !p.traced {
			continue
		}
		var st memsim.Stats
		var w int
		var engineS float64
		for _, c := range p.cells {
			st.Add(c.stats)
			w += c.work
			if c.stats.Cycles > 0 {
				engineS += c.hostS
			}
		}
		accesses := st.Loads + st.Stores + st.Prefetches
		demandMiss := int64(st.L2Hits+st.L3Hits+st.MemAccesses) - int64(st.PrefetchIssued)
		if demandMiss < 0 {
			demandMiss = 0
		}
		s := func(name string, v float64) { r.samples[name] = append(r.samples[name], v) }
		s("memsim.ns_per_access", ratio(engineS*1e9, float64(accesses)))
		s("memsim.dram_fills_per_lookup", ratio(float64(st.MemAccesses), float64(w)))
		s("memsim.stream_fills_per_lookup", ratio(float64(st.StreamFills), float64(w)))
		s("memsim.tlb_misses_per_lookup", ratio(float64(st.TLBMisses), float64(w)))
		s("memsim.l1_hit_ratio", ratio(float64(st.L1Hits), float64(st.L1Hits+st.MSHRHits+uint64(demandMiss))))
		s("memsim.llc_hit_ratio", ratio(float64(st.L3Hits), float64(st.L3Hits+st.MemAccesses)))
		s("memsim.stall_frac", ratio(float64(st.StallCycles), float64(st.Cycles)))
		s("memsim.idle_frac", ratio(float64(st.IdleCycles), float64(st.Cycles)))
		s("memsim.mshr_full_wait_frac", ratio(float64(st.MSHRFullWaitCycles), float64(st.Cycles)))
		s("memsim.ipc", st.IPC())
		s("memsim.prefetch_issued_ratio", ratio(float64(st.PrefetchIssued), float64(st.Prefetches)))
	}
	r.samples["trace.overhead_frac"] = []float64{median(r.tracedSs)/median(r.untracedS) - 1}
	r.layer = make(map[string]float64, len(perLayer))
	for _, m := range perLayer {
		r.layer[m.name] = median(r.samples[m.name])
	}
}

// metricValue is one metric of the result line.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// summary is the result line: end-to-end metrics untraced, per-layer
// metrics traced.
func (r *result) summary() map[string]any {
	metrics := make(map[string]metricValue)
	if r.cfg.trace {
		for _, m := range perLayer {
			metrics[m.name] = metricValue{r.layer[m.name], m.unit}
		}
	} else {
		for _, m := range endToEnd {
			metrics[m.name] = metricValue{r.e2e[m.name], m.unit}
		}
	}
	return map[string]any{
		"correct":   r.failed == 0,
		"attempted": r.attempted,
		"failed":    r.failed,
		"metrics":   metrics,
	}
}

// provenance is the header every result carries: what code, which Go, how
// many processors, which seed and inputs, and a digest of every cell's
// simulated results, so two runs show at a glance whether they simulated
// the same thing.
func provenance(cfg runConfig, commit, root string, w workload, res *result) []kv {
	return []kv{
		{"workload", cfg.workload},
		{"commit", commit},
		{"source_digest", sourceDigest(root)},
		{"go", runtime.Version()},
		{"gomaxprocs", strconv.Itoa(runtime.GOMAXPROCS(0))},
		{"nproc", strconv.Itoa(runtime.NumCPU())},
		{"seed", strconv.FormatUint(cfg.seed, 10)},
		{"inputs", w.inputs()},
		{"machine", "simulated " + memsim.XeonX5670().Name + ", window " + strconv.Itoa(window)},
		{"sim_digest", fmt.Sprintf("%016x", res.simDigest)},
		{"setup_s", fmt.Sprint(res.setupS)},
	}
}

// sourceDigest hashes every Go source and go.mod file under root, so a
// checkout without version control still names the code it ran.
func sourceDigest(root string) string {
	h := fnv.New64a()
	n := 0
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != root && strings.HasPrefix(d.Name(), ".") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") && d.Name() != "go.mod" {
			return nil
		}
		b, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(root, path)
		fmt.Fprintf(h, "%s %d\n", filepath.ToSlash(rel), len(b))
		h.Write(b)
		n++
		return nil
	})
	if err != nil {
		return "unavailable: " + err.Error()
	}
	return fmt.Sprintf("%016x (%d files)", h.Sum64(), n)
}

// peakRSSMB reads the process's peak resident set (VmHWM) in MiB.
func peakRSSMB() float64 {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(b), "\n") {
		if f := strings.Fields(line); len(f) >= 2 && f[0] == "VmHWM:" {
			kb, err := strconv.ParseFloat(f[1], 64)
			if err != nil {
				return 0
			}
			return kb / 1024
		}
	}
	return 0
}
