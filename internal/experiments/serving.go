package experiments

import (
	"fmt"

	"amac/internal/adapt"
	"amac/internal/memsim"
	"amac/internal/obs"
	"amac/internal/ops"
	"amac/internal/prof"
	"amac/internal/relation"
	"amac/internal/serve"
	"amac/internal/table"
)

func init() {
	register(Descriptor{
		ID:    "serveN",
		Title: "Streaming request service: arrival-rate sweep, throughput and tail latency per technique (Xeon)",
		Reads: Serving | Trace | Metrics | Profile,
		Run:   serveN,
	})
}

// serveLoads are the offered loads of the sweep, as fractions of AMAC's
// measured batch service capacity on the same workload. 0.9 is the decisive
// row: within AMAC's capacity but beyond what the slower batch-boundary
// techniques can drain, so their queues grow while AMAC's p99 stays near
// its service time. 1.2 overloads everyone and shows the saturation shape.
var serveLoads = []float64{0.3, 0.6, 0.9, 1.2}

func loadLabel(l float64) string { return fmt.Sprintf("%d%%", int(l*100+0.5)) }

// servingKey identifies a serving-prepared partitioned join in a
// workloadSet.
type servingKey struct {
	spec    relation.JoinSpec
	workers int
	runs    int
}

// servingJoin is a partitioned join prepared for a serving sweep: the
// workload plus the output collectors of every run of the sweep
// (calibration is run 0), pre-allocated in run-major order at
// materialization time. Pre-allocation pins the collectors' arena
// addresses: a serial sweep allocates them lazily in exactly this order, so
// every sweep worker's private copy — whichever subset of runs it executes —
// charges its stores at the same simulated addresses and reproduces the
// serial cycle counts bit for bit.
type servingJoin struct {
	pj   *ops.PartitionedHashJoin
	outs [][]*ops.Output // [run][worker]
}

// servingJoin returns the set's serving workload for the key, materializing
// it on first use. Collectors are not reset here; each run resets the ones
// it uses.
func (ws *workloadSet) servingJoin(spec relation.JoinSpec, workers, runs int) *servingJoin {
	build, probe := cachedJoinRelations(spec)
	ws.mu.Lock()
	defer ws.mu.Unlock()
	return ws.serves.get(servingKey{spec, workers, runs}, func() *servingJoin {
		pj := ops.PartitionJoin(build, probe, workers)
		pj.PrebuildRaw()
		outs := make([][]*ops.Output, runs)
		for r := range outs {
			outs[r] = make([]*ops.Output, workers)
			for w := 0; w < workers; w++ {
				outs[r][w] = ops.NewOutput(pj.Parts[w].Arena, false)
				outs[r][w].Sequential = true // dense per-worker output partition
			}
		}
		return &servingJoin{pj: pj, outs: outs}
	})
}

// serveN measures the streaming request-serving layer end to end: a hash
// join with skewed build keys (long, divergent bucket chains — the fig5b
// [1, 0] configuration where AMAC's refill flexibility matters most) is
// served under open-loop arrivals at a sweep of offered loads, once per
// technique, and each run reports achieved throughput and latency
// quantiles. Loads are calibrated against AMAC's batch-mode cycles per
// tuple measured on the identical workload, so "90%" means ninety percent
// of what AMAC sustains with an always-full input — a rate the
// batch-boundary techniques cannot keep up with.
//
// -workers shards the service (default 1 worker); -arrivals selects the
// traffic shape (poisson by default); -qcap bounds the admission queue and
// switches it to the drop policy, adding a drop-fraction table. The
// (load, technique) cells are independent runs and fan out over -parallel
// sweep workers.
func serveN(cfg Config) []*table.Table {
	sz := cfg.sizes()
	n := sz.joinLarge
	machine := memsim.XeonX5670()
	workers := 1
	if cfg.Workers > 0 {
		workers = cfg.Workers
	}

	spec := relation.JoinSpec{BuildSize: n, ProbeSize: n, ZipfBuild: 1.0, Seed: cfg.seed()}
	runs := 1 + len(serveLoads)*len(ops.Techniques)
	sj := defaultWorkloads.servingJoin(spec, workers, runs)
	capacity := calibrateServeCapacity(sj, machine, workers, cfg.window())
	policy := queuePolicy(cfg)

	rows := make([]string, len(serveLoads))
	for i, l := range serveLoads {
		rows[i] = loadLabel(l)
	}
	tput := table.New("serveN", "Streaming service: achieved throughput versus offered load (Xeon)", "M req/s", rows, techColumns)
	p50 := table.New("serveN-p50", "Streaming service: median request latency versus offered load (Xeon)", "kcycles", rows, techColumns)
	p99 := table.New("serveN-p99", "Streaming service: p99 request latency versus offered load (Xeon)", "kcycles", rows, techColumns)
	var drops *table.Table
	if policy == serve.Drop {
		drops = table.New("serveN-drops", "Streaming service: dropped request fraction versus offered load (Xeon)", "fraction", rows, techColumns)
	}
	tput.AddNote("rows: offered load as a fraction of AMAC's batch service capacity (%.3f req/cycle aggregate)", capacity)
	tput.AddNote("|R| = |S| = 2^%d, Zipf(1.0) build keys, %d worker(s), %s arrivals, %s queue, scale %q",
		log2(n), workers, arrivalsName(cfg), policyLabel(policy, cfg.QueueCap), cfg.scale())
	p99.AddNote("AMAC refills each slot the moment a lookup completes; GP/SPP admit only at batch boundaries, " +
		"so near saturation their queues grow and p99 inflates while AMAC's stays near its service time")

	type cell struct {
		load float64
		tech ops.Technique
	}
	var cells []cell
	var tasks []func(*sweepEnv) serve.Result
	for _, load := range serveLoads {
		for _, tech := range ops.Techniques {
			load, tech := load, tech
			runIdx := 1 + len(cells) // collector set of this cell; 0 is calibration
			cells = append(cells, cell{load, tech})
			tasks = append(tasks, func(e *sweepEnv) serve.Result {
				sj := e.wl.servingJoin(spec, workers, runs)
				// The AMAC cell at 90% load is serveN's designated trace cell:
				// the decisive row, traced (and profiled) exactly once so the
				// export is deterministic under -parallel.
				var tr *obs.Trace
				var met *obs.Metrics
				var pr *prof.Profile
				if tech == ops.AMAC && load == 0.9 {
					tr, met, pr = cfg.Trace, cfg.Metrics, cfg.Profile
				}
				return runServe(cfg, sj, runIdx, machine, workers, tech, load, capacity, policy, nil, tr, met, pr)
			})
		}
	}
	for i, res := range runSweep(cfg, tasks) {
		c := cells[i]
		row := loadLabel(c.load)
		tput.Set(row, c.tech.String(), res.ThroughputPerCycle()*machine.FreqHz/1e6)
		p50.Set(row, c.tech.String(), float64(res.Latency.P50())/1000)
		p99.Set(row, c.tech.String(), float64(res.Latency.P99())/1000)
		if drops != nil {
			drops.Set(row, c.tech.String(), res.Latency.DropFraction())
		}
	}

	out := []*table.Table{tput, p50, p99}
	if drops != nil {
		out = append(out, drops)
	}
	return out
}

// runServe executes one (technique, load) cell of the sweep: every worker
// serves its partition's probe machine from a queue fed by its own arrival
// schedule, rates split across workers in proportion to their partition
// sizes so each worker's stream spans the same simulated duration. The cell
// uses the serving workload's pre-allocated run-indexed collectors and the
// shared arrival-schedule cache, so repeated cells rebuild nothing. A
// non-nil adaptive config replaces the fixed technique with per-shard
// adaptive controllers (the adaptN serving table). tr and met, non-nil only
// for an experiment's designated trace cell, attach the observability sinks.
func runServe(cfg Config, sj *servingJoin, run int, machine memsim.Config, workers int,
	tech ops.Technique, load, capacity float64, policy serve.Policy, adaptive *adapt.Config,
	tr *obs.Trace, met *obs.Metrics, pr *prof.Profile) serve.Result {
	pj := sj.pj
	totalTuples := pj.ProbeTuples()
	outs := sj.outs[run]
	specs := make([]serve.Worker[ops.ProbeState], workers)
	for w := 0; w < workers; w++ {
		outs[w].Reset()
		nw := pj.Parts[w].Probe.Len()
		if nw == 0 {
			specs[w] = serve.Worker[ops.ProbeState]{Machine: pj.ProbeMachine(w, outs[w], true)}
			continue
		}
		// Worker w's offered rate is load*capacity*nw/total requests per
		// cycle; its mean inter-arrival period is the reciprocal.
		period := float64(totalTuples) / (load * capacity * float64(nw))
		specs[w] = serve.Worker[ops.ProbeState]{
			Machine:  pj.ProbeMachine(w, outs[w], true),
			Arrivals: cachedArrivalSchedule(cfg.Arrivals, period, nw, cfg.seed()+uint64(w)+1),
		}
	}
	return serve.Run(serve.Options{
		Hardware:  machine,
		Technique: tech,
		Window:    cfg.window(),
		QueueCap:  cfg.QueueCap,
		Policy:    policy,
		Prepare:   func(w int, c *memsim.Core) { warmTable(c, pj.Parts[w]) },
		Adaptive:  adaptive,
		Trace:     tr,
		Metrics:   met,
		Profile:   pr,
	}, specs)
}

// calibrateServeCapacity measures AMAC's aggregate batch service capacity
// (requests per cycle) on the serving workload: batch-mode AMAC over the
// same partitions and cores, total tuples over the slowest worker's time,
// exactly as the scaleN experiment reports it. It defines the load axis of
// every serving table (serveN, adaptN-serve), so there is exactly one copy.
// Uses (and resets) the workload's calibration collector set, outs[0].
func calibrateServeCapacity(sj *servingJoin, machine memsim.Config, workers, window int) float64 {
	for _, out := range sj.outs[0] {
		out.Reset()
	}
	batch := runParallelProbeOuts(sj.pj, parallelJoinConfig{
		machine: machine, workers: workers, tech: ops.AMAC, window: window, earlyExit: true,
	}, sj.outs[0])
	return float64(batch.tuples) / float64(batch.merged.Cycles)
}

// queuePolicy resolves the admission-queue policy from the configuration: a
// bounded queue (-qcap) drops on overflow, an unbounded one blocks.
func queuePolicy(cfg Config) serve.Policy {
	if cfg.QueueCap > 0 {
		return serve.Drop
	}
	return serve.Block
}

// arrivalsName resolves the configured arrival process label.
func arrivalsName(cfg Config) string {
	if cfg.Arrivals == "" {
		return "poisson"
	}
	return cfg.Arrivals
}

// policyLabel renders the queue configuration for table notes.
func policyLabel(p serve.Policy, cap int) string {
	if p == serve.Drop {
		return fmt.Sprintf("drop@%d", cap)
	}
	return "unbounded block"
}
