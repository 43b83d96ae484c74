// Command amacbench regenerates the tables and figures of the AMAC paper
// (Kocberber, Falsafi, Grot: "Asynchronous Memory Access Chaining", VLDB
// 2015) on the simulated memory hierarchy.
//
// Usage:
//
//	amacbench -list                     # show every experiment id
//	amacbench -exp fig5b                # regenerate one artifact
//	amacbench -exp all                  # regenerate everything
//	amacbench -exp fig7 -scale tiny     # quick smoke run
//	amacbench -exp fig6 -window 15      # override the in-flight lookups
//	amacbench -exp fig6 -parallel 8     # fan sweep points over 8 host cores (same output)
//	amacbench -exp scaleN -workers 8    # sweep the parallel engine up to 8 workers
//	amacbench -exp serveN               # streaming service: arrival-rate sweep
//	amacbench -exp serveN -arrivals bursty -qcap 64  # bursty traffic, bounded drop queue
//	amacbench -exp adaptN               # adaptive execution vs every static config
//	amacbench -exp pipeN                # streaming multi-operator pipelines + mini-planner
//	amacbench -exp pipeN -plans mixed -burst 32  # one plan, smaller pump leases
//	amacbench -exp faultN               # fault injection: graceful-degradation ladder
//	amacbench -exp faultN -faults "slow:0@20000+40000x4,crash:1@90000+30000"
//	amacbench -exp faultN -slo 8000 -deadline 6000  # SLO brownout row, fixed deadline
//	amacbench -exp serveN -json         # machine-readable results, one JSON object per row
//	amacbench -exp adaptN -trace t.json # export a Perfetto-loadable event trace
//	amacbench -exp obsN -metrics m.jsonl -metrics-interval 2048  # gauge time series
//	amacbench -exp profN                # cycle attribution: category breakdown, stall hiding, MLP
//	amacbench -exp profN -flame f.txt -profile p.pb.gz  # flamegraph stacks + pprof proto
//	amacbench -bench                    # benchmark suite -> BENCH_pr4.json
//	amacbench -bench -benchgate BENCH_pr4.json  # CI gate: fail on >3x ns/op or any sim-cycle change
//	amacbench -exp fig6 -cpuprofile cpu.prof  # profile the simulator hot path
//
// Results are printed as aligned text tables whose rows and columns mirror
// the paper's artifacts; EXPERIMENTS.md maps each experiment id to its paper
// table or figure and records the paper-reported trend to compare the
// measured values against. With -json each table row is emitted as one JSON
// object on its own line (timing goes to stderr), so runs can be recorded
// and diffed mechanically.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"time"

	"amac/internal/experiments"
	"amac/internal/obs"
	"amac/internal/prof"
	"amac/internal/table"
)

// options holds the command line. Flags that set a Config field bind to
// cfg directly; the sink paths become cfg's sinks in configure.
type options struct {
	cfg                                     experiments.Config
	list, jsonOut, bench                    bool
	exp, scale                              string
	tracePath, metPath, profPath, flamePath string
	metEvery                                int
	benchOut, benchGate, cpuProf, memProf   string
}

// newFlags declares every amacbench flag on a fresh flag set.
func newFlags() (*flag.FlagSet, *options) {
	fs := flag.NewFlagSet("amacbench", flag.ExitOnError)
	o := &options{}
	c := &o.cfg
	fs.BoolVar(&o.list, "list", false, "list available experiments and exit")
	fs.StringVar(&o.exp, "exp", "", "experiment id to run, or \"all\"")
	fs.StringVar(&o.scale, "scale", "small", "dataset scale: tiny, small or paper")
	fs.Uint64Var(&c.Seed, "seed", 42, "workload generation seed")
	fs.IntVar(&c.Window, "window", 0, "override the number of in-flight lookups (0 = per-experiment default)")
	fs.IntVar(&c.Workers, "workers", 0, "cap the parallel experiments' worker sweep (0 = default sweep 1,2,4,8,16); serveN worker count")
	fs.IntVar(&c.Parallel, "parallel", 0, "host workers for independent sweep points (0 = all cores, 1 = serial); results are identical for every value")
	fs.StringVar(&c.Arrivals, "arrivals", "", "serving arrival process: deterministic, poisson (default) or bursty")
	fs.IntVar(&c.QueueCap, "qcap", 0, "bound the serving admission queue and drop on overflow (0 = unbounded blocking queue)")
	fs.StringVar(&c.Plans, "plans", "", "pipeline plan filter: comma-separated case-insensitive substrings of pipeN plan names (empty = every plan)")
	fs.IntVar(&c.Burst, "burst", 0, "pipeline pump lease size: admissions per upstream lease (0 = pipeline default)")
	fs.IntVar(&c.PipeCap, "pipecap", 0, "pipeline inter-stage pipe capacity in rows, the backpressure bound (0 = pipeline default)")
	fs.StringVar(&c.Faults, "faults", "", "faultN chaos schedule: comma-separated \"kind:shard@start+dur[xfactor]\" episodes or \"rand:SEED[:N]\" (empty = default scenario)")
	fs.IntVar(&c.Deadline, "deadline", 0, "faultN per-request deadline in cycles (0 = derive 2x the clean-run p99)")
	fs.IntVar(&c.SLOBudget, "slo", 0, "faultN p99 SLO budget in cycles; enables the brownout row (0 = omit it)")
	fs.BoolVar(&o.jsonOut, "json", false, "emit results as JSON Lines (one object per table row) instead of text tables")
	fs.StringVar(&o.tracePath, "trace", "", "write a Chrome/Perfetto trace of the experiment's designated cell to this file")
	fs.StringVar(&o.metPath, "metrics", "", "write the designated cell's gauge time series to this file as JSON Lines")
	fs.IntVar(&o.metEvery, "metrics-interval", 0, "metrics sampling period in simulated cycles (0 = default 4096); requires -metrics")
	fs.StringVar(&o.profPath, "profile", "", "write the designated cell's cycle-attribution profile to this file as a gzipped pprof proto (go tool pprof)")
	fs.StringVar(&o.flamePath, "flame", "", "write the designated cell's cycle attribution to this file as folded flamegraph stacks (flamegraph.pl, speedscope)")
	fs.BoolVar(&o.bench, "bench", false, "run the benchmark suite and write per-benchmark ns/op, allocs/op and simulated cycles")
	fs.StringVar(&o.benchOut, "benchout", "BENCH_pr4.json", "output path for -bench")
	fs.StringVar(&o.benchGate, "benchgate", "", "baseline JSON to gate -bench against: fail on any shared benchmark regressing more than 3x in ns/op or changing its simulated cycles")
	fs.StringVar(&o.cpuProf, "cpuprofile", "", "write a CPU profile of the run to this file")
	fs.StringVar(&o.memProf, "memprofile", "", "write a heap profile at exit to this file")
	return fs, o
}

// configure completes o.cfg and returns the experiments to run: none for
// -bench, every registered one for -exp all. It checks only what a Config
// cannot show — an explicit zero, -metrics-interval without -metrics — and
// leaves the rest to experiments.Validate, which owns which experiment
// reads which setting.
func (o *options) configure(visit func(func(*flag.Flag))) ([]string, error) {
	if err := validateExplicitZero(visit); err != nil {
		return nil, err
	}
	if o.metEvery < 0 || (o.metEvery > 0 && o.metPath == "") {
		return nil, fmt.Errorf("-metrics-interval must be positive and needs -metrics (got %d, -metrics %q)", o.metEvery, o.metPath)
	}
	o.cfg.Scale = experiments.Scale(o.scale)
	if o.tracePath != "" {
		o.cfg.Trace = obs.NewTrace(0)
	}
	if o.metPath != "" {
		o.cfg.Metrics = obs.NewMetrics(o.metEvery)
	}
	if o.profPath != "" || o.flamePath != "" {
		o.cfg.Profile = prof.NewProfile()
	}
	var ids []string
	switch {
	case o.bench:
	case o.exp == "all":
		for _, d := range experiments.Registry() {
			ids = append(ids, d.ID)
		}
	default:
		ids = []string{o.exp}
	}
	return ids, experiments.Validate(o.cfg, ids...)
}

func main() {
	fs, o := newFlags()
	fs.Parse(os.Args[1:])

	if o.cpuProf != "" {
		f, err := os.Create(o.cpuProf)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		defer func() {
			pprof.StopCPUProfile()
			f.Close()
		}()
	}
	if o.memProf != "" {
		defer func() {
			f, err := os.Create(o.memProf)
			if err != nil {
				fmt.Fprintln(os.Stderr, err)
				return
			}
			defer f.Close()
			runtime.GC()
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(os.Stderr, err)
			}
		}()
	}

	if o.list || (o.exp == "" && !o.bench) {
		listExperiments(os.Stdout)
		if o.exp == "" && !o.list {
			fmt.Println("\nrun with -exp <id>, -exp all, or -bench")
		}
		return
	}
	if _, ok := experiments.Find(o.exp); !ok && !o.bench && o.exp != "all" {
		fmt.Fprintf(os.Stderr, "amacbench: unknown experiment %q\n\n", o.exp)
		listExperiments(os.Stderr)
		os.Exit(2)
	}
	ids, err := o.configure(fs.Visit)
	if err != nil {
		fmt.Fprintf(os.Stderr, "amacbench: %v\n", err)
		os.Exit(2)
	}
	cfg := o.cfg

	if o.bench {
		if err := runBenchSuite(o.benchOut, cfg, o.scale, cfg.Seed, o.benchGate); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		return
	}

	for _, id := range ids {
		start := time.Now()
		tables, err := experiments.Run(id, cfg)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		if o.jsonOut {
			if err := table.WriteJSONRows(os.Stdout, id, tables); err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
			fmt.Fprintf(os.Stderr, "(%s completed in %v)\n", id, time.Since(start).Round(time.Millisecond))
			continue
		}
		for _, t := range tables {
			t.Render(os.Stdout)
		}
		fmt.Printf("(%s completed in %v)\n\n", id, time.Since(start).Round(time.Millisecond))
	}

	if err := writeSinks(o); err != nil {
		fmt.Fprintf(os.Stderr, "amacbench: %v\n", err)
		os.Exit(1)
	}
}

// sinkFile is one export of an attached sink: the trace as Chrome
// trace-event JSON (Perfetto-loadable), the metrics as JSON Lines, the
// profile as a gzipped pprof proto and/or folded flamegraph stacks.
type sinkFile struct {
	path, kind string
	write      func(io.Writer) error
	summary    func() string
}

// writeSinks exports every attached sink to its file and reports what was
// written on stderr, keeping stdout clean for -json pipelines.
func writeSinks(o *options) error {
	var files []sinkFile
	if tr := o.cfg.Trace; tr != nil {
		files = append(files, sinkFile{o.tracePath, "trace", tr.WriteChrome, func() string {
			events := 0
			for _, c := range tr.Cores() {
				events += c.Len()
			}
			return fmt.Sprintf("%d core(s), %d event(s)", len(tr.Cores()), events)
		}})
	}
	if m := o.cfg.Metrics; m != nil {
		files = append(files, sinkFile{o.metPath, "metrics", m.WriteJSONL, func() string {
			samples := 0
			for _, c := range m.Cores() {
				samples += c.Samples()
			}
			return fmt.Sprintf("%d core(s), %d sample(s)", len(m.Cores()), samples)
		}})
	}
	if pr := o.cfg.Profile; pr != nil {
		cycles := func() string {
			return fmt.Sprintf("%d core(s), %d attributed cycle(s)", len(pr.Cores()), pr.TotalCycles())
		}
		if o.profPath != "" {
			files = append(files, sinkFile{o.profPath, "profile", pr.WritePprof, cycles})
		}
		if o.flamePath != "" {
			files = append(files, sinkFile{o.flamePath, "flame", pr.WriteFolded, cycles})
		}
	}
	for _, sf := range files {
		f, err := os.Create(sf.path)
		if err != nil {
			return err
		}
		if err := sf.write(f); err != nil {
			f.Close()
			return fmt.Errorf("writing %s %s: %w", sf.kind, sf.path, err)
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "%s: wrote %s (%s)\n", sf.kind, sf.path, sf.summary())
	}
	return nil
}

// validateExplicitZero rejects knobs explicitly set to zero on the command
// line. Zero means "use the default" for these flags, so an explicit zero is
// always a mistake the run would otherwise silently ignore; flag.Visit sees
// only flags actually set, which is what distinguishes `-qcap 0` from no
// -qcap at all.
func validateExplicitZero(visit func(func(*flag.Flag))) error {
	var bad string
	visit(func(f *flag.Flag) {
		if bad != "" {
			return
		}
		switch f.Name {
		case "deadline", "qcap", "pipecap", "metrics-interval", "slo":
			if f.Value.String() == "0" {
				bad = f.Name
			}
		}
	})
	if bad != "" {
		return fmt.Errorf("-%s 0 is meaningless (zero selects the default; drop the flag instead)", bad)
	}
	return nil
}

// listExperiments prints every registered experiment id and title.
func listExperiments(w *os.File) {
	fmt.Fprintln(w, "Available experiments:")
	for _, d := range experiments.Registry() {
		fmt.Fprintf(w, "  %-12s %s\n", d.ID, d.Title)
	}
}
