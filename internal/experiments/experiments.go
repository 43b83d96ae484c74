// Package experiments regenerates every table and figure of the AMAC
// paper's evaluation (plus the motivation experiments of Section 2 and a set
// of ablations suggested by Section 6) on top of the simulated memory
// hierarchy. Each experiment is registered under the identifier used in
// DESIGN.md and EXPERIMENTS.md and returns one or more table.Tables whose
// rows and columns mirror the paper's artifact.
package experiments

import (
	"fmt"
	"math/bits"
	"runtime"
	"sort"
	"strings"

	"amac/internal/fault"
	"amac/internal/obs"
	"amac/internal/prof"
	"amac/internal/serve"
	"amac/internal/table"
)

// Scale selects the dataset sizes. The paper uses 2^27-tuple relations
// (2 GB); the default reproduction scale keeps the decisive property — the
// "large" working sets overflow the simulated LLC while the "small" build
// table fits in it — at a fraction of the simulation time.
type Scale string

const (
	// Tiny is for smoke tests and CI: everything fits in the caches, so
	// only functional behaviour (not the performance shapes) is meaningful.
	Tiny Scale = "tiny"
	// Small is the default reporting scale (about 1M-tuple relations).
	Small Scale = "small"
	// Paper uses the paper's original tuple counts; runs take a long time
	// and tens of gigabytes of memory.
	Paper Scale = "paper"
)

// Config parameterizes an experiment run.
type Config struct {
	// Scale selects dataset sizes; the zero value means Small.
	Scale Scale
	// Seed makes workload generation deterministic.
	Seed uint64
	// Window overrides the number of in-flight lookups for all prefetching
	// techniques (zero keeps each experiment's default of 10).
	Window int
	// Workers caps the worker sweep of the parallel scalability experiments
	// (scaleN): zero keeps the default sweep {1, 2, 4, 8, 16}; a positive
	// value sweeps the powers of two up to it, plus the value itself. The
	// serving experiment (serveN) uses it as the worker count (zero = 1).
	Workers int
	// Arrivals selects the serving experiments' traffic shape:
	// "deterministic", "poisson" (the default for empty) or "bursty".
	Arrivals string
	// QueueCap bounds the serving experiments' per-worker admission queue
	// and switches it to the drop policy; zero keeps an unbounded blocking
	// queue.
	QueueCap int
	// Parallel is the number of host workers independent sweep points fan
	// out over: zero uses every host core (GOMAXPROCS), one forces the
	// serial path. Results are identical for every value — each worker
	// deterministically materializes its own workload copies and results
	// are collected in submission order — so the knob trades host memory
	// (one workload image per busy worker) for wall clock only.
	Parallel int
	// Plans filters the pipeline experiment (pipeN) to the plans whose names
	// contain any of the comma-separated, case-insensitive tokens; empty
	// runs every plan. Validate rejects a token that matches no plan.
	Plans string
	// Burst overrides the pipeline experiment's pump lease size (admissions
	// per upstream lease); zero keeps the pipeline default.
	Burst int
	// PipeCap overrides the pipeline experiment's inter-stage pipe capacity
	// in rows (the backpressure bound); zero keeps the pipeline default.
	PipeCap int
	// Faults overrides the fault experiment's chaos schedule: a scripted
	// episode list ("kind:shard@start+dur[xfactor]", comma-separated) or a
	// seeded random request ("rand:SEED[:N]"); empty keeps faultN's default
	// scenario (shard 0 at 4x memory latency for the middle half of the run).
	Faults string
	// Deadline overrides the fault experiment's per-request cycle budget;
	// zero derives it from the clean run's p99.
	Deadline int
	// SLOBudget sets the fault experiment's p99 SLO budget in cycles and
	// enables its brownout row; zero omits the row.
	SLOBudget int
	// Trace, if non-nil, records a simulated-time event trace of exactly one
	// designated cell per experiment — serveN's AMAC cell at 90% load,
	// adaptN's adaptive serving cell at 90% load, pipeN's planner-assigned
	// mixed plan, obsN's replay — so the exported trace is deterministic
	// regardless of -parallel. It attaches to the cell's cores after their
	// warm-up, and every engine run on those cores records into it. Purely
	// observational: every table is byte-identical with or without it.
	Trace *obs.Trace
	// Metrics, if non-nil, samples gauge time series from the same
	// designated cell (obsN and the serving experiments). Purely
	// observational, like Trace.
	Metrics *obs.Metrics
	// Profile, if non-nil, collects an exact cycle-attribution profile from
	// one designated cell per experiment — profN's batch and serving phases,
	// serveN's AMAC cell at 90% load — for flamegraph/pprof export. Purely
	// observational, like Trace: every table is byte-identical with or
	// without it.
	Profile *prof.Profile
}

func (c Config) scale() Scale {
	if c.Scale == "" {
		return Small
	}
	return c.Scale
}

func (c Config) seed() uint64 {
	if c.Seed == 0 {
		return 42
	}
	return c.Seed
}

func (c Config) window() int {
	if c.Window <= 0 {
		return 10
	}
	return c.Window
}

// parallelism resolves the sweep worker count (see Config.Parallel).
func (c Config) parallelism() int {
	if c.Parallel > 0 {
		return c.Parallel
	}
	return runtime.GOMAXPROCS(0)
}

// workerCounts returns the worker sweep for the parallel scalability
// experiments.
func (c Config) workerCounts() []int {
	if c.Workers <= 0 {
		return []int{1, 2, 4, 8, 16}
	}
	var counts []int
	for w := 1; w < c.Workers; w *= 2 {
		counts = append(counts, w)
	}
	return append(counts, c.Workers)
}

// sizes holds every scale-dependent knob.
type sizes struct {
	joinLarge   int // |R| = |S| for the "large" (2 GB ⋈ 2 GB) join
	joinSmall   int // |R| for the "small" (2 MB ⋈ 2 GB) join
	gbLarge     int
	gbSmall     int
	gbRepeats   int
	bstSizes    []int // log2 tree sizes for Figure 10
	slSizes     []int // log2 skip list sizes for Figure 11
	bstT4       int   // log2 tree size for Figure 13
	slT4        int   // log2 skip list size for Figure 13
	xeonThreads []int
	t4Threads   []int
	windows     []int // in-flight sweep for Figure 6

	// adaptN knobs: the cache-resident dimension-table build size, the
	// cache-resident BST of the operator-mix workload (log2), and the
	// adaptive controller's segment/probe lengths (scaled so that probe
	// epochs stay a small fraction of the run at every scale).
	adaptDim     int
	adaptBST     int
	adaptSegment int
	adaptProbe   int

	// pipeN knobs: root probe rows per plan, the DRAM-resident build-table
	// size, the cache-resident dimension table of the mixed chain plan, the
	// BST of the probe→filter plan, the aggregation group count, and the
	// mini-planner's root sample size (whose first half warms, second half
	// measures — it must cover the dimension table about twice over).
	pipeRows   int
	pipeBuild  int
	pipeDim    int
	pipeBST    int
	pipeGroups int
	pipeSample int
}

func (c Config) sizes() sizes {
	switch c.scale() {
	case Tiny:
		return sizes{
			joinLarge: 1 << 13, joinSmall: 1 << 10,
			gbLarge: 1 << 12, gbSmall: 1 << 10, gbRepeats: 3,
			bstSizes: []int{10, 12}, slSizes: []int{9, 11},
			bstT4: 12, slT4: 11,
			xeonThreads: []int{1, 2, 4, 6, 8, 12},
			t4Threads:   []int{1, 8, 16, 64},
			windows:     []int{1, 5, 10, 15},
			adaptDim:    1 << 8, adaptBST: 8, adaptSegment: 256, adaptProbe: 64,
			pipeRows: 1 << 12, pipeBuild: 1 << 12, pipeDim: 1 << 7, pipeBST: 1 << 9, pipeGroups: 128, pipeSample: 256,
		}
	case Paper:
		return sizes{
			joinLarge: 1 << 27, joinSmall: 1 << 17,
			gbLarge: 1 << 27, gbSmall: 1 << 17, gbRepeats: 3,
			bstSizes: []int{15, 18, 21, 24, 26, 27}, slSizes: []int{15, 21, 25},
			bstT4: 25, slT4: 25,
			xeonThreads: []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12},
			t4Threads:   []int{1, 2, 4, 8, 16, 24, 32, 40, 48, 56, 64},
			windows:     []int{1, 5, 10, 15},
			adaptDim:    1 << 12, adaptBST: 12, adaptSegment: 4096, adaptProbe: 512,
			pipeRows: 1 << 18, pipeBuild: 1 << 20, pipeDim: 1 << 10, pipeBST: 1 << 12, pipeGroups: 4096, pipeSample: 4096,
		}
	default: // Small
		return sizes{
			joinLarge: 1 << 20, joinSmall: 1 << 17,
			gbLarge: 1 << 20, gbSmall: 1 << 17, gbRepeats: 3,
			bstSizes: []int{14, 16, 18, 20}, slSizes: []int{14, 16, 18},
			bstT4: 18, slT4: 17,
			xeonThreads: []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12},
			t4Threads:   []int{1, 2, 4, 8, 16, 24, 32, 48, 64},
			windows:     []int{1, 5, 10, 15},
			adaptDim:    1 << 12, adaptBST: 12, adaptSegment: 2048, adaptProbe: 256,
			pipeRows: 1 << 16, pipeBuild: 1 << 16, pipeDim: 1 << 9, pipeBST: 1 << 11, pipeGroups: 1024, pipeSample: 2048,
		}
	}
}

// Settings is a set of the scoped Config settings: the ones only some
// experiments read. Scale, Seed, Window, Workers and Parallel are read by
// every experiment that has a use for them and are not scoped.
type Settings uint16

// The scoped settings, one bit per Config field.
const (
	Arrivals Settings = 1 << iota
	QueueCap
	Plans
	Burst
	PipeCap
	Faults
	Deadline
	SLOBudget
	Trace
	Metrics
	Profile

	// Serving, Pipeline and Sinks group the serving pair, the pipeline trio
	// and the observation sinks.
	Serving  = Arrivals | QueueCap
	Pipeline = Plans | Burst | PipeCap
	Sinks    = Trace | Metrics | Profile
)

// settingNames names each scoped setting, in bit order, by its Config field
// and its amacbench flag.
var settingNames = [...]string{
	"Arrivals (-arrivals)", "QueueCap (-qcap)",
	"Plans (-plans)", "Burst (-burst)", "PipeCap (-pipecap)",
	"Faults (-faults)", "Deadline (-deadline)", "SLOBudget (-slo)",
	"Trace (-trace)", "Metrics (-metrics)", "Profile (-profile/-flame)",
}

// name names the lowest setting in s by its Config field and amacbench flag.
func (s Settings) name() string { return settingNames[bits.TrailingZeros16(uint16(s))] }

// set returns the scoped settings cfg sets to a non-zero value.
func (c Config) set() Settings {
	var s Settings
	for bit, on := range [...]bool{
		c.Arrivals != "", c.QueueCap != 0,
		c.Plans != "", c.Burst != 0, c.PipeCap != 0,
		c.Faults != "", c.Deadline != 0, c.SLOBudget != 0,
		c.Trace != nil, c.Metrics != nil, c.Profile != nil,
	} {
		if on {
			s |= 1 << bit
		}
	}
	return s
}

// Descriptor registers one reproducible artifact.
type Descriptor struct {
	// ID is the identifier used across DESIGN.md, EXPERIMENTS.md, the CLI
	// and the benchmarks ("fig5a", "table3", ...).
	ID string
	// Title summarises what the paper artifact shows.
	Title string
	// Reads declares the scoped settings Run reads; a sink it reads records
	// the experiment's designated cell. It is the one place that says which
	// experiment reads which setting: Validate checks a Config against it,
	// and no caller keeps its own copy.
	Reads Settings
	// Run regenerates the artifact.
	Run func(Config) []*table.Table
}

// registry is populated by the experiment files' init order via Register.
var registry []Descriptor

func register(d Descriptor) { registry = append(registry, d) }

// Registry returns every registered experiment sorted by ID.
func Registry() []Descriptor {
	out := append([]Descriptor(nil), registry...)
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// Find locates an experiment by ID.
func Find(id string) (Descriptor, bool) {
	for _, d := range registry {
		if d.ID == id {
			return d, true
		}
	}
	return Descriptor{}, false
}

// Validate checks cfg against the experiments about to run, before any
// work: every id must be registered, Scale must be empty or a known scale,
// no integer setting may be negative, Arrivals, Plans and Faults must parse,
// every scoped setting that is set must be read by at least one of ids, and
// a sink (Trace, Metrics, Profile) needs exactly one id, because it records
// one experiment's designated cell. With no ids every scoped setting is
// rejected.
func Validate(cfg Config, ids ...string) error {
	var reads Settings
	for _, id := range ids {
		d, ok := Find(id)
		if !ok {
			return fmt.Errorf("experiments: unknown experiment %q", id)
		}
		reads |= d.Reads
	}
	switch cfg.Scale {
	case "", Tiny, Small, Paper:
	default:
		return fmt.Errorf("experiments: unknown scale %q (want tiny, small or paper)", cfg.Scale)
	}
	for _, v := range []struct {
		name string
		v    int
	}{
		{"Window (-window)", cfg.Window}, {"Workers (-workers)", cfg.Workers}, {"Parallel (-parallel)", cfg.Parallel},
		{QueueCap.name(), cfg.QueueCap}, {Burst.name(), cfg.Burst}, {PipeCap.name(), cfg.PipeCap},
		{Deadline.name(), cfg.Deadline}, {SLOBudget.name(), cfg.SLOBudget},
	} {
		if v.v < 0 {
			return fmt.Errorf("experiments: %s must be non-negative, got %d", v.name, v.v)
		}
	}
	if _, err := serve.ParseArrivals(cfg.Arrivals, 1); err != nil {
		return fmt.Errorf("experiments: Arrivals (-arrivals): %w", err)
	}
	if _, err := selectPipePlans(cfg.Plans); err != nil {
		return err
	}
	if cfg.Faults != "" {
		if _, err := fault.ParseSpec(cfg.Faults); err != nil {
			return fmt.Errorf("experiments: Faults (-faults): %w", err)
		}
	}
	set := cfg.set()
	if unread := set &^ reads; unread != 0 {
		s := unread & -unread // the lowest unread setting
		var readers []string
		for _, d := range Registry() {
			if d.Reads&s != 0 {
				readers = append(readers, d.ID)
			}
		}
		on := "without an experiment"
		if len(ids) > 0 {
			on = "on " + strings.Join(ids, ", ")
		}
		return fmt.Errorf("experiments: %s has no effect %s; only %s read it", s.name(), on, strings.Join(readers, ", "))
	}
	if sinks := set & Sinks; sinks != 0 && len(ids) != 1 {
		return fmt.Errorf("experiments: %s records one experiment's designated cell, so it needs exactly one experiment, not %d",
			sinks.name(), len(ids))
	}
	return nil
}

// Run executes the experiment with the given ID. It does not check cfg;
// callers with outside input call Validate first.
func Run(id string, cfg Config) ([]*table.Table, error) {
	d, ok := Find(id)
	if !ok {
		return nil, fmt.Errorf("experiments: unknown experiment %q", id)
	}
	return d.Run(cfg), nil
}
