// Command perfbench is the repository's benchmark driver. It builds one of
// three workloads from a seed, runs every cell of it in a closed loop for a
// fixed host time, checks every cell's output against an oracle, and prints
// the end-to-end metrics (or, with -trace 1, the per-layer metrics) as the
// last line of its output, one JSON object.
//
//	perfbench -workload join-dram -seed 1 -seconds 20 -trace 0
//
// See README.md for the workloads, the metrics and what each one measures.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
	"time"
)

func main() {
	os.Exit(cli(os.Args[1:], os.Stdout, os.Stderr))
}

// cli parses the arguments, runs the benchmark and prints the report; it
// returns the process exit code.
func cli(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: "+strings.Join(workloadNames, ", "))
	seed := fs.Uint64("seed", 1, "seed the workload's inputs are generated from")
	seconds := fs.Int("seconds", 20, "host seconds of measured passes (at least the minimum pass count runs)")
	trace := fs.Int("trace", 0, "1 records spans and reports the per-layer metrics; 0 reports the end-to-end metrics")
	root := fs.String("root", ".", "source tree whose Go files the provenance digest covers")
	out := fs.String("out", ".bench_build/spans", "directory the traced run writes its span file to")
	commit := fs.String("commit", "none", "commit the binary was built from, for the provenance header")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() > 0 {
		fmt.Fprintf(stderr, "perfbench: unexpected arguments %q\n", fs.Args())
		return 2
	}
	if *seconds < 1 {
		fmt.Fprintln(stderr, "perfbench: -seconds must be at least 1")
		return 2
	}
	if *trace != 0 && *trace != 1 {
		fmt.Fprintln(stderr, "perfbench: -trace must be 0 or 1")
		return 2
	}
	w, err := newWorkload(*name, fullSizes)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 2
	}
	cfg := runConfig{
		workload: *name,
		seed:     *seed,
		duration: time.Duration(*seconds) * time.Second,
		trace:    *trace == 1,
		sizes:    fullSizes,
	}
	res, err := run(w, cfg)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	prov := provenance(cfg, *commit, *root, w, res)
	if cfg.trace {
		path, err := res.tracer.write(*out, fmt.Sprintf("%s-seed%d.json", *name, *seed))
		if err != nil {
			fmt.Fprintf(stderr, "perfbench: writing spans: %v\n", err)
			return 1
		}
		prov = append(prov, kv{"spans", path})
	}
	report(stdout, prov, res)
	line, err := json.Marshal(res.summary())
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	return 0
}

// kv is one provenance field.
type kv struct{ key, value string }

// report prints the human-readable part of the output: the provenance
// header, the per-cell breakdown of the first pass, and the metrics with
// their sample counts.
func report(w io.Writer, prov []kv, res *result) {
	for _, f := range prov {
		fmt.Fprintf(w, "# %-14s %s\n", f.key, f.value)
	}
	fmt.Fprintf(w, "\n%-32s %10s %10s %10s %14s %10s %10s %10s %16s  %s\n",
		"cell", "host s p50", "min", "max", "sim cycles", "sim p50", "sim p99", "work", "digest", "check (pass 0)")
	for i, c := range res.passes[0].cells {
		var hs []float64
		for _, p := range res.passes {
			if i < len(p.cells) {
				hs = append(hs, p.cells[i].hostS)
			}
		}
		sort.Float64s(hs)
		check := "ok"
		if c.err != nil {
			check = "FAILED: " + c.err.Error()
		}
		var p50, p99 uint64
		if c.lat != nil {
			p50, p99 = c.lat.Quantile(0.50), c.lat.Quantile(0.99)
		}
		fmt.Fprintf(w, "%-32s %10.4f %10.4f %10.4f %14d %10d %10d %10d %016x  %s\n",
			c.name, median(hs), hs[0], hs[len(hs)-1], c.cycles, p50, p99, c.work, c.digest, check)
	}
	for pi, p := range res.passes[1:] {
		for _, c := range p.cells {
			if c.err != nil {
				fmt.Fprintf(w, "pass %d %s FAILED: %v\n", pi+1, c.name, c.err)
			}
		}
	}
	fmt.Fprintf(w, "\npasses %d (%d traced, pass 0 warms up), host s per pass:", len(res.passes), len(res.tracedSs))
	for _, p := range res.passes {
		mark := ""
		if p.traced {
			mark = "*"
		}
		fmt.Fprintf(w, " %.3f%s", p.hostS, mark)
	}
	fmt.Fprintln(w)

	if !res.cfg.trace {
		fmt.Fprintf(w, "\n%-24s %16s  %s\n", "end-to-end metric", "value", "unit")
		for _, m := range endToEnd {
			fmt.Fprintf(w, "%-24s %16.6g  %s\n", m.name, res.e2e[m.name], m.unit)
		}
		fmt.Fprintf(w, "latency samples %d; failed_frac %.6g (%d of %d cells)\n",
			res.latSamples, float64(res.failed)/float64(res.attempted), res.failed, res.attempted)
		return
	}
	fmt.Fprintf(w, "\n%-40s %14s %14s %6s  %s\n", "per-layer metric", "p50", "tail", "n", "unit")
	for _, m := range perLayer {
		s := res.samples[m.name]
		tail := "-"
		if p, v, ok := tailPercentile(s); ok {
			tail = fmt.Sprintf("%s=%.4g", p, v)
		}
		fmt.Fprintf(w, "%-40s %14.6g %14s %6d  %s\n", m.name, median(s), tail, len(s), m.unit)
	}
	fmt.Fprintln(w, "\nhost time by layer (self time over the traced passes):")
	self := res.tracer.selfTimes()
	names := make([]string, 0, len(self))
	for n := range self {
		names = append(names, n)
	}
	sort.Slice(names, func(i, j int) bool { return self[names[i]] > self[names[j]] })
	for _, n := range names {
		fmt.Fprintf(w, "  %-32s %10.4f s\n", n, self[n].Seconds())
	}
	fmt.Fprintf(w, "tracing overhead: traced pass median %.4f s vs untraced %.4f s (%+.2f%%)\n",
		median(res.tracedSs), median(res.untracedS), 100*res.layer["trace.overhead_frac"])
}
