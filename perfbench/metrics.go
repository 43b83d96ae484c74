package main

import (
	"fmt"
	"hash/fnv"
	"math"
	"sort"
)

// metricDef names one reported metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd are the metrics a user of the simulator sees, reported with
// -trace 0. Names starting sim_ are simulated quantities or counts that
// repeat exactly for a seed; sim_lookups_per_s is simulated work per host
// second; the rest are host measurements.
var endToEnd = []metricDef{
	{"sim_lookups_per_s", "1/s"},
	{"setup_s", "s"},
	{"peak_rss_mb", "MB"},
	{"sim_cycles_per_lookup", "cycles"},
	{"sim_p50_cycles", "cycles"},
	{"sim_p99_cycles", "cycles"},
	{"sim_served_frac", "ratio"},
	{"ok_frac", "ratio"},
}

// perLayer are the metrics of single layers, reported with -trace 1. Each
// is the median of its samples; a layer the workload does not call reports
// 0 with no samples.
var perLayer = []metricDef{
	{"relation.gen_s", "s"},
	{"ops.materialize_s", "s"},
	{"memsim.acquire_us", "us"},

	{"memsim.ns_per_access", "ns"},
	{"memsim.dram_fills_per_lookup", "count"},
	{"memsim.stream_fills_per_lookup", "count"},
	{"memsim.tlb_misses_per_lookup", "count"},
	{"memsim.l1_hit_ratio", "ratio"},
	{"memsim.llc_hit_ratio", "ratio"},
	{"memsim.stall_frac", "ratio"},
	{"memsim.idle_frac", "ratio"},
	{"memsim.mshr_full_wait_frac", "ratio"},
	{"memsim.ipc", "instr/cycle"},
	{"memsim.prefetch_issued_ratio", "ratio"},

	{"exec.Baseline.ns_per_lookup", "ns"},
	{"exec.GP.ns_per_lookup", "ns"},
	{"exec.SPP.ns_per_lookup", "ns"},
	{"core.AMAC.ns_per_lookup", "ns"},
	{"exec.Baseline.allocs_per_run", "count"},
	{"exec.GP.allocs_per_run", "count"},
	{"exec.SPP.allocs_per_run", "count"},
	{"core.AMAC.allocs_per_run", "count"},
	{"exec.Baseline.sim_cycles_per_lookup", "cycles"},
	{"exec.GP.sim_cycles_per_lookup", "cycles"},
	{"exec.SPP.sim_cycles_per_lookup", "cycles"},
	{"core.AMAC.sim_cycles_per_lookup", "cycles"},

	{"serve.Run.AMAC-0.5.ns_per_req", "ns"},
	{"serve.Run.AMAC-0.9.ns_per_req", "ns"},
	{"serve.Run.AMAC-1.2.ns_per_req", "ns"},
	{"serve.Run.GP-0.9.ns_per_req", "ns"},
	{"serve.Run.Baseline-0.9.ns_per_req", "ns"},
	{"serve.Run.allocs_per_run", "count"},
	{"serve.dropped_frac", "ratio"},

	{"serve.RunFaulty.ns_per_req", "ns"},
	{"fault.coordinator_ratio", "ratio"},
	{"fault.timed_out_frac", "ratio"},

	{"obs.on_off_ratio", "ratio"},
	{"obs.allocs_on", "count"},
	{"obs.events", "count"},
	{"obs.dropped_events", "count"},
	{"prof.attributed_cycles", "cycles"},

	{"pipeline.Plan.ms", "ms"},
	{"pipeline.Plan.sim_cycles", "cycles"},
	{"pipeline.Run.agg.ns_per_row", "ns"},
	{"pipeline.Run.chain.ns_per_row", "ns"},
	{"pipeline.Run.allocs_per_run", "count"},
	{"pipeline.RunAdaptive.ns_per_row", "ns"},
	{"pipeline.Serve.chain.ns_per_req", "ns"},

	{"adapt.decisions_per_run", "count"},
	{"adapt.switches", "count"},

	{"go.gc_cycles", "count"},
	{"go.gc_pause_ms", "ms"},
	{"go.alloc_mb", "MB"},

	{"trace.overhead_frac", "ratio"},
}

// median is the middle sample (the mean of the two middle ones for an even
// count); 0 for no samples.
func median(s []float64) float64 {
	if len(s) == 0 {
		return 0
	}
	c := append([]float64(nil), s...)
	sort.Float64s(c)
	n := len(c)
	if n%2 == 1 {
		return c[n/2]
	}
	return (c[n/2-1] + c[n/2]) / 2
}

// tailPercentile returns the highest of p75, p90, p95, p99 and p99.9 that
// still has at least ten samples above it, with its value (nearest rank).
func tailPercentile(s []float64) (string, float64, bool) {
	c := append([]float64(nil), s...)
	sort.Float64s(c)
	n := float64(len(c))
	for _, q := range []float64{0.999, 0.99, 0.95, 0.90, 0.75} {
		if n*(1-q) < 10 {
			continue
		}
		rank := int(math.Ceil(q*n)) - 1
		return fmt.Sprintf("p%g", q*100), c[rank], true
	}
	return "", 0, false
}

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// digest hashes the printed form of simulated results.
func digest(vs ...any) uint64 {
	h := fnv.New64a()
	for _, v := range vs {
		fmt.Fprintf(h, "%+v\n", v)
	}
	return h.Sum64()
}
