package main

import (
	"bytes"
	"encoding/json"
	"os"
	"regexp"
	"strings"
	"testing"
	"time"

	"amac/internal/memsim"
	"amac/internal/ops"
	"amac/internal/relation"
)

// testSizes runs every workload's code on inputs small enough for a test.
var testSizes = sizes{
	joinLog:       12,
	serveBuildLog: 11, serveProbeLog: 13, serveDraws: 2,
	pipeRowsLog: 11, pipeBuildLog: 12, pipeDimLog: 7, pipeGroups: 128, pipeSample: 512,
	setups: 2, minPasses: 2,
}

// runSmall runs one workload at test sizes with the shortest duration, so
// it makes exactly its minimum passes.
func runSmall(t *testing.T, name string, seed uint64, trace bool) *result {
	t.Helper()
	w, err := newWorkload(name, testSizes)
	if err != nil {
		t.Fatal(err)
	}
	res, err := run(w, runConfig{workload: name, seed: seed, duration: time.Nanosecond, trace: trace, sizes: testSizes})
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	return res
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]*$`)

// checkSummary asserts the result line carries exactly the named metrics,
// each with its unit, and no failed cell.
func checkSummary(t *testing.T, name string, res *result, defs []metricDef) {
	t.Helper()
	b, err := json.Marshal(res.summary())
	if err != nil {
		t.Fatal(err)
	}
	var line struct {
		Correct   bool
		Attempted int
		Failed    int
		Metrics   map[string]metricValue
	}
	if err := json.Unmarshal(b, &line); err != nil {
		t.Fatal(err)
	}
	if !line.Correct || line.Failed != 0 || line.Attempted < 1 {
		for _, p := range res.passes {
			for _, c := range p.cells {
				if c.err != nil {
					t.Errorf("%s %s: %v", name, c.name, c.err)
				}
			}
		}
		t.Fatalf("%s: correct=%v attempted=%d failed=%d", name, line.Correct, line.Attempted, line.Failed)
	}
	if len(line.Metrics) != len(defs) {
		t.Errorf("%s: %d metrics, want %d", name, len(line.Metrics), len(defs))
	}
	for _, d := range defs {
		m, ok := line.Metrics[d.name]
		if !ok {
			t.Errorf("%s: metric %s missing", name, d.name)
			continue
		}
		if m.Unit != d.unit {
			t.Errorf("%s: metric %s has unit %q, want %q", name, d.name, m.Unit, d.unit)
		}
	}
}

// TestWorkloadsEmitEveryMetric runs every workload untraced and traced and
// checks each result line: every end-to-end (untraced) or per-layer
// (traced) metric with its unit, every cell's output correct.
func TestWorkloadsEmitEveryMetric(t *testing.T) {
	for _, name := range workloadNames {
		untraced := runSmall(t, name, 1, false)
		checkSummary(t, name, untraced, endToEnd)
		if got := untraced.e2e["ok_frac"]; got != 1 {
			t.Errorf("%s: ok_frac %v, want 1", name, got)
		}
		for _, m := range []string{"sim_lookups_per_s", "setup_s", "sim_cycles_per_lookup", "sim_p50_cycles", "sim_p99_cycles", "sim_served_frac"} {
			if untraced.e2e[m] <= 0 {
				t.Errorf("%s: %s = %v, want > 0", name, m, untraced.e2e[m])
			}
		}
		traced := runSmall(t, name, 1, true)
		checkSummary(t, name, traced, perLayer)
		if len(traced.tracer.spans) == 0 {
			t.Errorf("%s: traced run recorded no spans", name)
		}
	}
}

// TestMetricNames checks every metric name against the result format and
// that no name repeats.
func TestMetricNames(t *testing.T) {
	seen := make(map[string]bool)
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		if !nameRE.MatchString(d.name) || len(d.name) > 64 {
			t.Errorf("metric name %q does not match %s (64 characters at most)", d.name, nameRE)
		}
		if seen[d.name] {
			t.Errorf("metric name %q repeats", d.name)
		}
		seen[d.name] = true
	}
	if len(endToEnd) != 8 {
		t.Errorf("%d end-to-end metrics, want 8", len(endToEnd))
	}
	if len(perLayer) > 128 {
		t.Errorf("%d per-layer metrics, want at most 128", len(perLayer))
	}
}

// TestBenchmarkFileMatches checks that BENCHMARK.json lists exactly the
// metrics the driver reports, with the same units, and names the workloads
// the driver knows.
func TestBenchmarkFileMatches(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skipf("no BENCHMARK.json next to the benchmark: %v", err)
	}
	var f struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &f); err != nil {
		t.Fatal(err)
	}
	var wl []string
	for _, w := range f.Workloads {
		wl = append(wl, w.Name)
	}
	if strings.Join(wl, ",") != strings.Join(workloadNames, ",") {
		t.Errorf("BENCHMARK.json workloads %v, driver has %v", wl, workloadNames)
	}
	same := func(kind string, got []struct{ Name, Unit string }, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("BENCHMARK.json has %d %s metrics, driver reports %d", len(got), kind, len(want))
			return
		}
		for i := range want {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("BENCHMARK.json %s metric %d is %s [%s], driver reports %s [%s]",
					kind, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	same("end_to_end", f.EndToEnd, endToEnd)
	same("per_layer", f.PerLayer, perLayer)
}

// simMetrics picks the simulated end-to-end metrics.
func simMetrics(res *result) map[string]float64 {
	out := make(map[string]float64)
	for k, v := range res.e2e {
		if strings.HasPrefix(k, "sim_") && k != "sim_lookups_per_s" {
			out[k] = v
		}
	}
	return out
}

// TestSimulatedMetricsRepeat checks that the simulated metrics and the
// per-cell digests are identical between two in-process runs of the same
// seed and between a traced and an untraced run, and that another seed
// simulates something else.
func TestSimulatedMetricsRepeat(t *testing.T) {
	for _, name := range workloadNames {
		a := runSmall(t, name, 7, false)
		b := runSmall(t, name, 7, false)
		tr := runSmall(t, name, 7, true)
		other := runSmall(t, name, 8, false)
		for k, v := range simMetrics(a) {
			if simMetrics(b)[k] != v {
				t.Errorf("%s: %s %v then %v on the same seed", name, k, v, simMetrics(b)[k])
			}
			if simMetrics(tr)[k] != v {
				t.Errorf("%s: %s %v untraced, %v traced", name, k, v, simMetrics(tr)[k])
			}
		}
		if a.simDigest != b.simDigest || a.simDigest != tr.simDigest {
			t.Errorf("%s: sim digests %x, %x, traced %x", name, a.simDigest, b.simDigest, tr.simDigest)
		}
		if other.simDigest == a.simDigest {
			t.Errorf("%s: seeds 7 and 8 simulated the same thing", name)
		}
	}
}

// TestLatencyMachineChargesNothing checks that the latency wrapper leaves
// the probe's simulated results unchanged for every technique.
func TestLatencyMachineChargesNothing(t *testing.T) {
	build, probe, err := relation.BuildJoin(relation.JoinSpec{BuildSize: 1 << 11, ProbeSize: 1 << 11, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	j := ops.NewHashJoin(build, probe)
	j.PrebuildRaw()
	out := ops.NewOutput(j.Arena, false)
	for _, tech := range ops.Techniques {
		bare := memsim.MustSystem(memsim.XeonX5670()).NewCore()
		out.Reset()
		ops.RunMachine(bare, j.ProbeMachine(out, false), tech, ops.Params{Window: window})
		wantCount, wantSum := out.Count, out.Checksum

		wrapped := memsim.MustSystem(memsim.XeonX5670()).NewCore()
		out.Reset()
		log := &latencyLog{}
		ops.RunMachine[latencyState](wrapped, latencyMachine{m: j.ProbeMachine(out, false), rec: log}, tech, ops.Params{Window: window})
		if bare.Stats() != wrapped.Stats() || out.Count != wantCount || out.Checksum != wantSum {
			t.Errorf("%v: wrapped run differs from the bare one", tech)
		}
		if log.Count() != uint64(probe.Len()) {
			t.Errorf("%v: %d latencies for %d lookups", tech, log.Count(), probe.Len())
		}
		if p50, p99 := log.Quantile(0.5), log.Quantile(0.99); p50 == 0 || p99 < p50 {
			t.Errorf("%v: p50 %d, p99 %d", tech, p50, p99)
		}
	}
}

// TestTailPercentile checks the reported tail keeps ten samples beyond it.
func TestTailPercentile(t *testing.T) {
	s := make([]float64, 1000)
	for i := range s {
		s[i] = float64(i + 1)
	}
	if p, v, ok := tailPercentile(s); !ok || p != "p99" || v != 990 {
		t.Errorf("1000 samples: %s=%v ok=%v, want p99=990", p, v, ok)
	}
	if _, _, ok := tailPercentile(s[:20]); ok {
		t.Error("20 samples: no percentile above p50 has ten samples beyond it")
	}
	if got := median([]float64{3, 1, 2, 10}); got != 2.5 {
		t.Errorf("median = %v, want 2.5", got)
	}
}

// TestCLIRejectsBadArguments checks that bad arguments exit 2 without a
// result line.
func TestCLIRejectsBadArguments(t *testing.T) {
	for _, args := range [][]string{
		{"--workload", "nope"},
		{"--workload", "join-dram", "--trace", "2"},
		{"--workload", "join-dram", "--seconds", "0"},
		{"--workload", "join-dram", "extra"},
		{"--bogus"},
	} {
		var stdout, stderr bytes.Buffer
		if code := cli(args, &stdout, &stderr); code != 2 || stdout.Len() != 0 {
			t.Errorf("%v: exit %d, stdout %q; want exit 2 and no output", args, code, stdout.String())
		}
	}
}
