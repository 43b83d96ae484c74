package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"amac/internal/experiments"
	"amac/internal/obs"
)

// flagCase is one amacbench command line and the verdict on it.
type flagCase struct {
	name    string
	args    []string
	wantErr string // substring; empty means valid
}

// args splits a command line on spaces.
func args(line string) []string { return strings.Fields(line) }

// runFlagCases feeds each command line through the check main runs before
// any work: flag parsing, configure's explicit-zero and -metrics-interval
// rules, and experiments.Validate over the selected experiments.
func runFlagCases(t *testing.T, cases []flagCase) {
	t.Helper()
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			fs, o := newFlags()
			if err := fs.Parse(tc.args); err != nil {
				t.Fatal(err)
			}
			_, err := o.configure(fs.Visit)
			if tc.wantErr == "" {
				if err != nil {
					t.Fatalf("unexpected error: %v", err)
				}
				return
			}
			if err == nil {
				t.Fatalf("expected an error containing %q, got nil", tc.wantErr)
			}
			if !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("error %q does not contain %q", err, tc.wantErr)
			}
		})
	}
}

// TestValidateServingFlags: -arrivals/-qcap are accepted for the experiments
// that read them (serveN, adaptN, faultN, pipeN) and -exp all, and rejected
// wherever they would silently no-op, -bench included.
func TestValidateServingFlags(t *testing.T) {
	runFlagCases(t, []flagCase{
		{name: "no serving flags", args: args("-exp fig6")},
		{name: "serveN with arrivals", args: args("-exp serveN -arrivals bursty")},
		{name: "serveN with qcap", args: args("-exp serveN -qcap 64")},
		{name: "adaptN with both", args: args("-exp adaptN -arrivals poisson -qcap 32")},
		{name: "pipeN with both", args: args("-exp pipeN -scale tiny -arrivals bursty -qcap 64")},
		{name: "pipeN with arrivals", args: args("-exp pipeN -arrivals deterministic")},
		{name: "all includes serving", args: args("-exp all -arrivals deterministic")},
		{name: "unknown arrivals", args: args("-exp serveN -arrivals nope"), wantErr: "unknown arrival process"},
		{name: "negative qcap", args: args("-exp serveN -qcap -1"), wantErr: "QueueCap (-qcap) must be non-negative"},
		{name: "fig6 with arrivals", args: args("-exp fig6 -arrivals bursty"), wantErr: "-arrivals) has no effect on fig6"},
		{name: "fig5b with qcap", args: args("-exp fig5b -qcap 8"), wantErr: "-qcap) has no effect on fig5b"},
		{name: "table3 with both", args: args("-exp table3 -arrivals poisson -qcap 4"), wantErr: "has no effect on table3"},
		{name: "scaleN with qcap", args: args("-exp scaleN -qcap 16"), wantErr: "only adaptN, faultN, pipeN, serveN read it"},
		{name: "bench with arrivals", args: args("-bench -arrivals bursty"), wantErr: "no effect without an experiment"},
		{name: "bench with qcap", args: args("-bench -qcap 8"), wantErr: "no effect without an experiment"},
		{name: "bench without serving flags", args: args("-bench")},
	})
}

// TestValidatePipelineFlags: -plans/-burst/-pipecap are accepted for pipeN
// and -exp all, and rejected wherever they would silently no-op.
func TestValidatePipelineFlags(t *testing.T) {
	runFlagCases(t, []flagCase{
		{name: "no pipeline flags", args: args("-exp fig6")},
		{name: "pipeN with plans", args: args("-exp pipeN -plans mixed")},
		{name: "pipeN with burst", args: args("-exp pipeN -burst 32")},
		{name: "pipeN with pipecap", args: args("-exp pipeN -pipecap 64")},
		{name: "pipeN with all three", args: args("-exp pipeN -plans bst,chain -burst 16 -pipecap 32")},
		{name: "all includes pipeline", args: args("-exp all -burst 16")},
		{name: "negative burst", args: args("-exp pipeN -burst -2"), wantErr: "Burst (-burst) must be non-negative"},
		{name: "negative pipecap", args: args("-exp pipeN -pipecap -2"), wantErr: "PipeCap (-pipecap) must be non-negative"},
		{name: "fig6 with plans", args: args("-exp fig6 -plans mixed"), wantErr: "-plans) has no effect on fig6"},
		{name: "fig5b with burst", args: args("-exp fig5b -burst 8"), wantErr: "-burst) has no effect on fig5b"},
		{name: "serveN with pipecap", args: args("-exp serveN -pipecap 8"), wantErr: "-pipecap) has no effect on serveN"},
		{name: "table3 with plans and burst", args: args("-exp table3 -plans agg -burst 8"), wantErr: "has no effect on table3"},
		{name: "scaleN with all three", args: args("-exp scaleN -plans bst -burst 4 -pipecap 8"), wantErr: "only pipeN read it"},
		{name: "bench with plans", args: args("-bench -plans mixed"), wantErr: "no effect without an experiment"},
		{name: "bench with burst", args: args("-bench -burst 8"), wantErr: "no effect without an experiment"},
		{name: "bench without pipeline flags", args: args("-bench")},
	})
}

// TestValidateObsFlags: -trace/-metrics need exactly one experiment that
// records them, and -metrics-interval needs -metrics; -exp all and -bench
// are rejected.
func TestValidateObsFlags(t *testing.T) {
	runFlagCases(t, []flagCase{
		{name: "no obs flags", args: args("-exp fig6")},
		{name: "serveN with trace", args: args("-exp serveN -trace t.json")},
		{name: "adaptN with trace and metrics", args: args("-exp adaptN -trace t.json -metrics m.jsonl")},
		{name: "pipeN with trace", args: args("-exp pipeN -trace t.json")},
		{name: "faultN with trace and metrics", args: args("-exp faultN -trace t.json -metrics m.jsonl")},
		{name: "obsN with everything", args: args("-exp obsN -trace t.json -metrics m.jsonl -metrics-interval 2048")},
		{name: "obsN metrics only", args: args("-exp obsN -metrics m.jsonl")},
		{name: "negative interval", args: args("-exp obsN -metrics m.jsonl -metrics-interval -1"), wantErr: "-metrics-interval must be positive"},
		{name: "interval without metrics", args: args("-exp obsN -trace t.json -metrics-interval 2048"), wantErr: "needs -metrics (got 2048, -metrics \"\")"},
		{name: "trace with fig6", args: args("-exp fig6 -trace t.json"), wantErr: "Trace (-trace) has no effect on fig6"},
		{name: "metrics with fig5b", args: args("-exp fig5b -metrics m.jsonl"), wantErr: "Metrics (-metrics) has no effect on fig5b"},
		{name: "metrics with pipeN", args: args("-exp pipeN -metrics m.jsonl"), wantErr: "Metrics (-metrics) has no effect on pipeN"},
		{name: "trace with exp all", args: args("-exp all -trace t.json"), wantErr: "needs exactly one experiment"},
		{name: "metrics with exp all", args: args("-exp all -metrics m.jsonl"), wantErr: "needs exactly one experiment"},
		{name: "bench with trace", args: args("-bench -trace t.json"), wantErr: "no effect without an experiment"},
		{name: "bench with metrics", args: args("-bench -metrics m.jsonl"), wantErr: "no effect without an experiment"},
		{name: "bench without obs flags", args: args("-bench")},
	})
}

// TestValidateProfFlags: -profile/-flame need exactly one experiment with a
// designated profile cell (profN, serveN).
func TestValidateProfFlags(t *testing.T) {
	runFlagCases(t, []flagCase{
		{name: "no prof flags", args: args("-exp fig6")},
		{name: "profN with profile", args: args("-exp profN -profile p.pb.gz")},
		{name: "profN with flame", args: args("-exp profN -flame f.txt")},
		{name: "profN with both", args: args("-exp profN -profile p.pb.gz -flame f.txt")},
		{name: "serveN with flame", args: args("-exp serveN -flame f.txt")},
		{name: "profile with fig6", args: args("-exp fig6 -profile p.pb.gz"), wantErr: "Profile (-profile/-flame) has no effect on fig6"},
		{name: "flame with obsN", args: args("-exp obsN -flame f.txt"), wantErr: "has no effect on obsN"},
		{name: "both with adaptN", args: args("-exp adaptN -profile p.pb.gz -flame f.txt"), wantErr: "only profN, serveN read it"},
		{name: "profile with exp all", args: args("-exp all -profile p.pb.gz"), wantErr: "needs exactly one experiment"},
		{name: "bench with flame", args: args("-bench -flame f.txt"), wantErr: "no effect without an experiment"},
		{name: "bench without prof flags", args: args("-bench")},
	})
}

// TestValidateExplicitZero: knobs whose zero value means "use the default"
// reject an explicit `-flag 0` — it would silently behave as if the flag
// were absent — while an unset flag, a nonzero value, or an explicit zero on
// an unrelated flag all pass.
func TestValidateExplicitZero(t *testing.T) {
	runFlagCases(t, []flagCase{
		{name: "no flags", args: args("-exp fig6")},
		{name: "nonzero qcap", args: args("-exp serveN -qcap 64")},
		{name: "nonzero deadline and slo", args: args("-exp faultN -deadline 6000 -slo 8000")},
		{name: "unrelated zero", args: args("-exp fig6 -window 0")},
		{name: "explicit zero qcap", args: args("-exp serveN -qcap 0"), wantErr: "-qcap 0 is meaningless"},
		{name: "explicit zero deadline", args: args("-exp faultN -deadline 0"), wantErr: "-deadline 0 is meaningless"},
		{name: "explicit zero slo", args: args("-exp faultN -slo 0"), wantErr: "-slo 0 is meaningless"},
		{name: "explicit zero pipecap", args: args("-exp pipeN -pipecap 0"), wantErr: "-pipecap 0 is meaningless"},
		{name: "explicit zero metrics-interval", args: args("-exp obsN -metrics m.jsonl -metrics-interval 0"), wantErr: "-metrics-interval 0 is meaningless"},
		{name: "zero among valid flags", args: args("-exp pipeN -qcap 32 -pipecap 0"), wantErr: "-pipecap 0 is meaningless"},
	})
}

// TestValidateFaultFlags: -faults/-deadline/-slo are accepted for faultN and
// -exp all, and rejected wherever they would silently no-op or carry a
// malformed schedule or a negative budget.
func TestValidateFaultFlags(t *testing.T) {
	runFlagCases(t, []flagCase{
		{name: "no fault flags", args: args("-exp fig6")},
		{name: "faultN plain", args: args("-exp faultN")},
		{name: "faultN with scripted schedule", args: args("-exp faultN -faults slow:0@20000+40000x4,crash:1@90000+30000")},
		{name: "faultN with random schedule", args: args("-exp faultN -faults rand:7:3")},
		{name: "faultN with deadline", args: args("-exp faultN -deadline 6000")},
		{name: "faultN with slo", args: args("-exp faultN -slo 8000")},
		{name: "all includes fault", args: args("-exp all -faults freeze:0@1000+2000")},
		{name: "malformed schedule", args: args("-exp faultN -faults slow:0@bogus"), wantErr: "Faults (-faults)"},
		{name: "slow without factor", args: args("-exp faultN -faults slow:0@1000+2000"), wantErr: "Faults (-faults)"},
		{name: "negative deadline", args: args("-exp faultN -deadline -1"), wantErr: "Deadline (-deadline) must be non-negative"},
		{name: "negative slo", args: args("-exp faultN -slo -5"), wantErr: "SLOBudget (-slo) must be non-negative"},
		{name: "fig6 with faults", args: args("-exp fig6 -faults rand:1"), wantErr: "Faults (-faults) has no effect on fig6"},
		{name: "serveN with deadline", args: args("-exp serveN -deadline 4000"), wantErr: "Deadline (-deadline) has no effect on serveN"},
		{name: "serveN with slo", args: args("-exp serveN -slo 4000"), wantErr: "SLOBudget (-slo) has no effect on serveN"},
		{name: "table3 with all three", args: args("-exp table3 -faults rand:1 -slo 2 -deadline 3"), wantErr: "only faultN read it"},
		{name: "bench with faults", args: args("-bench -faults rand:1"), wantErr: "no effect without an experiment"},
		{name: "bench with slo", args: args("-bench -slo 100"), wantErr: "no effect without an experiment"},
		{name: "bench without fault flags", args: args("-bench")},
	})
}

// TestValidatePipePlans: every -plans token must select at least one pipeN
// plan; matching is a case-insensitive substring over the plan names.
func TestValidatePipePlans(t *testing.T) {
	runFlagCases(t, []flagCase{
		{name: "empty filter", args: args("-exp pipeN")},
		{name: "mixed", args: args("-exp pipeN -plans mixed")},
		{name: "case-insensitive", args: args("-exp pipeN -plans BST")},
		{name: "multiple tokens", args: []string{"-exp", "pipeN", "-plans", "agg, chain"}},
		{name: "full name", args: []string{"-exp", "pipeN", "-plans", "probe→BST filter (steady)"}},
		{name: "unknown token", args: args("-exp pipeN -plans mixed,nosuchplan"), wantErr: "matches no pipeN plan"},
		{name: "empty token", args: args("-exp pipeN -plans mixed,,agg"), wantErr: "empty token"},
	})
}

// TestValidateScaleAndCounts: the unscoped settings are checked for every
// experiment, -bench included.
func TestValidateScaleAndCounts(t *testing.T) {
	runFlagCases(t, []flagCase{
		{name: "tiny", args: args("-exp fig6 -scale tiny")},
		{name: "unknown scale", args: args("-exp fig6 -scale huge"), wantErr: "unknown scale"},
		{name: "bench unknown scale", args: args("-bench -scale huge"), wantErr: "unknown scale"},
		{name: "negative window", args: args("-exp fig6 -window -1"), wantErr: "Window (-window) must be non-negative"},
		{name: "negative workers", args: args("-exp scaleN -workers -1"), wantErr: "Workers (-workers) must be non-negative"},
		{name: "negative parallel", args: args("-exp all -parallel -1"), wantErr: "Parallel (-parallel) must be non-negative"},
	})
}

// TestTraceJSONRoundTrip runs the observability replay with a trace attached
// and parses the Chrome export back: the file must be a single valid JSON
// object in trace-event format, name its process and fixed tracks, carry
// decision instants on the controller track, and keep every track's B/E spans
// balanced (never more ends than begins).
func TestTraceJSONRoundTrip(t *testing.T) {
	tr := obs.NewTrace(0)
	if _, err := experiments.Run("obsN", experiments.Config{Scale: experiments.Tiny, Trace: tr}); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := tr.WriteChrome(&buf); err != nil {
		t.Fatal(err)
	}

	var doc struct {
		DisplayTimeUnit string `json:"displayTimeUnit"`
		TraceEvents     []struct {
			Name string         `json:"name"`
			Ph   string         `json:"ph"`
			Ts   uint64         `json:"ts"`
			Pid  int            `json:"pid"`
			Tid  int            `json:"tid"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("trace export is not valid JSON: %v", err)
	}
	if doc.DisplayTimeUnit != "ms" {
		t.Fatalf("displayTimeUnit = %q, want \"ms\"", doc.DisplayTimeUnit)
	}
	if len(doc.TraceEvents) == 0 {
		t.Fatal("trace export holds no events")
	}

	var haveProcess, haveController, haveDecision, haveSlotSpan bool
	depth := map[string]int{}
	for _, ev := range doc.TraceEvents {
		if ev.Ph == "" {
			t.Fatalf("event %+v has no phase", ev)
		}
		switch {
		case ev.Ph == "M" && ev.Name == "process_name":
			haveProcess = true
		case ev.Ph == "M" && ev.Name == "thread_name" && ev.Args["name"] == "controller":
			haveController = true
		case ev.Ph == "i" && ev.Tid == 0 && ev.Name == obs.DecisionName(obs.DecSwitch):
			haveDecision = true
		}
		key := fmt.Sprintf("%d/%d", ev.Pid, ev.Tid)
		switch ev.Ph {
		case "B":
			depth[key]++
			if ev.Tid >= 3 {
				haveSlotSpan = true
			}
		case "E":
			depth[key]--
			if depth[key] < 0 {
				t.Fatalf("track %s closes more spans than it opens", key)
			}
		}
	}
	if !haveProcess || !haveController {
		t.Fatalf("missing metadata: process=%v controller=%v", haveProcess, haveController)
	}
	if !haveDecision {
		t.Fatal("no technique-switch decision instant on the controller track (the shift workload must switch)")
	}
	if !haveSlotSpan {
		t.Fatal("no slot lifecycle span in the export")
	}
}

// TestBenchGateSimCycles: the gate passes when every shared entry's
// simulated cycles match the baseline, and fails, naming the entry, when one
// differs; entries without cycles on one side are compared on ns/op only.
func TestBenchGateSimCycles(t *testing.T) {
	base := benchFile{Scale: "tiny", Benchmarks: []benchEntry{
		{Name: "probe-uniform/AMAC", NsPerOp: 100, SimCycles: 5000},
		{Name: "groupby/GP", NsPerOp: 100, SimCycles: 7000},
		{Name: "exp/fig6", NsPerOp: 100},
	}}
	buf, err := json.Marshal(base)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "baseline.json")
	if err := os.WriteFile(path, buf, 0o644); err != nil {
		t.Fatal(err)
	}
	current := benchFile{Scale: "tiny", Benchmarks: []benchEntry{
		{Name: "probe-uniform/AMAC", NsPerOp: 150, SimCycles: 5000},
		{Name: "groupby/GP", NsPerOp: 90, SimCycles: 7000},
		{Name: "exp/fig6", NsPerOp: 120},
	}}
	if err := checkBenchGate(current, path); err != nil {
		t.Fatalf("equal cycles should pass: %v", err)
	}
	current.Benchmarks[1].SimCycles = 7001
	err = checkBenchGate(current, path)
	if err == nil || !strings.Contains(err.Error(), "groupby/GP: 7001 simulated cycles vs baseline 7000") {
		t.Fatalf("differing cycles should fail naming groupby/GP, got %v", err)
	}
	if strings.Contains(err.Error(), "probe-uniform/AMAC") {
		t.Fatalf("only the differing entry should be named: %v", err)
	}
}
