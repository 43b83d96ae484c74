package experiments

import (
	"bytes"
	"fmt"
	"testing"

	"amac/internal/obs"
	"amac/internal/table"
)

// renderRun executes an experiment and renders its tables exactly the way
// cmd/amacbench does — text via Table.Render and JSON Lines via
// table.WriteJSONRows — so byte-comparing the two forms covers both output
// paths of the CLI.
func renderRun(t *testing.T, id string, cfg Config) (text, jsonl string) {
	t.Helper()
	tables, err := Run(id, cfg)
	if err != nil {
		t.Fatalf("%s: %v", id, err)
	}
	var tb, jb bytes.Buffer
	for _, table := range tables {
		table.Render(&tb)
	}
	if err := table.WriteJSONRows(&jb, id, tables); err != nil {
		t.Fatalf("%s: %v", id, err)
	}
	return tb.String(), jb.String()
}

// TestObservabilityDifferential is the observability subsystem's central
// invariant as a test: attaching trace and metrics sinks changes no simulated
// result byte. Every traceable experiment runs untraced and traced (including
// traced under parallel sweep fan-out, where only the designated cell
// records) and both the rendered text tables and the -json rows must be
// byte-identical. The traced runs must also actually record something —
// a trivially-empty trace would pass the diff while proving nothing.
func TestObservabilityDifferential(t *testing.T) {
	metricsOK := map[string]bool{"serveN": true, "adaptN": true, "obsN": true, "faultN": true}

	baseText := map[string]string{}
	baseJSON := map[string]string{}
	baseline := func(id string) (string, string) {
		if _, ok := baseText[id]; !ok {
			baseText[id], baseJSON[id] = renderRun(t, id, Config{Scale: Tiny, Parallel: 1})
		}
		return baseText[id], baseJSON[id]
	}

	cases := []struct {
		id       string
		parallel int
	}{
		{"serveN", 1},
		{"serveN", 4},
		{"adaptN", 1},
		{"adaptN", 4},
		{"pipeN", 1},
		{"pipeN", 4},
		{"obsN", 1},
		{"faultN", 1},
		{"faultN", 4},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(fmt.Sprintf("%s/parallel=%d", tc.id, tc.parallel), func(t *testing.T) {
			wantText, wantJSON := baseline(tc.id)

			cfg := Config{Scale: Tiny, Parallel: tc.parallel, Trace: obs.NewTrace(0)}
			if metricsOK[tc.id] {
				cfg.Metrics = obs.NewMetrics(0)
			}
			gotText, gotJSON := renderRun(t, tc.id, cfg)

			if gotText != wantText {
				t.Errorf("text tables differ traced vs untraced:\n--- untraced ---\n%s\n--- traced ---\n%s", wantText, gotText)
			}
			if gotJSON != wantJSON {
				t.Errorf("JSON rows differ traced vs untraced:\n--- untraced ---\n%s\n--- traced ---\n%s", wantJSON, gotJSON)
			}

			events := 0
			for _, c := range cfg.Trace.Cores() {
				events += c.Len()
			}
			if events == 0 {
				t.Error("traced run recorded no events")
			}
			if cfg.Metrics != nil {
				samples := 0
				for _, c := range cfg.Metrics.Cores() {
					samples += c.Samples()
				}
				if samples == 0 {
					t.Error("metered run recorded no samples")
				}
			}
		})
	}
}
