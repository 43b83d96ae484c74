package amac_test

import (
	"testing"

	"amac"
)

// TestPublicAPIEndToEnd exercises the whole public surface the way the
// quickstart example does: generate a workload, run it under every
// technique, and verify the results agree.
func TestPublicAPIEndToEnd(t *testing.T) {
	build, probe, err := amac.BuildJoin(amac.JoinSpec{BuildSize: 1 << 10, ProbeSize: 1 << 10, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	join := amac.NewHashJoin(build, probe)
	join.PrebuildRaw()
	wantCount, wantSum := join.ReferenceJoin()

	for _, tech := range amac.Techniques {
		sys, err := amac.NewSystem(amac.XeonX5670())
		if err != nil {
			t.Fatal(err)
		}
		core := sys.NewCore()
		out := amac.NewOutput(join.Arena, false)
		amac.RunWith(core, join.ProbeMachine(out, false), tech, amac.Params{Window: 8})
		if out.Count != wantCount || out.Checksum != wantSum {
			t.Fatalf("%s: results differ from reference", tech)
		}
		if core.Cycle() == 0 || core.Stats().Instructions == 0 {
			t.Fatalf("%s: core charged no work", tech)
		}
	}
}

// TestDirectEngineEntryPoints drives each technique through both entry
// points, RunWith over the machine and RunSourceWith over its
// MachineSource, at an explicit window: a batch is the stream that admits
// every lookup at cycle 0, so both charge identical cycles. AMAC through Run
// with the same width matches them too.
func TestDirectEngineEntryPoints(t *testing.T) {
	build, probe, err := amac.BuildIndexWorkload(1<<9, 3)
	if err != nil {
		t.Fatal(err)
	}
	w := amac.NewBSTWorkload(build, probe)

	// One output for every run, so each writes its results to the same
	// simulated addresses.
	out := amac.NewOutput(w.Arena, false)
	run := func(f func(c *amac.Core, m *amac.BSTSearchMachine)) uint64 {
		sys := amac.MustSystem(amac.XeonX5670())
		c := sys.NewCore()
		out.Reset()
		f(c, w.SearchMachine(out))
		if int(out.Count) != probe.Len() {
			t.Fatalf("search found %d of %d keys", out.Count, probe.Len())
		}
		return c.Cycle()
	}

	p := amac.Params{Window: 10}
	for _, tech := range amac.Techniques {
		batch := run(func(c *amac.Core, m *amac.BSTSearchMachine) { amac.RunWith(c, m, tech, p) })
		stream := run(func(c *amac.Core, m *amac.BSTSearchMachine) {
			amac.RunSourceWith(c, amac.NewMachineSource[amac.BSTState](m), tech, p)
		})
		if batch == 0 || batch != stream {
			t.Fatalf("%s: RunWith charged %d cycles, RunSourceWith %d", tech, batch, stream)
		}
	}

	var stats amac.RunStats
	am := run(func(c *amac.Core, m *amac.BSTSearchMachine) { stats = amac.Run(c, m, amac.Options{Width: 10}) })
	if stats.Completed != probe.Len() {
		t.Fatalf("AMAC completed %d of %d", stats.Completed, probe.Len())
	}
	if with := run(func(c *amac.Core, m *amac.BSTSearchMachine) { amac.RunWith(c, m, amac.AMAC, p) }); am != with {
		t.Fatalf("Run charged %d cycles, RunWith(AMAC) %d", am, with)
	}
}

func TestParseTechnique(t *testing.T) {
	tech, err := amac.ParseTechnique("AMAC")
	if err != nil || tech != amac.AMAC {
		t.Fatalf("ParseTechnique: %v %v", tech, err)
	}
	if _, err := amac.ParseTechnique("bogus"); err == nil {
		t.Fatal("expected error")
	}
}

func TestExperimentRegistryExposed(t *testing.T) {
	exps := amac.Experiments()
	if len(exps) < 14 {
		t.Fatalf("expected the full experiment registry, got %d entries", len(exps))
	}
	tables, err := amac.RunExperiment("table4", amac.ExperimentConfig{Scale: amac.TinyScale, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(tables) == 0 || tables[0].ID != "table4" {
		t.Fatal("table4 did not run")
	}
	if _, err := amac.RunExperiment("bogus", amac.ExperimentConfig{}); err == nil {
		t.Fatal("unknown experiment should fail")
	}
}

// TestRunExperimentRejectsBadConfig: RunExperiment checks its config before
// any work, so each bad setting returns an error instead of panicking in a
// sweep goroutine or running as if it were unset.
func TestRunExperimentRejectsBadConfig(t *testing.T) {
	tiny := func(edit func(*amac.ExperimentConfig)) amac.ExperimentConfig {
		cfg := amac.ExperimentConfig{Scale: amac.TinyScale}
		edit(&cfg)
		return cfg
	}
	cases := []struct {
		name, id string
		cfg      amac.ExperimentConfig
	}{
		{"unknown-arrivals", "serveN", tiny(func(c *amac.ExperimentConfig) { c.Arrivals = "nope" })},
		{"malformed-faults", "faultN", tiny(func(c *amac.ExperimentConfig) { c.Faults = "slow:0@bogus" })},
		{"unmatched-plans", "pipeN", tiny(func(c *amac.ExperimentConfig) { c.Plans = "nosuchplan" })},
		{"unknown-scale", "table4", amac.ExperimentConfig{Scale: "huge"}},
		{"negative-window", "fig6", tiny(func(c *amac.ExperimentConfig) { c.Window = -1 })},
		{"negative-workers", "scaleN", tiny(func(c *amac.ExperimentConfig) { c.Workers = -1 })},
		{"negative-parallel", "fig6", tiny(func(c *amac.ExperimentConfig) { c.Parallel = -1 })},
		{"negative-queuecap", "serveN", tiny(func(c *amac.ExperimentConfig) { c.QueueCap = -1 })},
		{"negative-burst", "pipeN", tiny(func(c *amac.ExperimentConfig) { c.Burst = -1 })},
		{"negative-pipecap", "pipeN", tiny(func(c *amac.ExperimentConfig) { c.PipeCap = -1 })},
		{"negative-deadline", "faultN", tiny(func(c *amac.ExperimentConfig) { c.Deadline = -1 })},
		{"negative-slobudget", "faultN", tiny(func(c *amac.ExperimentConfig) { c.SLOBudget = -1 })},
		{"queuecap-on-fig6", "fig6", tiny(func(c *amac.ExperimentConfig) { c.QueueCap = 64 })},
		{"trace-on-fig6", "fig6", tiny(func(c *amac.ExperimentConfig) { c.Trace = amac.NewTrace(0) })},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := amac.RunExperiment(tc.id, tc.cfg); err == nil {
				t.Fatalf("RunExperiment(%q) accepted a bad config", tc.id)
			}
		})
	}
}

func TestGroupByFacade(t *testing.T) {
	rel, err := amac.BuildGroupBy(amac.GroupBySpec{Size: 900, Repeats: 3, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	g := amac.NewGroupBy(rel, 300)
	sys := amac.MustSystem(amac.SPARCT4())
	amac.RunWith(sys.NewCore(), g.Machine(), amac.AMAC, amac.Params{})
	groups := g.Table.Groups()
	if len(groups) != 300 {
		t.Fatalf("got %d groups, want 300", len(groups))
	}
	var agg amac.Aggregates = groups[0]
	if agg.Count == 0 || agg.Avg() <= 0 {
		t.Fatal("aggregates not populated")
	}
}

// TestCustomMachineThroughPublicAPI verifies that user code can define its
// own Machine and schedule it with AMAC, which is the library's primary
// extension point.
func TestCustomMachineThroughPublicAPI(t *testing.T) {
	m := &countdownMachine{lookups: 64, hops: 3}
	sys := amac.MustSystem(amac.XeonX5670())
	stats := amac.Run(sys.NewCore(), m, amac.Options{Width: 4})
	if stats.Completed != 64 || m.visits != 64*3 {
		t.Fatalf("completed %d, visits %d", stats.Completed, m.visits)
	}
}

// countdownMachine is a minimal user-defined Machine: each lookup performs a
// fixed number of dependent accesses at synthetic addresses.
type countdownMachine struct {
	lookups int
	hops    int
	visits  int
}

type countdownState struct {
	remaining int
	addr      amac.Addr
}

func (m *countdownMachine) NumLookups() int        { return m.lookups }
func (m *countdownMachine) ProvisionedStages() int { return m.hops + 1 }

func (m *countdownMachine) Init(c *amac.Core, s *countdownState, i int) amac.Outcome {
	c.Instr(2)
	s.remaining = m.hops
	s.addr = amac.Addr(1+i) << 20
	return amac.Outcome{NextStage: 1, Prefetch: s.addr}
}

func (m *countdownMachine) Stage(c *amac.Core, s *countdownState, stage int) amac.Outcome {
	c.Load(s.addr, 8)
	m.visits++
	s.remaining--
	if s.remaining == 0 {
		return amac.Outcome{Done: true}
	}
	s.addr += 37 * amac.LineSize
	return amac.Outcome{NextStage: 1, Prefetch: s.addr}
}
