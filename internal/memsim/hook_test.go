package memsim

import (
	"bytes"
	"encoding/json"
	"testing"

	"amac/internal/obs"
)

// TestCycleHookFiresOnBoundaries drives the clock through all three
// advancing paths (compute, stall, idle) and checks the hook fires once per
// boundary, in order, with the boundary cycle.
func TestCycleHookFiresOnBoundaries(t *testing.T) {
	_, c := newTestCore(t)
	var fired []uint64
	c.setCycleHook(10, func(cycle uint64) { fired = append(fired, cycle) })

	c.Instr(25)                 // compute: crosses 10 and 20
	c.Load(0x10000, 8)          // stall: cold miss jumps far past several boundaries
	c.AdvanceTo(c.Cycle() + 35) // idle: three more boundaries

	if len(fired) == 0 {
		t.Fatalf("hook never fired")
	}
	for i, cyc := range fired {
		if cyc%10 != 0 {
			t.Fatalf("firing %d at cycle %d is not a step boundary", i, cyc)
		}
		if i > 0 && cyc != fired[i-1]+10 {
			t.Fatalf("boundary skipped or repeated: %v", fired)
		}
	}
	if last := fired[len(fired)-1]; last > c.Cycle() {
		t.Fatalf("hook fired for future cycle %d (clock at %d)", last, c.Cycle())
	}
	want := c.Cycle() / 10
	if uint64(len(fired)) != want {
		t.Fatalf("hook fired %d times over %d cycles at step 10, want %d", len(fired), c.Cycle(), want)
	}
}

// TestCycleHookObservationalOnly runs the same workload with and without a
// hook installed and checks every simulated result is bit-identical — the
// tentpole invariant at its root.
func TestCycleHookObservationalOnly(t *testing.T) {
	run := func(hook bool) Stats {
		_, c := newTestCore(t)
		if hook {
			c.setCycleHook(7, func(uint64) {})
		}
		for i := 0; i < 50; i++ {
			c.Instr(3)
			c.Load(Addr(0x4000+i*192), 16)
			if i%5 == 0 {
				c.Prefetch(Addr(0x90000 + i*64))
			}
		}
		c.AdvanceTo(c.Cycle() + 100)
		return c.Stats()
	}
	if plain, hooked := run(false), run(true); plain != hooked {
		t.Fatalf("cycle hook changed simulated results:\nwithout: %+v\nwith:    %+v", plain, hooked)
	}
}

func TestCycleHookResetStatsRearms(t *testing.T) {
	_, c := newTestCore(t)
	var fired []uint64
	c.setCycleHook(10, func(cycle uint64) { fired = append(fired, cycle) })
	c.Instr(25)
	c.ResetStats()
	fired = nil
	c.Instr(15)
	if len(fired) != 1 || fired[0] != 10 {
		t.Fatalf("after ResetStats the hook should fire at the first boundary again, got %v", fired)
	}
}

func TestCycleHookClearedByReset(t *testing.T) {
	_, c := newTestCore(t)
	fired := 0
	c.setCycleHook(10, func(uint64) { fired++ })
	c.Reset()
	c.Instr(100)
	if fired != 0 {
		t.Fatalf("hook survived Reset and fired %d times", fired)
	}
	if c.hookNext != ^uint64(0) {
		t.Fatalf("Reset left hookNext armed at %d", c.hookNext)
	}
	// Removal via setCycleHook(0, nil) too.
	c.setCycleHook(10, func(uint64) { fired++ })
	c.setCycleHook(0, nil)
	c.Instr(100)
	if fired != 0 {
		t.Fatalf("removed hook fired %d times", fired)
	}
}

// TestSetMetricsCoreGauges attaches a metrics collection and checks the
// core's own gauges: width reads the last SetWidth, mshr_outstanding the
// MSHR file, stall_fraction the stall share of busy cycles since the
// previous sample; samples land on interval boundaries, and SetMetrics(nil)
// stops them.
func TestSetMetricsCoreGauges(t *testing.T) {
	_, c := newTestCore(t)
	m := obs.NewMetrics(100)
	c.SetMetrics(m.Core("core"))
	c.Instr(150) // compute only: one sample at cycle 100, no stall
	c.SetWidth(7)
	c.Load(0x10000, 8) // cold miss: stalls past several boundaries
	samples := m.Core("core").Samples()
	c.SetMetrics(nil)
	c.Instr(1000)
	if got := m.Core("core").Samples(); got != samples {
		t.Fatalf("detached hook kept sampling: %d samples, want %d", got, samples)
	}

	var buf bytes.Buffer
	if err := m.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	type record struct {
		Cycle  uint64             `json:"cycle"`
		Values map[string]float64 `json:"values"`
	}
	var recs []record
	dec := json.NewDecoder(&buf)
	for dec.More() {
		var r record
		if err := dec.Decode(&r); err != nil {
			t.Fatal(err)
		}
		recs = append(recs, r)
	}
	if len(recs) != samples || len(recs) < 2 {
		t.Fatalf("decoded %d samples, want %d (at least 2)", len(recs), samples)
	}
	first, last := recs[0], recs[len(recs)-1]
	if first.Cycle != 100 || first.Values["width"] != 0 || first.Values["stall_fraction"] != 0 {
		t.Fatalf("first sample = %+v, want cycle 100, width 0, no stall", first)
	}
	if last.Values["width"] != 7 {
		t.Fatalf("width gauge = %v after SetWidth(7)", last.Values["width"])
	}
	if f := last.Values["stall_fraction"]; f <= 0 || f > 1 {
		t.Fatalf("stall_fraction = %v during a cold-miss stall, want (0, 1]", f)
	}
	if _, ok := last.Values["mshr_outstanding"]; !ok {
		t.Fatalf("sample lacks mshr_outstanding: %+v", last)
	}
}
