package adapt_test

import (
	"testing"

	"amac/internal/adapt"
	"amac/internal/core"
	"amac/internal/ops"
)

// TestTailBiasForcesAMAC drives a StreamTuner through a calibration that
// picks Baseline, then engages the serving layer's tail-safe signal and
// checks exploit leases flip to AMAC (with the decision logged) and flip
// back on release.
func TestTailBiasForcesAMAC(t *testing.T) {
	ctl := adapt.NewController(adapt.Config{
		Techniques: []ops.Technique{ops.Baseline, ops.AMAC},
	})
	biased := false
	ctl.SetTailBias(func() bool { return biased })
	tuner := adapt.NewStreamTuner(newCore(), ctl, nil)

	// Calibration epoch: warm-up lease, then one probe per candidate, with
	// Baseline measured far cheaper.
	observe := func(l adapt.Lease, cpl float64) {
		tuner.Observe(l, 100, uint64(cpl*100), core.RunStats{}, false)
	}
	observe(tuner.Next(), 50) // warm-up (unmeasured)
	observe(tuner.Next(), 10) // Baseline probe
	observe(tuner.Next(), 40) // AMAC probe
	if got := ctl.Technique(); got != ops.Baseline {
		t.Fatalf("calibration chose %v, want Baseline", got)
	}
	if l := tuner.Next(); l.Tech != ops.Baseline || l.Probe {
		t.Fatalf("unbiased exploit lease = %+v, want Baseline exploit", l)
	}

	biased = true
	l := tuner.Next()
	if l.Tech != ops.AMAC || l.Probe {
		t.Fatalf("biased exploit lease = %+v, want AMAC exploit", l)
	}
	decs := ctl.Decisions()
	last := decs[len(decs)-1]
	if last.Kind != adapt.KindTailSafe || last.From != ops.Baseline || last.To != ops.AMAC {
		t.Fatalf("engagement not logged: %+v", last)
	}
	// The forced lease's cost must not feed the Baseline drift detector, so
	// observing an expensive AMAC lease does not trigger a re-probe.
	observe(l, 40)
	if l := tuner.Next(); l.Probe {
		t.Fatal("tail-safe lease cost leaked into the drift detector")
	}

	biased = false
	if l := tuner.Next(); l.Tech != ops.Baseline {
		t.Fatalf("release should restore the calibrated choice, got %v", l.Tech)
	}
	decs = ctl.Decisions()
	last = decs[len(decs)-1]
	if last.Kind != adapt.KindTailSafe || last.To != ops.Baseline {
		t.Fatalf("release not logged: %+v", last)
	}
}
