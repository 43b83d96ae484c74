package experiments

import (
	"fmt"

	"amac/internal/adapt"
	"amac/internal/memsim"
	"amac/internal/table"
)

func init() {
	register(Descriptor{
		ID:    "obsN",
		Title: "Observability replay: the adaptive controller's decision timeline on a phase-shift workload",
		Reads: Trace | Metrics,
		Run:   obsN,
	})
}

// obsTimelineCap bounds the decision-timeline table; a healthy run records a
// handful of decisions, so hitting the cap is itself a diagnostic.
const obsTimelineCap = 32

// obsN replays the adaptN shift-join workload — probes cross from an
// L2-resident dimension table to a DRAM-resident table mid-batch — under one
// adaptive controller and prints its decision log as a timeline table: every
// probe epoch, calibration, technique switch and drift re-probe with the
// simulated cycle it happened at, the width in force and the
// cycles-per-lookup evidence it acted on. This is the observability
// subsystem's demonstration experiment: with -trace the same run exports the
// slot-lifecycle/decision/width tracks to a Perfetto-loadable file, and with
// -metrics it samples width, MSHR occupancy and stall fraction as a time
// series — but the timeline table itself comes from the always-on decision
// log, so the experiment is equally useful untraced (including under
// -exp all). The replay is a single serial cell; tracing and metrics observe
// the identical run, so the table is byte-identical with or without them.
func obsN(cfg Config) []*table.Table {
	sz := cfg.sizes()
	machine := memsim.XeonX5670()
	seed := cfg.seed()
	n := sz.joinLarge
	half := n / 2

	ex := defaultEnv.wl.adaptWorkload(adaptKey{"shiftjoin", sz.adaptDim, n, half, seed}, func() adaptExec {
		return adaptShiftJoinExec(sz.adaptDim, n, half, seed)
	})
	c := adaptCore(machine, ex)
	ctl := adapt.NewController(adaptConfig(sz))

	c.SetTrace(cfg.Trace.Core("adaptive core"))
	c.SetMetrics(cfg.Metrics.Core("adaptive core"))
	ex.adaptive(c, ctl)
	cycles := c.Cycle()

	decisions := ctl.Decisions()
	shown := decisions
	if len(shown) > obsTimelineCap {
		shown = shown[:obsTimelineCap]
	}
	rows := make([]string, len(shown))
	for i, d := range shown {
		rows[i] = fmt.Sprintf("%02d %s", i+1, obsDecisionLabel(d))
	}
	cols := []string{"kcycles", "width", "cpl"}
	t := table.New("obsN", "Adaptive controller decision timeline on the shift dim→big join (Xeon)", "", rows, cols)
	for i, d := range shown {
		t.Set(rows[i], "kcycles", float64(d.Cycle)/1000)
		t.Set(rows[i], "width", float64(d.Width))
		t.Set(rows[i], "cpl", d.CPL)
	}
	t.AddNote("rows are the controller's decision log in order: probe epochs, calibrations (→ winner), switches (from→to) and re-probes; cpl is the cycles-per-lookup evidence the decision acted on (zero when none applies)")
	t.AddNote("replay: shift dim→big join, 2×2^%d lookups, %d total kcycles (%.1f cycles/lookup), dim table %d keys, scale %q, seed %d",
		log2(half), cycles/1000, float64(cycles)/float64(ex.lookups), sz.adaptDim, cfg.scale(), seed)
	if len(decisions) > obsTimelineCap {
		t.AddNote("timeline truncated: %d of %d decisions shown", obsTimelineCap, len(decisions))
	}
	return []*table.Table{t}
}

// obsDecisionLabel renders one decision-log entry as a timeline row label.
func obsDecisionLabel(d adapt.Decision) string {
	switch {
	case d.From != d.To:
		return fmt.Sprintf("%v %v→%v", d.Kind, d.From, d.To)
	case d.Kind == adapt.KindCalibrate:
		return fmt.Sprintf("calibrate→%v", d.To)
	default:
		return d.Kind.String()
	}
}
