package adapt

import (
	"fmt"

	"amac/internal/obs"
	"amac/internal/ops"
)

// DecisionKind classifies one controller decision in the decision log.
type DecisionKind uint8

const (
	// KindProbeStart marks the beginning of a probe epoch: the controller is
	// about to measure every candidate technique on adjacent segments.
	KindProbeStart DecisionKind = iota
	// KindCalibrate records a probe epoch's outcome when the winner is the
	// incumbent (or this is the first calibration).
	KindCalibrate
	// KindSwitch records a probe epoch whose winner differs from the
	// incumbent: the technique change serving callers most want to explain.
	KindSwitch
	// KindDriftReprobe records a calibration discarded because the observed
	// cycles-per-lookup left the drift band — a phase shift.
	KindDriftReprobe
	// KindQueueReprobe records a calibration discarded because the admission
	// queue depth jumped across a lease — the service fell behind the load.
	KindQueueReprobe
	// KindTailSafe records the SLO brownout engaging (From = the calibrated
	// choice, To = AMAC) or releasing (the reverse) the tail-safe bias that
	// forces exploit leases onto AMAC while the p99 budget is blown.
	KindTailSafe
)

// String names the kind for tables and logs.
func (k DecisionKind) String() string {
	switch k {
	case KindProbeStart:
		return "probe-start"
	case KindCalibrate:
		return "calibrate"
	case KindSwitch:
		return "switch"
	case KindDriftReprobe:
		return "drift-reprobe"
	case KindQueueReprobe:
		return "queue-reprobe"
	case KindTailSafe:
		return "tail-safe"
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

// obsCode maps the kind onto the shared obs decision code so trace events and
// log entries name decisions identically.
func (k DecisionKind) obsCode() int {
	switch k {
	case KindProbeStart:
		return obs.DecProbeStart
	case KindCalibrate:
		return obs.DecCalibrate
	case KindSwitch:
		return obs.DecSwitch
	case KindDriftReprobe:
		return obs.DecDriftReprobe
	case KindQueueReprobe:
		return obs.DecQueueReprobe
	case KindTailSafe:
		return obs.DecTailSafe
	}
	return obs.DecProbeStart
}

// Decision is one entry of the controller's decision log: what the controller
// decided, when (in simulated cycles of the core it was driving), and the
// evidence it acted on. The log answers the serving operator's question "why
// did this shard switch technique?" without a trace viewer.
type Decision struct {
	// Cycle is the simulated cycle the decision was taken at (the cycle of
	// the segment or lease boundary that exposed the evidence).
	Cycle uint64
	// Kind classifies the decision.
	Kind DecisionKind
	// From and To are the techniques before and after the decision. Equal for
	// decisions that do not change the technique.
	From, To ops.Technique
	// Width is the AMAC slot-window width in force after the decision.
	Width int
	// CPL is the busy cycles-per-lookup evidence the decision acted on: the
	// winner's probe cost for calibrate/switch, the out-of-band observation
	// for the reprobe kinds, zero when no measurement applies.
	CPL float64
}

// String renders one log entry, e.g. "12.4kc switch GP->AMAC w=16 cpl=41.2".
func (d Decision) String() string {
	s := fmt.Sprintf("%.1fkc %v", float64(d.Cycle)/1000, d.Kind)
	if d.From != d.To {
		s += fmt.Sprintf(" %v->%v", d.From, d.To)
	} else {
		s += fmt.Sprintf(" %v", d.To)
	}
	s += fmt.Sprintf(" w=%d", d.Width)
	if d.CPL > 0 {
		s += fmt.Sprintf(" cpl=%.1f", d.CPL)
	}
	return s
}

// record appends a decision stamped with the bound core's current cycle and
// mirrors it into the trace, if one is attached.
func (ctl *Controller) record(kind DecisionKind, from, to ops.Technique, cpl float64) {
	d := Decision{
		Cycle: ctl.core.Cycle(),
		Kind:  kind,
		From:  from,
		To:    to,
		Width: ctl.width.W,
		CPL:   cpl,
	}
	ctl.info.Decisions = append(ctl.info.Decisions, d)
	ctl.width.trace.Decision(d.Cycle, kind.obsCode(), int64(to), int64(d.Width))
}

// Decisions returns a copy of the decision log accumulated so far.
func (ctl *Controller) Decisions() []Decision {
	if len(ctl.info.Decisions) == 0 {
		return nil
	}
	cp := make([]Decision, len(ctl.info.Decisions))
	copy(cp, ctl.info.Decisions)
	return cp
}
