package adapt

import (
	"amac/internal/exec"
	"amac/internal/obs"
)

// WidthAIMD resizes the AMAC slot window online, implementing the paper's
// Section 6 observation that AMAC's per-slot independence makes the number
// of in-flight memory accesses a runtime knob. The policy is an AIMD
// hill-climb over three phase signals read from each probe window:
//
//   - MSHR saturation (MSHRFullWaitCycles a visible share of busy time):
//     the window has outrun the hardware MLP limit and prefetches now stall
//     the core waiting for a free MSHR — back off multiplicatively, the
//     same instinct as a TCP sender that overran the bottleneck queue.
//   - Memory-bound (stall fraction high, MSHRs not saturated): unexploited
//     MLP remains — grow additively, one slot at a time.
//   - Compute-bound (stall fraction low): extra slots add no throughput but
//     hold more requests in flight concurrently, which inflates per-request
//     latency in serving runs — glide down one slot at a time toward Min.
//
// Hysteresis keeps the window from chattering: a direction must persist for
// Patience consecutive windows before a resize, and each resize is followed
// by Cooldown windows of observation so the new width's statistics settle
// before the next decision. The result on a steady memory-bound phase is a
// sawtooth hugging the MSHR limit from below — within the flat region of
// the paper's Figure 6 — and on compute-bound phases a glide to Min.
type WidthAIMD struct {
	// W is the current width (the value Sample returns while holding).
	W int
	// Min and Max bound the window.
	Min, Max int

	// SaturationFraction is the MSHR-full share of busy time above which
	// the window shrinks multiplicatively. Default 0.05.
	SaturationFraction float64
	// MemboundFraction is the stall share of busy time above which the
	// window grows. Default 0.35.
	MemboundFraction float64
	// CalmFraction is the stall share below which the phase counts as
	// compute-bound and the window glides down. Default 0.10.
	CalmFraction float64
	// Patience is how many consecutive windows must agree on a direction
	// before the width moves. Default 2.
	Patience int
	// Cooldown is how many windows are observed without acting after each
	// resize. Default 2.
	Cooldown int

	// trace is the trace sink of the core the owning Controller runs on
	// (Controller.bind): it receives a decision instant for every width
	// move (grow, shrink, glide), stamped with the probe window's end cycle,
	// and the Controller's own decisions. Nil methods no-op. Purely
	// observational.
	trace *obs.CoreTrace

	streakDir int
	streak    int
	cool      int
}

// NewWidthAIMD builds a controller starting at width start, bounded to
// [min, max], with the default thresholds.
func NewWidthAIMD(start, min, max int) *WidthAIMD {
	if min < 1 {
		min = 1
	}
	if max < min {
		max = min
	}
	if start < min {
		start = min
	}
	if start > max {
		start = max
	}
	return &WidthAIMD{
		W: start, Min: min, Max: max,
		SaturationFraction: 0.05,
		MemboundFraction:   0.35,
		CalmFraction:       0.10,
		Patience:           2,
		Cooldown:           2,
	}
}

// Sample implements exec.WidthController.
func (a *WidthAIMD) Sample(w exec.Window) int {
	if a.cool > 0 {
		a.cool--
		return a.W
	}
	if w.BusyCycles() == 0 || w.Completed == 0 {
		return a.W
	}

	satur := w.MSHRFullFraction() > a.SaturationFraction
	stall := w.StallFraction()
	dir := 0
	switch {
	case satur:
		dir = -1
	case stall > a.MemboundFraction:
		dir = +1
	case stall < a.CalmFraction:
		dir = -1
	}
	if dir == 0 {
		a.streak, a.streakDir = 0, 0
		return a.W
	}
	if dir != a.streakDir {
		a.streakDir, a.streak = dir, 1
		return a.W
	}
	a.streak++
	if a.streak < a.Patience {
		return a.W
	}

	old := a.W
	code := obs.DecWidthGlide
	switch {
	case dir > 0:
		a.W++ // additive increase toward untapped MLP
		code = obs.DecWidthGrow
	case satur:
		a.W -= max(1, a.W/4) // multiplicative decrease off the MSHR wall
		code = obs.DecWidthShrink
	default:
		a.W-- // gentle glide on compute-bound phases
	}
	if a.W < a.Min {
		a.W = a.Min
	}
	if a.W > a.Max {
		a.W = a.Max
	}
	if a.W != old {
		a.trace.Decision(w.AtCycle, code, int64(a.W), int64(old))
	}
	a.streak, a.streakDir = 0, 0
	a.cool = a.Cooldown
	return a.W
}
