package amac

import (
	"amac/internal/fault"
	"amac/internal/serve"
)

// This file exports the fault-injection and graceful-degradation layer:
// deterministic chaos schedules applied on the simulated clock (shard
// slowdown, freeze, crash with cold-cache restart, arrival spikes),
// per-request deadlines, and the recovery policies — capped-backoff retry,
// hedged re-dispatch, per-shard circuit breakers and an SLO-aware brownout
// — that keep a degraded service's surviving tail bounded (see the faultN
// experiment). RunService applies them through FaultyServiceOptions;
// ParseFaults reads the -faults spec grammar.

// FaultKind discriminates fault episodes (slow, freeze, crash, spike).
type FaultKind = fault.Kind

// The fault episode kinds.
const (
	FaultSlow   = fault.Slow
	FaultFreeze = fault.Freeze
	FaultCrash  = fault.Crash
	FaultSpike  = fault.Spike
)

// FaultEpisode is one fault applied to one shard over [Start, Start+Dur)
// simulated cycles.
type FaultEpisode = fault.Episode

// FaultSchedule is a set of episodes, sorted by start cycle, with at most
// one active episode per shard at any instant.
type FaultSchedule = fault.Schedule

// ParseFaults parses a chaos-schedule spec: either a comma-separated
// episode list ("slow:0@20000+40000x4,crash:1@90000+30000", tokens
// kind:shard@start+dur[xfactor]) or a seeded random request
// ("rand:SEED[:N]", N up to 4096, default 4). The spec's Resolve
// materializes it once the shard count and horizon are known: a random
// request draws up to N non-overlapping episodes, deterministic for a fixed
// seed, and a fixed list is validated against the shard count.
func ParseFaults(spec string) (fault.Spec, error) {
	return fault.ParseSpec(spec)
}

// RetryPolicy is capped exponential backoff for requests whose last live
// copy timed out or was crash-dropped.
type RetryPolicy = fault.RetryPolicy

// HedgePolicy duplicates a still-unserved request onto a healthy sibling
// shard after Delay cycles; the first completion wins.
type HedgePolicy = fault.HedgePolicy

// BreakerConfig configures the per-shard circuit breaker: an EWMA of the
// shard's per-round timeout fraction opens the breaker (arrivals reroute to
// siblings), a cooldown moves it to half-open, and successful probes close
// it again.
type BreakerConfig = fault.BreakerConfig

// BreakerTransition is one breaker state change on the simulated clock.
type BreakerTransition = fault.Transition

// SLO configures the brownout controller: a sliding-p99 budget and the
// request classes load is shed by when the budget is exceeded.
type SLO = fault.SLO

// FaultyServiceOptions configures a RunService run: the plain
// ServiceOptions (whose SLO drives the brownout) plus a chaos schedule,
// per-request deadlines and the recovery policies layered on top of the
// shards. A zero fault block injects no faults and applies no policy.
type FaultyServiceOptions = serve.FaultyOptions

// FaultInfo summarises a run's fault activity (episodes applied, deepest
// brownout shed level, breaker transitions); ServiceResult.Faults and
// PerWorker[w].Faults carry it for every service run.
type FaultInfo = serve.FaultInfo
