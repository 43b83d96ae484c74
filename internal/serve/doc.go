// Package serve is the streaming request-serving layer: it turns the
// repository's batch operators into a simulated service under open-loop
// load, which is the system shape the paper's flexibility argument is
// really about. A load generator emits requests at simulated-cycle arrival
// times (deterministic, Poisson or bursty on/off); a bounded admission
// queue absorbs them under a drop or block policy; the technique's engine —
// AMAC (core.RunStream) or the batch-boundary GP/SPP/Baseline engines
// (package exec), the same engines that run batches — pulls requests out and
// runs them as stage machines; and a latency recorder histograms every request's
// admission→completion cycles into p50/p95/p99/max, throughput and queue
// depth.
//
// The point of the layer is that the four techniques differ in WHEN a freed
// execution slot may admit the next request: AMAC refills per slot the
// moment a lookup completes, GP only at group boundaries, SPP only at
// static pipeline refill points, the baseline one request at a time. Under
// batch execution that difference is a few percent of cycles; under
// open-loop arrivals near saturation it is the difference between a flat
// p99 and an admission queue that grows without bound.
//
// The sharded service has one coordinator, RunFaulty; Run is RunFaulty with
// no faults, no deadline and no recovery policy. Validate is its option
// check: callers holding options from outside (the root package's
// RunService) call it first and get an error, and RunFaulty panics with the
// same error for internal callers. Every worker owns a private
// core, machine, queue and recorder, and the coordinator steps each shard's
// engine to common round edges of the simulated clock so that host-side
// policy — package fault's scripted episodes (slowdown, freeze, crash,
// arrival spikes), per-request deadlines enforced in queue and in flight,
// capped-backoff retry, hedged re-dispatch with first-completion-wins dedup,
// a per-shard circuit breaker and the SLO brownout — acts between rounds on
// the simulated clock. A run with no fault episode and no recovery policy
// is a single round. Unrouted runs step their shards concurrently within a
// round, one goroutine per core (exec.RunParallel); routed runs step them
// serially, because the router moves work between shards. Pausing an engine
// charges nothing, so results are bit-identical however a run is cut into
// rounds and deterministic under -race. A timed-out slot is drained through
// the engine's shrink machinery, never abandoned, and the Recorder splits
// outcomes into served/timed-out/failed/shed/dropped with retry/hedge/reroute
// activity counted separately.
package serve
