// Package amac is a from-scratch reproduction of "Asynchronous Memory
// Access Chaining" (Kocberber, Falsafi, Grot — VLDB 2015) as a reusable Go
// library.
//
// AMAC is a software technique for hiding memory latency in pointer-chasing
// database operators (hash joins, group-by, index search): instead of
// statically grouping or pipelining independent lookups — the prior
// Group Prefetching and Software-Pipelined Prefetching approaches — AMAC
// keeps each in-flight lookup's state in a slot of a small circular buffer
// and switches between lookups every time one of them issues a memory
// access. Because the lookups never wait for each other, irregular work
// (variable-length chains, early exits, latch conflicts) does not reduce the
// memory-level parallelism the core sustains.
//
// Go has no portable prefetch intrinsic, so this library reproduces the
// paper on a deterministic, cycle-accounting model of the two machines the
// paper evaluates (an Intel Xeon x5670 socket and a SPARC T4 socket); see
// DESIGN.md for the substitution argument. The library exposes four layers:
//
//   - the simulated hardware (System, Core, XeonX5670, SPARCT4),
//   - the execution engines (Baseline, GP, SPP and AMAC), which schedule
//     user-defined stage Machines: RunWith runs any technique, Run is AMAC
//     with the scheduler's full Options,
//   - the paper's operators and workloads (hash join, group-by, BST search,
//     skip list search/insert) ready to run under any engine,
//   - the streaming request-serving layer (arrival processes, QueueSource,
//     RunSourceWith and RunStream, RunService), which serves the same
//     operators under open-loop load and accounts per-request latency;
//     RunService also injects deterministic faults (ParseFaults) and
//     applies the recovery policies, and returns an error for options it
//     cannot honour,
//   - the adaptive execution subsystem (AdaptiveController, RunAdaptive,
//     RunStreamAdaptive, WidthAIMD), which picks the technique per phase
//     online and resizes the AMAC slot window mid-run from per-window
//     execution samples — the paper's Section 6 flexibility argument as a
//     feedback loop,
//   - the streaming pipeline layer (PipelineBuilder, NewPipeline,
//     ServePipelines), which chains the operators into multi-operator query
//     plans whose rows stream stage-to-stage through bounded, backpressured
//     pipes with a per-stage engine choice — static, planned by the
//     cost-seeded mini-planner (PipelineBuilder.Plan), or fully adaptive,
//   - the observability subsystem (Trace, Metrics), which records the whole
//     stack on the simulated clock — slot lifecycle, group boundaries,
//     controller decisions, queue and pipe activity as Chrome/Perfetto
//     trace-event JSON, and gauge time series (width, MSHR occupancy, queue
//     depth, sliding p99, stall fraction) as JSON Lines. The simulated core
//     is the one instrumentation context: trace, metrics and profiler
//     attach to it (Core.SetTrace, Core.SetMetrics, Core.SetProfiler), and
//     everything running on the core records there. A nil sink is the
//     disabled state: every recording method on a nil receiver is a
//     single-branch, zero-allocation no-op, and tracing never changes a
//     simulated result byte. Adaptive controllers additionally keep an
//     always-on structured decision log (AdaptiveInfo.Decisions) answering
//     "why did this shard switch technique?" without a trace viewer,
//   - the cycle-attribution profiler (CycleProfile), under the same nil-is-
//     disabled contract: the memory model charges every simulated cycle to
//     one category (compute, exposed stall per miss level, TLB, MSHR
//     pressure, idle) under the context stack the engines push (technique,
//     stage, probe/exploit epoch, pipeline stage, serving admission), with
//     exact conservation against the core's cycle counter, hidden-versus-
//     exposed fill accounting with achieved MLP, and folded-flamegraph and
//     gzipped-pprof exports keyed on simulated cycles,
//   - the experiment harness that regenerates every table and figure of the
//     paper's evaluation (Experiments, RunExperiment; also exposed through
//     cmd/amacbench).
//
// The examples directory contains runnable programs for each layer.
package amac
