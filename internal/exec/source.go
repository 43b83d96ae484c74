package exec

import "amac/internal/memsim"

// This file defines the pull-based lookup stream every execution engine runs
// over (BaselineStream, GroupPrefetchStream, SoftwarePipelineStream here;
// core.RunStream for AMAC). A Source hands out lookups one at a time and may
// answer "nothing has arrived yet", which is exactly the situation a
// request-serving system faces under open-loop traffic. A fixed batch —
// every index 0..NumLookups()-1 exists before the run starts — is the
// special case MachineSource: every lookup is ready at cycle 0. Each request
// carries the simulated cycle at which it entered the system, so the source
// can account admission→completion latency per request.

// Request identifies one admitted lookup of a streaming run.
type Request struct {
	// Index is the lookup index the source passed to the underlying
	// machine's Init; it is only meaningful to the source itself.
	Index int
	// Admit is the simulated cycle at which the request entered the system
	// (its arrival), the start point of its measured latency.
	Admit uint64
}

// PullStatus says what a Source returned from Pull.
type PullStatus int

const (
	// Pulled means a request was admitted and its code stage 0 executed; the
	// PullResult carries the stage outcome and the request identity.
	Pulled PullStatus = iota
	// Wait means no request is available at the current cycle but more will
	// arrive; PullResult.NextArrival says when the engine may idle until.
	Wait
	// Exhausted means the stream has ended: every request was either pulled
	// or dropped, and none will arrive.
	Exhausted
)

// PullResult is the outcome of one Source.Pull call.
type PullResult struct {
	Status PullStatus
	// Out is stage 0's outcome (next stage, prefetch target), valid when
	// Status is Pulled.
	Out Outcome
	// Req identifies the pulled request, valid when Status is Pulled.
	Req Request
	// NextArrival is the earliest cycle at which a request will be
	// available, valid when Status is Wait.
	NextArrival uint64
	// Last marks the source's final request (Status Pulled): the engine
	// treats the source as exhausted without pulling again. MachineSource
	// sets it on a batch's last lookup, so a batch run ends the moment that
	// lookup's work is done instead of paying for a pull that finds the
	// source empty. Sources that only learn their end at a pull (queues,
	// pipes, leases) leave it false.
	Last bool
}

// Source is a pull-based stream of lookups over per-lookup state S. The
// streaming engines draw work from it instead of iterating a fixed index
// range: an engine slot that frees asks the source for the next admitted
// request, and the source replies with the request's stage-0 outcome, with
// "wait until cycle X", or with end-of-stream. Completions are reported back
// so the source can record per-request latency.
//
// A Source is driven by a single engine on a single core and need not be
// safe for concurrent use; the sharded service layer gives every worker its
// own source.
type Source[S any] interface {
	// ProvisionedStages is the stage count GP and SPP provision for
	// (Machine.ProvisionedStages of the underlying operator).
	ProvisionedStages() int
	// Pull admits the next available request at simulated cycle now and runs
	// its code stage 0 into state s.
	Pull(c *memsim.Core, s *S, now uint64) PullResult
	// Stage executes the given code stage (>= 1) for an in-flight request,
	// forwarding to the underlying machine.
	Stage(c *memsim.Core, s *S, stage int) Outcome
	// Complete records that the request finished at cycle done.
	Complete(req Request, done uint64)
}

// MachineSource adapts a fixed Machine batch to the Source interface: every
// lookup is considered admitted at cycle 0 (the whole batch is materialized
// before the run starts), handed out in index order, and never waits. It is
// how every engine runs a batch: the last lookup is pulled with
// PullResult.Last set, so a batch run never charges a pull that finds the
// source empty.
type MachineSource[S any] struct {
	M Machine[S]
	// OnComplete, if non-nil, observes every completion.
	OnComplete func(req Request, done uint64)

	next int
}

// NewMachineSource wraps a machine as an always-ready source.
func NewMachineSource[S any](m Machine[S]) *MachineSource[S] {
	return &MachineSource[S]{M: m}
}

// ProvisionedStages implements Source.
func (ms *MachineSource[S]) ProvisionedStages() int { return ms.M.ProvisionedStages() }

// Pull implements Source: the next lookup in index order, admitted at cycle
// 0, with Last set on the batch's final lookup.
func (ms *MachineSource[S]) Pull(c *memsim.Core, s *S, now uint64) PullResult {
	n := ms.M.NumLookups()
	if ms.next >= n {
		return PullResult{Status: Exhausted}
	}
	i := ms.next
	ms.next++
	return PullResult{Status: Pulled, Out: ms.M.Init(c, s, i), Req: Request{Index: i}, Last: ms.next == n}
}

// Stager is the stage-execution half of a Source (and of a Machine).
type Stager[S any] interface {
	Stage(c *memsim.Core, s *S, stage int) Outcome
}

// StagerOf returns where an engine should send a source's stage calls: the
// machine itself for a MachineSource, which saves a dynamic call on every
// stage visit of a batch run, and the source otherwise.
func StagerOf[S any](src Source[S]) Stager[S] {
	if ms, ok := src.(*MachineSource[S]); ok {
		return ms.M
	}
	return src
}

// Stage implements Source.
func (ms *MachineSource[S]) Stage(c *memsim.Core, s *S, stage int) Outcome {
	return ms.M.Stage(c, s, stage)
}

// Complete implements Source.
func (ms *MachineSource[S]) Complete(req Request, done uint64) {
	if ms.OnComplete != nil {
		ms.OnComplete(req, done)
	}
}

// FailKind classifies a request an engine abandoned instead of completing.
type FailKind int

const (
	// FailDeadline: the request's in-flight time exceeded its deadline and
	// the engine closed the slot.
	FailDeadline FailKind = iota
	// FailCrash: the engine was aborted (a crashed shard) with the request
	// still in flight.
	FailCrash
)

// FailSink is implemented by sources that want to hear about requests the
// engine gave up on (deadline expiry, shard crash). Failed requests are never
// also Completed. Sources that do not implement it silently lose the
// notification — the engine's own RunStats still count the failure.
type FailSink interface {
	Fail(req Request, at uint64, kind FailKind)
}
