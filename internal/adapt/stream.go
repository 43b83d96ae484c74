package adapt

import (
	"amac/internal/core"
	"amac/internal/exec"
	"amac/internal/memsim"
)

// Streaming adaptation runs the same probe/exploit controller against an
// open-loop request source. The engines loop until their source is
// exhausted, so the controller interposes a lease (exec.LeaseSource): a
// source wrapper that reports end-of-stream after a quota of admitted
// requests. The engine drains its in-flight lookups and returns — no request
// is abandoned — and the controller reads the lease's window (busy cycles
// per completion, idle share, queue depth) before launching the next lease,
// possibly under a different technique. Lease quotas are counted in
// requests, not cycles, so retuning accelerates exactly when load rises —
// the moment adaptation matters under bursty or shifting traffic.
//
// The decision loop itself lives in StreamTuner (tuner.go), so the pipeline
// layer can drive the same cadence stage-by-stage; RunStream is the
// single-source composition of tuner and engine dispatch.

// RunStream serves the source adaptively on core c: leases of requests run
// under the controller's current technique, the controller re-probes the
// candidates when the observed busy-cycles-per-request drifts (a load or
// working-set shift) or when the queue depth jumps, and AMAC leases run
// under the persistent width controller. queueDepth, if non-nil, reports
// the admission-queue backlog between leases (serve.QueueSource.Depth); nil
// disables the queue-pressure trigger. Returns the aggregated AMAC
// scheduler stats, like core.RunStream.
func RunStream[S any](c *memsim.Core, src exec.Source[S], ctl *Controller, queueDepth func() int) core.RunStats {
	t := NewStreamTuner(c, ctl, queueDepth)
	var agg core.RunStats
	for {
		lease, sched := RunLease(c, src, t, t.Next())
		agg.Add(sched)
		if lease.Exhausted {
			return agg
		}
	}
}
