package exec

import (
	"fmt"

	"amac/internal/memsim"
)

// BaselineStream executes requests one at a time, start to finish, with no
// software prefetching: each dependent memory access stalls the core for
// its full latency, which is the no-prefetch reference every figure in the
// paper normalizes against (Section 2.2.2). A batch runs over a
// MachineSource; a serving queue that reports Wait idles the core until the
// next arrival, charged under the "admit" frame.
//
// A stage that returns Retry is spun on (with a per-spin instruction charge),
// matching the baseline implementations' latch spinning; since the baseline
// has only one lookup in flight, retries can only happen if the latch was
// left held by a previous phase, which the machines never do, so the spin
// loop is bounded defensively.
//
// The core's trace, if attached, records the single in-flight request's
// lifecycle on slot track 0; nil records nothing and allocates nothing.
func BaselineStream[S any](c *memsim.Core, src Source[S]) {
	p, tr := c.Profiler(), c.Trace()
	p.Push(p.Frame("Baseline"))
	defer p.Pop()
	stager := StagerOf(src)
	var s S
	for {
		pullAt := c.Cycle()
		c.Instr(CostLoopIter)
		p.PushStage(0)
		pr := src.Pull(c, &s, c.Cycle())
		p.Pop()
		switch pr.Status {
		case Exhausted:
			return
		case Wait:
			p.Push(p.Frame("admit"))
			c.AdvanceTo(waitCycle(c.Cycle(), pr.NextArrival))
			p.Pop()
			continue
		}
		tr.SlotStart(pullAt, 0, pr.Req.Index)
		out := pr.Out
		spins := 0
		for !out.Done {
			c.Instr(CostLoopIter)
			p.PushStage(out.NextStage)
			next := stager.Stage(c, &s, out.NextStage)
			p.Pop()
			if next.Retry {
				spins++
				c.Instr(CostRetrySpin)
				if spins > retryLimit {
					panic(fmt.Sprintf("exec: baseline request %d spun on a latch %d times; machine is stuck", pr.Req.Index, spins))
				}
				tr.SlotRetry(c.Cycle(), 0, out.NextStage)
				out.NextStage = next.NextStage
				continue
			}
			spins = 0
			out = next
		}
		src.Complete(pr.Req, c.Cycle())
		tr.SlotEnd(c.Cycle(), 0)
		if pr.Last {
			return
		}
	}
}
