package exec

import (
	"sync"

	"amac/internal/memsim"
)

// pipeSlot is one SPP pipeline slot.
type pipeSlot struct {
	busy    bool // a request occupies the slot (it may already be done)
	done    bool // the occupying request finished early
	age     int  // code stages elapsed since the request entered
	current Outcome
	req     Request
}

// bailed is a lookup on SPP's bail-out side path.
type bailed[S any] struct {
	state   S
	current Outcome
	req     Request
}

// pipeSlotPool recycles the pipeline-slot buffers across runs.
var pipeSlotPool sync.Pool

// getPipeSlots returns a zeroed pipeline-slot buffer of length n from the pool.
func getPipeSlots(n int) *[]pipeSlot { return GetPooled[pipeSlot](&pipeSlotPool, n) }

// SoftwarePipelineStream runs requests under Software-Pipelined Prefetching
// (Chen et al.; also applied to trees by Kim et al.), the second prior-art
// technique of Section 2.2.1: `inflight` requests occupy pipeline slots at
// staggered stages, every outer iteration advances each slot by one code
// stage, and a slot accepts a new request only at its static refill point —
// after the provisioned number of stages has elapsed — regardless of whether
// its lookup actually finished earlier.
//
// The consequences the paper highlights are reproduced:
//
//   - early-terminating lookups waste their remaining pipeline slots
//     (status-check no-ops, lost MLP),
//   - lookups longer than the provisioned depth are bailed out of the
//     pipeline and completed on a sequential side path without prefetching,
//   - a lookup that cannot acquire a latch burns pipeline stages retrying
//     and is eventually serialized on the same side path.
//
// A run ends once the source is exhausted and no unfinished lookup remains.
// A batch (whose source marks its last lookup) ends right there; a serving
// run, which learns of the end only at a pull, also lets its finished slots
// age out to their refill points first.
//
// The core's trace, if attached, records each slot's occupancy as a
// begin/end span (begin at admission, end at the slot's static refill point
// or bail-out), making SPP's fixed refill boundaries directly comparable to
// AMAC's per-completion refill in a trace viewer.
func SoftwarePipelineStream[S any](c *memsim.Core, src Source[S], inflight int) {
	p, tr := c.Profiler(), c.Trace()
	p.Push(p.Frame("SPP"))
	defer p.Pop()
	if inflight < 1 {
		inflight = 1
	}
	depth := src.ProvisionedStages()
	if depth < 1 {
		depth = 1
	}

	stager := StagerOf(src)
	states, putStates := GetStates[S](inflight)
	defer putStates()
	slotsP := getPipeSlots(inflight)
	defer pipeSlotPool.Put(slotsP)
	slots := *slotsP

	// Bailed-out lookups: completed alongside the pipeline, one stage per
	// outer iteration, without prefetching. Processing them round-robin
	// (rather than spinning) keeps latch dependencies deadlock-free. The
	// side path stays nil until a lookup actually overruns the provisioned
	// depth, so the common no-bail run allocates nothing for it.
	var bail []bailed[S]

	exhausted := false     // the source has nothing more to hand out
	last := false          // ... and said so with its final request
	waitUntil := uint64(0) // no arrivals before this cycle; skip re-polling
	occupied := 0          // slots holding a request (done or not)
	active := 0            // slots holding an unfinished request
	pending := 0           // bailed-out requests not yet finished

	for {
		if exhausted && active == 0 && pending == 0 && (last || occupied == 0) {
			if occupied > 0 {
				// Finished slots still short of their refill point close
				// with the run.
				for j := range slots {
					if slots[j].busy {
						tr.SlotEnd(c.Cycle(), j)
					}
				}
			}
			return
		}
		if occupied == 0 && pending == 0 && waitUntil > c.Cycle() {
			// Nothing in flight, nothing admitted, and a pull already
			// reported Wait: idle to the arrival. (Never idle before the
			// first pull attempt — requests may be ready at cycle 0.)
			p.Push(p.Frame("admit"))
			c.AdvanceTo(waitUntil)
			p.Pop()
		}
		for j := 0; j < inflight; j++ {
			slot := &slots[j]
			switch {
			case !slot.busy:
				if exhausted || c.Cycle() < waitUntil {
					continue
				}
				pullAt := c.Cycle()
				c.Instr(CostSPPStage)
				p.PushStage(0)
				pr := src.Pull(c, &states[j], c.Cycle())
				p.Pop()
				if pr.Status == Exhausted {
					exhausted = true
					continue
				}
				if pr.Status == Wait {
					waitUntil = waitCycle(c.Cycle(), pr.NextArrival)
					continue
				}
				exhausted, last = pr.Last, pr.Last
				tr.SlotStart(pullAt, j, pr.Req.Index)
				issuePrefetch(c, pr.Out)
				slot.busy = true
				slot.done = pr.Out.Done
				slot.age = 1
				slot.current = pr.Out
				slot.req = pr.Req
				occupied++
				if pr.Out.Done {
					src.Complete(pr.Req, c.Cycle())
				} else {
					active++
				}
			case slot.done:
				// The request finished before its static slot expired: the
				// pipeline still spends an iteration checking it.
				c.Instr(CostSPPSkip)
				slot.age++
				if slot.age >= depth {
					slot.busy = false
					occupied--
					tr.SlotEnd(c.Cycle(), j)
				}
			default:
				stage := slot.current.NextStage
				visitAt := c.Cycle()
				c.Instr(CostSPPStage)
				p.PushStage(stage)
				out := stager.Stage(c, &states[j], stage)
				p.Pop()
				slot.age++
				if out.Retry {
					slot.current.NextStage = out.NextStage
					slot.current.Prefetch = 0
					tr.SlotRetry(c.Cycle(), j, stage)
				} else {
					tr.StageVisit(visitAt, c.Cycle(), j, stage)
					issuePrefetch(c, out)
					slot.current = out
					if out.Done {
						slot.done = true
						active--
						src.Complete(slot.req, c.Cycle())
					}
				}
				if slot.age >= depth {
					if !slot.done {
						// Longer than provisioned: bail out of the pipeline.
						c.Instr(CostBailout)
						bail = append(bail, bailed[S]{states[j], slot.current, slot.req})
						pending++
						active--
					}
					slot.busy = false
					occupied--
					tr.SlotEnd(c.Cycle(), j)
				}
			}
		}

		// Advance every bailed-out request by one (unprefetched) stage and
		// drop the ones that finish, so the side list stays proportional to
		// the number of genuinely outstanding bail-outs.
		keep := 0
		for b := range bail {
			bl := &bail[b]
			c.Instr(CostLoopIter)
			p.Push(p.Frame("bail"))
			p.PushStage(bl.current.NextStage)
			out := stager.Stage(c, &bl.state, bl.current.NextStage)
			p.Pop()
			p.Pop()
			switch {
			case out.Retry:
				c.Instr(CostRetrySpin)
				bl.current.NextStage = out.NextStage
			case out.Done:
				src.Complete(bl.req, c.Cycle())
				pending--
				continue
			default:
				bl.current = out
			}
			bail[keep] = *bl
			keep++
		}
		bail = bail[:keep]

		c.Instr(CostLoopIter)
	}
}
