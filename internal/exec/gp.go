package exec

import "amac/internal/memsim"

// GroupPrefetchStream runs requests under Group Prefetching (Chen et al.),
// the first of the paper's two prior-art techniques (Section 2.2.1): up to
// `group` requests are admitted from the source, every code stage is
// executed for the whole group before the next stage begins (so up to
// `group` independent prefetches are in flight at a time), and only once the
// group has fully finished is the source consulted for the next one.
//
// The rigidity the paper criticises is reproduced faithfully:
//
//   - a lookup that terminates early still costs a status check in every
//     remaining stage of its group (lost MLP and wasted instructions),
//   - a lookup that needs more stages than provisioned is completed by a
//     sequential clean-up pass at the group boundary,
//   - a lookup that cannot acquire a latch keeps retrying in its remaining
//     stages and, if still blocked, is also handled by the clean-up pass,
//   - a new group can only start once the previous group has fully finished,
//     so under serving traffic a request arriving mid-group waits out the
//     whole batch. If at least one request is admitted the group starts
//     immediately — GP does not hold a partial group open for stragglers.
//
// The core's trace, if attached, records each group as a begin/end span on
// the engine track (begin at the first member's admission, end after the
// clean-up pass, the batch-boundary refill penalty made visible) and each
// member's lifecycle on the slot track of its group position.
func GroupPrefetchStream[S any](c *memsim.Core, src Source[S], group int) {
	p, tr := c.Profiler(), c.Trace()
	p.Push(p.Frame("GP"))
	defer p.Pop()
	if group < 1 {
		group = 1
	}
	depth := src.ProvisionedStages()
	if depth < 1 {
		depth = 1
	}

	stager := StagerOf(src)
	states, putStates := GetStates[S](group)
	defer putStates()
	currentP, doneP, reqsP := getOutcomes(group), getFlags(group), getRequests(group)
	defer func() { outcomePool.Put(currentP); flagPool.Put(doneP); requestPool.Put(reqsP) }()
	current, done, reqs := *currentP, *doneP, *reqsP

	for last := false; !last; {
		// Code stage 0 for the group: admit whatever the source holds now,
		// read the input tuples, compute the first target addresses and
		// issue the first prefetches.
		g := 0
		for g < group && !last {
			pullAt := c.Cycle()
			c.Instr(CostGPStage)
			p.PushStage(0)
			pr := src.Pull(c, &states[g], c.Cycle())
			p.Pop()
			if pr.Status == Exhausted {
				if g == 0 {
					return
				}
				break
			}
			if pr.Status == Wait {
				if g > 0 {
					break // launch the partial group; GP never waits mid-batch
				}
				// The batch-boundary idle between groups is charged under
				// the "admit" frame, as GP;admit idle in a flamegraph.
				p.Push(p.Frame("admit"))
				c.AdvanceTo(waitCycle(c.Cycle(), pr.NextArrival))
				p.Pop()
				continue
			}
			if g == 0 {
				tr.GroupStart(pullAt, group)
			}
			tr.SlotStart(pullAt, g, pr.Req.Index)
			issuePrefetch(c, pr.Out)
			current[g] = pr.Out
			done[g] = pr.Out.Done
			reqs[g] = pr.Req
			if pr.Out.Done {
				src.Complete(pr.Req, c.Cycle())
				tr.SlotEnd(c.Cycle(), g)
			}
			last = pr.Last
			g++
		}

		// Code stages 1..depth-1, each executed for the whole group.
		for round := 1; round < depth; round++ {
			for j := 0; j < g; j++ {
				if done[j] {
					// The lookup already terminated: the stage is skipped
					// but the group loop still checks and propagates its
					// status.
					c.Instr(CostGPSkip)
					continue
				}
				stage := current[j].NextStage
				visitAt := c.Cycle()
				c.Instr(CostGPStage)
				p.PushStage(stage)
				out := stager.Stage(c, &states[j], stage)
				p.Pop()
				if out.Retry {
					// Latch held by another in-flight lookup: burn the
					// stage and retry in the next round (or the clean-up
					// pass).
					current[j].NextStage = out.NextStage
					current[j].Prefetch = 0
					tr.SlotRetry(c.Cycle(), j, stage)
					continue
				}
				tr.StageVisit(visitAt, c.Cycle(), j, stage)
				issuePrefetch(c, out)
				current[j] = out
				if out.Done {
					done[j] = true
					src.Complete(reqs[j], c.Cycle())
					tr.SlotEnd(c.Cycle(), j)
				}
			}
		}

		// Clean-up pass: lookups whose chains are longer than provisioned
		// (or that are still blocked on a latch) are completed without the
		// benefit of prefetching before the next group may start.
		finishSequential(c, stager, states[:g], current[:g], done[:g], func(j int) {
			src.Complete(reqs[j], c.Cycle())
			tr.SlotEnd(c.Cycle(), j)
		})
		tr.GroupEnd(c.Cycle(), g)
	}
}

// finishSequential completes every unfinished lookup without prefetching.
// Lookups are serviced round-robin so that a lookup blocked on a latch held
// by another unfinished lookup of the same group cannot deadlock the pass.
// onDone observes each completion.
func finishSequential[S any](c *memsim.Core, stager Stager[S], states []S, current []Outcome, done []bool, onDone func(j int)) {
	p := c.Profiler()
	p.Push(p.Frame("cleanup"))
	defer p.Pop()
	remaining := 0
	for j := range done {
		if !done[j] {
			remaining++
			c.Instr(CostBailout)
		}
	}
	stuck := 0
	for remaining > 0 {
		progressed := false
		for j := range done {
			if done[j] {
				continue
			}
			c.Instr(CostLoopIter)
			p.PushStage(current[j].NextStage)
			out := stager.Stage(c, &states[j], current[j].NextStage)
			p.Pop()
			if out.Retry {
				c.Instr(CostRetrySpin)
				current[j].NextStage = out.NextStage
				continue
			}
			progressed = true
			current[j] = out
			if out.Done {
				done[j] = true
				remaining--
				onDone(j)
			}
		}
		if progressed {
			stuck = 0
			continue
		}
		stuck++
		if stuck > retryLimit {
			panic("exec: clean-up pass made no progress; a latch is held by a lookup outside the group")
		}
	}
}
