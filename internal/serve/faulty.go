package serve

import (
	"errors"
	"fmt"
	"slices"

	"amac/internal/adapt"
	"amac/internal/core"
	"amac/internal/exec"
	"amac/internal/fault"
	"amac/internal/memsim"
	"amac/internal/obs"
	"amac/internal/ops"
)

// FaultyOptions configures a fault-injected service run: the plain serving
// options plus a chaos schedule, per-request deadlines and the recovery
// policies layered on top of the shards. Options.SLO drives the brownout.
type FaultyOptions struct {
	Options

	// Faults is the chaos schedule applied on the simulated clock (nil =
	// none). Slow episodes inflate the shard's off-chip latency, Freeze
	// pauses it, Crash aborts its in-flight and queued work and restarts it
	// with cold private caches, Spike compresses its arrival schedule.
	Faults *fault.Schedule

	// Deadline is the per-request cycle budget from arrival, enforced both
	// in the queue (expired entries are resolved at pop) and in flight
	// (the engine closes and drains the slot). Zero disables deadlines.
	Deadline uint64

	// Retry re-enqueues a request whose last live copy timed out or was
	// crash-dropped, with capped exponential backoff.
	Retry fault.RetryPolicy

	// Hedge dispatches a duplicate of a request still unresolved Delay
	// cycles after arrival to a healthy sibling shard; the first completion
	// wins and the loser is absorbed.
	Hedge fault.HedgePolicy

	// Breaker, when non-nil, gives every shard a circuit breaker fed each
	// round with the shard's copy outcomes; an open breaker redirects the
	// shard's arrivals to healthy siblings until probes succeed.
	Breaker *fault.BreakerConfig

	// Slice is the coordinator round length in cycles (default 4096). Runs
	// with fault episodes or a recovery policy advance in Slice-sized time
	// slices, and fault boundaries, hedging, breakers and the routed
	// brownout apply at round edges; every other run is a single round.
	Slice uint64

	// Sched maps each worker's schedule positions to machine lookup
	// indices. Required whenever a recovery policy (retry, hedge, breaker)
	// is enabled: every worker's schedule must land in one shared index
	// space over replicated machines, with no index on two home shards, so
	// a request keeps its identity when a sibling serves it. Nil keeps the
	// per-worker identity mapping (valid only for unrouted runs).
	Sched [][]int32
}

// routed reports whether any cross-shard recovery policy is active.
func (o *FaultyOptions) routed() bool {
	return o.Retry.Enabled() || o.Hedge.Enabled() || o.Breaker != nil
}

// Validate reports the first option the coordinator cannot honour for these
// workers: a hardware model that fails validation at the workers' LLC
// share, an unknown technique on a non-adaptive run, a nil worker machine,
// an arrival schedule that decreases within the requests its worker serves,
// or faults, deadlines or routing the engines cannot apply. Fault episodes,
// deadlines and routing act on a resumable engine that can be paused,
// aborted and drained, which only AMAC's is.
func Validate[S any](o *FaultyOptions, workers []Worker[S]) error {
	hw := o.Hardware.ShareLLC(len(workers))
	if err := hw.Validate(); err != nil {
		return fmt.Errorf("serve: hardware: %w", err)
	}
	if o.Adaptive == nil && !slices.Contains(ops.Techniques, o.Technique) {
		return fmt.Errorf("serve: unknown technique %v", o.Technique)
	}
	for w, wk := range workers {
		if wk.Machine == nil {
			return fmt.Errorf("serve: worker %d has no machine", w)
		}
		if !slices.IsSorted(wk.Arrivals[:min(len(wk.Arrivals), wk.Machine.NumLookups())]) {
			return fmt.Errorf("serve: worker %d's arrival schedule decreases", w)
		}
	}
	needsAMAC := !o.Faults.Empty() || o.Deadline != 0 || o.routed()
	switch {
	case needsAMAC && o.Adaptive != nil:
		return errors.New("serve: fault episodes, deadlines and recovery policies do not support adaptive control")
	case needsAMAC && o.Technique != ops.AMAC:
		return fmt.Errorf("serve: fault episodes, deadlines and recovery policies need the AMAC engine, not %v", o.Technique)
	case o.routed() && o.Sched == nil:
		return errors.New("serve: recovery policies need a Sched map into a shared index space")
	case o.Sched != nil && len(o.Sched) != len(workers):
		return fmt.Errorf("serve: Sched maps %d workers, the run has %d", len(o.Sched), len(workers))
	}
	for w, idx := range o.Sched {
		if n := min(len(workers[w].Arrivals), workers[w].Machine.NumLookups()); len(idx) < n {
			return fmt.Errorf("serve: Sched maps %d of worker %d's %d requests", len(idx), w, n)
		}
	}
	return o.Faults.Validate(len(workers))
}

// FaultInfo summarises a run's fault activity for one shard (or merged).
type FaultInfo struct {
	// Episodes is the number of fault episodes applied.
	Episodes int
	// MaxShedLevel is the highest brownout shed level reached.
	MaxShedLevel int
	// Breaker holds every circuit-breaker state transition, in cycle order
	// per shard; Transition carries the shard.
	Breaker []fault.Transition
}

// Merge folds another shard's fault summary into f.
func (f *FaultInfo) Merge(o *FaultInfo) {
	f.Episodes += o.Episodes
	if o.MaxShedLevel > f.MaxShedLevel {
		f.MaxShedLevel = o.MaxShedLevel
	}
	f.Breaker = append(f.Breaker, o.Breaker...)
}

// reqStatus is a routed request's lifecycle position.
type reqStatus uint8

const (
	reqUnseen reqStatus = iota
	reqPending
	reqServed
	reqDead
)

// reqState is the router's per-request record, indexed by machine lookup
// index (the request's global identity across replicas).
type reqState struct {
	status  reqStatus
	home    int16
	copies  int16 // live dispatches: queued or in flight anywhere
	attempt uint8
	hedged  bool
}

// router owns cross-shard recovery for a faulty service run: per-request
// copy tracking with first-completion-wins dedup, hedged re-dispatch,
// breaker-driven rerouting and retry re-enqueues. It is host-side policy
// state touched only from the coordinator goroutine, so every decision is
// deterministic for a fixed configuration.
type router struct {
	retry    fault.RetryPolicy
	hedge    fault.HedgePolicy
	breakers []*fault.Breaker // nil when breakers are disabled

	recs   []*Recorder
	cores  []*memsim.Core
	down   []bool
	inject []func(extra)

	reqs        []reqState
	outstanding int

	// Per-round copy outcomes per executing shard, feeding the breakers.
	roundDone []int
	roundDead []int

	// Hedge scanning walks each home shard's arrival schedule directly, so
	// requests bound for a frozen or crashed shard are hedged even though
	// the shard never admitted them.
	scheds   [][]uint64
	schedIdx [][]int32
	hedgeCur []int
}

// state returns the request's record.
func (r *router) state(idx int32) *reqState { return &r.reqs[idx] }

// ensure registers the request under its home shard on first sight.
func (r *router) ensure(idx int32, home int) *reqState {
	st := &r.reqs[idx]
	if st.status == reqUnseen {
		st.status = reqPending
		st.home = int16(home)
	}
	return st
}

// pendingOrNew reports whether the request is still unresolved.
func (r *router) pendingOrNew(idx int32) bool {
	return r.reqs[idx].status <= reqPending
}

// healthy reports whether a shard can take traffic right now.
func (r *router) healthy(w int) bool {
	if r.down[w] {
		return false
	}
	if r.breakers != nil && r.breakers[w] != nil && r.breakers[w].State() != fault.StateClosed {
		return false
	}
	return true
}

// healthySibling picks a healthy shard other than home, rotating the start
// by the request index so recovered traffic spreads across siblings.
func (r *router) healthySibling(home int, idx int32) int {
	n := len(r.inject)
	if n <= 1 {
		return -1
	}
	start := int(uint32(idx)) % (n - 1)
	for d := 0; d < n-1; d++ {
		cand := (home + 1 + (start+d)%(n-1)) % n
		if cand != home && r.healthy(cand) {
			return cand
		}
	}
	return -1
}

// redirect is the breaker check at a home shard's admission: true means the
// arrival was dispatched to a healthy sibling instead.
func (r *router) redirect(home int, idx int32, arrival uint64) bool {
	st := r.ensure(idx, home)
	if st.status != reqPending {
		return false
	}
	if r.breakers == nil {
		return false
	}
	b := r.breakers[home]
	if b == nil || b.Admit() {
		return false
	}
	target := r.healthySibling(home, idx)
	if target < 0 {
		return false // nowhere healthier: admit locally and hope
	}
	st.copies++
	r.inject[target](extra{idx: idx, arrival: arrival, ready: arrival})
	r.cores[home].Trace().Reroute(arrival, int(idx), target)
	return true
}

// onAdmit notes a base arrival queued locally at its home shard.
func (r *router) onAdmit(home int, idx int32) {
	st := r.ensure(idx, home)
	if st.status == reqPending {
		st.copies++
	}
}

// onShed resolves a request rejected by the brownout at admission.
func (r *router) onShed(home int, idx int32) {
	st := r.ensure(idx, home)
	if st.status == reqPending {
		st.status = reqDead
		r.outstanding--
	}
}

// onDrop resolves a request rejected by a full Drop-policy queue.
func (r *router) onDrop(home int, idx int32) {
	r.onShed(home, idx)
}

// onCopyDead handles one dispatched copy dying at the executing shard — a
// queue-side deadline expiry, an in-flight timeout, or a crash drop. When it
// was the request's last live copy, the retry policy either re-enqueues the
// request (capped exponential backoff, preferring the healthy home) or the
// request is finally lost.
func (r *router) onCopyDead(shard int, idx int32, arrival, at uint64, kind exec.FailKind) {
	r.roundDead[shard]++
	st := r.state(idx)
	if st.status != reqPending {
		return
	}
	if st.copies > 0 {
		st.copies--
	}
	if st.copies > 0 {
		return // a sibling copy is still live
	}
	home := int(st.home)
	if r.retry.Enabled() && int(st.attempt) < r.retry.Max {
		st.attempt++
		st.copies++
		target := home
		if !r.healthy(home) {
			if s := r.healthySibling(home, idx); s >= 0 {
				target = s
			}
		}
		ready := at + r.retry.Delay(int(st.attempt))
		r.inject[target](extra{idx: idx, attempt: st.attempt, arrival: arrival, ready: ready})
		r.recs[home].Retried++
		r.cores[home].Trace().Requeue(at, int(idx), int(st.attempt))
		return
	}
	st.status = reqDead
	r.outstanding--
	if kind == exec.FailCrash {
		r.recs[home].Failed++
	} else {
		r.recs[home].TimedOut++
	}
}

// onComplete handles a completion at the executing shard; it reports whether
// this completion is the request's first (and should be recorded).
func (r *router) onComplete(shard int, idx int32) bool {
	r.roundDone[shard]++
	st := r.state(idx)
	if st.copies > 0 {
		st.copies--
	}
	if st.status != reqPending {
		if st.hedged {
			r.recs[st.home].HedgeWaste++
		}
		return false
	}
	st.status = reqServed
	r.outstanding--
	if st.hedged && shard != int(st.home) {
		r.recs[st.home].HedgeWins++
	}
	return true
}

// hedgeScan fires hedge duplicates at a round boundary: every scheduled
// request older than the hedge delay and still unresolved gets one duplicate
// on a healthy sibling.
func (r *router) hedgeScan(t uint64) {
	if !r.hedge.Enabled() {
		return
	}
	for home := range r.scheds {
		sched := r.scheds[home]
		cur := r.hedgeCur[home]
		for cur < len(sched) && sched[cur]+r.hedge.Delay <= t {
			arrival := sched[cur]
			idx := int32(cur)
			if r.schedIdx[home] != nil {
				idx = r.schedIdx[home][cur]
			}
			cur++
			st := r.ensure(idx, home)
			if st.status != reqPending || st.hedged {
				continue
			}
			target := r.healthySibling(home, idx)
			if target < 0 {
				continue
			}
			st.hedged = true
			st.copies++
			r.inject[target](extra{idx: idx, arrival: arrival, ready: t})
			r.recs[home].Hedged++
			r.cores[home].Trace().Hedge(t, int(idx), target)
		}
		r.hedgeCur[home] = cur
	}
}

// breakerRound feeds every breaker the round's copy outcomes and traces the
// resulting transitions.
func (r *router) breakerRound(t uint64) {
	if r.breakers == nil {
		return
	}
	for w, b := range r.breakers {
		before := len(b.Transitions())
		b.Observe(t, r.roundDone[w], r.roundDead[w])
		r.roundDone[w], r.roundDead[w] = 0, 0
		for _, tr := range b.Transitions()[before:] {
			r.cores[w].Trace().Breaker(t, int(tr.From), int(tr.To))
		}
	}
}

// RunFaulty executes the sharded streaming service under deterministic fault
// injection: every worker serves its own machine from its own queue-fed
// source on a private core, and one coordinator steps the shards' engines to
// common round edges of the simulated clock, so the chaos timeline,
// deadlines, hedging, breakers and brownout apply at identical simulated
// instants on every execution. Runs with neither fault episodes nor a
// recovery policy have no round edges: the whole run is one round. Pausing
// an engine charges nothing simulated, so the round edges never move a
// cycle of the execution between them.
//
// Without a recovery policy the shards step concurrently within each round,
// one goroutine per core (exec.RunParallel); they share nothing mutable, and
// the coordinator touches them only between rounds. A recovery policy's
// router injects work into sibling queues from inside a round, so routed
// runs step the shards serially in shard order.
//
// Fault episodes, deadlines and recovery policies need the AMAC engine
// (timed-out and aborted slots reuse its shrink-drain machinery) and a
// non-adaptive configuration. RunFaulty panics with Validate's error on
// options it cannot honour, before any work starts; callers that take
// options from outside call Validate first.
//
// The socket models are recycled (memsim.AcquireSystem), so a load sweep
// that runs once per (technique, load) point reuses one System+Core pair per
// worker instead of rebuilding megabytes of cache metadata per point; a
// recycled pair is reset to exactly the fresh-construction state, so results
// are bit-identical either way.
func RunFaulty[S any](opts FaultyOptions, workers []Worker[S]) Result {
	if err := Validate(&opts, workers); err != nil {
		panic(err)
	}
	n := len(workers)
	if n == 0 {
		return Result{}
	}
	routed := opts.routed()
	rounds := routed || !opts.Faults.Empty()
	slice := opts.Slice
	if slice == 0 {
		slice = 4096
	}

	// Per-shard chaos timelines; spikes are pre-applied to the arrival
	// schedules (compression toward the episode start: a burst then a lull,
	// same total load).
	timelines := make([]*fault.Timeline, n)
	arr := make([][]uint64, n)
	for w := 0; w < n; w++ {
		eps := opts.Faults.ForShard(w)
		timelines[w] = fault.NewTimeline(eps)
		a := workers[w].Arrivals
		arr[w] = fault.ApplySpikes(a[:min(len(a), workers[w].Machine.NumLookups())], eps)
	}

	shards := memsim.AcquireShards(opts.Hardware, n, opts.Prepare)
	cores := shards.Cores
	sources := make([]*QueueSource[S], n)
	lws := make([]*obs.LatencyWindow, n)
	var brown []*fault.Brownout
	if opts.SLO.Enabled() {
		brown = make([]*fault.Brownout, n)
	}
	for w := 0; w < n; w++ {
		// Sinks register here, in worker order on one goroutine, so the
		// exported trace's process layout is deterministic regardless of the
		// goroutine schedule.
		name := fmt.Sprintf("worker %d", w)
		cores[w].SetProfiler(opts.Profile.Core(name))
		cores[w].SetTrace(opts.Trace.Core(name))
		sources[w] = NewQueueSource(workers[w].Machine, arr[w], opts.QueueCap, opts.Policy, nil)
		if opts.Metrics != nil || brown != nil {
			lws[w] = obs.NewLatencyWindow(0)
			sources[w].SetLatencyWindow(lws[w])
		}
		if brown != nil {
			brown[w] = fault.NewBrownout(opts.SLO)
			sources[w].SetBrownout(brown[w])
		}
		sources[w].SetDeadline(opts.Deadline)
		if opts.Sched != nil {
			sources[w].SetSchedule(opts.Sched[w])
		}
		if opts.Metrics != nil {
			cm := opts.Metrics.Core(name)
			src, lw := sources[w], lws[w]
			cm.Gauge("queue_depth", func() float64 { return float64(src.Depth()) })
			cm.Gauge("p99_window", func() float64 { return float64(lw.Quantile(0.99)) })
			cores[w].SetMetrics(cm)
		}
	}

	down := make([]bool, n)
	var r *router
	if routed {
		r = &router{
			retry:     opts.Retry,
			hedge:     opts.Hedge,
			recs:      make([]*Recorder, n),
			cores:     cores,
			down:      down,
			inject:    make([]func(extra), n),
			scheds:    arr,
			schedIdx:  opts.Sched,
			hedgeCur:  make([]int, n),
			roundDone: make([]int, n),
			roundDead: make([]int, n),
		}
		if opts.Breaker != nil {
			r.breakers = make([]*fault.Breaker, n)
			for w := range r.breakers {
				r.breakers[w] = fault.NewBreaker(w, *opts.Breaker)
			}
		}
		total := 0
		for w := 0; w < n; w++ {
			r.recs[w] = sources[w].Recorder()
			r.inject[w] = sources[w].inject
			r.outstanding += len(arr[w])
			for _, idx := range opts.Sched[w][:len(arr[w])] {
				if int(idx) >= total {
					total = int(idx) + 1
				}
			}
			sources[w].bind(r, w)
		}
		r.reqs = make([]reqState, total)
	}

	// One step function per shard, advancing its engine to a round edge and
	// reporting whether it finished. AMAC's engine pauses at the edge; the
	// adaptive controller and the GP, SPP and Baseline engines only run in
	// single-round runs, so they run to exhaustion.
	var ctls []*adapt.Controller
	if opts.Adaptive != nil {
		ctls = make([]*adapt.Controller, n)
	}
	engines := make([]*core.StreamEngine[S], n)
	sched := make([]core.RunStats, n)
	step := make([]func(limit uint64) bool, n)
	for w := 0; w < n; w++ {
		c, src, p := cores[w], sources[w], ops.Params{Window: opts.Window}
		switch {
		case ctls != nil:
			ctls[w] = adapt.NewController(*opts.Adaptive)
			if brown != nil {
				b := brown[w]
				ctls[w].SetTailBias(func() bool { return b.Level() > 0 })
			}
			step[w] = func(uint64) bool {
				sched[w] = adapt.RunStream(c, src, ctls[w], src.Depth)
				return true
			}
		case opts.Technique == ops.AMAC:
			o := p.AMACOptions()
			o.Deadline = opts.Deadline
			engines[w] = core.NewStreamEngine(c, src, o)
			step[w] = engines[w].Run
		default:
			step[w] = func(uint64) bool {
				sched[w] = ops.RunSource(c, src, opts.Technique, p)
				return true
			}
		}
	}

	downUntil := make([]uint64, n)
	engDone := make([]bool, n)
	infos := make([]FaultInfo, n)
	closed := false

	var t uint64
	baseLat := cores[0].MemLatency()
	for slices.Contains(engDone, false) {
		// With nothing to apply at round edges, or everything resolved, the
		// engines run unbounded.
		if rounds && !closed {
			t = nextEdge(cores, slice, t)
		} else {
			t = ^uint64(0)
		}
		// Fault boundaries first, in shard order, then thaw.
		for w := 0; w < n; w++ {
			w := w
			timelines[w].Advance(t, func(ep fault.Episode, begin bool) {
				switch ep.Kind {
				case fault.Slow:
					if begin {
						infos[w].Episodes++
						scaled := uint64(float64(baseLat) * ep.Factor)
						cores[w].SetMemLatency(scaled)
						cores[w].Trace().Fault(ep.Start, ep.Dur, int(ep.Kind), int64(ep.Factor*1000))
					} else {
						cores[w].SetMemLatency(0)
					}
				case fault.Freeze:
					if begin {
						infos[w].Episodes++
						down[w] = true
						downUntil[w] = ep.End()
						cores[w].Trace().Fault(ep.Start, ep.Dur, int(ep.Kind), 1000)
					}
				case fault.Crash:
					if begin {
						infos[w].Episodes++
						engines[w].Abort()
						sources[w].failQueued(cores[w].Cycle())
						cores[w].FlushPrivate()
						down[w] = true
						downUntil[w] = ep.End()
						cores[w].Trace().Fault(ep.Start, ep.Dur, int(ep.Kind), 1000)
					}
				case fault.Spike:
					if begin {
						infos[w].Episodes++
						cores[w].Trace().Fault(ep.Start, ep.Dur, int(ep.Kind), int64(ep.Factor*1000))
					}
				}
			})
			if down[w] && downUntil[w] <= t {
				down[w] = false
				if !engDone[w] && cores[w].Cycle() < downUntil[w] {
					// The shard did nothing while down; its clock jumps to
					// the episode end as pure idle time, charged under the
					// "down" frame to keep it apart from queue idle.
					p := cores[w].Profiler()
					p.Push(p.Frame("down"))
					cores[w].AdvanceTo(downUntil[w])
					p.Pop()
				}
			}
		}
		// Run every live engine up to the round edge.
		if r == nil {
			exec.RunParallel(cores, func(w int, _ *memsim.Core) {
				if !engDone[w] && !down[w] {
					engDone[w] = step[w](t)
				}
			})
		} else {
			for w := 0; w < n; w++ {
				if engDone[w] || down[w] {
					continue
				}
				sources[w].setHorizon(t)
				engDone[w] = step[w](t)
			}
		}
		if r == nil {
			continue // unrouted queues feed their own brownouts
		}
		// Recovery policies tick at the round edge. After close every request
		// is resolved, so the unbounded drain round has nothing to route —
		// ticking it would only stamp sentinel-time transitions into the
		// breaker log.
		if !closed {
			r.hedgeScan(t)
			r.breakerRound(t)
		}
		for w, b := range brown {
			if lvl, changed := b.Observe(lws[w].Quantile(0.99)); changed {
				cores[w].Trace().Brownout(t, lvl)
			}
		}
		if !closed && r.outstanding == 0 && !slices.ContainsFunc(sources, (*QueueSource[S]).pending) {
			closed = true
			for _, src := range sources {
				src.closeRouted()
			}
		}
	}

	res := Result{PerWorker: make([]WorkerResult, n), Faults: &FaultInfo{}}
	if ctls != nil {
		res.Adapt = &adapt.Info{}
	}
	perStats := make([]memsim.Stats, n)
	for w := 0; w < n; w++ {
		if engines[w] != nil {
			sched[w] = engines[w].Stats()
			engines[w].Close()
		}
		perStats[w] = cores[w].Stats()
		if brown != nil {
			infos[w].MaxShedLevel = brown[w].MaxLevel()
		}
		if r != nil && r.breakers != nil {
			infos[w].Breaker = r.breakers[w].Transitions()
		}
		res.PerWorker[w] = WorkerResult{
			Stats:   perStats[w],
			Latency: sources[w].Recorder(),
			Sched:   sched[w],
			Faults:  &infos[w],
		}
		if ctls != nil {
			a := ctls[w].Info()
			res.PerWorker[w].Adapt = &a
			res.Adapt.Merge(a)
		}
		res.Latency.Merge(sources[w].Recorder())
		res.Faults.Merge(&infos[w])
		sources[w].Close()
	}
	shards.Release()
	res.Stats = memsim.MergeParallel(perStats)
	res.Sched = core.MergeRunStats(sched)
	return res
}

// nextEdge picks the next round edge: one slice past the most advanced core
// (so rounds keep pace with long idle jumps), and at least one slice past
// the previous edge, so a round in which every unfinished shard is down
// still moves the clock toward their thaw.
func nextEdge(cores []*memsim.Core, slice, prev uint64) uint64 {
	maxC := prev
	for _, c := range cores {
		maxC = max(maxC, c.Cycle())
	}
	return (maxC/slice + 1) * slice
}
