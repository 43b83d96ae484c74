package main

import (
	"fmt"
	"math"

	"amac/internal/exec"
	"amac/internal/memsim"
	"amac/internal/ops"
	"amac/internal/relation"
)

// joinDRAM is the paper's headline measurement: a read-only batch hash-join
// probe of |S| uniform keys into a table of |R| = |S| unique keys, about
// three times the simulated LLC, under each of the four techniques at
// window 10, each on a fresh core whose caches start empty.
type joinDRAM struct {
	sz  sizes
	j   *ops.HashJoin
	out *ops.Output

	refCount, refSum uint64
}

func (w *joinDRAM) inputs() string {
	return fmt.Sprintf("|R| = |S| = 2^%d uniform unique keys, full-match probe, cold caches", w.sz.joinLog)
}

func (w *joinDRAM) setup(e *env) error {
	w.j, w.out = nil, nil
	n := 1 << w.sz.joinLog
	var build, probe *relation.Relation
	var err error
	gen := e.call("relation.gen", func() {
		build, probe, err = relation.BuildJoin(relation.JoinSpec{BuildSize: n, ProbeSize: n, Seed: e.seed})
	})
	if err != nil {
		return err
	}
	e.sample("relation.gen_s", gen.secs)
	mat := e.call("ops.materialize", func() {
		w.j = ops.NewHashJoin(build, probe)
		w.j.PrebuildRaw()
		w.out = ops.NewOutput(w.j.Arena, false)
	})
	e.sample("ops.materialize_s", mat.secs)
	return nil
}

func (w *joinDRAM) oracle() { w.refCount, w.refSum = w.j.ReferenceJoin() }

// engineName is the layer function that runs a technique's batch engine.
func engineName(t ops.Technique) string {
	if t == ops.AMAC {
		return "core.AMAC"
	}
	return "exec." + t.String()
}

func (w *joinDRAM) pass(e *env) passOut {
	var out passOut
	n := w.j.Probe.Len()
	for _, tech := range ops.Techniques {
		var c *memsim.Core
		acq := e.call("memsim.acquire", func() { c = memsim.MustSystem(memsim.XeonX5670()).NewCore() })
		e.sample("memsim.acquire_us", acq.secs*1e6)
		w.out.Reset()
		rec := &latencyLog{}
		m := latencyMachine{m: w.j.ProbeMachine(w.out, false), rec: rec}
		name := engineName(tech)
		st := e.call(name, func() { ops.RunMachine[latencyState](c, m, tech, ops.Params{Window: window}) })
		stats := c.Stats()
		cl := cell{
			name: name, hostS: st.secs, work: int(rec.n),
			served: int(w.out.Count), offered: n,
			cycles: stats.Cycles - stats.IdleCycles, stats: stats,
			digest: digest(stats, w.out.Count, w.out.Checksum, rec.counts),
			lat:    rec,
		}
		switch {
		case rec.n != uint64(n):
			cl.err = fmt.Errorf("%d of %d lookups completed", rec.n, n)
		case w.out.Count != w.refCount || w.out.Checksum != w.refSum:
			cl.err = fmt.Errorf("output count %d checksum %x, reference join %d %x",
				w.out.Count, w.out.Checksum, w.refCount, w.refSum)
		}
		e.sample(name+".ns_per_lookup", st.secs*1e9/float64(n))
		e.sample(name+".allocs_per_run", float64(st.allocs))
		e.sample(name+".sim_cycles_per_lookup", float64(stats.Cycles)/float64(n))
		out.cells = append(out.cells, cl)
		if tech == ops.AMAC {
			out.lat = rec
		}
	}
	return out
}

// latencyState is a probe's state plus the cycle its lookup entered the
// engine.
type latencyState struct {
	ops.ProbeState
	start uint64
}

// latencyMachine wraps a probe machine so every lookup's simulated latency,
// from its first code stage to its completion, lands in a log. It charges
// nothing to the core, so simulated results are those of the bare machine.
type latencyMachine struct {
	m   *ops.ProbeMachine
	rec *latencyLog
}

func (l latencyMachine) NumLookups() int        { return l.m.NumLookups() }
func (l latencyMachine) ProvisionedStages() int { return l.m.ProvisionedStages() }

func (l latencyMachine) Init(c *memsim.Core, s *latencyState, i int) exec.Outcome {
	s.start = c.Cycle()
	return l.done(c, s, l.m.Init(c, &s.ProbeState, i))
}

func (l latencyMachine) Stage(c *memsim.Core, s *latencyState, stage int) exec.Outcome {
	return l.done(c, s, l.m.Stage(c, &s.ProbeState, stage))
}

func (l latencyMachine) done(c *memsim.Core, s *latencyState, o exec.Outcome) exec.Outcome {
	if o.Done {
		l.rec.record(c.Cycle() - s.start)
	}
	return o
}

// latencyLog counts latencies exactly, one counter per cycle value, so its
// quantiles carry no histogram rounding.
type latencyLog struct {
	counts []uint64
	n      uint64
}

func (l *latencyLog) record(v uint64) {
	if v >= uint64(len(l.counts)) {
		l.counts = append(l.counts, make([]uint64, int(v)+1-len(l.counts))...)
	}
	l.counts[v]++
	l.n++
}

// Quantile returns the smallest latency at or below which fraction q of the
// recorded lookups completed.
func (l *latencyLog) Quantile(q float64) uint64 {
	rank := uint64(math.Ceil(q * float64(l.n)))
	var seen uint64
	for v, c := range l.counts {
		seen += c
		if seen >= rank && seen > 0 {
			return uint64(v)
		}
	}
	return 0
}

// Count is the number of recorded latencies.
func (l *latencyLog) Count() uint64 { return l.n }

// warmTable installs the most recently written lines of a hash table, up to
// the LLC's capacity, into the core's hierarchy without charging time: the
// cache state a probe inherits from a build that ran on the same core.
func warmTable(c *memsim.Core, j *ops.HashJoin) {
	llc := uint64(c.Config().L3.SizeBytes)
	total := j.Table.NumBuckets() * 64
	start := uint64(0)
	if total > llc {
		start = total - llc
	}
	base := uint64(j.Table.BaseAddr())
	for off := start; off < total; off += 64 {
		c.Touch(memsim.Addr(base+off), 64)
	}
}
