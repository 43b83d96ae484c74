package amac_test

import (
	"testing"

	"amac"
)

// TestParallelPublicAPIEndToEnd drives the exported sharded execution layer
// the way a library user would: partition a join, run one AMAC engine per
// worker on private cores (real goroutines), and verify the merged output
// matches the unpartitioned reference and the merge semantics hold.
func TestParallelPublicAPIEndToEnd(t *testing.T) {
	const workers = 4
	build, probe, err := amac.BuildJoin(amac.JoinSpec{BuildSize: 1 << 10, ProbeSize: 1 << 11, ZipfBuild: 0.5, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	wantCount, wantSum := amac.NewHashJoin(build, probe).ReferenceJoin()

	pj := amac.PartitionJoin(build, probe, workers)
	pj.PrebuildRaw()
	cores := make([]*amac.Core, workers)
	outs := make([]*amac.Output, workers)
	machines := make([]*amac.ProbeMachine, workers)
	for w := 0; w < workers; w++ {
		sys := amac.MustSystem(amac.XeonX5670().ShareLLC(workers))
		cores[w] = sys.NewCore()
		sys.SetActiveThreads(workers, cores[w])
		outs[w] = amac.NewOutput(pj.Parts[w].Arena, false)
		outs[w].Sequential = true
		machines[w] = pj.ProbeMachine(w, outs[w], false)
	}

	runStats := make([]amac.RunStats, workers)
	ps := amac.RunParallel(cores, func(w int, c *amac.Core) {
		runStats[w] = amac.Run(c, machines[w], amac.Options{Width: 8})
	})

	var count, sum uint64
	for _, out := range outs {
		count += out.Count
		sum += out.Checksum
	}
	if count != wantCount || sum != wantSum {
		t.Fatalf("merged output (%d, %#x) differs from reference (%d, %#x)", count, sum, wantCount, wantSum)
	}
	sched := amac.MergeRunStats(runStats)
	if sched.Initiated != probe.Len() || sched.Completed != probe.Len() {
		t.Fatalf("merged scheduling stats cover %d/%d lookups, want %d", sched.Initiated, sched.Completed, probe.Len())
	}
	if sched.Width != 8 {
		t.Fatalf("merged Width = %d, want 8", sched.Width)
	}

	var maxCycles, sumInstr uint64
	for _, s := range ps.PerWorker {
		if s.Cycles > maxCycles {
			maxCycles = s.Cycles
		}
		sumInstr += s.Instructions
	}
	if ps.ElapsedCycles() != maxCycles || ps.Merged.Instructions != sumInstr {
		t.Fatalf("merge semantics violated: %+v", ps.Merged)
	}
	if merged := amac.MergeStats(ps.PerWorker); merged != ps.Merged {
		t.Fatal("MergeStats disagrees with RunParallel's merge")
	}
}

// TestShardPublicAPI range-shards a read-only BST search across workers:
// the underlying tree is shared read-only, each worker writes to a private
// output, and the merged result equals a sequential run.
func TestShardPublicAPI(t *testing.T) {
	build, probe, err := amac.BuildIndexWorkload(1<<9, 3)
	if err != nil {
		t.Fatal(err)
	}
	w := amac.NewBSTWorkload(build, probe)

	seqOut := amac.NewOutput(w.Arena, false)
	amac.Run(amac.MustSystem(amac.XeonX5670()).NewCore(), w.SearchMachine(seqOut), amac.Options{Width: 8})

	const workers = 3
	shards := amac.SplitLookups(probe.Len(), workers)
	cores := make([]*amac.Core, workers)
	outs := make([]*amac.Output, workers)
	machines := make([]amac.Shard[amac.BSTState], workers)
	for i := 0; i < workers; i++ {
		// Every shard searches its own copy of the tree: an arena is
		// single-goroutine state (reads update its chunk memo), so shards on
		// concurrent workers must not share one.
		shardW := amac.NewBSTWorkload(build, probe)
		cores[i] = amac.MustSystem(amac.XeonX5670().ShareLLC(workers)).NewCore()
		outs[i] = amac.NewOutput(shardW.Arena, false)
		outs[i].Sequential = true
		machines[i] = amac.Shard[amac.BSTState]{M: shardW.SearchMachine(outs[i]), Lo: shards[i].Lo, N: shards[i].N}
	}
	amac.RunParallel(cores, func(i int, c *amac.Core) {
		amac.Run(c, machines[i], amac.Options{Width: 8})
	})

	var count, sum uint64
	for _, out := range outs {
		count += out.Count
		sum += out.Checksum
	}
	if count != seqOut.Count || sum != seqOut.Checksum {
		t.Fatalf("sharded search (%d, %#x) differs from sequential (%d, %#x)", count, sum, seqOut.Count, seqOut.Checksum)
	}
}
