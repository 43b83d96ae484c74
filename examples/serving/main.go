// Command serving demonstrates the streaming request-serving layer: a hash
// join with skewed build keys is partitioned across two workers and served
// under open-loop Poisson traffic at a low and a near-saturation arrival
// rate, once per execution technique. The point the numbers make is the
// paper's flexibility argument restated as a serving property: AMAC refills
// each in-flight slot the moment its lookup completes, so it keeps p99
// latency near the bare service time at arrival rates where the
// batch-boundary refill of GP and SPP (and the one-at-a-time baseline)
// lets the admission queue — and the tail — grow.
package main

import (
	"fmt"
	"os"
	"text/tabwriter"

	"amac"
)

const workers = 2

func main() {
	build, probe, err := amac.BuildJoin(amac.JoinSpec{
		BuildSize: 1 << 14,
		ProbeSize: 1 << 14,
		ZipfBuild: 1.0, // skewed build keys: long, divergent bucket chains
		Seed:      42,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}

	// Partition the join so each worker owns a private table, and pre-build
	// outside the measured phase.
	pj := amac.PartitionJoin(build, probe, workers)
	pj.PrebuildRaw()
	wantCount, wantChecksum := pj.ReferenceJoinFirstMatch()

	hw := amac.XeonX5670()

	// Calibrate the offered loads against AMAC's batch service capacity:
	// run the probe as a plain batch once and read cycles per tuple.
	capacity := batchCapacity(hw, pj)
	fmt.Printf("hash join service: |R| = |S| = %d tuples, Zipf(1.0) build keys, %d workers\n", probe.Len(), workers)
	fmt.Printf("batch AMAC capacity: %.1f M req/s\n\n", capacity*hw.FreqHz/1e6)

	w := tabwriter.NewWriter(os.Stdout, 0, 4, 2, ' ', 0)
	fmt.Fprintln(w, "load\ttechnique\tthroughput (M req/s)\tp50 (cycles)\tp99 (cycles)\tmax queue depth")
	for _, load := range []float64{0.5, 0.9} {
		for _, tech := range amac.Techniques {
			res, count, checksum := serveOnce(hw, pj, tech, load, capacity)
			if count != wantCount || checksum != wantChecksum {
				fmt.Fprintf(os.Stderr, "%s produced wrong results under streaming execution!\n", tech)
				os.Exit(1)
			}
			fmt.Fprintf(w, "%.0f%%\t%s\t%.1f\t%d\t%d\t%d\n",
				load*100, tech,
				res.ThroughputPerCycle()*hw.FreqHz/1e6,
				res.Latency.P50(), res.Latency.P99(), res.Latency.DepthMax)
		}
	}
	w.Flush()
	fmt.Println("\nevery technique served the identical request set and produced identical join output;",
		"only AMAC's per-slot refill holds the p99 tail flat near saturation.")
}

// batchCapacity measures AMAC's aggregate batch throughput (requests per
// cycle) over the partitioned workload: total tuples over the slowest
// worker's elapsed cycles.
func batchCapacity(hw amac.Hardware, pj *amac.PartitionedHashJoin) float64 {
	shared := hw.ShareLLC(workers)
	cores := make([]*amac.Core, workers)
	machines := make([]*amac.ProbeMachine, workers)
	for i := 0; i < workers; i++ {
		sys := amac.MustSystem(shared)
		cores[i] = sys.NewCore()
		out := amac.NewOutput(pj.Parts[i].Arena, false)
		out.Sequential = true
		machines[i] = pj.ProbeMachine(i, out, true)
	}
	ps := amac.RunParallel(cores, func(i int, c *amac.Core) {
		amac.Run(c, machines[i], amac.Options{})
	})
	return float64(pj.ProbeTuples()) / float64(ps.ElapsedCycles())
}

// serveOnce runs the sharded service at the given fraction of AMAC's batch
// capacity and returns the merged result plus the aggregated join output.
func serveOnce(hw amac.Hardware, pj *amac.PartitionedHashJoin, tech amac.Technique, load, capacity float64) (amac.ServiceResult, uint64, uint64) {
	total := pj.ProbeTuples()
	outs := make([]*amac.Output, workers)
	specs := make([]amac.ServiceWorker[amac.ProbeState], workers)
	for i := 0; i < workers; i++ {
		outs[i] = amac.NewOutput(pj.Parts[i].Arena, false)
		outs[i].Sequential = true
		nw := pj.Parts[i].Probe.Len()
		// Split the offered rate across workers in proportion to their
		// partition sizes so every stream spans the same duration.
		period := float64(total) / (load * capacity * float64(nw))
		specs[i] = amac.ServiceWorker[amac.ProbeState]{
			Machine:  pj.ProbeMachine(i, outs[i], true),
			Arrivals: amac.Poisson{MeanPeriod: period}.Schedule(nw, uint64(i)+7),
		}
	}
	res, err := amac.RunService(amac.FaultyServiceOptions{Options: amac.ServiceOptions{
		Hardware:  hw,
		Technique: tech,
		Window:    10,
	}}, specs)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	var count, checksum uint64
	for _, out := range outs {
		count += out.Count
		checksum += out.Checksum
	}
	return res, count, checksum
}
