package amac_test

// Golden serving-regression tests: fixed-seed open-loop serving runs of
// every technique under every arrival process (and both queue policies) must
// reproduce the exact latency percentiles, completion/drop counts and cycle
// counts recorded in testdata/golden_serve.json. This pins the serving fast
// path — ring-buffer admission queue, recycled socket models, pooled stream
// state — to the simulated behaviour of the original implementation:
// performance work may change how fast serving runs execute, never what
// they measure. Regenerate only on deliberate model changes:
//
//	go test -run TestGoldenServe -update-golden
//
// (the -update-golden flag is shared with TestGoldenStats).

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"amac"
)

// serveGoldenRecord is everything one serving run must reproduce exactly.
type serveGoldenRecord struct {
	Offered      uint64 `json:"offered"`
	Completed    uint64 `json:"completed"`
	Dropped      uint64 `json:"dropped"`
	P50          uint64 `json:"p50"`
	P95          uint64 `json:"p95"`
	P99          uint64 `json:"p99"`
	MaxLatency   uint64 `json:"maxLatency"`
	SumLatency   uint64 `json:"sumLatency"`
	SumQueueWait uint64 `json:"sumQueueWait"`
	DepthMax     int    `json:"depthMax"`
	Cycles       uint64 `json:"cycles"`
	IdleCycles   uint64 `json:"idleCycles"`
	Initiated    int    `json:"initiated"`
	StageVisits  uint64 `json:"stageVisits"`
}

// serveGoldenScenarios enumerates technique × arrival process × queue policy
// on a fixed skewed join, plus a two-worker sharded AMAC run.
type serveScenario struct {
	name     string
	tech     amac.Technique
	arrivals string
	qcap     int
	policy   amac.QueuePolicy
	workers  int
}

func serveScenarios() []serveScenario {
	var out []serveScenario
	for _, tech := range amac.Techniques {
		for _, proc := range []string{"deterministic", "poisson", "bursty"} {
			out = append(out,
				serveScenario{
					name: fmt.Sprintf("%s/%s/block", tech, proc),
					tech: tech, arrivals: proc, workers: 1,
				},
				serveScenario{
					name: fmt.Sprintf("%s/%s/drop", tech, proc),
					tech: tech, arrivals: proc, qcap: 32, policy: amac.QueueDrop, workers: 1,
				})
		}
	}
	out = append(out, serveScenario{name: "AMAC/poisson/sharded2", tech: amac.AMAC, arrivals: "poisson", workers: 2})
	return out
}

// servePeriod keeps the offered load near the skewed join's service rate so
// queues exercise both busy and idle paths.
const servePeriod = 400

func executeServeGolden(t testing.TB, sc serveScenario) serveGoldenRecord {
	t.Helper()
	const n = 1 << 11
	build, probe, err := amac.BuildJoin(amac.JoinSpec{BuildSize: n, ProbeSize: n, ZipfBuild: 1.0, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}

	var workers []amac.ServiceWorker[amac.ProbeState]
	if sc.workers == 1 {
		join := amac.NewHashJoin(build, probe)
		join.PrebuildRaw()
		out := amac.NewOutput(join.Arena, false)
		workers = append(workers, amac.ServiceWorker[amac.ProbeState]{
			Machine:  join.ProbeMachine(out, true),
			Arrivals: mustArrivals(t, sc.arrivals, servePeriod, join.Probe.Len(), 11),
		})
	} else {
		pj := amac.PartitionJoin(build, probe, sc.workers)
		pj.PrebuildRaw()
		for w := 0; w < sc.workers; w++ {
			out := amac.NewOutput(pj.Parts[w].Arena, false)
			workers = append(workers, amac.ServiceWorker[amac.ProbeState]{
				Machine:  pj.ProbeMachine(w, out, true),
				Arrivals: mustArrivals(t, sc.arrivals, servePeriod*float64(sc.workers), pj.Parts[w].Probe.Len(), 11+uint64(w)),
			})
		}
	}

	res, err := amac.RunService(amac.FaultyServiceOptions{Options: amac.ServiceOptions{
		Hardware:  amac.XeonX5670(),
		Technique: sc.tech,
		Window:    10,
		QueueCap:  sc.qcap,
		Policy:    sc.policy,
	}}, workers)
	if err != nil {
		t.Fatal(err)
	}

	return serveGoldenRecord{
		Offered:      res.Latency.Offered,
		Completed:    res.Latency.Completed,
		Dropped:      res.Latency.Dropped,
		P50:          res.Latency.P50(),
		P95:          res.Latency.P95(),
		P99:          res.Latency.P99(),
		MaxLatency:   res.Latency.MaxLatency,
		SumLatency:   res.Latency.SumLatency,
		SumQueueWait: res.Latency.SumQueueWait,
		DepthMax:     res.Latency.DepthMax,
		Cycles:       res.Stats.Cycles,
		IdleCycles:   res.Stats.IdleCycles,
		Initiated:    res.Sched.Initiated,
		StageVisits:  res.Sched.StageVisits,
	}
}

func mustArrivals(t testing.TB, name string, period float64, n int, seed uint64) []uint64 {
	t.Helper()
	proc, err := amac.ParseArrivals(name, period)
	if err != nil {
		t.Fatal(err)
	}
	return proc.Schedule(n, seed)
}

const serveGoldenPath = "testdata/golden_serve.json"

func TestGoldenServe(t *testing.T) {
	scenarios := serveScenarios()

	if *updateGolden {
		got := make(map[string]serveGoldenRecord, len(scenarios))
		for _, sc := range scenarios {
			got[sc.name] = executeServeGolden(t, sc)
		}
		if err := os.MkdirAll(filepath.Dir(serveGoldenPath), 0o755); err != nil {
			t.Fatal(err)
		}
		buf, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(serveGoldenPath, append(buf, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %d serving golden records to %s", len(got), serveGoldenPath)
		return
	}

	buf, err := os.ReadFile(serveGoldenPath)
	if err != nil {
		t.Fatalf("missing serving goldens (run with -update-golden to create): %v", err)
	}
	var want map[string]serveGoldenRecord
	if err := json.Unmarshal(buf, &want); err != nil {
		t.Fatal(err)
	}
	if len(want) != len(scenarios) {
		t.Errorf("golden file has %d records, test defines %d", len(want), len(scenarios))
	}

	for _, sc := range scenarios {
		sc := sc
		t.Run(sc.name, func(t *testing.T) {
			exp, ok := want[sc.name]
			if !ok {
				t.Fatalf("no serving golden record for %q; run with -update-golden", sc.name)
			}
			got := executeServeGolden(t, sc)
			if got == exp {
				return
			}
			gv, ev := reflect.ValueOf(got), reflect.ValueOf(exp)
			for i := 0; i < gv.NumField(); i++ {
				if !reflect.DeepEqual(gv.Field(i).Interface(), ev.Field(i).Interface()) {
					t.Errorf("%s: got %v want %v", gv.Type().Field(i).Name, gv.Field(i).Interface(), ev.Field(i).Interface())
				}
			}
		})
	}
}

// TestGoldenServeDeterministic guards the guard: the same serving run
// executed twice in one process — the second on recycled socket models —
// must produce identical records, which is exactly the system-pool
// invariant the serving fast path relies on.
func TestGoldenServeDeterministic(t *testing.T) {
	for _, sc := range serveScenarios()[:4] {
		a, b := executeServeGolden(t, sc), executeServeGolden(t, sc)
		if a != b {
			t.Fatalf("%s: two identical serving runs diverged:\n%+v\n%+v", sc.name, a, b)
		}
	}
}
