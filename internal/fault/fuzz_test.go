package fault

import (
	"reflect"
	"testing"
)

// FuzzParseFaults drives the -faults grammar with arbitrary specs, shard
// counts and horizons. The oracle: ParseSpec either rejects the spec or
// returns one that Schedule.Validate and Spec.Resolve handle without
// panicking; an accepted fixed schedule's String re-parses to an equal
// schedule; and a schedule Resolve returns passes Validate. The CI runs it
// with -fuzz for a bounded time; plain go test replays the seed corpus in
// testdata/fuzz/FuzzParseFaults.
func FuzzParseFaults(f *testing.F) {
	f.Add("slow:0@60000+120000x4", int8(2), uint64(1_000_000))
	f.Add("freeze:1@2k+3M,spike:0@5+10x2.5,crash:0@100+1", int8(2), uint64(0))
	f.Add("rand:7:3", int8(3), uint64(400_000))
	f.Add("rand:7", int8(2), uint64(7))
	f.Add("slow:0@1000+50000xNaN", int8(1), uint64(1))
	f.Add("crash:0@18446744073709551615+10", int8(-1), uint64(64))
	f.Fuzz(func(t *testing.T, spec string, shards int8, horizon uint64) {
		sp, err := ParseSpec(spec)
		if err != nil {
			return
		}
		if !sp.IsRand {
			again, err := ParseSpec(sp.Sched.String())
			if err != nil {
				t.Fatalf("%q re-parsed from %q: %v", sp.Sched.String(), spec, err)
			}
			if !reflect.DeepEqual(again.Sched, sp.Sched) {
				t.Fatalf("%q round-trips to %v, parsed %v", spec, again.Sched, sp.Sched)
			}
			_ = sp.Sched.Validate(int(shards))
		}
		sched, err := sp.Resolve(int(shards), horizon)
		if err != nil {
			return
		}
		if err := sched.Validate(int(shards)); err != nil {
			t.Fatalf("Resolve(%d, %d) of %q returned a schedule Validate rejects: %v", shards, horizon, spec, err)
		}
	})
}
