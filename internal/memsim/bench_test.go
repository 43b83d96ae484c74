package memsim

import "testing"

// The access-path benchmarks time one simulated access on each of the
// model's paths, on the Xeon configuration the paper's numbers use. Every
// other host-time number in the repository is a sum of these.

// accessPath is one simulated access pattern: setup warms a fresh core and
// returns the step that performs access i.
type accessPath struct {
	name  string
	setup func() func(i int)
}

var accessPaths = []accessPath{
	{"L1Hit", l1HitPath},
	{"MissFill", missFillPath},
	{"StreamFill", streamFillPath},
	{"TLBLookup", tlbLookupPath},
}

// pathLCG is the benchmarks' deterministic line generator.
func pathLCG(state *uint64) uint64 {
	*state = *state*6364136223846793005 + 1442695040888963407
	return *state >> 33
}

// l1HitPath loads 256 lines (16 KB) spread over all L1-D sets, more lines
// than the hit-way memo holds, so both the memo and the set scan serve hits.
func l1HitPath() func(i int) {
	c := MustSystem(XeonX5670()).NewCore()
	const lines = 256
	for l := 0; l < lines; l++ {
		c.Load(Addr(64+l*LineSize), 8)
	}
	return func(i int) {
		c.Load(Addr(64+(i*37%lines)*LineSize), 8)
	}
}

// missFillPath loads random lines of a 128 MB region: the TLB covers it,
// the caches do not, so nearly every access misses every level and fills
// from DRAM through the MSHRs.
func missFillPath() func(i int) {
	c := MustSystem(XeonX5670()).NewCore()
	state := uint64(1)
	return func(int) {
		c.Load(Addr(64+pathLCG(&state)%(1<<21)*LineSize), 8)
	}
}

// streamFillPath is the hash-join probe's pattern: two sequential streams
// (input tuples and output buffer) advancing in lockstep at line offsets
// congruent modulo every power of two up to 2^20, each driving the stream
// prefetcher's window fills, plus one random demand line per step.
func streamFillPath() func(i int) {
	c := MustSystem(XeonX5670()).NewCore()
	const in, out = 1 << 20, 2 << 20 // line numbers
	state := uint64(1)
	return func(i int) {
		line := uint64(i % (1 << 19))
		c.Load(Addr((in+line)*LineSize), 8)
		c.Store(Addr((out+line)*LineSize), 8)
		c.Load(Addr((4<<20+pathLCG(&state)%(1<<20))*LineSize), 8)
	}
}

// tlbLookupPath translates addresses on 16 pages whose page numbers agree in
// their low 3 bits, cycling so that consecutive accesses never share a
// page: every translation leaves the last-page fast path.
func tlbLookupPath() func(i int) {
	cfg := XeonX5670().TLB
	tlb := NewTLB(cfg)
	const pages = 16
	return func(i int) {
		tlb.Translate(Addr(uint64(i%pages*8) * uint64(cfg.PageBytes)))
	}
}

func BenchmarkAccessPath(b *testing.B) {
	for _, p := range accessPaths {
		b.Run(p.name, func(b *testing.B) {
			step := p.setup()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				step(i)
			}
		})
	}
}

// TestAccessPathsDoNotAllocate pins the benchmarks' 0 allocs/op: a
// simulated access must never reach the host allocator.
func TestAccessPathsDoNotAllocate(t *testing.T) {
	for _, p := range accessPaths {
		step := p.setup()
		i := 0
		if n := testing.AllocsPerRun(1000, func() { step(i); i++ }); n != 0 {
			t.Errorf("%s: %v allocs per access, want 0", p.name, n)
		}
	}
}
