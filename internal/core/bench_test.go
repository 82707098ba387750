package core

import (
	"testing"

	"rotorring/internal/graph"
	"rotorring/internal/xrand"
)

// Ablation benchmarks for the two engine design choices called out in
// DESIGN.md §5: (1) batched per-node fan-out versus naive per-agent moves,
// and (2) incremental configuration hashing versus full rehash.

// BenchmarkAblationBatchedStep: the generic engine's batched fan-out, many
// agents stacked on few nodes (the regime the batching targets). Each
// iteration replays a fixed 32-round window from the stacked start so the
// regime cannot drift as the benchmark runs longer. The engine is pinned
// to KernelGeneric so the measurement does not depend on auto selection.
func BenchmarkAblationBatchedStep(b *testing.B) {
	g := graph.Ring(1024)
	sys, err := NewSystem(g, WithAgentsAt(AllOnNode(0, 1024)...), WithKernelMode(KernelGeneric))
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sys.Reset()
		for j := 0; j < 32; j++ {
			sys.Step()
		}
	}
}

// BenchmarkAblationNaiveStep: the reference implementation from the tests,
// same fixed 32-round window.
func BenchmarkAblationNaiveStep(b *testing.B) {
	g := graph.Ring(1024)
	ptr := make([]int, 1024)
	starts := AllOnNode(0, 1024)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ref := newRefSystem(g, ptr, starts)
		for j := 0; j < 32; j++ {
			ref.step()
		}
	}
}

// BenchmarkAblationIncrementalHash: hash maintenance cost is already in
// Step; this measures reading it.
func BenchmarkAblationIncrementalHash(b *testing.B) {
	g := graph.Ring(4096)
	sys, err := NewSystem(g, WithAgentsAt(EquallySpaced(4096, 32)...))
	if err != nil {
		b.Fatal(err)
	}
	var h uint64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sys.Step()
		h = sys.ConfigHash()
	}
	_ = h
}

// BenchmarkAblationFullRehash: the alternative — recompute the hash from
// scratch every round, as a cycle detector without incremental hashing
// would have to.
func BenchmarkAblationFullRehash(b *testing.B) {
	g := graph.Ring(4096)
	sys, err := NewSystem(g, WithAgentsAt(EquallySpaced(4096, 32)...))
	if err != nil {
		b.Fatal(err)
	}
	var h uint64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sys.Step()
		h = sys.fullHash()
	}
	_ = h
}

// BenchmarkStepSparseAgents: engine throughput with few, spread-out agents.
func BenchmarkStepSparseAgents(b *testing.B) {
	g := graph.Ring(1 << 16)
	sys, err := NewSystem(g, WithAgentsAt(EquallySpaced(1<<16, 8)...))
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sys.Step()
	}
}

// BenchmarkFindLimitCycle: end-to-end cost of cycle detection.
func BenchmarkFindLimitCycle(b *testing.B) {
	g := graph.Ring(256)
	rng := xrand.New(1)
	for i := 0; i < b.N; i++ {
		sys, err := NewSystem(g,
			WithAgentsAt(RandomPositions(256, 4, rng)...),
			WithPointers(PointersRandom(g, rng)))
		if err != nil {
			b.Fatal(err)
		}
		if _, err := FindLimitCycle(sys, 1<<24, false); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkClusteredStart is the measured source of KernelAuto's occupancy
// thresholds and re-check interval: the paper's worst-case start (all k
// agents on node 0) run to coverage under auto, generic and fast. The
// first cell stays sparse (a few percent of the nodes occupied) for its
// whole run, so auto must track generic; the second climbs from one node
// to about 0.3n, so auto must switch up to the flat kernel partway.
func BenchmarkClusteredStart(b *testing.B) {
	cells := []struct {
		name     string
		n, k     int
		negative bool // Theorem 4's negative pointers instead of all-zero
	}{
		{"ring8192-k2048-zero", 8192, 2048, false},
		{"ring1024-k512-neg", 1024, 512, true},
	}
	modes := []KernelMode{KernelAuto, KernelGeneric, KernelFast}
	for _, c := range cells {
		g := graph.Ring(c.n)
		starts := AllOnNode(0, c.k)
		opts := []Option{WithAgentsAt(starts...)}
		if c.negative {
			ptr, err := PointersNegative(g, starts)
			if err != nil {
				b.Fatal(err)
			}
			opts = append(opts, WithPointers(ptr))
		}
		for _, mode := range modes {
			b.Run(c.name+"/"+mode.String(), func(b *testing.B) {
				sys, err := NewSystem(g, append(opts, WithKernelMode(mode))...)
				if err != nil {
					b.Fatal(err)
				}
				budget := int64(64 * c.n * c.n)
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					sys.Reset()
					if _, err := sys.RunUntilCovered(budget); err != nil {
						b.Fatal(err)
					}
				}
				st := sys.TierStats()
				b.ReportMetric(float64(st.KernelRounds)/float64(sys.Round()), "kernel-frac")
				b.ReportMetric(float64(st.Switches), "switches")
			})
		}
	}
}
