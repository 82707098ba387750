package engine

import (
	"bytes"
	"errors"
	"fmt"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"

	"rotorring/internal/core"
	"rotorring/internal/graph"
	"rotorring/internal/stats"
)

// randomizedSpec is a sweep exercising every seed-dependent code path:
// random placement, random pointers, and walk-style replicas.
func randomizedSpec() SweepSpec {
	return SweepSpec{
		Topologies: []Topo{"ring"},
		Sizes:      []int{32, 48},
		Agents:     []int{2, 4},
		Placements: []Placement{PlaceEqual, PlaceRandom},
		Pointers:   []Pointer{PtrZero, PtrRandom},
		Replicas:   3,
		Seed:       42,
	}
}

// runToBytes executes a sweep and returns rows plus serialized JSONL and
// CSV sink output.
func runToBytes(t *testing.T, e *Engine, spec SweepSpec) ([]Row, []byte, []byte) {
	t.Helper()
	var jsonl, csvBuf bytes.Buffer
	rows, err := e.Run(spec, NewJSONLSink(&jsonl), NewCSVSink(&csvBuf))
	if err != nil {
		t.Fatal(err)
	}
	return rows, jsonl.Bytes(), csvBuf.Bytes()
}

// TestDeterminismAcrossWorkers is the engine's core contract: the same
// sweep at Workers(1) and Workers(8) produces byte-identical sink output
// and identical row sequences — no seed may depend on scheduling, and no
// map-iteration order may leak into the stream.
func TestDeterminismAcrossWorkers(t *testing.T) {
	for _, proc := range []string{ProcRotor, ProcWalk} {
		for _, metric := range []string{MetricCover, MetricReturn} {
			t.Run(fmt.Sprintf("%s_%s", proc, metric), func(t *testing.T) {
				spec := randomizedSpec()
				spec.Process = proc
				spec.Metric = metric
				if metric == MetricReturn {
					// Long-window gap measurement: keep the grid small.
					spec.Sizes = []int{24}
					spec.Replicas = 2
				}
				rows1, jsonl1, csv1 := runToBytes(t, New(Workers(1)), spec)
				rows8, jsonl8, csv8 := runToBytes(t, New(Workers(8)), spec)

				if !reflect.DeepEqual(rows1, rows8) {
					t.Fatalf("rows differ between 1 and 8 workers:\n%v\nvs\n%v", rows1, rows8)
				}
				if !bytes.Equal(jsonl1, jsonl8) {
					t.Errorf("JSONL output differs between 1 and 8 workers")
				}
				if !bytes.Equal(csv1, csv8) {
					t.Errorf("CSV output differs between 1 and 8 workers")
				}
				for _, r := range rows1 {
					if r.Err != "" {
						t.Errorf("job cell=%d replica=%d failed: %s", r.Index, r.Replica, r.Err)
					}
				}
			})
		}
	}
}

// TestRepeatedRunsIdentical: running the same spec twice on the same engine
// gives identical results (worker caches are invisible).
func TestRepeatedRunsIdentical(t *testing.T) {
	e := New(Workers(4))
	rows1, jsonl1, _ := runToBytes(t, e, randomizedSpec())
	rows2, jsonl2, _ := runToBytes(t, e, randomizedSpec())
	if !reflect.DeepEqual(rows1, rows2) {
		t.Fatal("repeated runs differ")
	}
	if !bytes.Equal(jsonl1, jsonl2) {
		t.Fatal("repeated JSONL output differs")
	}
}

// TestRowOrderCanonical: rows arrive sorted by cell index then replica, and
// cell indices match the documented grid nesting.
func TestRowOrderCanonical(t *testing.T) {
	spec := randomizedSpec()
	rows, err := New(Workers(8)).Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	cells, err := spec.Cells()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != len(cells)*spec.Replicas {
		t.Fatalf("got %d rows, want %d", len(rows), len(cells)*spec.Replicas)
	}
	for i, r := range rows {
		wantCell := i / spec.Replicas
		wantRep := i % spec.Replicas
		if r.Index != wantCell || r.Replica != wantRep {
			t.Fatalf("row %d: got cell=%d replica=%d, want cell=%d replica=%d",
				i, r.Index, r.Replica, wantCell, wantRep)
		}
		c := cells[wantCell]
		if r.N != c.N || r.K != c.K || r.Placement != c.Placement.String() {
			t.Fatalf("row %d does not match cell %d", i, wantCell)
		}
	}
}

// TestSeedDerivation checks the properties reproducibility rests on.
func TestSeedDerivation(t *testing.T) {
	if DeriveSeed(1, 2, 3) == DeriveSeed(1, 3, 2) {
		t.Error("DeriveSeed is not position-sensitive")
	}
	if DeriveSeed(1, 2, 3) == DeriveSeed(2, 2, 3) {
		t.Error("DeriveSeed ignores the base")
	}
	if DeriveSeed(0) == 0 {
		t.Error("DeriveSeed(0) must not return 0")
	}
	c := Cell{Topology: "ring", N: 64, K: 4, Placement: PlaceRandom, Pointer: PtrRandom}
	if jobSeed(1, c, 0) == jobSeed(1, c, 1) {
		t.Error("replicas share a seed")
	}
	// Seeds depend on configuration values, not grid position: the same
	// cell in a reshaped grid keeps its seed.
	c2 := c
	c2.Index = 17
	if jobSeed(1, c, 0) != jobSeed(1, c2, 0) {
		t.Error("job seed depends on grid index")
	}
	c3 := c
	c3.Topology = "path"
	if jobSeed(1, c, 0) == jobSeed(1, c3, 0) {
		t.Error("job seed ignores topology")
	}
}

// TestSeedZeroIsDistinct: seed 0 is a valid base producing a different
// sample than seed 1 (an explicit 0 must not be remapped).
func TestSeedZeroIsDistinct(t *testing.T) {
	spec := SweepSpec{
		Topologies: []Topo{"ring"},
		Sizes:      []int{48},
		Agents:     []int{2},
		Placements: []Placement{PlaceRandom},
		Pointers:   []Pointer{PtrRandom},
		Replicas:   4,
	}
	spec.Seed = 0
	rows0, err := New(Workers(2)).Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	spec.Seed = 1
	rows1, err := New(Workers(2)).Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	if reflect.DeepEqual(rows0, rows1) {
		t.Error("seed 0 and seed 1 produced identical sweeps")
	}
}

// TestTopologyCaseInsensitive: flag casing must not change results (seeds
// hash the normalized topology name).
func TestTopologyCaseInsensitive(t *testing.T) {
	spec := randomizedSpec()
	lower, err := New(Workers(2)).Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	spec.Topologies = []Topo{"RING"}
	upper, err := New(Workers(2)).Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(lower, upper) {
		t.Error("topology casing changed sweep results")
	}
}

// TestEngineMatchesDirect: the engine's measurement of a deterministic cell
// equals a hand-built core run of the same configuration.
func TestEngineMatchesDirect(t *testing.T) {
	const n, k = 64, 4
	g := graph.Ring(n)
	starts := core.EquallySpaced(n, k)
	ptr, err := core.PointersNegative(g, starts)
	if err != nil {
		t.Fatal(err)
	}
	sys, err := core.NewSystem(g, core.WithAgentsAt(starts...), core.WithPointers(ptr))
	if err != nil {
		t.Fatal(err)
	}
	want, err := sys.RunUntilCovered(1 << 20)
	if err != nil {
		t.Fatal(err)
	}

	rows, err := New(Workers(2)).Run(SweepSpec{
		Topologies: []Topo{"ring"},
		Sizes:      []int{n},
		Agents:     []int{k},
		Placements: []Placement{PlaceEqual},
		Pointers:   []Pointer{PtrNegative},
		Replicas:   3,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("got %d rows, want 3", len(rows))
	}
	for _, r := range rows {
		if r.Err != "" {
			t.Fatalf("replica %d failed: %s", r.Replica, r.Err)
		}
		if int64(r.Value) != want {
			t.Errorf("replica %d: cover %v, want %d (System reuse via Reset must not leak state)", r.Replica, r.Value, want)
		}
	}
}

// TestReturnMetricMatchesDirect: the return-time metric agrees with a
// direct MeasureReturnTime run, across replicas reusing the prototype.
func TestReturnMetricMatchesDirect(t *testing.T) {
	const n, k = 48, 3
	g := graph.Ring(n)
	starts := core.EquallySpaced(n, k)
	ptr, err := core.PointersNegative(g, starts)
	if err != nil {
		t.Fatal(err)
	}
	sys, err := core.NewSystem(g, core.WithAgentsAt(starts...), core.WithPointers(ptr))
	if err != nil {
		t.Fatal(err)
	}
	want, err := core.MeasureReturnTime(sys, 1<<22)
	if err != nil {
		t.Fatal(err)
	}

	rows, err := New(Workers(1)).Run(SweepSpec{
		Topologies: []Topo{"ring"},
		Sizes:      []int{n},
		Agents:     []int{k},
		Placements: []Placement{PlaceEqual},
		Pointers:   []Pointer{PtrNegative},
		Metric:     MetricReturn,
		Replicas:   2,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		if r.Err != "" {
			t.Fatalf("replica %d failed: %s", r.Replica, r.Err)
		}
		if int64(r.Value) != want.ReturnTime || r.Period != want.Period {
			t.Errorf("replica %d: return=%v period=%d, want return=%d period=%d",
				r.Replica, r.Value, r.Period, want.ReturnTime, want.Period)
		}
		if r.MinVisits != want.MinNodeVisits || r.MaxVisits != want.MaxNodeVisits {
			t.Errorf("replica %d: visit extremes (%d,%d), want (%d,%d)",
				r.Replica, r.MinVisits, r.MaxVisits, want.MinNodeVisits, want.MaxNodeVisits)
		}
	}
}

// TestSummarySink: per-cell aggregation matches internal/stats on the rows.
func TestSummarySink(t *testing.T) {
	spec := randomizedSpec()
	spec.Process = ProcWalk
	sum := NewSummarySink()
	rows, err := New(Workers(4)).Run(spec, sum)
	if err != nil {
		t.Fatal(err)
	}
	cells, _ := spec.Cells()
	got := sum.Cells()
	if len(got) != len(cells) {
		t.Fatalf("got %d summaries, want %d", len(got), len(cells))
	}
	for _, cs := range got {
		var vals []float64
		for _, r := range rows {
			if r.Index == cs.Index && r.Err == "" {
				vals = append(vals, r.Value)
			}
		}
		if cs.Replicas != len(vals) {
			t.Fatalf("cell %d: %d replicas, want %d", cs.Index, cs.Replicas, len(vals))
		}
		want, err := stats.Summarize(vals)
		if err != nil {
			t.Fatal(err)
		}
		if cs.Mean != want.Mean || cs.Median != want.Median || cs.Min != want.Min || cs.Max != want.Max {
			t.Errorf("cell %d: summary %+v disagrees with stats.Summarize %+v", cs.Index, cs, want)
		}
	}
	var table strings.Builder
	if err := sum.WriteTable(&table); err != nil {
		t.Fatal(err)
	}
	if got := strings.Count(table.String(), "\n"); got != len(cells) {
		t.Errorf("summary table has %d lines, want %d", got, len(cells))
	}
}

// TestSpecValidation: invalid specs fail before any worker starts.
func TestSpecValidation(t *testing.T) {
	bad := []SweepSpec{
		{},                                  // no sizes
		{Sizes: []int{8}},                   // no agents
		{Sizes: []int{8}, Agents: []int{0}}, // k < 1
		{Sizes: []int{8}, Agents: []int{2}, Topologies: []Topo{"moebius"}},
		{Sizes: []int{8}, Agents: []int{2}, Placements: []Placement{99}},
		{Sizes: []int{8}, Agents: []int{2}, Pointers: []Pointer{99}},
		{Sizes: []int{8}, Agents: []int{2}, Replicas: -1},
	}
	for i, spec := range bad {
		if _, err := New().Run(spec); err == nil {
			t.Errorf("spec %d: invalid spec accepted", i)
		}
	}
	// Out-of-range sizes are per-cell failures, not spec errors: the rest
	// of the grid still runs.
	rows, err := New().Run(SweepSpec{Sizes: []int{8, 2}, Agents: []int{2}})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 || rows[0].Err != "" || rows[1].Err == "" {
		t.Errorf("Ring(2) cell should fail as a row while Ring(8) succeeds: %+v", rows)
	}
}

// TestJobErrorsAreRows: a failing job (budget exhausted) produces a row
// with Err set rather than aborting the sweep.
func TestJobErrorsAreRows(t *testing.T) {
	rows, err := New(Workers(2)).Run(SweepSpec{
		Topologies: []Topo{"ring"},
		Sizes:      []int{128},
		Agents:     []int{1},
		MaxRounds:  3, // far below the ~n^2 cover time
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1 || rows[0].Err == "" {
		t.Fatalf("want one failed row, got %+v", rows)
	}
	if !strings.Contains(rows[0].Err, "cover-time budget exhausted") {
		t.Errorf("unexpected error: %s", rows[0].Err)
	}
}

// TestWalkReplicasVary: walk replicas with distinct derived seeds give a
// genuinely random sample (not all equal), while remaining reproducible.
func TestWalkReplicasVary(t *testing.T) {
	spec := SweepSpec{
		Topologies: []Topo{"ring"},
		Sizes:      []int{64},
		Agents:     []int{2},
		Process:    ProcWalk,
		Replicas:   8,
		Seed:       7,
	}
	rows, err := New(Workers(3)).Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	distinct := map[float64]bool{}
	for _, r := range rows {
		if r.Err != "" {
			t.Fatalf("replica %d failed: %s", r.Replica, r.Err)
		}
		distinct[r.Value] = true
	}
	if len(distinct) < 2 {
		t.Errorf("8 walk replicas produced %d distinct cover times; seeds look shared", len(distinct))
	}
}

// TestParseRoundTrip: flag parsing and String round-trip for the enums.
func TestParseRoundTrip(t *testing.T) {
	for _, p := range []Placement{PlaceSingle, PlaceEqual, PlaceRandom} {
		got, err := ParsePlacement(p.String())
		if err != nil || got != p {
			t.Errorf("placement %v round-trip failed: %v %v", p, got, err)
		}
	}
	for _, p := range []Pointer{PtrZero, PtrNegative, PtrToward, PtrRandom} {
		got, err := ParsePointer(p.String())
		if err != nil || got != p {
			t.Errorf("pointer %v round-trip failed: %v %v", p, got, err)
		}
	}
	if _, err := ParsePlacement("nope"); err == nil {
		t.Error("bad placement accepted")
	}
	if _, err := ParsePointer("nope"); err == nil {
		t.Error("bad pointer accepted")
	}
}

// TestMap: order preservation, clamping, error propagation, parallelism.
func TestMap(t *testing.T) {
	var calls atomic.Int64
	out, err := Map(8, 100, func(i int) (int, error) {
		calls.Add(1)
		return i * i, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if calls.Load() != 100 {
		t.Errorf("fn called %d times, want 100", calls.Load())
	}
	for i, v := range out {
		if v != i*i {
			t.Fatalf("out[%d] = %d, want %d", i, v, i*i)
		}
	}

	boom := errors.New("boom")
	if _, err := Map(4, 10, func(i int) (int, error) {
		if i == 7 {
			return 0, boom
		}
		return i, nil
	}); !errors.Is(err, boom) {
		t.Errorf("Map error = %v, want wrapped boom", err)
	}

	if out, err := Map(4, 0, func(int) (int, error) { return 0, nil }); err != nil || out != nil {
		t.Errorf("empty Map = (%v, %v), want (nil, nil)", out, err)
	}
}

// TestBuildGraphSizes: every registered topology constructs and reports a
// sensible node count.
func TestBuildGraphSizes(t *testing.T) {
	cases := []struct {
		topo  string
		n     int
		nodes int
	}{
		{"ring", 16, 16},
		{"path", 16, 16},
		{"grid", 4, 16},
		{"torus", 4, 16},
		{"complete", 8, 8},
		{"star", 8, 8},
		{"hypercube", 4, 16},
		{"btree", 3, 7},
	}
	for _, c := range cases {
		g, err := BuildGraph(c.topo, c.n)
		if err != nil {
			t.Errorf("%s: %v", c.topo, err)
			continue
		}
		if g.NumNodes() != c.nodes {
			t.Errorf("%s(%d): %d nodes, want %d", c.topo, c.n, g.NumNodes(), c.nodes)
		}
	}
	if _, err := BuildGraph("moebius", 8); err == nil {
		t.Error("unknown topology accepted")
	}
	// Constructor panics surface as errors, not crashes.
	if _, err := BuildGraph("ring", 2); err == nil {
		t.Error("Ring(2) should fail")
	}
	if _, err := BuildGraph("hypercube", 25); err == nil {
		t.Error("Hypercube(25) should fail")
	}
}
