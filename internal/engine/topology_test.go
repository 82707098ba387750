package engine

import (
	"bytes"
	"fmt"
	"reflect"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"

	"rotorring/internal/graph"
)

func init() {
	// Registered once at package-test init: proves a graph family plugs in
	// without any engine edits (the registry counterpart of the "beacon"
	// process in registry_test.go).
	RegisterTopology(&TopologyDef{
		Name: "wheel",
		Parse: func(params string) (string, int, error) {
			if params == "" {
				return "", 0, nil
			}
			n, err := strconv.Atoi(params)
			if err != nil || n < 4 {
				return "", 0, fmt.Errorf("wheel needs a size >= 4")
			}
			return params, n, nil
		},
		Resolve: func(_ string, n int) string { return strconv.Itoa(n) },
		Build: func(params string, n int, _ uint64) (*graph.Graph, error) {
			if params != "" {
				n, _ = strconv.Atoi(params)
			}
			// Hub 0 plus an (n-1)-cycle of rim nodes.
			b := graph.NewBuilder(n, fmt.Sprintf("wheel(%d)", n))
			for v := 1; v < n; v++ {
				if err := b.AddEdge(0, v); err != nil {
					return nil, err
				}
				next := v + 1
				if next == n {
					next = 1
				}
				if err := b.AddEdge(v, next); err != nil {
					return nil, err
				}
			}
			return b.Build()
		},
	})
	RegisterTopology(countedDef)
	// A misregistered axis-capable family without Resolve: sweeps over it
	// must fail spec validation, not panic in expand.
	RegisterTopology(&TopologyDef{
		Name:  "noresolve",
		Parse: func(string) (string, int, error) { return "", 0, nil },
		Build: func(_ string, n int, _ uint64) (*graph.Graph, error) { return graph.Ring(n), nil },
	})
}

// countedDef counts graph builds, for the cache's build-once guarantee.
var (
	countedBuilds atomic.Int64
	countedDef    = &TopologyDef{
		Name:   "counted",
		Seeded: true, // exercise the seeded cache path too
		Parse: func(params string) (string, int, error) {
			if params != "" {
				return "", 0, fmt.Errorf("counted takes no parameters")
			}
			return "", 0, nil
		},
		Resolve: func(_ string, n int) string { return strconv.Itoa(n) },
		Build: func(_ string, n int, _ uint64) (*graph.Graph, error) {
			countedBuilds.Add(1)
			return graph.Ring(n), nil
		},
	}
)

// TestParseTopoRoundTrip: the table of spec spellings, their canonical
// forms and implied sizes; canonical forms re-parse to themselves.
func TestParseTopoRoundTrip(t *testing.T) {
	cases := []struct {
		in        string
		canonical string
		size      int // implied size; 0 = axis-sized
	}{
		{"ring", "ring", 0},
		{" RING ", "ring", 0},
		{"ring:1024", "ring:1024", 1024},
		{"path:16", "path:16", 16},
		{"grid", "grid", 0},
		{"grid:5", "grid:5x5", 25},
		{"Grid:64x32", "grid:64x32", 2048},
		{"torus:128x8", "torus:128x8", 1024},
		{"complete:8", "complete:8", 8},
		{"star:9", "star:9", 9},
		{"hypercube:4", "hypercube:4", 4},
		{"btree:3", "btree:3", 3},
		{"rr:3", "rr:3", 0},
		{"rr:3x64", "rr:3x64", 64},
		{"lollipop:8x4", "lollipop:8x4", 12},
		{"shuffled:grid:8x4", "shuffled:grid:8x4", 32},
		{"shuffled:torus", "shuffled:torus", 0},
		{"shuffled:rr:4", "shuffled:rr:4", 0},
	}
	for _, c := range cases {
		inst, err := parseTopo(c.in)
		if err != nil {
			t.Errorf("ParseTopo(%q): %v", c.in, err)
			continue
		}
		if inst.canonical != c.canonical || inst.size != c.size {
			t.Errorf("ParseTopo(%q) = (%q, %d), want (%q, %d)",
				c.in, inst.canonical, inst.size, c.canonical, c.size)
		}
		// The canonical form is a fixed point of parsing.
		again, err := ParseTopo(inst.canonical)
		if err != nil || string(again) != inst.canonical {
			t.Errorf("canonical %q does not round-trip: (%q, %v)", inst.canonical, again, err)
		}
	}

	bad := []string{
		"", "moebius", "ring:2", "ring:0", "ring:axb", "ring:3x3",
		"grid:0x5", "grid:1x1", "torus:2x8", "grid:2x", "hypercube:25",
		"rr", "rr:1", "rr:3x3", "rr:3x9", "lollipop", "lollipop:1x4",
		"shuffled", "shuffled:", "shuffled:moebius", "shuffled:rr:1",
		// Implied-size arithmetic must not overflow past fail-fast
		// validation: out-of-range parameters are parse errors.
		"grid:8589934592x2147483649", "grid:65536x65536",
		"lollipop:9223372036854775807x9223372036854775807",
		"ring:9223372036854775807",
	}
	for _, s := range bad {
		if _, err := ParseTopo(s); err == nil {
			t.Errorf("ParseTopo(%q): bad spec accepted", s)
		}
	}
}

// TestResolvedSpecRoundTrip: the resolved instance spec of any axis-sized
// cell re-parses to a self-sized spec of the same instance.
func TestResolvedSpecRoundTrip(t *testing.T) {
	for _, c := range []struct {
		spec string
		n    int
	}{
		{"ring", 64}, {"path", 16}, {"grid", 8}, {"torus", 5},
		{"complete", 8}, {"star", 9}, {"hypercube", 4}, {"btree", 3},
		{"rr:3", 64}, {"shuffled:grid", 8}, {"shuffled:rr:3", 64},
		{"wheel", 12},
	} {
		inst, err := parseTopo(c.spec)
		if err != nil {
			t.Fatalf("%s: %v", c.spec, err)
		}
		resolved := inst.resolved(c.n)
		rInst, err := parseTopo(resolved)
		if err != nil {
			t.Errorf("%s at n=%d: resolved %q does not parse: %v", c.spec, c.n, resolved, err)
			continue
		}
		if rInst.size == 0 {
			t.Errorf("%s at n=%d: resolved %q is not self-sized", c.spec, c.n, resolved)
		}
		if rInst.resolved(0) != resolved {
			t.Errorf("resolved %q is not a fixed point (got %q)", resolved, rInst.resolved(0))
		}
		// Both spellings build the same graph shape (and, for seeded
		// families, the identical graph: GraphSeed hashes the resolved
		// spec).
		s1, err := GraphSeed(7, Topo(c.spec), c.n)
		if err != nil {
			t.Fatal(err)
		}
		s2, err := GraphSeed(7, Topo(resolved), 0)
		if err != nil {
			t.Fatal(err)
		}
		if s1 != s2 {
			t.Errorf("%s: GraphSeed differs between spellings", c.spec)
		}
		g1, err := BuildTopo(Topo(c.spec), c.n, s1)
		if err != nil {
			t.Fatalf("%s: %v", c.spec, err)
		}
		g2, err := BuildTopo(Topo(resolved), 0, s2)
		if err != nil {
			t.Fatalf("%s: %v", resolved, err)
		}
		if g1.NumNodes() != g2.NumNodes() || g1.NumEdges() != g2.NumEdges() ||
			g1.MaxDegree() != g2.MaxDegree() {
			t.Errorf("%s vs %s: different graphs (%d/%d nodes, %d/%d edges)",
				c.spec, resolved, g1.NumNodes(), g2.NumNodes(), g1.NumEdges(), g2.NumEdges())
		}
	}
}

// FuzzParseTopo: whatever the input, a successful parse returns a
// canonical form that re-parses to itself with the same implied size, and
// parsing never panics.
func FuzzParseTopo(f *testing.F) {
	for _, s := range []string{
		"ring", "ring:1024", "grid:64x32", "torus:128x8", "rr:3",
		"shuffled:grid:8x4", "lollipop:8x4", "  Grid : 5 ", "rr:3x64",
		"moebius", "ring:-1", "grid:999999999999x2", ":::", "shuffled:shuffled:ring",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		inst, err := parseTopo(s)
		if err != nil {
			return
		}
		again, err := parseTopo(inst.canonical)
		if err != nil {
			t.Fatalf("canonical %q of %q does not re-parse: %v", inst.canonical, s, err)
		}
		if again.canonical != inst.canonical || again.size != inst.size {
			t.Fatalf("canonical %q is not a fixed point: (%q, %d) vs (%q, %d)",
				inst.canonical, again.canonical, again.size, inst.canonical, inst.size)
		}
	})
}

// TestRegistryCustomTopology: a sweep runs a graph family the engine has
// never heard of, by spec string, with correct per-row graph metadata.
func TestRegistryCustomTopology(t *testing.T) {
	rows, err := New(Workers(2)).Run(SweepSpec{
		Topologies: []Topo{"wheel", "wheel:8"},
		Sizes:      []int{6},
		Agents:     []int{2},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("got %d rows, want 2", len(rows))
	}
	for i, want := range []struct{ n, edges, maxDeg int }{
		{6, 10, 5}, // wheel(6): hub degree 5, 2(n-1) edges
		{8, 14, 7},
	} {
		r := rows[i]
		if r.Err != "" {
			t.Fatalf("row %d failed: %s", i, r.Err)
		}
		if r.N != want.n || r.Edges != want.edges || r.MaxDegree != want.maxDeg {
			t.Errorf("row %d: n=%d edges=%d maxDeg=%d, want %+v", i, r.N, r.Edges, r.MaxDegree, want)
		}
		if r.Value <= 0 {
			t.Errorf("row %d: no cover time measured", i)
		}
	}
	if rows[0].Spec != "wheel:6" || rows[1].Spec != "wheel:8" {
		t.Errorf("resolved specs: %q, %q", rows[0].Spec, rows[1].Spec)
	}
}

// TestGraphCacheBuildsOnce: under 8 workers, a sweep builds each
// (topology, size, seed) instance exactly once, however many cells and
// replicas share it.
func TestGraphCacheBuildsOnce(t *testing.T) {
	countedBuilds.Store(0)
	rows, err := New(Workers(8)).Run(SweepSpec{
		Topologies: []Topo{"counted"},
		Sizes:      []int{16, 24},
		Agents:     []int{1, 2, 4},
		Placements: []Placement{PlaceSingle, PlaceEqual},
		Replicas:   4,
		Seed:       3,
	})
	if err != nil {
		t.Fatal(err)
	}
	if want := 2 * 3 * 2 * 4; len(rows) != want {
		t.Fatalf("got %d rows, want %d", len(rows), want)
	}
	for _, r := range rows {
		if r.Err != "" {
			t.Fatalf("row failed: %s", r.Err)
		}
	}
	if got := countedBuilds.Load(); got != 2 { // one per size
		t.Errorf("graph built %d times, want 2 (once per (topology, size, seed))", got)
	}
}

// mixedSpec is the acceptance sweep: a heterogeneous topology grid
// including a seeded family, streamed as one sweep.
func mixedSpec() SweepSpec {
	return SweepSpec{
		Topologies: []Topo{"ring", "grid:64x32", "torus:128x8", "rr:3"},
		Sizes:      []int{64},
		Agents:     []int{2, 4},
		Placements: []Placement{PlaceEqual, PlaceRandom},
		Replicas:   2,
		Seed:       11,
	}
}

// TestMixedTopologySweepDeterministic: the acceptance criterion — one
// sweep over ring, grid:64x32, torus:128x8 and rr:3 streams byte-identical
// JSONL at 1 and 8 workers, and the seeded rr:3 rows are reproducible from
// the sweep seed alone.
func TestMixedTopologySweepDeterministic(t *testing.T) {
	spec := mixedSpec()
	var a, b, c bytes.Buffer
	if _, err := New(Workers(1)).Run(spec, NewJSONLSink(&a)); err != nil {
		t.Fatal(err)
	}
	if _, err := New(Workers(8)).Run(spec, NewJSONLSink(&b)); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Error("mixed-topology JSONL differs between 1 and 8 workers")
	}
	// A fresh engine reproduces the rr:3 rows from the seed: nothing about
	// the random-regular graph leaks in from prior runs or worker caches.
	if _, err := New(Workers(3)).Run(spec, NewJSONLSink(&c)); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), c.Bytes()) {
		t.Error("mixed-topology JSONL not reproducible across engines")
	}

	rows, err := New(Workers(4)).Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	// 3 axis-sized-or-self-sized topologies x 1 size each + ring x 1 size,
	// times 2 agents x 2 placements x 2 replicas.
	if want := 4 * 2 * 2 * 2; len(rows) != want {
		t.Fatalf("got %d rows, want %d", len(rows), want)
	}
	bySpec := map[string]int{}
	for _, r := range rows {
		if r.Err != "" {
			t.Fatalf("row %s n=%d failed: %s", r.Topology, r.N, r.Err)
		}
		if r.Edges == 0 || r.MaxDegree == 0 {
			t.Errorf("row %s missing graph metadata: %+v", r.Topology, r.Cell)
		}
		bySpec[r.Spec]++
	}
	for _, want := range []string{"ring:64", "grid:64x32", "torus:128x8", "rr:3x64"} {
		if bySpec[want] != 8 {
			t.Errorf("resolved spec %q on %d rows, want 8 (have: %v)", want, bySpec[want], bySpec)
		}
	}

	// Changing the sweep seed resamples the rr graph (different cover
	// times somewhere), proving the graph really derives from the seed.
	reseeded := spec
	reseeded.Seed = 12
	rows2, err := New(Workers(4)).Run(reseeded)
	if err != nil {
		t.Fatal(err)
	}
	same := true
	for i := range rows {
		if rows[i].Spec == "rr:3x64" && rows[i].Value != rows2[i].Value {
			same = false
		}
	}
	if same {
		t.Error("rr:3 rows identical under a different sweep seed; graph seed unused")
	}
}

// TestTopologySizesSeedCompat: an axis-sized family swept over Sizes keeps
// the pre-registry seed derivation, which hashes the family string ("grid",
// not the resolved "grid:6x6"), so outputs from before the topology
// registry remain reproducible.
func TestTopologySizesSeedCompat(t *testing.T) {
	rows, err := New(Workers(2)).Run(SweepSpec{
		Topologies: []Topo{"grid"},
		Sizes:      []int{6, 8},
		Agents:     []int{2},
		Placements: []Placement{PlaceRandom},
		Pointers:   []Pointer{PtrRandom},
		Replicas:   2,
		Seed:       5,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 {
		t.Fatalf("got %d rows, want 4", len(rows))
	}
	for _, r := range rows {
		want := DeriveSeed(5, hashString("grid"), uint64(r.N), uint64(r.K),
			uint64(r.Cell.Placement), uint64(r.Cell.Pointer), uint64(r.Replica))
		if r.Seed != want {
			t.Errorf("cell n=%d replica %d: seed %d, want pre-registry %d", r.N, r.Replica, r.Seed, want)
		}
	}
}

// TestSelfSizedOnlySweep: a sweep whose topologies are all self-sized
// needs no Sizes at all.
func TestSelfSizedOnlySweep(t *testing.T) {
	rows, err := New(Workers(2)).Run(SweepSpec{
		Topologies: []Topo{"grid:8x4", "lollipop:6x5"},
		Agents:     []int{2},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("got %d rows, want 2", len(rows))
	}
	if rows[0].N != 32 || rows[1].N != 11 {
		t.Errorf("implied sizes (%d, %d), want (32, 11)", rows[0].N, rows[1].N)
	}
	for _, r := range rows {
		if r.Err != "" {
			t.Fatalf("row failed: %s", r.Err)
		}
	}
	// Axis-sized topologies without sizes still fail up front.
	if _, err := New().Run(SweepSpec{
		Topologies: []Topo{"grid:8x4", "ring"},
		Agents:     []int{2},
	}); err == nil || !strings.Contains(err.Error(), "size") {
		t.Errorf("axis-sized topology without sizes accepted: %v", err)
	}
}

// TestShuffledTopologySweep: the shuffled wrapper family runs end to end
// and actually permutes ports (a shuffled star's hub still has max degree
// n-1, but a shuffled torus cell covers like a torus — here we just pin
// determinism and metadata).
func TestShuffledTopologySweep(t *testing.T) {
	spec := SweepSpec{
		Topologies: []Topo{"shuffled:torus:8x8", "torus:8x8"},
		Agents:     []int{4},
		Replicas:   1,
		Seed:       9,
	}
	rows, err := New(Workers(2)).Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("got %d rows, want 2", len(rows))
	}
	for _, r := range rows {
		if r.Err != "" {
			t.Fatalf("%s failed: %s", r.Topology, r.Err)
		}
		if r.Edges != 128 || r.MaxDegree != 4 {
			t.Errorf("%s: edges=%d maxDeg=%d, want 128/4", r.Topology, r.Edges, r.MaxDegree)
		}
	}
	rows2, err := New(Workers(7)).Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(rows, rows2) {
		t.Error("shuffled sweep not deterministic across worker counts")
	}
}

// TestBadTopologySpecsFailFast: malformed specs fail spec validation
// before any worker starts — never as per-job error rows.
func TestBadTopologySpecsFailFast(t *testing.T) {
	for _, topos := range [][]Topo{
		{"moebius"},
		{"ring", "grid:0x5"},
		{"rr"},
		{"rr:1"},
		{"ring:2"},
		{"shuffled:moebius"},
		{"noresolve"}, // axis-sized family registered without Resolve
	} {
		_, err := New().Run(SweepSpec{Topologies: topos, Sizes: []int{8}, Agents: []int{1}})
		if err == nil {
			t.Errorf("Topologies %v accepted", topos)
		}
	}
}
