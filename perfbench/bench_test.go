package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"reflect"
	"regexp"
	"strings"
	"testing"
	"time"
)

var update = flag.Bool("update", false, "rewrite ../BENCHMARK.json from the definitions")

// benchmarkFile is BENCHMARK.json, field for field.
type benchmarkFile struct {
	Command    []string      `json:"command"`
	Paths      []string      `json:"paths"`
	RunSeconds int           `json:"run_seconds"`
	Workloads  []workloadDoc `json:"workloads"`
	EndToEnd   []metricDef   `json:"end_to_end"`
	PerLayer   []metricDef   `json:"per_layer"`
}

type workloadDoc struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

// runSeconds is how long one benchmark run measures (BENCHMARK.json run_seconds).
const runSeconds = 20

func wantBenchmarkFile() benchmarkFile {
	f := benchmarkFile{
		Command:    []string{"bash", "perfbench/run.sh"},
		Paths:      []string{"perfbench"},
		RunSeconds: runSeconds,
		EndToEnd:   endToEnd,
		PerLayer:   perLayer,
	}
	for _, w := range workloads {
		f.Workloads = append(f.Workloads, workloadDoc{w.name, w.why})
	}
	return f
}

func TestBenchmarkJSON(t *testing.T) {
	want := wantBenchmarkFile()
	if *update {
		b, err := json.MarshalIndent(want, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile("../BENCHMARK.json", append(b, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var keys map[string]json.RawMessage
	if err := json.Unmarshal(raw, &keys); err != nil {
		t.Fatal(err)
	}
	if len(keys) != 6 {
		t.Errorf("BENCHMARK.json has %d top-level keys, want 6", len(keys))
	}
	var got benchmarkFile
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&got); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("BENCHMARK.json is out of date with the definitions; run go test -run TestBenchmarkJSON -update")
	}

	if n := len(got.EndToEnd); n < 1 || n > 16 {
		t.Errorf("%d end-to-end metrics, want 1..16", n)
	}
	if n := len(got.PerLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics, want 1..128", n)
	}
	if n := len(got.Workloads); n < 2 || n > 8 {
		t.Errorf("%d workloads, want 2..8", n)
	}
	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := make(map[string]bool)
	for _, w := range got.Workloads {
		if !nameRE.MatchString(w.Name) || seen[w.Name] {
			t.Errorf("bad or repeated workload name %q", w.Name)
		}
		seen[w.Name] = true
		if len(w.Why) == 0 || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of 1..200 characters", w.Name)
		}
	}
	for _, m := range append(append([]metricDef(nil), got.EndToEnd...), got.PerLayer...) {
		if !nameRE.MatchString(m.Name) || seen[m.Name] {
			t.Errorf("bad or repeated metric name %q", m.Name)
		}
		seen[m.Name] = true
		if !unitRE.MatchString(m.Unit) {
			t.Errorf("metric %s: bad unit %q", m.Name, m.Unit)
		}
		if m.Better != "higher" && m.Better != "lower" {
			t.Errorf("metric %s: better = %q", m.Name, m.Better)
		}
	}
	for _, m := range got.EndToEnd {
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("metric %s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
	}
	if got.EndToEnd[0] != (metricDef{"setup_s", "s", "lower", 0.25}) {
		t.Errorf("the first end-to-end metric must be setup_s with the largest bound")
	}
}

// tinyRun runs one workload at test size and decodes its result line.
func tinyRun(t *testing.T, workload string, seed uint64, trace int, extra ...string) result {
	t.Helper()
	return benchRun(t, workload, seed, trace, append([]string{"--tiny"}, extra...)...)
}

// benchRun runs one workload for 0.2 s and decodes its result line.
func benchRun(t *testing.T, workload string, seed uint64, trace int, extra ...string) result {
	t.Helper()
	var stdout, stderr bytes.Buffer
	args := append([]string{"--workload", workload, "--seed", fmt.Sprint(seed), "--seconds", "0.2",
		"--trace", fmt.Sprint(trace), "--workdir", t.TempDir()}, extra...)
	if code := run(args, &stdout, &stderr); code != 0 {
		t.Fatalf("%s: exit %d\n%s", workload, code, stderr.String())
	}
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var res result
	dec := json.NewDecoder(strings.NewReader(lines[len(lines)-1]))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&res); err != nil {
		t.Fatalf("%s: result line: %v", workload, err)
	}
	return res
}

func TestTinyWorkloadsEmitEveryMetric(t *testing.T) {
	for _, w := range workloads {
		for trace, defs := range [][]metricDef{endToEnd, perLayer} {
			t.Run(fmt.Sprintf("%s/trace%d", w.name, trace), func(t *testing.T) {
				res := tinyRun(t, w.name, 1, trace)
				if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
					t.Errorf("correct=%v attempted=%d failed=%d", res.Correct, res.Attempted, res.Failed)
				}
				if len(res.Metrics) != len(defs) {
					t.Errorf("%d metrics, want %d", len(res.Metrics), len(defs))
				}
				for _, d := range defs {
					m, ok := res.Metrics[d.Name]
					if !ok || m.Unit != d.Unit {
						t.Errorf("metric %s: got %+v (present %v), want unit %s", d.Name, m, ok, d.Unit)
					}
					if trace == 0 && m.Value <= 0 {
						t.Errorf("end-to-end metric %s = %v, want > 0", d.Name, m.Value)
					}
				}
				if u := res.Metrics["trace.unattributed_frac"].Value; trace == 1 && (u < 0 || u > 1) {
					t.Errorf("trace.unattributed_frac = %v, want a share", u)
				}
			})
		}
	}
}

func TestTracedClusteredShowsWastedRingPasses(t *testing.T) {
	clustered := tinyRun(t, "ring-clustered", 1, 1).Metrics
	spread := tinyRun(t, "ring-spread", 1, 1).Metrics
	if clustered["kernel.tier_share.ring"].Value <= 0 {
		t.Errorf("ring-clustered: kernel.tier_share.ring = %v, want > 0", clustered["kernel.tier_share.ring"].Value)
	}
	if c, s := clustered["kernel.useful_node_frac"].Value, spread["kernel.useful_node_frac"].Value; !(c < s) {
		t.Errorf("kernel.useful_node_frac: clustered %v, spread %v; want clustered below spread", c, s)
	}
	for name, m := range map[string]map[string]metricValue{"clustered": clustered, "spread": spread} {
		if v := m["trace.replays_mismatched"].Value; v != 0 {
			t.Errorf("%s: %v replays disagree with the engine", name, v)
		}
	}
}

// At full size the layer spans account for every workload's traced wall
// within unattributedBound. (Tiny jobs take microseconds, so there the
// dispatch between them is a large share.)
func TestFullSizeSpansAccountForWall(t *testing.T) {
	if testing.Short() {
		t.Skip("full-size traced runs take about half a minute")
	}
	for _, w := range workloads {
		res := benchRun(t, w.name, 1, 1)
		if !res.Correct {
			t.Errorf("%s: correct=false, failed=%d", w.name, res.Failed)
		}
		if u := res.Metrics["trace.unattributed_frac"].Value; u > unattributedBound {
			t.Errorf("%s: spans leave %.4f of the traced wall unattributed, bound %v", w.name, u, unattributedBound)
		}
	}
}

func TestCorruptedRowIsCaught(t *testing.T) {
	for _, w := range []string{"ring-clustered", "service-cold-warm"} {
		res := tinyRun(t, w, 1, 0, "--corrupt")
		if res.Correct || res.Failed == 0 {
			t.Errorf("%s: a corrupted row went unnoticed: correct=%v failed=%d", w, res.Correct, res.Failed)
		}
	}
}

func TestSeedChangesInputsNotMetricSet(t *testing.T) {
	for _, gen := range []func(uint64, bool) []subSweep{clusteredSweeps, spreadSweeps} {
		a, b := gen(1, false), gen(2, false)
		for i := range a {
			if reflect.DeepEqual(a[i].spec, b[i].spec) {
				t.Errorf("sub-sweep %s: seeds 1 and 2 generate the same spec", a[i].name)
			}
		}
	}
	if iterSeed(1, 0) == iterSeed(2, 0) || iterSeed(1, 0) == iterSeed(1, 1) {
		t.Error("service iteration seeds collide")
	}
	for _, w := range []string{"ring-spread", "cluster-2w"} {
		a, b := tinyRun(t, w, 1, 0), tinyRun(t, w, 2, 0)
		if !reflect.DeepEqual(sortedKeys(a.Metrics), sortedKeys(b.Metrics)) {
			t.Errorf("%s: metric set depends on the seed", w)
		}
	}
}

func TestSelfTimes(t *testing.T) {
	ms := func(x int64) int64 { return x * int64(time.Millisecond) }
	spans := []span{
		{ID: 1, Name: "pass", Start: 0, End: ms(100)},
		{ID: 2, Parent: 1, Name: "job", Start: ms(10), End: ms(50)},
		{ID: 3, Parent: 1, Name: "job", Start: ms(40), End: ms(70)}, // overlaps span 2
		{ID: 4, Parent: 2, Name: "rowbytes", Start: ms(20), End: ms(30)},
	}
	self := selfTimes(spans)
	want := map[int]time.Duration{1: 40 * time.Millisecond, 2: 30 * time.Millisecond, 3: 30 * time.Millisecond, 4: 10 * time.Millisecond}
	if !reflect.DeepEqual(self, want) {
		t.Errorf("self times %v, want %v", self, want)
	}
	if got := unattributedFrac(spans); got != 0.4 {
		t.Errorf("unattributed fraction %v, want 0.4", got)
	}
}

// A sub-sweep span covers its whole pass, but the gaps between its layer
// spans are still unattributed.
func TestUnattributedCountsEnclosingSpans(t *testing.T) {
	ms := func(x int64) int64 { return x * int64(time.Millisecond) }
	spans := []span{
		{ID: 1, Name: "pass", Start: 0, End: ms(100)},
		{ID: 2, Parent: 1, Name: "engine.subsweep", Start: 0, End: ms(100)},
		{ID: 3, Parent: 2, Name: "engine.expand", Start: 0, End: ms(10)},
		{ID: 4, Parent: 2, Name: "engine.job", Start: ms(20), End: ms(90)},
	}
	if got := unattributedFrac(spans); got != 0.2 {
		t.Errorf("unattributed fraction %v, want 0.2", got)
	}
}

func TestResultChecksMetricSet(t *testing.T) {
	layers := []string{"trace.overhead_frac", "bench.host_scale"}
	for _, tc := range []struct {
		name    string
		traced  bool
		metrics map[string]float64
		ok      bool
	}{
		{"all end-to-end", false, map[string]float64{"setup_s": 1, "sweep_s": 1, "last_row_ms_p50": 1, "peak_rss_mb": 1}, true},
		{"end-to-end missing", false, map[string]float64{"setup_s": 1, "sweep_s": 1, "last_row_ms_p50": 1}, false},
		{"unknown key", false, map[string]float64{"setup_s": 1, "sweep_s": 1, "last_row_ms_p50": 1, "peak_rss_mb": 1, "sweep_ms": 1}, false},
		{"listed layers", true, map[string]float64{"trace.overhead_frac": 0}, true},
		{"listed layer missing", true, map[string]float64{}, false},
		{"unlisted layer", true, map[string]float64{"trace.overhead_frac": 0, "engine.sink_us": 1}, false},
		{"misspelled layer", true, map[string]float64{"trace.overhead_frac": 0, "engine.subsweep_s.nosuch": 1}, false},
	} {
		o := newOutcome(io.Discard)
		o.attempted = 1
		o.host.samples = make([][]float64, len(calibrations))
		for i, c := range calibrations {
			o.host.samples[i] = []float64{float64(c.ref)}
		}
		o.metrics = tc.metrics
		res, err := o.result(tc.traced, layers)
		if (err == nil) != tc.ok {
			t.Errorf("%s: err = %v, want ok %v", tc.name, err, tc.ok)
		}
		if err == nil && tc.traced && res.Metrics["engine.sink_us"] != (metricValue{0, "us"}) {
			t.Errorf("%s: an unlisted layer metric reads %+v, want 0 us", tc.name, res.Metrics["engine.sink_us"])
		}
	}
}

func TestTail(t *testing.T) {
	xs := make([]float64, 200)
	for i := range xs {
		xs[i] = float64(i)
	}
	if v, pct, n := tail(xs); pct != 95 || n != 200 || v != quantile(xs, 0.95) {
		t.Errorf("tail of 200 samples = %v at p%v (n=%d), want p95", v, pct, n)
	}
	if _, pct, _ := tail(xs[:15]); pct != 0 {
		t.Errorf("15 samples have no percentile with 10 beyond it, got p%v", pct)
	}
}
