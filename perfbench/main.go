// Command perfbench is the repository's end-to-end and per-layer
// benchmark. It drives the paths users run — library sweeps, the rotord
// HTTP service, and a coordinator with cluster workers — from one process,
// checks every row it receives, and prints one JSON result line:
//
//	perfbench --workload ring-clustered --seed 1 --seconds 20 --trace 0
//
// With --trace 0 the result holds the end-to-end metrics, measured with
// tracing off. With --trace 1 it holds the per-layer metrics of a traced
// run, and the spans are written as JSONL to the work directory.
// BENCHMARK.json at the repository root lists the workloads and metrics;
// perfbench/METRICS.md explains them.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"
)

// config is one run's settings, all from the command line.
type config struct {
	seed    uint64
	seconds float64
	trace   bool
	tiny    bool      // test-sized inputs
	corrupt bool      // self-test: corrupt one received row before checking
	workdir string    // scratch spools and span dumps
	log     io.Writer // progress notes and failed checks (standard error)
}

// outcome is what a workload reports: metric values by name plus the
// operation counts behind the result's attempted and failed fields.
type outcome struct {
	metrics   map[string]float64
	attempted int
	failed    int
	spans     *tracer
	host      hostSpeed
	setups    setupTimer
	log       io.Writer // progress notes and failed checks
}

func newOutcome(log io.Writer) *outcome {
	return &outcome{metrics: make(map[string]float64), log: log}
}

// fail records a failed operation and logs its reason.
func (o *outcome) fail(format string, args ...any) {
	o.failed++
	fmt.Fprintf(o.log, "perfbench: check failed: "+format+"\n", args...)
}

type workload struct {
	name   string
	why    string
	run    func(cfg config) (*outcome, error)
	layers []string // the per-layer metrics its traced run measures
}

var workloads = []workload{
	{"ring-clustered", "all agents start on one node: the generic engine does the sparse cells, the ring tier is picked for the dense ones and pays O(n) per round",
		runClustered, libraryLayerSet(clusteredSweeps(1, false))},
	{"ring-spread", "dense spread populations: ring, held and randwalk counts tiers do the work; patrol cells run generic; control for clustered-start fixes",
		runSpread, libraryLayerSet(spreadSweeps(1, false))},
	{"service-cold-warm", "in-process rotord, 1 closed-loop HTTP client, tiny jobs: spool appends, row cache writes then reads, JSON and HTTP streaming dominate",
		runServiceColdWarm, concat(tracedLayers, serviceLayerSet, warmLayers)},
	{"cluster-2w", "rotord with two in-process cluster workers and 1 closed-loop client: lease long-polls, batch flushes and re-sequencing run only here",
		runCluster, concat(tracedLayers, serviceLayerSet, clusterLayers)},
}

func lookup(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload name")
	seed := fs.Uint64("seed", 1, "seed of the generated inputs")
	seconds := fs.Float64("seconds", 10, "length of the timed region")
	trace := fs.Int("trace", 0, "0: end-to-end metrics, untraced; 1: per-layer metrics from a traced run")
	workdir := fs.String("workdir", ".perfbench", "directory for scratch spools and span dumps")
	tiny := fs.Bool("tiny", false, "test-sized inputs")
	corrupt := fs.Bool("corrupt", false, "self-test: corrupt one received row, which the checks must catch")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := lookup(*name)
	if !ok || (*trace != 0 && *trace != 1) || *seconds <= 0 {
		fmt.Fprintf(stderr, "perfbench: want --workload %s, --trace 0|1, --seconds > 0\n", strings.Join(workloadNames(), "|"))
		return 2
	}
	if err := os.MkdirAll(*workdir, 0o755); err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	// rotord logs operational events (worker registrations) through the
	// standard logger; keep them out of the result stream.
	logFile, err := os.Create(filepath.Join(*workdir, "rotord.log"))
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	defer logFile.Close()
	log.SetOutput(logFile)
	defer log.SetOutput(os.Stderr)

	cfg := config{seed: *seed, seconds: *seconds, trace: *trace == 1, tiny: *tiny, corrupt: *corrupt, workdir: *workdir, log: stderr}
	env := environment(cfg.workdir)
	if b, err := json.Marshal(env); err == nil {
		fmt.Fprintf(stderr, "perfbench: env %s\n", b)
	}
	if env.Starved {
		fmt.Fprintf(stderr, "perfbench: STARVED: GOMAXPROCS=%d < 2; the engine and service pools run 2 workers\n", env.GOMAXPROCS)
	}
	out, err := w.run(cfg)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", w.name, err)
		return 1
	}
	if out.spans != nil {
		path := filepath.Join(cfg.workdir, fmt.Sprintf("spans-%s-%d.jsonl", w.name, cfg.seed))
		header := map[string]any{"workload": w.name, "seed": cfg.seed, "env": env, "self_ms": selfByName(out.spans.snapshot())}
		if err := out.spans.dump(path, header); err != nil {
			fmt.Fprintf(stderr, "perfbench: %v\n", err)
			return 1
		}
		fmt.Fprintf(stderr, "perfbench: spans written to %s\n", path)
	}
	res, err := out.result(cfg.trace, w.layers)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", w.name, err)
		return 1
	}
	for _, k := range sortedKeys(res.Metrics) {
		fmt.Fprintf(stderr, "%s %s = %.6g %s\n", w.name, k, res.Metrics[k].Value, res.Metrics[k].Unit)
	}
	b, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", b)
	return 0
}

// result selects the metric set of the run's mode and scales its times
// and rates to reference-host speed (calib.go). Every end-to-end metric
// must have been measured, and in a traced run every metric of layers; a
// per-layer metric the workload does not list reads 0. A measured metric
// that BENCHMARK.json does not define, or a per-layer one the workload
// does not list, is an error.
func (o *outcome) result(traced bool, layers []string) (result, error) {
	o.metrics["bench.host_scale"] = o.host.scale()
	fmt.Fprintf(o.log, "perfbench: host scale %.4f from %d calibrations\n", o.metrics["bench.host_scale"], len(o.host.samples[0]))
	if xs := o.setups.xs; len(xs) > 0 {
		fmt.Fprintf(o.log, "perfbench: %d set-ups, raw ms p10 %.3f p25 %.3f p50 %.3f p75 %.3f p90 %.3f\n", len(xs),
			quantile(xs, 0.1)*1e3, quantile(xs, 0.25)*1e3, quantile(xs, 0.5)*1e3, quantile(xs, 0.75)*1e3, quantile(xs, 0.9)*1e3)
	}
	defs, required := endToEnd, map[string]bool{}
	for _, d := range endToEnd {
		required[d.Name] = true
	}
	listed := make(map[string]bool, len(layers))
	for _, name := range layers {
		listed[name] = true
	}
	if traced {
		defs, required = perLayer, listed
	}
	defined := make(map[string]bool)
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		defined[d.Name] = true
	}
	for _, name := range sortedKeys(o.metrics) {
		if !defined[name] {
			return result{}, fmt.Errorf("measured metric %s is not defined", name)
		}
	}
	for _, name := range sortedKeys(required) {
		if _, ok := o.metrics[name]; !ok {
			return result{}, fmt.Errorf("metric %s was not measured", name)
		}
	}
	res := result{Correct: o.failed == 0, Attempted: o.attempted, Failed: o.failed, Metrics: make(map[string]metricValue, len(defs))}
	for _, d := range defs {
		v, ok := o.metrics[d.Name]
		if ok && traced && !listed[d.Name] {
			return result{}, fmt.Errorf("metric %s was measured but is not listed for the workload", d.Name)
		}
		switch d.Unit { // times and rates at reference-host speed
		case "s", "ms", "us":
			v *= o.metrics["bench.host_scale"]
		case "1/s":
			v /= o.metrics["bench.host_scale"]
		}
		res.Metrics[d.Name] = metricValue{Value: v, Unit: d.Unit}
	}
	if res.Attempted < 1 {
		return result{}, fmt.Errorf("no operation was attempted")
	}
	return res, nil
}

func workloadNames() []string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return names
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// selfByName sums span self time by span name, in milliseconds.
func selfByName(spans []span) map[string]float64 {
	self := selfTimes(spans)
	out := make(map[string]float64)
	for _, s := range spans {
		out[s.Name] += float64(self[s.ID]) / 1e6
	}
	return out
}

// deadline is the end of a timed region that starts now.
func deadline(cfg config) time.Time {
	return time.Now().Add(time.Duration(cfg.seconds * float64(time.Second)))
}
