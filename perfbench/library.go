package main

import (
	"bytes"
	"fmt"
	"hash/fnv"
	"runtime"
	"time"

	"rotorring"
	"rotorring/internal/engine"
	"rotorring/specjson"
)

// subSweep is one sweep of a library workload's fixed list; a pass runs
// the whole list once.
type subSweep struct {
	name string // the engine.subsweep_s.<name> metric
	spec rotorring.SweepSpec
	es   engine.SweepSpec // the same spec in engine form
}

// engineWorkers is the pool size of every library sweep.
const engineWorkers = 2

var (
	single  = []rotorring.PlacementPolicy{rotorring.PlaceSingleNode}
	random  = []rotorring.PlacementPolicy{rotorring.PlaceRandom}
	spread  = []rotorring.PlacementPolicy{rotorring.PlaceEqualSpacing, rotorring.PlaceRandom}
	zeroNeg = []rotorring.PointerPolicy{rotorring.PointerZero, rotorring.PointerNegative}
)

// clusteredSweeps is the paper's worst-case start: all k agents on node 0.
// The dense sub-sweep, where the ring tier is picked, comes first, so the
// first-row latency is that of a ring-tier job.
func clusteredSweeps(seed uint64, tiny bool) []subSweep {
	sparseN, sparseK := []int{512, 1024}, []int{8, 64, 256, 512}
	denseN, denseK := []int{4096, 8192}, []int{512, 2048}
	if tiny {
		sparseN, sparseK, denseN, denseK = []int{64}, []int{2, 16}, []int{256}, []int{64}
	}
	return mustSubSweeps(
		subSweep{name: "clustered_dense", spec: rotorring.SweepSpec{
			Sizes: denseN, Agents: denseK, Placements: single,
			Pointers: []rotorring.PointerPolicy{rotorring.PointerZero}, Seed: seed + 1}},
		subSweep{name: "clustered_sparse", spec: rotorring.SweepSpec{
			Sizes: sparseN, Agents: sparseK, Placements: single, Pointers: zeroNeg, Seed: seed}},
	)
}

// spreadSweeps are dense populations spread over the ring. The patrol
// sub-sweep comes first: its jobs are long enough that the first row
// measures stepping rather than sweep start-up.
func spreadSweeps(seed uint64, tiny bool) []subSweep {
	n, k, delayK := []int{8192, 16384}, []int{2048, 4096, 8192}, []int{2048, 8192}
	patrolRing, patrolK := "ring:4096", []int{256, 512}
	walkN, walkK := []int{8192, 32768}, []int{32768, 131072}
	if tiny {
		n, k, delayK = []int{128}, []int{32, 64}, []int{32}
		patrolRing, patrolK = "ring:128", []int{16}
		walkN, walkK = []int{64}, []int{256}
	}
	return mustSubSweeps(
		subSweep{name: "spread_patrol", spec: rotorring.SweepSpec{
			Topologies: []rotorring.Topo{rotorring.Topo(patrolRing)}, Agents: patrolK, Placements: random,
			Pointers: []rotorring.PointerPolicy{rotorring.PointerRandom},
			Missions: []rotorring.Mission{"patrol:horizon=4096"}, Replicas: 4, Seed: seed + 2}},
		subSweep{name: "spread_dense", spec: rotorring.SweepSpec{
			Sizes: n, Agents: k, Placements: spread,
			Pointers: []rotorring.PointerPolicy{rotorring.PointerNegative, rotorring.PointerRandom},
			Replicas: 2, Seed: seed}},
		subSweep{name: "spread_delay", spec: rotorring.SweepSpec{
			Sizes: n, Agents: delayK, Placements: random,
			Pointers:  []rotorring.PointerPolicy{rotorring.PointerRandom},
			Schedules: []rotorring.Schedule{"delay:p=0.25"}, Replicas: 2, Seed: seed + 1}},
		subSweep{name: "spread_walk", spec: rotorring.SweepSpec{
			Process: "walk", Sizes: walkN, Agents: walkK, Placements: random, Replicas: 4, Seed: seed + 3}},
	)
}

// mustSubSweeps fills in the engine form of each spec through the wire
// codec, the same lowering the service applies. The specs are fixed in
// this file, so a failure is a bug.
func mustSubSweeps(subs ...subSweep) []subSweep {
	for i := range subs {
		es, err := engineSpecOf(subs[i].spec)
		if err != nil {
			panic(fmt.Sprintf("sub-sweep %s: %v", subs[i].name, err))
		}
		subs[i].es = es
	}
	return subs
}

func engineSpecOf(spec rotorring.SweepSpec) (engine.SweepSpec, error) {
	wire, err := specjson.Encode(spec)
	if err != nil {
		return engine.SweepSpec{}, err
	}
	return engine.DecodeWireSpec(wire)
}

// rowSink receives the JSONL sink's output, one row per Write, and notes
// when the first and last rows arrived.
type rowSink struct {
	start       time.Time
	first, last time.Duration
	hashes      []uint64
	rows        [][]byte // kept only when keep is set
	keep        bool
}

func (s *rowSink) Write(p []byte) (int, error) {
	now := time.Since(s.start)
	if len(s.hashes) == 0 {
		s.first = now
	}
	s.last = now
	s.hashes = append(s.hashes, rowHash(p))
	if s.keep {
		s.rows = append(s.rows, append([]byte(nil), p...))
	}
	return len(p), nil
}

func rowHash(b []byte) uint64 {
	h := fnv.New64a()
	h.Write(b)
	return h.Sum64()
}

// sweepRun is one sub-sweep's outcome within a pass.
type sweepRun struct {
	wall time.Duration
	sink *rowSink
	jobs []jobStat // traced passes only
}

// runLibrarySweep runs one sub-sweep through the public library path,
// streaming rows into a JSONL sink.
func runLibrarySweep(spec rotorring.SweepSpec, keep bool) (sweepRun, error) {
	sink := &rowSink{start: time.Now(), keep: keep}
	err := spec.WriteJSONL(sink, engineWorkers)
	return sweepRun{wall: time.Since(sink.start), sink: sink}, err
}

// libraryPass runs every sub-sweep once, untraced, and returns their runs.
func libraryPass(subs []subSweep, keep bool) ([]sweepRun, time.Duration, error) {
	start := time.Now()
	runs := make([]sweepRun, len(subs))
	for i, s := range subs {
		r, err := runLibrarySweep(s.spec, keep)
		if err != nil {
			return nil, 0, fmt.Errorf("sweep %s: %w", s.name, err)
		}
		runs[i] = r
	}
	return runs, time.Since(start), nil
}

// librarySetup is the work before a library sweep's first job: validate
// and expand every sub-sweep and build each distinct graph.
func librarySetup(subs []subSweep) error {
	for _, s := range subs {
		exp, err := engine.Expand(s.es)
		if err != nil {
			return err
		}
		built := make(map[string]bool)
		for j := 0; j < exp.NumJobs(); j += exp.Replicas() {
			c, _ := exp.Job(j)
			if key := fmt.Sprintf("%s/%d", c.Topology, c.N); !built[key] {
				built[key] = true
				if _, err := engine.BuildTopo(engine.Topo(c.Topology), c.N, 0); err != nil {
					return err
				}
			}
		}
	}
	return nil
}

// setupEvery is the least time between two bursts of timed set-ups. A run
// times setupBurst set-ups back to back between passes, on a collected
// heap, so that the samples span the run rather than its first
// milliseconds; setup_s is their median.
const (
	setupEvery = 250 * time.Millisecond
	setupBurst = 4
)

// setupTimer collects a run's set-up times.
type setupTimer struct {
	xs   []float64
	last time.Time
}

// time runs setup once and records how long it took.
func (st *setupTimer) time(setup func() error) error {
	start := time.Now()
	if err := setup(); err != nil {
		return fmt.Errorf("setup: %w", err)
	}
	st.last = time.Now()
	st.xs = append(st.xs, st.last.Sub(start).Seconds())
	return nil
}

// burst calls setup, which times itself through st.time, setupBurst times
// if the last set-up is at least setupEvery old.
func (st *setupTimer) burst(setup func() error) error {
	if time.Since(st.last) < setupEvery {
		return nil
	}
	for i := 0; i < setupBurst; i++ {
		if err := setup(); err != nil {
			return err
		}
	}
	return nil
}

// libraryRSSPasses is how many timed passes a library run makes before it
// reads its peak resident set (see rssAfter).
const libraryRSSPasses = 8

// rssAfter reads the peak resident set once a run has made passes timed
// passes, or at its end if it makes fewer, so that the reading covers the
// same work whatever the host's speed. (rotord keeps every sweep it ran,
// so its memory grows with the number of passes.)
type rssAfter struct {
	passes int
	mib    float64
	read   bool
}

// pass notes that made timed passes are done.
func (r *rssAfter) pass(made int) error {
	if r.read || made < r.passes {
		return nil
	}
	var err error
	r.mib, err = peakRSSMiB()
	r.read = true
	return err
}

// value is the reading, taken now if no pass took it.
func (r *rssAfter) value() (float64, error) {
	if r.read {
		return r.mib, nil
	}
	return peakRSSMiB()
}

func runClustered(cfg config) (*outcome, error) {
	return runLibrary(cfg, clusteredSweeps(cfg.seed, cfg.tiny))
}

func runSpread(cfg config) (*outcome, error) {
	return runLibrary(cfg, spreadSweeps(cfg.seed, cfg.tiny))
}

// runLibrary measures a library workload: one warm-up pass whose rows are
// checked in full, then passes until the deadline, each compared row by
// row with the warm-up pass and preceded by a timed set-up.
func runLibrary(cfg config, subs []subSweep) (*outcome, error) {
	out := newOutcome(cfg.log)
	out.host.sample()
	setup := func() error { return out.setups.time(func() error { return librarySetup(subs) }) }
	ref, _, err := libraryPass(subs, true)
	if err != nil {
		return nil, err
	}
	if cfg.corrupt {
		corruptRow(ref[0].sink.rows)
	}

	if cfg.trace {
		err = traceLibrary(cfg, subs, ref, setup, out)
	} else {
		err = timeLibrary(cfg, subs, ref, setup, out)
	}
	if err != nil {
		return nil, err
	}
	out.metrics["setup_s"] = median(out.setups.xs)
	return out, checkLibrary(subs, ref, out)
}

// timeLibrary runs untraced passes until the deadline.
func timeLibrary(cfg config, subs []subSweep, ref []sweepRun, setup func() error, out *outcome) error {
	var walls, lasts []float64
	rows := 0
	rss := rssAfter{passes: libraryRSSPasses}
	end := deadline(cfg)
	for len(walls) == 0 || time.Now().Before(end) {
		runtime.GC() // each pass starts on a collected heap, as a fresh rotorsim process does
		if err := out.setups.burst(setup); err != nil {
			return err
		}
		out.host.sample()
		runs, wall, err := libraryPass(subs, false)
		if err != nil {
			return err
		}
		walls = append(walls, wall.Seconds())
		lasts = append(lasts, float64(runs[0].sink.last)/1e6)
		for i, r := range runs {
			rows += len(r.sink.hashes)
			compareHashes(subs[i].name, ref[i].sink.hashes, r.sink.hashes, out)
		}
		if err := rss.pass(len(walls)); err != nil {
			return err
		}
	}
	peak, err := rss.value()
	if err != nil {
		return err
	}
	out.metrics["sweep_s"] = median(walls)
	out.metrics["last_row_ms_p50"] = median(lasts)
	out.metrics["peak_rss_mb"] = peak
	fmt.Fprintf(out.log, "perfbench: %d passes, %d rows in %.2fs\n", len(walls), rows, sum(walls))
	return nil
}

// compareHashes counts every row of a timed pass as one attempted
// operation and each row that differs from the checked reference pass as
// a failed one.
func compareHashes(name string, want, got []uint64, out *outcome) {
	out.attempted += len(got)
	if len(got) != len(want) {
		out.fail("%s: %d rows, want %d", name, len(got), len(want))
		return
	}
	for i := range got {
		if got[i] != want[i] {
			out.fail("%s: row %d differs from the checked pass", name, i)
		}
	}
}

// checkLibrary checks the reference pass outside the timed region. Every
// row must be error-free; rotor rows must equal, byte for byte, the rows
// of the same spec on the generic tier; walk rows must repeat exactly in a
// second run with the same seed.
func checkLibrary(subs []subSweep, ref []sweepRun, out *outcome) error {
	for i, s := range subs {
		want := s.spec
		what := "generic tier"
		if s.spec.Process == "walk" {
			what = "rerun"
		} else {
			want.Kernel = rotorring.KernelGeneric
		}
		again, err := runLibrarySweep(want, true)
		if err != nil {
			return fmt.Errorf("check %s: %w", s.name, err)
		}
		out.attempted += len(ref[i].sink.rows)
		checkRows(s.name+" vs "+what, ref[i].sink.rows, again.sink.rows, out)
	}
	return nil
}

// checkRows compares two row streams and flags error rows in got.
func checkRows(what string, got, want [][]byte, out *outcome) {
	if len(got) != len(want) {
		out.fail("%s: %d rows, want %d", what, len(got), len(want))
		return
	}
	for i := range got {
		if !bytes.Equal(got[i], want[i]) {
			out.fail("%s: row %d differs:\n  got  %s  want %s", what, i, got[i], want[i])
			continue
		}
		checkRow(fmt.Sprintf("%s row %d", what, i), got[i], out)
	}
}

// checkRow decodes one row and fails it if it does not decode or is an
// error row.
func checkRow(what string, b []byte, out *outcome) engine.Row {
	r, err := engine.DecodeRow(b)
	if err != nil {
		out.fail("%s: %v", what, err)
	} else if r.Err != "" {
		out.fail("%s is an error row: %s", what, r.Err)
	}
	return r
}

// corruptRow flips one digit of the first row, for the self-test.
func corruptRow(rows [][]byte) {
	if len(rows) == 0 {
		return
	}
	r := rows[0]
	for i := len(r) - 1; i >= 0; i-- {
		if r[i] >= '0' && r[i] <= '9' {
			r[i] = '0' + (r[i]-'0'+1)%10
			return
		}
	}
}
