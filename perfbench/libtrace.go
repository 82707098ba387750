package main

import (
	"fmt"
	"runtime"
	"sync"
	"time"

	"rotorring/internal/engine"
)

// jobStat is one job of a traced pass: its row and how long JobRunner.Run
// took.
type jobStat struct {
	job int
	dur time.Duration
	row engine.Row
}

// tracedLibraryPass runs the workload's sweeps through the engine's
// exported job model, as Engine.Run does, with a span around every call:
// Expand, one NewRunner per worker goroutine, JobRunner.Run, RowBytes and
// the sink write.
func tracedLibraryPass(t *tracer, subs []subSweep, pass int) ([]sweepRun, time.Duration, error) {
	start := time.Now()
	root, endRoot := t.start(0, fmt.Sprintf("pass#%d", pass), "pass")
	runs := make([]sweepRun, len(subs))
	for i, s := range subs {
		r, err := tracedSweep(t, root, fmt.Sprintf("%s#%d", s.name, pass), s.es)
		if err != nil {
			endRoot()
			return nil, 0, fmt.Errorf("traced sweep %s: %w", s.name, err)
		}
		runs[i] = r
	}
	endRoot()
	return runs, time.Since(start), nil
}

func tracedSweep(t *tracer, parent int, group string, es engine.SweepSpec) (sweepRun, error) {
	sink := &rowSink{start: time.Now()}
	sid, endSweep := t.start(parent, group, "engine.subsweep")
	defer endSweep()
	_, endExpand := t.start(sid, group, "engine.expand")
	exp, err := engine.Expand(es)
	endExpand()
	if err != nil {
		return sweepRun{}, err
	}
	jobs := exp.NumJobs()
	next := make(chan int)
	done := make(chan jobStat, engineWorkers)
	var wg sync.WaitGroup
	for w := 0; w < engineWorkers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, endNew := t.start(sid, group, "engine.new_runner")
			r := exp.NewRunner()
			endNew()
			for j := range next {
				start := time.Now()
				_, endJob := t.start(sid, group, "engine.job")
				row := r.Run(j)
				endJob()
				done <- jobStat{job: j, dur: time.Since(start), row: row}
			}
		}()
	}
	go func() {
		for j := 0; j < jobs; j++ {
			next <- j
		}
		close(next)
	}()
	go func() {
		wg.Wait()
		close(done)
	}()

	// Re-sequence into canonical order, as the engine does before its sinks.
	stats := make([]jobStat, 0, jobs)
	pending := make(map[int]jobStat, engineWorkers)
	var encErr error
	for st := range done {
		pending[st.job] = st
		for {
			st, ok := pending[len(stats)]
			if !ok {
				break
			}
			delete(pending, st.job)
			stats = append(stats, st)
			_, endRB := t.start(sid, group, "engine.rowbytes")
			b, err := engine.RowBytes(st.row)
			endRB()
			if err != nil {
				encErr = err
				continue
			}
			_, endSink := t.start(sid, group, "engine.sink")
			sink.Write(b)
			endSink()
		}
	}
	return sweepRun{wall: time.Since(sink.start), sink: sink, jobs: stats}, encErr
}

// traceLibrary alternates untraced and traced passes until the deadline,
// then derives the per-layer metrics from the spans and from replays of
// the first traced pass.
func traceLibrary(cfg config, subs []subSweep, ref []sweepRun, setup func() error, out *outcome) error {
	t := newTracer()
	out.spans = t
	var plain, traced, firsts []float64
	var tracedRuns [][]sweepRun
	end := deadline(cfg)
	for pass := 0; len(traced) == 0 || time.Now().Before(end); pass++ {
		runtime.GC()
		if err := out.setups.burst(setup); err != nil {
			return err
		}
		out.host.sample()
		runs, wall, err := libraryPass(subs, false)
		if err != nil {
			return err
		}
		plain = append(plain, wall.Seconds())
		firsts = append(firsts, float64(runs[0].sink.first)/1e6)
		for i, r := range runs {
			compareHashes(subs[i].name, ref[i].sink.hashes, r.sink.hashes, out)
		}
		runtime.GC()
		truns, twall, err := tracedLibraryPass(t, subs, pass)
		if err != nil {
			return err
		}
		traced = append(traced, twall.Seconds())
		for i, r := range truns {
			compareHashes(subs[i].name+" (traced)", ref[i].sink.hashes, r.sink.hashes, out)
		}
		tracedRuns = append(tracedRuns, truns)
	}

	m := out.metrics
	spans := t.snapshot()
	passes := float64(len(tracedRuns))
	m["trace.overhead_frac"] = median(traced)/median(plain) - 1
	m["engine.first_row_ms_p50"] = median(firsts)
	m["trace.unattributed_frac"] = unattributedFrac(spans)
	m["engine.expand_ms"] = sum(durations(spans, "engine.expand")) / 1e6 / passes
	m["engine.rowbytes_us"] = median(durations(spans, "engine.rowbytes")) / 1e3
	m["engine.sink_us"] = median(durations(spans, "engine.sink")) / 1e3

	var jobMs []float64
	var busy, critical, walls, missionMs float64
	for _, runs := range tracedRuns {
		for _, r := range runs {
			slowest := 0.0
			for _, j := range r.jobs {
				d := float64(j.dur)
				jobMs = append(jobMs, d/1e6)
				busy += d
				slowest = max(slowest, d)
				if j.row.Cell.Mission != "" {
					missionMs += d / 1e6
				}
			}
			critical += slowest
			walls += float64(r.wall)
		}
	}
	m["engine.job_ms_p50"] = median(jobMs)
	m["engine.job_ms_max"] = maxOf(jobMs)
	m["engine.critical_path_frac"] = ratio(critical, walls)
	m["engine.worker_busy_frac"] = ratio(busy, engineWorkers*walls)
	m["engine.mission_ms"] = missionMs / passes
	for i, s := range subs {
		var xs []float64
		for _, runs := range tracedRuns {
			xs = append(xs, runs[i].wall.Seconds())
		}
		m["engine.subsweep_s."+s.name] = median(xs)
	}
	return replayLayers(subs, tracedRuns[0], out)
}

// tierTotals accumulates the rounds, agent steps and job time of one tier.
type tierTotals struct {
	rounds, agentSteps, ns float64
}

// replayLayers replays one job per cell of a traced pass — replicas of a
// cell share its kernel tier — and reports the graph, core, kernel and
// randwalk metrics. Per-tier rates divide agent steps by the engine's own
// job times; the replay supplies the tier, init time and occupancy.
func replayLayers(subs []subSweep, runs []sweepRun, out *outcome) error {
	gs := newGraphStore()
	tiers := make(map[string]*tierTotals)
	var initNs, jobNs, occupied, processed float64
	mismatched := 0
	for i, s := range subs {
		exp, err := engine.Expand(s.es)
		if err != nil {
			return err
		}
		reps := exp.Replicas()
		for cellJob := 0; cellJob < exp.NumJobs(); cellJob += reps {
			res, err := replayJob(exp, cellJob, runs[i].jobs[cellJob].row, gs)
			if err != nil {
				return fmt.Errorf("replay %s job %d: %w", s.name, cellJob, err)
			}
			if res.mismatch {
				mismatched++
				fmt.Fprintf(out.log, "perfbench: replay of %s job %d disagrees with the engine row; not used\n", s.name, cellJob)
				continue
			}
			initNs += res.init
			occupied += res.occupied
			processed += res.processed
			tt := tiers[res.tier]
			if tt == nil {
				tt = &tierTotals{}
				tiers[res.tier] = tt
			}
			for j := cellJob; j < cellJob+reps; j++ {
				st := runs[i].jobs[j]
				tt.rounds += float64(st.row.Rounds)
				tt.agentSteps += float64(st.row.Rounds) * float64(st.row.K)
				tt.ns += float64(st.dur)
				jobNs += float64(st.dur)
			}
		}
	}
	m := out.metrics
	m["graph.build_ms"] = gs.buildNs / 1e6
	m["graph.builds"] = float64(gs.builds)
	m["core.init_ms"] = initNs / 1e6
	m["core.init_frac"] = ratio(initNs, jobNs)
	m["kernel.useful_node_frac"] = ratio(occupied, processed)
	m["trace.replays_mismatched"] = float64(mismatched)
	rate := func(tier string) float64 {
		if tt := tiers[tier]; tt != nil {
			return ratio(tt.agentSteps, tt.ns/1e9)
		}
		return 0
	}
	rotorRounds := 0.0
	for _, tier := range []string{"generic", "ring", "held", "parallel"} {
		if tt := tiers[tier]; tt != nil {
			rotorRounds += tt.rounds
		}
	}
	for _, tier := range []string{"generic", "ring", "held", "parallel"} {
		m["kernel.tier_share."+tier] = 0
		if tt := tiers[tier]; tt != nil {
			m["kernel.tier_share."+tier] = ratio(tt.rounds, rotorRounds)
		}
	}
	m["core.generic_rounds"] = 0
	if tt := tiers["generic"]; tt != nil {
		m["core.generic_rounds"] = tt.rounds
	}
	m["core.generic_agent_steps_per_s"] = rate("generic")
	m["kernel.ring_agent_steps_per_s"] = rate("ring")
	m["kernel.held_agent_steps_per_s"] = rate("held")
	m["randwalk.counts_agent_steps_per_s"] = rate("counts")
	m["randwalk.agents_agent_steps_per_s"] = rate("agents")
	return nil
}
