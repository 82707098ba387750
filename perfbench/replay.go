package main

import (
	"fmt"
	"time"

	"rotorring/internal/core"
	"rotorring/internal/engine"
	"rotorring/internal/graph"
	"rotorring/internal/randwalk"
	"rotorring/internal/xrand"
)

// The engine does not split a job into init, stepping and tiers, so the
// traced run replays cells through the exported graph, core and randwalk
// constructors and steppers, seeded exactly as the engine seeds the job.

// replayResult is what one replayed job shows about its layers.
type replayResult struct {
	tier      string  // generic, ring, held or parallel; counts or agents for walks
	init      float64 // process construction, ns
	occupied  float64 // Σ over rounds of occupied nodes (sampled)
	processed float64 // Σ over rounds of nodes the tier processes
	mismatch  bool    // the replay disagrees with the engine row
}

// graphStore builds each graph of a replayed sweep once, timing the builds.
type graphStore struct {
	m       map[string]*graph.Graph
	buildNs float64
	builds  int
}

func newGraphStore() *graphStore { return &graphStore{m: make(map[string]*graph.Graph)} }

func (gs *graphStore) get(base uint64, c engine.Cell) (*graph.Graph, error) {
	key := fmt.Sprintf("%s/%d", c.Spec, c.N)
	if g, ok := gs.m[key]; ok {
		return g, nil
	}
	seed, err := engine.GraphSeed(base, engine.Topo(c.Topology), c.N)
	if err != nil {
		return nil, err
	}
	start := time.Now()
	g, err := engine.BuildTopo(engine.Topo(c.Topology), c.N, seed)
	if err != nil {
		return nil, err
	}
	gs.buildNs += float64(time.Since(start))
	gs.builds++
	gs.m[key] = g
	return g, nil
}

// occupancySamples is how many times a replay samples the occupied-node
// count; each sample stands for the rounds up to the next one.
const occupancySamples = 64

// replayJob re-runs one job and checks its rounds and cover time against
// the engine's row.
func replayJob(exp *engine.ExpandedSweep, job int, row engine.Row, gs *graphStore) (replayResult, error) {
	spec := exp.Spec()
	c, _ := exp.Job(job)
	g, err := gs.get(spec.Seed, c)
	if err != nil {
		return replayResult{}, err
	}
	rng := xrand.New(exp.JobSeed(job))
	positions, err := placement(c, g, rng)
	if err != nil {
		return replayResult{}, err
	}
	if spec.Process == engine.ProcWalk {
		start := time.Now()
		w, err := randwalk.New(g, positions, rng, randwalk.WithMode(randwalk.ModeAuto))
		if err != nil {
			return replayResult{}, err
		}
		res := replayResult{tier: w.Mode(), init: float64(time.Since(start))}
		cover, err := w.RunUntilCovered(row.Rounds)
		res.mismatch = err != nil || float64(cover) != row.Value || w.Round() != row.Rounds
		return res, nil
	}

	ptrs, err := pointers(c, g, positions, rng)
	if err != nil {
		return replayResult{}, err
	}
	start := time.Now()
	sys, err := core.NewSystem(g, core.WithAgentsAt(positions...), core.WithPointers(ptrs))
	if err != nil {
		return replayResult{}, err
	}
	res := replayResult{init: float64(time.Since(start))}
	mission := c.Mission != "" // empty for mission-less cells
	if mission {
		// Mission predicates watch every arc, which keeps the engine on
		// the generic tier; an empty observer does the same here.
		sys.SetArcObserver(func(int, int, int64) {})
	}
	res.tier = tierOf(sys.KernelName())
	if c.Schedule != "" { // empty for unscheduled cells
		// Scheduled rounds are held rounds, on the held kernel where the
		// tier has one. Their hold draws are internal to the engine, so
		// the cell is classified but not stepped.
		if res.tier != "generic" {
			res.tier = "held"
		}
		return res, nil
	}

	n := g.NumNodes()
	chunk := max(1, row.Rounds/occupancySamples)
	for sys.Round() < row.Rounds && (mission || sys.Covered() < n) {
		occ := 0
		for _, a := range sys.AgentCountsView() {
			if a > 0 {
				occ++
			}
		}
		steps := min(chunk, row.Rounds-sys.Round())
		res.occupied += float64(occ * int(steps))
		proc := n
		if res.tier == "generic" {
			proc = occ
		}
		res.processed += float64(proc * int(steps))
		if mission {
			sys.Run(steps)
		} else {
			_, _ = sys.RunUntilCovered(sys.Round() + steps) // ErrNotCovered until the last chunk
		}
	}
	res.mismatch = sys.Round() != row.Rounds || (!mission && float64(sys.CoverRound()) != row.Value)
	return res, nil
}

// tierOf maps core.System.KernelName to a kernel tier.
func tierOf(kernelName string) string {
	switch kernelName {
	case "generic":
		return "generic"
	case "ring-parallel":
		return "parallel"
	default: // ring, path
		return "ring"
	}
}

func placement(c engine.Cell, g *graph.Graph, rng *xrand.Rand) ([]int, error) {
	switch c.Placement {
	case engine.PlaceSingle:
		return core.AllOnNode(0, c.K), nil
	case engine.PlaceEqual:
		return core.EquallySpaced(g.NumNodes(), c.K), nil
	case engine.PlaceRandom:
		return core.RandomPositions(g.NumNodes(), c.K, rng), nil
	}
	return nil, fmt.Errorf("replay: placement %v", c.Placement)
}

func pointers(c engine.Cell, g *graph.Graph, positions []int, rng *xrand.Rand) ([]int, error) {
	switch c.Pointer {
	case engine.PtrZero:
		return core.PointersUniform(g, 0), nil
	case engine.PtrNegative:
		return core.PointersNegative(g, positions)
	case engine.PtrToward:
		return core.PointersTowardNode(g, 0)
	case engine.PtrRandom:
		return core.PointersRandom(g, rng), nil
	}
	return nil, fmt.Errorf("replay: pointer policy %v", c.Pointer)
}
