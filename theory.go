package rotorring

import (
	"rotorring/internal/continuum"
	"rotorring/internal/remote"
	"rotorring/internal/stats"
)

// This file exposes the paper's asymptotic predictions (Table 1) as
// normalizing functions, plus the analytical artifacts of §2.3 and §3.2.
// The predictions are Θ-shapes: measured times divided by these values
// should be flat across sweeps of n and k (see the experiment index in
// DESIGN.md §3, E1–E6, and run cmd/papertables for the measured
// constants).

// HarmonicNumber returns H_k = 1 + 1/2 + ... + 1/k, the paper's stand-in
// for log k (Lemma 13 is stated with H_k).
func HarmonicNumber(k int) float64 { return stats.Harmonic(k) }

// PredictRotorWorstCover is the Θ-shape of the k-agent rotor-router cover
// time from the worst-case initialization (Theorems 1 and 2): n²/log k,
// rendered as n²/H_k so that k = 1 degrades gracefully to n².
func PredictRotorWorstCover(n, k int) float64 {
	return float64(n) * float64(n) / stats.Harmonic(k)
}

// PredictRotorBestCover is the Θ-shape of the rotor-router cover time from
// the best-case (equally spaced) initialization (Theorems 3 and 4):
// (n/k)².
func PredictRotorBestCover(n, k int) float64 {
	r := float64(n) / float64(k)
	return r * r
}

// PredictWalkWorstCover is the Θ-shape of the expected cover time of k
// random walks from one node ([4], Table 1): n²/log k.
func PredictWalkWorstCover(n, k int) float64 {
	return float64(n) * float64(n) / stats.Harmonic(k)
}

// PredictWalkBestCover is the Θ-shape of the expected cover time of k
// equally spaced random walks (Theorem 5): (n/k)²·log²k, rendered with
// H_k².
func PredictWalkBestCover(n, k int) float64 {
	r := float64(n) / float64(k)
	h := stats.Harmonic(k)
	return r * r * h * h
}

// PredictReturnTime is the Θ-shape of the rotor-router return time
// (Theorem 6) and of the expected return time of k random walks: n/k.
func PredictReturnTime(n, k int) float64 {
	return float64(n) / float64(k)
}

// DomainProfile is the Lemma 13 normalized limit profile {a_i}: in the
// worst-case deployment the i-th domain from the exploration frontier has
// size ≈ a_i·S when S nodes are covered.
type DomainProfile = continuum.Profile

// DomainLimitProfile computes the Lemma 13 profile for k > 3 agents.
func DomainLimitProfile(k int) (*DomainProfile, error) {
	return continuum.LimitProfile(k)
}

// ContinuumModel is the §2.3 ODE model of domain-size evolution.
type ContinuumModel = continuum.Model

// ContinuumBoundary selects the ODE boundary condition.
type ContinuumBoundary = continuum.Boundary

// Continuum boundary conditions.
const (
	// ContinuumCyclic is the post-coverage regime (domains wrap around).
	ContinuumCyclic = continuum.BoundaryCyclic
	// ContinuumTwoFrontiers has unexplored territory on both sides.
	ContinuumTwoFrontiers = continuum.BoundaryTwoFrontiers
	// ContinuumOneFrontier is Theorem 1's path reduction (frontier ahead,
	// origin behind); its self-similar solution is the Lemma 13 profile
	// scaled by √t.
	ContinuumOneFrontier = continuum.BoundaryOneFrontier
)

// NewContinuumModel creates an ODE model from initial domain sizes.
func NewContinuumModel(sizes []float64, boundary ContinuumBoundary) (*ContinuumModel, error) {
	return continuum.NewModel(sizes, boundary)
}

// RemotePlacement indexes an agent placement for remote-vertex queries
// (Definition 2, §3.2): remote vertices are provably slow to cover under
// both processes and drive the paper's lower bounds.
type RemotePlacement = remote.Placement

// NewRemotePlacement validates and indexes a placement on the n-ring.
func NewRemotePlacement(n int, starts []int) (*RemotePlacement, error) {
	return remote.NewPlacement(n, starts)
}
