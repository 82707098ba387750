package main

import (
	"math"
	"sync"
	"time"
)

// The host this benchmark was defined on is a shared virtual machine whose
// speed drifts by 25% and more over minutes. Each run therefore times a
// fixed set of calibration kernels, which share no code with the program,
// between its passes, and scales its times to the speed of the reference
// host: a time t is reported as t·s, where the host scale s is the
// geometric mean, over the kernels, of the kernel's reference time ÷ its
// median time in the run. A change to the program moves the reported
// times as it moves the raw ones; a change in host speed moves both t and
// the kernels' times and cancels out.
//
// The drift does not slow every kind of code alike, so the set mixes the
// kinds the program runs: a streaming integer stencil (the ring kernels),
// hash-map updates (the generic engine's maps and the service's
// bookkeeping) and floating-point math (samplers and metrics). Over 16
// runs per workload, the geometric mean of the three left a smaller
// run-to-run spread on every workload than the stencil alone did.

// calibration is one kernel of the calibration set.
type calibration struct {
	name string
	ref  time.Duration // the kernel's median wall time on the reference host
	run  func(w int) int64
}

var calibrations = []calibration{
	{"stencil", 12500 * time.Microsecond, stencil},
	{"hashmap", 4500 * time.Microsecond, hashMap},
	{"float", 6500 * time.Microsecond, floatMath},
}

// calibrationEvery is the least time between two calibrations of a run.
const calibrationEvery = 500 * time.Millisecond

var calibrationSink int64

// stencil streams over a 256 KiB ring of counters, passing halves to both
// neighbours, much as the ring kernel moves agents.
func stencil(w int) int64 {
	a := make([]int64, 32768)
	for i := range a {
		a[i] = int64(i*7%13) + int64(w)
	}
	var s int64
	for r := 0; r < 100; r++ {
		for i := 1; i < len(a)-1; i++ {
			c := a[i]
			a[i-1] += c >> 1
			a[i+1] += (c + 1) >> 1
			a[i] = (c*3 + int64(r)) & 1023
			s += a[i]
		}
	}
	return s
}

// hashMap updates and reads a 4096-key map at xorshift-random keys.
func hashMap(w int) int64 {
	m := make(map[uint64]uint64, 4096)
	x := uint64(w) + 99
	var s int64
	for k := 0; k < 200000; k++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		m[x&4095] += x
		s += int64(m[(x>>12)&4095])
	}
	return s
}

// floatMath iterates a chain of logarithms, square roots and exponentials.
func floatMath(w int) int64 {
	f := float64(w) + 1.5
	for k := 0; k < 150000; k++ {
		f = math.Log(f+2) + math.Sqrt(f)*0.5 + math.Exp(-f)
	}
	return int64(f * 1000)
}

// timeKernel runs one kernel on engineWorkers goroutines and returns its
// wall time.
func timeKernel(run func(w int) int64) time.Duration {
	start := time.Now()
	var wg sync.WaitGroup
	sums := make([]int64, engineWorkers)
	for w := range sums {
		wg.Add(1)
		go func() {
			defer wg.Done()
			sums[w] = run(w)
		}()
	}
	wg.Wait()
	for _, s := range sums {
		calibrationSink += s
	}
	return time.Since(start)
}

// hostSpeed collects a run's calibrations: samples[i] are the wall times,
// in ns, of calibrations[i].
type hostSpeed struct {
	samples [][]float64
	last    time.Time
}

// sample times every kernel once unless the last calibration is recent.
func (h *hostSpeed) sample() {
	if h.samples == nil {
		h.samples = make([][]float64, len(calibrations))
	} else if time.Since(h.last) < calibrationEvery {
		return
	}
	for i, c := range calibrations {
		h.samples[i] = append(h.samples[i], float64(timeKernel(c.run)))
	}
	h.last = time.Now()
}

// scale is the factor that turns a time measured in this run into
// reference-host time: the geometric mean over the kernels of reference
// time ÷ the run's median time.
func (h *hostSpeed) scale() float64 {
	if h.samples == nil {
		h.sample()
	}
	logSum := 0.0
	for i, c := range calibrations {
		logSum += math.Log(float64(c.ref) / median(h.samples[i]))
	}
	return math.Exp(logSum / float64(len(calibrations)))
}
