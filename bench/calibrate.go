package main

import (
	"runtime"
	"time"

	"numaperf/internal/stats"
)

// A shared virtual machine's speed drifts by 10–20% between runs a
// minute apart, and much of the drift moves every workload's host time
// together. Each run therefore times a fixed calibration kernel before
// set-up, before each timed iteration and after the last, and rescales
// its host-time metrics to a machine on which one kernel pass takes
// calibrationRef.
// In two batches of ten runs of each workload on the machine in
// README.md, this cut the spread of the median iteration time
// (interquartile range over median) from 8–21% to 3–13%. The kernel
// lives here, outside the code under test, so no change to the program
// can move it.
const (
	calibrationRef    = 10 * time.Millisecond
	calibrationPasses = 10 // passes per sample
	// Probe counts that split a pass about evenly between the two tables
	// and make it last about calibrationRef on the machine in README.md.
	calibrationNearProbes = 700_000
	calibrationFarProbes  = 150_000
	calibrationNearWords  = 32 << 10 // 256 KiB: in the host's L2
	calibrationFarWords   = 2 << 20  // 16 MiB: past it
)

// calibrator holds the kernel's tables and the pass times of a run.
type calibrator struct {
	near, far []uint64
	scale     float64   // fraction of the probe counts to run (tests shrink it)
	passes    []float64 // nanoseconds
	sink      uint64
}

// newCalibrator runs the kernel once untimed to fault its tables in.
func newCalibrator(scale float64) *calibrator {
	c := &calibrator{near: make([]uint64, calibrationNearWords), far: make([]uint64, calibrationFarWords), scale: scale}
	c.sample()
	c.passes = nil
	return c
}

// sample finishes any garbage collection first, so no collector work
// overlaps the kernel, then times calibrationPasses passes of it.
func (c *calibrator) sample() {
	runtime.GC()
	for i := 0; i < calibrationPasses; i++ {
		t := time.Now()
		c.sink += probe(c.near, int(c.scale*calibrationNearProbes))
		c.sink += probe(c.far, int(c.scale*calibrationFarProbes))
		c.passes = append(c.passes, float64(time.Since(t)))
	}
}

// factor converts this run's host time to reference time: above 1 when
// the machine ran faster than the reference, below 1 when slower.
func (c *calibrator) factor() float64 {
	return c.scale * float64(calibrationRef) / stats.Median(c.passes)
}

// probe looks pseudo-random lines up in an 8-way set-associative table
// and installs the ones it misses: the access pattern of the
// simulator's cache models. It returns the hit count.
func probe(tab []uint64, probes int) uint64 {
	x := uint64(0x9E3779B97F4A7C15)
	sets := uint64(len(tab) / 8)
	var hits uint64
	for i := 0; i < probes; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		base := (x % sets) * 8
		tag := x >> 40
		hit := false
		for w := uint64(0); w < 8; w++ {
			if tab[base+w] == tag {
				hit = true
				break
			}
		}
		if hit {
			hits++
		} else {
			tab[base+(x>>20)&7] = tag
		}
	}
	return hits
}
