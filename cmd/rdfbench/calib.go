package main

import (
	"fmt"
	"slices"
	"sort"
	"time"
)

// Every time the benchmark reports is normalised to the speed of the
// machine at the moment it was taken. On a shared virtual machine the speed
// one tenant gets drifts from minute to minute: one align-gtopdb run
// measured an operation median of 68 ms and another, half an hour later,
// 107 ms. A fixed reference task runs between operations, and a time t is
// reported as t × refNominal / r, where r is the median of the latest
// reference timings. The task takes about refNominal on the 2-core Xeon the
// defaults were chosen on, so normalised times read as that machine's
// milliseconds. The task allocates nothing after its first run, so the
// program's heap and garbage collector do not change its speed.

const (
	refNominal  = 16.0 // ms
	refInterval = 250 * time.Millisecond
	refWindow   = 3
	refKeys     = 1 << 17
	refTable    = 1 << 22 // 16 MiB of uint32, more than the per-core caches
	refGathers  = 1 << 19
)

// calibrator runs the reference task and keeps its latest timings.
type calibrator struct {
	keys   []uint64
	counts map[uint64]uint32
	table  []uint32
	recent [refWindow]float64 // ms, a ring
	n      int                // reference runs so far
	last   time.Time
	sink   uint64
}

// newCalibrator allocates the task's memory and fills the timing window
// after a few warm-up runs.
func newCalibrator() *calibrator {
	c := &calibrator{
		keys:   make([]uint64, refKeys),
		counts: make(map[uint64]uint32, refKeys/2),
		table:  make([]uint32, refTable),
	}
	for i := range c.table {
		c.table[i] = uint32(i) * 2654435761
	}
	for i := 0; i < 2*refWindow; i++ {
		c.measure()
	}
	return c
}

// measure runs the reference task once, records its time and returns it in
// ms. The task generates and sorts keys, counts them in a hash map and
// gathers from a table larger than the per-core caches, the kinds of work
// refinement and parsing do.
func (c *calibrator) measure() float64 {
	start := time.Now()
	x := uint64(0x9e3779b97f4a7c15)
	for i := range c.keys {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		c.keys[i] = x
	}
	slices.Sort(c.keys)
	clear(c.counts)
	for _, k := range c.keys[:refKeys/2] {
		c.counts[k%(refKeys/4)]++
	}
	idx, s := uint32(1), uint32(0)
	for i := 0; i < refGathers; i++ {
		idx = idx*1664525 + 1013904223
		s += c.table[idx%refTable]
	}
	c.sink += uint64(s) + uint64(len(c.counts))
	t := ms(time.Since(start))
	c.recent[c.n%refWindow] = t
	c.n++
	c.last = time.Now()
	return t
}

// tick runs the reference task if refInterval has passed since it last ran.
func (c *calibrator) tick() {
	if time.Since(c.last) >= refInterval {
		c.measure()
	}
}

// ref returns the median of the latest reference timings in ms.
func (c *calibrator) ref() float64 {
	w := c.recent
	sort.Float64s(w[:])
	return w[refWindow/2]
}

// scale returns the factor that normalises a time taken now.
func (c *calibrator) scale() float64 { return refNominal / c.ref() }

func (c *calibrator) String() string {
	return fmt.Sprintf("reference task %.2f ms (nominal %.0f ms) over %d runs", c.ref(), refNominal, c.n)
}
