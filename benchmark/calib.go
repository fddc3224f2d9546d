package main

import (
	"math/rand/v2"
	"slices"
	"sync"
	"time"
)

// calibrator measures how fast the host runs at the moment. The host
// shares its cores and caches with other machines: the same
// deterministic op costs up to 1.8 times as much CPU and wall time in a
// busy minute as in a quiet one. The calibrator times a fixed piece of
// work — sorting on both CPUs at once, then building and walking a tree
// of small heap objects — with the standard library only, so no change
// to the program under test moves it, at points spread over the
// measured time. The time metrics are divided by the slowdown it saw
// over the same span, and so read as if every run had the quiet host's
// speed. Of the kinds of work tried (pointer chasing, hashing, map
// updates, JSON decoding, each on one CPU or two), these two tracked
// the server's own slowdown closest.
type calibrator struct {
	src  []float64
	bufs [2][]float64

	last    time.Time
	samples []float64 // ms, of the current span
	sink    int       // keeps the tree walks observable
}

const (
	// calibRefMs sets the scale: a sample's time in a quiet minute on
	// the 2-CPU Intel Xeon container the numbers in README.md come from.
	calibRefMs = 7.5
	// calibEvery spaces the samples taken between ops; a sample takes
	// 2 to 4 % of that.
	calibEvery = 400 * time.Millisecond
)

func newCalibrator() *calibrator {
	rng := rand.New(rand.NewPCG(1, 2))
	c := &calibrator{src: make([]float64, 1<<13)}
	for i := range c.src {
		c.src[i] = rng.Float64()
	}
	for k := range c.bufs {
		c.bufs[k] = make([]float64, len(c.src))
	}
	return c
}

type calibNode struct {
	l, r *calibNode
	v    int
}

func calibTree(depth int) *calibNode {
	if depth == 0 {
		return &calibNode{v: 1}
	}
	return &calibNode{l: calibTree(depth - 1), r: calibTree(depth - 1), v: depth}
}

func (n *calibNode) sum() int {
	if n == nil {
		return 0
	}
	return n.v + n.l.sum() + n.r.sum()
}

// sample does the work once and records its time: the mean time of the
// two sorting goroutines plus the time of the tree.
func (c *calibrator) sample() {
	var sorts [2]time.Duration
	var wg sync.WaitGroup
	for k, buf := range c.bufs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			start := time.Now()
			for range 8 {
				copy(buf, c.src)
				slices.Sort(buf)
			}
			sorts[k] = time.Since(start)
		}()
	}
	wg.Wait()
	start := time.Now()
	for range 4 {
		c.sink += calibTree(13).sum()
	}
	c.last = time.Now()
	ms := 1e3 * ((sorts[0]+sorts[1]).Seconds()/2 + c.last.Sub(start).Seconds())
	c.samples = append(c.samples, ms)
}

// begin starts a span with a fresh sample.
func (c *calibrator) begin() {
	c.samples = c.samples[:0]
	c.sample()
}

// tick samples when calibEvery has passed since the last sample.
func (c *calibrator) tick() {
	if time.Since(c.last) >= calibEvery {
		c.sample()
	}
}

// end closes the span with a sample and returns its slowdown: the mean
// sample over calibRefMs. The closing sample also opens the next span.
func (c *calibrator) end() float64 {
	c.sample()
	f := mean(c.samples) / calibRefMs
	c.samples = append(c.samples[:0], c.samples[len(c.samples)-1])
	return f
}
