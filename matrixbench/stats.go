package main

import (
	"math"
	"sort"
	"time"
)

// median returns the middle of xs (the mean of the two middles for an
// even count), or 0 for no samples.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

// minBeyond is how many samples must lie beyond a reported tail
// percentile for it to mean anything.
const minBeyond = 10

// tailPercentile picks the highest whole percentile p (at most 99) that
// still has at least minBeyond samples beyond it, and returns p and the
// nearest-rank value at it. ok is false when there are too few samples
// for any percentile from 50 up.
func tailPercentile(xs []float64) (p int, v float64, ok bool) {
	n := len(xs)
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	for p = 99; p >= 50; p-- {
		rank := int(math.Ceil(float64(p) * float64(n) / 100)) // 1-based nearest rank
		if rank < 1 {
			rank = 1
		}
		if n-rank >= minBeyond {
			return p, s[rank-1], true
		}
	}
	return 0, 0, false
}

// span is one timed call recorded by the benchmark around a layer's
// public function. Start and End are offsets from the recorder's epoch;
// Parent indexes the enclosing span (-1 for a root).
type span struct {
	Name   string        `json:"name"`
	Parent int           `json:"parent"`
	Start  time.Duration `json:"start_ns"`
	End    time.Duration `json:"end_ns"`
}

// spans is an in-memory span log. It is not safe for concurrent use;
// concurrent producers record under their own lock.
type spans []span

// add appends a span and returns its index.
func (ss *spans) add(name string, parent int, start, end time.Duration) int {
	*ss = append(*ss, span{Name: name, Parent: parent, Start: start, End: end})
	return len(*ss) - 1
}

// selfTime is span i's duration minus the part of it that its child
// spans cover. Children may overlap each other (cells run on several
// workers at once), so their union is subtracted, clipped to the parent.
func (ss spans) selfTime(i int) time.Duration {
	p := ss[i]
	type iv struct{ a, b time.Duration }
	var kids []iv
	for j, c := range ss {
		if j == i || c.Parent != i {
			continue
		}
		a, b := c.Start, c.End
		if a < p.Start {
			a = p.Start
		}
		if b > p.End {
			b = p.End
		}
		if b > a {
			kids = append(kids, iv{a, b})
		}
	}
	sort.Slice(kids, func(x, y int) bool { return kids[x].a < kids[y].a })
	var covered time.Duration
	var cur iv
	for k, c := range kids {
		switch {
		case k == 0:
			cur = c
		case c.a <= cur.b:
			if c.b > cur.b {
				cur.b = c.b
			}
		default:
			covered += cur.b - cur.a
			cur = c
		}
	}
	if len(kids) > 0 {
		covered += cur.b - cur.a
	}
	return p.End - p.Start - covered
}

// ms renders a duration in milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
