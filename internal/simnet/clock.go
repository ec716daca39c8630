// Package simnet models the virtual time and network fabric of an HPC
// cluster: per-rank virtual clocks, an alpha-beta message cost model, and
// per-node NIC serialization for contention.
//
// The reproduction runs MPI ranks as fibers inside one OS process, so
// wall-clock time says little about what a 4-node 10 GbE cluster would do.
// Instead, every rank owns a virtual Clock. Message transfers advance the
// receiver's clock by max(receiver clock, arrival time), where the arrival
// time is computed from the topology-aware cost model in Network. This is a
// conservative parallel-discrete-event approximation. NIC contention is
// resolved in the order the fabric's scheduler runs the senders, which is
// fixed, so virtual times repeat exactly from run to run.
//
// The cost-model defaults (Discovery10GbE) reproduce the paper's Section
// 5.1 testbed — 4 nodes x 12 ranks on the Discovery cluster's 10 GbE
// partition — and the jitter stream models the run-to-run variance behind
// Figure 5's error bars; the scenario engine seeds it deterministically
// per repetition.
package simnet

import (
	"sync/atomic"
	"time"
)

// Time is a point in virtual time, in nanoseconds since world start.
type Time int64

// Add returns the time d after t.
func (t Time) Add(d time.Duration) Time { return t + Time(d) }

// Sub returns the duration from u to t.
func (t Time) Sub(u Time) time.Duration { return time.Duration(t - u) }

// Duration converts the time since world start to a time.Duration.
func (t Time) Duration() time.Duration { return time.Duration(t) }

// Micros reports t in microseconds as a float, the unit used by the paper's
// latency figures.
func (t Time) Micros() float64 { return float64(t) / 1e3 }

// Clock is a per-rank virtual clock. The owning rank advances it; other
// goroutines (the checkpoint coordinator, the harness) may read it
// concurrently, so the value is accessed atomically.
type Clock struct {
	now atomic.Int64
}

// Now returns the current virtual time.
func (c *Clock) Now() Time { return Time(c.now.Load()) }

// Advance moves the clock forward by d. Negative durations are ignored so
// cost models can never move time backwards.
func (c *Clock) Advance(d time.Duration) Time {
	if d < 0 {
		d = 0
	}
	return Time(c.now.Add(int64(d)))
}

// AdvanceTo moves the clock to t if t is later than the current time and
// returns the resulting time. It implements the max(local, arrival) rule for
// message receipt.
func (c *Clock) AdvanceTo(t Time) Time {
	for {
		cur := c.now.Load()
		if int64(t) <= cur {
			return Time(cur)
		}
		if c.now.CompareAndSwap(cur, int64(t)) {
			return t
		}
	}
}

// Set forces the clock to t. Used on restart to restore a checkpointed
// rank's virtual time.
func (c *Clock) Set(t Time) { c.now.Store(int64(t)) }
