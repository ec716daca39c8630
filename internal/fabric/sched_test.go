package fabric

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/simnet"
)

// eventWorld builds a single-node world (a scheduler bug shows up as a
// silent hang, never a crash — pair with join).
func eventWorld(t *testing.T, n int) *World {
	t.Helper()
	w, err := NewWorld(simnet.SingleNode(n))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(w.Close)
	return w
}

// join waits for wg with a timeout so scheduler deadlocks fail fast.
func join(t *testing.T, wg *sync.WaitGroup) {
	t.Helper()
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("test timed out (scheduler deadlock)")
	}
}

// TestEventModePingPong bounces a payload between two fibers many times:
// every hop is a park on an empty mailbox plus a wake from a push, so
// this exercises the token handoff, the pending bit (pushes that land
// while the receiver still runs) and FIFO dispatch under churn.
func TestEventModePingPong(t *testing.T) {
	w := eventWorld(t, 2)
	const hops = 200
	var wg sync.WaitGroup
	var last []byte
	for r := 0; r < 2; r++ {
		r := r
		wg.Add(1)
		w.Spawn(r, func() {
			defer wg.Done()
			ep := w.Endpoint(r)
			if r == 0 {
				e := GetEnvelope()
				e.Dst, e.Tag, e.Payload = 1, 0, []byte{0}
				ep.Send(e)
			}
			for {
				e := ep.Recv()
				if e == nil {
					return
				}
				hop := e.Tag + 1
				if hop >= hops {
					last = append([]byte(nil), e.Payload...)
					w.Close() // unblocks the peer's Recv
					return
				}
				out := GetEnvelope()
				out.Dst = 1 - r
				out.Tag = hop
				out.Payload = append([]byte(nil), e.Payload...)
				out.Payload[0]++
				ep.Send(out)
			}
		})
	}
	join(t, &wg)
	if len(last) != 1 || last[0] != hops-1 {
		t.Fatalf("payload after %d hops = %v, want [%d]", hops, last, hops-1)
	}
}

// TestEventModeDeterministicDelivery runs the same many-to-one pattern
// twice and demands identical arrival order AND identical virtual
// timestamps: the scheduler's FIFO run order makes whole runs
// bit-for-bit reproducible.
func TestEventModeDeterministicDelivery(t *testing.T) {
	run := func() string {
		w, err := NewWorld(simnet.SingleNode(8))
		if err != nil {
			t.Fatal(err)
		}
		defer w.Close()
		var wg sync.WaitGroup
		var trace string
		for r := 0; r < 8; r++ {
			r := r
			wg.Add(1)
			w.Spawn(r, func() {
				defer wg.Done()
				ep := w.Endpoint(r)
				if r != 0 {
					for i := 0; i < 3; i++ {
						e := GetEnvelope()
						e.Dst = 0
						e.Tag = int32(i)
						e.Payload = []byte{byte(r)}
						ep.Send(e)
					}
					return
				}
				for i := 0; i < 21; i++ {
					e := ep.Recv()
					ep.AccountRecv(e)
					trace += fmt.Sprintf("%d/%d@%d ", e.Src, e.Tag, e.Arrive)
					PutEnvelope(e)
				}
			})
		}
		join(t, &wg)
		return trace
	}
	first := run()
	for i := 0; i < 3; i++ {
		if got := run(); got != first {
			t.Fatalf("run %d diverged:\n  %s\nvs\n  %s", i+2, got, first)
		}
	}
}

// TestEventModeBlockingOutsideSpawnPanics: a goroutine not started via
// Spawn cannot hold the token, so a blocking Recv from it must panic
// with a pointer at Spawn instead of corrupting the scheduler.
func TestEventModeBlockingOutsideSpawnPanics(t *testing.T) {
	w := eventWorld(t, 2)
	defer func() {
		if recover() == nil {
			t.Fatal("Recv outside Spawn did not panic")
		}
	}()
	w.Endpoint(0).Recv()
}

// TestEventModeCloseWakesParked: fibers parked on empty mailboxes must
// all observe Close and exit — teardown uses wakeAll, not per-rank
// bookkeeping.
func TestEventModeCloseWakesParked(t *testing.T) {
	w := eventWorld(t, 4)
	var wg sync.WaitGroup
	for r := 0; r < 4; r++ {
		r := r
		wg.Add(1)
		w.Spawn(r, func() {
			defer wg.Done()
			if e := w.Endpoint(r).Recv(); e != nil {
				t.Errorf("rank %d: Recv on closed world returned %+v", r, e)
			}
		})
	}
	time.Sleep(10 * time.Millisecond) // let fibers reach their park
	w.Close()
	join(t, &wg)
}

// TestEventModeGoexitReleasesToken: a fiber that exits abnormally
// (runtime.Goexit — which is what t.Fatal does) still runs the deferred
// scheduler exit, so the token moves on and the rest of the world keeps
// working instead of wedging.
func TestEventModeGoexitReleasesToken(t *testing.T) {
	w := eventWorld(t, 3)
	var wg sync.WaitGroup
	wg.Add(1)
	w.Spawn(0, func() {
		defer wg.Done()
		runtime.Goexit()
	})
	got := make(chan byte, 1)
	for r := 1; r < 3; r++ {
		r := r
		wg.Add(1)
		w.Spawn(r, func() {
			defer wg.Done()
			ep := w.Endpoint(r)
			if r == 1 {
				e := GetEnvelope()
				e.Dst, e.Payload = 2, []byte{42}
				ep.Send(e)
				return
			}
			e := ep.Recv()
			got <- e.Payload[0] //mpivet:allow parksafe -- capacity-1 channel with a single sender; the send never blocks
			PutEnvelope(e)
		})
	}
	join(t, &wg)
	if v := <-got; v != 42 {
		t.Fatalf("payload = %d, want 42", v)
	}
}

// TestEventModeSpawnTwicePanics: double-registering a rank is a harness
// bug; the scheduler refuses loudly.
func TestEventModeSpawnTwicePanics(t *testing.T) {
	w := eventWorld(t, 1)
	var wg sync.WaitGroup
	wg.Add(1)
	w.Spawn(0, func() { wg.Done() })
	join(t, &wg)
	defer func() {
		if recover() == nil {
			t.Fatal("second Spawn of rank 0 did not panic")
		}
	}()
	w.Spawn(0, func() {})
}

// TestEventModeSpawnWaitsForEveryRank: no fiber runs before the last rank is
// spawned, however slowly the caller spawns them, so the run order
// cannot depend on how far the caller got when the first fiber parked.
func TestEventModeSpawnWaitsForEveryRank(t *testing.T) {
	w := eventWorld(t, 2)
	var ran atomic.Bool
	var wg sync.WaitGroup
	wg.Add(2)
	w.Spawn(0, func() { defer wg.Done(); ran.Store(true) })
	time.Sleep(10 * time.Millisecond)
	if ran.Load() {
		t.Fatal("rank 0 ran before rank 1 was spawned")
	}
	w.Spawn(1, func() { defer wg.Done() })
	join(t, &wg)
	if !ran.Load() {
		t.Fatal("rank 0 never ran")
	}
}
