package fabric

import (
	"fmt"
	"sync"
)

// fiberState is one rank fiber's scheduling state.
type fiberState uint8

const (
	fiberIdle     fiberState = iota // not spawned yet
	fiberRunnable                   // queued for the token
	fiberRunning                    // holds the token
	fiberBlocked                    // parked, waiting for a wake
	fiberDone                       // exited
)

// sched is the fabric's progress engine: every rank of a world runs as
// a fiber multiplexed over a single execution token, an event-driven
// cooperative scheduler. Exactly one rank runs at a time. Blocking on
// the fabric (an empty mailbox, an incomplete OOB exchange) parks the
// rank's fiber and hands the token to the next runnable one, and
// message delivery marks the destination runnable instead of waking an
// OS thread. Fibers are real goroutines (Go stacks cannot be swapped by
// hand) but at most one is unparked at a time. The runnable queue is
// FIFO and every state transition is driven by an explicit event (a
// mailbox push, an exchange completion, a close), so every run is
// bit-for-bit reproducible, virtual times included. Mailbox locks are
// never contended and wakeups are queue appends, which is also what
// makes a 4096-rank allreduce feasible on a laptop.
//
// Lock ordering: data-structure locks (mailbox.mu, OOB.mu) may be held
// while calling wake/wakeAll — sched.mu is a leaf lock. park must be
// called WITHOUT any data lock held (the parked fiber would otherwise
// deadlock the successor it hands the token to); blocking sites
// therefore re-check their condition in a loop around park, and the
// pending bit makes the unlock→park window race-free: a wake that
// arrives while its target still runs is remembered and consumed by the
// next park, which returns immediately instead of sleeping.
type sched struct {
	mu      sync.Mutex
	state   []fiberState
	pending []bool          // wake arrived while fiber was running
	gates   []chan struct{} // per-fiber dispatch signal, cap 1
	runq    []int           // FIFO of runnable fibers
	running int             // fiber holding the token, or -1
	spawned int             // fibers registered so far; none runs until all are
}

func newSched(n int) *sched {
	s := &sched{
		state:   make([]fiberState, n),
		pending: make([]bool, n),
		gates:   make([]chan struct{}, n),
		running: -1,
	}
	for i := range s.gates {
		s.gates[i] = make(chan struct{}, 1)
	}
	return s
}

// spawn registers rank's fiber and starts its goroutine. The goroutine
// does not run fn until the scheduler dispatches it, and the token is
// released when fn returns — or panics: the deferred exit keeps one
// crashing fiber from wedging the whole world. The first dispatch waits
// for the last rank's spawn: were the first fiber to run while the
// caller is still spawning, how far the caller got would decide where
// later spawns land in the run queue relative to the first fiber's
// wakes, and the run order would depend on the OS scheduler.
func (s *sched) spawn(rank int, fn func()) {
	s.mu.Lock()
	if s.state[rank] != fiberIdle {
		s.mu.Unlock()
		panic(fmt.Sprintf("fabric: rank %d spawned twice", rank))
	}
	s.state[rank] = fiberRunnable
	s.runq = append(s.runq, rank)
	s.spawned++
	s.dispatchLocked()
	s.mu.Unlock()
	go func() {
		<-s.gates[rank]
		defer s.exit(rank)
		fn()
	}()
}

// exit releases the token when a fiber returns.
func (s *sched) exit(rank int) {
	s.mu.Lock()
	s.state[rank] = fiberDone
	s.pending[rank] = false
	if s.running == rank {
		s.running = -1
	}
	s.dispatchLocked()
	s.mu.Unlock()
}

// park releases the token and blocks until the fiber is woken AND
// re-dispatched. A wake that arrived while the fiber was still running
// (the pending bit) makes park return immediately: the caller's
// condition may already hold, and the loop around park re-checks it.
// Only the fiber currently holding the token may park.
func (s *sched) park(rank int) {
	s.mu.Lock()
	if s.state[rank] != fiberRunning {
		s.mu.Unlock()
		panic(fmt.Sprintf("fabric: park by rank %d which does not hold the token (state %d); "+
			"ranks must be started with World.Spawn", rank, s.state[rank]))
	}
	if s.pending[rank] {
		s.pending[rank] = false
		s.mu.Unlock()
		return
	}
	s.state[rank] = fiberBlocked
	s.running = -1
	s.dispatchLocked()
	s.mu.Unlock()
	<-s.gates[rank]
}

// wake marks rank runnable after an event (mailbox push, exchange
// completion, close). Safe to call from fibers and external goroutines
// alike, with data locks held. Waking a running fiber sets its pending
// bit; waking a runnable, done or unspawned fiber is a no-op (an
// unspawned fiber finds the event's effect before its first park).
func (s *sched) wake(rank int) {
	s.mu.Lock()
	switch s.state[rank] {
	case fiberBlocked:
		s.state[rank] = fiberRunnable
		s.runq = append(s.runq, rank)
		s.dispatchLocked()
	case fiberRunning:
		s.pending[rank] = true
	}
	s.mu.Unlock()
}

// wakeAll wakes every blocked fiber — the broadcast analog, used by
// barrier-style completions (OOB exchange) and world teardown.
func (s *sched) wakeAll() {
	s.mu.Lock()
	for r, st := range s.state {
		switch st {
		case fiberBlocked:
			s.state[r] = fiberRunnable
			s.runq = append(s.runq, r)
		case fiberRunning:
			s.pending[r] = true
		}
	}
	s.dispatchLocked()
	s.mu.Unlock()
}

// dispatchLocked hands the token to the next runnable fiber if it is
// free and every rank has been spawned. Called with s.mu held; the gate
// send cannot block (cap 1, and the state machine dispatches a fiber at
// most once per park).
func (s *sched) dispatchLocked() {
	if s.running != -1 || len(s.runq) == 0 || s.spawned < len(s.state) {
		return
	}
	r := s.runq[0]
	copy(s.runq, s.runq[1:])
	s.runq = s.runq[:len(s.runq)-1]
	s.state[r] = fiberRunning
	s.running = r
	s.gates[r] <- struct{}{} //mpivet:allow parksafe -- cap-1 gate owned by the token state machine: a fiber is dispatched at most once per park, so the send never blocks
}

// Spawn starts fn as rank r's fiber. Every goroutine that drives a
// rank's endpoint MUST be started through Spawn: the blocking fabric
// primitives park the calling fiber, and an unregistered goroutine
// cannot park. No fiber runs until every rank of the world has been
// spawned; the fibers then start in spawn order.
func (w *World) Spawn(r int, fn func()) { w.sched.spawn(r, fn) }
