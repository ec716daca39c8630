package fabric

import (
	"bytes"
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/simnet"
)

func newTestWorld(t testing.TB, n int) *World {
	t.Helper()
	w, err := NewWorld(simnet.SingleNode(n))
	if err != nil {
		t.Fatalf("NewWorld: %v", err)
	}
	t.Cleanup(w.Close)
	return w
}

func TestWorldShape(t *testing.T) {
	w := newTestWorld(t, 4)
	if w.Size() != 4 {
		t.Fatalf("Size = %d, want 4", w.Size())
	}
	for r := 0; r < 4; r++ {
		if got := w.Endpoint(r).Rank(); got != r {
			t.Fatalf("Endpoint(%d).Rank() = %d", r, got)
		}
	}
}

func TestEndpointOutOfRangePanics(t *testing.T) {
	w := newTestWorld(t, 2)
	defer func() {
		if recover() == nil {
			t.Fatal("Endpoint(5) did not panic")
		}
	}()
	w.Endpoint(5)
}

func TestSendRecvPayloadCopied(t *testing.T) {
	w := newTestWorld(t, 2)
	buf := []byte{1, 2, 3}
	var e *Envelope
	var wg sync.WaitGroup
	wg.Add(2)
	w.Spawn(0, func() {
		defer wg.Done()
		w.Endpoint(0).Send(&Envelope{Dst: 1, Tag: 9, Payload: buf})
		buf[0] = 99 // sender mutates its buffer after send
	})
	w.Spawn(1, func() { defer wg.Done(); e = w.Endpoint(1).Recv() })
	join(t, &wg)
	if e.Src != 0 || e.Tag != 9 {
		t.Fatalf("envelope src/tag = %d/%d, want 0/9", e.Src, e.Tag)
	}
	if !bytes.Equal(e.Payload, []byte{1, 2, 3}) {
		t.Fatalf("payload not copied at send: %v", e.Payload)
	}
}

func TestRecvAdvancesClock(t *testing.T) {
	w := newTestWorld(t, 2)
	var e *Envelope
	var wg sync.WaitGroup
	wg.Add(2)
	w.Spawn(1, func() { defer wg.Done(); e = w.Endpoint(1).Recv() })
	w.Spawn(0, func() {
		defer wg.Done()
		w.Endpoint(0).Send(&Envelope{Dst: 1, Payload: make([]byte, 4096)})
	})
	join(t, &wg)
	if e == nil {
		t.Fatal("Recv returned nil")
	}
	now := w.Endpoint(1).Clock().Now()
	if now < e.Arrive {
		t.Fatalf("receiver clock %v earlier than arrival %v", now, e.Arrive)
	}
	if e.Arrive <= e.Sent {
		t.Fatalf("arrival %v not after send %v", e.Arrive, e.Sent)
	}
}

func TestTryRecv(t *testing.T) {
	w := newTestWorld(t, 2)
	if _, ok := w.Endpoint(1).TryRecv(); ok {
		t.Fatal("TryRecv on empty mailbox returned ok")
	}
	w.Endpoint(0).Send(&Envelope{Dst: 1})
	// Delivery is synchronous (push happens inside Send), so it is queued.
	if _, ok := w.Endpoint(1).TryRecv(); !ok {
		t.Fatal("TryRecv after Send returned !ok")
	}
}

func TestRecvAfterCloseReturnsNil(t *testing.T) {
	w := newTestWorld(t, 1)
	var e *Envelope
	var wg sync.WaitGroup
	wg.Add(1)
	w.Spawn(0, func() { defer wg.Done(); e = w.Endpoint(0).Recv() })
	w.Close()
	join(t, &wg)
	if e != nil {
		t.Fatalf("Recv after close = %+v, want nil", e)
	}
}

func TestMailboxFIFO(t *testing.T) {
	w := newTestWorld(t, 2)
	for i := 0; i < 10; i++ {
		w.Endpoint(0).Send(&Envelope{Dst: 1, Tag: int32(i)})
	}
	for i := 0; i < 10; i++ {
		e := w.Endpoint(1).Recv()
		if e.Tag != int32(i) {
			t.Fatalf("message %d has tag %d; mailbox not FIFO", i, e.Tag)
		}
	}
}

func TestPending(t *testing.T) {
	w := newTestWorld(t, 2)
	if got := w.Endpoint(1).Pending(); got != 0 {
		t.Fatalf("Pending = %d, want 0", got)
	}
	w.Endpoint(0).Send(&Envelope{Dst: 1})
	w.Endpoint(0).Send(&Envelope{Dst: 1})
	if got := w.Endpoint(1).Pending(); got != 2 {
		t.Fatalf("Pending = %d, want 2", got)
	}
}

func TestOOBSendRecv(t *testing.T) {
	w := newTestWorld(t, 3)
	w.OOB().Send(0, 2, "ckpt", "hello")
	w.OOB().Send(1, 2, "other", 42)
	// Tagged receive skips non-matching messages.
	src, v, ok := w.OOB().Recv(2, "other")
	if !ok || src != 1 || v.(int) != 42 {
		t.Fatalf("Recv(other) = %d %v %v", src, v, ok)
	}
	src, v, ok = w.OOB().Recv(2, "ckpt")
	if !ok || src != 0 || v.(string) != "hello" {
		t.Fatalf("Recv(ckpt) = %d %v %v", src, v, ok)
	}
}

func TestOOBExchange(t *testing.T) {
	const n = 8
	w := newTestWorld(t, n)
	var wg sync.WaitGroup
	results := make([][][]byte, n)
	for r := 0; r < n; r++ {
		r := r
		wg.Add(1)
		w.Spawn(r, func() {
			defer wg.Done()
			results[r] = w.OOB().Exchange(r, []byte(fmt.Sprintf("rank%d", r)))
		})
	}
	join(t, &wg)
	for r := 0; r < n; r++ {
		if len(results[r]) != n {
			t.Fatalf("rank %d got %d slots", r, len(results[r]))
		}
		for s := 0; s < n; s++ {
			want := fmt.Sprintf("rank%d", s)
			if string(results[r][s]) != want {
				t.Fatalf("rank %d slot %d = %q, want %q", r, s, results[r][s], want)
			}
		}
	}
}

// Exchange must be reusable across generations without cross-talk, even when
// some ranks race ahead into the next generation.
func TestOOBExchangeGenerations(t *testing.T) {
	const n, rounds = 6, 25
	w := newTestWorld(t, n)
	var wg sync.WaitGroup
	errs := make([]error, n)
	for r := 0; r < n; r++ {
		r := r
		wg.Add(1)
		w.Spawn(r, func() {
			defer wg.Done()
			for g := 0; g < rounds; g++ {
				out := w.OOB().Exchange(r, []byte{byte(g), byte(r)})
				for s, v := range out {
					if v[0] != byte(g) || v[1] != byte(s) {
						errs[r] = fmt.Errorf("rank %d gen %d slot %d: got %v", r, g, s, v)
						return
					}
				}
			}
		})
	}
	join(t, &wg)
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
}

func TestOOBExchangeClosedWorld(t *testing.T) {
	w := newTestWorld(t, 2)
	out := [][]byte{}
	var wg sync.WaitGroup
	wg.Add(1)
	w.Spawn(0, func() { defer wg.Done(); out = w.OOB().Exchange(0, []byte("x")) })
	w.Spawn(1, func() {}) // never deposits
	time.Sleep(10 * time.Millisecond)
	w.Close()
	join(t, &wg)
	if out != nil {
		t.Fatalf("Exchange on closed world = %v, want nil", out)
	}
}

func TestInterNodeArrivalLaterThanIntra(t *testing.T) {
	cfg := simnet.Discovery10GbE()
	cfg.JitterFrac = 0
	w, err := NewWorld(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	w.Endpoint(0).Send(&Envelope{Dst: 1, Payload: make([]byte, 64)})  // same node
	w.Endpoint(0).Send(&Envelope{Dst: 12, Payload: make([]byte, 64)}) // other node
	intra := w.Endpoint(1).Recv()
	inter := w.Endpoint(12).Recv()
	if inter.Arrive.Sub(inter.Sent) <= intra.Arrive.Sub(intra.Sent) {
		t.Fatalf("inter-node flight %v not slower than intra-node %v",
			inter.Arrive.Sub(inter.Sent), intra.Arrive.Sub(intra.Sent))
	}
}

// Kill models fail-stop endpoint death: the victim's queued mail drops,
// later sends to it vanish on the wire (the sender still pays its
// overhead), Alive flips, and the rest of the world keeps working.
func TestKillIsFailStop(t *testing.T) {
	w, err := NewWorld(simnet.SingleNode(3))
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	w.Endpoint(0).Send(&Envelope{Dst: 1, Payload: []byte("x")})
	w.Kill(1)
	if w.Alive(1) || !w.Alive(0) || !w.Alive(2) {
		t.Fatalf("liveness after Kill(1): %v %v %v", w.Alive(0), w.Alive(1), w.Alive(2))
	}
	if w.Alive(-1) || w.Alive(99) {
		t.Fatal("out-of-range ranks reported alive")
	}
	// The dead endpoint's mailbox is closed and drained.
	if e := w.Endpoint(1).Recv(); e != nil {
		t.Fatalf("dead endpoint received %+v", e)
	}
	// A send to the dead rank is dropped, but the sender's clock still
	// advances by the send overhead.
	before := w.Endpoint(0).Clock().Now()
	w.Endpoint(0).Send(&Envelope{Dst: 1, Payload: []byte("y")})
	if w.Endpoint(0).Clock().Now() <= before {
		t.Fatal("sender paid no overhead for a send to a dead rank")
	}
	if w.Endpoint(1).Pending() != 0 {
		t.Fatal("send to a dead rank was queued")
	}
	// Survivors still communicate.
	w.Endpoint(0).Send(&Envelope{Dst: 2, Payload: []byte("z")})
	if e := w.Endpoint(2).Recv(); e == nil || string(e.Payload) != "z" {
		t.Fatalf("survivor traffic broken: %+v", e)
	}
	// Kill is idempotent.
	w.Kill(1, 1)
}

func BenchmarkSendRecv(b *testing.B) {
	w, err := NewWorld(simnet.SingleNode(2))
	if err != nil {
		b.Fatal(err)
	}
	defer w.Close()
	payload := make([]byte, 256)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		w.Endpoint(0).Send(&Envelope{Dst: 1, Payload: payload})
		w.Endpoint(1).Recv()
	}
}
