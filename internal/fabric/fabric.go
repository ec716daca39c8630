// Package fabric is the physical substrate shared by every simulated MPI
// implementation: a World of rank endpoints connected by the simnet cost
// model, plus an out-of-band control plane used by launchers, the
// checkpoint coordinator, and MANA's drain protocol.
//
// In the paper's terms, fabric is the testbed hardware underneath the
// three-legged stool (Section 5.1's 4-node 10 GbE Discovery partition):
// every stack combination the evaluation compares runs over this same
// substrate, which is what makes the overheads of Figures 2-6
// attributable to the software layers alone.
//
// fabric deliberately knows nothing about MPI semantics. It moves opaque
// envelopes between endpoints and stamps virtual arrival times; message
// matching, protocols (eager/rendezvous) and collectives belong to the MPI
// implementations built on top (internal/mpich, internal/openmpi).
package fabric

import (
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/simnet"
	"repro/internal/trace"
	"repro/internal/ulfm"
)

// Proto identifies the wire protocol step an envelope belongs to. The two
// MPI implementations use these differently (different eager thresholds and
// rendezvous flows), but the vocabulary is shared by the wire.
type Proto uint8

// Wire protocol steps.
const (
	ProtoEager Proto = iota // payload travels with the envelope
	ProtoRTS                // rendezvous request-to-send (header only)
	ProtoCTS                // rendezvous clear-to-send
	ProtoData               // rendezvous payload
	ProtoColl               // internal collective traffic
	ProtoCtrl               // implementation-internal control
)

// protoNames are the trace-event labels for the wire protocol steps.
var protoNames = [...]string{"eager", "rts", "cts", "data", "coll", "ctrl"}

// String names the protocol step (trace args, diagnostics).
func (p Proto) String() string {
	if int(p) < len(protoNames) {
		return protoNames[p]
	}
	return "proto" + trace.Itoa(int(p))
}

// Envelope is one message on the wire. Payload is owned by the receiver
// after delivery; senders must not retain it. Hot-path senders obtain
// envelopes from GetEnvelope and receivers return fully-consumed ones
// with PutEnvelope; an envelope handed to Send/SendOwned belongs to the
// fabric and must not be reused by the sender.
type Envelope struct {
	Src, Dst int
	CID      uint32 // communicator context id
	Tag      int32
	Proto    Proto
	Seq      uint64 // rendezvous sequence number, assigned by sender
	Round    int32  // collective round discriminator
	Hdr      uint64 // protocol header word (e.g. RTS payload length)
	Payload  []byte

	Sent   simnet.Time // sender's clock at send
	Arrive simnet.Time // computed by the network model
}

// envPool recycles Envelope structs across the send/dispatch hot path.
// At 4096 ranks a single allreduce creates hundreds of thousands of
// envelopes; pooling them (and their one-per-message header allocations)
// is a large share of what makes such worlds cheap.
var envPool = sync.Pool{New: func() any { return new(Envelope) }}

// GetEnvelope returns a zeroed envelope from the pool.
func GetEnvelope() *Envelope { return envPool.Get().(*Envelope) }

// PutEnvelope recycles an envelope the caller has fully consumed: no
// field — Payload included — may be referenced after the call. Receivers
// that retain an envelope's payload (unexpected-queue buffering) must
// not recycle it until the payload is consumed too.
func PutEnvelope(e *Envelope) {
	*e = Envelope{}
	envPool.Put(e)
}

// mailbox is an unbounded FIFO of envelopes with blocking receive: the
// owning fiber parks in the scheduler while it is empty, and a push
// marks it runnable.
type mailbox struct {
	mu     sync.Mutex
	queue  []*Envelope
	closed bool
	sched  *sched
	owner  int // owning rank, for sched wakes

	// tr and clk instrument park/wake (trace.CatSched).
	// Written only before the world starts (SetTrace); park events are
	// emitted by the parking fiber itself, preserving the track's
	// single-writer discipline.
	tr  *trace.Track
	clk *simnet.Clock
}

func (m *mailbox) push(e *Envelope) {
	m.mu.Lock()
	m.queue = append(m.queue, e)
	m.mu.Unlock()
	m.sched.wake(m.owner)
}

// park parks the owning fiber until the next push or close. Callers
// release m.mu first (the successor fiber may need it); the scheduler's
// pending bit closes the unlock→park window.
func (m *mailbox) park() {
	if tr := m.tr; tr != nil {
		tr.Instant(trace.CatSched, "park", m.clk.Now())
	}
	m.sched.park(m.owner)
	if tr := m.tr; tr != nil {
		tr.Instant(trace.CatSched, "wake", m.clk.Now())
	}
}

// pop blocks until an envelope is available or the mailbox is closed.
// It returns nil once closed and drained.
func (m *mailbox) pop() *Envelope {
	m.mu.Lock()
	for len(m.queue) == 0 && !m.closed {
		m.mu.Unlock()
		m.park()
		m.mu.Lock()
	}
	var e *Envelope
	if len(m.queue) > 0 {
		e = m.queue[0]
		m.queue = m.queue[1:]
	}
	m.mu.Unlock()
	return e
}

// tryPop returns the next envelope without blocking.
func (m *mailbox) tryPop() (*Envelope, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if len(m.queue) == 0 {
		return nil, false
	}
	e := m.queue[0]
	m.queue = m.queue[1:]
	return e, true
}

// popBatch blocks like pop but drains the ENTIRE queue in one lock
// acquisition, appending to buf in arrival order. It returns the grown
// buf, or buf unchanged once the mailbox is closed and drained. Batching
// replaces per-message lock/wakeup hops with one hop per burst — the
// receive-side half of the hot-path refactor.
func (m *mailbox) popBatch(buf []*Envelope) []*Envelope {
	m.mu.Lock()
	for len(m.queue) == 0 && !m.closed {
		m.mu.Unlock()
		m.park()
		m.mu.Lock()
	}
	buf = append(buf, m.queue...)
	clearEnvSlice(m.queue)
	m.queue = m.queue[:0]
	m.mu.Unlock()
	return buf
}

// tryPopBatch drains the queue without blocking.
func (m *mailbox) tryPopBatch(buf []*Envelope) []*Envelope {
	m.mu.Lock()
	buf = append(buf, m.queue...)
	clearEnvSlice(m.queue)
	m.queue = m.queue[:0]
	m.mu.Unlock()
	return buf
}

// clearEnvSlice nils out a drained queue so the retained backing array
// does not pin envelopes (they are pooled and must be collectible by
// their next owner alone).
func clearEnvSlice(q []*Envelope) {
	for i := range q {
		q[i] = nil
	}
}

func (m *mailbox) close() {
	m.mu.Lock()
	m.closed = true
	m.mu.Unlock()
	m.sched.wake(m.owner)
}

// purge drops queued envelopes (fail-stop death: a dead host's inbound
// queue is gone, not readable posthumously; contrast close, which lets
// a graceful shutdown drain).
func (m *mailbox) purge() {
	m.mu.Lock()
	m.queue = nil
	m.mu.Unlock()
}

func (m *mailbox) len() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.queue)
}

// World is one simulated cluster run: n rank endpoints over a shared
// network, plus the out-of-band plane.
type World struct {
	cfg     simnet.Config
	net     *simnet.Network
	eps     []*Endpoint
	dead    []atomic.Bool // per-rank fail-stop flag (see Kill)
	oob     *OOB
	sched   *sched
	leg     *trace.Leg // non-nil iff the world is traced (see SetTrace)
	logical int        // logical rank count on a replicated world (0 = unreplicated)
	once    sync.Once
}

// NewWorld builds a world for cfg.Size() ranks. Every rank-driving
// goroutine must be started via Spawn; Send, Kill/NotifyFailure, OOB
// sends and Close may come from any goroutine.
func NewWorld(cfg simnet.Config) (*World, error) {
	net, err := simnet.NewNetwork(cfg)
	if err != nil {
		return nil, err
	}
	n := cfg.Size()
	s := newSched(n)
	w := &World{cfg: cfg, net: net, oob: newOOB(n, s), dead: make([]atomic.Bool, n), sched: s}
	w.eps = make([]*Endpoint, n)
	for i := range w.eps {
		w.eps[i] = &Endpoint{world: w, rank: i, in: &mailbox{sched: s, owner: i}}
	}
	return w, nil
}

// NewReplicatedWorld builds a world for cfg.Size() LOGICAL ranks, each
// backed by a primary + shadow pair of physical endpoints — the
// FTHP-MPI-style active-replication substrate. cfg describes the
// logical cluster; the world doubles the node count so every shadow
// lives on a different node than its primary (a node crash never takes
// both replicas of a pair), giving Size() == 2×cfg.Size() physical
// endpoints. Logical rank r is backed by physical primary r and
// physical shadow r+n; the mapping is fixed for the world's lifetime —
// promotion after a primary death is pure bookkeeping in the layers
// above, never a renumbering here.
//
// The fabric stays replication-agnostic on the data path: endpoints
// send and receive by physical rank exactly as on any other world, and
// the duplicate-send / receive-dedup protocol belongs to the MPI
// runtime built on top (internal/mpicore). The world only records the
// logical shape so that runtime can recover it.
func NewReplicatedWorld(cfg simnet.Config) (*World, error) {
	phys := cfg
	phys.Nodes *= 2
	w, err := NewWorld(phys)
	if err != nil {
		return nil, err
	}
	w.logical = cfg.Size()
	return w, nil
}

// Size returns the number of ranks.
func (w *World) Size() int { return len(w.eps) }

// Replicated reports whether the world was built by NewReplicatedWorld
// (every logical rank backed by a primary + shadow physical pair).
func (w *World) Replicated() bool { return w.logical > 0 }

// LogicalSize returns the number of logical ranks: Size() on an
// unreplicated world, Size()/2 on a replicated one.
func (w *World) LogicalSize() int {
	if w.logical > 0 {
		return w.logical
	}
	return len(w.eps)
}

// Replicas returns the physical ranks backing logical rank lr on a
// replicated world: the primary (lr) and its shadow (lr + LogicalSize).
func (w *World) Replicas(lr int) (primary, shadow int) {
	return lr, lr + w.logical
}

// Config returns the simnet configuration.
func (w *World) Config() simnet.Config { return w.cfg }

// Network exposes the cost model (used by implementations to price
// collective phases that do not map one-to-one onto envelopes).
func (w *World) Network() *simnet.Network { return w.net }

// Endpoint returns rank r's endpoint.
func (w *World) Endpoint(r int) *Endpoint {
	if r < 0 || r >= len(w.eps) {
		panic(fmt.Sprintf("fabric: endpoint rank %d out of range [0,%d)", r, len(w.eps)))
	}
	return w.eps[r]
}

// OOB returns the out-of-band control plane.
func (w *World) OOB() *OOB { return w.oob }

// SetTrace attaches a trace leg to the world: every endpoint caches its
// per-rank track so emission is a field load plus a nil check. Must be
// called before any rank goroutine starts (the fields are read without
// synchronization on the hot path). A nil leg leaves the world untraced.
func (w *World) SetTrace(l *trace.Leg) {
	if l == nil {
		return
	}
	w.leg = l
	for i, ep := range w.eps {
		ep.tr = l.Track(i)
		ep.in.tr = ep.tr
		ep.in.clk = &ep.clock
	}
}

// TraceLeg returns the world's trace leg, or nil when untraced.
func (w *World) TraceLeg() *trace.Leg { return w.leg }

// Kill marks ranks dead (fail-stop): their inbound mailboxes close,
// dropping queued envelopes, and subsequent Sends addressed to them
// vanish on the wire, exactly as messages to a powered-off node do.
// Kill does not release peers blocked waiting on the dead ranks' traffic
// — that is the failure-detection layer's job (internal/core records the
// RankFailure and closes the world).
func (w *World) Kill(ranks ...int) {
	for _, r := range ranks {
		if r < 0 || r >= len(w.eps) {
			continue
		}
		if !w.dead[r].Swap(true) {
			w.eps[r].in.close()
			w.eps[r].in.purge()
		}
	}
}

// NotifyFailure broadcasts a fail-stop failure notice for the given
// ranks to every surviving endpoint's mailbox — the fabric analog of the
// runtime failure detector ULFM specifies. The notice is a ProtoCtrl
// envelope (tag ulfm.CtrlFailure, payload the dead world ranks), and the
// push is what wakes peers blocked waiting on the dead ranks' traffic so
// their pending operations can complete with the proc-failed error
// instead of hanging. Callers Kill first, then NotifyFailure; contrast
// Close, which tears the whole job down (the fail-stop fatal path).
func (w *World) NotifyFailure(ranks ...int) {
	payload := ulfm.EncodeRanks(ranks)
	for r, ep := range w.eps {
		if w.dead[r].Load() {
			continue
		}
		ep.in.push(&Envelope{
			Src: -1, Dst: r, Proto: ProtoCtrl, Tag: ulfm.CtrlFailure,
			Payload: payload,
		})
	}
}

// Alive reports whether rank r has not been killed.
func (w *World) Alive(r int) bool {
	if r < 0 || r >= len(w.dead) {
		return false
	}
	return !w.dead[r].Load()
}

// Close shuts every mailbox down, releasing blocked receivers.
func (w *World) Close() {
	w.once.Do(func() {
		for _, ep := range w.eps {
			ep.in.close()
		}
		w.oob.close()
	})
}

// Endpoint is one rank's attachment point: a virtual clock and an inbound
// mailbox. The owning rank fiber calls Recv/TryRecv; any rank may Send
// to it.
type Endpoint struct {
	world *World
	rank  int
	clock simnet.Clock
	in    *mailbox
	tr    *trace.Track // non-nil iff the world is traced
}

// Rank returns the endpoint's rank in the world.
func (ep *Endpoint) Rank() int { return ep.rank }

// Trace returns the rank's trace track, or nil when the world is
// untraced. Layers above cache it (mpicore's Proc) so their emission
// sites share the endpoint's nil-check fast path.
func (ep *Endpoint) Trace() *trace.Track { return ep.tr }

// Clock returns the rank's virtual clock.
func (ep *Endpoint) Clock() *simnet.Clock { return &ep.clock }

// World returns the world the endpoint belongs to.
func (ep *Endpoint) World() *World { return ep.world }

// Send prices the envelope on the network and delivers it to the
// destination mailbox. The payload is copied, mirroring MPI's buffer
// ownership semantics, and the sender's clock is advanced by the per-message
// send overhead. Send never blocks (mailboxes are unbounded).
func (ep *Endpoint) Send(e *Envelope) { ep.send(e, true) }

// SendOwned is Send minus the defensive payload copy: the caller
// transfers ownership of e.Payload to the receiver. Legal ONLY when the
// payload is freshly allocated for this message and the sender never
// touches it again — a packed p2p buffer qualifies; a collective
// accumulator that the algorithm keeps reducing into does not (the
// receiver would observe the sender's later mutations).
func (ep *Endpoint) SendOwned(e *Envelope) { ep.send(e, false) }

func (ep *Endpoint) send(e *Envelope, copyPayload bool) {
	if e.Dst < 0 || e.Dst >= ep.world.Size() {
		panic(fmt.Sprintf("fabric: send to rank %d out of range [0,%d)", e.Dst, ep.world.Size()))
	}
	e.Src = ep.rank
	ep.clock.Advance(ep.world.cfg.SendOverhead)
	e.Sent = ep.clock.Now()
	if tr := ep.tr; tr != nil {
		// Emitted before the push: once the envelope is handed to the
		// destination mailbox its fields belong to the receiver.
		tr.Instant(trace.CatFabric, "send", e.Sent,
			trace.Arg{Key: "dst", Val: trace.Itoa(e.Dst)},
			trace.Arg{Key: "proto", Val: e.Proto.String()},
			trace.Arg{Key: "bytes", Val: trace.Itoa(len(e.Payload))})
	}
	if ep.world.dead[e.Dst].Load() {
		// The sender pays its per-message overhead; the envelope is lost.
		return
	}
	if copyPayload && e.Payload != nil {
		p := make([]byte, len(e.Payload))
		copy(p, e.Payload)
		e.Payload = p
	}
	e.Arrive = ep.world.net.Transfer(ep.rank, e.Dst, len(e.Payload), e.Sent)
	ep.world.eps[e.Dst].in.push(e)
}

// Recv blocks for the next inbound envelope, advances the local clock to
// the arrival time plus receive overhead, and returns it. Returns nil when
// the world is closed.
func (ep *Endpoint) Recv() *Envelope {
	e := ep.in.pop()
	if e == nil {
		return nil
	}
	ep.AccountRecv(e)
	return e
}

// TryRecv returns the next inbound envelope if one is queued.
func (ep *Endpoint) TryRecv() (*Envelope, bool) {
	e, ok := ep.in.tryPop()
	if !ok {
		return nil, false
	}
	ep.AccountRecv(e)
	return e, true
}

// RecvBatch blocks for inbound traffic and drains the whole mailbox into
// buf in arrival order, one lock hop for the burst. Unlike Recv it does
// NOT touch the clock: the caller accounts each envelope with
// AccountRecv as it dispatches it, which keeps the virtual-time
// arithmetic bit-identical to a sequence of Recv calls (the clock
// advances per message, in the same order, by the same amounts).
// Returns buf unchanged once the world is closed and the queue drained.
func (ep *Endpoint) RecvBatch(buf []*Envelope) []*Envelope {
	out := ep.in.popBatch(buf)
	if tr := ep.tr; tr != nil && len(out) > len(buf) {
		tr.Instant(trace.CatSched, "drain", ep.clock.Now(),
			trace.Arg{Key: "count", Val: trace.Itoa(len(out) - len(buf))})
	}
	return out
}

// TryRecvBatch is RecvBatch without blocking.
func (ep *Endpoint) TryRecvBatch(buf []*Envelope) []*Envelope {
	out := ep.in.tryPopBatch(buf)
	if tr := ep.tr; tr != nil && len(out) > len(buf) {
		tr.Instant(trace.CatSched, "drain", ep.clock.Now(),
			trace.Arg{Key: "count", Val: trace.Itoa(len(out) - len(buf))})
	}
	return out
}

// AccountRecv applies one envelope's receive-side clock cost: advance to
// its arrival time, then pay the per-message receive overhead — exactly
// what Recv does after pop.
func (ep *Endpoint) AccountRecv(e *Envelope) {
	ep.clock.AdvanceTo(e.Arrive)
	ep.clock.Advance(ep.world.cfg.RecvOverhead)
	if tr := ep.tr; tr != nil {
		tr.Instant(trace.CatFabric, "deliver", ep.clock.Now(),
			trace.Arg{Key: "src", Val: trace.Itoa(e.Src)},
			trace.Arg{Key: "proto", Val: e.Proto.String()},
			trace.Arg{Key: "bytes", Val: trace.Itoa(len(e.Payload))})
	}
}

// Pending reports the number of queued inbound envelopes (used by drain
// logic and tests).
func (ep *Endpoint) Pending() int { return ep.in.len() }
