// Package trace is the runtime's virtual-time event sink: a structured
// record of what every rank did and when, stamped with the simulated
// cluster's clocks rather than the host's, so a trace is a deterministic
// artifact of the seed — two runs of the same cell produce
// byte-identical trace files, which makes the trace itself a
// differential-testing surface.
//
// The object model mirrors how the runtime executes:
//
//	Sink  — one traced cell or job: a bag of legs.
//	Leg   — one launch of a world (the initial launch, or one restart
//	        leg of a recovery cycle). Restart legs REWIND virtual
//	        clocks to the checkpoint image, so per-leg separation is
//	        what keeps every track's timestamps monotonic. A leg is one
//	        Perfetto "process" (pid).
//	Track — one rank's event buffer within a leg (one Perfetto
//	        "thread", tid = rank), appended to ONLY by the owning rank
//	        goroutine or fiber: no locks on the hot path. Each leg also
//	        carries one mutex-guarded driver track (tid = rank count)
//	        for events the recovery drivers and the scenario engine
//	        emit from outside any rank.
//
// Disabled is the default and costs nothing: a nil *Sink produces nil
// legs, nil legs produce nil tracks, and every method no-ops on a nil
// receiver. Emission sites guard with a nil check before building
// arguments, so an untraced run's hot path is a pointer compare.
//
// Export is Chrome trace-event JSON (chrome.go), loadable in Perfetto.
package trace

import (
	"sync"

	"repro/internal/simnet"
)

// SchemaVersion stamps exported trace files; bump it whenever the event
// vocabulary or the JSON shape changes incompatibly.
const SchemaVersion = 1

// Event categories: which layer of the stack emitted the event.
// CatSched marks engine-internal events (fiber park/wake, batch drains)
// rather than MPI-visible work.
const (
	CatFabric = "fabric" // envelope send/deliver
	CatSched  = "sched"  // engine-internal: park/wake, batch drain
	CatP2P    = "p2p"    // point-to-point matching
	CatColl   = "coll"   // collective algorithms and rounds
	CatUlfm   = "ulfm"   // failure notices, revoke, shrink, agree
	CatRepl   = "repl"   // replication: duplicate, dedup, promotion
	CatCkpt   = "ckpt"   // checkpoint/restore legs, recovery decisions
	CatCell   = "cell"   // scenario cell lifecycle
)

// Phases, with Chrome trace-event "ph" values: Begin/End bracket a
// nested slice, Span is a complete slice (begin + duration in one
// event), Instant is a point marker.
const (
	PhaseBegin   = byte('B')
	PhaseEnd     = byte('E')
	PhaseSpan    = byte('X')
	PhaseInstant = byte('i')
)

// Arg is one key/value annotation on an event. Args are an ordered
// slice, never a map: export iterates them in emission order, which is
// part of the byte-determinism contract.
type Arg struct {
	Key, Val string
}

// Event is one trace record. Ts (and Dur, for spans) are virtual
// nanoseconds from the emitting rank's simnet clock.
type Event struct {
	Name string
	Cat  string
	Ph   byte
	Ts   simnet.Time
	Dur  simnet.Time // PhaseSpan only
	Args []Arg
}

// Track is one rank's (or the driver's) event buffer within a leg.
// Rank tracks are single-writer by construction — only the owning rank
// goroutine/fiber appends — so emission takes no lock.
type Track struct {
	tid    int
	name   string
	events []Event
}

// Begin opens a nested slice at ts.
func (t *Track) Begin(cat, name string, ts simnet.Time, args ...Arg) {
	if t == nil {
		return
	}
	t.events = append(t.events, Event{Name: name, Cat: cat, Ph: PhaseBegin, Ts: ts, Args: args})
}

// End closes the innermost open slice of the same name at ts.
func (t *Track) End(cat, name string, ts simnet.Time) {
	if t == nil {
		return
	}
	t.events = append(t.events, Event{Name: name, Cat: cat, Ph: PhaseEnd, Ts: ts})
}

// Span records a complete slice covering [from, to].
func (t *Track) Span(cat, name string, from, to simnet.Time, args ...Arg) {
	if t == nil {
		return
	}
	d := to - from
	if d < 0 {
		d = 0
	}
	t.events = append(t.events, Event{Name: name, Cat: cat, Ph: PhaseSpan, Ts: from, Dur: d, Args: args})
}

// Instant records a point marker at ts.
func (t *Track) Instant(cat, name string, ts simnet.Time, args ...Arg) {
	if t == nil {
		return
	}
	t.events = append(t.events, Event{Name: name, Cat: cat, Ph: PhaseInstant, Ts: ts, Args: args})
}

// Events returns the recorded events. Callers must not read while the
// owning rank is still running.
func (t *Track) Events() []Event {
	if t == nil {
		return nil
	}
	return t.events
}

// Leg is one world launch: a set of per-rank tracks plus the driver
// track. One Perfetto process (pid).
type Leg struct {
	pid    int
	name   string
	tracks []*Track

	mu     sync.Mutex
	driver *Track
}

// Track returns rank r's track, or nil (out of range, nil leg).
func (l *Leg) Track(r int) *Track {
	if l == nil || r < 0 || r >= len(l.tracks) {
		return nil
	}
	return l.tracks[r]
}

// Ranks returns the number of rank tracks.
func (l *Leg) Ranks() int {
	if l == nil {
		return 0
	}
	return len(l.tracks)
}

// Name returns the leg's display name.
func (l *Leg) Name() string {
	if l == nil {
		return ""
	}
	return l.name
}

// Driver records an instant on the leg's driver track. Unlike rank
// tracks it may be called from any goroutine (recovery drivers, the
// scenario engine), so it locks.
func (l *Leg) Driver(cat, name string, ts simnet.Time, args ...Arg) {
	if l == nil {
		return
	}
	l.mu.Lock()
	l.driver.Instant(cat, name, ts, args...)
	l.mu.Unlock()
}

// DriverSpan records a complete slice on the driver track.
func (l *Leg) DriverSpan(cat, name string, from, to simnet.Time, args ...Arg) {
	if l == nil {
		return
	}
	l.mu.Lock()
	l.driver.Span(cat, name, from, to, args...)
	l.mu.Unlock()
}

// Sink collects one traced run's legs. A nil Sink is the disabled
// state: NewLeg returns nil and every emission downstream no-ops.
type Sink struct {
	mu   sync.Mutex
	legs []*Leg
}

// NewSink returns an enabled, empty sink.
func NewSink() *Sink { return &Sink{} }

// NewLeg opens a new leg named name with ranks rank tracks (plus the
// driver track). Legs are numbered in creation order; on a nil sink it
// returns nil.
func (s *Sink) NewLeg(name string, ranks int) *Leg {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	l := &Leg{pid: len(s.legs), name: name}
	l.tracks = make([]*Track, ranks)
	for i := range l.tracks {
		l.tracks[i] = &Track{tid: i, name: "rank " + itoa(i)}
	}
	l.driver = &Track{tid: ranks, name: "driver"}
	s.legs = append(s.legs, l)
	return l
}

// Legs returns the sink's legs in creation order. Callers must not read
// while traced ranks are still running.
func (s *Sink) Legs() []*Leg {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]*Leg(nil), s.legs...)
}

// itoa is strconv.Itoa without the import spread at emission sites.
func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	neg := n < 0
	if neg {
		n = -n
	}
	var buf [20]byte
	i := len(buf)
	for n > 0 {
		i--
		buf[i] = byte('0' + n%10)
		n /= 10
	}
	if neg {
		i--
		buf[i] = '-'
	}
	return string(buf[i:])
}

// Itoa formats an int for event args.
func Itoa(n int) string { return itoa(n) }
