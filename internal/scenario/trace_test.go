package scenario

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/faults"
)

// traceSpec is the acceptance cell: a rank crash recovered in place by
// ULFM shrink, whose trace must show the failure notice, the revoke,
// the agree rounds and the survivors' continued collectives.
func traceSpec() Spec {
	return Spec{
		Program: "app.comd", Impl: core.ImplMPICH, ABI: core.ABINative,
		Ckpt: core.CkptNone, Fault: faults.KindRankCrash, Recovery: RecoveryShrink,
	}
}

func traceOptions(t *testing.T) Options {
	t.Helper()
	return Options{
		Nodes: 2, RanksPerNode: 4, Reps: 2,
		MaxSize: 64, Iters: 2, Warmup: 1,
		AppScale: 0.01, Parallel: 1,
		Timeout: time.Minute, Scratch: t.TempDir(),
		TraceDir: t.TempDir(),
	}
}

func runTraced(t *testing.T) []byte {
	t.Helper()
	s := traceSpec()
	o := traceOptions(t)
	res := RunCell(s, o)
	if res.Status != StatusPass {
		t.Fatalf("traced cell %s: %s: %s", s.ID(), res.Status, res.Error)
	}
	raw, err := os.ReadFile(filepath.Join(o.TraceDir, TraceFileName(s.ID())))
	if err != nil {
		t.Fatalf("trace file not written: %v", err)
	}
	return raw
}

// TestTraceByteDeterminism: two runs of the same seeded
// cell must produce byte-identical trace files. Virtual timestamps and
// the single-token fiber scheduler make the whole trace — ordering,
// clocks, arguments — a pure function of the seed.
func TestTraceByteDeterminism(t *testing.T) {
	a := runTraced(t)
	b := runTraced(t)
	if !bytes.Equal(a, b) {
		t.Fatalf("traces differ between identical runs (%d vs %d bytes)", len(a), len(b))
	}
}

// traceEvent is the decoded Chrome trace-event shape the tests need.
type traceEvent struct {
	Name string          `json:"name"`
	Cat  string          `json:"cat"`
	Ph   string          `json:"ph"`
	Pid  int             `json:"pid"`
	Tid  int             `json:"tid"`
	Ts   float64         `json:"ts"`
	Dur  float64         `json:"dur"`
	S    string          `json:"s"`
	Args json.RawMessage `json:"args"`
}

func decodeTrace(t *testing.T, raw []byte) []traceEvent {
	t.Helper()
	var doc struct {
		SchemaVersion int          `json:"schemaVersion"`
		TraceEvents   []traceEvent `json:"traceEvents"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatalf("trace is not valid JSON: %v", err)
	}
	if doc.SchemaVersion != 1 {
		t.Fatalf("schemaVersion = %d, want 1", doc.SchemaVersion)
	}
	return doc.TraceEvents
}

// TestTracePerfettoValidity checks the structural properties Perfetto
// relies on: per-track B/E begin/end pairs balance in stack order, X
// spans carry non-negative durations, instants carry their scope, and
// every rank track's non-span timestamps are monotone (complete X
// spans are back-dated to their start by design, and the driver track
// aggregates foreign clocks, so both are exempt).
func TestTracePerfettoValidity(t *testing.T) {
	evs := decodeTrace(t, runTraced(t))

	type trackKey struct{ pid, tid int }
	tracks := make(map[trackKey][]traceEvent)
	driver := make(map[trackKey]bool)
	for _, e := range evs {
		k := trackKey{e.Pid, e.Tid}
		if e.Ph == "M" {
			if e.Name == "thread_name" && bytes.Contains(e.Args, []byte(`"driver"`)) {
				driver[k] = true
			}
			continue
		}
		tracks[k] = append(tracks[k], e)
	}
	if len(tracks) == 0 {
		t.Fatalf("no event tracks in trace")
	}
	for k, evs := range tracks {
		var stack []string
		lastTs := -1.0
		for _, e := range evs {
			switch e.Ph {
			case "B":
				stack = append(stack, e.Name)
			case "E":
				if len(stack) == 0 {
					t.Fatalf("track %v: E %q with no open B", k, e.Name)
				}
				top := stack[len(stack)-1]
				if top != e.Name {
					t.Fatalf("track %v: E %q closes open B %q", k, e.Name, top)
				}
				stack = stack[:len(stack)-1]
			case "X":
				if e.Dur < 0 {
					t.Fatalf("track %v: X %q with negative dur %v", k, e.Name, e.Dur)
				}
			case "i":
				if e.S != "t" {
					t.Fatalf("track %v: instant %q without thread scope", k, e.Name)
				}
			default:
				t.Fatalf("track %v: unknown phase %q", k, e.Ph)
			}
			if e.Ph != "X" && !driver[k] {
				if e.Ts < lastTs {
					t.Fatalf("track %v: timestamp regressed %v -> %v at %q", k, lastTs, e.Ts, e.Name)
				}
				lastTs = e.Ts
			}
		}
		if len(stack) != 0 {
			t.Fatalf("track %v: %d unclosed B slices (%v)", k, len(stack), stack)
		}
	}

	// The acceptance shape: the ULFM story must actually be in there.
	want := map[string]bool{"notice": false, "revoke": false, "agree-round": false, "shrink-recover": false}
	coll := false
	for _, e := range evs {
		if _, ok := want[e.Name]; ok {
			want[e.Name] = true
		}
		if e.Cat == "coll" {
			coll = true
		}
	}
	for name, seen := range want {
		if !seen {
			t.Errorf("traced shrink cell has no %q event", name)
		}
	}
	if !coll {
		t.Errorf("traced shrink cell has no collective events")
	}
}

// TestTraceDisabledByDefault: without TraceDir no trace plumbing runs
// and no file appears.
func TestTraceDisabledByDefault(t *testing.T) {
	s := traceSpec()
	o := traceOptions(t)
	dir := o.TraceDir
	o.TraceDir = ""
	res := RunCell(s, o)
	if res.Status != StatusPass {
		t.Fatalf("untraced cell: %s: %s", res.Status, res.Error)
	}
	if _, err := os.Stat(filepath.Join(dir, TraceFileName(s.ID()))); !os.IsNotExist(err) {
		t.Fatalf("trace file written with tracing disabled (err=%v)", err)
	}
}
