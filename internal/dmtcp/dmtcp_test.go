package dmtcp

import (
	"fmt"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"repro/internal/fabric"
	"repro/internal/simnet"
)

// runAgents drives n agents through `steps` safe points with the given
// per-rank serializer, returning each rank's decisions.
func runAgents(t *testing.T, c *Coordinator, n, steps int, plugin Plugin) [][]Decision {
	t.Helper()
	out := make([][]Decision, n)
	var wg sync.WaitGroup
	for r := 0; r < n; r++ {
		r := r
		wg.Add(1)
		c.w.Spawn(r, func() {
			defer wg.Done()
			a := c.NewAgent(r)
			for s := 0; s < steps; s++ {
				d, err := a.SafePoint(func() ([]byte, error) {
					return []byte(fmt.Sprintf("rank%d-step%d", r, s)), nil
				}, plugin)
				if err != nil {
					t.Errorf("rank %d step %d: %v", r, s, err)
					return
				}
				out[r] = append(out[r], d)
				if d == DecisionExit {
					return
				}
			}
		})
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(20 * time.Second):
		t.Fatal("agents timed out")
	}
	return out
}

func newWorld(t *testing.T, n int) *fabric.World {
	t.Helper()
	w, err := fabric.NewWorld(simnet.SingleNode(n))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(w.Close)
	return w
}

func TestSafePointWithoutRequest(t *testing.T) {
	w := newWorld(t, 4)
	c := NewCoordinator(w, Meta{Impl: "mpich", Program: "p"})
	decisions := runAgents(t, c, 4, 3, NopPlugin{})
	for r, ds := range decisions {
		for s, d := range ds {
			if d != DecisionContinue {
				t.Fatalf("rank %d step %d decision %v, want Continue", r, s, d)
			}
		}
	}
}

func TestCheckpointContinueWritesImages(t *testing.T) {
	w := newWorld(t, 3)
	c := NewCoordinator(w, Meta{Impl: "openmpi", StandardABI: true, Program: "prog"})
	dir := filepath.Join(t.TempDir(), "imgs")
	errCh := c.RequestCheckpoint(dir, false)
	decisions := runAgents(t, c, 3, 2, NopPlugin{})
	if err := <-errCh; err != nil {
		t.Fatal(err)
	}
	sawCkpt := false
	for _, ds := range decisions {
		for _, d := range ds {
			if d == DecisionCheckpointed {
				sawCkpt = true
			}
		}
	}
	if !sawCkpt {
		t.Fatal("no rank observed the checkpoint")
	}
	meta, err := ReadMeta(dir)
	if err != nil {
		t.Fatal(err)
	}
	if meta.NumRanks != 3 || meta.Impl != "openmpi" || !meta.StandardABI || meta.Program != "prog" {
		t.Fatalf("meta = %+v", meta)
	}
	for r := 0; r < 3; r++ {
		img, err := ReadRankImage(dir, r)
		if err != nil {
			t.Fatal(err)
		}
		if img.Rank != r || len(img.ProgState) == 0 {
			t.Fatalf("rank image %d = %+v", r, img)
		}
		if string(img.ProgState) != fmt.Sprintf("rank%d-step0", r) {
			t.Fatalf("state = %q", img.ProgState)
		}
	}
}

func TestCheckpointExitStopsRanks(t *testing.T) {
	w := newWorld(t, 2)
	c := NewCoordinator(w, Meta{Impl: "mpich"})
	dir := filepath.Join(t.TempDir(), "imgs")
	errCh := c.RequestCheckpoint(dir, true)
	decisions := runAgents(t, c, 2, 5, NopPlugin{})
	if err := <-errCh; err != nil {
		t.Fatal(err)
	}
	for r, ds := range decisions {
		if len(ds) != 1 || ds[0] != DecisionExit {
			t.Fatalf("rank %d decisions = %v, want one Exit", r, ds)
		}
	}
}

func TestDoubleRequestRejected(t *testing.T) {
	w := newWorld(t, 1)
	c := NewCoordinator(w, Meta{})
	_ = c.RequestCheckpoint(t.TempDir(), false)
	errCh2 := c.RequestCheckpoint(t.TempDir(), false)
	if err := <-errCh2; err == nil {
		t.Fatal("second concurrent request accepted")
	}
}

func TestAbortPending(t *testing.T) {
	w := newWorld(t, 1)
	c := NewCoordinator(w, Meta{})
	errCh := c.RequestCheckpoint(t.TempDir(), false)
	c.AbortPending(fmt.Errorf("job done"))
	if err := <-errCh; err == nil {
		t.Fatal("aborted request reported success")
	}
	// Coordinator is closed: further requests fail fast.
	if err := <-c.RequestCheckpoint(t.TempDir(), false); err == nil {
		t.Fatal("request after close accepted")
	}
}

func TestReadMetaMissing(t *testing.T) {
	if _, err := ReadMeta(filepath.Join(t.TempDir(), "nope")); err == nil {
		t.Fatal("missing meta read succeeded")
	}
	if _, err := ReadRankImage(t.TempDir(), 0); err == nil {
		t.Fatal("missing rank image read succeeded")
	}
}

// failingPlugin simulates a drain failure on one rank; the checkpoint must
// report failure to the requester but leave the job running.
type failingPlugin struct{ rank int }

func (p failingPlugin) PreCheckpoint() ([]byte, error) {
	if p.rank == 1 {
		return nil, fmt.Errorf("injected drain failure")
	}
	return []byte("ok"), nil
}

func (p failingPlugin) Resume() error { return nil }

func TestPluginFailurePropagates(t *testing.T) {
	w := newWorld(t, 2)
	c := NewCoordinator(w, Meta{})
	errCh := c.RequestCheckpoint(filepath.Join(t.TempDir(), "x"), false)
	var wg sync.WaitGroup
	for r := 0; r < 2; r++ {
		r := r
		wg.Add(1)
		w.Spawn(r, func() {
			defer wg.Done()
			a := c.NewAgent(r)
			// The failing rank gets an error from SafePoint; the healthy
			// rank completes the protocol.
			_, _ = a.SafePoint(func() ([]byte, error) { return nil, nil }, failingPlugin{rank: r})
		})
	}
	wg.Wait()
	if err := <-errCh; err == nil {
		t.Fatal("plugin failure not reported to requester")
	}
}

func TestStepCounter(t *testing.T) {
	w := newWorld(t, 1)
	c := NewCoordinator(w, Meta{})
	a := c.NewAgent(0)
	if a.Step() != 0 {
		t.Fatal("fresh agent step != 0")
	}
	a.SetStep(41)
	if _, err := a.SafePoint(func() ([]byte, error) { return nil, nil }, NopPlugin{}); err != nil {
		t.Fatal(err)
	}
	if a.Step() != 42 {
		t.Fatalf("step = %d, want 42", a.Step())
	}
}
