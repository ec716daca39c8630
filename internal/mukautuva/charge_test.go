package mukautuva_test

import (
	"testing"
	"time"

	"repro/internal/abi"
	"repro/internal/fabric"
	"repro/internal/mana"
	"repro/internal/mpich"
	"repro/internal/mukautuva"
	"repro/internal/simnet"
	"repro/internal/wi4mpi"
)

// TestShimChargesVirtualTime pins the per-call charge of every
// abi.Translator configuration exactly: N CommRank calls through the
// layer advance the rank's clock by N x cost more than the same calls
// through a bare native MPICH table. Abort, and MANA's two refused ULFM
// calls, charge nothing.
func TestShimChargesVirtualTime(t *testing.T) {
	const n = 10
	newMana := func(k mana.KernelVersion) func(w *fabric.World) (abi.FuncTable, error) {
		return func(w *fabric.World) (abi.FuncTable, error) {
			cfg := mana.DefaultConfig()
			cfg.Kernel = k
			return mana.NewWrapper(mpich.Bind(mpich.Init(w, 0)), w, 0, cfg), nil
		}
	}
	manaCost := func(k mana.KernelVersion) time.Duration {
		return mana.DefaultConfig().VidCost + k.CallCost()
	}
	for _, tc := range []struct {
		name  string
		cost  time.Duration
		layer func(w *fabric.World) (abi.FuncTable, error)
	}{
		{"mukautuva", 180 * time.Nanosecond, func(w *fabric.World) (abi.FuncTable, error) {
			return mukautuva.Load("mpich", w, 0, mukautuva.DefaultConfig())
		}},
		{"wi4mpi", 450 * time.Nanosecond, func(w *fabric.World) (abi.FuncTable, error) {
			return wi4mpi.Load("mpich", w, 0, wi4mpi.DefaultConfig())
		}},
		{"mana", manaCost(mana.KernelPre5_9), newMana(mana.KernelPre5_9)},
		{"mana-fsgsbase", manaCost(mana.Kernel5_9Plus), newMana(mana.Kernel5_9Plus)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			bare := advance(t, func(w *fabric.World) (abi.FuncTable, error) {
				return mpich.Bind(mpich.Init(w, 0)), nil
			}, n)
			got := advance(t, tc.layer, n) - bare
			if want := n * tc.cost; got != want {
				t.Fatalf("%d CommRank calls charged %v over the bare table, want exactly %v", n, got, want)
			}

			w, table := open(t, tc.layer)
			clock := w.Endpoint(0).Clock()
			if m, ok := table.(*mana.Wrapper); ok {
				before := clock.Now()
				world := table.Lookup(abi.SymCommWorld)
				if _, err := m.CommShrink(world); abi.ClassOf(err) != abi.ErrUnsupported {
					t.Fatalf("CommShrink error = %v, want ErrUnsupported", err)
				}
				if _, err := m.CommFailureGetAcked(world); abi.ClassOf(err) != abi.ErrUnsupported {
					t.Fatalf("CommFailureGetAcked error = %v, want ErrUnsupported", err)
				}
				if d := clock.Now().Sub(before); d != 0 {
					t.Fatalf("refused ULFM calls charged %v", d)
				}
			}
			before := clock.Now()
			_ = table.Abort(table.Lookup(abi.SymCommWorld), 1)
			if d := clock.Now().Sub(before); d != 0 {
				t.Fatalf("Abort charged %v", d)
			}
		})
	}
}

// open builds a table over a fresh one-rank world.
func open(t *testing.T, build func(w *fabric.World) (abi.FuncTable, error)) (*fabric.World, abi.FuncTable) {
	t.Helper()
	w, err := fabric.NewWorld(simnet.SingleNode(1))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(w.Close)
	table, err := build(w)
	if err != nil {
		t.Fatal(err)
	}
	return w, table
}

// advance reports the virtual time n CommRank calls take through a
// freshly built table.
func advance(t *testing.T, build func(w *fabric.World) (abi.FuncTable, error), n int) time.Duration {
	t.Helper()
	w, table := open(t, build)
	clock := w.Endpoint(0).Clock()
	world := table.Lookup(abi.SymCommWorld)
	before := clock.Now()
	for i := 0; i < n; i++ {
		if _, err := table.CommRank(world); err != nil {
			t.Fatal(err)
		}
	}
	return clock.Now().Sub(before)
}
