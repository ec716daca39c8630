package core

import (
	"fmt"
	"sync"
	"testing"

	"repro/internal/abi"
	"repro/internal/fabric"
	"repro/internal/simnet"
	"repro/internal/types"
)

// everyStack runs fn on each rank of a two-rank world over every
// implementation x binding stack with the given checkpointer.
func everyStack(t *testing.T, ckpt CkptMode, fn func(w *fabric.World, table abi.FuncTable, rank int) error) {
	for _, impl := range []Impl{ImplMPICH, ImplOpenMPI, ImplStdABI} {
		for _, mode := range []ABIMode{ABINative, ABIMukautuva, ABIWi4MPI} {
			stack := DefaultStack(impl, mode, ckpt)
			t.Run(stack.Label(), func(t *testing.T) {
				w, err := fabric.NewWorld(simnet.SingleNode(2))
				if err != nil {
					t.Fatal(err)
				}
				defer w.Close()
				errs := make([]error, 2)
				var wg sync.WaitGroup
				for r := 0; r < 2; r++ {
					r := r
					wg.Add(1)
					w.Spawn(r, func() {
						defer wg.Done()
						table, _, _, err := buildTable(stack, w, r)
						if err == nil {
							err = fn(w, table, r)
						}
						errs[r] = err
					})
				}
				wg.Wait()
				for r, err := range errs {
					if err != nil {
						t.Errorf("rank %d: %v", r, err)
					}
				}
			})
		}
	}
}

// TestRetriedWaitAfterFailedProgress: a Wait that fails without
// completing its request (the world closed under a pending receive)
// leaves the request live, so waiting on it again must fail again rather
// than resolve to the null request and report success.
func TestRetriedWaitAfterFailedProgress(t *testing.T) {
	everyStack(t, CkptNone, func(w *fabric.World, table abi.FuncTable, rank int) error {
		if rank == 1 {
			w.Close()
			return nil
		}
		buf := make([]byte, 8)
		req, err := table.Irecv(buf, 8, table.Lookup(abi.SymForKind(types.KindByte)), 1, 0, table.Lookup(abi.SymCommWorld))
		if err != nil {
			return fmt.Errorf("Irecv: %w", err)
		}
		for i := 1; i <= 2; i++ {
			var st abi.Status
			if err := table.Wait(req, &st); err == nil {
				return fmt.Errorf("Wait #%d succeeded (status %v) on a receive the world closed under", i, &st)
			}
		}
		return nil
	})
}

// TestTruncationStatusClassThroughMANA: whatever table MANA wraps, the
// in-status error code it passes up is the standard class; the inner
// table classifies its own codes.
func TestTruncationStatusClassThroughMANA(t *testing.T) {
	everyStack(t, CkptMANA, func(w *fabric.World, table abi.FuncTable, rank int) error {
		world := table.Lookup(abi.SymCommWorld)
		bt := table.Lookup(abi.SymForKind(types.KindByte))
		if rank == 0 {
			return table.Send(make([]byte, 64), 64, bt, 1, 0, world)
		}
		var st abi.Status
		err := table.Recv(make([]byte, 8), 8, bt, 0, 0, world, &st)
		if abi.ClassOf(err) != abi.ErrTruncate {
			return fmt.Errorf("truncation class = %v (%v)", abi.ClassOf(err), err)
		}
		if st.Error != int32(abi.ErrTruncate) {
			return fmt.Errorf("status error = %d, want standard %d", st.Error, abi.ErrTruncate)
		}
		return nil
	})
}
