package mana

import (
	"fmt"
	"sync"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/abi"
	"repro/internal/fabric"
	"repro/internal/mukautuva"
	"repro/internal/ops"
	"repro/internal/simnet"
	"repro/internal/types"
)

// runWrapped runs fn per rank with a MANA wrapper over a Mukautuva shim on
// the given implementation.
func runWrapped(t *testing.T, impl string, n int, fn func(w *Wrapper, rank int) error) {
	t.Helper()
	world, err := fabric.NewWorld(simnet.SingleNode(n))
	if err != nil {
		t.Fatal(err)
	}
	defer world.Close()
	errs := make([]error, n)
	var wg sync.WaitGroup
	for r := 0; r < n; r++ {
		r := r
		wg.Add(1)
		world.Spawn(r, func() {
			defer wg.Done()
			shim, err := mukautuva.Load(impl, world, r, mukautuva.DefaultConfig())
			if err != nil {
				errs[r] = err
				world.Close()
				return
			}
			w := NewWrapper(shim, world, r, DefaultConfig())
			if err := fn(w, r); err != nil {
				errs[r] = fmt.Errorf("rank %d: %w", r, err)
				world.Close()
			}
		})
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("wrapped SPMD test timed out")
	}
	for _, err := range errs {
		if err != nil {
			t.Error(err)
		}
	}
}

func TestWrapperPresentsStandardABI(t *testing.T) {
	runWrapped(t, "mpich", 1, func(w *Wrapper, rank int) error {
		if w.Lookup(abi.SymCommWorld) != abi.CommWorld {
			return fmt.Errorf("Lookup not standard")
		}
		if w.LookupInt(abi.IntAnySource) != abi.AnySource {
			return fmt.Errorf("LookupInt not standard")
		}
		if w.ImplName() != "mana+mpich" {
			return fmt.Errorf("ImplName = %q", w.ImplName())
		}
		return nil
	})
}

func TestVidsAllocatedForDynamicObjects(t *testing.T) {
	runWrapped(t, "openmpi", 2, func(w *Wrapper, rank int) error {
		dup, err := w.CommDup(abi.CommWorld)
		if err != nil {
			return err
		}
		if dup.Payload() < vidBase {
			return fmt.Errorf("dup handle %v is not a vid", dup)
		}
		vec, err := w.TypeVector(2, 1, 2, abi.TypeInt64)
		if err != nil {
			return err
		}
		if vec.Payload() < vidBase {
			return fmt.Errorf("type handle %v is not a vid", vec)
		}
		if err := w.TypeCommit(vec); err != nil {
			return err
		}
		sz, err := w.TypeSize(vec)
		if err != nil || sz != 16 {
			return fmt.Errorf("TypeSize through vid = %d, %v", sz, err)
		}
		// The event log must have recorded both creations plus the commit.
		if len(w.log) != 3 {
			return fmt.Errorf("event log has %d entries, want 3", len(w.log))
		}
		return nil
	})
}

func TestSendRecvCountersTrack(t *testing.T) {
	runWrapped(t, "mpich", 2, func(w *Wrapper, rank int) error {
		bt := abi.TypeByte
		if rank == 0 {
			for i := 0; i < 3; i++ {
				if err := w.Send([]byte{1}, 1, bt, 1, 5, abi.CommWorld); err != nil {
					return err
				}
			}
			if w.sent[abi.CommWorld][1] != 3 {
				return fmt.Errorf("sent counter = %d, want 3", w.sent[abi.CommWorld][1])
			}
			return nil
		}
		buf := make([]byte, 1)
		for i := 0; i < 3; i++ {
			if err := w.Recv(buf, 1, bt, abi.AnySource, abi.AnyTag, abi.CommWorld, nil); err != nil {
				return err
			}
		}
		if w.recvd[abi.CommWorld][0] != 3 {
			return fmt.Errorf("recvd counter = %d, want 3", w.recvd[abi.CommWorld][0])
		}
		return nil
	})
}

func TestDrainCapturesInFlight(t *testing.T) {
	runWrapped(t, "mpich", 2, func(w *Wrapper, rank int) error {
		bt := abi.TypeByte
		// Rank 0 sends a message rank 1 never receives before the drain.
		if rank == 0 {
			if err := w.Send([]byte{42, 43}, 2, bt, 1, 9, abi.CommWorld); err != nil {
				return err
			}
		}
		blob, err := w.PreCheckpoint()
		if err != nil {
			return err
		}
		if len(blob) == 0 {
			return fmt.Errorf("empty blob")
		}
		if rank == 1 {
			q := w.buffered[abi.CommWorld]
			if len(q) != 1 {
				return fmt.Errorf("buffered %d messages, want 1", len(q))
			}
			d := q[0]
			if d.Source != 0 || d.Tag != 9 || len(d.Data) != 2 || d.Data[0] != 42 {
				return fmt.Errorf("drained message wrong: %+v", d)
			}
			// The drained message is served to a later Recv with correct
			// status.
			buf := make([]byte, 2)
			var st abi.Status
			if err := w.Recv(buf, 2, bt, 0, 9, abi.CommWorld, &st); err != nil {
				return err
			}
			if buf[0] != 42 || buf[1] != 43 {
				return fmt.Errorf("served payload = %v", buf)
			}
			if st.Source != 0 || st.Tag != 9 || st.CountBytes != 2 {
				return fmt.Errorf("served status = %+v", st)
			}
			if len(w.buffered[abi.CommWorld]) != 0 {
				return fmt.Errorf("buffer not consumed")
			}
		}
		return nil
	})
}

func TestDrainRefusesOutstandingRequests(t *testing.T) {
	runWrapped(t, "mpich", 2, func(w *Wrapper, rank int) error {
		bt := abi.TypeByte
		if rank == 1 {
			// Leave an open irecv and attempt to checkpoint: must refuse
			// before any collective exchange happens.
			buf := make([]byte, 1)
			req, err := w.Irecv(buf, 1, bt, 0, 1, abi.CommWorld)
			if err != nil {
				return err
			}
			if _, err := w.PreCheckpoint(); err == nil {
				return fmt.Errorf("drain with outstanding request succeeded")
			} else if abi.ClassOf(err) != abi.ErrPending {
				return fmt.Errorf("error class = %v", abi.ClassOf(err))
			}
			// Complete the request; then the drain is legal.
			if err := w.Wait(req, nil); err != nil {
				return err
			}
			if w.Outstanding() != 0 {
				return fmt.Errorf("outstanding = %d after wait", w.Outstanding())
			}
		} else {
			if err := w.Send([]byte{7}, 1, bt, 1, 1, abi.CommWorld); err != nil {
				return err
			}
		}
		// Both ranks run the (collective) drain; it must now succeed.
		if _, err := w.PreCheckpoint(); err != nil {
			return err
		}
		return nil
	})
}

func TestBufferedProbe(t *testing.T) {
	runWrapped(t, "openmpi", 2, func(w *Wrapper, rank int) error {
		bt := abi.TypeByte
		if rank == 0 {
			if err := w.Send([]byte{1, 2, 3}, 3, bt, 1, 4, abi.CommWorld); err != nil {
				return err
			}
		}
		// The drain is collective: both ranks participate.
		if _, err := w.PreCheckpoint(); err != nil {
			return err
		}
		if rank == 0 {
			return nil
		}
		// Probe must see the buffered message without consuming it.
		var st abi.Status
		if err := w.Probe(abi.AnySource, abi.AnyTag, abi.CommWorld, &st); err != nil {
			return err
		}
		if st.Source != 0 || st.Tag != 4 || st.CountBytes != 3 {
			return fmt.Errorf("probe status = %+v", st)
		}
		found, err := w.Iprobe(0, 4, abi.CommWorld, &st)
		if err != nil || !found {
			return fmt.Errorf("iprobe = %v %v", found, err)
		}
		if len(w.buffered[abi.CommWorld]) != 1 {
			return fmt.Errorf("probe consumed the buffer")
		}
		return nil
	})
}

func TestBlobRoundTripAndReplay(t *testing.T) {
	// Build state on mpich, serialize, replay onto a FRESH openmpi lower
	// half — the cross-implementation rebind in isolation.
	const n = 2
	world1, err := fabric.NewWorld(simnet.SingleNode(n))
	if err != nil {
		t.Fatal(err)
	}
	defer world1.Close()
	blobs := make([][]byte, n)
	var wg sync.WaitGroup
	for r := 0; r < n; r++ {
		r := r
		wg.Add(1)
		world1.Spawn(r, func() {
			defer wg.Done()
			shim, err := mukautuva.Load("mpich", world1, r, mukautuva.DefaultConfig())
			if err != nil {
				t.Error(err)
				return
			}
			w := NewWrapper(shim, world1, r, DefaultConfig())
			dup, err := w.CommDup(abi.CommWorld)
			if err != nil {
				t.Error(err)
				return
			}
			if _, err := w.CommSplit(dup, r%2, 0); err != nil {
				t.Error(err)
				return
			}
			vec, err := w.TypeVector(3, 1, 2, abi.TypeInt32)
			if err != nil {
				t.Error(err)
				return
			}
			if err := w.TypeCommit(vec); err != nil {
				t.Error(err)
				return
			}
			blob, err := w.PreCheckpoint()
			if err != nil {
				t.Error(err)
				return
			}
			blobs[r] = blob
		})
	}
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}

	world2, err := fabric.NewWorld(simnet.SingleNode(n))
	if err != nil {
		t.Fatal(err)
	}
	defer world2.Close()
	for r := 0; r < n; r++ {
		r := r
		wg.Add(1)
		world2.Spawn(r, func() {
			defer wg.Done()
			shim, err := mukautuva.Load("openmpi", world2, r, mukautuva.DefaultConfig())
			if err != nil {
				t.Error(err)
				return
			}
			w := NewWrapper(shim, world2, r, DefaultConfig())
			if err := w.Restore(blobs[r]); err != nil {
				t.Error(fmt.Errorf("rank %d restore: %w", r, err))
				return
			}
			// The replayed vids must be usable on the new implementation.
			if len(w.log) != 4 {
				t.Errorf("rank %d: replayed log has %d events, want 4", r, len(w.log))
			}
			for vid := range w.comms {
				if _, err := w.CommSize(vid); err != nil {
					t.Errorf("rank %d: comm vid %v unusable after replay: %v", r, vid, err)
				}
			}
		})
	}
	wg.Wait()
}

func TestKernelCostModel(t *testing.T) {
	old := KernelPre5_9.CallCost()
	modern := Kernel5_9Plus.CallCost()
	if old <= modern {
		t.Fatalf("pre-5.9 cost %v must exceed 5.9+ cost %v", old, modern)
	}
	if old < 5*time.Microsecond || old > 20*time.Microsecond {
		t.Fatalf("pre-5.9 per-call cost %v outside the calibrated range", old)
	}
	if KernelPre5_9.String() == KernelVersion(1).String() {
		t.Fatal("kernel names collide")
	}
}

// Property: commGID is deterministic and discriminates parents, ordinals
// and colors.
func TestCommGIDProperty(t *testing.T) {
	f := func(parent uint64, ord uint32, color int16) bool {
		a := commGID(parent, EvCommSplit, ord, int(color))
		b := commGID(parent, EvCommSplit, ord, int(color))
		if a != b {
			return false
		}
		if commGID(parent, EvCommSplit, ord, int(color)) ==
			commGID(parent, EvCommSplit, ord+1, int(color)) {
			return false
		}
		if commGID(parent, EvCommSplit, ord, int(color)) ==
			commGID(parent+1, EvCommSplit, ord, int(color)) {
			return false
		}
		return commGID(parent, EvCommDup, ord, 0) != commGID(parent, EvCommCreate, ord, 0)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestUserOpSurvivesBlob(t *testing.T) {
	if err := ops.RegisterUser("mana.test.sum", true,
		func(acc, in []byte, k types.Kind, count int) {
			_ = ops.Apply(ops.OpSum, k, acc, in, count)
		}); err != nil {
		t.Fatal(err)
	}
	runWrapped(t, "mpich", 1, func(w *Wrapper, rank int) error {
		op, err := w.OpCreate("mana.test.sum", true)
		if err != nil {
			return err
		}
		rb := make([]byte, 8)
		if err := w.Allreduce(abi.Int64Bytes([]int64{5}), rb, 1, abi.TypeInt64, op, abi.CommWorld); err != nil {
			return err
		}
		if got := abi.Int64sOf(rb)[0]; got != 5 {
			return fmt.Errorf("user op result = %d", got)
		}
		return nil
	})
}
