package stdabi

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/abi"
	"repro/internal/fabric"
	"repro/internal/ops"
	"repro/internal/simnet"
	"repro/internal/types"
)

// runSPMD launches fn on n ranks bound through the native (standard ABI)
// binding and fails the test on error or timeout.
func runSPMD(t *testing.T, n int, fn func(b *Binding) error) {
	t.Helper()
	w, err := fabric.NewWorld(simnet.SingleNode(n))
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	errs := make([]error, n)
	var wg sync.WaitGroup
	for r := 0; r < n; r++ {
		r := r
		wg.Add(1)
		w.Spawn(r, func() {
			defer wg.Done()
			if err := fn(Bind(Init(w, r))); err != nil {
				errs[r] = fmt.Errorf("rank %d: %w", r, err)
				w.Close() // release peers blocked in Recv
			}
		})
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("SPMD test timed out (likely deadlock)")
	}
	for _, err := range errs {
		if err != nil {
			t.Error(err)
		}
	}
}

// TestNativeSurfaceIsStandardABI is the package's reason to exist: the
// constants an application resolves at bind time are the abi package's
// standard values, bit-for-bit, with no translation layer in between.
func TestNativeSurfaceIsStandardABI(t *testing.T) {
	w, err := fabric.NewWorld(simnet.SingleNode(1))
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	b := Bind(Init(w, 0))
	if got := b.Lookup(abi.SymCommWorld); got != abi.CommWorld {
		t.Errorf("Lookup(CommWorld) = %v, want the standard handle %v", got, abi.CommWorld)
	}
	if got := b.Lookup(abi.SymForKind(types.KindFloat64)); got != abi.TypeFloat64 {
		t.Errorf("Lookup(float64) = %v, want %v", got, abi.TypeFloat64)
	}
	if got := b.Lookup(abi.SymForOp(ops.OpSum)); got != abi.OpSum {
		t.Errorf("Lookup(sum) = %v, want %v", got, abi.OpSum)
	}
	if b.LookupInt(abi.IntAnySource) != abi.AnySource || b.LookupInt(abi.IntProcNull) != abi.ProcNull {
		t.Error("integer constants are not the standard values")
	}
	// Error codes ARE the standard classes: MPI_Error_class is identity.
	for c := abi.ErrSuccess; c <= abi.ErrOther; c++ {
		if ClassOfCode(int(c)) != c {
			t.Errorf("ClassOfCode(%d) = %v, want identity", int(c), c)
		}
	}
	if ClassOfCode(9999) != abi.ErrOther {
		t.Error("out-of-range code should collapse to ErrOther")
	}
}

// TestMintedHandlesAboveReservedRange checks the mpi_abi.h-style handle
// model: predefined payloads sit below abi.PredefinedLimit, runtime
// handles above it.
func TestMintedHandlesAboveReservedRange(t *testing.T) {
	runSPMD(t, 2, func(b *Binding) error {
		if !abi.CommWorld.Predefined() || !abi.TypeFloat64.Predefined() {
			return fmt.Errorf("predefined handles must sit in the reserved range")
		}
		dup, err := b.CommDup(abi.CommWorld)
		if err != nil {
			return err
		}
		if dup.Predefined() {
			return fmt.Errorf("minted handle %v landed in the reserved predefined range", dup)
		}
		if dup.HandleClass() != abi.ClassComm {
			return fmt.Errorf("minted handle %v has wrong class", dup)
		}
		vec, err := b.TypeVector(2, 1, 2, abi.TypeInt32)
		if err != nil {
			return err
		}
		if vec.Predefined() || vec.HandleClass() != abi.ClassType {
			return fmt.Errorf("minted type handle %v malformed", vec)
		}
		return nil
	})
}

func TestSendRecvBothProtocols(t *testing.T) {
	for _, sz := range []int{64, 32 * 1024} { // eager and rendezvous (eagerMax 8 KiB)
		t.Run(fmt.Sprintf("sz=%d", sz), func(t *testing.T) {
			runSPMD(t, 2, func(b *Binding) error {
				rank, err := b.CommRank(abi.CommWorld)
				if err != nil {
					return err
				}
				if rank == 0 {
					buf := make([]byte, sz)
					for i := range buf {
						buf[i] = byte(i * 13)
					}
					return b.Send(buf, sz, abi.TypeByte, 1, 5, abi.CommWorld)
				}
				buf := make([]byte, sz)
				var st abi.Status
				if err := b.Recv(buf, sz, abi.TypeByte, 0, 5, abi.CommWorld, &st); err != nil {
					return err
				}
				for i := range buf {
					if buf[i] != byte(i*13) {
						return fmt.Errorf("byte %d corrupted", i)
					}
				}
				if st.Source != 0 || st.Tag != 5 || st.CountBytes != uint64(sz) {
					return fmt.Errorf("status wrong: %+v", st)
				}
				return nil
			})
		})
	}
}

func TestCollectivesAcrossThresholds(t *testing.T) {
	// Cross the recursive-doubling/ring allreduce switchover (16 KiB) and
	// odd communicator sizes.
	for _, n := range []int{2, 3, 4, 5, 8} {
		for _, count := range []int{1, 3000} { // 8 B and 24 KB of int64
			t.Run(fmt.Sprintf("n=%d count=%d", n, count), func(t *testing.T) {
				runSPMD(t, n, func(b *Binding) error {
					rank, err := b.CommRank(abi.CommWorld)
					if err != nil {
						return err
					}
					vals := make([]int64, count)
					for i := range vals {
						vals[i] = int64(rank+1) * int64(i%7+1)
					}
					rb := make([]byte, count*8)
					if err := b.Allreduce(abi.Int64Bytes(vals), rb, count,
						abi.TypeInt64, abi.OpSum, abi.CommWorld); err != nil {
						return err
					}
					tri := int64(n * (n + 1) / 2)
					got := abi.Int64sOf(rb)
					for i := range got {
						if got[i] != tri*int64(i%7+1) {
							return fmt.Errorf("elem %d = %d, want %d", i, got[i], tri*int64(i%7+1))
						}
					}
					// Bcast exercises the binomial/scatter-ring pair.
					bc := make([]byte, count*8)
					if rank == 0 {
						copy(bc, rb)
					}
					if err := b.Bcast(bc, count, abi.TypeInt64, 0, abi.CommWorld); err != nil {
						return err
					}
					for i, v := range abi.Int64sOf(bc) {
						if v != tri*int64(i%7+1) {
							return fmt.Errorf("bcast elem %d = %d", i, v)
						}
					}
					return b.Barrier(abi.CommWorld)
				})
			})
		}
	}
}

func TestAlltoallAndCommSplit(t *testing.T) {
	runSPMD(t, 6, func(b *Binding) error {
		rank, err := b.CommRank(abi.CommWorld)
		if err != nil {
			return err
		}
		n := 6
		vals := make([]int64, n)
		for d := 0; d < n; d++ {
			vals[d] = int64(rank*100 + d)
		}
		rb := make([]byte, n*8)
		if err := b.Alltoall(abi.Int64Bytes(vals), 1, abi.TypeInt64, rb, 1, abi.TypeInt64, abi.CommWorld); err != nil {
			return err
		}
		for s, v := range abi.Int64sOf(rb) {
			if v != int64(s*100+rank) {
				return fmt.Errorf("from %d = %d, want %d", s, v, s*100+rank)
			}
		}
		sub, err := b.CommSplit(abi.CommWorld, rank%2, rank)
		if err != nil {
			return err
		}
		sz, err := b.CommSize(sub)
		if err != nil {
			return err
		}
		if sz != 3 {
			return fmt.Errorf("split size = %d, want 3", sz)
		}
		out := make([]byte, 8)
		if err := b.Allreduce(abi.Int64Bytes([]int64{int64(rank)}), out, 1,
			abi.TypeInt64, abi.OpSum, sub); err != nil {
			return err
		}
		want := int64(0 + 2 + 4)
		if rank%2 == 1 {
			want = 1 + 3 + 5
		}
		if got := abi.Int64sOf(out)[0]; got != want {
			return fmt.Errorf("split allreduce = %d, want %d", got, want)
		}
		return nil
	})
}

func TestErrorClassesOnBadArguments(t *testing.T) {
	runSPMD(t, 1, func(b *Binding) error {
		checks := []struct {
			err  error
			want abi.ErrClass
			what string
		}{
			{b.Send(nil, 1, abi.TypeByte, 0, 0, abi.CommNull), abi.ErrComm, "null comm"},
			{b.Send(nil, 1, abi.TypeNull, 0, 0, abi.CommWorld), abi.ErrType, "null type"},
			{b.Send(nil, 1, abi.TypeByte, 5, 0, abi.CommWorld), abi.ErrRank, "bad rank"},
			{b.Send(nil, -1, abi.TypeByte, 0, 0, abi.CommWorld), abi.ErrCount, "bad count"},
			{b.Bcast(nil, 1, abi.TypeByte, 9, abi.CommWorld), abi.ErrRoot, "bad root"},
			{b.CommFree(abi.CommWorld), abi.ErrComm, "free world"},
			{b.TypeFree(abi.TypeByte), abi.ErrType, "free predefined type"},
			{b.Wait(abi.MakeHandle(abi.ClassRequest, 0x77777), nil), abi.ErrRequest, "bogus request"},
		}
		for _, c := range checks {
			if abi.ClassOf(c.err) != c.want {
				return fmt.Errorf("%s: class = %v, want %v", c.what, abi.ClassOf(c.err), c.want)
			}
		}
		// PROC_NULL uses the standard sentinel, natively.
		var st abi.Status
		if err := b.Recv(nil, 0, abi.TypeByte, abi.ProcNull, 0, abi.CommWorld, &st); err != nil {
			return err
		}
		if st.Source != abi.ProcNull || st.Tag != abi.AnyTag {
			return fmt.Errorf("PROC_NULL status wrong: %+v", st)
		}
		return nil
	})
}

func TestIsendIrecvRing(t *testing.T) {
	runSPMD(t, 5, func(b *Binding) error {
		rank, err := b.CommRank(abi.CommWorld)
		if err != nil {
			return err
		}
		size, err := b.CommSize(abi.CommWorld)
		if err != nil {
			return err
		}
		right, left := (rank+1)%size, (rank-1+size)%size
		rb := make([]byte, 8)
		rr, err := b.Irecv(rb, 1, abi.TypeInt64, left, 2, abi.CommWorld)
		if err != nil {
			return err
		}
		sr, err := b.Isend(abi.Int64Bytes([]int64{int64(rank)}), 1, abi.TypeInt64, right, 2, abi.CommWorld)
		if err != nil {
			return err
		}
		sts := make([]abi.Status, 2)
		if err := b.Waitall([]abi.Handle{rr, sr}, sts); err != nil {
			return err
		}
		if got := abi.Int64sOf(rb)[0]; got != int64(left) {
			return fmt.Errorf("ring recv = %d, want %d", got, left)
		}
		if sts[0].Source != int32(left) {
			return fmt.Errorf("status source = %d, want %d", sts[0].Source, left)
		}
		return nil
	})
}
