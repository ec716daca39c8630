package mukautuva

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/abi"
	"repro/internal/fabric"
	"repro/internal/mpich"
	"repro/internal/openmpi"
	"repro/internal/ops"
	"repro/internal/simnet"
	"repro/internal/stdabi"
	"repro/internal/types"
)

// runStd runs fn as an SPMD program over the standard ABI on the given
// implementation.
func runStd(t *testing.T, impl string, n int, fn func(s *Shim, rank int) error) {
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
			s, err := Load(impl, w, r, DefaultConfig())
			if err != nil {
				errs[r] = err
				w.Close()
				return
			}
			if err := fn(s, r); err != nil {
				errs[r] = fmt.Errorf("rank %d: %w", r, err)
				w.Close()
			}
		})
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatalf("SPMD test on %s timed out", impl)
	}
	for _, err := range errs {
		if err != nil {
			t.Error(err)
		}
	}
}

// bothImpls runs the same standard-ABI program over both implementations —
// the "compile once, run everywhere" property under test.
func bothImpls(t *testing.T, n int, fn func(s *Shim, rank int) error) {
	t.Helper()
	for _, impl := range Implementations() {
		t.Run(impl, func(t *testing.T) { runStd(t, impl, n, fn) })
	}
}

func TestRegistryHasAllImplementations(t *testing.T) {
	impls := Implementations()
	if len(impls) != 3 || impls[0] != "mpich" || impls[1] != "openmpi" || impls[2] != "stdabi" {
		t.Fatalf("Implementations() = %v", impls)
	}
}

func TestLoadUnknownImplementation(t *testing.T) {
	w, err := fabric.NewWorld(simnet.SingleNode(1))
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	if _, err := Load("lam-mpi", w, 0, DefaultConfig()); err == nil {
		t.Fatal("loading an unregistered implementation succeeded")
	} else if abi.ClassOf(err) != abi.ErrArg {
		t.Fatalf("error class = %v, want ErrArg", abi.ClassOf(err))
	}
}

func TestLookupReturnsStandardConstants(t *testing.T) {
	bothImpls(t, 1, func(s *Shim, rank int) error {
		if s.Lookup(abi.SymCommWorld) != abi.CommWorld {
			return fmt.Errorf("Lookup(CommWorld) = %v, not the standard value", s.Lookup(abi.SymCommWorld))
		}
		if s.LookupInt(abi.IntAnySource) != abi.AnySource {
			return fmt.Errorf("LookupInt(AnySource) = %d", s.LookupInt(abi.IntAnySource))
		}
		if s.Lookup(abi.SymForKind(types.KindFloat64)) != abi.TypeFloat64 {
			return fmt.Errorf("type constant not standard")
		}
		return nil
	})
}

// The heart of the matter: identical application code, standard constants
// only, running over two ABIs that disagree about everything.
func TestSameProgramBothImplementations(t *testing.T) {
	bothImpls(t, 4, func(s *Shim, rank int) error {
		world := s.Lookup(abi.SymCommWorld)
		f64 := s.Lookup(abi.SymForKind(types.KindFloat64))
		sum := s.Lookup(abi.SymForOp(ops.OpSum))
		n, err := s.CommSize(world)
		if err != nil {
			return err
		}
		me, err := s.CommRank(world)
		if err != nil {
			return err
		}
		// Ring p2p with standard wildcards.
		right := (me + 1) % n
		rb := make([]byte, 8)
		req, err := s.Irecv(rb, 1, f64, abi.AnySource, abi.AnyTag, world)
		if err != nil {
			return err
		}
		if err := s.Send(abi.Float64Bytes([]float64{float64(me)}), 1, f64, right, 11, world); err != nil {
			return err
		}
		var st abi.Status
		if err := s.Wait(req, &st); err != nil {
			return err
		}
		left := (me - 1 + n) % n
		if got := abi.Float64sOf(rb)[0]; got != float64(left) {
			return fmt.Errorf("ring got %v, want %d", got, left)
		}
		if st.Source != int32(left) || st.Tag != 11 || st.CountBytes != 8 {
			return fmt.Errorf("status = %+v", st)
		}
		// Allreduce.
		out := make([]byte, 8)
		if err := s.Allreduce(abi.Float64Bytes([]float64{1}), out, 1, f64, sum, world); err != nil {
			return err
		}
		if got := abi.Float64sOf(out)[0]; got != float64(n) {
			return fmt.Errorf("allreduce = %v, want %d", got, n)
		}
		// Send to PROC_NULL via the standard sentinel.
		if err := s.Send(nil, 0, f64, abi.ProcNull, 0, world); err != nil {
			return err
		}
		var pn abi.Status
		if err := s.Recv(nil, 0, f64, abi.ProcNull, 0, world, &pn); err != nil {
			return err
		}
		if pn.Source != int32(abi.ProcNull) {
			return fmt.Errorf("PROC_NULL status source = %d, want standard %d", pn.Source, abi.ProcNull)
		}
		return nil
	})
}

func TestErrorClassTranslation(t *testing.T) {
	bothImpls(t, 1, func(s *Shim, rank int) error {
		world := s.Lookup(abi.SymCommWorld)
		f64 := s.Lookup(abi.SymForKind(types.KindFloat64))
		// Invalid rank: both implementations return their own code; the shim
		// must present the standard class.
		err := s.Send(nil, 0, f64, 99, 0, world)
		if abi.ClassOf(err) != abi.ErrRank {
			return fmt.Errorf("bad-rank error class = %v (%v)", abi.ClassOf(err), err)
		}
		// Invalid communicator handle.
		err = s.Barrier(abi.MakeHandle(abi.ClassComm, 0x99999))
		if abi.ClassOf(err) != abi.ErrComm {
			return fmt.Errorf("bad-comm error class = %v (%v)", abi.ClassOf(err), err)
		}
		return nil
	})
}

func TestTruncationErrorAndStatusClass(t *testing.T) {
	bothImpls(t, 2, func(s *Shim, rank int) error {
		world := s.Lookup(abi.SymCommWorld)
		bt := s.Lookup(abi.SymForKind(types.KindByte))
		if rank == 0 {
			return s.Send(make([]byte, 64), 64, bt, 1, 0, world)
		}
		var st abi.Status
		err := s.Recv(make([]byte, 8), 8, bt, 0, 0, world, &st)
		if abi.ClassOf(err) != abi.ErrTruncate {
			return fmt.Errorf("truncation class = %v", abi.ClassOf(err))
		}
		// The in-status error must be the STANDARD class value, not the
		// implementation's code.
		if st.Error != int32(abi.ErrTruncate) {
			return fmt.Errorf("status error = %d, want standard %d", st.Error, abi.ErrTruncate)
		}
		return nil
	})
}

func TestDynamicHandlesAcrossShim(t *testing.T) {
	bothImpls(t, 4, func(s *Shim, rank int) error {
		world := s.Lookup(abi.SymCommWorld)
		i64 := s.Lookup(abi.SymForKind(types.KindInt64))
		sum := s.Lookup(abi.SymForOp(ops.OpSum))
		// Split: returned handle must be a standard-encoded dynamic handle.
		sub, err := s.CommSplit(world, rank%2, rank)
		if err != nil {
			return err
		}
		if sub.HandleClass() != abi.ClassComm || sub.Predefined() {
			return fmt.Errorf("split handle %v not a dynamic standard handle", sub)
		}
		rb := make([]byte, 8)
		if err := s.Allreduce(abi.Int64Bytes([]int64{int64(rank)}), rb, 1, i64, sum, sub); err != nil {
			return err
		}
		want := int64(0 + 2)
		if rank%2 == 1 {
			want = 1 + 3
		}
		if got := abi.Int64sOf(rb)[0]; got != want {
			return fmt.Errorf("split allreduce = %d, want %d", got, want)
		}
		if err := s.CommFree(sub); err != nil {
			return err
		}
		// Derived datatype round trip through the shim.
		vec, err := s.TypeVector(2, 1, 2, i64)
		if err != nil {
			return err
		}
		if err := s.TypeCommit(vec); err != nil {
			return err
		}
		sz, err := s.TypeSize(vec)
		if err != nil || sz != 16 {
			return fmt.Errorf("TypeSize = %d err=%v", sz, err)
		}
		ext, err := s.TypeExtent(vec)
		if err != nil || ext != 24 {
			return fmt.Errorf("TypeExtent = %d err=%v", ext, err)
		}
		return s.TypeFree(vec)
	})
}

func TestUndefinedTranslatedBack(t *testing.T) {
	bothImpls(t, 2, func(s *Shim, rank int) error {
		world := s.Lookup(abi.SymCommWorld)
		g, err := s.CommGroup(world)
		if err != nil {
			return err
		}
		other := 1 - rank
		sub, err := s.GroupIncl(g, []int{other})
		if err != nil {
			return err
		}
		// I am not in sub: GroupRank must be the STANDARD Undefined.
		r, err := s.GroupRank(sub)
		if err != nil {
			return err
		}
		if r != abi.Undefined {
			return fmt.Errorf("GroupRank = %d, want standard Undefined %d", r, abi.Undefined)
		}
		// Translate a rank that does not exist in the target group.
		tr, err := s.GroupTranslateRanks(g, []int{rank}, sub)
		if err != nil {
			return err
		}
		if tr[0] != abi.Undefined {
			return fmt.Errorf("translate = %d, want Undefined", tr[0])
		}
		return nil
	})
}

func TestCommSplitUndefinedColor(t *testing.T) {
	bothImpls(t, 2, func(s *Shim, rank int) error {
		world := s.Lookup(abi.SymCommWorld)
		color := 0
		if rank == 1 {
			color = abi.Undefined
		}
		sub, err := s.CommSplit(world, color, 0)
		if err != nil {
			return err
		}
		if rank == 1 && sub != abi.CommNull {
			return fmt.Errorf("undefined color returned %v, want standard CommNull", sub)
		}
		if rank == 0 && sub == abi.CommNull {
			return fmt.Errorf("member got CommNull")
		}
		return nil
	})
}

func TestUserOpThroughShim(t *testing.T) {
	if err := ops.RegisterUser("muk.test.sumsq", true,
		func(acc, in []byte, k types.Kind, count int) {
			_ = ops.Apply(ops.OpSum, k, acc, in, count)
		}); err != nil {
		t.Fatal(err)
	}
	bothImpls(t, 2, func(s *Shim, rank int) error {
		world := s.Lookup(abi.SymCommWorld)
		i64 := s.Lookup(abi.SymForKind(types.KindInt64))
		op, err := s.OpCreate("muk.test.sumsq", true)
		if err != nil {
			return err
		}
		rb := make([]byte, 8)
		if err := s.Allreduce(abi.Int64Bytes([]int64{2}), rb, 1, i64, op, world); err != nil {
			return err
		}
		if got := abi.Int64sOf(rb)[0]; got != 4 {
			return fmt.Errorf("user op allreduce = %d, want 4", got)
		}
		return s.OpFree(op)
	})
}

func TestFinalize(t *testing.T) {
	w, err := fabric.NewWorld(simnet.SingleNode(1))
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	s, err := Load("openmpi", w, 0, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if s.Version() == "" || s.Name() != "openmpi" {
		t.Fatalf("identity wrong: %q %q", s.Version(), s.Name())
	}
	s.Finalize()
	s.Finalize() // idempotent
}

// TestErrClassRoundTripAllImpls is the cross-ABI error-class
// translation table, pinned bit-exactly: for every standard error class
// — the two new ULFM MPIX classes included — the class maps to each
// implementation's own native code (standard -> native), and each
// implementation's wrap adapter maps that code back to the standard
// class (native -> standard, the direction every translated status and
// return value takes through the shim). The native numbering is pinned
// on purpose: these values ARE the ABI divergence (MPICH says
// proc-failed=71 where Open MPI says 54 and the standard ABI says 17),
// and a silent renumbering would invalidate every cross-implementation
// claim the fault-tolerance cells make.
func TestErrClassRoundTripAllImpls(t *testing.T) {
	classes := []abi.ErrClass{
		abi.ErrSuccess, abi.ErrBuffer, abi.ErrCount, abi.ErrType, abi.ErrTag,
		abi.ErrComm, abi.ErrRank, abi.ErrRequest, abi.ErrRoot, abi.ErrGroup,
		abi.ErrOp, abi.ErrArg, abi.ErrTruncate, abi.ErrUnsupported,
		abi.ErrPending, abi.ErrIntern, abi.ErrOther,
		abi.ErrProcFailed, abi.ErrRevoked,
	}
	// Pinned native codes per implementation, in `classes` order. -1
	// marks a class the implementation's table cannot express: it
	// collapses to the impl's ErrOther on the way down and therefore
	// does not round-trip (exactly what a real errhandler sees).
	native := map[string][]int{
		"mpich":   {0, 1, 2, 3, 4, 5, 6, 19, 7, 8, 9, 12, 14, -1, 18, 16, 15, 71, 72},
		"openmpi": {0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 13, 15, -1, -1, 17, 16, 54, 56},
		"stdabi":  {0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 18},
	}
	toNative := map[string]func(abi.ErrClass) int{
		"mpich":   mpich.CodeOfClass,
		"openmpi": openmpi.CodeOfClass,
		"stdabi":  stdabi.CodeOfClass,
	}
	otherCode := map[string]int{"mpich": 15, "openmpi": 16, "stdabi": 16}

	for _, impl := range []string{"mpich", "openmpi", "stdabi"} {
		w, err := fabric.NewWorld(simnet.SingleNode(1))
		if err != nil {
			t.Fatal(err)
		}
		lib, err := LoadLib(impl, w, 0)
		if err != nil {
			t.Fatal(err)
		}
		for i, class := range classes {
			want := native[impl][i]
			got := toNative[impl](class)
			if want == -1 {
				// Inexpressible class: collapses to the native ErrOther.
				if got != otherCode[impl] {
					t.Errorf("%s: CodeOfClass(%v) = %d, want native ErrOther %d",
						impl, class, got, otherCode[impl])
				}
				continue
			}
			if got != want {
				t.Errorf("%s: CodeOfClass(%v) = %d, want %d (pinned native code)",
					impl, class, got, want)
			}
			// The shim's upward direction: native code -> standard class,
			// through the wrap adapter's MPI_Error_class symbol.
			if back := lib.Table.ErrClass(want); back != class {
				t.Errorf("%s: ErrClass(%d) = %v, want %v (impl->standard->impl must be exact)",
					impl, want, back, class)
			}
		}
		w.Close()
	}

	// The MPIX numbering must actually diverge across the native tables —
	// if two implementations ever agreed, the cell would no longer test a
	// translation.
	if mpich.ErrProcFailed == openmpi.ErrProcFailed ||
		mpich.ErrProcFailed == stdabi.ErrProcFailed ||
		openmpi.ErrProcFailed == stdabi.ErrProcFailed {
		t.Error("proc-failed codes coincide across implementations; the translation cells test nothing")
	}
	if mpich.ErrRevoked == openmpi.ErrRevoked ||
		mpich.ErrRevoked == stdabi.ErrRevoked ||
		openmpi.ErrRevoked == stdabi.ErrRevoked {
		t.Error("revoked codes coincide across implementations; the translation cells test nothing")
	}
}
