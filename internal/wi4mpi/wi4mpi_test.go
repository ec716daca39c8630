package wi4mpi

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/abi"
	"repro/internal/fabric"
	"repro/internal/mpich"
	"repro/internal/ops"
	"repro/internal/simnet"
	"repro/internal/types"
)

// runPreload runs fn per rank over the preload translator targeting the
// given implementation.
func runPreload(t *testing.T, target string, n int, fn func(p *Preload, rank int) error) {
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
			p, err := Load(target, w, r, DefaultConfig())
			if err != nil {
				errs[r] = err
				w.Close()
				return
			}
			if err := fn(p, r); err != nil {
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
		t.Fatal("preload SPMD test timed out")
	}
	for _, err := range errs {
		if err != nil {
			t.Error(err)
		}
	}
}

func TestDialectIsMPICH(t *testing.T) {
	w, err := fabric.NewWorld(simnet.SingleNode(1))
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	ref := mpich.Bind(mpich.Init(w, 0))
	runPreload(t, "openmpi", 1, func(p *Preload, rank int) error {
		// The application sees MPICH's constants even though Open MPI runs
		// underneath — that is the preload conceit.
		if p.Lookup(abi.SymCommWorld) != mpich.Widen(mpich.CommWorld) {
			return fmt.Errorf("CommWorld not MPICH-valued: %v", p.Lookup(abi.SymCommWorld))
		}
		if p.LookupInt(abi.IntAnySource) != mpich.AnySource {
			return fmt.Errorf("AnySource = %d, want MPICH's %d",
				p.LookupInt(abi.IntAnySource), mpich.AnySource)
		}
		if p.ImplName() != "wi4mpi->openmpi" || p.Target() != "openmpi" {
			return fmt.Errorf("identity wrong: %q %q", p.ImplName(), p.Target())
		}
		// The whole vocabulary, constant by constant, is the native MPICH
		// binding's: every object constant, every integer constant, and
		// the status code of every error class.
		for _, sym := range abi.ObjectSyms() {
			if got, want := p.Lookup(sym), ref.Lookup(sym); got != want {
				return fmt.Errorf("Lookup(%d) = %v, MPICH binds %v", sym, got, want)
			}
		}
		for sym := abi.IntAnySource; sym <= abi.IntTagUB; sym++ {
			if got, want := p.LookupInt(sym), ref.LookupInt(sym); got != want {
				return fmt.Errorf("LookupInt(%d) = %d, MPICH binds %d", sym, got, want)
			}
		}
		for class := abi.ErrSuccess; class <= abi.ErrRevoked; class++ {
			code := mpich.CodeOfClass(class)
			if got, want := p.ErrClass(code), ref.ErrClass(code); got != want {
				return fmt.Errorf("ErrClass(%d) = %v, MPICH says %v", code, got, want)
			}
		}
		return nil
	})
}

// An "MPICH-compiled" program (using MPICH constants throughout) must run
// unchanged over Open MPI through the translator.
func TestMPICHProgramOverOpenMPI(t *testing.T) {
	runPreload(t, "openmpi", 4, func(p *Preload, rank int) error {
		world := mpich.Widen(mpich.CommWorld)
		f64 := mpich.Widen(mpich.TypeHandle(types.KindFloat64))
		sum := mpich.Widen(mpich.OpHandle(ops.OpSum))
		n, err := p.CommSize(world)
		if err != nil {
			return err
		}
		me, err := p.CommRank(world)
		if err != nil {
			return err
		}
		// Ring with MPICH wildcards (ANY_SOURCE = -2).
		rb := make([]byte, 8)
		req, err := p.Irecv(rb, 1, f64, mpich.AnySource, mpich.AnyTag, world)
		if err != nil {
			return err
		}
		if err := p.Send(abi.Float64Bytes([]float64{float64(me)}), 1, f64, (me+1)%n, 3, world); err != nil {
			return err
		}
		var st abi.Status
		if err := p.Wait(req, &st); err != nil {
			return err
		}
		left := (me - 1 + n) % n
		if got := abi.Float64sOf(rb)[0]; got != float64(left) {
			return fmt.Errorf("ring got %v, want %d", got, left)
		}
		// Allreduce via MPICH op handle.
		out := make([]byte, 8)
		if err := p.Allreduce(abi.Float64Bytes([]float64{2}), out, 1, f64, sum, world); err != nil {
			return err
		}
		if got := abi.Float64sOf(out)[0]; got != float64(2*n) {
			return fmt.Errorf("allreduce = %v, want %d", got, 2*n)
		}
		// PROC_NULL with MPICH's value (-1), status back in MPICH terms.
		var pn abi.Status
		if err := p.Recv(nil, 0, f64, mpich.ProcNull, 0, world, &pn); err != nil {
			return err
		}
		if pn.Source != mpich.ProcNull {
			return fmt.Errorf("PROC_NULL status source = %d, want MPICH's %d", pn.Source, mpich.ProcNull)
		}
		return nil
	})
}

func TestErrorCodesComeBackAsMPICH(t *testing.T) {
	runPreload(t, "openmpi", 2, func(p *Preload, rank int) error {
		world := mpich.Widen(mpich.CommWorld)
		bt := mpich.Widen(mpich.TypeHandle(types.KindByte))
		if rank == 0 {
			return p.Send(make([]byte, 64), 64, bt, 1, 0, world)
		}
		var st abi.Status
		err := p.Recv(make([]byte, 4), 4, bt, 0, 0, world, &st)
		if abi.ClassOf(err) != abi.ErrTruncate {
			return fmt.Errorf("error class = %v", abi.ClassOf(err))
		}
		// Open MPI's MPI_ERR_TRUNCATE is 15; MPICH's is 14. The app sees 14.
		if st.Error != mpich.ErrTruncate {
			return fmt.Errorf("status error = %d, want MPICH's %d", st.Error, mpich.ErrTruncate)
		}
		return nil
	})
}

func TestDynamicObjectsThroughPreload(t *testing.T) {
	runPreload(t, "openmpi", 4, func(p *Preload, rank int) error {
		world := mpich.Widen(mpich.CommWorld)
		i64 := mpich.Widen(mpich.TypeHandle(types.KindInt64))
		sum := mpich.Widen(mpich.OpHandle(ops.OpSum))
		sub, err := p.CommSplit(world, rank%2, rank)
		if err != nil {
			return err
		}
		rb := make([]byte, 8)
		if err := p.Allreduce(abi.Int64Bytes([]int64{int64(rank)}), rb, 1, i64, sum, sub); err != nil {
			return err
		}
		want := int64(0 + 2)
		if rank%2 == 1 {
			want = 1 + 3
		}
		if got := abi.Int64sOf(rb)[0]; got != want {
			return fmt.Errorf("split allreduce = %d, want %d", got, want)
		}
		if err := p.CommFree(sub); err != nil {
			return err
		}
		// MPI_UNDEFINED color: MPICH's value translated to the target's.
		null, err := p.CommSplit(world, mpich.Undefined, 0)
		if err != nil {
			return err
		}
		if null != mpich.Widen(mpich.CommNull) {
			return fmt.Errorf("undefined split = %v, want MPICH's COMM_NULL", null)
		}
		return nil
	})
}

func TestUnknownTargetRejected(t *testing.T) {
	w, err := fabric.NewWorld(simnet.SingleNode(1))
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	if _, err := Load("intel-mpi", w, 0, DefaultConfig()); err == nil {
		t.Fatal("unknown target accepted")
	}
}
