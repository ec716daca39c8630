package openmpi

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

func runSPMD(t *testing.T, n int, fn func(p *Proc) error) {
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
			if err := fn(Init(w, r)); err != nil {
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
		t.Fatal("SPMD test timed out (likely deadlock)")
	}
	for _, err := range errs {
		if err != nil {
			t.Error(err)
		}
	}
}

func codef(code int, op string) error {
	if code != Success {
		return fmt.Errorf("%s failed: %s", op, ErrorString(code))
	}
	return nil
}

func TestSendRecvBothProtocols(t *testing.T) {
	for _, sz := range []int{64, 64 * 1024} { // eager and rendezvous
		t.Run(fmt.Sprintf("sz=%d", sz), func(t *testing.T) {
			runSPMD(t, 2, func(p *Proc) error {
				bt := p.Type(types.KindByte)
				if p.Rank() == 0 {
					buf := make([]byte, sz)
					for i := range buf {
						buf[i] = byte(i * 7)
					}
					return codef(p.Send(buf, sz, bt, 1, 4, p.CommWorld), "send")
				}
				buf := make([]byte, sz)
				var st Status
				if err := codef(p.Recv(buf, sz, bt, 0, 4, p.CommWorld, &st), "recv"); err != nil {
					return err
				}
				for i := range buf {
					if buf[i] != byte(i*7) {
						return fmt.Errorf("byte %d corrupted", i)
					}
				}
				if st.Source != 0 || st.Tag != 4 || st.UCount != uint64(sz) {
					return fmt.Errorf("status wrong: %+v", st)
				}
				return nil
			})
		})
	}
}

func TestWildcardsUseOMPIValues(t *testing.T) {
	// AnySource here is -1 (MPICH uses -2): the matching engine must honor
	// this package's constants.
	runSPMD(t, 2, func(p *Proc) error {
		bt := p.Type(types.KindByte)
		if p.Rank() == 0 {
			return codef(p.Send([]byte{9}, 1, bt, 1, 3, p.CommWorld), "send")
		}
		buf := make([]byte, 1)
		var st Status
		if err := codef(p.Recv(buf, 1, bt, AnySource, AnyTag, p.CommWorld, &st), "recv"); err != nil {
			return err
		}
		if buf[0] != 9 || st.Source != 0 {
			return fmt.Errorf("wildcard recv wrong: buf=%d st=%+v", buf[0], st)
		}
		return nil
	})
}

func TestProcNullUsesOMPIValue(t *testing.T) {
	runSPMD(t, 1, func(p *Proc) error {
		bt := p.Type(types.KindByte)
		if err := codef(p.Send(nil, 0, bt, ProcNull, 0, p.CommWorld), "send"); err != nil {
			return err
		}
		var st Status
		if err := codef(p.Recv(nil, 0, bt, ProcNull, 0, p.CommWorld, &st), "recv"); err != nil {
			return err
		}
		if st.Source != ProcNull {
			return fmt.Errorf("source = %d, want %d", st.Source, ProcNull)
		}
		return nil
	})
}

func TestIsendIrecvRing(t *testing.T) {
	runSPMD(t, 5, func(p *Proc) error {
		it := p.Type(types.KindInt64)
		n, me := p.Size(), p.Rank()
		right, left := (me+1)%n, (me-1+n)%n
		rb := make([]byte, 8)
		rr, code := p.Irecv(rb, 1, it, left, 0, p.CommWorld)
		if code != Success {
			return codef(code, "irecv")
		}
		sr, code := p.Isend(abi.Int64Bytes([]int64{int64(me)}), 1, it, right, 0, p.CommWorld)
		if code != Success {
			return codef(code, "isend")
		}
		if code := p.Waitall([]*Request{rr, sr}, nil); code != Success {
			return codef(code, "waitall")
		}
		if got := abi.Int64sOf(rb)[0]; got != int64(left) {
			return fmt.Errorf("got %d, want %d", got, left)
		}
		return nil
	})
}

func TestBarrierAllSizes(t *testing.T) {
	for _, n := range []int{1, 2, 3, 5, 8} {
		t.Run(fmt.Sprintf("n=%d", n), func(t *testing.T) {
			runSPMD(t, n, func(p *Proc) error {
				for i := 0; i < 3; i++ {
					if code := p.Barrier(p.CommWorld); code != Success {
						return codef(code, "barrier")
					}
				}
				return nil
			})
		})
	}
}

func TestBcastBinaryAndChain(t *testing.T) {
	for _, n := range []int{2, 3, 5, 8} {
		for _, count := range []int{1, 3000} { // 8B binary tree, 24KB chain
			t.Run(fmt.Sprintf("n=%d count=%d", n, count), func(t *testing.T) {
				runSPMD(t, n, func(p *Proc) error {
					ft := p.Type(types.KindFloat64)
					buf := make([]byte, count*8)
					root := n - 1
					if p.Rank() == root {
						vals := make([]float64, count)
						for i := range vals {
							vals[i] = float64(i) + 0.25
						}
						abi.PutFloat64s(buf, vals)
					}
					if code := p.Bcast(buf, count, ft, root, p.CommWorld); code != Success {
						return codef(code, "bcast")
					}
					got := abi.Float64sOf(buf)
					for i := range got {
						if got[i] != float64(i)+0.25 {
							return fmt.Errorf("elem %d = %v", i, got[i])
						}
					}
					return nil
				})
			})
		}
	}
}

func TestReduceBinaryTree(t *testing.T) {
	for _, n := range []int{1, 2, 4, 7} {
		t.Run(fmt.Sprintf("n=%d", n), func(t *testing.T) {
			runSPMD(t, n, func(p *Proc) error {
				it := p.Type(types.KindInt64)
				sb := abi.Int64Bytes([]int64{int64(p.Rank() + 1)})
				rb := make([]byte, 8)
				if code := p.Reduce(sb, rb, 1, it, p.PredefOp(ops.OpSum), 0, p.CommWorld); code != Success {
					return codef(code, "reduce")
				}
				if p.Rank() == 0 {
					want := int64(n * (n + 1) / 2)
					if got := abi.Int64sOf(rb)[0]; got != want {
						return fmt.Errorf("sum = %d, want %d", got, want)
					}
				}
				return nil
			})
		})
	}
}

func TestAllreduceRDAndRing(t *testing.T) {
	for _, n := range []int{2, 3, 4, 6} {
		for _, count := range []int{1, 4096} { // 8B RD, 32KB ring
			t.Run(fmt.Sprintf("n=%d count=%d", n, count), func(t *testing.T) {
				runSPMD(t, n, func(p *Proc) error {
					it := p.Type(types.KindInt64)
					vals := make([]int64, count)
					for i := range vals {
						vals[i] = int64(p.Rank()+1) * int64(i%9+1)
					}
					rb := make([]byte, count*8)
					if code := p.Allreduce(abi.Int64Bytes(vals), rb, count, it,
						p.PredefOp(ops.OpSum), p.CommWorld); code != Success {
						return codef(code, "allreduce")
					}
					tri := int64(n * (n + 1) / 2)
					got := abi.Int64sOf(rb)
					for i := range got {
						want := tri * int64(i%9+1)
						if got[i] != want {
							return fmt.Errorf("elem %d = %d, want %d", i, got[i], want)
						}
					}
					return nil
				})
			})
		}
	}
}

func TestGatherScatterLinear(t *testing.T) {
	runSPMD(t, 5, func(p *Proc) error {
		it := p.Type(types.KindInt32)
		n, me := p.Size(), p.Rank()
		root := 2
		sb := abi.Int32Bytes([]int32{int32(me * 3)})
		var rb []byte
		if me == root {
			rb = make([]byte, n*4)
		}
		if code := p.Gather(sb, 1, it, rb, 1, it, root, p.CommWorld); code != Success {
			return codef(code, "gather")
		}
		if me == root {
			got := abi.Int32sOf(rb)
			for r := 0; r < n; r++ {
				if got[r] != int32(r*3) {
					return fmt.Errorf("gather[%d] = %d", r, got[r])
				}
			}
		}
		out := make([]byte, 4)
		if code := p.Scatter(rb, 1, it, out, 1, it, root, p.CommWorld); code != Success {
			return codef(code, "scatter")
		}
		if got := abi.Int32sOf(out)[0]; got != int32(me*3) {
			return fmt.Errorf("scatter = %d, want %d", got, me*3)
		}
		return nil
	})
}

func TestAllgatherBruckAndRing(t *testing.T) {
	for _, n := range []int{2, 3, 5, 8} {
		for _, count := range []int{1, 300} { // 8B Bruck, 2400B ring
			t.Run(fmt.Sprintf("n=%d count=%d", n, count), func(t *testing.T) {
				runSPMD(t, n, func(p *Proc) error {
					it := p.Type(types.KindInt64)
					me := p.Rank()
					vals := make([]int64, count)
					for i := range vals {
						vals[i] = int64(me)*1000 + int64(i)
					}
					rb := make([]byte, n*count*8)
					if code := p.Allgather(abi.Int64Bytes(vals), count, it, rb, count, it, p.CommWorld); code != Success {
						return codef(code, "allgather")
					}
					got := abi.Int64sOf(rb)
					for r := 0; r < n; r++ {
						for i := 0; i < count; i++ {
							if got[r*count+i] != int64(r)*1000+int64(i) {
								return fmt.Errorf("block %d elem %d = %d", r, i, got[r*count+i])
							}
						}
					}
					return nil
				})
			})
		}
	}
}

func TestAlltoallLinear(t *testing.T) {
	for _, n := range []int{2, 4, 6} {
		for _, count := range []int{1, 700} {
			t.Run(fmt.Sprintf("n=%d count=%d", n, count), func(t *testing.T) {
				runSPMD(t, n, func(p *Proc) error {
					it := p.Type(types.KindInt64)
					me := p.Rank()
					vals := make([]int64, n*count)
					for d := 0; d < n; d++ {
						for i := 0; i < count; i++ {
							vals[d*count+i] = int64(me*100000 + d*100 + i%97)
						}
					}
					rb := make([]byte, n*count*8)
					if code := p.Alltoall(abi.Int64Bytes(vals), count, it, rb, count, it, p.CommWorld); code != Success {
						return codef(code, "alltoall")
					}
					got := abi.Int64sOf(rb)
					for s := 0; s < n; s++ {
						for i := 0; i < count; i++ {
							want := int64(s*100000 + me*100 + i%97)
							if got[s*count+i] != want {
								return fmt.Errorf("from %d elem %d = %d, want %d", s, i, got[s*count+i], want)
							}
						}
					}
					return nil
				})
			})
		}
	}
}

func TestCommSplitAndCollectives(t *testing.T) {
	runSPMD(t, 6, func(p *Proc) error {
		me := p.Rank()
		sub, code := p.CommSplit(p.CommWorld, me%3, me)
		if code != Success {
			return codef(code, "split")
		}
		sz, _ := p.CommSize(sub)
		if sz != 2 {
			return fmt.Errorf("split size = %d", sz)
		}
		it := p.Type(types.KindInt64)
		rb := make([]byte, 8)
		if code := p.Allreduce(abi.Int64Bytes([]int64{int64(me)}), rb, 1, it,
			p.PredefOp(ops.OpSum), sub); code != Success {
			return codef(code, "allreduce on split")
		}
		want := int64(me%3) + int64(me%3+3)
		if got := abi.Int64sOf(rb)[0]; got != want {
			return fmt.Errorf("split allreduce = %d, want %d", got, want)
		}
		return nil
	})
}

func TestCommDupAndGroups(t *testing.T) {
	runSPMD(t, 4, func(p *Proc) error {
		dup, code := p.CommDup(p.CommWorld)
		if code != Success {
			return codef(code, "dup")
		}
		if dup.CID == p.CommWorld.CID {
			return fmt.Errorf("dup shares the parent's context id")
		}
		g, code := p.CommGroup(dup)
		if code != Success {
			return codef(code, "group")
		}
		sub, code := p.GroupExcl(g, []int{0})
		if code != Success {
			return codef(code, "excl")
		}
		nc, code := p.CommCreate(dup, sub)
		if code != Success {
			return codef(code, "create")
		}
		if p.Rank() == 0 {
			if nc != nil {
				return fmt.Errorf("excluded rank got a communicator")
			}
			return nil
		}
		sz, _ := p.CommSize(nc)
		if sz != 3 {
			return fmt.Errorf("created size = %d", sz)
		}
		return nil
	})
}

func TestDerivedTypes(t *testing.T) {
	runSPMD(t, 2, func(p *Proc) error {
		vec, code := p.TypeVector(2, 1, 3, p.Type(types.KindInt32))
		if code != Success {
			return codef(code, "vector")
		}
		if code := p.TypeCommit(vec); code != Success {
			return codef(code, "commit")
		}
		sz, _ := p.TypeSize(vec)
		ext, _ := p.TypeExtent(vec)
		if sz != 8 || ext != 16 {
			return fmt.Errorf("size/extent = %d/%d, want 8/16", sz, ext)
		}
		if p.Rank() == 0 {
			return codef(p.Send(abi.Int32Bytes([]int32{7, 0, 0, 8}), 1, vec, 1, 0, p.CommWorld), "send")
		}
		dst := make([]byte, 16)
		var st Status
		if code := p.Recv(dst, 1, vec, 0, 0, p.CommWorld, &st); code != Success {
			return codef(code, "recv")
		}
		got := abi.Int32sOf(dst)
		if got[0] != 7 || got[3] != 8 {
			return fmt.Errorf("strided = %v", got)
		}
		cnt, code := p.GetCount(&st, vec)
		if code != Success || cnt != 1 {
			return fmt.Errorf("GetCount = %d code=%d", cnt, code)
		}
		return nil
	})
}

func TestErrorCodesDifferFromMPICH(t *testing.T) {
	// The numeric values are part of each implementation's ABI. Open MPI's
	// MPI_ERR_REQUEST is 7 and MPI_ERR_ROOT is 8; MPICH has 19 and 7. A
	// shim translating codes without a table would be wrong.
	if ErrRequest != 7 || ErrRoot != 8 || ErrTruncate != 15 {
		t.Fatalf("Open MPI error table changed: req=%d root=%d trunc=%d",
			ErrRequest, ErrRoot, ErrTruncate)
	}
	if AnySource != -1 || ProcNull != -3 {
		t.Fatalf("Open MPI constants changed: anysrc=%d procnull=%d", AnySource, ProcNull)
	}
}

func TestBadArguments(t *testing.T) {
	runSPMD(t, 1, func(p *Proc) error {
		bt := p.Type(types.KindByte)
		if code := p.Send(nil, 1, bt, 0, 0, nil); code != ErrComm {
			return fmt.Errorf("nil comm = %d", code)
		}
		if code := p.Send(nil, 1, nil, 0, 0, p.CommWorld); code != ErrType {
			return fmt.Errorf("nil type = %d", code)
		}
		if code := p.Send(nil, 1, bt, 7, 0, p.CommWorld); code != ErrRank {
			return fmt.Errorf("bad rank = %d", code)
		}
		if code := p.Bcast(nil, 1, bt, -9, p.CommWorld); code != ErrRoot {
			return fmt.Errorf("bad root = %d", code)
		}
		if code := p.CommFree(p.CommWorld); code != ErrComm {
			return fmt.Errorf("free world = %d", code)
		}
		if code := p.TypeFree(bt); code != ErrType {
			return fmt.Errorf("free predefined = %d", code)
		}
		if code := p.OpFree(p.PredefOp(ops.OpSum)); code != ErrOp {
			return fmt.Errorf("free predefined op = %d", code)
		}
		return nil
	})
}

func TestTruncationCode(t *testing.T) {
	runSPMD(t, 2, func(p *Proc) error {
		bt := p.Type(types.KindByte)
		if p.Rank() == 0 {
			return codef(p.Send(make([]byte, 50), 50, bt, 1, 0, p.CommWorld), "send")
		}
		var st Status
		code := p.Recv(make([]byte, 5), 5, bt, 0, 0, p.CommWorld, &st)
		if code != ErrTruncate {
			return fmt.Errorf("code = %d, want ErrTruncate(%d)", code, ErrTruncate)
		}
		return nil
	})
}
