package mpich

import (
	"bytes"
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

// runSPMD launches fn on n ranks and fails the test on error or timeout.
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

func codef(code int, op string) error {
	if code != Success {
		return fmt.Errorf("%s failed: %s (code %d)", op, ErrorString(code), code)
	}
	return nil
}

func TestSendRecvEager(t *testing.T) {
	runSPMD(t, 2, func(p *Proc) error {
		ft64 := TypeHandle(types.KindFloat64)
		if p.Rank() == 0 {
			buf := abi.Float64Bytes([]float64{1.5, -2.5, 3.25})
			return codef(p.Send(buf, 3, ft64, 1, 7, CommWorld), "send")
		}
		buf := make([]byte, 24)
		var st Status
		if err := codef(p.Recv(buf, 3, ft64, 0, 7, CommWorld, &st), "recv"); err != nil {
			return err
		}
		got := abi.Float64sOf(buf)
		if got[0] != 1.5 || got[1] != -2.5 || got[2] != 3.25 {
			return fmt.Errorf("payload corrupted: %v", got)
		}
		if st.Source != 0 || st.Tag != 7 || st.CountBytes() != 24 {
			return fmt.Errorf("status wrong: %+v", st)
		}
		return nil
	})
}

func TestSendRecvRendezvous(t *testing.T) {
	const n = 64 * 1024 // above eagerMax
	runSPMD(t, 2, func(p *Proc) error {
		bt := TypeHandle(types.KindByte)
		if p.Rank() == 0 {
			buf := make([]byte, n)
			for i := range buf {
				buf[i] = byte(i * 31)
			}
			return codef(p.Send(buf, n, bt, 1, 3, CommWorld), "send")
		}
		buf := make([]byte, n)
		var st Status
		if err := codef(p.Recv(buf, n, bt, 0, 3, CommWorld, &st), "recv"); err != nil {
			return err
		}
		for i := range buf {
			if buf[i] != byte(i*31) {
				return fmt.Errorf("byte %d corrupted", i)
			}
		}
		if st.CountBytes() != n {
			return fmt.Errorf("count = %d, want %d", st.CountBytes(), n)
		}
		return nil
	})
}

func TestRecvWildcards(t *testing.T) {
	runSPMD(t, 3, func(p *Proc) error {
		bt := TypeHandle(types.KindByte)
		switch p.Rank() {
		case 1, 2:
			return codef(p.Send([]byte{byte(p.Rank())}, 1, bt, 0, 10+p.Rank(), CommWorld), "send")
		}
		seen := map[int32]bool{}
		for i := 0; i < 2; i++ {
			buf := make([]byte, 1)
			var st Status
			if err := codef(p.Recv(buf, 1, bt, AnySource, AnyTag, CommWorld, &st), "recv"); err != nil {
				return err
			}
			if int32(buf[0]) != st.Source {
				return fmt.Errorf("payload %d does not match source %d", buf[0], st.Source)
			}
			if st.Tag != 10+st.Source {
				return fmt.Errorf("tag %d for source %d", st.Tag, st.Source)
			}
			seen[st.Source] = true
		}
		if !seen[1] || !seen[2] {
			return fmt.Errorf("missing senders: %v", seen)
		}
		return nil
	})
}

func TestProcNull(t *testing.T) {
	runSPMD(t, 1, func(p *Proc) error {
		bt := TypeHandle(types.KindByte)
		if err := codef(p.Send(nil, 0, bt, ProcNull, 0, CommWorld), "send to PROC_NULL"); err != nil {
			return err
		}
		var st Status
		if err := codef(p.Recv(nil, 0, bt, ProcNull, 0, CommWorld, &st), "recv from PROC_NULL"); err != nil {
			return err
		}
		if st.Source != ProcNull || st.Tag != AnyTag || st.CountBytes() != 0 {
			return fmt.Errorf("PROC_NULL status wrong: %+v", st)
		}
		return nil
	})
}

func TestTruncation(t *testing.T) {
	runSPMD(t, 2, func(p *Proc) error {
		bt := TypeHandle(types.KindByte)
		if p.Rank() == 0 {
			return codef(p.Send(make([]byte, 100), 100, bt, 1, 0, CommWorld), "send")
		}
		var st Status
		code := p.Recv(make([]byte, 10), 10, bt, 0, 0, CommWorld, &st)
		if code != ErrTruncate {
			return fmt.Errorf("code = %d, want ErrTruncate", code)
		}
		if st.CountBytes() != 10 {
			return fmt.Errorf("truncated count = %d, want 10", st.CountBytes())
		}
		return nil
	})
}

func TestIsendIrecvWaitall(t *testing.T) {
	runSPMD(t, 4, func(p *Proc) error {
		it := TypeHandle(types.KindInt64)
		n := p.Size()
		me := p.Rank()
		right := (me + 1) % n
		left := (me - 1 + n) % n
		sendbuf := abi.Int64Bytes([]int64{int64(me * 100)})
		recvbuf := make([]byte, 8)
		var reqs []Handle
		r1, code := p.Irecv(recvbuf, 1, it, left, 5, CommWorld)
		if code != Success {
			return codef(code, "irecv")
		}
		r2, code := p.Isend(sendbuf, 1, it, right, 5, CommWorld)
		if code != Success {
			return codef(code, "isend")
		}
		reqs = append(reqs, r1, r2)
		sts := make([]Status, 2)
		if err := codef(p.Waitall(reqs, sts), "waitall"); err != nil {
			return err
		}
		got := abi.Int64sOf(recvbuf)[0]
		if got != int64(left*100) {
			return fmt.Errorf("ring recv = %d, want %d", got, left*100)
		}
		if sts[0].Source != int32(left) {
			return fmt.Errorf("status source = %d, want %d", sts[0].Source, left)
		}
		return nil
	})
}

func TestTestPolling(t *testing.T) {
	runSPMD(t, 2, func(p *Proc) error {
		bt := TypeHandle(types.KindByte)
		if p.Rank() == 0 {
			// Delay the send so rank 1 polls at least once.
			time.Sleep(20 * time.Millisecond)
			return codef(p.Send([]byte{42}, 1, bt, 1, 1, CommWorld), "send")
		}
		buf := make([]byte, 1)
		req, code := p.Irecv(buf, 1, bt, 0, 1, CommWorld)
		if code != Success {
			return codef(code, "irecv")
		}
		var st Status
		for {
			done, code := p.Test(req, &st)
			if code != Success {
				return codef(code, "test")
			}
			if done {
				break
			}
		}
		if buf[0] != 42 {
			return fmt.Errorf("payload = %d", buf[0])
		}
		return nil
	})
}

func TestSendrecvExchange(t *testing.T) {
	runSPMD(t, 2, func(p *Proc) error {
		it := TypeHandle(types.KindInt32)
		me := p.Rank()
		other := 1 - me
		sb := abi.Int32Bytes([]int32{int32(me + 1)})
		rb := make([]byte, 4)
		var st Status
		if err := codef(p.Sendrecv(sb, 1, it, other, 9, rb, 1, it, other, 9, CommWorld, &st), "sendrecv"); err != nil {
			return err
		}
		if got := abi.Int32sOf(rb)[0]; got != int32(other+1) {
			return fmt.Errorf("got %d, want %d", got, other+1)
		}
		return nil
	})
}

func TestBarrierCompletes(t *testing.T) {
	for _, n := range []int{1, 2, 3, 4, 7, 8} {
		t.Run(fmt.Sprintf("n=%d", n), func(t *testing.T) {
			runSPMD(t, n, func(p *Proc) error {
				for i := 0; i < 3; i++ {
					if code := p.Barrier(CommWorld); code != Success {
						return codef(code, "barrier")
					}
				}
				return nil
			})
		})
	}
}

func TestBcastSizes(t *testing.T) {
	// Cross the binomial/scatter-ring threshold and odd communicator sizes.
	for _, n := range []int{2, 3, 4, 5, 8} {
		for _, count := range []int{1, 100, 5000} { // 8B, 800B, 40KB of float64
			t.Run(fmt.Sprintf("n=%d count=%d", n, count), func(t *testing.T) {
				runSPMD(t, n, func(p *Proc) error {
					ft := TypeHandle(types.KindFloat64)
					buf := make([]byte, count*8)
					if p.Rank() == 2%n {
						vals := make([]float64, count)
						for i := range vals {
							vals[i] = float64(i) * 0.5
						}
						abi.PutFloat64s(buf, vals)
					}
					if code := p.Bcast(buf, count, ft, 2%n, CommWorld); code != Success {
						return codef(code, "bcast")
					}
					got := abi.Float64sOf(buf)
					for i := range got {
						if got[i] != float64(i)*0.5 {
							return fmt.Errorf("element %d = %v, want %v", i, got[i], float64(i)*0.5)
						}
					}
					return nil
				})
			})
		}
	}
}

func TestReduceSum(t *testing.T) {
	for _, n := range []int{1, 3, 4, 6} {
		t.Run(fmt.Sprintf("n=%d", n), func(t *testing.T) {
			runSPMD(t, n, func(p *Proc) error {
				it := TypeHandle(types.KindInt64)
				sb := abi.Int64Bytes([]int64{int64(p.Rank() + 1), int64(10 * (p.Rank() + 1))})
				rb := make([]byte, 16)
				if code := p.Reduce(sb, rb, 2, it, OpHandle(ops.OpSum), 0, CommWorld); code != Success {
					return codef(code, "reduce")
				}
				if p.Rank() == 0 {
					want := int64(n * (n + 1) / 2)
					got := abi.Int64sOf(rb)
					if got[0] != want || got[1] != 10*want {
						return fmt.Errorf("reduce = %v, want [%d %d]", got, want, 10*want)
					}
				}
				return nil
			})
		})
	}
}

func TestAllreduceSizesAndShapes(t *testing.T) {
	// Exercise recursive doubling (small, non-pow2) and Rabenseifner
	// (large, pow2).
	for _, n := range []int{2, 3, 4, 5, 8} {
		for _, count := range []int{1, 3, 1024} { // 8B, 24B, 8KB
			t.Run(fmt.Sprintf("n=%d count=%d", n, count), func(t *testing.T) {
				runSPMD(t, n, func(p *Proc) error {
					it := TypeHandle(types.KindInt64)
					vals := make([]int64, count)
					for i := range vals {
						vals[i] = int64(p.Rank()+1) * int64(i+1)
					}
					sb := abi.Int64Bytes(vals)
					rb := make([]byte, count*8)
					if code := p.Allreduce(sb, rb, count, it, OpHandle(ops.OpSum), CommWorld); code != Success {
						return codef(code, "allreduce")
					}
					got := abi.Int64sOf(rb)
					tri := int64(n * (n + 1) / 2)
					for i := range got {
						if got[i] != tri*int64(i+1) {
							return fmt.Errorf("elem %d = %d, want %d", i, got[i], tri*int64(i+1))
						}
					}
					return nil
				})
			})
		}
	}
}

func TestAllreduceMax(t *testing.T) {
	runSPMD(t, 5, func(p *Proc) error {
		it := TypeHandle(types.KindInt32)
		sb := abi.Int32Bytes([]int32{int32(p.Rank() * 7 % 5)})
		rb := make([]byte, 4)
		if code := p.Allreduce(sb, rb, 1, it, OpHandle(ops.OpMax), CommWorld); code != Success {
			return codef(code, "allreduce max")
		}
		if got := abi.Int32sOf(rb)[0]; got != 4 {
			return fmt.Errorf("max = %d, want 4", got)
		}
		return nil
	})
}

func TestGatherScatter(t *testing.T) {
	for _, n := range []int{2, 3, 4, 7} {
		t.Run(fmt.Sprintf("n=%d", n), func(t *testing.T) {
			runSPMD(t, n, func(p *Proc) error {
				it := TypeHandle(types.KindInt32)
				root := n - 1
				me := p.Rank()
				sb := abi.Int32Bytes([]int32{int32(me), int32(me * 10)})
				var rb []byte
				if me == root {
					rb = make([]byte, n*8)
				}
				if code := p.Gather(sb, 2, it, rb, 2, it, root, CommWorld); code != Success {
					return codef(code, "gather")
				}
				if me == root {
					got := abi.Int32sOf(rb)
					for r := 0; r < n; r++ {
						if got[2*r] != int32(r) || got[2*r+1] != int32(r*10) {
							return fmt.Errorf("gather block %d = %v", r, got[2*r:2*r+2])
						}
					}
				}
				// Scatter the gathered data back out.
				rb2 := make([]byte, 8)
				if code := p.Scatter(rb, 2, it, rb2, 2, it, root, CommWorld); code != Success {
					return codef(code, "scatter")
				}
				got := abi.Int32sOf(rb2)
				if got[0] != int32(me) || got[1] != int32(me*10) {
					return fmt.Errorf("scatter = %v, want [%d %d]", got, me, me*10)
				}
				return nil
			})
		})
	}
}

func TestAllgather(t *testing.T) {
	for _, n := range []int{2, 4, 5} { // pow2 (recursive doubling) and odd (ring)
		for _, count := range []int{1, 2000} {
			t.Run(fmt.Sprintf("n=%d count=%d", n, count), func(t *testing.T) {
				runSPMD(t, n, func(p *Proc) error {
					it := TypeHandle(types.KindInt64)
					me := p.Rank()
					vals := make([]int64, count)
					for i := range vals {
						vals[i] = int64(me)*1000 + int64(i)
					}
					sb := abi.Int64Bytes(vals)
					rb := make([]byte, n*count*8)
					if code := p.Allgather(sb, count, it, rb, count, it, CommWorld); code != Success {
						return codef(code, "allgather")
					}
					got := abi.Int64sOf(rb)
					for r := 0; r < n; r++ {
						for i := 0; i < count; i++ {
							want := int64(r)*1000 + int64(i)
							if got[r*count+i] != want {
								return fmt.Errorf("block %d elem %d = %d, want %d", r, i, got[r*count+i], want)
							}
						}
					}
					return nil
				})
			})
		}
	}
}

func TestAlltoallBruckAndPairwise(t *testing.T) {
	for _, n := range []int{2, 3, 4, 6, 8} {
		for _, count := range []int{1, 200} { // 8B blocks (Bruck), 1600B (pairwise)
			t.Run(fmt.Sprintf("n=%d count=%d", n, count), func(t *testing.T) {
				runSPMD(t, n, func(p *Proc) error {
					it := TypeHandle(types.KindInt64)
					me := p.Rank()
					vals := make([]int64, n*count)
					for d := 0; d < n; d++ {
						for i := 0; i < count; i++ {
							vals[d*count+i] = int64(me*1000000 + d*1000 + i)
						}
					}
					sb := abi.Int64Bytes(vals)
					rb := make([]byte, n*count*8)
					if code := p.Alltoall(sb, count, it, rb, count, it, CommWorld); code != Success {
						return codef(code, "alltoall")
					}
					got := abi.Int64sOf(rb)
					for s := 0; s < n; s++ {
						for i := 0; i < count; i++ {
							want := int64(s*1000000 + me*1000 + i)
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

func TestCommDupIsolation(t *testing.T) {
	runSPMD(t, 2, func(p *Proc) error {
		dup, code := p.CommDup(CommWorld)
		if code != Success {
			return codef(code, "dup")
		}
		bt := TypeHandle(types.KindByte)
		me := p.Rank()
		if me == 0 {
			// Same peer+tag on two communicators must not cross-match.
			if code := p.Send([]byte{1}, 1, bt, 1, 0, CommWorld); code != Success {
				return codef(code, "send world")
			}
			if code := p.Send([]byte{2}, 1, bt, 1, 0, dup); code != Success {
				return codef(code, "send dup")
			}
			return nil
		}
		buf := make([]byte, 1)
		if code := p.Recv(buf, 1, bt, 0, 0, dup, nil); code != Success {
			return codef(code, "recv dup")
		}
		if buf[0] != 2 {
			return fmt.Errorf("dup recv = %d, want 2", buf[0])
		}
		if code := p.Recv(buf, 1, bt, 0, 0, CommWorld, nil); code != Success {
			return codef(code, "recv world")
		}
		if buf[0] != 1 {
			return fmt.Errorf("world recv = %d, want 1", buf[0])
		}
		return nil
	})
}

func TestCommSplit(t *testing.T) {
	runSPMD(t, 6, func(p *Proc) error {
		me := p.Rank()
		color := me % 2
		sub, code := p.CommSplit(CommWorld, color, -me) // reverse order by key
		if code != Success {
			return codef(code, "split")
		}
		sz, code := p.CommSize(sub)
		if code != Success {
			return codef(code, "size")
		}
		if sz != 3 {
			return fmt.Errorf("subcomm size = %d, want 3", sz)
		}
		rank, _ := p.CommRank(sub)
		// Keys are -me, so higher parent ranks come first.
		wantRank := map[int]int{0: 2, 2: 1, 4: 0, 1: 2, 3: 1, 5: 0}[me]
		if rank != wantRank {
			return fmt.Errorf("subcomm rank = %d, want %d", rank, wantRank)
		}
		// The subcommunicator must work for collectives.
		it := TypeHandle(types.KindInt64)
		sb := abi.Int64Bytes([]int64{int64(me)})
		rb := make([]byte, 8)
		if code := p.Allreduce(sb, rb, 1, it, OpHandle(ops.OpSum), sub); code != Success {
			return codef(code, "allreduce on split")
		}
		want := int64(0 + 2 + 4)
		if color == 1 {
			want = 1 + 3 + 5
		}
		if got := abi.Int64sOf(rb)[0]; got != want {
			return fmt.Errorf("split allreduce = %d, want %d", got, want)
		}
		return nil
	})
}

func TestCommSplitUndefined(t *testing.T) {
	runSPMD(t, 3, func(p *Proc) error {
		color := 0
		if p.Rank() == 1 {
			color = Undefined
		}
		sub, code := p.CommSplit(CommWorld, color, 0)
		if code != Success {
			return codef(code, "split")
		}
		if p.Rank() == 1 {
			if sub != CommNull {
				return fmt.Errorf("undefined color got %v, want CommNull", sub)
			}
			return nil
		}
		sz, _ := p.CommSize(sub)
		if sz != 2 {
			return fmt.Errorf("size = %d, want 2", sz)
		}
		return nil
	})
}

func TestGroupsAndCommCreate(t *testing.T) {
	runSPMD(t, 4, func(p *Proc) error {
		wg, code := p.CommGroup(CommWorld)
		if code != Success {
			return codef(code, "comm_group")
		}
		sub, code := p.GroupIncl(wg, []int{0, 2})
		if code != Success {
			return codef(code, "group_incl")
		}
		gsz, _ := p.GroupSize(sub)
		if gsz != 2 {
			return fmt.Errorf("group size = %d", gsz)
		}
		grank, _ := p.GroupRank(sub)
		wantRank := map[int]int{0: 0, 1: Undefined, 2: 1, 3: Undefined}[p.Rank()]
		if grank != wantRank {
			return fmt.Errorf("group rank = %d, want %d", grank, wantRank)
		}
		trans, code := p.GroupTranslateRanks(sub, []int{0, 1}, wg)
		if code != Success {
			return codef(code, "translate")
		}
		if trans[0] != 0 || trans[1] != 2 {
			return fmt.Errorf("translate = %v", trans)
		}
		nc, code := p.CommCreate(CommWorld, sub)
		if code != Success {
			return codef(code, "comm_create")
		}
		if p.Rank() == 1 || p.Rank() == 3 {
			if nc != CommNull {
				return fmt.Errorf("non-member got %v", nc)
			}
			return nil
		}
		sz, _ := p.CommSize(nc)
		if sz != 2 {
			return fmt.Errorf("created comm size = %d", sz)
		}
		return nil
	})
}

func TestGroupExcl(t *testing.T) {
	runSPMD(t, 4, func(p *Proc) error {
		wg, _ := p.CommGroup(CommWorld)
		sub, code := p.GroupExcl(wg, []int{1})
		if code != Success {
			return codef(code, "group_excl")
		}
		sz, _ := p.GroupSize(sub)
		if sz != 3 {
			return fmt.Errorf("size = %d", sz)
		}
		if err := codef(p.GroupFree(sub), "group_free"); err != nil {
			return err
		}
		return codef(p.GroupFree(wg), "group_free 2")
	})
}

func TestDerivedTypeSendRecv(t *testing.T) {
	runSPMD(t, 2, func(p *Proc) error {
		// Send a strided column: vector of 3 int32 blocks with stride 2.
		vec, code := p.TypeVector(3, 1, 2, TypeHandle(types.KindInt32))
		if code != Success {
			return codef(code, "type_vector")
		}
		if code := p.TypeCommit(vec); code != Success {
			return codef(code, "commit")
		}
		sz, _ := p.TypeSize(vec)
		ext, _ := p.TypeExtent(vec)
		if sz != 12 || ext != 20 {
			return fmt.Errorf("size/extent = %d/%d, want 12/20", sz, ext)
		}
		if p.Rank() == 0 {
			src := abi.Int32Bytes([]int32{1, -1, 2, -2, 3})
			return codef(p.Send(src, 1, vec, 1, 0, CommWorld), "send vec")
		}
		dst := make([]byte, 20)
		var st Status
		if code := p.Recv(dst, 1, vec, 0, 0, CommWorld, &st); code != Success {
			return codef(code, "recv vec")
		}
		got := abi.Int32sOf(dst)
		if got[0] != 1 || got[2] != 2 || got[4] != 3 {
			return fmt.Errorf("strided recv = %v", got)
		}
		if got[1] != 0 || got[3] != 0 {
			return fmt.Errorf("holes written: %v", got)
		}
		cnt, code := p.GetCount(&st, vec)
		if code != Success || cnt != 1 {
			return fmt.Errorf("GetCount = %d (code %d), want 1", cnt, code)
		}
		return codef(p.TypeFree(vec), "type_free")
	})
}

func TestErrorsOnBadArguments(t *testing.T) {
	runSPMD(t, 1, func(p *Proc) error {
		bt := TypeHandle(types.KindByte)
		if code := p.Send(nil, 1, bt, 0, 0, CommNull); code != ErrComm {
			return fmt.Errorf("send on null comm = %d, want ErrComm", code)
		}
		if code := p.Send(nil, 1, bt, 5, 0, CommWorld); code != ErrRank {
			return fmt.Errorf("send to bad rank = %d, want ErrRank", code)
		}
		if code := p.Send(nil, 1, bt, 0, -5, CommWorld); code != ErrTag {
			return fmt.Errorf("bad tag = %d, want ErrTag", code)
		}
		if code := p.Send(nil, -1, bt, 0, 0, CommWorld); code != ErrCount {
			return fmt.Errorf("bad count = %d, want ErrCount", code)
		}
		if code := p.Send(nil, 1, Handle(0x4c0000ff), 0, 0, CommWorld); code != ErrType {
			return fmt.Errorf("bad type = %d, want ErrType", code)
		}
		if code := p.Bcast(nil, 1, bt, 9, CommWorld); code != ErrRoot {
			return fmt.Errorf("bad root = %d, want ErrRoot", code)
		}
		if code := p.CommFree(CommWorld); code != ErrComm {
			return fmt.Errorf("free world = %d, want ErrComm", code)
		}
		if code := p.TypeFree(bt); code != ErrType {
			return fmt.Errorf("free predefined type = %d, want ErrType", code)
		}
		if code := p.Wait(Handle(classRequest|0x7777), nil); code != ErrRequest {
			return fmt.Errorf("wait bogus request = %d, want ErrRequest", code)
		}
		return nil
	})
}

func TestStatusLayoutBits(t *testing.T) {
	var s Status
	s.setCount(0x1_0000_0002)
	if s.CountBytes() != 0x1_0000_0002 {
		t.Fatalf("split count round-trip = %#x", s.CountBytes())
	}
	s.SetCancelled(true)
	if !s.IsCancelled() || s.CountBytes() != 0x1_0000_0002 {
		t.Fatal("cancelled bit clobbered the count")
	}
	s.SetCancelled(false)
	if s.IsCancelled() {
		t.Fatal("cancelled bit stuck")
	}
}

func TestVirtualTimeAdvances(t *testing.T) {
	w, err := fabric.NewWorld(simnet.SingleNode(2))
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	var t0, t1 simnet.Time
	var wg sync.WaitGroup
	wg.Add(2)
	w.Spawn(0, func() {
		defer wg.Done()
		p := Init(w, 0)
		p.Send(make([]byte, 4096), 4096, TypeHandle(types.KindByte), 1, 0, CommWorld)
		t0 = w.Endpoint(0).Clock().Now()
	})
	w.Spawn(1, func() {
		defer wg.Done()
		p := Init(w, 1)
		p.Recv(make([]byte, 4096), 4096, TypeHandle(types.KindByte), 0, 0, CommWorld, nil)
		t1 = w.Endpoint(1).Clock().Now()
	})
	wg.Wait()
	if t0 <= 0 || t1 <= t0 {
		t.Fatalf("virtual time not advancing: sender=%v receiver=%v", t0, t1)
	}
}

func TestHandleHelpers(t *testing.T) {
	if !CommNull.isNull() || CommWorld.isNull() {
		t.Fatal("null detection broken")
	}
	if CommWorld.class() != classComm || GroupEmpty.class() != classGroup {
		t.Fatal("class bits broken")
	}
	if CommWorld.String() == "" {
		t.Fatal("no diagnostics")
	}
	if !bytes.Contains([]byte(Init(mustWorld(t), 0).debugString()), []byte("mpich rank 0")) {
		t.Fatal("debugString broken")
	}
}

func mustWorld(t *testing.T) *fabric.World {
	t.Helper()
	w, err := fabric.NewWorld(simnet.SingleNode(1))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(w.Close)
	return w
}
