package mpicore

import (
	"fmt"
	"sync"
	"testing"

	"repro/internal/fabric"
	"repro/internal/simnet"
	"repro/internal/types"
)

// ulfmWorld builds a world plus one runtime instance per rank without
// spawning fibers (single-threaded tests drive ranks by hand, and only
// while every blocking call they make has its completion queued).
func ulfmWorld(t *testing.T, n int, pol Policy) (*fabric.World, []*Proc) {
	t.Helper()
	w, err := fabric.NewWorld(simnet.SingleNode(n))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(w.Close)
	procs := make([]*Proc, n)
	for r := 0; r < n; r++ {
		procs[r] = NewProc(w, r, testConsts, testCodes, pol)
	}
	return w, procs
}

// TestFailureSweepCompletesPendingRecv: a posted receive from a rank
// that dies completes with ErrProcFailed when the failure notice lands,
// instead of hanging.
func TestFailureSweepCompletesPendingRecv(t *testing.T) {
	pol := testPolicies()["treeish"]
	w, procs := ulfmWorld(t, 2, pol)
	p0 := procs[0]
	buf := make([]byte, 8)
	r, code := p0.Irecv(buf, 1, p0.Predef(types.KindInt64), 1, 7, p0.CommWorld)
	if code != testCodes.Success {
		t.Fatalf("Irecv = %d", code)
	}
	w.Kill(1)
	w.NotifyFailure(1)
	if code := p0.Wait(r, nil); code != testCodes.ErrProcFailed {
		t.Fatalf("Wait on dead source = %d, want ErrProcFailed %d", code, testCodes.ErrProcFailed)
	}
	// New operations against the dead rank fail immediately, in both
	// directions.
	if code := p0.Send(buf, 1, p0.Predef(types.KindInt64), 1, 7, p0.CommWorld); code != testCodes.ErrProcFailed {
		t.Fatalf("Send to dead rank = %d", code)
	}
	if code := p0.Recv(buf, 1, p0.Predef(types.KindInt64), 1, 7, p0.CommWorld, nil); code != testCodes.ErrProcFailed {
		t.Fatalf("Recv from dead rank = %d", code)
	}
}

// TestDataFromDeadRankStillDelivers: fail-stop ordering — a message the
// victim sent before dying is dispatched ahead of the failure notice
// and must still deliver (ULFM completes what can complete).
func TestDataFromDeadRankStillDelivers(t *testing.T) {
	pol := testPolicies()["treeish"]
	w, procs := ulfmWorld(t, 2, pol)
	p0, p1 := procs[0], procs[1]
	payload := []byte{1, 2, 3, 4, 5, 6, 7, 8}
	if code := p1.Send(payload, 8, p1.Predef(types.KindByte), 0, 3, p1.CommWorld); code != testCodes.Success {
		t.Fatalf("Send = %d", code)
	}
	w.Kill(1)
	w.NotifyFailure(1)
	got := make([]byte, 8)
	var st Status
	if code := p0.Recv(got, 8, p0.Predef(types.KindByte), 1, 3, p0.CommWorld, &st); code != testCodes.Success {
		t.Fatalf("Recv of pre-death payload = %d", code)
	}
	if string(got) != string(payload) {
		t.Fatalf("payload = %v", got)
	}
	// The next receive, with nothing in flight, fails.
	if code := p0.Recv(got, 8, p0.Predef(types.KindByte), 1, 3, p0.CommWorld, nil); code != testCodes.ErrProcFailed {
		t.Fatalf("post-death Recv = %d, want ErrProcFailed", code)
	}
}

// TestAnySourceAckCycle: wildcard receives raise ErrProcFailed while an
// unacknowledged failure exists, and work again after CommFailureAck —
// with the acked group reported by CommFailureGetAcked.
func TestAnySourceAckCycle(t *testing.T) {
	pol := testPolicies()["treeish"]
	w, procs := ulfmWorld(t, 3, pol)
	p0 := procs[0]
	w.Kill(2)
	w.NotifyFailure(2)
	buf := make([]byte, 8)
	bt := p0.Predef(types.KindInt64)
	if code := p0.Recv(buf, 1, bt, testConsts.AnySource, 5, p0.CommWorld, nil); code != testCodes.ErrProcFailed {
		t.Fatalf("wildcard recv over unacked failure = %d, want ErrProcFailed", code)
	}
	if code := p0.CommFailureAck(p0.CommWorld); code != testCodes.Success {
		t.Fatalf("ack = %d", code)
	}
	g, code := p0.CommFailureGetAcked(p0.CommWorld)
	if code != testCodes.Success || len(g.Ranks) != 1 || g.Ranks[0] != 2 {
		t.Fatalf("acked group = %+v (code %d)", g, code)
	}
	// Re-armed: the wildcard recv now matches live traffic.
	if code := procs[1].Send([]byte{9, 0, 0, 0, 0, 0, 0, 0}, 1, procs[1].Predef(types.KindInt64), 0, 5, procs[1].CommWorld); code != testCodes.Success {
		t.Fatalf("Send = %d", code)
	}
	var st Status
	if code := p0.Recv(buf, 1, bt, testConsts.AnySource, 5, p0.CommWorld, &st); code != testCodes.Success {
		t.Fatalf("wildcard recv after ack = %d", code)
	}
	if st.Source != 1 {
		t.Fatalf("source = %d", st.Source)
	}
}

// TestRevokePoisonsEverythingButULFM: after a revocation notice, every
// regular operation answers ErrRevoked — p2p, probes, collectives,
// communicator creation — while Shrink and Agree still work.
func TestRevokePoisonsEverythingButULFM(t *testing.T) {
	pol := testPolicies()["treeish"]
	w, procs := ulfmWorld(t, 2, pol)
	p0, p1 := procs[0], procs[1]
	if code := p0.CommRevoke(p0.CommWorld); code != testCodes.Success {
		t.Fatalf("revoke = %d", code)
	}
	// Deliver the revoke notice to rank 1.
	if code := p1.Progress(true); code != testCodes.Success {
		t.Fatalf("progress = %d", code)
	}
	if !p1.CommRevoked(p1.CommWorld) {
		t.Fatal("revocation did not propagate")
	}
	for rank, p := range []*Proc{p0, p1} {
		buf := make([]byte, 8)
		bt := p.Predef(types.KindInt64)
		if code := p.Send(buf, 1, bt, 1-rank, 1, p.CommWorld); code != testCodes.ErrRevoked {
			t.Errorf("rank %d Send on revoked comm = %d, want ErrRevoked", rank, code)
		}
		if _, code := p.Isend(buf, 1, bt, 1-rank, 1, p.CommWorld); code != testCodes.ErrRevoked {
			t.Errorf("rank %d Isend = %d", rank, code)
		}
		if code := p.Recv(buf, 1, bt, 1-rank, 1, p.CommWorld, nil); code != testCodes.ErrRevoked {
			t.Errorf("rank %d Recv = %d", rank, code)
		}
		if code := p.Probe(1-rank, 1, p.CommWorld, nil); code != testCodes.ErrRevoked {
			t.Errorf("rank %d Probe = %d", rank, code)
		}
		if _, code := p.Iprobe(1-rank, 1, p.CommWorld, nil); code != testCodes.ErrRevoked {
			t.Errorf("rank %d Iprobe = %d", rank, code)
		}
		if code := p.Barrier(p.CommWorld); code != testCodes.ErrRevoked {
			t.Errorf("rank %d Barrier = %d", rank, code)
		}
		if code := p.Bcast(buf, 1, bt, 0, p.CommWorld); code != testCodes.ErrRevoked {
			t.Errorf("rank %d Bcast = %d", rank, code)
		}
		if _, code := p.CommDup(p.CommWorld); code != testCodes.ErrRevoked {
			t.Errorf("rank %d CommDup = %d", rank, code)
		}
		if _, code := p.CommSplit(p.CommWorld, 0, 0); code != testCodes.ErrRevoked {
			t.Errorf("rank %d CommSplit = %d", rank, code)
		}
	}
	// Shrink still works on the revoked communicator (no one died, so it
	// reproduces the full membership under a fresh cid) — driven from
	// both ranks' fibers since it communicates.
	type res struct {
		nc   *Comm
		code int
	}
	out := make([]res, 2)
	var wg sync.WaitGroup
	for r, p := range procs {
		r, p := r, p
		wg.Add(1)
		w.Spawn(r, func() {
			defer wg.Done()
			nc, code := p.CommShrink(p.CommWorld)
			out[r] = res{nc, code}
		})
	}
	wg.Wait()
	a, b := out[0], out[1]
	if a.code != testCodes.Success || b.code != testCodes.Success {
		t.Fatalf("shrink codes = %d, %d", a.code, b.code)
	}
	if a.nc.CID != b.nc.CID {
		t.Fatalf("survivors derived different cids: %d vs %d", a.nc.CID, b.nc.CID)
	}
	if a.nc.Size() != 2 {
		t.Fatalf("shrink of intact comm has size %d", a.nc.Size())
	}
	if a.nc.CID == p0.CommWorld.CID || p0.ft.Revoked(a.nc.CID) {
		t.Fatal("shrunken comm inherited the parent's cid or revocation")
	}
}

// TestShrinkAndAgreeAcrossPolicies runs the recovery collectives under
// both algorithm personalities with a mid-world death: all survivors
// must agree on the membership, the context id, and the AND-folded
// agreement flag.
func TestShrinkAndAgreeAcrossPolicies(t *testing.T) {
	for name, pol := range testPolicies() {
		for _, n := range []int{2, 3, 5, 8} {
			t.Run(fmt.Sprintf("%s/n%d", name, n), func(t *testing.T) {
				victim := n / 2
				runSPMD(t, n, pol, func(p *Proc) error {
					me := p.Rank()
					if me == victim {
						// The victim "dies" before the collective: kill +
						// notify, then walk away (runSPMD still joins it).
						p.World().Kill(victim)
						p.World().NotifyFailure(victim)
						return nil
					}
					nc, code := p.CommShrink(p.CommWorld)
					if code != testCodes.Success {
						return fmt.Errorf("shrink = %d", code)
					}
					if nc.Size() != n-1 {
						return fmt.Errorf("survivors = %d, want %d", nc.Size(), n-1)
					}
					for _, w := range nc.Ranks {
						if w == victim {
							return fmt.Errorf("victim %d still a member", victim)
						}
					}
					// Flag agreement on the shrunken comm: AND over
					// distinct per-rank masks.
					flag := ^uint64(0) &^ (1 << uint(me))
					agreed, code := p.CommAgree(nc, flag)
					if code != testCodes.Success {
						return fmt.Errorf("agree = %d", code)
					}
					want := ^uint64(0)
					for _, w := range nc.Ranks {
						want &^= 1 << uint(w)
					}
					if agreed != want {
						return fmt.Errorf("agreed = %x, want %x", agreed, want)
					}
					// The shrunken comm is fully usable: a collective over
					// the survivors completes.
					if code := p.Barrier(nc); code != testCodes.Success {
						return fmt.Errorf("barrier on shrunken comm = %d", code)
					}
					return nil
				})
			})
		}
	}
}

// TestCollectiveFailsInsteadOfHanging: kill a rank while the others run
// a collective; every survivor's collective must complete with
// ErrProcFailed (or ErrRevoked after a peer revokes) rather than hang —
// this is the progress-engine guarantee the whole subsystem rests on.
func TestCollectiveFailsInsteadOfHanging(t *testing.T) {
	pol := testPolicies()["tuned"]
	const n, victim = 4, 2
	runSPMD(t, n, pol, func(p *Proc) error {
		if p.Rank() == victim {
			p.World().Kill(victim)
			p.World().NotifyFailure(victim)
			return nil
		}
		buf := make([]byte, 64)
		code := p.Bcast(buf, 64, p.Predef(types.KindByte), 0, p.CommWorld)
		// A survivor may see the failure itself (ErrProcFailed), see a
		// faster peer's revocation first (ErrRevoked), or complete the
		// collective if the victim's death didn't sit on its data path.
		if code != testCodes.ErrProcFailed && code != testCodes.ErrRevoked && code != testCodes.Success {
			return fmt.Errorf("bcast = %d, want ErrProcFailed/ErrRevoked/Success", code)
		}
		// Whatever each survivor observed, recovery must converge.
		p.CommRevoke(p.CommWorld)
		nc, code := p.CommShrink(p.CommWorld)
		if code != testCodes.Success {
			return fmt.Errorf("shrink = %d", code)
		}
		if code := p.Barrier(nc); code != testCodes.Success {
			return fmt.Errorf("post-recovery barrier = %d", code)
		}
		return nil
	})
}
