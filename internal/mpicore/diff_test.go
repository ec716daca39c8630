package mpicore

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

// Differential determinism suite: every workload runs twice on fresh
// worlds and the per-rank digests and error classes must agree bit for
// bit — p2p soaks, wildcard funnels, every collective family, derived
// communicators, and a full ULFM kill→revoke→shrink→agree recovery
// cycle. Digests cover the MPI-visible contract (payload bytes,
// statuses folded commutatively where matching is nondeterministic by
// spec, error codes) and each rank's final virtual clock: the fiber
// scheduler runs ranks in a fixed order, so virtual time is a pure
// function of the workload too.

// modalResult is one rank's observable outcome.
type modalResult struct {
	digest uint64
	code   int
}

const fnvOffset = 14695981039346656037

// foldBytes extends an FNV-1a digest.
func foldBytes(h uint64, b []byte) uint64 {
	for _, c := range b {
		h ^= uint64(c)
		h *= 1099511628211
	}
	return h
}

// foldU64 folds a word into an FNV-1a digest.
func foldU64(h, v uint64) uint64 {
	var b [8]byte
	for i := range b {
		b[i] = byte(v >> (8 * i))
	}
	return foldBytes(h, b[:])
}

// lcg is a seeded 64-bit linear congruential generator — deterministic
// test data with no shared state between ranks.
func lcg(s *uint64) uint64 {
	*s = *s*6364136223846793005 + 1442695040888963407
	return *s
}

func fillLCG(b []byte, seed uint64) {
	s := seed
	for i := range b {
		b[i] = byte(lcg(&s) >> 56)
	}
}

// runModal executes fn on every rank of an n-rank single-node world and
// returns the per-rank results and final virtual clocks.
func runModal(t *testing.T, n int, pol Policy, fn func(p *Proc) modalResult) ([]modalResult, []simnet.Time) {
	t.Helper()
	w, err := fabric.NewWorld(simnet.SingleNode(n))
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	results := make([]modalResult, n)
	clocks := make([]simnet.Time, n)
	var wg sync.WaitGroup
	for r := 0; r < n; r++ {
		r := r
		wg.Add(1)
		w.Spawn(r, func() {
			defer wg.Done()
			results[r] = fn(NewProc(w, r, testConsts, testCodes, pol))
			clocks[r] = w.Endpoint(r).Clock().Now()
		})
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(60 * time.Second):
		t.Fatal("differential workload timed out")
	}
	return results, clocks
}

// assertRunsAgree runs the workload twice and demands bit-identical
// per-rank outcomes, virtual clocks included.
func assertRunsAgree(t *testing.T, n int, pol Policy, fn func(p *Proc) modalResult) {
	t.Helper()
	first, firstClk := runModal(t, n, pol, fn)
	second, secondClk := runModal(t, n, pol, fn)
	for r := 0; r < n; r++ {
		if first[r] != second[r] || firstClk[r] != secondClk[r] {
			t.Errorf("rank %d nondeterministic: %+v at %v vs %+v at %v",
				r, first[r], firstClk[r], second[r], secondClk[r])
		}
	}
}

// p2pSoak pairs ranks across every hypercube dimension and Sendrecvs
// seeded payloads whose sizes straddle both policies' eager thresholds,
// then runs a nonblocking ring wave (Isend/Irecv/Waitall) to churn the
// request freelist. n must be a power of two.
func p2pSoak(seed uint64) func(p *Proc) modalResult {
	return func(p *Proc) modalResult {
		me, n := p.Rank(), p.Size()
		c := p.CommWorld
		bt := p.Predef(types.KindByte)
		h := uint64(fnvOffset)
		for d := 1; d < n; d++ {
			peer := me ^ d
			lo := me
			if peer < lo {
				lo = peer
			}
			sz := seed*1000003 + uint64(d)*8191 + uint64(lo)*131
			size := int(lcg(&sz)%20000) + 1
			out := make([]byte, size)
			fillLCG(out, seed^(uint64(me)<<32)^uint64(d))
			in := make([]byte, size)
			if code := p.Sendrecv(out, size, bt, peer, d, in, size, bt, peer, d, c, nil); code != testCodes.Success {
				return modalResult{h, code}
			}
			h = foldBytes(h, in)
		}
		// Nonblocking ring wave: 4 outstanding receives at once.
		const waves = 4
		reqs := make([]*Request, 0, 2*waves)
		ins := make([][]byte, waves)
		left, right := (me+n-1)%n, (me+1)%n
		for i := 0; i < waves; i++ {
			size := 100*i + 17
			ins[i] = make([]byte, size)
			rr, code := p.Irecv(ins[i], size, bt, left, 1000+i, c)
			if code != testCodes.Success {
				return modalResult{h, code}
			}
			out := make([]byte, size)
			fillLCG(out, seed^(uint64(me)<<16)^uint64(1000+i))
			sr, code := p.Isend(out, size, bt, right, 1000+i, c)
			if code != testCodes.Success {
				return modalResult{h, code}
			}
			reqs = append(reqs, rr)
			if sr != nil {
				reqs = append(reqs, sr)
			}
		}
		if code := p.Waitall(reqs, nil); code != testCodes.Success {
			return modalResult{h, code}
		}
		for _, in := range ins {
			h = foldBytes(h, in)
		}
		return modalResult{h, testCodes.Success}
	}
}

// wildcardFunnel drives every non-root rank's stream of tagged sends
// into AnySource receives at rank 0. Matching order is genuinely
// schedule-dependent (the MPI spec allows any interleaving across
// sources), so rank 0 folds per-message digests commutatively — the
// multiset of deliveries, not their order, is the invariant.
func wildcardFunnel(seed uint64) func(p *Proc) modalResult {
	const perRank = 16
	return func(p *Proc) modalResult {
		me, n := p.Rank(), p.Size()
		c := p.CommWorld
		bt := p.Predef(types.KindByte)
		if me != 0 {
			for i := 0; i < perRank; i++ {
				size := int(seed%500) + 32*i + me
				out := make([]byte, size)
				fillLCG(out, seed^uint64(me*1000+i))
				if code := p.Send(out, size, bt, 0, 5, c); code != testCodes.Success {
					return modalResult{0, code}
				}
			}
			return modalResult{0, testCodes.Success}
		}
		var sum uint64
		buf := make([]byte, 8192)
		for i := 0; i < perRank*(n-1); i++ {
			var st Status
			if code := p.Recv(buf, len(buf), bt, testConsts.AnySource, 5, c, &st); code != testCodes.Success {
				return modalResult{sum, code}
			}
			m := foldBytes(fnvOffset, buf[:st.CountBytes])
			sum += foldU64(m, uint64(st.Source)) // commutative across arrival orders
		}
		return modalResult{sum, testCodes.Success}
	}
}

// collectiveSweep runs every collective family over seeded int64 data and
// digests all result buffers. Counts straddle the policies' algorithm
// cutovers (binomial vs scatter-ring bcast, recursive-doubling vs
// ring/Rabenseifner allreduce, Bruck vs pairwise alltoall).
func collectiveSweep(seed uint64, count int) func(p *Proc) modalResult {
	return func(p *Proc) modalResult {
		me, n := p.Rank(), p.Size()
		c := p.CommWorld
		it := p.Predef(types.KindInt64)
		sum := p.PredefOp(ops.OpSum)
		h := uint64(fnvOffset)

		vals := make([]int64, count)
		s := seed ^ uint64(me)<<24
		for i := range vals {
			vals[i] = int64(lcg(&s) % 100000)
		}
		rb := make([]byte, count*8)
		if code := p.Allreduce(abi.Int64Bytes(vals), rb, count, it, sum, c); code != testCodes.Success {
			return modalResult{h, code}
		}
		h = foldBytes(h, rb)

		root := int(seed) % n
		if code := p.Reduce(abi.Int64Bytes(vals), rb, count, it, sum, root, c); code != testCodes.Success {
			return modalResult{h, code}
		}
		if me == root {
			h = foldBytes(h, rb)
		}
		if code := p.Bcast(rb, count, it, root, c); code != testCodes.Success {
			return modalResult{h, code}
		}
		h = foldBytes(h, rb)

		if code := p.Barrier(c); code != testCodes.Success {
			return modalResult{h, code}
		}

		blk := count/4 + 1
		own := make([]int64, blk)
		for i := range own {
			own[i] = int64(me*blk + i)
		}
		var gbuf []byte
		if me == root {
			gbuf = make([]byte, n*blk*8)
		}
		if code := p.Gather(abi.Int64Bytes(own), blk, it, gbuf, blk, it, root, c); code != testCodes.Success {
			return modalResult{h, code}
		}
		back := make([]byte, blk*8)
		if code := p.Scatter(gbuf, blk, it, back, blk, it, root, c); code != testCodes.Success {
			return modalResult{h, code}
		}
		h = foldBytes(h, back)

		ag := make([]byte, n*blk*8)
		if code := p.Allgather(abi.Int64Bytes(own), blk, it, ag, blk, it, c); code != testCodes.Success {
			return modalResult{h, code}
		}
		h = foldBytes(h, ag)

		a2aOut := make([]int64, n*blk)
		s = seed ^ uint64(me)<<8
		for i := range a2aOut {
			a2aOut[i] = int64(lcg(&s) % 7919)
		}
		a2aIn := make([]byte, n*blk*8)
		if code := p.Alltoall(abi.Int64Bytes(a2aOut), blk, it, a2aIn, blk, it, c); code != testCodes.Success {
			return modalResult{h, code}
		}
		h = foldBytes(h, a2aIn)
		return modalResult{h, testCodes.Success}
	}
}

// derivedComms splits the world into parity halves, reduces within each
// half, then allgathers over a dup of the world — communicator creation
// (CID agreement) and collectives on derived comms.
func derivedComms(seed uint64) func(p *Proc) modalResult {
	return func(p *Proc) modalResult {
		me, n := p.Rank(), p.Size()
		it := p.Predef(types.KindInt64)
		sum := p.PredefOp(ops.OpSum)
		h := uint64(fnvOffset)

		half, code := p.CommSplit(p.CommWorld, me%2, me)
		if code != testCodes.Success {
			return modalResult{h, code}
		}
		vals := []int64{int64(seed) + int64(me)*7, int64(me) - 3}
		rb := make([]byte, 16)
		if code := p.Allreduce(abi.Int64Bytes(vals), rb, 2, it, sum, half); code != testCodes.Success {
			return modalResult{h, code}
		}
		h = foldBytes(h, rb)

		dup, code := p.CommDup(p.CommWorld)
		if code != testCodes.Success {
			return modalResult{h, code}
		}
		ag := make([]byte, n*16)
		if code := p.Allgather(rb, 2, it, ag, 2, it, dup); code != testCodes.Success {
			return modalResult{h, code}
		}
		h = foldBytes(h, ag)
		h = foldU64(foldU64(h, uint64(half.CID)), uint64(dup.CID))
		return modalResult{h, testCodes.Success}
	}
}

// ulfmRecoveryCycle is the fault scenario: after a clean allreduce the
// victim kills itself mid-world; the detector (rank 0) observes
// ErrProcFailed on a directed recv and revokes the world; every other
// survivor observes ErrRevoked; then all survivors shrink, agree, and
// complete a collective on the shrunken communicator. The error class
// each rank records is forced by construction, so it must be identical
// across runs — the suite's strongest claim, since fault timing is where
// a schedule would show any nondeterminism first.
func ulfmRecoveryCycle(seed uint64) func(p *Proc) modalResult {
	return func(p *Proc) modalResult {
		me, n := p.Rank(), p.Size()
		victim := n - 1
		c := p.CommWorld
		it := p.Predef(types.KindInt64)
		bt := p.Predef(types.KindByte)
		sum := p.PredefOp(ops.OpSum)
		h := uint64(fnvOffset)

		vals := []int64{int64(seed) * int64(me+1)}
		rb := make([]byte, 8)
		if code := p.Allreduce(abi.Int64Bytes(vals), rb, 1, it, sum, c); code != testCodes.Success {
			return modalResult{h, code}
		}
		h = foldBytes(h, rb)

		if me == victim {
			p.World().Kill(victim)
			p.World().NotifyFailure(victim)
			return modalResult{h, testCodes.Success}
		}

		var observed int
		buf := make([]byte, 8)
		if me == 0 {
			// Tag 99 is never sent: only the failure sweep can complete
			// this, so the detector's class is ErrProcFailed by
			// construction.
			observed = p.Recv(buf, 8, bt, victim, 99, c, nil)
			p.CommRevoke(c)
		} else {
			// Tag 98 is never sent either, and rank 0 stays alive: only
			// the revocation can complete this — ErrRevoked by
			// construction.
			observed = p.Recv(buf, 8, bt, 0, 98, c, nil)
		}
		h = foldU64(h, uint64(observed))

		nc, code := p.CommShrink(c)
		if code != testCodes.Success {
			return modalResult{h, code}
		}
		h = foldU64(h, uint64(len(nc.Ranks)))

		flag := ^uint64(0) &^ (1 << uint(me))
		agreed, code := p.CommAgree(nc, flag)
		if code != testCodes.Success {
			return modalResult{h, code}
		}
		h = foldU64(h, agreed)

		if code := p.Allreduce(abi.Int64Bytes(vals), rb, 1, it, sum, nc); code != testCodes.Success {
			return modalResult{h, code}
		}
		h = foldBytes(h, rb)
		return modalResult{h, observed}
	}
}

// TestModeEquivalence is the differential matrix: seeds × policies ×
// workloads, two runs per cell.
func TestModeEquivalence(t *testing.T) {
	type workload struct {
		name string
		n    int
		fn   func(seed uint64) func(p *Proc) modalResult
	}
	workloads := []workload{
		{"p2p-soak", 8, p2pSoak},
		{"wildcard-funnel", 6, wildcardFunnel},
		{"collectives-small", 5, func(s uint64) func(p *Proc) modalResult { return collectiveSweep(s, 9) }},
		{"collectives-large", 8, func(s uint64) func(p *Proc) modalResult { return collectiveSweep(s, 3000) }},
		{"derived-comms", 6, derivedComms},
		{"ulfm-recovery", 5, ulfmRecoveryCycle},
	}
	for polName, pol := range testPolicies() {
		for _, wl := range workloads {
			for _, seed := range []uint64{1, 0xC0FFEE} {
				t.Run(fmt.Sprintf("%s/%s/seed=%d", polName, wl.name, seed), func(t *testing.T) {
					pol := pol
					assertRunsAgree(t, wl.n, pol, wl.fn(seed))
				})
			}
		}
	}
}

// TestEventModeWorksAtScale is a correctness (not bench) smoke at a
// large rank count: a 512-rank allreduce + barrier with verified math.
func TestEventModeWorksAtScale(t *testing.T) {
	if testing.Short() {
		t.Skip("512-rank world in -short mode")
	}
	const n = 512
	pol := testPolicies()["treeish"]
	res, _ := runModal(t, n, pol, func(p *Proc) modalResult {
		c := p.CommWorld
		it := p.Predef(types.KindInt64)
		sum := p.PredefOp(ops.OpSum)
		vals := []int64{int64(p.Rank() + 1)}
		rb := make([]byte, 8)
		if code := p.Allreduce(abi.Int64Bytes(vals), rb, 1, it, sum, c); code != testCodes.Success {
			return modalResult{0, code}
		}
		if got := abi.Int64sOf(rb)[0]; got != int64(n)*(n+1)/2 {
			return modalResult{uint64(got), testCodes.ErrOther}
		}
		if code := p.Barrier(c); code != testCodes.Success {
			return modalResult{0, code}
		}
		return modalResult{1, testCodes.Success}
	})
	for r, m := range res {
		if m.code != testCodes.Success || m.digest != 1 {
			t.Fatalf("rank %d: %+v", r, m)
		}
	}
}
