package core

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/faults"
)

// TestReplicationDigestAllImpls is the replication subsystem's
// acceptance bar — stricter than shrink's: kill a PRIMARY mid-run under
// every implementation (native and Mukautuva-shimmed), fail over to its
// warm shadow, and require every logical rank's digest to be
// bit-identical to an UNREPLICATED FAULT-FREE reference run at the same
// world size. Shrink gets to compare against a survivors-only
// reference; replication promises full transparency — same membership,
// same results, fault or no fault.
func TestReplicationDigestAllImpls(t *testing.T) {
	const n, victim = 4, 2
	for _, tc := range []struct {
		impl Impl
		abi  ABIMode
	}{
		{ImplMPICH, ABINative},
		{ImplOpenMPI, ABINative},
		{ImplStdABI, ABINative},
		{ImplMPICH, ABIMukautuva},
		{ImplOpenMPI, ABIMukautuva},
		{ImplStdABI, ABIMukautuva},
		{ImplOpenMPI, ABIWi4MPI},
	} {
		t.Run(fmt.Sprintf("%s_%s", tc.impl, tc.abi), func(t *testing.T) {
			want := refDigest(t, tc.impl, tc.abi, n)
			stack := shrinkStack(tc.impl, tc.abi, n)
			inj := nonFatalRankCrash(t, victim, 3, stack.Net)
			res, err := RunWithReplication(stack, "test.shrink.ring", inj,
				ReplicaPolicy{LegTimeout: 60 * time.Second})
			if err != nil {
				t.Fatal(err)
			}
			if !res.Completed || res.Promotions != 1 {
				t.Fatalf("completed=%v promotions=%d", res.Completed, res.Promotions)
			}
			if len(res.Events) != 1 {
				t.Fatalf("events = %+v", res.Events)
			}
			ev := res.Events[0]
			if ev.Failure == nil || len(ev.Failure.Ranks) != 1 || ev.Failure.Ranks[0] != victim {
				t.Fatalf("failure = %+v", ev.Failure)
			}
			if len(ev.Logical) != 1 || ev.Logical[0] != victim {
				t.Fatalf("promoted = %v, want [%d]", ev.Logical, victim)
			}
			for r := 0; r < n; r++ {
				got := res.Job.LogicalProgram(r).(*shrinkRing).Digest
				if got != want {
					t.Fatalf("logical rank %d digest %v != fault-free reference %v", r, got, want)
				}
			}
		})
	}
}

// TestReplicationFaultFree runs a replicated job with no injector at
// all: the steady-state (overhead-measuring) configuration. Both
// replicas of every logical rank must complete with the reference
// digest, and the replicated run's virtual completion time must exceed
// the unreplicated reference's — the duplicate traffic costs virtual
// time, which is exactly what the recoveryfrontier figure measures.
func TestReplicationFaultFree(t *testing.T) {
	const n = 4
	want := refDigest(t, ImplMPICH, ABINative, n)

	ref, err := Launch(shrinkStack(ImplMPICH, ABINative, n), "test.shrink.ring")
	if err != nil {
		t.Fatal(err)
	}
	if err := ref.Wait(); err != nil {
		t.Fatal(err)
	}

	stack := shrinkStack(ImplMPICH, ABINative, n)
	res, err := RunWithReplication(stack, "test.shrink.ring", nil,
		ReplicaPolicy{LegTimeout: 60 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Completed || res.Promotions != 0 {
		t.Fatalf("completed=%v promotions=%d", res.Completed, res.Promotions)
	}
	for phys := 0; phys < 2*n; phys++ {
		got := res.Job.Program(phys).(*shrinkRing).Digest
		if got != want {
			t.Fatalf("physical rank %d digest %v != reference %v", phys, got, want)
		}
	}
	var refMax, repMax time.Duration
	for r := 0; r < n; r++ {
		if c := time.Duration(ref.Clock(r)); c > refMax {
			refMax = c
		}
		if c := time.Duration(res.Job.LogicalClock(r)); c > repMax {
			repMax = c
		}
	}
	if repMax <= refMax {
		t.Fatalf("replicated completion %v not slower than unreplicated %v", repMax, refMax)
	}
}

// TestReplicationValidation pins the guard rails: checkpointed stacks
// are refused, fatal faults are refused under replica mode, replica and
// shrink modes are mutually exclusive, and a replicated job cannot be
// restarted.
func TestReplicationValidation(t *testing.T) {
	stack := shrinkStack(ImplMPICH, ABINative, 2)

	ck := DefaultStack(ImplMPICH, ABIMukautuva, CkptMANA)
	ck.Net = stack.Net
	inj := nonFatalRankCrash(t, 1, 2, ck.Net)
	if _, err := RunWithReplication(ck, "test.shrink.ring", inj, ReplicaPolicy{}); err == nil {
		t.Fatal("checkpointed stack accepted for replication")
	}

	fatal, err := faults.NewInjector(faults.Plan{Faults: []faults.Spec{
		{Kind: faults.KindRankCrash, Rank: 1, Step: 2},
	}}, 1, stack.Net)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := RunWithReplication(stack, "test.shrink.ring", fatal, ReplicaPolicy{}); err == nil {
		t.Fatal("fatal fault accepted under replica mode")
	}

	if _, err := Launch(stack, "test.shrink.ring",
		WithReplication(ReplicaPolicy{}), WithShrinkRecovery(ShrinkPolicy{})); err == nil {
		t.Fatal("replica+shrink accepted on one job")
	}
}

// TestReplicationEventMode reruns the failover digest check through a
// translating shim on Open MPI: the replica layer's duplicate routing
// and dedup under the fiber scheduler must not depend on the stack.
func TestReplicationEventMode(t *testing.T) {
	const n, victim = 4, 1
	want := refDigest(t, ImplOpenMPI, ABIMukautuva, n)
	stack := shrinkStack(ImplOpenMPI, ABIMukautuva, n)
	inj := nonFatalRankCrash(t, victim, 3, stack.Net)
	res, err := RunWithReplication(stack, "test.shrink.ring", inj,
		ReplicaPolicy{LegTimeout: 60 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Completed || res.Promotions != 1 {
		t.Fatalf("completed=%v promotions=%d", res.Completed, res.Promotions)
	}
	for r := 0; r < n; r++ {
		got := res.Job.LogicalProgram(r).(*shrinkRing).Digest
		if got != want {
			t.Fatalf("logical rank %d digest %v != fault-free reference %v", r, got, want)
		}
	}
}
