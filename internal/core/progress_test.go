package core

import (
	"errors"
	"testing"
	"time"
)

// Core-level coverage of the fabric's progress engine through the whole
// Launch/Wait/recovery surface, not just at the mpicore API
// (internal/mpicore's differential suite owns that layer).

// TestEventModeLaunchAllImpls: every implementation personality runs its
// full app workload to the expected result under the fiber scheduler.
func TestEventModeLaunchAllImpls(t *testing.T) {
	for _, impl := range []Impl{ImplMPICH, ImplOpenMPI, ImplStdABI} {
		t.Run(string(impl), func(t *testing.T) {
			stack := testStack(impl, ABINative, CkptNone, 5)
			job, err := Launch(stack, "test.ring")
			if err != nil {
				t.Fatal(err)
			}
			if err := job.Wait(); err != nil {
				t.Fatal(err)
			}
			for r := 0; r < 5; r++ {
				p := job.Program(r).(*ringProg)
				if want := p.expectedSum(5); p.Sum != want {
					t.Fatalf("rank %d sum = %d, want %d", r, p.Sum, want)
				}
			}
		})
	}
}

// TestEventModeCancelDeterministicError is the event-loop companion of
// TestCancelReturnsErrCancelled: cancelling a job whose fibers sit
// parked in the scheduler must collapse to the ErrCancelled sentinel
// every time — never a raw closed-mailbox error from whichever fiber the
// token reached first. Repeated because the original bug class is a
// race between teardown and rank errors.
func TestEventModeCancelDeterministicError(t *testing.T) {
	for i := 0; i < 5; i++ {
		stack := testStack(ImplMPICH, ABINative, CkptNone, 4)
		job, err := Launch(stack, "test.ring.slow")
		if err != nil {
			t.Fatal(err)
		}
		time.Sleep(time.Duration(1+3*i) * time.Millisecond)
		job.Cancel()
		if err := job.Wait(); !errors.Is(err, ErrCancelled) {
			t.Fatalf("iteration %d: Wait after Cancel = %v, want ErrCancelled", i, err)
		}
	}
}

// TestShrinkRecoveryDigestEventMode is the fault-path acceptance test:
// the full kill → revoke → shrink → agree → continue cycle under the
// fiber scheduler, with survivor digests equal to a survivors-only
// reference run.
func TestShrinkRecoveryDigestEventMode(t *testing.T) {
	const n, victim = 4, 2
	stack := shrinkStack(ImplMPICH, ABINative, n)
	inj := nonFatalRankCrash(t, victim, 3, stack.Net)
	res, err := RunWithShrinkRecovery(stack, "test.shrink.ring", inj,
		ShrinkPolicy{LegTimeout: 60 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Completed || res.Shrinks != 1 {
		t.Fatalf("completed=%v shrinks=%d", res.Completed, res.Shrinks)
	}
	want := refDigest(t, ImplMPICH, ABINative, n-1)
	for r := 0; r < n; r++ {
		if r == victim {
			continue
		}
		if got := res.Job.Program(r).(*shrinkRing).Digest; got != want {
			t.Errorf("survivor %d digest %v != %d-rank reference %v", r, got, n-1, want)
		}
	}
}

// TestEventModeCheckpointRestart: the full MANA checkpoint path — safe-
// point vote, quiesce barriers, counter-exchange drain of the in-flight
// ring messages, image write, fresh-world restart — composes with the
// event scheduler on both legs. (Plain DMTCP cannot capture mid-flight
// messages in any mode; the drain is MANA's job, which is exactly why it
// is the interesting layer to run over the event loop.)
func TestEventModeCheckpointRestart(t *testing.T) {
	stack := testStack(ImplMPICH, ABIMukautuva, CkptMANA, 3)
	dir := checkpointMidRun(t, stack, true)
	restarted, err := Restart(dir, stack)
	if err != nil {
		t.Fatal(err)
	}
	if err := restarted.Wait(); err != nil {
		t.Fatal(err)
	}
	for r := 0; r < 3; r++ {
		p := restarted.Program(r).(*ringProg)
		if want := p.expectedSum(3); p.Sum != want {
			t.Fatalf("rank %d sum after restart = %d, want %d", r, p.Sum, want)
		}
	}
}
