package main

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"time"

	"repro/internal/apps/comd"
	"repro/internal/apps/wavempi"
	"repro/internal/core"
	"repro/internal/dmtcp"
	"repro/internal/faults"
	"repro/internal/scenario"
)

// prober times calls into the core and dmtcp layers on small app.wave
// jobs shaped like a matrix cell (2x4 ranks, quick scale), and runs the
// application output checks. Every timed call is a span in its log.
type prober struct {
	seed  int64
	root  string // image directory for the probes
	epoch time.Time
	log   spans

	checks   int
	failed   int
	problems []string
}

// Probe repetition counts: enough for a median over a call that takes
// milliseconds (many) or most of a second (few).
const (
	repsFast  = 15
	repsJob   = 5
	repsCycle = 3
)

func newProber(seed int64, root string) *prober {
	return &prober{seed: seed, root: root, epoch: time.Now()}
}

// timed runs f as one span named name and returns its duration.
func (p *prober) timed(name string, f func() error) (time.Duration, error) {
	start := time.Since(p.epoch)
	err := f()
	end := time.Since(p.epoch)
	p.log.add(name, -1, start, end)
	if err != nil {
		return 0, fmt.Errorf("%s: %w", name, err)
	}
	return end - start, nil
}

// timedMedianMS runs f reps times as spans named name and returns the
// median in milliseconds.
func (p *prober) timedMedianMS(name string, reps int, f func(i int) error) (float64, error) {
	var xs []float64
	for i := 0; i < reps; i++ {
		d, err := p.timed(name, func() error { return f(i) })
		if err != nil {
			return 0, err
		}
		xs = append(xs, ms(d))
	}
	return median(xs), nil
}

// check records one output check.
func (p *prober) check(ok bool, format string, args ...any) {
	p.checks++
	if !ok {
		p.failed++
		p.problems = append(p.problems, fmt.Sprintf(format, args...))
	}
}

// stack is a matrix-cell-shaped stack carrying the probe seed.
func (p *prober) stack(impl core.Impl, abiMode core.ABIMode, ckpt core.CkptMode) core.Stack {
	o := scenario.Quick()
	s := core.DefaultStack(impl, abiMode, ckpt)
	s.Net.Nodes, s.Net.RanksPerNode = o.Nodes, o.RanksPerNode
	s.Net.Seed = p.seed
	return s
}

// configure scales a fresh app to the quick matrix scale and seeds it,
// as the scenario engine does.
func (p *prober) configure() core.LaunchOption {
	scale := scenario.Quick().AppScale
	return core.WithConfigure(func(_ int, prog core.Program) {
		if s, ok := prog.(interface{ ScaleSteps(f float64) }); ok {
			s.ScaleSteps(scale)
		}
		if s, ok := prog.(interface{ SetSeed(s int64) }); ok {
			s.SetSeed(p.seed)
		}
	})
}

// manaStack is the probes' checkpointing stack, and restartStack the
// other implementation it restarts under.
func (p *prober) manaStack() core.Stack {
	return p.stack(core.ImplMPICH, core.ABIMukautuva, core.CkptMANA)
}

func (p *prober) restartStack() core.Stack {
	return p.stack(core.ImplOpenMPI, core.ABIMukautuva, core.CkptMANA)
}

func runJob(stack core.Stack, prog string, opts ...core.LaunchOption) (*core.Job, error) {
	job, err := core.Launch(stack, prog, opts...)
	if err != nil {
		return nil, err
	}
	return job, job.Wait()
}

// coreProbes measures the core layer's entry points: launch, the held
// checkpoint, restart, and one cycle of each recovery driver.
func (p *prober) coreProbes(put func(string, float64, string)) error {
	stack := p.manaStack()
	v, err := p.timedMedianMS("core.Launch", repsFast, func(int) error {
		job, err := core.Launch(stack, "app.wave", p.configure(), core.WithHold())
		if err == nil {
			job.Cancel() // never started: closing its world releases it
		}
		return err
	})
	if err != nil {
		return err
	}
	put("core.launch_ms", v, "ms")

	// The checkpoint request is registered before Start, so it lands at
	// the first safe point; the span ends when its images are written.
	var ckptMS []float64
	for i := 0; i < repsJob; i++ {
		dir := filepath.Join(p.root, fmt.Sprintf("held-%d", i))
		job, err := core.Launch(stack, "app.wave", p.configure(), core.WithHold())
		if err != nil {
			return err
		}
		done := job.CheckpointAsync(dir, true)
		d, err := p.timed("core.Job.CheckpointAsync", func() error {
			job.Start()
			return <-done
		})
		if err != nil {
			return err
		}
		if err := job.Wait(); err != nil {
			return err
		}
		ckptMS = append(ckptMS, ms(d))
		if err := os.RemoveAll(dir); err != nil {
			return err
		}
	}
	put("core.checkpoint_ms", median(ckptMS), "ms")

	rstack := p.restartStack()
	v, err = p.timedMedianMS("core.RunWithRecovery", repsCycle, func(i int) error {
		inj, err := faults.NewInjector(faults.Plan{Faults: []faults.Spec{{
			Kind: faults.KindRankCrash, Rank: faults.Anywhere, Node: faults.Anywhere,
		}}}, p.seed, stack.Net)
		if err != nil {
			return err
		}
		root := filepath.Join(p.root, fmt.Sprintf("recovery-%d", i))
		defer os.RemoveAll(root)
		rr, err := core.RunWithRecovery(stack, "app.wave", inj, core.RecoveryPolicy{
			ImageRoot: root, Interval: 1, MaxRestarts: 3, RestartStack: &rstack, LegTimeout: 2 * time.Minute,
		}, p.configure())
		if err == nil {
			p.check(rr.Restarts >= 1, "recovery cycle completed with %d restarts", rr.Restarts)
		}
		return err
	})
	if err != nil {
		return err
	}
	put("core.recovery_cycle_ms", v, "ms")

	plain := p.stack(core.ImplMPICH, core.ABINative, core.CkptNone)
	inPlace := func() (*faults.Injector, error) {
		return faults.NewInjector(faults.Plan{Faults: []faults.Spec{{
			Kind: faults.KindRankCrash, Rank: faults.Anywhere, NonFatal: true,
		}}}, p.seed, plain.Net)
	}
	v, err = p.timedMedianMS("core.RunWithShrinkRecovery", repsCycle, func(int) error {
		inj, err := inPlace()
		if err != nil {
			return err
		}
		rr, err := core.RunWithShrinkRecovery(plain, "app.wave", inj,
			core.ShrinkPolicy{MaxShrinks: 3, LegTimeout: 2 * time.Minute}, p.configure())
		if err == nil {
			p.check(rr.Shrinks == 1, "shrink cycle shrank %d times, want 1", rr.Shrinks)
		}
		return err
	})
	if err != nil {
		return err
	}
	put("core.shrink_cycle_ms", v, "ms")

	v, err = p.timedMedianMS("core.RunWithReplication", repsCycle, func(int) error {
		inj, err := inPlace()
		if err != nil {
			return err
		}
		rr, err := core.RunWithReplication(plain, "app.wave", inj,
			core.ReplicaPolicy{LegTimeout: 2 * time.Minute}, p.configure())
		if err == nil {
			p.check(rr.Promotions == 1, "replicate cycle promoted %d shadows, want 1", rr.Promotions)
		}
		return err
	})
	if err != nil {
		return err
	}
	put("core.replicate_cycle_ms", v, "ms")
	return nil
}

// imageProbes measures the checkpoint image plane through dmtcp's
// public functions: the write cost per periodic image set, finding the
// latest complete set, reading one set back, and restarting from it.
func (p *prober) imageProbes(put func(string, float64, string)) error {
	stack := p.manaStack()
	var plain, periodic []float64
	var lineage string
	var sets int
	for i := 0; i < repsCycle; i++ {
		d, err := p.timed("core.Launch+Wait", func() error {
			_, err := runJob(stack, "app.wave", p.configure())
			return err
		})
		if err != nil {
			return err
		}
		plain = append(plain, ms(d))
		if lineage != "" {
			if err := os.RemoveAll(lineage); err != nil {
				return err
			}
		}
		lineage = filepath.Join(p.root, fmt.Sprintf("periodic-%d", i))
		d, err = p.timed("core.Launch+Wait periodic", func() error {
			_, err := runJob(stack, "app.wave", p.configure(), core.WithPeriodicCheckpoint(lineage, 1))
			return err
		})
		if err != nil {
			return err
		}
		periodic = append(periodic, ms(d))
		c, err := countImages(lineage)
		if err != nil {
			return err
		}
		sets = c.Sets
	}
	if sets == 0 {
		return fmt.Errorf("periodic app.wave launch wrote no image set")
	}
	put("ckpt.write_ms_per_set", (median(periodic)-median(plain))/float64(sets), "ms")

	n := stack.Net.Size()
	var latest string
	v, err := p.timedMedianMS("dmtcp.LatestComplete", repsFast, func(int) error {
		dir, _, ok := dmtcp.LatestComplete(lineage, n)
		if !ok {
			return fmt.Errorf("no complete image set under %s", lineage)
		}
		latest = dir
		return nil
	})
	if err != nil {
		return err
	}
	put("ckpt.latest_complete_ms", v, "ms")

	v, err = p.timedMedianMS("dmtcp.ReadMeta+ReadRankImage", repsFast, func(int) error {
		meta, err := dmtcp.ReadMeta(latest)
		if err != nil {
			return err
		}
		for r := 0; r < meta.NumRanks; r++ {
			if _, err := dmtcp.ReadRankImage(latest, r); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	put("ckpt.read_set_ms", v, "ms")

	// The latest set is the final step's, so the restarted job restores
	// every rank and has next to nothing left to run.
	v, err = p.timedMedianMS("core.Restart", repsJob, func(int) error {
		job, err := core.Restart(latest, p.restartStack())
		if err != nil {
			return err
		}
		return job.Wait()
	})
	if err != nil {
		return err
	}
	put("core.restart_ms", v, "ms")
	return os.RemoveAll(lineage)
}

// appDigest is the bit pattern of an application's result: the wave
// checksum, or CoMD's kinetic and potential energies.
func appDigest(prog core.Program) string {
	switch v := prog.(type) {
	case *wavempi.Wave:
		return fmt.Sprintf("checksum %x", math.Float64bits(v.Checked))
	case *comd.CoMD:
		return fmt.Sprintf("energies %x/%x", math.Float64bits(v.KineticE), math.Float64bits(v.PotentialE))
	}
	return fmt.Sprintf("unknown program %T", prog)
}

// appChecks runs both applications under every straight
// implementation x binding stack and once through a cross-implementation
// checkpoint/restart, and checks that every result is bit-identical.
func (p *prober) appChecks() error {
	for _, app := range []string{"app.wave", "app.comd"} {
		ref, refStack := "", ""
		for _, impl := range []core.Impl{core.ImplMPICH, core.ImplOpenMPI, core.ImplStdABI} {
			for _, abiMode := range []core.ABIMode{core.ABINative, core.ABIMukautuva, core.ABIWi4MPI} {
				stack := p.stack(impl, abiMode, core.CkptNone)
				job, err := runJob(stack, app, p.configure())
				if err != nil {
					return fmt.Errorf("%s under %s: %w", app, stack.Label(), err)
				}
				got := appDigest(job.Program(0))
				if ref == "" {
					ref, refStack = got, stack.Label()
				}
				p.check(got == ref, "%s under %s: %s, under %s: %s", app, stack.Label(), got, refStack, ref)
			}
		}
		dir := filepath.Join(p.root, "cross-"+app)
		job, err := core.Launch(p.restartStack(), app, p.configure(), core.WithHold())
		if err != nil {
			return err
		}
		done := job.CheckpointAsync(dir, true)
		job.Start()
		if err := <-done; err != nil {
			return fmt.Errorf("%s checkpoint: %w", app, err)
		}
		if err := job.Wait(); err != nil {
			return err
		}
		rjob, err := core.Restart(dir, p.manaStack())
		if err != nil {
			return fmt.Errorf("%s restart: %w", app, err)
		}
		if err := rjob.Wait(); err != nil {
			return fmt.Errorf("%s restarted run: %w", app, err)
		}
		got := appDigest(rjob.Program(0))
		p.check(got == ref, "%s restarted %s -> %s: %s, straight: %s",
			app, p.restartStack().Label(), p.manaStack().Label(), got, ref)
		if err := os.RemoveAll(dir); err != nil {
			return err
		}
	}
	return nil
}
