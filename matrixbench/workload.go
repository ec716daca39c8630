package main

import (
	"fmt"
	"strings"

	"repro/internal/core"
	"repro/internal/faults"
	"repro/internal/scenario"
)

// A workload is one named set of matrix cells plus the scale they run
// at. Its seed becomes scenario.Options.BaseSeed, so the same seed
// always runs the same cells with the same jitter streams.
type workload struct {
	name string
	// cells enumerates the workload's cells in scenario order.
	cells func() []scenario.Spec
	// scale is the run scale before the seed and the pool width are set.
	scale func() scenario.Options
}

// workloads are the benchmark's named workloads, in report order.
var workloads = []workload{
	{
		// Figures 2-4: the per-call path (fabric, mpicore, the bindings,
		// the shims, the MANA wrapper) does all the work and no image is
		// written, so an image-plane change should leave it unmoved.
		name: "osu-sweep",
		cells: func() []scenario.Spec {
			return scenario.MatrixSpec{
				Programs: []string{"osu.alltoall", "osu.bcast", "osu.allreduce"},
				Impls:    []core.Impl{core.ImplMPICH, core.ImplOpenMPI, core.ImplStdABI},
				ABIs:     []core.ABIMode{core.ABINative, core.ABIMukautuva, core.ABIWi4MPI},
				Ckpts:    []core.CkptMode{core.CkptNone, core.CkptMANA},
			}.Enumerate()
		},
		scale: func() scenario.Options {
			o := scenario.Quick()
			o.Reps = 1
			o.MaxSize = 256 << 10
			o.Iters, o.Warmup, o.ItersLarge = 20, 4, 4
			return o
		},
	},
	{
		// The measured hotspot: restart-recovery crash cells with an image
		// set behind every step, where image writes dominate.
		name: "ckpt-periodic",
		cells: func() []scenario.Spec {
			return selectCells(func(s scenario.Spec) bool {
				return (s.Fault == faults.KindRankCrash || s.Fault == faults.KindNodeCrash) && s.HasRestart()
			})
		},
		scale: appScale,
	},
	{
		// The Figure 6 restart pairings (one image write per restore, so
		// restore weighs as much as the write) plus the ULFM shrink and
		// replica cells, which write no image and run nowhere else.
		name: "recovery-mix",
		cells: func() []scenario.Spec {
			return selectCells(func(s scenario.Spec) bool {
				return (s.Fault == "" && s.HasRestart()) ||
					s.Recovery == scenario.RecoveryShrink || s.Recovery == scenario.RecoveryReplicate
			})
		},
		scale: appScale,
	},
}

// appScale is the matrix's quick smoke scale at one repetition, the
// scale of the application workloads.
func appScale() scenario.Options {
	o := scenario.Quick()
	o.Reps = 1
	return o
}

// selectCells filters the paper's full matrix, keeping its order.
func selectCells(keep func(scenario.Spec) bool) []scenario.Spec {
	var out []scenario.Spec
	for _, s := range scenario.DefaultMatrix().Enumerate() {
		if keep(s) {
			out = append(out, s)
		}
	}
	return out
}

func findWorkload(name string) (workload, error) {
	var names []string
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
		names = append(names, w.name)
	}
	return workload{}, fmt.Errorf("unknown workload %q (have %s)", name, strings.Join(names, ", "))
}

// options is the workload's run configuration for one seed and pool width.
func (w workload) options(seed int64, parallel int) scenario.Options {
	o := w.scale()
	o.BaseSeed = seed
	o.Parallel = parallel
	return o
}

// Cell kinds, the keys of the scenario.kind_ms metrics.
const (
	kindStraight  = "straight"
	kindRestart   = "restart"
	kindRankCrash = "rank-crash"
	kindNodeCrash = "node-crash"
	kindShrink    = "shrink"
	kindReplicate = "replicate"
	kindDegrade   = "nic-degrade"
)

// reportedKinds are the kinds with a scenario.kind_ms metric.
var reportedKinds = []string{kindStraight, kindRestart, kindRankCrash, kindNodeCrash, kindShrink, kindReplicate}

// cellKind classifies a cell by the protocol it runs.
func cellKind(s scenario.Spec) string {
	switch {
	case s.Recovery == scenario.RecoveryShrink:
		return kindShrink
	case s.Recovery == scenario.RecoveryReplicate:
		return kindReplicate
	case s.Fault == faults.KindRankCrash:
		return kindRankCrash
	case s.Fault == faults.KindNodeCrash:
		return kindNodeCrash
	case s.Fault == faults.KindNICDegrade:
		return kindDegrade
	case s.HasRestart():
		return kindRestart
	}
	return kindStraight
}
