package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"repro/internal/core"
	"repro/internal/scenario"
)

// overheadReps is how many untraced/traced pairs the tracing-overhead
// measurement alternates.
const overheadReps = 3

// tracedRun runs one traced pass of the workload, then the layer
// probes, the ladder and the application output checks, and reports
// the per-layer metrics. Every per-layer metric is reported on every
// workload; the probes do not depend on the workload, the pass-derived
// ones do.
func tracedRun(cfg config) (result, error) {
	rec, took, err := spawnPass(cfg, true)
	if err != nil {
		return result{}, err
	}
	logPass(cfg, rec, took)
	if rec.Trace == nil {
		return result{}, fmt.Errorf("traced pass returned no trace")
	}
	res := result{Attempted: rec.Cells, Failed: rec.Failed, Metrics: map[string]metric{}}
	put := func(name string, v float64, unit string) { res.Metrics[name] = metric{v, unit} }

	t := rec.Trace
	var walls []float64
	kindMS := map[string]float64{}
	var busy float64
	for _, c := range t.Cells {
		d := c.EndMS - c.StartMS
		walls = append(walls, d)
		kindMS[c.Kind] += d
		busy += d
	}
	put("scenario.cell_p50_ms", median(walls), "ms")
	pct, tail, ok := tailPercentile(walls)
	if !ok {
		return result{}, fmt.Errorf("%d cells are too few for a tail percentile", len(walls))
	}
	put("scenario.cell_tail_ms", tail, "ms")
	fmt.Printf("cell spans: %d; scenario.cell_tail_ms is their p%d\n", len(walls), pct)
	for _, k := range reportedKinds {
		put("scenario.kind_ms."+k, kindMS[k], "ms")
	}
	put("scenario.pool_util", busy/(rec.WallS*1000*float64(t.Workers)), "ratio")
	put("scenario.run_self_ms", t.RunSelfMS, "ms")
	put("runtime.alloc_mb", t.AllocMB, "MB")
	put("runtime.gc_cycles", t.GCCycles, "count")
	put("runtime.gc_cpu_s", t.GCCPUS, "s")
	put("ckpt.image_sets", float64(rec.Images.Sets), "count")
	put("ckpt.rank_images", float64(rec.Images.RankImages), "count")
	put("ckpt.bytes_mb", float64(rec.Images.Bytes)/1e6, "MB")

	root := filepath.Join(cfg.imageBase, fmt.Sprintf("probes-%d", os.Getpid()))
	if err := os.MkdirAll(root, 0o755); err != nil {
		return result{}, fmt.Errorf("creating probe image root: %w", err)
	}
	defer os.RemoveAll(root)
	p := newProber(cfg.seed, root)
	for _, step := range []struct {
		name string
		run  func() error
	}{
		{"image probes", func() error { return p.imageProbes(put) }},
		{"core probes", func() error { return p.coreProbes(put) }},
		{"application checks", p.appChecks},
		{"ladder", func() error { return ladderMetrics(put) }},
		{"tracing overhead", func() error {
			frac, err := traceOverhead(cfg)
			put("bench.trace_overhead_frac", frac, "ratio")
			return err
		}},
	} {
		start := time.Now()
		if err := step.run(); err != nil {
			return result{}, fmt.Errorf("%s: %w", step.name, err)
		}
		fmt.Printf("%s: %.1fs\n", step.name, time.Since(start).Seconds())
	}
	for _, prob := range p.problems {
		fmt.Println("  check failed:", prob)
	}
	if err := writeSpans(cfg, t.Cells, p.log); err != nil {
		return result{}, err
	}
	res.Attempted += p.checks
	res.Failed += p.failed
	res.Correct = res.Failed == 0
	return res, nil
}

// traceOverhead compares an untraced and a traced scenario.Run of a
// small fixed cell set (the native MPICH cells of osu-sweep at small
// sizes), alternating the two, and returns the traced median's excess
// over the untraced one as a fraction of it.
func traceOverhead(cfg config) (float64, error) {
	osu, err := findWorkload("osu-sweep")
	if err != nil {
		return 0, err
	}
	var specs []scenario.Spec
	for _, s := range osu.cells() {
		if s.Impl == core.ImplMPICH && s.ABI == core.ABINative {
			specs = append(specs, s)
		}
	}
	base := osu.options(cfg.seed, runtime.NumCPU())
	base.MaxSize = 4 << 10
	var plain, traced []float64
	for i := 0; i < overheadReps; i++ {
		for _, on := range []bool{false, true} {
			o := base
			start := time.Now()
			var rc *cellRecorder
			if on {
				rc = instrument(&o, start, true)
			}
			rep := scenario.Run(specs, o)
			if on {
				rc.finish(specs, rep, 0, time.Since(start), o.Parallel)
			}
			d := time.Since(start).Seconds()
			if rep.Failed > 0 {
				return 0, fmt.Errorf("%d overhead cells failed", rep.Failed)
			}
			if on {
				traced = append(traced, d)
			} else {
				plain = append(plain, d)
			}
		}
	}
	return (median(traced) - median(plain)) / median(plain), nil
}

// writeSpans keeps the traced run's spans next to the image base: the
// pass's cell spans (milliseconds from the pass process's entry) and the
// probes' spans (from the probes' start).
func writeSpans(cfg config, cells []cellSample, probes spans) error {
	path := filepath.Join(filepath.Dir(cfg.imageBase), fmt.Sprintf("spans-%s-%d.json", cfg.w.name, cfg.seed))
	raw, err := json.MarshalIndent(struct {
		Cells  []cellSample `json:"cells"`
		Probes spans        `json:"probes"`
	}{cells, probes}, "", " ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		return fmt.Errorf("writing spans: %w", err)
	}
	fmt.Println("spans:", path)
	return nil
}
