package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"strings"
	"sync"
	"syscall"
	"time"

	"repro/internal/scenario"
)

// drySetups is how many extra set-ups a pass times after its real one.
// Set-up takes milliseconds, so one sample per pass would be noise.
const drySetups = 29

// passRecord is one pass's outcome, as a pass process reports it to the
// benchmark process on its standard output.
type passRecord struct {
	Cells    int      `json:"cells"`
	Failed   int      `json:"failed"`
	Problems []string `json:"problems,omitempty"`
	// WallS and CPUS cover set-up plus scenario.Run: from process entry
	// to Run's return. Image counting and cleanup come after.
	WallS float64 `json:"wall_s"`
	CPUS  float64 `json:"cpu_s"`
	// SetupS holds the real pass's entry-to-first-dispatch time followed
	// by the dry set-ups.
	SetupS    []float64   `json:"setup_s"`
	PeakRSSMB float64     `json:"peak_rss_mb"`
	FS        string      `json:"fs"`
	Images    imageCounts `json:"images"`
	// Trace is set on traced passes only.
	Trace *passTrace `json:"trace,omitempty"`
}

// passTrace is what a traced pass adds: one span per cell under the
// Run span, and the Go runtime's counters over the pass.
type passTrace struct {
	Workers int          `json:"workers"`
	Cells   []cellSample `json:"cells"`
	// RunSelfMS is the Run span's self time: the part of it no cell
	// covered (dispatch, report assembly, and pool idle at the tail).
	RunSelfMS float64 `json:"run_self_ms"`
	AllocMB   float64 `json:"alloc_mb"`
	GCCycles  float64 `json:"gc_cycles"`
	GCCPUS    float64 `json:"gc_cpu_s"`
}

// cellSample is one cell's span, in milliseconds from process entry.
type cellSample struct {
	ID      string  `json:"id"`
	Kind    string  `json:"kind"`
	StartMS float64 `json:"start_ms"`
	EndMS   float64 `json:"end_ms"`
}

// dispatchProbe is the result store a pass hands scenario.Run. Run asks
// the store for every cell right before executing it, from the worker
// that will execute it, so the first Get marks the first dispatch and
// each Get marks its cell's start. It never hits and stores nothing:
// every pass is cold. With ids set it instead hits every cell, which
// turns a Run into a set-up that executes nothing.
type dispatchProbe struct {
	epoch time.Time
	ids   map[string]string // hash -> cell ID; nil for a cold pass

	mu     sync.Mutex
	first  time.Duration
	starts map[string]time.Duration // hash -> dispatch time, when traced
}

func newDispatchProbe(epoch time.Time, traced bool) *dispatchProbe {
	p := &dispatchProbe{epoch: epoch, first: -1}
	if traced {
		p.starts = map[string]time.Duration{}
	}
	return p
}

func (p *dispatchProbe) Get(hash string) (scenario.Result, bool) {
	now := time.Since(p.epoch)
	p.mu.Lock()
	if p.first < 0 {
		p.first = now
	}
	if p.starts != nil {
		p.starts[hash] = now
	}
	p.mu.Unlock()
	if id, ok := p.ids[hash]; ok {
		return scenario.Result{ID: id, Status: scenario.StatusPass}, true
	}
	return scenario.Result{}, false
}

func (p *dispatchProbe) Put(string, scenario.Result) error { return nil }

// runPass runs one cold pass of the workload in this process, one worker
// per CPU. entry and
// cpu0 are the process's start time and CPU reading. The pass owns its
// image root: it creates it, counts and removes each cell's images as
// the cell completes, and removes the root at the end. Failing to
// create, count or remove fails the pass.
func runPass(w workload, seed int64, root string, traced bool, entry time.Time, cpu0 float64) (passRecord, error) {
	var rec passRecord
	specs := w.cells()
	if err := os.MkdirAll(root, 0o755); err != nil {
		return rec, fmt.Errorf("creating image root: %w", err)
	}
	rec.FS = fsType(root)
	o := w.options(seed, runtime.NumCPU())
	o.Scratch = root
	rc := instrument(&o, entry, traced)
	runStart := time.Since(entry)
	rep := scenario.Run(specs, o)
	runEnd := time.Since(entry)
	rec.WallS = runEnd.Seconds()
	rec.CPUS = cpuSeconds() - cpu0
	rec.PeakRSSMB = peakRSSMB()
	rec.SetupS = []float64{rc.probe.first.Seconds()}
	rec.Cells = len(specs)
	rec.Failed, rec.Problems = checkReport(specs, rep)
	if traced {
		rec.Trace = rc.finish(specs, rep, runStart, runEnd, o.Parallel)
	}
	if rc.cleanErr != nil {
		return rec, rc.cleanErr
	}
	left, err := countImages(root)
	if err != nil {
		return rec, err
	}
	rec.Images = rc.images.plus(left)
	if err := os.RemoveAll(root); err != nil {
		return rec, fmt.Errorf("removing image root: %w", err)
	}
	dry, err := drySetupTimes(w, o, root)
	if err != nil {
		return rec, err
	}
	rec.SetupS = append(rec.SetupS, dry...)
	return rec, nil
}

// drySetupTimes times the pass's set-up again without executing a cell:
// enumerate the cells, create the image root, and let scenario.Run hash
// the cell set and dispatch, against a store that already holds every
// cell. Each sample ends at the first dispatch.
func drySetupTimes(w workload, o scenario.Options, root string) ([]float64, error) {
	ids := map[string]string{}
	for _, s := range w.cells() {
		ids[scenario.CellHash(s, o)] = s.ID()
	}
	o.OnCell = nil
	var out []float64
	for i := 0; i < drySetups; i++ {
		start := time.Now()
		specs := w.cells()
		if err := os.MkdirAll(root, 0o755); err != nil {
			return nil, fmt.Errorf("creating image root: %w", err)
		}
		probe := &dispatchProbe{epoch: start, ids: ids, first: -1}
		o.Store = probe
		scenario.Run(specs, o)
		out = append(out, probe.first.Seconds())
		if err := os.RemoveAll(root); err != nil {
			return nil, fmt.Errorf("removing image root: %w", err)
		}
	}
	return out, nil
}

// cellRecorder is the instrumentation of one scenario.Run: the
// dispatch probe, the per-cell image cleanup, and on a traced run each
// cell's completion time and the runtime counters before the run.
type cellRecorder struct {
	probe  *dispatchProbe
	before []metrics.Sample

	mu       sync.Mutex
	ends     map[string]time.Duration // cell ID -> completion time
	images   imageCounts
	cleanErr error
}

// instrument attaches a recorder to o. When o has a scratch root, each
// completing cell's image directory is counted and removed at once, so
// a pass never holds more than a few cells' images: they are freed
// before the kernel starts writing them back, and the pass measures
// creating and writing images, not the disk under the checkout.
func instrument(o *scenario.Options, epoch time.Time, traced bool) *cellRecorder {
	rc := &cellRecorder{probe: newDispatchProbe(epoch, traced)}
	o.Store = rc.probe
	if traced {
		rc.ends = map[string]time.Duration{}
		rc.before = readRuntime()
	}
	root := o.Scratch
	o.OnCell = func(ev scenario.CellEvent) {
		now := time.Since(epoch)
		var c imageCounts
		var err error
		if root != "" {
			dir := filepath.Join(root, cellDir(ev.ID))
			if c, err = countImages(dir); err == nil {
				err = os.RemoveAll(dir)
			}
		}
		rc.mu.Lock()
		defer rc.mu.Unlock()
		if rc.ends != nil {
			rc.ends[ev.ID] = now
		}
		rc.images = rc.images.plus(c)
		if err != nil && rc.cleanErr == nil {
			rc.cleanErr = fmt.Errorf("cell %s images: %w", ev.ID, err)
		}
	}
	return rc
}

// cellDir is a cell's image directory under the scratch root: the
// engine names it exactly like the cell's trace file, minus ".json".
func cellDir(id string) string {
	return strings.TrimSuffix(scenario.TraceFileName(id), ".json")
}

// finish joins each cell's dispatch time (keyed by cell hash) with its
// completion time (keyed by ID) into spans under the Run span, and
// takes the runtime counters' deltas.
func (rc *cellRecorder) finish(specs []scenario.Spec, rep *scenario.Report, runStart, runEnd time.Duration, workers int) *passTrace {
	after := readRuntime()
	kinds := map[string]string{}
	for _, s := range specs {
		kinds[s.ID()] = cellKind(s)
	}
	t := &passTrace{
		Workers:  workers,
		AllocMB:  float64(after[0].Value.Uint64()-rc.before[0].Value.Uint64()) / 1e6,
		GCCycles: float64(after[1].Value.Uint64() - rc.before[1].Value.Uint64()),
		GCCPUS:   after[2].Value.Float64() - rc.before[2].Value.Float64(),
	}
	var ss spans
	run := ss.add("scenario.Run", -1, runStart, runEnd)
	// Run has joined its workers, so their writes are visible here.
	for _, res := range rep.Results {
		start, ok1 := rc.probe.starts[res.CellHash]
		end, ok2 := rc.ends[res.ID]
		if !ok1 || !ok2 {
			continue
		}
		ss.add(res.ID, run, start, end)
		t.Cells = append(t.Cells, cellSample{ID: res.ID, Kind: kinds[res.ID], StartMS: ms(start), EndMS: ms(end)})
	}
	t.RunSelfMS = ms(ss.selfTime(run))
	return t
}

// runtimeMetrics are the Go runtime counters a traced pass reads.
var runtimeMetrics = []string{
	"/gc/heap/allocs:bytes",
	"/gc/cycles/total:gc-cycles",
	"/cpu/classes/gc/total:cpu-seconds",
}

func readRuntime() []metrics.Sample {
	s := make([]metrics.Sample, len(runtimeMetrics))
	for i, name := range runtimeMetrics {
		s[i].Name = name
	}
	metrics.Read(s)
	return s
}

// cpuSeconds is the process's user plus system CPU time so far.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// peakRSSMB is the process's peak resident set so far, in MB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) * 1024 / 1e6 // Linux reports KiB
}

// passRoot is the image root of one pass process under base.
func passRoot(base string) string {
	return filepath.Join(base, fmt.Sprintf("pass-%d", os.Getpid()))
}
