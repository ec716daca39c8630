package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/faults"
	"repro/internal/scenario"
)

func TestTailPercentileKeepsTenSamplesBeyond(t *testing.T) {
	seq := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(n - i) // reversed: the function must sort
		}
		return xs
	}
	for _, tc := range []struct {
		n, wantP int
	}{
		{20, 50},   // rank 10 leaves exactly 10 beyond; p51 would leave 9
		{54, 81},   // osu-sweep: rank 44 of 54
		{96, 89},   // recovery-mix: rank 86 of 96
		{1000, 99}, // rank 990 leaves 10
	} {
		p, v, ok := tailPercentile(seq(tc.n))
		if !ok || p != tc.wantP {
			t.Fatalf("n=%d: got p%d ok=%v, want p%d", tc.n, p, ok, tc.wantP)
		}
		rank := (p*tc.n + 99) / 100
		if v != float64(rank) || tc.n-rank < minBeyond {
			t.Fatalf("n=%d: value %v at rank %d leaves %d beyond", tc.n, v, rank, tc.n-rank)
		}
	}
	if _, _, ok := tailPercentile(seq(19)); ok {
		t.Fatal("19 samples cannot leave 10 beyond the median")
	}
}

func TestSelfTimeSubtractsUnionOfChildren(t *testing.T) {
	ms := func(n int) time.Duration { return time.Duration(n) * time.Millisecond }
	var ss spans
	root := ss.add("run", -1, ms(0), ms(100))
	a := ss.add("a", root, ms(10), ms(30))
	ss.add("b", root, ms(20), ms(50))   // overlaps a: the union counts once
	ss.add("c", root, ms(90), ms(120))  // runs past the parent: clipped
	ss.add("a.1", a, ms(12), ms(28))    // a grandchild is not root's child
	ss.add("other", -1, ms(60), ms(80)) // another root, not a child
	if got, want := ss.selfTime(root), ms(100-40-10); got != want {
		t.Fatalf("root self time %v, want %v", got, want)
	}
	if got, want := ss.selfTime(a), ms(20-16); got != want {
		t.Fatalf("a self time %v, want %v", got, want)
	}
	if got, want := ss.selfTime(len(ss)-1), ms(20); got != want {
		t.Fatalf("leaf self time %v, want %v", got, want)
	}
}

func TestCountImages(t *testing.T) {
	root := t.TempDir()
	write := func(rel string, n int) {
		t.Helper()
		p := filepath.Join(root, rel)
		if err := os.MkdirAll(filepath.Dir(p), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(p, make([]byte, n), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	for _, set := range []string{"cell-a/rep00/step_000001", "cell-a/rep00/step_000002", "cell-b/rep00"} {
		write(set+"/meta.gob", 10)
		write(set+"/rank_0000.img", 100)
		write(set+"/rank_0001.img", 100)
	}
	write("cell-c/rep00/rank_0000.img", 7) // a torn set: images, no meta
	write("cell-c/notes.txt", 3)
	c, err := countImages(root)
	if err != nil {
		t.Fatal(err)
	}
	if want := (imageCounts{Sets: 3, RankImages: 7, Bytes: 3*210 + 7 + 3}); c != want {
		t.Fatalf("counted %+v, want %+v", c, want)
	}
	c, err = countImages(filepath.Join(root, "absent"))
	if err != nil || c != (imageCounts{}) {
		t.Fatalf("missing root: %+v, %v; want zero counts and no error", c, err)
	}
}

// goodReport is a report in which every cell passed with the recovery
// its kind promises.
func goodReport(specs []scenario.Spec) *scenario.Report {
	rep := &scenario.Report{}
	for _, s := range specs {
		res := scenario.Result{ID: s.ID(), Spec: s, Status: scenario.StatusPass, Reps: 1}
		if s.Fault != "" {
			f := scenario.FaultRecord{Kind: string(s.Fault)}
			switch cellKind(s) {
			case kindShrink:
				f.Shrinks = 1
			case kindReplicate:
				f.Promotions = 1
			default:
				f.Restarts = 1
			}
			res.Faults = []scenario.FaultRecord{f}
		}
		rep.Results = append(rep.Results, res)
	}
	return rep
}

func TestCheckReportRejectsDoctoredReports(t *testing.T) {
	w, err := findWorkload("recovery-mix")
	if err != nil {
		t.Fatal(err)
	}
	specs := w.cells()
	crash, _ := findWorkload("ckpt-periodic")
	specs = append(specs, crash.cells()[0])
	if failed, probs := checkReport(specs, goodReport(specs)); failed != 0 {
		t.Fatalf("a good report failed %d cells: %v", failed, probs)
	}
	index := func(rep *scenario.Report, kind string) int {
		for i, r := range rep.Results {
			if cellKind(r.Spec) == kind {
				return i
			}
		}
		t.Fatalf("no %s cell", kind)
		return -1
	}
	for _, tc := range []struct {
		name   string
		doctor func(rep *scenario.Report)
		want   string
	}{
		{"dropped cell", func(rep *scenario.Report) { rep.Results = rep.Results[1:] }, "missing from the report"},
		{"failed cell", func(rep *scenario.Report) {
			rep.Results[3].Status, rep.Results[3].Error = scenario.StatusFail, "rep 0: boom"
		}, "status fail"},
		{"wrong promotion count", func(rep *scenario.Report) {
			rep.Results[index(rep, kindReplicate)].Faults[0].Promotions = 2
		}, "promoted 2 shadows"},
		{"shrink missed", func(rep *scenario.Report) {
			rep.Results[index(rep, kindShrink)].Faults[0].Shrinks = 0
		}, "shrank 0 times"},
		{"crash without restart", func(rep *scenario.Report) {
			rep.Results[index(rep, kindRankCrash)].Faults[0].Restarts = 0
		}, "without a restart"},
		{"missing fault record", func(rep *scenario.Report) {
			rep.Results[index(rep, kindShrink)].Faults = nil
		}, "0 fault records"},
		{"unknown cell", func(rep *scenario.Report) {
			extra := scenario.Spec{Program: "app.wave", Impl: "mpich", ABI: "native", Ckpt: "none", Fault: faults.KindNICDegrade}
			rep.Results = append(rep.Results, scenario.Result{ID: extra.ID(), Spec: extra, Status: scenario.StatusPass})
		}, "not an enumerated cell"},
		{"duplicated cell", func(rep *scenario.Report) {
			rep.Results = append(rep.Results, rep.Results[0])
		}, "reported twice"},
	} {
		rep := goodReport(specs)
		tc.doctor(rep)
		failed, probs := checkReport(specs, rep)
		if failed != 1 || len(probs) != 1 || !strings.Contains(probs[0], tc.want) {
			t.Errorf("%s: failed=%d problems=%v, want one failed cell reporting %q", tc.name, failed, probs, tc.want)
		}
	}
}

func TestWorkloadCellCounts(t *testing.T) {
	for name, want := range map[string]map[string]int{
		"osu-sweep":     {kindStraight: 54},
		"ckpt-periodic": {kindRankCrash: 60, kindNodeCrash: 24},
		"recovery-mix":  {kindRestart: 60, kindShrink: 18, kindReplicate: 18},
	} {
		w, err := findWorkload(name)
		if err != nil {
			t.Fatal(err)
		}
		got := map[string]int{}
		for _, s := range w.cells() {
			got[cellKind(s)]++
		}
		if len(got) != len(want) {
			t.Fatalf("%s: kinds %v, want %v", name, got, want)
		}
		for k, n := range want {
			if got[k] != n {
				t.Fatalf("%s: kinds %v, want %v", name, got, want)
			}
		}
	}
}

func TestDrySetupDispatchesWithoutRunning(t *testing.T) {
	w, err := findWorkload("recovery-mix")
	if err != nil {
		t.Fatal(err)
	}
	root := filepath.Join(t.TempDir(), "images")
	start := time.Now()
	xs, err := drySetupTimes(w, w.options(1, 2), root)
	if err != nil {
		t.Fatal(err)
	}
	if len(xs) != drySetups {
		t.Fatalf("%d samples, want %d", len(xs), drySetups)
	}
	for _, x := range xs {
		if x <= 0 {
			t.Fatalf("non-positive set-up time in %v", xs)
		}
	}
	// Executing even one cell takes tens of milliseconds per cell.
	if d := time.Since(start); d > 5*time.Second {
		t.Fatalf("dry set-ups took %v: cells were executed", d)
	}
	if _, err := os.Stat(root); !os.IsNotExist(err) {
		t.Fatalf("image root left behind: %v", err)
	}
}

func TestInstrumentedRunCountsAndRemovesImages(t *testing.T) {
	w, err := findWorkload("recovery-mix")
	if err != nil {
		t.Fatal(err)
	}
	var specs []scenario.Spec
	for _, s := range w.cells() {
		if k := cellKind(s); (k == kindRestart && s.Program == "app.wave" && len(specs) < 2) || (k == kindShrink && len(specs) == 2) {
			specs = append(specs, s)
		}
	}
	if len(specs) != 3 {
		t.Fatalf("picked %d cells, want 2 restart cells and 1 shrink cell", len(specs))
	}
	o := w.options(3, 2)
	o.Scratch = t.TempDir()
	start := time.Now()
	rc := instrument(&o, start, true)
	rep := scenario.Run(specs, o)
	if failed, probs := checkReport(specs, rep); failed != 0 {
		t.Fatalf("%d cells failed: %v", failed, probs)
	}
	if rc.cleanErr != nil {
		t.Fatal(rc.cleanErr)
	}
	// One checkpoint per restart cell, eight ranks each; shrink writes none.
	if rc.images.Sets != 2 || rc.images.RankImages != 16 || rc.images.Bytes == 0 {
		t.Fatalf("counted %+v, want 2 sets of 8 rank images", rc.images)
	}
	if left, err := countImages(o.Scratch); err != nil || left != (imageCounts{}) {
		t.Fatalf("images left under the root: %+v, %v", left, err)
	}
	tr := rc.finish(specs, rep, 0, time.Since(start), o.Parallel)
	if len(tr.Cells) != len(specs) {
		t.Fatalf("%d cell spans for %d cells", len(tr.Cells), len(specs))
	}
	for _, c := range tr.Cells {
		if c.EndMS <= c.StartMS {
			t.Fatalf("empty span %+v", c)
		}
	}
	if rc.probe.first < 0 {
		t.Fatal("no dispatch recorded")
	}
}
