// Command matrixbench is the repository's benchmark. It runs one named
// workload of scenario-matrix cells through scenario.Run, the entry
// point paperfigs -matrix uses, checks every report, and prints the
// end-to-end metrics, or with -trace 1 the per-layer ones, as the last
// line of its output: one JSON object with keys correct, attempted,
// failed and metrics.
//
//	go run . -workload osu-sweep -seed 1 -seconds 35 -trace 0
//
// Each pass runs cold in a fresh child process of this binary, so its
// peak resident memory is its own. See README.md for the workloads and
// metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"sort"
	"strconv"
	"time"
)

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's final output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type config struct {
	w         workload
	seed      int64
	seconds   int
	imageBase string
}

func main() {
	entry := time.Now()
	cpu0 := cpuSeconds()
	var (
		name      = flag.String("workload", "", "workload to run: osu-sweep, ckpt-periodic or recovery-mix")
		seed      = flag.Int64("seed", 1, "workload seed (scenario BaseSeed and the probes' program seeds)")
		seconds   = flag.Int("seconds", 35, "measuring time: passes start while the next one is expected to end within it")
		traceRun  = flag.Int("trace", 0, "1 runs one traced pass and the layer probes and reports per-layer metrics")
		imageBase = flag.String("image-base", ".bench_build/images", "directory under which each pass creates and removes its image root")
		passMode  = flag.Bool("pass", false, "run one pass in this process and print its record as JSON (used by the benchmark itself)")
		traced    = flag.Bool("traced", false, "with -pass: record cell spans and runtime counters")
	)
	flag.Parse()
	w, err := findWorkload(*name)
	if err != nil {
		fatal(err)
	}
	if *passMode {
		rec, err := runPass(w, *seed, passRoot(*imageBase), *traced, entry, cpu0)
		if err != nil {
			fatal(err)
		}
		if err := json.NewEncoder(os.Stdout).Encode(rec); err != nil {
			fatal(err)
		}
		return
	}
	if *traceRun != 0 && *traceRun != 1 {
		fatal(fmt.Errorf("-trace must be 0 or 1"))
	}
	cfg := config{w: w, seed: *seed, seconds: *seconds, imageBase: *imageBase}
	var res result
	if *traceRun == 1 {
		res, err = tracedRun(cfg)
	} else {
		res, err = timedRun(cfg)
	}
	if err != nil {
		fatal(err)
	}
	printSummary(res)
	line, err := json.Marshal(res)
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(line))
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "matrixbench:", err)
	os.Exit(1)
}

// spawnPass runs one pass in a child process and returns its record and
// the child's own wall time.
func spawnPass(cfg config, traced bool) (passRecord, time.Duration, error) {
	var rec passRecord
	self, err := os.Executable()
	if err != nil {
		return rec, 0, fmt.Errorf("locating the benchmark binary: %w", err)
	}
	args := []string{"-pass", "-workload", cfg.w.name, "-seed", strconv.FormatInt(cfg.seed, 10),
		"-image-base", cfg.imageBase}
	if traced {
		args = append(args, "-traced")
	}
	cmd := exec.Command(self, args...)
	cmd.Stderr = os.Stderr
	start := time.Now()
	out, err := cmd.Output()
	took := time.Since(start)
	if err != nil {
		return rec, took, fmt.Errorf("pass process: %w", err)
	}
	if err := json.Unmarshal(out, &rec); err != nil {
		return rec, took, fmt.Errorf("decoding pass record: %w", err)
	}
	return rec, took, nil
}

// timedRun measures untraced passes until the next one would overrun
// the measuring time (at least one pass), and reports the end-to-end
// metrics as medians over the passes.
func timedRun(cfg config) (result, error) {
	start := time.Now()
	var recs []passRecord
	var took []float64
	for {
		rec, d, err := spawnPass(cfg, false)
		if err != nil {
			return result{}, err
		}
		logPass(cfg, rec, d)
		recs = append(recs, rec)
		took = append(took, d.Seconds())
		if time.Since(start).Seconds()+median(took) > float64(cfg.seconds) {
			break
		}
	}
	res := result{Metrics: map[string]metric{}}
	var wall, cpu, rss, setup []float64
	for _, r := range recs {
		res.Attempted += r.Cells
		res.Failed += r.Failed
		wall = append(wall, r.WallS)
		cpu = append(cpu, r.CPUS)
		rss = append(rss, r.PeakRSSMB)
		setup = append(setup, r.SetupS...)
	}
	res.Correct = res.Failed == 0
	res.Metrics["wall_s"] = metric{median(wall), "s"}
	res.Metrics["cpu_s"] = metric{median(cpu), "s"}
	res.Metrics["setup_s"] = metric{median(setup), "s"}
	res.Metrics["peak_rss_mb"] = metric{median(rss), "MB"}
	fmt.Printf("%s seed %d: %d passes, images on %s, failed_frac %.4g (%d of %d cells)\n",
		cfg.w.name, cfg.seed, len(recs), recs[0].FS, float64(res.Failed)/float64(res.Attempted), res.Failed, res.Attempted)
	return res, nil
}

// logPass prints one pass's headline and its first problems.
func logPass(cfg config, rec passRecord, took time.Duration) {
	fmt.Printf("pass: %d cells, %d failed, wall %.3fs, cpu %.3fs, rss %.1fMB, %d image sets (process %.1fs)\n",
		rec.Cells, rec.Failed, rec.WallS, rec.CPUS, rec.PeakRSSMB, rec.Images.Sets, took.Seconds())
	for i, p := range rec.Problems {
		if i == 5 {
			fmt.Printf("  ... %d more\n", len(rec.Problems)-i)
			break
		}
		fmt.Println("  check failed:", p)
	}
}

// printSummary prints every metric with its unit, one per line.
func printSummary(res result) {
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := res.Metrics[n]
		fmt.Printf("  %-40s %14.6g %s\n", n, m.Value, m.Unit)
	}
	fmt.Printf("  correct=%v attempted=%d failed=%d\n", res.Correct, res.Attempted, res.Failed)
}
