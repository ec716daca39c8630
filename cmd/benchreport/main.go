// Command benchreport converts `go test -bench` text output into a
// stable JSON baseline, so the repository's performance trajectory
// accumulates machine-readable points instead of scrollback. CI runs the
// benchmark suite once per build (-benchtime 1x as a smoke stage) and
// persists the parsed result as a BENCH_*.json artifact; committing one
// such file pins the baseline the next optimization PR measures against.
//
// Usage:
//
//	go test -run '^$' -bench . -benchtime 1x ./... | go run ./cmd/benchreport -out BENCH_baseline.json
//	go test -run '^$' -bench . -benchtime 1x ./... | \
//	  go run ./cmd/benchreport -out BENCH_ci.json -compare BENCH_baseline.json -tolerance 0
//
// The parser keeps every benchmark line's iteration count, ns/op and
// custom metrics (virt-us/op, ckpt-us, cycle-us, ...), plus the goos /
// goarch / cpu header lines, in input order.
//
// -compare turns the run into a regression gate: after writing -out,
// the parsed report is checked against the named baseline and the
// process exits nonzero when any gated metric regressed beyond
// -tolerance percent. The gate defaults to the virtual-time units
// (virt-us/op, virt-ms/run) because they are machine-independent —
// the simulated cluster's clock, not the runner's; wall-clock units
// can be added with -units at the cost of host-noise sensitivity.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"regexp"
	"strconv"
	"strings"
)

// Schema is bumped when the JSON shape changes.
const Schema = 1

// Metric is one reported value of a benchmark line.
type Metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// Bench is one parsed benchmark result line.
type Bench struct {
	Name    string   `json:"name"`
	Iters   int64    `json:"iters"`
	Metrics []Metric `json:"metrics"`
}

// Report is the persisted baseline.
type Report struct {
	Schema  int     `json:"schema"`
	Goos    string  `json:"goos,omitempty"`
	Goarch  string  `json:"goarch,omitempty"`
	CPU     string  `json:"cpu,omitempty"`
	Benches []Bench `json:"benchmarks"`
}

// benchLine matches "BenchmarkName[/sub]-P   N   123 ns/op [v unit]...".
var benchLine = regexp.MustCompile(`^(Benchmark\S+)\s+(\d+)\s+(.*)$`)

// procSuffix is the "-N" GOMAXPROCS suffix go test appends to benchmark
// names on multi-core machines. It is stripped so a baseline generated
// on one machine matches reports from runners with a different core
// count — the whole point of keeping baselines comparable.
var procSuffix = regexp.MustCompile(`-\d+$`)

// metricPair matches "value unit" fragments of a benchmark line.
var metricPair = regexp.MustCompile(`([0-9.eE+-]+)\s+(\S+)`)

func parse(lines *bufio.Scanner) (*Report, error) {
	rep := &Report{Schema: Schema}
	for lines.Scan() {
		line := strings.TrimSpace(lines.Text())
		switch {
		case strings.HasPrefix(line, "goos:"):
			rep.Goos = strings.TrimSpace(strings.TrimPrefix(line, "goos:"))
		case strings.HasPrefix(line, "goarch:"):
			rep.Goarch = strings.TrimSpace(strings.TrimPrefix(line, "goarch:"))
		case strings.HasPrefix(line, "cpu:"):
			rep.CPU = strings.TrimSpace(strings.TrimPrefix(line, "cpu:"))
		}
		m := benchLine.FindStringSubmatch(line)
		if m == nil {
			continue
		}
		iters, err := strconv.ParseInt(m[2], 10, 64)
		if err != nil {
			return nil, fmt.Errorf("benchreport: bad iteration count in %q: %w", line, err)
		}
		b := Bench{Name: procSuffix.ReplaceAllString(m[1], ""), Iters: iters}
		for _, pair := range metricPair.FindAllStringSubmatch(m[3], -1) {
			v, err := strconv.ParseFloat(pair[1], 64)
			if err != nil {
				continue // not a metric fragment (e.g. a stray word)
			}
			b.Metrics = append(b.Metrics, Metric{Value: v, Unit: pair[2]})
		}
		rep.Benches = append(rep.Benches, b)
	}
	if err := lines.Err(); err != nil {
		return nil, err
	}
	if len(rep.Benches) == 0 {
		return nil, fmt.Errorf("benchreport: no benchmark lines on stdin (pipe `go test -bench` output in)")
	}
	return rep, nil
}

func main() {
	out := flag.String("out", "", "output path (default: stdout)")
	compare := flag.String("compare", "", "baseline benchreport JSON to gate this run against")
	tolerance := flag.Float64("tolerance", 25, "percent slowdown beyond which a gated metric fails the -compare gate")
	units := flag.String("units", defaultUnits, "comma-separated metric units the -compare gate checks")
	flag.Parse()

	rep, err := parse(bufio.NewScanner(os.Stdin))
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	raw, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchreport:", err)
		os.Exit(1)
	}
	raw = append(raw, '\n')
	if *out == "" {
		os.Stdout.Write(raw)
	} else {
		if err := os.WriteFile(*out, raw, 0o644); err != nil {
			fmt.Fprintln(os.Stderr, "benchreport:", err)
			os.Exit(1)
		}
		fmt.Printf("wrote %s (%d benchmarks)\n", *out, len(rep.Benches))
	}
	if *compare != "" {
		// With no -out, stdout is the JSON report; keep the gate's text
		// verdicts off it so the stream stays parseable.
		gateOut := io.Writer(os.Stdout)
		if *out == "" {
			gateOut = os.Stderr
		}
		os.Exit(runGate(gateOut, rep, *compare, *units, *tolerance))
	}
}
