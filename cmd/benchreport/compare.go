package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"strings"
)

// The regression gate: -compare checks the freshly parsed report
// against a committed baseline and fails the build when a benchmark
// slowed beyond tolerance.
//
// By default only the *virtual-time* metrics (virt-us/op, virt-ms/run)
// are gated. They are the simulated cluster's own clock — exactly
// repeatable and identical across host machines — so CI gates them
// with -tolerance 0: any change to a virtual time is a change to a
// result and must come with a re-recorded baseline. Wall-clock units (ns/op, cycle-us, ckpt-us)
// vary with the host CPU and with -benchtime 1x sampling, and are only
// compared when explicitly listed via -units.

// defaultUnits is the comma-separated gate default.
const defaultUnits = "virt-us/op,virt-ms/run"

// regression is one gated metric's verdict.
type regression struct {
	Name     string
	Unit     string
	Base     float64
	Current  float64
	DeltaPct float64
}

// metricsByUnit indexes one benchmark's metrics.
func metricsByUnit(b Bench) map[string]float64 {
	m := make(map[string]float64, len(b.Metrics))
	for _, metric := range b.Metrics {
		m[metric.Unit] = metric.Value
	}
	return m
}

// compareReports gates cur against base: every baseline benchmark's
// gated units are checked in cur, and a unit counts as regressed when
// cur > base * (1 + tolerancePct/100). Benchmarks present in only one
// report are reported (renames and removals should be visible) but do
// not fail the gate. Zero-valued baselines are skipped: there is no
// meaningful relative delta against 0.
func compareReports(cur, base *Report, units []string, tolerancePct float64) (regs []regression, lines []string) {
	gated := make(map[string]bool, len(units))
	for _, u := range units {
		if u = strings.TrimSpace(u); u != "" {
			gated[u] = true
		}
	}
	curByName := make(map[string]Bench, len(cur.Benches))
	for _, b := range cur.Benches {
		curByName[b.Name] = b
	}
	baseNames := make(map[string]bool, len(base.Benches))

	compared, improved := 0, 0
	for _, bb := range base.Benches {
		baseNames[bb.Name] = true
		cb, ok := curByName[bb.Name]
		if !ok {
			lines = append(lines, fmt.Sprintf("missing: %s (in baseline, not in this run)", bb.Name))
			continue
		}
		cm := metricsByUnit(cb)
		for _, metric := range bb.Metrics {
			if !gated[metric.Unit] || metric.Value == 0 {
				continue
			}
			curVal, ok := cm[metric.Unit]
			if !ok {
				lines = append(lines, fmt.Sprintf("missing metric: %s %s", bb.Name, metric.Unit))
				continue
			}
			compared++
			deltaPct := (curVal - metric.Value) / metric.Value * 100
			if deltaPct > tolerancePct {
				regs = append(regs, regression{
					Name: bb.Name, Unit: metric.Unit,
					Base: metric.Value, Current: curVal, DeltaPct: deltaPct,
				})
			} else if deltaPct < -tolerancePct {
				improved++
			}
		}
	}
	for _, cb := range cur.Benches {
		if !baseNames[cb.Name] {
			lines = append(lines, fmt.Sprintf("new: %s (not in baseline; ungated)", cb.Name))
		}
	}
	lines = append(lines, fmt.Sprintf(
		"gate: %d metrics compared against baseline (units %s, tolerance %g%%): %d regressed, %d improved beyond tolerance",
		compared, strings.Join(units, ","), tolerancePct, len(regs), improved))
	return regs, lines
}

// readBaseline loads a benchreport JSON written by -out.
func readBaseline(path string) (*Report, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("benchreport: reading baseline: %w", err)
	}
	var rep Report
	if err := json.Unmarshal(raw, &rep); err != nil {
		return nil, fmt.Errorf("benchreport: decoding baseline %s: %w", path, err)
	}
	if rep.Schema != Schema {
		return nil, fmt.Errorf("benchreport: baseline %s is schema v%d, this build reads v%d",
			path, rep.Schema, Schema)
	}
	if len(rep.Benches) == 0 {
		return nil, fmt.Errorf("benchreport: baseline %s has no benchmarks", path)
	}
	return &rep, nil
}

// runGate executes the -compare flow: print the verdicts to w, return
// the process exit code (1 when any gated metric regressed). Callers
// pass stderr when stdout carries the JSON report itself.
func runGate(w io.Writer, cur *Report, baselinePath, unitsCSV string, tolerancePct float64) int {
	base, err := readBaseline(baselinePath)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	regs, lines := compareReports(cur, base, strings.Split(unitsCSV, ","), tolerancePct)
	for _, l := range lines {
		fmt.Fprintln(w, l)
	}
	if len(regs) == 0 {
		fmt.Fprintf(w, "bench gate PASS against %s\n", baselinePath)
		return 0
	}
	for _, r := range regs {
		fmt.Fprintf(w, "REGRESSION %s: %g %s -> %g %s (+%.1f%%, tolerance %g%%)\n",
			r.Name, r.Base, r.Unit, r.Current, r.Unit, r.DeltaPct, tolerancePct)
	}
	fmt.Fprintf(w, "bench gate FAIL against %s: %d regressed metrics\n", baselinePath, len(regs))
	return 1
}
