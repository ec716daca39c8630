package main

import (
	"fmt"

	"repro/internal/scenario"
)

// checkReport verifies a pass's report against the cells it was asked
// to run: every enumerated cell is present exactly once and passed, no
// other cell appears, and every fault cell records the recovery its
// kind promises (a restart for crash cells, exactly one shrink or one
// promotion for the in-place modes). It returns how many cells failed
// a check and one line per problem.
func checkReport(specs []scenario.Spec, rep *scenario.Report) (failed int, problems []string) {
	want := make(map[string]scenario.Spec, len(specs))
	for _, s := range specs {
		want[s.ID()] = s
	}
	seen := make(map[string]bool, len(specs))
	failedIDs := map[string]bool{}
	bad := func(id, msg string) {
		problems = append(problems, id+": "+msg)
		failedIDs[id] = true
	}
	for _, res := range rep.Results {
		s, ok := want[res.ID]
		switch {
		case !ok:
			bad(res.ID, "not an enumerated cell")
		case seen[res.ID]:
			bad(res.ID, "reported twice")
		default:
			seen[res.ID] = true
			if msg := checkResult(s, res); msg != "" {
				bad(res.ID, msg)
			}
		}
	}
	for _, s := range specs {
		if !seen[s.ID()] {
			bad(s.ID(), "missing from the report")
		}
	}
	return len(failedIDs), problems
}

// checkResult returns why one cell's result is wrong, or "".
func checkResult(s scenario.Spec, res scenario.Result) string {
	if res.Status != scenario.StatusPass {
		return fmt.Sprintf("status %s: %s", res.Status, res.Error)
	}
	kind := cellKind(s)
	if s.Fault == "" {
		return ""
	}
	if len(res.Faults) != res.Reps || res.Reps == 0 {
		return fmt.Sprintf("%d fault records for %d reps", len(res.Faults), res.Reps)
	}
	for _, f := range res.Faults {
		switch kind {
		case kindRankCrash, kindNodeCrash:
			if f.Restarts < 1 {
				return fmt.Sprintf("rep %d recovered without a restart", f.Rep)
			}
		case kindShrink:
			if f.Shrinks != 1 {
				return fmt.Sprintf("rep %d shrank %d times, want 1", f.Rep, f.Shrinks)
			}
		case kindReplicate:
			if f.Promotions != 1 {
				return fmt.Sprintf("rep %d promoted %d shadows, want 1", f.Rep, f.Promotions)
			}
		}
	}
	return ""
}
