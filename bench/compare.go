package main

import (
	"fmt"
	"io"
	"math"
	"os"
)

// verdict of one workload × metric pairing.
const (
	verdictOK         = "ok"
	verdictWorse      = "worse"
	verdictUnresolved = "unresolved"
)

// judge compares b against the baseline a. worsening is how far b is on
// the wrong side of a: as a share of a's median, or as a plain
// difference for a metric whose baseline is 0 (fail_share). A pairing
// whose cycles disagreed by more than the bound on either side is
// unresolved: the run cannot tell a change of that size from noise.
func judge(spec metricSpec, a, b value) (worsening float64, verdict string) {
	diff := b.Value - a.Value
	if spec.better == "higher" {
		diff = -diff
	}
	worsening = diff
	if a.Value != 0 {
		worsening = diff / math.Abs(a.Value)
	}
	switch {
	case worsening > spec.bound:
		return worsening, verdictWorse
	case math.Max(a.Spread, b.Spread) > spec.bound:
		return worsening, verdictUnresolved
	}
	return worsening, verdictOK
}

// compareResults prints one row per workload × end-to-end metric and
// reports whether any pairing got worse.
func compareResults(out io.Writer, a, b *fullResult) (worse bool) {
	fmt.Fprintf(out, "%-16s %-20s %14s %14s %9s %7s  %s\n", "workload", "metric", "a", "b", "worsening", "bound", "verdict")
	for _, w := range workloads {
		ra, rb := a.run(w.name, false), b.run(w.name, false)
		if ra == nil || rb == nil {
			fmt.Fprintf(out, "%-16s missing from one file\n", w.name)
			worse = true
			continue
		}
		for _, spec := range endToEnd {
			if !spec.appliesTo(w.name) {
				continue
			}
			worsening, verdict := judge(spec, ra.Metrics[spec.name], rb.Metrics[spec.name])
			worse = worse || verdict == verdictWorse
			fmt.Fprintf(out, "%-16s %-20s %14.6g %14.6g %+8.1f%% %6.1f%%  %s\n", w.name, spec.name,
				ra.Metrics[spec.name].Value, rb.Metrics[spec.name].Value, 100*worsening, 100*spec.bound, verdict)
		}
	}
	return worse
}

// compareFiles is the -compare mode; it returns the exit code.
func compareFiles(pathA, pathB string) int {
	var a, b fullResult
	for path, into := range map[string]*fullResult{pathA: &a, pathB: &b} {
		if err := readJSON(path, into); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 2
		}
	}
	if compareResults(os.Stdout, &a, &b) {
		return 1
	}
	return 0
}
