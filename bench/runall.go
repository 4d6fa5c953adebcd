package main

import (
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
)

// fullResult is the file a full run writes and -compare reads.
type fullResult struct {
	Runs []*runResult `json:"runs"`
	// TraceOverheadPct is, per workload, how much lower qps was in the
	// traced run than in the untraced one.
	TraceOverheadPct map[string]float64 `json:"trace.overhead_pct"`
}

func (f *fullResult) run(workload string, traced bool) *runResult {
	for _, r := range f.Runs {
		if r.Workload == workload && r.Traced == traced {
			return r
		}
	}
	return nil
}

func readJSON(path string, into any) error {
	b, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	return json.Unmarshal(b, into)
}

// runAll runs every workload untraced and then traced, each in a child
// process of its own so that peak RSS, the learned cost model and every
// cache start fresh, and gathers the children's result files into
// bench/out/result.json. It returns the process's exit code.
func runAll(seed uint64, seconds float64, smoke bool) int {
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	full := &fullResult{TraceOverheadPct: map[string]float64{}}
	code := 0
	for _, w := range workloads {
		for _, trace := range []string{"0", "1"} {
			args := []string{"-workload", w.name, "-seed", strconv.FormatUint(seed, 10),
				"-seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "-trace", trace}
			if smoke {
				args = append(args, "-smoke")
			}
			cmd := exec.Command(self, args...)
			cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
			if err := cmd.Run(); err != nil {
				fmt.Fprintf(os.Stderr, "bench: %s -trace %s: %v\n", w.name, trace, err)
				return 1
			}
			res := &runResult{}
			if err := readJSON(resultFile(w.name, trace == "1"), res); err != nil {
				fmt.Fprintln(os.Stderr, "bench:", err)
				return 1
			}
			full.Runs = append(full.Runs, res)
			if !res.correct() {
				code = 1
			}
		}
		plain, traced := full.run(w.name, false).Metrics["qps"].Value, full.run(w.name, true).Metrics["qps"].Value
		full.TraceOverheadPct[w.name] = 100 * share(plain-traced, plain)
		fmt.Printf("%-34s %14.6g %%       (%s: untraced qps %.6g, traced %.6g)\n",
			"trace.overhead_pct", full.TraceOverheadPct[w.name], w.name, plain, traced)
	}
	path := filepath.Join(outDir, "result.json")
	if err := writeJSON(path, full); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	fmt.Println("wrote", path)
	return code
}
