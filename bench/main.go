// Command bench is the client-observed SciBORQ benchmark: it boots the
// real serving stack in-process on loopback listeners, drives it from
// outside over TCP with wire.Client and net/http (and DB.Load for
// ingest, which has no network path), checks the answers against a
// reference it computes from the rows it generated, and prints every
// metric by name and unit. See README.md beside this file.
//
//	bench -workload explore-bounded -seed 2011 -seconds 12 -trace 0
//	bench                      # all four workloads, untraced then traced
//	bench -compare a.json b.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"time"
)

// value is one reported metric: the median over the run's cycles, how
// far the cycles disagreed, and how many samples each cycle had.
type value struct {
	Value   float64 `json:"value"`
	Unit    string  `json:"unit"`
	Spread  float64 `json:"spread"`
	Samples int     `json:"samples,omitempty"`
}

// environment is recorded with every result so that a number is never
// read without its context.
type environment struct {
	NProc      int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	GoVersion  string  `json:"go_version"`
	Commit     string  `json:"commit"`
	Seed       uint64  `json:"seed"`
	Clients    int     `json:"clients"`
	Rows       int     `json:"rows"`
	Layers     []int   `json:"layers"`
	Cycles     int     `json:"cycles"`
	WarmS      float64 `json:"warm_s"`
	WindowS    float64 `json:"window_s"`
	Note       string  `json:"note"`
}

// runResult is one workload's run, traced or not.
type runResult struct {
	Workload  string             `json:"workload"`
	Traced    bool               `json:"traced"`
	Env       environment        `json:"env"`
	Metrics   map[string]value   `json:"metrics"`
	Validity  map[string]float64 `json:"validity"`
	ValidOK   bool               `json:"validity_ok"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	Failures  []string           `json:"failures,omitempty"`
	Budget    []budgetRow        `json:"budget,omitempty"`
	SpanFile  string             `json:"span_file,omitempty"`
}

func (r *runResult) correct() bool { return r.Failed == 0 && r.ValidOK }

func commit() string {
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				return s.Value
			}
		}
	}
	return "unknown"
}

// newEnv sizes a run. seconds is the measured time of the whole run: it
// is split evenly over the cycles, and each cycle warms up first.
func newEnv(seed uint64, seconds float64, traced, smoke bool, outDir string) *env {
	e := &env{
		seed: seed, clients: min(runtime.NumCPU(), 4), rows: 1_000_000, layers: []int{100_000, 10_000, 1_000},
		cycles: 3, traced: traced, smoke: smoke, outDir: outDir,
	}
	if smoke {
		e.rows, e.layers = 20_000, []int{2_000, 200, 20}
	}
	if traced {
		e.cycles = 1
	}
	// A traced run measures one window of the untraced run's length.
	e.window = time.Duration(seconds / 3 * float64(time.Second))
	return e
}

// runWorkload runs every cycle of one workload and reduces the cycles
// to medians.
func runWorkload(w *workload, e *env) (*runResult, error) {
	if err := os.MkdirAll(e.tmpDir(), 0o755); err != nil {
		return nil, err
	}
	e.warm = w.warm
	if e.smoke {
		e.warm = 100 * time.Millisecond
	}
	e.data = &sky{}
	extra := w.extraBatches
	if e.smoke {
		extra = min(extra, 4)
	}
	e.data.generate(rngFor(e.seed, "rows"), e.rows+extra*batchRows)
	e.data.index()

	res := &runResult{
		Workload: w.name, Traced: e.traced,
		Env: environment{
			NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(), Commit: commit(),
			Seed: e.seed, Clients: e.clients, Rows: e.rows, Layers: e.layers, Cycles: e.cycles,
			WarmS: e.warm.Seconds(), WindowS: e.window.Seconds(),
			Note: "client, server and reference data share one process: CPU, allocation and RSS figures cover all three",
		},
		Metrics: map[string]value{}, Validity: map[string]float64{},
	}
	perCycle := map[string][]float64{}
	samples := map[string][]float64{}
	validity := map[string][]float64{}
	var tr *traceOut
	for cyc := 0; cyc < e.cycles; cyc++ {
		release()
		cr, err := w.cycle(e, cyc)
		if err != nil {
			return nil, fmt.Errorf("%s cycle %d: %w", w.name, cyc, err)
		}
		cs := w.score(e, cr)
		for _, spec := range endToEnd {
			if spec.appliesTo(w.name) && spec.name != "peak_rss_mb" {
				perCycle[spec.name] = append(perCycle[spec.name], cs.m[spec.name])
				samples[spec.name] = append(samples[spec.name], float64(cs.samples[spec.name]))
			}
		}
		for k, v := range cs.validity {
			validity[k] = append(validity[k], v)
		}
		res.Attempted += cs.attempted
		res.Failed += cs.failed
		res.Failures = append(res.Failures, cs.failures...)
		if e.traced {
			tr = w.layers(e, cr, cs)
		}
	}
	for name, vals := range perCycle {
		spec := specOf(name)
		v := value{Value: median(vals), Unit: spec.unit, Spread: spread(vals), Samples: int(median(samples[name]))}
		if spec.pooled() {
			v.Value = weightedMean(vals, samples[name])
		}
		res.Metrics[name] = v
	}
	res.Metrics["peak_rss_mb"] = value{Value: peakRSSMiB(), Unit: specOf("peak_rss_mb").unit}
	res.ValidOK = true
	for k, vals := range validity {
		res.Validity[k] = median(vals)
		if ok := validityLimits[w.name][k]; ok != nil && !ok(res.Validity[k]) {
			res.ValidOK = e.smoke
			res.Failures = append(res.Failures, fmt.Sprintf("validity: %s = %g is outside its limit", k, res.Validity[k]))
		}
	}
	if len(res.Failures) > 10 {
		res.Failures = res.Failures[:10]
	}
	if tr != nil {
		for name, v := range tr.metrics {
			res.Metrics[name] = v
		}
		res.Budget = tr.budget
		res.SpanFile = filepath.Join(e.outDir, "trace-"+w.name+".jsonl")
		if err := tr.writeSpans(res.SpanFile); err != nil {
			return nil, err
		}
	}
	return res, nil
}

// peakRSSMiB reads VmHWM of this process.
func peakRSSMiB() float64 {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, _ := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			return kb / 1024
		}
	}
	return 0
}

// outDir is where a run started from the root of the checkout leaves
// its result files, span files and scratch data; .gitignore names it.
const outDir = "bench/out"

// resultFile is where one workload's run leaves its result.
func resultFile(workload string, traced bool) string {
	if traced {
		return filepath.Join(outDir, workload+"-trace.json")
	}
	return filepath.Join(outDir, workload+".json")
}

func writeJSON(path string, v any) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// print writes a run's metrics by name and unit, then its checks.
func (r *runResult) print() {
	kind := "end-to-end, untraced"
	if r.Traced {
		kind = "per-layer, traced"
	}
	fmt.Printf("== %s (%s) seed=%d clients=%d rows=%d cycles=%d window=%.2fs nproc=%d %s commit=%s\n",
		r.Workload, kind, r.Env.Seed, r.Env.Clients, r.Env.Rows, r.Env.Cycles, r.Env.WindowS, r.Env.NProc, r.Env.GoVersion, r.Env.Commit)
	names := make([]string, 0, len(r.Metrics))
	for name := range r.Metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		v := r.Metrics[name]
		line := fmt.Sprintf("%-34s %14.6g %-7s spread %.3f", name, v.Value, v.Unit, v.Spread)
		if v.Samples > 0 {
			line += fmt.Sprintf("  samples/cycle %d", v.Samples)
		}
		fmt.Println(line)
	}
	for _, row := range r.Budget {
		fmt.Printf("budget  %-18s %10.1f us  %5.1f %%\n", row.Layer, row.Us, 100*row.Share)
	}
	for k, v := range r.Validity {
		fmt.Printf("validity %-26s %g\n", k, v)
	}
	fmt.Printf("attempted %d  failed %d  validity_ok %t\n", r.Attempted, r.Failed, r.ValidOK)
	for _, f := range r.Failures {
		fmt.Println("FAIL:", f)
	}
}

// driverLine is the one-line result the build driver reads: the gated
// end-to-end metrics of an untraced run, the per-layer metrics of a
// traced one.
func (r *runResult) driverLine() string {
	metrics := map[string]map[string]any{}
	if r.Traced {
		for _, spec := range perLayer {
			metrics[spec.name] = map[string]any{"value": r.Metrics[spec.name].Value, "unit": spec.unit}
		}
	} else {
		for _, spec := range endToEnd {
			if spec.gated() {
				metrics[spec.name] = map[string]any{"value": r.Metrics[spec.name].Value, "unit": spec.unit}
			}
		}
	}
	b, _ := json.Marshal(map[string]any{
		"correct": r.correct(), "attempted": max(r.Attempted, 1), "failed": r.Failed, "metrics": metrics,
	})
	return string(b)
}

func specOf(name string) *metricSpec {
	for i := range endToEnd {
		if endToEnd[i].name == name {
			return &endToEnd[i]
		}
	}
	return nil
}

func main() {
	var (
		name    = flag.String("workload", "", "run one workload in this process (default: all four, each in a child process, untraced then traced)")
		seed    = flag.Uint64("seed", 2011, "seed of every generated input")
		seconds = flag.Float64("seconds", 12, "measured seconds per run, split over three cycles")
		trace   = flag.Int("trace", 0, "1: record spans, run the probe pass, report per-layer metrics")
		smoke   = flag.Bool("smoke", false, "tiny sizes (20k rows, short windows); validity limits are not enforced")
		compare = flag.Bool("compare", false, "compare two result files: bench -compare a.json b.json")
	)
	flag.Parse()
	if *compare {
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "usage: bench -compare a.json b.json")
			os.Exit(2)
		}
		os.Exit(compareFiles(flag.Arg(0), flag.Arg(1)))
	}
	if *name == "" {
		os.Exit(runAll(*seed, *seconds, *smoke))
	}
	w := workloadByName(*name)
	if w == nil {
		fmt.Fprintf(os.Stderr, "bench: unknown workload %q\n", *name)
		os.Exit(2)
	}
	e := newEnv(*seed, *seconds, *trace == 1, *smoke, outDir)
	res, err := runWorkload(w, e)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
	if err := writeJSON(resultFile(w.name, res.Traced), res); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
	res.print()
	fmt.Println(res.driverLine())
}
