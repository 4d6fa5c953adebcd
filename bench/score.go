package main

import (
	"fmt"
	"math"
	"strconv"
)

// metricSpec describes one end-to-end metric: what a user of the system
// would see. only names the single workload the metric exists on; the
// rest exist on all four and are the ones BENCHMARK.json gates.
type metricSpec struct {
	name, unit, better string
	bound              float64 // share of the baseline median it may worsen by
	only               string
	what               string
}

var endToEnd = []metricSpec{
	{"setup_s", "s", "lower", 0.25, "", "time inside the program's own calls while building the serving stack (open, impressions, loads, listeners)"},
	{"qps", "1/s", "higher", 0.25, "", "answered requests of every class per second of the measured window"},
	{"p50_ms", "ms", "lower", 0.25, "", "client-observed median latency of the primary class (open loop: from the due time)"},
	{"p90_ms", "ms", "lower", 0.25, "", "90th percentile of the same samples"},
	{"promise_kept_rate", "ratio", "higher", 0.25, "", "share of the promised class's requests answered within the workload's latency limit; failures miss"},
	{"error_kept_rate", "ratio", "higher", 0.05, "", "share of checked answers whose realised relative error is within what they promised: ε for WITHIN ERROR, 0 for exact answers"},
	{"ci_coverage", "ratio", "higher", 0.12, "", "share of checked estimates whose interval contains the truth (nominal 0.95; an exact answer's interval is the value itself)"},
	{"ingest_rows_per_s", "rows/s", "higher", 0.25, "", "rows acknowledged per second inside DB.Load by the median 20k-row batch: of set-up, or on ingest-cold of the window, beside the queries"},
	{"peak_rss_mb", "MiB", "lower", 0.15, "", "VmHWM of the harness process, which holds client, server and reference data"},
	{"fail_share", "ratio", "lower", 0.001, "", "(errors + refusals + wrong answers) / attempted; the bound is absolute"},
	{"rel_error_p50", "ratio", "lower", 0.25, "explore-bounded", "median realised relative error of WITHIN TIME answers: the quality the budget buys"},
	{"rows_per_s", "rows/s", "higher", 0.15, "scan-stream", "rows of class stream decoded by the client per second of stream latency"},
	{"recover_s", "s", "lower", 0.25, "ingest-cold", "Close, reopen the directory, first query answered"},
	{"disk_bytes_per_row", "B/row", "lower", 0.02, "ingest-cold", "disk bytes after the final seal per row"},
}

// gated reports whether every workload emits the metric with a value
// that is never 0 — the condition for listing it in BENCHMARK.json.
func (m metricSpec) gated() bool { return m.only == "" && m.name != "fail_share" }

// pooled marks the ratios of checked answers. They do not depend on how
// fast the machine ran, only on how many answers were checked, so a run
// reports them over all its cycles together and not as a median cycle.
func (m metricSpec) pooled() bool {
	return m.name == "error_kept_rate" || m.name == "ci_coverage" || m.name == "fail_share"
}

func (m metricSpec) appliesTo(workload string) bool { return m.only == "" || m.only == workload }

// cycleScore is one cycle's end-to-end values and its checks.
type cycleScore struct {
	m         map[string]float64
	samples   map[string]int
	attempted int
	failed    int
	failures  []string // the first few, for the report
	validity  map[string]float64
}

func (cs *cycleScore) fail(format string, args ...any) {
	cs.failed++
	if len(cs.failures) < 10 {
		cs.failures = append(cs.failures, fmt.Sprintf(format, args...))
	}
}

// visible returns the row counts a request could have been answered
// over: the set-up rows, or on ingest-cold every batch boundary between
// the last load acknowledged before it started and the last load begun
// before it ended.
func visible(e *env, cr *cycleResult, r *record) []int {
	lo, hi := e.rows, e.rows
	for _, ev := range cr.allLoads {
		if ev.end <= r.start {
			lo = ev.rowsAfter
		}
		if ev.start <= r.end {
			hi = ev.rowsAfter
		}
	}
	out := []int{lo}
	for n := lo + batchRows; n <= hi; n += batchRows {
		out = append(out, n)
	}
	return out
}

func relErr(got, want float64) float64 {
	if want == 0 {
		return math.Abs(got)
	}
	return math.Abs(got-want) / math.Abs(want)
}

// windowSlices is how many equal slices a measured window is cut into. Every
// time-based metric is computed per slice and a cycle reports the
// median slice: a burst of CPU stolen from this shared machine then
// spoils a slice or two and not the cycle's value.
const windowSlices = 4

// score computes one cycle's end-to-end metrics and checks every kept
// answer against the reference.
func (w *workload) score(e *env, cr *cycleResult) *cycleScore {
	cs := &cycleScore{m: map[string]float64{}, samples: map[string]int{}, validity: map[string]float64{}}
	var (
		errKept, errN  int // error promises kept / checked
		covered, estN  int // estimates covering the truth / checked
		timeErrs       []float64
		errBase, errOK int // err answers from base data / answered
	)
	for i := range cr.recs {
		r := &cr.recs[i]
		cs.attempted++
		if r.failed {
			cs.fail("%s: %s", r.req.class, r.errText)
			continue
		}
		if !r.req.check {
			continue
		}
		limits := visible(e, cr, r)
		switch {
		case r.req.class.bounded():
			// An estimate is judged against the row count most
			// favourable to it among those it could have seen.
			errNow, cov := math.Inf(1), [2]bool{}
			for _, t := range e.data.cone(r.req.ra, r.req.de, coneRadius, limits) {
				en, em := relErr(r.ans.n, float64(t.n)), relErr(r.ans.m, t.avg())
				errNow = math.Min(errNow, math.Max(en, em))
				cov[0] = cov[0] || math.Abs(r.ans.n-float64(t.n)) <= r.ans.nHW+1e-9*float64(t.n)
				cov[1] = cov[1] || math.Abs(r.ans.m-t.avg()) <= r.ans.mHW+1e-9*t.avg()
			}
			estN += 2
			for _, c := range cov {
				if c {
					covered++
				}
			}
			switch r.req.class {
			case clErr:
				errN++
				errOK++
				if errNow <= errEpsilon {
					errKept++
				}
				if r.ans.base {
					errBase++
				}
			default:
				timeErrs = append(timeErrs, errNow)
			}
			if r.ans.base && !(cov[0] && cov[1]) {
				cs.fail("%s at (%g, %g): base answer n=%v m=%v differs from the reference", r.req.class, r.req.ra, r.req.de, r.ans.n, r.ans.m)
			}
		default:
			errN++
			estN++
			if exactMatches(e.data, r, limits) {
				errKept++
				covered++
			} else {
				cs.fail("%s: wrong answer to %q (n=%v m=%v rows=%d)", r.req.class, r.req.sql, r.ans.n, r.ans.m, r.ans.rows)
			}
		}
	}
	for _, f := range cr.restartFails {
		cs.attempted++
		cs.fail("%s", f)
	}

	cs.m["setup_s"] = cr.setupS
	cs.m["error_kept_rate"] = share(float64(errKept), float64(errN))
	cs.samples["error_kept_rate"] = errN
	cs.m["ci_coverage"] = share(float64(covered), float64(estN))
	cs.samples["ci_coverage"] = estN
	cs.m["fail_share"] = share(float64(cs.failed), float64(cs.attempted))
	cs.samples["fail_share"] = cs.attempted
	cs.m["rel_error_p50"] = percentile(timeErrs, 50)
	cs.samples["rel_error_p50"] = len(timeErrs)
	cs.m["recover_s"] = cr.recoverS
	cs.m["disk_bytes_per_row"] = cr.diskPerRow
	cs.m["ingest_rows_per_s"] = cr.setupLoadRate

	var qps, p50, p90, kept, stream []float64
	step := int64(e.window) / windowSlices
	for k := int64(0); k < windowSlices; k++ {
		t := w.timing(cr, int64(e.warm)+k*step, int64(e.warm)+(k+1)*step)
		qps = append(qps, t.qps)
		if t.primary > 0 {
			p50, p90, kept = append(p50, t.p50), append(p90, t.p90), append(kept, t.kept)
			cs.samples["p50_ms"] += t.primary
		}
		if t.streamRows > 0 {
			stream = append(stream, t.streamRows)
		}
	}
	cs.samples["p90_ms"] = cs.samples["p50_ms"]
	cs.m["qps"], cs.m["p50_ms"], cs.m["p90_ms"] = median(qps), median(p50), median(p90)
	cs.m["promise_kept_rate"] = median(kept)
	cs.m["rows_per_s"] = median(stream)
	if w.extraBatches > 0 {
		var rates []float64
		for _, ev := range cr.loads {
			rates = append(rates, batchRows/(float64(ev.end-ev.start)/1e9))
		}
		cs.m["ingest_rows_per_s"] = median(rates)
		cs.samples["ingest_rows_per_s"] = len(rates)
	}

	w.validate(cs, cr, share(float64(errOK-errBase), float64(errOK)))
	return cs
}

// sliceTiming is one slice's time-based values.
type sliceTiming struct {
	qps, p50, p90, kept float64
	primary             int     // primary-class requests due in the slice
	streamRows          float64 // per second of stream latency
}

// timing computes the time-based metrics of the slice [lo, hi) of the
// drive: latency over the requests that fell due in it, rates over what
// completed in it.
func (w *workload) timing(cr *cycleResult, lo, hi int64) sliceTiming {
	var (
		t        sliceTiming
		lat      []float64
		kept     int
		promised int
		answered int
		rows     int
		rowsNs   int64
	)
	for i := range cr.recs {
		r := &cr.recs[i]
		due := r.due >= lo && r.due < hi
		if due && (w.allPrimary || r.req.class == w.primary) {
			t.primary++
			if !r.failed {
				lat = append(lat, r.latencyMs())
			}
		}
		if due && (w.allPrimary || r.req.class == w.promised) {
			promised++
			if !r.failed && r.latencyMs() <= w.limitMs {
				kept++
			}
		}
		if r.failed || r.end < lo || r.end >= hi {
			continue
		}
		answered++
		if r.req.class == clStream {
			rows += r.ans.rows
			rowsNs += r.end - r.start
		}
	}
	t.qps = float64(answered) / (float64(hi-lo) / 1e9)
	t.p50, t.p90 = percentile(lat, 50), percentile(lat, 90)
	t.kept = share(float64(kept), float64(promised))
	t.streamRows = share(float64(rows), float64(rowsNs)/1e9)
	return t
}

// exactMatches reports whether an exact answer equals the reference
// over rows [0, limit) for one of the limits. Streams and groups are
// only sent where the table does not grow, so they have one limit.
func exactMatches(data *sky, r *record, limits []int) bool {
	b := r.req.box
	switch {
	case r.req.class == clStream:
		var n int
		var ids int64
		var rs float64
		data.visit(b, limits[0], func(k int) {
			n++
			ids += int64(k)
			rs += data.r[k]
		})
		return r.ans.rows == n && r.ans.idSum == ids && closeTo(r.ans.rSum, rs)
	case r.req.group != "":
		want := make([]agg, max(numFields, len(typeNames)))
		name := func(g int) string { return typeNames[g] }
		of := func(k int) int { return int(data.typ[k]) }
		if r.req.group == "fieldID" {
			name, of = strconv.Itoa, func(k int) int { return int(data.fieldID[k]) }
		}
		data.visit(b, limits[0], func(k int) {
			want[of(k)].n++
			want[of(k)].sum += data.r[k]
		})
		groups := 0
		for g, t := range want {
			if t.n == 0 {
				continue
			}
			groups++
			if got, ok := r.ans.groups[name(g)]; !ok || got[0] != float64(t.n) || !closeTo(got[1], t.avg()) {
				return false
			}
		}
		return groups == len(r.ans.groups)
	default:
		for _, t := range data.boxAggs(b, limits) {
			if r.ans.n == float64(t.n) && (t.n == 0 || closeTo(r.ans.m, t.avg())) {
				return true
			}
		}
		return false
	}
}

// validate records the values that show the workload measured what it
// says it measures; a run whose values miss their limits fails.
func (w *workload) validate(cs *cycleScore, cr *cycleResult, errAtImpression float64) {
	hits, subsumed, misses := cr.recyclerLookups()
	cs.validity["recycler_hit_rate"] = share(hits+subsumed, hits+subsumed+misses)
	switch w.name {
	case "explore-bounded":
		cs.validity["err_at_impression_share"] = errAtImpression
	case "dashboard-hot":
		cs.validity["gen_lag_p50_ms"] = genLag(cr.recs, 50)
	case "ingest-cold":
		if s := cr.after.Storage; s != nil && cr.before.Storage != nil {
			cs.validity["granule_evictions"] = float64(s.Cache.Evictions - cr.before.Storage.Cache.Evictions)
			cs.validity["granule_faults"] = float64(s.Cache.Faults - cr.before.Storage.Cache.Faults)
		}
	}
}

// recyclerLookups is how the window's recycler lookups ended, over all
// tenants.
func (cr *cycleResult) recyclerLookups() (hits, subsumed, misses float64) {
	for tenant, after := range cr.after.Recycler {
		before := cr.before.Recycler[tenant]
		hits += float64(after.Hits - before.Hits)
		subsumed += float64(after.Subsumed - before.Subsumed)
		misses += float64(after.Misses - before.Misses)
	}
	return hits, subsumed, misses
}

// validityLimits are the limits the median validity values must meet.
var validityLimits = map[string]map[string]func(v float64) bool{
	"explore-bounded": {
		"recycler_hit_rate":       func(v float64) bool { return v < 0.05 },
		"err_at_impression_share": func(v float64) bool { return v >= 0.7 },
	},
	"dashboard-hot": {
		"recycler_hit_rate": func(v float64) bool { return v >= 0.8 },
		"gen_lag_p50_ms":    func(v float64) bool { return v < 0.1 },
	},
	"scan-stream": {
		"recycler_hit_rate": func(v float64) bool { return v < 0.05 },
	},
	"ingest-cold": {
		"granule_evictions": func(v float64) bool { return v > 0 },
		"granule_faults":    func(v float64) bool { return v > 0 },
	},
}

// genLag is how late the open-loop generator itself ran: the p-th
// percentile of start-due over the requests whose sender was free when
// they fell due. A request that found every connection busy waited for
// the program, not for the generator; that wait is in its latency.
func genLag(recs []record, p float64) float64 {
	var late []float64
	for i := range recs {
		if recs[i].idle {
			late = append(late, float64(recs[i].start-recs[i].due)/1e6)
		}
	}
	return percentile(late, p)
}
