package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"testing"
	"time"
)

func TestPercentileMedianSpread(t *testing.T) {
	vals := []float64{5, 1, 4, 2, 3, 10, 9, 8, 7, 6}
	for _, c := range []struct{ p, want float64 }{{50, 5}, {95, 10}, {90, 9}, {10, 1}, {100, 10}, {1, 1}} {
		if got := percentile(vals, c.p); got != c.want {
			t.Errorf("percentile(%v) = %v, want %v", c.p, got, c.want)
		}
	}
	if vals[0] != 5 {
		t.Error("percentile sorted its input in place")
	}
	if got := percentile(nil, 50); got != 0 {
		t.Errorf("percentile(nil) = %v, want 0", got)
	}
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("median of three = %v, want 2", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median of four = %v, want 2.5", got)
	}
	if got := spread([]float64{9, 10, 12}); math.Abs(got-0.3) > 1e-12 {
		t.Errorf("spread = %v, want 0.3", got)
	}
	if got := spread([]float64{0, 0, 0}); got != 0 {
		t.Errorf("spread of zeros = %v, want 0", got)
	}
}

// A 50 ms server stall must show in the latencies of the requests that
// fell due while it lasted, not only in the one request that hit it.
func TestOpenLoopTimesFromDueTime(t *testing.T) {
	const (
		gap     = 2 * time.Millisecond
		n       = 100
		stallAt = 20
		stall   = 50 * time.Millisecond
	)
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		var body struct{ SQL string }
		if err := json.NewDecoder(r.Body).Decode(&body); err != nil {
			t.Errorf("stub server: %v", err)
		}
		if body.SQL == fmt.Sprint("q", stallAt) {
			time.Sleep(stall)
		}
		fmt.Fprint(w, `{"elapsed_ns":1,"queue_ns":0,"exact":{"columns":["n","m"],"rows":[["1","2"]]}}`)
	}))
	defer srv.Close()

	reqs := make([]*request, n)
	due := make([]int64, n)
	for i := range reqs {
		reqs[i] = &request{class: clHit, sql: fmt.Sprint("q", i), stmt: -1}
		due[i] = int64(time.Duration(i) * gap)
	}
	recs := openLoop(strings.TrimPrefix(srv.URL, "http://"), reqs, due, 1, time.Now(), false)

	var during []float64
	for i, r := range recs {
		if r.failed {
			t.Fatalf("request %d failed: %s", i, r.errText)
		}
		if r.ans.n != 1 || r.ans.m != 2 {
			t.Fatalf("request %d: answer %v,%v, want 1,2", i, r.ans.n, r.ans.m)
		}
		if at := time.Duration(r.due); at > stallAt*gap && at < stallAt*gap+stall {
			during = append(during, r.latencyMs())
		}
	}
	if len(during) < 20 {
		t.Fatalf("%d requests fell due during the stall, want about 24", len(during))
	}
	if p95 := percentile(during, 95); p95 < 35 {
		t.Errorf("p95 of the requests due during a 50 ms stall is %.1f ms: the stall is not charged to them", p95)
	}
	if p50 := percentile(during, 50); p50 < 10 {
		t.Errorf("p50 of the requests due during a 50 ms stall is %.1f ms, want the backlog to show", p50)
	}
	if lag := genLag(recs[:stallAt], 99); lag > 5 {
		t.Errorf("generator ran %.1f ms late before the stall", lag)
	}
}

// inputDigest hashes everything a run with this seed would send: rows,
// statements, bind values and arrival times.
func inputDigest(seed uint64) uint64 {
	h := fnv.New64a()
	data := &sky{}
	data.generate(rngFor(seed, "rows"), 3000)
	data.index()
	fmt.Fprint(h, data.rows(0, 3000))
	put := func(r *request) { fmt.Fprintln(h, r.class, r.tenant, r.sql, r.stmt, r.binds, r.check) }
	for client := 0; client < 2; client++ {
		explore, scan := exploreGen(seed, 1, client), scanGen(seed, 1, client)
		for i := 0; i < 200; i++ {
			put(explore())
			put(scan())
		}
	}
	ingest := ingestGen(seed, 1, 3000)
	for i := 0; i < 200; i++ {
		put(ingest())
	}
	for _, r := range dashRequests(seed, data, 1, 500) {
		put(r)
	}
	fmt.Fprint(h, poissonSchedule(rngFor(seed, "dashboard/arrivals/1"), 500, dashRate))
	return h.Sum64()
}

func TestSameSeedSameInputs(t *testing.T) {
	a, b, c := inputDigest(2011), inputDigest(2011), inputDigest(2012)
	if a != b {
		t.Error("the same seed generated different inputs")
	}
	if a == c {
		t.Error("different seeds generated the same inputs")
	}
}

// The grid only narrows which rows the reference visits: it must agree
// with a plain scan of every row.
func TestReferenceGridAgreesWithFullScan(t *testing.T) {
	data := &sky{}
	data.generate(rngFor(5, "rows"), 30_000)
	data.index()
	rng := rngFor(5, "test")
	limits := []int{20_000, 25_000, 30_000}
	for i := 0; i < 50; i++ {
		ra, dec := coneCentre(rng)
		got := data.cone(ra, dec, coneRadius, limits)
		for j, limit := range limits {
			var want agg
			cx, cy, cz := unitVec(ra, dec)
			for k := 0; k < limit; k++ {
				x, y, z := unitVec(data.ra[k], data.dec[k])
				if x*cx+y*cy+z*cz >= math.Cos(coneRadius*math.Pi/180) {
					want.n++
					want.sum += data.r[k]
				}
			}
			if got[j].n != want.n || !closeTo(got[j].sum, want.sum) {
				t.Fatalf("cone (%g, %g) over %d rows: grid %+v, full scan %+v", ra, dec, limit, got[j], want)
			}
		}
	}
	boxes := []box{
		{raLo: 150, raHi: 180.5, rMax: 18.2},
		{raLo: 199.25, raHi: 203, decLo: 10.5, decHi: 44},
		{idLo: 100, idHi: 22_000, rMax: 19},
		{rMax: 17.5},
	}
	for _, b := range boxes {
		got := data.boxAggs(b, limits)
		for j, limit := range limits {
			var want agg
			for k := 0; k < limit; k++ {
				if b.match(data, k) {
					want.n++
					want.sum += data.r[k]
				}
			}
			if got[j].n != want.n || !closeTo(got[j].sum, want.sum) {
				t.Fatalf("box %q over %d rows: grid %+v, full scan %+v", b.where(), limit, got[j], want)
			}
		}
	}
}

// The reference must agree with the program on every pooled predicate,
// in each of the three forms the dashboard sends it.
func TestReferenceAgreesWithDB(t *testing.T) {
	e := newEnv(2011, 1, false, true, t.TempDir())
	e.data = &sky{}
	e.data.generate(rngFor(e.seed, "rows"), e.rows)
	e.data.index()
	st, err := bootLoaded(e.stackConfig(0), e.data, e.rows)
	if err != nil {
		t.Fatal(err)
	}
	defer st.close()
	for _, req := range dashRequests(e.seed, e.data, 0, 600) {
		recs := openLoop(st.httpAddr, []*request{req}, []int64{0}, 1, time.Now(), false)
		if recs[0].failed {
			t.Fatalf("%q: %s", req.sql, recs[0].errText)
		}
		if !exactMatches(e.data, &recs[0], []int{e.rows}) {
			t.Fatalf("%s %q: the program answered n=%v m=%v groups=%v, the reference disagrees",
				req.class, req.sql, recs[0].ans.n, recs[0].ans.m, recs[0].ans.groups)
		}
	}
}

// benchmarkJSON is the contract file at the root of the repository.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct{ Name, Why string }
	EndToEnd   []struct {
		Name, Unit, Better string
		Bound              float64
	} `json:"end_to_end"`
	PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
}

func readBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc benchmarkJSON
	dec := json.NewDecoder(bytes.NewReader(b))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&doc); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	return doc
}

// BENCHMARK.json must list exactly what the harness reports.
func TestBenchmarkJSONMatchesTheHarness(t *testing.T) {
	doc := readBenchmarkJSON(t)
	if len(doc.Workloads) != len(workloads) {
		t.Fatalf("%d workloads listed, the harness has %d", len(doc.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if doc.Workloads[i].Name != w.name || doc.Workloads[i].Why != w.why {
			t.Errorf("workload %d is %+v, the harness has %q: %q", i, doc.Workloads[i], w.name, w.why)
		}
		if len(w.why) > 200 {
			t.Errorf("workload %s: why is %d characters, the limit is 200", w.name, len(w.why))
		}
	}
	var gated []metricSpec
	for _, spec := range endToEnd {
		if spec.gated() {
			gated = append(gated, spec)
		}
	}
	if len(doc.EndToEnd) != len(gated) {
		t.Fatalf("%d end-to-end metrics listed, the harness gates %d", len(doc.EndToEnd), len(gated))
	}
	for i, spec := range gated {
		if got := doc.EndToEnd[i]; got.Name != spec.name || got.Unit != spec.unit || got.Better != spec.better || got.Bound != spec.bound {
			t.Errorf("end-to-end metric %d is %+v, the harness has %+v", i, got, spec)
		}
	}
	if len(doc.PerLayer) != len(perLayer) {
		t.Fatalf("%d per-layer metrics listed, the harness reports %d", len(doc.PerLayer), len(perLayer))
	}
	for i, spec := range perLayer {
		if got := doc.PerLayer[i]; got.Name != spec.name || got.Unit != spec.unit || got.Better != spec.better {
			t.Errorf("per-layer metric %d is %+v, the harness has %+v", i, got, spec)
		}
	}
}

// A smoke run of every workload, untraced and traced: it completes, every
// answer agrees with the reference, and its result line carries every
// metric BENCHMARK.json lists.
func TestSmokeRun(t *testing.T) {
	doc := readBenchmarkJSON(t)
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/traced=%t", w.name, traced), func(t *testing.T) {
				res, err := runWorkload(w, newEnv(2011, 0.9, traced, true, t.TempDir()))
				if err != nil {
					t.Fatal(err)
				}
				if res.Failed != 0 || res.Attempted == 0 {
					t.Fatalf("attempted %d, failed %d: %v", res.Attempted, res.Failed, res.Failures)
				}
				var line struct {
					Correct   bool
					Attempted int
					Failed    int
					Metrics   map[string]struct {
						Value *float64
						Unit  string
					}
				}
				if err := json.Unmarshal([]byte(res.driverLine()), &line); err != nil {
					t.Fatal(err)
				}
				want := map[string]string{}
				for _, m := range doc.EndToEnd {
					if !traced {
						want[m.Name] = m.Unit
					}
				}
				for _, m := range doc.PerLayer {
					if traced {
						want[m.Name] = m.Unit
					}
				}
				if len(line.Metrics) != len(want) {
					t.Errorf("the result line has %d metrics, BENCHMARK.json lists %d", len(line.Metrics), len(want))
				}
				for name, unit := range want {
					got, ok := line.Metrics[name]
					if !ok || got.Value == nil || got.Unit != unit {
						t.Errorf("metric %s: got %+v, want a value in %s", name, got, unit)
					} else if !traced && *got.Value == 0 {
						t.Errorf("end-to-end metric %s is 0", name)
					}
				}
				for _, spec := range endToEnd {
					if _, ok := res.Metrics[spec.name]; !traced && ok != spec.appliesTo(w.name) {
						t.Errorf("metric %s reported: %t, applies: %t", spec.name, ok, spec.appliesTo(w.name))
					}
				}
				if traced {
					spans, err := os.ReadFile(res.SpanFile)
					if err != nil || bytes.Count(spans, []byte("\n")) < res.Attempted {
						t.Errorf("span file: %v, %d lines for %d requests", err, bytes.Count(spans, []byte("\n")), res.Attempted)
					}
				}
			})
		}
	}
}

func TestCompareVerdicts(t *testing.T) {
	lower := metricSpec{name: "p50_ms", better: "lower", bound: 0.10}
	higher := metricSpec{name: "qps", better: "higher", bound: 0.10}
	failShare := metricSpec{name: "fail_share", better: "lower", bound: 0.001}
	for _, c := range []struct {
		spec metricSpec
		a, b value
		want string
	}{
		{lower, value{Value: 10}, value{Value: 10.9}, verdictOK},
		{lower, value{Value: 10}, value{Value: 11.1}, verdictWorse},
		{lower, value{Value: 10}, value{Value: 5}, verdictOK},
		{higher, value{Value: 100}, value{Value: 89}, verdictWorse},
		{higher, value{Value: 100}, value{Value: 150}, verdictOK},
		{lower, value{Value: 10, Spread: 0.2}, value{Value: 10.5}, verdictUnresolved},
		{lower, value{Value: 10}, value{Value: 12, Spread: 0.5}, verdictWorse},
		{failShare, value{Value: 0}, value{Value: 0.0005}, verdictOK},
		{failShare, value{Value: 0}, value{Value: 0.002}, verdictWorse},
	} {
		if _, got := judge(c.spec, c.a, c.b); got != c.want {
			t.Errorf("%s: %v → %v judged %s, want %s", c.spec.name, c.a, c.b, got, c.want)
		}
	}

	mk := func(p50 float64) *fullResult {
		f := &fullResult{}
		for _, w := range workloads {
			r := &runResult{Workload: w.name, Metrics: map[string]value{}}
			for _, spec := range endToEnd {
				if spec.appliesTo(w.name) {
					r.Metrics[spec.name] = value{Value: 1}
				}
			}
			r.Metrics["p50_ms"] = value{Value: p50}
			f.Runs = append(f.Runs, r)
		}
		return f
	}
	var out bytes.Buffer
	if compareResults(&out, mk(1), mk(1.05)) {
		t.Errorf("a 5 %% change within a 10 %% bound was reported worse:\n%s", out.String())
	}
	out.Reset()
	if !compareResults(&out, mk(1), mk(1.5)) {
		t.Errorf("a 50 %% slowdown was not reported worse:\n%s", out.String())
	}
	if rows := strings.Count(out.String(), "\n"); rows != 1+4*10+4 {
		t.Errorf("%d lines printed, want a header and one row per workload × metric (45)", rows)
	}
}
