package main

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"syscall"
)

// layerSpec names one per-layer metric. A traced run reports all of
// them on every workload; a layer the workload does not reach reads 0.
type layerSpec struct{ name, unit, better string }

var perLayer = []layerSpec{
	// Harness: the client's own view beyond the gated metrics.
	{"client.p95_ms", "ms", "lower"},
	{"client.p99_ms", "ms", "lower"},
	{"client.max_ms", "ms", "lower"},
	{"client.samples", "count", "higher"},
	{"client.gen_lag_p50_ms", "ms", "lower"},
	{"client.gen_lag_p99_ms", "ms", "lower"},
	{"client.backlog_share", "ratio", "lower"},
	{"client.time.p50_ms", "ms", "lower"},
	{"client.err.p50_ms", "ms", "lower"},
	{"client.hit.p50_ms", "ms", "lower"},
	{"client.refine.p50_ms", "ms", "lower"},
	{"client.group.p50_ms", "ms", "lower"},
	{"client.agg.p50_ms", "ms", "lower"},
	{"client.stream.p50_ms", "ms", "lower"},
	{"client.cold-time.p50_ms", "ms", "lower"},
	{"client.cold-exact.p50_ms", "ms", "lower"},
	{"client.cold-hot.p50_ms", "ms", "lower"},
	// End-to-end metrics that exist on one workload only.
	{"rel_error_p50", "ratio", "lower"},
	{"rows_per_s", "rows/s", "higher"},
	{"recover_s", "s", "lower"},
	{"disk_bytes_per_row", "B/row", "lower"},
	// wire
	{"wire.overhead_us", "us", "lower"},
	{"wire.bytes_per_row", "B/row", "lower"},
	{"wire.batches_per_query", "count", "lower"},
	{"wire.encode_ns_per_row", "ns/row", "lower"},
	{"wire.decode_ns_per_row", "ns/row", "lower"},
	// server
	{"server.http_overhead_us", "us", "lower"},
	{"server.queue_p50_us", "us", "lower"},
	{"server.queue_p95_us", "us", "lower"},
	{"server.rejected", "count", "lower"},
	{"server.render_us", "us", "lower"},
	// sqlparse, plancache
	{"sqlparse.parse_us", "us", "lower"},
	{"plancache.alias_hit_rate", "ratio", "higher"},
	{"plancache.shape_hit_rate", "ratio", "higher"},
	{"plancache.miss_rate", "ratio", "lower"},
	{"plancache.invalidations", "count", "lower"},
	{"plancache.lookup_us", "us", "lower"},
	// recycler
	{"recycler.hit_rate", "ratio", "higher"},
	{"recycler.subsumed_rate", "ratio", "higher"},
	{"recycler.miss_rate", "ratio", "lower"},
	{"recycler.evictions", "count", "lower"},
	{"recycler.bytes", "B", "lower"},
	{"recycler.hit_exec_us", "us", "lower"},
	{"recycler.refine_exec_us", "us", "lower"},
	// bounded, estimate
	{"bounded.bound_met_rate", "ratio", "higher"},
	{"bounded.promise_ratio_p50", "ratio", "lower"},
	{"bounded.rungs_per_query", "count", "lower"},
	{"bounded.base_fallback_rate", "ratio", "lower"},
	{"bounded.pick_rows_p50", "rows", "higher"},
	{"bounded.ns_per_sample_row", "ns/row", "lower"},
	{"estimate.aggregate_us", "us", "lower"},
	// engine
	{"engine.exec_us.agg", "us", "lower"},
	{"engine.exec_us.group", "us", "lower"},
	{"engine.exec_us.stream", "us", "lower"},
	{"engine.scan_ns_per_row", "ns/row", "lower"},
	{"engine.group_ns_per_row", "ns/row", "lower"},
	{"engine.project_ns_per_row", "ns/row", "lower"},
	// impression, loader
	{"loader.load_ns_per_row", "ns/row", "lower"},
	{"impression.view_us", "us", "lower"},
	{"impression.version_bumps", "count", "lower"},
	// segment
	{"segment.fault_rate", "ratio", "lower"},
	{"segment.evictions", "count", "lower"},
	{"segment.seals", "count", "lower"},
	{"segment.load_ack_p50_ms", "ms", "lower"},
	{"segment.load_ack_max_ms", "ms", "lower"},
	{"segment.cold_exec_us", "us", "lower"},
	{"segment.wal_bytes_per_row", "B/row", "lower"},
	{"segment.wal_ns_per_row", "ns/row", "lower"},
	// governor
	{"governor.sheds", "count", "lower"},
	{"governor.level_max", "level", "lower"},
	// process (client and server share it)
	{"proc.cpu_ms_per_query", "ms", "lower"},
	{"proc.alloc_kb_per_query", "KiB", "lower"},
	{"proc.gc_pause_ms", "ms", "lower"},
	{"proc.steal_pct", "%", "lower"},
}

// procSnap is the process's resource use at one instant.
type procSnap struct {
	cpuNs   int64
	alloc   uint64
	pauseNs uint64
	// Machine-wide jiffies from /proc/stat: all states, and the time a
	// hypervisor ran something else while this machine wanted the CPU.
	jiffies, steal int64
}

func procNow() procSnap {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	p := procSnap{
		cpuNs: ru.Utime.Nano() + ru.Stime.Nano(),
		alloc: ms.TotalAlloc, pauseNs: ms.PauseTotalNs,
	}
	if b, err := os.ReadFile("/proc/stat"); err == nil {
		line, _, _ := strings.Cut(string(b), "\n")
		for i, f := range strings.Fields(line) {
			if v, err := strconv.ParseInt(f, 10, 64); err == nil {
				p.jiffies += v
				if i == 8 { // "cpu" user nice system idle iowait irq softirq steal
					p.steal = v
				}
			}
		}
	}
	return p
}

// span is one traced interval. Spans of one request share req; parent
// is the id of the span that caused this one (0 for a root).
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Req    int    `json:"req"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// budgetRow is one line of the per-stage budget: a stage of the primary
// class's median request, in microseconds and as a share of the median
// client latency.
type budgetRow struct {
	Layer string  `json:"layer"`
	Us    float64 `json:"us"`
	Share float64 `json:"share"`
}

type traceOut struct {
	metrics map[string]value
	budget  []budgetRow
	spans   []span
}

func (t *traceOut) writeSpans(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range t.spans {
		if err := enc.Encode(&t.spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// requestSpans lays out one request's spans. The client knows when the
// request started and ended and how long the server says it queued and
// executed, not when on its own clock: the server's part is centred in
// the request, so the transport's self time (request − queue − exec)
// falls evenly before and after it. Rungs of a bounded answer follow
// each other from the start of db.exec.
func requestSpans(out []span, req int, r *record) []span {
	id := len(out) + 1
	root := id
	out = append(out, span{ID: root, Req: req, Name: "client.request", Start: r.due, End: r.end})
	if r.tr == nil {
		return out
	}
	self := max((r.end-r.start)-r.tr.queueNs-r.tr.execNs, 0)
	at := r.start + self/2
	out = append(out, span{ID: id + 1, Parent: root, Req: req, Name: "transport", Start: r.start, End: r.end})
	out = append(out, span{ID: id + 2, Parent: id + 1, Req: req, Name: "server.queue", Start: at, End: at + r.tr.queueNs})
	at += r.tr.queueNs
	exec := id + 3
	out = append(out, span{ID: exec, Parent: id + 1, Req: req, Name: "db.exec", Start: at, End: at + r.tr.execNs})
	for _, g := range r.tr.trail {
		out = append(out, span{ID: len(out) + 1, Parent: exec, Req: req, Name: "bounded.rung " + g.layer, Start: at, End: at + g.elapsedNs})
		at += g.elapsedNs
	}
	return out
}

// layers computes the per-layer metrics of a traced cycle from three
// outside views: what each response carried, what /stats counted across
// the window, and the probe pass.
func (w *workload) layers(e *env, cr *cycleResult, cs *cycleScore) *traceOut {
	t := &traceOut{metrics: map[string]value{}}
	m := map[string]float64{}

	// Per request.
	var (
		lat        [numClasses][]float64
		exec       [numClasses][]float64
		primaryLat []float64
		overhead   []float64 // client − queue − exec, µs
		queue      []float64
		primQueue  []float64
		primExec   []float64
		// Open loop: the wait from the due time until a connection was
		// free; zero in a closed loop.
		primBacklog  []float64
		primOverhead []float64
		ratio        []float64 // exec / promised
		pick         []float64
		perRow       []float64
		late         int
		met          int
		rungs        int
		bounded      int
		base         int
	)
	for i := range cr.recs {
		r := &cr.recs[i]
		t.spans = requestSpans(t.spans, i+1, r)
		if !r.idle {
			late++
		}
		if r.failed || r.tr == nil {
			continue
		}
		c := r.req.class
		lat[c] = append(lat[c], r.latencyMs())
		queueUs, execUs := float64(r.tr.queueNs)/1e3, float64(r.tr.execNs)/1e3
		overheadUs := float64(r.end-r.start)/1e3 - queueUs - execUs
		exec[c] = append(exec[c], execUs)
		queue, overhead = append(queue, queueUs), append(overhead, overheadUs)
		if w.allPrimary || c == w.primary {
			primaryLat = append(primaryLat, r.latencyMs())
			primBacklog = append(primBacklog, float64(r.start-r.due)/1e3)
			primOverhead = append(primOverhead, overheadUs)
			primQueue, primExec = append(primQueue, queueUs), append(primExec, execUs)
		}
		if !c.bounded() {
			continue
		}
		bounded++
		rungs += len(r.tr.trail)
		if r.ans.base {
			base++
		}
		if r.tr.boundMet {
			met++
		}
		if r.tr.promisedNs > 0 {
			ratio = append(ratio, float64(r.tr.execNs)/float64(r.tr.promisedNs))
			pick = append(pick, float64(r.tr.trail[0].rows))
		}
		for _, g := range r.tr.trail {
			if g.rows > 0 && !(r.ans.base && g.satisfied) {
				perRow = append(perRow, float64(g.elapsedNs)/float64(g.rows))
			}
		}
	}
	m["client.p95_ms"] = percentile(primaryLat, 95)
	m["client.p99_ms"] = percentile(primaryLat, 99)
	m["client.max_ms"] = percentile(primaryLat, 100)
	m["client.samples"] = float64(len(primaryLat))
	m["client.gen_lag_p50_ms"] = genLag(cr.recs, 50)
	m["client.gen_lag_p99_ms"] = genLag(cr.recs, 99)
	m["client.backlog_share"] = share(float64(late), float64(len(cr.recs)))
	for c := class(0); c < numClasses; c++ {
		m["client."+c.String()+".p50_ms"] = percentile(lat[c], 50)
	}
	for _, name := range []string{"rel_error_p50", "rows_per_s", "recover_s", "disk_bytes_per_row"} {
		m[name] = cs.m[name]
	}
	transport := "wire.overhead_us"
	if w.name == "dashboard-hot" {
		transport = "server.http_overhead_us"
	}
	m[transport] = percentile(overhead, 50)
	m["server.queue_p50_us"] = percentile(queue, 50)
	m["server.queue_p95_us"] = percentile(queue, 95)
	m["recycler.hit_exec_us"] = percentile(exec[clHit], 50)
	m["recycler.refine_exec_us"] = percentile(exec[clRefine], 50)
	m["engine.exec_us.agg"] = percentile(exec[clAgg], 50)
	m["engine.exec_us.stream"] = percentile(exec[clStream], 50)
	if w.name == "scan-stream" {
		m["engine.exec_us.group"] = percentile(exec[clGroup], 50)
	}
	m["segment.cold_exec_us"] = percentile(exec[clColdExact], 50)
	m["bounded.bound_met_rate"] = share(float64(met), float64(bounded))
	m["bounded.promise_ratio_p50"] = percentile(ratio, 50)
	m["bounded.rungs_per_query"] = share(float64(rungs), float64(bounded))
	m["bounded.base_fallback_rate"] = share(float64(base), float64(bounded))
	m["bounded.pick_rows_p50"] = percentile(pick, 50)
	m["bounded.ns_per_sample_row"] = percentile(perRow, 50)

	// Across the window, from /stats.
	a, b := cr.after, cr.before
	m["server.rejected"] = float64(a.Admission.Rejected - b.Admission.Rejected)
	if rows := a.Wire.RowsOut - b.Wire.RowsOut; rows > 0 {
		m["wire.bytes_per_row"] = float64(a.Wire.BytesOut-b.Wire.BytesOut) / float64(rows)
	}
	m["wire.batches_per_query"] = share(float64(a.Wire.Batches-b.Wire.Batches),
		float64(a.Wire.Queries+a.Wire.Executes-b.Wire.Queries-b.Wire.Executes))
	pa, pb := a.PlanCache["total"], b.PlanCache["total"]
	lookups := float64(pa.Hits + pa.CanonHits + pa.ShapeHits + pa.Misses - pb.Hits - pb.CanonHits - pb.ShapeHits - pb.Misses)
	m["plancache.alias_hit_rate"] = share(float64(pa.Hits+pa.CanonHits-pb.Hits-pb.CanonHits), lookups)
	m["plancache.shape_hit_rate"] = share(float64(pa.ShapeHits-pb.ShapeHits), lookups)
	m["plancache.miss_rate"] = share(float64(pa.Misses-pb.Misses), lookups)
	m["plancache.invalidations"] = float64(pa.Invalidations - pb.Invalidations)
	hits, subsumed, misses := cr.recyclerLookups()
	for tenant, ra := range a.Recycler {
		m["recycler.evictions"] += float64(ra.Evictions - b.Recycler[tenant].Evictions)
		m["recycler.bytes"] += float64(ra.Bytes)
	}
	m["recycler.hit_rate"] = share(hits, hits+subsumed+misses)
	m["recycler.subsumed_rate"] = share(subsumed, hits+subsumed+misses)
	m["recycler.miss_rate"] = share(misses, hits+subsumed+misses)
	if a.Storage != nil && b.Storage != nil {
		m["segment.fault_rate"] = share(float64(a.Storage.Cache.Faults-b.Storage.Cache.Faults),
			float64(a.Storage.Cache.Touches-b.Storage.Cache.Touches))
		m["segment.evictions"] = float64(a.Storage.Cache.Evictions - b.Storage.Cache.Evictions)
		m["segment.seals"] = float64(a.Storage.Tables[factTable].Seals - b.Storage.Tables[factTable].Seals)
	}
	if a.Governor != nil && b.Governor != nil {
		m["governor.sheds"] = float64(a.Governor.Sheds - b.Governor.Sheds)
		m["governor.level_max"] = max(governorLevel(a.Governor.Level), governorLevel(b.Governor.Level))
	}
	m["impression.version_bumps"] = float64(a.views - b.views)

	// The ingest loader's own calls.
	var acks []float64
	var loadNs int64
	for _, ev := range cr.loads {
		acks = append(acks, float64(ev.end-ev.start)/1e6)
		loadNs += ev.end - ev.start
	}
	m["segment.load_ack_p50_ms"] = percentile(acks, 50)
	m["segment.load_ack_max_ms"] = percentile(acks, 100)
	if w.extraBatches > 0 {
		m["loader.load_ns_per_row"] = share(float64(loadNs), float64(len(cr.loads)*batchRows))
	} else {
		m["loader.load_ns_per_row"] = share(1e9, cr.setupLoadRate)
	}

	// The process, across the window.
	answered := float64(len(cr.recs))
	m["proc.cpu_ms_per_query"] = share(float64(a.proc.cpuNs-b.proc.cpuNs)/1e6, answered)
	m["proc.alloc_kb_per_query"] = share(float64(a.proc.alloc-b.proc.alloc)/1024, answered)
	m["proc.gc_pause_ms"] = float64(a.proc.pauseNs-b.proc.pauseNs) / 1e6
	m["proc.steal_pct"] = 100 * share(float64(a.proc.steal-b.proc.steal), float64(a.proc.jiffies-b.proc.jiffies))

	for name, v := range cr.probes {
		m[name] = v
	}
	for _, sp := range cr.probeSpans {
		sp.ID = len(t.spans) + 1
		t.spans = append(t.spans, sp)
	}

	for _, spec := range perLayer {
		t.metrics[spec.name] = value{Value: m[spec.name], Unit: spec.unit}
	}

	// The budget of the primary class: the median of each stage beside
	// the median client latency. Medians of parts need not add up to the
	// median of the whole; the last row says how far they are off.
	client := percentile(primaryLat, 50) * 1e3
	rows := []budgetRow{
		{Layer: "client.backlog", Us: percentile(primBacklog, 50)},
		{Layer: "transport", Us: percentile(primOverhead, 50)},
		{Layer: "server.queue", Us: percentile(primQueue, 50)},
		{Layer: "db.exec", Us: percentile(primExec, 50)},
	}
	rest := client
	for _, row := range rows {
		rest -= row.Us
	}
	rows = append(rows, budgetRow{Layer: "(unattributed)", Us: rest}, budgetRow{Layer: "client p50", Us: client})
	for i := range rows {
		rows[i].Share = share(rows[i].Us, client)
	}
	t.budget = rows
	return t
}

func governorLevel(s string) float64 {
	switch s {
	case "elevated":
		return 1
	case "critical":
		return 2
	}
	return 0
}
