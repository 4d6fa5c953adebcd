// Package faultinject is a zero-cost-when-disabled fault registry: the
// serving stack declares named fault points (the morsel scan loop, the
// recycler lookup, admission, Load, the query handler, the WAL),
// and a test arms a deterministic, seeded schedule of injections —
// errors, panics, and latency — against them. The chaos suite drives a
// booted server through such a schedule and asserts the resilience
// invariants: the process survives, every admission slot is released,
// and results are bit-identical to a fault-free run once faults stop.
//
// Cost discipline: with no plan armed, Fire is one atomic pointer load
// and a predictable branch — nothing else touches the hot path, so
// production binaries pay nothing for carrying the points. Armed plans
// are immutable after construction; per-point hit counters are atomics,
// so firing is race-free without a lock.
//
// Determinism discipline: a Schedule is derived from a seed alone. Each
// fault binds to the Nth hit of its point, so two runs that reach each
// point the same number of times inject exactly the same faults — the
// property that lets the chaos CI job replay a failure from its seed.
package faultinject

import (
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"sync/atomic"
	"time"
)

// Known fault points. Constants live here (not in the packages that
// fire them) so the full injection surface is one readable list; firing
// an unscheduled point is free, so consumers never need registration.
const (
	// PointMorsel fires once per morsel a scan evaluates (engine
	// worker pool and sequential path alike).
	PointMorsel = "engine.morsel"
	// PointRecycler fires at the top of every recycler selection
	// lookup; an injected error degrades that query to the uncached
	// scan path (the cache is an optimisation, never a dependency).
	PointRecycler = "recycler.lookup"
	// PointAdmission fires at the top of every admission Acquire.
	PointAdmission = "server.admission"
	// PointQuery fires in server.Serve — the one pipeline both transports
	// run — with an admission slot held and its release deferred: the
	// point that proves a handler panic cannot leak a slot.
	PointQuery = "server.query"
	// PointLoad fires at the top of every DB.Load batch.
	PointLoad = "db.load"
	// PointWAL fires inside the segment store's WAL append, after the
	// record is serialised but before it is written and synced. An
	// injected error makes the store write a torn prefix of the record
	// and fail the batch — simulating a crash mid-write, the scenario
	// recovery's torn-tail tolerance exists for.
	PointWAL = "storage.wal"
	// PointWALTruncate fires inside the segment store's WAL truncate,
	// before the file is cut. An injected error leaves the log intact
	// and poisons it against further appends — simulating a truncate
	// failure in the seal or un-ack path, which the manifest's
	// sealed-sequence watermark must make survivable.
	PointWALTruncate = "storage.wal.truncate"
)

// Kind is the shape of one injected fault.
type Kind uint8

const (
	// KindError makes Fire return ErrInjected (wrapped with point and
	// hit) — the injection every call site must propagate or absorb.
	KindError Kind = iota
	// KindPanic makes Fire panic with *InjectedPanic — the injection
	// that proves the recover guards hold.
	KindPanic
	// KindLatency makes Fire sleep for the fault's Latency, then
	// return nil — the injection that exercises queueing, deadlines
	// and drains.
	KindLatency
)

// String names the kind for schedules and test output.
func (k Kind) String() string {
	switch k {
	case KindError:
		return "error"
	case KindPanic:
		return "panic"
	case KindLatency:
		return "latency"
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

// ErrInjected is the sentinel every KindError injection wraps;
// errors.Is(err, ErrInjected) identifies injected failures in tests.
var ErrInjected = errors.New("faultinject: injected error")

// InjectedPanic is the value a KindPanic injection panics with, so
// recover guards (and tests) can tell an injected panic from a real one.
type InjectedPanic struct {
	Point string
	Hit   int64
}

func (p *InjectedPanic) String() string {
	return fmt.Sprintf("faultinject: injected panic at %s hit %d", p.Point, p.Hit)
}

// Fault schedules one injection: on the Hit-th time Point fires (1-based
// per-point hit count), inject Kind. Latency applies to KindLatency.
type Fault struct {
	Point   string
	Hit     int64
	Kind    Kind
	Latency time.Duration
}

// pointState is the armed per-point schedule: an immutable hit→fault
// map and a live hit counter.
type pointState struct {
	hits   atomic.Int64
	faults map[int64]Fault
}

// Plan is an armed set of faults plus fired counters. Build one with
// NewPlan or Schedule, arm it with Enable, and read the counters after
// the run. A Plan must not be mutated after Enable.
type Plan struct {
	points map[string]*pointState

	firedErrors    atomic.Int64
	firedPanics    atomic.Int64
	firedLatencies atomic.Int64
	total          int
}

// NewPlan builds a plan from explicit faults. Duplicate (point, hit)
// pairs keep the last fault.
func NewPlan(faults ...Fault) *Plan {
	p := &Plan{points: make(map[string]*pointState)}
	for _, f := range faults {
		ps := p.points[f.Point]
		if ps == nil {
			ps = &pointState{faults: make(map[int64]Fault)}
			p.points[f.Point] = ps
		}
		if _, dup := ps.faults[f.Hit]; !dup {
			p.total++
		}
		ps.faults[f.Hit] = f
	}
	return p
}

// Total returns the number of scheduled faults.
func (p *Plan) Total() int { return p.total }

// Fired reports how many injections of each kind have fired so far.
func (p *Plan) Fired() (errs, panics, latencies int64) {
	return p.firedErrors.Load(), p.firedPanics.Load(), p.firedLatencies.Load()
}

// FiredTotal is the sum of all fired injections.
func (p *Plan) FiredTotal() int64 {
	e, pa, l := p.Fired()
	return e + pa + l
}

// Hits reports how many times a point has fired (scheduled or not).
func (p *Plan) Hits(point string) int64 {
	ps := p.points[point]
	if ps == nil {
		return 0
	}
	return ps.hits.Load()
}

// fire advances the point's hit counter and injects the scheduled
// fault, if any.
func (p *Plan) fire(point string) error {
	ps := p.points[point]
	if ps == nil {
		return nil
	}
	hit := ps.hits.Add(1)
	f, ok := ps.faults[hit]
	if !ok {
		return nil
	}
	switch f.Kind {
	case KindPanic:
		p.firedPanics.Add(1)
		panic(&InjectedPanic{Point: point, Hit: hit})
	case KindLatency:
		p.firedLatencies.Add(1)
		time.Sleep(f.Latency)
		return nil
	default:
		p.firedErrors.Add(1)
		return fmt.Errorf("%w at %s hit %d", ErrInjected, point, hit)
	}
}

// armed is the globally active plan; nil means disabled, which is the
// only state production code ever observes.
var armed atomic.Pointer[Plan]

// Enable arms a plan: subsequent Fire calls consult its schedule. The
// plan must not be mutated while armed. Enable(nil) is Disable.
func Enable(p *Plan) { armed.Store(p) }

// Disable disarms injection; Fire returns to its zero-cost path.
func Disable() { armed.Store(nil) }

// Enabled reports whether a plan is armed.
func Enabled() bool { return armed.Load() != nil }

// Fire is the per-point hook: call it at the fault point and propagate
// the returned error as that operation's failure. Disabled (the
// production state) it is one atomic load and a branch. Armed, it
// advances the point's hit count and injects the scheduled fault:
// returning a wrapped ErrInjected, panicking with *InjectedPanic, or
// sleeping the scheduled latency.
func Fire(point string) error {
	p := armed.Load()
	if p == nil {
		return nil
	}
	return p.fire(point)
}

// PointSpec describes one point's share of a seeded schedule.
type PointSpec struct {
	// Point names the fault point.
	Point string
	// Faults is how many injections to schedule at this point.
	Faults int
	// MaxHit bounds the hit indices faults bind to: indices are drawn
	// without replacement from [1, MaxHit]. MaxHit < Faults is raised
	// to Faults.
	MaxHit int64
	// Kinds are the permitted kinds (defaults to {KindError} when
	// empty). Points reached on goroutines without a recover guard —
	// e.g. a test's own load loop — must exclude KindPanic.
	Kinds []Kind
	// MaxLatency bounds KindLatency sleeps (default 5ms); actual
	// latencies are drawn from [MaxLatency/4, MaxLatency].
	MaxLatency time.Duration
}

// Schedule derives a deterministic fault plan from a seed: for each
// spec, Faults distinct hit indices in [1, MaxHit] each get a kind and
// (for latency) a duration drawn from the seeded stream. The same seed
// and specs always produce the identical plan, so a chaos failure
// replays from its seed alone.
func Schedule(seed uint64, specs []PointSpec) *Plan {
	rng := rand.New(rand.NewSource(int64(seed)))
	var faults []Fault
	for _, spec := range specs {
		kinds := spec.Kinds
		if len(kinds) == 0 {
			kinds = []Kind{KindError}
		}
		maxLat := spec.MaxLatency
		if maxLat <= 0 {
			maxLat = 5 * time.Millisecond
		}
		maxHit := spec.MaxHit
		if maxHit < int64(spec.Faults) {
			maxHit = int64(spec.Faults)
		}
		seen := make(map[int64]struct{}, spec.Faults)
		for len(seen) < spec.Faults {
			hit := 1 + rng.Int63n(maxHit)
			if _, dup := seen[hit]; dup {
				continue
			}
			seen[hit] = struct{}{}
		}
		hits := make([]int64, 0, len(seen))
		for h := range seen {
			hits = append(hits, h)
		}
		// Map iteration order is random; kinds must bind to hits
		// deterministically from the seed alone.
		sort.Slice(hits, func(i, j int) bool { return hits[i] < hits[j] })
		for _, hit := range hits {
			f := Fault{Point: spec.Point, Hit: hit, Kind: kinds[rng.Intn(len(kinds))]}
			if f.Kind == KindLatency {
				lo := maxLat / 4
				f.Latency = lo + time.Duration(rng.Int63n(int64(maxLat-lo)+1))
			}
			faults = append(faults, f)
		}
	}
	return NewPlan(faults...)
}
