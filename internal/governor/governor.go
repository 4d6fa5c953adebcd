// Package governor is the single memory authority for the serving
// stack. The durable store's granule cache and the recycler each keep
// their own byte budget — correct in isolation, but independent silos
// cannot answer "the process is near its memory ceiling, who gives
// ground first?". The governor can: cache tiers
// register with it in shed-priority order, and when the sum of their
// usage crosses the global budget it sheds tiers in that order until
// the budget holds again.
//
// The shed order encodes replacement cost, cheapest first: hot granules
// (a refault each), then recycler selections (a scan each — the most
// expensive state to rebuild, shed last). This is the coordinated
// counterpart of each cache's private LRU.
//
// Pressure also degrades quality before availability. The bounded
// executor consults DegradeFactor at WITHIN TIME layer-pick time: under
// Elevated or Critical pressure the per-row cost inflates (×2, ×4), so
// time-bounded queries choose smaller impression layers — the paper's
// own quality knob — and the serving layer answers smaller instead of
// answering 503. Only at Critical, after shedding has already run, may
// the server start refusing work.
//
// Levels are recomputed by CheckNow — call it where memory actually
// moves (loads, periodically from the serving loop) — and cached in an
// atomic, so per-query gates (Level, DegradeFactor) never take a lock.
// InjectPressure forces a level for chaos and acceptance tests; the
// forced level also sheds, exactly as the real signal would.
package governor

import (
	"sync"
	"sync/atomic"
)

// Level is the governor's pressure reading.
type Level int32

const (
	// Nominal: usage comfortably inside the budget; no intervention.
	Nominal Level = iota
	// Elevated: usage crossed the high-water fraction; tiers have been
	// shed and bounded queries degrade to smaller layers (×2).
	Elevated
	// Critical: usage exceeds the budget even after shedding every
	// registered tier (or a forced signal says so). Bounded queries
	// degrade hard (×4) and the server may refuse work.
	Critical
)

// String names the level for stats and logs.
func (l Level) String() string {
	switch l {
	case Nominal:
		return "nominal"
	case Elevated:
		return "elevated"
	case Critical:
		return "critical"
	}
	return "unknown"
}

// highWaterNum/Den and lowWaterNum/Den bound the shed hysteresis:
// shedding starts when usage exceeds budget×high and stops once usage
// is back under budget×low, so the governor does not oscillate on the
// boundary.
const (
	highWaterNum, highWaterDen = 9, 10 // 0.9 × budget
	lowWaterNum, lowWaterDen   = 7, 10 // 0.7 × budget
)

// tier is one registered cache tier, in shed-priority order.
type tier struct {
	name  string
	usage func() int64
	shed  func(bytes int64) int64
}

// ShedEvent records one tier shed: which tier gave ground and how many
// bytes it freed. The ordered log is how tests assert the priority
// order (granules → recycler).
type ShedEvent struct {
	Tier  string `json:"tier"`
	Freed int64  `json:"freed_bytes"`
}

// Stats is a point-in-time governor snapshot for /stats.
type Stats struct {
	Budget     int64  `json:"budget_bytes"`
	Usage      int64  `json:"usage_bytes"`
	Level      string `json:"level"`
	Forced     bool   `json:"forced"`
	Sheds      int64  `json:"sheds"`
	ShedBytes  int64  `json:"shed_bytes"`
	Checks     int64  `json:"checks"`
	TierUsages map[string]int64
}

// Governor coordinates the registered tiers against one byte budget.
type Governor struct {
	budget int64

	mu      sync.Mutex
	tiers   []tier
	shedLog []ShedEvent

	level  atomic.Int32 // cached Level for lock-free per-query gates
	forced atomic.Int32 // forced Level + 1; 0 = none

	checks    atomic.Int64
	sheds     atomic.Int64
	shedBytes atomic.Int64
}

// New builds a governor over budgetBytes of total cache memory.
// Budgets <= 0 are rejected by the caller (Open gates on the option
// being positive), so New does not validate.
func New(budgetBytes int64) *Governor {
	return &Governor{budget: budgetBytes}
}

// Register adds a cache tier under the governor's authority.
// Registration order IS shed priority: the first-registered tier gives
// ground first. usage reports the tier's resident bytes; shed frees up
// to the requested bytes (least-valuable state first) and returns how
// many it actually freed. Both are called under the governor's lock and
// must not call back into it.
func (g *Governor) Register(name string, usage func() int64, shed func(bytes int64) int64) {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.tiers = append(g.tiers, tier{name: name, usage: usage, shed: shed})
}

// Budget returns the configured byte budget.
func (g *Governor) Budget() int64 { return g.budget }

// Usage sums the registered tiers' resident bytes.
func (g *Governor) Usage() int64 {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.usageLocked()
}

func (g *Governor) usageLocked() int64 {
	var sum int64
	for _, t := range g.tiers {
		sum += t.usage()
	}
	return sum
}

// Level returns the cached pressure level — one atomic load, safe on
// every per-query path. It reflects the last CheckNow.
func (g *Governor) Level() Level { return Level(g.level.Load()) }

// DegradeFactor is the bounded executor's quality knob: the multiplier
// applied to the cost model's per-row rate at WITHIN TIME layer-pick
// time. Nominal 1 (no effect), Elevated 2, Critical 4 — under pressure
// a time promise buys fewer rows, so the pick degrades to a smaller
// impression layer instead of blowing the memory ceiling or the bound.
func (g *Governor) DegradeFactor() float64 {
	switch g.Level() {
	case Elevated:
		return 2
	case Critical:
		return 4
	}
	return 1
}

// InjectPressure forces the pressure level — the chaos suite's and the
// acceptance tests' memory-pressure signal. The forced level sheds
// immediately, exactly as a real usage reading at that level would,
// and pins Level until ReleasePressure.
func (g *Governor) InjectPressure(l Level) {
	g.forced.Store(int32(l) + 1)
	g.CheckNow()
}

// ReleasePressure removes a forced level; the next CheckNow recomputes
// from real usage.
func (g *Governor) ReleasePressure() {
	g.forced.Store(0)
	g.CheckNow()
}

// CheckNow recomputes pressure from tier usage (or the forced level),
// sheds tiers in registration order while over the low-water mark, and
// refreshes the cached Level. Call it where memory actually changes —
// after loads, periodically from the serving loop — and from tests
// after filling caches. Returns the resulting level.
func (g *Governor) CheckNow() Level {
	g.checks.Add(1)
	g.mu.Lock()
	defer g.mu.Unlock()

	usage := g.usageLocked()
	high := g.budget / highWaterDen * highWaterNum
	low := g.budget / lowWaterDen * lowWaterNum

	forced := Level(g.forced.Load() - 1)
	overHigh := usage > high
	if g.forced.Load() != 0 && forced >= Elevated {
		overHigh = true
	}

	if overHigh {
		// Shed in priority order until usage is back under low water —
		// under a forced Critical signal, shed every tier empty (the
		// signal says real memory is gone regardless of what the caches
		// report).
		target := low
		if forced == Critical {
			target = 0
		}
		for i := range g.tiers {
			if usage <= target {
				break
			}
			t := &g.tiers[i]
			freed := t.shed(usage - target)
			if freed > 0 {
				usage -= freed
				g.sheds.Add(1)
				g.shedBytes.Add(freed)
				g.shedLog = append(g.shedLog, ShedEvent{Tier: t.name, Freed: freed})
			}
		}
	}

	level := Nominal
	switch {
	case usage > g.budget:
		level = Critical
	case usage > low:
		level = Elevated
	}
	if g.forced.Load() != 0 {
		level = forced
	}
	g.level.Store(int32(level))
	return level
}

// ShedLog returns a copy of the ordered shed history — the record the
// acceptance test checks for granules → recycler priority.
func (g *Governor) ShedLog() []ShedEvent {
	g.mu.Lock()
	defer g.mu.Unlock()
	out := make([]ShedEvent, len(g.shedLog))
	copy(out, g.shedLog)
	return out
}

// Stats snapshots the governor for /stats.
func (g *Governor) Stats() Stats {
	g.mu.Lock()
	usages := make(map[string]int64, len(g.tiers))
	var sum int64
	for _, t := range g.tiers {
		u := t.usage()
		usages[t.name] = u
		sum += u
	}
	g.mu.Unlock()
	return Stats{
		Budget:     g.budget,
		Usage:      sum,
		Level:      g.Level().String(),
		Forced:     g.forced.Load() != 0,
		Sheds:      g.sheds.Load(),
		ShedBytes:  g.shedBytes.Load(),
		Checks:     g.checks.Load(),
		TierUsages: usages,
	}
}
