package loader

import (
	"slices"
	"sync"
	"testing"
	"time"

	"sciborq/internal/column"
	"sciborq/internal/impression"
	"sciborq/internal/table"
)

func baseTable(t *testing.T) *table.Table {
	t.Helper()
	return table.MustNew("base", table.Schema{{Name: "x", Type: column.Float64}})
}

type recordingSink struct{ got []int32 }

func (r *recordingSink) OfferRange(lo, hi int32) {
	for pos := lo; pos < hi; pos++ {
		r.got = append(r.got, pos)
	}
}

func TestNewValidation(t *testing.T) {
	if _, err := New(nil); err == nil {
		t.Fatal("nil base accepted")
	}
}

func TestAttachValidation(t *testing.T) {
	l, _ := New(baseTable(t))
	if err := l.Attach(nil); err == nil {
		t.Fatal("nil sink accepted")
	}
}

func TestLoadBatchStreamsPositions(t *testing.T) {
	tb := baseTable(t)
	l, _ := New(tb)
	sink := &recordingSink{}
	if err := l.Attach(sink); err != nil {
		t.Fatal(err)
	}
	if err := l.LoadBatch([]table.Row{{1.0}, {2.0}}); err != nil {
		t.Fatal(err)
	}
	if err := l.LoadBatch([]table.Row{{3.0}}); err != nil {
		t.Fatal(err)
	}
	want := []int32{0, 1, 2}
	if len(sink.got) != 3 {
		t.Fatalf("sink saw %v", sink.got)
	}
	for i, p := range want {
		if sink.got[i] != p {
			t.Fatalf("sink saw %v, want %v", sink.got, want)
		}
	}
	if l.Batches() != 2 || l.Rows() != 3 {
		t.Fatalf("batches=%d rows=%d", l.Batches(), l.Rows())
	}
	if l.Base() != tb {
		t.Fatal("Base accessor wrong")
	}
}

func TestLoadBatchAtomicOnError(t *testing.T) {
	tb := baseTable(t)
	l, _ := New(tb)
	sink := &recordingSink{}
	_ = l.Attach(sink)
	if err := l.LoadBatch([]table.Row{{1.0}, {"bad"}}); err == nil {
		t.Fatal("bad batch accepted")
	}
	if len(sink.got) != 0 {
		t.Fatalf("sink saw rows from failed batch: %v", sink.got)
	}
	if tb.Len() != 0 || l.Rows() != 0 {
		t.Fatal("failed batch left state behind")
	}
}

func TestImpressionThroughLoader(t *testing.T) {
	tb := baseTable(t)
	l, _ := New(tb)
	im, err := impression.New(tb, impression.Config{Name: "u", Size: 50, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Attach(im); err != nil {
		t.Fatal(err)
	}
	batch := make([]table.Row, 100)
	for night := 0; night < 10; night++ {
		for i := range batch {
			batch[i] = table.Row{float64(night*100 + i)}
		}
		if err := l.LoadBatch(batch); err != nil {
			t.Fatal(err)
		}
	}
	if im.Len() != 50 || im.Offered() != 1000 {
		t.Fatalf("impression len=%d offered=%d", im.Len(), im.Offered())
	}
}

func TestBackfill(t *testing.T) {
	tb := baseTable(t)
	_ = tb.AppendBatch([]table.Row{{1.0}, {2.0}, {3.0}})
	l, _ := New(tb)
	sink := &recordingSink{}
	l.Backfill(sink)
	if len(sink.got) != 3 || sink.got[2] != 2 {
		t.Fatalf("backfill saw %v", sink.got)
	}
}

// gatedAppender holds a batch inside the loader: it reports that the
// batch has entered, then appends it once released.
type gatedAppender struct {
	base    *table.Table
	entered chan struct{}
	release chan struct{}
}

func (g *gatedAppender) LoadBatch(rows []table.Row) error {
	close(g.entered)
	<-g.release
	return g.base.AppendBatch(rows)
}

// signalSink is a recordingSink that reports its first offer.
type signalSink struct {
	recordingSink
	called chan struct{}
	once   sync.Once
}

func (s *signalSink) OfferRange(lo, hi int32) {
	s.once.Do(func() { close(s.called) })
	s.recordingSink.OfferRange(lo, hi)
}

// TestBackfillDuringLoadLosesNoRow: a Backfill that starts while a
// batch is inside the loader sees every row of that batch, either as an
// existing row or as a loaded one, and every later batch. The batch is
// released once Backfill has offered to the sink or after 50 ms,
// whichever comes first, so a Backfill that reads the table without
// waiting for the loader reads it before the batch lands.
func TestBackfillDuringLoadLosesNoRow(t *testing.T) {
	tb := baseTable(t)
	l, _ := New(tb)
	gate := &gatedAppender{base: tb, entered: make(chan struct{}), release: make(chan struct{})}
	l.SetAppender(gate)
	loaded := make(chan error, 1)
	go func() { loaded <- l.LoadBatch([]table.Row{{1.0}, {2.0}}) }()
	<-gate.entered
	sink := &signalSink{called: make(chan struct{})}
	backfilled := make(chan error, 1)
	go func() { backfilled <- l.Backfill(sink) }()
	select {
	case <-sink.called:
	case <-time.After(50 * time.Millisecond):
	}
	close(gate.release)
	if err := <-loaded; err != nil {
		t.Fatal(err)
	}
	if err := <-backfilled; err != nil {
		t.Fatal(err)
	}
	l.SetAppender(nil)
	if err := l.LoadBatch([]table.Row{{3.0}}); err != nil {
		t.Fatal(err)
	}
	if want := []int32{0, 1, 2}; !slices.Equal(sink.got, want) {
		t.Fatalf("sink saw %v, want %v", sink.got, want)
	}
	if err := l.Backfill(nil); err == nil {
		t.Fatal("nil sink accepted")
	}
}

func TestHierarchyThroughLoader(t *testing.T) {
	tb := baseTable(t)
	l, _ := New(tb)
	l0, _ := impression.New(tb, impression.Config{Name: "l0", Size: 100, Seed: 1})
	l1, _ := impression.New(tb, impression.Config{Name: "l1", Size: 10, Seed: 2})
	h, err := impression.NewHierarchy([]*impression.Impression{l0, l1}, 200)
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Attach(h); err != nil {
		t.Fatal(err)
	}
	batch := make([]table.Row, 500)
	for i := range batch {
		batch[i] = table.Row{float64(i)}
	}
	if err := l.LoadBatch(batch); err != nil {
		t.Fatal(err)
	}
	if l0.Len() != 100 {
		t.Fatalf("layer0 len = %d", l0.Len())
	}
	if l1.Len() != 10 {
		t.Fatalf("layer1 len = %d", l1.Len())
	}
}
