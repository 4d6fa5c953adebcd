package sciborq

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"sciborq/internal/bounded"
	"sciborq/internal/engine"
	"sciborq/internal/estimate"
	"sciborq/internal/stats"
)

// Edge-case coverage for the public Result accessors: missing columns,
// NaN estimates, empty grouped results, and the empty Result itself.

func resultFixture(t *testing.T) *DB {
	t.Helper()
	db := Open(testCost())
	if _, err := db.CreateTable("T", Schema{
		{Name: "x", Type: Float64},
		{Name: "g", Type: Int64},
	}); err != nil {
		t.Fatal(err)
	}
	rows := []Row{}
	for i := 0; i < 20; i++ {
		rows = append(rows, Row{float64(i), int64(i % 3)})
	}
	if err := db.Load("T", rows); err != nil {
		t.Fatal(err)
	}
	return db
}

func TestResultScalarMissingColumn(t *testing.T) {
	db := resultFixture(t)
	res, err := db.Exec("SELECT AVG(x) AS a FROM T")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := res.Scalar("nope"); err == nil {
		t.Fatal("missing exact-result column did not error")
	}
	if v, err := res.Scalar("a"); err != nil || v != 9.5 {
		t.Fatalf("Scalar(a) = %v, %v", v, err)
	}
	// Bounded results miss by aggregate name, not column.
	bres, err := db.Exec("SELECT AVG(x) AS a FROM T WITHIN ERROR 0.5 CONFIDENCE 0.9")
	if err != nil {
		t.Fatal(err)
	}
	if bres.Bounded == nil {
		t.Fatal("expected a bounded answer")
	}
	if _, err := bres.Scalar("nope"); err == nil {
		t.Fatal("missing bounded aggregate did not error")
	}
	if _, err := bres.Scalar("a"); err != nil {
		t.Fatal(err)
	}
}

func TestResultScalarEmptyAndGrouped(t *testing.T) {
	db := resultFixture(t)
	// Empty grouped result: the predicate matches nothing, so the
	// grouped table has zero rows — Scalar must refuse (needs exactly
	// one row) and String must render the header without panicking.
	res, err := db.Exec("SELECT COUNT(*) AS c FROM T WHERE x < -5 GROUP BY g")
	if err != nil {
		t.Fatal(err)
	}
	if res.Rows == nil || res.Rows.Len() != 0 {
		t.Fatalf("expected empty grouped result, got %+v", res.Rows)
	}
	if _, err := res.Scalar("c"); err == nil {
		t.Fatal("Scalar on a zero-row grouped result did not error")
	}
	s := res.String()
	if !strings.Contains(s, "g") || !strings.Contains(s, "c") {
		t.Fatalf("empty grouped String lost the header: %q", s)
	}
	// Multi-group results also refuse Scalar (ambiguous row).
	grouped, err := db.Exec("SELECT COUNT(*) AS c FROM T GROUP BY g")
	if err != nil {
		t.Fatal(err)
	}
	if grouped.Rows.Len() != 3 {
		t.Fatalf("want 3 groups, got %d", grouped.Rows.Len())
	}
	if _, err := grouped.Scalar("c"); err == nil {
		t.Fatal("Scalar on a multi-row grouped result did not error")
	}
	// The zero Result renders and errors gracefully.
	var empty Result
	if got := empty.String(); got != "(empty)" {
		t.Fatalf("empty String = %q", got)
	}
	if _, err := empty.Scalar("c"); err == nil {
		t.Fatal("empty Result Scalar did not error")
	}
	if empty.Estimates() != nil {
		t.Fatal("empty Result claims estimates")
	}
}

func TestResultStringNaNEstimates(t *testing.T) {
	// A bounded answer whose estimate is NaN with an infinite interval —
	// the shape an empty sample produces — must render, not panic, and
	// Scalar must surface the NaN value rather than inventing a number.
	nanResult := &Result{
		Bounded: &bounded.Answer{
			Layer: "T/L0",
			Estimates: []estimate.Estimate{{
				Spec:     engine.AggSpec{Func: engine.Avg, Alias: "a"},
				Interval: stats.Interval{Estimate: math.NaN(), HalfWidth: math.Inf(1), Level: 0.95},
			}},
		},
	}
	s := nanResult.String()
	if !strings.Contains(s, "NaN") {
		t.Fatalf("NaN estimate not rendered: %q", s)
	}
	v, err := nanResult.Scalar("a")
	if err != nil {
		t.Fatal(err)
	}
	if !math.IsNaN(v) {
		t.Fatalf("Scalar(a) = %v, want NaN", v)
	}
	// An end-to-end empty-selection bounded query reaches the same shape.
	db := resultFixture(t)
	res, err := db.Exec("SELECT AVG(x) AS a FROM T WHERE x < -5 WITHIN ERROR 0.5")
	if err != nil {
		t.Fatal(err)
	}
	if res.String() == "" {
		t.Fatal("empty-selection bounded result rendered nothing")
	}
}

// TestGroupByOrderByGroupKey orders grouped results by the GROUP BY
// column itself: BIGINT keys as integers (−5 < 2 < 10 < 100, which a
// string sort gets wrong), VARCHAR keys by their word, DESC and LIMIT
// as for aggregate outputs.
func TestGroupByOrderByGroupKey(t *testing.T) {
	db := Open(testCost())
	if _, err := db.CreateTable("K", Schema{
		{Name: "g", Type: Int64},
		{Name: "s", Type: String},
		{Name: "x", Type: Float64},
	}); err != nil {
		t.Fatal(err)
	}
	gs := []int64{10, -5, 2, 10, 100, -5, 2, 10}
	ss := []string{"STAR", "QSO", "STAR", "GALAXY", "QSO", "STAR", "UNKNOWN", "GALAXY"}
	rows := make([]Row, len(gs))
	for i := range gs {
		rows[i] = Row{gs[i], ss[i], float64(i)}
	}
	if err := db.Load("K", rows); err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		sql  string
		want [][]string // key, n per result row
	}{
		{"SELECT COUNT(*) AS n FROM K GROUP BY g ORDER BY g",
			[][]string{{"-5", "2"}, {"2", "2"}, {"10", "3"}, {"100", "1"}}},
		{"SELECT COUNT(*) AS n FROM K GROUP BY g ORDER BY g DESC LIMIT 2",
			[][]string{{"100", "1"}, {"10", "3"}}},
		{"SELECT COUNT(*) AS n FROM K WHERE x > 0 GROUP BY g ORDER BY g LIMIT 3",
			[][]string{{"-5", "2"}, {"2", "2"}, {"10", "2"}}},
		{"SELECT COUNT(*) AS n FROM K GROUP BY s ORDER BY s",
			[][]string{{"GALAXY", "2"}, {"QSO", "2"}, {"STAR", "3"}, {"UNKNOWN", "1"}}},
		{"SELECT COUNT(*) AS n FROM K GROUP BY s ORDER BY s DESC LIMIT 2",
			[][]string{{"UNKNOWN", "1"}, {"STAR", "3"}}},
	}
	for _, c := range cases {
		res, err := db.Exec(c.sql)
		if err != nil {
			t.Fatalf("%s: %v", c.sql, err)
		}
		var got [][]string
		for i := 0; i < res.Rows.Len(); i++ {
			got = append(got, res.Rows.Table.RowStrings(int32(i)))
		}
		if fmt.Sprint(got) != fmt.Sprint(c.want) {
			t.Fatalf("%s = %v, want %v", c.sql, got, c.want)
		}
	}
	if _, err := db.Exec("SELECT COUNT(*) AS n FROM K GROUP BY g ORDER BY x"); err == nil {
		t.Fatal("ORDER BY a column that is neither an aggregate output nor the group key was accepted")
	}
}
