package sqlparse

import (
	"reflect"
	"strconv"
	"testing"
	"time"
)

// fuzzSeeds is the seed corpus: the accepted statements of
// parser_test.go plus the WITHIN clause grammar corners and a few
// rejected shapes (the fuzzer mutates from both sides of the accept
// boundary).
var fuzzSeeds = []string{
	"SELECT COUNT(*) FROM t WHERE ra >= 185.5 AND type = 'GALAXY'",
	"SELECT COUNT(*), AVG(rmag) AS m FROM PhotoObjAll WHERE ra > 180",
	"SELECT * FROM Galaxy LIMIT 100",
	"SELECT * FROM Galaxy WHERE fGetNearbyObjEq(185, 0, 3)",
	"SELECT COUNT(*) FROM t WHERE NOT (a > 1 OR b < 2) AND c = 'X'",
	"SELECT COUNT(*) FROM t WHERE ra BETWEEN 120 AND 240",
	"SELECT AVG(u - g * 2) AS colour FROM t",
	"SELECT SUM((u - g) / 2) FROM t",
	"SELECT COUNT(*) FROM t WHERE dec > -15.5",
	"SELECT AVG(-x) FROM t",
	"SELECT COUNT(*) AS n FROM t GROUP BY type ORDER BY n DESC LIMIT 5",
	"SELECT ra FROM t ORDER BY ra ASC",
	"SELECT AVG(rmag) FROM t WITHIN ERROR 0.05",
	"SELECT AVG(rmag) FROM t WITHIN ERROR 0.01 CONFIDENCE 0.99",
	"SELECT COUNT(*) FROM t WITHIN TIME 5ms",
	"SELECT AVG(r) FROM t WITHIN ERROR 0.1 WITHIN TIME 2s",
	"SELECT MIN(x), MAX(x), STDDEV(x) FROM t WHERE s <> 'QSO' WITHIN TIME 1.5ms",
	"SELECT AVG(r) FROM t WITHIN TIME 90s",
	"SELECT COUNT(*) FROM t WHERE 5 < 3",
	"SELECT COUNT(*) FROM t WHERE s = 'a\x02\x1FAND\x1Ft2\x1F=\x1F\x02b'",
	"SELECT a.b FROM t WHERE x = 1e6;",
	"SELECT FROM t",
	"SELECT * FROM t WITHIN BANANAS 4",
	"SELECT 'unterminated",
}

// checkDifferential cross-checks one input against the retained
// reference implementation of the pre-rewrite front-end
// (refparser_test.go): identical accept/reject decision and, on accept,
// structurally identical ASTs.
func checkDifferential(t *testing.T, sql string) (*Statement, bool) {
	t.Helper()
	st, err := Parse(sql)
	stRef, errRef := refParse(sql)
	if (err == nil) != (errRef == nil) {
		t.Fatalf("accept/reject divergence on %q: new err=%v, reference err=%v", sql, err, errRef)
	}
	if err != nil {
		return nil, false
	}
	if !reflect.DeepEqual(st, stRef) {
		t.Fatalf("AST divergence on %q:\n  new: %#v\n  ref: %#v", sql, st, stRef)
	}
	return st, true
}

// checkRoundTrip verifies parse → render → parse reproduces the exact
// AST (not just a rendering fixed point): Statement.String is the
// statement's canonical text, so rendering must lose nothing.
func checkRoundTrip(t *testing.T, sql string, st *Statement) {
	t.Helper()
	rendered := st.String()
	st2, err := Parse(rendered)
	if err != nil {
		t.Fatalf("accepted %q but re-parse of rendering %q failed: %v", sql, rendered, err)
	}
	if !reflect.DeepEqual(st2, st) {
		t.Fatalf("round-trip AST drift: %q -> %q:\n  first:  %#v\n  second: %#v", sql, rendered, st, st2)
	}
	if again := st2.String(); again != rendered {
		t.Fatalf("rendering not a fixed point: %q -> %q -> %q", sql, rendered, again)
	}
}

// lexLits is the test-side literal-slot oracle: the values of the plain
// numeric literals (those ParseFloat reads) before the first LIMIT or
// WITHIN keyword, from the lexer alone. ok is false on a lexical error.
func lexLits(sql string) (lits []float64, ok bool) {
	lx := lexer{input: sql}
	for {
		t, err := lx.next()
		if err != nil {
			return nil, false
		}
		if t.kind == tokEOF || t.kw == kwLimit || t.kw == kwWithin {
			return lits, true
		}
		if t.kind == tokNumber {
			if v, perr := strconv.ParseFloat(t.text, 64); perr == nil {
				lits = append(lits, v)
			}
		}
	}
}

// checkParams verifies the prepared-statement binding contract on an
// accepted statement: the parser's slot count (the wire parameter
// count) equals the lexer's count of plain numbers before the first
// LIMIT/WITHIN, replaying the statement's own literals through
// ParseBound reproduces Parse exactly, and a list one value too long or
// too short is refused.
func checkParams(t *testing.T, sql string, st *Statement) {
	t.Helper()
	n, err := Params(sql)
	if err != nil {
		t.Fatalf("accepted statement %q: Params failed: %v", sql, err)
	}
	lits, ok := lexLits(sql)
	if !ok {
		t.Fatalf("accepted statement %q did not lex", sql)
	}
	if n != len(lits) {
		t.Fatalf("Params(%q) = %d, lexer counts %d literal slots %v", sql, n, len(lits), lits)
	}
	st2, err := ParseBound(sql, lits)
	if err != nil {
		t.Fatalf("ParseBound(%q, own lits) failed: %v", sql, err)
	}
	if !reflect.DeepEqual(st2, st) {
		t.Fatalf("ParseBound with own literals diverged on %q:\n  Parse:      %#v\n  ParseBound: %#v", sql, st, st2)
	}
	extra := append(append([]float64(nil), lits...), 1)
	if _, err := ParseBound(sql, extra); err == nil {
		t.Fatalf("ParseBound(%q) accepted %d values for %d slots", sql, len(extra), n)
	}
	if n > 0 {
		if _, err := ParseBound(sql, lits[:n-1]); err == nil {
			t.Fatalf("ParseBound(%q) accepted %d values for %d slots", sql, n-1, n)
		}
	}
}

// FuzzParse fuzzes the SQL front-end for the full property set: Parse
// never panics; accept/reject and ASTs match the retained reference of
// the pre-rewrite parser; every accepted statement survives parse →
// render → parse structurally intact; and its literal slots are the
// lexer's, and rebinding them through ParseBound reproduces Parse.
func FuzzParse(f *testing.F) {
	for _, s := range fuzzSeeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, sql string) {
		st, ok := checkDifferential(t, sql)
		if !ok {
			return // rejected by both: only the no-panic property applies
		}
		checkRoundTrip(t, sql, st)
		checkParams(t, sql, st)
	})
}

// TestDifferentialCorpus runs the differential, round-trip, and
// literal-slot properties over the seed corpus under plain `go test`.
func TestDifferentialCorpus(t *testing.T) {
	for _, sql := range fuzzSeeds {
		st, ok := checkDifferential(t, sql)
		if !ok {
			continue
		}
		checkRoundTrip(t, sql, st)
		checkParams(t, sql, st)
	}
}

// TestParseBoundSlots pins which literals are slots and how binding
// behaves: a prepared statement re-executes with fresh predicate values,
// while LIMIT and WITHIN values stay part of the statement (the parser
// validates them structurally) and a '-' sign stays with the statement.
func TestParseBoundSlots(t *testing.T) {
	cases := []struct {
		sql   string
		slots int
		lits  []float64
		want  string // "" means the binding must be refused
	}{
		{"SELECT COUNT(*) FROM t WHERE x > 5", 1, []float64{7}, "SELECT COUNT(*) FROM t WHERE x > 7"},
		{"SELECT * FROM t WHERE x > 3 LIMIT 10", 1, []float64{4}, "SELECT * FROM t WHERE x > 4 LIMIT 10"},
		{"SELECT COUNT(*) FROM t WHERE dec > -15.5", 1, []float64{2}, "SELECT COUNT(*) FROM t WHERE dec > -2"},
		{"SELECT COUNT(*) FROM t WHERE ra BETWEEN 120 AND 240 WITHIN TIME 5ms", 2, []float64{1, 2},
			"SELECT COUNT(*) FROM t WHERE ra BETWEEN 1 AND 2 WITHIN TIME 5ms"},
		{"SELECT * FROM t LIMIT 5", 0, nil, "SELECT * FROM t LIMIT 5"},
		{"SELECT * FROM t LIMIT 5", 0, []float64{9}, ""},
		{"SELECT AVG(x) FROM t WITHIN ERROR 0.05", 0, []float64{0.5}, ""},
		{"SELECT COUNT(*) FROM t WHERE x > 5", 1, []float64{7, 8}, ""},
		{"SELECT COUNT(*) FROM t WHERE x > 5", 1, nil, ""},
	}
	for _, c := range cases {
		n, err := Params(c.sql)
		if err != nil || n != c.slots {
			t.Errorf("Params(%q) = %d, %v; want %d slots", c.sql, n, err, c.slots)
		}
		got, err := ParseBound(c.sql, c.lits)
		if c.want == "" {
			if err == nil {
				t.Errorf("ParseBound(%q, %v) accepted", c.sql, c.lits)
			}
			continue
		}
		if err != nil {
			t.Errorf("ParseBound(%q, %v): %v", c.sql, c.lits, err)
			continue
		}
		if want := MustParse(c.want); !reflect.DeepEqual(got, want) {
			t.Errorf("ParseBound(%q, %v) diverged from Parse(%q):\n  got:  %#v\n  want: %#v", c.sql, c.lits, c.want, got, want)
		}
	}
	if _, err := Params("SELECT FROM t"); err == nil {
		t.Error("Params accepted a statement Parse refuses")
	}
}

// TestFormatDurationSingleUnit pins the renderer to lexable spellings:
// time.Duration.String would emit "1m30s", which lexes as two tokens.
func TestFormatDurationSingleUnit(t *testing.T) {
	cases := []struct {
		d    time.Duration
		want string
	}{
		{90 * time.Second, "90s"},
		{1500 * time.Microsecond, "1500us"},
		{2 * time.Hour, "2h"},
		{90 * time.Minute, "90m"},
		{5 * time.Millisecond, "5ms"},
		{1234 * time.Nanosecond, "1234ns"},
	}
	for _, c := range cases {
		if got := FormatDuration(c.d); got != c.want {
			t.Errorf("FormatDuration(%v) = %q, want %q", c.d, got, c.want)
		}
		st, err := Parse("SELECT COUNT(*) FROM t WITHIN TIME " + FormatDuration(c.d))
		if err != nil {
			t.Errorf("rendered duration %q does not parse: %v", FormatDuration(c.d), err)
		} else if st.Bounds.MaxTime != c.d {
			t.Errorf("duration round-trip %v -> %v", c.d, st.Bounds.MaxTime)
		}
	}
}

// TestStatementStringRoundTrip pins the seed corpus round-trip outside
// the fuzzer, so plain `go test` exercises it.
func TestStatementStringRoundTrip(t *testing.T) {
	for _, sql := range fuzzSeeds {
		st, err := Parse(sql)
		if err != nil {
			continue
		}
		rendered := st.String()
		st2, err := Parse(rendered)
		if err != nil {
			t.Errorf("%q rendered to unparseable %q: %v", sql, rendered, err)
			continue
		}
		if again := st2.String(); again != rendered {
			t.Errorf("fixed point violated: %q -> %q -> %q", sql, rendered, again)
		}
	}
}
