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

// checkFingerprint verifies the prepared-statement binding contract:
// every lexable statement fingerprints, and replaying the statement's
// own literals through ParseBound reproduces Parse exactly.
func checkFingerprint(t *testing.T, sql string, st *Statement) {
	t.Helper()
	shape, lits, ok := Fingerprint(nil, nil, sql)
	if !ok {
		t.Fatalf("accepted statement %q did not fingerprint", sql)
	}
	_ = shape
	st2, err := ParseBound(sql, lits)
	if err != nil {
		t.Fatalf("ParseBound(%q, own lits) failed: %v", sql, err)
	}
	if !reflect.DeepEqual(st2, st) {
		t.Fatalf("ParseBound with own literals diverged on %q:\n  Parse:      %#v\n  ParseBound: %#v", sql, st, st2)
	}
}

// FuzzParse fuzzes the SQL front-end for the full property set: Parse
// never panics; accept/reject and ASTs match the retained reference of
// the pre-rewrite parser; every accepted statement survives parse →
// render → parse structurally intact; and literal replay through
// Fingerprint/ParseBound reproduces Parse.
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
		checkFingerprint(t, sql, st)
	})
}

// TestDifferentialCorpus runs the differential, round-trip, and
// fingerprint properties over the seed corpus under plain `go test`.
func TestDifferentialCorpus(t *testing.T) {
	for _, sql := range fuzzSeeds {
		st, ok := checkDifferential(t, sql)
		if !ok {
			continue
		}
		checkRoundTrip(t, sql, st)
		checkFingerprint(t, sql, st)
	}
}

// TestFingerprintShapeSharing pins the parameterisation that lets
// literal-variant statements share one shape, so a prepared statement
// can be re-executed with fresh literals.
func TestFingerprintShapeSharing(t *testing.T) {
	a, aLits, ok := Fingerprint(nil, nil, "SELECT COUNT(*) FROM t WHERE x > 5")
	if !ok {
		t.Fatal("fingerprint failed")
	}
	b, bLits, ok := Fingerprint(nil, nil, "SELECT COUNT(*) FROM t WHERE x > 7")
	if !ok {
		t.Fatal("fingerprint failed")
	}
	if string(a) != string(b) {
		t.Fatalf("literal variants have different shapes:\n  %q\n  %q", a, b)
	}
	if len(aLits) != 1 || aLits[0] != 5 || len(bLits) != 1 || bLits[0] != 7 {
		t.Fatalf("literal extraction wrong: %v vs %v", aLits, bLits)
	}
	// Binding the second statement's literals into the first (the
	// template) must reproduce the second statement's AST.
	want := MustParse("SELECT COUNT(*) FROM t WHERE x > 7")
	got, err := ParseBound("SELECT COUNT(*) FROM t WHERE x > 5", bLits)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("cross-binding diverged:\n  got:  %#v\n  want: %#v", got, want)
	}

	// LIMIT and WITHIN literals are shape, not parameters: variants must
	// NOT share a fingerprint (their values are validated structurally).
	l1, _, _ := Fingerprint(nil, nil, "SELECT * FROM t LIMIT 5")
	l2, _, _ := Fingerprint(nil, nil, "SELECT * FROM t LIMIT 9")
	if string(l1) == string(l2) {
		t.Fatal("LIMIT literals must stay part of the shape")
	}
	w1, _, _ := Fingerprint(nil, nil, "SELECT AVG(x) FROM t WITHIN ERROR 0.05")
	w2, _, _ := Fingerprint(nil, nil, "SELECT AVG(x) FROM t WITHIN ERROR 0.5")
	if string(w1) == string(w2) {
		t.Fatal("WITHIN literals must stay part of the shape")
	}
	// Predicate literals before a LIMIT still parameterise.
	p1, p1L, _ := Fingerprint(nil, nil, "SELECT * FROM t WHERE x > 3 LIMIT 10")
	p2, p2L, _ := Fingerprint(nil, nil, "SELECT * FROM t WHERE x > 4 LIMIT 10")
	if string(p1) != string(p2) {
		t.Fatal("predicate literals before LIMIT must parameterise")
	}
	if len(p1L) != 1 || p1L[0] != 3 || len(p2L) != 1 || p2L[0] != 4 {
		t.Fatalf("predicate literal extraction wrong: %v vs %v", p1L, p2L)
	}
}

// maskedToken is one lexed token with parameterisable numeric literal
// values masked out — the equivalence class Fingerprint is meant to
// compute.
type maskedToken struct {
	kind tokKind
	text string
}

// maskedTokens lexes sql into its fingerprint equivalence class,
// mirroring Fingerprint's parameterisation window exactly; ok is false
// on a lexical error.
func maskedTokens(sql string) ([]maskedToken, bool) {
	lx := lexer{input: sql}
	paramOn := true
	var out []maskedToken
	for {
		t, err := lx.next()
		if err != nil {
			return nil, false
		}
		if t.kind == tokEOF {
			return out, true
		}
		text := t.text
		switch t.kind {
		case tokNumber:
			if paramOn {
				if _, perr := strconv.ParseFloat(t.text, 64); perr == nil {
					text = "?"
				}
			}
		case tokString:
			// Verbatim: string content is never parameterised.
		default:
			if t.kw == kwLimit || t.kw == kwWithin {
				paramOn = false
			}
		}
		out = append(out, maskedToken{kind: t.kind, text: text})
	}
}

// checkFingerprintInjective asserts the injectivity direction of the
// fingerprint contract: equal shapes imply equal token sequences
// (modulo parameterised literal values). A violation means one
// statement can pass for a literal rebinding of another.
func checkFingerprintInjective(t *testing.T, a, b string) {
	t.Helper()
	fpA, litsA, okA := Fingerprint(nil, nil, a)
	fpB, litsB, okB := Fingerprint(nil, nil, b)
	if !okA || !okB || string(fpA) != string(fpB) {
		return
	}
	if len(litsA) != len(litsB) {
		t.Fatalf("equal shapes with different literal counts: %q (%d) vs %q (%d)", a, len(litsA), b, len(litsB))
	}
	ta, _ := maskedTokens(a)
	tb, _ := maskedTokens(b)
	if !reflect.DeepEqual(ta, tb) {
		t.Fatalf("fingerprint collision: %q and %q share shape %q but lex differently", a, b, fpA)
	}
}

// FuzzFingerprintInjective fuzzes statement pairs for shape collisions.
func FuzzFingerprintInjective(f *testing.F) {
	f.Add("SELECT COUNT(*) FROM t WHERE s = 'a\x02\x1FAND\x1Ft2\x1F=\x1F\x02b'",
		"SELECT COUNT(*) FROM t WHERE s = 'a' AND t2 = 'b'")
	f.Add("SELECT * FROM t WHERE s = 'x'", "SELECT * FROM t WHERE s = 'x'")
	for i := 1; i < len(fuzzSeeds); i++ {
		f.Add(fuzzSeeds[i-1], fuzzSeeds[i])
	}
	f.Fuzz(func(t *testing.T, a, b string) {
		checkFingerprintInjective(t, a, b)
	})
}

// TestFingerprintStringInjection pins the fix for a cross-tenant shape
// forgery: a string literal embedding the fingerprint control bytes
// must not reproduce the fingerprint of a structurally different
// statement (shape templates are shared across tenants, so a collision
// would let one tenant's statement answer another tenant's query).
func TestFingerprintStringInjection(t *testing.T) {
	forged := "SELECT COUNT(*) FROM t WHERE s = 'a\x02\x1FAND\x1Ft2\x1F=\x1F\x02b'"
	honest := "SELECT COUNT(*) FROM t WHERE s = 'a' AND t2 = 'b'"
	fpF, litsF, ok := Fingerprint(nil, nil, forged)
	if !ok {
		t.Fatal("forged statement did not fingerprint")
	}
	fpH, litsH, ok := Fingerprint(nil, nil, honest)
	if !ok {
		t.Fatal("honest statement did not fingerprint")
	}
	if len(litsF) != 0 || len(litsH) != 0 {
		t.Fatalf("unexpected literals: %v vs %v", litsF, litsH)
	}
	if string(fpF) == string(fpH) {
		t.Fatalf("control-byte string literal forged the shape of a different statement: %q", fpF)
	}
	// String literals sharing concatenated bytes but split differently
	// must also stay distinct (the length prefix disambiguates).
	checkFingerprintInjective(t, forged, honest)
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
