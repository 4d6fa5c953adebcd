package sqlparse

import (
	"strings"
	"testing"
	"time"

	"sciborq/internal/engine"
	"sciborq/internal/expr"
	"sciborq/internal/vec"
)

func TestLexBasics(t *testing.T) {
	toks, err := lex("SELECT COUNT(*) FROM t WHERE ra >= 185.5 AND type = 'GALAXY'")
	if err != nil {
		t.Fatal(err)
	}
	if toks[len(toks)-1].kind != tokEOF {
		t.Fatal("missing EOF token")
	}
	var texts []string
	for _, tk := range toks[:len(toks)-1] {
		texts = append(texts, tk.text)
	}
	want := "SELECT COUNT ( * ) FROM t WHERE ra >= 185.5 AND type = GALAXY"
	if got := strings.Join(texts, " "); got != want {
		t.Fatalf("tokens = %q, want %q", got, want)
	}
}

func TestLexErrors(t *testing.T) {
	if _, err := lex("SELECT 'unterminated"); err == nil {
		t.Fatal("unterminated string accepted")
	}
	if _, err := lex("SELECT @"); err == nil {
		t.Fatal("bad character accepted")
	}
}

func TestLexNumbersAndDurations(t *testing.T) {
	toks, err := lex("1.5e-3 5ms 42 .5")
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"1.5e-3", "5ms", "42", ".5"}
	for i, w := range want {
		if toks[i].kind != tokNumber || toks[i].text != w {
			t.Fatalf("token %d = %+v, want number %q", i, toks[i], w)
		}
	}
}

func TestParseSimpleAggregate(t *testing.T) {
	st, err := Parse("SELECT COUNT(*), AVG(rmag) AS m FROM PhotoObjAll WHERE ra > 180")
	if err != nil {
		t.Fatal(err)
	}
	q := st.Query
	if q.Table != "PhotoObjAll" || len(q.Aggs) != 2 {
		t.Fatalf("query = %+v", q)
	}
	if q.Aggs[0].Func != engine.Count || q.Aggs[0].Arg != nil {
		t.Fatalf("agg0 = %+v", q.Aggs[0])
	}
	if q.Aggs[1].Func != engine.Avg || q.Aggs[1].Alias != "m" {
		t.Fatalf("agg1 = %+v", q.Aggs[1])
	}
	cmp, ok := q.Where.(expr.Cmp)
	if !ok || cmp.Op != vec.Gt || cmp.Right != 180 {
		t.Fatalf("where = %+v", q.Where)
	}
}

func TestParseStar(t *testing.T) {
	st := MustParse("SELECT * FROM Galaxy LIMIT 100")
	if len(st.Query.Select) != 1 || st.Query.Select[0] != "*" {
		t.Fatalf("select = %v", st.Query.Select)
	}
	if st.Query.Limit != 100 {
		t.Fatalf("limit = %d", st.Query.Limit)
	}
}

func TestParsePaperQuery(t *testing.T) {
	// The paper's Figure 1 query shape.
	st, err := Parse("SELECT * FROM Galaxy WHERE fGetNearbyObjEq(185, 0, 3)")
	if err != nil {
		t.Fatal(err)
	}
	cone, ok := st.Query.Where.(expr.Cone)
	if !ok {
		t.Fatalf("where = %T", st.Query.Where)
	}
	if cone.Ra0 != 185 || cone.Dec0 != 0 || cone.Radius != 3 {
		t.Fatalf("cone = %+v", cone)
	}
	if cone.RaCol != "ra" || cone.DecCol != "dec" {
		t.Fatalf("cone columns = %+v", cone)
	}
}

func TestParseBooleanStructure(t *testing.T) {
	st := MustParse("SELECT COUNT(*) FROM t WHERE NOT (a > 1 OR b < 2) AND c = 'X'")
	and, ok := st.Query.Where.(expr.And)
	if !ok {
		t.Fatalf("top = %T", st.Query.Where)
	}
	if _, ok := and.L.(expr.Not); !ok {
		t.Fatalf("left = %T", and.L)
	}
	se, ok := and.R.(expr.StrEq)
	if !ok || se.Col != "c" || se.Value != "X" || se.Neg {
		t.Fatalf("right = %+v", and.R)
	}
}

func TestParseBetween(t *testing.T) {
	st := MustParse("SELECT COUNT(*) FROM t WHERE ra BETWEEN 120 AND 240")
	b, ok := st.Query.Where.(expr.Between)
	if !ok || b.Lo != 120 || b.Hi != 240 {
		t.Fatalf("between = %+v", st.Query.Where)
	}
}

func TestParseArithmeticPrecedence(t *testing.T) {
	st := MustParse("SELECT AVG(u - g * 2) AS colour FROM t")
	a, ok := st.Query.Aggs[0].Arg.(expr.Arith)
	if !ok || a.Op != expr.Sub {
		t.Fatalf("arg = %+v", st.Query.Aggs[0].Arg)
	}
	mul, ok := a.R.(expr.Arith)
	if !ok || mul.Op != expr.Mul {
		t.Fatalf("precedence wrong: right = %+v", a.R)
	}
}

func TestParseParenthesisedScalar(t *testing.T) {
	st := MustParse("SELECT SUM((u - g) / 2) FROM t")
	d, ok := st.Query.Aggs[0].Arg.(expr.Arith)
	if !ok || d.Op != expr.Div {
		t.Fatalf("arg = %+v", st.Query.Aggs[0].Arg)
	}
}

func TestParseNegativeNumbers(t *testing.T) {
	st := MustParse("SELECT COUNT(*) FROM t WHERE dec > -15.5")
	cmp := st.Query.Where.(expr.Cmp)
	if cmp.Right != -15.5 {
		t.Fatalf("rhs = %v", cmp.Right)
	}
	st = MustParse("SELECT AVG(-x) FROM t")
	if _, ok := st.Query.Aggs[0].Arg.(expr.Arith); !ok {
		t.Fatal("unary minus not parsed")
	}
}

func TestParseGroupOrderLimit(t *testing.T) {
	st := MustParse("SELECT COUNT(*) AS n FROM t GROUP BY type ORDER BY n DESC LIMIT 5")
	q := st.Query
	if q.GroupBy != "type" || q.OrderBy != "n" || !q.Desc || q.Limit != 5 {
		t.Fatalf("query = %+v", q)
	}
	st = MustParse("SELECT ra FROM t ORDER BY ra ASC")
	if st.Query.Desc {
		t.Fatal("ASC parsed as DESC")
	}
}

func TestParseWithinError(t *testing.T) {
	st := MustParse("SELECT AVG(rmag) FROM t WITHIN ERROR 0.05")
	if !st.Bounds.HasErrorBound() || st.Bounds.MaxRelError != 0.05 {
		t.Fatalf("bounds = %+v", st.Bounds)
	}
	if st.Bounds.Confidence != 0.95 {
		t.Fatalf("default confidence = %v", st.Bounds.Confidence)
	}
	st = MustParse("SELECT AVG(rmag) FROM t WITHIN ERROR 0.01 CONFIDENCE 0.99")
	if st.Bounds.MaxRelError != 0.01 || st.Bounds.Confidence != 0.99 {
		t.Fatalf("bounds = %+v", st.Bounds)
	}
}

func TestParseWithinTime(t *testing.T) {
	st := MustParse("SELECT COUNT(*) FROM t WITHIN TIME 5ms")
	if !st.Bounds.HasTimeBound() || st.Bounds.MaxTime != 5*time.Millisecond {
		t.Fatalf("bounds = %+v", st.Bounds)
	}
	// Both bounds together ("most representative result within 5 minutes").
	st = MustParse("SELECT AVG(r) FROM t WITHIN ERROR 0.1 WITHIN TIME 2s")
	if !st.Bounds.HasErrorBound() || !st.Bounds.HasTimeBound() {
		t.Fatalf("bounds = %+v", st.Bounds)
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		"",
		"INSERT INTO t VALUES (1)",
		"SELECT FROM t",
		"SELECT * FROM",
		"SELECT * FROM t WHERE",
		"SELECT * FROM t WHERE ra >",
		"SELECT COUNT( FROM t",
		"SELECT * FROM t LIMIT -3",
		"SELECT * FROM t LIMIT 2.5",
		"SELECT * FROM t LIMIT 0", // the engine would read 0 as "no limit"
		"SELECT * FROM t WITHIN ERROR 1.5",
		"SELECT * FROM t WITHIN ERROR 0.1 CONFIDENCE 2",
		"SELECT * FROM t WITHIN TIME abc",
		"SELECT * FROM t WITHIN BANANAS 4",
		"SELECT * FROM t WHERE type = 5 = 6",
		"SELECT * FROM t trailing junk",
		"SELECT AVG(x) FROM t GROUP BY",
		"SELECT * FROM t WHERE (a > 1",
		"SELECT * FROM t WHERE 'str' = type",
		"SELECT * FROM t WHERE type < 'GALAXY'",
		"SELECT * FROM t WHERE a + 1 = 'x'",
		"SELECT x, COUNT(*) FROM t", // mixed projection and aggregate
	}
	for _, sql := range bad {
		if _, err := Parse(sql); err == nil {
			t.Errorf("accepted bad SQL: %q", sql)
		}
	}
}

func TestParseWithinTimeDurations(t *testing.T) {
	cases := map[string]time.Duration{
		"100us": 100 * time.Microsecond,
		"250ms": 250 * time.Millisecond,
		"2s":    2 * time.Second,
		"1m":    time.Minute,
	}
	for lit, want := range cases {
		st, err := Parse("SELECT COUNT(*) FROM t WITHIN TIME " + lit)
		if err != nil {
			t.Fatalf("%s: %v", lit, err)
		}
		if st.Bounds.MaxTime != want {
			t.Fatalf("%s parsed as %v", lit, st.Bounds.MaxTime)
		}
	}
}

func TestParseCaseInsensitiveKeywords(t *testing.T) {
	st, err := Parse("select count(*) from t where ra between 1 and 2 group by g order by n desc limit 3")
	if err != nil {
		t.Fatal(err)
	}
	if st.Query.GroupBy != "g" || st.Query.Limit != 3 || !st.Query.Desc {
		t.Fatalf("query = %+v", st.Query)
	}
}

func TestMustParsePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("MustParse did not panic on bad SQL")
		}
	}()
	MustParse("not sql")
}

func TestParsedQueryExecutesEndToEnd(t *testing.T) {
	// Sanity: the parser output is directly executable.
	st := MustParse("SELECT COUNT(*) AS n FROM t WHERE x BETWEEN 2 AND 4")
	if st.Query.Validate() != nil {
		t.Fatal("parsed query invalid")
	}
	if st.Query.Pred().String() != "x BETWEEN 2 AND 4" {
		t.Fatalf("pred = %s", st.Query.Pred())
	}
}
